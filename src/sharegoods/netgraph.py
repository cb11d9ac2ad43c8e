"""Undirected simple graphs: construction, edge-list ingestion, k-hop queries,
and the generator families used by the simulations."""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, fields
from typing import Iterable, Sequence


class ParseError(ValueError):
    """Malformed edge-list input."""


class ConfigError(ValueError):
    """Invalid generator parameters."""


# Zachary karate club, 0-based, 34 nodes / 78 edges.
KARATE_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
    (0, 10), (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31),
    (1, 2), (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21), (1, 30),
    (2, 3), (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28), (2, 32),
    (3, 7), (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16),
    (6, 16), (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32), (14, 33),
    (15, 32), (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33),
    (22, 32), (22, 33), (23, 25), (23, 27), (23, 29), (23, 32), (23, 33),
    (24, 25), (24, 27), (24, 31), (25, 31), (26, 29), (26, 33), (27, 33),
    (28, 31), (28, 33), (29, 32), (29, 33), (30, 32), (30, 33), (31, 32),
    (31, 33), (32, 33),
)


class Graph:
    """Immutable undirected simple graph on dense node ids 0..n-1.

    Its adjacency is each node's closed neighbourhood, a sorted tuple that
    holds the node itself; that tuple of tuples is also the k=1 ball table.
    `edges` is built in O(m) on each access, for tests, not hot paths.
    Closed k-hop balls for the other radii are built once per k and cached;
    the solvers reuse them.
    """

    __slots__ = ("n", "_adj", "_nbhd_cache")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("node count must be non-negative")
        adj: list[list[int]] = [[i] for i in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            # Each list starts with its node's own id object; storing that
            # one, not the caller's copy, keeps one int per node alive.
            au, av = adj[u], adj[v]
            au.append(av[0])
            av.append(au[0])
        self.n = n
        self._adj = tuple(tuple(sorted(set(a))) for a in adj)
        self._nbhd_cache: dict[int, tuple[array, ...]] = {}

    @property
    def edges(self) -> frozenset:
        return frozenset((u, v) for u, a in enumerate(self._adj)
                         for v in a if u < v)

    @property
    def edge_count(self) -> int:
        return (sum(map(len, self._adj)) - self.n) // 2

    def closed_neighborhoods(self, k: int) -> tuple[Sequence[int], ...]:
        """Every node's closed k-hop ball, sorted, indexed by node.

        k=1 returns the adjacency itself, a tuple per node. Any other k
        builds its table once and caches it: each ball is an `array.array`
        of typecode 'H' (2 bytes an id) when n <= 65,536, else 'I'. The
        balls are shared by every caller and must not be modified."""
        if k == 1:
            return self._adj
        cached = self._nbhd_cache.get(k)
        if cached is None:
            if k < 0:
                raise ValueError(f"k must be >= 0, got {k}")
            typecode = "H" if self.n <= 1 << 16 else "I"
            # One BFS per source, depth k; mark[w] == source means seen.
            adj = self._adj
            mark = [-1] * self.n
            balls = []
            for i in range(self.n):
                mark[i] = i
                ball = [i]
                frontier = ball
                for _ in range(k):
                    nxt = []
                    for v in frontier:
                        for w in adj[v]:
                            if mark[w] != i:
                                mark[w] = i
                                nxt.append(w)
                    if not nxt:
                        break
                    ball += nxt
                    frontier = nxt
                ball.sort()
                balls.append(array(typecode, ball))
            cached = self._nbhd_cache[k] = tuple(balls)
        return cached

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


@dataclass(frozen=True)
class FamilySpec:
    """A built-in graph family and its parameters, one field per config key
    (`arm_len` is the tree families' arm length, `graph_seed` the seed of
    er_random); `FAMILIES` says which fields each family takes."""

    family: str
    n: int | None = None
    arm_len: int | None = None
    m: int | None = None
    prob: float | None = None
    graph_seed: int | None = None

    @property
    def label(self) -> str:
        """The dataset name: the family and, in brackets, its params other
        than graph_seed, e.g. `er_random(50,0.1)`; `karate` takes none."""
        values = [getattr(self, key) for key in FAMILIES[self.family][1]
                  if key != "graph_seed"]
        shown = ",".join(format(v, "g" if isinstance(v, float) else "")
                         for v in values)
        return f"{self.family}({shown})" if values else self.family


def load_edge_list(text: str) -> Graph:
    """Parse an edge-list document: two ASCII-digit ids a line, '#' comments.

    Node ids are remapped to dense 0-based ids preserving sorted original
    order; duplicate edges collapse; self-loops are rejected.
    """
    us: list[int] = []
    vs: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two tokens, got {len(tokens)}")
        u, v = tokens        # ids are ASCII digits: no sign, '_' or script
        if not (u.isdigit() and v.isdigit() and u.isascii() and v.isascii()):
            msg = ("negative node id" if all(t.removeprefix("-").isdigit()
                   and t.isascii() for t in tokens) else "non-integer token")
            raise ParseError(f"line {lineno}: {msg}")
        u, v = int(u), int(v)
        if u == v:
            raise ParseError(f"line {lineno}: self-loop on node {u}")
        us.append(u)
        vs.append(v)
    remap = {orig: i for i, orig in enumerate(sorted({*us, *vs}))}
    return Graph(len(remap), zip(map(remap.__getitem__, us),
                                 map(remap.__getitem__, vs)))


def star(n: int) -> Graph:
    if n < 1:
        raise ConfigError("star requires n >= 1")
    return Graph(n, [(0, i) for i in range(1, n)])


def chain(n: int) -> Graph:
    if n < 1:
        raise ConfigError("chain requires n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    if n < 1:
        raise ConfigError("complete requires n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def er_random(n: int, prob: float, seed: int) -> Graph:
    """G(n, prob); deterministic for a fixed seed (fixed pair order)."""
    if n < 1:
        raise ConfigError("er_random requires n >= 1")
    if not 0.0 <= prob <= 1.0:
        raise ConfigError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < prob]
    return Graph(n, edges)


def _arm_tree(centers: int, k: int, m: int) -> Graph:
    """Centers 0..centers-1 on a path, each with m pendant paths of k
    nodes, numbered center after center and outwards from centers on."""
    edges = [(c, c + 1) for c in range(centers - 1)]
    nxt = centers
    for center in range(centers):
        for _ in range(m):     # the path center, nxt, ..., nxt + k - 1
            edges += zip([center, *range(nxt, nxt + k - 1)],
                         range(nxt, nxt + k))
            nxt += k
    return Graph(nxt, edges)


def two_center_tree(k: int, m: int) -> Graph:
    """Two adjacent centers, each with m pendant paths of k nodes."""
    if k < 1 or m < 1:
        raise ConfigError("two_center_tree requires k >= 1 and m >= 1")
    return _arm_tree(2, k, m)


def center_arms_tree(k: int, m: int) -> Graph:
    """One center with m pendant paths of k nodes."""
    if k < 1 or m < 1:
        raise ConfigError("center_arms_tree requires k >= 1 and m >= 1")
    return _arm_tree(1, k, m)


def karate() -> Graph:
    return Graph(34, KARATE_EDGES)


# Each family's builder and the FamilySpec fields it takes, in the
# builder's argument order.
FAMILIES = {
    "star": (star, ("n",)),
    "chain": (chain, ("n",)),
    "complete": (complete, ("n",)),
    "er_random": (er_random, ("n", "prob", "graph_seed")),
    "two_center_tree": (two_center_tree, ("arm_len", "m")),
    "center_arms_tree": (center_arms_tree, ("arm_len", "m")),
    "karate": (karate, ()),
}
# Every family parameter: the FamilySpec fields after `family`.
PARAMS = tuple(f.name for f in fields(FamilySpec))[1:]


def generate(spec: FamilySpec) -> Graph:
    """Build a graph from a FamilySpec that sets exactly its family's
    params and leaves the others None."""
    if spec.family not in FAMILIES:
        raise ConfigError(f"unknown family {spec.family!r}")
    builder, params = FAMILIES[spec.family]
    for key in PARAMS:
        if (getattr(spec, key) is None) == (key in params):
            rule = "requires" if key in params else "takes no"
            raise ConfigError(f"family {spec.family!r} {rule} {key!r}")
    return builder(*(getattr(spec, key) for key in params))


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components, ordered by smallest member, each sorted."""
    adj = g.closed_neighborhoods(1)
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if not seen[start]:
            seen[start] = True
            comp = [start]
            for v in comp:    # breadth first: comp grows as it is read
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
            comps.append(sorted(comp))
    return comps
