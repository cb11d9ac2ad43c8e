"""Independent brute-force oracles used by the tests. These deliberately
avoid the library's solver/enumeration code paths."""

from __future__ import annotations

import itertools
import random

from sharegoods import game
from sharegoods.game import SGG, SGG_AC, GameConfig
from sharegoods.netgraph import Graph


def _ball_masks(g: Graph, k: int) -> list[int]:
    masks = []
    for nb in g.closed_neighborhoods(k):
        m = 0
        for j in nb:
            m |= 1 << j
        masks.append(m)
    return masks


def exhaustive_min_dominating(g: Graph, k: int) -> int:
    """Minimum distance-k dominating set size by subset enumeration."""
    n = g.n
    cov = _ball_masks(g, k)
    full = (1 << n) - 1
    best = n
    for mask in range(1 << n):
        size = mask.bit_count()
        if size >= best:
            continue
        covered = 0
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            covered |= cov[v]
        if covered == full:
            best = size
    return best


def scan_greedy_dominating(g: Graph, k: int) -> set[int]:
    """Greedy distance-k domination by a full rescan per pick: add the node
    covering the most uncovered nodes, ties to the lowest id."""
    n = g.n
    cov = _ball_masks(g, k)
    full = (1 << n) - 1
    uncovered = full
    chosen: set[int] = set()
    while uncovered:
        best_v, best_gain = -1, -1
        for v in range(n):
            gain = (cov[v] & uncovered).bit_count()
            if gain > best_gain:
                best_v, best_gain = v, gain
        chosen.add(best_v)
        uncovered &= ~cov[best_v]
    return chosen


def brute_force_sgg_ne_owner_sets(g: Graph, cfg: GameConfig) -> set[frozenset]:
    """Owner sets of all SGG Nash profiles, over all 2^n profiles."""
    assert cfg.variant == SGG
    out = set()
    for bits in itertools.product((0, 1), repeat=g.n):
        s = list(bits)
        if game.is_nash(g, cfg, s):
            out.add(frozenset(i for i, x in enumerate(s) if x == 1))
    return out


def brute_force_sggac_ne_exists(g: Graph, cfg: GameConfig,
                                owner_set: set[int]) -> bool:
    """Whether some SGG-AC Nash profile has exactly this owner set, checked
    by enumerating assignments of non-owners to reachable owners."""
    assert cfg.variant == SGG_AC
    nbhd = g.closed_neighborhoods(cfg.k)
    non_owners = [v for v in range(g.n) if v not in owner_set]
    choices = []
    for v in non_owners:
        reach = [o for o in nbhd[v] if o != v and o in owner_set]
        if not reach:
            # v would be underprivileged under every assignment; any NE with
            # this owner set is impossible (v deviates to buying).
            return False
        choices.append(reach)
    for combo in itertools.product(*choices):
        s = list(range(g.n))
        for v, target in zip(non_owners, combo):
            s[v] = target
        if game.is_nash(g, cfg, s):
            return True
    return False


def brute_force_sggac_ne_owner_sets(g: Graph,
                                    cfg: GameConfig) -> set[frozenset]:
    """Owner sets of all SGG-AC Nash profiles: every one of the 2^n - 1
    non-empty owner sets, each checked by brute_force_sggac_ne_exists."""
    out = set()
    for mask in range(1, 1 << g.n):
        owner_set = {i for i in range(g.n) if (mask >> i) & 1}
        if brute_force_sggac_ne_exists(g, cfg, owner_set):
            out.add(frozenset(owner_set))
    return out


def disjoint_union(*graphs: Graph, isolated: int = 0) -> Graph:
    """The graphs side by side, ids shifted in order, then isolated nodes."""
    edges = []
    offset = 0
    for h in graphs:
        edges.extend((u + offset, v + offset) for u, v in h.edges)
        offset += h.n
    return Graph(offset + isolated, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)
