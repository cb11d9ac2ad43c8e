"""Socially optimal purchase sets: exact and greedy minimum distance-k
dominating set, plus export of the covering integer program in LP format.

The exact solver is a branch-and-bound over include/exclude decisions with
bitset coverage masks, run on each connected component separately. The
upper bound is seeded by the greedy heuristic, a lazy max-heap greedy in
O(sum |ball| * log n) whose ties go to the lowest id. The lower bound packs
uncovered nodes whose available coverers (their closed k-hop ball minus the
nodes excluded on the current branch) are pairwise disjoint, scarcest
first: each packed node needs a distinct new owner. It is never larger
than the optimum below the search node, so it prunes nothing that holds a
strictly better set, and the owners found are those of the plain search.
Its one walk over the uncovered nodes also names the branching node.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .netgraph import Graph, connected_components

NODE_BUDGET = 50_000_000    # nodes of each exact search, B&B or equilibria


@dataclass
class OptResult:
    owners: set[int]
    cost: float
    proven_optimal: bool
    nodes_explored: int


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def cover_masks(g: Graph, k: int) -> list[int]:
    """Closed k-hop neighbourhood of each node as a bitmask over node ids."""
    masks = []
    for nb in g.closed_neighborhoods(k):
        m = 0
        for j in nb:
            m |= 1 << j
        masks.append(m)
    return masks


def min_dominating_greedy(g: Graph, k: int) -> set[int]:
    """Repeatedly add the node covering the most uncovered nodes (ties go to
    the lowest id) until every node is within k hops of a chosen one.

    Lazy max-heap greedy in O(sum |ball| * log n): gain[v] is kept equal to
    the number of uncovered nodes in v's ball, and a heap entry whose stored
    gain is stale is re-queued when it reaches the top. Gains never rise, so
    a current entry at the top has the maximum gain and the lowest id.
    """
    balls = g.closed_neighborhoods(k)
    gain = [len(b) for b in balls]
    heap = [(-c, v) for v, c in enumerate(gain)]
    heapq.heapify(heap)
    covered = bytearray(g.n)
    left = g.n
    chosen: set[int] = set()
    while left:
        neg, v = heap[0]
        if -neg != gain[v]:
            heapq.heapreplace(heap, (-gain[v], v))
            continue
        heapq.heappop(heap)
        chosen.add(v)
        for u in balls[v]:
            if not covered[u]:
                covered[u] = 1
                left -= 1
                # Balls are symmetric: u lies in exactly the balls of ball(u).
                for w in balls[u]:
                    gain[w] -= 1
    return chosen


def _disjoint_cover_bound(cov: list[int], uncovered: int,
                          forbidden: int) -> tuple[int, int]:
    """Lower bound on the number of nodes outside `forbidden` whose balls
    `cov` cover `uncovered`, or len(cov) + 1 if no such set exists, and the
    available coverers (ball minus `forbidden`) of the lowest-id uncovered
    node that has the most of them, the B&B's branching node.

    Uncovered nodes whose available coverers are pairwise disjoint each need
    their own coverer; they are packed greedily, fewest coverers first, ties
    by the coverer mask.
    """
    avail = []
    pick = pick_deg = 0
    m = uncovered
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        a = cov[v] & ~forbidden
        if not a:
            return len(cov) + 1, 0
        deg = a.bit_count()
        if deg > pick_deg:
            pick, pick_deg = a, deg
        avail.append((deg, a))
    avail.sort()
    count = used = 0
    for _, a in avail:
        if not a & used:
            used |= a
            count += 1
    return count, pick


def min_dominating_exact(g: Graph, k: int, p: float = 1.0) -> OptResult:
    """Exact minimum distance-k dominating set by branch-and-bound.

    Each connected component is searched on its own, starting from the
    greedy set restricted to it, and the component optima are united. The
    owner sets are bitmasks, like the equilibrium search's, decoded once
    for the result. The search loops over an explicit stack, so no
    recursion limit caps its depth. NODE_BUDGET, read at each call, is
    shared by all components: once the search exceeds it, the current and
    the remaining components keep their incumbents and the result is
    flagged proven_optimal=False.
    """
    cov = cover_masks(g, k)
    greedy = sum(1 << v for v in min_dominating_greedy(g, k))
    explored = 0
    # Balls never cross components, so the optimum is the union of the
    # component optima; searching them apart avoids a product search tree.
    owners = 0
    proven = True
    for comp in connected_components(g):
        comp_mask = sum(1 << v for v in comp)
        incumbent = greedy & comp_mask
        best_size = incumbent.bit_count()
        # A search node: the owner count, the owners, the uncovered nodes,
        # and the nodes earlier siblings chose, all but the count bitmasks.
        stack = [(0, 0, comp_mask, 0)] if proven else []
        while stack:
            size, chosen, uncovered, forbidden = stack.pop()
            explored += 1
            if explored > NODE_BUDGET:
                proven = False
                break
            if uncovered == 0:
                if size < best_size:
                    best_size, incumbent = size, chosen
                continue
            bound, pick = _disjoint_cover_bound(cov, uncovered, forbidden)
            if size + bound >= best_size:
                continue
            # Branch on the bound's pick, best gain first. Each child
            # excludes the candidates before it, and is pushed last first.
            candidates = []
            m = pick
            while m:
                c = (m & -m).bit_length() - 1
                m &= m - 1
                candidates.append(c)
            candidates.sort(key=lambda c: (-(cov[c] & uncovered).bit_count(),
                                           c))
            forbidden |= pick
            for c in reversed(candidates):
                forbidden ^= 1 << c
                stack.append((size + 1, chosen | 1 << c,
                              uncovered & ~cov[c], forbidden))
        owners |= incumbent
    owner_set = set(_members(owners))
    return OptResult(owners=owner_set, cost=p * len(owner_set),
                     proven_optimal=proven, nodes_explored=explored)


def export_ilp(g: Graph, k: int, p: float = 1.0) -> str:
    """CPLEX-LP text for the covering integer program: minimize p * sum(x_i)
    subject to one covering constraint per node, all variables binary."""
    nbhd = g.closed_neighborhoods(k)
    lines = ["Minimize"]
    coef = "" if p == 1 else f"{p:.6g} "
    obj_terms = " + ".join(f"{coef}x{i}" for i in range(g.n))
    lines.append(f" obj: {obj_terms}")
    lines.append("Subject To")
    for i in range(g.n):
        terms = " + ".join(f"x{j}" for j in nbhd[i])
        lines.append(f" c{i}: {terms} >= 1")
    lines.append("Binary")
    lines.append(" " + " ".join(f"x{i}" for i in range(g.n)))
    lines.append("End")
    return "\n".join(lines) + "\n"
