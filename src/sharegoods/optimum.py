"""Socially optimal purchase sets: exact and greedy minimum distance-k
dominating set, plus export of the covering integer program in LP format.

The exact solver is a branch-and-bound over include/exclude decisions with
bitset coverage masks, run on each connected component separately. The
upper bound is seeded by the greedy heuristic, a lazy max-heap greedy in
O(sum |ball| * log n) whose ties go to the lowest id; the lower bound
greedily packs pairwise-disjoint closed k-hop balls (any dominator of a
packed node lies inside its ball, so disjoint balls need distinct
dominators).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .netgraph import Graph, connected_components


@dataclass
class OptResult:
    owners: set[int]
    cost: float
    proven_optimal: bool
    nodes_explored: int


class _BudgetExceeded(Exception):
    pass


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


def min_dominating_exact(g: Graph, k: int, p: float = 1.0,
                         node_budget: int = 50_000_000) -> OptResult:
    """Exact minimum distance-k dominating set by branch-and-bound.

    Each connected component is searched on its own, starting from the
    greedy set restricted to it, and the component optima are united. The
    node_budget is shared by all components: once the search exceeds it,
    the current and the remaining components keep their incumbents and the
    result is flagged proven_optimal=False.
    """
    cov = cover_masks(g, k)
    cov2k = cover_masks(g, 2 * k)
    greedy = min_dominating_greedy(g, k)
    best_size = 0
    incumbent: set[int] = set()
    explored = 0

    def lower_bound(uncovered: int) -> int:
        # Greedy packing of uncovered nodes pairwise further than 2k apart.
        count = 0
        blocked = 0
        m = uncovered
        while m:
            v = (m & -m).bit_length() - 1
            count += 1
            blocked |= cov2k[v]
            m = uncovered & ~blocked
        return count

    def branch(chosen: list[int], uncovered: int, forbidden: int) -> None:
        nonlocal best_size, incumbent, explored
        explored += 1
        if explored > node_budget:
            raise _BudgetExceeded
        if uncovered == 0:
            if len(chosen) < best_size:
                best_size = len(chosen)
                incumbent = set(chosen)
            return
        if len(chosen) + lower_bound(uncovered) >= best_size:
            return
        # Branch on the uncovered node with the most available coverers.
        pick, pick_deg = -1, -1
        m = uncovered
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (cov[v] & ~forbidden).bit_count()
            if deg > pick_deg:
                pick, pick_deg = v, deg
        candidates = []
        m = cov[pick] & ~forbidden
        while m:
            c = (m & -m).bit_length() - 1
            m &= m - 1
            candidates.append(c)
        if not candidates:
            return
        candidates.sort(key=lambda c: (-(cov[c] & uncovered).bit_count(), c))
        local_forbidden = forbidden
        for c in candidates:
            chosen.append(c)
            branch(chosen, uncovered & ~cov[c], local_forbidden)
            chosen.pop()
            local_forbidden |= 1 << c

    # Balls never cross components, so the optimum is the union of the
    # component optima; searching them apart avoids a product search tree.
    owners: set[int] = set()
    proven = True
    for comp in connected_components(g):
        comp_mask = sum(1 << v for v in comp)
        incumbent = {v for v in greedy if (comp_mask >> v) & 1}
        best_size = len(incumbent)
        if proven:
            try:
                branch([], comp_mask, 0)
            except _BudgetExceeded:
                proven = False
        owners |= incumbent
    return OptResult(owners=owners, cost=p * len(owners),
                     proven_optimal=proven, nodes_explored=explored)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def export_ilp(g: Graph, k: int, p: float = 1.0) -> str:
    """CPLEX-LP text for the covering integer program: minimize p * sum(x_i)
    subject to one covering constraint per node, all variables binary."""
    nbhd = g.closed_neighborhoods(k)
    lines = ["Minimize"]
    coef = "" if p == 1 else _fmt(p) + " "
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
