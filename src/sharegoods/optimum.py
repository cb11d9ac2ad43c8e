"""Socially optimal purchase sets: exact and greedy minimum distance-k
dominating set, plus export of the covering integer program in LP format.

The exact solver is a branch-and-bound over include/exclude decisions with
bitset coverage masks, run on each connected component separately from
the greedy set, a lazy max-heap greedy in O(sum |ball| * log n) whose ties
go to the lowest id. The lower bound packs uncovered nodes whose available
coverers (their closed k-hop ball minus the nodes excluded on the current
branch) are pairwise disjoint, scarcest first: each packed node needs a
distinct new owner, so the bound prunes nothing that holds a strictly
better set. The packing's sorted tail also names the branching node. It
reads one key per node, kept across the search (see _pack and _search).

_by_component runs search(balls, cov, start, explored, budget) on each
component's renumbered balls and ball masks from a set it must beat: the
optimum from the greedy set, and both equilibrium sides from the stabilized
optimum, the smallest as _search under the join predicate admits(c, chosen).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections.abc import Sequence
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


def _ball_masks(balls: Sequence[Sequence[int]]) -> list[int]:
    """Each ball as a bitmask over the ids it holds."""
    masks = []
    for nb in balls:
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


def _pack(keys: list[int], n: int, w: int, cap: int) -> tuple[int, int]:
    """The disjoint-coverer packing over the sorted keys of the uncovered
    nodes (one or more: the B&B packs only while some node is uncovered),
    each (deg << n | avail) << w | (v + 1), where avail is node v's
    available coverers and deg their count: the number of nodes packed,
    and the available coverers of the branching node.

    Sorted keys run fewest coverers first, ties by the coverer mask. A node
    with none (key below 1 << w) sorts first and gives n + 1. The branching
    node is the lowest-id one among those with the most coverers, at the
    sorted tail. The packing stops once it holds cap nodes, as many as
    prune the search node, and then names no branching node (0).
    """
    if keys[0] >> w == 0:
        return n + 1, 0
    avail_bits = ((1 << n) - 1) << w
    count = used = 0
    for key in keys:
        if not key & used:
            used |= key & avail_bits
            count += 1
            if count >= cap:
                return count, 0
    top = keys[-1] >> n + w << n + w
    pick = min(keys[bisect_left(keys, top):], key=((1 << w) - 1).__and__)
    return count, (pick ^ top) >> w


def _search(balls: Sequence[Sequence[int]], cov: list[int], incumbent: int,
            explored: int, budget: int, admits=None) -> tuple[int, int]:
    """Branch and bound over one connected component whose nodes are
    0..m-1, with closed balls `balls` and ball masks `cov`, from the owner
    bitmask `incumbent`: the smallest owner set found (`incumbent` if none
    is smaller) and the search-node count carried on from `explored`, above
    `budget` if the search stopped. Under a join rule admits(c, chosen), a
    c refused is no child, and must stay refused below, so the packing
    bounds the rest.

    K holds the _pack key of every node uncovered at the current search
    node and 0 for a covered one. A child zeroes the keys of the nodes its
    owner covers and pushes them back to restore under its own children.
    A child that has later siblings forbids its owner to them: its restore
    entry writes the saved keys less one coverer, and one restore entry of
    the parent's keys under the last sibling takes all those back.
    """
    m = len(balls)
    w = m.bit_length()
    K = [(c.bit_count() << m | c) << w | v + 1 for v, c in enumerate(cov)]
    best_size = incumbent.bit_count()
    # A search node: the owner count, the owners, the uncovered nodes, the
    # ball of its last owner, and that owner if later siblings forbid it,
    # else None. A restore entry: the saved keys and the same owner or None.
    stack: list[tuple] = [(0, 0, (1 << m) - 1, (), None)]
    while stack:
        entry = stack.pop()
        if len(entry) == 2:
            saved, forbid = entry
            less = 0 if forbid is None else (1 << m + w) + (1 << w + forbid)
            for v, key in saved.items():
                K[v] = key - less
            continue
        size, chosen, uncovered, ball, forbid = entry
        explored += 1
        if explored > budget:
            break
        saved = {v: K[v] for v in ball if K[v]}
        for v in saved:
            K[v] = 0
        stack.append((saved, forbid))
        if uncovered == 0:
            if size < best_size:
                best_size, incumbent = size, chosen
            continue
        bound, pick = _pack(sorted(filter(None, K)), m, w, best_size - size)
        if size + bound >= best_size:
            continue
        # Branch on the bound's pick, best gain first. Each child
        # excludes the candidates before it, and is pushed last first.
        candidates = []
        while pick:
            c = (pick & -pick).bit_length() - 1
            pick &= pick - 1
            if admits is None or admits(c, chosen):
                candidates.append(c)
        if not candidates:
            continue
        candidates.sort(key=lambda c: (-(cov[c] & uncovered).bit_count(), c))
        last = candidates.pop()
        stack.append(({v: K[v] for c in candidates for v in balls[c] if K[v]},
                      None))
        stack.append((size + 1, chosen | 1 << last, uncovered & ~cov[last],
                      balls[last], None))
        for c in reversed(candidates):
            stack.append((size + 1, chosen | 1 << c, uncovered & ~cov[c],
                          balls[c], c))
    return incumbent, explored


def _by_component(g: Graph, k: int, search,
                  start: set[int]) -> tuple[set[int], int]:
    """The owners search finds on the connected components of g from the
    owners start, and the search nodes explored, above NODE_BUDGET if it
    stopped. Balls never cross components: search(balls, cov, best,
    explored, budget) gets one's closed k-balls renumbered 0..m-1 in id
    order (which keeps every tie), their bitmasks, start's owners there as
    a bitmask, and the count so far, and returns an owner bitmask at least
    as good as best and the count carried on. Components share
    NODE_BUDGET, read at each call; past it the rest keep their start."""
    budget, explored = NODE_BUDGET, 0
    balls = g.closed_neighborhoods(k)
    owners: set[int] = set()
    for comp in connected_components(g):
        local = {v: i for i, v in enumerate(comp)}
        best = sum(1 << i for i, v in enumerate(comp) if v in start)
        if explored <= budget:
            comp_balls = [[local[u] for u in balls[v]] for v in comp]
            best, explored = search(comp_balls, _ball_masks(comp_balls),
                                    best, explored, budget)
        owners.update(comp[i] for i in _members(best))
    return owners, explored


def min_dominating_exact(g: Graph, k: int, p: float = 1.0) -> OptResult:
    """Exact minimum distance-k dominating set by branch-and-bound from
    the greedy set, on an explicit stack, so no recursion limit caps its
    depth. Past NODE_BUDGET it is flagged proven_optimal=False.
    """
    owners, explored = _by_component(g, k, _search,
                                     min_dominating_greedy(g, k))
    return OptResult(owners=owners, cost=p * len(owners),
                     proven_optimal=explored <= NODE_BUDGET,
                     nodes_explored=explored)


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
