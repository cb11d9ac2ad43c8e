"""Efficiency analysis: one search over distance-k dominating owner sets
that lists the equilibrium owner sets or finds the smallest and largest,
SGG-AC feasibility as a follower matching, exact PoA/PoS, and Monte Carlo
cost statistics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from . import optimum
# Nothing here calls best_response_dynamics or min_dominating_exact:
# benchmarks/tracing.py wraps this module's bindings of them, so the
# imports stay.
from .dynamics import best_response_dynamics, best_response_grid, derive_seed
from .game import GameConfig
from .netgraph import Graph
from .optimum import (OptResult, _disjoint_cover_bound, _members,
                      cover_masks, min_dominating_exact)


@dataclass
class EfficiencyReport:
    opt_cost: float
    worst_ne_cost: float
    best_ne_cost: float
    poa: float
    pos: float


@dataclass
class CostStats:
    runs: int
    mean_cost: float
    std_cost: float
    min_cost: float
    max_cost: float
    mean_passes: float


def _dominating_owner_sets(cov: list[int], xi: int | None = None,
                           objective: str | None = None) -> list[int]:
    """Equilibrium owner sets, as bitmasks, given the closed k-ball masks
    cov and xi, the followers each contested owner holds under SGG-AC, or
    None under SGG: all of them with no objective; with "smallest" or
    "largest", each one that beats the one before it, so the last is an
    extreme.

    Nodes are decided in id order. Excluding node i is cut when some node
    whose highest-id potential dominator is i is still undominated.
    Including i is cut when the owners chosen so far, i among them, break
    the rule, for then every set that extends them does: under SGG, an
    owner lies in i's ball; under SGG-AC, _follower_claims fails. "smallest"
    cuts on the B&B's disjoint-coverer bound, "largest" on _largest_bound;
    a search of more than optimum.NODE_BUDGET nodes raises a RuntimeError.
    """
    n = len(cov)
    # The nodes that can be contested owners: the ball of one holds it,
    # another owner and its xi followers.
    ok = sum(1 << v for v in range(n)
             if xi is not None and cov[v].bit_count() >= xi + 2)
    due = [0] * n
    for u in range(n):
        due[cov[u].bit_length() - 1] |= 1 << u
    masks: list[int] = []
    best = n + 1 if objective == "smallest" else -1
    searched = 0
    # A search node: the next node to decide, the chosen owners, the
    # undominated nodes, unc (the chosen owners with no other chosen owner in
    # their ball) and the owner count. Include is pushed last: it runs first.
    stack = [(0, 0, (1 << n) - 1, 0, 0)]
    while stack:
        i, chosen, undominated, unc, count = stack.pop()
        searched += 1
        if searched > optimum.NODE_BUDGET:
            raise RuntimeError(f"the equilibrium search stopped after "
                               f"{searched - 1} nodes searched (its budget)")
        if objective == "largest" and _largest_bound(
                cov, i, chosen, count, unc, undominated, xi, ok) <= best or (
                objective == "smallest" and count + _disjoint_cover_bound(
                    cov, undominated, (1 << i) - 1 & ~chosen) >= best):
            continue
        if i == n:
            masks.append(chosen)
            best = count
            continue
        if not undominated & due[i]:
            stack.append((i + 1, chosen, undominated, unc, count))
        with_i = chosen | 1 << i
        # i contests the owners in its ball, and is uncontested itself iff
        # no owner lies there, iff i is undominated: SGG's admit rule.
        if (undominated >> i & 1 if xi is None
                else _follower_claims(cov, with_i, xi) is not None):
            stack.append((i + 1, with_i, undominated & ~cov[i],
                          (unc & ~cov[i]) | (undominated & 1 << i),
                          count + 1))
    return masks


def _largest_bound(cov: list[int], i: int, chosen: int, count: int,
                   unc: int, undominated: int, xi: int | None,
                   ok: int) -> int:
    """Upper bound on the size of an admitted dominating owner set that
    extends a search state: count owners chosen below node i (the bitmask
    chosen), unc of them with no other owner in their ball, and the
    undominated nodes (those with no chosen owner in their ball).

    An owner ends uncontested only if it is in unc or is an undominated
    node from i on, and uncontested owners are pairwise more than k hops
    apart: each clique of a greedy clique cover of those nodes in G^k holds
    at most one. An owner in unc lies in no undominated node's ball, so it
    is a clique of its own. Under SGG every owner is uncontested. Under
    SGG-AC, a set of s owners, u of them uncontested, gives each contested
    owner xi followers among the non-owners: xi·(s - u) <= n - s. And a
    contested owner is a node of ok, whose ball holds at least xi + 2
    nodes, chosen or from i on. Both caps grow with u, so u = q bounds s."""
    n = len(cov)
    q = unc.bit_count()
    rest = undominated >> i << i
    while rest:
        q += 1
        cand = rest
        while cand:
            low = cand & -cand
            rest ^= low
            cand &= cov[low.bit_length() - 1] ^ low
    if xi is not None:
        q += min((ok & (chosen | -(1 << i))).bit_count(),
                 (n - q) // (xi + 1))
    return min(count + n - i, q)


def enumerate_ne_owner_sets_sgg(g: Graph, k: int) -> list[frozenset]:
    """All k-independent dominating sets, smallest first."""
    cov = cover_masks(g, k)
    masks = _dominating_owner_sets(cov)
    return sorted((frozenset(_members(m)) for m in masks),
                  key=lambda s: (len(s), sorted(s)))


def _follower_claims(cov: list[int], owners: int,
                     xi: int) -> dict[int, int] | None:
    """The follower -> owner map in which each contested owner of the
    bitmask owners (another owner lies in its k-ball cov[o]) holds xi
    non-owners of its ball, or None at the first failed claim. Claims are
    Kuhn's augmenting paths, so a failed claim fails after later ones too;
    an added owner removes a follower and adds demand, so a failing set
    has no passing superset."""
    holder: dict[int, int] = {}
    for o in _members(owners):
        if cov[o] & owners != 1 << o:
            for _ in range(xi):
                # Depth first over (claimant, follower) pairs: a taken
                # follower's holder claims next; a stuck claimant backs out.
                seen, path, c = owners, [], o
                while True:
                    free = cov[c] & ~seen
                    if free:
                        low = free & -free
                        seen |= low
                        v = low.bit_length() - 1
                        path.append((c, v))
                        c = holder.get(v)
                        if c is None:        # v was free: augment
                            for c, v in path:
                                holder[v] = c
                            break
                    elif path:
                        c = path.pop()[0]
                    else:
                        return None
    return holder


def sggac_witness_profile(g: Graph, k: int, xi: int,
                          owner_set: set[int]):
    """A strategy profile witnessing that owner_set supports an SGG-AC
    equilibrium, or None if none exists. Each follower claimed by
    _follower_claims follows its claimant; every other non-owner follows
    its lowest-id owner in range, and there must be one."""
    owners = sum(1 << o for o in set(owner_set))
    cov = cover_masks(g, k)
    holder = _follower_claims(cov, owners, xi)
    if holder is None:
        return None
    s = list(range(g.n))
    for v in range(g.n):
        if not owners >> v & 1:
            in_range = cov[v] & owners
            if not in_range:
                return None
            s[v] = holder.get(v, (in_range & -in_range).bit_length() - 1)
    return s


def sggac_owner_set_feasible(g: Graph, k: int, xi: int,
                             owner_set: set[int]) -> bool:
    """True iff some SGG-AC equilibrium has exactly this owner set."""
    return sggac_witness_profile(g, k, xi, owner_set) is not None


def exact_efficiency(g: Graph, cfgs: list[GameConfig],
                     opt: OptResult) -> list[EfficiencyReport]:
    """Exact worst/best equilibrium costs against opt, the optimum at the
    configs' k and p, one report per config. The configs must share k and
    p, so that the one optimum serves them all."""
    if len({(cfg.k, cfg.p) for cfg in cfgs}) > 1:
        raise ValueError("the configs must share k and p")
    if g.n == 0:
        raise ValueError("exact_efficiency needs at least one node")
    cov = cover_masks(g, cfgs[0].k)
    reports = []
    for cfg in cfgs:
        # cfg.xi is None exactly under SGG, whose owners have no followers.
        worst, best = (cfg.p * _dominating_owner_sets(
            cov, cfg.xi, side)[-1].bit_count()
            for side in ("largest", "smallest"))
        reports.append(EfficiencyReport(
            opt_cost=opt.cost, worst_ne_cost=worst, best_ne_cost=best,
            poa=worst / opt.cost, pos=best / opt.cost))
    return reports


def empirical_cost_stats(rows) -> list[list[CostStats]]:
    """Social-cost statistics over repeated best-response dynamics runs:
    for each (g, cfgs, runs, master_seed) of rows, one CostStats per config,
    seeds derived independently from (master_seed, run index).

    The configs of a row must share variant and k. One `best_response_grid`
    call runs every row, and rows of one (master_seed, runs) share one seed
    list. The statistics depend on the multiset of a config's costs only,
    so the runs are listed by value from their tallies."""
    seeds, grid = {}, []
    for g, cfgs, runs, master_seed in rows:
        if runs < 1:
            raise ValueError("runs must be >= 1")
        if len({(cfg.variant, cfg.k) for cfg in cfgs}) > 1:
            raise ValueError("the configs must share variant and k")
        if (master_seed, runs) not in seeds:
            seeds[master_seed, runs] = [derive_seed(master_seed, r)
                                        for r in range(runs)]
        grid.append((g, cfgs, seeds[master_seed, runs]))
    stats = []
    for (_, cfgs, runs, _), tallies in zip(rows, best_response_grid(grid)):
        row = []
        for cfg, (owned, npasses) in zip(cfgs, tallies):
            cost = [cfg.p * count for count, m in owned.items()
                    for _ in range(m)]
            passes = [p for p, m in npasses.items() for _ in range(m)]
            row.append(CostStats(
                runs=runs,
                mean_cost=statistics.fmean(cost),
                std_cost=statistics.stdev(cost) if runs > 1 else 0.0,
                min_cost=min(cost),
                max_cost=max(cost),
                mean_passes=statistics.fmean(passes),
            ))
        stats.append(row)
    return stats
