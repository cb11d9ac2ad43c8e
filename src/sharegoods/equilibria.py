"""Efficiency analysis: the join rule of equilibrium owner sets, one
search over distance-k dominating owner sets that lists them or finds the
largest, SGG-AC feasibility as a follower matching, exact PoA/PoS from the
largest and the smallest (the optimum's B&B under the same rule) on each
component from the stabilized optimum, and Monte Carlo cost statistics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from functools import partial

from . import optimum
# Nothing here calls best_response_dynamics or min_dominating_exact:
# benchmarks/tracing.py wraps this module's bindings of them, so the
# imports stay.
from .dynamics import best_response_dynamics, best_response_grid, stabilize
from .game import SGG_AC, GameConfig, check_node, owners
from .netgraph import Graph
from .optimum import OptResult, _members, cover_masks, min_dominating_exact


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


def _admits(cov: list[int], i: int, chosen: int, xi: int, ok: int) -> bool:
    """The join rule: whether node i may join the owners of the bitmask
    chosen, given the k-ball masks cov, xi and ok = _capacity(cov, xi).
    It refuses when _follower_claims fails on chosen and i, for then every
    superset fails too: the join stays refused below. Exactly, and with no
    claims, an i with no chosen owner in its ball is admitted (balls are
    symmetric, so i contests no owner and was no follower), and any other
    i is refused if it or an owner in its ball is not in ok: each is now
    contested, and its ball cannot hold it, another owner and xi
    followers. Under SGG (xi = n) ok is empty: no claims are made.
    """
    if not cov[i] & chosen:
        return True
    with_i = chosen | 1 << i
    return not cov[i] & with_i & ~ok and \
        _follower_claims(cov, with_i, xi) is not None


def _capacity(cov: list[int], xi: int) -> int:
    """The nodes that can be contested owners: their ball holds xi + 2."""
    return sum(1 << v for v, c in enumerate(cov) if c.bit_count() >= xi + 2)


def _dominating_owner_sets(cov: list[int], xi: int, explored: int,
                           budget: int,
                           start: int | None = None) -> tuple[list[int], int]:
    """Equilibrium owner sets, as bitmasks, given the closed k-ball masks
    cov and xi (SGG at xi = n): all, or start and each that beats the one
    before it, so the last is the largest; and the node count carried on
    from explored, above budget if it stopped. Nodes go in id order.
    Excluding node i is cut when some node whose highest-id potential
    dominator is i is still undominated, including it when _admits
    refuses, and a search from start cuts on _largest_bound.
    """
    n = len(cov)
    ok = _capacity(cov, xi)
    due = [0] * n
    for u in range(n):
        due[cov[u].bit_length() - 1] |= 1 << u
    masks, best = ([], -1) if start is None else ([start], start.bit_count())
    # A search node: the next node to decide, the chosen owners, the
    # undominated nodes, unc (the chosen owners with no other chosen owner in
    # their ball) and the owner count. Include is pushed last: it runs first.
    stack = [(0, 0, (1 << n) - 1, 0, 0)]
    while stack:
        i, chosen, undominated, unc, count = stack.pop()
        explored += 1
        if explored > budget:
            break
        if start is not None and _largest_bound(
                cov, i, chosen, count, unc, undominated, xi, ok) <= best:
            continue
        if i == n:
            masks.append(chosen)
            best = count
            continue
        if not undominated & due[i]:
            stack.append((i + 1, chosen, undominated, unc, count))
        if _admits(cov, i, chosen, xi, ok):
            stack.append((i + 1, chosen | 1 << i, undominated & ~cov[i],
                          (unc & ~cov[i]) | (undominated & 1 << i),
                          count + 1))
    return masks, explored


def _largest_search(xi: int, balls, cov, start, explored: int, budget: int):
    """The largest side's search for optimum._by_component, over cov."""
    masks, explored = _dominating_owner_sets(cov, xi, explored, budget, start)
    return masks[-1], explored


def _smallest_search(xi: int, balls, cov, start, explored: int, budget: int):
    """The smallest side's search for optimum._by_component: the optimum's
    B&B with _admits over cov as its join predicate admits(c, chosen)."""
    return optimum._search(balls, cov, start, explored, budget, partial(
        _admits, cov, xi=xi, ok=_capacity(cov, xi)))


def _largest_bound(cov: list[int], i: int, chosen: int, count: int,
                   unc: int, undominated: int, xi: int, ok: int) -> int:
    """Upper bound on the size of an admitted dominating owner set that
    extends a search state: count owners chosen below node i (the bitmask
    chosen), unc of them with no other owner in their ball, and the
    undominated nodes (those with no chosen owner in their ball).

    An owner ends uncontested only if it is in unc or is an undominated
    node from i on, and uncontested owners are pairwise more than k hops
    apart: each clique of a greedy clique cover of those nodes in G^k holds
    at most one. An owner in unc lies in no undominated node's ball, so it
    is a clique of its own. A set of s owners, u of them uncontested, gives
    each contested owner xi followers among the non-owners: xi·(s - u) <=
    n - s. And a contested owner is a node of ok, whose ball holds at least
    xi + 2 nodes, chosen or from i on; under SGG (xi = n) ok is empty.
    Both caps grow with u, so u = q bounds s."""
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
    q += min((ok & (chosen | -(1 << i))).bit_count(), (n - q) // (xi + 1))
    return min(count + n - i, q)


def enumerate_ne_owner_sets_sgg(g: Graph, k: int) -> list[frozenset]:
    """All k-independent dominating sets, smallest first."""
    budget = optimum.NODE_BUDGET
    masks, searched = _dominating_owner_sets(cover_masks(g, k), g.n, 0, budget)
    if searched > budget:
        raise RuntimeError(f"the SGG listing stopped after {budget} nodes")
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
    GameConfig(SGG_AC, k, xi=xi)    # the game's checks: k >= 1, xi >= 1
    owners = sum(1 << check_node(g, o) for o in set(owner_set))
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
    """Exact worst/best equilibrium costs against opt, the proven optimum
    at the configs' k and p, one report per config. The configs must share
    k and p, so that the one optimum serves them all. Both sides start
    from opt's owners stabilized at xi (n under SGG: k-independent)."""
    if len({(cfg.k, cfg.p) for cfg in cfgs}) != 1:
        raise ValueError("give one or more configs, sharing k and p")
    if g.n == 0:
        raise ValueError("exact_efficiency needs at least one node")
    if not opt.proven_optimal:
        raise RuntimeError(f"exact PoA/PoS need a proven optimum; its search "
                           f"stopped after {opt.nodes_explored} nodes")
    reports = []
    for cfg in cfgs:
        # cfg.xi is None exactly under SGG: the threshold n is unreachable.
        xi = g.n if cfg.xi is None else cfg.xi
        game = cfg.variant if cfg.xi is None else f"{cfg.variant}, xi={xi}"
        ac = GameConfig(SGG_AC, cfg.k, xi=xi)
        start = owners(ac, stabilize(g, ac, opt.owners))
        sizes = []
        for side, search in (("largest", partial(_largest_search, xi)),
                             ("smallest", partial(_smallest_search, xi))):
            found, searched = optimum._by_component(g, cfg.k, search, start)
            if searched > optimum.NODE_BUDGET:
                raise RuntimeError(
                    f"the {side} equilibrium search ({game}) stopped after "
                    f"{searched - 1} nodes searched (its budget)")
            sizes.append(cfg.p * len(found))
        worst, best = sizes
        reports.append(EfficiencyReport(opt.cost, worst, best,
                                        worst / opt.cost, best / opt.cost))
    return reports


def empirical_cost_stats(rows) -> list[list[CostStats]]:
    """Social-cost statistics over repeated best-response dynamics runs:
    for each (g, cfgs, runs, master_seed) of rows, one CostStats per config,
    run r drawing from derive_seed(master_seed, r).

    The configs of a row must share variant and k. One `best_response_grid`
    call runs every row into one tally, grouped here by (row, xi). The
    statistics depend on the multiset of a config's costs only, so the runs
    are listed by value from its group, one config at a time."""
    for _, cfgs, runs, _ in rows:
        if runs < 1:
            raise ValueError("runs must be >= 1")
        if len({(cfg.variant, cfg.k) for cfg in cfgs}) != 1:
            raise ValueError("give one or more configs, sharing variant and k")
    ends = {}
    for (row, xi, count, passes), m in best_response_grid(rows).items():
        ends.setdefault((row, xi), []).append((count, passes, m))
    stats = []
    for row, (_, cfgs, runs, _) in enumerate(rows):
        stats.append([])
        for cfg in cfgs:
            group = ends[row, cfg.xi]
            cost = [cfg.p * count for count, _, m in group for _ in range(m)]
            passes = [p for _, p, m in group for _ in range(m)]
            stats[-1].append(CostStats(
                runs=runs,
                mean_cost=statistics.fmean(cost),
                std_cost=statistics.stdev(cost) if runs > 1 else 0.0,
                min_cost=min(cost),
                max_cost=max(cost),
                mean_passes=statistics.fmean(passes),
            ))
    return stats
