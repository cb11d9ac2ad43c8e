"""Independent brute-force oracles used by the tests. These deliberately
avoid the library's solver/enumeration code paths, and the game rules here
are the definition-level money comparisons, not `game.State`'s counts.
`reference_dynamics` is the dynamics as written before the sweep kernel
(one `rng.choice` per move), so that the kernel's draws can be checked
against it; `reference_min_dominating_exact` is the exact branch and bound
with its earlier 2k-packing lower bound, whose owner sets the current bound
must reproduce; `rebuilt_min_dominating_exact` is the branch and bound
whose disjoint-coverer bound was rebuilt at every search node, which the
incremental bound must match node for node;
`id_order_smallest_owner_set` is the id-order search that found the
smallest equilibrium before the branch and bound did; `listed_ne_sizes`
takes the largest and the smallest equilibrium owner set from the full
listing that the exact efficiency analysis used before its two bounded
searches;
`reference_load_edge_list` is the edge-list loader with the per-edge set
its graph once kept, so that the adjacency the library builds straight
from the id columns is checked against an independent construction;
`parse_profile` reads back what `game.serialize_profile` writes, which the
program never does; `reference_stabilize` is the optimum repair as
written before it ran on `game.State`, with its own owner set, pending set
and follower recount. `stabilized_start` is no oracle: it is the program's
own start for both equilibrium sides, for the tests that call the
per-component driver without `exact_efficiency`."""

from __future__ import annotations

import itertools
import random
import re
from collections import deque

from sharegoods import game, optimum
from sharegoods.dynamics import DynamicsResult, stabilize
from sharegoods.game import SGG, SGG_AC, GameConfig, Profile
from sharegoods.netgraph import Graph, ParseError, connected_components
from sharegoods.optimum import OptResult, min_dominating_greedy

# Absolute tolerance for money comparisons. Because p/a is never an integer,
# buy-vs-rent comparisons are bounded away from ties by at least a/2.
MONEY_TOL = 1e-9


def utility(g: Graph, cfg: GameConfig, s: list[int], i: int) -> float:
    nbhd = g.closed_neighborhoods(cfg.k)
    if cfg.variant == SGG:
        if s[i] == 1:
            return cfg.b - cfg.p
        if any(s[j] == 1 for j in nbhd[i]):
            return cfg.b
        return 0.0
    if s[i] == i:
        count = sum(1 for j, x in enumerate(s) if x == i and j != i)
        return cfg.b - cfg.p + cfg.a * count
    if s[s[i]] == s[i]:
        return cfg.b - cfg.a
    return 0.0


def best_response_set(g: Graph, cfg: GameConfig, s: list[int],
                      i: int) -> set[int]:
    """All strategies of i maximizing its utility given s_{-i}."""
    nbhd = g.closed_neighborhoods(cfg.k)
    if cfg.variant == SGG:
        # Free riding (b) beats buying (b - p) whenever another owner is in
        # range; otherwise buying (b - p > 0) beats no access. Never a tie.
        if any(s[j] == 1 for j in nbhd[i] if j != i):
            return {0}
        return {1}
    follower_count = sum(1 for j, x in enumerate(s) if x == i and j != i)
    u_buy = cfg.b - cfg.p + cfg.a * follower_count
    rent_targets = [j for j in nbhd[i] if j != i and s[j] == j]
    best = {i}
    u_max = u_buy
    if rent_targets:
        u_rent = cfg.b - cfg.a
        if u_rent > u_max + MONEY_TOL:
            best, u_max = set(rent_targets), u_rent
        elif u_rent >= u_max - MONEY_TOL:
            best.update(rent_targets)
    # Pointing at a non-owner yields 0 < b - p, never optimal.
    return best


def is_nash(g: Graph, cfg: GameConfig, s: list[int]) -> bool:
    return all(s[i] in best_response_set(g, cfg, s, i) for i in range(g.n))


def is_k_independent_dominating(g: Graph, k: int, owner_set: set[int]) -> bool:
    """Owners pairwise at distance >= k+1, and every node within k of one."""
    nbhd = g.closed_neighborhoods(k)
    covered: set[int] = set()
    for o in owner_set:
        if any(other in owner_set and other != o for other in nbhd[o]):
            return False
        covered.update(nbhd[o])
    return len(covered) == g.n


def ball_masks(g: Graph, k: int) -> list[int]:
    """Closed k-balls as bitmasks, grown k times by the adjacency masks
    (no BFS, and not `Graph.closed_neighborhoods`)."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    masks = []
    for i in range(g.n):
        ball = 1 << i
        for _ in range(k):
            grown = ball
            m = ball
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                grown |= adj[v]
            ball = grown
        masks.append(ball)
    return masks


def exhaustive_min_dominating(g: Graph, k: int) -> int:
    """Minimum distance-k dominating set size by subset enumeration."""
    n = g.n
    cov = ball_masks(g, k)
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
    cov = ball_masks(g, k)
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
        if is_nash(g, cfg, s):
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
        if is_nash(g, cfg, s):
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


def brute_force_ne_owner_masks(g: Graph, cfg: GameConfig) -> list[int]:
    """Owner sets of all Nash profiles of either variant, as bitmasks, from
    the brute-force listings above."""
    if cfg.variant == SGG:
        sets = brute_force_sgg_ne_owner_sets(g, cfg)
    else:
        sets = brute_force_sggac_ne_owner_sets(g, cfg)
    return [sum(1 << i for i in s) for s in sets]


def largest_ne_extension(ne_masks: list[int], i: int, chosen: int) -> int:
    """Size of the largest equilibrium owner set among ne_masks that holds
    exactly the nodes of chosen below node i, or -1 if none does."""
    below = (1 << i) - 1
    return max((m.bit_count() for m in ne_masks if m & below == chosen),
               default=-1)


# The equilibrium owner-set listing and the SGG-AC admit rule as they stood
# before exact worst/best equilibria came from two bounded searches, kept
# verbatim as the reference whose extreme sizes those searches must give.

def listing_dominating_owner_sets(cov: list[int], admit) -> list[int]:
    """Every distance-k dominating owner set, as a bitmask, that admit lets
    through, given the closed k-ball masks cov.

    Nodes are decided in id order. Excluding node i is cut when some node
    whose highest-id potential dominator is i is still undominated.
    admit(i, chosen) is asked when i joins the bitmask chosen (which then
    holds i); a False cuts every set that extends chosen, so admit may
    reject only when no such set can qualify.
    """
    n = len(cov)
    due = [0] * n
    for u in range(n):
        due[cov[u].bit_length() - 1] |= 1 << u
    masks: list[int] = []

    def rec(i: int, chosen: int, dominated: int) -> None:
        if i == n:
            masks.append(chosen)
            return
        with_i = chosen | 1 << i
        if admit(i, with_i):
            rec(i + 1, with_i, dominated | cov[i])
        if dominated & due[i] == due[i]:
            rec(i + 1, chosen, dominated)

    rec(0, 0, 0)
    return masks


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def listing_follower_claims(cov: list[int], owners: int,
                            xi: int) -> dict[int, int] | None:
    """The follower -> owner map in which each contested owner of the
    bitmask owners (one with another owner in its k-ball cov[o]) holds xi
    non-owners of its ball, or None at the first failed claim. Claims are
    Kuhn's augmenting paths, so a claim that fails now fails after later
    claims too. Adding an owner only removes a follower and adds demand,
    so a set that fails has no superset that passes.
    """
    holder: dict[int, int] = {}
    seen = 0

    def claim(o: int) -> bool:
        nonlocal seen
        free = cov[o] & ~owners & ~seen
        while free:
            low = free & -free
            seen |= low
            v = low.bit_length() - 1
            if v not in holder or claim(holder[v]):
                holder[v] = o
                return True
            free &= ~seen
        return False

    for o in _members(owners):
        if cov[o] & owners != 1 << o:
            for _ in range(xi):
                seen = 0
                if not claim(o):
                    return None
    return holder


def listed_ne_sizes(g: Graph, cfg: GameConfig) -> tuple[int, int]:
    """(largest, smallest) equilibrium owner-set size from the full listing,
    over the tests' own ball masks."""
    cov = ball_masks(g, cfg.k)
    if cfg.variant == SGG:
        masks = listing_dominating_owner_sets(
            cov, lambda i, chosen: cov[i] & chosen == 1 << i)
    else:
        masks = listing_dominating_owner_sets(
            cov, lambda i, chosen:
            listing_follower_claims(cov, chosen, cfg.xi) is not None)
    sizes = [m.bit_count() for m in masks]
    return max(sizes), min(sizes)


def stabilized_start(g: Graph, k: int, xi: int) -> set[int]:
    """The owners `exact_efficiency` starts both equilibrium sides from:
    the exact optimum at k stabilized under SGG-AC at xi (g.n for SGG)."""
    cfg = GameConfig(SGG_AC, k, xi=xi)
    opt = optimum.min_dominating_exact(g, k)
    return game.owners(cfg, stabilize(g, cfg, opt.owners))


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


# The exact branch and bound with its earlier lower bound, a greedy packing
# of uncovered nodes pairwise more than 2k apart, kept as the reference whose
# owner sets the current bound must reproduce. Its masks, greedy seed and
# components come from `ball_masks`, `scan_greedy_dominating` and
# `component_masks`, the tests' own equivalents of `optimum._ball_masks`,
# `optimum.min_dominating_greedy` and `netgraph.connected_components`.

def component_masks(g: Graph) -> list[int]:
    """The connected components as bitmasks, ordered by smallest member,
    joined by union-find over the edge list (no BFS)."""
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in g.edges:
        root[find(u)] = find(v)
    comps: dict[int, int] = {}
    for v in range(g.n):
        r = find(v)
        comps[r] = comps.get(r, 0) | 1 << v
    return list(comps.values())


class _ReferenceBudgetExceeded(Exception):
    pass


def reference_min_dominating_exact(g: Graph, k: int, p: float = 1.0,
                                   node_budget: int = 50_000_000) -> OptResult:
    cov = ball_masks(g, k)
    cov2k = ball_masks(g, 2 * k)
    greedy = scan_greedy_dominating(g, k)
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
            raise _ReferenceBudgetExceeded
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

    owners: set[int] = set()
    proven = True
    for comp_mask in component_masks(g):
        incumbent = {v for v in greedy if (comp_mask >> v) & 1}
        best_size = len(incumbent)
        if proven:
            try:
                branch([], comp_mask, 0)
            except _ReferenceBudgetExceeded:
                proven = False
        owners |= incumbent
    return OptResult(owners=owners, cost=p * len(owners),
                     proven_optimal=proven, nodes_explored=explored)


# The branch and bound before its bound kept the packing keys across the
# search, kept as the reference that the incremental bound must match
# search node for search node: this bound rebuilds and sorts every
# uncovered node's coverer mask at each node.

def rebuilt_disjoint_cover_bound(cov: list[int], uncovered: int,
                                 forbidden: int) -> tuple[int, int]:
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


def rebuilt_min_dominating_exact(g: Graph, k: int,
                                 p: float = 1.0) -> OptResult:
    cov = ball_masks(g, k)
    greedy = sum(1 << v for v in min_dominating_greedy(g, k))
    explored = 0
    owners = 0
    proven = True
    for comp in connected_components(g):
        comp_mask = sum(1 << v for v in comp)
        incumbent = greedy & comp_mask
        best_size = incumbent.bit_count()
        stack = [(0, 0, comp_mask, 0)] if proven else []
        while stack:
            size, chosen, uncovered, forbidden = stack.pop()
            explored += 1
            if explored > optimum.NODE_BUDGET:
                proven = False
                break
            if uncovered == 0:
                if size < best_size:
                    best_size, incumbent = size, chosen
                continue
            bound, pick = rebuilt_disjoint_cover_bound(cov, uncovered,
                                                       forbidden)
            if size + bound >= best_size:
                continue
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


# The smallest side of the exact efficiency analysis before it ran as the
# optimum's branch and bound under the join rule: the id-order search over
# dominating owner sets, pruned by the disjoint-coverer bound. Kept as it
# stood but for the smallest objective alone, with the tests' own
# `listing_follower_claims` and `rebuilt_disjoint_cover_bound` (whose
# prune is that of the capped bound) and no node budget.

def id_order_smallest_owner_set(cov: list[int], xi: int) -> int:
    """A smallest equilibrium owner set, as a bitmask, given the closed
    k-ball masks cov and xi (SGG at xi = n)."""
    n = len(cov)
    # The nodes that can be contested owners: the ball of one holds it,
    # another owner and its xi followers.
    ok = sum(1 << v for v in range(n) if cov[v].bit_count() >= xi + 2)
    due = [0] * n
    for u in range(n):
        due[cov[u].bit_length() - 1] |= 1 << u
    masks: list[int] = []
    best = n + 1
    # A search node: the next node to decide, the chosen owners, the
    # undominated nodes, unc (the chosen owners with no other chosen owner in
    # their ball) and the owner count. Include is pushed last: it runs first.
    stack = [(0, 0, (1 << n) - 1, 0, 0)]
    while stack:
        i, chosen, undominated, unc, count = stack.pop()
        if rebuilt_disjoint_cover_bound(
                cov, undominated, (1 << i) - 1 & ~chosen)[0] >= best - count:
            continue
        if i == n:
            masks.append(chosen)
            best = count
            continue
        if not undominated & due[i]:
            stack.append((i + 1, chosen, undominated, unc, count))
        with_i = chosen | 1 << i
        if undominated >> i & 1 or not cov[i] & with_i & ~ok and \
                listing_follower_claims(cov, with_i, xi) is not None:
            stack.append((i + 1, with_i, undominated & ~cov[i],
                          (unc & ~cov[i]) | (undominated & 1 << i),
                          count + 1))
    return masks[-1]


# The dynamics before `game.State.sweep`, kept as the reference that the
# kernel must match draw for draw.

class _ReferenceState:
    """Incremental view of a strategy profile s (held by reference): the
    follower count of each node and the number of owners inside each closed
    k-hop neighborhood, kept current by `set_strategy`."""

    __slots__ = ("cfg", "sgg", "nbhd", "s", "flw", "owners_in")

    def __init__(self, g: Graph, cfg: GameConfig, s: Profile):
        self.cfg = cfg
        self.sgg = cfg.variant == SGG
        self.nbhd = g.closed_neighborhoods(cfg.k)
        self.s = s
        n = g.n
        self.owners_in = [0] * n
        self.flw = [0] * n
        for i in range(n):
            if self.owns(i):
                for j in self.nbhd[i]:
                    self.owners_in[j] += 1
            if not self.sgg and s[i] != i:
                self.flw[s[i]] += 1

    def owns(self, i: int) -> bool:
        return self.s[i] == (1 if self.sgg else i)

    def other_owner_in_range(self, i: int) -> bool:
        return self.owners_in[i] - self.owns(i) >= 1

    def set_strategy(self, i: int, new: int) -> None:
        old = self.s[i]
        if old == new:
            return
        owned = self.owns(i)
        self.s[i] = new
        if owned != self.owns(i):
            delta = -1 if owned else 1
            for j in self.nbhd[i]:
                self.owners_in[j] += delta
        if not self.sgg:
            if old != i:
                self.flw[old] -= 1
            if new != i:
                self.flw[new] += 1

    def best_responses(self, i: int) -> list[int] | None:
        """None if s_i is a best response to s_{-i}; otherwise every best
        response of i, in the order the dynamics draws from.

        SGG: free riding (b) beats buying (b - p) exactly when another owner
        is within k hops, and buying beats no access (0). SGG-AC: renting
        (b - a) beats buying (b - p + a * followers) exactly when followers
        < xi, since p/a is never an integer; pointing at a non-owner (0) is
        never best. So i rents, from any owner in its ball, exactly when
        another owner is in range and it has fewer than xi followers.
        """
        s = self.s
        x = s[i]
        if self.sgg:                 # x is 1 exactly when i owns
            want = 0 if self.owners_in[i] - x else 1
            return None if x == want else [want]
        if self.owners_in[i] - (x == i) and self.flw[i] < self.cfg.xi:
            if x != i and s[x] == x:
                return None
            return [j for j in self.nbhd[i] if j != i and s[j] == j]
        return None if x == i else [i]

    def is_nash(self) -> bool:
        return all(self.best_responses(i) is None for i in range(len(self.s)))


def _reference_sweep(state: _ReferenceState, order: list[int],
                     rng: random.Random, cases: list[int]) -> int:
    """One pass of the dynamics; returns the number of deviations."""
    deviations = 0
    for i in order:
        best = state.best_responses(i)
        if best is None:
            continue
        owned = state.owns(i)
        state.set_strategy(i, rng.choice(best))
        # Buying adds i to its own ball's owner count, so "another owner
        # in range" reads the same after the move as before it.
        if owned:
            cases[3] += 1            # owner reverts to free riding / renting
        elif not state.owns(i):
            cases[1] += 1            # underprivileged node starts accessing
        elif state.other_owner_in_range(i):
            cases[2] += 1            # non-owner buys despite a nearby owner
        else:
            cases[0] += 1            # underprivileged node buys
        deviations += 1
    return deviations


def reference_dynamics(g: Graph, cfg: GameConfig, seed: int) -> DynamicsResult:
    """Best-response dynamics as `best_response_dynamics` ran it before its
    sweep kernel: `rng.choice` on each best-response list, moves applied
    through `set_strategy`. Same seed, same result."""
    rng = random.Random(seed)
    nbhd = g.closed_neighborhoods(cfg.k)
    if cfg.variant == SGG:
        s = [0] * g.n
    else:
        s = []
        for i in range(g.n):
            options = [j for j in nbhd[i] if j != i]
            # Isolated nodes have no alternative; buying is the only
            # positive-utility action.
            s.append(rng.choice(options) if options else i)
    state = _ReferenceState(g, cfg, s)
    order = list(range(g.n))
    rng.shuffle(order)
    passes = 0
    deviations = 0
    case_counts: list[list[int]] = []
    while not state.is_nash():
        if passes >= 3:
            raise RuntimeError("dynamics did not converge within 3 passes")
        cases = [0, 0, 0, 0]
        deviations += _reference_sweep(state, order, rng, cases)
        case_counts.append(cases)
        passes += 1
    return DynamicsResult(profile=state.s, passes=passes,
                          deviations=deviations, case_counts=case_counts)


class _EdgeSetGraph:
    """The graph as `netgraph.Graph` stored it when it kept its edge set."""

    def __init__(self, n: int, edges):
        if n < 0:
            raise ValueError("node count must be non-negative")
        edge_set = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            edge_set.add((min(u, v), max(u, v)))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_set:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        self._edges = frozenset(edge_set)

    @property
    def edges(self) -> frozenset:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]


def reference_load_edge_list(text: str) -> _EdgeSetGraph:
    """`netgraph.load_edge_list` as written with a list of edge tuples and
    a per-edge set: same ids, same edges, same `ParseError` messages. Ids
    are matched by a regular expression here, not by `str` methods."""
    raw_edges: list[tuple[int, int]] = []
    ids: set[int] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two tokens, got {len(tokens)}")
        # A node id is ASCII decimal digits; "-" before them is negative.
        if any(re.fullmatch(r"-?[0-9]+", t) is None for t in tokens):
            raise ParseError(f"line {lineno}: non-integer token")
        if any(t.startswith("-") for t in tokens):
            raise ParseError(f"line {lineno}: negative node id")
        u, v = int(tokens[0]), int(tokens[1])
        if u == v:
            raise ParseError(f"line {lineno}: self-loop on node {u}")
        raw_edges.append((u, v))
        ids.add(u)
        ids.add(v)
    remap = {orig: i for i, orig in enumerate(sorted(ids))}
    return _EdgeSetGraph(len(remap),
                         [(remap[u], remap[v]) for u, v in raw_edges])


def parse_profile(text: str) -> Profile:
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'node strategy'")
        if not all(t.isdigit() and t.isascii() for t in tokens):
            raise ValueError(f"line {lineno}: non-integer token")
        node, strategy = int(tokens[0]), int(tokens[1])
        if node in entries:
            raise ValueError(f"line {lineno}: duplicate node id")
        entries[node] = strategy
    if sorted(entries) != list(range(len(entries))):
        raise ValueError("profile must cover node ids 0..n-1 exactly once")
    return [entries[i] for i in range(len(entries))]


def reference_stabilize(g: Graph, cfg: GameConfig,
                        opt_owners: set[int]) -> Profile:
    """Repair an optimal owner set into an SGG-AC equilibrium.

    Builds the initial profile by multi-source BFS from the owners (each
    owner's follower region is connected), then repeatedly lets a poor owner
    that can reach another owner defect to renting, re-homing its followers
    and promoting the stranded ones to new owners.
    """
    if cfg.variant != SGG_AC:
        raise game.VariantError("stabilize applies only to SGG-AC")
    if not game.is_distance_k_dominating(g, cfg.k, opt_owners):
        raise ValueError("opt_owners is not distance-k dominating")
    n = g.n
    nbhd = g.closed_neighborhoods(cfg.k)
    current = set(opt_owners)

    # Region assignment: each node follows its nearest owner, regions
    # connected because every node inherits its BFS parent's owner. A
    # closed 1-ball holds v itself, which is already assigned.
    adj = g.closed_neighborhoods(1)
    s = [-1] * n
    dq = deque()
    for o in sorted(current):
        s[o] = o
        dq.append(o)
    while dq:
        v = dq.popleft()
        for w in adj[v]:
            if s[w] == -1:
                s[w] = s[v]
                dq.append(w)

    xi = cfg.xi
    max_iters = len(current) + 1
    for _ in range(max_iters):
        flw = [0] * n
        for i, x in enumerate(s):
            if x != i:
                flw[x] += 1
        poor = None
        for i in sorted(current):
            if flw[i] < xi and any(o != i and o in current for o in nbhd[i]):
                poor = i
                break
        if poor is None:
            break
        target = min(o for o in nbhd[poor] if o != poor and o in current)
        prev_followers = sorted(f for f in range(n) if s[f] == poor and f != poor)
        current.discard(poor)
        s[poor] = target
        stranded = []
        for f in prev_followers:
            alternatives = [o for o in nbhd[f] if o != f and o in current]
            if alternatives:
                s[f] = min(alternatives)
            else:
                stranded.append(f)
        pending = set(stranded)
        for leader in stranded:
            if leader not in pending:
                continue
            pending.discard(leader)
            current.add(leader)
            s[leader] = leader
            for f in sorted(pending):
                if leader in nbhd[f]:
                    s[f] = leader
                    pending.discard(f)
    else:
        raise RuntimeError("stabilize repair loop failed to terminate")

    if not game.is_nash(g, cfg, s):
        raise RuntimeError("stabilize produced a non-equilibrium profile")
    return s
