"""Independent brute-force oracles used by the tests. These deliberately
avoid the library's solver/enumeration code paths, and the game rules here
are the definition-level money comparisons, not `game.State`'s counts."""

from __future__ import annotations

import itertools
import random

from sharegoods.game import SGG, SGG_AC, GameConfig
from sharegoods.netgraph import Graph

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
