"""Game semantics for shareable-goods games: configurations, utilities,
Nash-equilibrium predicates, and social cost.

Two variants are supported. In the basic game (SGG) a node either buys
(s_i = 1) or not (s_i = 0), and anyone within k hops of an owner benefits
for free. In the access-cost variant (SGG-AC) a node's strategy is a target
in its closed k-hop neighborhood: s_i = i means buy, s_i = j != i means pay
the access cost a to owner j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .netgraph import Graph

SGG = "SGG"
SGG_AC = "SGG-AC"

# Absolute tolerance for money comparisons. Because p/a is never an integer,
# buy-vs-rent comparisons are bounded away from ties by at least a/2.
MONEY_TOL = 1e-9

Profile = list[int]


class VariantError(ValueError):
    """Operation called under the wrong game variant."""


@dataclass
class GameConfig:
    """Game parameters. For SGG-AC give exactly one of `a` and `xi`; the
    other is derived (xi = ceil(p/a) - 1, or a = p/(xi + 0.5))."""

    variant: str
    k: int
    b: float = 2.0
    p: float = 1.0
    a: float | None = None
    xi: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in (SGG, SGG_AC):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not self.p > 0:
            raise ValueError("price p must be positive")
        if not self.b > self.p:
            raise ValueError("benefit b must exceed price p")
        if self.variant == SGG:
            if self.a is not None or self.xi is not None:
                raise ValueError("a and xi apply only to SGG-AC")
            return
        if (self.a is None) == (self.xi is None):
            raise ValueError("SGG-AC needs exactly one of a and xi")
        if self.a is None:
            if self.xi < 1:
                raise ValueError("xi must be >= 1")
            # Guarantees ceil(p/a) - 1 == xi and non-integral p/a.
            self.a = self.p / (self.xi + 0.5)
        else:
            if not 0 < self.a < self.p:
                raise ValueError("access cost a must satisfy 0 < a < p")
            ratio = self.p / self.a
            if abs(ratio - round(ratio)) < 1e-9:
                raise ValueError("p/a must not be an integer")
            self.xi = math.ceil(ratio) - 1


def validate_profile(g: Graph, cfg: GameConfig, s: Profile) -> None:
    if len(s) != g.n:
        raise ValueError(f"profile length {len(s)} != n={g.n}")
    if cfg.variant == SGG:
        if any(x not in (0, 1) for x in s):
            raise ValueError("SGG strategies must be 0 or 1")
    else:
        nbhd = g.closed_neighborhoods(cfg.k)
        for i, x in enumerate(s):
            if x not in nbhd[i]:
                raise ValueError(f"strategy {x} of node {i} outside its "
                                 f"{cfg.k}-hop neighborhood")


def owners(cfg: GameConfig, s: Profile) -> set[int]:
    """The set of buyers under s."""
    if cfg.variant == SGG:
        return {i for i, x in enumerate(s) if x == 1}
    return {i for i, x in enumerate(s) if x == i}


def followers(g: Graph, cfg: GameConfig, s: Profile, i: int) -> set[int]:
    """Nodes pointing at i (SGG-AC only). Strategy-set membership keeps every
    follower within k hops of i automatically."""
    if cfg.variant != SGG_AC:
        raise VariantError("followers are defined only for SGG-AC")
    return {j for j, x in enumerate(s) if x == i and j != i}


def utility(g: Graph, cfg: GameConfig, s: Profile, i: int) -> float:
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


def is_in_T(g: Graph, cfg: GameConfig, s: Profile) -> bool:
    """True iff every node accesses a good (owns one or reaches an owner)."""
    if cfg.variant == SGG:
        # Distances are symmetric, so i reaches an owner iff i lies in the
        # closed k-ball of some owner: mark the owners' balls.
        nbhd = g.closed_neighborhoods(cfg.k)
        covered = bytearray(g.n)
        for o, x in enumerate(s):
            if x == 1:
                for j in nbhd[o]:
                    covered[j] = 1
        return all(covered)
    # i has access iff its target s_i is an owner (s_i = i included), so
    # each distinct target needs checking only once.
    return all(s[x] == x for x in set(s))


def social_cost(g: Graph, cfg: GameConfig, s: Profile) -> float:
    """p times the number of owners; defined only on profiles in T."""
    if not is_in_T(g, cfg, s):
        raise ValueError("social cost is defined only for profiles in T")
    return cfg.p * len(owners(cfg, s))


def best_response_set(g: Graph, cfg: GameConfig, s: Profile, i: int) -> set[int]:
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


def is_nash(g: Graph, cfg: GameConfig, s: Profile) -> bool:
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


def is_distance_k_dominating(g: Graph, k: int, owner_set: set[int]) -> bool:
    """Every node within k hops of some member (no independence demand)."""
    nbhd = g.closed_neighborhoods(k)
    covered: set[int] = set()
    for o in owner_set:
        covered.update(nbhd[o])
    return len(covered) == g.n


def serialize_profile(s: Profile) -> str:
    """One line per node: "node_id strategy"."""
    return "\n".join(f"{i} {x}" for i, x in enumerate(s)) + "\n"


def parse_profile(text: str) -> Profile:
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected 'node strategy'")
        entries[int(tokens[0])] = int(tokens[1])
    if sorted(entries) != list(range(len(entries))):
        raise ValueError("profile must cover node ids 0..n-1 exactly once")
    return [entries[i] for i in range(len(entries))]
