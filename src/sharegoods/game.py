"""Game semantics for shareable-goods games: configurations, the
best-response rule, Nash equilibria, and social cost.

Two variants are supported. In the basic game (SGG) a node either buys
(s_i = 1) or not (s_i = 0), and anyone within k hops of an owner benefits
for free. In the access-cost variant (SGG-AC) a node's strategy is a target
in its closed k-hop neighborhood: s_i = i means buy, s_i = j != i means pay
the access cost a to owner j.

`State` is the one view of a profile that the dynamics and `is_nash` share:
follower counts, owners per closed k-ball, and `State.sweep`, the one
best-response rule, stated in those counts, with its moves and case counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .netgraph import Graph

SGG = "SGG"
SGG_AC = "SGG-AC"

Profile = list[int]


class VariantError(ValueError):
    """Operation called under the wrong game variant."""


def check_k_p(k: int, p: float) -> None:
    """The radius and price rules that every game and the optimum share."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not p > 0:
        raise ValueError("price p must be positive")


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
        check_k_p(self.k, self.p)
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


def owners(cfg: GameConfig, s: Profile) -> set[int]:
    """The set of buyers under s."""
    if cfg.variant == SGG:
        return {i for i, x in enumerate(s) if x == 1}
    return {i for i, x in enumerate(s) if x == i}


def is_in_T(g: Graph, cfg: GameConfig, s: Profile) -> bool:
    """True iff every node accesses a good (owns one or reaches an owner)."""
    if cfg.variant == SGG:
        return is_distance_k_dominating(
            g, cfg.k, (o for o, x in enumerate(s) if x == 1))
    # i has access iff its target s_i is an owner (s_i = i included), so
    # each distinct target needs checking only once.
    return all(s[x] == x for x in set(s))


def social_cost(g: Graph, cfg: GameConfig, s: Profile) -> float:
    """p times the number of owners; defined only on profiles in T."""
    if not is_in_T(g, cfg, s):
        raise ValueError("social cost is defined only for profiles in T")
    return cfg.p * len(owners(cfg, s))


class State:
    """Incremental view of a strategy profile s (held by reference): the
    follower count of each node and the number of owners inside each closed
    k-hop neighborhood, kept current by `sweep`.

    Under SGG-AC the state stands for a group of follower thresholds that
    have decided alike so far, the smallest `xi` and the largest `top`. A
    node that rents under some xi also rents under every larger one, so
    these two decide for the group. A state built from a config holds its
    xi alone (top == xi)."""

    __slots__ = ("sgg", "xi", "top", "nbhd", "s", "flw", "owners_in")

    def __init__(self, g: Graph, cfg: GameConfig, s: Profile):
        self.sgg = sgg = cfg.variant == SGG
        self.xi = self.top = cfg.xi
        self.nbhd = nbhd = g.closed_neighborhoods(cfg.k)
        self.s = s
        self.owners_in = owners_in = [0] * g.n
        self.flw = flw = [0] * g.n
        for i, x in enumerate(s):
            if x == (1 if sgg else i):
                for j in nbhd[i]:
                    owners_in[j] += 1
            elif not sgg:
                flw[x] += 1

    @staticmethod
    def _of(sgg, xi, top, nbhd, s, flw, owners_in) -> State:
        """A state over counts its caller already holds (by reference)."""
        new = State.__new__(State)
        new.sgg, new.xi, new.top, new.nbhd = sgg, xi, top, nbhd
        new.s, new.flw, new.owners_in = s, flw, owners_in
        return new

    def copy(self) -> State:
        """An independent copy of this state."""
        return State._of(self.sgg, self.xi, self.top, self.nbhd, self.s[:],
                         self.flw[:], self.owners_in[:])

    def sweep(self, nodes, getrandbits=None, cases=None) -> int:
        """Move each node of `nodes` that is off a best response to a
        uniform one of its best responses (ball order), count the move's
        case c in cases[c - 1], and return -1. Stop without moving at the
        first node whose best response differs across the group's xi
        values (a node i with another owner in range and xi <= flw[i] <
        top), and return it: a one-xi state never stops there. Without
        getrandbits, only check: return the first node off a best response
        for some xi of the group, or -1 if there is none.

        An SGG-AC rent draws r = randbelow(m), m the other owners in range,
        over getrandbits (b = m.bit_length(), redraw b bits while r >= m)
        and takes the r-th of them in ball order; a buy, its lone best
        response, draws `while getrandbits(1): pass`. So the stream and the
        pick are rng.choice's. SGG moves (to 1 - s_i) draw nothing.

        SGG: free riding (b) beats buying (b - p) exactly when another owner
        is within k hops, and buying beats no access (0). SGG-AC: renting
        (b - a) beats buying (b - p + a * followers) exactly when followers
        < xi, since p/a is never an integer; pointing at a non-owner (0) is
        never best. So i rents exactly when another owner is in range and it
        has fewer than xi followers. Cases: 1 an underprivileged node buys,
        2 an underprivileged node starts accessing, 3 a non-owner buys
        despite a nearby owner, 4 an owner reverts to free riding or renting.
        """
        s, flw, owners_in, nbhd = self.s, self.flw, self.owners_in, self.nbhd
        if self.sgg:                 # s[i] is 1 exactly when i owns
            for i in nodes:
                x = s[i]
                if x == (0 if owners_in[i] - x else 1):
                    continue
                if getrandbits is None:
                    return i
                s[i] = 1 - x
                delta = 1 - 2 * x
                for j in nbhd[i]:
                    owners_in[j] += delta
                cases[3 if x else 0] += 1
            return -1
        xi, top = self.xi, self.top
        for i in nodes:
            x = s[i]
            m = owners_in[i] - (x == i)      # owners in range other than i
            if m and flw[i] < top:                         # rents
                if flw[i] >= xi:     # under top but buys under xi: a split
                    return i
                if x != i and s[x] == x:
                    continue
                if getrandbits is None:
                    return i
                b = m.bit_length()
                r = getrandbits(b)
                while r >= m:
                    r = getrandbits(b)
                if x == i:           # i stops owning, so the walk skips it
                    for j in nbhd[i]:
                        owners_in[j] -= 1
                    s[i] = -1
                    cases[3] += 1
                else:
                    flw[x] -= 1
                    cases[1] += 1
                for new in nbhd[i]:  # the r-th owner of the ball
                    if s[new] == new:
                        if not r:
                            break
                        r -= 1
                s[i] = new
                flw[new] += 1
            else:                                          # buys
                if x == i:
                    continue
                if getrandbits is None:
                    return i
                while getrandbits(1):
                    pass
                cases[2 if m else 0] += 1
                for j in nbhd[i]:
                    owners_in[j] += 1
                s[i] = i
                flw[x] -= 1
        return -1

    def is_nash(self) -> bool:
        return self.sweep(range(len(self.s))) < 0


def is_nash(g: Graph, cfg: GameConfig, s: Profile) -> bool:
    return State(g, cfg, s).is_nash()


def is_distance_k_dominating(g: Graph, k: int,
                             owner_ids: Iterable[int]) -> bool:
    """Every node within k hops of one of owner_ids, any iterable (no
    independence demand). Distances are symmetric, so i reaches an owner
    iff i lies in the closed k-ball of some owner: mark the owners' balls."""
    nbhd = g.closed_neighborhoods(k)
    covered = bytearray(g.n)
    for o in owner_ids:
        for j in nbhd[o]:
            covered[j] = 1
    return all(covered)


def serialize_profile(s: Profile) -> str:
    """One line per node: "node_id strategy"."""
    return "\n".join(f"{i} {x}" for i, x in enumerate(s)) + "\n"

