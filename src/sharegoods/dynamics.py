"""Equilibrium-finding procedures: best-response dynamics and the
optimum-repair stabilization for SGG-AC.

Best-response dynamics starts from the no-buyer profile (SGG) or a random
assignment (SGG-AC), fixes one random node order, and sweeps nodes with
`game.State.sweep`, which moves each one that is not playing a best
response to one of its best responses drawn uniformly. It provably reaches
a Nash equilibrium within three sweeps; we count sweeps and fail loudly if
a fourth would be needed.

Every draw is written out over `rng.getrandbits`, as CPython's
`random.Random` draws: randbelow(m) is `b = m.bit_length()`, then
`r = getrandbits(b)` redrawn while r >= m; `choice(seq)` is
seq[randbelow(len(seq))], and `shuffle` swaps x[i] with x[randbelow(i + 1)]
for i = n-1 .. 1. So an SGG-AC run's stream is the one `rng.choice` and
`rng.shuffle` would draw. An SGG run draws only its shuffle: each SGG move
has one best response, so it draws nothing.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from . import game
from .game import SGG, SGG_AC, GameConfig, Profile
from .netgraph import Graph

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """Independent 64-bit stream seed for run `index` (splitmix64 mixing)."""
    x = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass
class DynamicsResult:
    profile: Profile
    passes: int
    deviations: int
    # One [case1, case2, case3, case4] counter per executed pass.
    case_counts: list[list[int]] = field(default_factory=list)


def draw_start(g: Graph, cfg: GameConfig, seed: int):
    """What a run draws before its first sweep: the start profile's
    `game.State`, the node order, and the generator right after drawing
    them, as a (state, order, rng) triple. It depends on the seed, the
    graph, the variant and k, but not on xi or a."""
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    if cfg.variant == SGG:
        s = [0] * g.n
    else:
        s = []
        for i, ball in enumerate(g.closed_neighborhoods(cfg.k)):
            m = len(ball) - 1
            if not m:
                s.append(i)      # isolated: nobody to rent from, so buy
                continue
            b = m.bit_length()   # a uniform node of the sorted ball but i
            r = getrandbits(b)
            while r >= m:
                r = getrandbits(b)
            s.append(ball[r] if ball[r] < i else ball[r + 1])
    order = list(range(g.n))
    for i in range(g.n - 1, 0, -1):       # rng.shuffle(order)
        b = (i + 1).bit_length()
        j = getrandbits(b)
        while j > i:
            j = getrandbits(b)
        order[i], order[j] = order[j], order[i]
    return game.State(g, cfg, s), order, rng


def best_response_dynamics(g: Graph, cfg: GameConfig, seed: int, *,
                           start=None) -> DynamicsResult:
    """Run best-response dynamics to a Nash equilibrium (at most 3 passes).

    `start` is what `draw_start(g, cfg, seed)` returns, drawn here when not
    given. A caller running one seed under several xi may draw it once and
    pass each xi a `State.copy` with the generator set back to the state it
    was in after the draw."""
    state, order, rng = draw_start(g, cfg, seed) if start is None else start
    getrandbits = rng.getrandbits
    deviations = 0
    case_counts: list[list[int]] = []
    while True:
        cases = [0, 0, 0, 0]
        moves = state.sweep(order, getrandbits, cases)
        if not moves:            # nobody moved: a Nash equilibrium
            break
        if len(case_counts) == 3:
            raise RuntimeError("dynamics did not converge within 3 passes")
        deviations += moves
        case_counts.append(cases)
    return DynamicsResult(profile=state.s, passes=len(case_counts),
                          deviations=deviations, case_counts=case_counts)


def stabilize(g: Graph, cfg: GameConfig, opt_owners: set[int]) -> Profile:
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
    # connected because every node inherits its BFS parent's owner.
    s = [-1] * n
    dq = deque()
    for o in sorted(current):
        s[o] = o
        dq.append(o)
    while dq:
        v = dq.popleft()
        for w in g.neighbors(v):
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
