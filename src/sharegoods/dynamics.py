"""Equilibrium-finding procedures: best-response dynamics and the
optimum-repair stabilization for SGG-AC.

Best-response dynamics starts from the no-buyer profile (SGG) or a random
assignment (SGG-AC), fixes one random node order, and sweeps nodes with
`game.State.sweep`, which moves each one that is not playing a best
response to one of its best responses drawn uniformly. It provably reaches
a Nash equilibrium within three sweeps; we count sweeps and fail loudly if
a fourth would be needed.
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
    seed: int
    # One [case1, case2, case3, case4] counter per executed pass.
    case_counts: list[list[int]] = field(default_factory=list)


def best_response_dynamics(g: Graph, cfg: GameConfig, seed: int) -> DynamicsResult:
    """Run best-response dynamics to a Nash equilibrium (at most 3 passes)."""
    rng = random.Random(seed)
    randbelow = rng._randbelow   # rng.choice(seq) is seq[randbelow(len(seq))]
    if cfg.variant == SGG:
        s = [0] * g.n
    else:
        s = []
        for i, ball in enumerate(g.closed_neighborhoods(cfg.k)):
            if len(ball) == 1:
                s.append(i)      # isolated: nobody to rent from, so buy
            else:                # a uniform node of the sorted ball but i
                r = randbelow(len(ball) - 1)
                s.append(ball[r] if ball[r] < i else ball[r + 1])
    state = game.State(g, cfg, s)
    order = list(range(g.n))
    rng.shuffle(order)
    deviations = 0
    case_counts: list[list[int]] = []
    while True:
        cases = [0, 0, 0, 0]
        moves = state.sweep(order, randbelow, cases)
        if not moves:            # nobody moved: a Nash equilibrium
            break
        if len(case_counts) == 3:
            raise RuntimeError("dynamics did not converge within 3 passes")
        deviations += moves
        case_counts.append(cases)
    return DynamicsResult(profile=state.s, passes=len(case_counts),
                          deviations=deviations, seed=seed,
                          case_counts=case_counts)


def stabilize(g: Graph, cfg: GameConfig, opt_owners: set[int]) -> Profile:
    """Repair an optimal owner set into an SGG-AC equilibrium.

    Builds the initial profile by multi-source BFS from the owners (each
    owner's follower region is connected), then repeatedly lets a poor owner
    that can reach another owner defect to renting, re-homing its followers
    and promoting the stranded ones to new owners.
    """
    if cfg.variant != SGG_AC:
        raise game.VariantError("stabilize applies only to SGG-AC")
    if not game.is_distance_k_dominating(g, cfg.k, set(opt_owners)):
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
