"""Equilibrium-finding procedures: best-response dynamics and the
optimum-repair stabilization for SGG-AC.

Best-response dynamics starts from the no-buyer profile (SGG) or a random
assignment (SGG-AC), fixes one random node order, and sweeps nodes with
`game.State.sweep`, which moves each one that is not playing a best
response to one of its best responses drawn uniformly. It provably reaches
a Nash equilibrium within three sweeps; we count sweeps and fail loudly if
a fourth would be needed.

One run serves a list of configs that share variant and k
(`best_response_grid`). SGG never reads xi, b or p, so all its configs
follow one trajectory. Under SGG-AC a node's move depends on xi only
through `flw[i] < xi`, so the configs' xi values sweep together as one
group until a node whose decision differs across them; there the group
splits in two, the xi values that rent and those that buy, and each part
resumes from that node with its own copy of the state and of the
generator. Each xi thus decides and draws exactly as it would alone.

Every draw is written out over `rng.getrandbits`, as CPython's
`random.Random` draws: randbelow(m) is `b = m.bit_length()`, then
`r = getrandbits(b)` redrawn while r >= m; `choice(seq)` is
seq[randbelow(len(seq))], and `shuffle` swaps x[i] with x[randbelow(i + 1)]
for i = n-1 .. 1. An SGG-AC renting move takes the r-th owner of the ball,
r = randbelow(m) for the m other owners in range that `game.State` counts:
`rng.choice`'s draw and pick over the ball-ordered owners. So an SGG-AC
run draws what `rng.choice` and `rng.shuffle` would. An SGG run draws only its
shuffle: each SGG move has one best response, so it draws nothing.
"""

from __future__ import annotations

import random
from bisect import bisect_right
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
    graph, the variant and k, but not on xi or a, so one draw serves every
    config of a `best_response_grid` run."""
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


def best_response_grid(g: Graph, cfgs: list[GameConfig],
                       seed: int) -> list[DynamicsResult]:
    """`best_response_dynamics(g, cfg, seed)` for each cfg of cfgs, which
    must share variant and k, from one run: one draw of the start, and one
    trajectory per group of xi values that decide alike (all SGG configs
    are one group). Configs of one group share one result object."""
    state, order, rng = draw_start(g, cfgs[0], seed)
    getrandbits = rng.getrandbits
    xis = sorted({cfg.xi for cfg in cfgs})     # [None] under SGG
    state.xi, state.top = xis[0], xis[-1]
    results = {}
    # Groups still to run, each with where it resumes: the nodes left in
    # its pass, the generator state, and the cases of its passes so far.
    todo = [(state, xis, order, None, [], [0, 0, 0, 0])]
    while todo:
        state, xis, nodes, rng_state, case_counts, cases = todo.pop()
        if rng_state is not None:
            rng.setstate(rng_state)
        while True:
            i = state.sweep(nodes, getrandbits, cases)
            if i >= 0:           # xis[:cut] buy at i, xis[cut:] rent
                cut = bisect_right(xis, state.flw[i])
                nodes = order[order.index(i):]
                buyers = state.copy()
                buyers.top = xis[cut - 1]
                todo.append((buyers, xis[:cut], nodes, rng.getstate(),
                             case_counts[:], cases[:]))
                xis = xis[cut:]
                state.xi = xis[0]
                continue
            if not sum(cases):   # nobody moved: a Nash equilibrium
                break
            if len(case_counts) == 3:
                raise RuntimeError("dynamics did not converge within 3 passes")
            case_counts.append(cases)
            cases = [0, 0, 0, 0]
            nodes = order
        result = DynamicsResult(profile=state.s, passes=len(case_counts),
                                deviations=sum(map(sum, case_counts)),
                                case_counts=case_counts)
        for xi in xis:
            results[xi] = result
    return [results[cfg.xi] for cfg in cfgs]


def best_response_dynamics(g: Graph, cfg: GameConfig,
                           seed: int) -> DynamicsResult:
    """Run best-response dynamics to a Nash equilibrium (at most 3 passes)
    from the start `draw_start(g, cfg, seed)` draws."""
    return best_response_grid(g, [cfg], seed)[0]


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
