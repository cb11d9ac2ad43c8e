"""Equilibrium-finding procedures: best-response dynamics and the
optimum-repair stabilization for SGG-AC.

Best-response dynamics starts from the no-buyer profile (SGG) or a random
assignment (SGG-AC), fixes one random node order, and sweeps nodes with
`game.State.sweep`, which moves each one that is not playing a best
response to one of its best responses drawn uniformly. It provably reaches
a Nash equilibrium within three sweeps; we count sweeps and fail loudly if
a fourth would be needed.

A Monte-Carlo row is one loop (`_trajectories`): it takes the row's
configs, which share variant and k, and one seed per run, and sets up
once what every run shares: the k-balls, the sorted xi grid, the node
order template and one `random.Random`, re-seeded per run to the state
`random.Random(seed)` starts in. A run then draws its start profile with
its follower and owner counts in one pass (`draw_starts`) and sweeps it.
SGG never reads xi, b or p, so all its configs follow one trajectory.
Under SGG-AC a node's move depends on xi only through `flw[i] < xi`, so
the configs' xi values sweep together as one group until a node whose
decision differs across them; there the group splits in two, the xi
values that rent and those that buy, and each part resumes from that
node with its own copy of the state and of the generator. Each xi thus
decides and draws exactly as it would alone. A row keeps, per xi, only a
tally of its runs' owner counts and one of their passes;
`best_response_dynamics` is the same loop for one config and one seed,
and returns the whole result.

`best_response_grid` runs every row of a command at once. Runs are
independent and each re-seeds its generator, so it cuts each row's seeds
into at most 16 blocks and writes one 4-byte token per block into a
pipe, which it closes before it forks one child per further CPU the
process may use (`os.sched_getaffinity`). Every process reads tokens
until the pipe is empty and adds each block's runs to its own tallies; a
child sends its tallies back through a pipe of its own with `marshal`,
and the parent adds them. A tally does not depend on which process ran a
block, so the results are the same on any number of CPUs and under any
dealing. A child shares the parent's pages, the k-balls among them,
copy-on-write, and leaves through `os._exit`; its memory is outside the
parent's `RUSAGE_SELF`, so outside the benchmark's `peak_rss_mb`.
Without `os.fork` every block runs in the process.

Every draw is written out over `rng.getrandbits`, as CPython's
`random.Random` draws: randbelow(m) is `b = m.bit_length()`, then
`r = getrandbits(b)` redrawn while r >= m; `choice(seq)` is
seq[randbelow(len(seq))], and `shuffle` swaps x[i] with x[randbelow(i + 1)]
for i = n-1 .. 1, drawn here in blocks of i that share one bit width.
An SGG-AC renting move takes the r-th owner of the ball,
r = randbelow(m) for the m other owners in range that `game.State` counts:
`rng.choice`'s draw and pick over the ball-ordered owners. So an SGG-AC
run draws what `rng.choice` and `rng.shuffle` would. An SGG run draws only its
shuffle: each SGG move has one best response, so it draws nothing.
"""

from __future__ import annotations

import marshal
import os
import random
import signal
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import BinaryIO, Iterable

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


def draw_starts(g: Graph, cfg: GameConfig, seeds: Iterable[int],
                rng: random.Random):
    """For each seed, re-seed rng with it (the state `random.Random(seed)`
    starts in) and yield what a run draws before its first sweep, as
    (s, flw, owners_in, order): the start profile with the follower and
    owner counts of its `game.State`, counted while it is drawn, and the
    node order. rng is left right after the draw. The start depends on the
    seed, the graph, the variant and k, but not on xi or a, so one draw
    serves every config of a row."""
    n = g.n
    nbhd = g.closed_neighborhoods(cfg.k)
    sgg = cfg.variant == SGG
    nodes = list(range(n))
    # Shuffle positions i = n-1 .. 1 in runs whose draw randbelow(i + 1)
    # takes the same b bits: i + 1 from 2**(b-1) to 2**b - 1.
    blocks = []
    i = n - 1
    while i > 0:
        b = (i + 1).bit_length()
        low = (1 << (b - 1)) - 1
        blocks.append((b, range(i, low - 1, -1)))
        i = low - 1
    getrandbits = rng.getrandbits
    for seed in seeds:
        rng.seed(seed)
        flw = [0] * n
        owners_in = [0] * n
        if sgg:
            s = [0] * n
        else:
            s = nodes[:]
            for i, ball in enumerate(nbhd):
                m = len(ball) - 1
                if not m:        # isolated: nobody to rent from, so it owns
                    owners_in[i] = 1
                    continue
                b = m.bit_length()   # a uniform node of the sorted ball but i
                r = getrandbits(b)
                while r >= m:
                    r = getrandbits(b)
                x = ball[r]
                if x >= i:
                    x = ball[r + 1]
                s[i] = x
                flw[x] += 1
        order = nodes[:]
        for b, span in blocks:                # rng.shuffle(order)
            for i in span:
                j = getrandbits(b)
                while j > i:
                    j = getrandbits(b)
                order[i], order[j] = order[j], order[i]
        yield s, flw, owners_in, order


def _trajectories(g: Graph, cfgs: list[GameConfig], seeds: Iterable[int]):
    """Best-response dynamics for configs that share variant and k, one run
    per seed: for each seed in turn, yield (state, xis, case_counts) once
    per group of the configs' xi values that decided alike ([None] under
    SGG), with the group's final `game.State` and the case counts of each
    of its passes."""
    grid = sorted({cfg.xi for cfg in cfgs})
    sgg = cfgs[0].variant == SGG
    nbhd = g.closed_neighborhoods(cfgs[0].k)
    rng = random.Random()
    getrandbits = rng.getrandbits
    for s, flw, owners_in, order in draw_starts(g, cfgs[0], seeds, rng):
        state = game.State._of(sgg, grid[0], grid[-1], nbhd, s, flw,
                               owners_in)
        # Groups still to run, each with where it resumes: the nodes left
        # in its pass, the generator state, and the cases of its passes so
        # far.
        todo = [(state, grid, order, None, [], [0, 0, 0, 0])]
        while todo:
            state, xis, nodes, rng_state, case_counts, cases = todo.pop()
            if rng_state is not None:
                rng.setstate(rng_state)
            while True:
                i = state.sweep(nodes, getrandbits, cases)
                if i >= 0:       # xis[:cut] buy at i, xis[cut:] rent
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
                    raise RuntimeError(
                        "dynamics did not converge within 3 passes")
                case_counts.append(cases)
                cases = [0, 0, 0, 0]
                nodes = order
            yield state, xis, case_counts


def _cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork or the
    OS does not say."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


# A row's seeds are cut into at most this many blocks, each dealt as one
# token. All tokens go into the pipe before any process reads it, so they
# must fit in the smallest pipe Linux makes, one 4 KiB page.
_BLOCKS = 16
_MAX_TOKENS = 4096 // 4


def _grid_chunk(g: Graph, cfgs: list[GameConfig], seeds: list[int],
                per_xi: dict) -> None:
    """Run seeds serially, adding each run to per_xi[xi], a pair of
    tallies {owner count: runs} and {passes: runs}, for each xi of cfgs."""
    n = g.n
    for state, xis, case_counts in _trajectories(g, cfgs, seeds):
        # Every non-owner follows one owner under SGG-AC, so the owners
        # are the nodes that flw does not count.
        count = state.s.count(1) if state.sgg else n - sum(state.flw)
        passes = len(case_counts)
        for xi in xis:
            owned, npasses = per_xi[xi]
            owned[count] = owned.get(count, 0) + 1
            npasses[passes] = npasses.get(passes, 0) + 1


def _tallies(rows) -> list[dict]:
    """Empty tallies: one {xi: ({}, {})} per row."""
    return [{cfg.xi: ({}, {}) for cfg in cfgs} for _, cfgs, _ in rows]


def _deal(rows, blocks, tokens: int, tallies: list[dict]) -> list[dict]:
    """Read tokens from the pipe's read end until it is empty, run each
    token's block of seeds and add its runs to tallies."""
    while token := os.read(tokens, 4):
        r, lo, hi = blocks[int.from_bytes(token, "little")]
        g, cfgs, seeds = rows[r]
        _grid_chunk(g, cfgs, seeds[lo:hi], tallies[r])
    return tallies


def _fork_worker(rows, blocks, tokens: int) -> tuple[int, BinaryIO]:
    """Fork a child that runs `_deal` on fresh tallies and writes to a
    pipe marshal.dumps of them, or of a RuntimeError's message. Returns
    (pid, the pipe's read end). The child leaves through os._exit, so it
    never returns into the caller, flushes stdio or runs atexit hooks."""
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    code = 1
    try:
        os.close(r)
        try:
            out = _deal(rows, blocks, tokens, _tallies(rows))
        except RuntimeError as exc:
            out = str(exc)
        with open(w, "wb") as fh:
            fh.write(marshal.dumps(out))
        code = 0
    finally:
        os._exit(code)


def _add(tallies: list[dict], more: list[dict]) -> None:
    """Add the runs of each tally of more to the same tally of tallies."""
    for per_xi, extra in zip(tallies, more):
        for xi, pair in extra.items():
            for tally, counts in zip(per_xi[xi], pair):
                for value, runs in counts.items():
                    tally[value] = tally.get(value, 0) + runs


def best_response_grid(rows) -> list[list[tuple[dict, dict]]]:
    """Monte-Carlo rows: for each (g, cfgs, seeds) of rows, best-response
    dynamics for each cfg of cfgs, which must share variant and k, one run
    per seed of the sequence seeds. Returns, per row and per config, two
    tallies: {owner count: runs that ended with it} and {passes: runs};
    configs of one xi share one pair. Each run draws its start once and
    sweeps one trajectory per group of xi values that decide alike.

    The rows' k-balls are built first, so forked children inherit them.
    Each row's seeds are cut into blocks, dealt through a pipe to this
    process and a forked child per further CPU, and the tallies of all
    processes are added, so the result is the serial one."""
    blocks = []                         # (row, first seed, end) per token
    for r, (g, cfgs, seeds) in enumerate(rows):
        g.closed_neighborhoods(cfgs[0].k)
        parts = min(_BLOCKS, len(seeds))
        blocks += [(r, len(seeds) * b // parts, len(seeds) * (b + 1) // parts)
                   for b in range(parts)]
    tallies = _tallies(rows)
    workers = min(_cpus(), len(blocks))
    if workers < 2 or len(blocks) > _MAX_TOKENS:
        for r, lo, hi in blocks:
            g, cfgs, seeds = rows[r]
            _grid_chunk(g, cfgs, seeds[lo:hi], tallies[r])
    else:
        tokens, w = os.pipe()
        os.write(w, b"".join(t.to_bytes(4, "little")
                             for t in range(len(blocks))))
        os.close(w)
        children = []       # (pid, read end) of each child not yet reaped
        try:
            for _ in range(workers - 1):
                children.append(_fork_worker(rows, blocks, tokens))
            _deal(rows, blocks, tokens, tallies)
            while children:
                pid, fh = children[0]
                with fh:
                    data = fh.read()
                status = os.waitpid(pid, 0)[1]
                del children[0]
                if status:
                    raise RuntimeError(
                        f"a dynamics worker exited with status "
                        f"{os.waitstatus_to_exitcode(status)}")
                out = marshal.loads(data)
                if isinstance(out, str):
                    raise RuntimeError(out)
                _add(tallies, out)
        except BaseException:
            for pid, fh in children:
                fh.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
        finally:
            os.close(tokens)
    return [[per_xi[cfg.xi] for cfg in cfgs]
            for (_, cfgs, _), per_xi in zip(rows, tallies)]


def best_response_dynamics(g: Graph, cfg: GameConfig,
                           seed: int) -> DynamicsResult:
    """Run best-response dynamics to a Nash equilibrium (at most 3 passes)
    from the start `draw_starts` draws for seed: one run of one config."""
    (state, _, case_counts), = _trajectories(g, [cfg], [seed])
    return DynamicsResult(profile=state.s, passes=len(case_counts),
                          deviations=sum(map(sum, case_counts)),
                          case_counts=case_counts)


def stabilize(g: Graph, cfg: GameConfig, opt_owners: set[int]) -> Profile:
    """Repair an optimal owner set into an SGG-AC equilibrium.

    Builds the initial profile by multi-source BFS from the owners (each
    owner's follower region is connected) and one `game.State` over it.
    Every non-owner rents from an owner in its ball and has no followers,
    so the check-only `State.sweep` names a poor owner (another owner in
    range, fewer than xi followers), the lowest-id one. It rents from the
    first owner of its ball, its followers from the first owners of theirs,
    and each one left stranded, in id order, buys and takes the stranded
    nodes of its ball. The next check resumes after the poor owner: a
    repair leaves every lower-id node on a best response, since the owners
    in the poor owner's ball keep their followers and a promoted node has
    no owner in range.
    """
    if cfg.variant != SGG_AC:
        raise game.VariantError("stabilize applies only to SGG-AC")
    if not game.is_distance_k_dominating(g, cfg.k, opt_owners):
        raise ValueError("opt_owners is not distance-k dominating")

    # Region assignment: each node follows its nearest owner, regions
    # connected because every node inherits its BFS parent's owner.
    s = [-1] * g.n
    dq = deque()
    for o in sorted(opt_owners):
        s[o] = o
        dq.append(o)
    while dq:
        v = dq.popleft()
        for w in g.neighbors(v):
            if s[w] == -1:
                s[w] = s[v]
                dq.append(w)

    state = game.State(g, cfg, s)
    nbhd, flw, owners_in = state.nbhd, state.flw, state.owners_in
    poor = -1
    for _ in range(len(set(opt_owners)) + 1):
        poor = state.sweep(range(poor + 1, g.n))
        if poor < 0:
            break
        # poor rents; its ball loses an owner and holds all its followers.
        ball = nbhd[poor]
        target = next(o for o in ball if o != poor and s[o] == o)
        s[poor] = target
        flw[target] += 1
        flw[poor] = 0
        for f in ball:
            owners_in[f] -= 1
            if s[f] == poor:
                for o in nbhd[f]:
                    if s[o] == o:
                        s[f] = o
                        flw[o] += 1
                        break
        for leader in ball:
            if s[leader] == poor:          # still stranded: it buys
                s[leader] = leader
                for j in nbhd[leader]:
                    owners_in[j] += 1
                    if s[j] == poor:
                        s[j] = leader
                        flw[leader] += 1
    else:
        raise RuntimeError("stabilize repair loop failed to terminate")

    if not game.is_nash(g, cfg, s):
        raise RuntimeError("stabilize produced a non-equilibrium profile")
    return s
