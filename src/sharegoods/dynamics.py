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
decides and draws exactly as it would alone. `best_response_dynamics` is
the same loop for one config and one seed, and returns the whole result.

`best_response_grid` runs every row (g, cfgs, runs, master_seed) of a
command at once, on one path for any CPU count. It cuts the runs, row
after row, into 96 blocks, writes one 1-byte token per block into a pipe
and forks one child per further CPU the process may use
(`os.sched_getaffinity`). Every process reads tokens until the pipe is
empty, derives run r's seed, derive_seed(master_seed, r), as it runs r's
block, and counts each run's end in one flat tally {(row, xi, owner
count, passes): runs}; the children send theirs back with `marshal` and
the parent adds them. Each run re-seeds its generator and a tally does
not depend on which process ran a block, so the results are the same on
any number of CPUs. A child shares the parent's pages, the k-balls among them,
copy-on-write, and leaves through `os._exit`; its memory is outside the
parent's `RUSAGE_SELF`, so outside the benchmark's `peak_rss_mb`.

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
from dataclasses import dataclass
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
    case_counts: list[list[int]]


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


# A command's runs are cut into this many blocks, each dealt as a one-byte
# token, so at most 256. All tokens go into the pipe before any process
# reads it, in one write below PIPE_BUF: atomic, and it cannot block.
_BLOCKS = 96


def _deal(rows, tokens: int) -> dict:
    """Read tokens from the pipe's read end until it is empty and run each
    token's block of the rows' runs, taken row after row, seeding each run
    there. Returns the tally of its runs, as `best_response_grid` does."""
    tally = {}
    total = sum(runs for _, _, runs, _ in rows)
    while token := os.read(tokens, 1):
        b = token[0]
        lo, hi = total * b // _BLOCKS, total * (b + 1) // _BLOCKS
        for row, (g, cfgs, runs, master_seed) in enumerate(rows):
            if part := range(max(lo, 0), min(hi, runs)):
                seeds = (derive_seed(master_seed, r) for r in part)
                for state, xis, cases in _trajectories(g, cfgs, seeds):
                    # Every non-owner follows one owner under SGG-AC, so
                    # the owners are the nodes that flw does not count.
                    owners = (state.s.count(1) if state.sgg
                              else g.n - sum(state.flw))
                    for xi in xis:
                        key = (row, xi, owners, len(cases))
                        tally[key] = tally.get(key, 0) + 1
            lo, hi = lo - runs, hi - runs   # from the next row
    return tally


def _fork_worker(rows, tokens: int) -> tuple[int, BinaryIO]:
    """Fork a child that runs `_deal` and writes to a pipe marshal.dumps of
    its tally, or of a RuntimeError's message. Returns (pid, the pipe's
    read end); if the fork fails, closes the pipe and raises its OSError.
    The child leaves through os._exit, so it never returns into the caller,
    flushes stdio or runs atexit hooks."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    code = 1
    try:
        os.close(r)
        try:
            out = _deal(rows, tokens)
        except RuntimeError as exc:
            out = str(exc)
        with open(w, "wb") as fh:
            fh.write(marshal.dumps(out))
        code = 0
    finally:
        os._exit(code)


def best_response_grid(rows) -> dict:
    """Monte-Carlo rows: for each (g, cfgs, runs, master_seed) of rows,
    `runs` best-response dynamics runs for each cfg of cfgs, which must
    share variant and k; run r draws from derive_seed(master_seed, r).
    Returns one tally {(row index, xi, owner count, passes): runs that
    ended with them}, xi None under SGG; configs of one xi share its
    counts. Each run draws its start once and sweeps one trajectory per
    group of xi values that decide alike.

    The rows' k-balls are built first, so forked children inherit them.
    The runs of all rows, taken row after row, are cut into _BLOCKS blocks,
    dealt through a pipe to this process and to a forked child per further
    CPU, up to one per run, and the tallies of all processes are added, so
    the result is the serial one. If a pipe or fork for a child fails, no
    further child is forked and the processes already running take the
    remaining blocks."""
    for g, cfgs, _, _ in rows:
        g.closed_neighborhoods(cfgs[0].k)
    workers = min(_cpus(), sum(runs for _, _, runs, _ in rows), _BLOCKS)
    tokens, w = os.pipe()
    os.write(w, bytes(range(_BLOCKS)))
    os.close(w)
    children = []           # (pid, read end) of each child not yet reaped
    try:
        for _ in range(workers - 1):
            try:
                children.append(_fork_worker(rows, tokens))
            except OSError:
                break
        tally = _deal(rows, tokens)
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
            for key, runs in out.items():
                tally[key] = tally.get(key, 0) + runs
    except BaseException:
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        os.close(tokens)
    return tally


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
    range, fewer than xi followers), the lowest-id one. The repair is
    three `State.sweep` calls with a getrandbits that returns 0, so each
    move takes its first best response in ball order, a rent the lowest-id
    owner in range: the poor owner rents; its former followers with an
    owner still in range rent, so none of them takes a new owner; then the
    stranded ones, in id order, each buy or rent from one that has just
    bought. The next check resumes after the poor owner: a repair leaves
    every lower-id node on a best response, since the owners in the poor
    owner's ball keep their followers and a promoted node has no owner in
    range.
    """
    if cfg.variant != SGG_AC:
        raise game.VariantError("stabilize applies only to SGG-AC")
    if not game.is_distance_k_dominating(g, cfg.k, opt_owners):
        raise ValueError("opt_owners is not distance-k dominating")

    # Region assignment: each node follows its nearest owner, regions
    # connected because every node inherits its BFS parent's owner.
    adj = g.closed_neighborhoods(1)
    s = [-1] * g.n
    region = sorted(opt_owners)
    for o in region:
        s[o] = o
    for v in region:     # breadth first: region grows as it is read
        for w in adj[v]:
            if s[w] == -1:
                s[w] = s[v]
                region.append(w)

    state = game.State(g, cfg, s)
    moves = (lambda bits: 0, [0, 0, 0, 0])
    poor = -1
    for _ in range(len(set(opt_owners)) + 1):
        poor = state.sweep(range(poor + 1, g.n))
        if poor < 0:
            break
        state.sweep([poor], *moves)
        followers = [f for f in state.nbhd[poor] if s[f] == poor]
        state.sweep([f for f in followers if state.owners_in[f]], *moves)
        state.sweep(followers, *moves)    # the stranded ones
    else:
        raise RuntimeError("stabilize repair loop failed to terminate")

    if not game.is_nash(g, cfg, s):
        raise RuntimeError("stabilize produced a non-equilibrium profile")
    return s
