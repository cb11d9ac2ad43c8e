"""Workloads of the sharegoods benchmark: input files, the program calls of
one repetition, and the checks on their outputs.

``run.py`` calls ``write_inputs`` once per run and then starts this file as
a fresh child process for every repetition:

    python3 benchmarks/workloads.py --workload NAME --seed N --inputs DIR \\
        --spawn-t T --mode plain|traced [--scale full|tiny]

``--spawn-t`` is the parent's ``time.perf_counter()`` just before it started
the child. On Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so the set-up and wall times reported here include interpreter start-up.
The child prints one JSON object as its last line of standard output.

Why each workload, and why some instances ignore the seed:

- paper_tables is the paper's main experiment, the three CLI presets at
  --runs 1000. The karate presets run at the workload seed.
  table3_synthetic always runs at its default --seed 0: the
  preset generates er_random(50, 0.1) from that seed, and the exact optimum
  of that graph took 15k to 325k branch-and-bound nodes over seeds 0-15
  (0.04 to 1.1 s, times 6 rows), which would swamp the run-to-run spread.
- exact_analysis relabels its SGG-AC and SGG instances by the seed. Their
  answers and CSV bytes do not depend on the labels, and neither does the
  SGG-AC work: exact_efficiency checks all 2^16 - 1 owner sets per xi.
  Its graph is er_random(16, 0.25, 1): an edge list cannot hold the
  isolated node of er_random(16, 0.25, 3).
  The two branch-and-bound instances keep the labels of the named
  generator seeds, because 8 relabellings of er_random(60, 0.1, 2) took
  132k to 2.5M nodes (0.5 to 7.9 s).
- large_network draws a fresh G(n, m) graph from the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    runs: int                          # Monte-Carlo runs per preset row
    sggac: tuple[int, float, int]      # er_random (n, prob, graph seed)
    sgg: tuple[int, float, int]
    union: tuple[int, float, int]      # one copy; the instance is two
    bnb: tuple[int, float, int]
    large_n: int
    large_m: int
    large_runs: int


SCALES = {
    "full": Sizes(runs=1000, sggac=(16, 0.25, 1), sgg=(20, 0.2, 1),
                  union=(30, 0.2, 5), bnb=(60, 0.1, 2),
                  large_n=5000, large_m=20000, large_runs=30),
    "tiny": Sizes(runs=3, sggac=(8, 0.4, 1), sgg=(10, 0.3, 1),
                  union=(10, 0.3, 5), bnb=(16, 0.2, 2),
                  large_n=200, large_m=600, large_runs=3),
}

PRESETS = {"table3_karate": 6, "table4_karate": 6,   # name: CSV rows
           "table3_synthetic": 18}
FIXED_SEED_PRESETS = {"table3_synthetic"}
SGGAC_XI = (1, 2, 5)

# Expected outputs at full scale. Digests are sha256 of the CSV bytes.
# Outputs that do not depend on the workload seed (fixed inputs, or
# relabelled graphs whose answers are isomorphism invariants):
PINNED_ALWAYS = {
    "table3_synthetic":
        "504d66e3a0267fd90e4a4411384c05b77582cb49b5bd3542e445d33dd1439f1c",
    "sggac": "7d4c0eaaa5595eefa6b96dcc0fa9f2f603ae614588be4b188f3eed07dd39fa1a",
    "sgg": "75a415992b99a3ef3b990509f456600f4dbbededf4bf3b66420a6a0c50e35fea",
    "union": 10.0,          # exact optimum cost, proven optimal
    "bnb": 12.0,
}
# Outputs pinned at DEFAULT_SEED only:
PINNED_DEFAULT_SEED = {
    "table3_karate":
        "b143786840aaf8166a8a3a4c12a37038bd99d146ea3c1ad04d3cd44f39b71d87",
    "table4_karate":
        "0c37c0f8a4e7e1eb435dd0bc7f48230ac7c5c9f08b3857dd6fde2b64ed73fbab",
    "large_sggac":
        "f8f68a63dd6adc64d6f2a0ab2ce5b290f2fef00d1bacb5bcef76cf5b3c005cc3",
    "large_sgg":
        "542da9fc4d0f78d0cfdbdeca91bfc5472ac6f0985e1090ebf1bd65446c7718b4",
    "greedy_k1": 830,       # size of the greedy set
    "greedy_k2": 163,
}


# ---------------------------------------------------------------- inputs

def gnp_edges(n: int, prob: float, seed: int) -> list[tuple[int, int]]:
    """G(n, prob) drawn exactly as ``netgraph.er_random`` draws it."""
    rng = random.Random(seed)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < prob]


def gnm_edges(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """m distinct edges on n nodes, uniformly at random."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def relabel(edges, n: int, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                  for u, v in edges)


def _write_edges(path: Path, edges) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))


def _write_config(path: Path, **values) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


def write_inputs(workload: str, seed: int, scale: str, d: Path) -> None:
    """Write the edge lists and config files a workload reads into d."""
    sz = SCALES[scale]
    if workload == "exact_analysis":
        rng = random.Random(seed)
        for name in ("sggac", "sgg"):
            n, prob, gseed = getattr(sz, name)
            _write_edges(d / f"{name}.txt",
                         relabel(gnp_edges(n, prob, gseed), n, rng))
        n, prob, gseed = sz.union
        one = gnp_edges(n, prob, gseed)
        _write_edges(d / "union.txt",
                     one + [(u + n, v + n) for u, v in one])
        _write_edges(d / "bnb.txt", gnp_edges(*sz.bnb))
        _write_config(d / "sggac.cfg", edge_list=d / "sggac.txt",
                      variant="SGG-AC", k=1,
                      xi=",".join(map(str, SGGAC_XI)),
                      analyses="exact_efficiency", out=d / "sggac.csv")
        _write_config(d / "sgg.cfg", edge_list=d / "sgg.txt", variant="SGG",
                      k=1, analyses="exact_efficiency", out=d / "sgg.csv")
    elif workload == "large_network":
        _write_edges(d / "large.txt",
                     gnm_edges(sz.large_n, sz.large_m, seed))
        _write_config(d / "large_sggac.cfg", edge_list=d / "large.txt",
                      variant="SGG-AC", k=1, xi=2, runs=sz.large_runs,
                      seed=seed, analyses="dynamics",
                      out=d / "large_sggac.csv")
        _write_config(d / "large_sgg.cfg", edge_list=d / "large.txt",
                      variant="SGG", k=2, runs=sz.large_runs, seed=seed,
                      analyses="dynamics", out=d / "large_sgg.csv")


# ---------------------------------------------------------------- checks

def read_graph(path: Path) -> list[list[int]]:
    """Adjacency lists of an edge-list file, ids remapped densely in sorted
    order as ``netgraph.load_edge_list`` documents."""
    edges = [tuple(map(int, line.split()))
             for line in path.read_text().splitlines() if line.strip()]
    index = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    adj: list[list[int]] = [[] for _ in index]
    for u, v in edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    return adj


def undominated(adj: list[list[int]], k: int, owners) -> int:
    """Number of nodes farther than k hops from every owner."""
    dist = [-1] * len(adj)
    frontier = list(owners)
    for o in frontier:
        dist[o] = 0
    for depth in range(1, k + 1):
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist.count(-1)


def row_problem(row: dict) -> str | None:
    """The first invariant a CSV row breaks, or None."""
    def num(col):
        return float(row[col]) if row[col] != "" else None
    if row["opt_proven"] not in ("", "true"):
        return "optimum not proven"
    opt, lo, mean, hi = (num(c) for c in
                         ("opt_cost", "min_cost", "mean_cost", "max_cost"))
    if opt is not None and lo is not None and lo < opt - TOL:
        return f"min_cost {lo} < opt_cost {opt}"
    if lo is not None and not lo - TOL <= mean <= hi + TOL:
        return f"mean_cost {mean} outside [{lo}, {hi}]"
    if row["mean_passes"] != "" and not 0 <= num("mean_passes") <= 3:
        return f"mean_passes {row['mean_passes']} outside [0, 3]"
    poa, pos = num("poa_exact"), num("pos_exact")
    if poa is not None and not 1 - TOL <= pos <= poa + TOL:
        return f"PoS {pos} / PoA {poa} break 1 <= PoS <= PoA"
    return None


def digest_problem(data: bytes, pinned: str | None) -> str | None:
    got = hashlib.sha256(data).hexdigest()
    if pinned is not None and got != pinned:
        return f"sha256 {got} differs from the pinned {pinned}"
    return None


class Rep:
    """Tasks of one repetition. A task fails if it raises, or later if its
    check returns a message."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.tasks = []

    def task(self, name: str, run, check):
        if self.tracer is not None:
            run = self.tracer.wrap(f"task.{name}", run)
        try:
            out = run()
        except Exception as exc:  # a failed task is counted, not fatal
            traceback.print_exc()
            self.tasks.append((name, None, None, f"raised {exc!r}"))
            return None
        self.tasks.append((name, out, check, None))
        return out

    def failures(self) -> dict[str, str]:
        failed = {}
        for name, out, check, problem in self.tasks:
            if problem is None:
                try:
                    problem = check(out)
                except Exception as exc:  # a broken output fails its task
                    problem = f"check raised {exc!r}"
            if problem:
                failed[name] = problem
        return failed


class SpeedProbe:
    """Samples the CPU's speed while the workload runs: a timer signal times
    a fixed pure-Python loop every 0.2 s, between two bytecodes of the
    program."""

    LOOPS = 40_000

    def __init__(self) -> None:
        self.samples: list[float] = []

    def tick(self, *_) -> None:
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(self.LOOPS):
            total += i * i % 7
            table[i & 1023] = total
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, 0.2, 0.2)

    def stop(self) -> float:
        """Disarms the timer; returns the seconds the probe has taken."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return sum(self.samples)


# ------------------------------------------------------------- workloads

@dataclass
class Context:
    seed: int
    scale: str
    dir: Path

    @property
    def sizes(self) -> Sizes:
        return SCALES[self.scale]

    def pin(self, name: str):
        """The pinned expectation for an output, or None if unpinned."""
        if self.scale != "full":
            return None
        if name in PINNED_ALWAYS:
            return PINNED_ALWAYS[name]
        return PINNED_DEFAULT_SEED[name] if self.seed == DEFAULT_SEED else None


def sharegoods(*argv) -> str:
    """Run the sharegoods CLI in this process; returns what it printed."""
    from sharegoods import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"sharegoods {argv[0]} exited with {code}")
    return out.getvalue()


def csv_check(ctx: Context, name: str, path: Path, n_rows: int, graphs):
    """Check of a CSV output: pinned digest, row count, row invariants, and
    opt_cost no larger than p times the greedy set. graphs() maps
    (dataset, k) to the graph the row was computed on."""
    def check(_printed):
        from sharegoods.optimum import min_dominating_greedy
        data = path.read_bytes()
        problem = digest_problem(data, ctx.pin(name))
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if problem is None and len(rows) != n_rows:
            problem = f"{len(rows)} rows, expected {n_rows}"
        graph_of = graphs()
        for row in rows:
            problem = problem or row_problem(row)
            if problem is None and row["opt_cost"]:
                k = int(row["k"])
                greedy = len(min_dominating_greedy(
                    graph_of[(row["dataset"], k)], k))
                if float(row["opt_cost"]) > float(row["p"]) * greedy + TOL:
                    problem = f"opt_cost {row['opt_cost']} > greedy {greedy}"
        return problem
    return check


def edge_list_graphs(path: Path, k: int):
    def graphs():
        from sharegoods import netgraph
        return {(path.name, k): netgraph.load_edge_list(path.read_text())}
    return graphs


def optimum_check(ctx: Context, name: str, path: Path, k: int):
    """Check of `sharegoods optimum` output: proven optimal, pinned cost,
    owners dominating, cost no larger than the greedy set."""
    def check(printed):
        from sharegoods import netgraph
        from sharegoods.optimum import min_dominating_greedy
        m = re.search(r"cost=(\S+) \((\w+)\) owners=\[([\d, ]*)\]", printed)
        if m is None:
            return f"unexpected output {printed!r}"
        cost, status = float(m.group(1)), m.group(2)
        owners = [int(x) for x in m.group(3).split(",") if x.strip()]
        pinned = ctx.pin(name)
        if status != "optimal":
            return f"optimum not proven ({status})"
        if pinned is not None and cost != pinned:
            return f"optimum {cost}, pinned {pinned}"
        if undominated(read_graph(path), k, owners):
            return "optimal owner set is not dominating"
        greedy = len(min_dominating_greedy(
            netgraph.load_edge_list(path.read_text()), k))
        if cost != len(owners) or cost > greedy:
            return f"optimum {cost}: {len(owners)} owners, greedy {greedy}"
        return None
    return check


def paper_tables(rep: Rep, ctx: Context) -> None:
    from sharegoods import cli
    for name in PRESETS:
        seed = DEFAULT_SEED if name in FIXED_SEED_PRESETS else ctx.seed
        out = ctx.dir / f"{name}.csv"

        def graphs(name=name, seed=seed):
            return {(c.dataset, c.k): c.graph
                    for c in cli.presets(name, ctx.sizes.runs, seed)}
        rep.task(name, lambda name=name, seed=seed, out=out: sharegoods(
            "preset", name, "--runs", ctx.sizes.runs, "--seed", seed,
            "--out", out), csv_check(ctx, name, out, PRESETS[name], graphs))


def exact_analysis(rep: Rep, ctx: Context) -> None:
    for name, n_rows in (("sggac", len(SGGAC_XI)), ("sgg", 1)):
        rep.task(name, lambda name=name: sharegoods(
            "run", ctx.dir / f"{name}.cfg"),
            csv_check(ctx, name, ctx.dir / f"{name}.csv", n_rows,
                      edge_list_graphs(ctx.dir / f"{name}.txt", 1)))
    for name in ("union", "bnb"):
        path = ctx.dir / f"{name}.txt"
        rep.task(name, lambda path=path: sharegoods(
            "optimum", "--graph", path, "--k", 1),
            optimum_check(ctx, name, path, 1))


def large_network(rep: Rep, ctx: Context) -> None:
    from sharegoods import netgraph, optimum
    for name in ("large_sggac", "large_sgg"):
        rep.task(name, lambda name=name: sharegoods(
            "run", ctx.dir / f"{name}.cfg"),
            csv_check(ctx, name, ctx.dir / f"{name}.csv", 1, dict))
    path = ctx.dir / "large.txt"
    g = rep.task("load", lambda: netgraph.load_edge_list(path.read_text()),
                 lambda g: None if g.n == len(read_graph(path))
                 else f"loaded n={g.n}")
    for k in (1, 2):
        def check(owners, k=k):
            pinned = ctx.pin(f"greedy_k{k}")
            if pinned is not None and len(owners) != pinned:
                return f"greedy set of {len(owners)}, pinned {pinned}"
            if undominated(read_graph(path), k, owners):
                return "greedy set is not dominating"
            return None
        rep.task(f"greedy_k{k}",
                 lambda k=k: optimum.min_dominating_greedy(g, k), check)


WORKLOADS = {
    "paper_tables": paper_tables,
    "exact_analysis": exact_analysis,
    "large_network": large_network,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--mode", choices=("plain", "traced"),
                        required=True)
    parser.add_argument("--env", default="{}",
                        help="JSON environment record for the spans file")
    args = parser.parse_args()

    # Only untraced repetitions are probed: the probe would land in spans.
    probe = SpeedProbe()
    if args.mode == "plain":
        probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    from sharegoods import cli

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    # Set-up ends at the first analysis call; every workload starts with a
    # CLI command, whose analyses all go through cli.compute_row.
    marks = {}
    compute_row = cli.compute_row

    def first_row(*a, **kw):
        marks["setup"] = time.perf_counter() - sum(probe.samples)
        cli.compute_row = compute_row
        return compute_row(*a, **kw)
    cli.compute_row = first_row

    rep = Rep(tracer)
    ctx = Context(args.seed, args.scale, args.inputs)
    WORKLOADS[args.workload](rep, ctx)
    end = time.perf_counter() - probe.stop()
    if not probe.samples:
        probe.tick()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"wall_s": end - args.spawn_t, "peak_rss_mb": rss_kb / 1024,
              "probe_s": statistics.mean(probe.samples)}
    if tracer is not None:
        tracer.uninstall()
        spans = ROOT / ".bench_out" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        path = spans / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        tracer.write(path, json.loads(args.env))
        result["metrics"] = tracer.metrics()
        result["spans_file"] = str(path.relative_to(ROOT))
    failures = rep.failures()
    result.update(attempted=len(rep.tasks), failed=len(failures),
                  failures=failures)
    # With every task failed before its first analysis, set-up never ended.
    result["setup_s"] = marks.get("setup", end) - args.spawn_t
    print(json.dumps(result))


if __name__ == "__main__":
    main()
