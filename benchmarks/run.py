"""Benchmark of sharegoods (see README.md for the workloads and metrics).

    python3 benchmarks/run.py --workload paper_tables --seed 0 \\
        --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 40 --trace 1

Every repetition is a fresh child process (workloads.py) that runs the
program from ./src serially, with SHAREGOODS_WORKERS unset, so the k-hop
neighbourhood cache starts cold as in every CLI invocation. A run repeats
the workload for about --seconds seconds, at least twice untraced or once
traced, and reports the median of each metric over the repetitions.

The machine's speed drifts by up to a third in spells of seconds to
minutes. So each untraced repetition also times a fixed loop every 0.2 s
(workloads.SpeedProbe), and its wall and set-up times, without the probe's
own time, are scaled to the speed at which that loop takes PROBE_REF_S
seconds. The unscaled times are printed as samples.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import UNITS as PER_LAYER_UNITS
from workloads import HERE, ROOT, SCALES, WORKLOADS, write_inputs

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_REPS = 2          # untraced; a traced run makes one or more
PROBE_REF_S = 0.007   # SpeedProbe loop time where the bounds were set
DEADLINE_S = 170          # per workload, for all of its child processes
WORKERS_ENV = "SHAREGOODS_WORKERS"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Runner:
    """Starts the child processes of one workload run."""

    def __init__(self, workload: str, seed: int, scale: str, inputs: Path,
                 env_record: dict):
        self.base = [sys.executable, str(HERE / "workloads.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--scale", scale, "--inputs", str(inputs),
                     "--env", json.dumps(env_record)]
        self.env = {k: v for k, v in os.environ.items() if k != WORKERS_ENV}
        self.deadline = time.perf_counter() + DEADLINE_S

    def child(self, mode: str) -> dict:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            sys.exit("error: workload exceeded its time limit")
        spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                self.base + ["--mode", mode, "--spawn-t", repr(spawn)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=left)
        except subprocess.TimeoutExpired:
            sys.exit("error: workload exceeded its time limit")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload child exited with {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Repeat the workload for about `seconds` and aggregate."""
    mode = "traced" if trace else "plain"
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(runner.child(mode))
        # Stop when one more repetition of the mean length would pass seconds.
        elapsed = time.perf_counter() - start
        enough = len(reps) >= (1 if trace else MIN_REPS)
        if enough and elapsed * (1 + 1 / len(reps)) > seconds:
            break
    failures = [f for r in reps for f in r["failures"].items()]
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "failures": failures,
        "samples": {"wall_s": [r["wall_s"] for r in reps],
                    "setup_s": [r["setup_s"] for r in reps],
                    "probe_s": [r["probe_s"] for r in reps]},
    }
    median = statistics.median
    if trace:
        metrics = {name: median(r["metrics"][name] for r in reps)
                   for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        result["spans_files"] = [r["spans_file"] for r in reps]
    else:
        speed = [PROBE_REF_S / r["probe_s"] for r in reps]
        metrics = {
            "wall_s": median(r["wall_s"] * f for r, f in zip(reps, speed)),
            "setup_s": median(r["setup_s"] * f for r, f in zip(reps, speed)),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        }
        units = END_TO_END_UNITS
    result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="input sizes; 'tiny' is for the self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "sharegoods" / "cli.py").is_file():
        print(f"error: no sharegoods sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env_record = {"python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)),
                  "git_sha": git_sha(),
                  WORKERS_ENV: os.environ.get(WORKERS_ENV, "<unset>"),
                  "seed": args.seed, "scale": args.scale}
    print("env " + json.dumps(env_record))

    # Byte-compile the sources first, so that no repetition pays for it.
    compileall.compile_dir(ROOT / "src", quiet=1)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            write_inputs(name, args.seed, args.scale, Path(tmp))
            runner = Runner(name, args.seed, args.scale, Path(tmp),
                            {**env_record, "workload": name})
            result = measure(runner, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
            total["metrics"][prefix + metric] = m
        print(f"{name} failed_frac = "
              f"{result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']} tasks)")
        for key, values in result["samples"].items():
            print(f"{name} samples {key} = "
                  + " ".join(f"{v:.4g}" for v in values))
        for task, problem in result["failures"]:
            print(f"{name} FAILED {task}: {problem}")
        for path in result.get("spans_files", []):
            print(f"{name} spans written to {path}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
