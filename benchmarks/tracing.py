"""Per-layer tracing of sharegoods, installed from outside the program.

``Tracer.install()`` replaces public functions at the module bindings where
one layer calls another, and ``Graph.closed_neighborhoods`` on the class.
Each call becomes a span: name, start, end and the span that caused it.
Spans are kept in memory and written by ``write`` when the run ends. Calls
made tens of thousands of times per run (one dynamics run, one social cost,
one SGG-AC feasibility check) are aggregated into a count and a total
instead. Self time is a span's duration minus that of its child spans.
The tracing overhead is the time spent inside the wrappers outside the
functions they wrap, measured call by call.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict

# (module, attribute) bindings to wrap. A function bound in several modules
# gets one wrapper, named after the module that defines it.
BINDINGS = (
    ("cli", "compute_row"),
    ("cli", "min_dominating_exact"),
    ("cli", "empirical_cost_stats"),
    ("cli", "exact_efficiency"),
    ("equilibria", "best_response_dynamics"),
    ("equilibria", "min_dominating_exact"),
    ("equilibria", "enumerate_ne_owner_sets_sgg"),
    ("equilibria", "sggac_owner_set_feasible"),
    ("game", "social_cost"),
    ("optimum", "min_dominating_exact"),
    ("optimum", "min_dominating_greedy"),
    ("netgraph", "load_edge_list"),
    ("netgraph", "generate"),
)

DYNAMICS = "dynamics.best_response_dynamics"
EXACT = "optimum.min_dominating_exact"
GREEDY = "optimum.min_dominating_greedy"
FEASIBLE = "equilibria.sggac_owner_set_feasible"
NBHD = "netgraph.Graph.closed_neighborhoods"
AGGREGATED = {DYNAMICS, "game.social_cost", FEASIBLE}

# Per-layer metrics and their units, in report order.
UNITS = {
    "dynamics.best_response_dynamics.calls": "count",
    "dynamics.best_response_dynamics.s": "s",
    "dynamics.best_response_dynamics.p50_us": "us",
    "dynamics.best_response_dynamics.p99_us": "us",
    "dynamics.passes_mean": "passes",
    "dynamics.deviations": "count",
    "dynamics.case1": "count",
    "dynamics.case2": "count",
    "dynamics.case3": "count",
    "dynamics.case4": "count",
    "dynamics.useful_visit_ratio": "ratio",
    "equilibria.empirical_cost_stats.self_s": "s",
    "game.social_cost.calls": "count",
    "game.social_cost.s": "s",
    "optimum.min_dominating_exact.calls": "count",
    "optimum.min_dominating_exact.s": "s",
    "optimum.nodes_explored": "count",
    "optimum.proven_frac": "ratio",
    "optimum.exact_distinct_ratio": "ratio",
    "optimum.min_dominating_greedy.s": "s",
    "optimum.greedy_size": "count",
    "equilibria.exact_efficiency.self_s": "s",
    "equilibria.sggac_owner_set_feasible.calls": "count",
    "equilibria.sggac_owner_set_feasible.s": "s",
    "equilibria.feasible_ratio": "ratio",
    "equilibria.enumerate_ne_owner_sets_sgg.s": "s",
    "netgraph.load_edge_list.s": "s",
    "netgraph.generate.s": "s",
    "netgraph.closed_neighborhoods.cold_s": "s",
    "netgraph.nbhd_entries": "count",
    "cli.compute_row.self_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, base: float) -> float:
    """num / base; a ratio with no base reads 0."""
    return num / base if base else 0.0


def _percentile_us(durations: list[float], pct: int) -> float:
    if len(durations) < 2:      # quantiles() needs two samples
        return durations[0] * 1e6 if durations else 0.0
    return statistics.quantiles(durations, n=100,
                                method="inclusive")[pct - 1] * 1e6


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []    # (id, parent id, name, start, end)
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.durations: list[float] = []    # of every dynamics run
        self.counts: Counter = Counter()
        self._exact_keys: set = set()
        self._nbhd_seen: dict = {}
        self._stack: list[list] = []        # [span id, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []
        self.overhead_s = 0.0

    # ------------------------------------------------------------ spans

    def wrap(self, name: str, fn, on_result=None):
        """fn, recording each call as a span named name."""
        keep = name not in AGGREGATED
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            entered = clock()
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if keep:
                    self.spans.append((span_id, parent and parent[0], name,
                                       start, end))
                elif name == DYNAMICS:
                    self.durations.append(duration)
            if on_result is not None:
                on_result(args, result)
            self.overhead_s += clock() - entered - duration
            return result
        return traced

    # ----------------------------------------------------- result hooks

    def _on_dynamics(self, args, result) -> None:
        c = self.counts
        c["passes"] += result.passes
        c["deviations"] += result.deviations
        c["visits"] += result.passes * args[0].n
        for cases in result.case_counts:
            for i, count in enumerate(cases, 1):
                c[f"case{i}"] += count

    def _on_exact(self, args, result) -> None:
        g, k = args[0], args[1]
        self._exact_keys.add((g.n, g.edges, k))
        self.counts["nodes_explored"] += result.nodes_explored
        self.counts["proven"] += result.proven_optimal

    def _on_greedy(self, args, result) -> None:
        self.counts["greedy_size"] += len(result)

    def _on_feasible(self, args, result) -> None:
        self.counts["feasible"] += bool(result)

    def _on_nbhd(self, args, result) -> None:
        self.counts["nbhd_entries"] += sum(map(len, result))

    # ------------------------------------------------------ installation

    def install(self) -> None:
        from sharegoods import cli, equilibria, game, netgraph, optimum
        modules = {"cli": cli, "equilibria": equilibria, "game": game,
                   "optimum": optimum, "netgraph": netgraph}
        hooks = {DYNAMICS: self._on_dynamics, EXACT: self._on_exact,
                 GREEDY: self._on_greedy, FEASIBLE: self._on_feasible}
        wrapped = {}
        for mod_name, attr in BINDINGS:
            module = modules[mod_name]
            fn = getattr(module, attr)
            if id(fn) not in wrapped:
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
                wrapped[id(fn)] = self.wrap(name, fn, hooks.get(name))
            self._restore.append((module, attr, fn))
            setattr(module, attr, wrapped[id(fn)])

        # Only the first request per (graph, k) computes neighbourhoods; the
        # graphs are kept referenced so that their ids stay unique.
        method = netgraph.Graph.closed_neighborhoods
        cold = self.wrap(NBHD, method, self._on_nbhd)
        seen = self._nbhd_seen

        def closed_neighborhoods(g, k):
            key = (id(g), k)
            if key in seen:
                return method(g, k)
            seen[key] = g
            return cold(g, k)
        self._restore.append((netgraph.Graph, "closed_neighborhoods", method))
        netgraph.Graph.closed_neighborhoods = closed_neighborhoods

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # ----------------------------------------------------------- output

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric in UNITS."""
        c, calls, total = self.counts, self.calls, self.total_s
        metrics = {
            "dynamics.best_response_dynamics.calls": calls[DYNAMICS],
            "dynamics.best_response_dynamics.s": total[DYNAMICS],
            "dynamics.best_response_dynamics.p50_us":
                _percentile_us(self.durations, 50),
            "dynamics.best_response_dynamics.p99_us":
                _percentile_us(self.durations, 99),
            "dynamics.passes_mean": _ratio(c["passes"], calls[DYNAMICS]),
            "dynamics.deviations": c["deviations"],
            "dynamics.useful_visit_ratio": _ratio(c["deviations"],
                                                  c["visits"]),
            "equilibria.empirical_cost_stats.self_s":
                self.self_s["equilibria.empirical_cost_stats"],
            "game.social_cost.calls": calls["game.social_cost"],
            "game.social_cost.s": total["game.social_cost"],
            "optimum.min_dominating_exact.calls": calls[EXACT],
            "optimum.min_dominating_exact.s": total[EXACT],
            "optimum.nodes_explored": c["nodes_explored"],
            "optimum.proven_frac": _ratio(c["proven"], calls[EXACT]),
            "optimum.exact_distinct_ratio": _ratio(len(self._exact_keys),
                                                   calls[EXACT]),
            "optimum.min_dominating_greedy.s": total[GREEDY],
            "optimum.greedy_size": c["greedy_size"],
            "equilibria.exact_efficiency.self_s":
                self.self_s["equilibria.exact_efficiency"],
            "equilibria.sggac_owner_set_feasible.calls": calls[FEASIBLE],
            "equilibria.sggac_owner_set_feasible.s": total[FEASIBLE],
            "equilibria.feasible_ratio": _ratio(c["feasible"],
                                                calls[FEASIBLE]),
            "equilibria.enumerate_ne_owner_sets_sgg.s":
                total["equilibria.enumerate_ne_owner_sets_sgg"],
            "netgraph.load_edge_list.s": total["netgraph.load_edge_list"],
            "netgraph.generate.s": total["netgraph.generate"],
            "netgraph.closed_neighborhoods.cold_s": total[NBHD],
            "netgraph.nbhd_entries": c["nbhd_entries"],
            "cli.compute_row.self_s": self.self_s["cli.compute_row"],
            "trace.overhead_s": self.overhead_s,
        }
        for i in range(1, 5):
            metrics[f"dynamics.case{i}"] = c[f"case{i}"]
        return metrics

    def write(self, path, env: dict) -> None:
        """Write the kept spans and the per-name aggregates as JSON."""
        doc = {
            "env": env,
            "spans": [dict(zip(("id", "parent", "name", "start", "end"), s))
                      for s in self.spans],
            "aggregates": {name: {"calls": self.calls[name],
                                  "s": self.total_s[name],
                                  "self_s": self.self_s[name]}
                           for name in sorted(self.calls)},
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
