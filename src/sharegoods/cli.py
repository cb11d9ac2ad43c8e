"""Experiment runner: flat-file configs, presets for the benchmark tables,
deterministic seeding, and CSV reporting."""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import game, netgraph
from .dynamics import stabilize
from .equilibria import empirical_cost_stats, exact_efficiency
from .game import SGG, SGG_AC, GameConfig
from .netgraph import ConfigError, FamilySpec, Graph
from .optimum import export_ilp, min_dominating_exact

CSV_COLUMNS = [
    "dataset", "n", "edges", "variant", "k", "b", "p", "a", "xi", "runs",
    "seed", "opt_cost", "opt_proven", "mean_cost", "std_cost", "min_cost",
    "max_cost", "mean_passes", "poa_exact", "pos_exact",
]

KNOWN_ANALYSES = ("optimum", "dynamics", "exact_efficiency", "stabilize",
                  "export_lp")


@dataclass
class ExperimentConfig:
    dataset: str
    graph: Graph
    variant: str
    k: int
    b: float = 2.0
    p: float = 1.0
    a: float | None = None
    xi_values: tuple[int, ...] | None = None
    runs: int = 1000
    master_seed: int = 0
    analyses: tuple[str, ...] = ("optimum", "dynamics")
    out: str | None = None
    # One GameConfig per CSV row: one per xi value, or one without xi.
    cfgs: list[GameConfig] = field(init=False)

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.xi_values and len(set(self.xi_values)) < len(self.xi_values):
            raise ConfigError("xi values must be distinct")
        try:
            self.cfgs = [GameConfig(self.variant, self.k, b=self.b, p=self.p,
                                    a=self.a, xi=xi)
                         for xi in self.xi_values or (None,)]
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not self.analyses:
            raise ConfigError("analyses must name at least one analysis")
        unknown = set(self.analyses) - set(KNOWN_ANALYSES)
        if unknown:
            raise ConfigError(f"unknown analyses: {sorted(unknown)}")
        if "stabilize" in self.analyses and self.variant != SGG_AC:
            raise ConfigError("stabilize applies only to SGG-AC")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _side_path(config: ExperimentConfig, xi, suffix: str) -> Path:
    tag = config.variant.lower().replace("-", "")
    if xi is not None:
        tag += f"_xi{xi}"
    out = Path(config.out or "")
    prefix = f"{out.stem}_" if config.out else ""
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "_"
                   for ch in f"{prefix}{config.dataset}_{tag}_k{config.k}")
    return out.parent / (safe + suffix)


def compute_row(configs: list[ExperimentConfig]) -> list[dict]:
    """The CSV rows of a command's experiments, one per (experiment, xi) in
    order. The dynamics of every experiment run first, in one
    `empirical_cost_stats` call, so that their runs are dealt over the CPUs
    together; each run is drawn once for its experiment's whole xi grid and
    swept once per group of xi values that decide alike. The exact optimum
    is computed once per (graph, k, p) of the command."""
    dynamic = [c for c in configs if "dynamics" in c.analyses]
    stats = iter(empirical_cost_stats(
        [(c.graph, c.cfgs, c.runs, c.master_seed) for c in dynamic])
        if dynamic else ())
    optima = {}
    rows = []
    for config in configs:
        no_stats = [None] * len(config.cfgs)
        rows += _experiment_rows(config, next(stats) if "dynamics" in
                                 config.analyses else no_stats, optima)
    return rows


def _experiment_rows(config: ExperimentConfig, stats: list,
                     optima: dict) -> list[dict]:
    """The CSV rows of one experiment, given its dynamics statistics (None
    per config without them) and the optima already computed, by (graph,
    k, p); a Graph hashes by identity and never changes."""
    g = config.graph
    cfgs = config.cfgs
    analyses = config.analyses
    log = sys.stdout if config.out else sys.stderr    # not into a CSV
    opt = None
    if {"optimum", "exact_efficiency", "stabilize"} & set(analyses):
        key = (g, config.k, config.p)
        if key not in optima:
            optima[key] = min_dominating_exact(g, config.k, p=config.p)
        opt = optima[key]
    reports = [None] * len(cfgs)
    if "exact_efficiency" in analyses:
        reports = exact_efficiency(g, cfgs, opt)
    if "export_lp" in analyses:    # the LP depends on the graph, k and p
        path = _side_path(config, None, ".lp")
        path.write_text(export_ilp(g, config.k, config.p))
        print(f"export_lp {config.dataset} k={config.k} -> {path}", file=log)
    rows = []
    for cfg, st, report in zip(cfgs, stats, reports):
        row = {c: "" for c in CSV_COLUMNS}
        row.update(dataset=config.dataset, n=g.n, edges=g.edge_count,
                   variant=cfg.variant, k=cfg.k, b=cfg.b, p=cfg.p,
                   runs=config.runs, seed=config.master_seed)
        if cfg.variant == SGG_AC:
            row["a"] = cfg.a
            row["xi"] = cfg.xi
        if "optimum" in analyses:
            row["opt_cost"] = opt.cost
            row["opt_proven"] = opt.proven_optimal
        if st is not None:
            row["mean_cost"] = st.mean_cost
            row["std_cost"] = st.std_cost
            row["min_cost"] = st.min_cost
            row["max_cost"] = st.max_cost
            row["mean_passes"] = st.mean_passes
        if report is not None:
            row["opt_cost"] = report.opt_cost
            row["poa_exact"] = report.poa
            row["pos_exact"] = report.pos
        if "stabilize" in analyses:
            # stabilize returns a certified equilibrium, so a profile in T.
            profile = stabilize(g, cfg, opt.owners)
            cost = cfg.p * len(game.owners(cfg, profile))
            path = _side_path(config, cfg.xi, ".stabilized.profile")
            path.write_text(game.serialize_profile(profile))
            print(f"stabilize {config.dataset} xi={cfg.xi}: "
                  f"cost={_fmt(cost)} -> {path}", file=log)
        rows.append(row)
    return rows


def _write_rows(rows: list[dict], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])


def write_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        _write_rows(rows, fh)


TABLE3_XI_GRID = (1, 2, 5, 10, 20)


def presets(name: str, runs: int = 1000,
            master_seed: int = 0) -> list[ExperimentConfig]:
    """Fully populated experiment configurations for the benchmark tables
    (p=1, b=2, 1000 runs; xi grid 1/2/5/10/20 at k=1; xi=6 for k in 2..4)."""
    def rows(specs, k, xi_grid):
        configs = []
        for spec in specs:
            g = netgraph.generate(spec)
            for variant, xis in ((SGG, None), (SGG_AC, tuple(xi_grid))):
                configs.append(ExperimentConfig(
                    spec.label, g, variant, k, xi_values=xis, runs=runs,
                    master_seed=master_seed))
        return configs

    if name == "table3_synthetic":
        specs = [FamilySpec("star", n=100), FamilySpec("chain", n=100),
                 FamilySpec("er_random", n=50, prob=0.1,
                            graph_seed=master_seed)]
        return rows(specs, 1, TABLE3_XI_GRID)
    if name == "table3_karate":
        return rows([FamilySpec("karate")], 1, TABLE3_XI_GRID)
    if name == "table4_karate":
        configs = []
        for k in (2, 3, 4):
            configs.extend(rows([FamilySpec("karate")], k, (6,)))
        return configs
    raise ConfigError(f"unknown preset {name!r}")


def parse_config_file(path) -> dict:
    """Flat "key = value" document; '#' comments; later keys win."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _int(key: str, value: str | None) -> int | None:
    """The value of key as an integer: ASCII digits after an optional '-'."""
    if value is None or value.removeprefix("-").isdigit() and value.isascii():
        return None if value is None else int(value)
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _float(key: str, value: str | None) -> float | None:
    """The value of key as a number: what float() reads, in ASCII and
    without '_'."""
    try:
        if value is None or value.isascii() and "_" not in value:
            return None if value is None else float(value)
    except ValueError:
        pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _build_graph_from_keys(values: dict) -> tuple[str, Graph]:
    params = {key: (_float if key == "prob" else _int)(key, values[key])
              for key in netgraph.PARAMS if key in values}
    if ("edge_list" in values) == ("family" in values):
        raise ConfigError("the graph needs either a family or an edge list")
    if "family" in values:
        spec = FamilySpec(values["family"], **params)
        g = netgraph.generate(spec)   # rejects specs the label cannot print
        return spec.label, g
    if params:
        raise ConfigError(f"an edge list takes no {next(iter(params))!r}")
    path = Path(values["edge_list"])
    return path.name, netgraph.load_edge_list(path.read_text())


# The config keys of the graph; each family flag stores into its key.
GRAPH_KEYS = ("edge_list", "family", *netgraph.PARAMS)


def config_from_values(values: dict) -> ExperimentConfig:
    unknown = set(values).difference(
        GRAPH_KEYS, "variant k b p a xi runs seed analyses out".split())
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    dataset, g = _build_graph_from_keys(values)
    variant = values.get("variant", SGG)
    xi_values = tuple(_int("xi", x.strip()) for x in
                      values["xi"].split(",")) if values.get("xi") else None
    analyses = tuple(a.strip() for a in
                     values.get("analyses", "optimum,dynamics").split(",")
                     if a.strip())
    return ExperimentConfig(
        dataset=dataset,
        graph=g,
        variant=variant,
        k=_int("k", values.get("k", "1")),
        b=_float("b", values.get("b", "2")),
        p=_float("p", values.get("p", "1")),
        a=_float("a", values.get("a") or None),
        xi_values=xi_values,
        runs=_int("runs", values.get("runs", "1000")),
        master_seed=_int("seed", values.get("seed", "0")),
        analyses=analyses,
        out=values.get("out"),
    )


def _add_family_flags(parser) -> None:
    parser.add_argument("--graph", dest="edge_list", help="edge-list file")
    parser.add_argument("--family", help=", ".join(netgraph.FAMILIES))
    for key in netgraph.PARAMS:
        users = [f for f, (_, params) in netgraph.FAMILIES.items()
                 if key in params]
        parser.add_argument("--" + key.replace("_", "-"),
                            help="for " + ", ".join(users))
    parser.add_argument("--k", default="1")
    parser.add_argument("--p", default="1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sharegoods",
        description="Shareable-goods games on networks: equilibria, "
                    "dynamics, and social inefficiency.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run experiments from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed")
    p_run.add_argument("--runs")
    p_run.add_argument("--xi")
    p_run.add_argument("--a")
    p_run.add_argument("--variant", choices=(SGG, SGG_AC))
    p_run.add_argument("--out")

    p_preset = sub.add_parser("preset", help="run a built-in table preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", required=True)
    p_preset.add_argument("--runs", default="1000")
    p_preset.add_argument("--seed", default="0")

    p_opt = sub.add_parser("optimum", help="exact minimum dominating set")
    _add_family_flags(p_opt)

    p_lp = sub.add_parser("export-lp", help="write the covering IP as an LP file")
    _add_family_flags(p_lp)
    p_lp.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            values = parse_config_file(args.config)
            for key in ("seed", "runs", "xi", "a", "variant", "out"):
                override = getattr(args, key)
                if override is not None:
                    values[key] = override
            config = config_from_values(values)
            rows = compute_row([config])
            if config.out:
                write_csv(rows, config.out)
                print(f"wrote {len(rows)} rows to {config.out}")
            else:
                _write_rows(rows, sys.stdout)
        elif args.command == "preset":
            configs = presets(args.name, _int("runs", args.runs),
                              _int("seed", args.seed))
            rows = compute_row(configs)
            write_csv(rows, args.out)
            print(f"wrote {len(rows)} rows to {args.out}")
        else:                    # optimum, export-lp
            k, p = _int("k", args.k), _float("p", args.p)
            game.check_k_p(k, p)
            label, g = _build_graph_from_keys(
                {key: value for key, value in vars(args).items()
                 if key in GRAPH_KEYS and value is not None})
            if args.command == "optimum":
                result = min_dominating_exact(g, k, p=p)
                status = "optimal" if result.proven_optimal else "incumbent"
                print(f"{label}: k={k} cost={_fmt(result.cost)} "
                      f"({status}) owners={sorted(result.owners)}")
            else:
                Path(args.out).write_text(export_ilp(g, k, p))
                print(f"wrote LP for {label} (k={k}) to {args.out}")
    # ConfigError and ParseError are ValueErrors; a RuntimeError is a solver
    # that gave up (dynamics, a stabilize repair, an equilibrium search).
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
