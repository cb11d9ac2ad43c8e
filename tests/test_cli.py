import csv
import functools
import re
from pathlib import Path

import pytest

from _oracles import stabilized_start
from sharegoods import cli, equilibria, optimum
from sharegoods import netgraph as ng
from sharegoods.cli import (CSV_COLUMNS, KNOWN_ANALYSES, ExperimentConfig,
                            compute_row, config_from_values, main, presets,
                            write_csv)
from sharegoods.game import SGG, SGG_AC
from sharegoods.netgraph import ConfigError
from sharegoods.optimum import min_dominating_exact

SMALL = dict(runs=30, master_seed=4)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestPresets:
    def test_table3_karate_rows(self):
        configs = presets("table3_karate", runs=5)
        rows = compute_row(configs)
        assert len(rows) == 6  # SGG + five xi values
        assert [r["xi"] for r in rows] == ["", 1, 2, 5, 10, 20]

    def test_table4_karate_rows(self):
        configs = presets("table4_karate", runs=5)
        rows = compute_row(configs)
        assert len(rows) == 6
        assert sorted({r["k"] for r in rows}) == [2, 3, 4]
        assert {r["variant"] for r in rows} == {SGG, SGG_AC}

    def test_table3_synthetic_datasets(self):
        configs = presets("table3_synthetic", runs=5)
        names = {c.dataset for c in configs}
        assert "star(100)" in names and "chain(100)" in names
        assert any(n.startswith("er_random(50,0.1") for n in names)

    def test_unknown(self):
        with pytest.raises(ConfigError):
            presets("table9")

    def test_optimum_once_per_graph_and_k(self, tmp_path, monkeypatch):
        calls = []

        def counted(g, k, p=1.0):
            calls.append((g, k, p))
            return min_dominating_exact(g, k, p=p)
        monkeypatch.setattr(cli, "min_dominating_exact", counted)
        for name in ("table3_karate", "table4_karate"):
            main(["preset", name, "--runs", "2",
                  "--out", str(tmp_path / f"{name}.csv")])
        # 12 rows, 4 distinct (graph, k): karate at k=1, a karate per k=2..4.
        assert [k for _, k, _ in calls] == [1, 2, 3, 4]
        assert len({id(g) for g, _, _ in calls}) == 4


class TestRunExperiment:
    def test_row_schema(self):
        config = ExperimentConfig("karate", ng.karate(), SGG_AC, 1,
                                  xi_values=(1, 2), **SMALL)
        rows = compute_row([config])
        assert len(rows) == 2
        for row in rows:
            assert list(row) == CSV_COLUMNS
            assert row["opt_cost"] == 4.0
            assert row["opt_proven"] is True
            assert row["mean_passes"] <= 3

    def test_optimum_once_with_exact_efficiency(self, monkeypatch):
        """analyses = optimum,exact_efficiency computes the optimum once and
        hands it to the exact analysis."""
        calls = []

        def counted(g, k, p=1.0):
            calls.append((g, k, p))
            return min_dominating_exact(g, k, p=p)
        monkeypatch.setattr(cli, "min_dominating_exact", counted)
        monkeypatch.setattr(equilibria, "min_dominating_exact", counted)
        config = ExperimentConfig("chain(12)", ng.chain(12), SGG_AC, 1,
                                  xi_values=(1, 2, 5),
                                  analyses=("optimum", "exact_efficiency"),
                                  **SMALL)
        rows = compute_row([config])
        assert len(calls) == 1
        assert [(r["opt_cost"], r["opt_proven"]) for r in rows] == \
            [(4.0, True)] * 3

    def test_sgg_leaves_ac_columns_empty(self):
        config = ExperimentConfig("chain(10)", ng.chain(10), SGG, 1, **SMALL)
        row = compute_row([config])[0]
        assert row["a"] == "" and row["xi"] == ""

    def test_exact_efficiency_analysis(self):
        config = ExperimentConfig("star(8)", ng.star(8), SGG, 1,
                                  analyses=("exact_efficiency",), **SMALL)
        row = compute_row([config])[0]
        assert row["poa_exact"] == 7.0 and row["pos_exact"] == 1.0
        assert row["mean_cost"] == ""

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("x", ng.chain(3), SGG_AC, 1, **SMALL)
        with pytest.raises(ConfigError):
            ExperimentConfig("x", ng.chain(3), SGG, 1, xi_values=(1,), **SMALL)
        with pytest.raises(ConfigError):
            ExperimentConfig("x", ng.chain(3), SGG, 1, runs=0)
        with pytest.raises(ConfigError):
            ExperimentConfig("x", ng.chain(3), SGG, 1, analyses=("plot",),
                             **SMALL)
        with pytest.raises(ConfigError):
            ExperimentConfig("x", ng.chain(3), SGG, 1, analyses=(), **SMALL)
        with pytest.raises(ConfigError):
            ExperimentConfig("x", ng.chain(3), SGG_AC, 1, xi_values=(2, 2),
                             **SMALL)


class TestCsvOutput:
    def test_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            config = ExperimentConfig("karate", ng.karate(), SGG_AC, 1,
                                      xi_values=(2,), **SMALL)
            write_csv(compute_row([config]), out)
        assert out1.read_bytes() == out2.read_bytes()
        assert b"\r" not in out1.read_bytes()

    def test_header(self, tmp_path):
        out = tmp_path / "h.csv"
        config = ExperimentConfig("chain(5)", ng.chain(5), SGG, 1, **SMALL)
        write_csv(compute_row([config]), out)
        header = out.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)


class TestConfigFile:
    def test_parse_and_run(self, tmp_path):
        cfg_path = tmp_path / "exp.conf"
        out_path = tmp_path / "out.csv"
        cfg_path.write_text(
            "# experiment\n"
            "family = star\n"
            "n = 20\n"
            "variant = SGG-AC\n"
            "k = 1\n"
            "xi = 1,2\n"
            "runs = 10\n"
            "seed = 3\n"
            f"out = {out_path}\n")
        assert main(["run", str(cfg_path)]) == 0
        rows = read_rows(out_path)
        assert len(rows) == 2
        assert rows[0]["dataset"] == "star(20)"
        assert rows[0]["xi"] == "1" and rows[1]["xi"] == "2"

    def test_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "exp.conf"
        out_path = tmp_path / "o.csv"
        cfg_path.write_text("family = chain\nn = 10\nruns = 5\nseed = 1\n")
        assert main(["run", str(cfg_path), "--runs", "7",
                     "--out", str(out_path)]) == 0
        rows = read_rows(out_path)
        assert rows[0]["runs"] == "7"

    def test_edge_list_source(self, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n1 2\n2 3\n")
        values = {"edge_list": str(edges), "variant": "SGG", "runs": "5",
                  "seed": "0"}
        config = config_from_values(values)
        assert config.dataset == "g.edges"
        assert config.graph.n == 4

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.conf"
        cfg_path.write_text("family = unknown_family\n")
        assert main(["run", str(cfg_path)]) == 2
        assert "error:" in capsys.readouterr().err
        # Misspelt keys are rejected, not ignored.
        cfg_path.write_text("family = chain\nn = 6\n"
                            "anlyses = exact_efficiency\nrun = 3\n")
        assert main(["run", str(cfg_path)]) == 2
        assert capsys.readouterr().err == \
            "error: unknown config keys: ['anlyses', 'run']\n"
        # Integers are ASCII decimal digits with an optional leading '-',
        # and numbers what float() reads in ASCII without '_', in the file
        # and in the run overrides alike.
        base = "family = chain\nn = 6\nruns = 2\nvariant = SGG-AC\nxi = 1\n"
        for line, flags, err in [
                ("xi = 1_0\n", [], "xi must be an integer, got '1_0'"),
                ("xi = 1, ٣\n", [], "xi must be an integer, got '٣'"),
                ("k = ٣\n", [], "k must be an integer, got '٣'"),
                ("runs = +2\n", [], "runs must be an integer, got '+2'"),
                ("seed = 0x1\n", [], "seed must be an integer, got '0x1'"),
                ("n = 6.0\n", [], "n must be an integer, got '6.0'"),
                ("family = center_arms_tree\narm_len = 2\nm = ²\n", [],
                 "m must be an integer, got '²'"),
                ("family = er_random\nprob = 0.5\ngraph_seed = --1\n", [],
                 "graph_seed must be an integer, got '--1'"),
                ("family = two_center_tree\nm = 2\narm_len = 1_0\n", [],
                 "arm_len must be an integer, got '1_0'"),
                ("", ["--seed", "1_0"], "seed must be an integer, got '1_0'"),
                ("", ["--runs", "٣"], "runs must be an integer, got '٣'"),
                ("", ["--xi", "2,1_0"], "xi must be an integer, got '1_0'"),
                ("b = 1_0\n", [], "b must be a number, got '1_0'"),
                ("p = ٢\n", [], "p must be a number, got '٢'"),
                ("family = er_random\nprob = ٠.٥\n", [],
                 "prob must be a number, got '٠.٥'"),
                ("", ["--a", "1_0"], "a must be a number, got '1_0'"),
                # A price or benefit must also be finite.
                ("b = inf\n", [],
                 "benefit b must be finite and exceed price p"),
                ("b = 1e400\n", [],
                 "benefit b must be finite and exceed price p"),
                ("p = inf\nb = inf\n", [],
                 "price p must be positive and finite"),
                # Each run needs an analysis, and each xi one row.
                ("analyses =\n", [],
                 "analyses must name at least one analysis"),
                ("analyses = ,\n", [],
                 "analyses must name at least one analysis"),
                ("xi = 2,2\n", [], "xi values must be distinct"),
                ("xi = 1,2,01\n", [], "xi values must be distinct"),
                ("", ["--xi", "2,2"], "xi values must be distinct")]:
            cfg_path.write_text(base + line)
            assert main(["run", str(cfg_path), *flags]) == 2
            assert capsys.readouterr().err == f"error: {err}\n"


class TestErrors:
    """Failures end as one `error:` line on stderr and exit code 2."""

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("variant", ["variant = SGG\n",
                                         "variant = SGG-AC\nxi = 1\n"])
    def test_exact_efficiency_empty_graph(self, tmp_path, capsys, variant):
        edges = tmp_path / "empty.edges"
        edges.write_text("# no edges\n")
        cfg_path = tmp_path / "empty.conf"
        cfg_path.write_text(f"edge_list = {edges}\n{variant}"
                            "analyses = exact_efficiency\n")
        assert main(["run", str(cfg_path)]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("exc", [
        RuntimeError("dynamics did not converge within 3 passes"),
        RecursionError("maximum recursion depth exceeded"),
    ])
    def test_solver_runtime_error(self, tmp_path, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "empirical_cost_stats", fail)
        cfg_path = tmp_path / "exp.conf"
        cfg_path.write_text("family = chain\nn = 5\nruns = 2\n")
        assert main(["run", str(cfg_path)]) == 2
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("graph", ["empty", "chain(1)"])
    @pytest.mark.parametrize("variant", ["variant = SGG\n",
                                         "variant = SGG-AC\nxi = 1,2\n"])
    @pytest.mark.parametrize("analysis", KNOWN_ANALYSES)
    def test_tiny_graphs(self, graph, variant, analysis, tmp_path, capsys):
        """Every analysis under each variant on an empty edge list (n = 0)
        and on chain(1) writes its rows, except exact_efficiency on n = 0
        and stabilize under SGG, which end in one error line."""
        if graph == "empty":
            edges = tmp_path / "empty.edges"
            edges.write_text("# no edges\n")
            source = f"edge_list = {edges}\n"
        else:
            source = "family = chain\nn = 1\n"
        out = tmp_path / "out.csv"
        cfg_path = tmp_path / "exp.conf"
        cfg_path.write_text(source + variant + f"analyses = {analysis}\n"
                            f"runs = 3\nout = {out}\n")
        code = main(["run", str(cfg_path)])
        fails = ((analysis, graph) == ("exact_efficiency", "empty")
                 or (analysis, variant) == ("stabilize", "variant = SGG\n"))
        assert code == (2 if fails else 0)
        if fails:
            self.assert_one_error_line(capsys)
        else:
            assert capsys.readouterr().err == ""
            assert len(read_rows(out)) == (1 if "xi" not in variant else 2)

    def test_equilibrium_search_budget(self, tmp_path, capsys, monkeypatch):
        """An equilibrium search that runs out of nodes writes no CSV and
        ends in one error line naming the nodes searched."""
        monkeypatch.setattr(optimum, "NODE_BUDGET", 100)
        out = tmp_path / "out.csv"
        cfg_path = tmp_path / "exp.conf"
        cfg_path.write_text("family = karate\nanalyses = exact_efficiency\n"
                            f"out = {out}\n")
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "100 nodes searched" in err
        assert not out.exists()

    def test_smallest_side_budget(self, tmp_path, capsys, monkeypatch):
        """SGG on er_random(50, 0.1, 0) at k = 1: the optimum (630 nodes)
        and the largest side (1,071) fit 2,000 nodes, and the smallest
        side (3,380) does not. Its branch and bound ends the run in one
        error line naming the nodes searched."""
        g = ng.er_random(50, 0.1, 0)
        monkeypatch.setattr(optimum, "NODE_BUDGET", 2000)
        assert min_dominating_exact(g, 1).proven_optimal
        start = stabilized_start(g, 1, g.n)
        assert optimum._by_component(g, 1, functools.partial(
            equilibria._largest_search, g.n), start)[1] == 1071
        out = tmp_path / "out.csv"
        cfg_path = tmp_path / "exp.conf"
        cfg_path.write_text("family = er_random\nn = 50\nprob = 0.1\n"
                            "graph_seed = 0\nanalyses = exact_efficiency\n"
                            f"out = {out}\n")
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: the smallest equilibrium search (SGG) stopped "
                       "after 2000 nodes searched (its budget)\n")
        assert not out.exists()

    def test_unproven_optimum(self, tmp_path, capsys, monkeypatch):
        """An optimum that ran out of nodes gives no exact PoA/PoS: the
        run ends in one error line and writes no CSV."""
        monkeypatch.setattr(optimum, "NODE_BUDGET", 0)
        out = tmp_path / "out.csv"
        cfg_path = tmp_path / "exp.conf"
        cfg_path.write_text("family = karate\nanalyses = exact_efficiency\n"
                            f"out = {out}\n")
        assert main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "proven optimum" in err
        assert not out.exists()

    def test_stabilize_failure(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("stabilize repair loop failed to terminate")
        monkeypatch.setattr(cli, "stabilize", fail)
        cfg_path = tmp_path / "exp.conf"
        cfg_path.write_text("family = star\nn = 6\nvariant = SGG-AC\n"
                            "xi = 2\nanalyses = optimum,stabilize\n"
                            f"out = {tmp_path / 'out.csv'}\n")
        assert main(["run", str(cfg_path)]) == 2
        self.assert_one_error_line(capsys)


# Each family's own flags with a valid value, and the keys a config file
# spells them with.
FAMILY_FLAGS = {
    "star": {"--n": "6"},
    "chain": {"--n": "6"},
    "complete": {"--n": "4"},
    "er_random": {"--n": "6", "--prob": "0.4", "--graph-seed": "1"},
    "two_center_tree": {"--arm-len": "1", "--m": "2"},
    "center_arms_tree": {"--arm-len": "1", "--m": "2"},
    "karate": {},
}
CONFIG_KEYS = {"--n": "n", "--prob": "prob", "--graph-seed": "graph_seed",
               "--arm-len": "arm_len", "--m": "m", "--k": "k", "--p": "p"}
# (flag, value) pairs that are valid input; None stands for a missing flag.
VALID = {("--k", None), ("--p", None), ("--prob", "0"),
         ("--graph-seed", "0"), ("--graph-seed", "-1")}

# Bad values of each game key of a `run` config; p is 1 unless overridden.
BAD_GAME_KEYS = [
    *(("variant", v) for v in ("foo", "sgg", "")),
    *((key, v) for key in ("k", "b", "p") for v in ("0", "-1", "x")),
    *(("a", v) for v in ("0", "1", "0.5")),
    *((key, v) for key in ("b", "p", "a") for v in ("1_0", "٢")),
    *(("xi", v) for v in ("0", "-1", "x", "1,,2")),
]


def bad_flag_cases():
    """Every family with each of its flags, --k and --p missing, zero,
    negative, infinite, non-numeric, with a '_' or in non-ASCII digits, the
    others valid."""
    for family, flags in FAMILY_FLAGS.items():
        for flag in (*flags, "--k", "--p"):
            for value in (None, "0", "-1", "inf", "x", "1_0", "١"):
                values = {**flags, "--k": "2", "--p": "1"}
                if value is None:
                    del values[flag]
                else:
                    values[flag] = value
                yield family, flag, value, values


class TestBadInput:
    """Bad input exits 2 with an `error:` line, never a traceback."""

    @staticmethod
    def exit_code(argv):
        try:
            return main(argv)
        except SystemExit as exc:        # argparse rejects a flag
            return exc.code

    @pytest.mark.parametrize("command", ["optimum", "export-lp", "run"])
    def test_family_flags(self, command, tmp_path, capsys):
        for family, flag, value, values in bad_flag_cases():
            if command == "run":
                cfg = tmp_path / "exp.cfg"
                cfg.write_text(f"family = {family}\nruns = 2\n" + "".join(
                    f"{CONFIG_KEYS[f]} = {v}\n" for f, v in values.items()))
                argv = ["run", str(cfg)]
            else:
                argv = [command, "--family", family]
                for f, v in values.items():
                    argv += [f, v]
                if command == "export-lp":
                    argv += ["--out", str(tmp_path / "g.lp")]
            code = self.exit_code(argv)
            err = capsys.readouterr().err
            case = (command, family, flag, value)
            assert code == (0 if (flag, value) in VALID else 2), case
            assert "Traceback" not in err, case
            assert err.count("error:") == (code == 2), case

    @pytest.mark.parametrize("variant", [SGG, SGG_AC])
    @pytest.mark.parametrize("key,value", [(None, None), *BAD_GAME_KEYS])
    def test_game_keys(self, variant, key, value, tmp_path, capsys):
        """A bad game key in a `run` config, under a variant given xi = 2
        for SGG-AC (a replaces xi; a bad variant is tried with and without
        xi). (None, None) is the valid config."""
        values = {"variant": variant}
        if variant == SGG_AC and key != "a":
            values["xi"] = "2"
        if key is not None:
            values[key] = value
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("family = star\nn = 6\nruns = 2\n" + "".join(
            f"{k} = {v}\n" for k, v in values.items()))
        code = main(["run", str(cfg)])
        err = capsys.readouterr().err
        assert code == (0 if key is None else 2)
        assert "Traceback" not in err
        assert err.count("error:") == err.count("\n") == (code == 2)

    def test_float_overflow_and_underflow(self, tmp_path, capsys):
        """Formerly an OverflowError traceback (the first two), a CSV row
        with a = 0 or a = p (the next two) or one whose p/a is an integer,
        not strictly between xi and xi + 1 (the last three)."""
        cfg = tmp_path / "exp.cfg"
        for keys, message in [
                ("a = 1e-320", "access cost a is too small: p/a overflows"),
                (f"xi = {'9' * 321}",
                 "xi must be between 1 and the largest float"),
                ("p = 5e-324\nb = 1\nxi = 3",
                 "access cost a = 0.0 breaks 0 < a < p"),
                ("p = 5e-324\nb = 1\nxi = 1",
                 "access cost a = 5e-324 breaks 0 < a < p")] + [
                (f"xi = {xi}", f"xi = {xi} is too large")
                for xi in (2 ** 52 - 1, 2 ** 52, 10 ** 20)]:
            cfg.write_text("family = star\nn = 6\nruns = 2\n"
                           f"variant = SGG-AC\n{keys}\n")
            code = main(["run", str(cfg), "--out", str(tmp_path / "t.csv")])
            err = capsys.readouterr().err
            assert code == 2, keys
            assert err.startswith(f"error: {message}") and \
                err.count("\n") == 1, keys
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("flag", ["--runs", "--seed"])
    @pytest.mark.parametrize("value", ["0", "-1", "x", "1_0"])
    def test_preset_flags(self, flag, value, tmp_path, capsys):
        argv = ["preset", "table4_karate", "--runs", "2",
                "--out", str(tmp_path / "t.csv"), flag, value]
        code = self.exit_code(argv)
        assert code == (0 if flag == "--seed" and value in ("0", "-1") else 2)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (code == 0) == ("error:" not in err)

    def test_stabilize_under_sgg(self, tmp_path, capsys, monkeypatch):
        """Formerly computed the optimum and then wrote nothing."""
        monkeypatch.setattr(cli, "min_dominating_exact", None)
        edges = tmp_path / "empty.edges"
        edges.write_text("# no edges\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"edge_list = {edges}\nvariant = SGG\n"
                       f"analyses = stabilize\nout = {tmp_path / 'o.csv'}\n")
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == \
            "error: stabilize applies only to SGG-AC\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["empty.edges", "exp.cfg"]

    def test_er_random_without_prob(self, tmp_path, capsys):
        """Formerly a TypeError from labelling the graph before building it."""
        family = ["--family", "er_random", "--n", "5", "--graph-seed", "1"]
        assert main(["optimum", *family]) == 2
        assert main(["export-lp", *family, "--out", str(tmp_path / "g.lp")]) == 2
        assert capsys.readouterr().err == \
            "error: family 'er_random' requires 'prob'\n" * 2


# The dataset label of each family built from its FAMILY_FLAGS.
LABELS = {
    "star": "star(6)",
    "chain": "chain(6)",
    "complete": "complete(4)",
    "er_random": "er_random(6,0.4)",
    "two_center_tree": "two_center_tree(1,2)",
    "center_arms_tree": "center_arms_tree(1,2)",
    "karate": "karate",
}


class TestFamilyTable:
    """Every family of `netgraph.FAMILIES`, through a `run` config and the
    `optimum` flags: built from exactly its keys it gives its label, and a
    missing key or one it does not take ends in one `error:` line naming
    the config key, with exit 2."""

    @staticmethod
    def run(command, keys, tmp_path, capsys):
        """Exit code, stdout and stderr of `command` given the graph keys,
        as config keys under `run` and as their flags under `optimum`."""
        if command == "run":
            cfg = tmp_path / "exp.cfg"
            cfg.write_text("analyses = optimum\nruns = 1\n" + "".join(
                f"{key} = {value}\n" for key, value in keys.items()))
            argv = ["run", str(cfg)]
        else:
            argv = ["optimum"]
            for key, value in keys.items():
                flag = "graph" if key == "edge_list" else key
                argv += ["--" + flag.replace("_", "-"), value]
        code = main(argv)
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert err.count("\n") == err.count("error:") == (code == 2)
        return code, out, err

    @pytest.mark.parametrize("command", ["run", "optimum"])
    @pytest.mark.parametrize("family", ng.FAMILIES)
    def test_keys(self, family, command, tmp_path, capsys):
        valid = {CONFIG_KEYS[f]: v for flags in FAMILY_FLAGS.values()
                 for f, v in flags.items()}
        keys = {CONFIG_KEYS[f]: v for f, v in FAMILY_FLAGS[family].items()}
        _, params = ng.FAMILIES[family]
        assert sorted(keys) == sorted(params)
        code, out, _ = self.run(command, {"family": family, **keys},
                                tmp_path, capsys)
        assert code == 0
        if command == "run":
            row, = csv.DictReader(out.splitlines())
            assert row["dataset"] == LABELS[family]
        else:
            assert out.startswith(f"{LABELS[family]}: k=1 ")
        for key in params:
            missing = {k: v for k, v in keys.items() if k != key}
            code, _, err = self.run(command, {"family": family, **missing},
                                    tmp_path, capsys)
            assert (code, err) == \
                (2, f"error: family {family!r} requires {key!r}\n")
        for key in ng.PARAMS:
            if key not in params:
                extra = {**keys, key: valid[key]}
                code, _, err = self.run(command, {"family": family, **extra},
                                        tmp_path, capsys)
                assert (code, err) == \
                    (2, f"error: family {family!r} takes no {key!r}\n")

    @pytest.mark.parametrize("command", ["run", "optimum"])
    def test_edge_list_or_family(self, command, tmp_path, capsys):
        """The graph is exactly one of an edge list and a family, and an
        edge list takes no family keys."""
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n1 2\n")
        either = "error: the graph needs either a family or an edge list\n"
        for keys, err in [
                ({"edge_list": str(edges), "family": "karate"}, either),
                ({"edge_list": str(edges), "family": "chain", "n": "3"},
                 either),
                ({}, either),
                ({"edge_list": str(edges), "n": "3"},
                 "error: an edge list takes no 'n'\n")]:
            code, _, printed = self.run(command, keys, tmp_path, capsys)
            assert (code, printed) == (2, err)
        assert self.run(command, {"edge_list": str(edges)},
                        tmp_path, capsys)[0] == 0


class TestSubcommands:
    @pytest.mark.parametrize("family", [*FAMILY_FLAGS, None])
    def test_optimum_flags_match_config_keys(self, family, tmp_path, capsys,
                                             monkeypatch):
        """`optimum` given the family flags (or None: --graph with an edge
        list) prints the line `run` gives for the config keys the flags
        stand for, with analyses = optimum: label, cost and owners."""
        owners = []

        def recorded(g, k, p=1.0):
            result = min_dominating_exact(g, k, p=p)
            owners.append(sorted(result.owners))
            return result
        monkeypatch.setattr(cli, "min_dominating_exact", recorded)
        if family is None:
            edges = tmp_path / "g.edges"
            edges.write_text("10 20\n20 30\n30 40\n40 50\n50 60\n")
            flags = {"--graph": str(edges)}
        else:
            flags = {"--family": family, **FAMILY_FLAGS[family]}
        flags.update({"--k": "2", "--p": "1.5"})
        keys = {**CONFIG_KEYS, "--graph": "edge_list", "--family": "family"}
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("analyses = optimum\nruns = 1\n" + "".join(
            f"{keys[f]} = {v}\n" for f, v in flags.items()))

        assert main(["optimum", *(x for f in flags.items() for x in f)]) == 0
        printed = capsys.readouterr().out
        assert main(["run", str(cfg)]) == 0
        row, = csv.DictReader(capsys.readouterr().out.splitlines())
        status = "optimal" if row["opt_proven"] == "true" else "incumbent"
        assert printed == (f"{row['dataset']}: k={row['k']} "
                           f"cost={row['opt_cost']} ({status}) "
                           f"owners={owners[1]}\n")

    def test_optimum_family(self, capsys):
        assert main(["optimum", "--family", "star", "--n", "50", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "cost=1" in out and "optimal" in out

    def test_export_lp(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("0 1\n")
        out = tmp_path / "g.lp"
        assert main(["export-lp", "--graph", str(edges), "--k", "1",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("Minimize") and text.rstrip().endswith("End")

    def test_export_lp_once_per_experiment(self, tmp_path, capsys):
        """An SGG-AC xi grid writes one LP, with the bytes `export-lp`
        writes for the same graph keys, k and p."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("family = er_random\nn = 12\nprob = 0.3\n"
                       "graph_seed = 2\nvariant = SGG-AC\nxi = 1,2,5\n"
                       "k = 2\np = 1.5\nanalyses = export_lp\n"
                       f"out = {tmp_path / 'exp.csv'}\n")
        assert main(["run", str(cfg)]) == 0
        lp, = tmp_path.glob("*.lp")
        assert lp.name == "exp_er_random_12_0.3__sggac_k2.lp"
        direct = tmp_path / "direct.lp"
        assert main(["export-lp", "--family", "er_random", "--n", "12",
                     "--prob", "0.3", "--graph-seed", "2", "--k", "2",
                     "--p", "1.5", "--out", str(direct)]) == 0
        assert lp.read_bytes() == direct.read_bytes()

    def test_export_lp_without_out(self, tmp_path, capsys, monkeypatch):
        """With no `out`, the LP is named after the dataset label alone."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("family = er_random\nn = 8\nprob = 0.3\n"
                       "graph_seed = 1\nanalyses = export_lp\n")
        assert main(["run", str(cfg)]) == 0
        assert [p.name for p in tmp_path.glob("*.lp")] == \
            ["er_random_8_0.3__sgg_k1.lp"]

    def test_status_lines_without_out(self, tmp_path, capsys, monkeypatch):
        """With no `out` the rows go to stdout, so the export_lp and
        stabilize lines go to stderr and stdout is the CSV alone, one row
        per xi; with `out` they stay on stdout. A failing run still ends
        in one error line."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "exp.cfg"
        text = ("family = star\nn = 6\nvariant = SGG-AC\nxi = 1,2\n"
                "analyses = optimum,stabilize,export_lp\n")
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 0
        out, err = capsys.readouterr()
        reader = csv.DictReader(out.splitlines())
        assert [row["xi"] for row in reader] == ["1", "2"]
        assert reader.fieldnames == list(CSV_COLUMNS)
        status = ["export_lp", "stabilize", "stabilize"]
        assert [line.split()[0] for line in err.splitlines()] == status
        cfg.write_text(text + f"out = {tmp_path / 'o.csv'}\n")
        assert main(["run", str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert [line.split()[0] for line in out.splitlines()] == \
            status + ["wrote"]
        assert err == "" and len(read_rows(tmp_path / "o.csv")) == 2

        def fail(*args, **kwargs):
            raise RuntimeError("stabilize repair loop failed to terminate")
        monkeypatch.setattr(cli, "stabilize", fail)
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 2
        out, err = capsys.readouterr()
        first, *rest = err.splitlines()
        assert out == "" and first.startswith("export_lp ")
        assert rest == ["error: stabilize repair loop failed to terminate"]

    @pytest.mark.parametrize("command", ["run", "preset", "optimum",
                                         "export-lp"])
    def test_flags_documented(self, command, capsys):
        """Every flag a subcommand's help prints, other than --help, and
        every config key appear in README's CLI section, so that no option
        goes undocumented."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text().split("\n## CLI\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert "--help" in flags and len(flags) > 1
        for flag in flags - {"--help"}:
            assert re.search(rf"(?<![\w-]){flag}(?![\w-])", section), flag
        for key in cli.CONFIG_KEYS:
            assert f"`{key}`" in section, key

    def test_preset_subcommand(self, tmp_path):
        out = tmp_path / "t4.csv"
        assert main(["preset", "table4_karate", "--out", str(out),
                     "--runs", "3", "--seed", "0"]) == 0
        assert len(read_rows(out)) == 6

    def test_stabilize_analysis(self, tmp_path):
        out = tmp_path / "s.csv"
        config = ExperimentConfig("star(12)", ng.star(12), SGG_AC, 1,
                                  xi_values=(2,),
                                  analyses=("optimum", "stabilize"),
                                  out=str(out), **SMALL)
        rows = compute_row([config])
        assert rows[0]["opt_cost"] == 1.0
        produced = list(out.parent.glob("*.stabilized.profile"))
        assert len(produced) == 1
