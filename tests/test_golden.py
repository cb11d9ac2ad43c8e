"""Golden output: sha256 digests of CLI output at small run counts, and
of the three presets at the paper's 1000 runs.

The Monte-Carlo rows depend on the exact sequence of RNG calls in the
dynamics, so a refactor that reorders or adds a draw changes these bytes
even when every statistical acceptance test still passes. A digest that
changes on purpose must be re-pinned together with the change that moves
it, with the reason recorded.
"""

import hashlib
import random

import pytest

from sharegoods.cli import main

PRESET_DIGESTS = {
    "table3_karate":
        "b34b726749161d6eee360576d5d3ebddda61438b57e18107a2db0dee0aa12664",
    "table4_karate":
        "b2258a03041312b19ac0cbb32df2f28d27c6f488facaf6e575fb07d21ea1d2c5",
    "table3_synthetic":
        "ca4825ed7987a1856ade53853c917c52c3f2d229eb63763ce1d191a4e96b3783",
}

# `preset table3_synthetic --runs 1000 --seed 0`, the CSV the benchmark
# pins: 2,185 of its 3,000 SGG-AC runs split their xi group at least once.
FULL_SIZE_DIGEST = \
    "504d66e3a0267fd90e4a4411384c05b77582cb49b5bd3542e445d33dd1439f1c"

# The karate presets at `--runs 1000 --seed 0`, as the benchmark pins them:
# commands of two and six experiments whose seed blocks are dealt together.
FULL_SIZE_KARATE_DIGESTS = {
    "table3_karate":
        "b143786840aaf8166a8a3a4c12a37038bd99d146ea3c1ad04d3cd44f39b71d87",
    "table4_karate":
        "0c37c0f8a4e7e1eb435dd0bc7f48230ac7c5c9f08b3857dd6fde2b64ed73fbab",
}

# Karate, SGG-AC, k=1, xi=5: the repair turns optimum owner 5 into a
# renter and promotes 16, so the profile pins the repair loop too.
STABILIZE_CONFIG = """\
family   = karate
variant  = SGG-AC
k        = 1
xi       = 5
analyses = optimum,stabilize
"""
STABILIZE_PROFILE_DIGEST = \
    "25e9a3871399342dd66e229af685587f1fd4f39e866ec6fc07d9722feba2cf1c"

# The same repair at the other xi of the paper's grid: xi=2 and xi=10
# repair to xi=5's profile, xi=1 and xi=20 to profiles of their own.
STABILIZE_GRID_DIGESTS = {
    1: "32d88616b45bf47328db2aea0dbc82631f3413764eeeca6632987af0479cc0c2",
    2: STABILIZE_PROFILE_DIGEST,
    10: STABILIZE_PROFILE_DIGEST,
    20: "f6a9b936b02725bc19436d40c654308c8298b1e27e2d674b78be20c000a8f4f0",
}

EXACT_CONFIG = """\
family     = er_random
n          = 12
prob       = 0.3
graph_seed = 1
variant    = SGG-AC
k          = 1
xi         = 1,2,3
analyses   = exact_efficiency
"""
EXACT_CSV_DIGEST = \
    "937bdde207fde753b65dd9043af7818eb6713a57d0b2d6e593294dda7f76fa23"

# A 2,000-node edge list with sparse ids up to 1e9 in no order, reversed
# and repeated edges: the loader's id order fixes the balls, so the start
# draws and the node order of every run. Keyed by the game's config lines.
EDGE_LIST_RUNS = {
    "variant = SGG-AC\nk = 1\nxi = 1,2,5\n":
        "9ddd9324f0e58087e2e3745dfd0a670c313b4c87b35bf41b394c504357922a14",
    "variant = SGG\nk = 2\n":
        "d630422ca2af904d47e93740bc92d007dde15d4ef0c1d4914ad065a5b460c514",
}


def sparse_edge_list() -> str:
    rng = random.Random(15)
    n = 2000
    ids = rng.sample(range(10**9), n)
    edges = list(zip(ids, ids[1:]))            # every id on some edge
    while len(edges) < 3 * n:
        edges.append(tuple(rng.sample(ids, 2)))
    edges += [(v, u) for u, v in rng.sample(edges, n // 4)]
    edges += rng.sample(edges, n // 4)
    rng.shuffle(edges)
    return "".join(f"{u} {v}\n" for u, v in edges)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_csv(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(["preset", name, "--runs", "20", "--seed", "0",
                 "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == PRESET_DIGESTS[name]


def test_full_size_table3_synthetic(tmp_path):
    out = tmp_path / "table3_synthetic.csv"
    assert main(["preset", "table3_synthetic", "--runs", "1000", "--seed",
                 "0", "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == FULL_SIZE_DIGEST


@pytest.mark.parametrize("name", sorted(FULL_SIZE_KARATE_DIGESTS))
def test_full_size_karate(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(["preset", name, "--runs", "1000", "--seed", "0",
                 "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == FULL_SIZE_KARATE_DIGESTS[name]


def stabilized_profile(tmp_path, xi: int) -> bytes:
    cfg = tmp_path / "stab.cfg"
    cfg.write_text(STABILIZE_CONFIG +      # a later key wins
                   f"xi = {xi}\nout = {tmp_path / 'stab.csv'}\n")
    assert main(["run", str(cfg)]) == 0
    name = f"stab_karate_sggac_xi{xi}_k1.stabilized.profile"
    return (tmp_path / name).read_bytes()


def test_stabilize_profile(tmp_path):
    assert sha256(stabilized_profile(tmp_path, 5)) == STABILIZE_PROFILE_DIGEST


@pytest.mark.parametrize("xi", sorted(STABILIZE_GRID_DIGESTS))
def test_stabilize_profile_xi_grid(tmp_path, xi):
    assert sha256(stabilized_profile(tmp_path, xi)) == \
        STABILIZE_GRID_DIGESTS[xi]


def test_exact_efficiency_csv(tmp_path, capsys):
    cfg = tmp_path / "exact.cfg"
    cfg.write_text(EXACT_CONFIG)
    assert main(["run", str(cfg)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == EXACT_CSV_DIGEST
    out = tmp_path / "exact.csv"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == EXACT_CSV_DIGEST


@pytest.mark.parametrize("game", sorted(EDGE_LIST_RUNS))
def test_edge_list_run(tmp_path, capsys, game):
    graph = tmp_path / "sparse.txt"
    graph.write_text(sparse_edge_list())
    cfg = tmp_path / "sparse.cfg"
    cfg.write_text(f"edge_list = {graph}\n{game}runs = 5\n"
                   "analyses = dynamics\n")
    assert main(["run", str(cfg)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == EDGE_LIST_RUNS[game]
