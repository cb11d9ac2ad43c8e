"""Acceptance suite: one test per criterion, each printing a pass line with
the measured values (run with `pytest -s tests/test_acceptance.py`)."""

import random

from _oracles import (brute_force_sgg_ne_owner_sets, brute_force_sggac_ne_exists,
                      exhaustive_min_dominating, is_k_independent_dominating,
                      is_nash, random_graph)
from sharegoods import game
from sharegoods import netgraph as ng
from sharegoods.dynamics import best_response_dynamics, stabilize
from sharegoods.equilibria import (empirical_cost_stats,
                                   enumerate_ne_owner_sets_sgg,
                                   sggac_owner_set_feasible,
                                   sggac_witness_profile)
from sharegoods.game import SGG, SGG_AC, GameConfig
from sharegoods.optimum import min_dominating_exact

KARATE = ng.karate()


def _mean(g, cfg, runs=1000, seed=0):
    return empirical_cost_stats([(g, [cfg], runs, seed)])[0][0].mean_cost


def test_criterion_1_exact_optima():
    checks = [
        (ng.star(100), 1, 1),
        (ng.chain(100), 1, 34),
        (KARATE, 1, 4),
        (KARATE, 2, 2),
        (KARATE, 3, 1),
        (KARATE, 4, 1),
    ]
    for g, k, expected in checks:
        result = min_dominating_exact(g, k)
        assert result.proven_optimal
        assert result.cost == expected
    print("ACCEPTANCE 1 exact optima (star/chain/karate k=1..4): PASS")


def test_criterion_2_table3_karate():
    targets = [
        (GameConfig(SGG, 1), 17.0, 1.0),
        (GameConfig(SGG_AC, 1, xi=1), 10.2, 1.0),
        (GameConfig(SGG_AC, 1, xi=2), 8.46, 1.0),
        (GameConfig(SGG_AC, 1, xi=10), 17.0, 1.5),
    ]
    measured = []
    for cfg, target, tol in targets:
        mean = _mean(KARATE, cfg)
        measured.append(round(mean, 2))
        assert abs(mean - target) <= tol, (cfg, mean, target)
    print(f"ACCEPTANCE 2 karate k=1 means {measured}: PASS")


def test_criterion_3_table3_chain():
    g = ng.chain(100)
    m_sgg = _mean(g, GameConfig(SGG, 1))
    m_ac = _mean(g, GameConfig(SGG_AC, 1, xi=2))
    assert abs(m_sgg - 43.5) <= 1.5
    assert abs(m_ac - 43.5) <= 1.5
    print(f"ACCEPTANCE 3 chain means sgg={m_sgg:.2f} ac_xi2={m_ac:.2f}: PASS")


def test_criterion_4_table3_star():
    g = ng.star(100)
    m_sgg = _mean(g, GameConfig(SGG, 1))
    m_ac = _mean(g, GameConfig(SGG_AC, 1, xi=1))
    assert 96.5 <= m_sgg <= 99.0
    assert m_ac < 10
    print(f"ACCEPTANCE 4 star means sgg={m_sgg:.2f} ac_xi1={m_ac:.2f}: PASS")


def test_criterion_5_table4_karate():
    targets = {2: (3.23, 3.23), 3: (1.76, 1.75), 4: (1.28, 1.26)}
    measured = {}
    for k, (t_sgg, t_ac) in targets.items():
        m_sgg = _mean(KARATE, GameConfig(SGG, k))
        m_ac = _mean(KARATE, GameConfig(SGG_AC, k, xi=6))
        measured[k] = (round(m_sgg, 2), round(m_ac, 2))
        assert abs(m_sgg - t_sgg) <= 0.5
        assert abs(m_ac - t_ac) <= 0.5
    print(f"ACCEPTANCE 5 karate k=2/3/4 means {measured}: PASS")


def test_criterion_6_convergence_and_deviation_cases():
    rng = random.Random(6)
    instances = 0
    while instances < 500:
        n = rng.randint(1, 60)
        g = random_graph(rng, n, rng.random() * min(1.0, 8.0 / max(n, 1)))
        k = rng.randint(1, 3)
        if instances % 2 == 0:
            cfg = GameConfig(SGG, k)
        else:
            cfg = GameConfig(SGG_AC, k, xi=rng.randint(1, 8))
        result = best_response_dynamics(g, cfg, rng.getrandbits(32))
        assert result.passes <= 3
        assert is_nash(g, cfg, result.profile)
        for pass_idx, cases in enumerate(result.case_counts, start=1):
            if pass_idx > 1:
                assert cases[2] == 0, "Case-3 deviation after pass 1"
            if pass_idx > 2:
                assert cases[3] == 0, "Case-4 deviation after pass 2"
        instances += 1
    print(f"ACCEPTANCE 6 convergence over {instances} instances: PASS")


def test_criterion_7_characterizations():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.random())
        k = rng.randint(1, 2)

        cfg = GameConfig(SGG, k)
        ne_owner_sets = brute_force_sgg_ne_owner_sets(g, cfg)
        for mask in range(1 << n):
            owner_set = frozenset(i for i in range(n) if (mask >> i) & 1)
            assert (owner_set in ne_owner_sets) == \
                is_k_independent_dominating(g, k, set(owner_set))

        xi = rng.randint(1, 3)
        cfg_ac = GameConfig(SGG_AC, k, xi=xi)
        for mask in range(1, 1 << n):
            owner_set = {i for i in range(n) if (mask >> i) & 1}
            assert sggac_owner_set_feasible(g, k, xi, owner_set) == \
                brute_force_sggac_ne_exists(g, cfg_ac, owner_set)
    print("ACCEPTANCE 7 NE characterizations on 200 graphs (n<=8): PASS")


def test_criterion_8_stabilize_bounds():
    rng = random.Random(8)
    small_xi_checked = 0
    while small_xi_checked < 100:
        n = rng.randint(2, 20)
        g = random_graph(rng, n, rng.random() * 0.6)
        k = rng.randint(1, 4)
        xi_cap = max(2 * (k // 2) + 1, 2)
        xi = rng.randint(1, xi_cap)
        cfg = GameConfig(SGG_AC, k, xi=xi)
        opt = min_dominating_exact(g, k)
        assert opt.proven_optimal
        s = stabilize(g, cfg, opt.owners)
        assert is_nash(g, cfg, s)
        assert game.social_cost(g, cfg, s) == cfg.p * len(opt.owners)
        small_xi_checked += 1
    for _ in range(100):
        n = rng.randint(2, 20)
        g = random_graph(rng, n, rng.random() * 0.6)
        k = rng.randint(1, 4)
        xi = rng.randint(max(2 * (k // 2) + 1, 2) + 1, 12)
        cfg = GameConfig(SGG_AC, k, xi=xi)
        opt = min_dominating_exact(g, k)
        s = stabilize(g, cfg, opt.owners)
        assert is_nash(g, cfg, s)
        bound = cfg.p * len(opt.owners) * max(1, xi // (k // 2 + 1))
        assert game.social_cost(g, cfg, s) <= bound
    print("ACCEPTANCE 8 stabilize PoS=1 (100 small-xi) and cost bound "
          "(100 large-xi): PASS")


def test_criterion_9_bound_families():
    for k in (1, 2):
        for m in (1, 2, 3):
            g = ng.two_center_tree(k, m)
            assert min_dominating_exact(g, k).cost <= 2
            for owner_set in enumerate_ne_owner_sets_sgg(g, k):
                assert len(owner_set) >= m

    for k in (1, 2, 3, 4):
        for m in (1, 2, 3, 4):
            g = ng.center_arms_tree(k, m)
            assert min_dominating_exact(g, k).cost == 1
            cfg = GameConfig(SGG_AC, k, xi=2)
            s = [-1] * g.n
            for arm in range(m):
                first = 1 + arm * k
                endpoint = first + k - 1
                for v in range(first, first + k):
                    s[v] = endpoint
                s[endpoint] = endpoint
            s[0] = k  # center follows the first arm's endpoint
            assert is_nash(g, cfg, s)
            assert game.social_cost(g, cfg, s) == m * cfg.p

    for m in (1, 2, 3):
        for xi in (1, 2, 3):
            g = ng.complete(m * (xi + 1))
            assert min_dominating_exact(g, 1).cost == 1
            owner_set = set(range(m))
            witness = sggac_witness_profile(g, 1, xi, owner_set)
            assert witness is not None
            cfg = GameConfig(SGG_AC, 1, xi=xi)
            assert is_nash(g, cfg, witness)
    print("ACCEPTANCE 9 worst-case families (two-center tree, center-arms "
          "tree, complete): PASS")


def test_criterion_10_solver_oracle():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        for k in (1, 2, 3):
            result = min_dominating_exact(g, k)
            assert result.proven_optimal
            assert len(result.owners) == exhaustive_min_dominating(g, k)
    print("ACCEPTANCE 10 solver matches enumeration on 200 graphs: PASS")
