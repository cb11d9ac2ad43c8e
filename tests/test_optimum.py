import random

from _oracles import disjoint_union, exhaustive_min_dominating, random_graph
from sharegoods import netgraph as ng
from sharegoods.game import is_distance_k_dominating
from sharegoods.optimum import (export_ilp, min_dominating_exact,
                                min_dominating_greedy)


class TestGreedy:
    def test_star(self):
        assert min_dominating_greedy(ng.star(100), 1) == {0}

    def test_chain6(self):
        s = min_dominating_greedy(ng.chain(6), 1)
        assert len(s) == 2
        assert is_distance_k_dominating(ng.chain(6), 1, s)

    def test_complete(self):
        assert len(min_dominating_greedy(ng.complete(9), 1)) == 1

    def test_always_dominating(self):
        rng = random.Random(1)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 20), rng.random() * 0.4)
            k = rng.randint(1, 3)
            assert is_distance_k_dominating(g, k, min_dominating_greedy(g, k))


class TestExact:
    def test_star(self):
        assert min_dominating_exact(ng.star(100), 1).cost == 1

    def test_chain100(self):
        r = min_dominating_exact(ng.chain(100), 1)
        assert r.cost == 34 and r.proven_optimal

    def test_karate_all_k(self):
        g = ng.karate()
        for k, expected in [(1, 4), (2, 2), (3, 1), (4, 1)]:
            r = min_dominating_exact(g, k)
            assert r.proven_optimal
            assert r.cost == expected

    def test_price_scaling(self):
        assert min_dominating_exact(ng.star(10), 1, p=2.5).cost == 2.5

    def test_matches_exhaustive(self):
        rng = random.Random(2)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 11), rng.random() * 0.5)
            for k in (1, 2, 3):
                r = min_dominating_exact(g, k)
                assert r.proven_optimal
                assert len(r.owners) == exhaustive_min_dominating(g, k)
                assert is_distance_k_dominating(g, k, r.owners)
                assert len(min_dominating_greedy(g, k)) >= len(r.owners)

    def test_budget_exceeded_returns_incumbent(self):
        g = ng.er_random(40, 0.1, seed=3)
        r = min_dominating_exact(g, 1, node_budget=2)
        assert not r.proven_optimal
        assert is_distance_k_dominating(g, 1, r.owners)

    def test_bound_families(self):
        for k in (1, 2, 3):
            for m in (1, 2, 3):
                assert min_dominating_exact(ng.two_center_tree(k, m), k).cost <= 2
                assert min_dominating_exact(ng.center_arms_tree(k, m), k).cost == 1
        for n in (3, 6, 9):
            assert min_dominating_exact(ng.complete(n), 1).cost == 1


class TestExactComponents:
    def test_matches_exhaustive_on_unions(self):
        rng = random.Random(41)
        for _ in range(15):
            parts = [random_graph(rng, rng.randint(1, 5), rng.random() * 0.6)
                     for _ in range(rng.randint(2, 3))]
            g = disjoint_union(*parts, isolated=rng.randint(0, 2))
            for k in (1, 2, 3, 4):
                r = min_dominating_exact(g, k)
                assert r.proven_optimal
                assert len(r.owners) == exhaustive_min_dominating(g, k)
                assert is_distance_k_dominating(g, k, r.owners)

    def test_two_copies_explore_twice_one(self):
        one = ng.er_random(30, 0.2, 5)
        a = min_dominating_exact(one, 1)
        b = min_dominating_exact(disjoint_union(one, one), 1)
        assert a.proven_optimal and b.proven_optimal
        assert b.cost == 2 * a.cost
        assert b.nodes_explored == 2 * a.nodes_explored

    def test_budget_shared_across_components(self):
        one = ng.er_random(30, 0.2, 5)
        g = disjoint_union(one, one, isolated=2)
        r = min_dominating_exact(g, 1, node_budget=3)
        assert not r.proven_optimal
        assert r.nodes_explored <= 4
        assert is_distance_k_dominating(g, 1, r.owners)
        assert r.cost == len(r.owners)


class TestExportIlp:
    def test_chain2(self):
        text = export_ilp(ng.chain(2), 1, 1)
        lines = text.splitlines()
        assert lines[0] == "Minimize"
        assert lines[1] == " obj: x0 + x1"
        assert lines[2] == "Subject To"
        assert lines[3] == " c0: x0 + x1 >= 1"
        assert lines[4] == " c1: x0 + x1 >= 1"
        assert lines[5] == "Binary"
        assert lines[6] == " x0 x1"
        assert lines[7] == "End"

    def test_star3_center_constraint(self):
        text = export_ilp(ng.star(3), 1)
        c0 = [l for l in text.splitlines() if l.startswith(" c0:")][0]
        assert c0.count("x") == 3

    def test_constraint_count(self):
        for g in (ng.star(7), ng.karate(), ng.chain(10)):
            text = export_ilp(g, 2)
            assert sum(1 for l in text.splitlines() if l.startswith(" c")) == g.n

    def test_price_in_objective(self):
        text = export_ilp(ng.chain(2), 1, p=2.5)
        assert " obj: 2.5 x0 + 2.5 x1" in text

    def test_deterministic(self):
        g = ng.er_random(12, 0.3, seed=9)
        assert export_ilp(g, 1) == export_ilp(g, 1)
