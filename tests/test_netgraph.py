import random

import pytest

from _oracles import ball_masks, disjoint_union, random_graph
from sharegoods import netgraph as ng
from sharegoods.netgraph import (ConfigError, FamilySpec, Graph, ParseError,
                                 connected_components, load_edge_list)


class TestLoadEdgeList:
    def test_basic(self):
        g = load_edge_list("0 1\n1 2")
        assert g.n == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_dedupe_and_remap(self):
        g = load_edge_list("5 7\n7 5\n# c")
        assert g.n == 2
        assert g.edges == frozenset({(0, 1)})

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list("3 3")

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list("0 1\n0 1 2")
        with pytest.raises(ParseError, match="line 3"):
            load_edge_list("0 1\n\n0 x")

    def test_tabs_and_comments(self):
        g = load_edge_list("# header\n0\t1\n1 2\n")
        assert g.n == 3 and g.edge_count == 2

    def test_remap_preserves_sorted_order(self):
        g = load_edge_list("30 10\n10 20")
        # original ids 10,20,30 -> 0,1,2
        assert g.edges == frozenset({(0, 2), (0, 1)})


class TestGenerators:
    def test_star(self):
        g = ng.star(100)
        assert g.n == 100 and g.edge_count == 99
        assert len(g.neighbors(0)) == 99

    def test_chain(self):
        g = ng.chain(4)
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_karate(self):
        g = ng.karate()
        assert g.n == 34 and g.edge_count == 78

    def test_complete(self):
        g = ng.complete(5)
        assert g.edge_count == 10

    def test_two_center_tree_small(self):
        g = ng.two_center_tree(k=1, m=2)
        assert g.n == 6
        assert (0, 1) in g.edges
        assert len(g.neighbors(0)) == 3 and len(g.neighbors(1)) == 3

    def test_center_arms_tree(self):
        g = ng.center_arms_tree(k=3, m=2)
        assert g.n == 7
        assert len(g.neighbors(0)) == 2
        # each arm is a path of length 3 hanging off the center
        comps = connected_components(g)
        assert len(comps) == 1

    def test_er_deterministic(self):
        a = ng.er_random(30, 0.2, seed=7)
        b = ng.er_random(30, 0.2, seed=7)
        assert a.edges == b.edges
        c = ng.er_random(30, 0.2, seed=8)
        assert a.edges != c.edges

    def test_generate_dispatch(self):
        g = ng.generate(FamilySpec("star", n=5))
        assert g.n == 5
        with pytest.raises(ConfigError):
            ng.generate(FamilySpec("nope"))
        with pytest.raises(ConfigError):
            ng.generate(FamilySpec("star"))
        with pytest.raises(ConfigError):
            ng.generate(FamilySpec("er_random", n=5, prob=1.5, seed=0))

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            ng.star(0)
        with pytest.raises(ConfigError):
            ng.two_center_tree(0, 1)


class TestKHop:
    def test_chain_center(self):
        g = ng.chain(5)
        assert set(g.closed_neighborhoods(2)[2]) == {0, 1, 2, 3, 4}

    def test_star_center(self):
        g = ng.star(100)
        assert set(g.closed_neighborhoods(1)[0]) == set(range(100))

    def test_isolated(self):
        g = Graph(3, [(0, 1)])
        assert set(g.closed_neighborhoods(5)[2]) == {2}

    def test_symmetry_and_monotonicity(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(2, 12)
            g = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < 0.3])
            for k in (1, 2):
                for i in range(n):
                    nb = set(g.closed_neighborhoods(k)[i])
                    assert i in nb
                    assert nb <= set(g.closed_neighborhoods(k + 1)[i])
                    for j in nb:
                        assert i in g.closed_neighborhoods(k)[j]


    def test_table_matches_ball_masks(self):
        rng = random.Random(3)
        for trial in range(120):
            g = disjoint_union(random_graph(rng, rng.randint(0, 25),
                                            rng.random() * 0.3),
                               isolated=rng.randint(0, 3))
            for k in range(5):
                table = g.closed_neighborhoods(k)
                expected = [tuple(j for j in range(g.n) if m >> j & 1)
                            for m in ball_masks(g, k)]
                assert list(table) == expected, (trial, k)


class TestComponents:
    def test_chain(self):
        assert connected_components(ng.chain(4)) == [[0, 1, 2, 3]]

    def test_no_edges(self):
        assert connected_components(Graph(3, [])) == [[0], [1], [2]]

    def test_two_triangles(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert connected_components(g) == [[0, 1, 2], [3, 4, 5]]


def test_graph_invariants():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.edge_count == 1
