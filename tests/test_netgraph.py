import random
import time
import tracemalloc

import pytest

from _oracles import (ball_masks, component_masks, disjoint_union,
                      random_graph, reference_load_edge_list)
from sharegoods import netgraph as ng
from sharegoods.netgraph import (ConfigError, FamilySpec, Graph, ParseError,
                                 connected_components, load_edge_list)
from sharegoods.optimum import min_dominating_greedy


# Whitespace that `str.split` and `str.strip` both treat as blank, and
# line breaks that `str.splitlines` splits on.
BLANKS = (" ", "\t", "  ", " \t", "\xa0", "\u3000")
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
          "\x85", "\u2028", "\u2029")
BAD_LINES = ("1 2 3", "4 x", "-3 4", "7 7", "1_0 2", "+1 2", "\u0661 2")


def document_lines(rng: random.Random) -> list[str]:
    """Edge-list lines over sparse or dense ids, some written with leading
    zeros, with repeated and reversed edges, comments and blank lines."""
    pool = (rng.sample(range(10**9 + 1), rng.randint(2, 40))
            if rng.random() < 0.5 else list(range(rng.randint(2, 30))))
    pairs: list[tuple[int, int]] = []
    lines = []
    for _ in range(rng.randint(0, 60)):
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(("",) + BLANKS))
        elif r < 0.2:
            lines.append(rng.choice(("#", "# 1 2 3", " \t#x", "#5 6")))
        else:
            if pairs and r < 0.35:
                u, v = rng.choice(pairs)
                if rng.random() < 0.5:
                    u, v = v, u
            else:
                u, v = rng.sample(pool, 2)
                pairs.append((u, v))
            u, v = (f"{x:0{rng.randint(2, 12)}d}" if rng.random() < 0.1
                    else str(x) for x in (u, v))
            pad = rng.choice(("",) + BLANKS)
            lines.append(f"{pad}{u}{rng.choice(BLANKS)}{v}"
                         f"{rng.choice(('', pad))}")
    return lines


def join_lines(rng: random.Random, lines: list[str]) -> str:
    return "".join(line + rng.choice(BREAKS) for line in lines)


def benchmark_edge_list() -> str:
    """G(5000, 20000) as the benchmark writes it, edges sorted."""
    rng = random.Random(5)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < 20000:
        u, v = rng.randrange(5000), rng.randrange(5000)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return "".join(f"{u} {v}\n" for u, v in sorted(pairs))


def traced(fn, *args):
    """fn(*args), with the bytes its result keeps and the peak bytes of
    the call, both above the traced memory before the call."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, kept - base, peak - base


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

    def test_ids_are_ascii_decimal_digits(self):
        """int() would read each of these as an id another token names
        too; only "-" before digits is called negative."""
        for bad in ("1_0 2\n10 3", "4 5\n+1 2", "\u0661 2\n1 3", "5 -\n",
                    "-\u0661 2", "--3 2", "-3 x", "3 0x1"):
            with pytest.raises(ParseError,
                               match=r"^line \d: non-integer token$"):
                load_edge_list(bad)
        for bad in ("-3 4", "4 -0", "-3 -4"):
            with pytest.raises(ParseError, match="^line 1: negative node id$"):
                load_edge_list(bad)
        assert load_edge_list("010 2\n10 3").n == 3

    def test_tabs_and_comments(self):
        g = load_edge_list("# header\n0\t1\n1 2\n")
        assert g.n == 3 and g.edge_count == 2

    def test_remap_preserves_sorted_order(self):
        g = load_edge_list("30 10\n10 20")
        # original ids 10,20,30 -> 0,1,2
        assert g.edges == frozenset({(0, 2), (0, 1)})

    def test_matches_edge_set_reference(self):
        rng = random.Random(15)
        for trial in range(300):
            text = join_lines(rng, document_lines(rng))
            ref = reference_load_edge_list(text)
            g = load_edge_list(text)
            assert (g.n, g.edges, g.edge_count) == \
                (ref.n, ref.edges, ref.edge_count), (trial, text)
            for i, ball in enumerate(g.closed_neighborhoods(1)):
                assert tuple(j for j in ball if j != i) == ref.neighbors(i), \
                    (trial, i)

    def test_parse_errors_match_reference(self):
        rng = random.Random(16)
        for trial in range(200):
            lines = document_lines(rng)
            bad = BAD_LINES[trial % len(BAD_LINES)]
            lines.insert(rng.randint(0, len(lines)), bad)
            text = join_lines(rng, lines)
            with pytest.raises(ParseError) as expected:
                reference_load_edge_list(text)
            with pytest.raises(ParseError) as got:
                load_edge_list(text)
            assert str(got.value) == str(expected.value), (trial, text)

    def test_load_memory(self):
        """G(5000, 20000) as the benchmark writes it: the load must not
        hold a per-edge container beyond one line, nor the graph keep
        one. The edge-tuple list and set peaked at 10.0 MB and left a
        2.97 MB graph; the two id columns peak at 3.0 MB for 0.75 MB."""
        g, kept, peak = traced(load_edge_list, benchmark_edge_list())
        assert g.edge_count == 20000
        assert peak < 6_000_000
        assert kept < 1_500_000

    def test_ball_table_memory(self):
        """The k=1 table is the adjacency the graph holds already, and the
        k=2 balls are 2-byte arrays: built as tuples of ids, the tables of
        this G(5000, 20000) kept 0.29 MB (k=1) and 3.30 MB (k=2)."""
        g = load_edge_list(benchmark_edge_list())
        _, kept1, _ = traced(g.closed_neighborhoods, 1)
        table, kept2, _ = traced(g.closed_neighborhoods, 2)
        assert len(table) == g.n
        assert kept1 < 50_000
        assert kept2 < 1_600_000

    def test_balls_beyond_the_diameter(self):
        """A k far past the diameter is valid: every ball is then the whole
        component. Each source's BFS stops at its eccentricity; run to depth
        k, chain(50) at k = 10**6 would take 5e7 empty steps."""
        g = ng.chain(50)
        start = time.perf_counter()
        balls = g.closed_neighborhoods(10**6)
        assert time.perf_counter() - start < 1.0
        assert [list(ball) for ball in balls] == [list(range(50))] * 50


class TestGenerators:
    def test_star(self):
        g = ng.star(100)
        assert g.n == 100 and g.edge_count == 99
        assert len(g.closed_neighborhoods(1)[0]) == 100

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
        balls = g.closed_neighborhoods(1)
        assert len(balls[0]) == 4 and len(balls[1]) == 4

    def test_center_arms_tree(self):
        g = ng.center_arms_tree(k=3, m=2)
        assert g.n == 7
        assert len(g.closed_neighborhoods(1)[0]) == 3
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
            ng.generate(FamilySpec("er_random", n=5, prob=1.5, graph_seed=0))

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
                assert [tuple(b) for b in table] == expected, (trial, k)

    def test_k1_table_is_the_adjacency(self):
        rng = random.Random(4)
        for _ in range(20):
            g = disjoint_union(random_graph(rng, rng.randint(0, 15), 0.3),
                               isolated=rng.randint(0, 2))
            table = g.closed_neighborhoods(1)
            assert g.closed_neighborhoods(1) is table
            assert all(i in ball for i, ball in enumerate(table))

    def test_ball_typecode_follows_node_count(self):
        """Ids fit 2 bytes up to n = 65,536, and take 4 beyond."""
        for n, typecode, itemsize in ((65536, "H", 2), (65537, "I", 4)):
            table = ng.chain(n).closed_neighborhoods(2)
            last = table[-1]
            assert (last.typecode, last.itemsize) == (typecode, itemsize)
            assert tuple(last) == (n - 3, n - 2, n - 1)

    def test_negative_radius_rejected(self):
        g = ng.chain(4)
        for _ in range(2):           # the first refusal caches nothing
            with pytest.raises(ValueError, match=r"^k must be >= 0, got -1$"):
                g.closed_neighborhoods(-1)
        with pytest.raises(ValueError, match=r"^k must be >= 0, got -2$"):
            min_dominating_greedy(g, -2)
        assert [tuple(b) for b in g.closed_neighborhoods(0)] == \
            [(0,), (1,), (2,), (3,)]


class TestComponents:
    def test_chain(self):
        assert connected_components(ng.chain(4)) == [[0, 1, 2, 3]]

    def test_no_edges(self):
        assert connected_components(Graph(3, [])) == [[0], [1], [2]]

    def test_two_triangles(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert connected_components(g) == [[0, 1, 2], [3, 4, 5]]

    def test_matches_union_find_oracle(self):
        rng = random.Random(9)
        for trial in range(60):
            g = random_graph(rng, rng.randint(0, 30), rng.random() * 0.15)
            if trial % 2:
                g = disjoint_union(g, random_graph(rng, rng.randint(1, 6), 0.5),
                                   isolated=rng.randint(0, 3))
            masks = [sum(1 << v for v in c) for c in connected_components(g)]
            assert masks == component_masks(g), trial


def test_graph_invariants():
    with pytest.raises(ValueError, match=r"^self-loop at node 0$"):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError,
                       match=r"^edge \(0,2\) out of range for n=2$"):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError, match=r"^edge \(-1,1\) out of range"):
        Graph(2, [(-1, 1)])
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.edge_count == 1
