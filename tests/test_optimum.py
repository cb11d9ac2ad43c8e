import random
import sys
import tracemalloc

from _oracles import (_members, ball_masks, component_masks, disjoint_union,
                      exhaustive_min_dominating, random_graph,
                      rebuilt_min_dominating_exact,
                      reference_min_dominating_exact, scan_greedy_dominating)
from sharegoods import netgraph as ng
from sharegoods import optimum
from sharegoods.game import is_distance_k_dominating
from sharegoods.optimum import (_pack, export_ilp, min_dominating_exact,
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

    def test_matches_scan_oracle(self):
        rng = random.Random(5)
        for n in range(41):
            g = random_graph(rng, n, rng.random() * 0.3)
            if n % 3 == 0:
                g = disjoint_union(g, random_graph(rng, rng.randint(1, 8), 0.4),
                                   isolated=rng.randint(0, 3))
            for k in (1, 2, 3):
                assert min_dominating_greedy(g, k) == scan_greedy_dominating(g, k)
        families = [ng.complete(7), ng.chain(23), ng.star(12),
                    ng.two_center_tree(2, 3), ng.two_center_tree(3, 2),
                    ng.karate()]
        for g in families:
            for k in (1, 2, 3, 4):
                assert min_dominating_greedy(g, k) == scan_greedy_dominating(g, k)


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

    def test_budget_exceeded_returns_incumbent(self, monkeypatch):
        g = ng.er_random(40, 0.1, seed=3)
        monkeypatch.setattr(optimum, "NODE_BUDGET", 2)
        r = min_dominating_exact(g, 1)
        assert not r.proven_optimal
        assert is_distance_k_dominating(g, 1, r.owners)

    def test_deep_ladder_needs_no_recursion(self):
        # A 2x500 ladder: rung i joins 2i and 2i+1, the rails run 2i to 2i+2
        # and 2i+1 to 2i+3. Its search goes 251 owners deep, which a solver
        # that recursed once per owner could not do in 150 spare frames.
        edges = [(2 * i, 2 * i + 1) for i in range(500)]
        edges += [(j, j + 2) for j in range(998)]
        g = ng.Graph(1000, edges)
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            r = min_dominating_exact(g, 1)
        finally:
            sys.setrecursionlimit(limit)
        assert r.proven_optimal and r.cost == 251
        assert r.nodes_explored == 997
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

    def test_search_gets_each_component_view(self):
        """_by_component calls search(balls, cov, start, explored, budget)
        once per component, smallest member first: its balls and ball
        masks renumbered 0..m-1 in id order, the start's owners there and
        the node count so far. The masks here come from the tests' own
        ball masks and union-find components."""
        rng = random.Random(34)
        for trial in range(60):
            parts = [random_graph(rng, rng.randint(1, 7), rng.random() * 0.6)
                     for _ in range(rng.randint(1, 3))]
            g = disjoint_union(*parts, isolated=rng.randint(1, 3))
            k = rng.randint(1, 3)
            start = {v for v in range(g.n) if rng.random() < 0.4}
            calls = []

            def search(balls, cov, best, explored, budget):
                calls.append((balls, cov, best, explored, budget))
                return best, explored + trial + len(balls)

            owners, explored = optimum._by_component(g, k, search, start)
            whole = ball_masks(g, k)
            comps = [_members(c) for c in component_masks(g)]
            assert len(calls) == len(comps)
            count = 0
            for comp, (balls, cov, best, seen, budget) in zip(comps, calls):
                local = {v: i for i, v in enumerate(comp)}
                want = [sum(1 << local[u] for u in _members(whole[v]))
                        for v in comp]
                assert cov == want
                assert [list(b) for b in balls] == [_members(c) for c in want]
                assert best == sum(1 << local[v] for v in comp if v in start)
                assert (seen, budget) == (count, optimum.NODE_BUDGET)
                count += trial + len(comp)
            assert (owners, explored) == (start, count)

    def test_budget_shared_across_components(self, monkeypatch):
        one = ng.er_random(30, 0.2, 5)
        g = disjoint_union(one, one, isolated=2)
        monkeypatch.setattr(optimum, "NODE_BUDGET", 3)
        r = min_dominating_exact(g, 1)
        assert not r.proven_optimal
        assert r.nodes_explored <= 4
        assert is_distance_k_dominating(g, 1, r.owners)
        assert r.cost == len(r.owners)


def bound_inputs():
    """Random bound inputs on graphs of up to 10 nodes, some isolated:
    (cov, covered, uncovered, forbidden), where covered[S] is the nodes
    that the balls of the node subset S cover. The B&B packs only while
    some node is uncovered, so a draw with none is skipped."""
    rng = random.Random(17)
    for trial in range(40):
        g = random_graph(rng, rng.randint(1, 8), rng.random() * 0.5)
        g = disjoint_union(g, isolated=trial % 3)
        n = g.n
        for k in (1, 2, 3):
            cov = ball_masks(g, k)
            covered = [0] * (1 << n)
            for s in range(1, 1 << n):
                low = s & -s
                covered[s] = covered[s ^ low] | cov[low.bit_length() - 1]
            for _ in range(6):
                uncovered = rng.getrandbits(n)
                forbidden = rng.getrandbits(n) & rng.getrandbits(n)
                if uncovered:
                    yield cov, covered, uncovered, forbidden


def packing(cov, uncovered, forbidden, cap):
    """optimum._pack over the sorted keys (deg << n | avail) << w | (v + 1)
    of the uncovered nodes, avail being a node's ball less forbidden."""
    n = len(cov)
    w = n.bit_length()
    keys = []
    for v in range(n):
        if uncovered >> v & 1:
            a = cov[v] & ~forbidden
            keys.append((a.bit_count() << n | a) << w | v + 1)
    return _pack(sorted(keys), n, w, cap)


class TestLowerBound:
    def test_never_exceeds_restricted_optimum(self):
        for cov, covered, uncovered, forbidden in bound_inputs():
            n = len(cov)
            sizes = [s.bit_count() for s in range(1 << n)
                     if not s & forbidden
                     and covered[s] & uncovered == uncovered]
            bound, pick = packing(cov, uncovered, forbidden, n + 1)
            if sizes:
                assert bound <= min(sizes)
            else:
                assert (bound, pick) == (n + 1, 0)
                continue
            # The branching node: the lowest-id uncovered node with the
            # most available coverers.
            avail = [cov[v] & ~forbidden for v in range(n)
                     if uncovered >> v & 1]
            degs = [a.bit_count() for a in avail]
            want = avail[degs.index(max(degs))] if avail else 0
            assert pick == want

    def test_cap_stops_the_packing_where_it_prunes(self):
        # The B&B prunes when the bound reaches its cap; below the cap the
        # capped bound must name the same bound and branching node.
        for cov, _, uncovered, forbidden in bound_inputs():
            n = len(cov)
            full = packing(cov, uncovered, forbidden, n + 1)
            for cap in range(-1, n + 3):
                capped = packing(cov, uncovered, forbidden, cap)
                assert (capped[0] >= cap) == (full[0] >= cap)
                if full[0] < cap:
                    assert capped == full
                elif cap > 0 and full[0] <= n:
                    assert capped[0] == cap

    def test_proves_sparse_er_within_small_budget(self, monkeypatch):
        # The earlier 2k-ball packing bound ran past these budgets. The node
        # counts pin the search itself: a change to the bound, the branching
        # rule or the candidate order shows even when it keeps the optimum.
        for g, budget, expected, nodes in [
                (ng.er_random(60, 0.1, 2), 10_000, 12, 2440),
                (ng.er_random(80, 0.075, 1), 20_000, 14, 3499),
                (ng.er_random(50, 0.1, 0), 10_000, 9, 630)]:
            monkeypatch.setattr(optimum, "NODE_BUDGET", budget)
            r = min_dominating_exact(g, 1)
            assert r.proven_optimal and r.cost == expected
            assert r.nodes_explored == nodes


class TestSameSearchAsRebuiltBound:
    """The bound kept across the search visits the same search nodes as the
    bound rebuilt at each of them, at the full budget and when it runs
    out, and holds its keys' undo entries in memory that grows with the
    search depth."""

    def test_random_graphs_node_for_node(self, monkeypatch):
        rng = random.Random(29)
        full = optimum.NODE_BUDGET
        for trial in range(300):
            g = random_graph(rng, rng.randint(1, 40), rng.random() * 0.3)
            if trial % 3 == 0:
                g = disjoint_union(g, random_graph(rng, rng.randint(1, 8), 0.3),
                                   isolated=rng.randint(1, 3))
            k = rng.randint(1, 3)
            for budget in (full, rng.randint(1, 40)):
                monkeypatch.setattr(optimum, "NODE_BUDGET", budget)
                r = min_dominating_exact(g, k)
                ref = rebuilt_min_dominating_exact(g, k)
                assert (r.owners, r.cost, r.proven_optimal,
                        r.nodes_explored) == (ref.owners, ref.cost,
                                              ref.proven_optimal,
                                              ref.nodes_explored)

    def test_peak_memory_within_twice_the_rebuilt_search(self, monkeypatch):
        # The undo entries hold keys along the current path only; a copy of
        # the key array per pending child would hold n slots per child.
        rng = random.Random(3)
        pairs: set[tuple[int, int]] = set()
        while len(pairs) < 4000:
            u, v = rng.randrange(1000), rng.randrange(1000)
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        g = ng.Graph(1000, sorted(pairs))
        monkeypatch.setattr(optimum, "NODE_BUDGET", 2_000)
        peaks = []
        for search in (rebuilt_min_dominating_exact, min_dominating_exact):
            search(g, 1)    # first-call allocations stay out of the peak
            tracemalloc.start()
            try:
                r = search(g, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert not r.proven_optimal and r.nodes_explored == 2_001
        assert peaks[1] <= 2 * peaks[0], peaks


class TestSameOwnersAsReference:
    def _check(self, g, k):
        r = min_dominating_exact(g, k)
        ref = reference_min_dominating_exact(g, k)
        assert (r.owners, r.cost, r.proven_optimal) == \
            (ref.owners, ref.cost, ref.proven_optimal)

    def test_random_graphs_and_unions(self):
        rng = random.Random(23)
        for trial in range(93):
            g = random_graph(rng, rng.randint(1, 24), rng.random() * 0.35)
            if trial % 3 == 0:
                g = disjoint_union(g, random_graph(rng, rng.randint(1, 8), 0.4),
                                   isolated=rng.randint(0, 3))
            self._check(g, rng.randint(1, 3))

    def test_families(self):
        for k in (1, 2, 3, 4):
            self._check(ng.karate(), k)
        self._check(ng.chain(100), 1)
        self._check(ng.er_random(30, 0.2, 5), 1)
        self._check(ng.er_random(50, 0.1, 0), 1)


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
