import errno
import functools
import os
import random
import select
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from _oracles import (ball_masks, brute_force_ne_owner_masks,
                      brute_force_sgg_ne_owner_sets, brute_force_sggac_ne_exists,
                      brute_force_sggac_ne_owner_sets, disjoint_union,
                      id_order_smallest_owner_set, is_k_independent_dominating,
                      is_nash, largest_ne_extension, listed_ne_sizes,
                      listing_dominating_owner_sets, listing_follower_claims,
                      random_graph, reference_dynamics, stabilized_start)
from sharegoods import dynamics, equilibria, game, optimum
from sharegoods import netgraph as ng
from sharegoods.dynamics import (DynamicsResult, _trajectories,
                                best_response_grid, derive_seed)
from sharegoods.equilibria import (_dominating_owner_sets, _follower_claims,
                                   _largest_bound, _largest_search,
                                   _smallest_search, empirical_cost_stats,
                                   enumerate_ne_owner_sets_sgg,
                                   exact_efficiency, sggac_owner_set_feasible,
                                   sggac_witness_profile)
from sharegoods.cli import main
from sharegoods.game import SGG, SGG_AC, GameConfig
from sharegoods.optimum import OptResult, cover_masks, min_dominating_exact


def exact_reports(g, cfgs):
    """exact_efficiency for cfgs, handed the optimum at their k and p."""
    return exact_efficiency(g, cfgs,
                            min_dominating_exact(g, cfgs[0].k, p=cfgs[0].p))


def listed(cov, xi, start=None):
    """The masks of _dominating_owner_sets on the whole graph, all of them
    or, from the owner set start, start and each that beats the one before
    it, from a fresh count that stays within the node budget."""
    mask = None if start is None else sum(1 << v for v in start)
    masks, searched = _dominating_owner_sets(cov, xi, 0, optimum.NODE_BUDGET,
                                             mask)
    assert searched <= optimum.NODE_BUDGET
    return masks


def side_owners(g, k, xi, search):
    """The owner set of _largest_search or _smallest_search at xi, run one
    component at a time from the stabilized optimum, as exact_efficiency
    runs it."""
    owners, searched = optimum._by_component(
        g, k, functools.partial(search, xi), stabilized_start(g, k, xi))
    assert searched <= optimum.NODE_BUDGET
    return owners


def small_graph(rng, trial, n=14):
    """A random graph of up to n nodes; every third trial, a disjoint union
    of two random graphs with isolated nodes."""
    n1 = rng.randint(1, n)
    g = random_graph(rng, n1, rng.random() * 0.6)
    if trial % 3 == 0 and n1 < n:
        n2 = rng.randint(1, n - n1)
        g = disjoint_union(g, random_graph(rng, n2, rng.random() * 0.6),
                           isolated=rng.randint(0, n - n1 - n2))
    return g


def ends(tally, row, xi):
    """{(owner count, passes): runs} of one (row, xi) of a
    best_response_grid tally."""
    return {key[2:]: m for key, m in tally.items() if key[:2] == (row, xi)}


def row_by_row(rows):
    """The tally of best_response_grid run on each row alone, its row
    indices set to the row's place in rows."""
    return {(i, *key[1:]): m for i, row in enumerate(rows)
            for key, m in best_response_grid([row]).items()}


class TestEnumeration:
    def test_figure1(self, figure1_graph):
        sets = enumerate_ne_owner_sets_sgg(figure1_graph, 1)
        assert frozenset({2}) in sets
        assert frozenset({0, 1, 5}) in sets
        assert frozenset({0, 1, 3, 4}) in sets
        sizes = sorted(len(s) for s in sets)
        assert sizes[0] == 1 and sizes[-1] == 4

    def test_star5(self):
        sets = enumerate_ne_owner_sets_sgg(ng.star(5), 1)
        assert sets == [frozenset({0}), frozenset({1, 2, 3, 4})]

    def test_complete4(self):
        sets = enumerate_ne_owner_sets_sgg(ng.complete(4), 1)
        assert sets == [frozenset({i}) for i in range(4)]

    def test_chain30(self):
        """A path beyond the 20-node cap the listing once had: its
        independent dominating sets have 10 to 15 nodes."""
        sizes = {len(s) for s in enumerate_ne_owner_sets_sgg(ng.chain(30), 1)}
        assert sizes == set(range(10, 16))

    def test_budget(self, monkeypatch):
        """The listing searches chain(8) in 42 nodes; one fewer ends in
        RuntimeError."""
        monkeypatch.setattr(optimum, "NODE_BUDGET", 42)
        assert len(enumerate_ne_owner_sets_sgg(ng.chain(8), 1)) == 9
        monkeypatch.setattr(optimum, "NODE_BUDGET", 41)
        with pytest.raises(RuntimeError, match="stopped after 41 nodes"):
            enumerate_ne_owner_sets_sgg(ng.chain(8), 1)

    def test_matches_brute_force(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7), rng.random())
            k = rng.randint(1, 2)
            cfg = GameConfig(SGG, k)
            assert set(enumerate_ne_owner_sets_sgg(g, k)) == \
                brute_force_sgg_ne_owner_sets(g, cfg)


class TestSggacFeasibility:
    def test_complete6_two_owners(self):
        assert sggac_owner_set_feasible(ng.complete(6), 1, 2, {0, 1})

    def test_complete4_too_few_followers(self):
        assert not sggac_owner_set_feasible(ng.complete(4), 1, 2, {0, 1})

    def test_star_uncontested(self):
        assert sggac_owner_set_feasible(ng.star(100), 1, 5, {0})

    def test_non_dominating_rejected(self):
        assert not sggac_owner_set_feasible(ng.chain(10), 1, 1, {0})

    def test_2000_link_augmenting_path(self):
        """A 4,001-node chain f(0) o(1) f(1) ... o(m) f(m) at k=2, xi=1,
        with owner o(j) = j - 1. Each o(j) first takes f(j), the lower id,
        so the last owner's claim re-routes all m - 1 owners before it:
        an augmenting path 2,000 claims deep."""
        m = 2000
        f = [m + (m - 1 - j) for j in range(m)] + [2 * m]
        seq = [f[0]]
        for j in range(1, m + 1):
            seq += [j - 1, f[j]]
        g = ng.Graph(2 * m + 1, list(zip(seq, seq[1:])))
        assert sggac_owner_set_feasible(g, 2, 1, set(range(m)))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_witness_rejects_ids_outside_graph(self, bad):
        with pytest.raises(ValueError, match=f"node id {bad} is not in 0..2"):
            sggac_witness_profile(ng.chain(3), 1, 2, {1, bad})

    @pytest.mark.parametrize("xi", [0, -3])
    def test_witness_rejects_xi_below_1(self, xi):
        """GameConfig's rule: a contested owner holds at least 1 follower."""
        with pytest.raises(ValueError, match="xi must be between 1 and"):
            sggac_witness_profile(ng.complete(4), 1, xi, {0, 1, 2, 3})
        with pytest.raises(ValueError, match="xi must be between 1 and"):
            sggac_owner_set_feasible(ng.complete(4), 1, xi, {0, 1, 2, 3})

    def test_witness_is_nash(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 7), rng.random())
            k = rng.randint(1, 2)
            xi = rng.randint(1, 3)
            cfg = GameConfig(SGG_AC, k, xi=xi)
            for mask in range(1, 1 << g.n):
                owner_set = {i for i in range(g.n) if (mask >> i) & 1}
                witness = sggac_witness_profile(g, k, xi, owner_set)
                if witness is not None:
                    assert game.owners(cfg, witness) == owner_set
                    assert is_nash(g, cfg, witness)
                    checked += 1
        assert checked > 0

    def test_matches_brute_force(self):
        rng = random.Random(29)
        cases = []
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 6), rng.random())
            cases.append((g, rng.randint(1, 2), rng.randint(1, 3)))
        # Up to 7 nodes in two random parts plus isolated nodes.
        for _ in range(30):
            n1 = rng.randint(1, 6)
            n2 = rng.randint(0, 6 - n1)
            g = disjoint_union(random_graph(rng, n1, rng.random()),
                               random_graph(rng, n2, rng.random()),
                               isolated=rng.randint(0, 7 - n1 - n2))
            cases.append((g, rng.randint(1, 3), rng.randint(1, 4)))
        # Owners 0 and 1 contest each other. Owner 0 claims 2 first, the
        # only follower 1 can reach, so 1's claim must move 2 over and
        # re-route 0 to 3; a first-come assignment finds no witness.
        reroute = ng.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert sggac_owner_set_feasible(reroute, 1, 1, {0, 1})
        cases.append((reroute, 1, 1))
        for g, k, xi in cases:
            cfg = GameConfig(SGG_AC, k, xi=xi)
            for mask in range(1, 1 << g.n):
                owner_set = {i for i in range(g.n) if (mask >> i) & 1}
                assert sggac_owner_set_feasible(g, k, xi, owner_set) == \
                    brute_force_sggac_ne_exists(g, cfg, owner_set)


class TestSggacEnumeration:
    def test_matches_brute_force(self):
        # Up to 8 nodes in two random parts plus isolated nodes, so most
        # graphs are disconnected.
        rng = random.Random(37)
        for _ in range(20):
            n1 = rng.randint(1, 8)
            n2 = rng.randint(0, 8 - n1)
            g = disjoint_union(random_graph(rng, n1, rng.random() * 0.7),
                               random_graph(rng, n2, rng.random() * 0.7),
                               isolated=rng.randint(0, 8 - n1 - n2))
            for k in (1, 2, 3):
                cov = cover_masks(g, k)
                for xi in (1, 2, 3, 4):
                    cfg = GameConfig(SGG_AC, k, xi=xi)
                    expected = brute_force_sggac_ne_owner_sets(g, cfg)
                    masks = listed(cov, xi)
                    assert len(masks) == len(set(masks)) == len(expected)
                    assert {frozenset(i for i in range(g.n) if m >> i & 1)
                            for m in masks} == expected
                    sizes = [len(s) for s in expected]
                    report = exact_reports(g, [cfg])[0]
                    assert report.worst_ne_cost == max(sizes)
                    assert report.best_ne_cost == min(sizes)

    def test_unreachable_threshold_is_sgg(self):
        """The paper's limit: once xi >= n - 1 no ball holds an owner, another
        owner and xi followers, so no owner is contested and SGG-AC's search
        lists, and bounds, exactly as SGG's k-independent listing."""
        rng = random.Random(43)
        for _ in range(100):
            n1 = rng.randint(2, 12)
            g = disjoint_union(random_graph(rng, n1, rng.random() * 0.7),
                               isolated=rng.randint(0, 12 - n1))
            for k in (1, 2):
                cov = cover_masks(g, k)
                sgg = listing_dominating_owner_sets(
                    cov, lambda i, chosen: cov[i] & chosen == 1 << i)
                sizes = [m.bit_count() for m in sgg]
                for xi in (g.n - 1, g.n, g.n + 5):
                    assert listed(cov, xi) == sgg, (g.n, k, xi)
                    smallest, by_component = (
                        sum(1 << v for v in side_owners(g, k, xi, search))
                        for search in (_smallest_search, _largest_search))
                    largest = listed(
                        cov, xi, stabilized_start(g, k, xi))[-1]
                    for side, last, extreme in (
                            ("smallest", smallest, min(sizes)),
                            ("largest", largest, max(sizes)),
                            ("largest by component", by_component,
                             max(sizes))):
                        assert last in sgg, (g.n, k, xi, side)
                        assert last.bit_count() == extreme, (g.n, k, xi)

    def test_matches_ordered_listing(self):
        """The search admits exactly what the listing's admit rules admit,
        node by node: SGG-AC's follower claims at xi 1-4 and SGG's
        k-independence at the unreachable threshold xi = n give the
        listing's sets in its order, on graphs of up to 12 nodes in two
        random parts plus isolated nodes."""
        rng = random.Random(59)
        for _ in range(40):
            n1 = rng.randint(1, 10)
            n2 = rng.randint(0, 10 - n1)
            g = disjoint_union(random_graph(rng, n1, rng.random() * 0.7),
                               random_graph(rng, n2, rng.random() * 0.7),
                               isolated=rng.randint(0, 12 - n1 - n2))
            for k in (1, 2, 3):
                cov = ball_masks(g, k)
                for xi in (1, 2, 3, 4):
                    assert listed(cov, xi) == \
                        listing_dominating_owner_sets(
                            cov, lambda i, chosen: listing_follower_claims(
                                cov, chosen, xi) is not None), (g.edges, k, xi)
                assert listed(cov, g.n) == \
                    listing_dominating_owner_sets(
                        cov, lambda i, chosen: cov[i] & chosen == 1 << i), \
                    (g.edges, k)

    @staticmethod
    def counted_claims(monkeypatch) -> list[int]:
        """The owner masks of every later _follower_claims call."""
        calls = []

        def counted(cov, owners, xi):
            calls.append(owners)
            return _follower_claims(cov, owners, xi)
        monkeypatch.setattr(equilibria, "_follower_claims", counted)
        return calls

    def test_sgg_makes_no_claims(self, monkeypatch):
        """At the threshold xi = n no ball can hold a contested owner, so
        an undominated join is admitted and a dominated one cut, both
        without a follower matching."""
        calls = self.counted_claims(monkeypatch)
        for g, k in ((ng.karate(), 1), (ng.karate(), 2), (ng.star(50), 1)):
            listed(cover_masks(g, k), g.n, stabilized_start(g, k, g.n))
            side_owners(g, k, g.n, _largest_search)
            side_owners(g, k, g.n, _smallest_search)
            assert calls == [], (g.n, k)

    def test_uncontested_joins_make_no_claims(self, monkeypatch):
        """Karate's largest side at k = 1, xi = 5 (worst 20 owners) makes
        the follower matching only for joins that contest an owner whose
        ball can hold xi followers."""
        calls = self.counted_claims(monkeypatch)
        g = ng.karate()
        assert listed(cover_masks(g, 1), 5,
                      stabilized_start(g, 1, 5))[-1].bit_count() == 20
        assert 0 < len(calls) < 100, len(calls)

    def test_failed_claims_fail_for_every_superset(self):
        """The enumerator cuts every extension of an owner set that fails
        the follower claims, which is sound only if each superset fails
        too."""
        rng = random.Random(41)
        cut = 0
        for _ in range(20):
            n1 = rng.randint(1, 8)
            n2 = rng.randint(0, 8 - n1)
            g = disjoint_union(random_graph(rng, n1, rng.random() * 0.7),
                               random_graph(rng, n2, rng.random() * 0.7),
                               isolated=rng.randint(0, 8 - n1 - n2))
            full = (1 << g.n) - 1
            for k in (1, 2, 3):
                cov = cover_masks(g, k)
                for xi in (1, 2, 3, 4):
                    fails = [_follower_claims(cov, m, xi) is None
                             for m in range(full + 1)]
                    for m in range(full + 1):
                        if not fails[m]:
                            continue
                        sup = m
                        while sup != full:
                            sup = (sup + 1) | m      # next superset of m
                            assert fails[sup], (g.edges, g.n, k, xi, m, sup)
                            cut += 1
        assert cut > 0


class TestUpperBound:
    def test_never_below_largest_extension(self):
        """At a search state (node i, the admitted owners chosen below i),
        the largest side's bound is at least the size of every admitted
        dominating owner set that adds only nodes from i on. Under SGG-AC
        the capacity mask ok (the nodes whose ball holds xi + 2 or more)
        must tighten the bound in some states."""
        rng = random.Random(53)
        tight = 0
        capped = 0
        for trial in range(24):
            n1 = rng.randint(1, 7)
            g = disjoint_union(random_graph(rng, n1, rng.random() * 0.7),
                               random_graph(rng, rng.randint(0, 7 - n1),
                                            rng.random() * 0.7),
                               isolated=trial % 3)
            n = g.n
            for k in (1, 2, 3):
                cov = ball_masks(g, k)
                for cfg in [GameConfig(SGG, k)] + [
                        GameConfig(SGG_AC, k, xi=xi) for xi in (1, 2, 3, 4)]:
                    ne_masks = brute_force_ne_owner_masks(g, cfg)
                    # SGG is the threshold xi = n, where ok is empty.
                    xi = n if cfg.variant == SGG else cfg.xi
                    ok = sum(1 << v for v in range(n)
                             if bin(cov[v]).count("1") >= xi + 2)
                    for _ in range(10):
                        i = rng.randint(0, n)
                        # Half the states lie on an equilibrium's path.
                        chosen = (rng.choice(ne_masks) if rng.random() < 0.5
                                  else rng.getrandbits(n)) & (1 << i) - 1
                        owners = [o for o in range(n) if chosen >> o & 1]
                        if cfg.variant == SGG:
                            admitted = all(cov[o] & chosen == 1 << o
                                           for o in owners)
                        else:
                            admitted = listing_follower_claims(
                                cov, chosen, cfg.xi) is not None
                        if not admitted:
                            continue
                        unc = sum(1 << o for o in owners
                                  if cov[o] & chosen == 1 << o)
                        undominated = sum(1 << v for v in range(n)
                                          if not cov[v] & chosen)
                        state = (cov, i, chosen, len(owners), unc,
                                 undominated, xi)
                        bound = _largest_bound(*state, ok)
                        largest = largest_ne_extension(ne_masks, i, chosen)
                        assert bound >= largest, (g.n, g.edges, cfg, i,
                                                  chosen)
                        tight += bound == largest
                        capped += bound < _largest_bound(*state, (1 << n) - 1)
        assert tight > 1000
        assert capped > 50


class TestExactEfficiency:
    def test_star10_sgg(self):
        report = exact_reports(ng.star(10), [GameConfig(SGG, 1)])[0]
        assert report.opt_cost == 1
        assert report.best_ne_cost == 1
        assert report.worst_ne_cost == 9
        assert report.poa == 9 and report.pos == 1

    def test_star1200_sgg(self):
        # Both searches decide 1200 nodes in a row, deeper than a search
        # that recursed once per node could go.
        report = exact_reports(ng.star(1200), [GameConfig(SGG, 1)])[0]
        assert (report.worst_ne_cost, report.best_ne_cost) == (1199, 1)

    def test_figure1_sgg(self, figure1_graph):
        report = exact_reports(figure1_graph, [GameConfig(SGG, 1)])[0]
        assert report.opt_cost == 1
        assert report.pos == 1 and report.poa == 4

    def test_complete6_sggac(self):
        # complete graph on m(xi+1) nodes with m=2, xi=2
        report = exact_reports(ng.complete(6),
                               [GameConfig(SGG_AC, 1, xi=2)])[0]
        assert report.opt_cost == 1
        assert report.worst_ne_cost == 2
        assert report.poa == 2

    def test_pos_leq_poa_random(self):
        rng = random.Random(31)
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            for cfg in (GameConfig(SGG, 1), GameConfig(SGG_AC, 1, xi=2)):
                report = exact_reports(g, [cfg])[0]
                assert 1 <= report.pos <= report.poa
                assert report.opt_cost <= report.best_ne_cost

    def test_karate_sgg(self):
        """The paper's karate graph (n=34) at k=1..4: worst, best and
        optimal owner counts."""
        expected = {1: (20, 4, 4), 2: (4, 2, 2), 3: (2, 1, 1), 4: (2, 1, 1)}
        for k, costs in expected.items():
            report = exact_reports(ng.karate(), [GameConfig(SGG, k)])[0]
            assert (report.worst_ne_cost, report.best_ne_cost,
                    report.opt_cost) == costs, k

    def test_karate_sggac_table4(self):
        """The paper's karate graph under SGG-AC at xi = 6 and Table 4's
        k = 2..4: optimal cost, PoA and PoS."""
        expected = {2: (2, 3.5, 1), 3: (1, 5, 1), 4: (1, 5, 1)}
        for k, values in expected.items():
            report = exact_reports(ng.karate(),
                                   [GameConfig(SGG_AC, k, xi=6)])[0]
            assert (report.opt_cost, report.poa, report.pos) == values, k

    def test_chain30_sgg(self):
        report = exact_reports(ng.chain(30), [GameConfig(SGG, 1)])[0]
        assert (report.worst_ne_cost, report.best_ne_cost) == (15, 10)

    def test_chain100_sggac(self):
        """At k = 1 a contested chain owner has one free neighbour at
        most, so at xi >= 2 only SGG's equilibria remain: worst 50, best
        34. The capacity mask of the largest side's bound sees that no
        node can be contested."""
        cfgs = [GameConfig(SGG_AC, 1, xi=xi) for xi in (2, 5, 10, 20)]
        for report in exact_reports(ng.chain(100), cfgs):
            assert (report.worst_ne_cost, report.best_ne_cost,
                    report.opt_cost) == (50, 34, 34)

    def test_components_share_one_budget(self, monkeypatch):
        """Two disjoint copies of karate at k = 1, xi = 5: each side runs
        one component at a time, so the largest side searches 65,492 nodes,
        twice karate's 32,746 (in id order over the whole graph it took
        6.88M), and the smallest side 2, one per copy, since the stabilized
        optimum it starts from is already the smallest (72 from no owners).
        The copies share one budget: past 32,746 + 1 nodes the second copy
        stops, and the run raises."""
        g = disjoint_union(ng.karate(), ng.karate())
        cfgs = [GameConfig(SGG_AC, 1, xi=5)]
        opt = min_dominating_exact(g, 1)
        assert (opt.cost, opt.proven_optimal, opt.nodes_explored) == \
            (8, True, 2)
        for search, size, nodes in ((_largest_search, 40, 65_492),
                                    (_smallest_search, 8, 2)):
            owners, searched = optimum._by_component(
                g, 1, functools.partial(search, 5), stabilized_start(g, 1, 5))
            assert (len(owners), searched) == (size, nodes)
        monkeypatch.setattr(optimum, "NODE_BUDGET", 100_000)
        report = exact_efficiency(g, cfgs, opt)[0]
        assert (report.worst_ne_cost, report.best_ne_cost, report.opt_cost,
                report.poa, report.pos) == (40, 8, 8, 5, 1)
        for budget in (65_491, 32_746 + 1):
            monkeypatch.setattr(optimum, "NODE_BUDGET", budget)
            with pytest.raises(RuntimeError, match=(
                    rf"^the largest equilibrium search \(SGG-AC, xi=5\) "
                    rf"stopped after {budget} nodes searched \(its budget\)$")):
                exact_efficiency(g, cfgs, opt)
        karate = ng.karate()
        assert exact_efficiency(karate, cfgs, min_dominating_exact(
            karate, 1))[0].worst_ne_cost == 20

    def test_stabilized_optimum_is_an_equilibrium(self):
        """Both sides start from the stabilized optimum, so it must be an
        equilibrium owner set: at xi 1, 2, 3 and 5 its owners have a
        witness profile that the definition-level Nash check accepts, and
        at xi = n (SGG) they are k-independent and dominating."""
        rng = random.Random(67)
        for trial in range(60):
            g = small_graph(rng, trial)
            for k in (1, 2, 3):
                for xi in (1, 2, 3, 5):
                    s = sggac_witness_profile(g, k, xi,
                                              stabilized_start(g, k, xi))
                    assert s is not None and is_nash(
                        g, GameConfig(SGG_AC, k, xi=xi), s), (g.edges, k, xi)
                assert is_k_independent_dominating(
                    g, k, stabilized_start(g, k, g.n)), (g.n, g.edges, k)

    def test_threshold_order(self):
        """An equilibrium owner set at xi' is one at every xi < xi', and
        SGG's are those at the unreachable xi = n. So from xi 1 to 2, 3
        and 5 the worst never rises and the best never falls, SGG has the
        smallest worst and the largest best, and opt <= best. The sizes
        are the full listing's."""
        rng = random.Random(71)
        for trial in range(60):
            g = small_graph(rng, trial)
            for k in (1, 2, 3):
                cfgs = [GameConfig(SGG_AC, k, xi=xi)
                        for xi in (1, 2, 3, 5)] + [GameConfig(SGG, k)]
                reports = exact_reports(g, cfgs)
                worst = [r.worst_ne_cost for r in reports]
                best = [r.best_ne_cost for r in reports]
                assert worst == sorted(worst, reverse=True), (g.edges, k)
                assert best == sorted(best), (g.edges, k)
                assert reports[0].opt_cost <= best[0], (g.edges, k)
                for cfg, w, b in zip(cfgs, worst, best):
                    assert (w, b) == listed_ne_sizes(g, cfg), (g.edges, cfg)

    def test_matches_listing(self):
        """The two bounded searches give the largest and the smallest
        owner set of the full listing, on graphs of up to 14 nodes in two
        random parts plus isolated nodes."""
        rng = random.Random(47)
        for _ in range(12):
            n1 = rng.randint(1, 12)
            n2 = rng.randint(0, 12 - n1)
            g = disjoint_union(random_graph(rng, n1, rng.random() * 0.6),
                               random_graph(rng, n2, rng.random() * 0.6),
                               isolated=rng.randint(0, 14 - n1 - n2))
            for k in (1, 2, 3):
                cfgs = [GameConfig(SGG, k)] + [
                    GameConfig(SGG_AC, k, xi=xi) for xi in (1, 2, 3, 4)]
                for cfg, report in zip(cfgs, exact_reports(g, cfgs)):
                    assert (report.worst_ne_cost, report.best_ne_cost) == \
                        listed_ne_sizes(g, cfg), (g.n, g.edges, cfg)

    def test_smallest_matches_id_order_search(self):
        """The smallest side, the optimum's branch and bound under the join
        rule, gives the size of the id-order search it replaced, and an
        equilibrium owner set, on graphs of up to 30 nodes (a third of
        them disconnected) at k = 1-3 and xi 1, 2, 3, 5 and n (SGG)."""
        rng = random.Random(61)
        for trial in range(150):
            n1 = rng.randint(1, 30)
            g = random_graph(rng, n1, rng.random() * 0.3)
            if trial % 3 == 0 and n1 < 30:
                n2 = rng.randint(1, 30 - n1)
                g = disjoint_union(g, random_graph(rng, n2, 0.3),
                                   isolated=rng.randint(0, 30 - n1 - n2))
            k = rng.randint(1, 3)
            cov = ball_masks(g, k)
            for xi in (1, 2, 3, 5, g.n):
                owners = side_owners(g, k, xi, _smallest_search)
                assert len(owners) == id_order_smallest_owner_set(
                    cov, xi).bit_count(), (g.n, g.edges, k, xi)
                if xi == g.n:
                    assert is_k_independent_dominating(g, k, owners)
                else:
                    assert sggac_witness_profile(g, k, xi, owners) is not None

    def test_refuses_unproven_optimum(self):
        g = ng.star(5)
        unproven = OptResult(owners={0}, cost=1.0, proven_optimal=False,
                             nodes_explored=3)
        for cfg in (GameConfig(SGG, 1), GameConfig(SGG_AC, 1, xi=2)):
            with pytest.raises(RuntimeError, match="proven optimum"):
                exact_efficiency(g, [cfg], unproven)

    def test_grid_equals_single_configs(self, monkeypatch):
        """A grid returns the reports of one call per config, from the
        optimum it is handed: it computes none of its own."""
        calls = []

        def counted(g, k, p=1.0):
            calls.append((g, k, p))
            return min_dominating_exact(g, k, p=p)
        monkeypatch.setattr(equilibria, "min_dominating_exact", counted)
        rng = random.Random(43)
        for _ in range(12):
            g = disjoint_union(random_graph(rng, rng.randint(1, 7),
                                            rng.random()),
                               isolated=rng.randint(0, 2))
            k = rng.randint(1, 3)
            p = rng.choice((1.0, 1.5))
            cfgs = [GameConfig(SGG, k, p=p)] + [
                GameConfig(SGG_AC, k, p=p, xi=xi) for xi in (1, 2, 4)]
            del calls[:]
            opt = equilibria.min_dominating_exact(g, k, p=p)
            singles = [exact_efficiency(g, [cfg], opt)[0] for cfg in cfgs]
            assert exact_efficiency(g, cfgs, opt) == singles
            assert len(calls) == 1

    def test_grid_shares_k_and_p(self):
        g = ng.star(5)
        opt = min_dominating_exact(g, 1)
        for cfgs in ([GameConfig(SGG, 1), GameConfig(SGG, 2)],
                     [GameConfig(SGG_AC, 1, xi=2),
                      GameConfig(SGG_AC, 1, p=1.5, xi=2)], []):
            with pytest.raises(ValueError):
                exact_efficiency(g, cfgs, opt)


class TestBoundFamilies:
    def test_two_center_tree_sgg_ne_at_least_m(self):
        for k in (1, 2):
            for m in (1, 2, 3):
                g = ng.two_center_tree(k, m)
                for s in enumerate_ne_owner_sets_sgg(g, k):
                    assert len(s) >= m

    def test_two_center_tree_sggac_at_least_m(self):
        for k, m in [(1, 2), (1, 3), (2, 2)]:
            g = ng.two_center_tree(k, m)
            xi = m * k + 1
            for mask in range(1, 1 << g.n):
                owner_set = {i for i in range(g.n) if (mask >> i) & 1}
                if len(owner_set) < m:
                    assert not sggac_owner_set_feasible(g, k, xi, owner_set)

    def test_center_arms_profile_is_ne(self):
        for k in (1, 2, 3, 4):
            for m in (1, 2, 3, 4):
                g = ng.center_arms_tree(k, m)
                cfg = GameConfig(SGG_AC, k, xi=2)
                s = [-1] * g.n
                for arm in range(m):
                    first = 1 + arm * k
                    endpoint = first + k - 1
                    for v in range(first, first + k):
                        s[v] = endpoint
                    s[endpoint] = endpoint
                s[0] = 1 + (k - 1)  # center follows the first arm's endpoint
                assert is_nash(g, cfg, s)
                assert game.social_cost(g, cfg, s) == m * cfg.p


class TestEmpiricalStats:
    def test_deterministic(self):
        g = ng.karate()
        cfg = GameConfig(SGG_AC, 1, xi=2)
        a = empirical_cost_stats([(g, [cfg], 50, 7)])[0][0]
        b = empirical_cost_stats([(g, [cfg], 50, 7)])[0][0]
        assert a == b

    def test_fields(self):
        g = ng.chain(20)
        cfg = GameConfig(SGG, 1)
        stats = empirical_cost_stats([(g, [cfg], 25, 0)])[0][0]
        assert stats.runs == 25
        assert stats.min_cost <= stats.mean_cost <= stats.max_cost
        assert stats.std_cost >= 0
        assert 0 <= stats.mean_passes <= 3

    def test_single_run(self):
        stats = empirical_cost_stats(
            [(ng.star(5), [GameConfig(SGG, 1)], 1, 0)])[0][0]
        assert stats.std_cost == 0.0

    def test_runs_guard(self):
        with pytest.raises(ValueError):
            empirical_cost_stats([(ng.star(5), [GameConfig(SGG, 1)], 0, 0)])

    def test_grid_shares_variant_and_k(self):
        for cfgs in ([GameConfig(SGG, 1), GameConfig(SGG_AC, 1, xi=2)],
                     [GameConfig(SGG_AC, 1, xi=2), GameConfig(SGG_AC, 2, xi=2)],
                     []):
            with pytest.raises(ValueError):
                empirical_cost_stats([(ng.star(5), cfgs, 2, 0)])

    def test_rows_equal_single_rows(self, monkeypatch):
        """One call for several rows gives each row's stats alone, and each
        run derives its seed once, from its row's master_seed and its index
        in the row."""
        rows = [(ng.star(9), [GameConfig(SGG, 1)], 12, 3),
                (ng.karate(), [GameConfig(SGG_AC, 1, xi=xi)
                               for xi in (1, 2, 5)], 12, 3),
                (ng.chain(11), [GameConfig(SGG_AC, 2, xi=2)], 5, 3),
                (ng.karate(), [GameConfig(SGG, 3, b=3, p=2)], 12, 4)]
        singles = [empirical_cost_stats([row])[0] for row in rows]
        derived = []

        def counted(master_seed, index):
            derived.append((master_seed, index))
            return derive_seed(master_seed, index)
        monkeypatch.setattr(dynamics, "derive_seed", counted)
        monkeypatch.setattr(dynamics, "_cpus", lambda: 1)
        assert empirical_cost_stats(rows) == singles
        assert sorted(derived) == sorted(
            (seed, r) for *_, runs, seed in rows for r in range(runs))

    def test_grid_equals_single_configs(self):
        """One best_response_grid call runs a whole row: every (run,
        config) trajectory must equal the reference dynamics run alone on
        that seed (profile, passes and case counts), configs that share an
        xi must share one result, xi groups must split on stars and
        chains, and each config's stats must equal a call with it alone."""
        rng = random.Random(23)
        seen = set()
        split_on = set()
        for trial in range(90):
            family = trial % 9 // 3
            n = rng.randint(2, 30)
            g = (disjoint_union(random_graph(rng, rng.randint(0, 25),
                                             rng.random() * 0.4),
                                isolated=rng.randint(0, 3)),
                 ng.star(n), ng.chain(n))[family]
            if trial < 12:                 # every kind at n = 0 and n = 1
                g = ng.Graph(trial % 2, [])
            k = rng.randint(1, 3)
            kind = trial % 3
            if kind == 0:
                cfgs = [GameConfig(SGG, k), GameConfig(SGG, k, b=3, p=2)]
            elif kind == 1:
                cfgs = [GameConfig(SGG_AC, k, xi=rng.randint(1, 6))]
            else:
                cfgs = [GameConfig(SGG_AC, k, xi=xi) for xi in (1, 2, 5, 10, 20)]
                cfgs.append(GameConfig(SGG_AC, k, a=0.45))    # xi = 2 again
            runs = rng.randint(1, 6)
            seed = rng.getrandbits(32)
            seeds = [derive_seed(seed, r) for r in range(runs)]
            refs = [[reference_dynamics(g, cfg, s) for cfg in cfgs]
                    for s in seeds]
            # The groups of one run cover its xi grid once, run after run.
            grid = {cfg.xi for cfg in cfgs}
            r, covered = 0, set()
            for state, xis, case_counts in _trajectories(g, cfgs, seeds):
                got = DynamicsResult(state.s, len(case_counts),
                                     sum(map(sum, case_counts)), case_counts)
                for cfg, ref in zip(cfgs, refs[r]):
                    if cfg.xi in xis:
                        assert got == ref, (trial, r, cfg)
                assert covered.isdisjoint(xis)
                covered.update(xis)
                if len(xis) < len(grid):
                    split_on.add(family)
                if covered == grid:
                    r, covered = r + 1, set()
            assert (r, covered) == (runs, set())
            tally = best_response_grid([(g, cfgs, runs, seed)])
            # One group of counts per xi: configs of one xi share it.
            assert {key[:2] for key in tally} == {(0, xi) for xi in grid}
            for c, cfg in enumerate(cfgs):
                assert ends(tally, 0, cfg.xi) == Counter(
                    (len(game.owners(cfg, ref[c].profile)), ref[c].passes)
                    for ref in refs), (trial, cfg)
            (grid_stats,) = empirical_cost_stats([(g, cfgs, runs, seed)])
            singles = [empirical_cost_stats([(g, [cfg], runs, seed)])[0][0]
                       for cfg in cfgs]
            assert grid_stats == singles, (trial, cfgs)
            seen.add((kind, k))
        assert len(seen) == 9
        assert {1, 2} <= split_on          # stars and chains split


class TestForkedRow:
    """best_response_grid cuts the runs of all its rows into
    dynamics._BLOCKS blocks, deals them through one pipe to this process
    and to a forked child per further CPU (dynamics._cpus), and adds up
    their tallies."""

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def children_start(monkeypatch, in_child):
        """Patch dynamics._trajectories so that every child block calls
        in_child() first, and this process's blocks wait until a child has
        started one: the children surely get blocks. Returns the fds of
        the pipe that signals it."""
        parent, trajectories = os.getpid(), dynamics._trajectories
        r, w = os.pipe()

        def patched(g, cfgs, seeds):
            if os.getpid() != parent:
                os.write(w, b"x")
                in_child()
            else:              # nothing reads r, so it stays readable
                assert select.select([r], [], [], 30)[0]
            return trajectories(g, cfgs, seeds)

        monkeypatch.setattr(dynamics, "_trajectories", patched)
        monkeypatch.setattr(dynamics, "_cpus", lambda: 2)
        return r, w

    @staticmethod
    def open_fds():
        """This process's open fds, or None where /proc/self/fd is
        missing."""
        if os.path.isdir("/proc/self/fd"):
            return set(os.listdir("/proc/self/fd"))
        return None

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_equals_serial(self, monkeypatch, cpus):
        """The tally of the reference runs, {(row, xi, owner count,
        passes): runs}, and of the serial rows, for every run count up to
        7, fewer runs than blocks among them, with rows of one (runs,
        master_seed) and of their own; configs of one xi still share one
        group of counts."""
        rows = [(ng.star(12), [GameConfig(SGG, 1),
                               GameConfig(SGG, 1, b=3, p=2)]),
                (ng.chain(15), [GameConfig(SGG, 2)]),
                (ng.karate(), [GameConfig(SGG_AC, 1, xi=xi)
                               for xi in (1, 2, 5, 10, 20)]
                 + [GameConfig(SGG_AC, 1, a=0.45)]),      # xi = 2 again
                (ng.chain(15), [GameConfig(SGG_AC, 2, xi=2)])]
        @functools.cache
        def end(i, c, seed):
            """(owner count, passes) of the reference run of row i's config
            c on seed."""
            cfg = rows[i][1][c]
            ref = reference_dynamics(rows[i][0], cfg, seed)
            return len(game.owners(cfg, ref.profile)), ref.passes

        for runs in range(1, 8):
            grid = [(g, cfgs, runs, 9) if i < 2 else (g, cfgs, runs + i, i)
                    for i, (g, cfgs) in enumerate(rows)]
            monkeypatch.setattr(dynamics, "_cpus", lambda: 1)
            serial = row_by_row(grid)
            monkeypatch.setattr(dynamics, "_cpus", lambda: cpus)
            got = best_response_grid(grid)
            assert got == serial, runs
            assert {key[:2] for key in got} == {
                (i, cfg.xi) for i, (_, cfgs, *_) in enumerate(grid)
                for cfg in cfgs}
            for i, (_, cfgs, row_runs, seed) in enumerate(grid):
                for c, cfg in enumerate(cfgs):
                    assert ends(got, i, cfg.xi) == Counter(
                        end(i, c, derive_seed(seed, r))
                        for r in range(row_runs))
        self.assert_no_children()

    def test_forks_once_per_command(self, monkeypatch, tmp_path):
        """A preset's six experiments share one child at 2 CPUs, and write
        the bytes of the serial command."""
        fork, forks = os.fork, []

        def counted():
            pid = fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        outs = []
        for cpus in (2, 1):
            monkeypatch.setattr(dynamics, "_cpus", lambda: cpus)
            outs.append(tmp_path / f"t4_{cpus}.csv")
            assert main(["preset", "table4_karate", "--runs", "20",
                         "--out", str(outs[-1])]) == 0
        assert len(forks) == 1
        assert outs[0].read_bytes() == outs[1].read_bytes()
        self.assert_no_children()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_blocks_span_rows(self, monkeypatch, cpus):
        """With more rows than blocks, a block spans rows: 120 rows of 1-3
        runs, each with a master_seed of its own but every fifth, which
        share one, give each row's tallies alone, and so does a call with
        fewer runs than blocks. A block that spans rows of other master
        seeds switches seed streams there. Each call forks once per
        further CPU."""
        rng = random.Random(5)
        kinds = [(ng.star(6), [GameConfig(SGG, 1)]),
                 (ng.chain(7), [GameConfig(SGG_AC, 1, xi=1),
                                GameConfig(SGG_AC, 1, xi=3)]),
                 (ng.karate(), [GameConfig(SGG_AC, 2, xi=2)])]
        rows = []
        for i in range(120):
            g, cfgs = kinds[rng.randrange(3)]
            runs = rng.randint(1, 3)
            rows.append((g, cfgs, 3, 1) if i % 5 == 0 else
                        (g, cfgs, runs, i))
        assert len(rows) > dynamics._BLOCKS
        # The master seed of each run, run after run, and of each block.
        streams = [seed for *_, runs, seed in rows for _ in range(runs)]
        total = len(streams)
        assert any(len(set(streams[total * b // dynamics._BLOCKS:
                                   total * (b + 1) // dynamics._BLOCKS])) > 1
                   for b in range(dynamics._BLOCKS))
        monkeypatch.setattr(dynamics, "_cpus", lambda: 1)
        singles = row_by_row(rows)
        fork, forks = os.fork, []

        def counted():
            pid = fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setattr(dynamics, "_cpus", lambda: cpus)
        assert best_response_grid(rows) == singles
        assert len(forks) == cpus - 1
        assert sum(runs for *_, runs, _ in rows[:7]) < dynamics._BLOCKS
        assert best_response_grid(rows[:7]) == {
            key: m for key, m in singles.items() if key[0] < 7}
        assert len(forks) == 2 * (cpus - 1)
        self.assert_no_children()

    @pytest.mark.parametrize("call, cpus, fails", [
        ("fork", 2, 1), ("fork", 3, 1), ("fork", 3, 2),
        ("pipe", 3, 2), ("pipe", 3, 3)])
    def test_fork_failure(self, monkeypatch, call, cpus, fails):
        """An os.fork or a child's os.pipe that fails (on call number
        fails; os.pipe's first call is the token pipe) stops the forking:
        the processes already running deal the remaining blocks, with the
        serial tallies, and no fd or child is left."""
        rows = [(ng.karate(), [GameConfig(SGG_AC, 1, xi=xi)
                               for xi in (1, 2, 5)], 9, 0),
                (ng.star(7), [GameConfig(SGG, 1)], 4, 1)]
        monkeypatch.setattr(dynamics, "_cpus", lambda: 1)
        serial = best_response_grid(rows)
        real, calls = getattr(os, call), []

        def failing():
            calls.append(call)
            if len(calls) == fails:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real()

        monkeypatch.setattr(os, call, failing)
        monkeypatch.setattr(dynamics, "_cpus", lambda: cpus)
        fds = self.open_fds()
        assert best_response_grid(rows) == serial
        assert len(calls) == fails
        self.assert_no_children()
        assert self.open_fds() == fds

    def test_preset_when_fork_fails(self, monkeypatch, tmp_path):
        """A preset at 2 CPUs whose every fork fails exits 0 with the bytes
        of one CPU, and leaves no fd or child."""
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        def preset(out):
            return main(["preset", "table4_karate", "--runs", "20",
                         "--out", str(out)])

        monkeypatch.setattr(dynamics, "_cpus", lambda: 1)
        assert preset(tmp_path / "one_cpu.csv") == 0
        monkeypatch.setattr(dynamics, "_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        fds = self.open_fds()
        assert preset(tmp_path / "no_fork.csv") == 0
        assert self.open_fds() == fds
        assert (tmp_path / "one_cpu.csv").read_bytes() == \
            (tmp_path / "no_fork.csv").read_bytes()
        self.assert_no_children()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_child_error(self, monkeypatch, cpus):
        """A RuntimeError in a child's block reaches the caller with its
        message, and no child is left."""
        def fail():
            raise RuntimeError(f"failed in process {os.getpid()}")

        fds = self.children_start(monkeypatch, fail)
        monkeypatch.setattr(dynamics, "_cpus", lambda: cpus)
        with pytest.raises(RuntimeError, match=r"^failed in process \d+$"
                           ) as exc:
            best_response_grid([(ng.karate(), [GameConfig(SGG_AC, 1, xi=2)],
                                 6, 0)])
        assert str(exc.value) != f"failed in process {os.getpid()}"
        self.assert_no_children()
        for fd in fds:
            os.close(fd)

    @pytest.mark.parametrize("how, status", [("exit", "3"), ("kill", "-9")])
    def test_child_death(self, monkeypatch, how, status):
        """A child that dies without reporting is a RuntimeError that names
        its exit status."""
        def die():
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)

        fds = self.children_start(monkeypatch, die)
        with pytest.raises(RuntimeError,
                           match=f"exited with status {status}$"):
            best_response_grid([(ng.star(5), [GameConfig(SGG, 1)], 2, 0)])
        self.assert_no_children()
        for fd in fds:
            os.close(fd)

    def test_parent_error_kills_children(self, monkeypatch):
        """When one of this process's blocks fails, it kills its children
        rather than wait for them."""
        parent, trajectories = os.getpid(), dynamics._trajectories

        def failing(g, cfgs, seeds):
            if os.getpid() == parent:
                raise RuntimeError("parent failed")
            time.sleep(60)
            return trajectories(g, cfgs, seeds)

        monkeypatch.setattr(dynamics, "_trajectories", failing)
        monkeypatch.setattr(dynamics, "_cpus", lambda: 3)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^parent failed$"):
            best_response_grid([(ng.star(5), [GameConfig(SGG, 1)], 6, 0)])
        assert time.monotonic() - start < 30
        self.assert_no_children()

    def test_stdout_written_once(self):
        """Text buffered in sys.stdout before the rows, with stdout a pipe,
        is written once: children leave without flushing it or running
        atexit hooks."""
        script = (
            "import atexit, sys\n"
            "from sharegoods import dynamics, netgraph\n"
            "from sharegoods.game import GameConfig, SGG_AC\n"
            "dynamics._cpus = lambda: 3\n"
            "atexit.register(print, 'atexit')\n"
            "print('before the rows')\n"
            "dynamics.best_response_grid([(\n"
            "    netgraph.karate(), [GameConfig(SGG_AC, 1, xi=2)], 7, 0)])\n"
            "print('after the rows')\n")
        src = Path(dynamics.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "before the rows\nafter the rows\natexit\n"
