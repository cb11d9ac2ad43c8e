import random

import pytest

from _oracles import (ball_masks, brute_force_ne_owner_masks,
                      brute_force_sgg_ne_owner_sets, brute_force_sggac_ne_exists,
                      brute_force_sggac_ne_owner_sets, disjoint_union,
                      is_nash, largest_ne_extension, listed_ne_sizes,
                      listing_follower_claims, random_graph,
                      reference_dynamics)
from sharegoods import equilibria, game
from sharegoods import netgraph as ng
from sharegoods.dynamics import (DynamicsResult, _trajectories,
                                best_response_grid, derive_seed)
from sharegoods.equilibria import (_dominating_owner_sets, _follower_claims,
                                   _largest_bound, empirical_cost_stats,
                                   enumerate_ne_owner_sets_sgg,
                                   exact_efficiency, sggac_owner_set_feasible,
                                   sggac_witness_profile)
from sharegoods.game import SGG, SGG_AC, GameConfig
from sharegoods.optimum import cover_masks, min_dominating_exact


def exact_reports(g, cfgs):
    """exact_efficiency for cfgs, handed the optimum at their k and p."""
    return exact_efficiency(g, cfgs,
                            min_dominating_exact(g, cfgs[0].k, p=cfgs[0].p))


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
                    masks = _dominating_owner_sets(cov, xi)
                    assert len(masks) == len(set(masks)) == len(expected)
                    assert {frozenset(i for i in range(g.n) if m >> i & 1)
                            for m in masks} == expected
                    sizes = [len(s) for s in expected]
                    report = exact_reports(g, [cfg])[0]
                    assert report.worst_ne_cost == max(sizes)
                    assert report.best_ne_cost == min(sizes)


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
                    ok = 0 if cfg.variant == SGG else sum(
                        1 << v for v in range(n)
                        if bin(cov[v]).count("1") >= cfg.xi + 2)
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
                                 undominated, cfg.xi)
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
        for cfgs in ([GameConfig(SGG, 1), GameConfig(SGG, 2)],
                     [GameConfig(SGG_AC, 1, xi=2),
                      GameConfig(SGG_AC, 1, p=1.5, xi=2)]):
            with pytest.raises(ValueError):
                exact_reports(ng.star(5), cfgs)


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
        a = empirical_cost_stats(g, [cfg], 50, 7)[0]
        b = empirical_cost_stats(g, [cfg], 50, 7)[0]
        assert a == b

    def test_fields(self):
        g = ng.chain(20)
        cfg = GameConfig(SGG, 1)
        stats = empirical_cost_stats(g, [cfg], 25, 0)[0]
        assert stats.runs == 25
        assert stats.min_cost <= stats.mean_cost <= stats.max_cost
        assert stats.std_cost >= 0
        assert 0 <= stats.mean_passes <= 3

    def test_single_run(self):
        stats = empirical_cost_stats(ng.star(5), [GameConfig(SGG, 1)], 1, 0)[0]
        assert stats.std_cost == 0.0

    def test_runs_guard(self):
        with pytest.raises(ValueError):
            empirical_cost_stats(ng.star(5), [GameConfig(SGG, 1)], 0, 0)

    def test_grid_shares_variant_and_k(self):
        for cfgs in ([GameConfig(SGG, 1), GameConfig(SGG_AC, 1, xi=2)],
                     [GameConfig(SGG_AC, 1, xi=2), GameConfig(SGG_AC, 2, xi=2)]):
            with pytest.raises(ValueError):
                empirical_cost_stats(ng.star(5), cfgs, 2, 0)

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
            results = best_response_grid(g, cfgs, seeds)
            assert len(results) == len(cfgs)
            for c, (cfg, (owned, passes)) in enumerate(zip(cfgs, results)):
                assert owned == [len(game.owners(cfg, ref[c].profile))
                                 for ref in refs], (trial, cfg)
                assert passes == [ref[c].passes for ref in refs]
                for other, shared in zip(cfgs, results):
                    assert (shared is results[c]) == (other.xi == cfg.xi)
            grid_stats = empirical_cost_stats(g, cfgs, runs, seed)
            singles = [empirical_cost_stats(g, [cfg], runs, seed)[0]
                       for cfg in cfgs]
            assert grid_stats == singles, (trial, cfgs)
            seen.add((kind, k))
        assert len(seen) == 9
        assert {1, 2} <= split_on          # stars and chains split
