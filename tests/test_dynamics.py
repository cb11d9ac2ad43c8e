import random

import pytest

from _oracles import disjoint_union, is_nash, random_graph, reference_dynamics
from sharegoods import game
from sharegoods import netgraph as ng
from sharegoods.dynamics import (best_response_dynamics, derive_seed,
                                draw_starts, stabilize)
from sharegoods.game import SGG, SGG_AC, GameConfig, VariantError


def find_seed_with_order(n: int, wanted: list[int], limit: int = 100_000) -> int:
    """Seed whose SGG run uses the given sweep order (no draws precede the
    shuffle when the variant is SGG)."""
    for seed in range(limit):
        order = list(range(n))
        random.Random(seed).shuffle(order)
        if order == wanted:
            return seed
    raise AssertionError("no seed found for requested order")


class TestBestResponseDynamics:
    def test_chain3_middle_first(self):
        g = ng.chain(3)
        cfg = GameConfig(SGG, 1)
        seed = find_seed_with_order(3, [1, 0, 2])
        result = best_response_dynamics(g, cfg, seed)
        assert game.owners(cfg, result.profile) == {1}
        assert game.social_cost(g, cfg, result.profile) == 1

    def test_chain3_ascending_order(self):
        g = ng.chain(3)
        cfg = GameConfig(SGG, 1)
        seed = find_seed_with_order(3, [0, 1, 2])
        result = best_response_dynamics(g, cfg, seed)
        assert game.owners(cfg, result.profile) == {0, 2}
        assert game.social_cost(g, cfg, result.profile) == 2

    def test_star_center_first(self):
        g = ng.star(100)
        cfg = GameConfig(SGG, 1)
        for seed in range(10_000):
            order = list(range(100))
            random.Random(seed).shuffle(order)
            if order[0] == 0:
                break
        result = best_response_dynamics(g, cfg, seed)
        assert game.social_cost(g, cfg, result.profile) == 1

    def test_deterministic_given_seed(self):
        g = ng.karate()
        for cfg in (GameConfig(SGG, 2), GameConfig(SGG_AC, 2, xi=3)):
            a = best_response_dynamics(g, cfg, 123)
            b = best_response_dynamics(g, cfg, 123)
            assert a.profile == b.profile
            assert a.passes == b.passes
            assert a.deviations == b.deviations

    def test_always_nash_within_three_passes(self):
        rng = random.Random(5)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 25), rng.random() * 0.5)
            k = rng.randint(1, 3)
            if rng.random() < 0.5:
                cfg = GameConfig(SGG, k)
            else:
                cfg = GameConfig(SGG_AC, k, xi=rng.randint(1, 6))
            result = best_response_dynamics(g, cfg, rng.getrandbits(32))
            assert result.passes <= 3
            assert is_nash(g, cfg, result.profile)

    def test_matches_reference_dynamics(self):
        """Draw for draw the same as the dynamics before the sweep kernel:
        profile, passes, deviations and case counts."""
        rng = random.Random(17)
        seen = set()
        for trial in range(360):
            g = disjoint_union(random_graph(rng, rng.randint(0, 30),
                                            rng.random() * 0.4),
                               isolated=rng.randint(0, 3))
            if trial < 6:
                g = ng.Graph(0, [])
            k = rng.randint(1, 3)
            kind = trial % 3
            if kind == 0:
                cfg = GameConfig(SGG, k)
            elif kind == 1:
                cfg = GameConfig(SGG_AC, k, xi=rng.randint(1, 6))
            else:
                cfg = GameConfig(SGG_AC, k, a=rng.choice((0.3, 0.45, 0.09)))
            seed = rng.getrandbits(64)
            result = best_response_dynamics(g, cfg, seed)
            assert result == reference_dynamics(g, cfg, seed), (trial, cfg)
            seen.add((kind, k))
        assert len(seen) == 9

    def test_case_counters_recorded(self):
        g = ng.karate()
        cfg = GameConfig(SGG_AC, 1, xi=2)
        result = best_response_dynamics(g, cfg, 9)
        assert len(result.case_counts) == result.passes
        assert sum(sum(c) for c in result.case_counts) == result.deviations


class TestStabilize:
    def test_star_single_owner_unchanged(self):
        g = ng.star(100)
        cfg = GameConfig(SGG_AC, 1, xi=2)
        s = stabilize(g, cfg, {0})
        assert game.owners(cfg, s) == {0}
        assert game.social_cost(g, cfg, s) == 1

    def test_two_center_rich_owners_unchanged(self):
        g = ng.two_center_tree(k=1, m=3)
        cfg = GameConfig(SGG_AC, 1, xi=2)
        s = stabilize(g, cfg, {0, 1})
        assert game.owners(cfg, s) == {0, 1}
        assert game.social_cost(g, cfg, s) == 2

    def test_two_center_poor_owner_repair(self):
        g = ng.two_center_tree(k=1, m=3)
        cfg = GameConfig(SGG_AC, 1, xi=5)
        s = stabilize(g, cfg, {0, 1})
        assert is_nash(g, cfg, s)
        assert s[0] == 1                      # first center now rents
        assert game.social_cost(g, cfg, s) == 4

    def test_requires_sggac(self):
        with pytest.raises(VariantError):
            stabilize(ng.star(5), GameConfig(SGG, 1), {0})

    def test_requires_dominating(self):
        g = ng.chain(10)
        cfg = GameConfig(SGG_AC, 1, xi=1)
        with pytest.raises(ValueError):
            stabilize(g, cfg, {0})

    def test_cost_bound_random(self):
        from sharegoods.optimum import min_dominating_exact
        rng = random.Random(21)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 18), rng.random() * 0.5)
            k = rng.randint(1, 3)
            xi = rng.randint(1, 8)
            cfg = GameConfig(SGG_AC, k, xi=xi)
            opt = min_dominating_exact(g, k)
            s = stabilize(g, cfg, opt.owners)
            assert is_nash(g, cfg, s)
            bound = len(opt.owners) * max(1, xi // (k // 2 + 1))
            assert len(game.owners(cfg, s)) <= bound

    def test_disjoint_unions_with_isolated_nodes(self):
        """On two random parts plus isolated nodes, the repaired profile is
        Nash under the oracle, within acceptance 8's cost bound."""
        from sharegoods.optimum import min_dominating_exact
        rng = random.Random(53)
        for _ in range(150):
            n1 = rng.randint(1, 10)
            n2 = rng.randint(0, 10)
            g = disjoint_union(random_graph(rng, n1, rng.random() * 0.6),
                               random_graph(rng, n2, rng.random() * 0.6),
                               isolated=rng.randint(0, 3))
            k = rng.randint(1, 3)
            cfg = GameConfig(SGG_AC, k, xi=rng.randint(1, 8))
            opt = min_dominating_exact(g, k)
            s = stabilize(g, cfg, opt.owners)
            assert is_nash(g, cfg, s), (g.n, g.edges, cfg)
            bound = cfg.p * len(opt.owners) * max(1, cfg.xi // (k // 2 + 1))
            assert game.social_cost(g, cfg, s) <= bound, (g.n, g.edges, cfg)


def test_choice_is_randbelow_index():
    """The dynamics draw seq[rng._randbelow(len(seq))] in place of
    rng.choice(seq); this fails on a Python whose choice draws otherwise."""
    for seed in range(20):
        for size in range(1, 13):
            seq = list(range(100, 100 + size))
            a, b = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert a.choice(seq) == seq[b._randbelow(len(seq))]
            assert a.getstate() == b.getstate()


def test_getrandbits_loop_is_randbelow():
    """The dynamics write rng._randbelow(n) out as a getrandbits loop; this
    fails on a Python whose randbelow draws otherwise."""
    for seed in range(20):
        for n in range(1, 41):
            a, b = random.Random(seed), random.Random(seed)
            getrandbits = b.getrandbits
            for _ in range(5):
                bits = n.bit_length()
                r = getrandbits(bits)
                while r >= n:
                    r = getrandbits(bits)
                assert a._randbelow(n) == r
            assert a.getstate() == b.getstate()


def test_start_order_is_shuffle():
    """`draw_starts` writes rng.shuffle out over getrandbits, in blocks of
    one bit width; an SGG start draws nothing else, so its order and
    generator state must be those of rng.shuffle(list(range(n))). n runs
    past every block edge up to 2**7, and one generator, re-seeded per
    draw, serves every n and seed."""
    cfg = GameConfig(SGG, 1)
    rng = random.Random(99)
    for n in range(121):
        g = ng.Graph(n, [])
        for seed in (0, n, 2 ** 64 - 1 - n):
            expected = random.Random(seed)
            if n < 2:            # no draw: the state right after seeding
                next(draw_starts(g, cfg, [seed], rng))
                assert rng.getstate() == expected.getstate()
            order = list(range(n))
            expected.shuffle(order)
            (s, flw, owners_in, got), = draw_starts(g, cfg, [seed], rng)
            assert got == order, (n, seed)
            assert rng.getstate() == expected.getstate()
            assert s == flw == owners_in == [0] * n


def test_sggac_start_is_choice_then_shuffle():
    """An SGG-AC start draws one rng.choice over each node's ball but
    itself (an isolated node owns) and then rng.shuffle, with the follower
    and owner counts of `game.State` for that profile."""
    rng = random.Random(7)
    for trial in range(60):
        g = disjoint_union(random_graph(rng, rng.randint(0, 25),
                                        rng.random() * 0.4),
                           isolated=trial % 4)
        k = rng.randint(1, 3)
        cfg = GameConfig(SGG_AC, k, xi=rng.randint(1, 6))
        seeds = [rng.getrandbits(64) for _ in range(3)]
        starts = draw_starts(g, cfg, seeds, random.Random())
        for seed, (s, flw, owners_in, order) in zip(seeds, starts):
            expected = random.Random(seed)
            want = []
            for i, ball in enumerate(g.closed_neighborhoods(k)):
                options = [j for j in ball if j != i]
                want.append(expected.choice(options) if options else i)
            want_order = list(range(g.n))
            expected.shuffle(want_order)
            assert (s, order) == (want, want_order), (trial, seed)
            counted = game.State(g, cfg, want)
            assert (flw, owners_in) == (counted.flw, counted.owners_in)


def test_derive_seed_distinct_streams():
    seeds = {derive_seed(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(0, 1) != derive_seed(1, 1)
    assert all(0 <= s < 2 ** 64 for s in seeds)
