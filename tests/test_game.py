import random

import pytest

from _oracles import (brute_force_sgg_ne_owner_sets, disjoint_union,
                      random_graph)
from sharegoods import game
from sharegoods import netgraph as ng
from sharegoods.game import (SGG, SGG_AC, GameConfig, VariantError,
                             best_response_set, followers, is_in_T,
                             is_k_independent_dominating, is_nash, owners,
                             parse_profile, serialize_profile, social_cost,
                             utility)


class TestGameConfig:
    def test_xi_derivation_from_a(self):
        cfg = GameConfig(SGG_AC, 1, b=2, p=1, a=0.4)
        assert cfg.xi == 2  # ceil(1/0.4) - 1 = 2

    def test_a_derivation_from_xi(self):
        import math
        for xi in (1, 2, 5, 10, 20):
            cfg = GameConfig(SGG_AC, 1, b=2, p=1, xi=xi)
            assert math.ceil(cfg.p / cfg.a) - 1 == xi
            assert 0 < cfg.a < cfg.p

    def test_validation(self):
        with pytest.raises(ValueError):
            GameConfig(SGG, 1, b=1, p=1)
        with pytest.raises(ValueError):
            GameConfig(SGG, 0)
        with pytest.raises(ValueError):
            GameConfig(SGG_AC, 1)  # needs a or xi
        with pytest.raises(ValueError):
            GameConfig(SGG_AC, 1, a=0.4, xi=2)
        with pytest.raises(ValueError):
            GameConfig(SGG_AC, 1, b=2, p=1, a=0.5)  # p/a integral
        with pytest.raises(ValueError):
            GameConfig(SGG, 1, a=0.4)


class TestFollowers:
    def test_star_leaves_point_at_center(self):
        g = ng.star(5)
        cfg = GameConfig(SGG_AC, 1, xi=1)
        s = [0, 0, 0, 0, 0]
        assert followers(g, cfg, s, 0) == {1, 2, 3, 4}

    def test_empty(self):
        g = ng.chain(3)
        cfg = GameConfig(SGG_AC, 1, xi=1)
        s = [0, 1, 2]
        for i in range(3):
            assert followers(g, cfg, s, i) == set()

    def test_chain3_mixed(self):
        g = ng.chain(3)
        cfg = GameConfig(SGG_AC, 1, xi=1)
        s = [0, 0, 2]
        assert followers(g, cfg, s, 0) == {1}
        assert followers(g, cfg, s, 2) == set()

    def test_variant_error(self):
        g = ng.chain(3)
        with pytest.raises(VariantError):
            followers(g, GameConfig(SGG, 1), [0, 0, 0], 0)


class TestUtility:
    def test_sgg_rows(self):
        g = ng.chain(3)
        cfg = GameConfig(SGG, 1, b=2, p=1)
        assert utility(g, cfg, [0, 1, 0], 1) == 1       # buy
        assert utility(g, cfg, [0, 1, 0], 0) == 2       # free ride
        assert utility(g, cfg, [1, 0, 0], 2) == 0       # no access

    def test_sggac_rows(self):
        g = ng.star(5)
        cfg = GameConfig(SGG_AC, 1, b=2, p=1, a=0.4)
        s = [0, 0, 0, 0, 4]   # center buys, 3 followers, node 4 buys
        assert utility(g, cfg, s, 0) == pytest.approx(2.2)
        assert utility(g, cfg, s, 1) == pytest.approx(1.6)
        s2 = [2, 0, 0, 0, 0]  # node 0 points at 2, which is not an owner
        assert utility(g, cfg, s2, 0) == 0.0


class TestTAndCost:
    def test_star_center_owner(self):
        g = ng.star(10)
        cfg = GameConfig(SGG, 1)
        s = [1] + [0] * 9
        assert is_in_T(g, cfg, s)
        assert social_cost(g, cfg, s) == cfg.p

    def test_chain_nobody_owns(self):
        g = ng.chain(3)
        cfg = GameConfig(SGG, 1)
        assert not is_in_T(g, cfg, [0, 0, 0])
        with pytest.raises(ValueError):
            social_cost(g, cfg, [0, 0, 0])

    def test_sggac_pointing_at_non_owner(self):
        g = ng.chain(3)
        cfg = GameConfig(SGG_AC, 1, xi=1)
        # node 0 points at node 1, which rents from node 2
        assert not is_in_T(g, cfg, [1, 2, 2])
        assert is_in_T(g, cfg, [1, 1, 2])

    def test_figure1_costs(self, figure1_graph):
        cfg = GameConfig(SGG, 1)
        s_b = [1, 1, 0, 1, 1, 0]   # owners {1,2,4,5} 1-based = {0,1,3,4}
        assert social_cost(figure1_graph, cfg, s_b) == 4 * cfg.p
        s_c = [0, 0, 1, 0, 0, 0]   # owner {3} 1-based = {2}
        assert social_cost(figure1_graph, cfg, s_c) == cfg.p

    def test_all_own(self):
        g = ng.chain(4)
        cfg = GameConfig(SGG, 1)
        assert social_cost(g, cfg, [1, 1, 1, 1]) == 4 * cfg.p

    def test_matches_definition(self):
        rng = random.Random(7)
        seen = set()
        for trial in range(400):
            g = disjoint_union(random_graph(rng, rng.randint(0, 12),
                                            rng.random() * 0.4),
                               isolated=rng.randint(0, 2))
            if trial < 2:
                g = ng.Graph(0, [])
            k = rng.randint(1, 3)
            nbhd = g.closed_neighborhoods(k)
            q = rng.random()
            if trial % 2:
                cfg = GameConfig(SGG_AC, k, xi=2)
                s = [i if rng.random() < q else rng.choice(nbhd[i])
                     for i in range(g.n)]
                expected = all(x == i or s[x] == x for i, x in enumerate(s))
                n_owners = sum(1 for i, x in enumerate(s) if x == i)
            else:
                cfg = GameConfig(SGG, k)
                s = [int(rng.random() < q) for _ in range(g.n)]
                expected = all(any(s[j] == 1 for j in nbhd[i])
                               for i in range(g.n))
                n_owners = sum(s)
            assert is_in_T(g, cfg, s) == expected
            seen.add((cfg.variant, expected))
            if expected:
                assert social_cost(g, cfg, s) == cfg.p * n_owners
            else:
                with pytest.raises(ValueError):
                    social_cost(g, cfg, s)
        assert len(seen) == 4


class TestBestResponse:
    def test_sgg_no_owner_in_range(self):
        g = ng.chain(3)
        cfg = GameConfig(SGG, 1)
        assert best_response_set(g, cfg, [0, 0, 0], 0) == {1}

    def test_sgg_owner_in_range(self):
        g = ng.chain(3)
        cfg = GameConfig(SGG, 1)
        assert best_response_set(g, cfg, [0, 1, 0], 0) == {0}

    def test_sggac_buy_beats_rent_with_followers(self):
        # xi=2, node followed by 3 others, one owner in range: buy wins.
        g = ng.star(6)
        cfg = GameConfig(SGG_AC, 1, b=2, p=1, a=0.4)
        s = [5, 0, 0, 0, 4, 5]   # node 0 followed by 1,2,3; owners: 4? no; 5
        # owners: node 4 points at 4? s[4]=4 -> owner; node 5 owner.
        assert s[4] == 4 and s[5] == 5
        brs = best_response_set(g, cfg, s, 0)
        assert brs == {0}  # 2.2 > 1.6

    def test_sggac_tied_rents(self):
        g = ng.complete(4)
        cfg = GameConfig(SGG_AC, 1, b=2, p=1, a=0.4)
        s = [1, 1, 2, 1]   # owners {1, 2}; node 0 unfollowed
        brs = best_response_set(g, cfg, s, 0)
        assert brs == {1, 2}


class TestIsNash:
    def test_figure1(self, figure1_graph):
        cfg = GameConfig(SGG, 1)
        assert not is_nash(figure1_graph, cfg, [0, 0, 1, 0, 0, 1])  # owners 3,6 adjacent
        assert is_nash(figure1_graph, cfg, [1, 1, 0, 1, 1, 0])      # owners 1,2,4,5
        assert is_nash(figure1_graph, cfg, [0, 0, 1, 0, 0, 0])      # owner 3

    def test_figure2b(self, figure1_graph):
        # Owners 3 and 6 (0-based 2, 5); 1,2 -> 3 and 4,5 -> 6.
        cfg = GameConfig(SGG_AC, 1, b=2, p=1, xi=2)
        s = [2, 2, 2, 5, 5, 5]
        assert is_nash(figure1_graph, cfg, s)
        assert social_cost(figure1_graph, cfg, s) == 2 * cfg.p

    def test_figure2c(self, figure1_graph):
        cfg = GameConfig(SGG_AC, 1, b=2, p=1, xi=2)
        s = [2, 2, 2, 2, 2, 2]
        assert is_nash(figure1_graph, cfg, s)
        assert social_cost(figure1_graph, cfg, s) == cfg.p


class TestKIndependentDominating:
    def test_figure1_sets(self, figure1_graph):
        assert is_k_independent_dominating(figure1_graph, 1, {2})
        assert not is_k_independent_dominating(figure1_graph, 1, {2, 5})

    def test_chain100_every_third(self):
        g = ng.chain(100)
        owner_set = set(range(0, 100, 3))
        assert len(owner_set) == 34
        assert is_k_independent_dominating(g, 1, owner_set)


def test_sgg_ne_iff_k_independent_dominating_small():
    rng = random.Random(11)
    cfg = GameConfig(SGG, 1)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        expected = brute_force_sgg_ne_owner_sets(g, cfg)
        for mask in range(1 << g.n):
            owner_set = frozenset(i for i in range(g.n) if (mask >> i) & 1)
            assert (owner_set in expected) == \
                is_k_independent_dominating(g, cfg.k, set(owner_set))


def test_profile_serialization_roundtrip():
    s = [0, 2, 2, 5, 5, 5]
    text = serialize_profile(s)
    assert text.splitlines()[0] == "0 0"
    assert parse_profile(text) == s
    with pytest.raises(ValueError):
        parse_profile("0 1\n2 0")


def test_owners_helper():
    cfg = GameConfig(SGG, 1)
    assert owners(cfg, [1, 0, 1]) == {0, 2}
    cfg2 = GameConfig(SGG_AC, 1, xi=1)
    assert owners(cfg2, [0, 0, 1]) == {0}
