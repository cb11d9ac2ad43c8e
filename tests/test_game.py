import math
import random

import pytest

import _oracles
from _oracles import (best_response_set, brute_force_sgg_ne_owner_sets,
                      disjoint_union, is_k_independent_dominating,
                      parse_profile, random_graph, utility)
from sharegoods import game
from sharegoods import netgraph as ng
from sharegoods.dynamics import best_response_dynamics
from sharegoods.game import (SGG, SGG_AC, GameConfig, State, is_in_T, owners,
                             serialize_profile, social_cost)


class TestGameConfig:
    def test_xi_derivation_from_a(self):
        cfg = GameConfig(SGG_AC, 1, b=2, p=1, a=0.4)
        assert cfg.xi == 2  # ceil(1/0.4) - 1 = 2

    def test_a_derivation_from_xi(self):
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
        # An infinite price or benefit is no number of the game.
        for b, p in ((math.inf, 1), (1e400, 1), (math.inf, math.inf)):
            with pytest.raises(ValueError, match="^(benefit|price) "):
                GameConfig(SGG, 1, b=b, p=p)
        with pytest.raises(ValueError, match="^price p must be positive"):
            game.check_k_p(1, math.inf)

    def test_a_so_small_that_p_over_a_overflows(self):
        with pytest.raises(ValueError, match="p/a overflows"):
            GameConfig(SGG_AC, 1, b=2, p=1, a=1e-320)

    def test_xi_beyond_the_largest_float(self):
        with pytest.raises(ValueError, match="^xi must be between 1 and"):
            GameConfig(SGG_AC, 1, b=2, p=1, xi=10 ** 320)

    def test_xi_too_large_for_a_float_a(self):
        """From xi = 2**52 - 1 on, p/(xi + 0.5) rounds to an a whose p/a
        is integral; below, every derived a keeps xi < p/a < xi + 1."""
        for xi in (2 ** 52 - 1, 2 ** 52, 10 ** 20):
            with pytest.raises(ValueError, match=f"^xi = {xi} is too large"):
                GameConfig(SGG_AC, 1, b=2, p=1, xi=xi)
        for e in range(52):
            for xi in (2 ** e - 1, 2 ** e, 2 ** e + 1):
                if xi:
                    cfg = GameConfig(SGG_AC, 1, b=2, p=1, xi=xi)
                    ratio = cfg.p / cfg.a
                    assert ratio != math.ceil(ratio)
                    assert math.ceil(ratio) - 1 == xi

    def test_derived_a_outside_zero_to_p(self):
        # 5e-324/3.5 rounds to 0 and 5e-324/1.5 back to 5e-324.
        for xi in (3, 1):
            with pytest.raises(ValueError, match="breaks 0 < a < p"):
                GameConfig(SGG_AC, 1, b=1, p=5e-324, xi=xi)


class TestFollowers:
    """Hand-counted follower rows for `State.flw`."""

    def test_star_leaves_point_at_center(self):
        g = ng.star(5)
        cfg = GameConfig(SGG_AC, 1, xi=1)
        assert State(g, cfg, [0, 0, 0, 0, 0]).flw == [4, 0, 0, 0, 0]

    def test_empty(self):
        g = ng.chain(3)
        cfg = GameConfig(SGG_AC, 1, xi=1)
        assert State(g, cfg, [0, 1, 2]).flw == [0, 0, 0]

    def test_chain3_mixed(self):
        g = ng.chain(3)
        cfg = GameConfig(SGG_AC, 1, xi=1)
        assert State(g, cfg, [0, 0, 2]).flw == [1, 0, 0]
        state = State(g, cfg, [0, 0, 1])   # owner 2 now follows non-owner 1
        assert state.flw == [1, 1, 0]
        assert state.owners_in == [1, 1, 0]


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
    """Hand-derived rows, checked on the oracle and on `game.is_nash`."""

    @staticmethod
    def is_nash(g, cfg, s):
        expected = _oracles.is_nash(g, cfg, s)
        assert game.is_nash(g, cfg, s) == expected
        return expected

    def test_figure1(self, figure1_graph):
        cfg = GameConfig(SGG, 1)
        assert not self.is_nash(figure1_graph, cfg, [0, 0, 1, 0, 0, 1])  # owners 3,6 adjacent
        assert self.is_nash(figure1_graph, cfg, [1, 1, 0, 1, 1, 0])      # owners 1,2,4,5
        assert self.is_nash(figure1_graph, cfg, [0, 0, 1, 0, 0, 0])      # owner 3

    def test_figure2b(self, figure1_graph):
        # Owners 3 and 6 (0-based 2, 5); 1,2 -> 3 and 4,5 -> 6.
        cfg = GameConfig(SGG_AC, 1, b=2, p=1, xi=2)
        s = [2, 2, 2, 5, 5, 5]
        assert self.is_nash(figure1_graph, cfg, s)
        assert social_cost(figure1_graph, cfg, s) == 2 * cfg.p

    def test_figure2c(self, figure1_graph):
        cfg = GameConfig(SGG_AC, 1, b=2, p=1, xi=2)
        s = [2, 2, 2, 2, 2, 2]
        assert self.is_nash(figure1_graph, cfg, s)
        assert social_cost(figure1_graph, cfg, s) == cfg.p


def assert_valid_targets(g, cfg, s):
    """Every strategy is 0 or 1 (SGG), or a node of the closed k-ball."""
    if cfg.variant == SGG:
        assert set(s) <= {0, 1}, s
    else:
        nbhd = g.closed_neighborhoods(cfg.k)
        assert all(x in nbhd[i] for i, x in enumerate(s)), s


class TestStateRule:
    """`State.sweep`'s rule, moves and counts, and `game.is_nash`, against
    the oracle's money comparisons on seeded random profiles."""

    @staticmethod
    def random_profile(rng, g, cfg, nbhd):
        q = rng.random()
        if cfg.variant == SGG:
            return [int(rng.random() < q) for _ in range(g.n)]
        return [i if rng.random() < q else rng.choice(nbhd[i])
                for i in range(g.n)]

    @staticmethod
    def drawn_list(g, cfg, s, i):
        """What a one-node sweep of i draws from, recovered by sweeping
        fresh copies with getrandbits replaying randbelow's draws 0, 1, ...
        in turn until one is rejected, which happens at the list's length;
        None if i does not move. An SGG move must draw nothing and land on
        1 - s_i, its one best response. Each move must leave the counts of
        a freshly built State. A one-xi state never stops at a node."""
        drawn, bits = [], []
        while True:
            calls = []

            def getrandbits(k):
                calls.append(k)
                r = len(drawn) if len(calls) == 1 else 0
                assert r < 1 << k
                return r
            state = State(g, cfg, list(s))
            cases = [0, 0, 0, 0]
            assert state.sweep([i], getrandbits, cases) == -1
            if not sum(cases):
                assert not calls and state.s == s
                return None
            assert sum(cases) == 1
            assert_valid_targets(g, cfg, state.s)
            fresh = State(g, cfg, list(state.s))
            assert (state.flw, state.owners_in) == (fresh.flw,
                                                    fresh.owners_in)
            assert state.s[:i] + state.s[i + 1:] == s[:i] + s[i + 1:]
            if cfg.variant == SGG:
                assert not calls and state.s[i] == 1 - s[i]
                return [state.s[i]]
            bits.append(calls[0])
            if len(calls) == 2:          # len(drawn) rejected, 0 taken
                assert drawn and state.s[i] == drawn[0]
                assert bits == [len(drawn).bit_length()] * len(bits)
                return drawn
            assert len(calls) == 1
            drawn.append(state.s[i])

    def test_matches_oracle(self):
        rng = random.Random(41)
        seen = set()
        for trial in range(900):
            g = disjoint_union(random_graph(rng, rng.randint(0, 10),
                                            rng.random() * 0.5),
                               isolated=rng.randint(0, 2))
            if trial < 6:
                g = ng.Graph(0, [])
            k = rng.randint(1, 3)
            nbhd = g.closed_neighborhoods(k)
            kind = trial % 3
            if kind == 0:
                cfg = GameConfig(SGG, k)
            elif kind == 1:
                cfg = GameConfig(SGG_AC, k, xi=rng.randint(1, 4))
            else:
                cfg = GameConfig(SGG_AC, k, a=rng.choice((0.3, 0.45, 0.09)))
            if trial % 2:
                # An equilibrium, with up to two nodes moved off it.
                s = best_response_dynamics(g, cfg,
                                           rng.getrandbits(32)).profile
                for i in rng.sample(range(g.n), min(g.n, rng.randint(0, 2))):
                    s[i] = self.random_profile(rng, g, cfg, nbhd)[i]
            else:
                s = self.random_profile(rng, g, cfg, nbhd)
            for i in range(g.n):
                expected = _oracles.best_response_set(g, cfg, s, i)
                got = self.drawn_list(g, cfg, s, i)
                if s[i] in expected:
                    assert got is None, (cfg, s, i)
                else:
                    assert len(got) == len(set(got)), (cfg, s, i)
                    assert set(got) == expected, (cfg, s, i)
            # The check-only sweep mutates nothing.
            state = State(g, cfg, list(s))
            before = (list(state.s), list(state.flw), list(state.owners_in))
            nash = _oracles.is_nash(g, cfg, s)
            assert game.is_nash(g, cfg, s) == nash == (
                state.sweep(range(g.n)) < 0)
            assert (state.s, state.flw, state.owners_in) == before
            seen.add((kind, nash))
        assert len(seen) == 6

    def test_reverting_owner_walks_past_itself(self):
        """An owner that starts renting with two other owners in range:
        node 2 of complete(5) under owners 0, 2 and 4 draws randbelow(2)
        and lands on 0 for r = 0 and on 4 for r = 1, never on itself."""
        g = ng.complete(5)
        cfg = GameConfig(SGG_AC, 1, xi=1)
        s = [0, 0, 2, 4, 4]
        for draws, target in (((0,), 0), ((1,), 4), ((3, 2, 0), 0)):
            calls = []

            def getrandbits(k):
                calls.append(k)
                return draws[len(calls) - 1]
            state = State(g, cfg, list(s))
            cases = [0, 0, 0, 0]
            assert state.sweep([2], getrandbits, cases) == -1
            assert calls == [2] * len(draws) and cases == [0, 0, 0, 1]
            assert state.s == [0, 0, target, 4, 4]
            fresh = State(g, cfg, list(state.s))
            assert (state.flw, state.owners_in) == (fresh.flw,
                                                    fresh.owners_in)


class TestGroupSweep:
    """`State.sweep` for a group of follower thresholds, the smallest xi
    and the largest top, against sweeps of each alone on one stream."""

    @staticmethod
    def instances(seed, count):
        """(g, k, s, order, xi, top, stream seed) on stars, chains and
        random graphs, whose nodes hold followers across [xi, top)."""
        rng = random.Random(seed)
        for trial in range(count):
            n = rng.randint(1, 14)
            g = (ng.star(n), ng.chain(n),
                 random_graph(rng, n, rng.random() * 0.6))[trial % 3]
            k = rng.randint(1, 2)
            nbhd = g.closed_neighborhoods(k)
            q = rng.random()
            s = [i if rng.random() < q else rng.choice(nbhd[i])
                 for i in range(g.n)]
            order = list(range(g.n))
            rng.shuffle(order)
            xi = rng.randint(1, 3)
            yield (g, k, s, order, xi, xi + rng.randint(1, 3),
                   rng.getrandbits(32))

    @staticmethod
    def group(g, k, s, xi, top):
        state = State(g, GameConfig(SGG_AC, k, xi=xi), list(s))
        state.top = top
        return state

    @staticmethod
    def alone(g, k, xi, s, nodes, rng):
        """A one-xi sweep of nodes; it must not stop at any node."""
        cfg = GameConfig(SGG_AC, k, xi=xi)
        state = State(g, cfg, list(s))
        cases = [0, 0, 0, 0]
        assert state.sweep(nodes, rng.getrandbits, cases) == -1
        assert_valid_targets(g, cfg, state.s)
        return state.s, state.flw, state.owners_in, cases

    def test_one_xi_and_check_only_never_stop_early(self):
        """A one-xi sweep runs to the end; a check-only sweep stops at the
        first node off a best response under xi or top, no earlier, and
        mutates nothing."""
        for g, k, s, order, xi, top, seed in self.instances(5, 300):
            off = {}
            for x in (xi, top):
                self.alone(g, k, x, s, order, random.Random(seed))
                cfg = GameConfig(SGG_AC, k, xi=x)
                off[x] = [i for i in order
                          if s[i] not in best_response_set(g, cfg, s, i)]
                assert State(g, cfg, list(s)).sweep(order) == \
                    (off[x] + [-1])[0]
            state = self.group(g, k, s, xi, top)
            before = (list(state.s), list(state.flw), list(state.owners_in))
            either = [i for i in order if i in off[xi] or i in off[top]]
            assert state.sweep(order) == (either + [-1])[0]
            assert (state.s, state.flw, state.owners_in) == before

    def test_stops_at_first_split_unmutated(self):
        """Up to where it stops, a group sweep is the sweep of xi alone and
        of top alone: same profile, counts, cases and stream. The node it
        stops at is the first where their best responses differ."""
        stopped = 0
        for g, k, s, order, xi, top, seed in self.instances(7, 400):
            rng = random.Random(seed)
            state = self.group(g, k, s, xi, top)
            cases = [0, 0, 0, 0]
            i = state.sweep(order, rng.getrandbits, cases)
            pos = order.index(i) if i >= 0 else g.n
            for x in (xi, top):
                alone_rng = random.Random(seed)
                assert self.alone(g, k, x, s, order[:pos], alone_rng) == \
                    (state.s, state.flw, state.owners_in, cases)
                assert alone_rng.getstate() == rng.getstate()
            if i >= 0:
                stopped += 1
                assert best_response_set(
                    g, GameConfig(SGG_AC, k, xi=xi), state.s, i) != \
                    best_response_set(g, GameConfig(SGG_AC, k, xi=top),
                                      state.s, i)
        assert stopped >= 50

    def test_resumed_parts_sweep_as_alone(self):
        """At a stop the xi values up to flw[i] buy and the others rent:
        each part, resumed at i from the stop's stream state, ends where
        its xi's own sweep ends."""
        resumed = 0
        for g, k, s, order, xi, top, seed in self.instances(9, 400):
            rng = random.Random(seed)
            renters = self.group(g, k, s, xi, top)
            cases = [0, 0, 0, 0]
            i = renters.sweep(order, rng.getrandbits, cases)
            if i < 0:
                continue
            resumed += 1
            assert xi <= renters.flw[i] < top
            snapshot = rng.getstate()
            buyers = renters.copy()
            buyers.top = xi
            renters.xi = top
            for state, x in ((buyers, xi), (renters, top)):
                rng.setstate(snapshot)
                part = cases[:]
                assert state.sweep(order[order.index(i):], rng.getrandbits,
                                   part) == -1
                alone_rng = random.Random(seed)
                assert self.alone(g, k, x, s, order, alone_rng) == \
                    (state.s, state.flw, state.owners_in, part)
                assert alone_rng.getstate() == rng.getstate()
        assert resumed >= 50


@pytest.mark.parametrize("bad", [-1, -3, 3, 5])
def test_dominating_rejects_ids_outside_graph(bad):
    """An id outside 0..n-1 is an error: a negative one would index the
    balls from the end, and [1, -2] would pass as dominating chain(3)."""
    with pytest.raises(ValueError, match=f"node id {bad} is not in 0..2"):
        game.is_distance_k_dominating(ng.chain(3), 1, [1, bad])


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
    with pytest.raises(ValueError, match="^line 3: duplicate node id$"):
        parse_profile("0 1\n1 0\n0 0\n")
    with pytest.raises(ValueError, match="^line 2: non-integer token$"):
        parse_profile("0 1\n1 x\n")
    # Only ASCII digits, though int() reads all of these (1_0 as 10).
    for bad in ("1_0 0", "+1 0", "\u0661 0", "1 +0", "1 -1", "-0 0"):
        with pytest.raises(ValueError, match="^line 2: non-integer token$"):
            parse_profile(f"0 0\n{bad}\n10 0\n")


def test_owners_helper():
    cfg = GameConfig(SGG, 1)
    assert owners(cfg, [1, 0, 1]) == {0, 2}
    cfg2 = GameConfig(SGG_AC, 1, xi=1)
    assert owners(cfg2, [0, 0, 1]) == {0}
