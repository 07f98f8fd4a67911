from collections import Counter

import pytest

from klbasis.coxeter import all_reduced_subwords, group_from_name
from klbasis.klbase import KLStore, build_wgraph, check_mu_carry, extremal_pairs
from klbasis.ring import W, CoefficientOverflowError, QPoly

ONE = QPoly.one()
ZERO = QPoly.zero()


class TestKLPolynomial:
    def test_diagonal_and_incomparable(self, stores):
        store = stores("A3")
        g = store.g
        for y in range(0, g.size, 3):
            assert store.kl_polynomial(y, y) == ONE
        # two distinct elements of equal length are incomparable
        same_len = [x for x in range(g.size) if g.lengths[x] == 2]
        assert store.kl_polynomial(same_len[0], same_len[1]) == ZERO

    def test_dihedral_all_one(self, stores):
        for name in ("I2(5)", "I2(8)"):
            store = stores(name)
            g = store.g
            for y in range(g.size):
                for x in range(g.size):
                    expected = ONE if g.bruhat_leq(x, y) else ZERO
                    assert store.kl_polynomial(x, y) == expected

    def test_a3_reaches_one_plus_q(self, stores):
        polys = stores("A3").distinct_polynomials()
        assert QPoly((1, 1)) in polys
        assert polys[0] == ONE

    def test_inverse_symmetry_exhaustive(self, stores):
        for name in ("A3", "B3", "H3"):
            store = stores(name)
            g = store.g
            for y in range(g.size):
                for x in range(g.size):
                    assert store.kl_polynomial(x, y) == store.kl_polynomial(
                        g.inv[x], g.inv[y]
                    )

    def test_degree_bound_and_nonnegativity(self, stores):
        store = stores("H3")
        store.build_all()
        g = store.g
        assert not store.negative_pairs
        for x, y, p in store.iter_pairs():
            assert 2 * p.degree() <= g.lengths[y] - g.lengths[x] - 1
            assert p.coeff(0) == 1

    def test_constant_term_one_on_interval(self, stores):
        store = stores("B3")
        g = store.g
        y = g.w0
        for x in range(g.size):
            assert store.kl_polynomial(x, y).coeff(0) == 1


class TestMu:
    def test_covering_pairs(self, stores):
        store = stores("A3")
        g = store.g
        for y in range(g.size):
            for x in g.covers(y):
                assert store.mu(int(x), y) == 1

    def test_even_difference_zero(self, stores):
        store = stores("B3")
        g = store.g
        for y in range(0, g.size, 5):
            for x in range(g.size):
                if (g.lengths[y] - g.lengths[x]) % 2 == 0 and x != y:
                    assert store.mu(x, y) == 0

    def test_dihedral_mu(self, stores):
        store = stores("I2(7)")
        g = store.g
        for y in range(g.size):
            for x in range(g.size):
                expected = int(
                    g.lengths[y] == g.lengths[x] + 1 and g.bruhat_leq(x, y)
                )
                assert store.mu(x, y) == expected


class TestWGraph:
    def test_a1_single_edge(self, wgraphs):
        wg = wgraphs("A1")
        assert list(wg.edges()) == [(0, 1, 1)]

    def test_dihedral_edges_consecutive(self, wgraphs):
        wg = wgraphs("I2(6)")
        g = wg.g
        for x, y, mu in wg.edges():
            assert mu == 1
            assert g.lengths[y] == g.lengths[x] + 1
        count = sum(1 for _ in wg.edges())
        # every covering pair is an edge in a dihedral group
        expected = sum(len(g.covers(y)) for y in range(g.size))
        assert count == expected

    def test_h3_edges_inverse_invariant(self, wgraphs):
        wg = wgraphs("H3")
        g = wg.g
        edges = Counter()
        for x, y, mu in wg.edges():
            edges[(x, y, mu)] += 1
        for (x, y, mu), n in edges.items():
            ix, iy = g.inv[x], g.inv[y]
            assert edges[(ix, iy, mu)] == n

    def test_mu_lists_match_mu(self, stores, wgraphs):
        store = stores("B3")
        wg = wgraphs("B3")
        g = store.g
        for y in range(g.size):
            listed = dict(wg.mu_in(y))
            for x in range(g.size):
                if g.lengths[x] < g.lengths[y]:
                    assert store.mu(x, y) == listed.get(x, 0)


class TestExtremalPairs:
    @staticmethod
    def brute(g):
        """Definition scan: extremal pairs over the columns with y <= y^-1."""
        pairs = set()
        for y in range(g.size):
            if y > g.inv[y]:
                continue
            for x in all_reduced_subwords(g, y):
                if (
                    g.lmask[x] & g.lmask[y]) == g.lmask[y] and (
                    g.rmask[x] & g.rmask[y]) == g.rmask[y]:
                    pairs.add((x, y))
        return pairs

    def test_a1_count(self, groups):
        ep = extremal_pairs(groups("A1"))
        assert ep.count() == 2
        assert sorted(ep) == [(0, 0), (1, 1)]

    @pytest.mark.parametrize("name", ["I2(5)", "A2", "A3", "B3", "I2(8)"])
    def test_against_brute_force(self, groups, name):
        g = groups(name)
        ep = extremal_pairs(g)
        brute = self.brute(g)
        assert set(ep) == brute
        assert ep.count() == len(brute)

    def test_i2_5_count_fixed_by_brute_force(self, groups):
        assert extremal_pairs(groups("I2(5)")).count() == 11

    def test_all_extremal_and_ordered(self, groups):
        g = groups("B3")
        for x, y in extremal_pairs(g):
            assert g.lmask[x] & g.lmask[y] == g.lmask[y]
            assert g.rmask[x] & g.rmask[y] == g.rmask[y]
            assert g.bruhat_leq(x, y)


class ReferenceKLStore:
    """The extremal-pair recursion on QPoly values, one QPoly per pair: the
    reference the packed, interned KLStore must reproduce pair for pair."""

    def __init__(self, g):
        self.g = g
        self.P = {}
        self.mu = {}
        for y in range(g.size):
            self._column(y)

    def kl(self, x, y):
        g = self.g
        if x == y:
            return ONE
        if g.lengths[x] >= g.lengths[y] or not g.bruhat_mask(y) >> x & 1:
            return ZERO
        while x != y:
            free = g.lmask[y] & ~g.lmask[x] or g.rmask[y] & ~g.rmask[x]
            if not free:
                break
            s = (free & -free).bit_length() - 1
            x = g.lmult[x][s] if g.lmask[y] & ~g.lmask[x] else g.rmult[x][s]
        if x == y:
            return ONE
        ix, iy = g.inv[x], g.inv[y]
        return self.P[(ix, iy) if (iy, ix) < (y, x) else (x, y)]

    def mu_list(self, y):
        g = self.g
        if y in self.mu:
            return self.mu[y]
        return tuple(sorted((g.inv[z], mu) for z, mu in self.mu[g.inv[y]]))

    def _column(self, y):
        g = self.g
        if g.inv[y] < y:
            return
        interval = g.bruhat_mask(y)
        extremal = [
            int(x) for x in g.mask_to_ids(interval)
            if g.lmask[x] & g.lmask[y] == g.lmask[y] and g.rmask[x] & g.rmask[y] == g.rmask[y]
        ]
        ly = g.lengths[y]
        if y:
            s = (g.lmask[y] & -g.lmask[y]).bit_length() - 1
            sy = g.lmult[y][s]
            mus = [(z, mu) for z, mu in self.mu_list(sy) if g.lmask[z] >> s & 1]
            for x in extremal:
                if x == y or (g.inv[y] == y and g.inv[x] < x):
                    continue
                p = self.kl(g.lmult[x][s], sy) + self.kl(x, sy).shift(1)
                for z, mu in mus:
                    p = p - (mu * self.kl(x, z)).shift((ly - g.lengths[z]) >> 1)
                self.P[(x, y)] = p
        out = [(int(x), 1) for x in g.mask_to_ids(interval & g.level_mask(ly - 1))]
        for x in extremal:
            d = ly - g.lengths[x]
            if d >= 3 and d % 2:
                mu = self.kl(x, y).coeff((d - 1) >> 1)
                if mu:
                    out.append((x, mu))
        self.mu[y] = tuple(sorted(out))


class TestPackedTable:
    @pytest.mark.parametrize("name", ["H3", "B3", "B4", "A4", "D4", "F4", "I2(7)"])
    def test_matches_qpoly_reference(self, name):
        g = group_from_name(name)
        store = KLStore(g)
        store.build_all()
        ref = ReferenceKLStore(g)
        assert {(x, y): p for x, y, p in store.iter_pairs()} == ref.P
        for y in range(g.size):
            assert store.mu_list(y) == ref.mu_list(y)
        assert not store.negative_pairs
        # interned: pairs with equal P share one int object
        assert len({id(u) for u in store._P.values()}) == len(set(ref.P.values()))

    def test_equal_values_are_one_object(self):
        store = KLStore(group_from_name("A3"))
        polys = store.distinct_polynomials()
        assert polys == [ONE, QPoly((1, 1))]
        # five stored pairs, two of them 1 + q (a big int) and three 1: the
        # diagonal's 1 is stored too, so the objects are as many as the values
        assert len(store._P) == 5
        assert len({id(u) for u in store._P.values()}) == len(polys)

    @staticmethod
    def planted(monkeypatch, target, value):
        """KLStore whose recurrence yields ``value`` (packed) for the pair
        ``target`` = (x, y)."""
        recurrence = KLStore._recurrence

        def planting(self, x, y, *args):
            return value if (x, y) == target else recurrence(self, x, y, *args)

        monkeypatch.setattr(KLStore, "_recurrence", planting)

    @staticmethod
    def pair_at_distance(g, d):
        """The first stored pair (x, y) of the table with l(y) - l(x) = d."""
        store = KLStore(g)
        store.build_all()
        return next((x, y) for x, y, _ in store.iter_pairs() if g.lengths[y] - g.lengths[x] == d)

    @pytest.mark.parametrize("bad", [1 << 63, -(1 << 63) - 1, 1 + (1 << 63 << W)])
    def test_value_outside_64_bits_raises(self, monkeypatch, bad):
        g = group_from_name("B3")
        target = self.pair_at_distance(g, 3)
        self.planted(monkeypatch, target, bad)
        with pytest.raises(CoefficientOverflowError):
            KLStore(g).build_all()

    def test_value_at_64_bit_edge_is_stored(self, monkeypatch):
        g = group_from_name("B3")
        target = self.pair_at_distance(g, 3)
        edge = (1 << 63) - 1 + ((1 << 63) - 1 << W)  # (2^63 - 1)(1 + q)
        self.planted(monkeypatch, target, edge)
        store = KLStore(g)
        assert store.kl_polynomial(*target) == QPoly([(1 << 63) - 1] * 2)
        assert store.mu(*target) == (1 << 63) - 1

    def test_degree_bound_fires(self, monkeypatch):
        g = group_from_name("B3")
        target = self.pair_at_distance(g, 3)
        self.planted(monkeypatch, target, 1 + (1 << 2 * W))  # 1 + q^2, degree 2 > 1
        with pytest.raises(AssertionError, match="degree bound"):
            KLStore(g).build_all()

    def test_negative_pairs_and_mu_positivity_fire(self, monkeypatch):
        g = group_from_name("B3")
        target = self.pair_at_distance(g, 3)
        self.planted(monkeypatch, target, 1 - (1 << W))  # 1 - q
        store = KLStore(g)
        store.build_all()
        assert store.negative_pairs == [target]
        assert store.kl_polynomial(*target) == QPoly([1, -1])
        assert store.mu(*target) == -1
        with pytest.raises(ValueError, match="positivity"):
            build_wgraph(store)

    def test_carry_guard(self):
        limit = 1 << W - 65
        check_mu_carry([])
        check_mu_carry([limit - 3])
        check_mu_carry([1, -(limit // 2 - 3), limit // 2 - 1])
        for mus in ([limit - 2], [-(limit - 2)], [limit // 2, -(limit // 2)]):
            with pytest.raises(CoefficientOverflowError):
                check_mu_carry(mus)
