import hashlib
import os
import pickle
import re
from bisect import bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klbasis.checks import check_p1
from klbasis.coxeter import group_from_name
from klbasis import klbase
from klbasis.klbase import (
    KLStore,
    WGraph,
    build_wgraph,
    check_mu_carry,
    extremal_pairs,
    load_wgraph,
    save_wgraph,
)
from klbasis.ring import W, CoefficientOverflowError, QPoly

from oracles import (
    all_reduced_subwords,
    bruhat_leq,
    kl_mu,
    packed,
    recurrence,
    scalar_covers,
    stored_mu_in,
    table_problems,
)

SMALL_PRESETS = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "F4", "H3",
    "I2(2)", "I2(5)", "I2(8)", "I2(13)",
]

ONE = QPoly.one()
ZERO = QPoly.zero()


class TestKLPolynomial:
    def test_diagonal_and_incomparable(self, stores):
        store = stores("A3")
        g = store.g
        for y in range(0, g.size, 3):
            assert store.kl_polynomials([y], y) == [ONE]
        # two distinct elements of equal length are incomparable
        same_len = [x for x in range(g.size) if g.lengths[x] == 2]
        assert store.kl_polynomials([same_len[0]], same_len[1]) == [ZERO]

    def test_dihedral_all_one(self, stores):
        for name in ("I2(5)", "I2(8)"):
            store = stores(name)
            g = store.g
            for y in range(g.size):
                expected = [ONE if bruhat_leq(g, x, y) else ZERO for x in range(g.size)]
                assert store.kl_polynomials(range(g.size), y) == expected

    def test_a3_reaches_one_plus_q(self, stores):
        polys = stores("A3").distinct_polynomials()
        assert QPoly((1, 1)) in polys
        assert polys[0] == ONE

    def test_inverse_symmetry_exhaustive(self, stores):
        for name in ("A3", "B3", "H3"):
            store = stores(name)
            g = store.g
            for y in range(g.size):
                assert store.kl_polynomials(range(g.size), y) == store.kl_polynomials(
                    [g.inv[x] for x in range(g.size)], g.inv[y]
                )

    def test_degree_bound_and_nonnegativity(self, stores):
        store = stores("H3")
        store.build_all()
        g = store.g
        assert check_p1(store).passed
        for x, y, p in store.iter_pairs():
            assert 2 * p.degree() <= g.lengths[y] - g.lengths[x] - 1
            assert p.coeff(0) == 1

    def test_constant_term_one_on_interval(self, stores):
        store = stores("B3")
        g = store.g
        y = g.w0
        assert all(p.coeff(0) == 1 for p in store.kl_polynomials(range(g.size), y))


class TestMu:
    def test_covering_pairs(self, stores):
        store = stores("A3")
        g = store.g
        for y in range(g.size):
            for x in g.covers(y):
                assert kl_mu(store, int(x), y) == 1

    def test_even_difference_zero(self, stores):
        store = stores("B3")
        g = store.g
        for y in range(0, g.size, 5):
            for x in range(g.size):
                if (g.lengths[y] - g.lengths[x]) % 2 == 0 and x != y:
                    assert kl_mu(store, x, y) == 0

    def test_dihedral_mu(self, stores):
        store = stores("I2(7)")
        g = store.g
        for y in range(g.size):
            for x in range(g.size):
                expected = int(
                    g.lengths[y] == g.lengths[x] + 1 and bruhat_leq(g, x, y)
                )
                assert kl_mu(store, x, y) == expected


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
                    assert kl_mu(store, x, y) == listed.get(x, 0)


    def test_lists_are_taken_unchecked(self, wgraphs):
        """A mu = 0 edge passes WGraph(g, lists), which checks nothing;
        build_wgraph refuses it, planted in the store's edge arrays."""
        wg = wgraphs("B3")
        z, y, _ = next(e for e in wg.edges() if e[1] > 10)
        lists = [tuple((w, 0 if w == z else m) for w, m in edges) if i == y else edges
                 for i, edges in enumerate(wg.mu_lists)]
        assert (z, y, 0) in WGraph(wg.g, lists).edges()
        store = KLStore(wg.g)
        store.build_all()
        a, b = store._offsets[y], store._offsets[y + 1]
        store._edge_mu[a + np.flatnonzero(store._edge_z[a:b] == z)] = 0
        with pytest.raises(ValueError, match=rf"nonpositive mu\({z},{y}\) = 0"):
            build_wgraph(store)

    @pytest.mark.parametrize("name", ["A3", "H3"])
    def test_pickle_round_trip(self, wgraphs, name):
        """A pickled graph comes back equal, without its tables, which it
        rebuilds equal, one int object per element again, and its group
        comes back with equal tables."""
        wg = wgraphs(name)
        wg.tables
        data = pickle.dumps(wg)
        assert b"DescentTables" not in data
        copy = pickle.loads(data)
        assert "tables" not in vars(copy)
        assert copy.g.matrix.entries == wg.g.matrix.entries
        assert all(np.array_equal(a, b) for a, b in zip(copy.g.arrays, wg.g.arrays))
        for a, b in zip(csr_of(copy), csr_of(wg)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert copy.mu_lists == wg.mu_lists
        assert copy.tables == wg.tables
        assert table_problems(copy) == []

    @pytest.mark.parametrize("name", SMALL_PRESETS)
    def test_tables_match_the_oracles(self, wgraphs, name):
        """The per-descent tables hold the descent-filtered edges, the
        cheapest descent and the mu bounds of the oracles, each element as
        one shared int."""
        assert table_problems(wgraphs(name)) == []

    def test_tables_of_a_planted_graph(self, wgraphs):
        """mu-values other than one, negative or larger, go to ``others``
        and into the bounds."""
        base = wgraphs("H3")
        wg = WGraph(base.g, [tuple((z, (-1) ** z * (1 + (z + y) % 3)) for z, mu in edges)
                             for y, edges in enumerate(base.mu_lists)])
        assert table_problems(wg) == []
        assert wg.tables.max_mu == 3 and any(map(any, wg.tables.others))

    @pytest.mark.skipif(not os.environ.get("RUN_H4_EXTENDED"),
                        reason="H4 P table and W-graph: about 11 s; set RUN_H4_EXTENDED=1")
    def test_tables_match_the_oracles_h4(self, groups):
        assert table_problems(build_wgraph(KLStore(groups("H4")))) == []


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
            assert bruhat_leq(g, x, y)


class ReferenceKLStore:
    """The extremal-pair recursion on QPoly values, one QPoly per pair: the
    reference the packed, interned KLStore must reproduce pair for pair."""

    def __init__(self, g):
        self.g = g
        self.P = {}
        self.mu = {}
        self.covers = scalar_covers(g)
        for y in range(g.size):
            self._column(y)

    def kl(self, x, y):
        g = self.g
        if x == y:
            return ONE
        if not bruhat_leq(g, x, y):
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
        extremal = [
            x for x in range(y + 1)
            if g.lmask[x] & g.lmask[y] == g.lmask[y] and g.rmask[x] & g.rmask[y] == g.rmask[y]
            and bruhat_leq(g, x, y)
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
        out = [(x, 1) for x in self.covers[y]]
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
        wg = build_wgraph(store)
        for y in range(g.size):
            assert wg.mu_in(y) == ref.mu_list(y)
        ref_csr = klbase._csr([ref.mu_list(y) for y in range(g.size)])
        for a, b in zip(csr_of(wg), ref_csr):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert check_p1(store).passed
        # interned: pairs with equal P share one int object
        assert len({id(u) for u in store._vals}) == len(set(ref.P.values()))

    @pytest.mark.parametrize("name", ["H3", "B4", "D4"])
    def test_longer_mu_lists_build_on_demand(self, stores, name):
        """After build_upto(k), a query of a longer y builds its level, and
        the mu list of y in the store's arrays equals the full build's, as
        do the lists built before it."""
        full = stores(name)
        full.build_all()
        g = full.g
        k = g.lengths[g.w0] // 2
        store = KLStore(g)
        store.build_upto(k)
        # a y > y^-1 two levels up, whose list mirrors that of y^-1
        y = next(y for y in range(g.size) if g.lengths[y] == k + 2 and y > g.inv[y])
        store.kl_polynomials([y], y)
        assert store._next_column == bisect_right(g.lengths, g.lengths[y])
        wg = build_wgraph(full)
        assert stored_mu_in(store, y) == wg.mu_in(y)
        for w in range(store._next_column):
            assert stored_mu_in(store, w) == wg.mu_in(w)

    def test_equal_values_are_one_object(self):
        store = KLStore(group_from_name("A3"))
        polys = store.distinct_polynomials()
        assert polys == [ONE, QPoly((1, 1))]
        # five stored pairs, two of them 1 + q (a big int) and three 1: the
        # diagonal's 1 is stored too, so the objects are as many as the values
        assert len(store._keys) == len(store._vals) == 5
        assert len({id(u) for u in store._vals}) == len(polys)

    @pytest.mark.parametrize("name", ["H3", "B4", "F4"])
    def test_each_column_recurses_on_the_engines_descent(self, monkeypatch, name):
        """The P build recurses at each canonical y on the descent the
        column engine takes at y, ``tables.cheapest[y]``: one rule for
        both recursions."""
        g = group_from_name(name)
        sums, taken = KLStore._sums, {}

        def recording(self, batch):
            for y, sy in zip(batch.y.tolist(), batch.sy.tolist()):
                taken.setdefault(y, set()).add(g.lmult[y].index(sy))
            return sums(self, batch)

        monkeypatch.setattr(KLStore, "_sums", recording)
        cheapest = build_wgraph(KLStore(g)).tables.cheapest
        # every canonical y with a stored pair: an x < y whose left and
        # right descent sets contain y's
        assert sorted(taken) == [
            y for y in range(g.size) if y <= g.inv[y] and any(
                g.lmask[x] & g.lmask[y] == g.lmask[y] and g.rmask[x] & g.rmask[y] == g.rmask[y]
                and bruhat_leq(g, x, y) for x in range(y))]
        assert {y: s for y, s in taken.items() if s != {cheapest[y]}} == {}

    @staticmethod
    def planted(monkeypatch, target, value):
        """KLStore whose batch sums hold ``value`` (packed) for the pair
        ``target`` = (x, y); planting again plants one more pair."""
        sums = KLStore._sums

        def planting(self, batch):
            out = sums(self, batch)
            out[(batch.x == target[0]) & (batch.y == target[1])] = value
            return out

        monkeypatch.setattr(KLStore, "_sums", planting)

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
        assert store.kl_polynomials(target[:1], target[1]) == [QPoly([(1 << 63) - 1] * 2)]
        assert kl_mu(store, *target) == (1 << 63) - 1

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
        x, y = target
        assert check_p1(store).counterexamples == [
            f"P({x},{y}) = 1 - q has a negative coefficient"
        ]
        assert store.kl_polynomials(target[:1], target[1]) == [QPoly([1, -1])]
        assert kl_mu(store, *target) == -1
        with pytest.raises(ValueError, match="positivity"):
            build_wgraph(store)

    @staticmethod
    def two_columns_of_one_batch(g):
        """Pairs (x1, y1) and (x2, y2) at distance 3, y1 < y2 two columns
        of one length that the build computes in one batch."""
        store = KLStore(g)
        store.build_all()
        first = {}
        for x, y, _ in store.iter_pairs():
            if g.lengths[y] - g.lengths[x] == 3:
                first.setdefault(y, (x, y))
        for length in range(g.lengths[g.w0] + 1):
            ys = [y for y in range(g.size) if g.lengths[y] == length and y <= g.inv[y]]
            held = [first[y] for y in ys[: klbase._BATCH_COLUMNS] if y in first]
            if len(held) >= 2:
                return held[0], held[1]
        raise AssertionError(f"no batch of {g.name} holds two such columns")

    @pytest.mark.parametrize("earlier", ["degree bound", "64 bits"])
    def test_first_failure_of_a_batch_raises(self, monkeypatch, earlier):
        """A degree-bound violation and a value outside 64 bits planted in
        two columns of one batch: the failure of the earlier column is the
        one raised, as a build column by column would raise it."""
        g = group_from_name("B4")
        (x, y), later = self.two_columns_of_one_batch(g)
        degree, wide = 1 + (1 << 2 * W), 1 << 63  # 1 + q^2 at distance 3; 2^63
        if earlier == "degree bound":
            self.planted(monkeypatch, (x, y), degree)
            self.planted(monkeypatch, later, wide)
            bound = re.escape(f"bound violated for P_{{{x},{y}}}")
            with pytest.raises(AssertionError, match=bound):
                KLStore(g).build_all()
        else:
            self.planted(monkeypatch, (x, y), wide)
            self.planted(monkeypatch, later, degree)
            with pytest.raises(CoefficientOverflowError, match="outside signed 64 bits"):
                KLStore(g).build_all()

    def test_batch_is_read_up_to_its_first_value_outside_64_bits(self, monkeypatch):
        """A degree-bound violation after the first value outside 64 bits
        of a batch, and a second such value after it, are never reached."""
        g = group_from_name("B4")
        first, (x, y) = self.two_columns_of_one_batch(g)
        store = KLStore(g)
        store.build_all()
        last = max(w for w, z, _ in store.iter_pairs() if z == y)
        assert last > x
        self.planted(monkeypatch, first, 1 << 63)
        self.planted(monkeypatch, (x, y), 1 + (1 << 2 * W))
        self.planted(monkeypatch, (last, y), 1 << 63)
        with pytest.raises(CoefficientOverflowError, match="outside signed 64 bits"):
            KLStore(g).build_all()

    @pytest.mark.parametrize("plant_earlier", [False, True])
    def test_carry_check_of_a_later_column_of_the_batch(self, monkeypatch, plant_earlier):
        """A carry check failing for a later column of a batch raises
        unless a pair of an earlier column fails first."""
        g = group_from_name("B4")
        (x, y), (_, later) = self.two_columns_of_one_batch(g)
        # the build checks the canonical columns y > 0 in order of y
        at = [w for w in range(1, g.size) if w <= g.inv[w]].index(later)
        calls = iter(range(g.size))
        check = klbase.check_mu_carry

        def carry(mus):
            if next(calls) == at:
                raise CoefficientOverflowError("packed P sums could carry: planted")
            check(mus)

        monkeypatch.setattr(klbase, "check_mu_carry", carry)
        if plant_earlier:
            self.planted(monkeypatch, (x, y), 1 + (1 << 2 * W))
            bound = re.escape(f"bound violated for P_{{{x},{y}}}")
            with pytest.raises(AssertionError, match=bound):
                KLStore(g).build_all()
        else:
            with pytest.raises(CoefficientOverflowError, match="carry: planted"):
                KLStore(g).build_all()

    # sha256 over the lines "x y P" of iter_pairs(), and the saved graph's
    # own sha256 entry
    PINNED = {
        "H3": ("a9f806d4d15835c6a6a2a47fcf2234b5da33c946571801268684253f3b257701",
               "aefce6199b477bbfee8d86f971522119563fd6850a1c945636f6373b64d9b9c1"),
        "B4": ("7e69228c7d14acc5ca609539da06c9fcd8fed96cf5e964160336d6b97287d969",
               "e8ea1e460233a1559986ce97ed355813c1ab98d75485bb6b2371b428b253f25d"),
        "F4": ("e120299f1a8fd52cde724fb8145e0382c09f066b48544bf7f5f42ee6b07891f1",
               "68715083c91f7d4f0e131b5746d82454477ab0619a8443146ce92ebad6718235"),
        "I2(9)": ("6d71a806980df8a3f44c28d118fc60291f64e9f01a3ca70fa06d84b6b8332fa8",
                  "c174807370f090b00005efa047ced0d30e6916600eb1021696677454af588235"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_table_and_graph(self, tmp_path, name):
        store = KLStore(group_from_name(name))
        wg = build_wgraph(store)
        h = hashlib.sha256()
        for x, y, p in store.iter_pairs():
            h.update(f"{x} {y} {p}\n".encode())
        path = tmp_path / "wgraph.npz"
        save_wgraph(wg, path)
        with np.load(path) as data:
            graph = str(data["sha256"])
        assert (h.hexdigest(), graph) == self.PINNED[name]

    def test_carry_guard(self):
        limit = 1 << W - 65
        check_mu_carry([])
        check_mu_carry([limit - 3])
        check_mu_carry([1, -(limit // 2 - 3), limit // 2 - 1])
        for mus in ([limit - 2], [-(limit - 2)], [limit // 2, -(limit // 2)]):
            with pytest.raises(CoefficientOverflowError):
                check_mu_carry(mus)




LOOKUP_GROUPS = ["H3", "B4", "F4", "I2(9)"]


@st.composite
def query_pairs(draw, store):
    """(x, y) queries of a built store: any pair (mostly x not below y),
    x = y, an x below y (mostly not extremal), and a stored pair or its
    transpose."""
    g = store.g
    n = g.size
    element = st.integers(0, n - 1)
    stored = st.integers(0, len(store._keys) - 1).map(
        lambda i: tuple(reversed(divmod(int(store._keys[i]), n)))
    )
    kind = draw(st.sampled_from(["any", "equal", "below", "stored", "transposed"]))
    if kind == "any":
        return draw(element), draw(element)
    if kind == "equal":
        y = draw(element)
        return y, y
    if kind == "below":
        y = draw(element)
        below_y = [x for x in range(y + 1) if bruhat_leq(g, x, y)]
        return below_y[draw(st.integers(0, len(below_y) - 1))], y
    x, y = draw(stored)
    return (x, y) if kind == "stored" else (g.inv[x], g.inv[y])


class TestLookup:
    """The batched lookup against a scalar walk (``oracles.packed``), and
    the stored values against the recursion read through that walk
    (``oracles.recurrence``)."""

    @pytest.mark.parametrize("name", LOOKUP_GROUPS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batched_lookup_equals_the_scalar_walk(self, stores, name, data):
        store = stores(name)
        store.build_all()
        g = store.g
        pairs = data.draw(st.lists(query_pairs(store), min_size=1, max_size=40))
        xs, ys = (np.array(v, dtype=np.int64) for v in zip(*pairs))
        got = store._lookup(xs, ys).tolist()
        want = [packed(store, x, y) for x, y in pairs]
        assert got == want
        assert store.kl_polynomials(xs[ys == ys[0]], int(ys[0])) == [
            store._decode(u) for u, y in zip(want, ys.tolist()) if y == ys[0]
        ]

    @pytest.mark.parametrize("name", ["H3", "B4", "I2(9)"])
    def test_stored_values_follow_the_recursion(self, stores, name):
        store = stores(name)
        store.build_all()
        for (x, y, _), u in zip(store.iter_pairs(), store._vals.tolist()):
            assert recurrence(store, x, y) == u, (x, y)


def npz_arrays(path):
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def rewrite(path, rehash=True, **changes):
    """Rewrite the saved W-graph at path with some arrays changed; with
    rehash, under a hash that matches them."""
    arrays = npz_arrays(path)
    arrays.update(changes)
    if rehash:
        arrays["sha256"] = np.array(klbase._wgraph_digest(arrays))
    np.savez(path, **arrays)


def csr_of(wg):
    return wg.offsets, wg.z, wg.mu


class TestSavedWGraph:
    @pytest.mark.parametrize("name", SMALL_PRESETS)
    def test_round_trip_equals_build(self, wgraphs, tmp_path, name):
        """The graph built from the P table, its saved and loaded copy, and
        the graphs made from its mu lists and from its arrays all read the
        same edges, through every accessor."""
        built = wgraphs(name)
        g = built.g
        path = tmp_path / "wgraph.npz"
        save_wgraph(built, path)
        loaded = load_wgraph(path, g)
        assert loaded is not None and loaded.g is g
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wgraph.npz"]
        into = [[] for _ in range(g.size)]
        for x, y, mu in built.edges():
            into[y].append((x, mu))
        lists = tuple(map(tuple, into))
        for wg in (loaded, WGraph(g, lists), WGraph.from_arrays(g, *csr_of(built))):
            assert wg.mu_lists == built.mu_lists == lists
            assert [wg.mu_in(y) for y in range(g.size)] == list(lists)
            assert list(wg.edges()) == list(built.edges())
            assert wg.edge_count() == built.edge_count() == sum(map(len, lists))
            for a, b in zip(csr_of(wg), csr_of(built)):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.fixture
    def saved(self, wgraphs, tmp_path):
        wg = wgraphs("B3")
        path = tmp_path / "wgraph.npz"
        save_wgraph(wg, path)
        return wg, path

    def test_missing_file(self, groups, tmp_path):
        assert load_wgraph(tmp_path / "wgraph.npz", groups("B3")) is None

    def test_wrong_group(self, saved, groups):
        _, path = saved
        for name in ("A3", "H3", "B4"):
            assert load_wgraph(path, groups(name)) is None

    def test_wrong_matrix(self, saved, groups):
        """A file naming another matrix, under a matching hash, is refused
        for the matrix alone."""
        wg, path = saved
        rewrite(path, matrix=np.array(groups("A3").matrix.entries, dtype=np.int64))
        assert load_wgraph(path, wg.g) is None

    def test_wrong_version(self, saved):
        wg, path = saved
        rewrite(path, version=np.array(klbase.WGRAPH_VERSION + 1, dtype=np.int64))
        assert load_wgraph(path, wg.g) is None

    def test_wrong_dtype(self, saved):
        wg, path = saved
        rewrite(path, z=npz_arrays(path)["z"].astype(np.int64))
        assert load_wgraph(path, wg.g) is None

    def test_rehashed_file_loads(self, saved):
        wg, path = saved
        rewrite(path)
        assert load_wgraph(path, wg.g).mu_lists == wg.mu_lists

    def test_flipped_byte_in_z_fails_the_hash(self, saved):
        wg, path = saved
        z = npz_arrays(path)["z"].copy()
        z.view(np.uint8)[len(z) * 2] ^= 1
        rewrite(path, rehash=False, z=z)
        assert load_wgraph(path, wg.g) is None
        rewrite(path)  # the same arrays under a matching hash still load
        assert load_wgraph(path, wg.g) is not None

    def test_flipped_byte_on_disk(self, saved):
        wg, path = saved
        data = bytearray(path.read_bytes())
        z = npz_arrays(path)["z"].tobytes()
        at = data.find(z) + len(z) // 2
        assert data.count(z) == 1
        data[at] ^= 1
        path.write_bytes(bytes(data))
        assert load_wgraph(path, wg.g) is None

    @pytest.mark.parametrize("keep", ["nothing", "ten bytes", "half", "all but one byte"])
    def test_truncated_file(self, saved, keep):
        wg, path = saved
        data = path.read_bytes()
        cut = {"nothing": 0, "ten bytes": 10, "half": len(data) // 2}.get(keep, len(data) - 1)
        path.write_bytes(data[:cut])
        assert load_wgraph(path, wg.g) is None

    @pytest.mark.parametrize("key", ["version", "matrix", "offsets", "z", "mu", "sha256"])
    def test_missing_array(self, saved, key):
        wg, path = saved
        arrays = npz_arrays(path)
        del arrays[key]
        np.savez(path, **arrays)
        assert load_wgraph(path, wg.g) is None

    def test_not_a_csr_of_this_group(self, saved):
        """Arrays under a matching hash that do not describe edges z < y of
        this group are rejected too."""
        wg, path = saved
        a = npz_arrays(path)
        n = wg.size
        bad = [
            {"offsets": a["offsets"][:-1]},
            {"offsets": a["offsets"] + 1},
            {"offsets": np.concatenate([a["offsets"][:-1], a["offsets"][-1:] - 1])},
            {"z": a["z"][:-1], "mu": a["mu"][:-1]},
            {"mu": a["mu"][:-1]},
            {"z": np.where(np.arange(len(a["z"])) == 0, n, a["z"]).astype(np.int32)},
            {"z": np.where(np.arange(len(a["z"])) == 0, -1, a["z"]).astype(np.int32)},
        ]
        # the first edge into the last y, moved to z = y
        last = int(a["offsets"][-2])
        z = a["z"].copy()
        z[last] = n - 1
        bad.append({"z": z})
        for changes in bad:
            rewrite(path, **{**a, **changes})
            assert load_wgraph(path, wg.g) is None, changes
        rewrite(path, **a)
        assert load_wgraph(path, wg.g) is not None

    def test_nonpositive_mu_fails_as_in_build(self, saved):
        """A hash-valid file with a mu below one is refused by the check
        build_wgraph makes, not read as a graph."""
        wg, path = saved
        mu = npz_arrays(path)["mu"].copy()
        mu[3] = 0
        rewrite(path, mu=mu)
        with pytest.raises(ValueError, match="edge-level positivity"):
            load_wgraph(path, wg.g)
        # build_wgraph refuses the same edge with the same message
        z, y, _ = list(wg.edges())[3]
        with pytest.raises(ValueError, match=rf"nonpositive mu\({z},{y}\) = 0"):
            klbase._checked_wgraph(wg.g, wg.offsets, wg.z, mu)

    def test_kill_during_write_leaves_no_file(self, saved, monkeypatch):
        wg, path = saved
        path.unlink()
        savez = np.savez

        def torn(fh, **arrays):
            savez(fh, **arrays)
            fh.truncate(fh.tell() // 2)
            raise KeyboardInterrupt

        monkeypatch.setattr(klbase.np, "savez", torn)
        with pytest.raises(KeyboardInterrupt):
            save_wgraph(wg, path)
        assert list(path.parent.iterdir()) == []
        monkeypatch.setattr(klbase.np, "savez", savez)
        # an old file survives a torn rewrite whole
        save_wgraph(wg, path)
        before = path.read_bytes()
        monkeypatch.setattr(klbase.np, "savez", torn)
        with pytest.raises(KeyboardInterrupt):
            save_wgraph(WGraph(wg.g, ((),) * wg.size), path)
        assert path.read_bytes() == before
        assert list(path.parent.iterdir()) == [path]
