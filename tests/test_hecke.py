import copy
import itertools
import random
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from klbasis import hecke
from klbasis.coxeter import GroupTable, group_from_name
from klbasis.hecke import (
    DESCENT_STRATEGIES,
    SETTLE_CHUNK,
    W,
    PolyStore,
    bmul_packed,
    c_in_t_basis,
    c_in_t_basis_oracle,
    check_carry_bound,
    column,
    combo_add_scaled,
    pack,
    t_inverse,
    t_mult_gen,
    tcombo_mult,
)

from oracles import (
    ScalarStore,
    bar_h,
    c_mult_gen,
    c_to_t,
    ccombo_from_column_row,
    cheapest_descent,
    descent_edges,
    dict_column,
    min_coeff,
)
from klbasis.ring import (
    CoefficientOverflowError,
    LaurentPoly,
    MixedParityError,
    NotSymmetricError,
    SymLaurentPoly,
    is_unimodal,
    qpoly_from_sym,
)
from klbasis.klbase import WGraph
from test_ring import sym_pairs, sym_polys

ONE = LaurentPoly.one()
V = LaurentPoly({1: 1})
VINV = LaurentPoly({-1: 1})
VMV = LaurentPoly({1: 1, -1: -1})
BETA = LaurentPoly({1: 1, -1: 1})


def word_id(g, letters):
    return g.element_of_word([l - 1 for l in letters])


class TestTBasis:
    def test_t_mult_examples(self, groups):
        g = groups("A2")
        s = word_id(g, [1])
        assert t_mult_gen(g, 0, {0: ONE}) == {s: ONE}
        assert t_mult_gen(g, 0, {s: ONE}) == {s: VMV, 0: ONE}
        # c_s is a v-eigenvector of t_s
        cs = {s: ONE, 0: VINV}
        assert t_mult_gen(g, 0, cs) == {x: p * V for x, p in cs.items()}

    def test_t_inverse(self, groups):
        g = groups("B2")
        assert t_inverse(g, 0) == {0: ONE}
        s = word_id(g, [1])
        assert t_inverse(g, s) == {s: ONE, 0: -VMV}
        for z in range(g.size):
            assert tcombo_mult(g, {z: ONE}, t_inverse(g, z)) == {0: ONE}
            assert tcombo_mult(g, t_inverse(g, z), {z: ONE}) == {0: ONE}
        # with the t-inverses found so far, each found once and kept there
        known = {0: {0: ONE}}
        assert [t_inverse(g, z, known) for z in range(g.size)] == [
            t_inverse(g, z) for z in range(g.size)]
        assert sorted(known) == list(range(g.size))

    def test_bar_examples(self, groups):
        g = groups("A2")
        assert bar_h(g, {0: ONE}) == {0: ONE}
        s = word_id(g, [1])
        assert bar_h(g, {s: ONE}) == {s: ONE, 0: -VMV}

    def test_bar_involutive(self, groups):
        g = groups("B2")
        random.seed(7)
        for _ in range(10):
            u = {
                random.randrange(g.size): LaurentPoly(
                    {random.randrange(-3, 4): random.randrange(-5, 6) or 1}
                )
                for _ in range(3)
            }
            assert bar_h(g, bar_h(g, u)) == u

    def test_bar_fixes_kl_basis_a2(self, groups, stores):
        g = groups("A2")
        store = stores("A2")
        for y in range(g.size):
            cy = c_in_t_basis(store, y)
            assert bar_h(g, cy) == cy


class TestCInT:
    def test_identity_and_generator(self, stores):
        store = stores("A2")
        assert c_in_t_basis(store, 0) == {0: ONE}
        g = store.g
        s = word_id(g, [1])
        assert c_in_t_basis(store, s) == {s: ONE, 0: VINV}

    def test_dihedral_w0(self, stores):
        store = stores("I2(3)")
        g = store.g
        expected = {
            x: LaurentPoly({g.lengths[x] - 3: 1}) for x in range(g.size)
        }
        assert c_in_t_basis(store, g.w0) == expected

    @pytest.mark.parametrize("name", ["A2", "I2(5)", "A3", "B3"])
    def test_oracle_equivalence(self, groups, stores, name):
        g = groups(name)
        store = stores(name)
        for y in range(g.size):
            assert c_in_t_basis_oracle(g, y) == c_in_t_basis(store, y)

    def test_oracle_leaves_the_group_as_it_found_it(self):
        """The bar-solve keeps its t-inverses to itself: after the oracle
        has run on every element, every slot of the group holds the same
        object with the same contents, its arrays included, and its
        ``__dict__`` has neither gained nor changed an entry."""
        g = group_from_name("B3")
        names = [n for n in GroupTable.__slots__ if n not in ("arrays", "__dict__")]
        slots, arrays, attrs = [getattr(g, n) for n in names], g.arrays, dict(vars(g))
        contents = copy.deepcopy(slots), [a.copy() for a in arrays]
        for y in range(g.size):
            c_in_t_basis_oracle(g, y)
        assert all(getattr(g, n) is obj for n, obj in zip(names, slots))
        assert [getattr(g, n) for n in names] == contents[0]
        assert g.arrays is arrays
        assert all(np.array_equal(a, b) for a, b in zip(g.arrays, contents[1]))
        assert vars(g).keys() == attrs.keys()
        assert all(vars(g)[k] is obj for k, obj in attrs.items())


class TestCMult:
    def test_examples(self, wgraphs):
        wg = wgraphs("A2")
        g = wg.g
        s = word_id(g, [1])
        assert c_mult_gen(wg, 0, {0: ONE}) == {s: ONE}
        assert c_mult_gen(wg, 0, {s: ONE}) == {s: BETA}

    def test_dihedral_ladder(self, wgraphs):
        # c_1 c_{[2,1,i>} = c_{[1,2,i+1>} + c_{[1,2,i-1>} for i > 1
        wg = wgraphs("I2(9)")
        g = wg.g
        for i in range(2, 8):
            u = word_id(g, [[2, 1][j % 2] for j in range(i)])
            hi = word_id(g, [[1, 2][j % 2] for j in range(i + 1)])
            lo = word_id(g, [[1, 2][j % 2] for j in range(i - 1)])
            assert c_mult_gen(wg, 0, {u: ONE}) == {hi: ONE, lo: ONE}


class TestColumns:
    def test_identity_column(self, wgraphs):
        wg = wgraphs("B2")
        col = column(wg, 0)
        for x in range(wg.g.size):
            assert col.rows[x] == {x: col.store.one}

    def test_h_examples(self, wgraphs):
        wg = wgraphs("A2")
        g = wg.g
        s = word_id(g, [1])
        col = column(wg, s)
        assert col.row_polys(0).get(s) == SymLaurentPoly.one()
        assert col.row_polys(s).get(s) == SymLaurentPoly(1, (1,))
        assert col.row_polys(s).get(0) is None

    def test_dihedral_row_matches_closed_form(self, wgraphs):
        wg = wgraphs("I2(9)")
        g = wg.g
        y = word_id(g, [1, 2, 1, 2, 1, 2])
        col = column(wg, y)
        expected = {
            word_id(g, [1, 2]): SymLaurentPoly(0, (2,)),
            word_id(g, [1, 2, 1, 2]): SymLaurentPoly(0, (2,)),
            y: SymLaurentPoly.one(),
            g.w0: SymLaurentPoly(3, (1, 2)),
        }
        assert col.row_polys(y) == expected

    def test_column_against_repeated_c_mult(self, stores, wgraphs):
        """Independent route: expand c_x * c_y by folding c-generator
        multiplications and correction terms, in Laurent coefficients."""
        name = "B2"
        store = stores(name)
        wg = wgraphs(name)
        g = store.g

        def c_product_by_words(x, y):
            out = {y: ONE}
            # c_x = c_s c_{sx} - sum mu(z, sx) c_z applied top-down
            def mult(x, acc):
                if x == 0:
                    return acc
                s = (g.lmask[x] & -g.lmask[x]).bit_length() - 1
                sx = g.lmult[x][s]
                part = c_mult_gen(wg, s, mult(sx, acc))
                for z, mu in wg.mu_in(sx):
                    if g.lmask[z] >> s & 1:
                        sub = mult(z, acc)
                        for w, p in sub.items():
                            q = part.get(w, LaurentPoly.zero()) - p.scaled(mu)
                            if q:
                                part[w] = q
                            else:
                                part.pop(w, None)
                return part

            return mult(x, out)

        for y in range(g.size):
            col = column(wg, y)
            for x in range(g.size):
                expanded = {
                    z: p.expand() for z, p in col.row_polys(x).items()
                }
                assert expanded == c_product_by_words(x, y), (x, y)

    def test_ground_truth_t_expansion(self, stores, wgraphs):
        for name in ("A2", "I2(5)"):
            store = stores(name)
            wg = wgraphs(name)
            g = store.g
            cts = {y: c_in_t_basis(store, y) for y in range(g.size)}
            for y in range(g.size):
                col = column(wg, y)
                for x in range(g.size):
                    direct = tcombo_mult(g, cts[x], cts[y])
                    via_h = c_to_t(store, ccombo_from_column_row(col, x))
                    assert direct == via_h

    def test_ground_truth_sampled_h3(self, stores, wgraphs):
        store = stores("H3")
        wg = wgraphs("H3")
        g = store.g
        random.seed(3)
        pairs = [(random.randrange(g.size), random.randrange(g.size)) for _ in range(4)]
        for x, y in pairs:
            col = column(wg, y)
            direct = tcombo_mult(g, c_in_t_basis(store, x), c_in_t_basis(store, y))
            via_h = c_to_t(store, ccombo_from_column_row(col, x))
            assert direct == via_h, (x, y)

    def test_h_symmetry_sampled_h3(self, wgraphs):
        wg = wgraphs("H3")
        g = wg.g
        random.seed(11)
        ys = random.sample(range(g.size), 6)
        for y in ys:
            col_y = column(wg, y)
            for x in random.sample(range(g.size), 6):
                col_t = column(wg, g.inv[x])
                row = col_y.row_polys(x)
                transposed = col_t.row_polys(g.inv[y])
                assert row == {g.inv[z]: p for z, p in transposed.items()}

    def test_store_dedup(self, wgraphs):
        wg = wgraphs("I2(6)")
        col = column(wg, wg.g.w0)
        store = col.store
        # value equality iff polynomial equality
        seen = {}
        for row in col.rows:
            for u in row.values():
                p = store.poly(u)
                assert seen.setdefault(p, u) == u
        assert len(set(seen.values())) <= len(store)

    @pytest.mark.parametrize("name", ["H3", "B3"])
    def test_store_holds_no_intermediates(self, wgraphs, name):
        """The store holds row values and nothing else, no bmul or mu
        images, column by column and over every column of the group; and
        every row entry is the one int object the store keeps for its
        value."""
        wg = wgraphs(name)
        stored, held = set(), set()
        for y in range(wg.g.size):
            col = column(wg, y)
            values = [u for row in col.rows for u in row.values()]
            assert set(col.store) == set(values), y
            assert all(col.store.intern(col.store.poly(u)) is u for u in values), y
            stored |= set(col.store)
            held |= set(values)
        assert stored == held

    @pytest.mark.parametrize("name", ["H3", "B4"])
    def test_rows_hold_only_their_nonzero_entries(self, wgraphs, name):
        """Every row of every column holds no zero value and is no larger
        than a dict rebuilt from its own items: it keeps no room for the
        keys that cancelled while it was summed."""
        wg = wgraphs(name)
        for y in range(wg.g.size):
            col = column(wg, y)
            for x in range(wg.g.size):
                row = col.row(x)
                assert all(row.values()), (x, y)
                assert sys.getsizeof(row) <= sys.getsizeof(dict(row.items())), (x, y)

    @pytest.mark.parametrize("name", ["H3", "B3"])
    def test_h_symmetry_by_value(self, wgraphs, name):
        """h(x,y,z) = h(y^-1,x^-1,z^-1) on every triple, as packed values
        of two columns computed separately, each with its own store."""
        wg = wgraphs(name)
        g = wg.g
        cols = [column(wg, y) for y in range(g.size)]
        for y, col in enumerate(cols):
            for x in range(g.size):
                transposed = cols[g.inv[x]].rows[g.inv[y]]
                assert {g.inv[z]: u for z, u in transposed.items()} == col.rows[x], (x, y)

    def test_rows_follow_the_recursion_for_any_mu(self, wgraphs):
        """Every row is c_s (row sx) - sum mu(z, sx) (row z), recomputed
        on Laurent coefficients with the descent s each strategy chooses,
        over the H3 W-graph with each mu-value multiplied by 1, 2 or 3, so
        that one column subtracts the same row under several mu-values.
        Such a graph is no W-graph, so the rows depend on the strategy."""
        wg = planted_wgraph(wgraphs("H3"), lambda z, y, mu: mu * (1 + (z + y) % 3))
        g = wg.g
        for strategy, y in itertools.product(DESCENT_STRATEGIES, (7, 23, 57, 119)):
            col = column(wg, y, strategy)
            descent = DESCENT_STRATEGIES[strategy](wg)
            rows = {0: {y: ONE}}
            for x in range(1, g.size):
                s = descent[x]
                assert g.lmask[x] >> s & 1
                sx = g.lmult[x][s]
                row = c_mult_gen(wg, s, rows[sx])
                for z, mu in wg.mu_in(sx):
                    if g.lmask[z] >> s & 1:
                        combo_add_scaled(row, rows[z], LaurentPoly({0: -mu}))
                rows[x] = row
                assert {z: p.expand() for z, p in col.row_polys(x).items()} == row, (
                    strategy, x, y)

    def test_strategy_invariance_small(self, wgraphs):
        wg = wgraphs("A2")
        for y in range(wg.g.size):
            a = column(wg, y, "first")
            b = column(wg, y, "last")
            for x in range(wg.g.size):
                assert a.row_polys(x) == b.row_polys(x)

    @pytest.mark.parametrize("name, planted", [
        ("H3", False), ("B3", False), ("A4", False), ("D4", False), ("I2(9)", False),
        ("H3", True),
    ])
    def test_dense_sums_equal_the_dict_oracle(self, wgraphs, name, planted):
        """Every column equals that of the oracle that sums each row in a
        dict: every row, with its keys in the same order, the store's
        values in the same interning order, and the same figures.  On the
        H3 graph with each mu times 1, 2 or 3, some sums cancel to zero and
        are touched again, which no column of these W-graphs does; such a
        key keeps the place it was first touched at."""
        wg = wgraphs(name)
        if planted:
            wg = planted_wgraph(wg, lambda z, y, mu: mu * (1 + (z + y) % 3))
        retouched = []

        class Watched(dict):
            def __setitem__(self, w, u):
                if self.get(w) == 0:
                    retouched.append(w)
                super().__setitem__(w, u)

        for y in range(wg.g.size):
            col, ref = column(wg, y), dict_column(wg, y, scratch=Watched)
            assert [list(row.items()) for row in col.rows] == [
                list(row.items()) for row in ref.rows], y
            assert list(col.store) == list(ref.store), y
            assert (col.store.max_abs, col.store.negative, col.store.not_unimodal) == (
                ref.store.max_abs, ref.store.negative, ref.store.not_unimodal), y
        assert retouched or not planted

    @pytest.mark.parametrize("name", ["H3", "B3", "A4", "D4", "I2(7)"])
    def test_fewest_equals_first(self, wgraphs, name):
        """The default descent gives the rows of the first-descent oracle,
        row by row, in every column, as packed values."""
        wg = wgraphs(name)
        for y in range(wg.g.size):
            fewest = column(wg, y, "fewest")
            first = column(wg, y, "first")
            assert fewest.rows == first.rows, y

    def test_entry_parity_is_checked(self, wgraphs):
        """A planted edge between lengths of equal parity carries a value of
        the wrong degree parity into a row; where it lands alone, the
        per-entry parity check rejects it."""
        wg = wgraphs("A3")
        g = wg.g
        z0, y0 = next((z, y) for y in range(g.size) for z in range(y)
                      if g.lengths[y] - g.lengths[z] == 2 and g.lmask[z] & ~g.lmask[y])
        lists = list(wg.mu_lists)
        lists[y0] = tuple(sorted(lists[y0] + ((z0, 1),)))
        bad = WGraph(g, tuple(lists))
        raised = []
        for y in range(g.size):
            try:
                column(bad, y)
            except (NotSymmetricError, MixedParityError) as e:
                raised.append(type(e))
        assert NotSymmetricError in raised

    def test_column_guards_images_and_carries(self, wgraphs):
        """With every mu times 2^20, the image bound rejects a value that
        still fits in 64 bits but whose mu-images would not; with every mu
        times 2^25, the carry guard refuses the graph before any row."""
        base = wgraphs("A3")
        wg = planted_wgraph(base, lambda z, y, mu: mu << 20)
        rejected = []
        for y in range(base.size):
            try:
                column(wg, y)
            except CoefficientOverflowError as e:
                rejected.append(str(e))
        assert any(m.endswith("would leave 64 bits in an image") and int(m.split()[1]) < I64
                   for m in rejected), rejected
        with pytest.raises(CoefficientOverflowError, match="sums could carry"):
            column(planted_wgraph(base, lambda z, y, mu: mu << 25), 0)

    def test_cheapest_descent(self, wgraphs):
        """A left descent of each element with the fewest filtered
        subtraction edges, the lowest on ties, as the oracle picks it;
        not always the first descent."""
        wg = wgraphs("H3")
        g = wg.g
        edges = descent_edges(wg)
        assert wg.tables.cheapest == cheapest_descent(wg, edges)

        def cost(x, s):
            return len(edges[s][g.lmult[x][s]])

        for x in range(1, g.size):
            s = wg.tables.cheapest[x]
            descents = [t for t in range(g.rank) if g.lmask[x] >> t & 1]
            assert s in descents
            assert all((cost(x, s), s) <= (cost(x, t), t) for t in descents)
        assert any(wg.tables.cheapest[x] != DESCENT_STRATEGIES["first"](wg)[x]
                   for x in range(1, wg.size))

    @pytest.mark.parametrize("interned", [False, True])
    def test_wrong_parity_names_its_triple(self, wgraphs, monkeypatch, interned):
        """Row 0 planted with v + v^-1 in place of 1, a value of the wrong
        degree parity, new to the store or already held under the other
        parity: row 1, c_s c_y with s not in L(y), carries it unchanged
        into entry sy, which names its (x, y, z)."""

        class OddOne(PolyStore):
            def __init__(self, factor=None):
                super().__init__(factor)
                beta = SymLaurentPoly(1, (1,))  # pack(beta) = 1 << W
                self.one = self.intern(beta) if interned else 1 << W

        wg = wgraphs("B3")
        g = wg.g
        y = next(y for y in range(1, g.size) if not g.lmask[1] & g.lmask[y])
        true_row = column(wg, y).rows[1]
        monkeypatch.setattr(hecke, "PolyStore", OddOne)
        with pytest.raises(NotSymmetricError, match=r"violates the l\(x\)\+l\(y\)\+l\(z\)") as e:
            column(wg, y)
        x_, y_, z_ = map(int, re.match(r"h\((\d+),(\d+),(\d+)\)", str(e.value)).groups())
        assert (x_, y_) == (1, y) and z_ in true_row


class TestPolyStore:
    def test_intern_checks_64_bit_bound(self):
        big = SymLaurentPoly(0, (1 << 62,))
        total = big + big  # the sum itself is not checked
        assert total.half == (1 << 63,)
        with pytest.raises(CoefficientOverflowError):
            PolyStore().intern(total)
        low = SymLaurentPoly(1, (-(1 << 62),))
        with pytest.raises(CoefficientOverflowError):
            PolyStore().intern(low + low + low)
        store = PolyStore()
        assert store.poly(store.intern(low + low)) == low + low  # -2^63 fits

    @given(st.lists(st.integers(-2, 3), min_size=1, max_size=7), st.booleans())
    def test_unimodal_matches_q_coefficients(self, half, odd):
        p = SymLaurentPoly(2 * (len(half) - 1) + odd, half)
        assume(p)
        store = PolyStore()
        u = store.intern(p)
        assert (u not in store.not_unimodal) == is_unimodal(qpoly_from_sym(p))

    def test_scan_figures(self):
        store = PolyStore()
        assert (store.max_abs, store.negative, store.not_unimodal) == (1, [], [])
        h = store.intern(SymLaurentPoly(3, (2, -5)))
        assert store.max_abs == 5
        assert store.negative == [h]
        assert store.intern(SymLaurentPoly(3, (2, -5))) is h
        assert store.intern(SymLaurentPoly(0, (3,))) and store.max_abs == 5
        assert store.negative == [h] and len(store) == 3

    @pytest.mark.parametrize("name, mu_of", [
        ("H3", None), ("B3", None), ("H3", lambda z, y, mu: -mu if (z + y) % 5 == 0 else mu),
    ], ids=["H3", "B3", "H3-negated"])
    def test_aggregates_match_every_value(self, wgraphs, name, mu_of):
        """In every column, the store's figures are those recomputed from
        the polynomials it holds: on the real graphs, and on an H3 graph
        with some mu negated, whose columns hold negative and non-unimodal
        values."""
        wg = wgraphs(name) if mu_of is None else planted_wgraph(wgraphs(name), mu_of)
        flagged = 0
        for y in range(wg.g.size):
            store = column(wg, y).store
            polys = {u: store.poly(u) for u in store}
            assert store.max_abs == max(p.max_abs_coeff() for p in polys.values()), y
            assert sorted(store.negative) == sorted(
                u for u, p in polys.items() if min_coeff(p) < 0), y
            assert sorted(store.not_unimodal) == sorted(
                u for u, p in polys.items() if not is_unimodal(qpoly_from_sym(p))), y
            flagged += len(store.negative) + len(store.not_unimodal)
        assert bool(flagged) == (mu_of is not None)


I64 = 1 << 63


@st.composite
def wide_sym_polys(draw):
    """Nonzero symmetric polynomials of either parity, coefficients
    anywhere in signed 64 bits."""
    half = draw(st.lists(st.integers(-I64, I64 - 1), min_size=1, max_size=6))
    assume(half[0])
    return SymLaurentPoly(2 * (len(half) - 1) + draw(st.integers(0, 1)), half)


class TestPackedStore:
    @given(st.one_of(wide_sym_polys(), sym_polys()))
    def test_round_trip(self, p):
        store = PolyStore()
        assert store.poly(store.intern(p)) == p

    @given(sym_pairs())
    def test_sum_is_int_addition(self, pair):
        a, b = pair
        total = pack(a) + pack(b)
        assert total == pack(a + b)
        assert (total == 0) == (not a + b)
        if total:
            store = PolyStore()
            assert store.poly(settled(store, total, (a + b).degree & 1)) == a + b

    @given(sym_polys(), st.integers(1, 4), st.booleans())
    def test_mu_scaling_and_bmul(self, p, mu, negate):
        assume(p)
        n = -mu if negate else mu
        store = PolyStore()
        u = store.intern(p)
        odd = p.degree & 1
        assert store.poly(settled(store, u * n, odd)) == p.scaled(n)
        assert store.poly(settled(store, bmul_packed(u), odd ^ 1)) == p.bmul()
        assert store.poly(settled(store, bmul_packed(bmul_packed(u)), odd)) == p.bmul().bmul()

    @given(wide_sym_polys())
    def test_bmul_wide(self, p):
        store = PolyStore()
        u = store.intern(p)
        image = p.bmul()
        if -I64 <= min(image.half) and max(image.half) < I64:
            assert store.poly(settled(store, bmul_packed(u), image.degree & 1)) == image
        else:
            with pytest.raises(CoefficientOverflowError):
                settled(store, bmul_packed(u), p.degree & 1 ^ 1)

    def test_intern_rejects_mixed_parity(self):
        store = PolyStore()
        for u in (1 + (1 << W), (3 << 2 * W) - (5 << W), -1 - (1 << 3 * W)):
            for parity in (0, 1):
                with pytest.raises(MixedParityError):
                    settled(store, u, parity)
        assert list(store) == [1]

    def test_intern_rejects_digits_outside_64_bits(self):
        store = PolyStore()
        for u, parity in ((I64, 0), (-I64 - 1, 0), (I64 << 2 * W, 0),
                          ((-I64 - 1 << W) + (1 << 3 * W), 1)):
            with pytest.raises(CoefficientOverflowError):
                settled(store, u, parity)
        for u, parity in ((I64 - 1, 0), (-I64, 0), ((I64 - 1) << 2 * W, 0), (-I64 << W, 1)):
            assert pack(store.poly(settled(store, u, parity))) == u
        assert len(store) == 5  # one, and the four in range

    def test_carry_bound(self):
        """Sums cannot carry while size * (2 + 2 * max_mu_sum) < 2^(W-65):
        a bmul image weighs 2 stored values, a mu-image |mu|."""
        limit = 1 << W - 65
        check_carry_bound(14400, 10_000)
        check_carry_bound(14400, 1745)  # H4
        check_carry_bound(limit // 4 - 1, 1)
        check_carry_bound(limit // 2 - 1, 0)
        check_carry_bound(1, limit // 2 - 2)
        for size, mu_sum in ((limit // 4, 1), (limit // 2, 0), (1, limit // 2 - 1),
                             (2, limit), (limit, 0)):
            with pytest.raises(CoefficientOverflowError):
                check_carry_bound(size, mu_sum)
        # exactly at the limit, and one step either side of it
        size = limit // (2 + 2 * 1745)
        check_carry_bound(size, 1745)
        with pytest.raises(CoefficientOverflowError):
            check_carry_bound(size + 1, 1745)
        check_carry_bound(limit // 8 - 1, 3)
        with pytest.raises(CoefficientOverflowError):
            check_carry_bound(limit // 8, 3)  # 8 * limit / 8 == limit
        # a scaled image past the guard would be read back wrongly, one
        # below it exactly
        store = PolyStore()
        assert store.poly(settled(store, store.one * (limit - 1), 0)).half == (limit - 1,)

    @pytest.mark.parametrize("factor", [2, 3, 21, 1745])
    def test_image_bound(self, factor):
        """A store made with factor f holds a value only if max_abs * f is
        below 2^63, so its bmul (f >= 2) and mu-images (|mu| <= f) fit in
        64 bits; a store made without one holds values to 64 bits alone."""
        top = (I64 - 1) // factor  # top * factor < 2^63 <= (top + 1) * factor
        for odd in (0, 1):
            store = PolyStore(factor)
            for c in (top, -top):
                p = SymLaurentPoly(2 + odd, (1, c))  # v^(2+odd) + c v^odd + ...
                u = store.intern(p)
                images = [(bmul_packed(u), odd ^ 1)] + [(u * n, odd) for n in (factor, -factor)]
                plain = PolyStore()
                for image, parity in images:
                    settled(plain, image, parity)  # in 64 bits
                with pytest.raises(CoefficientOverflowError):
                    store.intern(SymLaurentPoly(2 + odd, (1, c + (1 if c > 0 else -1))))
        if factor == 2:
            store = PolyStore(2)
            store.intern(SymLaurentPoly(0, ((1 << 62) - 1,)))  # image 2^63 - 2
            for c in (1 << 62, -(1 << 62)):  # images at 2^63
                with pytest.raises(CoefficientOverflowError):
                    store.intern(SymLaurentPoly(0, (c,)))
        over = SymLaurentPoly(0, (top + 1,))
        with pytest.raises(CoefficientOverflowError, match="would leave 64 bits in an image"):
            PolyStore(factor).intern(over)
        store = PolyStore()
        assert store.poly(store.intern(over)) == over


def settled(store: PolyStore, u: int, parity: int) -> int:
    """The store's int equal to u, held under ``parity`` as the entry
    h(0, 0, 0) of a row of that parity if it is new, as ``column`` holds
    its entries, then settled."""
    if u not in store._values[parity]:
        store.hold(u, parity, (0, 0, 0))
    store.settle()
    return store._values[parity][u]


@st.composite
def interning_runs(draw):
    """(factor, entries): an image bound (None for none) and packed values
    in interning order, each with the parity it is held under and its
    (x, y, z).  The values mix parities now and then,
    and their coefficients sit on the edges of signed 64 bits and of the
    image bound; some values come back, under either parity."""
    factor = draw(st.sampled_from([None, 1, 2, 3, 1745, 1 << 20]))
    limit = I64 + 1 if factor is None else -(-I64 // factor)
    edges = [limit - 1, 1 - limit, limit, -limit, I64 - 1, -I64, I64, -I64 - 1]

    def coeff():
        kind = draw(st.integers(0, 9))
        if kind < 7:
            return draw(st.integers(-3, 3))
        if kind < 9:
            return draw(st.sampled_from(edges))
        return draw(st.integers(-I64 - 2, I64 + 1))

    entries = []
    for i in range(draw(st.integers(1, 8))):
        degree = draw(st.integers(0, 7))
        if entries and draw(st.integers(0, 3)) == 0:
            u = draw(st.sampled_from(entries))[0]
        elif draw(st.integers(0, 15)) == 0:
            u = draw(st.integers(-(1 << 700), 1 << 700))
        else:
            u = sum(coeff() << W * e for e in range(degree, -1, -2))
            if draw(st.integers(0, 5)) == 0:  # a coefficient of the other parity
                u += coeff() << W * draw(st.sampled_from(range(degree & 1 ^ 1, degree + 2, 2)))
        parity = draw(st.sampled_from([degree & 1, degree & 1, degree & 1 ^ 1]))
        entries.append((u, parity, (i, 99, i + 1)))
    return factor, entries


def outcome(steps) -> tuple | None:
    """None when every step runs, else the type and message of the
    store's error that stops them."""
    try:
        for step in steps:
            step()
    except (CoefficientOverflowError, MixedParityError, NotSymmetricError) as e:
        return type(e), str(e)
    return None


def held(values, store) -> tuple:
    """The values a store holds per parity, and its figures, in order."""
    return [list(v.items()) for v in values], store.max_abs, store.negative, store.not_unimodal


class TestSettle:
    """The batched check of ``PolyStore.settle`` against the scalar oracle
    that checks each value as it is interned."""

    @given(interning_runs())
    def test_matches_the_scalar_oracle(self, run):
        """Each value held as ``column`` holds it, then settled: the store
        raises the oracle's first error, type and message, or none; either
        way it holds and has folded what the oracle has."""
        factor, entries = run
        store = PolyStore(factor)
        oracle = ScalarStore(I64 + 1 if factor is None else -(-I64 // factor))
        oracle.intern(store.one, 0)

        def into_store(u, parity, triple):
            return lambda: u in store._values[parity] or store.hold(u, parity, triple)

        want = outcome([lambda e=e: oracle.intern(*e) for e in entries])
        got = outcome([into_store(*e) for e in entries] + [store.settle])
        assert got == want
        assert held(store._values, store) == held(oracle.values, oracle)

    @pytest.mark.parametrize("first", [0, 1, 2])
    def test_first_of_several_failures(self, first):
        """Of three values in one batch that fail three different checks,
        the one interned first is reported, and the store keeps only the
        values before it."""
        mixed = 1 + (1 << W)
        wide = I64 << 2 * W  # coefficient 2^63
        odd = 3 << W  # 3v + 3v^-1, held under even
        bad = [(mixed, MixedParityError, "mixed parity"),
               (wide, CoefficientOverflowError, "outside signed 64 bits"),
               (odd, NotSymmetricError, r"h\(5,9,6\) = 3v\^-1 \+ 3v violates")]
        store = PolyStore()
        store.hold(-2, 0, (1, 9, 2))
        store.hold(4 << W, 1, (2, 9, 3))
        for k, (u, _, _) in enumerate(bad[first:] + bad[:first]):
            store.hold(u, 0, (5 + k, 9, 6 + k))
        store.hold(7, 0, (8, 9, 9))
        _, error, message = bad[first]
        with pytest.raises(error, match=message):
            store.settle()
        assert list(store) == [1, -2, 4 << W]
        assert (store.max_abs, store.negative) == (4, [-2])
        assert not store._pending

    def test_batch_straddles_the_chunk_bound(self):
        """Values held past SETTLE_CHUNK are checked in two chunks, the
        first as soon as it is full; the figures come in interning order
        across both, and a failure in the second keeps the whole first."""
        values = [(-1) ** k * (k + 2) for k in range(SETTLE_CHUNK + 5)]
        store = PolyStore()
        for k, u in enumerate(values[:SETTLE_CHUNK - 1]):
            store.hold(u, 0, (k, 0, k))
        assert store.max_abs == 1 and store.negative == []
        store.hold(values[SETTLE_CHUNK - 1], 0, (SETTLE_CHUNK, 0, 0))
        assert store.max_abs == SETTLE_CHUNK + 1  # settled at the bound
        for u in values[SETTLE_CHUNK:]:
            store.hold(u, 0, (0, 0, 0))
        store.hold(1 + (1 << W), 0, (0, 0, 0))
        store.hold(-(10 ** 6), 0, (0, 0, 0))
        with pytest.raises(MixedParityError):
            store.settle()
        assert list(store) == [1] + values
        assert store.negative == [u for u in values if u < 0]
        assert store.max_abs == SETTLE_CHUNK + 6
        # a failure in a full chunk is raised by the hold that fills it
        store = PolyStore()
        store.hold(I64, 0, (0, 0, 0))
        with pytest.raises(CoefficientOverflowError):
            for k in range(SETTLE_CHUNK):
                store.hold(k + 2, 0, (0, 0, 0))
        assert k == SETTLE_CHUNK - 2 and list(store) == [1]

    @pytest.mark.parametrize("name", ["H3", "B3"])
    def test_column_returns_settled(self, wgraphs, name, monkeypatch):
        """Whatever the chunk size, a column returns with nothing left to
        check, and with the rows, the values in order and the figures of
        the default chunk size."""
        wg = wgraphs(name)
        ys = (7, wg.size // 2, wg.size - 1)
        refs = [column(wg, y) for y in ys]
        for chunk in (1, 3, 64):
            monkeypatch.setattr(hecke, "SETTLE_CHUNK", chunk)
            for y, ref in zip(ys, refs):
                col = column(wg, y)
                assert not col.store._pending
                assert col.rows == ref.rows
                got, want = (held(c.store._values, c.store) for c in (col, ref))
                assert got == want, (chunk, y)


def planted_wgraph(base: WGraph, mu_of) -> WGraph:
    """base with each mu(z, y) replaced by mu_of(z, y, mu)."""
    return WGraph(base.g, tuple(
        tuple((z, mu_of(z, y, mu)) for z, mu in base.mu_in(y)) for y in range(base.size)
    ))
