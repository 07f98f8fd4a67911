import inspect

import pytest

from klbasis import dihedral
from klbasis.dihedral import (
    SIDES,
    DihedralProduct,
    DihedralWord,
    InvalidIndexError,
    crosscheck_dihedral,
    finite_product,
    format_triangle,
    infinite_product,
    triangle_table,
)
from klbasis.ring import SymLaurentPoly, is_unimodal, qpoly_from_sym

from oracles import graded_coefficient_sums, product_rows

ONE = SymLaurentPoly.one()
TWO = SymLaurentPoly(0, (2,))
BETA = SymLaurentPoly(1, (1,))


class TestWords:
    def test_letters(self):
        assert DihedralWord(1, 4).letters() == (1, 2, 1, 2)
        assert DihedralWord(2, 3).letters() == (2, 1, 2)
        assert DihedralWord(1, 0).letters() == ()

    def test_ending_in(self):
        for j in range(1, 9):
            w = DihedralWord.ending_in(2, j)
            assert w.length == j and w.letters()[-1] == 2

    def test_element_mapping(self, groups):
        g = groups("I2(7)")
        seen = {DihedralWord.ending_in(2, j).element(g) for j in range(8)}
        assert len(seen) == 8

    def test_validation(self):
        with pytest.raises(InvalidIndexError):
            DihedralWord(3, 1)
        with pytest.raises(InvalidIndexError):
            DihedralWord(1, -1)


class TestInfiniteProduct:
    def test_closed_form_rows(self):
        assert infinite_product("same", 1, 3).terms == {2: ONE, 4: ONE}
        assert infinite_product("same", 5, 3).terms == {2: ONE, 4: TWO, 6: TWO, 8: ONE}
        assert infinite_product("same", 3, 3).terms == {2: TWO, 4: TWO, 6: ONE}
        assert infinite_product("same", 1, 1).terms == {2: ONE}
        assert infinite_product("opposite", 2, 3).terms == {2: BETA, 4: BETA}
        assert infinite_product("opposite", 3, 3).terms == {1: BETA, 3: BETA, 5: BETA}

    def test_first_steps_for_small_k(self):
        # k = 1: c_t . c_2 = c_2 ; c_s c_t . c_2 = c_1 + c_3
        assert infinite_product("same", 1, 1).terms == {2: ONE}
        assert infinite_product("same", 2, 1).terms == {1: ONE, 3: ONE}
        # k = 2: c_t . c_12 = c_1 + c_3 ; next 2c_2 + c_4
        assert infinite_product("same", 1, 2).terms == {1: ONE, 3: ONE}
        assert infinite_product("same", 2, 2).terms == {2: TWO, 4: ONE}

    def test_invalid(self):
        with pytest.raises(InvalidIndexError):
            infinite_product("same", 0, 3)
        with pytest.raises(InvalidIndexError):
            infinite_product("same", 1, -2)
        with pytest.raises(InvalidIndexError):
            infinite_product("diagonal", 1, 1)


class TestFiniteProduct:
    def test_length_six_squared_in_i2_9(self):
        p = finite_product(9, "same", 6, 6)
        assert p.terms == {2: TWO, 4: TWO, 6: ONE, 9: SymLaurentPoly(3, (1, 2))}

    def test_strip_plus_stream_row8(self):
        p = finite_product(9, "same", 8, 6)
        assert p.terms == {2: ONE, 4: ONE, 9: SymLaurentPoly(5, (1, 2, 2))}

    def test_row_at_m_is_pure_stream(self):
        p = finite_product(9, "same", 9, 6)
        assert set(p.terms) == {9}
        # a_m with d = k: v^6 + 2v^4 + 2v^2 + 2 + ...
        assert p.terms[9] == SymLaurentPoly(6, (1, 2, 2, 2))

    def test_invalid(self):
        with pytest.raises(InvalidIndexError):
            finite_product(1, "same", 1, 1)
        with pytest.raises(InvalidIndexError):
            finite_product(5, "same", 6, 1)
        with pytest.raises(InvalidIndexError):
            finite_product(5, "same", 0, 1)
        with pytest.raises(InvalidIndexError, match="side must be one of"):
            finite_product(9, "diagonal", 1, 1)
        with pytest.raises(InvalidIndexError, match="side must be one of"):
            finite_product(1, "diagonal", 0, 1)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_graded_sum_conservation(self, m):
        """Coefficient sums per degree (v^d c_j graded by j + d) agree with
        the infinite group, except the corner i = k = m where the finite
        side carries the one unit the column-0 omission drops (verified by
        brute force over all m <= 12)."""
        for k in range(1, m + 1):
            for side in SIDES:
                for i in range(1, m + 1):
                    fin = graded_coefficient_sums(finite_product(m, side, i, k))
                    inf = graded_coefficient_sums(infinite_product(side, i, k))
                    if side == "same" and i == k == m:
                        inf[0] = inf.get(0, 0) + 1
                    assert fin == inf, (m, side, i, k)


ORACLE_RANGE = range(2, 31)


def oracle_mismatches(form):
    """(m, side, i, k) where ``form`` differs from the product recursion,
    for every m in ORACLE_RANGE, both sides and all i, k; one recursion
    per (m, k, side)."""
    for m in ORACLE_RANGE:
        for k in range(1, m + 1):
            for side in SIDES:
                rows = product_rows(m, k, dihedral._sides_letters(k, side), m)
                for i in range(1, m + 1):
                    if form(m, side, i, k) != DihedralProduct(rows[i]):
                        yield m, side, i, k


def mutant(old: str, new: str):
    """``finite_product`` with ``old`` replaced by ``new`` in its source."""
    source = inspect.getsource(finite_product)
    assert old in source
    namespace = dict(vars(dihedral))
    exec(source.replace(old, new), namespace)
    return namespace["finite_product"]


class TestClosedForm:
    def test_equals_recursion_oracle(self):
        bad = list(oracle_mismatches(finite_product))
        assert not bad, bad[:5]

    @pytest.mark.parametrize(
        "old, new",
        [
            # the longest element also takes n = 0 on the opposite side
            ('n > 0 or (n == 0 and side == "same")', "n >= 0"),
            # the reflection lands two columns low
            ("inf.get(2 * m - j, zero)", "inf.get(2 * m - j - 2, zero)"),
        ],
    )
    def test_oracle_catches_mutant(self, old, new):
        assert next(oracle_mismatches(mutant(old, new)), None) is not None

    def test_reflected_difference_is_nonnegative(self):
        """The lemma of the module docstring, for every m in ORACLE_RANGE."""
        zero = SymLaurentPoly.zero()
        for m in ORACLE_RANGE:
            for side in SIDES:
                for k in range(1, m + 1):
                    for i in range(1, m + 1):
                        inf = infinite_product(side, i, k).terms
                        for j in range(1, m):
                            d = inf.get(j, zero) - inf.get(2 * m - j, zero)
                            assert all(c >= 0 for c in d.half), (m, side, i, k, j)

    def test_longest_element_coefficient_is_unimodal(self):
        for m in ORACLE_RANGE:
            for side in SIDES:
                for k in range(1, m + 1):
                    for i in range(1, m + 1):
                        p = finite_product(m, side, i, k).terms.get(m)
                        if p is not None:
                            assert all(c >= 0 for c in p.half), (m, side, i, k)
                            assert is_unimodal(qpoly_from_sym(p)), (m, side, i, k)


class TestTriangleTables:
    def test_infinite_k3(self):
        assert triangle_table(None, 3, "same", 5) == [
            {2: 1, 4: 1},
            {1: 1, 3: 2, 5: 1},
            {2: 2, 4: 2, 6: 1},
            {1: 1, 3: 2, 5: 2, 7: 1},
            {2: 1, 4: 2, 6: 2, 8: 1},
        ]

    def test_finite_m9_k6(self):
        assert triangle_table(9, 6, "same", 9) == [
            {5: 1, 7: 1},
            {4: 1, 6: 2, 8: 1},
            {3: 1, 5: 2, 7: 2},
            {2: 1, 4: 2, 6: 2, 8: 1},
            {1: 1, 3: 2, 5: 2, 7: 1},
            {2: 2, 4: 2, 6: 1},
            {1: 1, 3: 2, 5: 1},
            {2: 1, 4: 1},
            {},
        ]

    def test_first_row_shapes(self):
        for k in range(2, 7):
            assert triangle_table(None, k, "same", 1) == [{k - 1: 1, k + 1: 1}]
        assert triangle_table(None, 1, "same", 1) == [{2: 1}]

    def test_opposite_band(self):
        t = triangle_table(None, 3, "opposite", 5)
        assert t[0] == {3: 1}
        assert t[1] == {2: 1, 4: 1}
        assert t[2] == {1: 1, 3: 1, 5: 1}
        assert t[3] == {2: 1, 4: 1, 6: 1}  # band of width k after reflection
        assert t[4] == {3: 1, 5: 1, 7: 1}

    def test_strip_matches_products(self, groups):
        """The integer tables are exactly the below-m part of the finite
        products: constants on the same side, multiples of v + v^-1 on the
        opposite side."""
        for m in (5, 9):
            for k in range(1, m + 1):
                for side in SIDES:
                    rows = triangle_table(m, k, side, m)
                    for i in range(1, m + 1):
                        strip = {
                            j: p
                            for j, p in finite_product(m, side, i, k).terms.items()
                            if j < m
                        }
                        if side == "same":
                            expected = {
                                j: SymLaurentPoly(0, (c,)) for j, c in rows[i - 1].items()
                            }
                        else:
                            expected = {
                                j: SymLaurentPoly(1, (c,)) for j, c in rows[i - 1].items()
                            }
                        assert strip == expected, (m, k, side, i)

    def test_shape_reversal_symmetry(self):
        """Strip rows satisfy row_i[j] == row_{m-i}[m-j]; established by
        brute force over all m <= 12 before being pinned here."""
        for m in range(2, 13):
            for k in range(1, m + 1):
                for side in SIDES:
                    rows = triangle_table(m, k, side, m)
                    for i in range(1, m):
                        for j, c in rows[i - 1].items():
                            assert rows[m - i - 1].get(m - j, 0) == c

    def test_column_parity(self):
        for m in (None, 9):
            for k in range(1, 7 if m is None else m + 1):
                rows = triangle_table(m, k, "same", 6 if m is None else m)
                for i, row in enumerate(rows, start=1):
                    for j in row:
                        assert (j - (k + i)) % 2 == 0

    def test_format_triangle(self):
        text = format_triangle(triangle_table(None, 3, "same", 2), 3)
        lines = text.splitlines()
        assert lines[1].split() == ["i=1", ".", "1", ".", "1", "."]
        assert lines[2].split() == ["i=2", "1", ".", "2", ".", "1"]


class TestCrosscheck:
    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_against_generic_engine(self, groups, m):
        report = crosscheck_dihedral(m, groups(f"I2({m})"))
        assert report.passed, report.to_text()
        assert report.counters["products"] == 2 * m * m
