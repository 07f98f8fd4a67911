import pytest
from hypothesis import assume, example, given, strategies as st

from klbasis.ring import (
    _I64,
    W,
    CoefficientOverflowError,
    LaurentPoly,
    MixedParityError,
    NotSymmetricError,
    QPoly,
    SymLaurentPoly,
    is_unimodal,
    _biased,
    _biased_slots,
    qpoly_from_sym,
)

from oracles import sym_from_laurent


def L(d):
    return LaurentPoly(d)


laurents = st.dictionaries(
    st.integers(-8, 8), st.integers(-50, 50), max_size=8
).map(LaurentPoly)

sym_halves = st.lists(st.integers(-30, 30), min_size=1, max_size=6)


@st.composite
def sym_polys(draw, parity=None):
    """Symmetric polynomials of the given degree parity (drawn if None)."""
    par = draw(st.integers(0, 1)) if parity is None else parity
    half = draw(sym_halves)
    return SymLaurentPoly(2 * (len(half) - 1) + par, half)


@st.composite
def sym_pairs(draw):
    """Same-parity pairs (a, b): unrelated (equal or unequal degrees), b
    cancelling the top terms of a, or b = -a."""
    a = draw(sym_polys())
    kind = draw(st.sampled_from(["free", "cancel_top", "negate"]))
    if kind == "negate":
        return a, -a
    if kind == "free" or not a:
        return a, draw(sym_polys(a.degree & 1))
    k = draw(st.integers(1, len(a.half)))
    n = len(a.half) - k
    tail = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
    return a, SymLaurentPoly(a.degree, [-c for c in a.half[:k]] + tail)


class TestLaurent:
    def test_bar_examples(self):
        assert L({1: 1}).bar() == L({-1: 1})
        assert L({1: 1, -1: 1}).bar() == L({1: 1, -1: 1})
        assert L({3: 2, -1: -1}).bar() == L({-3: 2, 1: -1})

    @given(laurents)
    def test_bar_involutive(self, p):
        assert p.bar().bar() == p

    @given(laurents, laurents)
    def test_bar_additive_multiplicative(self, p, q):
        assert (p + q).bar() == p.bar() + q.bar()
        assert (p * q).bar() == p.bar() * q.bar()

    def test_arithmetic(self):
        v = LaurentPoly({1: 1})
        vinv = LaurentPoly({-1: 1})
        assert v * vinv == LaurentPoly.one()
        assert (v + vinv) * (v - vinv) == L({2: 1, -2: -1})
        assert v - v == LaurentPoly.zero()
        assert not (v - v)

    def test_str_canonical(self):
        assert str(L({-1: 2, 2: 1})) == "2v^-1 + v^2"
        assert str(L({0: 1})) == "1"
        assert str(L({1: -1, 0: 2})) == "2 - v"
        assert str(LaurentPoly.zero()) == "0"
        assert str(L({-3: 1, -1: 2, 1: 2, 3: 1})) == "v^-3 + 2v^-1 + 2v + v^3"

    def test_overflow_raises(self):
        big = LaurentPoly({0: (1 << 62)})
        with pytest.raises(CoefficientOverflowError):
            big + big
        with pytest.raises(CoefficientOverflowError):
            big.scaled(4)
        with pytest.raises(CoefficientOverflowError):
            LaurentPoly({0: 1 << 63})


class TestSymLaurent:
    def test_from_laurent_examples(self):
        h = sym_from_laurent(L({1: 1, -1: 1}))
        assert h.degree == 1 and h.half == (1,)
        h = sym_from_laurent(L({3: 1, 1: 2, -1: 2, -3: 1}))
        assert h.degree == 3 and h.half == (1, 2)
        h = sym_from_laurent(L({0: 2}))
        assert h.degree == 0 and h.half == (2,)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            sym_from_laurent(L({1: 1}))
        with pytest.raises(MixedParityError):
            sym_from_laurent(L({1: 1, 0: 1, -1: 1}))

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=6), st.booleans())
    def test_round_trip(self, half, odd):
        d = 2 * (len(half) - 1) + (1 if odd else 0)
        h = SymLaurentPoly(d, half)
        assert sym_from_laurent(h.expand()) == h

    def test_bmul(self):
        one = SymLaurentPoly.one()
        beta = one.bmul()
        assert beta == SymLaurentPoly(1, (1,))
        # (v + v^-1)^2 = v^2 + 2 + v^-2
        assert beta.bmul() == SymLaurentPoly(2, (1, 2))
        # (v + v^-1)^3 = v^3 + 3v + 3v^-1 + v^-3
        assert beta.bmul().bmul() == SymLaurentPoly(3, (1, 3))

    def test_add_parity_guard(self):
        with pytest.raises(MixedParityError):
            SymLaurentPoly.one() + SymLaurentPoly(1, (1,))

    @given(sym_pairs())
    def test_add_matches_expanded_sum(self, pair):
        a, b = pair
        s = a + b
        assert s == sym_from_laurent(a.expand() + b.expand())
        assert s == b + a
        assert not s.half or s.half[0] != 0

    @given(sym_polys(0), sym_polys(1))
    def test_add_mixed_parity_raises(self, a, b):
        assume(a and b)
        with pytest.raises(MixedParityError):
            a + b
        with pytest.raises(MixedParityError):
            b + a

    def test_add_cancellation_examples(self):
        a = SymLaurentPoly(4, (1, 2, 3))
        # top terms cancel: the degree drops by two per cancelled term
        assert a + SymLaurentPoly(4, (-1, -2, 5)) == SymLaurentPoly(0, (8,))
        assert a + SymLaurentPoly(4, (-1, 0, 0)) == SymLaurentPoly(2, (2, 3))
        assert (a + (-a)).is_zero() and a + (-a) == SymLaurentPoly.zero()
        # unequal degrees align at the low end
        assert a + SymLaurentPoly(2, (1, 1)) == SymLaurentPoly(4, (1, 3, 4))

    @given(sym_polys())
    def test_bmul_matches_expanded_product(self, p):
        beta = LaurentPoly({1: 1, -1: 1})
        assert p.bmul() == sym_from_laurent(p.expand() * beta)

    def test_zero_normalisation(self):
        assert SymLaurentPoly(2, (0, 5)) == SymLaurentPoly(0, (5,))
        z = SymLaurentPoly(1, (1,)) - SymLaurentPoly(1, (1,))
        assert z.is_zero() and z == SymLaurentPoly.zero()


class TestQPoly:
    def test_qpoly_from_sym_examples(self):
        assert qpoly_from_sym(SymLaurentPoly(1, (1,))) == QPoly((1, 1))
        assert qpoly_from_sym(SymLaurentPoly(3, (1, 2))) == QPoly((1, 2, 2, 1))
        assert qpoly_from_sym(SymLaurentPoly.zero()) == QPoly.zero()

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=6), st.booleans())
    def test_qpoly_from_sym_palindromic(self, half, odd):
        d = 2 * (len(half) - 1) + (1 if odd else 0)
        assert qpoly_from_sym(SymLaurentPoly(d, half)).is_palindromic()

    def test_unimodal_examples(self):
        assert is_unimodal(QPoly((1, 2, 2, 1)))
        assert not is_unimodal(QPoly((1, 0, 1)))
        assert is_unimodal(QPoly((5,)))
        assert is_unimodal(QPoly.zero())
        assert is_unimodal(QPoly((1, 2, 3)))
        assert is_unimodal(QPoly((3, 2, 1)))
        assert not is_unimodal(QPoly((2, 1, 2)))

    def test_mul_and_shift(self):
        p = QPoly((1, 1))
        assert p * p == QPoly((1, 2, 1))
        assert p.shift(2) == QPoly((0, 0, 1, 1))
        assert p.to_laurent_v(-1) == L({-1: 1, 1: 1})

    def test_str(self):
        assert str(QPoly((1, 2, 0, 1))) == "1 + 2q + q^3"
        assert str(QPoly((0, 1))) == "q"


def packed(coeffs):
    """sum of c_k 2^(W k): the packed form the slot reader reads."""
    return sum(c << W * k for k, c in enumerate(coeffs))


i64s = st.one_of(
    st.integers(-_I64, _I64 - 1), st.sampled_from([-_I64, -_I64 + 1, -1, 0, 1, _I64 - 1])
)


class TestPackedCodec:
    @given(st.lists(i64s, max_size=8))
    def test_round_trip_full_64_bit_range(self, coeffs):
        # _biased reads c_k + 2^63 from exponent 0 up to the degree
        assert QPoly([c - _I64 for c in _biased(packed(coeffs))]) == QPoly(coeffs)

    @given(st.lists(i64s, max_size=6), st.integers(0, 6), st.sampled_from([_I64, -_I64 - 1]))
    def test_slot_outside_64_bits_raises(self, coeffs, k, bad):
        coeffs = coeffs + [0] * (k + 1 - len(coeffs))
        coeffs[k] = bad
        with pytest.raises(CoefficientOverflowError):
            _biased(packed(coeffs))

    @given(st.lists(st.one_of(
        st.lists(i64s, max_size=6).map(packed),
        st.integers(-(1 << 300), 1 << 300),
        st.sampled_from([0, _I64 - 1, 1 - _I64, _I64, -_I64 - 1]),
    ), max_size=8))
    @example([])
    @example([0, _I64 - 1, 1 - _I64])
    def test_batch_reader_matches_the_value_reader(self, values):
        low, out_of_range, degree = _biased_slots(values)
        assert len(low) == len(out_of_range) == len(degree) == len(values)
        for u, row, flagged, d in zip(values, low.tolist(), out_of_range.tolist(),
                                      degree.tolist()):
            try:
                biased = _biased(u)
            except CoefficientOverflowError:
                assert flagged
                continue
            assert not flagged
            assert row[:len(biased)] == biased
            assert set(row[len(biased):]) == {_I64}
            assert d == len(biased) - 1
