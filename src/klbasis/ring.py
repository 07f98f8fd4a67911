"""Exact integer polynomial arithmetic: Laurent polynomials in v, ordinary
polynomials in q = v^2, and bar-symmetric Laurent polynomials stored by
their upper half.

Coefficients are confined to signed 64-bit range.  Structure constants for
the large non-crystallographic groups grow close to 2^30, so the bound is
checked and CoefficientOverflowError raised rather than let values drift
silently.  Three layers check it on every operation: every LaurentPoly and
QPoly normalisation step (the t-basis oracle and QPoly queries), and the
SymLaurentPoly constructor.  SymLaurentPoly arithmetic does not check,
since Python ints cannot wrap.  The two large tables check in batches
instead, through one codec defined here: a polynomial packed into one
int, one W-bit slot per coefficient (``W``; ``_biased`` reads one value,
``_biased_slots`` many at once, with their degrees).  ``klbase.KLStore``
holds each P_{x,y} packed and checks every pair of a batch of columns in
one read.  ``hecke.PolyStore`` checks, with the single degree parity,
each structure constant (``hecke.pack``) before any column returns, and
the first failure in interning order raises what a check of that value
alone would raise; the store holds only structure constants.  The images
of a stored value under v + v^-1 and the mu-values are summands, never
stored: the store bounds each value so that they stay in 64 bits, and
sums in between cannot carry, each summand weighed by its factor, which
each caller checks once per column.

The canonical textual form used throughout (output files, CLI, reprs)
lists terms in ascending exponent, elides unit coefficients, and writes
exponents as ``v^-1``, ``q^2``:  ``v^-3 + 2v^-1 + 2v + v^3``.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add as _add
from struct import Struct
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class CoefficientOverflowError(OverflowError):
    """A coefficient left the signed 64-bit range."""


class NotSymmetricError(ValueError):
    """Input Laurent polynomial is not fixed by v -> v^-1."""


class MixedParityError(ValueError):
    """Exponents of both parities where a single parity is required."""


def _check64(c: int, where: str) -> int:
    if c < _I64_MIN or c > _I64_MAX:
        raise CoefficientOverflowError(f"coefficient {c} out of 64-bit range in {where}")
    return c


# Packed polynomials.  A polynomial with signed integer coefficients c_e
# is held as the one int sum of c_e 2^(W e): the polynomial evaluated at
# 2^W (Kronecker substitution), one W-bit slot per exponent.  Sums and
# scalings are then int additions and multiplications.  A stored value has
# every coefficient in signed 64 bits, so a sum of fewer than 2^(W - 65)
# stored values keeps every slot below 2^(W - 1) in absolute value: it
# cannot carry, and its slots read back as its coefficients.
W = 96
_SLOT = (1 << W) - 1
_HALF = 1 << (W - 1)
_CARRY_LIMIT = 1 << (W - 65)
_I64 = 1 << 63


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[int, int, Struct]:
    """For n slots: 2^63 in each, the bits above 64 in each, and a reader
    of the low 64 bits of each."""
    ones = ((1 << W * n) - 1) // _SLOT
    return ones << 63, ones * (_SLOT >> 64) << 64, Struct("<" + f"Q{W // 8 - 8}x" * n)


def _biased(u: int) -> list[int]:
    """c_e + 2^63 for the coefficients c_e of a packed value, exponent 0 up
    to its degree.  Every c_e fits in signed 64 bits, or this raises, exactly
    when adding 2^63 to each slot borrows from none and leaves it below 2^64."""
    n = u.bit_length() // W + 2
    bias, high, reader = _layout(n)
    u += bias
    if u < 0 or u & high:
        raise CoefficientOverflowError("packed coefficient outside signed 64 bits")
    out = list(reader.unpack(u.to_bytes(W // 8 * n, "little")))
    while out and out[-1] == _I64:
        out.pop()
    return out


# a slot as bytes: its low 64 bits, and the W - 64 bits above them
_SLOT_BYTES = np.dtype([("low", "<u8"), ("high", f"<u{W // 8 - 8}")])


def _biased_slots(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_biased`` for many packed values at once: a uint64 array, one row
    per value, of c_e + 2^63 for exponent 0 up to one slot past the
    longest value (so the last slot of a row is 2^63 when its value is in
    range), a bool array, True where ``_biased`` would raise, and an int64
    array of the degrees, -1 for zero (meaningless where out of range).
    With that many slots, adding 2^63 to each leaves every value positive,
    so a value has a coefficient outside signed 64 bits exactly when one of
    its slots has a bit set above the low 64."""
    n = max(map(int.bit_length, values), default=0) // W + 2
    bias, size = _layout(n)[0], W // 8 * n
    slots = bytearray()
    for u in values:
        slots += (u + bias).to_bytes(size, "little")
    raw = np.frombuffer(slots, _SLOT_BYTES).reshape(len(values), n)
    low = raw["low"]
    degree = ((low != _I64) * np.arange(1, n + 1)).max(axis=1) - 1
    return low, raw["high"].any(axis=1), degree


def _fmt_terms(items: Iterable[tuple[int, int]], var: str) -> str:
    """Render (exponent, coefficient) pairs, ascending, in canonical form."""
    parts: list[str] = []
    for e, c in items:
        if e == 0:
            body = str(abs(c))
        else:
            head = "" if abs(c) == 1 else str(abs(c))
            power = var if e == 1 else f"{var}^{e}"
            body = head + power
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


class LaurentPoly:
    """Laurent polynomial in v over the integers.

    Stored sparsely as {exponent: coefficient}; zero coefficients are never
    kept, so the zero polynomial has an empty table.  Instances are
    immutable and hashable.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Union[Mapping[int, int], Iterable[tuple[int, int]], None] = None):
        c: dict[int, int] = {}
        if coeffs:
            pairs = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            for e, a in pairs:
                if a:
                    c[e] = c.get(e, 0) + a
            for e in [e for e, a in c.items() if a == 0]:
                del c[e]
            for a in c.values():
                _check64(a, "LaurentPoly")
        self._c = c

    @staticmethod
    def zero() -> "LaurentPoly":
        return _L_ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _L_ONE

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def items(self) -> list[tuple[int, int]]:
        """Terms sorted by ascending exponent."""
        return sorted(self._c.items())

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def degree(self) -> int | None:
        return max(self._c) if self._c else None

    def max_abs_coeff(self) -> int:
        return max((abs(a) for a in self._c.values()), default=0)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for e, a in other._c.items():
            s = c.get(e, 0) + a
            if s:
                c[e] = _check64(s, "add")
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -a for e, a in self._c.items()}
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            return self.scaled(other)
        c: dict[int, int] = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                e = e1 + e2
                s = c.get(e, 0) + a1 * a2
                c[e] = s
        c = {e: _check64(a, "mul") for e, a in c.items() if a}
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def scaled(self, n: int) -> "LaurentPoly":
        if n == 0:
            return _L_ZERO
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: _check64(a * n, "scale") for e, a in self._c.items()}
        return out

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1 (negate every exponent)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {-e: a for e, a in self._c.items()}
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    def __str__(self) -> str:
        return _fmt_terms(self.items(), "v")

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


_L_ZERO = LaurentPoly()
_L_ONE = LaurentPoly({0: 1})


class QPoly:
    """Polynomial in q with integer coefficients, stored densely from the
    constant term up.  The leading coefficient is nonzero unless the
    polynomial is zero (empty tuple)."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        for a in c:
            _check64(a, "QPoly")
        self._c = tuple(c)

    @staticmethod
    def zero() -> "QPoly":
        return _Q_ZERO

    @staticmethod
    def one() -> "QPoly":
        return _Q_ONE

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._c

    def coeff(self, k: int) -> int:
        return self._c[k] if 0 <= k < len(self._c) else 0

    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self._c) - 1

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        c = list(a)
        for i, x in enumerate(b):
            c[i] += x
        return QPoly(c)

    def __neg__(self) -> "QPoly":
        return QPoly([-x for x in self._c])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: Union["QPoly", int]) -> "QPoly":
        if isinstance(other, int):
            return QPoly([x * other for x in self._c])
        c = [0] * (len(self._c) + len(other._c))
        for i, x in enumerate(self._c):
            if x:
                for j, y in enumerate(other._c):
                    c[i + j] += x * y
        return QPoly(c)

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k (k >= 0)."""
        if not self._c:
            return self
        return QPoly((0,) * k + self._c)

    def to_laurent_v(self, vshift: int = 0) -> LaurentPoly:
        """Substitute q = v^2 and multiply by v^vshift."""
        return LaurentPoly({2 * k + vshift: a for k, a in enumerate(self._c) if a})

    def is_palindromic(self) -> bool:
        return self._c == self._c[::-1]

    def max_abs_coeff(self) -> int:
        return max((abs(a) for a in self._c), default=0)

    def sort_key(self) -> tuple:
        """Order by (degree, coefficient sequence); used for output lists."""
        return (len(self._c) - 1, self._c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __str__(self) -> str:
        return _fmt_terms([(k, a) for k, a in enumerate(self._c) if a], "q")

    def __repr__(self) -> str:
        return f"QPoly('{self}')"


_Q_ZERO = QPoly()
_Q_ONE = QPoly((1,))


def is_unimodal(p: QPoly) -> bool:
    """True iff the coefficient sequence weakly increases then weakly
    decreases.  Internal zeros break unimodality: (1, 0, 1) is not unimodal.
    """
    c = p.coeffs
    i = 0
    while i + 1 < len(c) and c[i] <= c[i + 1]:
        i += 1
    while i + 1 < len(c) and c[i] >= c[i + 1]:
        i += 1
    return i + 1 >= len(c)


class SymLaurentPoly:
    """Laurent polynomial fixed by v -> v^-1, stored by its upper half.

    ``degree`` is the largest exponent (-1 marks zero) and ``half`` holds
    the coefficients at exponents degree, degree-2, ... down to 0 or 1.
    All exponents carrying a nonzero coefficient share the parity of the
    degree; the constant term, when present, is stored once.

    The constructor checks the signed 64-bit bound; the arithmetic below
    (sum, scaling, multiplication by v + v^-1) does not.
    """

    __slots__ = ("_d", "_half")

    def __init__(self, degree: int, half: Iterable[int] = ()):
        h = list(half)
        while h and h[0] == 0:
            h.pop(0)
            degree -= 2
        if not h:
            self._d = -1
            self._half = ()
            return
        if degree < 0:
            raise ValueError("degree must be >= 0 for a nonzero symmetric polynomial")
        if len(h) != degree // 2 + 1:
            raise ValueError("half length does not match degree")
        for a in h:
            _check64(a, "SymLaurentPoly")
        self._d = degree
        self._half = tuple(h)

    @staticmethod
    def zero() -> "SymLaurentPoly":
        return _S_ZERO

    @staticmethod
    def one() -> "SymLaurentPoly":
        return _S_ONE

    @property
    def degree(self) -> int:
        return self._d

    @property
    def half(self) -> tuple[int, ...]:
        return self._half

    def is_zero(self) -> bool:
        return self._d < 0

    def __bool__(self) -> bool:
        return self._d >= 0

    def coeff(self, e: int) -> int:
        e = abs(e)
        if self._d < 0 or e > self._d or (self._d - e) & 1:
            return 0
        return self._half[(self._d - e) >> 1]

    def expand(self) -> LaurentPoly:
        """The full palindromic Laurent polynomial."""
        c: dict[int, int] = {}
        for i, a in enumerate(self._half):
            if a:
                e = self._d - 2 * i
                c[e] = a
                if e:
                    c[-e] = a
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    def __add__(self, other: "SymLaurentPoly") -> "SymLaurentPoly":
        # Both halves end at exponent 0 or 1, so they align at their tails.
        if self._d < 0:
            return other
        if other._d < 0:
            return self
        if (self._d ^ other._d) & 1:
            raise MixedParityError("adding symmetric polynomials of different parity")
        a, b = self._half, other._half
        k = len(a) - len(b)
        if k > 0:
            return _sym(self._d, a[:k] + tuple(map(_add, a[k:], b)))
        if k < 0:
            return _sym(other._d, b[:-k] + tuple(map(_add, a, b[-k:])))
        h = tuple(map(_add, a, b))
        if h[0]:
            return _sym(self._d, h)
        for i, c in enumerate(h):
            if c:
                return _sym(self._d - 2 * i, h[i:])
        return _S_ZERO

    def __neg__(self) -> "SymLaurentPoly":
        return self.scaled(-1)

    def __sub__(self, other: "SymLaurentPoly") -> "SymLaurentPoly":
        return self + other.scaled(-1)

    def scaled(self, n: int) -> "SymLaurentPoly":
        if n == 0 or self._d < 0:
            return _S_ZERO
        return _sym(self._d, tuple(a * n for a in self._half))

    def bmul(self) -> "SymLaurentPoly":
        """Multiply by v + v^-1.  Flips parity, raises the degree by one."""
        if self._d < 0:
            return self
        # v^e + v^-e spreads to exponents e + 1 and e - 1; at e = 1 both
        # images of the pair land on v^0
        h = self._half
        out = (h[0],) + tuple(map(_add, h[1:], h))
        if self._d & 1:
            out += (2 * h[-1],)
        return _sym(self._d + 1, out)

    def max_abs_coeff(self) -> int:
        return max((abs(a) for a in self._half), default=0)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SymLaurentPoly)
            and self._d == other._d
            and self._half == other._half
        )

    def __hash__(self) -> int:
        return hash((self._d, self._half))

    def __str__(self) -> str:
        return str(self.expand())

    def __repr__(self) -> str:
        return f"SymLaurentPoly('{self}')"


def _sym(degree: int, half: tuple[int, ...]) -> SymLaurentPoly:
    """A SymLaurentPoly from an already normalised half (nonzero leading
    coefficient), without the constructor's checks."""
    out = object.__new__(SymLaurentPoly)
    out._d = degree
    out._half = half
    return out


_S_ZERO = SymLaurentPoly(-1)
_S_ONE = SymLaurentPoly(0, (1,))


def qpoly_from_sym(h: SymLaurentPoly) -> QPoly:
    """v^degree * h, written in q = v^2.

    The result has degree equal to h's and palindromic coefficients.
    """
    d = h.degree
    if d < 0:
        return _Q_ZERO
    return QPoly([h.coeff(2 * k - d) for k in range(d + 1)])
