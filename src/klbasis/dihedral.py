"""Closed-form KL-basis products in dihedral groups.

Conventions.  Generators are written 1 and 2.  Every product considered
here has right factor the length-k alternating word ending in generator 2
(for k = m, in the finite group I2(m), this is the longest element).  All
such products expand over the same family: the length-j words ending in
generator 2 plus the longest element.  With s the first letter of the
right factor (2 when k is odd, 1 when k is even) and t the other
generator, the left factor of length i either ends in t ('same' side,
integer coefficients) or in s ('opposite' side, all coefficients
multiples of v + v^-1).

The infinite-group products follow a closed form: a pyramid of 1-2-...-2-1
coefficients for the same side and a (v + v^-1) band for the opposite
side.  The finite-group products follow from them for every m: with inf
the infinite product and n = i + k - m, the coefficient of c_j for
0 < j < m is inf[j] - inf[2m - j], and that of the longest element is
(v + v^-1)[n], the quantum integer [n] = v^(n-1) + v^(n-3) + ... +
v^(1-n) times v + v^-1, when n > 0 (1 when n = 0 on the same side, 0
otherwise).  The integer triangle tables are read off these products:
the part below the longest element, each coefficient an integer c on the
same side and c(v + v^-1) on the opposite side, stored as c.

Lemma.  For 0 < j < m, inf[j] - inf[2m - j] has non-negative
coefficients.  The support of inf lies in [|k-i|, k+i], whose midpoint
max(i, k) is at most m, so reflection at m maps each of its columns
above m onto a column below m that is no nearer an end of the support;
and the pyramid and the band never decrease away from their ends.  Every
strip coefficient is therefore c or c(v + v^-1) with c in {0, 1, 2}, and
v^n times the longest element's coefficient is 1, 2, ..., 2, 1 in
q = v^2, so non-negativity and unimodality hold in I2(m) for every m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import CheckReport
from .coxeter import GroupTable, group_from_name
from .klbase import KLStore, build_wgraph
from .hecke import column
from .ring import SymLaurentPoly

SIDES = ("same", "opposite")

_ONE = SymLaurentPoly.one()
_BETA = SymLaurentPoly(1, (1,))


class InvalidIndexError(ValueError):
    """Word length or column index outside the allowed range."""


def _first_letter(j: int) -> int:
    """First letter of the alternating length-j word ending in generator 2."""
    return 2 if j % 2 else 1


@dataclass(frozen=True)
class DihedralWord:
    """Alternating word s t s t ... of the given length, starting with
    ``first``; length 0 is the identity regardless of first."""

    first: int
    length: int

    def __post_init__(self):
        if self.first not in (1, 2):
            raise InvalidIndexError("first generator must be 1 or 2")
        if self.length < 0:
            raise InvalidIndexError("length must be >= 0")

    @classmethod
    def ending_in(cls, last: int, length: int) -> "DihedralWord":
        if length == 0:
            return cls(1, 0)
        first = last if length % 2 else 3 - last
        return cls(first, length)

    def letters(self) -> tuple[int, ...]:
        a, b = self.first, 3 - self.first
        return tuple(a if i % 2 == 0 else b for i in range(self.length))

    def element(self, g: GroupTable) -> int:
        return g.element_of_word([l - 1 for l in self.letters()])

    def __str__(self) -> str:
        return f"[{self.first},{3 - self.first},{self.length}>"


class DihedralProduct:
    """Sparse expansion of a product over the ending-in-2 family.

    Keys are result lengths j; for a finite group the key m stands for the
    longest element.  Values are symmetric Laurent coefficients."""

    def __init__(self, terms: dict[int, SymLaurentPoly]):
        self.terms = {j: p for j, p in terms.items() if p}

    def to_id_map(self, g: GroupTable) -> dict[int, SymLaurentPoly]:
        return {DihedralWord.ending_in(2, j).element(g): p for j, p in self.terms.items()}

    def __eq__(self, other) -> bool:
        return isinstance(other, DihedralProduct) and self.terms == other.terms

    def __str__(self) -> str:
        parts = []
        for j in sorted(self.terms):
            w = DihedralWord.ending_in(2, j)
            p = self.terms[j]
            coeff = "" if p == _ONE else f"({p}) "
            parts.append(f"{coeff}c{w}")
        return " + ".join(parts) if parts else "0"


def infinite_product(side: str, i: int, k: int) -> DihedralProduct:
    """Product of the length-i left factor with the length-k right factor
    in the infinite dihedral group, from the closed form.

    Same side: c_{|k-i|} + 2c_{|k-i|+2} + ... + 2c_{k+i-2} + c_{k+i}, with
    the column-0 term omitted when i = k (so all interior coefficients
    are 2 and the top is 1).  Opposite side: (v + v^-1) times the sum of
    c_j for j from |k-i|+1 to k+i-1 in steps of 2.
    """
    if side not in SIDES:
        raise InvalidIndexError(f"side must be one of {SIDES}")
    if i <= 0 or k <= 0:
        raise InvalidIndexError("factor lengths must be positive")
    terms: dict[int, SymLaurentPoly] = {}
    if side == "same":
        lo, hi = abs(k - i), k + i
        for j in range(lo if lo else 2, hi + 1, 2):
            inner = j not in (lo, hi)
            terms[j] = SymLaurentPoly(0, (2,)) if inner else _ONE
    else:
        for j in range(abs(k - i) + 1, k + i, 2):
            terms[j] = _BETA
    return DihedralProduct(terms)


def _sides_letters(k: int, side: str) -> int:
    s = _first_letter(k)
    t = 3 - s
    return t if side == "same" else s


def finite_product(m: int, side: str, i: int, k: int) -> DihedralProduct:
    """Product in I2(m), from the closed form of the module docstring:
    the infinite product reflected at the longest element, whose own
    coefficient is (v + v^-1)[n] with n = i + k - m."""
    if side not in SIDES:
        raise InvalidIndexError(f"side must be one of {SIDES}")
    if m < 2:
        raise InvalidIndexError("m must be at least 2")
    if not 0 < i <= m or not 0 < k <= m:
        raise InvalidIndexError("factor lengths must lie in 1..m")
    inf = infinite_product(side, i, k).terms
    zero = SymLaurentPoly.zero()
    terms = {j: inf.get(j, zero) - inf.get(2 * m - j, zero) for j in range(1, m)}
    n = i + k - m
    if n > 0 or (n == 0 and side == "same"):
        terms[m] = SymLaurentPoly(n, (1,) + (2,) * (n // 2))
    return DihedralProduct(terms)


def triangle_table(
    m: int | None, k: int, side: str = "same", rows: int = 5
) -> list[dict[int, int]]:
    """Integer coefficient rows of the products with right factor k.

    Row i is ``finite_product(m, side, i, k)`` inside the strip j < m, or
    ``infinite_product(side, i, k)`` for m = None; the products never
    reach column 0.  Each coefficient there is an integer c on the same
    side and c(v + v^-1) on the opposite side, and the table holds c:
    same-side tables start from 1s at k-1 and k+1, opposite-side tables
    from a single 1 at k (those inside the strip).  Returned as one sparse
    {column: coefficient} dict per row, rows 1..rows.
    """
    if side not in SIDES:
        raise InvalidIndexError(f"side must be one of {SIDES}")
    if k <= 0 or rows < 1:
        raise InvalidIndexError("k and rows must be positive")
    if m is not None and (m < 2 or k > m or rows > m):
        raise InvalidIndexError("finite tables need 0 < k <= m and rows <= m")
    degree = 0 if side == "same" else 1
    table = []
    for i in range(1, rows + 1):
        if m is None:
            row = infinite_product(side, i, k).terms
        else:
            row = {j: p for j, p in finite_product(m, side, i, k).terms.items() if j < m}
        table.append({j: p.coeff(degree) for j, p in sorted(row.items())})
    return table


def format_triangle(table: list[dict[int, int]], k: int) -> str:
    """Dot-matrix rendering of a triangle table, dots for zeros."""
    cols = sorted({j for row in table for j in row})
    if not cols:
        cols = [k]
    lo, hi = min(cols), max(cols)
    header = ["     "] + [f"j={j}".rjust(5) for j in range(lo, hi + 1)]
    lines = ["".join(header)]
    for i, row in enumerate(table, start=1):
        cells = [f"i={i}".ljust(5)]
        for j in range(lo, hi + 1):
            c = row.get(j, 0)
            cells.append((str(c) if c else ".").rjust(5))
        lines.append("".join(cells))
    return "\n".join(lines)


def crosscheck_dihedral(m: int, g: GroupTable | None = None) -> CheckReport:
    """Compare every closed-form finite product against the generic column
    engine on I2(m)."""
    if not 2 <= m <= 30:
        raise InvalidIndexError("crosscheck supports 2 <= m <= 30")
    if g is None:
        g = group_from_name(f"I2({m})")
    store = KLStore(g)
    wg = build_wgraph(store)
    report = CheckReport("dihedral_crosscheck", g.name)
    products = 0
    for k in range(1, m + 1):
        y = DihedralWord.ending_in(2, k).element(g)
        col = column(wg, y)
        for side in SIDES:
            last = _sides_letters(k, side)
            for i in range(1, m + 1):
                x = DihedralWord.ending_in(last, i).element(g)
                got = col.row_polys(x)
                want = finite_product(m, side, i, k).to_id_map(g)
                products += 1
                if got != want:
                    report.record_failure(
                        f"m={m} side={side} i={i} k={k}: engine {got} != closed form {want}"
                    )
    report.counters.update(products=products)
    return report
