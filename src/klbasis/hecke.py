"""Hecke algebra operations over the group ring Z[v, v^-1].

Two layers live here.  The t-basis layer (TCombo: sparse element id ->
LaurentPoly maps) implements generator multiplication, the bar involution
and the triangular bar-solve that reconstructs the Kazhdan-Lusztig basis
from its defining properties; it is the independent oracle against which
the P-polynomial recursion is checked.  The column layer computes, for a
fixed y, every product c_x * c_y by induction on l(x), storing the
structure constants as handles into a deduplicating store of symmetric
Laurent polynomials.  The store holds only finished row values and their
images under multiplication by v + v^-1 and by the mu-values; the sums a
row is built from stay outside it.  Columns for distinct y are independent
and share nothing mutable.
"""

from __future__ import annotations

from operator import le
from typing import Callable, Iterable

from .coxeter import GroupTable
from .klbase import KLStore, WGraph
from .ring import LaurentPoly, NotSymmetricError, SymLaurentPoly

TCombo = dict[int, LaurentPoly]
CCombo = dict[int, LaurentPoly]

_L_ONE = LaurentPoly.one()
_V_MINUS_VINV = LaurentPoly({1: 1, -1: -1})
_BETA = LaurentPoly({1: 1, -1: 1})  # v + v^-1


class NoSolutionError(RuntimeError):
    """The triangular bar-solve could not be completed (internal bug)."""


def _add_term(acc: TCombo, x: int, p: LaurentPoly) -> None:
    cur = acc.get(x)
    s = p if cur is None else cur + p
    if s:
        acc[x] = s
    elif cur is not None:
        del acc[x]


def combo_add_scaled(acc: TCombo, other: TCombo, scale: LaurentPoly) -> None:
    for x, p in other.items():
        _add_term(acc, x, p * scale)


def t_mult_gen(g: GroupTable, s: int, u: TCombo) -> TCombo:
    """Left multiplication t_s * u in the t-basis."""
    out: TCombo = {}
    for y, p in u.items():
        sy = g.lmult[y][s]
        if g.lengths[sy] > g.lengths[y]:
            _add_term(out, sy, p)
        else:
            _add_term(out, y, p * _V_MINUS_VINV)
            _add_term(out, sy, p)
    return out


def t_inverse(g: GroupTable, z: int) -> TCombo:
    """t_z^-1 in the t-basis, by induction on length via
    t_s^-1 = t_s - (v - v^-1) t_e."""
    cache: dict[int, TCombo] = g.cache("t_inverse")
    if z in cache:
        return cache[z]
    chain = []
    while z not in cache:
        if z == 0:
            cache[0] = {0: _L_ONE}
            break
        chain.append(z)
        z = g.parent[z]
    for w in reversed(chain):
        s = g.lastgen[w]
        # t_w = t_parent * t_s, so t_w^-1 = t_s^-1 * t_parent^-1
        prev = cache[g.parent[w]]
        out = t_mult_gen(g, s, prev)
        combo_add_scaled(out, prev, -_V_MINUS_VINV)
        cache[w] = out
    return cache[chain[0]] if chain else cache[0]


def bar_h(g: GroupTable, u: TCombo) -> TCombo:
    """The bar involution: coefficients bar'ed, t_y -> (t_{y^-1})^-1."""
    out: TCombo = {}
    for y, p in u.items():
        combo_add_scaled(out, t_inverse(g, g.inv[y]), p.bar())
    return out


def tcombo_mult(g: GroupTable, a: TCombo, b: TCombo) -> TCombo:
    """Full product in the t-basis: a * b via reduced words of a's terms."""
    out: TCombo = {}
    for x, p in a.items():
        part = b
        for s in reversed(g.word(x)):
            part = t_mult_gen(g, s, part)
        combo_add_scaled(out, part, p)
    return out


def c_in_t_basis(store: KLStore, y: int) -> TCombo:
    """c_y = sum over x <= y of v^(l(x)-l(y)) P_{x,y}(v^2) t_x."""
    g = store.g
    ly = g.lengths[y]
    out: TCombo = {}
    for x in g.mask_to_ids(g.bruhat_mask(y)):
        x = int(x)
        p = store.kl_polynomial(x, y)
        if p:
            out[x] = p.to_laurent_v(g.lengths[x] - ly)
    return out


def c_in_t_basis_oracle(g: GroupTable, y: int) -> TCombo:
    """Reconstruct c_y directly from the defining properties: the unique
    bar-invariant element t_y + corrections with coefficients in
    v^-1 Z[v^-1].  Independent of the P-polynomial recursion."""
    u: TCombo = {y: _L_ONE}
    # residual r = bar(u) - u, updated incrementally as corrections land
    r: TCombo = {}
    combo_add_scaled(r, t_inverse(g, g.inv[y]), _L_ONE)
    _add_term(r, y, -_L_ONE)
    ly = g.lengths[y]
    by_level: dict[int, list[int]] = {}
    for x in r:
        by_level.setdefault(g.lengths[x], []).append(x)
    for level in range(ly - 1, -1, -1):
        for x in sorted(by_level.get(level, ()), reverse=True):
            gamma = r.get(x)
            if not gamma:
                continue
            if gamma.bar() != -gamma:
                raise NoSolutionError(f"residual at {x} is not antisymmetric: {gamma}")
            delta = LaurentPoly({e: c for e, c in gamma.items() if e < 0})
            _add_term(u, x, delta)
            tinv = t_inverse(g, g.inv[x])
            bar_delta = delta.bar()
            for w, p in tinv.items():
                _add_term(r, w, p * bar_delta)
                if g.lengths[w] < level:
                    by_level.setdefault(g.lengths[w], []).append(w)
            _add_term(r, x, -delta)
    if any(p for p in r.values()):
        raise NoSolutionError("bar-solve left a nonzero residual")
    return u


def c_mult_gen(wg: WGraph, s: int, u: CCombo) -> CCombo:
    """c_s * u in the KL basis: (v + v^-1) c_w when sw < w, otherwise
    c_{sw} plus the mu-edge terms below w."""
    g = wg.g
    out: CCombo = {}
    for w, p in u.items():
        if g.lmask[w] >> s & 1:
            _add_term(out, w, p * _BETA)
        else:
            _add_term(out, g.lmult[w][s], p)
            for z, mu in wg.mu_in(w):
                if g.lmask[z] >> s & 1:
                    _add_term(out, z, p.scaled(mu))
    return out


def c_to_t(store: KLStore, u: CCombo) -> TCombo:
    """Expand a KL-basis combination into the t-basis."""
    out: TCombo = {}
    for y, p in u.items():
        combo_add_scaled(out, c_in_t_basis(store, y), p)
    return out


# Add-cache marker for a pair of handles whose sum cancels to zero.
_ZERO = -1


class PolyStore:
    """Deduplicating store of symmetric Laurent polynomials.

    Each distinct polynomial is held once; rows refer to it by an integer
    handle, and ``column`` puts in only what a row keeps: finished row
    values, and their images under ``bmul`` and ``scale``.  While a row is
    built, its entries are handles or loose polynomials (``add_into``), and
    a sum of two handles is remembered only when it cancels or is already
    stored, so identical sums that recur across a column cost one lookup
    while intermediate sums are never stored.  Every stored value is
    checked against the signed 64-bit bound once, on ``intern``.

    The store also caches, per handle, the figures a column scan reads
    (``max_abs``, ``nonnegative``, ``unimodal``), so each distinct value
    is scanned once however many columns share the store.
    """

    def __init__(self):
        self._polys: list[SymLaurentPoly] = []
        self._index: dict[SymLaurentPoly, int] = {}
        self._parity: list[int] = []  # degree parity per handle, for column's check
        # packed handle pair -> handle of the sum, or _ZERO
        self._add: dict[int, int] = {}
        self._bmul: dict[int, int] = {}
        self._scale: dict[tuple[int, int], int] = {}
        self._max_abs: dict[int, int] = {}
        self._nonnegative: dict[int, bool] = {}
        self._unimodal: dict[int, bool] = {}
        self.one = self.intern(SymLaurentPoly.one())

    def intern(self, p: SymLaurentPoly) -> int:
        h = self._index.get(p)
        if h is None:
            p.check_bound()
            h = len(self._polys)
            self._polys.append(p)
            self._parity.append(p.parity())
            self._index[p] = h
        return h

    def poly(self, h: int) -> SymLaurentPoly:
        return self._polys[h]

    def add_into(
        self, row: dict[int, int | SymLaurentPoly], z: int, cur: int | SymLaurentPoly, h: int
    ) -> None:
        """Set row[z] to cur + the polynomial of handle h, where cur is the
        entry already there: a handle or a loose polynomial.  A cancelled
        entry is removed; a sum that is not a stored value stays loose."""
        if cur.__class__ is int:
            # handles stay far below 2^32, so the pair packs into one int
            key = cur << 32 | h if cur < h else h << 32 | cur
            got = self._add.get(key)
            if got is None:
                p = self._polys[cur] + self._polys[h]
                if not p:
                    self._add[key] = _ZERO
                    del row[z]
                    return
                got = self._index.get(p)
                if got is None:
                    row[z] = p
                    return
                self._add[key] = got
            if got < 0:  # _ZERO
                del row[z]
            else:
                row[z] = got
        else:
            p = cur + self._polys[h]
            if p:
                row[z] = p
            else:
                del row[z]

    def bmul(self, h: int) -> int:
        got = self._bmul.get(h)
        if got is None:
            got = self.intern(self._polys[h].bmul())
            self._bmul[h] = got
        return got

    def scale(self, h: int, n: int) -> int:
        key = (h, n)
        got = self._scale.get(key)
        if got is None:
            got = self.intern(self._polys[h].scaled(n))
            self._scale[key] = got
        return got

    def max_abs(self, h: int) -> int:
        m = self._max_abs.get(h)
        if m is None:
            m = self._max_abs[h] = self._polys[h].max_abs_coeff()
        return m

    def nonnegative(self, h: int) -> bool:
        ok = self._nonnegative.get(h)
        if ok is None:
            ok = self._nonnegative[h] = self._polys[h].min_coeff() >= 0
        return ok

    def unimodal(self, h: int) -> bool:
        """v^d p is unimodal in q, p the polynomial of h and d its degree.

        Its q-coefficients are the palindrome half[0], half[1], ...,
        half[1], half[0], which is unimodal exactly when the half rises
        weakly towards the middle."""
        ok = self._unimodal.get(h)
        if ok is None:
            half = self._polys[h].half
            ok = self._unimodal[h] = all(map(le, half, half[1:]))
        return ok

    def __len__(self) -> int:
        return len(self._polys)


def _first_descent(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _last_descent(mask: int) -> int:
    return mask.bit_length() - 1


DESCENT_STRATEGIES: dict[str, Callable[[int], int]] = {
    "first": _first_descent,
    "last": _last_descent,
}


class HColumn:
    """For a fixed y, the table x -> (z -> h_{x,y,z}) with entries stored
    as handles into a PolyStore."""

    def __init__(self, g: GroupTable, y: int, rows: list[dict[int, int]], store: PolyStore):
        self.g = g
        self.y = y
        self.rows = rows
        self.store = store

    def row(self, x: int) -> dict[int, int]:
        return self.rows[x]

    def h_value(self, x: int, z: int) -> SymLaurentPoly:
        h = self.rows[x].get(z)
        return SymLaurentPoly.zero() if h is None else self.store.poly(h)

    def row_polys(self, x: int) -> dict[int, SymLaurentPoly]:
        return {z: self.store.poly(h) for z, h in self.rows[x].items()}

    def distinct_handles(self) -> set[int]:
        out: set[int] = set()
        for row in self.rows:
            out.update(row.values())
        return out

    def nonzero_entries(self) -> int:
        return sum(len(row) for row in self.rows)

    def max_abs_coeff(self) -> int:
        return max(map(self.store.max_abs, self.distinct_handles()), default=0)


def column(
    wg: WGraph,
    y: int,
    strategy: str = "first",
    store: PolyStore | None = None,
) -> HColumn:
    """All products c_x * c_y for x in the group, by induction on l(x).

    Row x is obtained from c_x = c_s c_{sx} - sum mu(z, sx) c_z with
    s the chosen descent of x; every coefficient is kept in symmetric
    form and checked against the parity l(x) + l(y) + l(z) mod 2.
    """
    g = wg.g
    pick = DESCENT_STRATEGIES[strategy]
    st = store if store is not None else PolyStore()
    add_into, bmul, scale, intern = st.add_into, st.bmul, st.scale, st.intern
    parities = st._parity
    lmask, lmult, lengths, mu_lists = g.lmask, g.lmult, g.lengths, wg.mu_lists
    rows: list[dict[int, int]] = [dict() for _ in range(g.size)]
    rows[0] = {y: st.one}
    ly = lengths[y]
    for x in range(1, g.size):
        s = pick(lmask[x])
        sx = lmult[x][s]
        row: dict[int, int | SymLaurentPoly] = {}
        get = row.get
        # c_s * c_{sx}, as in c_mult_gen ...
        # (the first touch of an entry is inlined: it needs no sum)
        for z, h in rows[sx].items():
            up = not lmask[z] >> s & 1
            t = lmult[z][s] if up else z
            ht = h if up else bmul(h)
            cur = get(t)
            if cur is None:
                row[t] = ht
            else:
                add_into(row, t, cur, ht)
            if up:
                for w, mu in mu_lists[z]:
                    if lmask[w] >> s & 1:
                        hw = h if mu == 1 else scale(h, mu)
                        cur = get(w)
                        if cur is None:
                            row[w] = hw
                        else:
                            add_into(row, w, cur, hw)
        # ... minus mu(z, sx) c_z over the z below sx with s in L(z)
        for z, mu in mu_lists[sx]:
            if lmask[z] >> s & 1:
                for w, h in rows[z].items():
                    h = scale(h, -mu)
                    cur = get(w)
                    if cur is None:
                        row[w] = h
                    else:
                        add_into(row, w, cur, h)
        parity = (lengths[x] + ly) & 1
        for z, h in row.items():
            if h.__class__ is not int:
                h = row[z] = intern(h)
            if parities[h] != parity ^ (lengths[z] & 1):
                raise sym_parity_error(x, y, z, st.poly(h))
        rows[x] = row
    return HColumn(g, y, rows, st)


def sym_parity_error(x: int, y: int, z: int, p: SymLaurentPoly) -> Exception:
    return NotSymmetricError(
        f"h({x},{y},{z}) = {p} violates the l(x)+l(y)+l(z) parity; "
        "this indicates a recursion bug"
    )


def h_value(col: HColumn, x: int, z: int) -> SymLaurentPoly:
    """The structure constant h_{x,y,z} of col's y; zero when absent."""
    return col.h_value(x, z)


def ccombo_from_column_row(col: HColumn, x: int) -> CCombo:
    """Row of the column as a KL-basis combination with Laurent values."""
    return {z: col.store.poly(h).expand() for z, h in col.rows[x].items()}


def format_combo(g: GroupTable, combo: Iterable[tuple[int, LaurentPoly | SymLaurentPoly]]) -> str:
    """Render 'z1 -> poly1; z2 -> poly2' with ids and ShortLex words."""
    parts = []
    for z, p in sorted(combo, key=lambda t: t[0]):
        parts.append(f"{z}[{g.word_str(z)}] -> {p}")
    return "; ".join(parts)
