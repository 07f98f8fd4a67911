"""Hecke algebra operations over the group ring Z[v, v^-1].

Two layers live here.  The t-basis layer (TCombo: sparse element id ->
LaurentPoly maps) implements generator multiplication, inverses and the
triangular bar-solve that reconstructs the Kazhdan-Lusztig basis from its
defining properties; it is the independent oracle against which the
P-polynomial recursion is checked.  The bar involution itself, and
products in the Kazhdan-Lusztig basis by a generator, live with the
tests' oracles (``tests/oracles.py``).  The column layer computes, for a
fixed y, every product c_x * c_y by induction on l(x), with the
structure constants interned in a deduplicating store of symmetric
Laurent polynomials.  The store holds only the structure constants
themselves, the finished row values.  Every polynomial in a column is one
packed int, its upper half evaluated at v = 2^W (Kronecker substitution,
read back by the slot codec of ``ring``).  A row is summed in one list
over the group that every row of the column reuses, and kept as a fresh
dict of its nonzero sums, in the order they were first touched; the
rows hold these ints, one shared object per value.  So a sum of
structure constants is one int addition, and the images a row is built
from, under multiplication by v + v^-1 (``bmul_packed``) and by the
mu-values, are int arithmetic on stored values: summands, never stored.
Slots are wide enough that these sums cannot carry, each summand weighed
by its factor (``check_carry_bound``, once per column).  Every value
enters the store through ``PolyStore.hold``, with the degree parity its
entry must have; the store checks that parity, the signed 64-bit bound
and a bound that keeps each image of the value in 64 bits too (its factor
fixed when the store is made) in numpy batches, before any column returns
(``PolyStore.settle``); the first value in interning order that fails
raises what a check of that value alone would raise.  The recursion
follows only the W-graph's descent-filtered edges, and the descent of
each x is fixed once per group (``DESCENT_STRATEGIES``; by default the
cheapest, see ``klbase.DescentTables``, the descent the P build takes
too).  Columns for distinct y are
independent and share nothing mutable.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .coxeter import GroupTable
from .klbase import KLStore, WGraph
from .ring import (
    _CARRY_LIMIT,
    _HALF,
    _I64,
    _SLOT,
    W,
    CoefficientOverflowError,
    LaurentPoly,
    MixedParityError,
    NotSymmetricError,
    SymLaurentPoly,
    _biased,
    _biased_slots,
)

TCombo = dict[int, LaurentPoly]

# the most values PolyStore.settle checks in one set of numpy arrays.  On
# long H4 columns (up to 51 slots a value) chunks of 256 check as fast as
# chunks of 512 and add about 0.6 MB to the column's peak memory, against
# 0.9 MB for chunks of 1024; smaller chunks pay more per value
SETTLE_CHUNK = 256

_L_ONE = LaurentPoly.one()
_V_MINUS_VINV = LaurentPoly({1: 1, -1: -1})


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


def t_inverse(g: GroupTable, z: int, known: dict[int, TCombo] | None = None) -> TCombo:
    """t_z^-1 in the t-basis, by induction on length via
    t_s^-1 = t_s - (v - v^-1) t_e: read from ``known`` (the t-inverses
    found so far, the identity's among them) or derived from its parent's
    and added there."""
    if known is None:
        known = {0: {0: _L_ONE}}
    chain = []
    while z not in known:
        chain.append(z)
        z = g.parent[z]
    for w in reversed(chain):
        # t_w = t_parent * t_s, so t_w^-1 = t_s^-1 * t_parent^-1
        prev = known[g.parent[w]]
        out = t_mult_gen(g, g.lastgen[w], prev)
        combo_add_scaled(out, prev, -_V_MINUS_VINV)
        known[w] = out
    return known[chain[0]] if chain else known[z]


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
    """c_y = sum over x <= y of v^(l(x)-l(y)) P_{x,y}(v^2) t_x.  Every
    x <= y has an id up to y's, as ids are sorted by length, and among
    those x <= y exactly when P_{x,y} != 0."""
    g = store.g
    ly = g.lengths[y]
    out: TCombo = {}
    for x, p in enumerate(store.kl_polynomials(range(y + 1), y)):
        if p:
            out[x] = p.to_laurent_v(g.lengths[x] - ly)
    return out


def c_in_t_basis_oracle(g: GroupTable, y: int) -> TCombo:
    """Reconstruct c_y directly from the defining properties: the unique
    bar-invariant element t_y + corrections with coefficients in
    v^-1 Z[v^-1].  Independent of the P-polynomial recursion."""
    known: dict[int, TCombo] = {0: {0: _L_ONE}}
    u: TCombo = {y: _L_ONE}
    # residual r = bar(u) - u, updated incrementally as corrections land
    r: TCombo = {}
    combo_add_scaled(r, t_inverse(g, g.inv[y], known), _L_ONE)
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
            tinv = t_inverse(g, g.inv[x], known)
            bar_delta = delta.bar()
            for w, p in tinv.items():
                _add_term(r, w, p * bar_delta)
                if g.lengths[w] < level:
                    by_level.setdefault(g.lengths[w], []).append(w)
            _add_term(r, x, -delta)
    if any(p for p in r.values()):
        raise NoSolutionError("bar-solve left a nonzero residual")
    return u


def pack(p: SymLaurentPoly) -> int:
    """The upper half of p at v = 2^W: sum of c_e 2^(W e) over e >= 0,
    with signed coefficients c_e, one slot per exponent."""
    u = 0
    for c in p.half:
        u = (u << 2 * W) + c
    return u << W * (p.degree & 1)


def bmul_packed(u: int) -> int:
    """The packed image of a packed symmetric value under multiplication
    by v + v^-1: slot e gets slots e - 1 and e + 1, and slot 0 the v^1
    coefficient twice (once as the mirror of v^-1).  Each image slot is at
    most twice the largest slot of u, so it cannot carry."""
    up = (u >> W) + (u >> W - 1 & 1)  # undo the borrow of a negative slot 0
    c1 = (up + _HALF & _SLOT) - _HALF
    return (u << W) + up + c1


def check_carry_bound(size: int, max_mu_sum: int) -> None:
    """Raise CoefficientOverflowError unless packed sums cannot carry in a
    column, each summand weighed by its factor over a stored value: an
    entry adds at most one term per row entry of sx, a bmul image (2), a
    value (1) or a mu-image (|mu| <= max_mu_sum), and subtracts mu-images
    of at most size rows, sum |mu| <= max_mu_sum each; size * (2 + 2 *
    max_mu_sum) bounds both together."""
    if size * (2 + 2 * max_mu_sum) >= _CARRY_LIMIT:
        raise CoefficientOverflowError(f"sums could carry: {size} rows, mu sum {max_mu_sum}")


class PolyStore:
    """Deduplicating store of symmetric Laurent polynomials, each held once
    as one packed int (``pack``), so that a sum of values is one int
    addition and is zero exactly when it cancels.

    Rows hold the packed values themselves, each the one int object the
    store keeps for it, and ``column`` puts in only the finished row
    values; the bmul and mu images a row is built from are computed from
    them as loose ints and never stored.  The store keeps one dict per
    degree parity, each mapping a value to itself, so that looking a value
    up under the parity its entry must have is the parity check.
    Iterating the store gives its distinct values.

    Every value enters through ``hold``, under the parity its entry must
    have, and ``settle`` checks the values held since, in interning order,
    in numpy chunks of at most ``SETTLE_CHUNK``: it raises
    CoefficientOverflowError if a coefficient leaves signed 64 bits, or if
    an image of the value could (``factor``, below), MixedParityError if
    its exponents mix parities, and NotSymmetricError if it is not of the
    parity it is held under.  ``column`` settles whenever a chunk is full
    and before it returns; ``intern`` holds a polynomial under its own
    degree parity and settles at once.  The first failure in interning
    order raises what a check of that value alone would raise, and the
    store drops it and every value held after it: every value before it is
    a carry-free sum of values that passed, so it is the value that
    checking each value as it is interned would have rejected first.
    ``settle`` folds the values that pass, in interning order, into the
    figures a column scan reads: ``max_abs``, the largest |coefficient|
    held, and the values held that have a negative coefficient
    (``negative``) or are not unimodal (``not_unimodal``).

    With a ``factor``, every value is held to max_abs * factor < 2^63, so
    that its images under bmul (factor 2) and under scaling by any
    |mu| <= factor stay in signed 64 bits; without one, to the signed 64
    bits alone.
    """

    def __init__(self, factor: int | None = None):
        # degree parity -> {packed value: that int}; the int is the one
        # object all rows share
        self._values: tuple[dict[int, int], dict[int, int]] = ({}, {})
        # (value, parity it is held under, its (x, y, z) or ()) of each
        # value held since the last settle, in order
        self._pending: list[tuple[int, int, tuple]] = []
        self.max_abs = 0
        self.negative: list[int] = []
        self.not_unimodal: list[int] = []
        # every value has max_abs below this (max_abs * factor >= 2^63 iff
        # max_abs >= it); 2^63 + 1 bounds nothing more than the signed 64 bits
        self._image_limit = _I64 + 1 if factor is None else -(-_I64 // factor)
        self.one = self.intern(SymLaurentPoly.one())

    def intern(self, p: SymLaurentPoly) -> int:
        """The store's own int equal to pack(p), held under p's degree
        parity and checked if it is new."""
        u, parity = pack(p), p.degree & 1
        if u not in self._values[parity]:
            self.hold(u, parity, ())
        self.settle()
        return self._values[parity][u]

    def hold(self, u: int, parity: int, triple: tuple) -> int:
        """Hold u, not held under ``parity``, as h(triple), an entry of a
        row that must have that parity, and return it.  The next
        ``settle`` checks it; one runs at once when ``SETTLE_CHUNK``
        values wait."""
        self._values[parity][u] = u
        pending = self._pending
        pending.append((u, parity, triple))
        if len(pending) >= SETTLE_CHUNK:
            self.settle()
        return u

    def settle(self) -> None:
        """Check the values held since the last settle, in interning order,
        and fold those that pass into the figures; raise for the first that
        fails, after dropping it and every later one."""
        pending = self._pending
        while pending:
            chunk = pending[:SETTLE_CHUNK]
            del pending[:SETTLE_CHUNK]
            passed, failure = self._settle_chunk(chunk)
            if failure is not None:
                for u, parity, _ in chunk[passed:] + pending:
                    del self._values[parity][u]
                pending.clear()
                raise failure

    def _settle_chunk(self, chunk: list[tuple]) -> tuple[int, Exception | None]:
        """Check a chunk of pending values at once and fold the ones before
        its first failure into the figures; return how many those are, and
        the error for that failure (None if there is none)."""
        values, parities, _ = zip(*chunk)
        low, out_of_range, degree = _biased_slots(values)
        n = low.shape[1]
        own = degree & 1  # odd for zero, whose degree is -1
        mixed = ((low != _I64) & (np.arange(n) & 1 != own[:, None])).any(axis=1)
        # the last slot of each row is zero, so max >= 2^63 >= min
        low_min = low.min(axis=1)
        max_abs = np.maximum(low.max(axis=1) - _I64, _I64 - low_min)
        failed = (out_of_range | mixed | (max_abs >= self._image_limit)
                  | (np.array(parities) != own))
        passed = int(failed.argmax()) if failed.any() else len(chunk)

        # v^d p is unimodal in q iff its coefficients rise to the middle: no
        # slot up to the degree is below the one two up from it (the slots
        # of the other parity are zero, so never rise)
        rises = (low[:, :-2] < low[:, 2:]) & (np.arange(n - 2) <= degree[:, None] - 2)
        if passed:
            self.max_abs = max(self.max_abs, int(max_abs[:passed].max()))
        for figure, flags in ((self.negative, low_min < _I64),
                              (self.not_unimodal, rises.any(axis=1))):
            figure.extend(values[i] for i in np.flatnonzero(flags[:passed]).tolist())
        if passed == len(chunk):
            return passed, None
        u, _, triple = chunk[passed]
        if out_of_range[passed]:
            return passed, CoefficientOverflowError("packed coefficient outside signed 64 bits")
        if mixed[passed]:
            return passed, MixedParityError("packed polynomial of mixed parity")
        if max_abs[passed] >= self._image_limit:
            return passed, CoefficientOverflowError(
                f"coefficient {int(max_abs[passed])} would leave 64 bits in an image"
            )
        x, y, z = triple
        return passed, NotSymmetricError(
            f"h({x},{y},{z}) = {self.poly(u)} violates the l(x)+l(y)+l(z) "
            "parity; this indicates a recursion bug"
        )

    def poly(self, u: int) -> SymLaurentPoly:
        biased = _biased(u)
        return SymLaurentPoly(len(biased) - 1, [c - _I64 for c in biased[::-2]])

    def __iter__(self) -> Iterator[int]:
        return chain(*self._values)

    def __len__(self) -> int:
        return sum(map(len, self._values))


# strategy name -> the chosen left descent of each element (-1 for the
# identity); every strategy gives the same rows, "first" and "last" are
# kept as oracles for the default
DESCENT_STRATEGIES: dict[str, Callable[[WGraph], Sequence[int]]] = {
    "fewest": lambda wg: wg.tables.cheapest,
    "first": lambda wg: [(mask & -mask).bit_length() - 1 for mask in wg.g.lmask],
    "last": lambda wg: [mask.bit_length() - 1 for mask in wg.g.lmask],
}


class HColumn:
    """For a fixed y, the table x -> (z -> h_{x,y,z}) with entries held as
    packed values, each the one int object its PolyStore keeps for it."""

    def __init__(self, g: GroupTable, y: int, rows: list[dict[int, int]], store: PolyStore):
        self.g = g
        self.y = y
        self.rows = rows
        self.store = store

    def row(self, x: int) -> dict[int, int]:
        return self.rows[x]

    def row_polys(self, x: int) -> dict[int, SymLaurentPoly]:
        return {z: self.store.poly(u) for z, u in self.rows[x].items()}

    def nonzero_entries(self) -> int:
        return sum(len(row) for row in self.rows)


def column(wg: WGraph, y: int, strategy: str = "fewest") -> HColumn:
    """All products c_x * c_y for x in the group, by induction on l(x).

    Row x is obtained from c_x = c_s c_{sx} - sum mu(z, sx) c_z with
    s the descent of x that the strategy chooses: each z of row sx adds
    the terms of c_s c_z (``klbase.DescentTables``), and the subtraction
    takes those of c_s c_{sx} after c_x.  The sums are kept in one list
    indexed by z that every row reuses, beside the row's keys in the
    order their slots were first made nonzero (again after a cancel); the
    row is a fresh dict of the nonzero sums in that order, and their
    slots are zeroed for the next row.
    Every coefficient is kept in symmetric form and checked against the
    parity l(x) + l(y) + l(z) mod 2.  The column's store holds exactly its
    distinct values.
    """
    g = wg.g
    tables = wg.tables
    descent = DESCENT_STRATEGIES[strategy](wg)
    st = PolyStore(max(2, tables.max_mu))
    check_carry_bound(g.size, tables.max_mu_sum)
    lmult, lengths = g.lmult, g.lengths
    get_even, get_odd = (values.get for values in st._values)
    # lookups[p][l(z) & 1]: where an entry at z of a row of parity p is held
    lookups = ((get_even, get_odd), (get_odd, get_even))
    odd_length, hold = [length & 1 for length in lengths], st.hold
    # z -> the packed sum so far of the row being built, zero where it is
    # untouched or cancelled; every row leaves it all zero
    acc = [0] * g.size
    # row x is appended in the order of x: ids are ordered by length, so
    # sx and every z it subtracts the row of come before x
    rows: list[dict[int, int]] = [{y: st.one}]
    ly = lengths[y]
    for x in range(1, g.size):
        s = descent[x]
        sx = lmult[x][s]
        ones, others = tables.ones[s], tables.others[s]
        # each z in the order its slot of acc was first made nonzero, again
        # after each time it cancelled to zero
        keys: list[int] = []
        push = keys.append
        # c_s * c_{sx}: (v + v^-1) c_z for s in L(z), otherwise its terms
        # c_{sz} + sum mu(w, z) c_w ...
        for z, u in rows[sx].items():
            if terms := ones[z]:
                for w in terms:
                    if a := acc[w]:
                        acc[w] = a + u
                    else:
                        acc[w] = u
                        push(w)
                for w, mu in others[z]:
                    if a := acc[w]:
                        acc[w] = a + u * mu
                    else:
                        acc[w] = u * mu
                        push(w)
            elif a := acc[z]:
                acc[z] = a + bmul_packed(u)
            else:
                acc[z] = bmul_packed(u)
                push(z)
        # ... minus mu(z, sx) c_z, the terms of c_s * c_{sx} after c_x
        for z in ones[sx][1:]:
            for w, u in rows[z].items():
                if a := acc[w]:
                    acc[w] = a - u
                else:
                    acc[w] = -u
                    push(w)
        for z, mu in others[sx]:
            for w, u in rows[z].items():
                if a := acc[w]:
                    acc[w] = a - u * mu
                else:
                    acc[w] = -u * mu
                    push(w)
        # the nonzero sums, each held once in a dict of their own, and
        # their slots cleared; a later copy of a key reads zero.  Entry z
        # must have degree parity l(x) + l(y) + l(z): look it up under that
        # parity only
        parity = (lengths[x] + ly) & 1
        lookup = lookups[parity]
        row: dict[int, int] = {}
        for z in keys:
            if u := acc[z]:
                acc[z] = 0
                row[z] = lookup[odd_length[z]](u) or hold(u, parity ^ odd_length[z], (x, y, z))
        rows.append(row)
    st.settle()
    return HColumn(g, y, rows, st)


def format_combo(g: GroupTable, combo: Iterable[tuple[int, LaurentPoly | SymLaurentPoly]]) -> str:
    """Render 'z1 -> poly1; z2 -> poly2' with ids and ShortLex words."""
    parts = []
    for z, p in sorted(combo, key=lambda t: t[0]):
        parts.append(f"{z}[{g.word_str(z)}] -> {p}")
    return "; ".join(parts)
