"""Brute-force oracles and reference operations the tests hold the
package to; nothing in the package calls them."""

import itertools
import math
from operator import ge

import numpy as np

from klbasis.coxeter import CoxeterMatrix, GroupTable
from klbasis.dihedral import DihedralProduct, _first_letter
from klbasis.hecke import (
    DESCENT_STRATEGIES,
    HColumn,
    PolyStore,
    TCombo,
    _add_term,
    bmul_packed,
    c_in_t_basis,
    check_carry_bound,
    combo_add_scaled,
    t_inverse,
)
from klbasis.klbase import KLStore, WGraph
from klbasis.ring import (
    _I64,
    CoefficientOverflowError,
    LaurentPoly,
    MixedParityError,
    NotSymmetricError,
    SymLaurentPoly,
    W,
    _biased,
)

CCombo = dict[int, LaurentPoly]

_BETA = LaurentPoly({1: 1, -1: 1})  # v + v^-1


def bruhat_leq(g: GroupTable, x: int, y: int) -> bool:
    """Descent recursion: pick s in L(y); x <= y iff min(x, sx) <= sy."""
    while True:
        if x == y or x == 0:
            return True
        if g.lengths[x] >= g.lengths[y]:
            return False
        ly = g.lmask[y]
        s = (ly & -ly).bit_length() - 1
        if g.lmask[x] >> s & 1:
            x = g.lmult[x][s]
        y = g.lmult[y][s]


def kl_mu(store: KLStore, x: int, y: int) -> int:
    """Coefficient of degree (l(y)-l(x)-1)/2 in P_{x,y}; zero for even
    length difference."""
    g = store.g
    d = g.lengths[y] - g.lengths[x]
    if d <= 0 or d % 2 == 0:
        return 0
    if not bruhat_leq(g, x, y):
        return 0
    if d == 1:
        return 1
    if g.lmask[y] & ~g.lmask[x] or g.rmask[y] & ~g.rmask[x]:
        return 0  # non-extremal pairs lose the top-degree window
    return store.kl_polynomials([x], y)[0].coeff((d - 1) >> 1)


def sym_from_laurent(p: LaurentPoly) -> SymLaurentPoly:
    """Compress a palindromic single-parity Laurent polynomial.

    Raises NotSymmetricError if p != bar(p), MixedParityError if the
    exponents do not share one parity.  Round-trips exactly with
    ``SymLaurentPoly.expand``.
    """
    if p.is_zero():
        return SymLaurentPoly.zero()
    if p != p.bar():
        raise NotSymmetricError(f"{p} is not bar-symmetric")
    if len({e & 1 for e, _ in p.items()}) > 1:
        raise MixedParityError(f"{p} has exponents of both parities")
    d = p.degree()
    return SymLaurentPoly(d, [p.coeff(e) for e in range(d, -1, -2)])


def bar_h(g: GroupTable, u: TCombo) -> TCombo:
    """The bar involution: coefficients bar'ed, t_y -> (t_{y^-1})^-1."""
    out: TCombo = {}
    for y, p in u.items():
        combo_add_scaled(out, t_inverse(g, g.inv[y]), p.bar())
    return out


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


def all_reduced_subwords(g: GroupTable, y: int) -> set[int]:
    """Brute-force Bruhat lower interval via the subword definition,
    scanning subsequences of one reduced word of y."""
    reachable = {0}
    for s in g.word(y):
        reachable |= {g.rmult[x][s] for x in reachable}
    return reachable


def gram_positive_definite(matrix: CoxeterMatrix) -> bool:
    """Finite type by the float Gram matrix -cos(pi / m(s, t)): its least
    eigenvalue is positive.  For a finite type that eigenvalue is
    1 - cos(pi / h), h the largest Coxeter number of a component, which is
    above 0.005 while h <= 30; affine types give 0 up to rounding.  The
    float decides only an eigenvalue at least 1e-6 away from 0; closer
    than that, the matrix must be singular by the exact determinant."""
    gram = -np.cos(np.pi / np.array(matrix.entries, dtype=float))
    least = np.linalg.eigvalsh(gram)[0]
    if abs(least) >= 1e-6:
        return bool(least > 0)
    if any(gram_determinant(matrix)[1]):
        raise ArithmeticError(f"least eigenvalue {least} of a nonsingular Gram matrix")
    return False


def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial: x^n - 1
    divided exactly by the cyclotomic polynomials of the proper divisors."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic(d)  # monic
            out = [0] * (len(num) - len(den) + 1)
            for i in range(len(out) - 1, -1, -1):
                c = out[i] = num[i + len(den) - 1]
                for j, e in enumerate(den):
                    num[i + j] -= c * e
            assert not any(num), n
            num = out
    return tuple(num)


def two_cos_multiple(k: int) -> list[int]:
    """p_k with 2cos(k t) = p_k(2cos t), that is x^k + x^-k = p_k(x + 1/x):
    p_0 = 2, p_1 = y, p_(j+1) = y p_j - p_(j-1)."""
    prev, cur = [2], [0, 1]
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def cos_minimal_poly(n: int) -> tuple[int, ...]:
    """Minimal polynomial (ascending, monic) of 2cos(pi/n) over Q: the
    palindromic cyclotomic polynomial of 2n, of degree 2k, divided by x^k
    and written in y = x + 1/x."""
    if n == 1:
        return (2, 1)  # 2cos(pi) = -2
    if n == 2:
        return (0, 1)  # 2cos(pi/2) = 0
    phi = cyclotomic(2 * n)
    k = (len(phi) - 1) // 2
    out = [0] * (k + 1)
    out[0] = phi[k]
    for j in range(1, k + 1):
        for i, c in enumerate(two_cos_multiple(j)):
            out[i] += phi[k + j] * c
    return tuple(out)


def gram_determinant(matrix: CoxeterMatrix) -> tuple[int, tuple[int, ...]]:
    """(N, c): the determinant of twice the Gram matrix is exactly
    sum c[i] theta^i, theta = 2cos(pi/N), N the lcm of the labels.  The
    entries -2cos(pi/m) = -p_(N/m)(theta) lie in Z[theta], and so does the
    determinant, expanded by minors over column subsets with no division;
    it is 0 exactly when every c[i] is."""
    n = matrix.rank
    labels = [matrix.entries[i][j] for i in range(n) for j in range(i + 1, n)]
    big = math.lcm(*labels)
    f = cos_minimal_poly(big)
    d = len(f) - 1

    def reduce(c: list[int]) -> list[int]:
        c = c + [0] * (d - len(c))
        for i in range(len(c) - 1, d - 1, -1):  # f is monic
            for j, e in enumerate(f):
                c[i - d + j] -= c[i] * e
        return c[:d]

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return reduce(out)

    entry = [
        [reduce([2]) if i == j else reduce([-c for c in two_cos_multiple(big // m)])
         for j, m in enumerate(row)]
        for i, row in enumerate(matrix.entries)
    ]
    # minor[S]: determinant of the last |S| rows on the columns in S
    minor = {0: reduce([1])}
    for r in range(1, n + 1):
        row = entry[n - r]
        for cols in itertools.combinations(range(n), r):
            total = [0] * d
            for pos, j in enumerate(cols):
                rest = minor[sum(1 << c for c in cols) & ~(1 << j)]
                for i, x in enumerate(mul(row[j], rest)):
                    total[i] += -x if pos % 2 else x
            minor[sum(1 << c for c in cols)] = total
    return big, tuple(minor[(1 << n) - 1])


def ccombo_from_column_row(col: HColumn, x: int) -> CCombo:
    """Row of the column as a KL-basis combination with Laurent values."""
    return {z: col.store.poly(u).expand() for z, u in col.rows[x].items()}


def dict_column(wg: WGraph, y: int, strategy: str = "fewest", scratch: type = dict) -> HColumn:
    """``hecke.column`` summing each row in a scratch dict of its own,
    zeros included, so that a key that cancels keeps its place: the
    oracle for the engine's reused dense list.  Gives the same rows, with their keys
    in the same order, and interns the same values in the same order.
    ``scratch`` is the type of each row's scratch dict."""
    g = wg.g
    tables = wg.tables
    descent = DESCENT_STRATEGIES[strategy](wg)
    st = PolyStore(max(2, tables.max_mu))
    check_carry_bound(g.size, tables.max_mu_sum)
    lmult, lengths = g.lmult, g.lengths
    get_even, get_odd = (values.get for values in st._values)
    lookups = ((get_even, get_odd), (get_odd, get_even))
    odd_length, hold = [length & 1 for length in lengths], st.hold
    rows: list[dict[int, int]] = [dict() for _ in range(g.size)]
    rows[0] = {y: st.one}
    ly = lengths[y]
    for x in range(1, g.size):
        s = descent[x]
        sx = lmult[x][s]
        ones, others = tables.ones[s], tables.others[s]
        row = scratch()
        get = row.get
        for z, u in rows[sx].items():
            if terms := ones[z]:
                for w in terms:
                    row[w] = get(w, 0) + u
                for w, mu in others[z]:
                    row[w] = get(w, 0) + u * mu
            else:
                row[z] = get(z, 0) + bmul_packed(u)
        for z in ones[sx][1:]:
            for w, u in rows[z].items():
                row[w] = get(w, 0) - u
        for z, mu in others[sx]:
            for w, u in rows[z].items():
                row[w] = get(w, 0) - u * mu
        parity = (lengths[x] + ly) & 1
        lookup = lookups[parity]
        rows[x] = {z: lookup[odd_length[z]](u) or hold(u, parity ^ odd_length[z], (x, y, z))
                   for z, u in row.items() if u}
    st.settle()
    return HColumn(g, y, rows, st)


def descent_edges(wg: WGraph) -> tuple:
    """``[s][z]``: for s not in L(z), the (w, mu) of ``wg.mu_in(z)`` with
    s in L(w), the edges the column recursion follows; empty for s in
    L(z)."""
    lmask = wg.g.lmask
    lists = wg.mu_lists
    return tuple(
        tuple(
            () if lmask[z] & bit else tuple([e for e in edges if lmask[e[0]] & bit])
            for z, edges in enumerate(lists)
        )
        for bit in (1 << s for s in range(wg.g.rank))
    )


def cheapest_descent(wg: WGraph, edges: tuple) -> tuple[int, ...]:
    """For each x, the s in L(x) whose sx has the fewest ``edges[s]``
    (``descent_edges``), the lowest s on ties; -1 for the identity."""
    g = wg.g
    return (-1,) + tuple(
        min(
            (s for s in range(g.rank) if g.lmask[x] >> s & 1),
            key=lambda s: len(edges[s][g.lmult[x][s]]),
        )
        for x in range(1, g.size)
    )


def mu_bounds(wg: WGraph) -> tuple[int, int]:
    """(largest |mu|, largest sum of |mu| over the edges into one y)."""
    mus = [[abs(mu) for _, mu in edges] for edges in wg.mu_lists]
    return max(map(max, filter(None, mus)), default=0), max(map(sum, mus), default=0)


def table_problems(wg: WGraph) -> list[str]:
    """Where ``wg.tables`` departs from the oracles above, or holds two int
    objects for one element.  ``ones[s][z]`` is the unit terms of c_s c_z:
    sz, then the w of the unit edges, for s not in L(z); empty for s in
    L(z)."""
    g, tables, edges = wg.g, wg.tables, descent_edges(wg)
    problems = []
    for s in range(g.rank):
        for z in range(wg.size):
            want = edges[s][z]
            lead = () if g.lmask[z] >> s & 1 else (g.lmult[z][s],)
            if tables.ones[s][z] != lead + tuple(w for w, mu in want if mu == 1):
                problems.append(f"ones[{s}][{z}]")
            if tables.others[s][z] != tuple((w, mu) for w, mu in want if mu != 1):
                problems.append(f"others[{s}][{z}]")
    if tables.cheapest != cheapest_descent(wg, edges):
        problems.append("cheapest")
    if (tables.max_mu, tables.max_mu_sum) != mu_bounds(wg):
        problems.append("mu bounds")
    shared: dict[int, int] = {}
    for s in range(g.rank):
        for ws, pairs in zip(tables.ones[s], tables.others[s]):
            for w in ws + tuple(w for w, _ in pairs):
                if shared.setdefault(w, w) is not w:
                    problems.append(f"element {w} held as two int objects")
    return problems


class ScalarStore:
    """``hecke.PolyStore``'s checks and figures, one value at a time, each
    as it is interned: the oracle for ``PolyStore.settle``.  ``values``
    maps each degree parity to its values, in interning order; values
    are held to max_abs < ``image_limit``."""

    def __init__(self, image_limit: int):
        self.values: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self.image_limit = image_limit
        self.max_abs = 0
        self.negative: list[int] = []
        self.not_unimodal: list[int] = []

    def intern(self, u: int, parity: int, triple: tuple = ()) -> int:
        """The value equal to u held under ``parity``, checked and stored if
        it is new.  A value of the other parity is h(triple), an entry of a
        row that must have ``parity``."""
        if u in self.values[parity]:
            return u
        biased = _biased(u)
        own = len(biased) - 1 & 1
        other = biased[own ^ 1 :: 2]
        if other.count(_I64) != len(other):
            raise MixedParityError("packed polynomial of mixed parity")
        half = biased[own::2]  # from the middle out, each plus 2^63
        hi, lo = max(half, default=_I64) - _I64, min(half, default=_I64) - _I64
        max_abs = max(hi, -lo)
        if max_abs >= self.image_limit:
            raise CoefficientOverflowError(
                f"coefficient {max_abs} would leave 64 bits in an image"
            )
        if parity != own:
            x, y, z = triple
            p = SymLaurentPoly(len(biased) - 1, [c - _I64 for c in biased[::-2]])
            raise NotSymmetricError(
                f"h({x},{y},{z}) = {p} violates the l(x)+l(y)+l(z) "
                "parity; this indicates a recursion bug"
            )
        self.values[own][u] = u
        self.max_abs = max(self.max_abs, max_abs)
        if lo < 0:
            self.negative.append(u)
        # v^d p is unimodal in q iff its coefficients rise to the middle
        if not all(map(ge, half, half[1:])):
            self.not_unimodal.append(u)
        return u


def graded_coefficient_sums(prod: DihedralProduct) -> dict[int, int]:
    """Coefficient sums of a dihedral product per degree, giving v^d c_j
    degree j + d."""
    out: dict[int, int] = {}
    for j, p in prod.terms.items():
        for e, c in p.expand().items():
            out[j + e] = out.get(j + e, 0) + c
    return {d: c for d, c in out.items() if c}


def product_rows(m: int | None, k: int, last: int, upto: int) -> list[dict[int, SymLaurentPoly]]:
    """Rows 0..upto of the product recursion; row i is the expansion of
    the product with the length-i left factor ending in ``last``.  In the
    finite group (m not None) the column of the longest element absorbs
    everything that reaches it."""
    rows: list[dict[int, SymLaurentPoly]] = [{k: SymLaurentPoly.one()}]
    for i in range(1, upto + 1):
        r = last if i % 2 else 3 - last
        cur = apply_gen(m, r, rows[i - 1])
        if i >= 3:
            prev = rows[i - 2]
            for j, p in prev.items():
                q = cur.get(j, SymLaurentPoly.zero()) - p
                if q:
                    cur[j] = q
                else:
                    cur.pop(j, None)
        rows.append(cur)
    return rows


def apply_gen(m: int | None, r: int, row: dict[int, SymLaurentPoly]) -> dict[int, SymLaurentPoly]:
    """Left multiplication by the KL generator c_r on the ending-in-2
    family: scalar (v + v^-1) when r starts the word (or at the longest
    element), neighbour transport otherwise."""
    out: dict[int, SymLaurentPoly] = {}

    def add(j: int, p: SymLaurentPoly) -> None:
        q = out.get(j)
        q = p if q is None else q + p
        if q:
            out[j] = q
        else:
            out.pop(j, None)

    for j, p in row.items():
        if (m is not None and j == m) or _first_letter(j) == r:
            add(j, p.bmul())
        else:
            add(j + 1, p)
            if j >= 2:
                add(j - 1, p)
    return out


def min_coeff(p: SymLaurentPoly) -> int:
    """The smallest nonzero coefficient of p, 0 when p is zero."""
    return min((c for _, c in p.expand().items() if c), default=0)


# -- the P table's scalar walk -----------------------------------------------


def packed(store: KLStore, x: int, y: int) -> int:
    """P_{x,y} packed, one pair at a time by a scalar walk: the Bruhat
    test (``bruhat_leq``), then x raised until (x, y) is extremal (the
    lowest free left descent first, else the lowest free right one), then
    the canonical pair looked up among the stored keys.  The reference for
    ``KLStore._lookup``; the columns up to y's length must be built."""
    g = store.g
    if x == y:
        return 1
    if not bruhat_leq(g, x, y):
        return 0
    left, right = g.lmask[y], g.rmask[y]
    while x != y:
        free = left & ~g.lmask[x]
        if free:
            x = g.lmult[x][(free & -free).bit_length() - 1]
            continue
        free = right & ~g.rmask[x]
        if free:
            x = g.rmult[x][(free & -free).bit_length() - 1]
            continue
        n = g.size
        key = min(y * n + x, g.inv[y] * n + g.inv[x])
        at = int(np.searchsorted(store._keys, key))
        assert store._keys[at] == key, (x, y)
        return store._vals[at]
    return 1


def stored_mu_in(store: KLStore, y: int) -> tuple[tuple[int, int], ...]:
    """The (z, mu(z, y)) of a built column y, read from the store's CSR
    arrays, as ``WGraph.mu_in`` reads them from the graph's."""
    a, b = store._offsets[y], store._offsets[y + 1]
    return tuple(zip(store._edge_z[a:b].tolist(), store._edge_mu[a:b].tolist()))


def recurrence(store: KLStore, x: int, y: int) -> int:
    """P_{x,y} packed for an extremal pair (x, y), y > 1, by the descent
    recursion through ``packed``, for the lowest s in L(y):
    P_{sx,sy} + q P_{x,sy} - sum mu(z,sy) q^((l(y)-l(z))/2) P_{x,z}
    over the z of the mu list of sy with s in L(z)."""
    g = store.g
    s = (g.lmask[y] & -g.lmask[y]).bit_length() - 1
    sy = g.lmult[y][s]
    u = packed(store, g.lmult[x][s], sy) + (packed(store, x, sy) << W)
    for z, mu in stored_mu_in(store, sy):
        if g.lmask[z] >> s & 1 and g.lengths[z] >= g.lengths[x]:
            u -= packed(store, x, z) * mu << W * ((g.lengths[y] - g.lengths[z]) >> 1)
    return u


# -- the group tables' scalar builds ------------------------------------------


def shortlex_tables(table: list[list[int]], n: int):
    """(lengths, rmult, parent, lastgen) as lists, from a coset table of
    the trivial subgroup (``table[s][c]``), by a breadth-first search from
    the identity with generators in index order, one element at a time.
    The reference for the level-at-a-time relabel of ``build_group``."""
    ids = {0: 0}
    cosets = [0]
    lengths = [0]
    parent = [0]
    lastgen = [-1]
    rmult: list[list[int]] = []
    for x, c in enumerate(cosets):
        row = []
        for s in range(n):
            d = table[s][c]
            y = ids.get(d)
            if y is None:
                y = ids[d] = len(cosets)
                cosets.append(d)
                lengths.append(lengths[x] + 1)
                parent.append(x)
                lastgen.append(s)
            row.append(y)
        rmult.append(row)
    return lengths, rmult, parent, lastgen


def derived_tables(n: int, lengths, rmult, parent, lastgen):
    """(lmult, inv, rmask, lmask) as lists, one element at a time from
    smaller ids.  The reference for the level-at-a-time derivation of
    ``GroupTable``."""
    size = len(lengths)
    # x = parent[x] * lastgen[x], so s x = (s parent[x]) lastgen[x] and
    # x^-1 = lastgen[x] parent[x]^-1; both read rows of smaller ids
    lmult = [rmult[0][:]]
    inv = [0]
    for x in range(1, size):
        p, t = parent[x], lastgen[x]
        lmult.append([rmult[z][t] for z in lmult[p]])
        inv.append(lmult[inv[p]][t])

    rmask = [0] * size
    lmask = [0] * size
    for x in range(size):
        rm = 0
        lm = 0
        for s in range(n):
            if lengths[rmult[x][s]] < lengths[x]:
                rm |= 1 << s
            if lengths[lmult[x][s]] < lengths[x]:
                lm |= 1 << s
        rmask[x] = rm
        lmask[x] = lm
    return lmult, inv, rmask, lmask


def scalar_covers(g: GroupTable) -> list[list[int]]:
    """The covers of every y, ascending: the x of the level below y with
    x <= y (``bruhat_leq``).  The reference for ``GroupTable.covers``."""
    levels: list[list[int]] = [[] for _ in range(g.lengths[g.w0] + 1)]
    for x in range(g.size):
        levels[g.lengths[x]].append(x)
    return [[x for x in levels[g.lengths[y] - 1] if bruhat_leq(g, x, y)] if y else []
            for y in range(g.size)]
