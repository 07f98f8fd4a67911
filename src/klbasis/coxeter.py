"""Finite Coxeter groups: enumeration, lengths, descent sets, Bruhat order.

A group is built from its Coxeter matrix with integers only.  The
connected components of the Coxeter graph are classified first: the
matrix is of finite type exactly when each one is A_n, B_n, D_n, E6-E8,
F4, H3, H4 or I2(m), and |W| is the product of their orders, so an
infinite or oversized group is refused before any enumeration.  The
group is then enumerated through its maximal parabolic cosets: the
cosets of each W_{S-s} by HLT coset enumeration on the presentation
<S | (s t)^m(s,t)> (Holt, Eick and O'Brien, Handbook of Computational
Group Theory, 2005, ch. 5), with each element held as its cosets, as in
du Cloux's parabolic decomposition (J. Symbolic Comput. 27, 1999).  From
rank 2 on, the W_{S-s} of largest index is left out, since the others
already tell apart the elements of one length: on H4, 1,440 cosets stand
for the 14,400 elements.  A breadth-first search over them in ShortLex
order over generator indices, a length level at a time, gives the ids,
so id 0 is the identity and ids are sorted by length.  What remains are
O(|W| * rank) transition tables, descent masks, lengths and inverses:
int64 arrays, with lists of them for scalar loops.  The Bruhat order is
a walk down descents by the lifting property, and covers come from
deletion sets.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property
from math import factorial
from typing import Iterable, Sequence

import numpy as np

MAX_RANK = 8
MAX_SIZE = 1_000_000


class InfiniteTypeError(ValueError):
    """The Coxeter matrix does not define a finite group."""


class RankTooLargeError(ValueError):
    pass


class GroupTooLargeError(ValueError):
    pass


class CoxeterMatrix:
    """Symmetric matrix of bond labels m(s, t); m(s, s) = 1, m(s, t) >= 2."""

    def __init__(self, entries: Sequence[Sequence[int]]):
        n = len(entries)
        if n < 1:
            raise ValueError("rank must be at least 1")
        if n > MAX_RANK:
            raise RankTooLargeError(f"rank {n} exceeds supported bound {MAX_RANK}")
        m = tuple(tuple(int(x) for x in row) for row in entries)
        for i in range(n):
            if len(m[i]) != n:
                raise ValueError("matrix is not square")
            if m[i][i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise ValueError("matrix must be symmetric")
                if i != j and m[i][j] < 2:
                    raise ValueError("off-diagonal entries must be >= 2")
        self.rank = n
        self.entries = m

    @classmethod
    def from_upper_labels(cls, rank: int, labels: Sequence[int]) -> "CoxeterMatrix":
        """Build from the upper triangle, row by row."""
        need = rank * (rank - 1) // 2
        if len(labels) != need:
            raise ValueError(f"expected {need} upper-triangle labels, got {len(labels)}")
        m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        it = iter(labels)
        for i in range(rank):
            for j in range(i + 1, rank):
                m[i][j] = m[j][i] = int(next(it))
        return cls(m)

    @classmethod
    def from_text(cls, text: str) -> "CoxeterMatrix":
        """Parse 'rank on the first line, then the upper triangle of labels'."""
        tokens = text.split()
        if not tokens:
            raise ValueError("empty matrix description")
        rank = int(tokens[0])
        return cls.from_upper_labels(rank, [int(t) for t in tokens[1:]])

    def to_text(self) -> str:
        """The form ``from_text`` reads: the rank on the first line, then
        the upper triangle of labels, one row per line."""
        n, m = self.rank, self.entries
        rows = [" ".join(str(m[i][j]) for j in range(i + 1, n)) for i in range(n - 1)]
        return "".join(line + "\n" for line in (str(n), *rows))

    @classmethod
    def chain(cls, rank: int, labels: Sequence[int]) -> "CoxeterMatrix":
        """Linear diagram with the given consecutive bond labels."""
        m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        for i, lab in enumerate(labels):
            m[i][i + 1] = m[i + 1][i] = lab
        return cls(m)

    def __eq__(self, other) -> bool:
        return isinstance(other, CoxeterMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"CoxeterMatrix({self.entries})"


_PRESET_RE = re.compile(r"^([ABDFHI])\s*(\d+)?(?:\((\d+)\))?$", re.IGNORECASE)


def preset_matrix(name: str) -> tuple[CoxeterMatrix, str]:
    """Coxeter matrix for a type string: A1..A6, B2..B6, D4..D6, F4, H3,
    H4, I2(m) for 2 <= m <= 30."""
    s = name.strip().replace(" ", "")
    m = _PRESET_RE.match(s)
    if not m:
        raise ValueError(f"unrecognised group name {name!r}")
    fam = m.group(1).upper()
    if fam == "I":
        if m.group(2) not in (None, "2") or not m.group(3):
            raise ValueError(f"dihedral groups are written I2(m), got {name!r}")
        order = int(m.group(3))
        if not 2 <= order <= 30:
            raise ValueError("I2(m) supported for 2 <= m <= 30")
        return CoxeterMatrix.chain(2, [order]), f"I2({order})"
    n = int(m.group(2) or 0)
    if fam == "A" and 1 <= n <= 6:
        return CoxeterMatrix.chain(n, [3] * (n - 1)), f"A{n}"
    if fam == "B" and 2 <= n <= 6:
        return CoxeterMatrix.chain(n, [3] * (n - 2) + [4]), f"B{n}"
    if fam == "D" and 4 <= n <= 6:
        mat = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        mat[0][2] = mat[2][0] = 3
        mat[1][2] = mat[2][1] = 3
        for i in range(2, n - 1):
            mat[i][i + 1] = mat[i + 1][i] = 3
        return CoxeterMatrix(mat), f"D{n}"
    if fam == "F" and n == 4:
        return CoxeterMatrix.chain(4, [3, 4, 3]), "F4"
    if fam == "H" and n in (3, 4):
        return CoxeterMatrix.chain(n, [5] + [3] * (n - 2)), f"H{n}"
    raise ValueError(f"no preset for {name!r}")


# orders of the exceptional components: E6-E8 keyed by the sorted arm
# lengths at the branch point, F4, H3 and H4 by their labels along the
# path, read from the end nearer the label above 3
_EXCEPTIONAL_ORDERS = {
    (1, 2, 2): 51840,
    (1, 2, 3): 2903040,
    (1, 2, 4): 696729600,
    (3, 4, 3): 1152,
    (5, 3): 120,
    (5, 3, 3): 14400,
}


def group_order(matrix: CoxeterMatrix, gens: Sequence[int] | None = None) -> int:
    """|W|, or the order of the parabolic subgroup generated by ``gens``:
    the product of the orders of the connected components of the Coxeter
    graph (edges where m(s, t) >= 3) on those generators.  Each component
    must be one of A_n, B_n, D_n, E6-E8, F4, H3, H4 or I2(m); any other
    raises InfiniteTypeError."""
    n, m = matrix.rank, matrix.entries
    gens = range(n) if gens is None else gens
    nbrs = [[t for t in gens if t != s and m[s][t] >= 3] for s in range(n)]
    seen: set[int] = set()
    order = 1
    for root in gens:
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        for s in comp:
            for t in nbrs[s]:
                if t not in seen:
                    seen.add(t)
                    comp.append(t)
        order *= _component_order(comp, nbrs, m)
    return order


def _component_order(comp: list[int], nbrs: list[list[int]], m) -> int:
    k = len(comp)
    labels = [m[s][t] for s in comp for t in nbrs[s] if s < t]
    if len(labels) != k - 1:
        raise InfiniteTypeError("the Coxeter graph has a cycle; the group is not finite")
    if k <= 2:
        return 2 * max(labels, default=1)  # A1 or I2(m)
    branch = [s for s in comp if len(nbrs[s]) > 2]
    heavy = any(lab > 3 for lab in labels)
    if branch:
        if heavy or len(branch) > 1 or len(nbrs[branch[0]]) > 3:
            raise InfiniteTypeError(f"a component of rank {k} is not of finite type")
        shape = tuple(sorted(_arm_length(branch[0], t, nbrs) for t in nbrs[branch[0]]))
        if shape[:2] == (1, 1):
            return 2 ** (k - 1) * factorial(k)  # D_k
    elif not heavy:
        return factorial(k + 1)  # A_k
    else:
        end = next(s for s in comp if len(nbrs[s]) == 1)
        path = [end, nbrs[end][0]]
        while len(path) < k:
            path.append(next(t for t in nbrs[path[-1]] if t != path[-2]))
        shape = tuple(m[s][t] for s, t in zip(path, path[1:]))
        if shape[-1] > 3:
            shape = shape[::-1]
        if shape == (4,) + (3,) * (k - 2):
            return 2**k * factorial(k)  # B_k
    if shape in _EXCEPTIONAL_ORDERS:
        return _EXCEPTIONAL_ORDERS[shape]
    raise InfiniteTypeError(f"a component of rank {k} is not of finite type")


def _arm_length(centre: int, first: int, nbrs: list[list[int]]) -> int:
    """Vertices on the arm of a tree that leaves ``centre`` through
    ``first``, when every vertex past ``centre`` has at most two
    neighbours."""
    prev, cur, length = centre, first, 1
    while len(nbrs[cur]) == 2:
        prev, cur = cur, next(t for t in nbrs[cur] if t != prev)
        length += 1
    return length


# [mask] = the lowest generator in a descent mask, -1 in the empty one
_LOWEST = np.array([(m & -m).bit_length() - 1 for m in range(1 << MAX_RANK)], dtype=np.int64)
_LOWEST.flags.writeable = False

# a group's tables as int64 arrays, indexed by element id: x = parent[x]
# lastgen[x] (lastgen -1 at the identity), and [x, s] = x s in rmult, s x in lmult
GroupArrays = namedtuple("GroupArrays", "lengths rmult parent lastgen lmult inv lmask rmask")


class GroupTable:
    """Enumerated finite Coxeter group.

    Elements are ids 0..size-1 in ShortLex BFS order; id 0 is the identity.
    The tables are the int64 arrays of ``arrays``; the attributes of the
    same names (``lengths``, ``rmult``, ...) are lists of them, for loops
    that read one element at a time.  Descent sets are rank-wide bitmasks;
    x <= y is a walk down descents (``bruhat_leq``), and covers come from
    deletion sets.  All tables are immutable after the build and safe to
    share across workers, and a pickled copy is rebuilt from the four
    tables the build makes.
    """

    # the tables live in slots: the cached properties below read the
    # instance __dict__, which on CPython 3.11 makes every later load of
    # an attribute kept there about three times slower, and the scalar
    # loops of hecke.t_mult_gen and word load these per step
    __slots__ = (
        "matrix", "name", "rank", "size", "arrays", "lengths", "rmult", "parent", "lastgen",
        "lmult", "inv", "rmask", "lmask", "w0", "num_pos_roots", "__dict__",
    )

    def __init__(
        self,
        matrix: CoxeterMatrix,
        name: str,
        lengths: np.ndarray,
        rmult: np.ndarray,
        parent: np.ndarray,
        lastgen: np.ndarray,
    ):
        self.matrix = matrix
        self.name = name
        self.rank = n = matrix.rank
        self.size = size = len(lengths)

        # x = parent[x] lastgen[x], so s x = (s parent[x]) lastgen[x] and
        # x^-1 = lastgen[x] parent[x]^-1; both read rows one level down
        lmult, inv = rmult.copy(), np.zeros(size, dtype=np.int64)  # row 0 as is
        bounds = np.searchsorted(lengths, np.arange(lengths[-1] + 2)).tolist()
        for a, b in zip(bounds[1:], bounds[2:]):
            p, t = parent[a:b], lastgen[a:b]
            lmult[a:b] = rmult[lmult[p], t[:, None]]
            inv[a:b] = lmult[inv[p], t]
        bits = 1 << np.arange(n, dtype=np.int64)
        rmask, lmask = (((lengths[m] < lengths[:, None]) * bits).sum(1) for m in (rmult, lmult))
        self.arrays = GroupArrays(lengths, rmult, parent, lastgen, lmult, inv, lmask, rmask)
        for array in self.arrays:
            array.flags.writeable = False
        # the lists of ids share one int per element (tolist() alone makes one
        # per entry, 4.6 MB more on H4); CPython shares the ints below 257
        elems = np.array(range(size), dtype=object)
        self.rmult, self.parent, self.lmult, self.inv = (
            elems[ids].tolist() for ids in (rmult, parent, lmult, inv))
        self.lengths, self.lastgen, self.lmask, self.rmask = (
            small.tolist() for small in (lengths, lastgen, lmask, rmask))

        longest = np.flatnonzero(lengths == lengths.max())
        if len(longest) != 1:
            raise AssertionError("longest element is not unique")
        self.w0 = int(longest[0])
        full = (1 << n) - 1
        if self.lmask[self.w0] != full or self.rmask[self.w0] != full:
            raise AssertionError("longest element must have full descent sets")
        self.num_pos_roots = self.lengths[self.w0]

    def __reduce__(self):
        # lengths, rmult, parent and lastgen, without the covers
        return GroupTable, (self.matrix, self.name, *self.arrays[:4])

    # -- words ------------------------------------------------------------

    def word(self, x: int) -> tuple[int, ...]:
        """ShortLex normal form as a tuple of generator indices."""
        out = []
        while x:
            out.append(self.lastgen[x])
            x = self.parent[x]
        return tuple(reversed(out))

    def word_str(self, x: int) -> str:
        w = self.word(x)
        if not w:
            return "e"
        return "".join(str(s + 1) for s in w)

    def element_of_word(self, word: Iterable[int]) -> int:
        x = 0
        for s in word:
            x = self.rmult[x][s]
        return x

    # -- Bruhat order -------------------------------------------------------

    def bruhat_leq(self, x, y) -> np.ndarray:
        """Whether x <= y in Bruhat order, for int arrays (or ints) x and y,
        broadcast together.  By the lifting property (Bjorner and Brenti,
        Combinatorics of Coxeter Groups, 2005, ch. 2), for s in L(y),
        x <= y exactly when min(x, sx) <= sy: the walk takes the lowest s
        in L(y) until l(x) >= l(y), where x <= y exactly when x == y."""
        a = self.arrays
        x, y = np.broadcast_arrays(np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64))
        out = np.zeros(x.shape, dtype=bool)
        at, x, y = np.arange(x.size), x.ravel(), y.ravel()
        while at.size:
            done = a.lengths[x] >= a.lengths[y]
            out.flat[at[done]] = x[done] == y[done]
            at, x, y = at[~done], x[~done], y[~done]
            s = _LOWEST[a.lmask[y]]
            x = np.where(a.lmask[x] >> s & 1 == 1, a.lmult[x, s], x)
            y = a.lmult[y, s]
        return out

    @cached_property
    def _covers(self) -> tuple[np.ndarray, np.ndarray]:
        """The covers of every y, ascending, as CSR: ids[offsets[y]:offsets[y + 1]].

        By strong exchange (Bjorner and Brenti, Combinatorics of Coxeter
        Groups, 2005, ch. 1), deleting each letter of a reduced word of y
        gives each y t with l(y t) < l(y) once, and y covers those of length
        l(y) - 1.  With y = p s, p = parent[y], this deletion set is
        D(y) = D(p) s + {p}, built a length level at a time."""
        a = self.arrays
        bounds = np.searchsorted(a.lengths, np.arange(a.lengths[-1] + 2)).tolist()
        deletions = np.zeros((1, 0), dtype=np.int64)  # D(identity), empty
        ids, counts = [], [0, 0]  # offsets[0] and the identity's none
        for length, (lo, hi) in enumerate(zip(bounds[1:], bounds[2:]), 1):
            p, t = a.parent[lo:hi], a.lastgen[lo:hi]
            deletions = np.hstack([a.rmult[deletions[p - bounds[length - 1]], t[:, None]],
                                   p[:, None]])
            deletions.sort(axis=1)
            cover = a.lengths[deletions] == length - 1
            ids.append(deletions[cover])
            counts += cover.sum(axis=1).tolist()
        ids = np.concatenate(ids)
        ids.flags.writeable = False  # covers() hands out views of it
        return np.cumsum(counts), ids

    def covers(self, y: int) -> np.ndarray:
        """Ids of elements covered by y in Bruhat order, ascending."""
        offsets, ids = self._covers
        return ids[offsets[y] : offsets[y + 1]]

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, size={self.size})"


def _coset_table(
    matrix: CoxeterMatrix, limit: int, subgroup: Iterable[int] = ()
) -> list[list[int]]:
    """Coset table of the parabolic subgroup generated by ``subgroup``
    (the trivial one by default), one column per generator, by HLT coset
    enumeration on the Coxeter presentation (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, ch. 5).  Generators are
    involutions, so each entry is made in both directions, the relators
    are the ``(s t)^m(s,t)``, and each subgroup generator fixes coset 0.
    Coincident cosets are merged through a union-find, ``alive[c] == c``
    for a live coset; the live ones are renumbered in order at the end,
    so coset 0 is the subgroup.  Raises RuntimeError rather than define
    more than ``limit`` cosets."""
    n, m = matrix.rank, matrix.entries
    table: list[list[int]] = [[-1] for _ in range(n)]
    for t in subgroup:
        table[t][0] = 0
    relators = [
        (table[s], table[t]) * m[s][t] for s in range(n) for t in range(s + 1, n)
    ]
    alive = [0]

    def rep(c: int) -> int:
        r = c
        while alive[r] != r:
            r = alive[r]
        while alive[c] != r:
            alive[c], c = r, alive[c]
        return r

    def define(col: list[int], c: int) -> None:
        d = len(alive)
        if d >= limit:
            raise RuntimeError(f"coset enumeration passed its limit of {limit} cosets")
        alive.append(d)
        for other in table:
            other.append(-1)
        col[c] = d
        col[d] = c

    def coincidence(a: int, b: int) -> None:
        queue: list[int] = []

        def merge(k: int, l: int) -> None:
            k, l = rep(k), rep(l)
            if k != l:
                k, l = min(k, l), max(k, l)
                alive[l] = k
                queue.append(l)

        merge(a, b)
        for dead in queue:
            for col in table:
                d = col[dead]
                if d < 0:
                    continue
                col[d] = -1
                mu, nu = rep(dead), rep(d)
                if col[mu] >= 0:
                    merge(nu, col[mu])
                elif col[nu] >= 0:
                    merge(mu, col[nu])
                else:
                    col[mu] = nu
                    col[nu] = mu

    c = 0
    while c < len(alive):
        for rel in relators:
            if alive[c] != c:
                break
            # scan c under rel: forward to f after i letters, backward to
            # b before the last len(rel) - j; fill the gap between them
            f, i, b, j = c, 0, c, len(rel)
            while True:
                while i < j and rel[i][f] >= 0:
                    f = rel[i][f]
                    i += 1
                while j > i and rel[j - 1][b] >= 0:
                    b = rel[j - 1][b]
                    j -= 1
                if j == i:
                    if f != b:
                        coincidence(f, b)
                    break
                if j == i + 1:
                    rel[i][f] = b
                    rel[i][b] = f
                    break
                define(rel[i], f)
        # from rank 2 on the relators fill every column; at rank 1 this does
        if alive[c] == c:
            for col in table:
                if col[c] < 0:
                    define(col, c)
        c += 1
    live = [c for c, r in enumerate(alive) if r == c]
    if len(live) < len(alive):
        renumber = {c: i for i, c in enumerate(live)}
        table = [[renumber[col[c]] for c in live] for col in table]
    return table


def build_group(matrix: CoxeterMatrix, name: str | None = None) -> GroupTable:
    """Enumerate the finite Coxeter group of the given matrix through its
    maximal parabolic cosets.

    Raises InfiniteTypeError for non-finite type, and GroupTooLargeError,
    before any enumeration, if the group has more than MAX_SIZE elements.
    ``_coset_table`` enumerates the cosets of each maximal parabolic
    subgroup W_{S-s} but, from rank 2 on, the one of largest index, and x
    is held as its cosets W_{S-s} x, as in du Cloux's parabolic
    decomposition (J. Symbolic Comput. 27, 1999).  Those subgroups meet
    in some {e, s}, and s changes the length, so the cosets tell apart the
    elements of one length, which is all the search compares; x s is one
    gather per coset table.  A breadth-first search over them gives
    the ShortLex ids a length level at a time.  On H4 that enumerates
    1,440 cosets instead of the 14,400 of the trivial subgroup.
    """
    n = matrix.rank
    order = group_order(matrix)
    if order > MAX_SIZE:
        raise GroupTooLargeError(
            f"group of order {order} exceeds the supported {MAX_SIZE} elements"
        )
    spaces = [[t for t in range(n) if t != s] for s in range(n)]
    index = [order // group_order(matrix, others) for others in spaces]
    if n > 1:
        # two elements of one length that agree in every W_{S-t} with t != s
        # differ by an element of their intersection {e, s}, and s changes
        # the length: the level, all the search compares, needs n - 1 spaces
        largest = index.index(max(index))
        del spaces[largest], index[largest]
    tables, weights = [], [1]
    for others, k in zip(spaces, index):
        tables.append(np.array(_coset_table(matrix, 8 * k + 64, others), dtype=np.int64).T)
        weights.append(weights[-1] * len(tables[-1]))
    # x as one mixed-radix key of its cosets, below 1.1e13 (B7) for every
    # group within MAX_SIZE; elements of one length have distinct keys,
    # and start == order below proves it, level by level
    weights = np.array(weights[:-1], dtype=np.int64)

    # ShortLex ids: the x s with l(x s) > l(x) that first reaches a new
    # element, for the least (x, s), gives it the next id, parent x and
    # lastgen s; below[x, s] is x s when l(x s) < l(x), else -1
    cosets = np.zeros((len(tables), 1), dtype=np.int64)  # of the identity, one row per space
    below = np.full((1, n), -1, dtype=np.int64)
    rows, parent, lastgen = [], [np.zeros(1, dtype=np.int64)], [np.full(1, -1, dtype=np.int64)]
    start = 1  # the ids of the current level run from start - len(below) to start
    while True:
        up = np.flatnonzero(below.ravel() < 0)
        x, t = np.divmod(up, n)
        reached = [table[c].ravel()[up] for table, c in zip(tables, cosets)]
        _, first, which = np.unique(weights @ reached, return_index=True, return_inverse=True)
        place = np.empty_like(first)  # of each distinct key, by first occurrence
        place[np.argsort(first)] = np.arange(len(first))
        new, lo = place[which], start - len(below)
        below.ravel()[up] = start + new
        rows.append(below)
        if not len(first):
            break
        first.sort()
        parent.append(lo + x[first])
        lastgen.append(t[first])
        cosets = np.array([r[first] for r in reached])
        below = np.full((len(first), n), -1, dtype=np.int64)
        below[new, t] = lo + x
        start += len(first)
        if start > order:  # a table that is not the group's
            break
    if start != order:
        raise AssertionError(f"enumerated {start} elements, expected {order}")

    lengths = np.repeat(np.arange(len(rows), dtype=np.int64), [len(r) for r in rows])
    return GroupTable(matrix, name or f"rank{n}", lengths, np.concatenate(rows),
                      np.concatenate(parent), np.concatenate(lastgen))


def group_from_name(name: str) -> GroupTable:
    matrix, canonical = preset_matrix(name)
    return build_group(matrix, canonical)

