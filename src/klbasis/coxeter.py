"""Finite Coxeter groups: enumeration, lengths, descent sets, Bruhat order.

A group is built from its Coxeter matrix.  Element identity during the
build is decided through the exact root system: a positive root is a
vector of AlgebraicReal coordinates over the simple roots, and an element
is determined by the set of positive roots it sends negative.  Ids are
assigned by breadth-first search in ShortLex order over generator indices,
so id 0 is the identity and ids are sorted by length.  After the build the
inversion bitsets are discarded; what remains are O(|W| * rank) transition
tables, descent masks, lengths and inverses.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

import numpy as np

from .numberfield import field_for_labels

MAX_RANK = 8


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

    @classmethod
    def chain(cls, rank: int, labels: Sequence[int]) -> "CoxeterMatrix":
        """Linear diagram with the given consecutive bond labels."""
        m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        for i, lab in enumerate(labels):
            m[i][i + 1] = m[i + 1][i] = lab
        return cls(m)

    def labels(self) -> set[int]:
        return {
            self.entries[i][j]
            for i in range(self.rank)
            for j in range(i + 1, self.rank)
        }

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


def _check_finite(matrix: CoxeterMatrix, field) -> None:
    """Positive-definiteness of the cosine matrix via exact leading
    principal minors (Gaussian pivots)."""
    n = matrix.rank
    B = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                B[i][j] = field.from_rational(2)
            else:
                B[i][j] = -field.two_cos_pi_over(matrix.entries[i][j])
    work = [row[:] for row in B]
    for i in range(n):
        pivot = work[i][i]
        if pivot.sign() <= 0:
            raise InfiniteTypeError(
                "cosine matrix is not positive definite; the group is not finite"
            )
        for r in range(i + 1, n):
            factor = work[r][i] / pivot
            if factor.is_zero():
                continue
            for c in range(i, n):
                work[r][c] = work[r][c] - factor * work[i][c]


class GroupTable:
    """Enumerated finite Coxeter group.

    Elements are ids 0..size-1 in ShortLex BFS order; id 0 is the identity.
    Descent sets are rank-wide bitmasks.  All tables are immutable after the
    build and safe to share across workers.
    """

    def __init__(
        self,
        matrix: CoxeterMatrix,
        name: str,
        lengths: list[int],
        rmult: list[list[int]],
        parent: list[int],
        lastgen: list[int],
        num_pos_roots: int,
    ):
        self.matrix = matrix
        self.name = name
        self.rank = matrix.rank
        self.size = len(lengths)
        self.lengths = lengths
        self.rmult = rmult
        self.parent = parent
        self.lastgen = lastgen
        self.num_pos_roots = num_pos_roots

        size, n = self.size, self.rank
        # inverses by folding the reversed ShortLex word through rmult
        inv = [0] * size
        for x in range(size):
            w = self.word(x)
            y = 0
            for s in reversed(w):
                y = rmult[y][s]
            inv[x] = y
        self.inv = inv

        self.lmult = [[inv[rmult[inv[x]][s]] for s in range(n)] for x in range(size)]

        self.rmask = [0] * size
        self.lmask = [0] * size
        for x in range(size):
            rm = 0
            lm = 0
            for s in range(n):
                if lengths[rmult[x][s]] < lengths[x]:
                    rm |= 1 << s
                if lengths[self.lmult[x][s]] < lengths[x]:
                    lm |= 1 << s
            self.rmask[x] = rm
            self.lmask[x] = lm

        maxlen = max(lengths)
        longest = [x for x in range(size) if lengths[x] == maxlen]
        if len(longest) != 1:
            raise AssertionError("longest element is not unique")
        self.w0 = longest[0]
        full = (1 << n) - 1
        if self.lmask[self.w0] != full or self.rmask[self.w0] != full:
            raise AssertionError("longest element must have full descent sets")

        self._np_lmult: dict[int, np.ndarray] = {}
        self._bruhat_masks: dict[int, int] = {0: 1}
        self._level_masks: list[int] | None = None
        self._lmask_superset: dict[int, int] | None = None
        self._rmask_superset: dict[int, int] | None = None
        self._caches: dict[str, dict] = {}

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

    def bruhat_leq(self, x: int, y: int) -> bool:
        """Descent recursion: pick s in L(y); x <= y iff min(x, sx) <= sy."""
        while True:
            if x == y or x == 0:
                return True
            if self.lengths[x] >= self.lengths[y]:
                return False
            ly = self.lmask[y]
            s = (ly & -ly).bit_length() - 1
            if self.lmask[x] >> s & 1:
                x = self.lmult[x][s]
            y = self.lmult[y][s]

    def _lmult_array(self, s: int) -> np.ndarray:
        if s not in self._np_lmult:
            self._np_lmult[s] = np.array([self.lmult[x][s] for x in range(self.size)], dtype=np.int64)
        return self._np_lmult[s]

    def _permute_bitmask(self, mask: int, s: int) -> int:
        """{s*x : x in mask} as a bitmask, via a vectorised permutation."""
        nbytes = (self.size + 7) // 8
        raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")[: self.size]
        out = bits[self._lmult_array(s)]
        return int.from_bytes(np.packbits(out, bitorder="little").tobytes(), "little")

    def bruhat_mask(self, y: int) -> int:
        """Bitmask of {x : x <= y}; memoised, built along descent chains."""
        masks = self._bruhat_masks
        chain = []
        while y not in masks:
            chain.append(y)
            ly = self.lmask[y]
            s = (ly & -ly).bit_length() - 1
            y = self.lmult[y][s]
        for z in reversed(chain):
            lz = self.lmask[z]
            s = (lz & -lz).bit_length() - 1
            below = masks[self.lmult[z][s]]
            masks[z] = below | self._permute_bitmask(below, s)
        return masks[chain[0]] if chain else masks[y]

    def mask_to_ids(self, mask: int) -> np.ndarray:
        """Element ids of the set bits, ascending."""
        nbytes = (self.size + 7) // 8
        raw = np.frombuffer(mask.to_bytes(nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, bitorder="little")[: self.size]
        return np.nonzero(bits)[0]

    def level_mask(self, length: int) -> int:
        if self._level_masks is None:
            levels = [0] * (self.lengths[self.w0] + 1)
            for x in range(self.size):
                levels[self.lengths[x]] |= 1 << x
            self._level_masks = levels
        if 0 <= length < len(self._level_masks):
            return self._level_masks[length]
        return 0

    def descent_superset_mask(self, side: str, dmask: int) -> int:
        """Bitmask of elements whose left (or right) descent set contains
        dmask; precomputed by a subset-sum sweep over descent sets."""
        attr = "_lmask_superset" if side == "left" else "_rmask_superset"
        table = getattr(self, attr)
        if table is None:
            source = self.lmask if side == "left" else self.rmask
            n = self.rank
            table = {T: 0 for T in range(1 << n)}
            for x, d in enumerate(source):
                table[d] |= 1 << x
            for s in range(n):
                bit = 1 << s
                for T in range(1 << n):
                    if not T & bit:
                        table[T] |= table[T | bit]
            setattr(self, attr, table)
        return table[dmask]

    def covers(self, y: int) -> np.ndarray:
        """Ids of elements covered by y in Bruhat order."""
        mask = self.bruhat_mask(y) & self.level_mask(self.lengths[y] - 1)
        return self.mask_to_ids(mask)

    def cache(self, key: str) -> dict:
        """Named scratch cache shared by modules that memoise per group."""
        return self._caches.setdefault(key, {})

    def __repr__(self) -> str:
        return f"GroupTable({self.name}, size={self.size})"


def build_group(matrix: CoxeterMatrix, name: str | None = None, max_size: int = 1_000_000) -> GroupTable:
    """Enumerate the finite Coxeter group of the given matrix.

    Raises InfiniteTypeError for non-finite type and GroupTooLargeError if
    the enumeration would exceed max_size elements.
    """
    n = matrix.rank
    field = field_for_labels(matrix.labels())
    _check_finite(matrix, field)

    # Gram matrix with (alpha_s, alpha_s) = 2
    B = [
        [
            field.from_rational(2)
            if i == j
            else -field.two_cos_pi_over(matrix.entries[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]

    zero = field.zero
    one = field.one

    def reflect(coords: tuple, s: int) -> tuple:
        # sigma_s(beta) = beta - B(beta, alpha_s) * alpha_s
        inner = zero
        for i in range(n):
            if coords[i]:
                inner = inner + coords[i] * B[i][s]
        out = list(coords)
        out[s] = out[s] - inner
        return tuple(out)

    simple = []
    for s in range(n):
        coords = [zero] * n
        coords[s] = one
        simple.append(tuple(coords))

    roots: dict[tuple, int] = {}
    order: list[tuple] = []
    for r in simple:
        if r not in roots:
            roots[r] = len(order)
            order.append(r)
    queue = list(order)
    while queue:
        r = queue.pop()
        for s in range(n):
            img = reflect(r, s)
            if img not in roots:
                roots[img] = len(order)
                order.append(img)
                queue.append(img)

    def root_sign(coords: tuple) -> int:
        for c in coords:
            sg = c.sign()
            if sg:
                return sg
        raise AssertionError("zero vector in root system")

    pos_roots = [r for r in order if root_sign(r) > 0]
    pos_index = {r: i for i, r in enumerate(pos_roots)}
    if 2 * len(pos_roots) != len(order):
        raise AssertionError("root system is not symmetric under negation")

    # action of each generator on positive roots; alpha_s itself flips sign
    perms: list[list[int]] = []
    alpha_bit: list[int] = []
    for s in range(n):
        perm = [0] * len(pos_roots)
        for i, r in enumerate(pos_roots):
            img = reflect(r, s)
            if img in pos_index:
                perm[i] = pos_index[img]
            else:
                neg = tuple(-c for c in img)
                if pos_index[neg] != i:
                    raise AssertionError("generator negates a non-simple root")
                perm[i] = i
        perms.append(perm)
        alpha_bit.append(pos_index[simple[s]])

    # BFS over inversion bitsets: N(xs) from N(x)
    lengths = [0]
    parent = [0]
    lastgen = [-1]
    rmult: list[list[int]] = [[-1] * n]
    seen: dict[int, int] = {0: 0}
    inversions = [0]

    head = 0
    while head < len(lengths):
        x = head
        head += 1
        nx = inversions[x]
        for s in range(n):
            if rmult[x][s] >= 0:
                continue
            abit = 1 << alpha_bit[s]
            perm = perms[s]
            out = abit if not nx & abit else 0
            rem = nx & ~abit
            while rem:
                b = rem & -rem
                rem ^= b
                out |= 1 << perm[b.bit_length() - 1]
            if out in seen:
                y = seen[out]
            else:
                y = len(lengths)
                if y >= max_size:
                    raise GroupTooLargeError(
                        f"group exceeds max_size={max_size}; raise the bound to proceed"
                    )
                seen[out] = y
                lengths.append(lengths[x] + 1)
                parent.append(x)
                lastgen.append(s)
                rmult.append([-1] * n)
                inversions.append(out)
                if lengths[y] != out.bit_count():
                    raise AssertionError("length does not match inversion count")
            rmult[x][s] = y
            rmult[y][s] = x

    return GroupTable(
        matrix,
        name or f"rank{n}",
        lengths,
        rmult,
        parent,
        lastgen,
        num_pos_roots=len(pos_roots),
    )


def group_from_name(name: str, max_size: int = 1_000_000) -> GroupTable:
    matrix, canonical = preset_matrix(name)
    return build_group(matrix, canonical, max_size=max_size)

