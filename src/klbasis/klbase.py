"""Kazhdan-Lusztig polynomials P_{x,y}, mu-values, extremal pairs and the
W-graph.

Every query is first reduced to an extremal pair (L(x) and R(x) both
contain the corresponding descent sets of y) through P_{x,y} = P_{sx,y}
for s in L(y) \\ L(x) and its right-hand analogue, and then to a canonical
representative under P_{x,y} = P_{x^-1,y^-1}.  Only those canonical
extremal pairs are memoised.  Columns are filled in increasing length of
y with the classical descent recursion; the generator used is always the
lowest-index left descent of y (strategy sensitivity of the structure
constant computation is tested separately, in checks).

The table is packed and interned.  Each P_{x,y} is one int, the
polynomial at q = 2^W (``ring.W``: one signed slot per coefficient), so
the recursion is int shifts, additions and multiply-adds, and each
distinct value is stored once: all pairs with equal P share one int
object.  A value's slots are read once, when it is first seen
(``ring._biased``), which checks the signed 64-bit bound and records its
degree and its leading coefficient (the mu-value when the degree is the
largest allowed).  Every stored pair is still held to the degree bound,
through those figures; ``checks.check_p1`` scans the table for negative
coefficients.  Sums cannot carry between slots:
each column checks its mu-values once (``check_mu_carry``).  Queries
return ``QPoly``, decoded once per distinct value.

The W-graph, all the column engine reads, is held as CSR arrays, and
persists as those arrays in an ``.npz`` (``save_wgraph``,
``load_wgraph``), so a resumed sweep loads it instead of rebuilding the
table.
"""

from __future__ import annotations

import os
import zipfile
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .coxeter import GroupTable
from .ring import _CARRY_LIMIT, _I64, W, CoefficientOverflowError, QPoly, _biased

_Q_ONE = QPoly.one()
_Q_ZERO = QPoly.zero()


def check_mu_carry(mus: Iterable[int]) -> None:
    """Raise CoefficientOverflowError unless the packed recursion over these
    mu-values cannot carry: P_{x,y} sums P_{sx,sy}, q P_{x,sy} and
    mu q^k P_{x,z} over the mu list, at most 2 + sum |mu| stored values."""
    total = 2 + sum(map(abs, mus))
    if total >= _CARRY_LIMIT:
        raise CoefficientOverflowError(f"packed P sums could carry: {total} stored values")


def _extremal_mask(g: GroupTable, y: int) -> int:
    """Bitmask of the x <= y whose left and right descent sets contain
    those of y: the extremal pairs of column y."""
    return (
        g.bruhat_mask(y)
        & g.descent_superset_mask("left", g.lmask[y])
        & g.descent_superset_mask("right", g.rmask[y])
    )


class KLStore:
    """Memoised table of Kazhdan-Lusztig polynomials over one group,
    packed and interned (see the module docstring)."""

    def __init__(self, g: GroupTable):
        self.g = g
        # canonical extremal pair (x, y), keyed y * |W| + x -> packed P
        self._P: dict[int, int] = {}
        # packed P -> (that int, degree, leading coefficient); the first
        # element is the one object all pairs share
        self._values: dict[int, tuple[int, int, int]] = {}
        self._decoded: dict[int, QPoly] = {}
        self._mu: dict[int, tuple[tuple[int, int], ...]] = {}
        self._next_column = 0

    # -- packed values ------------------------------------------------------

    def _intern(self, u: int) -> tuple[int, int, int]:
        got = self._values.get(u)
        if got is None:
            biased = _biased(u)  # raises CoefficientOverflowError
            got = self._values[u] = (u, len(biased) - 1, biased[-1] - _I64 if biased else 0)
        return got

    def _decode(self, u: int) -> QPoly:
        p = self._decoded.get(u)
        if p is None:
            p = self._decoded[u] = QPoly([c - _I64 for c in _biased(u)])
        return p

    def _below(self, y: int) -> bytes:
        """The Bruhat mask of y as little-endian bytes: testing one bit
        costs the same wherever it sits, unlike shifting the int."""
        g = self.g
        return g.bruhat_mask(y).to_bytes((g.size + 7) >> 3, "little")

    def _packed(self, x: int, y: int, below: bytes) -> int:
        """P_{x,y} packed, where below is ``_below(y)`` and the columns up
        to y's length are built."""
        if x == y:
            return 1
        if not below[x >> 3] >> (x & 7) & 1:
            return 0
        # raise x until (x, y) is extremal
        g = self.g
        lmask, rmask = g.lmask, g.rmask
        left, right = lmask[y], rmask[y]
        while x != y:
            free = left & ~lmask[x]
            if free:
                x = g.lmult[x][(free & -free).bit_length() - 1]
                continue
            free = right & ~rmask[x]
            if free:
                x = g.rmult[x][(free & -free).bit_length() - 1]
                continue
            n = g.size
            key, tkey = y * n + x, g.inv[y] * n + g.inv[x]
            return self._P[tkey if tkey < key else key]
        return 1

    # -- column construction ----------------------------------------------

    def build_upto(self, maxlen: int) -> None:
        g = self.g
        while self._next_column < g.size and g.lengths[self._next_column] <= maxlen:
            self._build_column(self._next_column)
            self._next_column += 1

    def build_all(self) -> None:
        self.build_upto(self.g.lengths[self.g.w0])

    def _build_column(self, y: int) -> None:
        g = self.g
        iy = g.inv[y]
        if iy < y:
            return  # values live in the transposed column
        interval = g.bruhat_mask(y)
        ly = g.lengths[y]
        out = [(int(x), 1) for x in g.mask_to_ids(interval & g.level_mask(ly - 1))]
        if y:
            s = (g.lmask[y] & -g.lmask[y]).bit_length() - 1
            sy = g.lmult[y][s]
            mus = [
                (z, mu, g.lengths[z], self._below(z), W * ((ly - g.lengths[z]) >> 1))
                for z, mu in self.mu_list(sy)
                if g.lmask[z] >> s & 1
            ]
            check_mu_carry(mu for _, mu, _, _, _ in mus)
            below = self._below(sy)
            values, table, inv, lengths, n = self._values, self._P, g.inv, g.lengths, g.size
            for x in g.mask_to_ids(_extremal_mask(g, y)):
                x = int(x)
                if x == y:
                    continue
                d = ly - lengths[x]
                if iy == y and inv[x] < x:
                    # P_{x,y} = P_{x^-1,y}, stored earlier in this column
                    _, deg, lead = values[table[y * n + inv[x]]]
                else:
                    u, deg, lead = self._intern(self._recurrence(x, y, s, sy, below, mus))
                    if 2 * deg > d - 1:
                        raise AssertionError(
                            f"degree bound violated for P_{{{x},{y}}} in {g.name}: "
                            f"{self._decode(u)}"
                        )
                    table[y * n + x] = u
                # mu(x, y) is the coefficient of q^((d-1)/2), the largest
                # degree the bound allows
                if d >= 3 and d & 1 and 2 * deg == d - 1:
                    out.append((x, lead))
        out.sort()
        self._mu[y] = tuple(out)

    def _recurrence(self, x: int, y: int, s: int, sy: int, below: bytes, mus) -> int:
        # P_{x,y} = P_{sx,sy} + q P_{x,sy} - sum mu(z,sy) q^((l(y)-l(z))/2) P_{x,z}
        # for extremal (x, y), where s in L(y) implies s in L(x); below is
        # _below(sy), and mus holds (z, mu, l(z), _below(z), slot shift)
        # for the z with s in L(z)
        packed = self._packed
        u = packed(self.g.lmult[x][s], sy, below) + (packed(x, sy, below) << W)
        lx = self.g.lengths[x]
        for z, mu, lz, below_z, shift in mus:
            if lz >= lx:
                pz = packed(x, z, below_z)
                if pz:
                    u -= pz * mu << shift
        return u

    # -- queries ------------------------------------------------------------

    def kl_polynomial(self, x: int, y: int) -> QPoly:
        """P_{x,y}: zero unless x <= y, one for x = y."""
        if x == y:
            return _Q_ONE
        g = self.g
        if g.lengths[x] >= g.lengths[y] or not g.bruhat_mask(y) >> x & 1:
            return _Q_ZERO
        if y >= self._next_column:
            self.build_upto(g.lengths[y])
        return self._decode(self._packed(x, y, self._below(y)))

    def mu_list(self, y: int) -> tuple[tuple[int, int], ...]:
        """All (z, mu(z, y)) with nonzero mu, sorted by z."""
        got = self._mu.get(y)
        if got is None:
            g = self.g
            iy = g.inv[y]
            if iy not in self._mu:
                self.build_upto(g.lengths[y])
            got = self._mu.get(y)
            if got is None:  # y is not canonical: derive from the list of y^-1
                got = self._mu[y] = tuple(sorted((g.inv[z], mu) for z, mu in self._mu[iy]))
        return got

    def iter_pairs(self) -> Iterator[tuple[int, int, QPoly]]:
        """Stored canonical extremal pairs (x, y, P) with x < y."""
        n = self.g.size
        for key in sorted(self._P):
            y, x = divmod(key, n)
            yield x, y, self._decode(self._P[key])

    def distinct_polynomials(self) -> list[QPoly]:
        """The distinct P_{x,y} over all x <= y, sorted by (degree, coeffs).

        Includes the constant 1 (diagonal pairs); builds the full table.
        """
        self.build_all()
        seen = {_Q_ONE}
        seen.update(map(self._decode, set(self._P.values())))
        return sorted(seen, key=QPoly.sort_key)


def _csr(lists: Sequence[Sequence[tuple[int, int]]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(offsets, z, mu) of the mu lists, in one pass over the flattened pairs."""
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([len(edges) for edges in lists], out=offsets[1:])
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(lists)), np.int64, 2 * int(offsets[-1])
    )
    return offsets, flat[0::2].astype(np.int32), flat[1::2].copy()


class DescentTables(NamedTuple):
    """The W-graph as the column recursion reads it, per generator s.

    - ``ones[s][z]``, for s not in L(z), the w < z with s in L(w) and
      mu(w, z) = 1; ``others[s][z]`` the (w, mu(w, z)) with s in L(w) and
      any other mu (mu > 1 on a W-graph), rare.  Together they are the
      edges that both c_s c_z and the subtraction in
      c_s c_{sx} = c_x + sum mu(z, sx) c_z follow (both empty for s in
      L(z), where neither reads them).  Each w is the one int object the
      tables share for that element, so the tables hold no int of their
      own per edge;
    - ``cheapest[x]``, the s in L(x) whose sx has the fewest such edges,
      the lowest s on ties (-1 for the identity).  Any left descent of x
      gives the same row (Kazhdan-Lusztig, Invent. Math. 53, 1979), so
      this choice, fixed once per group, changes only the work;
    - ``max_mu`` and ``max_mu_sum``, the largest |mu| and the largest sum
      of |mu| over the edges into one element, which bound the images and
      the sums of a column.
    """

    ones: tuple[tuple[tuple[int, ...], ...], ...]
    others: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    cheapest: tuple[int, ...]
    max_mu: int
    max_mu_sum: int


class WGraph:
    """Descent sets plus mu-labelled edges; the only data the structure
    constant recursion consumes besides group multiplication.

    The edges are CSR arrays: the (z, mu(z, y)) with z < y are
    ``z[offsets[y]:offsets[y + 1]]`` and ``mu[offsets[y]:offsets[y + 1]]``
    (``offsets`` int64, ``z`` int32, ``mu`` int64), as in the saved file.
    ``mu_in``, ``edges`` and ``mu_lists`` build tuples from them on
    demand.  The column recursion reads the edges only through
    ``tables``, built once per graph on first use, so that loading a graph
    costs no more than its arrays.
    """

    def __init__(self, g: GroupTable, mu_lists: Sequence[Sequence[tuple[int, int]]]):
        """The graph whose edges into y are the pairs (z, mu) of
        mu_lists[y], taken as they are, unchecked."""
        self.g = g
        self.offsets, self.z, self.mu = _csr(mu_lists)

    @classmethod
    def from_arrays(
        cls, g: GroupTable, offsets: np.ndarray, z: np.ndarray, mu: np.ndarray
    ) -> WGraph:
        """The graph of these CSR arrays, taken as they are, unchecked."""
        wg = cls.__new__(cls)
        wg.g, wg.offsets, wg.z, wg.mu = g, offsets, z, mu
        return wg

    def __getstate__(self) -> dict:
        # the tables are rebuilt where they are read: pickle keeps no int
        # shared, so a pickled copy would hold one int per table entry
        return {key: value for key, value in self.__dict__.items() if key != "tables"}

    @property
    def size(self) -> int:
        return self.g.size

    @cached_property
    def tables(self) -> DescentTables:
        g, offsets, z, mu = self.g, self.offsets, self.z, self.mu
        n, rank = g.size, g.rank
        # the one int object of each element, in an array that fancy
        # indexing reads without making new ints
        ids = np.array(range(n), dtype=object)
        sizes = np.diff(offsets)
        heads = np.repeat(np.arange(n), sizes)  # the y of each edge

        def per_head(sel: np.ndarray, items: tuple) -> tuple[tuple, np.ndarray]:
            # the items of the selected edges, in CSR order, one tuple per
            # y (most y have none, and share the empty tuple), and how many
            # each y has
            ends = np.concatenate(([0], np.cumsum(sel)))[offsets]
            held = np.flatnonzero(ends[1:] > ends[:-1])
            out = [()] * n
            for y, a, b in zip(held.tolist(), ends[held].tolist(), ends[held + 1].tolist()):
                out[y] = items[a:b]
            return tuple(out), np.diff(ends)

        lmask = np.array(g.lmask, dtype=np.int64)
        # the s each edge is followed for: s in L(z) \ L(y), z its tail
        follow = lmask[z] & ~lmask[heads]
        unit = mu == 1
        ones, others, counts = [], [], np.empty((rank, n), dtype=np.int64)
        for s in range(rank):
            keep = follow >> s & 1 == 1
            sel = keep & unit
            ones_s, n_ones = per_head(sel, tuple(ids[z[sel]].tolist()))
            sel = keep & ~unit
            others_s, n_others = per_head(sel, tuple(zip(ids[z[sel]].tolist(), mu[sel].tolist())))
            ones.append(ones_s)
            others.append(others_s)
            counts[s] = n_ones + n_others
        # cost[x, s]: the edges of sx for s in L(x), more than any otherwise
        lmult = np.fromiter(chain.from_iterable(g.lmult), np.int64, n * rank).reshape(n, rank)
        cost = counts[np.arange(rank), lmult]
        descents = lmask[:, None] >> np.arange(rank) & 1
        cheapest = np.where(descents == 1, cost, len(z) + 1).argmin(axis=1)
        cheapest[0] = -1
        # |mu| bounds in Python ints, exact for any int64 mu a planted graph
        # may carry: every edge weighs one, plus |mu| - 1 off the unit ones
        sums = sizes.tolist()
        rare = np.flatnonzero(~unit)
        rare_mu = [abs(m) for m in mu[rare].tolist()]
        for y, m in zip(heads[rare].tolist(), rare_mu):
            sums[y] += m - 1
        max_mu = max([min(len(z), 1), *rare_mu])
        return DescentTables(
            tuple(ones), tuple(others), tuple(cheapest.tolist()), max_mu, max(sums, default=0)
        )

    def mu_in(self, y: int) -> tuple[tuple[int, int], ...]:
        """(z, mu(z, y)) pairs with z < y."""
        a, b = self.offsets[y], self.offsets[y + 1]
        return tuple(zip(self.z[a:b].tolist(), self.mu[a:b].tolist()))

    @property
    def mu_lists(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``mu_in(y)`` for every y."""
        return tuple(map(self.mu_in, range(self.size)))

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """All edges as (x, y, mu) with x < y, ordered by (y, x)."""
        zs, mus, bounds = self.z.tolist(), self.mu.tolist(), self.offsets.tolist()
        for y in range(self.size):
            for i in range(bounds[y], bounds[y + 1]):
                yield zs[i], y, mus[i]

    def edge_count(self) -> int:
        return int(self.offsets[-1])


def _checked_wgraph(g: GroupTable, offsets: np.ndarray, z: np.ndarray, mu: np.ndarray) -> WGraph:
    """The W-graph of these CSR arrays, once every mu is at least one."""
    bad = np.flatnonzero(mu < 1)
    if bad.size:
        i = int(bad[0])
        y = int(np.searchsorted(offsets, i, side="right")) - 1
        raise ValueError(
            f"nonpositive mu({int(z[i])},{y}) = {int(mu[i])}: edge-level positivity fails"
        )
    return WGraph.from_arrays(g, offsets, z, mu)


def build_wgraph(store: KLStore) -> WGraph:
    """Materialise the W-graph of the whole group from a KL store."""
    store.build_all()
    g = store.g
    return _checked_wgraph(g, *_csr([store.mu_list(y) for y in range(g.size)]))


# -- the W-graph on disk ------------------------------------------------------
#
# An .npz of CSR arrays: the edges into y are z[offsets[y]:offsets[y + 1]]
# with mu[offsets[y]:offsets[y + 1]].  It also holds the format version,
# the Coxeter matrix and a sha256 over all of these, so a file of another
# group or version, or with damaged arrays, is never read as this graph.

WGRAPH_VERSION = 1
_WGRAPH_DTYPES = {
    "version": np.int64,
    "matrix": np.int64,
    "offsets": np.int64,
    "z": np.int32,
    "mu": np.int64,
}


def _wgraph_digest(arrays: dict[str, np.ndarray]) -> str:
    # imported here, not with the module: hashlib maps OpenSSL, about 4 MB
    # of resident memory that only a save or a load needs
    import hashlib

    h = hashlib.sha256()
    for key in _WGRAPH_DTYPES:
        a = arrays[key]
        h.update(f"{key} {a.dtype.str} {a.shape}\0".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def save_wgraph(wg: WGraph, path: str | os.PathLike) -> None:
    """Write the W-graph to path atomically: a temporary file beside it,
    then a rename, so a kill leaves either the whole file or none."""
    arrays = {
        "version": np.array(WGRAPH_VERSION, dtype=np.int64),
        "matrix": np.array(wg.g.matrix.entries, dtype=np.int64),
        "offsets": wg.offsets,
        "z": wg.z,
        "mu": wg.mu,
    }
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, sha256=np.array(_wgraph_digest(arrays)), **arrays)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_wgraph(path: str | os.PathLike, g: GroupTable) -> WGraph | None:
    """The W-graph of g saved at path, or None when the file is missing or
    unreadable, or was written for another format version, Coxeter matrix
    or size, or fails its hash.  The edges are held to mu >= 1 again, as
    ``build_wgraph`` holds them."""
    try:
        # np.load leaves a path it opened open when the zip is damaged
        with open(path, "rb") as fh, np.load(fh) as data:
            arrays = {key: data[key] for key in _WGRAPH_DTYPES}
            digest = str(data["sha256"])
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    if (
        any(arrays[key].dtype != dtype for key, dtype in _WGRAPH_DTYPES.items())
        or arrays["version"].shape != ()
        or int(arrays["version"]) != WGRAPH_VERSION
        or arrays["matrix"].tolist() != [list(row) for row in g.matrix.entries]
        or arrays["offsets"].shape != (g.size + 1,)
        or digest != _wgraph_digest(arrays)
    ):
        return None
    offsets, z, mu = arrays["offsets"], arrays["z"], arrays["mu"]
    sizes = np.diff(offsets)
    if (
        offsets[0] != 0
        or (sizes < 0).any()
        or z.shape != mu.shape
        or z.shape != (offsets[-1],)
        or (z < 0).any()
        or (z >= np.repeat(np.arange(g.size), sizes)).any()
    ):
        return None
    return _checked_wgraph(g, offsets, z, mu)


class ExtremalPairs:
    """Pairs x <= y with LR(x) containing LR(y), reduced by the inverse
    symmetry at column level: only columns with y <= y^-1 are listed, an
    involution's column in full.  These are exactly the cases a per-column
    sweep computes."""

    def __init__(self, g: GroupTable):
        self.g = g
        self._count: int | None = None

    def count(self) -> int:
        if self._count is None:
            self._count = sum(
                _extremal_mask(self.g, y).bit_count()
                for y in range(self.g.size)
                if y <= self.g.inv[y]
            )
        return self._count

    def __iter__(self) -> Iterator[tuple[int, int]]:
        g = self.g
        for y in range(g.size):
            if y > g.inv[y]:
                continue
            for x in g.mask_to_ids(_extremal_mask(g, y)):
                yield int(x), y


def extremal_pairs(g: GroupTable) -> ExtremalPairs:
    return ExtremalPairs(g)
