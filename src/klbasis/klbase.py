"""Kazhdan-Lusztig polynomials P_{x,y}, mu-values, extremal pairs and the
W-graph.

Every query is first reduced to an extremal pair (L(x) and R(x) both
contain the corresponding descent sets of y) through P_{x,y} = P_{sx,y}
for s in L(y) \\ L(x) and its right-hand analogue, and then to a canonical
representative under P_{x,y} = P_{x^-1,y^-1}.  Only those canonical
extremal pairs are stored.  The table is built one length level of y at a
time, since a column reads only shorter ones, with the classical descent
recursion; the generator used is always the lowest-index left descent of
y (strategy sensitivity of the structure constant computation is tested
separately, in checks).  A level is built in batches of columns: the
lookups of all their recursions are put into int arrays and reduced at
once, and by the lifting property x <= y exactly when the reduced pair is
(y, y) or a stored pair, so the stored pairs answer the Bruhat test too.

The table is packed and interned.  Each P_{x,y} is one int, the
polynomial at q = 2^W (``ring.W``: one signed slot per coefficient), so
the recursion is int shifts, additions and multiply-adds, and each
distinct value is stored once: all pairs with equal P share one int
object.  The pairs are two arrays in canonical key order, the sorted int64
keys y |W| + x and their values, and a batch finds the values of its
lookups with one ``searchsorted``.  A batch reads the slots of all its
sums at once (``ring._biased_slots``), which checks the signed 64-bit
bound and gives each pair's degree and leading coefficient (the mu-value
when the degree is the largest allowed), so every stored pair is held to
the degree bound; ``checks.check_p1`` scans the table for negative
coefficients.  Sums cannot carry between slots: each column
checks its mu-values once (``check_mu_carry``).  Queries return ``QPoly``,
decoded once per distinct value.

The W-graph, all the column engine reads, is held as CSR arrays.  The
store writes them a length level at a time, as it finishes the level's
columns, and a batch reads the mu lists of shorter columns from them;
``build_wgraph`` hands them on as the graph.  The graph persists as those
arrays in an ``.npz`` (``save_wgraph``, ``load_wgraph``), so a resumed
sweep loads it instead of rebuilding the table.
"""

from __future__ import annotations

import os
import zipfile
from bisect import bisect_right
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .coxeter import GroupTable
from .ring import (_CARRY_LIMIT, _I64, W, CoefficientOverflowError, QPoly, _biased,
                   _biased_slots)

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


# columns per batch of a level.  A batch's lookup and term arrays live only
# while it is built, but they set the build's peak RSS: H4 up to length 24
# peaks at 77.6 MB built a whole level at once, 61.5 MB in batches of 64,
# 54.7 MB in batches of 16 and 52.8 MB in batches of 8, in times that
# differ by less than their run-to-run spread
_BATCH_COLUMNS = 16


class _Batch(NamedTuple):
    """The pairs of a batch of columns, in the order the build checks them
    (by y, then by x), and the terms of their recurrences.

    Per pair: ``x``, ``y``, and ``sx`` and ``sy`` for the lowest s in L(y).
    Per term: the ``pair`` it is subtracted from, the ``z`` of the mu list
    of sy it reads P_{x,z} at, ``mu`` = mu(z, sy) and the slot ``shift``
    W (l(y) - l(z)) / 2.
    """

    x: np.ndarray
    y: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    pair: np.ndarray
    z: np.ndarray
    mu: np.ndarray
    shift: np.ndarray


class KLStore:
    """Table of Kazhdan-Lusztig polynomials over one group, packed and
    interned, built one length level at a time (see the module docstring).

    The stored pairs are two arrays in canonical key order: ``_keys``, the
    sorted int64 keys y |W| + x, and ``_vals``, the interned packed P of
    each (an object array whose entries are the shared int objects).

    The W-graph of the built columns is three int64 CSR arrays over all of
    |W|, written a length level at a time: the (z, mu(z, y)) of column y
    are ``_edge_z[a:b]`` and ``_edge_mu[a:b]`` for a, b = ``_offsets[y]``,
    ``_offsets[y + 1]``, sorted by z.  z stays int64 here, as the lookup
    keys y |W| + x it enters do; ``build_wgraph`` casts it to the int32
    of the graph.
    """

    def __init__(self, g: GroupTable):
        self.g = g
        self._keys = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=object)
        # packed P -> that int, the one object all pairs share
        self._values: dict[int, int] = {}
        self._decoded: dict[int, QPoly] = {}
        self._offsets = np.zeros(g.size + 1, dtype=np.int64)
        self._edge_z = np.empty(0, dtype=np.int64)
        self._edge_mu = np.empty(0, dtype=np.int64)
        self._next_column = 0
        # [mask] = the lowest generator in a nonzero descent mask
        self._lowest = np.array([(m & -m).bit_length() - 1 for m in range(1 << g.rank)],
                                dtype=np.int64)

    # -- packed values ------------------------------------------------------

    def _decode(self, u: int) -> QPoly:
        p = self._decoded.get(u)
        if p is None:
            p = self._decoded[u] = QPoly([c - _I64 for c in _biased(u)])
        return p

    # -- lookups ------------------------------------------------------------

    def _raise(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Each x raised, until it is b or extremal for b, by s x for the
        lowest s in L(b) \\ L(x), or when there is none by x s for the
        lowest s in R(b) \\ R(x).  Neither step changes P_{x,b}, and by the
        lifting property neither changes whether x <= b."""
        x = x.copy()
        a = self.g.arrays
        todo = np.flatnonzero(x != b)
        while todo.size:
            xt, bt = x[todo], b[todo]
            free = a.lmask[bt] & ~a.lmask[xt]
            right = free == 0
            free[right] = a.rmask[bt[right]] & ~a.rmask[xt[right]]
            moves = free != 0
            todo, bt, xt, right = todo[moves], bt[moves], xt[moves], right[moves]
            s = self._lowest[free[moves]]
            xt = np.where(right, a.rmult[xt, s], a.lmult[xt, s])
            x[todo] = xt
            todo = todo[xt != bt]
        return x

    def _lookup(self, x: np.ndarray, b: np.ndarray) -> np.ndarray:
        """P_{x,b} packed, an object array, for int64 arrays x and b whose
        columns are built.  Each x is raised to its extremal representative
        (``_raise``); x <= b exactly when that is b (P = 1) or, under its
        canonical key min(b |W| + x, b^-1 |W| + x^-1), a stored pair, so
        the stored pairs answer the Bruhat test too (P = 0 otherwise)."""
        x = self._raise(x, b)
        n, inv, keys = self.g.size, self.g.arrays.inv, self._keys
        key = np.minimum(b * n + x, inv[b] * n + inv[x])
        out = np.zeros(len(x), dtype=object)
        if len(keys):
            at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
            hit = keys[at] == key
            out[hit] = self._vals[at[hit]]
        out[x == b] = 1
        return out

    # -- construction ---------------------------------------------------------

    def build_upto(self, maxlen: int) -> None:
        """Build every column of length at most maxlen, a whole length level
        at a time: a column reads only columns of smaller length.  The
        identity's column, the first level, has no pairs and no edges."""
        g = self.g
        lengths, inv = g.lengths, g.arrays.inv
        while self._next_column < g.size and lengths[self._next_column] <= maxlen:
            start = self._next_column
            end = bisect_right(lengths, lengths[start], start)
            if start:
                ys = [y for y in range(start, end) if y <= inv[y]]
                keys, vals, edges = zip(*(self._build_batch(ys[i:i + _BATCH_COLUMNS])
                                          for i in range(0, len(ys), _BATCH_COLUMNS)))
                self._keys = np.concatenate([self._keys, *keys])
                self._vals = np.concatenate([self._vals, *vals])
                # the columns y > y^-1 of the level take the edges of y^-1,
                # as mu(z, y) = mu(z^-1, y^-1)
                edges = np.concatenate(edges, axis=1)
                y, z, mu = edges[:, inv[edges[0]] != edges[0]]
                edges = np.concatenate([edges, [inv[y], inv[z], mu]], axis=1)
                edges = edges[:, np.lexsort((edges[1], edges[0]))]
                counts = np.bincount(edges[0] - start, minlength=end - start)
                self._offsets[start + 1 : end + 1] = self._offsets[start] + np.cumsum(counts)
                self._edge_z = np.concatenate([self._edge_z, edges[1]])
                self._edge_mu = np.concatenate([self._edge_mu, edges[2]])
            self._next_column = end

    def build_all(self) -> None:
        self.build_upto(self.g.lengths[self.g.w0])

    def _build_batch(self, ys: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build the canonical columns ys (ascending, of one length l(y) > 0)
        from the shorter ones, and return the keys and interned values of
        their pairs and their edges, an int64 array of rows y, z and
        mu(z, y).  An involution's column stores only the x <= x^-1, as
        P_{x,y} = P_{x^-1,y}.

        The first failure raises what a build column by column raises
        first: a column's carry check, then its pairs by ascending x, each
        checked for 64 bits before its degree bound."""
        g = self.g
        lmask, lengths, inv, lmult = g.lmask, g.arrays.lengths, g.arrays.inv, g.arrays.lmult
        offsets, edge_z, edge_mu = self._offsets, self._edge_z, self._edge_mu
        ly = g.lengths[ys[0]]
        xs, mirrored, covers, steps = [], [], [], []
        z, mu, carry = [], [], None
        for y in ys:
            s = (lmask[y] & -lmask[y]).bit_length() - 1
            sy = g.lmult[y][s]
            # the mu list of sy, only the z with s in L(z)
            a, b = offsets[sy], offsets[sy + 1]
            held = g.arrays.lmask[edge_z[a:b]] >> s & 1 == 1
            zs, mus = edge_z[a:b][held], edge_mu[a:b][held]
            try:
                check_mu_carry(mus.tolist())
            except CoefficientOverflowError as err:
                if not steps:
                    raise  # the batch's first column: nothing fails before it
                carry = err
                break
            covers.append(g.covers(y))
            extremal = g.mask_to_ids(_extremal_mask(g, y))[:-1]  # all but y, the largest
            mirror = inv[extremal] < extremal if inv[y] == y else np.zeros(len(extremal), bool)
            xs.append(extremal[~mirror])
            mirrored.append(extremal[mirror])
            steps.append((y, s, len(zs)))
            z.append(zs)
            mu.append(mus)
        cols = np.array(steps, dtype=np.int64)  # per column: y, s, mu-list entries
        col = np.repeat(np.arange(len(cols)), [len(e) for e in xs])
        x = np.concatenate(xs)
        y, s, terms = cols[col, 0], cols[col, 1], cols[col, 2]
        sy = lmult[y, s]
        # every pair against every mu-list entry of its column, then only
        # the z no shorter than x: P_{x,z} = 0 for the others
        pair = np.repeat(np.arange(len(x)), terms)
        first = np.cumsum(cols[:, 2]) - cols[:, 2]
        entry = np.arange(len(pair)) - np.repeat(np.cumsum(terms) - terms, terms)
        entry += np.repeat(first[col], terms)
        z = np.concatenate(z)[entry]
        keep = lengths[z] >= lengths[x[pair]]
        pair, z, entry = pair[keep], z[keep], entry[keep]
        batch = _Batch(x, y, lmult[x, s], sy, pair, z,
                       np.concatenate(mu).astype(object)[entry], W * ((ly - lengths[z]) >> 1))
        sums = self._sums(batch).tolist()

        # every sum read at once, and interned up to the first outside 64 bits
        slots, out_of_range, deg = _biased_slots(sums)
        done = int(out_of_range.argmax()) if out_of_range.any() else len(sums)
        deg = deg[:done]
        lead = (slots[np.arange(done), deg] ^ np.uint64(_I64)).view(np.int64)
        vals = np.array([self._values.setdefault(u, u) for u in sums[:done]], dtype=object)
        d = ly - lengths[x[:done]]
        bad = np.flatnonzero(2 * deg > d - 1)
        if bad.size:
            i = bad[0]
            raise AssertionError(
                f"degree bound violated for P_{{{x[i]},{y[i]}}} in {g.name}: "
                f"{self._decode(vals[i])}"
            )
        if done < len(sums):
            raise CoefficientOverflowError("packed coefficient outside signed 64 bits")
        if carry is not None:
            raise carry

        # mu(x, y) is the coefficient of q^((d-1)/2), the largest degree the
        # bound allows; a mirrored x reads the pair of x^-1, in its column
        n = g.size
        mcol = np.repeat(np.arange(len(cols)), [len(e) for e in mirrored])
        mx = np.concatenate(mirrored)
        partner = np.searchsorted(col * n + x, mcol * n + inv[mx])
        ccol = np.repeat(np.arange(len(cols)), [len(e) for e in covers])
        cx = np.concatenate(covers)
        row_col = np.concatenate([ccol, col, mcol])
        row_x = np.concatenate([cx, x, mx])
        row_d = ly - lengths[row_x]
        row_deg = np.concatenate([np.full(len(cx), -1), deg, deg[partner]])
        row_mu = np.concatenate([np.ones(len(cx), dtype=np.int64), lead, lead[partner]])
        # the covers (degree -1 here) have mu = 1
        keep = (row_deg < 0) | ((row_d >= 3) & (row_d & 1 == 1) & (2 * row_deg == row_d - 1))
        return y * n + x, vals, np.array([cols[row_col, 0], row_x, row_mu])[:, keep]

    def _sums(self, batch: _Batch) -> np.ndarray:
        """P_{x,y} packed for each pair of the batch, an object array, by
        P_{x,y} = P_{sx,sy} + q P_{x,sy} - sum mu(z,sy) q^((l(y)-l(z))/2) P_{x,z}
        over the z with s in L(z), for extremal (x, y), where s in L(y)
        implies s in L(x).  Every lookup is raised at once."""
        m = len(batch.x)
        got = self._lookup(
            np.concatenate([batch.sx, batch.x, batch.x[batch.pair]]),
            np.concatenate([batch.sy, batch.sy, batch.z]),
        )
        sums = got[:m] + (got[m : 2 * m] << W)
        terms = got[2 * m :]
        nonzero = terms != 0
        np.subtract.at(
            sums,
            batch.pair[nonzero],
            terms[nonzero] * batch.mu[nonzero] << batch.shift[nonzero].astype(object),
        )
        return sums

    # -- queries ------------------------------------------------------------

    def kl_polynomials(self, xs: Sequence[int] | np.ndarray, y: int) -> list[QPoly]:
        """P_{x,y} for each x in xs: zero unless x <= y, one for x = y."""
        if y >= self._next_column:
            self.build_upto(self.g.lengths[y])
        xs = np.asarray(xs, dtype=np.int64)
        return list(map(self._decode, self._lookup(xs, np.full(len(xs), y)).tolist()))

    def iter_pairs(self) -> Iterator[tuple[int, int, QPoly]]:
        """Stored canonical extremal pairs (x, y, P) with x < y."""
        n = self.g.size
        for key, u in zip(self._keys.tolist(), self._vals.tolist()):
            y, x = divmod(key, n)
            yield x, y, self._decode(u)

    def distinct_polynomials(self) -> list[QPoly]:
        """The distinct P_{x,y} over all x <= y, sorted by (degree, coeffs).

        Includes the constant 1 (diagonal pairs); builds the full table.
        """
        self.build_all()
        seen = {_Q_ONE}
        seen.update(map(self._decode, set(self._vals.tolist())))
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

    - ``ones[s][z]``, the unit terms of c_s c_z: for s not in L(z), sz,
      then the w < z with s in L(w) and mu(w, z) = 1, and empty exactly
      for s in L(z); ``others[s][z]`` the (w, mu(w, z)) with s in L(w) and
      any other mu (mu > 1 on a W-graph), rare.  These are the terms of
      c_s c_z = c_{sz} + sum mu(w, z) c_w (Kazhdan-Lusztig, Invent. Math.
      53, 1979), and those of c_s c_{sx} after c_x are what
      c_x = c_s c_{sx} - sum mu(z, sx) c_z subtracts.  Each element is the
      one int object the tables share for it;
    - ``cheapest[x]``, the s in L(x) whose c_s c_{sx} has the fewest
      terms, the lowest s on ties (-1 for the identity).  Any left descent
      of x gives the same row (Kazhdan-Lusztig, Invent. Math. 53, 1979),
      so this choice, fixed once per group, changes only the work;
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

        def before(flags: np.ndarray) -> np.ndarray:
            # how many flags are set before each position, and in all
            return np.concatenate(([0], np.cumsum(flags)))

        def per_head(bounds: np.ndarray, items: tuple) -> tuple:
            # one tuple per y, items[bounds[y]:bounds[y + 1]] (the many y
            # with none share the empty tuple)
            held = np.flatnonzero(bounds[1:] > bounds[:-1])
            out = [()] * n
            for y, a, b in zip(held.tolist(), bounds[held].tolist(), bounds[held + 1].tolist()):
                out[y] = items[a:b]
            return tuple(out)

        lmask, lmult = g.arrays.lmask, g.arrays.lmult
        # the s each edge is followed for: s in L(z) \ L(y), z its tail
        follow = lmask[z] & ~lmask[heads]
        unit = mu == 1
        rare = np.flatnonzero(~unit)  # 6.6% of H4's edges
        ones, others, counts = [], [], np.empty((rank, n), dtype=np.int64)
        for s in range(rank):
            sel = (follow >> s & 1 == 1) & unit
            at = before(sel)[offsets]
            # sy leads the unit terms of c_s c_y, for each y with s not in L(y)
            up = lmask >> s & 1 == 0
            terms = np.insert(z[sel], at[:-1][up], lmult[up, s])
            ones.append(per_head(at + before(up), tuple(ids[terms].tolist())))
            counts[s] = np.diff(at)
            kept = rare[follow[rare] >> s & 1 == 1]
            at = np.searchsorted(kept, offsets)
            others.append(per_head(at, tuple(zip(ids[z[kept]].tolist(), mu[kept].tolist()))))
            counts[s] += np.diff(at)
        # cost[x, s]: the edges of sx for s in L(x), more than any otherwise
        cost = counts[np.arange(rank), lmult]
        descents = lmask[:, None] >> np.arange(rank) & 1
        cheapest = np.where(descents == 1, cost, len(z) + 1).argmin(axis=1)
        cheapest[0] = -1
        # |mu| bounds in Python ints, exact for any int64 mu a planted graph
        # may carry: every edge weighs one, plus |mu| - 1 off the unit ones
        sums = sizes.tolist()
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
    return _checked_wgraph(store.g, store._offsets, store._edge_z.astype(np.int32),
                           store._edge_mu)


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
        or digest != _wgraph_digest(arrays)
        or arrays["matrix"].tolist() != [list(row) for row in g.matrix.entries]
        or arrays["offsets"].shape != (g.size + 1,)
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
