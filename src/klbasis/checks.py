"""Verification suite: positivity of P-polynomials and structure constants,
monotonicity for fixed y, unimodality, the longest-element ideal identity,
and descent-strategy cross-validation.

Checks never assume the properties they test: each one scans, captures
counterexamples, and reports.  A report passes exactly when its
counterexample list is empty.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .coxeter import GroupTable
from .hecke import DESCENT_STRATEGIES, HColumn, column
from .klbase import KLStore, WGraph
from .ring import LaurentPoly, QPoly, is_unimodal, qpoly_from_sym


@dataclass
class CheckReport:
    """Outcome of one check over one group."""

    name: str
    group: str
    passed: bool = True
    counters: dict[str, int] = field(default_factory=dict)
    counterexamples: list[str] = field(default_factory=list)

    def record_failure(self, description: str, limit: int = 20) -> None:
        self.passed = False
        if len(self.counterexamples) < limit:
            self.counterexamples.append(description)

    def to_text(self) -> str:
        items = " ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        lines = [f"check={self.name} group={self.group} pass={self.passed} {items}".rstrip()]
        lines.extend(f"  counterexample: {c}" for c in self.counterexamples)
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "check": self.name,
                "group": self.group,
                "pass": self.passed,
                "counters": self.counters,
                "counterexamples": self.counterexamples,
            },
            sort_keys=True,
        )


def check_p1(store: KLStore) -> CheckReport:
    """Non-negativity of every P_{x,y}, scanned over canonical extremal
    pairs (all other pairs reduce onto these)."""
    g = store.g
    report = CheckReport("p1", g.name)
    store.build_all()
    maxc = 1
    distinct = {QPoly.one()}
    pairs = 0
    for x, y, p in store.iter_pairs():
        pairs += 1
        distinct.add(p)
        maxc = max(maxc, p.max_abs_coeff())
        if any(c < 0 for c in p.coeffs):
            report.record_failure(f"P({x},{y}) = {p} has a negative coefficient")
    report.counters.update(pairs=pairs, distinct=len(distinct), max_coeff=maxc)
    return report


def check_p2(store: KLStore) -> CheckReport:
    """For each y, P_{x,y} - P_{z,y} has non-negative coefficients whenever
    x <= z <= y.  Differences telescope along covering chains, so scanning
    covering pairs x < z inside each lower interval is equivalent.  The
    interval below y is read from the table: the x with ids up to y's (ids
    are sorted by length) where P_{x,y} != 0."""
    g = store.g
    report = CheckReport("p2", g.name)
    store.build_all()
    covers = [g.covers(z).tolist() for z in range(g.size)]
    checked = 0
    for y in range(g.size):
        # the covers of each z <= y are <= y too
        polys = {x: p for x, p in enumerate(store.kl_polynomials(range(y + 1), y)) if p}
        for z, pz in polys.items():
            if z == 0:
                continue
            for x in covers[z]:
                diff = polys[x] - pz
                checked += 1
                if any(c < 0 for c in diff.coeffs):
                    report.record_failure(
                        f"P({x},{y}) - P({z},{y}) = {diff} has a negative coefficient"
                    )
    report.counters.update(pairs=checked)
    return report


def column_summary(col: HColumn, with_unimodality: bool = True) -> dict:
    """Scan one column once: negativity, optional unimodality, max
    coefficient, entry and distinct-polynomial counts.

    The column's store holds exactly its distinct values and has folded
    each into its figures once, in the batches it checks them in, however
    many entries share it; the scan reads those figures."""
    st = col.store
    return {
        "y": col.y,
        "max_coeff": st.max_abs,
        "entries": col.nonzero_entries(),
        "distinct": len(st),
        "bad_negative": _locate(col, st.negative),
        "bad_unimodal": _locate(col, st.not_unimodal) if with_unimodality else [],
    }


def _locate(col: HColumn, values: list[int]) -> list[tuple[int, int, str]]:
    """The entries (x, z, h_{x,y,z}) holding one of the values, sorted by
    (x, z): row order depends on the descent strategy, the report must not."""
    if not values:
        return []
    wanted = set(values)
    out = []
    for x in range(col.g.size):
        for z, u in col.row(x).items():
            if u in wanted:
                out.append((x, z, str(col.store.poly(u))))
    out.sort()
    return out


def failure_lines(info: dict) -> list[str]:
    """The error lines of a scanned column (``column_summary``): its
    negative entries, then its entries that are not unimodal."""
    y = info["y"]
    return [
        f"h({x},{y},{z}) = {p} has a negative coefficient" for x, z, p in info["bad_negative"]
    ] + [f"h({x},{y},{z}) = {p} is not unimodal" for x, z, p in info["bad_unimodal"]]


def check_p3(wg: WGraph, y_range: Iterable[int] | None = None) -> CheckReport:
    """Build each column in the range and assert every structure constant
    has non-negative coefficients and is unimodal, as the positivity
    sweep does; tracks the maximum coefficient."""
    g = wg.g
    report = CheckReport("p3", g.name)
    ys = range(g.size) if y_range is None else y_range
    max_coeff = 0
    triples = 0
    columns = 0
    for y in ys:
        info = column_summary(column(wg, y))
        columns += 1
        triples += info["entries"]
        max_coeff = max(max_coeff, info["max_coeff"])
        for line in failure_lines(info):
            report.record_failure(line)
    report.counters.update(columns=columns, triples=triples, max_coeff=max_coeff)
    return report


def check_w0_identity(store: KLStore, wg: WGraph) -> CheckReport:
    """c_x * c_w0 is a scalar multiple of c_w0 with scalar
    sum over z <= x of p_{z,x} v^{l(z)}; the scalar, normalised by
    v^{l(x)}, is palindromic in q.  The scalars that are not unimodal are
    counted (``unimodal_failures``), not failed."""
    g = store.g
    report = CheckReport("w0_identity", g.name)
    w0 = g.w0
    col = column(wg, w0)
    unimodal_failures = 0
    for x in range(g.size):
        row = col.row(x)
        if set(row) != {w0}:
            report.record_failure(
                f"c_{x} c_w0 is not a multiple of c_w0 (support {sorted(row)})"
            )
            continue
        h = col.store.poly(row[w0])
        lx = g.lengths[x]
        expected = LaurentPoly()
        # P_{z,x} = 0 unless z <= x, and z <= x has an id up to x's
        for z, p in enumerate(store.kl_polynomials(range(x + 1), x)):
            if p:
                expected = expected + p.to_laurent_v(2 * g.lengths[z] - lx)
        if h.expand() != expected:
            report.record_failure(
                f"scalar for x={x}: got {h}, expected {expected}"
            )
            continue
        qp = qpoly_from_sym(h)
        if not qp.is_palindromic():
            report.record_failure(f"v^l(x) scalar for x={x} is not palindromic: {qp}")
        if not is_unimodal(qp):
            unimodal_failures += 1
    report.counters.update(elements=g.size, unimodal_failures=unimodal_failures)
    return report


def check_strategy_invariance(wg: WGraph, ys: Sequence[int] | None = None) -> CheckReport:
    """Identical h-tables from the column recursion under every descent
    strategy, each held to the first one (the default)."""
    g = wg.g
    report = CheckReport("strategy_invariance", g.name)
    names = list(DESCENT_STRATEGIES)
    triples = 0
    for y in range(g.size) if ys is None else ys:
        ref = column(wg, y, names[0])
        others = [(name, column(wg, y, name)) for name in names[1:]]
        for x in range(g.size):
            rr = ref.row_polys(x)
            triples += len(rr)
            for name, col in others:
                ro = col.row_polys(x)
                if ro != rr:
                    report.record_failure(
                        f"rows differ at x={x}, y={y}: {names[0]}={rr}, {name}={ro}"
                    )
    report.counters.update(triples=triples)
    return report
