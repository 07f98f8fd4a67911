"""Acceptance suite: one test per criterion, each printing a pass line
with its measurements (run with -s to see them on success).

Criterion 10, the full 14400-column sweep of the largest group, is gated
behind RUN_H4_EXTENDED=1; measured on a 2-vCPU machine it needs about
11.5 CPU-hours in full mode in pure Python and is excluded from routine
runs.  Beside it, under the same gate, the anchor test computes column
14307 alone, the one column that holds the paper's 710,904,968.
Everything else is desk scale.
"""

import hashlib
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from klbasis.checks import (
    check_p1,
    check_p2,
    check_p3,
    check_strategy_invariance,
    check_w0_identity,
    column_summary,
)
from klbasis.cli import main
from klbasis.coxeter import group_from_name
from klbasis.dihedral import SIDES, crosscheck_dihedral, finite_product, triangle_table
from klbasis.hecke import c_in_t_basis, c_in_t_basis_oracle, column, tcombo_mult
from klbasis.klbase import KLStore, build_wgraph, extremal_pairs
from klbasis.ring import SymLaurentPoly

from oracles import c_to_t, ccombo_from_column_row


def report(n, text):
    print(f"\nPASS criterion {n}: {text}")


DIHEDRAL_RANGE = range(2, 13)


def test_criterion_01_dihedral_closed_form_oracle(groups):
    """Closed-form products equal the generic engine on I2(2)..I2(12)."""
    start = time.perf_counter()
    products = 0
    for m in DIHEDRAL_RANGE:
        rep = crosscheck_dihedral(m, groups(f"I2({m})"))
        assert rep.passed, rep.to_text()
        products += rep.counters["products"]
    # hand-checkable case: x = y = the length-6 word ending in 2, inside I2(9)
    square = finite_product(9, "same", 6, 6)
    assert square.terms == {
        2: SymLaurentPoly(0, (2,)),
        4: SymLaurentPoly(0, (2,)),
        6: SymLaurentPoly.one(),
        9: SymLaurentPoly(3, (1, 2)),
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"dihedral oracle took {elapsed:.1f}s, budget 10s"
    report(1, f"{products} closed-form products match the engine in {elapsed:.2f}s")


def test_criterion_02_triangle_tables():
    infinite = triangle_table(None, 3, "same", 5)
    assert infinite == [
        {2: 1, 4: 1},
        {1: 1, 3: 2, 5: 1},
        {2: 2, 4: 2, 6: 1},
        {1: 1, 3: 2, 5: 2, 7: 1},
        {2: 1, 4: 2, 6: 2, 8: 1},
    ]
    finite = triangle_table(9, 6, "same", 9)
    assert finite == [
        {5: 1, 7: 1},
        {4: 1, 6: 2, 8: 1},
        {3: 1, 5: 2, 7: 2},
        {2: 1, 4: 2, 6: 2, 8: 1},
        {1: 1, 3: 2, 5: 2, 7: 1},
        {2: 2, 4: 2, 6: 1},
        {1: 1, 3: 2, 5: 1},
        {2: 1, 4: 1},
        {},
    ]
    report(2, "both printed coefficient tables reproduced entry-for-entry")


ORACLE_GROUPS = ["A3", "B3"] + [f"I2({m})" for m in range(2, 9)] + ["H3"]


def test_criterion_03_kl_oracle_equivalence(groups, stores):
    start = time.perf_counter()
    elements = 0
    for name in ORACLE_GROUPS:
        g = groups(name)
        store = stores(name)
        for y in range(g.size):
            assert c_in_t_basis_oracle(g, y) == c_in_t_basis(store, y), (name, y)
            elements += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(3, f"bar-solve oracle matches the recursion on {elements} elements "
              f"in {elapsed:.1f}s")


def test_criterion_04_t_basis_ground_truth(groups, stores, wgraphs):
    pairs = 0
    for name in ["A2"] + [f"I2({m})" for m in range(2, 7)]:
        g = groups(name)
        store = stores(name)
        wg = wgraphs(name)
        cts = {y: c_in_t_basis(store, y) for y in range(g.size)}
        for y in range(g.size):
            col = column(wg, y)
            for x in range(g.size):
                direct = tcombo_mult(g, cts[x], cts[y])
                via_h = c_to_t(store, ccombo_from_column_row(col, x))
                assert direct == via_h, (name, x, y)
                pairs += 1
    report(4, f"{pairs} products agree between the t-basis and the h-table route")


def test_criterion_05_h3_full_sweep(stores, wgraphs):
    start = time.perf_counter()
    store = stores("H3")
    wg = wgraphs("H3")
    p1 = check_p1(store)
    assert p1.passed, p1.to_text()
    p2 = check_p2(store)
    assert p2.passed, p2.to_text()
    p3 = check_p3(wg)
    assert p3.passed, p3.to_text()
    # pinned on the first verified run (cross-validated by strategy
    # invariance, transpose symmetry and the t-basis oracle)
    assert p3.counters["max_coeff"] == 74
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(5, f"P1/P2/P3/unimodality pass over all of H3 "
              f"(max coefficient {p3.counters['max_coeff']}) in {elapsed:.1f}s")


def test_criterion_06_strategy_invariance(wgraphs):
    for name in ("H3", "I2(7)"):
        rep = check_strategy_invariance(wgraphs(name))
        assert rep.passed, rep.to_text()
    report(6, "fewest-, first- and last-descent sweeps produce identical "
              "h-tables on H3 and I2(7)")


def test_criterion_07_h_symmetry_h3(wgraphs):
    wg = wgraphs("H3")
    g = wg.g
    tables = [column(wg, y).rows for y in range(g.size)]
    checked = 0
    for y in range(g.size):
        iy = g.inv[y]
        for x in range(g.size):
            row = tables[y][x]
            transposed = tables[g.inv[x]][iy]
            assert len(row) == len(transposed)
            for z, u in row.items():
                assert transposed[g.inv[z]] == u, (x, y, z)
                checked += 1
    report(7, f"h(x,y,z) = h(y^-1,x^-1,z^-1) on all {checked} nonzero H3 triples")


def test_criterion_08_w0_identity(groups, stores, wgraphs):
    for name in ORACLE_GROUPS:
        rep = check_w0_identity(stores(name), wgraphs(name))
        assert rep.passed, rep.to_text()
        if name in ("A3", "B3"):
            assert rep.counters["unimodal_failures"] == 0
    report(8, "longest-element columns are scalar, match the length-weighted "
              "P sums, and are palindromic (unimodal on the crystallographic presets)")


def test_criterion_09_h4_extremal_count():
    """The count walks the Bruhat order over every candidate pair
    (``GroupTable.bruhat_leq``): about 1.8 s on H4, where the interval
    bitmasks it replaced took about 0.3 s; the walk is accepted, as it
    holds no table between calls."""
    start = time.perf_counter()
    g = group_from_name("H4")
    count = extremal_pairs(g).count()
    elapsed = time.perf_counter() - start
    assert count == 2_348_942, count
    assert elapsed < 3600.0
    report(9, f"inverse-reduced extremal pair count of H4 is {count} "
              f"({elapsed:.1f}s)")


@pytest.mark.skipif(
    not os.environ.get("RUN_H4_EXTENDED"),
    reason="about 11.5 CPU-hours in full mode, its maximum from column 14307; "
           "set RUN_H4_EXTENDED=1 to enable",
)
def test_criterion_10_h4_extended_run(tmp_path):
    rc = main(["positivity", "--group", "H4", "--outdir", str(tmp_path)])
    log = (tmp_path / "positivity_log").read_text().splitlines()
    assert rc == 0
    assert log[-1] == "14399: maxcoeff = 710904968"
    assert (tmp_path / "error_log").read_bytes() == b""
    report(10, "extended sweep reaches the published maximum coefficient")


# sha256 of str(h(14307, 14307, 14399)), the anchor entry in full
ANCHOR_SHA256 = "57c882b6b849f0427c25169d9314ea1bbacf36421f0eadd9c8f6c4cd7550cc76"


@pytest.mark.skipif(
    not os.environ.get("RUN_H4_EXTENDED"),
    reason="H4 P table, W-graph and column 14307: about 30 s; set RUN_H4_EXTENDED=1 to enable",
)
def test_criterion_10_anchor_column_14307(groups):
    """The paper's one published H4 figure, 710,904,968, is the middle
    coefficient of h(14307, 14307, w0), of degree 48, and no other entry of
    column 14307 reaches it."""
    start = time.perf_counter()
    g = groups("H4")
    col = column(build_wgraph(KLStore(g)), 14307)
    info = column_summary(col)
    figures = (info["max_coeff"], info["entries"], info["distinct"])
    assert figures == (710904968, 4776007, 435726), figures
    h = col.store.poly(col.row(14307)[14399])
    assert (g.w0, h.degree, h.coeff(0)) == (14399, 48, 710904968)
    assert hashlib.sha256(str(h).encode()).hexdigest() == ANCHOR_SHA256
    top = {u for u in col.store if max(map(abs, col.store.poly(u).half)) == info["max_coeff"]}
    at_max = [(x, z) for x in range(g.size) for z, u in col.row(x).items() if u in top]
    assert at_max == [(14307, 14399)], at_max
    elapsed = time.perf_counter() - start
    report(10, f"column 14307 holds the published maximum 710904968 at h(14307,14307,w0) "
               f"alone ({elapsed:.1f}s)")


def test_criterion_11_resume_correctness(tmp_path):
    outdir = tmp_path / "interrupted"
    outdir.mkdir()
    reference = tmp_path / "reference"
    cmd = [sys.executable, "-m", "klbasis", "positivity", "--group", "H3",
           "--outdir", str(outdir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    log = outdir / "positivity_log"
    threshold = random.Random().randint(5, 80)
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            if log.exists() and log.read_bytes().count(b"\n") >= threshold:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait()
    interrupted_lines = log.read_bytes().count(b"\n") if log.exists() else 0
    assert main(["positivity", "--group", "H3", "--outdir", str(outdir),
                 "--resume"]) == 0
    assert main(["positivity", "--group", "H3", "--outdir", str(reference)]) == 0
    ref_log = (reference / "positivity_log").read_text().splitlines()
    assert ref_log[-1] == "119: maxcoeff = 74"  # regression value, see criterion 5
    assert log.read_bytes() == (reference / "positivity_log").read_bytes()
    assert (outdir / "positivity_verbose_log").read_bytes() == (
        reference / "positivity_verbose_log"
    ).read_bytes()
    assert (outdir / "error_log").read_bytes() == b""
    report(11, f"killed at about {threshold} columns ({interrupted_lines} logged), "
               "resumed log is byte-identical to an uninterrupted run")
