"""Fast tests of the benchmark itself: every workload at toy size through
the same code as the full run, and every correctness check shown to catch
a planted error.  Run with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import cache  # noqa: E402
import params  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

kb = cache.import_klbasis()


def run_bench(*args: str, cwd: Path = BENCH.parent, bench: Path = BENCH) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(bench / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(params.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert spec["paths"] == [BENCH.name]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", params.WORKLOADS)
def test_toy_workload_runs_and_checks(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = workloads.PER_LAYER if trace else workloads.END_TO_END
    assert set(result["metrics"]) == set(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"))
    proc = run_bench("--workload", "h4-columns", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path, bench=tmp_path / BENCH.name)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- planted errors --------------------------------------------------------------


@pytest.fixture(scope="module")
def h3():
    g = kb.group_from_name("H3")
    store = kb.KLStore(g)
    return g, store, kb.build_wgraph(store)


def text_rows(g, col, sample):
    return {x: {z: str(col.store.poly(h)) for z, h in col.row(x).items()}
            for x in {0} | {g.inv[a] for a in sample}}


def test_symmetry_check_catches_a_changed_h_value(h3):
    g, _, wg = h3
    sample = [7, 23, 57]
    rows = {y: text_rows(g, kb.column(wg, y), sample) for y in sample}
    inv = {e: g.inv[e] for e in range(g.size)}
    assert verify.symmetry_problems(rows, inv) == []
    assert all(verify.row0_problems(y, rows[y][0]) == [] for y in sample)
    row = rows[23][g.inv[57]]
    z = next(iter(row))
    row[z] = "2" if row[z] != "2" else "3"
    assert verify.symmetry_problems(rows, inv)
    assert verify.row0_problems(7, {7: "v^-1 + v"})


def test_scan_check_catches_a_negative_entry():
    info = {"bad_negative": [(1, 2, "-v")], "bad_unimodal": []}
    assert verify.scan_problems(5, info)
    assert verify.scan_problems(5, {"bad_negative": [], "bad_unimodal": []}) == []


def test_ptable_checks_catch_a_wrong_polynomial(h3):
    g, store, _ = h3
    pairs = list(store.iter_pairs())
    assert verify.ptable_problems(pairs)[0] == []
    x, y, p = pairs[-1]
    bad = kb.QPoly([1, -1])
    assert verify.ptable_problems(pairs[:-1] + [(x, y, bad)])[0]
    assert verify.ptable_problems([(x, y, kb.QPoly([2]))])[0]
    assert verify.oracle_problems(store, [5, 40, g.w0]) == []


def test_log_check_catches_a_flipped_byte(tmp_path):
    assert run_bench("--workload", "resume-B5", "--seed", "1", "--seconds", "1",
                     "--size", "toy").returncode == 0
    ref = cache.b5_dir(params.TOY["resume-B5"], cache.source_digest()) / "reference"
    got = tmp_path / "got"
    shutil.copytree(ref, got)
    assert verify.log_problems(got, ref) == []
    log = got / "positivity_verbose_log"
    data = bytearray(log.read_bytes())
    data[len(data) // 2] ^= 1
    log.write_bytes(bytes(data))
    assert verify.log_problems(got, ref)
    (got / "error_log").write_text("h(1,2,3) = -v has a negative coefficient\n")
    assert len(verify.log_problems(got, ref)) == 3


def test_tcombo_check_catches_a_changed_h_value(h3):
    g, store, wg = h3
    col = kb.column(wg, 40)
    assert verify.tcombo_problems(store, col, 3) == []
    h = next(iter(col.row(3).values()))
    col.row(3)[next(iter(col.row(3)))] = col.store.intern(col.store.poly(h) + col.store.poly(h))
    assert verify.tcombo_problems(store, col, 3)


def test_wgraph_check_catches_a_wrong_mu(h3):
    g, _, wg = h3
    args = (g, wg, wg, params.WGRAPH_VERIFY_SEED, 10**6, 5)
    assert cache.verify_wgraph(*args) == []
    # a wrong mu on an edge of length difference 3: the reloaded copy and
    # the build agree, mu >= 1 and the covers hold, so only the oracle
    # can tell
    y, z, mu = next((y, z, mu) for y in range(g.size) for z, mu in wg.mu_in(y)
                    if g.lengths[y] - g.lengths[z] == 3 and g.lengths[y] <= 5)
    lists = list(wg.mu_lists)
    lists[y] = tuple((w, m + 1 if w == z else m) for w, m in lists[y])
    wrong = kb.WGraph(g, tuple(lists))
    problems = cache.verify_wgraph(g, wrong, wrong, params.WGRAPH_VERIFY_SEED, 10**6, 5)
    assert problems and all("oracle" in p for p in problems)
    assert cache.verify_wgraph(g, wg, wrong, params.WGRAPH_VERIFY_SEED, 10**6, 5)


def test_cached_wgraph_round_trips(h3, tmp_path):
    g, _, wg = h3
    import numpy as np

    path = tmp_path / "w.npz"
    np.savez(path, group=np.array(g.name), digest=np.array("d"),
             matrix=np.array(g.matrix.entries), **cache.wgraph_arrays(wg))
    assert cache.load_wgraph(path, g, "d").mu_lists == wg.mu_lists
    with pytest.raises(ValueError):
        cache.load_wgraph(path, g, "other")
