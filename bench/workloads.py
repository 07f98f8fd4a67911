"""The benchmark's workloads.  ``bench/run.py`` starts this file in a fresh
process for each run:

    python3 bench/workloads.py WORKLOAD --seed N --seconds S --trace 0|1 [--size toy]

and reads one JSON object from the last line of its output.  The
``h4-columns`` workload starts this file once more per column
(``column`` subcommand), so each column runs alone in its own process.

klbasis is reached only through the names the package exports, through
``klbasis.checks.column_summary`` (the sweep's column scan) and through the
``klbasis positivity`` command line.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import cache  # noqa: E402
import params  # noqa: E402
from spans import Tracer, cpu_children, current_rss_mb, peak_rss_mb  # noqa: E402

WORK = BENCH / ".work"
CHILD_TIMEOUT = 170
# Set-ups per column process; setup_s is their median over the run.
COLUMN_SETUPS = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "columns_per_s": "1/s",
}

PER_LAYER = {
    "coxeter.build_s": "s",
    "coxeter.elements": "count",
    "klbase.ptable_s": "s",
    "klbase.ptable_rss_mb": "MB",
    "klbase.ptable_pairs": "count",
    "klbase.ptable_distinct": "count",
    "klbase.ptable_distinct_ratio": "ratio",
    "wgraph.extract_s": "s",
    "wgraph.load_s": "s",
    "wgraph.edges": "count",
    "hecke.column_s": "s",
    "hecke.entries": "count",
    "hecke.distinct": "count",
    "hecke.store_polys": "count",
    "hecke.useful_ratio": "ratio",
    "hecke.column_rss_mb": "MB",
    "checks.scan_s": "s",
    "checks.scanned": "count",
    "cli.first_line_s": "s",
    "cli.columns_logged": "count",
    "cli.serial_work_s": "s",
    "cli.pool_efficiency": "ratio",
}


class Outcome:
    """What one workload run measured and found."""

    def __init__(self):
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.detail: list[dict] = []

    def result(self, traced: bool) -> dict:
        values, units = (self.layer, PER_LAYER) if traced else (self.e2e, END_TO_END)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": values.get(k, 0), "unit": u} for k, u in units.items()},
        }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- h4-columns --------------------------------------------------------------


def column_job(group: str, y: int, sample: list[int], traced: bool) -> dict:
    """One column in this process: set-up (group build and W-graph load,
    ``COLUMN_SETUPS`` times over, the last one kept), column, scan.  Returns
    timings, counts, and row 0 and the rows a^-1 (a in the sample) in
    canonical text, with the inverse of every element they mention."""
    kb = cache.import_klbasis()
    from klbasis.checks import column_summary

    digest = cache.source_digest()
    tr = Tracer(traced)
    s_groups, s_loads = [], []
    for _ in range(COLUMN_SETUPS):
        g = wg = None
        gc.collect()
        with tr.span("coxeter.build") as s:
            g = kb.group_from_name(group)
        s_groups.append(s)
        with tr.span("wgraph.load") as s:
            wg = cache.load_wgraph(cache.wgraph_path(group, digest), g, digest)
        s_loads.append(s)
    rss0 = current_rss_mb()
    with tr.span("hecke.column", y=y) as s_col:
        col = kb.column(wg, y)
    rss1 = current_rss_mb()
    with tr.span("checks.scan", y=y) as s_scan:
        info = column_summary(col, with_unimodality=True)
    peak = peak_rss_mb()
    rows = sorted({0} | {g.inv[a] for a in sample})
    out_rows = {x: {z: str(col.store.poly(h)) for z, h in col.row(x).items()} for x in rows}
    mentioned = set(rows) | set(sample) | {z for r in out_rows.values() for z in r}
    return {
        "y": y,
        "length": g.lengths[y],
        "elements": g.size,
        "edges": wg.edge_count(),
        "group_s": [s.elapsed for s in s_groups],
        "load_s": [s.elapsed for s in s_loads],
        "setup_s": [a.elapsed + b.elapsed for a, b in zip(s_groups, s_loads)],
        "setup_cpu": [a.cpu + b.cpu for a, b in zip(s_groups, s_loads)],
        "column_s": s_col.elapsed, "column_cpu": s_col.cpu,
        "scan_s": s_scan.elapsed, "scan_cpu": s_scan.cpu,
        "store_polys": len(col.store),
        "entries": info["entries"],
        "distinct": info["distinct"],
        "max_coeff": info["max_coeff"],
        "bad_negative": info["bad_negative"],
        "bad_unimodal": info["bad_unimodal"],
        "column_rss_mb": rss1 - rss0,
        "peak_rss_mb": peak,
        "rows": {str(x): {str(z): p for z, p in r.items()} for x, r in out_rows.items()},
        "inv": {str(e): g.inv[e] for e in mentioned},
        "spans": tr.spans,
    }


def h4_columns(cfg: dict, seed: int, seconds: float, tr: Tracer, size: str) -> Outcome:
    """Each sampled column, in a process of its own, one after another."""
    import verify

    o = Outcome()
    ys = list(cfg["columns"])
    random.Random(seed).shuffle(ys)
    n = params.passes(seconds, cfg["pass_seconds"])
    runs = []
    for rep in range(n):
        for y in ys:
            o.attempted += 1
            cmd = [sys.executable, str(BENCH / "workloads.py"), "column", "--group", cfg["group"],
                   "--y", str(y), "--sample", ",".join(map(str, ys)),
                   "--trace", str(int(tr.enabled))]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
            if proc.returncode != 0:
                o.failed += 1
                o.problems.append(f"column {y} exited {proc.returncode}: {proc.stderr[-500:]}")
                continue
            r = json.loads(proc.stdout.strip().splitlines()[-1])
            tr.adopt(r.pop("spans"), request=f"column-{y}-{rep}")
            runs.append(r)
    if not runs:
        return o

    setup = [t for r in runs for t in r["setup_s"]]
    setup_cpu = [t for r in runs for t in r["setup_cpu"]]
    work = sum(r["column_s"] + r["scan_s"] for r in runs)
    work_cpu = sum(r["column_cpu"] + r["scan_cpu"] for r in runs)
    o.e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(setup) + work / n,
        "cpu_s": statistics.median(setup_cpu) + work_cpu / n,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "columns_per_s": len(runs) / work,
    }
    distinct = sum(r["distinct"] for r in runs)
    store = sum(r["store_polys"] for r in runs)
    o.layer = {
        "coxeter.build_s": statistics.median(t for r in runs for t in r["group_s"]),
        "coxeter.elements": runs[0]["elements"],
        "wgraph.load_s": statistics.median(t for r in runs for t in r["load_s"]),
        "wgraph.edges": runs[0]["edges"],
        "hecke.column_s": sum(r["column_s"] for r in runs) / n,
        "hecke.entries": sum(r["entries"] for r in runs) // n,
        "hecke.distinct": distinct // n,
        "hecke.store_polys": store // n,
        "hecke.useful_ratio": ratio(distinct, store),
        "hecke.column_rss_mb": max(r["column_rss_mb"] for r in runs),
        "checks.scan_s": sum(r["scan_s"] for r in runs) / n,
        "checks.scanned": distinct // n,
    }

    rows = {}
    inverses = {}
    for r in runs:
        o.problems += verify.scan_problems(r["y"], r)
        got = {int(x): {int(z): p for z, p in row.items()} for x, row in r["rows"].items()}
        o.problems += verify.row0_problems(r["y"], got[0])
        rows[r["y"]] = got
        inverses.update((int(e), i) for e, i in r["inv"].items())
    o.problems += verify.symmetry_problems(rows, inverses)
    o.detail = [
        {k: r[k] for k in ("y", "length", "column_s", "scan_s", "store_polys", "entries",
                           "distinct", "max_coeff", "column_rss_mb", "peak_rss_mb")}
        for r in runs
    ]
    return o


# -- h4-ptable -----------------------------------------------------------------


def h4_ptable(cfg: dict, seed: int, seconds: float, tr: Tracer, size: str) -> Outcome:
    """KLStore.build_upto(maxlen) on a freshly built group."""
    import verify

    kb = cache.import_klbasis()
    o = Outcome()
    n = params.passes(seconds, cfg["pass_seconds"])
    setups, builds, growth = [], [], []
    store = g = None
    for rep in range(n):
        # a fresh group each pass: the P build fills the group's Bruhat
        # mask cache, which a second pass would otherwise find warm
        store = g = None
        gc.collect()
        with tr.span("coxeter.build") as s:
            g = kb.group_from_name(cfg["group"])
        setups.append(s)
        rss0 = current_rss_mb()
        with tr.span("klbase.ptable", maxlen=cfg["maxlen"], request=f"pass-{rep}") as s:
            store = kb.KLStore(g)
            store.build_upto(cfg["maxlen"])
        growth.append(current_rss_mb() - rss0)
        builds.append(s)
        o.attempted += 1
    peak = peak_rss_mb()
    built = sum(1 for length in g.lengths if length <= cfg["maxlen"])
    setup_s = statistics.median(s.elapsed for s in setups)
    build_s = statistics.median(s.elapsed for s in builds)
    o.e2e = {
        "setup_s": setup_s,
        "wall_s": setup_s + build_s,
        "cpu_s": statistics.median(s.cpu for s in setups) + statistics.median(s.cpu for s in builds),
        "peak_rss_mb": peak,
        "columns_per_s": built / build_s,
    }

    problems, pairs, distinct = verify.ptable_problems(store.iter_pairs())
    o.problems += problems
    short = [y for y in range(1, g.size) if g.lengths[y] <= min(cfg["oracle_maxlen"], cfg["maxlen"])]
    ys = random.Random(seed).sample(short, min(cfg["oracle_count"], len(short)))
    o.problems += verify.oracle_problems(store, ys)
    o.layer = {
        "coxeter.build_s": setup_s,
        "coxeter.elements": g.size,
        "klbase.ptable_s": build_s,
        "klbase.ptable_rss_mb": statistics.median(growth),
        "klbase.ptable_pairs": pairs,
        "klbase.ptable_distinct": distinct,
        "klbase.ptable_distinct_ratio": ratio(distinct, pairs),
    }
    return o


# -- resume-B5 -----------------------------------------------------------------


def resumed_run(cfg: dict, prefix: Path, outdir: Path) -> dict:
    """One ``klbasis positivity --resume`` from a copy of the prefix logs.
    The first new line of positivity_log is watched for from outside."""
    shutil.rmtree(outdir, ignore_errors=True)
    shutil.copytree(prefix, outdir)
    lo, hi = cfg["range"]
    log = outdir / "positivity_log"
    needle = f"\n{cfg['prefix']}: ".encode()
    cpu0 = cpu_children()
    t0 = time.perf_counter()
    with open(outdir / "stderr", "wb") as err:
        proc = subprocess.Popen(cache.positivity_cmd(cfg, outdir, lo, hi, cfg["threads"], True),
                                env=cache.child_env(), stdout=subprocess.DEVNULL, stderr=err)
    t_first = None
    try:
        while proc.poll() is None:
            data = log.read_bytes()
            i = data.find(needle)
            if i >= 0 and data.find(b"\n", i + 1) >= 0:
                t_first = time.perf_counter()
                break
            time.sleep(0.002)
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    t_end = time.perf_counter()
    if t_first is None:
        t_first = t_end
    return {
        "returncode": proc.returncode,
        "stderr": (outdir / "stderr").read_text()[-500:],
        "first_line_s": t_first - t0,
        "wall_s": t_end - t0,
        "cpu_s": cpu_children() - cpu0,
        "logged": log.read_bytes().count(b"\n") - (cfg["prefix"] - lo),
        "t0": t0, "t_first": t_first, "t_end": t_end,
    }


def resume_b5(cfg: dict, seed: int, seconds: float, tr: Tracer, size: str) -> Outcome:
    """Resume a --threads N positivity sweep from logs with a torn last
    line, a few times over."""
    import verify

    o = Outcome()
    top = cache.b5_dir(cfg, cache.source_digest())
    work = WORK / f"resume-{size}"
    n = params.passes(seconds, cfg["pass_seconds"])
    todo = list(range(cfg["prefix"], cfg["range"][1] + 1))
    rounds = []
    for rep in range(n):
        outdir = work / f"round{rep}"
        r = resumed_run(cfg, top / "prefix", outdir)
        tr.record("cli.positivity", r["t0"], r["t_end"], request=f"round-{rep}",
                  first_line=r["t_first"])
        o.attempted += len(todo)
        if r["returncode"] != 0:
            o.failed += len(todo)
            o.problems.append(f"resumed run {rep} exited {r['returncode']}: {r['stderr']}")
            continue
        o.problems += [f"round {rep}: {p}" for p in verify.log_problems(outdir, top / "reference")]
        rounds.append(r)
    shutil.rmtree(work, ignore_errors=True)
    if not rounds:
        return o
    columns_phase = sum(r["wall_s"] - r["first_line_s"] for r in rounds)
    o.e2e = {
        "setup_s": statistics.median(r["first_line_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        "columns_per_s": sum(r["logged"] - 1 for r in rounds) / columns_phase,
    }

    # In-process: the layers the CLI ran, and the t-basis cross-check.
    kb = cache.import_klbasis()
    from klbasis.checks import column_summary

    with tr.span("coxeter.build") as s_group:
        g = kb.group_from_name(cfg["group"])
    rss0 = current_rss_mb()
    with tr.span("klbase.ptable") as s_table:
        store = kb.KLStore(g)
        store.build_all()
    table_rss = current_rss_mb() - rss0
    with tr.span("wgraph.extract") as s_extract:
        wg = kb.build_wgraph(store)
    rng = random.Random(seed)
    short = [x for x in range(1, g.size) if g.lengths[x] <= cfg["tcombo_xlen"]]
    pairs = [(rng.choice(short), rng.choice(todo)) for _ in range(cfg["tcombo_pairs"])]
    for x, y in pairs:
        o.problems += verify.tcombo_problems(store, kb.column(wg, y), x)
    if not tr.enabled:
        return o

    per_col = []
    for y in todo:
        rss0 = current_rss_mb()
        with tr.span("hecke.column", y=y) as s_col:
            col = kb.column(wg, y)
        grew = current_rss_mb() - rss0
        with tr.span("checks.scan", y=y) as s_scan:
            info = column_summary(col, with_unimodality=True)
        per_col.append((s_col.elapsed, s_scan.elapsed, info["entries"], info["distinct"],
                        len(col.store), grew))
        del col
    _, pairs_n, distinct_p = verify.ptable_problems(store.iter_pairs())
    distinct = sum(c[3] for c in per_col)
    stored = sum(c[4] for c in per_col)
    serial_after_first = sum(c[0] + c[1] for c in per_col[1:])
    o.layer = {
        "coxeter.build_s": s_group.elapsed,
        "coxeter.elements": g.size,
        "klbase.ptable_s": s_table.elapsed,
        "klbase.ptable_rss_mb": table_rss,
        "klbase.ptable_pairs": pairs_n,
        "klbase.ptable_distinct": distinct_p,
        "klbase.ptable_distinct_ratio": ratio(distinct_p, pairs_n),
        "wgraph.extract_s": s_extract.elapsed,
        "wgraph.edges": wg.edge_count(),
        "hecke.column_s": sum(c[0] for c in per_col),
        "hecke.entries": sum(c[2] for c in per_col),
        "hecke.distinct": distinct,
        "hecke.store_polys": stored,
        "hecke.useful_ratio": ratio(distinct, stored),
        "hecke.column_rss_mb": max(c[5] for c in per_col),
        "checks.scan_s": sum(c[1] for c in per_col),
        "checks.scanned": distinct,
        "cli.first_line_s": o.e2e["setup_s"],
        "cli.columns_logged": rounds[0]["logged"],
        "cli.serial_work_s": serial_after_first,
        "cli.pool_efficiency": ratio(serial_after_first, cfg["threads"] * columns_phase / len(rounds)),
    }
    return o


WORKLOAD_FUNCS = {"h4-columns": h4_columns, "h4-ptable": h4_ptable, "resume-B5": resume_b5}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "column":
        ap = argparse.ArgumentParser(prog="workloads.py column")
        ap.add_argument("--group", required=True)
        ap.add_argument("--y", type=int, required=True)
        ap.add_argument("--sample", required=True)
        ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
        a = ap.parse_args(argv[1:])
        sample = [int(x) for x in a.sample.split(",")]
        print(json.dumps(column_job(a.group, a.y, sample, bool(a.trace))))
        return 0
    ap = argparse.ArgumentParser(prog="workloads.py")
    ap.add_argument("workload", choices=params.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(params.SIZES), default="full")
    a = ap.parse_args(argv)
    cfg = params.SIZES[a.size][a.workload]
    tr = Tracer(bool(a.trace))
    t0 = time.perf_counter()
    o = WORKLOAD_FUNCS[a.workload](cfg, a.seed, a.seconds, tr, a.size)
    result = o.result(bool(a.trace))
    if tr.enabled:
        tr.write(WORK / f"trace-{a.workload}-{a.size}.json",
                 {"workload": a.workload, "seed": a.seed, "size": a.size,
                  "run_s": time.perf_counter() - t0, "metrics": result["metrics"],
                  "columns": o.detail})
    for p in o.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
