"""Command-line front end.

Commands: klplist (distinct KL polynomials), decrklpol (monotonicity for
fixed y), positivity (structure-constant sweep with checkpointed progress
log), cycltable / cprod (product tables), triangle (dihedral coefficient
tables).  Every argument error ends the command with one line,
``klbasis: <message>``, and exit status 1: bad group input (an unknown
name, a matrix file that is missing, malformed or of infinite type, too
high a rank, too large a group), a wrong number of command arguments, an
element id that is not an integer or not in the group, a --range that is
reversed or outside the group, a --threads below 1, an --outdir that
cannot be made a directory and bad triangle arguments; so does a
--resume into the output directory of another group's sweep, before it
changes any file there.  Errors argparse itself finds (an unknown command
or option, a --range that is not LO:HI) print its usage and exit with
status 2.

Each positivity column appends to up to three files, keyed by y, in this
order: its failures to error_log; its own maximum and counts to
positivity_verbose_log; and a ``y: maxcoeff = N`` line (cumulative
maximum) to positivity_log.  A column is done when the verbose log
carries it, and positivity_log is derived: the running maximum of the
verbose maxima of the done columns, in y order.  At its start and again
at its end, every run rewrites each file (through a temporary file and a
rename) to the lines of its done columns, sorted by y, and after them
records the group as its Coxeter matrix in coxeter_matrix, the same way
and in the --matrix file format; in between it loads or builds the
W-graph and sweeps the rest: a fresh run is the case where no column is
done.  ``--resume`` ends with the files of an uninterrupted run once
every column is done, whatever order the --range runs and kills came in.
A sweep passes, and exits 0, only when error_log, as read at the end,
holds no line of a done column.
A fresh run builds the W-graph from the P table and saves it as
wgraph.npz in the output directory; a resumed run loads that file (and
builds and saves the graph only when the file is missing or damaged).
A resume refuses a directory whose error_log or verbose log holds lines
unless coxeter_matrix records this group's matrix, and one whose lines
name a column outside this group.  A run never reads positivity_log or a
file not named here, and removes no file.
cycltable and cprod also read the graph from that file when it is
valid, and build it from the P table otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .checks import CheckReport, check_p2, column_summary, failure_lines
from .coxeter import CoxeterMatrix, GroupTable, build_group, preset_matrix
from .dihedral import format_triangle, triangle_table
from .hecke import column, format_combo
from .klbase import KLStore, WGraph, build_wgraph, load_wgraph, save_wgraph

POSITIVITY_LOG = "positivity_log"
VERBOSE_LOG = "positivity_verbose_log"
ERROR_LOG = "error_log"
WGRAPH_FILE = "wgraph.npz"
MATRIX_FILE = "coxeter_matrix"


def _log_line(line: str) -> tuple[int, int]:
    """(y, N) of a log line 'y: maxcoeff = N ...'."""
    ystr, rest = line.split(": maxcoeff = ", 1)
    return int(ystr), int(rest.split()[0])


# the append-only files a positivity sweep reads back, in the order a
# column appends to them, each with how to read the y and the value of one
# line; positivity_log, appended last, is derived from the verbose log
SWEEP_FILES = (
    (ERROR_LOG, lambda line: (int(line.split(",", 2)[1]), line)),  # 'h(x,y,z) = ...'
    (VERBOSE_LOG, _log_line),
)


def _load_group(ns: argparse.Namespace) -> GroupTable:
    try:
        if ns.matrix:
            path = Path(ns.matrix)
            return build_group(CoxeterMatrix.from_text(path.read_text()), path.stem)
        if not ns.group:
            raise ValueError("no group given: use --group NAME or --matrix FILE")
        return build_group(*preset_matrix(ns.group))
    except (OSError, ValueError) as err:
        raise SystemExit(f"klbasis: {err}")


def _outpath(ns: argparse.Namespace, name: str) -> Path:
    out = Path(ns.outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise SystemExit(f"klbasis: cannot make --outdir {out}: {err.strerror}")
    return out / name


def _emit_report(ns: argparse.Namespace, report: CheckReport) -> None:
    print(report.to_text())
    with open(_outpath(ns, "checks.jsonl"), "a") as fh:
        fh.write(report.to_json() + "\n")


def _wgraph(g: GroupTable, path: Path) -> WGraph:
    """The W-graph saved at path, or, when that file cannot be used, one
    built from the P table (which is dropped at once)."""
    wg = load_wgraph(path, g)
    return wg if wg is not None else build_wgraph(KLStore(g))


def cmd_klplist(ns: argparse.Namespace) -> int:
    """Distinct KL polynomials, sorted by (degree, coefficients); re-checks
    non-negativity along the way."""
    g = _load_group(ns)
    store = KLStore(g)
    polys = store.distinct_polynomials()
    bad = [p for p in polys if any(c < 0 for c in p.coeffs)]
    path = _outpath(ns, "klplist")
    with open(path, "w") as fh:
        fh.write(f"group {g.name}: {len(polys)} distinct polynomials\n")
        for p in polys:
            fh.write(f"{p}\n")
    print(f"group {g.name}: {len(polys)} distinct polynomials -> {path}")
    if bad:
        for p in bad:
            print(f"negative coefficients: {p}", file=sys.stderr)
        return 1
    return 0


def cmd_decrklpol(ns: argparse.Namespace) -> int:
    g = _load_group(ns)
    report = check_p2(KLStore(g))
    _emit_report(ns, report)
    return 0 if report.passed else 1


def _complete_lines(path: Path) -> list[str]:
    """Complete lines of an existing file; a torn trailing line is dropped."""
    return path.read_bytes().decode().split("\n")[:-1] if path.exists() else []


def _lines_by_y(path: Path, read) -> dict[int, list[tuple[str, object]]]:
    """Complete lines of a sweep file with their values, grouped by their y
    in file order; a line that cannot be read is dropped."""
    out: dict[int, list[tuple[str, object]]] = {}
    for line in _complete_lines(path):
        try:
            y, value = read(line)
        except (ValueError, IndexError):
            continue
        out.setdefault(y, []).append((line, value))
    return out


def _rewrite_sweep(paths: dict[str, Path], kept: dict, matrix: CoxeterMatrix) -> int:
    """Rewrite the sweep files to the kept lines of the done columns (those
    the verbose log carries) in y order, positivity_log to the running
    maximum of their verbose maxima and, last, so that a kill cannot leave
    it beside another group's lines, coxeter_matrix to matrix: each through
    a temporary file and a rename.  Returns the largest verbose maximum."""
    done = sorted(kept[VERBOSE_LOG])
    cum, log = 0, []
    for y in done:
        cum = max(cum, *(value for _, value in kept[VERBOSE_LOG][y]))
        log.append(f"{y}: maxcoeff = {cum}\n")
    texts = [(name, "".join(line + "\n" for y in done for line, _ in kept[name].get(y, ())))
             for name, _ in SWEEP_FILES]
    for name, text in [*texts, (POSITIVITY_LOG, "".join(log)), (MATRIX_FILE, matrix.to_text())]:
        tmp = paths[name].with_name(name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, paths[name])
    return cum


def _recorded_matrix(path: Path) -> CoxeterMatrix | None:
    """The Coxeter matrix recorded at path, or None when the file is
    missing or cannot be read as one."""
    try:
        return CoxeterMatrix.from_text(path.read_text())
    except (OSError, ValueError):
        return None


def _column_info(wg: WGraph, y: int) -> dict:
    """Column y, scanned."""
    return column_summary(column(wg, y), with_unimodality=True)


# the W-graph inside a pool worker, set once by its initializer; never set
# in the parent process
_pool_wg: WGraph | None = None


def _init_pool_worker(wg: WGraph, sweep_pid: int) -> None:
    global _pool_wg
    _pool_wg = wg
    threading.Thread(target=_exit_after, args=(sweep_pid,), daemon=True).start()


def _exit_after(pid: int) -> None:
    """End this process once process pid, its sweep, is gone: a worker
    whose sweep is killed would otherwise live on, idle.  The sweep's pid
    is watched rather than this process's parent, which under forkserver
    is the fork server."""
    while True:
        time.sleep(1)
        try:
            os.kill(pid, 0)
        except OSError:  # no such process, or another user's: not the sweep
            os._exit(1)


def _pool_column(y: int) -> dict:
    return _column_info(_pool_wg, y)


def cmd_positivity(ns: argparse.Namespace) -> int:
    """Per-y structure-constant sweep with non-negativity and unimodality
    checks, append-only logs and kill-safe resume."""
    g = _load_group(ns)
    lo, hi = ns.range or (0, g.size - 1)
    if lo > hi:
        raise SystemExit(f"klbasis: --range {lo}:{hi} has LO above HI")
    if not 0 <= lo <= hi < g.size:
        raise SystemExit(f"klbasis: --range {lo}:{hi} outside 0..{g.size - 1}")
    paths = {n: _outpath(ns, n) for n in (ERROR_LOG, VERBOSE_LOG, POSITIVITY_LOG, MATRIX_FILE)}

    # a column is done once its verbose line, which follows its error lines,
    # is complete; the rewrite comes before the W-graph build, so a fresh
    # run killed there leaves no other run's column for a resume to count
    kept = {name: _lines_by_y(paths[name], read) if ns.resume else {} for name, read in SWEEP_FILES}
    if ns.resume:
        # kept lines pass for done columns only beside the record of this
        # group's matrix: refuse them before the rewrite keeps them
        if any(kept.values()) and _recorded_matrix(paths[MATRIX_FILE]) != g.matrix:
            raise SystemExit(f"klbasis: cannot resume {g.name} in {ns.outdir}: {MATRIX_FILE} is "
                             "missing, unreadable or records another Coxeter matrix, and the "
                             "sweep files hold lines")
        for name, lines in kept.items():
            outside = [y for y in lines if not 0 <= y < g.size]
            if outside:
                raise SystemExit(f"klbasis: cannot resume {g.name} in {ns.outdir}: {name} "
                                 f"names column {outside[0]}, outside 0..{g.size - 1}")
    skipped = len(kept[VERBOSE_LOG])
    todo = [y for y in range(lo, hi + 1) if y not in kept[VERBOSE_LOG]]
    cum = _rewrite_sweep(paths, kept, g.matrix)

    # the P table is needed only to extract the graph and is dropped at
    # once, so neither this process nor a sweep's pool workers hold it
    wg_path = _outpath(ns, WGRAPH_FILE)
    wg = load_wgraph(wg_path, g) if ns.resume else None
    if wg is None:
        wg = build_wgraph(KLStore(g))
        save_wgraph(wg, wg_path)

    def handle(info: dict) -> None:
        nonlocal cum
        y = info["y"]
        cum = max(cum, info["max_coeff"])
        lines = {
            ERROR_LOG: failure_lines(info),
            VERBOSE_LOG: [f"{y}: maxcoeff = {info['max_coeff']} entries = {info['entries']}"
                          f" distinct = {info['distinct']}"],
            POSITIVITY_LOG: [f"{y}: maxcoeff = {cum}"],
        }
        # in this order: the error lines go before the verbose line, so a
        # kill can never leave the column done without them
        for name, text in lines.items():
            if text:
                with open(paths[name], "a") as fh:
                    fh.write("".join(line + "\n" for line in text))

    if ns.threads <= 1:
        for y in todo:
            handle(_column_info(wg, y))
    else:
        _run_pool(wg, todo, ns.threads, handle)

    # the end rewrite puts the lines of columns computed below done ones
    # in order; the verdict is what it read back
    kept = {name: _lines_by_y(paths[name], read) for name, read in SWEEP_FILES}
    max_coeff = _rewrite_sweep(paths, kept, g.matrix)
    failures = sum(len(kept[ERROR_LOG].get(y, ())) for y in kept[VERBOSE_LOG])
    report = CheckReport(
        "positivity",
        g.name,
        passed=failures == 0,
        counters={"columns": len(todo), "skipped": skipped, "max_coeff": max_coeff},
    )
    if failures:
        report.counterexamples.append(f"{failures} failures written to {paths[ERROR_LOG]}")
    _emit_report(ns, report)
    return 0 if report.passed else 1


def _run_pool(wg: WGraph, todo: list[int], threads: int, handle) -> None:
    """Ordered collector over a process pool: results are applied in
    ascending y regardless of completion order, so logs are deterministic.
    Each worker receives the W-graph once, through its initializer (under
    the fork start method, by inheritance), whatever the start method.
    At most ``4 * threads`` columns beyond the last one handled are
    submitted, so the workers never run far ahead of the logs.  When
    ``handle`` raises, the columns not yet started are cancelled rather
    than run to completion; when the sweep's process is killed, each
    worker ends itself within about a second."""
    queue: deque = deque()  # the futures of the columns not yet handled, in y order
    with ProcessPoolExecutor(
        max_workers=threads,
        initializer=_init_pool_worker,
        initargs=(wg, os.getpid()),
    ) as pool:
        try:
            for y in todo:
                if len(queue) == 4 * threads:
                    handle(queue.popleft().result())
                queue.append(pool.submit(_pool_column, y))
            while queue:
                handle(queue.popleft().result())
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _element_id(g: GroupTable, token: str) -> int:
    try:
        x = int(token)
    except ValueError:
        raise SystemExit(f"klbasis: element id must be an integer, got {token!r}")
    if not 0 <= x < g.size:
        raise SystemExit(f"klbasis: element id {x} outside 0..{g.size - 1}")
    return x


def cmd_cycltable(ns: argparse.Namespace) -> int:
    if len(ns.args) != 1:
        raise SystemExit("klbasis: cycltable needs exactly one element id: the fixed y")
    g = _load_group(ns)
    y = _element_id(g, ns.args[0])
    col = column(_wgraph(g, Path(ns.outdir) / WGRAPH_FILE), y)
    for x in range(g.size):
        row = col.row_polys(x)
        if row:
            print(f"{x}[{g.word_str(x)}]: " + format_combo(g, row.items()))
    return 0


def cmd_cprod(ns: argparse.Namespace) -> int:
    if len(ns.args) != 2:
        raise SystemExit("klbasis: cprod needs exactly two element ids: x and y")
    g = _load_group(ns)
    x = _element_id(g, ns.args[0])
    y = _element_id(g, ns.args[1])
    col = column(_wgraph(g, Path(ns.outdir) / WGRAPH_FILE), y)
    print(f"{x}[{g.word_str(x)}]: " + format_combo(g, col.row_polys(x).items()))
    return 0


def cmd_triangle(ns: argparse.Namespace) -> int:
    if len(ns.args) < 2:
        raise SystemExit("klbasis: triangle needs: m (or 'inf') and k [rows] [side]")
    try:
        m = None if ns.args[0] in ("inf", "infinite") else int(ns.args[0])
        k = int(ns.args[1])
        rows = int(ns.args[2]) if len(ns.args) > 2 else (m if m else 8)
        side = ns.args[3] if len(ns.args) > 3 else "same"
        table = triangle_table(m, k, side, rows)
    except ValueError as err:
        raise SystemExit(f"klbasis: {err}")
    print(format_triangle(table, k))
    return 0


COMMANDS = {
    "klplist": cmd_klplist,
    "decrklpol": cmd_decrklpol,
    "positivity": cmd_positivity,
    "cycltable": cmd_cycltable,
    "cprod": cmd_cprod,
    "triangle": cmd_triangle,
}


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="klbasis",
        description="Kazhdan-Lusztig basis computations and positivity checks",
    )
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("args", nargs="*", help="command arguments (ids, table sizes)")
    ap.add_argument("--group", "-g", help="group name, e.g. H3, B4, I2(7)")
    ap.add_argument("--matrix", help="file with rank then upper-triangle labels")
    ap.add_argument("--range", type=_parse_range, default=None, metavar="LO:HI",
                    help="inclusive range of y ids for positivity")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--resume", action="store_true",
                    help="skip y values already in positivity_verbose_log")
    ap.add_argument("--outdir", default=".")
    return ap


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    if ns.threads < 1:
        raise SystemExit(f"klbasis: --threads {ns.threads} is below 1")
    return COMMANDS[ns.command](ns)


if __name__ == "__main__":
    raise SystemExit(main())
