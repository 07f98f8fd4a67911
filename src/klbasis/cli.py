"""Command-line front end.

Commands: klplist (distinct KL polynomials), decrklpol (monotonicity for
fixed y), positivity (structure-constant sweep with checkpointed progress
log), cycltable / cprod (product tables), triangle (dihedral coefficient
tables).  The positivity run appends ``y: maxcoeff = N`` lines (cumulative
maximum) to positivity_log, per-column maxima to positivity_verbose_log,
and failures to error_log, each column's failures before its log lines.
A fresh run builds the W-graph from the P table and saves it as
wgraph.npz in the output directory; a resumed run loads that file (and
builds and saves the graph only when the file is missing, damaged or for
another group), skips the columns both logs carry, keeps only their
failures and continues the cumulative maximum from the log.  cycltable
and cprod also read the graph from that file when it is valid, and build
it from the P table otherwise.
With ``--store-budget`` each column's newly seen structure constants go to
an append-only sidecar, h_polynomials_by_column, before its log lines, so
a resumed run rebuilds the global list and writes the same h_polynomials
as an uninterrupted one.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

from .checks import (
    CheckReport,
    check_p2,
    column_summary,
    failure_lines,
)
from .coxeter import CoxeterMatrix, GroupTable, build_group, preset_matrix
from .dihedral import format_triangle, triangle_table
from .hecke import DESCENT_STRATEGIES, column, format_combo
from .klbase import KLStore, WGraph, build_wgraph, load_wgraph, save_wgraph

POSITIVITY_LOG = "positivity_log"
VERBOSE_LOG = "positivity_verbose_log"
ERROR_LOG = "error_log"
H_COLUMNS = "h_polynomials_by_column"
WGRAPH_FILE = "wgraph.npz"


@dataclass
class RunConfig:
    group: str | None = None
    matrix_file: str | None = None
    command: str = ""
    y_range: tuple[int, int] | None = None
    strategy: str = "fewest"
    threads: int = 1
    outdir: str = "."
    resume: bool = False
    store_budget: int = 0  # distinct h-polynomials kept for the global list; 0 disables
    args: list[str] = field(default_factory=list)

    def load_group(self) -> GroupTable:
        if self.matrix_file:
            text = Path(self.matrix_file).read_text()
            name = Path(self.matrix_file).stem
            return build_group(CoxeterMatrix.from_text(text), name)
        if not self.group:
            raise SystemExit("no group given: use --group NAME or --matrix FILE")
        matrix, name = preset_matrix(self.group)
        return build_group(matrix, name)

    def resolve_range(self, size: int) -> range:
        if self.y_range is None:
            return range(size)
        lo, hi = self.y_range
        if not (0 <= lo <= hi < size):
            raise SystemExit(f"--range {lo}:{hi} outside 0..{size - 1}")
        return range(lo, hi + 1)


def _outpath(cfg: RunConfig, name: str) -> Path:
    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _emit_report(cfg: RunConfig, report: CheckReport) -> None:
    print(report.to_text())
    with open(_outpath(cfg, "checks.jsonl"), "a") as fh:
        fh.write(report.to_json() + "\n")


def cmd_klplist(cfg: RunConfig) -> int:
    """Distinct KL polynomials, sorted by (degree, coefficients); re-checks
    non-negativity along the way."""
    g = cfg.load_group()
    store = KLStore(g)
    polys = store.distinct_polynomials()
    bad = [p for p in polys if any(c < 0 for c in p.coeffs)]
    path = _outpath(cfg, "klplist")
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


def cmd_decrklpol(cfg: RunConfig) -> int:
    g = cfg.load_group()
    report = check_p2(KLStore(g))
    _emit_report(cfg, report)
    return 0 if report.passed else 1


def _parse_log(path: Path) -> dict[int, tuple[int, str]]:
    """Complete 'y: maxcoeff = N ...' lines of an existing progress log,
    as {y: (N, line)}.  A torn trailing line is dropped."""
    out: dict[int, tuple[int, str]] = {}
    if path.exists():
        raw = path.read_bytes().decode()
        for line in raw.split("\n")[:-1]:
            try:
                ystr, rest = line.split(":", 1)
                n = int(rest.split("=", 1)[1].split()[0])
                out[int(ystr)] = (n, line)
            except (ValueError, IndexError):
                continue
    return out


def _complete_lines(path: Path) -> list[str]:
    """Complete lines of an existing file; a torn trailing line is
    dropped."""
    return path.read_bytes().decode().split("\n")[:-1] if path.exists() else []


def _error_y(line: str) -> int:
    """The y of an error line 'h(x,y,z) = ...'."""
    return int(line.split("(", 1)[1].split(",", 2)[1])


def _h_columns(path: Path) -> dict[int, str]:
    """Complete 'y: p1; p2; ...' lines of the structure-constant sidecar,
    as {y: line}.  A torn trailing line is dropped."""
    return {int(line.split(":", 1)[0]): line for line in _complete_lines(path)}


def _column_info(wg: WGraph, y: int, strategy: str, budget: int) -> dict:
    """Column y, scanned; with a budget, also its distinct polynomials."""
    col = column(wg, y, strategy)
    info = column_summary(col, with_unimodality=True)
    if budget:
        info["polys"] = sorted(str(col.store.poly(u)) for u in col.store)
    return info


# (wg, strategy, budget) inside a pool worker, set once by its initializer;
# never set in the parent process
_pool_job: tuple = ()


def _init_pool_worker(wg: WGraph, strategy: str, budget: int) -> None:
    global _pool_job
    _pool_job = (wg, strategy, budget)


def _pool_column(y: int) -> dict:
    wg, strategy, budget = _pool_job
    return _column_info(wg, y, strategy, budget)


def cmd_positivity(cfg: RunConfig) -> int:
    """Per-y structure-constant sweep with non-negativity and unimodality
    checks, an append-only progress log and kill-safe resume."""
    g = cfg.load_group()
    ys = cfg.resolve_range(g.size)

    log_path = _outpath(cfg, POSITIVITY_LOG)
    verbose_path = _outpath(cfg, VERBOSE_LOG)
    error_path = _outpath(cfg, ERROR_LOG)

    h_columns_path = _outpath(cfg, H_COLUMNS)
    budget = cfg.store_budget
    global_polys: set[str] = set()

    done: set[int] = set()
    cum = 0
    if cfg.resume:
        main_lines = _parse_log(log_path)
        verbose_lines = _parse_log(verbose_path)
        h_lines = _h_columns(h_columns_path)
        # a kill can land between the appends, so a column counts as done
        # only when both logs carry its line, and under a budget the
        # sidecar too; rewrite each file to exactly the surviving lines
        done = set(main_lines) & set(verbose_lines)
        if budget:
            done &= set(h_lines)
        log_path.write_text("".join(main_lines[y][1] + "\n" for y in sorted(done)))
        verbose_path.write_text(
            "".join(verbose_lines[y][1] + "\n" for y in sorted(done))
        )
        cum = max((main_lines[y][0] for y in done), default=0)
        # error lines of a column not done belong to a run it will redo
        error_path.write_text(
            "".join(line + "\n" for line in _complete_lines(error_path) if _error_y(line) in done)
        )
        kept = [h_lines[y] for y in sorted(done) if y in h_lines]
        h_columns_path.write_text("".join(line + "\n" for line in kept))
        for line in kept:
            global_polys.update(p for p in line.split(":", 1)[1].strip().split("; ") if p)
    else:
        log_path.write_text("")
        verbose_path.write_text("")
        error_path.write_text("")
        h_columns_path.write_text("")

    # the P table is needed only to extract the graph: drop it at once, so
    # neither this process nor the pool workers hold it during the sweep; a
    # resume loads the graph a fresh run saved, and rebuilds it only when
    # that file cannot be used
    wgraph_path = _outpath(cfg, WGRAPH_FILE)
    wg = load_wgraph(wgraph_path, g) if cfg.resume else None
    if wg is None:
        wg = build_wgraph(KLStore(g))
        save_wgraph(wg, wgraph_path)
    todo = [y for y in ys if y not in done]
    failures = 0

    def handle(info: dict) -> None:
        nonlocal cum, failures
        y = info["y"]
        cum = max(cum, info["max_coeff"])
        problems = failure_lines(info)
        # the sidecar and error lines go first: a column is done only once
        # both logs carry its line, so a kill can never leave it done
        # without them
        if budget:
            new = [p for p in info["polys"] if p not in global_polys]
            global_polys.update(new)
            with open(h_columns_path, "a") as fh:
                fh.write(f"{y}: " + "; ".join(new) + "\n")
        if problems:
            failures += len(problems)
            with open(error_path, "a") as fh:
                for line in problems:
                    fh.write(line + "\n")
        with open(log_path, "a") as fh:
            fh.write(f"{y}: maxcoeff = {cum}\n")
        with open(verbose_path, "a") as fh:
            fh.write(
                f"{y}: maxcoeff = {info['max_coeff']} entries = {info['entries']}"
                f" distinct = {info['distinct']}\n"
            )
        if budget and len(global_polys) > budget:
            raise SystemExit(
                f"distinct-polynomial store exceeded budget {budget}; "
                "rerun with a larger --store-budget or without it"
            )

    if cfg.threads <= 1:
        for y in todo:
            handle(_column_info(wg, y, cfg.strategy, budget))
    else:
        _run_pool(wg, todo, cfg, handle)

    if budget and global_polys:
        with open(_outpath(cfg, "h_polynomials"), "w") as fh:
            fh.write(f"group {g.name}: {len(global_polys)} distinct structure constants\n")
            for p in sorted(global_polys):
                fh.write(p + "\n")

    report = CheckReport(
        "positivity",
        g.name,
        passed=failures == 0,
        counters={"columns": len(todo), "skipped": len(done), "max_coeff": cum},
    )
    if failures:
        report.counterexamples.append(f"{failures} failures written to {error_path}")
    _emit_report(cfg, report)
    return 0 if failures == 0 and error_path.stat().st_size == 0 else 1


def _run_pool(wg: WGraph, todo: list[int], cfg: RunConfig, handle) -> None:
    """Ordered collector over a process pool: results are applied in
    ascending y regardless of completion order, so logs are deterministic.
    Each worker receives the W-graph once, through its initializer (under
    the fork start method, by inheritance), whatever the start method.
    At most ``4 * threads`` columns beyond the last one handled are
    submitted, so the workers never run far ahead of the logs.  When
    ``handle`` raises (a --store-budget abort, say), the columns not yet
    started are cancelled rather than run to completion."""
    window = 4 * cfg.threads
    pending: dict[int, dict] = {}
    futures: dict = {}
    next_i = submitted = 0
    with ProcessPoolExecutor(
        max_workers=cfg.threads,
        initializer=_init_pool_worker,
        initargs=(wg, cfg.strategy, cfg.store_budget),
    ) as pool:
        try:
            while next_i < len(todo):
                while submitted < min(len(todo), next_i + window):
                    futures[pool.submit(_pool_column, todo[submitted])] = todo[submitted]
                    submitted += 1
                finished, _ = wait(futures, return_when=FIRST_COMPLETED)
                for fut in finished:
                    pending[futures.pop(fut)] = fut.result()
                while next_i < len(todo) and todo[next_i] in pending:
                    handle(pending.pop(todo[next_i]))
                    next_i += 1
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _element_id(g: GroupTable, token: str) -> int:
    try:
        x = int(token)
    except ValueError:
        raise SystemExit(f"element id must be an integer, got {token!r}")
    if not 0 <= x < g.size:
        raise SystemExit(f"element id {x} outside 0..{g.size - 1}")
    return x


def _saved_or_built_wgraph(cfg: RunConfig, g: GroupTable) -> WGraph:
    """The W-graph a positivity run saved in the output directory, or,
    when that file cannot be used, one built from the P table."""
    wg = load_wgraph(Path(cfg.outdir) / WGRAPH_FILE, g)
    return build_wgraph(KLStore(g)) if wg is None else wg


def cmd_cycltable(cfg: RunConfig) -> int:
    if len(cfg.args) != 1:
        raise SystemExit("cycltable needs exactly one element id: the fixed y")
    g = cfg.load_group()
    y = _element_id(g, cfg.args[0])
    wg = _saved_or_built_wgraph(cfg, g)
    col = column(wg, y, cfg.strategy)
    for x in range(g.size):
        row = col.row_polys(x)
        if row:
            line = f"{x}[{g.word_str(x)}]: " + format_combo(g, row.items())
            print(line)
    return 0


def cmd_cprod(cfg: RunConfig) -> int:
    if len(cfg.args) != 2:
        raise SystemExit("cprod needs exactly two element ids: x and y")
    g = cfg.load_group()
    x = _element_id(g, cfg.args[0])
    y = _element_id(g, cfg.args[1])
    wg = _saved_or_built_wgraph(cfg, g)
    col = column(wg, y, cfg.strategy)
    print(f"{x}[{g.word_str(x)}]: " + format_combo(g, col.row_polys(x).items()))
    return 0


def cmd_triangle(cfg: RunConfig) -> int:
    if len(cfg.args) < 2:
        raise SystemExit("triangle needs: m (or 'inf') and k [rows] [side]")
    m = None if cfg.args[0] in ("inf", "infinite") else int(cfg.args[0])
    k = int(cfg.args[1])
    rows = int(cfg.args[2]) if len(cfg.args) > 2 else (m if m else 8)
    side = cfg.args[3] if len(cfg.args) > 3 else "same"
    print(format_triangle(triangle_table(m, k, side, rows), k))
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
    ap.add_argument("--strategy", choices=tuple(DESCENT_STRATEGIES), default="fewest",
                    help="left descent of each x that the column recursion uses")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--resume", action="store_true",
                    help="skip y values already in positivity_log")
    ap.add_argument("--outdir", default=".")
    ap.add_argument("--store-budget", type=int, default=0,
                    help="collect at most this many distinct structure constants")
    return ap


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    cfg = RunConfig(
        group=ns.group,
        matrix_file=ns.matrix,
        command=ns.command,
        y_range=ns.range,
        strategy=ns.strategy,
        threads=max(1, ns.threads),
        outdir=ns.outdir,
        resume=ns.resume,
        store_budget=ns.store_budget,
        args=ns.args,
    )
    return COMMANDS[ns.command](cfg)


if __name__ == "__main__":
    raise SystemExit(main())
