"""Benchmark entry point.  From the root of a checkout:

    python3 bench/run.py --workload h4-columns --seed 1 --seconds 25 --trace 0

Builds the cached inputs this version of the sources needs, if any are
missing (the first run in a fresh checkout takes a few minutes for that),
then runs the workload in a fresh process and prints, as the last line of
its output, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The traced run also writes its spans to
``bench/.work/trace-<workload>-<size>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import cache  # noqa: E402
import params  # noqa: E402

BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def run_group(cmd: list[str], timeout: float, **kw) -> subprocess.CompletedProcess:
    """Run cmd in a process group of its own; on timeout, kill the whole
    group, so no worker it started outlives this run."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="klbasis benchmark")
    ap.add_argument("--workload", required=True, choices=params.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(params.SIZES), default="full",
                    help="toy runs every workload on small groups, for the tests")
    a = ap.parse_args(argv)
    if not cache.sources_present():
        print(f"no klbasis sources under {cache.SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    todo = cache.missing(a.size, cache.source_digest())
    if todo:
        print(f"building cached inputs: {', '.join(todo)}", file=sys.stderr)
        built = run_group([sys.executable, str(BENCH / "cache.py"), "--size", a.size],
                          BUILD_TIMEOUT)
        if built.returncode != 0:
            print("building the cached inputs failed", file=sys.stderr)
            return 1

    cmd = [sys.executable, str(BENCH / "workloads.py"), a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--size", a.size]
    proc = run_group(cmd, RUN_TIMEOUT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"workload {a.workload} exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
