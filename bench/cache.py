"""Inputs the benchmark builds once per version of the klbasis sources.

* The W-graph of each group the ``h4-columns`` workload reads, as CSR
  arrays (offsets, z, mu) in an ``.npz``, built from
  ``build_wgraph(KLStore(g))`` and verified before it is kept.
* For ``resume-B5``: the logs of an uninterrupted ``--threads 1`` run of
  the whole range (the reference a resumed run must reproduce byte for
  byte), and the logs the CLI wrote for a prefix of the range, ending in
  a torn line (the state each resumed run starts from).

Every path carries a hash of the klbasis sources, so changed code builds
fresh inputs; those of other versions are left in place.  Run ``python3 bench/cache.py [--size toy]`` to build what
is missing; ``bench/run.py`` does so before its first workload.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"

sys.path.insert(0, str(BENCH))
import params  # noqa: E402


def sources_present() -> bool:
    return (SRC / "klbasis" / "__init__.py").is_file()


def source_digest() -> str:
    h = hashlib.sha256(params.CACHE_FORMAT.encode())
    for path in sorted((SRC / "klbasis").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def wgraph_path(group: str, digest: str) -> Path:
    return CACHE / f"wgraph-{group}-{digest}.npz"


def b5_dir(cfg: dict, digest: str) -> Path:
    lo, hi = cfg["range"]
    return CACHE / f"resume-{cfg['group']}-{lo}-{hi}-{cfg['prefix']}-{digest}"


def missing(size: str, digest: str) -> list[str]:
    cfgs = params.SIZES[size]
    out = []
    if not wgraph_path(cfgs["h4-columns"]["group"], digest).is_file():
        out.append("wgraph")
    if not (b5_dir(cfgs["resume-B5"], digest) / "done").is_file():
        out.append("resume")
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_klbasis():
    """Import the package from this checkout's src/, never an installed
    copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import klbasis

    if Path(klbasis.__file__).resolve().parent != (SRC / "klbasis").resolve():
        raise SystemExit(f"klbasis imported from {klbasis.__file__}, not from {SRC}")
    return klbasis


# -- W-graph as arrays -------------------------------------------------------


def wgraph_arrays(wg) -> dict:
    import numpy as np

    offsets = [0]
    zs: list[int] = []
    mus: list[int] = []
    for y in range(wg.size):
        for z, mu in wg.mu_in(y):
            zs.append(z)
            mus.append(mu)
        offsets.append(len(zs))
    return {
        "offsets": np.array(offsets, dtype=np.int64),
        "z": np.array(zs, dtype=np.int32),
        "mu": np.array(mus, dtype=np.int64),
    }


def load_wgraph(path: Path, g, digest: str):
    """The cached W-graph of ``g`` as a klbasis ``WGraph``."""
    import numpy as np

    from klbasis import WGraph

    with np.load(path) as data:
        if str(data["digest"]) != digest or str(data["group"]) != g.name:
            raise ValueError(f"{path} was built for other sources or another group")
        if data["matrix"].tolist() != [list(r) for r in g.matrix.entries]:
            raise ValueError(f"{path} was built for another Coxeter matrix")
        offsets = data["offsets"].tolist()
        zs = data["z"].tolist()
        mus = data["mu"].tolist()
    if len(offsets) != g.size + 1:
        raise ValueError(f"{path} has {len(offsets) - 1} columns, the group {g.size}")
    lists = tuple(
        tuple(zip(zs[offsets[y]:offsets[y + 1]], mus[offsets[y]:offsets[y + 1]]))
        for y in range(g.size)
    )
    return WGraph(g, lists)


def oracle_mu(g, y: int) -> tuple[tuple[int, int], ...]:
    """mu(x, y) for x < y read off the bar-solve oracle: the coefficient of
    t_x in c_y is v^(l(x)-l(y)) P_{x,y}(v^2), so mu is its v^-1 term."""
    from klbasis import c_in_t_basis_oracle

    combo = c_in_t_basis_oracle(g, y)
    return tuple(sorted((x, p.coeff(-1)) for x, p in combo.items() if x != y and p.coeff(-1)))


def verify_wgraph(g, built, loaded, seed: int, count: int, maxlen: int) -> list[str]:
    """Problems found in a freshly built and reloaded W-graph; empty when
    it may be used."""
    problems = []
    if loaded.edge_count() != built.edge_count():
        problems.append(f"edge count {loaded.edge_count()} after reload, {built.edge_count()} built")
    for y in range(g.size):
        if loaded.mu_in(y) != built.mu_in(y):
            problems.append(f"edges into y={y} differ after reload")
            break
    bad = [(z, y, mu) for z, y, mu in loaded.edges() if mu < 1]
    if bad:
        problems.append(f"{len(bad)} edges with mu < 1, first {bad[0]}")
    for y in range(g.size):
        covers = {int(x) for x in g.covers(y)}
        unit = {z for z, mu in loaded.mu_in(y) if g.lengths[z] == g.lengths[y] - 1}
        if covers != unit:
            problems.append(f"length-one edges into y={y} are not its Bruhat covers")
            break
    short = [y for y in range(1, g.size) if g.lengths[y] <= maxlen]
    for y in random.Random(seed).sample(short, min(count, len(short))):
        want = oracle_mu(g, y)
        if loaded.mu_in(y) != want:
            problems.append(f"mu-values into y={y} differ from the bar-solve oracle")
    return problems


def build_wgraph_cache(group: str, digest: str) -> None:
    import numpy as np

    klbasis = import_klbasis()
    t0 = time.perf_counter()
    g = klbasis.group_from_name(group)
    wg = klbasis.build_wgraph(klbasis.KLStore(g))
    t1 = time.perf_counter()
    arrays = wgraph_arrays(wg)
    path = wgraph_path(group, digest)
    tmp = path.with_name(path.name + ".tmp.npz")
    np.savez(tmp, group=np.array(group), digest=np.array(digest),
             matrix=np.array(g.matrix.entries, dtype=np.int64), **arrays)
    loaded = load_wgraph(tmp, g, digest)
    problems = verify_wgraph(g, wg, loaded, params.WGRAPH_VERIFY_SEED,
                             params.WGRAPH_VERIFY_COUNT, params.WGRAPH_VERIFY_MAXLEN)
    if problems:
        tmp.unlink()
        raise SystemExit(f"W-graph of {group} failed verification: " + "; ".join(problems))
    tmp.replace(path)
    print(f"W-graph of {group}: {wg.edge_count()} edges, built in {t1 - t0:.1f} s, "
          f"saved and verified in {time.perf_counter() - t1:.1f} s", file=sys.stderr)


# -- resume inputs -------------------------------------------------------------


def positivity_cmd(cfg: dict, outdir: Path, lo: int, hi: int, threads: int, resume: bool) -> list[str]:
    cmd = [sys.executable, "-m", "klbasis", "positivity", "--group", cfg["group"],
           "--range", f"{lo}:{hi}", "--threads", str(threads), "--outdir", str(outdir)]
    return cmd + ["--resume"] if resume else cmd


def start_resume_inputs(cfg: dict, digest: str) -> tuple[Path, list[subprocess.Popen]]:
    """Start the two CLI runs (reference and prefix); returns the
    directory and the running processes."""
    top = b5_dir(cfg, digest)
    shutil.rmtree(top, ignore_errors=True)
    lo, hi = cfg["range"]
    procs = []
    for name, last in (("reference", hi), ("prefix", cfg["prefix"] - 1)):
        out = top / name
        out.mkdir(parents=True)
        procs.append(subprocess.Popen(positivity_cmd(cfg, out, lo, last, 1, False), env=child_env(),
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE))
    return top, procs


def finish_resume_inputs(cfg: dict, top: Path, procs: list[subprocess.Popen]) -> None:
    for p in procs:
        _, err = p.communicate()
        if p.returncode != 0:
            raise SystemExit(f"{' '.join(p.args)} exited {p.returncode}: {err.decode()[-2000:]}")
    ref = (top / "reference" / "positivity_log").read_bytes()
    pre_path = top / "prefix" / "positivity_log"
    pre = pre_path.read_bytes()
    if not ref.startswith(pre) or pre.count(b"\n") != cfg["prefix"] - cfg["range"][0]:
        raise SystemExit("the prefix run's log is not a prefix of the uninterrupted run's log")
    with open(pre_path, "ab") as fh:
        fh.write(f"{cfg['prefix']}: maxcoeff = ".encode())  # torn: no value, no newline
    (top / "done").write_text("")


def ensure(size: str) -> None:
    """Build every missing input of the given size."""
    digest = source_digest()
    todo = missing(size, digest)
    if not todo:
        return
    CACHE.mkdir(parents=True, exist_ok=True)
    cfgs = params.SIZES[size]
    top, procs = None, []
    if "resume" in todo:
        top, procs = start_resume_inputs(cfgs["resume-B5"], digest)
    try:
        if "wgraph" in todo:
            build_wgraph_cache(cfgs["h4-columns"]["group"], digest)
    except BaseException:
        for p in procs:
            p.kill()
            p.wait()
        raise
    if procs:
        finish_resume_inputs(cfgs["resume-B5"], top, procs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=sorted(params.SIZES), default="full")
    args = ap.parse_args(argv)
    if not sources_present():
        print(f"no klbasis sources under {SRC}", file=sys.stderr)
        return 2
    ensure(args.size)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
