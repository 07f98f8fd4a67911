import functools
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import klbasis
from klbasis import cli, klbase
from klbasis.cli import main
from klbasis.coxeter import group_from_name
from klbasis.hecke import c_in_t_basis, tcombo_mult
from klbasis.klbase import KLStore, load_wgraph, save_wgraph
from klbasis.ring import LaurentPoly


def python_env() -> dict:
    """The environment of a fresh process that imports this checkout's
    klbasis."""
    env = dict(os.environ)
    src = str(Path(klbasis.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_python(*args):
    """``python *args`` in a fresh process that imports this checkout's
    klbasis, with its output captured as text."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=python_env(), timeout=300)


def run(args, tmp_path, extra=()):
    return main([*args, "--outdir", str(tmp_path), *extra])


class TestKlplist:
    def test_dihedral_single_entry(self, tmp_path):
        assert run(["klplist", "--group", "I2(6)"], tmp_path) == 0
        lines = (tmp_path / "klplist").read_text().splitlines()
        assert lines == ["group I2(6): 1 distinct polynomials", "1"]

    def test_a1(self, tmp_path):
        assert run(["klplist", "--group", "A1"], tmp_path) == 0
        lines = (tmp_path / "klplist").read_text().splitlines()
        assert lines == ["group A1: 1 distinct polynomials", "1"]

    def test_h3_sorted_and_nonnegative(self, tmp_path):
        assert run(["klplist", "--group", "H3"], tmp_path) == 0
        lines = (tmp_path / "klplist").read_text().splitlines()
        header, entries = lines[0], lines[1:]
        assert header.startswith("group H3:")
        assert int(header.split(":")[1].split()[0]) == len(entries)
        assert "-" not in "".join(entries)
        assert entries[0] == "1"


class TestDecrklpol:
    def test_b3(self, tmp_path, capsys):
        assert run(["decrklpol", "--group", "B3"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "check=p2 group=B3 pass=True" in out
        assert (tmp_path / "checks.jsonl").exists()


def brute_force_max_coeff(name):
    """Independent route to the global max coefficient: extract every
    h_{x,y,z} by triangular elimination of t-basis products."""
    g = group_from_name(name)
    store = KLStore(g)
    cts = {y: c_in_t_basis(store, y) for y in range(g.size)}
    by_length = sorted(range(g.size), key=lambda z: -g.lengths[z])
    best = 0
    for x in range(g.size):
        for y in range(g.size):
            prod = tcombo_mult(g, cts[x], cts[y])
            while prod:
                z = max(prod, key=lambda w: (g.lengths[w], w))
                h = prod[z]
                best = max(best, h.max_abs_coeff())
                for w, p in cts[z].items():
                    q = prod.get(w, LaurentPoly.zero()) - p * h
                    if q:
                        prod[w] = q
                    else:
                        prod.pop(w, None)
    return best


class TestPositivity:
    def test_a2_full_run_log(self, tmp_path, capsys):
        expected_max = brute_force_max_coeff("A2")
        assert run(["positivity", "--group", "A2"], tmp_path) == 0
        log = (tmp_path / "positivity_log").read_text().splitlines()
        assert log[-1] == f"5: maxcoeff = {expected_max}"
        assert len(log) == 6
        ys = [int(line.split(":")[0]) for line in log]
        assert ys == sorted(ys)
        assert (tmp_path / "error_log").read_bytes() == b""

    def test_range_and_cumulative(self, tmp_path):
        assert run(["positivity", "--group", "B2", "--range", "2:5"], tmp_path) == 0
        log = (tmp_path / "positivity_log").read_text().splitlines()
        assert [int(l.split(":")[0]) for l in log] == [2, 3, 4, 5]
        maxes = [int(l.split("=")[1]) for l in log]
        assert maxes == sorted(maxes)

    def test_threads_deterministic(self, tmp_path):
        a = tmp_path / "one"
        b = tmp_path / "two"
        assert main(["positivity", "--group", "B2", "--outdir", str(a)]) == 0
        assert main(
            ["positivity", "--group", "B2", "--outdir", str(b), "--threads", "2"]
        ) == 0
        assert (a / "positivity_log").read_bytes() == (b / "positivity_log").read_bytes()
        assert (
            a / "positivity_verbose_log"
        ).read_bytes() == (b / "positivity_verbose_log").read_bytes()

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_threads_deterministic_any_start_method(self, tmp_path, method):
        serial = tmp_path / "serial"
        pool = tmp_path / "pool"
        assert main(["positivity", "--group", "B2", "--outdir", str(serial)]) == 0
        code = (
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "from klbasis.cli import main\n"
            "sys.exit(main(sys.argv[2:]))\n"
        )
        proc = run_python("-c", code, method, "positivity", "--group", "B2",
                          "--threads", "2", "--outdir", str(pool))
        assert proc.returncode == 0, proc.stderr
        for name in ("positivity_log", "positivity_verbose_log", "error_log"):
            assert (serial / name).read_bytes() == (pool / name).read_bytes(), name

    def test_pool_window(self, tmp_path, monkeypatch):
        """The pool runs at most 4 * threads columns beyond the last one
        logged: each is submitted only once the log is that close."""
        ahead = []

        class Recording(cli.ProcessPoolExecutor):
            def submit(self, fn, y):
                ahead.append(y - len(cli._complete_lines(tmp_path / cli.POSITIVITY_LOG)))
                return super().submit(fn, y)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
        assert run(["positivity", "--group", "B3", "--threads", "2"], tmp_path) == 0
        assert len(ahead) == 48
        assert max(ahead) == 4 * 2 - 1

    @pytest.mark.parametrize("torn, columns",
                             [("positivity_verbose_log", 8), ("positivity_log", 0)],
                             ids=["verbose log torn", "positivity_log torn alone"])
    def test_resume_after_partial_log(self, tmp_path, torn, columns):
        """The columns cut from the verbose log, the record, are computed
        again; a cut positivity_log alone costs no column and is
        regenerated from the verbose log."""
        full = tmp_path / "full"
        cut = tmp_path / "cut"
        assert main(["positivity", "--group", "I2(6)", "--outdir", str(full)]) == 0
        assert main(["positivity", "--group", "I2(6)", "--outdir", str(cut)]) == 0
        log = cut / torn
        lines = log.read_text().splitlines(keepends=True)
        log.write_text("".join(lines[:4]) + "7: maxco")  # torn final line
        assert main(
            ["positivity", "--group", "I2(6)", "--outdir", str(cut), "--resume"]
        ) == 0
        report = json.loads((cut / "checks.jsonl").read_text().splitlines()[-1])
        assert report["counters"]["columns"] == columns
        for name in LOGS:
            assert (cut / name).read_bytes() == (full / name).read_bytes(), name


LOGS = (cli.POSITIVITY_LOG, cli.VERBOSE_LOG, cli.ERROR_LOG)
FAIL_Y = 3  # the B2 column the patched scan reports as failing


def live_processes() -> dict[int, int]:
    """pid -> parent pid of every process that is not a zombie, from
    /proc."""
    out = {}
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except OSError:  # gone while listed
            continue
        if stat:
            # the fields after the command name, which may hold spaces
            state, ppid = stat.rsplit(")", 1)[1].split()[:2]
            if state != "Z":
                out[int(entry.name)] = int(ppid)
    return out


def descendants(pid: int) -> set[int]:
    """The live processes below process pid: its pool's workers, and the
    fork server or resource tracker of the start method, if any."""
    parents = live_processes()
    out, todo = set(), [pid]
    while todo:
        parent = todo.pop()
        children = [child for child, ppid in parents.items() if ppid == parent]
        out.update(children)
        todo.extend(children)
    return out


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads processes from /proc")
class TestKilledSweep:
    """A signal to the sweep's process alone, not to its process group,
    leaves none of its workers behind, under any start method; and a
    resume after such kills gives the files of an uninterrupted sweep."""

    # a B3 sweep on two workers whose collector takes 0.1 s a column, so
    # that a kill lands in the middle of it
    SWEEP = (
        "import multiprocessing, sys, time\n"
        "multiprocessing.set_start_method(sys.argv[1])\n"
        "from klbasis import cli\n"
        "lines = cli.failure_lines\n"
        "def slow(info):\n"
        "    time.sleep(0.1)\n"
        "    return lines(info)\n"
        "cli.failure_lines = slow\n"
        "sys.exit(cli.main(sys.argv[2:]))\n"
    )

    def cut(self, out: Path, method: str, sig: int, after: int) -> None:
        """Run the slowed sweep into out, resuming, and send sig to its
        process once positivity_log has more than ``after`` lines; then
        every process below it must be gone within a few seconds."""
        log = out / cli.POSITIVITY_LOG
        proc = subprocess.Popen(
            [sys.executable, "-c", self.SWEEP, method, "positivity", "--group", "B3",
             "--threads", "2", "--outdir", str(out), "--resume"],
            env=python_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while len(cli._complete_lines(log)) <= after:
                assert proc.poll() is None and time.monotonic() < deadline, "no cut"
                time.sleep(0.05)
            below = descendants(proc.pid)
            assert len(below) >= 2
            proc.send_signal(sig)
            assert proc.wait(timeout=60) == -sig
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        deadline = time.monotonic() + 10
        while below & live_processes().keys():
            assert time.monotonic() < deadline, f"left alive: {below & live_processes().keys()}"
            time.sleep(0.1)
        assert len(cli._complete_lines(log)) < 48

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_no_worker_outlives_its_sweep(self, tmp_path, method):
        reference = tmp_path / "reference"
        cut = tmp_path / "cut"
        assert main(["positivity", "--group", "B3", "--outdir", str(reference)]) == 0
        self.cut(cut, method, signal.SIGTERM, 5)
        self.cut(cut, method, signal.SIGKILL, len(cli._complete_lines(cut / cli.POSITIVITY_LOG)) + 5)
        assert main(["positivity", "--group", "B3", "--outdir", str(cut), "--resume"]) == 0
        for name in (*LOGS, cli.MATRIX_FILE, cli.WGRAPH_FILE):
            assert (cut / name).read_bytes() == (reference / name).read_bytes(), name


class SimulatedKill(BaseException):
    """Stands in for a SIGKILL between two log writes."""


@pytest.fixture
def failing_scan(monkeypatch):
    """The column scan, reporting one negative entry in column FAIL_Y."""
    scan = cli.column_summary

    def failing(col, with_unimodality=True):
        info = scan(col, with_unimodality=with_unimodality)
        if col.y == FAIL_Y:
            info["bad_negative"] = [(0, col.y, "-v")]
        return info

    monkeypatch.setattr(cli, "column_summary", failing)


class TestFailingSweep:
    ERROR = f"h(0,{FAIL_Y},{FAIL_Y}) = -v has a negative coefficient\n"

    def test_serial(self, tmp_path, failing_scan):
        assert run(["positivity", "--group", "B2"], tmp_path) == 1
        assert (tmp_path / cli.ERROR_LOG).read_text() == self.ERROR

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched scan reaches pool workers only by fork",
    )
    def test_threads(self, tmp_path, failing_scan, monkeypatch):
        fork_pool(monkeypatch)
        serial = tmp_path / "serial"
        pool = tmp_path / "pool"
        assert main(["positivity", "--group", "B2", "--outdir", str(serial)]) == 1
        assert main(
            ["positivity", "--group", "B2", "--outdir", str(pool), "--threads", "2"]
        ) == 1
        assert (pool / cli.ERROR_LOG).read_text() == self.ERROR
        for name in LOGS:
            assert (serial / name).read_bytes() == (pool / name).read_bytes(), name

    @pytest.mark.parametrize("writes", [1, 2, 3])
    def test_resume_after_kill_between_writes(self, tmp_path, failing_scan, monkeypatch, capsys,
                                              writes):
        """Killed after the first, second or third of the failing column's
        three log appends, whatever their order, a resumed run still fails
        and ends with the logs of an uninterrupted run.  Its report fails
        too, on screen and in checks.jsonl, even when the failing column
        was done before it (three writes) and the run adds no failure."""
        reference = tmp_path / "reference"
        cut = tmp_path / "cut"
        assert main(["positivity", "--group", "B2", "--outdir", str(reference)]) == 1
        appends = 0

        def killing_open(path, mode="r", *args, **kwargs):
            nonlocal appends
            if "a" in mode and Path(path).name in LOGS:
                # each passing column before FAIL_Y appends twice
                if appends == 2 * FAIL_Y + writes:
                    raise SimulatedKill
                appends += 1
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", killing_open, raising=False)
        with pytest.raises(SimulatedKill):
            main(["positivity", "--group", "B2", "--outdir", str(cut)])
        monkeypatch.delattr(cli, "open")
        capsys.readouterr()
        assert main(["positivity", "--group", "B2", "--outdir", str(cut), "--resume"]) == 1
        assert capsys.readouterr().out.startswith("check=positivity group=B2 pass=False ")
        report = json.loads((cut / "checks.jsonl").read_text().splitlines()[-1])
        assert report["pass"] is False
        assert report["counterexamples"] == [f"1 failures written to {cut / cli.ERROR_LOG}"]
        assert (cut / cli.ERROR_LOG).read_text() == self.ERROR
        for name in LOGS:
            assert (cut / name).read_bytes() == (reference / name).read_bytes(), name

    @pytest.mark.parametrize("name", [*LOGS, cli.MATRIX_FILE])
    def test_resume_after_kill_during_rewrite(self, tmp_path, failing_scan, monkeypatch, name):
        """Killed halfway through writing one of the files a resume
        rewrites, a further resume still fails and ends with the logs of
        an uninterrupted run."""
        reference = tmp_path / "reference"
        cut = tmp_path / "cut"
        assert main(["positivity", "--group", "B2", "--outdir", str(reference)]) == 1
        assert main(["positivity", "--group", "B2", "--outdir", str(cut)]) == 1
        with monkeypatch.context() as patch, pytest.raises(SimulatedKill):
            kill_at_write(patch, name, 1)
            main(["positivity", "--group", "B2", "--outdir", str(cut), "--resume"])
        assert main(["positivity", "--group", "B2", "--outdir", str(cut), "--resume"]) == 1
        for log in LOGS:
            assert (cut / log).read_bytes() == (reference / log).read_bytes(), log

    @pytest.mark.parametrize("name", [*LOGS, cli.MATRIX_FILE])
    def test_resume_after_kill_during_end_rewrite(self, tmp_path, failing_scan, monkeypatch,
                                                  name):
        """A slice below done columns, killed halfway through writing one of
        the files its end rewrite puts back in y order, leaves files that a
        further resume ends with the files of an uninterrupted run."""
        reference = tmp_path / "reference"
        cut = tmp_path / "cut"
        assert main(["positivity", "--group", "B2", "--outdir", str(reference)]) == 1
        assert main(["positivity", "--group", "B2", "--range", "4:7", "--outdir", str(cut)]) == 0
        with monkeypatch.context() as patch, pytest.raises(SimulatedKill):
            kill_at_write(patch, name, 2)  # the end rewrite's write, after the start's
            main(["positivity", "--group", "B2", "--range", "0:3", "--outdir", str(cut),
                  "--resume"])
        assert main(["positivity", "--group", "B2", "--outdir", str(cut), "--resume"]) == 1
        for log in (*LOGS, cli.MATRIX_FILE, cli.WGRAPH_FILE):
            assert (cut / log).read_bytes() == (reference / log).read_bytes(), log


def kill_at_write(monkeypatch, name, nth):
    """Make the nth write_text (counted from 1) to a file whose name starts
    with name write half its text, then raise SimulatedKill."""
    write_text = Path.write_text
    writes = 0

    def killed(path, data, *args, **kwargs):
        nonlocal writes
        if path.name.startswith(name):
            writes += 1
            if writes == nth:
                write_text(path, data[: len(data) // 2], *args, **kwargs)
                raise SimulatedKill
        return write_text(path, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", killed)


def fork_pool(monkeypatch):
    """Pin the sweep's pool to the fork start method, which carries a
    monkeypatched cli module over to the workers."""
    monkeypatch.setattr(
        cli, "ProcessPoolExecutor",
        functools.partial(cli.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")),
    )


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched column job reaches pool workers only by fork",
)


# the list and the per-column sidecar that the removed --store-budget
# option wrote, as an older run may have left them; the sidecar ends in a
# line torn by a kill
STALE_BUDGET_FILES = {
    "h_polynomials": "group B3: 3 distinct structure constants\n1\nv^-1 + v\nv^-2 + 2 + v^2\n",
    "h_polynomials_by_column": "0: 1\n2: v^-1 + v\n1: \n3: v^-2 + 2 + v^2\n4: v^-",
}


def kill_at_append(monkeypatch, appends):
    """Make the sweep's ``appends``-th append (counted from 0) raise
    SimulatedKill before it writes."""
    count = 0

    def killing_open(path, mode="r", *args, **kwargs):
        nonlocal count
        if "a" in mode:
            if count == appends:
                raise SimulatedKill
            count += 1
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", killing_open, raising=False)


class TestAppendOrder:
    """Each column appends to error_log, then positivity_verbose_log, then
    positivity_log, and is done when the verbose log carries it: a resume
    from logs that a kill or a tear cut anywhere ends with the files of an
    uninterrupted run."""

    @staticmethod
    def sweep(outdir, *extra):
        return main(["positivity", "--group", "B3", "--range", "0:45",
                     "--outdir", str(outdir), *extra])

    @staticmethod
    def assert_same(got, want):
        for name in LOGS:
            assert (got / name).read_bytes() == (want / name).read_bytes(), name

    def test_resume_from_torn_logs(self, tmp_path):
        reference, cut = tmp_path / "reference", tmp_path / "cut"
        assert self.sweep(reference) == 0
        assert self.sweep(cut) == 0
        for name, keep in ((cli.POSITIVITY_LOG, 40), (cli.VERBOSE_LOG, 38)):
            lines = (cut / name).read_text().splitlines(keepends=True)
            (cut / name).write_text("".join(lines[:keep]) + lines[keep][:5])
        assert self.sweep(cut, "--resume") == 0
        self.assert_same(cut, reference)

    @pytest.mark.parametrize("appends", [1, 30, 31, 46, 47, 90, 91])
    def test_resume_after_kill(self, tmp_path, monkeypatch, appends):
        """Killed after any of the sweep's appends (two per column, one to
        each log: the first, after a whole column or between a column's
        two lines, in the middle and at the end), a resumed run ends with
        the files of an uninterrupted one."""
        reference, cut = tmp_path / "reference", tmp_path / "cut"
        assert self.sweep(reference) == 0
        kill_at_append(monkeypatch, appends)
        with pytest.raises(SimulatedKill):
            self.sweep(cut)
        monkeypatch.delattr(cli, "open")
        assert self.sweep(cut, "--resume") == 0
        self.assert_same(cut, reference)

    @pytest.mark.parametrize("threads", ["1", "2"], ids=["serial", "2 threads"])
    def test_out_of_order_slices_cut_by_kills(self, tmp_path, monkeypatch, threads):
        """B4 in three slices out of order: 300:383 killed between two
        columns, then 0:99 killed between a column's verbose line and its
        positivity_log line, then the rest; the files end as those of an
        uninterrupted run."""
        reference, cut = tmp_path / "reference", tmp_path / "cut"
        sweep = ["positivity", "--group", "B4", "--threads", threads]
        assert main([*sweep, "--outdir", str(reference)]) == 0
        for extra, appends in ((["--range", "300:383"], 40),
                               (["--range", "0:99", "--resume"], 61)):
            kill_at_append(monkeypatch, appends)
            with pytest.raises(SimulatedKill):
                main([*sweep, "--outdir", str(cut), *extra])
            monkeypatch.delattr(cli, "open")
        assert len(cli._complete_lines(cut / cli.VERBOSE_LOG)) == 20 + 31
        assert len(cli._complete_lines(cut / cli.POSITIVITY_LOG)) == 20 + 30
        assert main([*sweep, "--outdir", str(cut), "--resume"]) == 0
        for name in (*LOGS, cli.MATRIX_FILE, cli.WGRAPH_FILE):
            assert (cut / name).read_bytes() == (reference / name).read_bytes(), name

    def test_resume_leaves_stale_sidecar_files_as_they_are(self, tmp_path):
        """Files that an older version's --store-budget left in the
        directory are neither read nor removed: a resume beside them ends
        with the logs of an uninterrupted run, and leaves them byte for
        byte as they were."""
        reference, cut = tmp_path / "reference", tmp_path / "cut"
        assert self.sweep(reference) == 0
        assert main(["positivity", "--group", "B3", "--range", "0:20", "--outdir", str(cut)]) == 0
        for name, text in STALE_BUDGET_FILES.items():
            (cut / name).write_text(text)
        assert self.sweep(cut, "--resume") == 0
        self.assert_same(cut, reference)
        for name, text in STALE_BUDGET_FILES.items():
            assert (cut / name).read_text() == text, name

    @needs_fork
    def test_pool_abort_cancels_queued_columns(self, tmp_path, monkeypatch):
        """A collector that raises under --threads 2 (here a kill after 41
        appends, between column 20's two log lines) runs no more than
        the columns already started, and leaves logs a resume completes to
        those of an uninterrupted run."""
        fork_pool(monkeypatch)
        reference, serial, cut = tmp_path / "reference", tmp_path / "serial", tmp_path / "cut"
        ran = tmp_path / "ran"
        job = cli._column_info

        def recording(wg, y):
            with open(ran, "a") as fh:
                fh.write(f"{y}\n")
            return job(wg, y)

        sweep = ["positivity", "--group", "B4", "--range", "0:127"]
        assert main([*sweep, "--outdir", str(reference)]) == 0
        kill_at_append(monkeypatch, 41)
        with pytest.raises(SimulatedKill):
            main([*sweep, "--outdir", str(serial)])
        kill_at_append(monkeypatch, 41)
        monkeypatch.setattr(cli, "_column_info", recording)
        with pytest.raises(SimulatedKill):
            main([*sweep, "--outdir", str(cut), "--threads", "2"])
        for name in LOGS:
            assert (cut / name).read_bytes() == (serial / name).read_bytes(), name
        logged = len((cut / cli.POSITIVITY_LOG).read_text().splitlines())
        # the logged columns, and at most those the two workers had started
        # or queued when the abort came: far from all 128
        assert logged < 128 // 4
        assert len(ran.read_text().splitlines()) < logged + 10
        monkeypatch.delattr(cli, "open")
        monkeypatch.setattr(cli, "_column_info", job)
        assert main([*sweep, "--outdir", str(cut), "--threads", "2", "--resume"]) == 0
        for name in LOGS:
            assert (cut / name).read_bytes() == (reference / name).read_bytes(), name


class TestWGraphFile:
    """A fresh sweep saves its W-graph as wgraph.npz; a resume loads it, and
    rebuilds and saves it only when the file cannot be used."""

    SWEEP = ["positivity", "--group", "B3"]

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("reference")
        assert main([*self.SWEEP, "--outdir", str(out)]) == 0
        return out

    def cut(self, tmp_path):
        """Logs and W-graph file of a sweep of columns 0..20 only."""
        cut = tmp_path / "cut"
        assert main([*self.SWEEP, "--range", "0:20", "--outdir", str(cut)]) == 0
        return cut

    @staticmethod
    def assert_logs(got, want):
        for name in LOGS:
            assert (got / name).read_bytes() == (want / name).read_bytes(), name

    @staticmethod
    def counting_store(monkeypatch):
        built = []

        def store(g):
            built.append(g.name)
            return KLStore(g)

        monkeypatch.setattr(cli, "KLStore", store)
        return built

    def test_fresh_run_saves_the_built_graph(self, reference, wgraphs):
        wg = load_wgraph(reference / cli.WGRAPH_FILE, wgraphs("B3").g)
        assert wg.mu_lists == wgraphs("B3").mu_lists

    def test_fresh_run_builds_even_with_a_file(self, tmp_path, monkeypatch):
        cut = self.cut(tmp_path)
        built = self.counting_store(monkeypatch)
        assert main([*self.SWEEP, "--range", "0:20", "--outdir", str(cut)]) == 0
        assert built == ["B3"]

    def test_resume_never_builds_the_p_table(self, tmp_path, reference, monkeypatch):
        cut = self.cut(tmp_path)

        def no_store(g):
            raise AssertionError("a resume from a valid wgraph.npz built the P table")

        monkeypatch.setattr(cli, "KLStore", no_store)
        assert main([*self.SWEEP, "--outdir", str(cut), "--resume"]) == 0
        self.assert_logs(cut, reference)

    @staticmethod
    def damage(path, how):
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        if how == "truncated":
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            return
        if how == "missing array":
            del arrays["offsets"]
        elif how == "flipped byte in z":
            arrays["z"] = arrays["z"].copy()
            arrays["z"].view(np.uint8)[5] ^= 1
        else:
            if how == "wrong matrix":
                arrays["matrix"] = np.array(group_from_name("A3").matrix.entries)
            else:
                arrays["version"] = arrays["version"] + 1
            arrays["sha256"] = np.array(klbase._wgraph_digest(arrays))
        np.savez(path, **arrays)

    @pytest.mark.parametrize(
        "how", ["wrong matrix", "wrong version", "flipped byte in z", "truncated", "missing array"]
    )
    def test_damaged_file_is_rebuilt(self, tmp_path, reference, monkeypatch, how):
        cut = self.cut(tmp_path)
        path = cut / cli.WGRAPH_FILE
        self.damage(path, how)
        g = group_from_name("B3")
        assert load_wgraph(path, g) is None
        built = self.counting_store(monkeypatch)
        assert main([*self.SWEEP, "--outdir", str(cut), "--resume"]) == 0
        assert built == ["B3"]
        self.assert_logs(cut, reference)
        assert path.read_bytes() == (reference / cli.WGRAPH_FILE).read_bytes()

    NO_RECORD = "coxeter_matrix is missing, unreadable or records another Coxeter matrix"

    @staticmethod
    def assert_refused(out, group, message, *args):
        """A resume of group in out, with any further args, ends in one
        klbasis line that names message, and leaves every file there as it
        was."""
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        with pytest.raises(SystemExit) as exit_:
            main(["positivity", "--group", group, "--outdir", str(out), "--resume", *args])
        text = str(exit_.value.code)
        assert text.startswith(f"klbasis: cannot resume {group} in ") and "\n" not in text
        assert message in text
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize(
        "first, then, graph",
        [("H3", "B3", True), ("H3", "B3", False), ("B3", "H3", True), ("B3", "H3", False)],
        ids=["H3 to B3", "H3 to B3 without its graph", "B3 to H3", "B3 to H3 without its graph"],
    )
    def test_resume_into_another_groups_sweep_is_refused(self, tmp_path, first, then, graph):
        """A resume into the outdir of another group's sweep is refused,
        with or without that sweep's W-graph."""
        out = tmp_path / "out"
        assert main(["positivity", "--group", first, "--outdir", str(out)]) == 0
        if not graph:
            (out / cli.WGRAPH_FILE).unlink()
        self.assert_refused(out, then, self.NO_RECORD)

    @pytest.mark.parametrize("how", ["missing", "unreadable"])
    def test_resume_without_a_record_is_refused(self, tmp_path, how):
        """Lines beside no readable record of the group are refused too, as
        in a directory written before sweeps recorded their group."""
        cut = self.cut(tmp_path)
        record = cut / cli.MATRIX_FILE
        if how == "missing":
            record.unlink()
        else:
            record.write_text("3\n3 two\n4\n")
        self.assert_refused(cut, "B3", self.NO_RECORD)

    def test_resume_of_a_column_outside_the_group_is_refused(self, tmp_path):
        cut = self.cut(tmp_path)
        with open(cut / cli.VERBOSE_LOG, "a") as fh:
            fh.write("48: maxcoeff = 1 entries = 1 distinct = 1\n")
        self.assert_refused(cut, "B3", "positivity_verbose_log names column 48, outside 0..47")

    @pytest.mark.parametrize("threads", ["1", "2"], ids=["serial", "2 threads"])
    def test_slices_in_any_order(self, tmp_path, threads):
        """Slices may run in any order: on H3, a sweep of 60:119, then 0:59
        resumed, ends with the files of a fresh sweep, its positivity_log
        regenerated as the running maximum from column 0."""
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert main(["positivity", "--group", "H3", "--outdir", str(fresh)]) == 0
        sweep = ["positivity", "--group", "H3", "--threads", threads, "--outdir", str(out)]
        assert main([*sweep, "--range", "60:119"]) == 0
        assert main([*sweep, "--range", "0:59", "--resume"]) == 0
        for name in (*LOGS, cli.MATRIX_FILE, cli.WGRAPH_FILE):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
        assert (out / cli.POSITIVITY_LOG).read_text().splitlines()[-1] == "119: maxcoeff = 74"

    def test_resume_by_matrix_file_of_a_preset_sweep(self, tmp_path):
        """The record is compared as a matrix, not a name: a --group H3 sweep
        cut short resumes with --matrix and H3's text, to the logs of a
        whole run."""
        full, cut = tmp_path / "full", tmp_path / "cut"
        assert main(["positivity", "--group", "H3", "--outdir", str(full)]) == 0
        assert main(["positivity", "--group", "H3", "--range", "0:40", "--outdir", str(cut)]) == 0
        (tmp_path / "h3.txt").write_text("3\n5 2\n3\n")
        assert main(["positivity", "--matrix", str(tmp_path / "h3.txt"), "--outdir", str(cut),
                     "--resume"]) == 0
        for name in (*LOGS, cli.MATRIX_FILE, cli.WGRAPH_FILE):
            assert (cut / name).read_bytes() == (full / name).read_bytes(), name

    def test_kill_at_the_record_rename(self, tmp_path, reference, monkeypatch):
        """A fresh B3 run into an H3 sweep's outdir, killed as it renames
        its record into place, has already emptied the sweep files, so a B3
        resume there completes with the files of a whole B3 run."""
        out = tmp_path / "out"
        assert main(["positivity", "--group", "H3", "--outdir", str(out)]) == 0
        replace = cli.os.replace

        def killed(src, dst):
            if Path(dst).name == cli.MATRIX_FILE:
                raise SimulatedKill
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", killed)
        with pytest.raises(SimulatedKill):
            main([*self.SWEEP, "--outdir", str(out)])
        monkeypatch.setattr(cli.os, "replace", replace)
        assert main([*self.SWEEP, "--outdir", str(out), "--resume"]) == 0
        for name in (*LOGS, cli.MATRIX_FILE, cli.WGRAPH_FILE):
            assert (out / name).read_bytes() == (reference / name).read_bytes(), name

    def test_resume_without_a_file_builds_and_saves_it(self, tmp_path, reference, monkeypatch):
        cut = self.cut(tmp_path)
        (cut / cli.WGRAPH_FILE).unlink()
        built = self.counting_store(monkeypatch)
        assert main([*self.SWEEP, "--outdir", str(cut), "--resume"]) == 0
        assert built == ["B3"]
        self.assert_logs(cut, reference)
        assert load_wgraph(cut / cli.WGRAPH_FILE, group_from_name("B3")) is not None

    def test_kill_during_write(self, tmp_path, reference, monkeypatch):
        """Killed while the file is written, a fresh run leaves no file at
        the final path, and a resume builds it and completes the sweep."""
        cut = tmp_path / "cut"
        replace = klbase.os.replace

        def killed(src, dst):
            raise SimulatedKill

        monkeypatch.setattr(klbase.os, "replace", killed)
        with pytest.raises(SimulatedKill):
            main([*self.SWEEP, "--range", "0:20", "--outdir", str(cut)])
        monkeypatch.setattr(klbase.os, "replace", replace)
        assert not (cut / cli.WGRAPH_FILE).exists()
        assert not list(cut.glob("wgraph*"))
        # a kill that skips the clean-up leaves the temporary file behind
        (cut / (cli.WGRAPH_FILE + ".tmp")).write_bytes(b"PK\x03\x04torn")
        assert main([*self.SWEEP, "--outdir", str(cut), "--resume"]) == 0
        self.assert_logs(cut, reference)
        assert sorted(p.name for p in cut.glob("wgraph*")) == [cli.WGRAPH_FILE]

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_resume_threads_any_start_method(self, tmp_path, reference, method):
        """--resume --threads 2 from a saved file gives the serial logs
        under every start method, and builds no P table."""
        cut = self.cut(tmp_path)
        code = (
            "import multiprocessing, sys\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "from klbasis import cli\n"
            "def no_store(g):\n"
            "    raise AssertionError('the resume built the P table')\n"
            "cli.KLStore = no_store\n"
            "sys.exit(cli.main(sys.argv[2:]))\n"
        )
        proc = run_python("-c", code, method, *self.SWEEP, "--threads", "2",
                          "--outdir", str(cut), "--resume")
        assert proc.returncode == 0, proc.stderr
        self.assert_logs(cut, reference)


class TestFreshRun:
    """A run without --resume counts no column as done, whatever another
    run left in its directory."""

    def sweeps(self, tmp_path, stale=False):
        """The A3 sweep, its files in an empty directory, and a directory
        holding a B3 run's files: logs of another range and a W-graph of
        another group, with an error line for a column of the range; with
        stale, also the files an older version's --store-budget wrote."""
        sweep = ["positivity", "--group", "A3", "--range", "5:17"]
        empty, used = tmp_path / "empty", tmp_path / "used"
        assert main([*sweep, "--outdir", str(empty)]) == 0
        other = ["positivity", "--group", "B3", "--range", "0:30"]
        assert main([*other, "--outdir", str(used)]) == 0
        with open(used / cli.ERROR_LOG, "a") as fh:
            fh.write("h(0,7,7) = -v has a negative coefficient\n")
        if stale:
            for name, text in STALE_BUDGET_FILES.items():
                (used / name).write_text(text)
        return [*sweep, "--outdir", str(used)], empty, used

    @staticmethod
    def assert_files(got, want):
        for name in (*LOGS, cli.MATRIX_FILE, cli.WGRAPH_FILE):
            assert (got / name).read_bytes() == (want / name).read_bytes(), name

    @pytest.mark.parametrize("stale", [False, True], ids=["plain", "stale sidecar"])
    def test_other_runs_files_are_ignored(self, tmp_path, stale):
        """The sweep files end as in an empty directory, and the stale
        --store-budget files are left as they were."""
        sweep, empty, used = self.sweeps(tmp_path, stale)
        assert main(sweep) == 0
        self.assert_files(used, empty)
        if stale:
            for name, text in STALE_BUDGET_FILES.items():
                assert (used / name).read_text() == text, name

    @pytest.mark.parametrize("when", ["building", "after saving"])
    def test_resume_after_kill_around_the_wgraph(self, tmp_path, monkeypatch, when):
        """Killed while it builds the W-graph or just after saving it, a
        fresh run has already dropped the other run's lines, so a resume
        counts none of its columns as done."""
        sweep, empty, used = self.sweeps(tmp_path)
        save = cli.save_wgraph

        def build_killed(store):
            raise SimulatedKill

        def save_killed(wg, path):
            save(wg, path)
            raise SimulatedKill

        if when == "building":
            monkeypatch.setattr(cli, "build_wgraph", build_killed)
        else:
            monkeypatch.setattr(cli, "save_wgraph", save_killed)
        with pytest.raises(SimulatedKill):
            main(sweep)
        monkeypatch.undo()
        assert main([*sweep, "--resume"]) == 0
        self.assert_files(used, empty)


E7_MATRIX = "7\n2 3 2 2 2 2\n2 3 2 2 2\n3 2 2 2\n3 2 2\n3 2\n3\n"
RANK_9_MATRIX = "9\n" + "".join(" ".join(["2"] * k) + "\n" for k in range(8, 0, -1))


class TestBadGroupInput:
    """Bad group input ends the command with one line and exit status 1,
    not with a Python stack."""

    @pytest.mark.parametrize(
        "matrix, group, message",
        [
            ("3\n3 3\n3\n", None, "the group is not finite"),
            (None, "Z9", "unrecognised group name 'Z9'"),
            (E7_MATRIX, None, "group of order 2903040 exceeds the supported 1000000 elements"),
            (RANK_9_MATRIX, None, "rank 9 exceeds supported bound 8"),
            (None, None, "no group given"),
        ],
        ids=["affine A2", "Z9", "E7", "rank 9", "no group"],
    )
    def test_one_line_and_exit_1(self, tmp_path, matrix, group, message):
        if matrix is None:
            where = ["--group", group] if group else []
        else:
            (tmp_path / "matrix.txt").write_text(matrix)
            where = ["--matrix", str(tmp_path / "matrix.txt")]
        proc = run_python("-m", "klbasis", "positivity", *where, "--outdir", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("klbasis: ") and message in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_missing_matrix_file(self, tmp_path):
        with pytest.raises(SystemExit, match="^klbasis: .*nowhere.txt"):
            run(["positivity", "--matrix", str(tmp_path / "nowhere.txt")], tmp_path)


class TestBadArguments:
    """A bad element id, argument count, --range, --threads or --outdir
    ends the command with one line and exit status 1, as bad group input
    does."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["cprod", "zero", "1", "--group", "A2"], "element id must be an integer, got 'zero'"),
            (["cprod", "0", "99", "--group", "A2"], "element id 99 outside 0..5"),
            (["cprod", "1", "--group", "A2"], "cprod needs exactly two element ids"),
            (["cycltable", "--group", "A2"], "cycltable needs exactly one element id"),
            (["triangle", "3"], "triangle needs: m (or 'inf') and k"),
            (["positivity", "--group", "A2", "--range", "0:99"], "--range 0:99 outside 0..5"),
            (["positivity", "--group", "A2", "--range", "2:1"], "--range 2:1 has LO above HI"),
            (["positivity", "--group", "A2", "--threads", "0"], "--threads 0 is below 1"),
            (["positivity", "--group", "A2", "--outdir", "{file}"],
             "cannot make --outdir {file}: File exists"),
            (["klplist", "--group", "A2", "--outdir", "{file}/out"],
             "cannot make --outdir {file}/out: Not a directory"),
        ],
        ids=["id not a number", "id outside", "cprod count", "cycltable count",
             "triangle count", "range outside", "range reversed", "threads below 1",
             "outdir a file", "outdir under a file"],
    )
    def test_one_line_and_exit_1(self, tmp_path, args, message):
        """``{file}`` stands for a regular file; an --outdir in args comes
        after the default one, so it is the one taken."""
        file = tmp_path / "file"
        file.write_text("")
        args = [arg.format(file=file) for arg in args]
        proc = run_python("-m", "klbasis", "--outdir", str(tmp_path / "out"), *args)
        message = message.format(file=file)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("klbasis: ") and message in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_store_budget_is_an_unknown_option(self, tmp_path):
        """--store-budget is gone: argparse refuses it with its usage text
        and exit status 2, before the output directory is made, and --help
        does not list it."""
        out = tmp_path / "out"
        proc = run_python("-m", "klbasis", "positivity", "--group", "A2", "--store-budget", "5",
                          "--outdir", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: klbasis ")
        assert "unrecognized arguments: --store-budget 5" in proc.stderr
        assert not out.exists()
        assert "--store-budget" not in cli.build_parser().format_help()


class TestProductCommands:
    def test_cprod_identity(self, tmp_path, capsys):
        assert run(["cprod", "0", "4", "--group", "A2"], tmp_path) == 0
        out = capsys.readouterr().out.strip()
        assert out == "0[e]: 4[21] -> 1"

    def test_cprod_generator_square(self, tmp_path, capsys):
        assert run(["cprod", "1", "1", "--group", "A2"], tmp_path) == 0
        out = capsys.readouterr().out.strip()
        assert out == "1[1]: 1[1] -> v^-1 + v"

    def test_cycltable_matches_closed_form_line(self, tmp_path, capsys):
        g = group_from_name("I2(9)")
        y = g.element_of_word([0, 1, 0, 1, 0, 1])
        assert run(["cycltable", str(y), "--group", "I2(9)"], tmp_path) == 0
        out = capsys.readouterr().out
        wanted = (
            f"{y}[121212]: 3[12] -> 2; 7[1212] -> 2; {y}[121212] -> 1; "
            f"{g.w0}[{g.word_str(g.w0)}] -> v^-3 + 2v^-1 + 2v + v^3"
        )
        assert wanted in out

    PRODUCTS = [["cycltable", "40"], ["cprod", "17", "40"]]

    @staticmethod
    def built_output(args, outdir, capsys, monkeypatch):
        """Stdout of the command in outdir, which must build the P table."""
        built = []

        def store(g):
            built.append(g.name)
            return KLStore(g)

        with monkeypatch.context() as patch:
            patch.setattr(cli, "KLStore", store)
            assert run([*args, "--group", "B3"], outdir) == 0
        assert built == ["B3"]
        return capsys.readouterr().out

    @pytest.mark.parametrize("args", PRODUCTS, ids=["cycltable", "cprod"])
    def test_saved_wgraph_replaces_the_p_table(self, tmp_path, capsys, monkeypatch, wgraphs, args):
        fresh = self.built_output(args, tmp_path / "fresh", capsys, monkeypatch)
        saved = tmp_path / "saved"
        saved.mkdir()
        save_wgraph(wgraphs("B3"), saved / cli.WGRAPH_FILE)

        def no_store(g):
            raise AssertionError("built the P table beside a valid wgraph.npz")

        monkeypatch.setattr(cli, "KLStore", no_store)
        assert run([*args, "--group", "B3"], saved) == 0
        assert capsys.readouterr().out == fresh

    @pytest.mark.parametrize("args", PRODUCTS, ids=["cycltable", "cprod"])
    def test_unusable_wgraph_is_built(self, tmp_path, capsys, monkeypatch, wgraphs, args):
        fresh = self.built_output(args, tmp_path / "fresh", capsys, monkeypatch)
        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        save_wgraph(wgraphs("B3"), corrupt / cli.WGRAPH_FILE)
        path = corrupt / cli.WGRAPH_FILE
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert self.built_output(args, corrupt, capsys, monkeypatch) == fresh

    def test_bad_ids_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["cprod", "0", "99", "--group", "A2"], tmp_path)
        with pytest.raises(SystemExit):
            run(["cprod", "zero", "1", "--group", "A2"], tmp_path)


# stdout of `klbasis triangle ARGS`, line by line
TRIANGLE_OUTPUTS = {
    ("9", "6", "8"): (
        "       j=1  j=2  j=3  j=4  j=5  j=6  j=7  j=8",
        "i=1      .    .    .    .    1    .    1    .",
        "i=2      .    .    .    1    .    2    .    1",
        "i=3      .    .    1    .    2    .    2    .",
        "i=4      .    1    .    2    .    2    .    1",
        "i=5      1    .    2    .    2    .    1    .",
        "i=6      .    2    .    2    .    1    .    .",
        "i=7      1    .    2    .    1    .    .    .",
        "i=8      .    1    .    1    .    .    .    .",
    ),
    ("9", "6", "9", "opposite"): (
        "       j=1  j=2  j=3  j=4  j=5  j=6  j=7  j=8",
        "i=1      .    .    .    .    .    1    .    .",
        "i=2      .    .    .    .    1    .    1    .",
        "i=3      .    .    .    1    .    1    .    1",
        "i=4      .    .    1    .    1    .    1    .",
        "i=5      .    1    .    1    .    1    .    .",
        "i=6      1    .    1    .    1    .    .    .",
        "i=7      .    1    .    1    .    .    .    .",
        "i=8      .    .    1    .    .    .    .    .",
        "i=9      .    .    .    .    .    .    .    .",
    ),
    ("5", "5", "5"): (
        "       j=5",
        "i=1      .",
        "i=2      .",
        "i=3      .",
        "i=4      .",
        "i=5      .",
    ),
    ("inf", "3", "5"): (
        "       j=1  j=2  j=3  j=4  j=5  j=6  j=7  j=8",
        "i=1      .    1    .    1    .    .    .    .",
        "i=2      1    .    2    .    1    .    .    .",
        "i=3      .    2    .    2    .    1    .    .",
        "i=4      1    .    2    .    2    .    1    .",
        "i=5      .    1    .    2    .    2    .    1",
    ),
    ("inf", "3", "5", "opposite"): (
        "       j=1  j=2  j=3  j=4  j=5  j=6  j=7",
        "i=1      .    .    1    .    .    .    .",
        "i=2      .    1    .    1    .    .    .",
        "i=3      1    .    1    .    1    .    .",
        "i=4      .    1    .    1    .    1    .",
        "i=5      .    .    1    .    1    .    1",
    ),
    ("inf", "1", "4", "same"): (
        "       j=1  j=2  j=3  j=4  j=5",
        "i=1      .    1    .    .    .",
        "i=2      1    .    1    .    .",
        "i=3      .    1    .    1    .",
        "i=4      .    .    1    .    1",
    ),
}


class TestTriangleCommand:
    def test_matches_module(self, tmp_path, capsys):
        assert run(["triangle", "9", "6", "8"], tmp_path) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].split() == ["i=1", ".", ".", ".", ".", "1", ".", "1", "."]

    def test_infinite(self, tmp_path, capsys):
        assert run(["triangle", "inf", "3", "5"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "i=5" in out

    @pytest.mark.parametrize("args", list(TRIANGLE_OUTPUTS), ids=" ".join)
    def test_whole_output(self, tmp_path, capsys, args):
        assert run(["triangle", *args], tmp_path) == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in TRIANGLE_OUTPUTS[args])

    @pytest.mark.parametrize(
        "args, message",
        [
            (["x", "3"], "invalid literal for int()"),
            (["1", "1"], "finite tables need"),
            (["9", "6", "8", "diagonal"], "side must be one of"),
        ],
        ids=["not a number", "m below 2", "unknown side"],
    )
    def test_bad_arguments_one_line_and_exit_1(self, tmp_path, args, message):
        proc = run_python("-m", "klbasis", "triangle", *args, "--outdir", str(tmp_path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("klbasis: ") and message in proc.stderr
        assert proc.stderr.count("\n") == 1


class TestMatrixInput:
    def test_matrix_file(self, tmp_path, capsys):
        mfile = tmp_path / "h3.txt"
        mfile.write_text("3\n5 2\n3\n")
        assert main(
            ["klplist", "--matrix", str(mfile), "--outdir", str(tmp_path)]
        ) == 0
        header = (tmp_path / "klplist").read_text().splitlines()[0]
        assert header.startswith("group h3:")


def test_console_entry_point(tmp_path):
    """``python -m klbasis`` runs this checkout's cli, and the ``klbasis``
    console script of pyproject.toml names the same entry point."""
    proc = run_python("-m", "klbasis", "triangle", "inf", "3", "2", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "i=2" in proc.stdout
    # read as text: tomllib is not in Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert section is not None
    assert re.search(r'^klbasis\s*=\s*"klbasis\.cli:main"\s*$', section.group(1), re.M)
