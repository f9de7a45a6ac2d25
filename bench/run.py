"""egqft benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout: the package is imported from ``src/``
(it is not installed).  Workloads, each a closed loop with one client (the
next job starts when the previous one ends):

* ``cli_symbolic``: Wick and pairing streams plus three rounds of the small
  commands, one fresh ``egqft`` process per command;
* ``library_session``: one long-lived process whose set-up builds the
  second-order kit; each pass runs seeded ``omega_massless`` queries, two
  self-energy tables across threshold and the demonstration sweep on the
  warm kit.

Set-up is timed on its own (``setup_s``).  After it, whole passes run until
the next one would end more than half a pass past ``--seconds`` (at least
one pass).  Every output is checked against an oracle in ``workloads.py``;
a failed check, a non-zero exit or an empty output counts as a failed job.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs
``tracer.py`` twice, plain and traced, and prints the per-layer metrics
and the tracing overhead; its inputs are fixed, so counts repeat exactly.

End-to-end metrics, per workload (the first name in brackets is the
cli_symbolic meaning, the second the library_session one):

* ``setup_s``: median of five cold ``import egqft.cli`` processes on
  cli_symbolic; the session's start (import plus kit build) on
  library_session;
* ``pass_s``: wall time of one full pass;
* ``ok_ratio``: jobs that passed their check over jobs attempted;
* ``peak_rss_mb``: highest peak RSS of any worker process;
* ``heavy_job_s``: wall time of the heaviest job [spinor ``wick``; the
  demonstration sweep];
* ``first_line_s``: time to a first result [start of the spinor ``wick``
  to its first output line; one ``appendix_c_demo`` call];
* ``small_job_s``: wall time of a light job [``classify``, ``omega``,
  ``subpolys``; one ``omega_massless`` query, as its pass's mean];
* ``items_per_s``: work items per second over the whole run [Wick and
  pairing lines; self-energy q^2 points].

Every other timing is the median over the run; the line before the result
gives each timing's tail percentile and sample count, queries_per_s and
eps_samples_per_s on library_session, the workload's names for the
generic metrics (``ALIASES``), and the pinned child environment with the
Python, numpy and scipy versions and the CPU count.
The last line of standard output is the result object.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".bench_tmp")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

WORKLOADS = ("cli_symbolic", "library_session")
CLI = [sys.executable, "-c", "from egqft.cli import main; main()"]
PROBE = ("import egqft.cli, json, numpy, scipy; "
         "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
SETUP_REPEATS = 5
# names the workload definitions give the generic metrics
ALIASES = {
    "cli_symbolic": {"terms_per_s": "items_per_s", "small_cmd_s": "small_job_s"},
    "library_session": {"kit_cold_s": "setup_s", "sweep_s": "heavy_job_s",
                        "demo_s": "first_line_s", "query_s": "small_job_s",
                        "q2_points_per_s": "items_per_s"},
}
JOB_LIMIT_S = 170.0  # no child may outlive the run's own time limit
TIMED = {"setup_s": "s", "pass_s": "s", "heavy_job_s": "s", "first_line_s": "s",
         "small_job_s": "s"}
PINNED = {
    "EGQFT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = SRC
    return env


class BenchError(RuntimeError):
    """The benchmark cannot run here (for instance, no source tree)."""


# --------------------------------------------------------------------------- child processes


class Child(NamedTuple):
    """One finished child process."""

    returncode: int
    wall: float  # start to exit
    first_line: float  # start to the first output line (wall if none)
    peak_rss_mb: float
    stderr_tail: str


def _stderr_file():
    os.makedirs(TMP, exist_ok=True)
    return open(os.path.join(TMP, "stderr.txt"), "w+b")


def _kill(proc) -> None:
    # os.kill, not Popen.kill: Popen polls first and would reap the child
    # before wait4 can read its resource usage.  Until wait4 reaps it, the
    # pid cannot be reused.
    os.kill(proc.pid, signal.SIGKILL)


def _killer(proc, timeout) -> threading.Timer:
    timer = threading.Timer(timeout, _kill, (proc,))
    timer.start()
    return timer


def _reap(proc, err) -> tuple[int, float, str]:
    """Wait for proc with wait4 and return (exit code, peak RSS MB, stderr tail).

    ru_maxrss of a child also covers the image it was forked from, which is
    why the harness streams output and never holds it: its own footprint
    stays far below any worker's.
    """
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    err.seek(0, os.SEEK_END)
    err.seek(max(0, err.tell() - 2000))
    tail = err.read().decode("utf-8", "replace")
    err.close()
    return proc.returncode, usage.ru_maxrss / 1024.0, tail


def run_child(argv, on_line, timeout=JOB_LIMIT_S) -> Child:
    """Run argv, hand each output line (without newline) to on_line as it
    arrives, and keep nothing else."""
    err = _stderr_file()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=err, env=child_env(), cwd=ROOT)
    killer = _killer(proc, timeout)
    first = None
    try:
        for raw in proc.stdout:
            if first is None:
                first = time.perf_counter() - t0
            on_line(raw.decode("utf-8", "replace").rstrip("\n"))
    except BaseException:
        _kill(proc)
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        rc, rss, tail = _reap(proc, err)
    wall = time.perf_counter() - t0
    return Child(rc, wall, first if first is not None else wall, rss, tail)


# --------------------------------------------------------------------------- statistics


def timing(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n}
    if n > 10:
        out["tail"] = {"p": round(100 * (n - 10) / n, 1), "value": vals[n - 11]}
    return out


class Run:
    """What one measured run accumulates."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_mb = 0.0
        self.t: dict[str, list[float]] = defaultdict(list)  # samples per timing
        self.items = 0  # work items over the run ...
        self.item_s = 0.0  # ... and the time spent producing them
        self.env: dict = {}

    def result(self, workload: str) -> tuple[dict, dict]:
        metrics = {k: {"value": statistics.median(self.t[k]), "unit": u} for k, u in TIMED.items()}
        metrics["items_per_s"] = {"value": self.items / self.item_s, "unit": "1/s"}
        ok = 1.0 - len(self.failures) / self.attempted
        metrics["ok_ratio"] = {"value": ok, "unit": "ratio"}
        metrics["peak_rss_mb"] = {"value": self.peak_rss_mb, "unit": "MB"}
        detail = {
            "workload": workload,
            "timings": {k: timing(v) for k, v in self.t.items()},
            "items": {"count": self.items, "s": self.item_s},
            "aliases": ALIASES[workload],
            "failures": self.failures[:20],
            "env": self.env,
        }
        return metrics, detail


def environment(probe: dict) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": probe.get("numpy"),
        "scipy": probe.get("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned": PINNED,
    }


# --------------------------------------------------------------------------- workloads


def cli_setup(run: Run) -> None:
    """Cold imports of the CLI: they fail fast without a source tree, warm
    the bytecode cache, and their median is setup_s."""
    for _ in range(SETUP_REPEATS):
        lines = []
        child = run_child([sys.executable, "-c", PROBE], lines.append)
        if child.returncode != 0 or not lines:
            raise BenchError(f"cannot import egqft from {SRC}: {child.stderr_tail.strip()[-500:]}")
        run.t["setup_s"].append(child.wall)
        run.peak_rss_mb = max(run.peak_rss_mb, child.peak_rss_mb)
    run.env = environment(json.loads(lines[-1]))


def run_job(run: Run, job: wl.Job) -> Child:
    checker = job.checker()
    child = run_child(CLI + job.argv, checker.feed)
    run.attempted += 1
    run.peak_rss_mb = max(run.peak_rss_mb, child.peak_rss_mb)
    why = checker.verdict(child.returncode)
    if why:
        run.failures.append(f"{job.name}: {why}; stderr: {child.stderr_tail.strip()[-300:]}")
    return child


def cli_pass(run: Run, jobs: list[wl.Job]) -> None:
    t0 = time.perf_counter()
    for job in jobs:
        child = run_job(run, job)
        if job.role == "heavy":
            run.t["heavy_job_s"].append(child.wall)
            run.t["first_line_s"].append(child.first_line)
        elif job.role == "small":
            run.t["small_job_s"].append(child.wall)
        if job.items:
            run.items += job.items
            run.item_s += child.wall
    run.t["pass_s"].append(time.perf_counter() - t0)


def done(run: Run, t0: float, seconds: float) -> bool:
    """True when another pass would end more than half a pass past seconds."""
    return time.perf_counter() - t0 + statistics.median(run.t["pass_s"]) / 2 > seconds


def run_cli_symbolic(seed: int, seconds: float, smoke: bool) -> Run:
    run = Run()
    cli_setup(run)
    t0 = time.perf_counter()
    k = 0
    while True:
        rng = random.Random(f"cli_symbolic/{seed}/{k}")
        cli_pass(run, wl.cli_symbolic_pass(rng, smoke))
        k += 1
        if smoke or done(run, t0, seconds):
            break
    return run


def run_library_session(seed: int, seconds: float, smoke: bool) -> Run:
    run = Run()
    err = _stderr_file()
    argv = [sys.executable, os.path.join(HERE, "session.py"), "--seed", str(seed)]
    if smoke:
        argv.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                            env=child_env(), cwd=ROOT, text=True, bufsize=1)
    killer = _killer(proc, JOB_LIMIT_S)
    try:
        ready = proc.stdout.readline()
        if not ready:
            raise BenchError("library session did not start")
        run.t["setup_s"].append(time.perf_counter() - t0)
        probe = json.loads(ready)
        run.env = environment(probe["versions"])
        run.t["session_import_s"].append(probe["import_s"])
        t0 = time.perf_counter()
        k = 0
        while True:
            t_pass = time.perf_counter()
            proc.stdin.write(f"pass {k}\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                raise BenchError("library session ended early")
            res = json.loads(line)
            run.attempted += res["attempted"]
            run.failures += res["failures"]
            run.t["pass_s"].append(time.perf_counter() - t_pass)
            run.t["heavy_job_s"].append(res["sweep_s"])
            run.t["first_line_s"] += res["demo_s"]
            run.t["small_job_s"].append(res["queries_s"] / res["queries"])
            run.t["queries_per_s"].append(res["queries"] / res["queries_s"])
            run.t["eps_samples_per_s"].append(res["eps_samples"] / res["sweep_s"])
            run.items += res["q2_points"]
            run.item_s += res["q2_s"]
            k += 1
            if smoke or done(run, t0, seconds):
                break
        proc.stdin.close()
        proc.stdout.read()
        proc.stdout.close()
    except BaseException:
        _kill(proc)
        raise
    finally:
        killer.cancel()
        rc, rss, tail = _reap(proc, err)
    if rc != 0:
        raise BenchError(f"library session exited {rc}: {tail.strip()[-500:]}")
    run.peak_rss_mb = rss
    return run


def run_trace(workload: str, smoke: bool) -> tuple[dict, dict, int, list[str]]:
    """Plain then traced suite, each in a fresh process; per-layer metrics
    in the units BENCHMARK.json gives them."""
    out = {}
    for mode in ("plain", "traced"):
        last = []
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), "--mode", mode, "--tmp", TMP]
        if smoke:
            argv.append("--tiny")
        child = run_child(argv, last.append)
        if child.returncode != 0 or not last:
            raise BenchError(f"tracer ({mode}) failed: {child.stderr_tail.strip()[-800:]}")
        out[mode] = json.loads(last[-1])
    layers = out["traced"].pop("layers")
    layers["trace.overhead_ratio"] = out["traced"]["suite_s"] / out["plain"]["suite_s"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    failures = out["plain"]["failures"] + out["traced"]["failures"]
    detail = {"workload": workload, "trace": out, "failures": failures[:20],
              "env": environment(out["traced"]["versions"])}
    return metrics, detail, out["plain"]["attempted"] + out["traced"]["attempted"], failures


# --------------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="egqft benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "egqft")):
        print(f"bench: no egqft source tree under {SRC}", file=sys.stderr)
        return 1
    try:
        if args.trace:
            metrics, detail, attempted, failures = run_trace(args.workload, args.smoke)
        else:
            if args.workload == "library_session":
                run = run_library_session(args.seed, args.seconds, args.smoke)
            else:
                run = run_cli_symbolic(args.seed, args.seconds, args.smoke)
            metrics, detail = run.result(args.workload)
            attempted, failures = run.attempted, run.failures
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
