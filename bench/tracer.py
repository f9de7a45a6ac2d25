"""Traced suite: per-layer costs of egqft, measured from outside the package.

    python3 bench/tracer.py --mode plain|traced --tmp DIR [--tiny]

Runs a fixed suite in one fresh process, in three sections:

* ``symbolic``: the cli_symbolic commands through ``egqft.cli.run``;
* ``numeric``:  the cold ``adiabatic`` command (one kit build, the cost of
  the library session's set-up);
* ``library``:  one library-session pass on the warm kit.

With ``--mode traced`` the public functions of each layer are wrapped at
every module attribute through which another layer calls them.  A wrapper
opens a span on entry and closes it on exit; the open spans form a stack,
so each span's parent is the one below it.  Closing folds the span into
per-(section, name) call counts, inclusive time and self time (duration
minus the time of child spans); top-level spans are also kept with their
start and end for the detail output.  ``--mode plain``
runs the same suite unwrapped, so the harness can report the tracing
overhead.  Inputs are fixed (not seeded), so every count repeats exactly.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import collections.abc
import functools
import json
import os
import random
import statistics
import sys
import time

t_start = time.perf_counter()
import egqft.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - t_start

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import egqft.adiabatic_limits as al  # noqa: E402
import egqft.causal_splitting as cs  # noqa: E402
import egqft.model_registry as mr  # noqa: E402
import egqft.power_counting as pc  # noqa: E402
import egqft.propagators_kinematics as pk  # noqa: E402
import egqft.symbolic_fields as sf  # noqa: E402
import egqft.wick_pairing as wp  # noqa: E402
from egqft.exact import QRat  # noqa: E402

import library  # noqa: E402
import workloads as wl  # noqa: E402

now = time.perf_counter


class Tracer:
    """Span stack plus per-(section, name) aggregates."""

    def __init__(self):
        self.section = "setup"
        self.stack: list[list] = []  # open spans, parent first: [name, start, child time]
        self.agg: dict[tuple, list] = {}  # -> [calls, inclusive s, self s]
        self.counts: dict[tuple, int] = {}
        self.spans: list[tuple] = []  # closed top-level spans: (section, name, start, end)

    def enter(self, name: str) -> None:
        self.stack.append([name, now(), 0.0])

    def leave(self, calls: int) -> None:
        end = now()
        name, start, child = self.stack.pop()
        dur = end - start
        a = self.agg.setdefault((self.section, name), [0, 0.0, 0.0])
        a[0] += calls
        a[1] += dur
        a[2] += dur - child
        if self.stack:
            self.stack[-1][2] += dur  # the parent's self time excludes this span
        else:
            self.spans.append((self.section, name, start, end))

    def count(self, name: str, n: int) -> None:
        key = (self.section, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave(1)
            if isinstance(out, collections.abc.Iterator):
                return self._resume(out, name)
            return out

        return traced

    def _resume(self, it, name):
        """A lazily evaluated result: time each resumption as the same layer."""
        while True:
            self.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.leave(0)
            yield item

    def get(self, section: str, name: str) -> list:
        return self.agg.get((section, name), [0, 0.0, 0.0])


class _Integrate:
    """Stand-in for the scipy.integrate module held by causal_splitting."""

    def __init__(self, module, quad):
        self._module, self.quad = module, quad

    def __getattr__(self, attr):
        return getattr(self._module, attr)


# layer span name -> (holder, attribute) pairs through which other layers call
# it.  load_model and subpolynomials report no metric of their own; they are
# wrapped so that cli.run's self time is the CLI's parsing and emitting alone.
TARGETS = {
    "cli.run": [(cli, "run")],
    "model_registry.load_model": [(cli, "load_model")],
    "model_registry.validate": [(cli, "validate"), (mr, "validate")],
    "power_counting.omega_massless": [(cli, "omega_massless"), (pc, "omega_massless")],
    "symbolic_fields.parity": [(sf.Polynomial, "parity")],
    "symbolic_fields.derive": [(sf, "derive"), (wp, "derive")],
    "symbolic_fields.subpolynomials": [(cli, "subpolynomials"), (sf, "subpolynomials")],
    "wick_pairing.wick_expand": [(cli, "wick_expand"), (wp, "wick_expand")],
    "wick_pairing.complete_pairings": [(cli, "complete_pairings"), (wp, "complete_pairings")],
    "propagators_kinematics.two_body_phase_space": [
        (cs, "two_body_phase_space"), (al, "two_body_phase_space"), (pk, "two_body_phase_space")],
    "causal_splitting.dispersion_eval": [
        (cli, "dispersion_eval"), (al, "dispersion_eval"), (cs, "dispersion_eval")],
    "adiabatic_limits.appendix_c_demo": [(cli, "appendix_c_demo"), (al, "appendix_c_demo")],
    "adiabatic_limits.gl_vs_eg_second_order": [
        (cli, "gl_vs_eg_second_order"), (al, "gl_vs_eg_second_order")],
}


def install(tr: Tracer) -> None:
    for name, places in TARGETS.items():
        traced = tr.wrap(getattr(*places[0]), name)
        for holder, attr in places:
            setattr(holder, attr, traced)
    cs.integrate = _Integrate(cs.integrate, tr.wrap(cs.integrate.quad, "causal_splitting.quad"))
    al.SecondOrderKit.build = staticmethod(tr.wrap(al.SecondOrderKit.build, "adiabatic_limits.kit_build"))

    lookup = al._Curve.__call__

    def curve_call(curve, q2):
        tr.enter("adiabatic_limits.curve_lookup")
        try:
            u = np.arcsinh(np.asarray(q2, dtype=float) / curve.delta)
            tr.count("curve_points", u.size)
            # np.interp clamps silently outside the grid; count those points
            tr.count("curve_out_of_range", int(np.count_nonzero((u < curve.u[0]) | (u > curve.u[-1]))))
            return lookup(curve, q2)
        finally:
            tr.leave(1)

    al._Curve.__call__ = curve_call


# --------------------------------------------------------------------------- suite


class Suite:
    def __init__(self, tr: Tracer, tmp: str, tiny: bool):
        self.tr, self.tmp, self.tiny = tr, tmp, tiny
        self.failures: list[str] = []
        self.attempted = 0
        self.wall: dict[str, float] = {}
        self.lines = {"wick": 0, "wick_zero": 0, "pairings": 0, "all": 0}
        self.library: dict = {}  # the library pass's result

    def cli_job(self, job: wl.Job) -> None:
        """Run one command in-process, output to a file, then check the file."""
        self.attempted += 1
        path = os.path.join(self.tmp, "trace_out.txt")
        checker = job.checker()
        saved = sys.stdout
        try:
            with open(path, "w", encoding="utf-8") as fh:
                sys.stdout = fh
                try:
                    rc = cli.run(job.argv)
                finally:
                    sys.stdout = saved
        except Exception as exc:  # a crash is a failed job; the suite goes on
            self.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
            return
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                checker.feed(line.rstrip("\n"))
        why = checker.verdict(rc)
        if why:
            self.failures.append(f"{job.name}: {why}")
        self.lines["all"] += checker.lines
        if job.argv[0] == "wick":
            self.lines["wick"] += checker.lines
            self.lines["wick_zero"] += checker.zero
        elif job.argv[0] == "pairings":
            self.lines["pairings"] += checker.lines

    def section(self, name: str, body) -> None:
        self.tr.section = name
        t0 = now()
        body()
        self.wall[name] = now() - t0
        self.tr.section = "none"

    def run(self) -> None:
        rng = random.Random("trace")
        symbolic = sorted(wl.cli_symbolic_pass(rng, self.tiny), key=lambda j: j.name)
        numeric = [wl.adiabatic_job()]
        session = library.Session()
        n_queries = 10 if self.tiny else library.QUERIES

        def lib():
            res = library.run_pass(session, rng, n_queries, self.tiny)
            self.attempted += res["attempted"]
            self.failures += res["failures"]
            self.library = res

        self.section("symbolic", lambda: [self.cli_job(j) for j in symbolic])
        self.section("numeric", lambda: [self.cli_job(j) for j in numeric])
        self.section("library", lib)


def qrat_ns() -> tuple[float, float]:
    """ns per QRat multiply and divide on the operands of Wick weights:
    spinor-QED vertex coefficients against the factorials 1/s! of its
    candidate sub-multi-indices."""
    vertex = mr.builtin("spinor_qed_massive").vertex("e")
    facts = [QRat(s.factorial()) for s, _ in sf.subpolynomials(vertex, view="all")]
    pairs = [(c, f) for _, c in vertex.terms for f in facts]

    def per_op(op):
        runs = []
        for _ in range(5):
            t0 = now()
            for a, b in pairs:
                op(a, b)
            runs.append((now() - t0) / len(pairs) * 1e9)
        return statistics.median(runs)

    return per_op(lambda a, b: a * b), per_op(lambda a, b: a / b)


def layer_metrics(tr: Tracer, suite: Suite) -> dict[str, float]:
    agg = tr.get
    wick = agg("symbolic", "wick_pairing.wick_expand")
    pairs = agg("symbolic", "wick_pairing.complete_pairings")
    run = agg("symbolic", "cli.run")
    parity = agg("symbolic", "symbolic_fields.parity")
    derive = agg("symbolic", "symbolic_fields.derive")
    ps = agg("numeric", "propagators_kinematics.two_body_phase_space")
    disp = agg("numeric", "causal_splitting.dispersion_eval")
    quad = agg("numeric", "causal_splitting.quad")
    kit = agg("numeric", "adiabatic_limits.kit_build")
    validate = agg("library", "model_registry.validate")
    omega = agg("library", "power_counting.omega_massless")
    curve = agg("library", "adiabatic_limits.curve_lookup")
    demo = agg("library", "adiabatic_limits.appendix_c_demo")
    gl = agg("library", "adiabatic_limits.gl_vs_eg_second_order")
    points = tr.counts.get(("library", "curve_points"), 0)
    samples = suite.library["eps_samples"]
    mul_ns, div_ns = qrat_ns()

    def per(total, n, scale):
        return total / n * scale if n else 0.0

    return {
        "exact.qrat_mul_ns": mul_ns,
        "exact.qrat_div_ns": div_ns,
        "symbolic_fields.parity.calls": parity[0],
        "symbolic_fields.parity.self_s": parity[2],
        "symbolic_fields.derive.calls": derive[0],
        "symbolic_fields.derive.self_s": derive[2],
        "wick_pairing.wick_expand.terms": suite.lines["wick"],
        "wick_pairing.wick_expand.vev_forced_zero": suite.lines["wick_zero"],
        "wick_pairing.wick_expand.self_s": wick[2],
        "wick_pairing.wick_expand.us_per_term": per(wick[1], suite.lines["wick"], 1e6),
        "wick_pairing.complete_pairings.terms": suite.lines["pairings"],
        "wick_pairing.complete_pairings.us_per_term": per(pairs[1], suite.lines["pairings"], 1e6),
        "cli.import_s": IMPORT_S,
        "cli.emit.self_s": run[2],
        "cli.us_per_line": per(run[2], suite.lines["all"], 1e6),
        "propagators_kinematics.two_body_phase_space.calls": ps[0],
        "propagators_kinematics.two_body_phase_space.self_s": ps[2],
        "propagators_kinematics.two_body_phase_space.us_per_call": per(ps[1], ps[0], 1e6),
        "causal_splitting.dispersion_eval.calls": disp[0],
        "causal_splitting.dispersion_eval.self_s": disp[2],
        "causal_splitting.dispersion_eval.ms_per_point": per(disp[1], disp[0], 1e3),
        "causal_splitting.quad.calls": quad[0],
        "adiabatic_limits.kit_build.s": kit[1],
        "model_registry.validate.calls": validate[0],
        "model_registry.validate.self_s": validate[2],
        "power_counting.omega_massless.calls": omega[0],
        "power_counting.omega_massless.self_s": omega[2],
        "adiabatic_limits.curve_lookup.calls": curve[0],
        "adiabatic_limits.curve_lookup.points": points,
        "adiabatic_limits.curve_lookup.ns_per_point": per(curve[1], points, 1e9),
        "adiabatic_limits.curve_lookup.out_of_range": tr.counts.get(("library", "curve_out_of_range"), 0),
        "adiabatic_limits.appendix_c_demo.self_s": demo[2],
        "adiabatic_limits.gl_vs_eg_second_order.self_s": gl[2],
        "adiabatic_limits.us_per_eps_sample": per(demo[1] + gl[1], samples, 1e6),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("plain", "traced"), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    tr = Tracer()
    if args.mode == "traced":
        install(tr)
    suite = Suite(tr, args.tmp, args.tiny)
    suite.run()
    out = {
        "mode": args.mode,
        "versions": {"numpy": np.__version__, "scipy": scipy.__version__},
        "import_s": IMPORT_S,
        "suite_s": sum(suite.wall.values()),
        "sections_s": suite.wall,
        "attempted": suite.attempted,
        "failures": suite.failures,
    }
    if args.mode == "traced":
        out["layers"] = layer_metrics(tr, suite)
        out["spans"] = tr.spans
    print(json.dumps(out))


if __name__ == "__main__":
    main()
