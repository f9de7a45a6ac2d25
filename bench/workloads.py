"""Job lists and output oracles for the egqft benchmark.

Standard library only: the harness imports this module without numpy, so
its own memory stays small next to the workers it measures.

A Job is one CLI command.  Its checker sees the command's standard output
one line at a time and never keeps more than the lines it must parse, then
decides at exit whether the output is correct.  Every oracle below is
independent of the code under test: a closed form, a counting rule, or a
structural count stated with its derivation.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# --------------------------------------------------------------------------- oracles

# subpolynomials(view="all") sizes of the single vertex of each builtin: every
# sub-multi-index s of a vertex monomial with derive(vertex, s) != 0.
SUBPOLY_ALL = {"spinor_qed_massive": 73, "scalar_qed_massive": 47, "scalar_model": 6}
# Wick terms whose internal fields cannot balance charge.  For the charged
# models the balance rule pairs conjugate species; the counts are structural
# facts of the vertices, recorded once.
QED_FORCED_ZERO = {("spinor_qed_massive", 2): 4216, ("scalar_qed_massive", 2): 1806}
SPINOR_SPECIES_ROWS = 8  # species-view sub-polynomials, acceptance criterion 2

# vertex dimension and whether every vertex monomial carries a massive field
VERTEX = {
    "scalar_model": (3, True),
    "spinor_qed_massive": (4, True),
    "spinor_qed_massless": (4, False),
    "scalar_qed_massive": (4, True),
    "scalar_qed_massless": (4, False),
}
# canonical field dimensions of the fields the omega queries draw from
FIELD_DIMS = {
    "scalar_model": {"phi": 1, "psi": 1},
    "spinor_qed_massless": {
        **{f"A_{mu}": 1 for mu in range(4)},
        **{f"psi_{a}": 1.5 for a in (1, 2, 3, 4)},
        **{f"psi*_{a}": 1.5 for a in (1, 2, 3, 4)},
    },
}
SLOPE_PER_CMIS = -1.0 / (8.0 * math.pi**2)  # d/dlog(eps) of the massless pair log
SLOPE_RTOL = 0.05
GL_FLOOR = 0.8


def scalar_model_forced_zero(n_args: int) -> int:
    """Forced-zero Wick terms of the vertex phi psi^2 taken n_args times.

    A candidate extracts phi^a psi^b (a <= 1, b <= 2); the internal content
    phi^(1-a) psi^(2-b) balances only when both totals are even.
    """
    total = balanced = 0
    choices = [(a, b) for a in (0, 1) for b in (0, 1, 2)]

    def walk(k, phi, psi):
        nonlocal total, balanced
        if k == n_args:
            total += 1
            balanced += phi % 2 == 0 and psi % 2 == 0
            return
        for a, b in choices:
            walk(k + 1, phi + 1 - a, psi + 2 - b)

    walk(0, 0, 0)
    return total - balanced


def partial_matchings(a: int, b: int) -> int:
    """Ways to pair some of a left fields with some of b right fields."""
    return sum(math.comb(a, k) * math.comb(b, k) * math.factorial(k) for k in range(min(a, b) + 1))


def classify_verdict(model: str, c: int) -> str:
    """Renormalizability from the vertex dimension against 4 - c, and
    weak-adiabatic-limit eligibility: dim 4 with c = 0, or dim 3 with c = 1
    and a massive factor in every monomial."""
    dim, massive = VERTEX[model]
    kind = {-1: "super-renormalizable", 0: "renormalizable", 1: "nonrenormalizable"}
    ren = kind[(dim > 4 - c) - (dim < 4 - c)]
    eligible = (dim == 4 and c == 0) or (dim == 3 and c == 1 and massive)
    return f"{ren}; {'wAL-eligible' if eligible else 'not wAL-eligible'}"


def omega_expected(model: str, entries) -> int | None:
    """omega = 4 - sum(dim + derivative order) over external legs; None
    (the vanishing sector) when that is not an integer."""
    dims = FIELD_DIMS[model]
    total = 4 - sum(m * (dims[f] + sum(alpha)) for f, alpha, m in entries)
    return int(total) if total == int(total) else None


def bubble_im(q2: float, m: float = 1.0) -> float:
    """Im Sigma on the cut: the equal-mass two-body density."""
    return math.sqrt(1.0 - 4.0 * m * m / q2) / (4.0 * math.pi) if q2 > 4.0 * m * m else 0.0


def sigma_failure(q2: float, re: float, im: float) -> str | None:
    """Sigma(q2) of the equal-mass bubble: finite, Im = rho above 4m^2 and
    0 at or below it, and Sigma(0) = 0.  None when the value is right."""
    rho = bubble_im(q2)
    if not (math.isfinite(re) and math.isfinite(im)):
        return f"Sigma({q2}) = {re} + {im}i is not finite"
    if abs(im - rho) > 1e-9 * max(rho, 1e-3) or (rho == 0.0 and im != 0.0):
        return f"Im Sigma({q2}) = {im}, want {rho}"
    if q2 == 0.0 and re != 0.0:
        return f"Sigma(0) = {re}"
    return None


def slope_ok(log_slope_im: float, c_mis: float) -> bool:
    want = c_mis * SLOPE_PER_CMIS
    return abs(log_slope_im - want) <= SLOPE_RTOL * abs(want)


# --------------------------------------------------------------------------- checkers


class Checker:
    """Consumes output lines (without their newline); check() returns None
    when the output is correct, else why not."""

    def __init__(self):
        self.lines = 0

    def feed(self, line: str) -> None:
        self.lines += 1
        self.take(line)

    def take(self, line: str) -> None:
        pass

    def check(self) -> str | None:
        return None

    def verdict(self, returncode: int) -> str | None:
        if returncode != 0:
            return f"exit code {returncode}"
        if self.lines == 0:
            return "empty output"
        return self.check()


class TermStream(Checker):
    """JSON-lines term stream with a known line count (and forced-zero count)."""

    def __init__(self, lines: int, forced_zero: int | None = None, key: str = '"sign": '):
        super().__init__()
        self.want, self.want_zero, self.key = lines, forced_zero, key
        self.zero = self.malformed = 0

    def take(self, line):
        if not (line.startswith("{") and line.rstrip().endswith("}") and self.key in line):
            self.malformed += 1
        if '"vev_forced_zero": true' in line:
            self.zero += 1

    def check(self):
        if self.malformed:
            return f"{self.malformed} malformed lines"
        if self.lines != self.want:
            return f"{self.lines} lines, want {self.want}"
        if self.want_zero is not None and self.zero != self.want_zero:
            return f"{self.zero} forced-zero terms, want {self.want_zero}"
        return None


class FirstLine(Checker):
    def __init__(self, want: str, rows: int | None = None):
        super().__init__()
        self.want, self.rows, self.first = want, rows, None

    def take(self, line):
        if self.first is None:
            self.first = line

    def check(self):
        if self.first != self.want:
            return f"first line {self.first!r}, want {self.want!r}"
        if self.rows is not None and self.lines != self.rows:
            return f"{self.lines} lines, want {self.rows}"
        return None


class JsonDocument(Checker):
    """A whole-output JSON document judged by a predicate that returns None
    or a reason."""

    def __init__(self, judge: Callable[[dict], str | None]):
        super().__init__()
        self.judge, self.parts = judge, []

    def take(self, line):
        self.parts.append(line)

    def check(self):
        try:
            doc = json.loads("".join(self.parts))
        except ValueError as exc:
            return f"not JSON: {exc}"
        return self.judge(doc)


def judge_adiabatic(c_mis: float):
    def judge(doc):
        for side in ("advanced", "retarded"):
            rep = doc[side]
            if rep["converged"] != (c_mis == 0.0):
                return f"{side}: converged = {rep['converged']} at c_mis = {c_mis}"
            if c_mis and not slope_ok(rep["log_slope"][1], c_mis):
                return f"{side}: log slope {rep['log_slope'][1]}, want {c_mis * SLOPE_PER_CMIS}"
        return None

    return judge


# --------------------------------------------------------------------------- jobs


@dataclass
class Job:
    name: str
    argv: list[str]  # arguments after `egqft`
    checker: Callable[[], Checker]
    role: str = ""  # "heavy" or "small": the timing the job's wall time feeds
    items: int = 0  # work items (lines or grid points) the job produces


def _wick(model, n, role=""):
    lines = SUBPOLY_ALL[model] ** n
    zero = (scalar_model_forced_zero(n) if model == "scalar_model"
            else QED_FORCED_ZERO[(model, n)])
    args = ",".join(["L"] * n)
    return Job(f"wick {model} {args}", ["wick", "--model", model, "--args", args],
               lambda: TermStream(lines, zero), role, lines)


def _pairings(n):
    # phi psi^2 per argument: n phi and 2n psi on each side
    lines = partial_matchings(n, n) * partial_matchings(2 * n, 2 * n)
    side = ",".join(["L"] * n)
    return Job(f"pairings L^{n}", ["pairings", "--model", "scalar_model", "--left", side,
                                   "--right", side],
               lambda: TermStream(lines, key='"classification": '), items=lines)


def _small_commands(rng: random.Random) -> list[Job]:
    model, c = rng.choice(sorted(VERTEX)), rng.choice((0, 1))
    verdict = classify_verdict(model, c)
    n_phi, n_psi = rng.randint(0, 2), rng.randint(0, 2)
    d_phi = rng.randint(0, 1) if n_phi else 0
    argv = ["omega", "--model", "scalar_model", "--ext", f"phi={n_phi},psi={n_psi}"]
    if d_phi:
        argv += ["--der", f"phi={d_phi}"]
    want = str(omega_expected("scalar_model", [("phi", (d_phi,), 1 if d_phi else 0),
                                               ("phi", (0,), n_phi - (1 if d_phi else 0)),
                                               ("psi", (0,), n_psi)]))
    return [
        Job("subpolys spinor_qed_massive", ["subpolys", "--model", "spinor_qed_massive"],
            lambda: FirstLine("vertex,signature,dim,representative", SPINOR_SPECIES_ROWS + 1),
            "small"),
        Job(f"classify {model} c={c}", ["classify", "--model", model, "--c", str(c)],
            lambda: FirstLine(verdict), "small"),
        Job(f"omega phi={n_phi},psi={n_psi},dphi={d_phi}", argv,
            lambda: FirstLine(want, 1), "small"),
    ]


def cli_symbolic_pass(rng: random.Random, tiny: bool = False) -> list[Job]:
    """Exact half through the CLI: Wick and pairing streams plus three
    rounds of the small commands, which are mostly import (three rounds give
    the light-job median enough samples)."""
    if tiny:
        jobs = [_wick("scalar_model", 2, "heavy"), _wick("scalar_model", 3), _pairings(1)]
    else:
        jobs = [_wick("spinor_qed_massive", 2, "heavy"), _wick("scalar_qed_massive", 2),
                _wick("scalar_model", 3), _pairings(2)]
    for _ in range(1 if tiny else 3):
        jobs += _small_commands(rng)
    rng.shuffle(jobs)
    return jobs


def adiabatic_job() -> Job:
    """The cold ``adiabatic`` command: import plus one second-order kit build."""
    return Job("adiabatic cmis=1", ["adiabatic", "--model", "scalar_model", "--cmis", "1"],
               lambda: JsonDocument(judge_adiabatic(1.0)), "heavy")


# --------------------------------------------------------------------------- library session inputs


def omega_queries(rng: random.Random, n: int):
    """Random external-leg lists in the shape of acceptance criterion 1:
    1-3 sub-multi-indices, 0-2 occurrences of each field, first-order
    derivatives on scalar-model fields.  Spinor lists with an odd fermion
    count are redrawn, as the criterion does.  Two queries in three are on
    spinor QED, as the criterion has two QED models to one scalar model.
    Returns (model, items, expected omega) with items a list of
    [(field, alpha, 1), ...]."""
    out = []
    while len(out) < n:
        model = ("spinor_qed_massless", "spinor_qed_massless", "scalar_model")[len(out) % 3]
        fields = sorted(FIELD_DIMS[model])
        items = []
        for _ in range(rng.randint(1, 3)):
            entries = []
            for f in fields:
                for _ in range(rng.randint(0, 2)):
                    alpha = [0, 0, 0, 0]
                    if model == "scalar_model" and rng.random() < 0.4:
                        alpha[rng.randrange(4)] = 1
                    entries.append((f, tuple(alpha), 1))
            items.append(entries)
        flat = [e for item in items for e in item]
        if model == "spinor_qed_massless" and sum(1 for f, _, _ in flat if f.startswith("psi")) % 2:
            continue
        out.append((model, items, omega_expected(model, flat)))
    return out


def selfenergy_grids(rng: random.Random, tiny: bool = False) -> list[list[float]]:
    """Dyadic grids through 0 and across the threshold 4m^2 = 4, so every
    grid point is exact in binary and Sigma(0) is evaluated exactly at 0.

    Points on the cut cost the most.  A seeded shift j puts 31 - j of 64
    points there, and its partner shift 32 - j puts j - 1, so every pass
    has 30 cut points whatever the seed.
    """
    if tiny:
        j = rng.randint(1, 2)
        return [[float(i - j) for i in range(8)]]
    j = rng.randint(8, 24)
    return [[(i - k) * 0.125 for i in range(64)] for k in (j, 32 - j)]


def sweep_c_mis(rng: random.Random) -> float:
    """The seeded nonzero mis-normalization of the demonstration sweep."""
    return round(rng.uniform(0.25, 2.0), 6)


DEMO_GRID = [(fam, prof) for fam in ("gauss", "asym") for prof in ("one", "vanishing")]
