"""One pass of the library-session workload, shared by the session worker
and the traced suite.

Every call goes through a module attribute looked up at call time
(``pc.omega_massless``, ``cs.dispersion_eval``, ``al.appendix_c_demo``), so
the tracer's wrappers see it.  Imports numpy and egqft; the harness never
imports this module.
"""
from __future__ import annotations

import random
import time
import warnings

import egqft.adiabatic_limits as al
import egqft.causal_splitting as cs
import egqft.model_registry as mr
import egqft.power_counting as pc
from egqft.symbolic_fields import Generator, SuperQuadriIndex, canonical_dim

import workloads as wl

QUERIES = 200


class Session:
    """Models built once; the kit is built by the first demonstration."""

    def __init__(self):
        self.models = {name: mr.builtin(name) for name in wl.FIELD_DIMS}
        self.demo_model = self.models["scalar_model"]
        self.self_energy = self._self_energy(self.demo_model)

    @staticmethod
    def _self_energy(model):
        """The one-loop bubble of the model's heaviest field, centrally
        normalized, built as ``egqft selfenergy --nsub central`` builds it."""
        m = max(e.numbers.mass for e in model.fields.entries)
        se = cs.SelfEnergy(cs.bubble_density(m, m))
        # self-energy block: two vertices, each with one external leg removed
        om = pc.omega_general([canonical_dim(model.vertices[0][1]) - 1] * 2, model.c_const)
        return cs.central_normalize(se, 0 if om is pc.VANISHING_SECTOR else om)

    def warm(self) -> None:
        """Build and cache the second-order kit the way a user does: run the
        c_mis = 0 demonstration once."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            al.appendix_c_demo(self.demo_model, 0.0)

    def _slist(self, model, items):
        table = model.fields
        return pc.SList(tuple(
            SuperQuadriIndex.from_pairs((Generator(table.index(f), alpha), m) for f, alpha, m in item)
            for item in items
        ))

    def queries(self, rng: random.Random, n: int):
        """Run n omega_massless queries; returns (failures, wall)."""
        qs = [(self.models[name], self._slist(self.models[name], items), want)
              for name, items, want in wl.omega_queries(rng, n)]
        failures = []
        t0 = time.perf_counter()
        for model, u, want in qs:
            try:
                got = pc.omega_massless(model, u)
            except Exception as exc:  # a query that raises is a failed query
                got = exc
            if (None if got is pc.VANISHING_SECTOR else got) != want:
                failures.append(f"omega {model.name}: got {got!r}, want {want!r}")
        return failures, time.perf_counter() - t0

    def self_energy_tables(self, grids):
        """Sigma(q^2) on each grid, every point checked against the bubble's
        closed form; returns (failures, points, wall)."""
        failures, points = [], 0
        t0 = time.perf_counter()
        for grid in grids:
            for q2 in grid:
                points += 1
                try:
                    v = cs.dispersion_eval(self.self_energy, q2, "feynman")
                except Exception as exc:  # a point that raises is a failed point
                    failures.append(f"selfenergy q2={q2}: {exc!r}")
                    continue
                why = wl.sigma_failure(q2, v.real, v.imag)
                if why:
                    failures.append(f"selfenergy: {why}")
        return failures, points, time.perf_counter() - t0

    def sweep(self, c_mis: float):
        """appendix_c_demo over c_mis in {0, c_mis} x families x f-profiles,
        then gl_vs_eg_second_order at its default and at c_mis = 1.
        Returns (failures, calls, wall, wall of each appendix_c_demo call,
        eps samples)."""
        m, failures, samples, demo_s = self.demo_model, [], 0, []
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for c in (0.0, c_mis):
                for fam, prof in wl.DEMO_GRID:
                    family = al.gaussian_family(4) if fam == "gauss" else al.asymmetric_family(4)
                    t_call = time.perf_counter()
                    try:
                        rep = al.appendix_c_demo(m, c, family=family, f_profile=prof)
                    except Exception as exc:  # a demonstration that raises has failed
                        failures.append(f"appendix {fam}/{prof} c={c}: {exc!r}")
                        continue
                    demo_s.append(time.perf_counter() - t_call)
                    samples += 2 * len(family.epsilons)
                    bad = [f"converged={side.converged} slope={side.log_slope}"
                           for side in (rep.advanced, rep.retarded)
                           if side.converged != (c == 0.0)
                           or (c and not wl.slope_ok(side.log_slope.imag, c))]
                    if bad:
                        failures.append(f"appendix {fam}/{prof} c={c}: {'; '.join(bad)}")
            for c in (0.0, 1.0):
                try:
                    rep = al.gl_vs_eg_second_order(m, c_mis=c)
                except Exception as exc:
                    failures.append(f"gl_vs_eg c={c}: {exc!r}")
                    continue
                samples += len(rep.samples)
                if (rep.exponent > wl.GL_FLOOR) != (c == 0.0):
                    failures.append(f"gl_vs_eg c={c}: exponent {rep.exponent}")
        calls = 2 * len(wl.DEMO_GRID) + 2
        return failures, calls, time.perf_counter() - t0, demo_s, samples


def run_pass(session: Session, rng: random.Random, n_queries: int = QUERIES,
             tiny: bool = False) -> dict:
    """One library pass; timings in seconds."""
    t0 = time.perf_counter()
    q_fail, q_wall = session.queries(rng, n_queries)
    e_fail, points, e_wall = session.self_energy_tables(wl.selfenergy_grids(rng, tiny))
    s_fail, s_calls, s_wall, demo_s, samples = session.sweep(wl.sweep_c_mis(rng))
    return {
        "pass_s": time.perf_counter() - t0,
        "attempted": n_queries + points + s_calls,
        "failures": q_fail + e_fail + s_fail,
        "queries": n_queries,
        "queries_s": q_wall,
        "q2_points": points,
        "q2_s": e_wall,
        "sweep_s": s_wall,
        "demo_s": demo_s,
        "eps_samples": samples,
    }
