"""Command-line front end.

Subcommands: classify, subpolys, omega, wick, pairings, selfenergy,
adiabatic, glcheck, sdestimate.  Every subcommand supports --format
json|csv and --manifest out.json.  Exit codes: 0 success, 1 domain error
(with a diagnostic naming the violated condition), 2 usage error.
Symbolic term streams are emitted as JSON lines, one term per line, in a
deterministic order.  EGQFT_THREADS caps worker parallelism.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .causal_splitting import (
    SelfEnergy,
    SplittingError,
    bubble_density,
    central_normalize,
    dispersion_eval,
    scaling_degree_estimate,
)
from .exact import QRat
from .model_registry import (
    ModelError,
    builtin,
    load_model,
    serialize_model_spec,
    validate,
)
from .power_counting import (
    VANISHING_SECTOR,
    CountingError,
    SList,
    omega_massless,
)
from .propagators_kinematics import KinematicsError
from .symbolic_fields import (
    AlgebraError,
    Generator,
    Polynomial,
    SuperQuadriIndex,
    species_signature,
    subpolynomials,
)
from .wick_pairing import WickError, complete_pairings, wick_expand
from .adiabatic_limits import (
    AdiabaticError,
    appendix_c_demo,
    asymmetric_family,
    gaussian_family,
    gl_vs_eg_second_order,
)

DOMAIN_ERRORS = (
    AlgebraError,
    ModelError,
    CountingError,
    WickError,
    SplittingError,
    AdiabaticError,
    KinematicsError,
)


def _model_hash(model) -> str:
    text = serialize_model_spec(model)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write_manifest(path, subcommand, model, params, t0):
    manifest = {
        "subcommand": subcommand,
        "model_hash": _model_hash(model) if model is not None else None,
        "params": params,
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 6),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_stream(args):
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8")
    import contextlib

    return contextlib.nullcontext(sys.stdout)


def _qrat_str(c: QRat) -> str:
    return repr(c)


def _sqi_json(model, s: SuperQuadriIndex):
    return [
        {"field": model.fields.gen_name(Generator(g.field)), "alpha": list(g.alpha), "mult": m}
        for g, m in s.entries
    ]


# --------------------------------------------------------------------------- subcommands


def _cmd_classify(args):
    model = load_model(args.model)
    if args.c is not None:
        if args.model in _builtin_set():
            model = builtin(args.model, c_const=args.c)
        else:
            from dataclasses import replace

            model = replace(model, c_const=args.c)
    verdict = validate(model)
    payload = {
        "model": model.name,
        "c": model.c_const,
        "renormalizability": verdict.renormalizability,
        "wal_eligible": verdict.wal_eligible,
        "reasons": verdict.reasons,
    }
    with _out_stream(args) as out:
        if args.format == "json":
            json.dump(payload, out, sort_keys=True)
            out.write("\n")
        else:
            flag = "wAL-eligible" if verdict.wal_eligible else "not wAL-eligible"
            out.write(f"{verdict.renormalizability}; {flag}\n")
            for r in verdict.reasons:
                out.write(f"# {r}\n")
    return model, {"model": args.model, "c": args.c, "format": args.format}


def _builtin_set():
    from .model_registry import BUILTIN_NAMES

    return set(BUILTIN_NAMES)


def _cmd_subpolys(args):
    model = load_model(args.model)
    rows = []
    for cname, poly in model.vertices:
        for s, q in subpolynomials(poly, view=args.view):
            sig = species_signature(s, model.fields)
            sig_str = "*".join(
                f"{sp}{''.join(f'd[{mu}]' * a[mu] for mu in range(4))}"
                + (f"^{m}" if m > 1 else "")
                for (sp, a), m in sig
            ) or "1"
            from .symbolic_fields import canonical_dim

            rows.append(
                {
                    "vertex": cname,
                    "signature": sig_str,
                    "dim": str(canonical_dim(q)),
                    "representative": repr(q),
                }
            )
    with _out_stream(args) as out:
        if args.format == "json":
            for r in rows:
                json.dump(r, out, sort_keys=True)
                out.write("\n")
        else:
            out.write("vertex,signature,dim,representative\n")
            for r in rows:
                rep = r["representative"].replace('"', "'")
                out.write(f"{r['vertex']},{r['signature']},{r['dim']},\"{rep}\"\n")
    return model, {"model": args.model, "view": args.view}


def _parse_counts(spec: str):
    out = {}
    if not spec:
        return out
    for item in spec.split(","):
        name, _, val = item.partition("=")
        out[name.strip()] = int(val)
    return out


def _cmd_omega(args):
    model = load_model(args.model)
    exts = _parse_counts(args.ext)
    ders = _parse_counts(args.der or "")
    pairs = []
    for name, count in exts.items():
        fidx = model.fields.index(name)
        d = ders.pop(name, 0)
        if d and count == 0:
            raise CountingError(f"derivatives on {name} need at least one occurrence")
        if d:
            pairs.append((Generator(fidx, (d, 0, 0, 0)), 1))
            count -= 1
        if count:
            pairs.append((Generator(fidx), count))
    if ders:
        raise CountingError(f"derivative counts for fields without occurrences: {sorted(ders)}")
    u = SList.of(SuperQuadriIndex.from_pairs(pairs))
    val = omega_massless(model, u)
    payload = {
        "model": model.name,
        "ext": exts,
        "der": _parse_counts(args.der or ""),
        "omega": None if val is VANISHING_SECTOR else val,
        "vanishing_sector": val is VANISHING_SECTOR,
    }
    with _out_stream(args) as out:
        if args.format == "json":
            json.dump(payload, out, sort_keys=True)
            out.write("\n")
        else:
            out.write("vanishing-sector\n" if val is VANISHING_SECTOR else f"{val}\n")
    return model, {"model": args.model, "ext": args.ext, "der": args.der}


def _resolve_arg_poly(model, token: str) -> Polynomial:
    token = token.strip()
    if token == "L" or token == "L1":
        return model.vertices[0][1]
    if token.startswith("L") and token[1:].isdigit():
        return model.vertices[int(token[1:]) - 1][1]
    for cname, poly in model.vertices:
        if cname == token:
            return poly
    from .model_registry import parse_model_spec

    text = serialize_model_spec(model)
    if "[builtin]" in text:
        raise ModelError(
            f"argument {token!r}: free-form monomials are scalar-sector only; "
            f"use vertex names for this model"
        )
    probe = text.replace("[vertices]", f"[vertices]\n__probe__ = {token}", 1)
    parsed = parse_model_spec(probe)
    return _rebind(parsed.vertex("__probe__"), model)


def _rebind(poly: Polynomial, model) -> Polynomial:
    return Polynomial(model.fields, dict(poly.terms))


def _cmd_wick(args):
    model = load_model(args.model)
    polys = [_resolve_arg_poly(model, tok) for tok in args.args.split(",")]
    terms = wick_expand(polys)

    def sqi_str(s):
        return "*".join(
            model.fields.gen_name(g) + (f"^{m}" if m > 1 else "")
            for g, m in s.entries
        ) or "1"

    with _out_stream(args) as out:
        if args.format == "csv":
            out.write("sign,weight,s_list,normal_monomials,vev_forced_zero,vev_args\n")
            for t in terms:
                s_str = ";".join(sqi_str(s) for s in t.s_list.items)
                n_str = ";".join(sqi_str(s) for s in t.normal_monomials)
                a_str = ";".join(repr(p).replace('"', "'") for p in t.vev_args)
                out.write(
                    f'{t.sign},{t.weight!r},{s_str},{n_str},'
                    f'{int(t.vev_forced_zero)},"{a_str}"\n'
                )
        else:
            for t in terms:
                rec = {
                    "s_list": [_sqi_json(model, s) for s in t.s_list.items],
                    "sign": t.sign,
                    "weight": _qrat_str(t.weight),
                    "vev_args": [repr(p) for p in t.vev_args],
                    "normal_monomials": [_sqi_json(model, s) for s in t.normal_monomials],
                    "vev_forced_zero": t.vev_forced_zero,
                }
                json.dump(rec, out, sort_keys=True)
                out.write("\n")
    return model, {"model": args.model, "args": args.args}


def _monomial_index(model, token: str) -> SuperQuadriIndex:
    poly = _resolve_arg_poly(model, token)
    if len(poly.terms) != 1:
        raise ModelError(f"{token!r} is not a single monomial")
    return poly.terms[0][0]


def _cmd_pairings(args):
    model = load_model(args.model)
    left = [_monomial_index(model, t) for t in args.left.split(",")]
    right = [_monomial_index(model, t) for t in args.right.split(",")]
    terms = complete_pairings(
        left, right, model, require_full=args.full, force=args.force
    )
    with _out_stream(args) as out:
        if args.format == "csv":
            out.write("const,classification,pairs\n")
            for t in terms:
                pstr = ";".join(
                    f"{p.left_slot}:{model.fields.gen_name(p.left_gen)}-"
                    f"{p.right_slot}:{model.fields.gen_name(p.right_gen)}"
                    for p in t.pairs
                )
                out.write(f"{t.const!r},{t.classification},{pstr}\n")
            return model, {
                "model": args.model,
                "left": args.left,
                "right": args.right,
                "full": args.full,
            }
        for t in terms:
            rec = {
                "pairs": [
                    {
                        "left_slot": p.left_slot,
                        "left": model.fields.gen_name(p.left_gen),
                        "right_slot": p.right_slot,
                        "right": model.fields.gen_name(p.right_gen),
                        "mass": p.mass,
                    }
                    for p in t.pairs
                ],
                "residual_left": [_sqi_json(model, s) for s in t.residual_left.items],
                "residual_right": [_sqi_json(model, s) for s in t.residual_right.items],
                "const": _qrat_str(t.const),
                "classification": t.classification,
            }
            json.dump(rec, out, sort_keys=True)
            out.write("\n")
    return model, {
        "model": args.model,
        "left": args.left,
        "right": args.right,
        "full": args.full,
    }


def _cmd_selfenergy(args):
    model = load_model(args.model)
    a, b, n = args.q2grid.split(":")
    q2s = np.linspace(float(a), float(b), int(n))
    masses = sorted(
        {e.numbers.mass for e in model.fields.entries if e.numbers.mass > 0}
    )
    m = masses[-1] if masses else 0.0
    se = SelfEnergy(bubble_density(m, m))
    if args.nsub == "central":
        from .power_counting import omega_general
        from .symbolic_fields import canonical_dim

        # self-energy block: two vertices, each with one external leg removed
        dims = [canonical_dim(model.vertices[0][1]) - 1] * 2
        om = omega_general(dims, model.c_const)
        se = central_normalize(se, om if om is not VANISHING_SECTOR else 0)
    else:
        se = SelfEnergy(se.density, n_sub=int(args.nsub))
    rows = list(zip(q2s, dispersion_eval(se, q2s, args.mode)))
    with _out_stream(args) as out:
        if args.format == "json":
            for q2, v in rows:
                json.dump({"q2": float(q2), "re": v.real, "im": v.imag}, out, sort_keys=True)
                out.write("\n")
        else:
            out.write("q2,re_sigma,im_sigma\n")
            for q2, v in rows:
                out.write(f"{float(q2):.12g},{v.real:.12g},{v.imag:.12g}\n")
    return model, {
        "model": args.model,
        "q2grid": args.q2grid,
        "nsub": args.nsub,
        "mode": args.mode,
    }


def _family(kind: str, dim: int = 4, neps: int | None = None):
    from .adiabatic_limits import DEFAULT_EPSILONS

    eps = DEFAULT_EPSILONS if neps is None else tuple(
        0.3 * 2.0 ** (-k / 2.0) for k in range(neps)
    )
    if kind == "gauss":
        return gaussian_family(dim, epsilons=eps)
    if kind == "asym":
        return asymmetric_family(dim, epsilons=eps)
    raise AdiabaticError(f"unknown family {kind!r} (gauss, asym)")


def _limit_report_json(rep):
    return {
        "estimate": [rep.estimate.real, rep.estimate.imag],
        "converged": rep.converged,
        "log_slope": [rep.log_slope.real, rep.log_slope.imag],
        "slope_sigma": rep.slope_sigma,
        "family": rep.family,
        "samples": [[e, v.real, v.imag] for e, v in rep.samples],
        "note": rep.note,
    }


def _cmd_adiabatic(args):
    model = load_model(args.model)
    rep = appendix_c_demo(
        model, args.cmis, family=_family(args.family, neps=args.neps),
        f_profile=args.fprofile,
    )
    payload = {
        "model": model.name,
        "c_mis": args.cmis,
        "f_profile": args.fprofile,
        "advanced": _limit_report_json(rep.advanced),
        "retarded": _limit_report_json(rep.retarded),
        "difference": _limit_report_json(rep.difference),
    }
    with _out_stream(args) as out:
        if args.format == "json":
            json.dump(payload, out, sort_keys=True, indent=2)
            out.write("\n")
        else:
            out.write("eps,re_adv,im_adv,re_ret,im_ret\n")
            for (e, va), (_, vr) in zip(rep.advanced.samples, rep.retarded.samples):
                out.write(f"{e:.8g},{va.real:.12g},{va.imag:.12g},{vr.real:.12g},{vr.imag:.12g}\n")
    return model, {"model": args.model, "cmis": args.cmis, "family": args.family}


def _cmd_glcheck(args):
    model = load_model(args.model)
    rep = gl_vs_eg_second_order(
        model, family=_family(args.family, neps=args.neps), c_mis=args.cmis
    )
    with _out_stream(args) as out:
        if args.format == "json":
            payload = {
                "model": model.name,
                "exponent": rep.exponent,
                "exponent_sigma": rep.exponent_sigma,
                "order0_difference": rep.order0_difference,
                "normalized": rep.normalized,
                "samples": [[e, m] for e, m in rep.samples],
            }
            json.dump(payload, out, sort_keys=True, indent=2)
            out.write("\n")
        else:
            out.write("eps,abs_difference\n")
            for e, mres in rep.samples:
                out.write(f"{e:.8g},{mres:.12g}\n")
            out.write(f"# fitted decay exponent = {rep.exponent:.6g}\n")
    return model, {"model": args.model, "cmis": args.cmis, "family": args.family}


def _cmd_sdestimate(args):
    dim = args.dim

    if args.target == "delta":
        pairing = lambda p: p(np.zeros(dim))
    elif args.target == "ddelta":
        h = 1e-6

        def pairing(p):
            e0 = np.zeros(dim)
            e0[0] = h
            return -(p(e0) - p(-e0)) / (2 * h)

    elif args.target == "smooth":

        def pairing(p):
            xs = np.linspace(-6, 6, 4001)
            pts = np.zeros((xs.size, dim))
            pts[:, 0] = xs
            vals = np.exp(-xs**2) * p(pts)
            return float(np.trapezoid(vals, xs))

    else:
        raise AdiabaticError(f"unknown target {args.target!r}")

    def tilted(x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        return np.exp(-0.5 * r2) * (1.0 + x[..., 0])

    est = scaling_degree_estimate(pairing, dim, base=tilted)
    payload = {
        "target": args.target,
        "dim": dim,
        "estimate": est.value,
        "slope": est.slope,
        "residual": est.residual,
        "ok": est.ok,
        "note": est.note,
    }
    with _out_stream(args) as out:
        if args.format == "json":
            json.dump(payload, out, sort_keys=True)
            out.write("\n")
        else:
            out.write(f"scaling degree estimate: {est.value:.4f} (residual {est.residual:.2e})\n")
    return None, {"target": args.target, "dim": dim}


# --------------------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="egqft",
        description="Symbolic + numeric workbench for causal perturbation theory",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, default_format="csv"):
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        p.add_argument("--manifest", help="write a reproducibility manifest to this path")
        p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("classify", help="renormalizability and eligibility verdicts")
    p.add_argument("--model", required=True)
    p.add_argument("--c", type=int, default=None, help="override the scaling constant c")
    common(p)

    p = sub.add_parser("subpolys", help="sub-polynomial table of the interaction vertices")
    p.add_argument("--model", required=True)
    p.add_argument("--view", choices=("species", "constant", "all"), default="species")
    common(p)

    p = sub.add_parser("omega", help="power-counting index for an external-leg pattern")
    p.add_argument("--model", required=True)
    p.add_argument("--ext", required=True, help="e.g. phi=2,psi=0")
    p.add_argument("--der", help="total derivative counts, e.g. phi=1")
    common(p)

    p = sub.add_parser("wick", help="causal Wick expansion term stream (JSON lines)")
    p.add_argument("--model", required=True)
    p.add_argument("--args", required=True, help="comma list: vertex names or scalar monomials")
    common(p, default_format="json")

    p = sub.add_parser("pairings", help="complete-pairing term stream (JSON lines)")
    p.add_argument("--model", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--full", action="store_true", help="complete contractions only")
    p.add_argument("--force", action="store_true", help="lift the factorial guard")
    common(p, default_format="json")

    p = sub.add_parser(
        "selfenergy",
        help="dispersion-evaluated self-energy on a q^2 grid",
        epilog="CSV columns: q2, re_sigma, im_sigma.",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--q2grid", required=True, help="a:b:n")
    p.add_argument("--nsub", default="central", help="integer or 'central'")
    p.add_argument("--mode", choices=("feynman", "advanced", "retarded"), default="feynman")
    common(p)

    p = sub.add_parser(
        "adiabatic",
        help="second-order smeared-limit demonstration",
        epilog="CSV columns: eps, re_adv, im_adv, re_ret, im_ret.",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--cmis", type=float, default=0.0)
    p.add_argument("--family", default="gauss")
    p.add_argument("--fprofile", choices=("one", "vanishing"), default="one")
    p.add_argument("--neps", type=int, default=None, help="length of the epsilon schedule")
    common(p, default_format="json")

    p = sub.add_parser(
        "glcheck",
        help="ratio-vs-direct second-order decay check",
        epilog="CSV columns: eps, abs_difference; the fitted exponent is a "
        "trailing comment line.",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--cmis", type=float, default=0.0)
    p.add_argument("--family", default="gauss")
    p.add_argument("--neps", type=int, default=None, help="length of the epsilon schedule")
    common(p)

    p = sub.add_parser("sdestimate", help="numeric Steinmann scaling-degree estimate")
    p.add_argument("--target", choices=("delta", "ddelta", "smooth"), default="delta")
    p.add_argument("--dim", type=int, default=4)
    common(p)

    return ap


_DISPATCH = {
    "classify": _cmd_classify,
    "subpolys": _cmd_subpolys,
    "omega": _cmd_omega,
    "wick": _cmd_wick,
    "pairings": _cmd_pairings,
    "selfenergy": _cmd_selfenergy,
    "adiabatic": _cmd_adiabatic,
    "glcheck": _cmd_glcheck,
    "sdestimate": _cmd_sdestimate,
}


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.monotonic()
    try:
        model, params = _DISPATCH[args.cmd](args)
    except DOMAIN_ERRORS as exc:
        print(f"egqft {args.cmd}: {exc}", file=sys.stderr)
        return 1
    if args.manifest:
        _write_manifest(args.manifest, args.cmd, model, params, t0)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
