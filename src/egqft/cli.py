"""Command-line front end.

Subcommands: classify, subpolys, omega, wick, pairings, selfenergy,
adiabatic, glcheck, sdestimate.  Every subcommand supports --format
json|csv and --manifest out.json.  Exit codes: 0 success, 1 domain error
(a DomainError, with a diagnostic naming the violated condition), 2 usage
error.  A library warning is one stderr line, "egqft <cmd>: warning: ...".
Symbolic term streams are emitted as JSON lines, one term per line, in a
deterministic order.

run() loads --model once; each subcommand runs its library calls on it and
returns (model, records), the model the manifest hashes (classify --c
replaces it).  run() then writes the records, dicts as JSON or preformatted
lines, so a domain error leaves no --out file behind.  The manifest's params
are the parsed options, every one except --out and --manifest.

Each subcommand imports only the modules it runs: only the numeric ones
(selfenergy, adiabatic, glcheck, sdestimate) import the numeric modules and
only the last three numpy, only wick and pairings import wick_pairing, only
--manifest imports hashlib, and only JSON output (--format json, a manifest)
imports json.  No subcommand imports scipy.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import sys
import time
import warnings

from . import __version__
from .exact import DomainError
from .model_registry import (
    ModelError,
    load_model,
    parse_polynomial,
    serialize_model_spec,
    validate,
)
from .symbolic_fields import (
    Generator,
    Polynomial,
    SuperQuadriIndex,
    canonical_dim,
    species_signature,
    subpolynomials,
)

# Library calls held as attributes of this module, which the package resolves
# on first access (PEP 562), so each subcommand loads only the modules it
# runs.  The commands look them up on the module at call time, so that a
# wrapper set over one (bench/tracer.py times them) takes effect.
_LAZY_CALLS = (
    "omega_massless", "wick_expand", "complete_pairings",
    "dispersion_eval", "appendix_c_demo", "gl_vs_eg_second_order",
)
_cli = sys.modules[__name__]


def __getattr__(name):
    if name not in _LAZY_CALLS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)


def _model_hash(model) -> str:
    import hashlib  # only a manifest needs it

    text = serialize_model_spec(model)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _write_manifest(fh, subcommand, model, params, t0):
    import json  # only JSON output needs it

    manifest = {
        "subcommand": subcommand,
        "model_hash": _model_hash(model) if model is not None else None,
        "params": params,
        "tool_version": __version__,
        "wall_time_s": round(time.monotonic() - t0, 6),
    }
    with fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _sqi_json(model, s: SuperQuadriIndex):
    return [
        {"field": model.fields.gen_name(Generator(g.field)), "alpha": list(g.alpha), "mult": m}
        for g, m in s.entries
    ]


def _csv_quoted(text: str) -> str:
    return '"' + text.replace('"', "'") + '"'


# --------------------------------------------------------------------------- option types


def _finite(spec: str) -> float:
    """A finite float: the argparse type of --cmis and the bounds of --q2grid."""
    try:
        x = float(spec)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {spec!r}")
    return x


def _q2_grid(spec: str) -> tuple[float, float, int]:
    """The bounds and count (a, b, n) of --q2grid a:b:n, unspaced: finite a
    and b whose span b - a is finite too, and n >= 1."""
    try:
        a, b, n = spec.split(":")
        a, b, n = _finite(a), _finite(b), int(n)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"expected a:b:n with finite a and b, got {spec!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"need n >= 1 grid points, got {spec!r}")
    if not math.isfinite(b - a):
        raise argparse.ArgumentTypeError(f"the span b - a overflows, got {spec!r}")
    return a, b, n


def _q2_points(spec: str) -> list[float]:
    """The grid a:b:n of --q2grid (n >= 1 points), bit for bit as
    numpy.linspace spaces it: a + i (b - a) / (n - 1), with b the last point."""
    a, b, n = _q2_grid(spec)
    if n == 1:
        return [0.0 * (b - a) + a]
    step = (b - a) / (n - 1)
    if step == 0:  # underflow: numpy scales i / (n - 1) by b - a instead
        return [i / (n - 1) * (b - a) + a for i in range(n - 1)] + [b]
    return [i * step + a for i in range(n - 1)] + [b]


def _n_sub(spec: str) -> str:
    """argparse type of --nsub: 'central' or a subtraction count n >= 0."""
    try:
        ok = spec == "central" or int(spec) >= 0
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0 or 'central', got {spec!r}")
    return spec


def _positive_int(spec: str) -> int:
    """argparse type of --dim and --neps: an integer >= 1."""
    try:
        n = int(spec)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {spec!r}")
    return n


def _parse_counts(spec: str | None) -> dict[str, int]:
    """name=count pairs of --ext and --der: each name once, each count >= 0."""
    out = {}
    for item in spec.split(",") if spec else ():
        name, _, val = item.partition("=")
        name = name.strip()
        try:
            if not name:
                raise ValueError
            count = int(val)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected name=count[,name=count...], got {spec!r}"
            ) from None
        if name in out or count < 0:
            why = "given twice" if name in out else f"has a negative count {count}"
            raise argparse.ArgumentTypeError(f"field {name!r} {why} in {spec!r}")
        out[name] = count
    return out


def _checked(parse):
    """argparse type: reject what `parse` cannot read, keep the text itself
    (the manifest records the option as given)."""

    def check(spec: str) -> str:
        parse(spec)
        return spec

    return check


# --------------------------------------------------------------------------- subcommands


def _cmd_classify(args, model):
    if args.c is not None:
        model = model._replace(c_const=args.c)
    verdict = validate(model)
    if args.format == "json":
        return model, [{
            "model": model.name,
            "c": model.c_const,
            "renormalizability": verdict.renormalizability,
            "wal_eligible": verdict.wal_eligible,
            "reasons": verdict.reasons,
        }]
    flag = "wAL-eligible" if verdict.wal_eligible else "not wAL-eligible"
    lines = [f"{verdict.renormalizability}; {flag}"] + [f"# {r}" for r in verdict.reasons]
    return model, lines


def _cmd_subpolys(args, model):
    rows = []
    for cname, poly in model.vertices:
        for s, q in subpolynomials(poly, view=args.view):
            sig = species_signature(s, model.fields)
            sig_str = "*".join(
                f"{sp}{''.join(f'd[{mu}]' * a[mu] for mu in range(4))}"
                + (f"^{m}" if m > 1 else "")
                for (sp, a), m in sig
            ) or "1"
            rows.append(
                {
                    "vertex": cname,
                    "signature": sig_str,
                    "dim": str(canonical_dim(q)),
                    "representative": repr(q),
                }
            )
    if args.format == "json":
        return model, rows
    return model, ["vertex,signature,dim,representative"] + [
        f"{r['vertex']},{r['signature']},{r['dim']},{_csv_quoted(r['representative'])}"
        for r in rows
    ]


def _cmd_omega(args, model):
    from .power_counting import VANISHING_SECTOR, CountingError, SList

    exts = _parse_counts(args.ext)
    der_counts = _parse_counts(args.der)
    ders = dict(der_counts)
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
    val = _cli.omega_massless(model, u)
    if args.format == "json":
        return model, [{
            "model": model.name,
            "ext": exts,
            "der": der_counts,
            "omega": None if val is VANISHING_SECTOR else val,
            "vanishing_sector": val is VANISHING_SECTOR,
        }]
    return model, ["vanishing-sector" if val is VANISHING_SECTOR else f"{val}"]


def _resolve_arg_poly(model, token: str) -> Polynomial:
    """A --args/--left/--right item: L or Lk (k-th vertex), a coupling name,
    or a free-form vertex expression."""
    token = token.strip()
    if token == "L" or (token.startswith("L") and token[1:].isdigit()):
        k, n = int(token[1:] or 1), len(model.vertices)
        if not 1 <= k <= n:
            raise ModelError(
                f"argument {token!r}: no such vertex; valid references are L1..L{n}"
                if n else f"argument {token!r}: the model has no vertices"
            )
        return model.vertices[k - 1][1]
    for cname, poly in model.vertices:
        if cname == token:
            return poly
    try:
        return parse_polynomial(model.fields, token)
    except ModelError as exc:
        raise ModelError(f"argument {token!r}: {exc}") from None


def _cmd_wick(args, model):
    polys = [_resolve_arg_poly(model, tok) for tok in args.args.split(",")]
    terms = _cli.wick_expand(polys)
    if args.format == "json":
        import json

        # the line json.dumps(record, sort_keys=True) writes for the record
        # {s_list, sign, weight, vev_args, normal_monomials, vev_forced_zero}
        return model, _wick_lines(
            terms,
            sqi=lambda s: json.dumps(_sqi_json(model, s), sort_keys=True),
            arg=lambda p: json.dumps(repr(p)),
            weight=lambda w: json.dumps(repr(w)),
            line=lambda sign, w, s, n, zero, a: (
                f'{{"normal_monomials": [{n}], "s_list": [{s}], "sign": {sign}, '
                f'"vev_args": [{a}], "vev_forced_zero": {("false", "true")[zero]}, '
                f'"weight": {w}}}'
            ),
            sep=", ",
        )

    lines = _wick_lines(
        terms,
        sqi=lambda s: model.fields.monomial_name(s) or "1",
        # _csv_quoted of the ';'-joined arguments, one argument at a time
        arg=lambda p: repr(p).replace('"', "'"),
        weight=repr,
        line=lambda sign, w, s, n, zero, a: f'{sign},{w},{s},{n},{int(zero)},"{a}"',
        sep=";",
    )
    header = "sign,weight,s_list,normal_monomials,vev_forced_zero,vev_args"
    return model, itertools.chain([header], lines)


def _wick_lines(terms, sqi, arg, weight, line, sep):
    """One output line per Wick term.  Terms share their candidates' objects,
    so each s, B^(s) and weight is rendered once, on first sight, and a line
    joins rendered fragments.  Only those shared objects are rendered: the
    expansion keeps them alive while it streams, but drops each term and its
    SList after their line, so their ids are reused.  The s-list is joined
    once and written in both its columns, s_list and normal_monomials: the
    normal-ordered remainder of each argument is its s."""
    sqi, arg, weight = _rendered_once(sqi), _rendered_once(arg), _rendered_once(weight)
    for t in terms:
        monomials = sep.join(map(sqi, t.s_list.items))
        yield line(
            t.sign,
            weight(t.weight),
            monomials,
            monomials,
            t.vev_forced_zero,
            sep.join(map(arg, t.vev_args)),
        )


def _rendered_once(render):
    """render, computed once per object.  The cache is keyed on id():
    hashing a Polynomial costs more than rendering it.  Every object
    rendered must stay alive while the cache is used, or a new object could
    take its id and its text."""
    cache = {}

    def rendered(obj):
        text = cache.get(id(obj))
        if text is None:
            text = cache[id(obj)] = render(obj)
        return text

    return rendered


def _monomial_index(model, token: str) -> SuperQuadriIndex:
    poly = _resolve_arg_poly(model, token)
    if len(poly.terms) != 1:
        raise ModelError(f"{token!r} is not a single monomial")
    return poly.terms[0][0]


def _cmd_pairings(args, model):
    left = [_monomial_index(model, t) for t in args.left.split(",")]
    right = [_monomial_index(model, t) for t in args.right.split(",")]
    terms = _cli.complete_pairings(
        left, right, model, require_full=args.full, force=args.force
    )
    name = model.fields.gen_name
    # each shared pair, residual and const is rendered once; a line joins fragments
    if args.format == "json":
        import json

        # the line json.dumps(record, sort_keys=True) writes for the record
        # {pairs, residual_left, residual_right, const, classification}
        const = _rendered_once(lambda c: json.dumps(repr(c)))
        pair = _rendered_once(lambda p: json.dumps({
            "left_slot": p.left_slot, "left": name(p.left_gen), "right_slot": p.right_slot,
            "right": name(p.right_gen), "mass": p.mass}, sort_keys=True))
        residual = _rendered_once(
            lambda sl: json.dumps([_sqi_json(model, s) for s in sl.items], sort_keys=True)
        )
        return model, (
            f'{{"classification": "{t.classification}", "const": {const(t.const)}, '
            f'"pairs": [{", ".join(map(pair, t.pairs))}], '
            f'"residual_left": {residual(t.residual_left)}, '
            f'"residual_right": {residual(t.residual_right)}}}'
            for t in terms
        )
    const = _rendered_once(repr)
    pair = _rendered_once(
        lambda p: f"{p.left_slot}:{name(p.left_gen)}-{p.right_slot}:{name(p.right_gen)}"
    )
    return model, itertools.chain(["const,classification,pairs"], (
        f"{const(t.const)},{t.classification},{';'.join(map(pair, t.pairs))}" for t in terms
    ))


def _cmd_selfenergy(args, model):
    from .causal_splitting import SplittingError, model_self_energy

    q2s = _q2_points(args.q2grid)
    se = model_self_energy(model, args.nsub)
    rows = [(q2, _cli.dispersion_eval(se, q2, args.mode)) for q2 in q2s]
    # Re Sigma_n grows like (q^2)^(n-1): far out it can leave the float range
    for q2, v in rows:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise SplittingError(
                f"Sigma at q^2 = {q2!r} with n_sub = {se.n_sub} is {v!r}, "
                f"outside the float range"
            )
    if args.format == "json":
        return model, [
            {"q2": q2, "re": v.real, "im": v.imag} for q2, v in rows
        ]
    return model, ["q2,re_sigma,im_sigma"] + [
        f"{q2:.12g},{v.real:.12g},{v.imag:.12g}" for q2, v in rows
    ]


def _family(kind: str, neps: int | None):
    from .adiabatic_limits import asymmetric_family, epsilon_schedule, gaussian_family

    family = gaussian_family if kind == "gauss" else asymmetric_family
    return family(4) if neps is None else family(4, epsilons=epsilon_schedule(neps))


def _limit_report_json(rep):
    return {
        "estimate": [rep.estimate.real, rep.estimate.imag],
        "converged": rep.converged,
        "log_slope": [rep.log_slope.real, rep.log_slope.imag],
        "slope_sigma": rep.slope_sigma,
        "family": rep.family,
        "samples": [[e, v.real, v.imag] for e, v in rep.samples],
    }


def _cmd_adiabatic(args, model):
    rep = _cli.appendix_c_demo(
        model, args.cmis, family=_family(args.family, args.neps),
        f_profile=args.fprofile,
    )
    if args.format == "json":
        return model, [{
            "model": model.name,
            "c_mis": args.cmis,
            "f_profile": args.fprofile,
            "advanced": _limit_report_json(rep.advanced),
            "retarded": _limit_report_json(rep.retarded),
            "difference": _limit_report_json(rep.difference),
        }]
    return model, ["eps,re_adv,im_adv,re_ret,im_ret"] + [
        f"{e:.8g},{va.real:.12g},{va.imag:.12g},{vr.real:.12g},{vr.imag:.12g}"
        for (e, va), (_, vr) in zip(rep.advanced.samples, rep.retarded.samples)
    ]


def _cmd_glcheck(args, model):
    rep = _cli.gl_vs_eg_second_order(
        model, family=_family(args.family, args.neps), c_mis=args.cmis
    )
    if args.format == "json":
        return model, [{
            "model": model.name,
            "exponent": rep.exponent,
            "exponent_sigma": rep.exponent_sigma,
            "order0_difference": rep.order0_difference,
            "normalized": rep.normalized,
            "samples": [[e, m] for e, m in rep.samples],
        }]
    return model, (
        ["eps,abs_difference"]
        + [f"{e:.8g},{mres:.12g}" for e, mres in rep.samples]
        + [f"# fitted decay exponent = {rep.exponent:.6g}"]
    )


def _cmd_sdestimate(args, model):
    from .adiabatic_limits import scaling_degree_estimate, target_pairing

    est = scaling_degree_estimate(target_pairing(args.target, args.dim), args.dim)
    if args.format == "json":
        return None, [{
            "target": args.target,
            "dim": args.dim,
            "estimate": est.value,
            "slope": est.slope,
            "residual": est.residual,
            "ok": est.ok,
            "note": est.note,
        }]
    return None, [
        f"scaling degree estimate: {est.value:.4f} (residual {est.residual:.2e})"
    ]


# --------------------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="egqft",
        description="Symbolic + numeric workbench for causal perturbation theory",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, default_format="csv"):
        if p.prog != "egqft sdestimate":  # the one command without a model
            p.add_argument("--model", required=True)
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        p.add_argument("--manifest", help="write a reproducibility manifest to this path")
        p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("classify", help="renormalizability and eligibility verdicts")
    p.add_argument("--c", type=int, default=None, help="override the scaling constant c")
    common(p)

    p = sub.add_parser("subpolys", help="sub-polynomial table of the interaction vertices")
    p.add_argument("--view", choices=("species", "constant", "all"), default="species")
    common(p)

    p = sub.add_parser("omega", help="power-counting index for an external-leg pattern")
    p.add_argument("--ext", required=True, type=_checked(_parse_counts), help="e.g. phi=2,psi=0")
    p.add_argument("--der", type=_checked(_parse_counts), help="total derivative counts, e.g. phi=1")
    common(p)

    p = sub.add_parser("wick", help="causal Wick expansion term stream (JSON lines)")
    p.add_argument("--args", required=True, help="comma list: vertex names or scalar monomials")
    common(p, default_format="json")

    p = sub.add_parser("pairings", help="complete-pairing term stream (JSON lines)")
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
    p.add_argument("--q2grid", required=True, type=_checked(_q2_grid), help="a:b:n")
    p.add_argument("--nsub", default="central", type=_n_sub, help="integer or 'central'")
    p.add_argument("--mode", choices=("feynman", "advanced", "retarded"), default="feynman")
    common(p)

    p = sub.add_parser(
        "adiabatic",
        help="second-order smeared-limit demonstration",
        epilog="CSV columns: eps, re_adv, im_adv, re_ret, im_ret.",
    )
    p.add_argument("--cmis", type=_finite, default=0.0)
    p.add_argument("--family", choices=("gauss", "asym"), default="gauss")
    p.add_argument("--fprofile", choices=("one", "vanishing"), default="one")
    p.add_argument("--neps", type=_positive_int, default=None,
                   help="length of the epsilon schedule (at least 6)")
    common(p, default_format="json")

    p = sub.add_parser(
        "glcheck",
        help="ratio-vs-direct second-order decay check",
        epilog="CSV columns: eps, abs_difference; the fitted exponent is a "
        "trailing comment line.",
    )
    p.add_argument("--cmis", type=_finite, default=0.0)
    p.add_argument("--family", choices=("gauss", "asym"), default="gauss")
    p.add_argument("--neps", type=_positive_int, default=None,
                   help="length of the epsilon schedule (at least 2)")
    common(p)

    p = sub.add_parser("sdestimate", help="numeric Steinmann scaling-degree estimate")
    p.add_argument("--target", choices=("delta", "ddelta", "smooth"), default="delta")
    p.add_argument("--dim", type=_positive_int, default=4)
    common(p)

    return ap


# subcommand -> (command, JSON indent of its records)
_DISPATCH = {
    "classify": (_cmd_classify, None),
    "subpolys": (_cmd_subpolys, None),
    "omega": (_cmd_omega, None),
    "wick": (_cmd_wick, None),
    "pairings": (_cmd_pairings, None),
    "selfenergy": (_cmd_selfenergy, None),
    "adiabatic": (_cmd_adiabatic, 2),
    "glcheck": (_cmd_glcheck, 2),
    "sdestimate": (_cmd_sdestimate, None),
}


_BLOCK_CHARS = 1 << 16  # characters of output lines per write


def _emptied(fh):
    """fh, truncated first when it is a regular file (a device such as
    /dev/null cannot be truncated)."""
    if fh and os.path.isfile(fh.name):
        fh.truncate(0)
    return fh


def run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():
        # a library warning is one diagnostic line, not a source excerpt
        warnings.showwarning = lambda message, *_: print(
            f"egqft {args.cmd}: warning: {message}", file=sys.stderr)
        return _run(args)


def _run(args) -> int:
    t0 = time.monotonic()
    command, indent = _DISPATCH[args.cmd]
    params = {k: v for k, v in vars(args).items() if k not in ("cmd", "out", "manifest")}
    try:
        model = load_model(args.model) if "model" in args else None
        model, records = command(args, model)
    except DomainError as exc:
        print(f"egqft {args.cmd}: {exc}", file=sys.stderr)
        return 1
    # dicts are JSON records; strings are lines, written as they are
    records = (_json_record(r, indent) if isinstance(r, dict) else r for r in records)
    # a file this run creates is removed unless the run finishes: an
    # unwritable destination leaves neither file, an unfinished run neither; a
    # file that was there is emptied only when its turn to be written comes
    opened, created, writing = [], [], False
    try:
        for path in (args.out, args.manifest):
            new = path and not os.path.lexists(path)
            opened.append(path and open(path, "a", encoding="utf-8"))
            created += [path] if new else []
        out, manifest = opened
        same = out and manifest and os.path.isfile(out.name)
        if same and os.path.sameopenfile(out.fileno(), manifest.fileno()):
            raise OSError(0, "the same file as --out", manifest.name)
        writing = True
        with _emptied(out) or contextlib.nullcontext(sys.stdout) as fh:
            # lines are joined into blocks of about _BLOCK_CHARS, one write
            # each: an unbuffered stream makes every write a system call
            block, size = [], 0
            for line in records:
                block.append(line)
                size += len(line)
                if size >= _BLOCK_CHARS:
                    fh.write("\n".join(block) + "\n")
                    block, size = [], 0
            if block:
                fh.write("\n".join(block) + "\n")
        if manifest:
            _write_manifest(_emptied(manifest), args.cmd, model, params, t0)
    except BaseException as exc:
        for fh in filter(None, opened):
            fh.close()
        for path in created:
            os.remove(path)
        # e.g. the reader closed stdout, or an interrupt
        if writing or not isinstance(exc, OSError):
            raise
        print(f"egqft {args.cmd}: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0


def _json_record(record: dict, indent: int | None) -> str:
    import json  # only JSON output needs it

    return json.dumps(record, sort_keys=True, indent=indent)


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`); point stdout at devnull so
        # the interpreter's final flush does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
