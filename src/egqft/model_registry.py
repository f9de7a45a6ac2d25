"""Model definitions: field tables, interaction vertices, validation, file format.

A model is a field table plus self-adjoint interaction vertices of vanishing
fermion number and charge, together with the scaling-bound constant c used
by the power counting (c = 4 - dim(vertex) for every vertex of an
eligible model).  Builtins: spinor QED (massive/massless), scalar QED
(massive/massless), and the two-scalar cubic model with one massive and one
massless field.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .exact import I, QRat
from .propagators_kinematics import GAMMA0, METRIC, gamma, mat_mul
from .symbolic_fields import (
    AlgebraError,
    FieldEntry,
    FieldTable,
    Polynomial,
    QuantumNumbers,
    adjoint,
    canonical_dim,
)

BUILTIN_NAMES = (
    "spinor_qed_massive",
    "spinor_qed_massless",
    "scalar_qed_massive",
    "scalar_qed_massless",
    "scalar_model",
)


class ModelError(ValueError):
    pass


class ModelParseError(ModelError):
    """A model-text error; line is None for a lone vertex expression."""

    def __init__(self, msg: str, line: int | None = None, col: int = 0):
        super().__init__(msg if line is None else f"line {line}, col {col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


@dataclass(frozen=True)
class ModelSpec:
    name: str
    fields: FieldTable
    vertices: tuple[tuple[str, Polynomial], ...]
    c_const: int

    def vertex(self, key: str | int) -> Polynomial:
        if isinstance(key, int):
            return self.vertices[key][1]
        for cname, poly in self.vertices:
            if cname == key:
                return poly
        raise ModelError(f"no vertex with coupling name {key!r}")

    def massless_fields(self) -> set[int]:
        return {
            i for i, e in enumerate(self.fields.entries) if e.numbers.mass == 0.0
        }


@dataclass
class ModelVerdict:
    renormalizability: str  # renormalizable | super-renormalizable | nonrenormalizable
    wal_eligible: bool
    reasons: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------- field table builders


def _scalar_entry(name, species, comp, mass, charge, fermion, adjoint):
    return FieldEntry(
        name=name,
        kind="scalar",
        species=species,
        component=comp,
        numbers=QuantumNumbers(fermion, charge, Fraction(1), mass, "bose"),
        adjoint=adjoint,
    )


def _qed_field_table(kind: str, electron_mass: float) -> FieldTable:
    entries = []
    for mu in range(4):
        entries.append(
            FieldEntry(
                name=f"A_{mu}",
                kind="vector",
                species="A",
                component=mu,
                numbers=QuantumNumbers(0, 0, Fraction(1), 0.0, "bose"),
                adjoint=mu,
            )
        )
    if kind == "dirac":
        for a in range(4):
            entries.append(
                FieldEntry(
                    name=f"psi_{a + 1}",
                    kind="dirac",
                    species="psi",
                    component=a,
                    numbers=QuantumNumbers(1, -1, Fraction(3, 2), electron_mass, "fermi"),
                    adjoint=8 + a,
                )
            )
        for a in range(4):
            entries.append(
                FieldEntry(
                    name=f"psi*_{a + 1}",
                    kind="dirac",
                    species="psi*",
                    component=a,
                    numbers=QuantumNumbers(-1, 1, Fraction(3, 2), electron_mass, "fermi"),
                    adjoint=4 + a,
                )
            )
    else:
        entries.append(_scalar_entry("phi", "phi", 0, electron_mass, -1, 0, 5))
        entries.append(_scalar_entry("phi*", "phi*", 0, electron_mass, 1, 0, 4))
    return FieldTable(entries)


def _spinor_qed(massive: bool) -> ModelSpec:
    m = 1.0 if massive else 0.0
    table = _qed_field_table("dirac", m)
    psi = lambda a: Polynomial.of_field(table, f"psi_{a + 1}")
    psistar = lambda a: Polynomial.of_field(table, f"psi*_{a + 1}")
    A = lambda mu: Polynomial.of_field(table, f"A_{mu}")
    vertex = Polynomial.zero(table)
    for mu in range(4):
        g0gmu = mat_mul(GAMMA0, gamma(mu))
        for a in range(4):
            for b in range(4):
                c = g0gmu[a][b]
                if c.is_zero():
                    continue
                vertex = vertex + (psistar(a) * psi(b) * A(mu)).scale(c)
    name = "spinor_qed_massive" if massive else "spinor_qed_massless"
    return ModelSpec(name, table, (("e", vertex),), 0)


def _scalar_qed(massive: bool) -> ModelSpec:
    m = 1.0 if massive else 0.0
    table = _qed_field_table("scalar", m)
    phi = Polynomial.of_field(table, "phi")
    phistar = Polynomial.of_field(table, "phi*")
    vertex = Polynomial.zero(table)
    for mu in range(4):
        alpha = tuple(1 if nu == mu else 0 for nu in range(4))
        dphi = Polynomial.of_field(table, "phi", alpha)
        dphistar = Polynomial.of_field(table, "phi*", alpha)
        # current j^mu = i (phi* d phi - (d phi*) phi), index raised with the metric
        jmu = (phistar * dphi - dphistar * phi).scale(I * METRIC[mu])
        vertex = vertex + Polynomial.of_field(table, f"A_{mu}") * jmu
    name = "scalar_qed_massive" if massive else "scalar_qed_massless"
    return ModelSpec(name, table, (("e", vertex),), 0)


def _scalar_model() -> ModelSpec:
    table = FieldTable(
        [
            _scalar_entry("phi", "phi", 0, 0.0, 0, 0, 0),
            _scalar_entry("psi", "psi", 0, 1.0, 0, 0, 1),
        ]
    )
    phi = Polynomial.of_field(table, "phi")
    psi = Polynomial.of_field(table, "psi")
    vertex = (phi * psi * psi).scale(Fraction(1, 2))
    return ModelSpec("scalar_model", table, (("e", vertex),), 1)


def builtin(name: str, c_const: int | None = None) -> ModelSpec:
    """Builtin model by name; c_const overrides the default scaling constant."""
    builders = {
        "spinor_qed_massive": lambda: _spinor_qed(True),
        "spinor_qed_massless": lambda: _spinor_qed(False),
        "scalar_qed_massive": lambda: _scalar_qed(True),
        "scalar_qed_massless": lambda: _scalar_qed(False),
        "scalar_model": _scalar_model,
    }
    if name not in builders:
        raise ModelError(f"unknown builtin model {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    m = builders[name]()
    if c_const is not None and c_const != m.c_const:
        m = replace(m, name=f"{name}", c_const=c_const)
    return m


# --------------------------------------------------------------------------- validation


def validate(m: ModelSpec) -> ModelVerdict:
    """Check the vertex conditions and weak-adiabatic-limit eligibility.

    Structural defects (dangling field indices, wrong table) raise; physics
    conditions are reported in the verdict.  The Lorentz-scalar property of
    vertices cannot be checked without representation data and is reported
    as unchecked.  The verdict depends on the frozen spec alone, so it is
    computed once per spec; each call returns its own copy.
    """
    verdict = _verdict(m)
    return replace(verdict, reasons=list(verdict.reasons))


@functools.lru_cache(maxsize=64)
def _verdict(m: ModelSpec) -> ModelVerdict:
    from . import power_counting

    reasons: list[str] = []
    if m.c_const not in (0, 1):
        raise ModelError(f"c must be 0 or 1, got {m.c_const}")
    dims = []
    all_massive_ok = True
    for cname, poly in m.vertices:
        if poly.table != m.fields:
            raise ModelError(f"vertex {cname!r} built over a foreign field table")
        for idx, _ in poly.terms:
            for g, _mult in idx.entries:
                m.fields.entry(g.field)
                if g.d_order > 2:
                    raise ModelError(
                        f"vertex {cname!r} carries a derivative of order "
                        f"{g.d_order}; vertices are capped at two derivatives "
                        f"per generator to bound the enumeration"
                    )
        if poly.fermion_number() != 0:
            reasons.append(f"vertex {cname!r} has nonzero fermion number")
        if poly.charge() != 0:
            reasons.append(f"vertex {cname!r} has nonzero charge")
        if adjoint(poly) != poly:
            reasons.append(f"vertex {cname!r} is not self-adjoint")
        d = canonical_dim(poly)
        dims.append(d)
        if d > 4:
            reasons.append(f"vertex {cname!r} has dimension {d} > 4")
        if 4 - d != m.c_const:
            reasons.append(
                f"c = {m.c_const} but vertex {cname!r} has dimension {d}; "
                f"the scaling bound wants c = 4 - dim"
            )
        if d == 3 and not poly.contains_massive_everywhere():
            all_massive_ok = False
    reasons.append("Lorentz-scalar property of vertices: not checked")

    renorm = power_counting.classify(m)
    wal = bool(m.vertices)
    if any("fermion" in r or "charge" in r or "self-adjoint" in r for r in reasons):
        wal = False
    if len(set(dims)) > 1:
        wal = False
        reasons.append("vertices of mixed dimension; eligibility needs all dim 3 or all dim 4")
    elif dims:
        d = dims[0]
        if d == 4 and m.c_const == 0:
            pass
        elif d == 3 and m.c_const == 1:
            if not all_massive_ok:
                wal = False
                reasons.append(
                    "weak-adiabatic-limit eligibility fails: a dimension-3 vertex has a "
                    "monomial without any massive field factor"
                )
        else:
            wal = False
            reasons.append(
                f"weak-adiabatic-limit eligibility fails: dim {d} with c = {m.c_const} "
                f"(need dim 4 with c = 0, or dim 3 with c = 1 and a massive factor in "
                f"every monomial)"
            )
    return ModelVerdict(renormalizability=renorm, wal_eligible=wal, reasons=reasons)


# --------------------------------------------------------------------------- text format

_FACTOR_RE = re.compile(
    r"^(?P<tags>(?:d\[[0-3]\])*)(?P<name>[A-Za-z_][A-Za-z0-9_]*[*~]?)(?:\^(?P<pow>\d+))?$"
)
_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _split_factors(expr: str):
    """Split a monomial on '*', re-attaching stars that conjugate a field name."""
    parts = expr.split("*")
    factors: list[str] = []
    for raw in parts:
        tok = raw.strip()
        if tok == "":
            if not factors:
                raise ModelParseError("monomial starts with '*'")
            factors[-1] += "*"
        else:
            factors.append(tok)
    return [f for f in factors if f]


def _parse_fields_line(tokens, line):
    if len(tokens) != 5:
        raise ModelParseError(
            "field line needs: name kind mass charge fermion", line
        )
    name, kind, mass_s, charge_s, fermion_s = tokens
    if kind not in ("scalar", "dirac", "vector", "ghost"):
        raise ModelParseError(f"unknown field kind {kind!r}", line)
    try:
        mass = float(mass_s)
        charge = int(charge_s)
        fermion = int(fermion_s)
    except ValueError as exc:
        raise ModelParseError(str(exc), line) from None
    if mass < 0:
        raise ModelParseError("mass must be nonnegative", line)
    return name, kind, mass, charge, fermion


def _entries_for(name, kind, mass, charge, fermion, base, line):
    if kind == "scalar":
        if fermion % 2:
            raise ModelParseError("scalar fields need even fermion number (use ghost)", line)
        if charge == 0:
            return [_scalar_entry(name, name, 0, mass, charge, fermion, base)]
        return [
            _scalar_entry(name, name, 0, mass, charge, fermion, base + 1),
            _scalar_entry(name + "*", name + "*", 0, mass, -charge, -fermion, base),
        ]
    if kind == "ghost":
        if fermion % 2 == 0:
            raise ModelParseError("ghost fields need odd fermion number", line)
        stat = "fermi"
        q = QuantumNumbers(fermion, charge, Fraction(1), mass, stat)
        qbar = QuantumNumbers(-fermion, -charge, Fraction(1), mass, stat)
        return [
            FieldEntry(name, "ghost", name, 0, q, base + 1),
            FieldEntry(name + "~", "ghost", name + "~", 0, qbar, base),
        ]
    if kind == "vector":
        if charge != 0 or fermion != 0:
            raise ModelParseError("vector fields must be neutral with fermion 0", line)
        return [
            FieldEntry(
                f"{name}_{mu}",
                "vector",
                name,
                mu,
                QuantumNumbers(0, 0, Fraction(1), mass, "bose"),
                base + mu,
            )
            for mu in range(4)
        ]
    # dirac
    if fermion % 2 == 0:
        raise ModelParseError("dirac fields need odd fermion number", line)
    out = []
    for a in range(4):
        out.append(
            FieldEntry(
                f"{name}_{a + 1}",
                "dirac",
                name,
                a,
                QuantumNumbers(fermion, charge, Fraction(3, 2), mass, "fermi"),
                base + 4 + a,
            )
        )
    for a in range(4):
        out.append(
            FieldEntry(
                f"{name}*_{a + 1}",
                "dirac",
                name + "*",
                a,
                QuantumNumbers(-fermion, -charge, Fraction(3, 2), mass, "fermi"),
                base + a,
            )
        )
    return out


def parse_polynomial(table: FieldTable, expr: str) -> Polynomial:
    """Parse one vertex expression, `rational * monomial`, over a field table.

    Factors are scalar-sector field names with optional derivative tags
    d[mu] and powers ^n; raises ModelParseError naming the bad factor.
    """
    factors = _split_factors(expr)
    coeff = Fraction(1)
    start = 0
    if factors and _RAT_RE.match(factors[0]):
        coeff = Fraction(factors[0])
        start = 1
    poly = Polynomial.unit(table, QRat(coeff))
    nonscalar_species = {e.species for e in table.entries if e.kind in ("dirac", "vector")}
    for f in factors[start:]:
        mobj = _FACTOR_RE.match(f)
        if not mobj:
            raise ModelParseError(f"cannot parse factor {f!r}", col=expr.find(f))
        tags, fname, powstr = mobj.group("tags"), mobj.group("name"), mobj.group("pow")
        alpha = [0, 0, 0, 0]
        for mu in re.findall(r"d\[([0-3])\]", tags):
            alpha[int(mu)] += 1
        kind = next((e.kind for e in table.entries if e.name == fname), None)
        if kind is None and fname.rstrip("*") not in nonscalar_species:
            raise ModelParseError(f"unknown field name {fname!r}", col=expr.find(f))
        if kind not in ("scalar", "ghost"):
            raise ModelParseError(
                f"field {fname!r} is not scalar-sector; spinor/vector vertices are "
                f"available only through builtin models",
                col=expr.find(f),
            )
        factor_poly = Polynomial.of_field(table, fname, tuple(alpha))
        for _ in range(int(powstr) if powstr else 1):
            poly = poly * factor_poly
    return poly


def parse_model_spec(text: str) -> ModelSpec:
    """Parse the line-oriented model format.

    Sections: [fields] (name kind mass charge fermion), [vertices]
    (coupling = rational * monomial, scalar-sector factors only, derivative
    tags d[mu]), [options] (c = 0|1), or a single [builtin] section
    (name = <builtin>).  '#' starts a comment.  A '*' directly after a field
    name is conjugation when that conjugate field exists, otherwise a
    multiplication separator.
    """
    section = None
    raw_fields: list[tuple] = []
    raw_vertices: list[tuple[str, str, int]] = []
    options: dict[str, str] = {}
    builtin_name = None
    sections_seen = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("fields", "vertices", "options", "builtin"):
                raise ModelParseError(f"unknown section [{section}]", lineno)
            sections_seen.add(section)
            continue
        if section is None:
            raise ModelParseError("content before any section header", lineno)
        if section == "fields":
            raw_fields.append((_parse_fields_line(line.split(), lineno), lineno))
        elif section == "vertices":
            if "=" not in line:
                raise ModelParseError("vertex line needs 'coupling = expression'", lineno)
            cname, expr = (s.strip() for s in line.split("=", 1))
            if not cname:
                raise ModelParseError("empty coupling name", lineno)
            raw_vertices.append((cname, expr, lineno))
        elif section == "options":
            if "=" not in line:
                raise ModelParseError("option line needs 'key = value'", lineno)
            k, v = (s.strip() for s in line.split("=", 1))
            options[k] = v
        else:  # builtin
            if "=" not in line:
                raise ModelParseError("builtin section needs 'name = <model>'", lineno)
            _, v = (s.strip() for s in line.split("=", 1))
            builtin_name = v

    if builtin_name is not None:
        if sections_seen - {"builtin"}:
            raise ModelParseError("[builtin] cannot be combined with other sections", 1)
        return builtin(builtin_name)

    entries: list[FieldEntry] = []
    for (name, kind, mass, charge, fermion), lineno in raw_fields:
        entries.extend(_entries_for(name, kind, mass, charge, fermion, len(entries), lineno))
    try:
        table = FieldTable(entries)
    except AlgebraError as exc:
        raise ModelParseError(str(exc), 0) from None

    vertices = []
    for cname, expr, lineno in raw_vertices:
        try:
            vertices.append((cname, parse_polynomial(table, expr)))
        except ModelParseError as exc:
            raise ModelParseError(exc.msg, lineno, exc.col) from None

    c = 1 if not raw_vertices else None
    if "c" in options:
        try:
            c = int(options["c"])
        except ValueError:
            raise ModelParseError(f"c must be an integer, got {options['c']!r}", 0) from None
    if c is None:
        dims = {canonical_dim(p) for _, p in vertices}
        c = 0 if dims == {Fraction(4)} else 1 if dims == {Fraction(3)} else 0
    return ModelSpec(options.get("name", "custom"), table, tuple(vertices), c)


def serialize_model_spec(m: ModelSpec) -> str:
    """Inverse of parse_model_spec; non-scalar builtins serialize by name."""
    if m.name in BUILTIN_NAMES:
        ref = builtin(m.name, c_const=m.c_const)
        if ref == m:
            if any(e.kind in ("dirac", "vector") for e in m.fields.entries):
                return f"[builtin]\nname = {m.name}\n"
    lines = ["[fields]"]
    skip = set()
    for i, e in enumerate(m.fields.entries):
        if i in skip:
            continue
        if e.kind not in ("scalar", "ghost"):
            return f"[builtin]\nname = {m.name}\n"
        if e.adjoint != i:
            skip.add(e.adjoint)
        mass = repr(e.numbers.mass)
        lines.append(
            f"{e.name}  {e.kind}  {mass}  {e.numbers.charge}  {e.numbers.fermion}"
        )
    lines.append("[vertices]")
    for cname, poly in m.vertices:
        if len(poly.terms) != 1:
            raise ModelError(f"vertex {cname!r} is not a single monomial; cannot serialize")
        idx, coeff = poly.terms[0]
        if coeff.im != 0:
            raise ModelError(f"vertex {cname!r} has a non-real coefficient; cannot serialize")
        factors = []
        for g, mult in idx.entries:
            name = m.fields.gen_name(g)
            factors.append(name + (f"^{mult}" if mult > 1 else ""))
        lines.append(f"{cname} = {coeff.re} * " + "*".join(factors))
    lines.append("[options]")
    lines.append(f"c = {m.c_const}")
    lines.append(f"name = {m.name}")
    return "\n".join(lines) + "\n"


def load_model(spec: str) -> ModelSpec:
    """Resolve a CLI-style model argument: builtin name or path to a spec file."""
    if spec in BUILTIN_NAMES:
        return builtin(spec)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return parse_model_spec(fh.read())
    except FileNotFoundError:
        raise ModelError(
            f"{spec!r} is neither a builtin model ({', '.join(BUILTIN_NAMES)}) "
            f"nor a readable file"
        ) from None
