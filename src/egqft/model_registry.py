"""Model definitions: field tables, interaction vertices, validation, file format.

A model is a field table plus self-adjoint interaction vertices of vanishing
fermion number and charge, together with the scaling-bound constant c used
by the power counting (c = 4 - dim(vertex) for every vertex of an
eligible model).  Builtins: spinor QED (massive/massless), scalar QED
(massive/massless), and the two-scalar cubic model with one massive and one
massless field, each declared as model text; the QED vertices, which the
scalar grammar of model files cannot express, are built over the parsed
field table.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .exact import DomainError, I, QRat
from .symbolic_fields import (
    FieldEntry,
    FieldTable,
    Generator,
    Polynomial,
    QuantumNumbers,
    SuperQuadriIndex,
    adjoint,
    canonical_dim,
    canonicalize_word,
)
from .wightman import METRIC, gamma0_gamma


class ModelError(DomainError):
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
        """The vertex with coupling name key, or the key-th vertex (from 0)."""
        for i, (cname, poly) in enumerate(self.vertices):
            if key in (cname, i):
                return poly
        raise ModelError(f"model {self.name!r} has no vertex {key!r}")

    def massless_fields(self) -> set[int]:
        return {
            i for i, e in enumerate(self.fields.entries) if e.numbers.mass == 0.0
        }


@dataclass
class ModelVerdict:
    renormalizability: str  # renormalizable | super-renormalizable | nonrenormalizable
    wal_eligible: bool
    reasons: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------- builtins


def _spinor_qed_vertex(table: FieldTable) -> Polynomial:
    """psibar gamma^mu psi A_mu, with psibar = psi* gamma^0."""
    field = lambda name: Polynomial.of_field(table, name)
    vertex = Polynomial.zero(table)
    for mu in range(4):
        g0gmu = gamma0_gamma(mu)
        for a in range(4):
            for b in range(4):
                c = g0gmu[a][b]
                if c.is_zero():
                    continue
                term = field(f"psi*_{a + 1}") * field(f"psi_{b + 1}") * field(f"A_{mu}")
                vertex = vertex + term.scale(c)
    return vertex


def _scalar_qed_vertex(table: FieldTable) -> Polynomial:
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
    return vertex


def _qed(matter: str, vertex):
    """A massless photon A and one matter field of charge -1, with c = 0."""
    return f"[fields]\nA  vector  0.0  0  0\n{matter}\n[options]\nc = 0\n", vertex


_SCALAR_MODEL = """\
[fields]
phi  scalar  0.0  0  0
psi  scalar  1.0  0  0
[vertices]
e = 1/2 * phi*psi^2
[options]
c = 1
"""

# name -> (model text, builder of the vertex 'e' over the parsed field table
# when that vertex lies outside the scalar grammar of [vertices])
_BUILTINS = {
    "spinor_qed_massive": _qed("psi  dirac  1.0  -1  1", _spinor_qed_vertex),
    "spinor_qed_massless": _qed("psi  dirac  0.0  -1  1", _spinor_qed_vertex),
    "scalar_qed_massive": _qed("phi  scalar  1.0  -1  0", _scalar_qed_vertex),
    "scalar_qed_massless": _qed("phi  scalar  0.0  -1  0", _scalar_qed_vertex),
    "scalar_model": (_SCALAR_MODEL, None),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, c_const: int | None = None) -> ModelSpec:
    """Builtin model by name; c_const overrides the default scaling constant."""
    if name not in _BUILTINS:
        raise ModelError(f"unknown builtin model {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    text, vertex = _BUILTINS[name]
    m = replace(parse_model_spec(text), name=name)
    if vertex is not None:
        m = replace(m, vertices=(("e", vertex(m.fields)),))
    return m if c_const is None else replace(m, c_const=c_const)


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
    conserving = True  # every vertex conserves fermion number and charge and is self-adjoint
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
        for holds, defect in (
            (poly.fermion_number() == 0, "has nonzero fermion number"),
            (poly.charge() == 0, "has nonzero charge"),
            (adjoint(poly) == poly, "is not self-adjoint"),
        ):
            if not holds:
                conserving = False
                reasons.append(f"vertex {cname!r} {defect}")
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
    wal = bool(m.vertices) and conserving
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
_RAT_RE = re.compile(r"^[+-]?\d+(?:/0*[1-9]\d*)?$")  # a nonzero denominator


def _split_factors(expr: str):
    """Split a monomial on '*', re-attaching stars that conjugate a field
    name: a star followed by another star, by the end or by a power ^n."""
    if not expr.strip():
        raise ModelParseError("empty monomial")
    factors: list[str] = []
    for raw in expr.split("*"):
        tok = raw.strip()
        if factors and (tok == "" or tok.startswith("^")):
            factors[-1] += "*" + tok
        elif tok == "":
            raise ModelParseError("monomial starts with '*'")
        else:
            factors.append(tok)
    return factors


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
    if not math.isfinite(mass):
        raise ModelParseError(f"mass must be finite, got {mass_s!r}", line)
    if mass < 0:
        raise ModelParseError("mass must be nonnegative", line)
    return name, kind, mass, charge, fermion


def _entries_for(name, kind, mass, charge, fermion, base, line):
    """Field-table entries of one [fields] declaration, the first at index base.

    Vector and dirac fields have four components (A_0..A_3, psi_1..psi_4).
    A vector field, or a scalar of charge 0, is its own adjoint; any other
    field is a particle block followed by its conjugate block (name* for
    scalar and dirac, name~ for ghost), each the other's adjoint.
    """
    if kind == "scalar" and fermion % 2:
        raise ModelParseError("scalar fields need even fermion number (use ghost)", line)
    if kind in ("ghost", "dirac") and fermion % 2 == 0:
        raise ModelParseError(f"{kind} fields need odd fermion number", line)
    if kind == "vector" and (charge != 0 or fermion != 0):
        raise ModelParseError("vector fields must be neutral with fermion 0", line)
    n = 4 if kind in ("vector", "dirac") else 1
    dim = Fraction(3, 2) if kind == "dirac" else Fraction(1)
    stat = "fermi" if fermion % 2 else "bose"
    if kind == "vector" or (kind == "scalar" and charge == 0):
        blocks = [(name, 1, base)]
    else:
        blocks = [(name, 1, base + n), (name + ("~" if kind == "ghost" else "*"), -1, base)]
    return [
        FieldEntry(
            species if n == 1 else f"{species}_{a + 1 if kind == 'dirac' else a}",
            kind,
            species,
            a,
            QuantumNumbers(sign * fermion, sign * charge, dim, mass, stat),
            adjoint + a,
        )
        for species, sign, adjoint in blocks
        for a in range(n)
    ]


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
    pairs = []
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
        pairs.append((Generator(table.index(fname), tuple(alpha)), int(powstr or 1)))
    # the sign orders the odd letters as written; an odd letter twice is zero
    odd = [g for g, m in pairs for _ in range(min(m, 2)) if table.parity(g.field)]
    ordered = canonicalize_word(odd, table)
    if ordered is None:
        return Polynomial.zero(table)
    return Polynomial.monomial(table, SuperQuadriIndex.from_pairs(pairs), QRat(coeff) * ordered[0])


def parse_model_spec(text: str) -> ModelSpec:
    """Parse the line-oriented model format.

    Sections: [fields] (name kind mass charge fermion), [vertices]
    (coupling = rational * monomial, scalar-sector factors only, derivative
    tags d[mu]), [options] (c = 0|1, name), or a single [builtin] section
    (name = <builtin>, optionally c = 0|1).  '#' starts a comment.  A '*'
    followed by another '*', by the end of the monomial or by a power ^n
    conjugates the field name before it (phi**psi, phi*^2); any other '*'
    separates factors.
    """
    section = None
    raw_fields: list[tuple] = []
    raw_vertices: list[tuple[str, str, int]] = []
    options: dict[str, str | int] = {}
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
        else:  # [options] or [builtin]: key = value
            k, eq, v = (s.strip() for s in line.partition("="))
            if not eq:
                raise ModelParseError(
                    "option line needs 'key = value'" if section == "options"
                    else "builtin section needs 'name = <model>'",
                    lineno,
                )
            if section == "builtin" and k not in ("name", "c"):
                raise ModelParseError(f"unknown [builtin] key {k!r}; it takes name and c", lineno)
            if k == "c":
                try:
                    v = int(v)
                except ValueError:
                    raise ModelParseError(f"c must be an integer, got {v!r}", lineno) from None
            options[k] = v

    if "builtin" in sections_seen:
        if sections_seen - {"builtin"}:
            raise ModelParseError("[builtin] cannot be combined with other sections", 1)
        if "name" not in options:
            raise ModelParseError("builtin section needs 'name = <model>'", 0)
        return builtin(options["name"], options.get("c"))

    entries: list[FieldEntry] = []
    declared: dict[str, int] = {}  # field name -> line of its declaration
    for (name, kind, mass, charge, fermion), lineno in raw_fields:
        for e in _entries_for(name, kind, mass, charge, fermion, len(entries), lineno):
            if e.name in declared:
                raise ModelParseError(
                    f"field name {e.name!r} is already declared on line {declared[e.name]}", lineno
                )
            declared[e.name] = lineno
            entries.append(e)
    table = FieldTable(entries)

    vertices = []
    for cname, expr, lineno in raw_vertices:
        try:
            vertices.append((cname, parse_polynomial(table, expr)))
        except ModelParseError as exc:
            raise ModelParseError(exc.msg, lineno, exc.col) from None

    c = options.get("c")
    if c is None:  # 4 - dim when all vertices have dim 3 or all dim 4, 1 for a free model, else 0
        dims = {canonical_dim(p) for _, p in vertices}
        c = 1 if dims <= {Fraction(3)} else 0
    return ModelSpec(options.get("name", "custom"), table, tuple(vertices), c)


def _vertex_line(table: FieldTable, cname: str, poly: Polynomial) -> str:
    """The [vertices] line of one vertex; ModelError outside the scalar grammar."""
    if len(poly.terms) != 1:
        raise ModelError(f"vertex {cname!r} is not a single monomial; cannot serialize")
    idx, coeff = poly.terms[0]
    if coeff.im != 0:
        raise ModelError(f"vertex {cname!r} has a non-real coefficient; cannot serialize")
    if any(table.entry(g.field).kind not in ("scalar", "ghost") for g, _ in idx.entries):
        raise ModelError(f"vertex {cname!r} has a spinor or vector factor; cannot serialize")
    return f"{cname} = {coeff.re} * {table.monomial_name(idx)}"


def serialize_model_spec(m: ModelSpec) -> str:
    """Inverse of parse_model_spec.

    Each [fields] declaration is written from its first entry: component 0
    and not the adjoint partner of an earlier entry.  A builtin whose
    vertices the scalar grammar cannot express serializes by name, with a
    c line when its c differs from the builtin's own.
    """
    try:
        vertex_lines = [_vertex_line(m.fields, cname, poly) for cname, poly in m.vertices]
    except ModelError:
        if m.name not in _BUILTINS:
            raise
        text = f"[builtin]\nname = {m.name}\n"
        if m.c_const != parse_model_spec(_BUILTINS[m.name][0]).c_const:
            text += f"c = {m.c_const}\n"
        return text
    lines = ["[fields]"]
    partners = set()
    for i, e in enumerate(m.fields.entries):
        if e.component == 0 and i not in partners:
            q = e.numbers
            lines.append(f"{e.species}  {e.kind}  {q.mass!r}  {q.charge}  {q.fermion}")
        partners.add(e.adjoint)
    lines += ["[vertices]", *vertex_lines, "[options]", f"c = {m.c_const}", f"name = {m.name}"]
    return "\n".join(lines) + "\n"


def load_model(spec: str) -> ModelSpec:
    """Resolve a CLI-style model argument: builtin name or path to a spec file."""
    if spec in BUILTIN_NAMES:
        return builtin(spec)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        raise ModelError(
            f"{spec!r} is neither a builtin model ({', '.join(BUILTIN_NAMES)}) "
            f"nor a readable file"
        ) from None
    return parse_model_spec(text)
