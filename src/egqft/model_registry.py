"""Model definitions: field tables, interaction vertices, validation, file format.

A model is a field table plus self-adjoint interaction vertices of vanishing
fermion number and charge, together with the scaling-bound constant c used
by the power counting (c = 4 - dim(vertex) for every vertex of an
eligible model).  Builtins: spinor QED (massive/massless), scalar QED
(massive/massless), and the two-scalar cubic model with one massive and one
massless field, each declared as model text and built by the one parser
that reads model files.
"""
from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import NamedTuple

from .exact import DomainError, QRat
from .symbolic_fields import (
    AlgebraError,
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


class ModelError(DomainError):
    pass


class ModelParseError(ModelError):
    """A model-text error; line is None for a lone vertex expression."""

    def __init__(self, msg: str, line: int | None = None, col: int = 0):
        super().__init__(msg if line is None else f"line {line}, col {col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class ModelSpec(NamedTuple):
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


class ModelVerdict(NamedTuple):
    renormalizability: str  # renormalizable | super-renormalizable | nonrenormalizable
    wal_eligible: bool
    reasons: tuple[str, ...] = ()


# --------------------------------------------------------------------------- builtins

# psibar gamma^mu psi A_mu, psibar = psi* gamma^0, gamma in the Dirac representation
_SPINOR_QED_VERTEX = (
    "-1 * A_0*psi_1*psi*_1 + -1 * A_0*psi_2*psi*_2 + -1 * A_0*psi_3*psi*_3 + -1 * A_0*psi_4*psi*_4"
    " + -1 * A_1*psi_1*psi*_4 + -1 * A_1*psi_2*psi*_3 + -1 * A_1*psi_3*psi*_2 + -1 * A_1*psi_4*psi*_1"
    " + -1i * A_2*psi_1*psi*_4 + 1i * A_2*psi_2*psi*_3 + -1i * A_2*psi_3*psi*_2 + 1i * A_2*psi_4*psi*_1"
    " + -1 * A_3*psi_1*psi*_3 + 1 * A_3*psi_2*psi*_4 + -1 * A_3*psi_3*psi*_1 + 1 * A_3*psi_4*psi*_2"
)
# A_mu j^mu with the current j^mu = i (phi* d^mu phi - (d^mu phi*) phi)
_SCALAR_QED_VERTEX = (
    "-1i * A_0*phi*d[0]phi* + 1i * A_0*d[0]phi*phi* + 1i * A_1*phi*d[1]phi* + -1i * A_1*d[1]phi*phi*"
    " + 1i * A_2*phi*d[2]phi* + -1i * A_2*d[2]phi*phi* + 1i * A_3*phi*d[3]phi* + -1i * A_3*d[3]phi*phi*"
)


def _qed(matter: str, vertex: str) -> str:
    """A massless photon A and one matter field of charge -1, with c = 0."""
    return f"[fields]\nA  vector  0.0  0  0\n{matter}\n[vertices]\ne = {vertex}\n[options]\nc = 0\n"


_SCALAR_MODEL = """\
[fields]
phi  scalar  0.0  0  0
psi  scalar  1.0  0  0
[vertices]
e = 1/2 * phi*psi^2
[options]
c = 1
"""

_BUILTINS = {  # name -> model text
    "spinor_qed_massive": _qed("psi  dirac  1.0  -1  1", _SPINOR_QED_VERTEX),
    "spinor_qed_massless": _qed("psi  dirac  0.0  -1  1", _SPINOR_QED_VERTEX),
    "scalar_qed_massive": _qed("phi  scalar  1.0  -1  0", _SCALAR_QED_VERTEX),
    "scalar_qed_massless": _qed("phi  scalar  0.0  -1  0", _SCALAR_QED_VERTEX),
    "scalar_model": _SCALAR_MODEL,
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, c_const: int | None = None) -> ModelSpec:
    """Builtin model by name; c_const overrides the default scaling constant."""
    if name not in _BUILTINS:
        raise ModelError(f"unknown builtin model {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    m = parse_model_spec(_BUILTINS[name])._replace(name=name)
    return m if c_const is None else m._replace(c_const=c_const)


# --------------------------------------------------------------------------- validation


@functools.lru_cache(maxsize=64)
def validate(m: ModelSpec) -> ModelVerdict:
    """Check the vertex conditions and weak-adiabatic-limit eligibility.

    Structural defects (dangling field indices, wrong table) raise; physics
    conditions are reported in the verdict.  The Lorentz-scalar property of
    vertices cannot be checked without representation data and is reported
    as unchecked.  The verdict depends on the frozen spec alone, so it is
    computed once per spec, and equal specs share one verdict.
    """
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
    return ModelVerdict(renormalizability=renorm, wal_eligible=wal, reasons=tuple(reasons))


# --------------------------------------------------------------------------- text format

_FACTOR_RE = re.compile(
    r"^(?P<tags>(?:d\[[0-3]\])*)(?P<name>[A-Za-z_][A-Za-z0-9_]*(?:\*_\d+|[*~])?)(?:\^(?P<pow>\d+))?$"
)
_RAT = r"\d+(?:/0*[1-9]\d*)?"  # a nonzero denominator
# a QRat as its repr writes it: -1/2, 1i, -1/2i, 1+2i
_COEFF_RE = re.compile(rf"^(?:(?P<re>[+-]?{_RAT})(?:(?P<im>[+-]{_RAT})i)?|(?P<imag>[+-]?{_RAT})i)$")
_TERM_SEP = re.compile(r"\s+\+\s+")


def _split_factors(names: set[str], term: str):
    """Split a term on '*', re-attaching stars that belong to a field name: a
    star followed by another star, by the end or by a power ^n conjugates the
    name before it, and one followed by _k joins it when name*_k is in names."""
    if not term.strip():
        raise ModelParseError("empty monomial")
    factors: list[str] = []
    for raw in term.split("*"):
        tok = raw.strip()
        joined = _FACTOR_RE.match(f"{factors[-1]}*{tok}") if factors else None
        if factors and (tok == "" or tok.startswith("^") or (joined and joined.group("name") in names)):
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
            QuantumNumbers(sign * fermion, sign * charge, dim, mass),
            adjoint + a,
        )
        for species, sign, adjoint in blocks
        for a in range(n)
    ]


def parse_polynomial(table: FieldTable, expr: str) -> Polynomial:
    """Parse one vertex expression over a field table: terms joined by ' + ',
    each `coefficient * monomial`, a bare monomial (coefficient 1) or a bare
    coefficient (0 is the vanishing vertex).  A coefficient is a QRat as its
    repr writes it; factors are declared field names, components included,
    with optional derivative tags d[mu] and powers ^n.  Raises
    ModelParseError naming the bad factor."""
    names = {e.name for e in table.entries}
    acc: dict[SuperQuadriIndex, QRat] = {}
    for term in _TERM_SEP.split(expr):
        factors = _split_factors(names, term)
        coeff = QRat(1)
        if (cobj := _COEFF_RE.match(factors[0])) is not None:
            coeff = QRat(cobj.group("re") or 0, cobj.group("im") or cobj.group("imag") or 0)
            factors = factors[1:]
        pairs = []
        for f in factors:
            mobj = _FACTOR_RE.match(f)
            if not mobj:
                raise ModelParseError(f"cannot parse factor {f!r}", col=expr.find(f))
            tags, fname, powstr = mobj.group("tags"), mobj.group("name"), mobj.group("pow")
            try:
                i = table.index(fname)
            except AlgebraError:
                comps = [e.name for e in table.entries if e.species == fname]
                raise ModelParseError(
                    f"field {fname!r} has components {comps[0]}..{comps[-1]}; name one of them"
                    if comps else f"unknown field name {fname!r}", col=expr.find(f)
                ) from None
            alpha = [0, 0, 0, 0]
            for mu in re.findall(r"d\[([0-3])\]", tags):
                alpha[int(mu)] += 1
            pairs.append((Generator(i, tuple(alpha)), int(powstr or 1)))
        # the sign orders the odd letters as written; an odd letter twice is zero
        odd = [g for g, m in pairs for _ in range(min(m, 2)) if table.parity(g.field)]
        ordered = canonicalize_word(odd, table)
        if ordered is not None:
            idx = SuperQuadriIndex.from_pairs(pairs)
            acc[idx] = acc.get(idx, QRat(0)) + coeff * ordered[0]
    return Polynomial(table, acc)


def parse_model_spec(text: str) -> ModelSpec:
    """Parse the line-oriented model format.

    Sections: [fields] (name kind mass charge fermion), [vertices]
    (coupling = expression, as parse_polynomial reads it; each coupling
    name once), [options] (c = 0|1, name), or a single [builtin] section
    (name = <builtin>, optionally c = 0|1).  '#' starts a comment.  A '*'
    followed by another '*', by the end of the monomial or by a power ^n
    conjugates the field name before it (phi**psi, phi*^2), and one
    followed by _k joins it when that component is declared (psi*_1); any
    other '*' separates factors.
    """
    section = None
    raw_fields: list[tuple] = []
    raw_vertices: dict[str, tuple[str, int]] = {}  # coupling -> (expression, line)
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
            if cname in raw_vertices:
                first = raw_vertices[cname][1]
                raise ModelParseError(f"coupling {cname!r} is already declared on line {first}", lineno)
            raw_vertices[cname] = (expr, lineno)
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
    for cname, (expr, lineno) in raw_vertices.items():
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
    """The [vertices] line of one vertex: its canonical terms, or 0."""
    terms = (f"{c!r} * {table.monomial_name(i)}" if i.entries else repr(c) for i, c in poly.terms)
    return f"{cname} = {' + '.join(terms) or '0'}"


def serialize_model_spec(m: ModelSpec) -> str:
    """Inverse of parse_model_spec.

    Each [fields] declaration is written from its first entry: component 0
    and not the adjoint partner of an earlier entry.
    """
    vertex_lines = [_vertex_line(m.fields, cname, poly) for cname, poly in m.vertices]
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
