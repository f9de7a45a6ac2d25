"""CLI behavior: outputs, determinism, exit codes, manifests."""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from egqft.cli import _q2_points, _resolve_arg_poly, _sqi_json, build_parser, run
from egqft.model_registry import load_model, serialize_model_spec
from egqft.wick_pairing import wick_expand

SHORT_EPS_NOTE = "CLI demos use the full default schedule; tests keep commands light."
SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).with_name("golden")


def _env():
    """The environment of a fresh interpreter that imports egqft from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def _python(*args):
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_env(), timeout=120
    )


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_text(capsys):
    code, out, err = _run(capsys, ["classify", "--model", "scalar_model", "--c", "1"])
    assert code == 0
    assert out.splitlines()[0] == "renormalizable; wAL-eligible"


def test_classify_json(capsys):
    code, out, _ = _run(
        capsys, ["classify", "--model", "scalar_model", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["renormalizability"] == "renormalizable"
    assert payload["wal_eligible"] is True


def test_subpolys_row_counts(capsys):
    code, out, _ = _run(capsys, ["subpolys", "--model", "spinor_qed_massive"])
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 8  # header + rows
    code, out, _ = _run(capsys, ["subpolys", "--model", "scalar_model"])
    assert len(out.strip().splitlines()) == 1 + 6


def test_omega_output(capsys):
    code, out, _ = _run(
        capsys, ["omega", "--model", "scalar_model", "--ext", "phi=2,psi=0"]
    )
    assert code == 0 and out.strip() == "2"
    code, out, _ = _run(
        capsys,
        ["omega", "--model", "spinor_qed_massive", "--ext", "psi_1=1", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["vanishing_sector"] is True


def test_wick_stream_deterministic(capsys):
    argv = ["wick", "--model", "scalar_model", "--args", "L,L"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 36
    for line in lines:
        json.loads(line)


def test_pairings_stream(capsys):
    code, out, _ = _run(
        capsys,
        ["pairings", "--model", "scalar_model", "--left", "psi^2", "--right", "psi^2", "--full"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["classification"] == "massive"


def test_selfenergy_csv(capsys):
    code, out, _ = _run(
        capsys,
        ["selfenergy", "--model", "scalar_model", "--q2grid", "0:2:3", "--nsub", "central"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q2,re_sigma,im_sigma"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[1]) == 0.0  # Sigma(0) = 0 after central normalization


def test_manifest_written(tmp_path, capsys):
    man = tmp_path / "m.json"
    code, _, _ = _run(
        capsys,
        ["classify", "--model", "scalar_model", "--manifest", str(man)],
    )
    assert code == 0
    payload = json.loads(man.read_text())
    assert payload["subcommand"] == "classify"
    assert payload["tool_version"]
    assert payload["model_hash"]
    assert payload["wall_time_s"] >= 0


def test_manifest_equality_modulo_walltime(tmp_path, capsys):
    m1, m2 = tmp_path / "1.json", tmp_path / "2.json"
    for m in (m1, m2):
        _run(capsys, ["classify", "--model", "scalar_model", "--manifest", str(m)])
    p1 = json.loads(m1.read_text())
    p2 = json.loads(m2.read_text())
    p1.pop("wall_time_s")
    p2.pop("wall_time_s")
    assert p1 == p2


# --------------------------------------------------------------------------- manifest params

# a valid run of each subcommand; each option below is varied against it
_MANIFEST_BASE = {
    "classify": ["--model", "scalar_model"],
    "subpolys": ["--model", "scalar_model"],
    "omega": ["--model", "scalar_model", "--ext", "phi=2"],
    "wick": ["--model", "scalar_model", "--args", "phi*psi"],
    "pairings": ["--model", "scalar_model", "--left", "psi^2", "--right", "psi^2"],
    "selfenergy": ["--model", "scalar_model", "--q2grid", "0:1:2"],
    "adiabatic": ["--model", "scalar_model", "--neps", "6"],
    "glcheck": ["--model", "scalar_model", "--neps", "6"],
    "sdestimate": [],
}
# another valid value of each option that takes a value without choices;
# "@MODEL" is scalar_model written to a file
_OTHER_VALUE = {
    "--model": "@MODEL", "--c": "0", "--ext": "phi=2,psi=0", "--der": "phi=1",
    "--args": "psi^2", "--left": "phi*psi", "--right": "phi*psi", "--q2grid": "0:1:3",
    "--nsub": "1", "--cmis": "0.5", "--neps": "7", "--dim": "3",
}


def _options():
    """(subcommand, option) for every option of every subparser except
    --out and --manifest."""
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (cmd, action)
        for cmd, parser in sub.choices.items()
        for action in parser._actions
        if action.option_strings and action.dest not in ("help", "out", "manifest")
    ]


def _other_argv(action, argv, model_file):
    """argv with `action` given another value than in argv (or its default)."""
    opt = action.option_strings[-1]
    if action.nargs == 0:  # a flag
        return argv + [opt]
    if action.choices:
        value = next(c for c in action.choices if c != action.default)
    else:
        value = _OTHER_VALUE[opt].replace("@MODEL", model_file)
    if opt in argv:
        i = argv.index(opt)
        return argv[:i + 1] + [value] + argv[i + 2:]
    return argv + [opt, value]


@pytest.mark.filterwarnings("ignore:self-energy is not normalized")
@pytest.mark.parametrize(
    "cmd, action", _options(), ids=lambda x: x if isinstance(x, str) else x.option_strings[-1]
)
def test_every_option_reaches_the_manifest(tmp_path, cmd, action):
    """Two runs that differ in one option write different manifest params."""
    model_file = tmp_path / "scalar.model"
    model_file.write_text(serialize_model_spec(load_model("scalar_model")))
    base = [cmd] + _MANIFEST_BASE[cmd]
    params = []
    for argv in (base, _other_argv(action, base, str(model_file))):
        man = tmp_path / "m.json"
        assert run(argv + ["--out", str(tmp_path / "out"), "--manifest", str(man)]) == 0, argv
        params.append(json.loads(man.read_text())["params"])
    assert params[0] != params[1]


def test_exit_code_domain_error(capsys):
    code, _, err = _run(capsys, ["omega", "--model", "scalar_model", "--ext", "zz=1"])
    assert code == 1
    assert "unknown field" in err


def test_exit_code_eligibility_error(capsys):
    tmp = "/tmp/egqft_phi3.model"
    with open(tmp, "w") as fh:
        fh.write("[fields]\nphi scalar 0.0 0 0\n[vertices]\ng = 1 * phi^3\n[options]\nc = 1\n")
    code, _, err = _run(capsys, ["omega", "--model", tmp, "--ext", "phi=2"])
    assert code == 1
    assert "eligib" in err


def test_exit_code_usage(capsys):
    assert run(["nonsense"]) == 2
    assert run(["classify"]) == 2  # missing --model


def test_model_file_loading(tmp_path, capsys):
    path = tmp_path / "toy.model"
    path.write_text(
        "[fields]\nphi scalar 0.0 0 0\npsi scalar 1.0 0 0\n"
        "[vertices]\ne = 1/2 * phi*psi^2\n[options]\nc = 1\n"
    )
    code, out, _ = _run(capsys, ["classify", "--model", str(path)])
    assert code == 0 and out.startswith("renormalizable")


def test_negative_omega_has_no_central_normalization(tmp_path, capsys):
    """g = 1/2 phi^2 at c = 0 gives omega = -2: the numeric commands refuse
    the central solution, naming omega and the order the bubble needs."""
    path = tmp_path / "mass.model"
    path.write_text(
        "[fields]\nphi scalar 1.0 0 0\n[vertices]\ng = 1/2 * phi^2\n[options]\nc = 0\n"
    )
    for argv in (["selfenergy", "--q2grid=-2:6:3"], ["adiabatic", "--neps", "6"]):
        code, out, err = _run(capsys, argv + ["--model", str(path)])
        assert code == 1 and out == "", argv
        assert "no central normalization" in err and "omega = -2" in err, err
        assert "n_sub >= 1" in err and "Traceback" not in err, err


def test_sdestimate(capsys):
    for target, expect, tol in (("delta", 4.0, 0.05), ("ddelta", 5.0, 0.05), ("smooth", 0.0, 0.1)):
        argv = ["sdestimate", "--target", target, "--dim", "4", "--format", "json"]
        code, out, _ = _run(capsys, argv)
        assert code == 0, target
        payload = json.loads(out)
        assert payload["ok"] and abs(payload["estimate"] - expect) < tol, payload
    # d/dx0 of the probe at 0 is exactly 1/lam, so the ddelta fit is exact to rounding
    code, out, _ = _run(capsys, ["sdestimate", "--target", "ddelta", "--dim", "4", "--format", "json"])
    payload = json.loads(out)
    assert abs(payload["estimate"] - 5.0) <= 1e-11 and abs(payload["slope"] + 1.0) <= 1e-11, payload
    # the smooth target's tensor rule has 6^dim points, so its dim is bounded
    code, out, err = _run(capsys, ["sdestimate", "--target", "smooth", "--dim", "8"])
    assert code == 1 and out == "" and "--dim <= 7" in err


def test_adiabatic_cli_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = _run(
        capsys,
        ["adiabatic", "--model", "scalar_model", "--cmis", "1.0",
         "--family", "gauss", "--neps", "8", "--out", str(out)],
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["c_mis"] == 1.0
    assert not payload["advanced"]["converged"]
    assert abs(payload["advanced"]["log_slope"][1]) > 1e-3


def test_glcheck_cli_csv(capsys):
    code, out, _ = _run(
        capsys,
        ["glcheck", "--model", "scalar_model", "--neps", "6", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,abs_difference"
    assert lines[-1].startswith("# fitted decay exponent")


@pytest.mark.parametrize(
    "argv, option",
    [
        (["selfenergy", "--model", "scalar_model", "--q2grid=abc"], "--q2grid"),
        (["selfenergy", "--model", "scalar_model", "--q2grid=-2:3:0"], "--q2grid"),
        (["omega", "--model", "scalar_model", "--ext", "phi=x"], "--ext"),
        (["omega", "--model", "scalar_model", "--ext", "phi=1", "--der", "phi"], "--der"),
        (["selfenergy", "--model", "scalar_model", "--q2grid=0:1:2", "--nsub", "x"], "--nsub"),
        (["selfenergy", "--model", "scalar_model", "--q2grid=0:1:2", "--nsub", "-1"], "--nsub"),
        (["sdestimate", "--dim", "0"], "--dim"),
        (["sdestimate", "--dim", "-1"], "--dim"),
        (["adiabatic", "--model", "scalar_model", "--family", "foo"], "--family"),
        (["glcheck", "--model", "scalar_model", "--family", "foo"], "--family"),
        (["adiabatic", "--model", "scalar_model", "--cmis", "nan"], "--cmis"),
        (["adiabatic", "--model", "scalar_model", "--cmis", "inf"], "--cmis"),
        (["glcheck", "--model", "scalar_model", "--cmis", "nan"], "--cmis"),
        (["selfenergy", "--model", "scalar_model", "--q2grid=nan:1:3"], "--q2grid"),
        (["selfenergy", "--model", "scalar_model", "--q2grid=0:inf:3"], "--q2grid"),
        (["omega", "--model", "scalar_model", "--ext", "phi=1,phi=2"], "--ext"),
        (["omega", "--model", "scalar_model", "--ext", "phi=-1"], "--ext"),
        (["omega", "--model", "scalar_model", "--ext", "phi=2", "--der", "phi=1,phi=1"], "--der"),
        (["omega", "--model", "scalar_model", "--ext", "=1"], "--ext"),
        (["omega", "--model", "scalar_model", "--ext", "phi=1", "--der", "=1"], "--der"),
        (["adiabatic", "--model", "scalar_model", "--neps", "0"], "--neps"),
        (["adiabatic", "--model", "scalar_model", "--neps", "-2"], "--neps"),
        (["glcheck", "--model", "scalar_model", "--neps", "0"], "--neps"),
        (["glcheck", "--model", "scalar_model", "--neps", "-2"], "--neps"),
    ],
    ids=["q2grid-abc", "q2grid-no-points", "ext-not-a-count", "der-without-count",
         "nsub-not-a-count", "nsub-negative", "dim-zero", "dim-negative",
         "adiabatic-family-unknown", "glcheck-family-unknown", "adiabatic-cmis-nan",
         "adiabatic-cmis-inf", "glcheck-cmis-nan", "q2grid-nan", "q2grid-inf",
         "ext-repeated", "ext-negative", "der-repeated", "ext-empty-name", "der-empty-name",
         "adiabatic-neps-zero", "adiabatic-neps-negative", "glcheck-neps-zero",
         "glcheck-neps-negative"],
)
def test_malformed_option_is_a_usage_error(capsys, argv, option):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: egqft ") and f"argument {option}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("ext", ["phi=1,phi=2", "phi=-1"])
def test_count_error_names_the_field(capsys, ext):
    code, _, err = _run(capsys, ["omega", "--model", "scalar_model", "--ext", ext])
    assert code == 2 and f"argument --ext: field 'phi' " in err


@pytest.mark.parametrize(
    "bad, good, exists",
    [("--manifest", None, False), ("--manifest", "--out", False),
     ("--out", "--manifest", False), ("--manifest", "--out", True)],
    ids=["manifest", "manifest-with-good-out", "out-with-good-manifest",
         "manifest-with-existing-out"],
)
def test_unwritable_destination_is_a_usage_error(tmp_path, capsys, bad, good, exists):
    missing = tmp_path / "missing" / "file"
    argv = ["classify", "--model", "scalar_model", bad, str(missing)]
    if good:
        argv += [good, str(tmp_path / "good")]
    if exists:
        (tmp_path / "good").write_text("kept\n")
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"egqft classify: cannot write {missing}: No such file or directory\n"
    # only a file the run created is removed; one that was there is untouched
    assert [p.name for p in tmp_path.iterdir()] == (["good"] if exists else [])
    assert not exists or (tmp_path / "good").read_text() == "kept\n"


@pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
def test_same_out_and_manifest_is_a_usage_error(tmp_path, capsys, exists):
    path = tmp_path / "f"
    if exists:
        path.write_text("kept\n")
    argv = ["classify", "--model", "scalar_model", "--out", str(path), "--manifest", str(path)]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"egqft classify: cannot write {path}: the same file as --out\n"
    # a file the run did not create is never removed, nor emptied
    assert path.exists() == exists
    assert not exists or path.read_text() == "kept\n"


def test_unfinished_run_leaves_no_manifest(tmp_path, monkeypatch):
    from egqft import cli

    def records():
        yield "first"
        raise KeyboardInterrupt

    _, indent = cli._DISPATCH["classify"]
    monkeypatch.setitem(cli._DISPATCH, "classify", (lambda args, model: (None, records()), indent))
    out, man = tmp_path / "out", tmp_path / "m.json"
    with pytest.raises(KeyboardInterrupt):
        run(["classify", "--model", "scalar_model", "--out", str(out), "--manifest", str(man)])
    assert list(tmp_path.iterdir()) == []


def _closed_after_one_line(*options):
    """Run `egqft wick` on spinor QED L,L and close the pipe after one line,
    as `egqft wick ... | head -1` does; returns the exit code and stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-c", "from egqft.cli import main; main()",
         "wick", "--model", "spinor_qed_massive", "--args", "L,L", *options],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    )
    assert proc.stdout.readline().startswith(b'{"normal_monomials"')
    proc.stdout.close()
    err = proc.stderr.read()
    return proc.wait(timeout=60), err


def test_closed_stdout_ends_quietly_with_exit_1():
    assert _closed_after_one_line() == (1, b"")


@pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
def test_closed_stdout_leaves_no_manifest(tmp_path, exists):
    path = tmp_path / "m.json"
    if exists:
        path.write_text("kept\n")
    assert _closed_after_one_line("--manifest", str(path)) == (1, b"")
    # the run removes only a file it created, never a path that was there,
    # and leaves that path as it was
    assert path.exists() == exists
    assert not exists or path.read_text() == "kept\n"


@pytest.mark.parametrize("args", ["L9", "L,L0"])
def test_vertex_reference_out_of_range(capsys, args):
    code, out, err = _run(capsys, ["wick", "--model", "scalar_model", "--args", args])
    ref = args.split(",")[-1]
    assert code == 1 and out == ""
    assert err == f"egqft wick: argument {ref!r}: no such vertex; valid references are L1..L1\n"


def test_freeform_error_names_the_argument(capsys):
    code, out, err = _run(capsys, ["wick", "--model", "scalar_model", "--args", "phi*zz"])
    assert code == 1 and out == ""
    assert "'zz'" in err and "'phi*zz'" in err and "line" not in err


def test_freeform_monomials_are_checked_factor_by_factor(tmp_path, capsys):
    """A free-form argument over the scalar phi of dirac.model expands as it
    does over a model holding phi alone; a spinor component is a factor like
    any other, and a bare spinor species is refused, naming its components."""
    lone = tmp_path / "phi.model"
    lone.write_text("[fields]\nphi scalar 1.0 0 0\n[vertices]\ng = 1/6 * phi^3\n[options]\nc = 1\n")
    for fmt in ("json", "csv"):
        streams = [_run(capsys, ["wick", "--model", str(model), "--args", "phi^2,phi",
                                 "--format", fmt])
                   for model in (GOLDEN / "dirac.model", lone)]
        assert streams[0] == streams[1] and streams[0][0] == 0 and streams[0][1], fmt
    code, out, err = _run(capsys, ["wick", "--model", "spinor_qed_massive", "--args", "psi_1",
                                   "--format", "csv"])
    assert (code, err) == (0, "") and out.splitlines()[1:] == ['1,1,1,1,1,"(1)*psi_1"']
    code, out, err = _run(capsys, ["wick", "--model", "spinor_qed_massive", "--args", "psi"])
    assert (code, out) == (1, "")
    assert err == ("egqft wick: argument 'psi': field 'psi' has components psi_1..psi_4; "
                   "name one of them\n")


_ZERO_MODEL = "[fields]\nu ghost 0.0 0 1\n[vertices]\ng = 1 * u*u\n[options]\nc = 0\n"


def test_vanishing_vertex_file_writes_its_manifest(tmp_path, capsys):
    """A file whose vertex vanishes is written as text like any other model,
    so --manifest hashes it instead of raising after the records."""
    path, man = tmp_path / "zero.model", tmp_path / "m.json"
    path.write_text(_ZERO_MODEL)
    code, out, err = _run(capsys, ["classify", "--model", str(path), "--manifest", str(man)])
    assert code == 0 and out and err == ""
    assert len(json.loads(man.read_text())["model_hash"]) == 16


def test_file_named_like_a_builtin_hashes_apart_from_it(tmp_path, capsys):
    """The manifest hashes a model's own vertex, not the builtin its name
    points to."""
    path = tmp_path / "named.model"
    path.write_text(_ZERO_MODEL + "name = scalar_qed_massive\n")
    hashes = []
    for model in (str(path), "scalar_qed_massive"):
        man = tmp_path / "m.json"
        code, _, err = _run(capsys, ["classify", "--model", model, "--manifest", str(man)])
        assert (code, err) == (0, "")
        hashes.append(json.loads(man.read_text())["model_hash"])
    assert hashes[0] != hashes[1]


@pytest.mark.parametrize("option", ["--args", "--left", "--right"])
def test_empty_argument_is_an_empty_monomial(capsys, option):
    argv = {
        "--args": ["wick", "--model", "scalar_model", "--args", ","],
        "--left": ["pairings", "--model", "scalar_model", "--left", ",", "--right", "L"],
        "--right": ["pairings", "--model", "scalar_model", "--left", "L", "--right", "L,"],
    }[option]
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"egqft {argv[0]}: argument '': empty monomial\n"


def test_dirac_model_files_hash_apart(tmp_path, capsys):
    fields = "[fields]\nA vector 0.0 0 0\npsi dirac 1.0 -1 1\nphi scalar 1.0 0 0\n"
    hashes = set()
    for vertex, c in (("phi^3", 1), ("phi^4", 0)):
        path, man = tmp_path / f"c{c}.model", tmp_path / f"c{c}.json"
        path.write_text(f"{fields}[vertices]\ng = 1 * {vertex}\n[options]\nc = {c}\n")
        code, _, _ = _run(capsys, ["classify", "--model", str(path), "--manifest", str(man)])
        assert code == 0
        hashes.add(json.loads(man.read_text())["model_hash"])
    assert len(hashes) == 2 and "8222cd4be3a76a1b" not in hashes


def test_domain_error_leaves_no_out_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    for argv in (
        ["wick", "--model", "scalar_model", "--args", "L,phi*zz"],
        ["adiabatic", "--model", "scalar_model", "--neps", "3"],  # family too coarse
        ["pairings", "--model", "scalar_model", "--left", "L", "--right", "L9"],
    ):
        code, out, err = _run(capsys, argv + ["--out", str(path)])
        assert code == 1 and err.startswith(f"egqft {argv[0]}: "), err
        assert not path.exists(), argv


@pytest.mark.parametrize("mass", ["nan", "inf", "-inf"])
def test_selfenergy_on_a_nonfinite_mass_is_a_domain_error(tmp_path, capsys, mass):
    path = tmp_path / "nonfinite.model"
    path.write_text(f"[fields]\nphi scalar {mass} 0 0\n[vertices]\ng = 1 * phi^3\n")
    code, out, err = _run(capsys, ["selfenergy", "--model", str(path), "--q2grid=0:1:2"])
    assert code == 1 and out == ""
    assert err == f"egqft selfenergy: line 2, col 0: mass must be finite, got '{mass}'\n"


# --------------------------------------------------------------------------- cold start

EXACT_COMMANDS = [
    ["classify", "--model", "scalar_model"],
    ["subpolys", "--model", "spinor_qed_massive", "--view", "all"],
    ["omega", "--model", "scalar_model", "--ext", "phi=2,psi=0"],
    ["wick", "--model", "spinor_qed_massive", "--args", "L,L"],
    ["pairings", "--model", "ghosts.model", "--left", "u*u~,u", "--right", "u~*u,u~"],
]

# the package's public names
PACKAGE_NAMES = """
    QRat
    FieldTable Generator Polynomial QuantumNumbers SuperQuadriIndex adjoint
    canonical_dim derive permutation_sign subpolynomials
    ModelSpec ModelVerdict builtin parse_model_spec validate
    VANISHING_SECTOR SList classify der ext omega_general omega_massless
    OpProductExpansion PairingTerm WickTerm complete_pairings expand_aT
    expand_adv isserlis_oracle wick_expand
    TwoPointKey riesz_check two_body_phase_space two_point
    SelfEnergy SpectralDensity bubble_density central_normalize
    dispersion_eval scaling_degree_estimate
    LimitReport ScaledTestFamily SplittingTheta appendix_c_demo
    gl_vs_eg_second_order theta_eval
""".split()


def test_exact_half_starts_without_numpy_or_scipy():
    code = f"""
import contextlib, io, sys

def numerics():
    return sorted({{m.split('.')[0] for m in sys.modules}} & {{'numpy', 'scipy'}})

import egqft
assert not numerics(), ('import egqft', numerics())
from egqft import cli
for argv in {EXACT_COMMANDS!r}:
    sys.argv = ['egqft', *argv]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            cli.main()
        except SystemExit as exc:
            assert exc.code == 0, (argv, exc.code)
    assert out.getvalue(), argv
    assert not numerics(), (argv, numerics())
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(),
        cwd=GOLDEN, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_exact_commands_load_only_what_they_run(tmp_path):
    """classify, subpolys and omega in csv without --manifest load neither the
    Wick layer nor hashlib nor json; wick loads the Wick layer and json (its
    default format), --manifest hashlib and json.  No exact command loads
    dataclasses or inspect."""
    code = f"""
import contextlib, io, sys
from egqft import cli

HEAVY = ('hashlib', 'json', 'egqft.wick_pairing', 'egqft.wightman')

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run(argv) == 0, argv
    assert out.getvalue(), argv
    assert 'dataclasses' not in sys.modules and 'inspect' not in sys.modules, argv
    return [m for m in HEAVY if m in sys.modules]

for argv in {EXACT_COMMANDS[:3]!r}:
    assert run(argv) == [], (argv, run(argv))
assert run({EXACT_COMMANDS[0] + ['--manifest', str(tmp_path / 'm.json')]!r}) == ['hashlib', 'json']
assert run({EXACT_COMMANDS[3]!r}) == list(HEAVY)
assert run({EXACT_COMMANDS[4]!r}) == list(HEAVY)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(),
        cwd=GOLDEN, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_no_module_loads_dataclasses():
    """Importing every egqft module, the numeric ones and numpy with them,
    leaves the dataclasses module unloaded."""
    modules = sorted(p.stem for p in (Path(SRC) / "egqft").glob("*.py") if p.stem != "__main__")
    code = f"""
import importlib, sys
for name in {modules!r}:
    importlib.import_module('egqft' if name == '__init__' else 'egqft.' + name)
assert 'numpy' in sys.modules and 'dataclasses' not in sys.modules
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


class _WriteLog:
    """A text stream that records the length of each write."""

    def __init__(self):
        self.sizes, self.parts = [], []

    def write(self, text):
        self.sizes.append(len(text))
        self.parts.append(text)


def test_output_is_written_in_blocks(monkeypatch):
    """A stream of many lines is written in blocks of at least 64 Ki
    characters (each closed at a line end), not one write per line."""
    log = _WriteLog()
    monkeypatch.setattr(sys, "stdout", log)
    assert run(EXACT_COMMANDS[3]) == 0
    text = "".join(log.parts)
    assert text.count("\n") == 5329 and len(log.sizes) < len(text) // (1 << 16) + 2
    assert all(n > 1 << 16 for n in log.sizes[:-1]) and all(p.endswith("\n") for p in log.parts)


NUMERIC_COMMANDS = [
    ["selfenergy", "--model", "scalar_model", "--q2grid=-2:6:17"],
    ["adiabatic", "--model", "scalar_model", "--neps", "6"],
    ["glcheck", "--model", "scalar_model", "--neps", "6"],
]


def test_numeric_commands_run_without_scipy():
    code = f"""
import contextlib, io, sys
from egqft import cli
for argv in {NUMERIC_COMMANDS!r}:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run(argv) == 0, argv
    assert out.getvalue(), argv
    assert 'scipy' not in sys.modules, (argv, sorted(m for m in sys.modules if 'scipy' in m))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(),
        cwd=GOLDEN, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_selfenergy_runs_without_numpy(tmp_path):
    """selfenergy evaluates the closed forms of causal_splitting on the
    standard library: importing that module or propagators_kinematics leaves
    numpy unloaded, and running selfenergy in csv and json, with and without
    --manifest, loads neither numpy nor wightman.  The commands that need
    arrays (sdestimate, adiabatic, glcheck) still run in the same process
    and load numpy."""
    manifests = [str(tmp_path / "csv.json"), str(tmp_path / "json.json")]
    code = f"""
import contextlib, io, sys
import egqft.propagators_kinematics
assert 'numpy' not in sys.modules
import egqft.causal_splitting
assert 'numpy' not in sys.modules
from egqft import cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run(argv) == 0, argv
    assert out.getvalue(), argv

for extra in ([], ['--format', 'json'], ['--manifest', {manifests[0]!r}],
              ['--format', 'json', '--manifest', {manifests[1]!r}]):
    run({NUMERIC_COMMANDS[0]!r} + extra)
    loaded = [m for m in ('numpy', 'egqft.wightman') if m in sys.modules]
    assert not loaded, (extra, loaded)
for argv in (['sdestimate', '--target', 'ddelta'], *{NUMERIC_COMMANDS[1:]!r}):
    run(argv)
assert 'numpy' in sys.modules
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(),
        cwd=GOLDEN, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_only_adiabatic_limits_imports_numpy():
    """adiabatic_limits is the one module of egqft that imports numpy, at
    any depth; no module imports scipy at module level."""
    import ast

    numpy_users, scipy_users = set(), set()
    for path in sorted((Path(SRC) / "egqft").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            tops = {n.split(".")[0] for n in names}
            if "numpy" in tops:
                numpy_users.add(path.stem)
            if "scipy" in tops and node in tree.body:
                scipy_users.add(path.stem)
    assert sorted(numpy_users) == ["adiabatic_limits"]
    assert sorted(scipy_users) == []


def test_selfenergy_spaces_the_q2_grid_once(monkeypatch, capsys):
    """--q2grid is checked by argparse without being spaced; the selfenergy
    run spaces it once."""
    from egqft import cli

    calls = []

    def counting(spec):
        calls.append(spec)
        return _q2_points(spec)

    monkeypatch.setattr(cli, "_q2_points", counting)
    assert run(["selfenergy", "--model", "scalar_model", "--q2grid=-2:6:17"]) == 0
    assert calls == ["-2:6:17"]
    assert capsys.readouterr().out.count("\n") == 18


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _q2_grids(draw):
    """(a, b, n): b anywhere, equal to a, or a few ulps from it; a also near
    zero, where a span of a few ulps over n - 1 steps underflows to 0."""
    a = draw(_FINITE | st.floats(-1e-310, 1e-310))
    kind = draw(st.sampled_from(("any", "equal", "ulps")))
    b = draw(_FINITE) if kind == "any" else a
    if kind == "ulps":
        toward = draw(st.sampled_from((math.inf, -math.inf)))
        for _ in range(draw(st.integers(1, 8))):
            b = math.nextafter(b, toward)
    return a, b, draw(st.integers(1, 2000))


@settings(max_examples=300, deadline=None)
@given(_q2_grids())
@example((-0.0, 1.0, 1))  # one point: 0.0 * (b - a) + a is +0.0
@example((1.0, -3.0, 7))  # b < a
@example((0.0, 1.5e-323, 8))  # the step underflows to 0, the points do not
def test_q2_points_space_the_grid_as_numpy_linspace(grid):
    """--q2grid a:b:n gives the points of numpy.linspace(a, b, n), bit for
    bit (signed zeros included)."""
    import numpy as np

    a, b, n = grid
    assume(math.isfinite(b - a))
    got = _q2_points(f"{a}:{b}:{n}")
    # numpy also scales the last point, which it then sets to b: near the
    # largest float that product may overflow
    with np.errstate(over="ignore"):
        want = np.linspace(a, b, n).tolist()
    assert [x.hex() for x in got] == [x.hex() for x in want], (a, b, n)


def test_public_names_resolve_on_first_access():
    code = f"""
import egqft
names = {PACKAGE_NAMES!r}
assert sorted(egqft.__all__) == sorted(names)
listed = dir(egqft)
for name in names:
    assert name in listed, name
    getattr(egqft, name)
assert 'causal_splitting' in listed and egqft.causal_splitting.SelfEnergy is egqft.SelfEnergy
from egqft import adiabatic_limits, causal_splitting, cli
assert cli.dispersion_eval is causal_splitting.dispersion_eval
assert cli.appendix_c_demo is adiabatic_limits.appendix_c_demo
assert cli.gl_vs_eg_second_order is adiabatic_limits.gl_vs_eg_second_order
from egqft import power_counting, wick_pairing
assert cli.omega_massless is power_counting.omega_massless
assert cli.wick_expand is wick_pairing.wick_expand
assert cli.complete_pairings is wick_pairing.complete_pairings
"""
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_has_a_consumer_beyond_the_unit_tests():
    """Each name in egqft.__all__ occurs, as a name, an attribute or an
    import, in the library's modules, the benchmark or the acceptance tests.
    A name that only unit tests reach belongs in the test module using it."""
    import ast

    import egqft

    root = Path(__file__).resolve().parents[1]
    files = [p for p in sorted((root / "src" / "egqft").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "bench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(set(egqft.__all__) - used) == []


@pytest.mark.parametrize("module", ["egqft", "egqft.cli"])
def test_python_m_runs_the_cli(module):
    expected = json.loads((GOLDEN / "classify-scalar_model-csv.json").read_text())
    proc = _python("-m", module, "classify", "--model", "scalar_model")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected["stdout"], "")


def test_glcheck_reports_a_library_warning_in_one_line():
    """A warning of the library reaches stderr as one diagnostic line, without
    Python's source path and excerpt, and the run still succeeds."""
    proc = _python("-m", "egqft", "glcheck", "--model", "scalar_model", "--cmis", "1",
                   "--neps", "6")
    assert proc.returncode == 0 and proc.stdout
    assert proc.stderr == (
        "egqft glcheck: warning: self-energy is not normalized at zero momentum; "
        "the decay check runs but is expected to fail\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["selfenergy", "--model", "spinor_qed_massless", "--q2grid=0:1:2"], "needs a mass gap"),
        (["sdestimate", "--target", "smooth", "--dim", "8"], "--dim <= 7"),
        (["adiabatic", "--model", "scalar_model", "--neps", "3"], "family too coarse"),
    ],
    ids=["splitting", "sdestimate", "adiabatic"],
)
def test_numeric_domain_errors_exit_1_from_a_fresh_process(argv, message):
    proc = _python("-m", "egqft", *argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"egqft {argv[0]}: ") and message in proc.stderr, proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("cmd, least, message", [
    ("adiabatic", 6, "need at least 6 epsilon points"),
    ("glcheck", 2, "fewer than 2 samples"),
])
def test_neps_help_names_the_least_schedule_that_runs(capsys, cmd, least, message):
    """The --neps help of each demonstration states its least schedule
    length: one point fewer ends with exit 1, that length runs."""
    (neps,) = [a for c, a in _options() if c == cmd and "--neps" in a.option_strings]
    assert f"(at least {least})" in neps.help
    argv = [cmd, "--model", "scalar_model", "--format", "csv", "--neps"]
    code, out, err = _run(capsys, argv + [str(least - 1)])
    assert code == 1 and out == "" and message in err, err
    code, out, err = _run(capsys, argv + [str(least)])
    assert code == 0 and out.count("\n") >= least, err


# --------------------------------------------------------------------------- wick renderer oracle


def _dict_rendered_wick(model_arg, args, fmt):
    """The wick stream as a dict per term through json.dumps (JSON) and a
    per-term f-string (CSV): the rendering the fragment joiner replaced."""
    model = load_model(model_arg)
    terms = wick_expand([_resolve_arg_poly(model, tok) for tok in args.split(",")])
    if fmt == "json":
        return [
            json.dumps(
                {
                    "s_list": [_sqi_json(model, s) for s in t.s_list.items],
                    "sign": t.sign,
                    "weight": repr(t.weight),
                    "vev_args": [repr(p) for p in t.vev_args],
                    "normal_monomials": [_sqi_json(model, s) for s in t.s_list.items],
                    "vev_forced_zero": t.vev_forced_zero,
                },
                sort_keys=True,
            )
            for t in terms
        ]

    def sqi_str(s):
        return "*".join(
            model.fields.gen_name(g) + (f"^{m}" if m > 1 else "") for g, m in s.entries
        ) or "1"

    def csv_line(t):
        s_str = ";".join(sqi_str(s) for s in t.s_list.items)
        n_str = s_str
        a_str = '"' + ";".join(repr(p) for p in t.vev_args).replace('"', "'") + '"'
        return f"{t.sign},{t.weight!r},{s_str},{n_str},{int(t.vev_forced_zero)},{a_str}"

    header = "sign,weight,s_list,normal_monomials,vev_forced_zero,vev_args"
    return [header] + [csv_line(t) for t in terms]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "model, args",
    [
        ("spinor_qed_massive", "L,L"),
        (str(GOLDEN / "ghosts.model"), "L,L,u*u~"),
        ("scalar_model", "psi^2,phi*psi"),
    ],
    ids=["spinor-L-L", "ghosts-odd", "scalar-freeform"],
)
def test_wick_lines_equal_the_dict_rendering(capsys, model, args, fmt):
    code, out, err = _run(capsys, ["wick", "--model", model, "--args", args, "--format", fmt])
    assert code == 0 and err == ""
    want = _dict_rendered_wick(model, args, fmt)
    got = out.split("\n")
    assert got.pop() == ""
    assert len(got) == len(want)
    for line, expected in zip(got, want):
        assert line == expected


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "01b636122c001e9d2067d28305ce810fe730c3637e02fa2a375e2b2c739d2561"),
        ("csv", "e95def05ff280eb90cb8b6b84e95485364a1339ddda97df9116261040d4d4ced"),
    ],
)
def test_spinor_wick_stream_bytes_are_pinned(capsys, fmt, digest):
    code, out, _ = _run(
        capsys, ["wick", "--model", "spinor_qed_massive", "--args", "L,L", "--format", fmt]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--model", "scalar_model", "--left", "L,L", "--right", "L,L", "--format", "json"],
         "d0fe216d95a58c74d6e2709b5ec94d71e7186f5a9b5218a3a162868c5f2ecab0"),
        (["--model", "scalar_model", "--left", "L,L", "--right", "L,L", "--format", "csv"],
         "aa5560d4f0180605a6954e3219578999446e04aee84f4dfbdd94b4087ddae587"),
        (["--model", "scalar_model", "--left", "L,L", "--right", "L,L", "--format", "json", "--full"],
         "bf6700c8590c5afdb794eb56000f3ea8419e33aec485a1d9b97d1667255896d0"),
        (["--model", "scalar_model", "--left", "L,L", "--right", "L,L", "--format", "csv", "--full"],
         "99042718094c343e28b9fce99404c9bf4c8f63828b871cf270b42e70682d3566"),
        (["--model", str(GOLDEN / "ghosts.model"), "--left", "u*u~,u", "--right", "u~*u,u~",
          "--format", "json"], "acbd6d0173fe634bb1b100b6a6739acd0bb4c68df6345f874e69c26074b7886a"),
        (["--model", str(GOLDEN / "ghosts.model"), "--left", "u*u~,u", "--right", "u~*u,u~",
          "--format", "csv"], "b9634bb227affcc12b701badd89a82d58efa48b85d11efaa7c739b7ba176cc03"),
    ],
    ids=["scalar-json", "scalar-csv", "scalar-full-json", "scalar-full-csv", "ghosts-json", "ghosts-csv"],
)
def test_pairings_stream_bytes_are_pinned(capsys, argv, digest):
    """Digests recorded from the per-term renderer, before pairs, residuals
    and consts were shared and rendered once."""
    code, out, _ = _run(capsys, ["pairings", *argv])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("model", ["empty", "no-vertex", "directory", "non-utf8"])
def test_unusable_models_exit_0_or_1_without_traceback(tmp_path, capsys, model):
    """Every command that reads --model ends with exit 0 or 1 on a model it
    cannot use; an unreadable path and a missing vertex are domain errors."""
    texts = {
        "empty": b"[fields]\n[vertices]\n",
        "no-vertex": b"[fields]\nphi scalar 1.0 0 0\n[vertices]\n",
        "non-utf8": b"[fields]\nphi scalar 1.0 0 0\n\xff\xfe\n",
    }
    path = tmp_path / "model"
    if model == "directory":
        path.mkdir()
    else:
        path.write_bytes(texts[model])
    for cmd in (
        ["classify"], ["subpolys"], ["omega", "--ext", "phi=2"], ["wick", "--args", "L"],
        ["pairings", "--left", "L", "--right", "L"], ["selfenergy", "--q2grid", "0:1:3"],
        ["adiabatic"], ["glcheck"],
    ):
        code, _, err = _run(capsys, [*cmd, "--model", str(path)])
        assert code in (0, 1), (cmd, err)
        if model in ("directory", "non-utf8"):
            assert code == 1 and "nor a readable file" in err, (cmd, err)
        elif cmd[0] in ("selfenergy", "adiabatic", "glcheck"):
            # the self-energy's order comes from the interaction vertex
            assert code == 1 and "has no vertex 0" in err, (cmd, err)


PHI3_C0 = "[fields]\nphi scalar 1.0 0 0\n[vertices]\ng = 1/6 * phi^3\n[options]\nc = 0\n"


@pytest.mark.filterwarnings("ignore")
def test_selfenergy_and_kit_subtract_to_the_model_omega(tmp_path, capsys, monkeypatch):
    """A cubic vertex at c = 0 has omega = 0, so `selfenergy --nsub central`
    and the demonstrations' kit both subtract once (scalar_model: twice)."""
    from egqft import cli
    from egqft.adiabatic_limits import SecondOrderKit, _kit

    path = tmp_path / "phi3.model"
    path.write_text(PHI3_C0)
    seen = []

    def recording(fn, tag):
        return lambda se, *args: seen.append((tag, se.n_sub)) or fn(se, *args)

    monkeypatch.setattr(cli, "dispersion_eval", recording(cli.dispersion_eval, "selfenergy"))
    monkeypatch.setattr(SecondOrderKit, "build", staticmethod(recording(SecondOrderKit.build, "kit")))
    _kit.cache_clear()
    for cmd in (["selfenergy", "--q2grid=-1:1:3"], ["adiabatic", "--neps", "6"]):
        code, _, err = _run(capsys, [*cmd, "--model", str(path)])
        assert code == 0, (cmd, err)
    n_subs = {tag: {n for t, n in seen if t == tag} for tag, _ in seen}
    assert n_subs == {"selfenergy": {1}, "kit": {1}}


@pytest.mark.parametrize("cmd", ["adiabatic", "glcheck"])
def test_demonstrations_refuse_models_they_do_not_compute(tmp_path, capsys, cmd):
    """The demonstrations compute the bubble of the heaviest scalar field: the
    massive QED builtins exit 1 naming the photon factor, the massless models
    on the missing mass gap.  The scalar models run; those whose self-energy
    is scalar_model's (mass 1, two subtractions) print its numbers."""
    phi3 = tmp_path / "phi3.model"
    phi3.write_text(PHI3_C0)
    photon = "vertex 0: factor 'A_0' is not an underived scalar field"
    for model, message in (
        ("spinor_qed_massive", f"model 'spinor_qed_massive', {photon}"),
        ("scalar_qed_massive", f"model 'scalar_qed_massive', {photon}"),
        ("spinor_qed_massless", "needs a mass gap"),
        ("scalar_qed_massless", "needs a mass gap"),
        (str(GOLDEN / "ghosts.model"), "needs a mass gap"),
    ):
        code, out, err = _run(capsys, [cmd, "--model", model, "--neps", "6"])
        assert code == 1 and out == "" and err.count("\n") == 1, (model, err)
        assert err.startswith(f"egqft {cmd}: ") and message in err, (model, err)
    outputs = {}
    for model in ("scalar_model", GOLDEN / "two_scalar.model", GOLDEN / "dirac.model", phi3):
        code, out, err = _run(capsys, [cmd, "--model", str(model), "--neps", "6", "--format", "csv"])
        assert code == 0 and err == "" and out, (model, err)
        outputs[model] = out
    assert outputs[GOLDEN / "two_scalar.model"] == outputs["scalar_model"]
    assert outputs[GOLDEN / "dirac.model"] == outputs["scalar_model"]


LIGHT_PHI3 = ("[fields]\nphi scalar 0.0 0 0\npsi scalar 1.0 0 0\n[vertices]\n"
              "g = 1/6 * phi^3\n[options]\nc = 1\n")


@pytest.mark.parametrize("cmd", [["selfenergy", "--q2grid=-2:6:3"], ["adiabatic", "--neps", "6"],
                                 ["glcheck", "--neps", "6"]])
def test_numeric_commands_refuse_a_vertex_without_the_heaviest_field(tmp_path, capsys, cmd):
    """A cubic vertex of the massless phi never reaches the heavy psi, whose
    bubble is the only one computed: every numeric command exits 1 naming
    the monomial."""
    path = tmp_path / "light_phi3.model"
    path.write_text(LIGHT_PHI3)
    code, out, err = _run(capsys, [*cmd, "--model", str(path)])
    assert code == 1 and out == "" and err.count("\n") == 1, err
    assert "monomial 'phi^3' has fewer than two factors of mass 1.0" in err, err


def test_selfenergy_json_is_valid_at_huge_q2(capsys):
    code, out, err = _run(capsys, ["selfenergy", "--model", "scalar_model", "--q2grid=1e200:1e200:1",
                                   "--format", "json"])
    assert (code, err) == (0, "")
    (record,) = [json.loads(line, parse_constant=pytest.fail) for line in out.splitlines()]
    assert record["im"] == 0.07957747154594767


def test_selfenergy_re_sigma_1_is_finite_at_1e308(capsys):
    """Re Sigma_1 of the unit-mass bubble at q^2 = 1e308, against the same
    closed form in 40-digit arithmetic, J = 2 - beta log((1 + beta)^2 q^2/s0)."""
    import mpmath as mp

    code, out, err = _run(capsys, ["selfenergy", "--model", "scalar_model", "--nsub", "1",
                                   "--q2grid=1e308:1e308:1", "--format", "json"])
    assert (code, err) == (0, "")
    record = json.loads(out, parse_constant=pytest.fail)
    with mp.workdps(40):
        q2, s0 = mp.mpf(1e308), mp.mpf(4)
        beta = mp.sqrt(1 - s0 / q2)
        want = float((2 - beta * mp.log((1 + beta) ** 2 * q2 / s0)) / (4 * mp.pi**2))
    assert abs(record["re"] - want) <= 1e-12 * abs(want), (record, want)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("grid", ["1e200:1e200:1", "-1e200:1e200:3"])
def test_selfenergy_refuses_a_sigma_outside_the_float_range(capsys, fmt, grid):
    """Re Sigma_3 grows like q^4 and overflows at |q^2| = 1e200: exit 1 before
    any output, naming the point and the subtraction order."""
    code, out, err = _run(capsys, ["selfenergy", "--model", "scalar_model", "--nsub", "3",
                                   f"--q2grid={grid}", "--format", fmt])
    assert code == 1 and out == "" and err.count("\n") == 1, err
    assert err.startswith("egqft selfenergy: Sigma at q^2 = ") and "with n_sub = 3" in err, err
    assert "outside the float range" in err, err


@pytest.mark.parametrize("cmis", ["1e160", "1e200"])
def test_adiabatic_refuses_a_limit_fit_that_overflows(tmp_path, capsys, cmis):
    """|c_mis| past about 1e154 squares the fit residuals out of the float
    range: exit 1 with one stderr line, no warning and no --out file."""
    out_file = tmp_path / "out.json"
    code, out, err = _run(capsys, ["adiabatic", "--model", "scalar_model", "--cmis", cmis,
                                   "--neps", "6", "--out", str(out_file)])
    assert code == 1 and out == "" and err.count("\n") == 1, err
    assert err.startswith("egqft adiabatic: the log-slope fit of gauss/adv overflows"), err
    assert not out_file.exists()


def test_adiabatic_near_the_overflow_writes_strict_json(capsys):
    code, out, err = _run(capsys, ["adiabatic", "--model", "scalar_model", "--cmis", "1e150",
                                   "--neps", "6", "--format", "json"])
    assert code == 0 and err == "", err
    record = json.loads(out, parse_constant=pytest.fail)
    assert all(record[side]["slope_sigma"] > 0 for side in ("advanced", "retarded", "difference"))


def test_inhomogeneous_vertex_error_names_fields(tmp_path, capsys):
    path = tmp_path / "mixed.model"
    path.write_text("[fields]\nphi scalar 1.0 0 0\n[vertices]\ng = 1 * phi^3 + 1 * phi^4\n")
    code, out, err = _run(capsys, ["classify", "--model", str(path)])
    assert code == 1 and out == "" and err.count("\n") == 1, err
    assert "component phi^3 has canonical dimension 3" in err, err
    assert "component phi^4 has canonical dimension 4" in err, err


def test_selfenergy_integer_nsub_reads_vertex_0(tmp_path, capsys):
    path = tmp_path / "no_vertex.model"
    path.write_text("[fields]\nphi scalar 1.0 0 0\n[vertices]\n")
    code, out, err = _run(capsys, ["selfenergy", "--model", str(path), "--q2grid=-2:6:3", "--nsub", "1"])
    assert code == 1 and out == "" and "has no vertex 0" in err, err


def test_q2grid_whose_span_overflows_is_a_usage_error(capsys):
    """The bounds are finite but b - a is not: refused before np.linspace,
    so numpy prints no warning and no nan row is written."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, ["selfenergy", "--model", "scalar_model",
                                       "--q2grid=1e308:-1e308:3", "--format", "json"])
    assert code == 2 and out == "" and "the span b - a overflows" in err, err
    assert not caught, [str(w.message) for w in caught]


def test_massless_subtracted_bubble_fails_before_the_quadrature(tmp_path, capsys):
    """rho(0+) > 0 on the massless bubble, so every subtraction at q^2 = 0
    diverges: n_sub >= 1 is refused as needing a mass gap, n_sub = 0 (on a
    massless cubic model, whose block is the bubble) by the bubble's
    growth."""
    cubic = tmp_path / "phi3_massless.model"
    cubic.write_text("[fields]\nphi scalar 0.0 0 0\n[vertices]\ng = 1/6 * phi^3\n[options]\nc = 1\n")
    argv = ["selfenergy", "--q2grid=-2:6:5", "--model"]
    for model, nsub, message in (("spinor_qed_massless", "1", "needs a mass gap"),
                                 ("spinor_qed_massless", "3", "needs a mass gap"),
                                 (str(cubic), "0", "requires n_sub >= 1")):
        code, out, err = _run(capsys, [*argv, model, "--nsub", nsub])
        assert code == 1 and out == "" and err.count("\n") == 1, (nsub, err)
        assert err.startswith("egqft selfenergy: ") and message in err, (nsub, err)
    assert "with n_sub = 1 it is infrared-divergent" in _run(
        capsys, [*argv, "spinor_qed_massless", "--nsub", "1"])[2]
