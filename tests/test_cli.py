"""CLI behavior: outputs, determinism, exit codes, manifests."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from egqft.cli import run

SHORT_EPS_NOTE = "CLI demos use the full default schedule; tests keep commands light."


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


def test_sdestimate(capsys):
    for target, expect, tol in (("delta", 4.0, 0.05), ("ddelta", 5.0, 0.05), ("smooth", 0.0, 0.1)):
        argv = ["sdestimate", "--target", target, "--dim", "4", "--format", "json"]
        code, out, _ = _run(capsys, argv)
        assert code == 0, target
        payload = json.loads(out)
        assert payload["ok"] and abs(payload["estimate"] - expect) < tol, payload
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
    ],
    ids=["q2grid-abc", "q2grid-no-points", "ext-not-a-count", "der-without-count",
         "nsub-not-a-count", "nsub-negative", "dim-zero", "dim-negative",
         "adiabatic-family-unknown", "glcheck-family-unknown"],
)
def test_malformed_option_is_a_usage_error(capsys, argv, option):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: egqft ") and f"argument {option}:" in err
    assert "Traceback" not in err


def test_closed_stdout_ends_quietly_with_exit_1():
    # the reader closes the pipe after one line, as `egqft wick ... | head -1` does
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from egqft.cli import main; main()",
         "wick", "--model", "spinor_qed_massive", "--args", "L,L"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b'{"normal_monomials"')
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


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
