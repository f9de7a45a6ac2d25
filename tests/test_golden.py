"""Golden CLI outputs: every subcommand, both formats, compared byte for byte.

Each case runs ``egqft.cli.run`` in-process from ``tests/golden/`` (so the
model-file case can name its file relatively) and compares stdout, stderr,
the exit code, the ``--out`` file and the ``--manifest`` (without its wall
time) with ``tests/golden/<case>.json``.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py --record
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from egqft import cli

GOLDEN = Path(__file__).with_name("golden")

_BASE = {
    "classify-scalar_model": ["classify", "--model", "scalar_model"],
    "classify-spinor_qed_massive-c1": ["classify", "--model", "spinor_qed_massive", "--c", "1"],
    "subpolys-species": ["subpolys", "--model", "scalar_qed_massive", "--view", "species"],
    "subpolys-constant": ["subpolys", "--model", "scalar_qed_massive", "--view", "constant"],
    "subpolys-all": ["subpolys", "--model", "scalar_qed_massive", "--view", "all"],
    "omega-phi2-psi0": ["omega", "--model", "scalar_model", "--ext", "phi=2,psi=0"],
    "omega-psi_1": ["omega", "--model", "spinor_qed_massive", "--ext", "psi_1=1"],
    "wick-L-L": ["wick", "--model", "scalar_model", "--args", "L,L"],
    "wick-freeform": ["wick", "--model", "scalar_model", "--args", "psi^2,phi*psi"],
    "pairings-full": [
        "pairings", "--model", "scalar_model", "--left", "psi^2", "--right", "psi^2", "--full"],
    "pairings-L-L": ["pairings", "--model", "scalar_model", "--left", "L", "--right", "L"],
    "selfenergy-central": ["selfenergy", "--model", "scalar_model", "--q2grid=-2:6:17"],
    "selfenergy-nsub1-retarded": [
        "selfenergy", "--model", "scalar_model", "--q2grid=-2:6:17", "--nsub", "1",
        "--mode", "retarded"],
    "adiabatic": ["adiabatic", "--model", "scalar_model", "--neps", "6", "--out", "@OUT"],
    "glcheck": ["glcheck", "--model", "scalar_model", "--neps", "6", "--out", "@OUT"],
    "adiabatic-asym-vanishing-cmis": [
        "adiabatic", "--model", "scalar_model", "--family", "asym", "--fprofile", "vanishing",
        "--cmis", "0.5", "--neps", "6"],
    "glcheck-asym-cmis": [
        "glcheck", "--model", "scalar_model", "--family", "asym", "--cmis", "1", "--neps", "6"],
    "sdestimate-delta": ["sdestimate", "--target", "delta"],
    "sdestimate-ddelta": ["sdestimate", "--target", "ddelta"],
    "modelfile-wick": ["wick", "--model", "two_scalar.model", "--args", "L,chi*phi"],
    "modelfile-dirac-classify": ["classify", "--model", "dirac.model"],
    "ghosts-pairings": [
        "pairings", "--model", "ghosts.model", "--left", "u*u~,u", "--right", "u~*u,u~"],
    "ghosts-wick": ["wick", "--model", "ghosts.model", "--args", "L,L,u*u~"],
}

CASES = {
    f"{name}-{fmt}": argv + ["--format", fmt]
    for name, argv in _BASE.items()
    for fmt in ("json", "csv")
}
CASES["omega-unknown-field"] = ["omega", "--model", "scalar_model", "--ext", "zz=1"]
CASES["wick-unknown-field"] = ["wick", "--model", "scalar_model", "--args", "phi*zz"]


def capture(argv: list[str], tmp: str) -> dict:
    """Run one case from the golden directory; everything it wrote."""
    out_path = os.path.join(tmp, "out.txt")
    manifest_path = os.path.join(tmp, "manifest.json")
    for p in (out_path, manifest_path):
        if os.path.exists(p):
            os.remove(p)
    argv = [out_path if a == "@OUT" else a for a in argv] + ["--manifest", manifest_path]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(argv)
    finally:
        os.chdir(cwd)
    rec = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    rec["out_file"] = Path(out_path).read_text() if os.path.exists(out_path) else None
    manifest = None
    if os.path.exists(manifest_path):
        manifest = json.loads(Path(manifest_path).read_text())
        del manifest["wall_time_s"]
    rec["manifest"] = manifest
    return rec


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    expected = json.loads((GOLDEN / f"{case}.json").read_text())
    got = capture(CASES[case], str(tmp_path))
    for key in ("exit", "stderr", "stdout", "out_file", "manifest"):
        assert got[key] == expected[key], f"{case}: {key} differs"


def _diff_keys(old: dict, new: dict) -> str:
    """The keys whose values differ: +added, -removed, ~changed."""
    marks = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            marks.append(f"+{key}")
        elif key not in new:
            marks.append(f"-{key}")
        elif old[key] != new[key]:
            marks.append(f"~{key}")
    return " ".join(marks) or "none"


def _params(rec: dict) -> dict:
    return (rec.get("manifest") or {}).get("params") or {}


def record() -> None:
    """Overwrite every golden file; print, per case, which top-level keys and
    which manifest.params keys changed against the file it replaces."""
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in sorted(CASES.items()):
            rec = capture(argv, tmp)
            path = GOLDEN / f"{case}.json"
            if path.exists():
                old = json.loads(path.read_text())
                change = f"keys {_diff_keys(old, rec)}; params {_diff_keys(_params(old), _params(rec))}"
            else:
                change = "new file"
            path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
            print(f"{case}: exit {rec['exit']}, {len(rec['stdout'])} stdout bytes; {change}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
