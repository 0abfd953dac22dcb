"""The repository's tooling against the package: the benchmark tracer and the scripts."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import matconj
from matconj import ColumnVector, Matrix, rationals

ROOT = Path(__file__).resolve().parents[1]
TRACED_MODULES = ("cli", "automorphism", "skolem_noether", "matrix", "field", "fuzz")


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every name bound in the traced modules and on the traced classes."""
    owners = [matconj, Matrix, matconj.FieldSpec, matconj.AutomorphismOracle]
    owners += [importlib.import_module(f"matconj.{name}") for name in TRACED_MODULES]
    return {
        (owner.__name__, attr): value
        for owner in owners
        for attr, value in vars(owner).items()
    }


def test_benchmark_tracer_installs_and_restores():
    # install() looks up each name the benchmark traces, so a renamed one fails here
    before = _bindings()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert Matrix.__dict__["__matmul__"] is not before[("Matrix", "__matmul__")]
        QQ = rationals()
        m = Matrix.identity(QQ, 2)
        m @ ColumnVector(QQ, [1, 2])
        m @ m
        assert [span[0] for span in tracer.spans] == ["matrix.matvec", "matrix.matmul"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _run_script(name, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_recover_demo_runs():
    result = _run_script("recover_demo.py")
    assert result.returncode == 0, result.stderr
    assert "kernel vector a = " in result.stdout
    assert result.stdout.splitlines()[-1].startswith("A = ")


def test_acceptance_sweep_runs():
    result = _run_script("acceptance_sweep.py", "--trials", "1")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "SWEEP OK"


def test_byte_identity_finds_no_difference_between_a_checkout_and_itself():
    result = _run_script(
        "byte_identity.py", "--parent", str(ROOT), "--change", str(ROOT),
        "--max-n", "2", "--seeds", "1",
    )
    assert result.returncode == 0, result.stdout + result.stderr
    last = result.stdout.splitlines()[-1]
    assert last.startswith("byte identity: ") and last.endswith(", 0 differ"), last
