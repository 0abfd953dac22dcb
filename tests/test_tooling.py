"""The repository's tooling against the package: the benchmark tracer and the scripts."""

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from collections import Counter
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


# Library API that no src/ code names and the tracer does not bind, kept on
# purpose; "module.Qualified.name".  The list may only shrink: a new
# definition nothing reaches fails the test below, and so does a pin that
# is reached or gone.
KEPT_API = {
    "cli._JsonErrorParser.error",  # argparse calls it
    "field.FieldElement.is_one",
    "matrix.ColumnVector.entry",
    "matrix.ColumnVector.standard_basis",
    "matrix.Matrix.from_rows",
    "matrix.Matrix.trace",
    "matrix.Matrix.transpose",
    "skolem_noether.StructureCheckReport.all_ok",
}


def _names(node) -> Counter:
    """How often each name is read in ``node``, as a Name or an Attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _definitions(node, prefix):
    """(qualified name, node) of every function, method and class in node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = f"{prefix}.{child.name}"
            yield qualified, child
            yield from _definitions(child, qualified)
        else:
            yield from _definitions(child, prefix)


def test_every_src_definition_is_reached():
    # aim 2's ratchet: each definition under src/matconj is named elsewhere
    # in src/, bound by the benchmark tracer, or pinned in KEPT_API; dunder
    # methods are called by the language
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "matconj").glob("*.py"))
    }
    named = sum((_names(tree) for tree in trees.values()), Counter())
    tracer = _load_tracer()
    traced = {f"{module}.{name}" for module, name, _ in tracer.FUNCTIONS}
    traced |= {f"{module}.{cls}.{name}" for module, cls, name, _ in tracer.METHODS}
    unreached = set()
    for module, tree in trees.items():
        for qualified, node in _definitions(tree, module):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or qualified in traced:
                continue
            if named[name] - _names(node)[name] == 0:
                unreached.add(qualified)
    assert unreached == KEPT_API


def test_ci_tier1_step_runs_the_roadmap_tier1_command():
    # the workflow's tier-1 step runs exactly the ROADMAP's "Tier-1 verify"
    # command; a plain text match, so no YAML parser is needed
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    (command,) = re.findall(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M)
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    steps = re.findall(r"^ +- name: Tier-1 tests\n +run: (.+)$", workflow, re.M)
    assert steps == [command]


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


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_reads_each_metric_against_its_bound(capsys):
    bench_pairs = _load_script("bench_pairs")
    compare = bench_pairs.compare
    parent = [10.0, 10.2, 9.8, 10.1, 9.9]
    # 15% slower is inside an 18% bound; 25% slower is outside it
    slower = [x * 0.85 for x in parent]
    result = compare(parent, slower, "higher", 0.18)
    assert (result["verdict"], result["wins"]) == ("inside bound", 0)
    assert compare(parent, [x * 0.75 for x in parent], "higher", 0.18)["verdict"] == (
        "outside bound"
    )
    # for a lower-is-better metric the same rise is the worse direction
    assert compare(parent, [x * 1.25 for x in parent], "lower", 0.18)["verdict"] == (
        "outside bound"
    )
    assert compare(parent, [x * 1.25 for x in parent], "higher", 0.18)["wins"] == 5
    # a parent IQR wider than the bound leaves the metric unresolved, even
    # when the change's median is the parent's
    noisy = [10.0, 13.0, 7.0, 12.0, 8.0]
    result = compare(noisy, noisy, "lower", 0.13)
    assert (result["parent"], result["change"]) == (10.0, 10.0)
    assert result["verdict"] == "unresolved"
    assert compare([1.0, 1.0, 1.0], [1.0, 1.0, 0.99], "higher", 0.01)["verdict"] == (
        "inside bound"
    )

    # peak RSS: the median rise is inside 8%, but one pair whose change run
    # made 1.5x the ops rose 10%; the summary names that pair and its ratio
    def run(rss, attempted):
        return {"attempted": attempted, "metrics": {"peak_rss_mb": {"value": rss}}}

    runs = {"parent": {"w": {}}, "change": {"w": {}}}
    for seed, (before, after, ops) in enumerate(
        [(30.0, 30.6, (400, 410)), (30.0, 33.0, (400, 600)), (32.0, 31.0, (420, 400))], 1
    ):
        runs["parent"]["w"][str(seed)] = run(before, ops[0])
        runs["change"]["w"][str(seed)] = run(after, ops[1])
    pairs = [(runs["parent"]["w"][s], runs["change"]["w"][s]) for s in "123"]
    worst = bench_pairs.largest_rise(pairs, "peak_rss_mb")
    assert worst["pair"] == 1 and worst["ops_ratio"] == 1.5
    assert abs(worst["rise"] - 0.10) < 1e-12
    metrics = {"peak_rss_mb": ("lower", 0.08)}
    bench_pairs.summarize(runs["parent"], runs["change"], "w", [1, 2, 3], metrics)
    lines = capsys.readouterr().out.splitlines()
    assert "inside bound (8%)" in lines[2]
    assert lines[3].split() == [
        "largest", "pair", "rise", "+10.0%", "(seed", "2),", "attempted", "ops",
        "ratio", "1.50",
    ]


def test_bench_pairs_counts_src_lines():
    bench_pairs = _load_script("bench_pairs")
    src_lines = bench_pairs.src_lines
    assert src_lines([]) == 0
    assert src_lines(["", "a\n", "a\nb\n\n", "last line without a newline"]) == 5
    assert src_lines(["a\r\nb\r\n"]) == 2
    # the whole checkout: one count per Python file under src/, summed
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    expected = sum(path.read_bytes().count(b"\n") for path in files)
    assert bench_pairs.checkout_src_lines(ROOT) == expected


def test_kind_times_summarizes_each_kind_and_the_median_op():
    summarize = _load_script("kind_times").summarize
    kinds = ["fast", "fast", "slow", "mid"]
    times = {
        "parent": [[1.0, 3.0, 30.0, 10.0], [2.0, 4.0, 50.0, 12.0], [2.0, 3.0, 40.0, 11.0]],
        "change": [[1.0, 3.0, 20.0, 10.0], [2.0, 4.0, 22.0, 12.0], [2.0, 3.0, 21.0, 11.0]],
    }
    summary = summarize(kinds, [1.0, 1.0, 1.0, 1.0], times)
    assert summary["kinds"]["fast"] == {"ops": 2, "parent": 2.5, "change": 2.5}
    assert summary["kinds"]["slow"] == {"ops": 1, "parent": 40.0, "change": 21.0}
    # 12 samples: the sixth is the slowest fast op, and a mid op is next
    assert summary["median"]["parent"] == {"ms": 4.0, "kind": "fast", "above": "mid"}
    # weighting the fast ops by half moves the median into the mid ops
    half = summarize(kinds, [0.5, 0.5, 1.0, 1.0], times)["median"]["change"]
    assert half == {"ms": 11.0, "kind": "mid", "above": "slow"}
    # the slowest kind has no kind above it
    last = summarize(["a", "b"], [1.0, 3.0], {"s": [[1.0, 2.0]]})["median"]["s"]
    assert last == {"ms": 2.0, "kind": "b", "above": None}


def test_elimination_times_imports_two_checkouts_side_by_side():
    script = _load_script("elimination_times")
    names = ("matconj_timing_a", "matconj_timing_b")
    try:
        a, b = (script.load(ROOT, name) for name in names)
        assert a.Matrix is not b.Matrix
        assert a.matrix.__name__ == "matconj_timing_a.matrix"
        rows = [[1, 2], [3, 4]]
        dets = [pkg.Matrix.from_rows(pkg.rationals(), rows).det().value for pkg in (a, b)]
        assert dets == [-2, -2]
    finally:
        for key in [k for k in sys.modules if k.startswith(names)]:
            del sys.modules[key]
