#!/usr/bin/env python3
"""Check that two checkouts give the same CLI bytes on one seeded corpus.

The parent checkout's package writes a seeded corpus of problem files over
Q, GF(2), GF(3), GF(5) and GF(2^61-1) for n = 1..max-n: conjugators, singular
and zero conjugators, genuine and random generator pairs, tables (n <= 6),
and a fixed set of malformed files, among them bad scalars of each error
kind in a conjugator, in a table's last cell and in a pair's ``G``.  The
tables are genuine, transposed, genuine with one entry bumped, genuine with
only its last image phi(E_nn) bumped, zero, and the diagonal projection
X -> diag(X).  So ``check-aut`` accepts by construction and sweep, falls back
to ``validate`` after a failed build and after a sweep that fails at its last
pair, and reads bijectivity both off phi(I) and off the rank of a map that is
not multiplicative.  Each
checkout then runs every call of the corpus in process through its own
``matconj.cli.main``, in a subprocess of its own:

* ``recover`` and ``recover --no-verify`` on every file;
* ``check-aut`` on every file with n <= 6 and on every malformed file;
* ``recover`` and ``check-aut`` with an unwritable ``--out`` on the n = 2
  files;
* ``gen`` over six fields, and ``fuzz`` with no adversary, ``transpose`` and
  ``random_pair``, plus a few refused flags.

Every call whose exit code, stdout or stderr differ between the checkouts is
printed; fuzz's stderr timing line is left out of the comparison.  The last
line counts the calls per command and the differing calls, and the exit code
is 1 when any call differs.

Usage:
    python scripts/byte_identity.py --parent DIR --change DIR [--max-n 10] [--seeds 2]

Only the standard library is used.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

FIELDS = ({"type": "Q"}, {"type": "GFp", "p": 2}, {"type": "GFp", "p": 3},
          {"type": "GFp", "p": 5}, {"type": "GFp", "p": 2**61 - 1})
GEN_FIELDS = ("q", "gfp:2", "gfp:3", "gfp:7", "gfp:101", f"gfp:{2**61 - 1}")
FUZZ_FIELDS = "q,gfp:2,gfp:3,gfp:7,gfp:101"
MAX_TABLE_N = 6  # a table holds n^4 scalars; validate ranks a non-multiplicative one in O(n^6)
TIMING_LINE = re.compile(r"fuzz: \d+ trials in [0-9.]+s\n")

SWAP = [["0", "1"], ["1", "0"]]
E = {(i, j): [["1" if (r, c) == (i, j) else "0" for c in (1, 2)] for r in (1, 2)]
     for i in (1, 2) for j in (1, 2)}  # the 2x2 matrix units as scalar strings


def _with_last_cell(cell) -> list:
    """The identity map's 2x2 table, its very last scalar replaced by ``cell``."""
    table = [[[row[:] for row in E[(i, j)]] for j in (1, 2)] for i in (1, 2)]
    table[-1][-1][-1][-1] = cell
    return table


GF7 = {"type": "GFp", "p": 7}
MALFORMED = {
    "not_json": b"{not json",
    "empty": b"",
    "top_level_list": b"[]",
    "non_utf8": b'{"field": {"type": "Q"}, "n": 1, "conjugator": [["\xff"]]}',
    "repeated_key": b'{"field": {"type": "Q"}, "n": 2, "conjugator": [["0", "1"], '
                    b'["1", "0"]], "n": 2}',
    "deep_nesting": b"[" * 200000 + b"]" * 200000,
    "unknown_key": {"field": {"type": "Q"}, "n": 2, "conjugator": SWAP, "conjugatr": SWAP},
    "missing_n": {"field": {"type": "Q"}, "conjugator": SWAP},
    "boolean_n": {"field": {"type": "Q"}, "n": True, "conjugator": [["1"]]},
    "wrong_shape": {"field": {"type": "Q"}, "n": 2, "conjugator": [["0", "1"]]},
    "bad_scalar": {"field": {"type": "Q"}, "n": 2, "conjugator": [["0", "x"], ["1", "0"]]},
    "composite_p": {"field": {"type": "GFp", "p": 6}, "n": 2, "conjugator": SWAP},
    "two_variants": {"field": {"type": "Q"}, "n": 2, "conjugator": SWAP,
                     "generator_pair": {"H": SWAP, "G": SWAP}},
    "pair_without_G": {"field": {"type": "Q"}, "n": 2, "generator_pair": {"H": SWAP}},
    "oversized_scalar": {"field": {"type": "Q"}, "n": 1, "conjugator": [["1" * 5000]]},
    "gfp_fraction": {"field": GF7, "n": 2, "conjugator": [["1/2", "0"], ["0", "1"]]},
    "non_ascii_digit": {"field": {"type": "Q"}, "n": 1, "conjugator": [["\uff11"]]},
    "integer_cell": {"field": GF7, "n": 2, "conjugator": [["0", "1"], ["1", 0]]},
    "null_cell": {"field": {"type": "Q"}, "n": 1, "conjugator": [[None]]},
    "zero_denominator": {"field": {"type": "Q"}, "n": 2, "conjugator": [["1/0", "0"], SWAP[1]]},
    "oversized_table_cell": {"field": {"type": "Q"}, "n": 2,
                             "full_table": _with_last_cell("7" * 4301)},
    "table_gfp_fraction": {"field": GF7, "n": 2, "full_table": _with_last_cell("1/2")},
    "table_boolean_cell": {"field": GF7, "n": 2, "full_table": _with_last_cell(True)},
    "bad_G_cell": {"field": GF7, "n": 2,
                   "generator_pair": {"H": E[(2, 1)], "G": [["0", "1"], ["0", "\u0663"]]}},
    "integer_G_cell": {"field": {"type": "Q"}, "n": 2,
                       "generator_pair": {"H": E[(2, 1)], "G": [["0", "1"], ["0", 0]]}},
}


def _field_name(field: dict) -> str:
    return "q" if field["type"] == "Q" else f"gfp{field['p']}"


def build_corpus(corpus: Path, max_n: int, seeds: int) -> list[list[str]]:
    """Write the problem files into ``corpus`` and return the calls to run.

    Runs in a worker whose ``matconj`` is the parent checkout's package."""
    from matconj import (
        AutomorphismOracle,
        Matrix,
        elementary_matrix,
        random_invertible,
        random_matrix,
    )
    from matconj.cli import matrix_to_json, parse_field_descriptor

    files = []  # (path, n)

    def write(name: str, n: int, obj) -> None:
        path = corpus / f"{name}.json"
        path.write_bytes(obj if isinstance(obj, bytes) else json.dumps(obj).encode())
        files.append((str(path), n))

    for seed in range(seeds):
        for field in FIELDS:
            spec = parse_field_descriptor(field)
            for n in range(1, max_n + 1):
                tag = f"{_field_name(field)}_n{n}_s{seed}"
                rng = random.Random(f"{seed}|{field}|{n}")

                def problem(variant, body):
                    return {"field": field, "n": n, variant: body}

                b = random_invertible(spec, n, rng, 5)
                conjugator = matrix_to_json(b)
                write(f"conj_{tag}", n, problem("conjugator", conjugator))
                singular = conjugator[:-1] + [conjugator[0]] if n > 1 else [["0"]]
                write(f"singular_{tag}", n, problem("conjugator", singular))
                zero = [["0"] * n for _ in range(n)]
                write(f"zero_{tag}", n, problem("conjugator", zero))
                oracle = AutomorphismOracle.conjugation_by(b)
                h, g = oracle.query_generators()
                pair = {"H": matrix_to_json(h), "G": matrix_to_json(g)}
                write(f"pair_{tag}", n, problem("generator_pair", pair))
                h, g = (random_matrix(spec, n, rng, 5) for _ in range(2))
                pair = {"H": matrix_to_json(h), "G": matrix_to_json(g)}
                write(f"random_pair_{tag}", n, problem("generator_pair", pair))
                if n > MAX_TABLE_N:
                    continue
                units = range(1, n + 1)
                genuine = {(i, j): oracle.apply(elementary_matrix(spec, n, i, j))
                           for i in units for j in units}
                bumped = dict(genuine)
                key = (rng.randint(1, n), rng.randint(1, n))
                bumped[key] = bumped[key] + elementary_matrix(
                    spec, n, rng.randint(1, n), rng.randint(1, n))
                last_bumped = dict(genuine)
                last_bumped[(n, n)] = genuine[(n, n)] + elementary_matrix(spec, n, 1, n)
                zero = Matrix.zero(spec, n, n)
                tables = {
                    "table": genuine,
                    "transposed": {(i, j): genuine[(j, i)] for (i, j) in genuine},
                    "bumped": bumped,
                    "last_bumped": last_bumped,
                    "zero_table": dict.fromkeys(genuine, zero),
                    "diagonal": {(i, j): elementary_matrix(spec, n, i, i) if i == j
                                 else zero for (i, j) in genuine},
                }
                for kind, images in tables.items():
                    table = [[matrix_to_json(images[(i, j)]) for j in units]
                             for i in units]
                    write(f"{kind}_{tag}", n, problem("full_table", table))
    for name, content in MALFORMED.items():
        write(f"malformed_{name}", 0, content)

    unwritable = str(corpus / "missing" / "report.json")
    calls = []
    for path, n in files:
        calls += [["recover", path], ["recover", "--no-verify", path]]
        if n <= MAX_TABLE_N:
            calls.append(["check-aut", path])
        if n == 2:
            calls += [["recover", path, "--out", unwritable],
                      ["check-aut", path, "--out", unwritable]]
    calls.append(["recover", str(corpus / "absent.json")])
    for seed in range(seeds):
        for field in GEN_FIELDS:
            for n in sorted({1, 2, max_n}):
                calls.append(["gen", "--field", field, "--n", str(n), "--seed", str(seed)])
        for grid in (f"1..{min(max_n, 4)}", str(min(max_n, 6))):
            for adversary in ([], ["--adversary", "transpose"],
                              ["--adversary", "random_pair"]):
                calls.append(["fuzz", "--n", grid, "--fields", FUZZ_FIELDS,
                              "--trials", "2", "--seed", str(seed), *adversary])
    calls += [
        ["gen", "--field", "gfp:10", "--n", "2", "--seed", "1"],
        ["gen", "--field", "q", "--n", "2", "--seed", "1", "--out", unwritable],
        ["fuzz", "--n", "1..2", "--fields", "q,q"],
        ["fuzz", "--n", "0..2"],
        ["fuzz", "--n", "1..2", "--fields", "gfp:2", "--out", unwritable],
    ]
    return calls


def run_calls(calls: list[list[str]]) -> list[list]:
    """Each call's exit code, stdout digest and stderr through ``cli.main``."""
    from matconj.cli import main

    results = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback breaks the CLI contract: record it
                code = f"raised {type(exc).__name__}: {exc}"
        stderr = err.getvalue()
        if argv[0] == "fuzz":
            stderr = TIMING_LINE.sub("", stderr)
        stdout = out.getvalue().encode()
        results.append([code, hashlib.sha256(stdout).hexdigest(), len(stdout), stderr])
    return results


def worker(role: str, checkout: Path, corpus: Path, max_n: int, seeds: int) -> int:
    sys.path.insert(0, str(checkout / "src"))
    import matconj

    if not Path(matconj.__file__).resolve().is_relative_to(checkout.resolve()):
        raise SystemExit(f"imported {matconj.__file__}, not {checkout}'s package")
    calls_path = corpus / "calls.json"
    if role == "build":
        calls_path.write_text(json.dumps(build_corpus(corpus, max_n, seeds)))
        return 0
    results = run_calls(json.loads(calls_path.read_text()))
    (corpus / f"results_{role}.json").write_text(json.dumps(results))
    return 0


def spawn(role: str, checkout: Path, corpus: Path, args) -> None:
    argv = [sys.executable, __file__, "--worker", role, "--checkout", str(checkout),
            "--corpus", str(corpus), "--max-n", str(args.max_n), "--seeds", str(args.seeds)]
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{role} worker in {checkout} failed:\n{done.stderr}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--max-n", type=int, default=10)
    parser.add_argument("--seeds", type=int, default=2)
    parser.add_argument("--worker", choices=("build", "parent", "change"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--checkout", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--corpus", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return worker(args.worker, args.checkout, args.corpus, args.max_n, args.seeds)
    if not (args.parent and args.change) or not 1 <= args.max_n <= 16 or args.seeds < 1:
        parser.error("need --parent and --change, 1 <= --max-n <= 16 and --seeds >= 1")

    with tempfile.TemporaryDirectory(prefix="byte_identity_") as tmp:
        corpus = Path(tmp)
        spawn("build", args.parent, corpus, args)
        spawn("parent", args.parent, corpus, args)
        spawn("change", args.change, corpus, args)
        calls = json.loads((corpus / "calls.json").read_text())
        parent = json.loads((corpus / "results_parent.json").read_text())
        change = json.loads((corpus / "results_change.json").read_text())

    fields = ("exit code", "stdout", "stdout", "stderr")
    differing = 0
    for argv, before, after in zip(calls, parent, change):
        if before == after:
            continue
        differing += 1
        names = sorted({fields[k] for k in range(4) if before[k] != after[k]})
        print(f"DIFFERS ({', '.join(names)}): matconj {' '.join(argv)}")
        print(f"  parent: exit {before[0]!r}, stderr {before[3]!r}")
        print(f"  change: exit {after[0]!r}, stderr {after[3]!r}")
    kinds = Counter(
        "recover --no-verify" if argv[:2] == ["recover", "--no-verify"] else argv[0]
        for argv in calls
    )
    per_command = ", ".join(f"{kind} {count}" for kind, count in sorted(kinds.items()))
    print(f"byte identity: {len(calls)} calls ({per_command}), {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
