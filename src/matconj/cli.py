"""Command-line surface and bit-exact JSON file formats.

Commands: ``recover``, ``check-aut``, ``gen``, ``fuzz``.  All I/O is UTF-8
JSON with every scalar encoded as a string ("-3/4", "7" for rationals,
decimal residues for prime fields), so no numeric type of any consumer can
distort a value; a problem file's scalars are each decoded once, by
``FieldSpec.parse_value``.  Matrices serialize as row-major arrays of arrays
of scalar strings; 1-based positions appear only in human-readable messages.

A problem file looks like::

    {
      "field": {"type": "Q"},            // or {"type": "GFp", "p": 7}
      "n": 2,
      "conjugator": [["0", "1"], ["1", "0"]]
    }

with exactly one input variant out of ``conjugator`` (the ground-truth
invertible matrix B), ``full_table`` (an n x n array of matrices:
``full_table[i-1][j-1]`` is the image of the (i,j) matrix unit), or
``generator_pair`` (``{"H": ..., "G": ...}``, the images of the corner unit
and the shift matrix), and no other top-level key.  No object may repeat a
key.  A problem file parses straight into the ``AutomorphismOracle`` of its
variant, and every command reads the field, n and the backing off the oracle.

Exit codes: 0 recovered / all checks passed, 1 a ``check-aut`` map that is
not an automorphism or a ``fuzz`` sweep whose summary is not ok, 2 parse,
flag or output errors (a JSON object on stderr), 3 construction
impossibilities (empty kernel, singular conjugator), 4 verification failure.
The parse refuses a singular ``conjugator`` (exit 2); ``main`` writes every
error, a ``MatconjError`` from any command.

``check-aut`` (:func:`~matconj.skolem_noether.decide_automorphism`) accepts
a ``conjugator`` file by its witness, with no query, and a ``full_table``
automorphism by the construction and its n^2-pair certificate, O(n^4); it
runs ``validate`` only to explain a rejection, and refuses a
``generator_pair`` file (exit 2).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

from .automorphism import AutomorphismOracle, ValidationReport
from .errors import (
    DimensionMismatch,
    EmptyKernel,
    MatconjError,
    OutputError,
    ParseError,
    SingularConjugator,
    SingularMatrix,
)
from .field import FieldSpec, prime_field, rationals
from .fuzz import (
    ADVERSARY_KINDS,
    ENTRY_BOUND,
    MAX_FUZZ_N,
    RNG_ALGORITHM,
    FuzzConfig,
    IdentitySummary,
    derive_trial_seed,
    random_invertible,
    run_roundtrip_suite,
)
from .matrix import ColumnVector, Matrix
from .skolem_noether import (
    Outcome,
    RecoveryReport,
    StructureCheckReport,
    build_conjugator,
    build_failure_outcome,
    certify,
    decide_automorphism,
    scalar_relation,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONSTRUCTION = 3
EXIT_VERIFICATION = 4

MAX_GEN_N = 64  # gen draws n^2 entries and holds them all in memory

_OUTCOME_EXIT_CODES = {
    Outcome.RECOVERED: EXIT_OK,
    Outcome.EMPTY_KERNEL: EXIT_CONSTRUCTION,
    Outcome.SINGULAR_CONJUGATOR: EXIT_CONSTRUCTION,
    Outcome.VERIFICATION_FAILED: EXIT_VERIFICATION,
}

INPUT_VARIANTS = ("conjugator", "full_table", "generator_pair")


def exit_code_for(outcome: Outcome) -> int:
    """Exit codes are a total function of the recovery outcome."""
    return _OUTCOME_EXIT_CODES[outcome]


# -- scalar / matrix / field encoding ---------------------------------------


def field_descriptor(spec: FieldSpec) -> dict:
    if spec.is_prime_field:
        return {"type": "GFp", "p": spec.modulus}
    return {"type": "Q"}


def parse_field_descriptor(obj) -> FieldSpec:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ParseError("field descriptor must be an object with a 'type' key")
    kind = obj["type"]
    if kind == "Q":
        if set(obj) != {"type"}:
            raise ParseError("rational field descriptor takes no extra keys")
        return rationals()
    if kind == "GFp":
        if set(obj) != {"type", "p"} or not isinstance(obj.get("p"), int):
            raise ParseError("prime field descriptor needs an integer 'p'")
        try:
            return prime_field(obj["p"])
        except ValueError as exc:
            raise ParseError(str(exc))
    raise ParseError(f"unknown field type {kind!r}")


def parse_field_flag(text: str) -> FieldSpec:
    """Flag syntax: 'q' or 'gfp:P' (case-insensitive)."""
    s = text.strip().lower()
    if s == "q":
        return rationals()
    if s.startswith("gfp:"):
        try:
            p = int(s[4:])
        except ValueError:
            raise ParseError(f"bad prime in field flag {text!r}")
        try:
            return prime_field(p)
        except ValueError as exc:
            raise ParseError(str(exc))
    raise ParseError(f"unknown field flag {text!r} (expected 'q' or 'gfp:P')")


def matrix_to_json(matrix: Matrix) -> list[list[str]]:
    return matrix.to_strings()


def _is_square_array(obj, n: int) -> bool:
    """Whether obj is a list of n lists of n items each."""
    return (
        isinstance(obj, list)
        and len(obj) == n
        and all(isinstance(row, list) and len(row) == n for row in obj)
    )


def matrix_from_json(spec: FieldSpec, obj, n: int, what: str) -> Matrix:
    if not _is_square_array(obj, n):
        raise ParseError(f"{what} must be an {n}x{n} array of scalar strings")
    if n < 1:  # _raw_new takes the dimensions on trust
        raise DimensionMismatch("matrix needs positive dimensions")
    parse = spec.parse_value  # each cell is decoded once, to its raw value
    return Matrix._raw_new(spec, n, n, tuple(parse(c) for r in obj for c in r))


def vector_to_json(vec: ColumnVector) -> list[str]:
    return [vec.spec.format_value(v) for v in vec._data]


# -- problem files -----------------------------------------------------------


def problem_from_json(obj) -> AutomorphismOracle:
    """Parse a problem file into the oracle of its one input variant; a
    singular ``conjugator`` is refused here."""
    if not isinstance(obj, dict):
        raise ParseError("problem file must be a JSON object")
    if "field" not in obj or "n" not in obj:
        raise ParseError("problem file needs 'field' and 'n'")
    unknown = sorted(set(obj) - {"field", "n", *INPUT_VARIANTS})
    if unknown:
        raise ParseError(f"unknown top-level keys: {', '.join(map(repr, unknown))}")
    spec = parse_field_descriptor(obj["field"])
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError("'n' must be a positive integer")
    present = [v for v in INPUT_VARIANTS if v in obj]
    if len(present) != 1:
        raise ParseError(
            f"exactly one of {', '.join(INPUT_VARIANTS)} must be present"
        )
    variant = present[0]
    body = obj[variant]
    if variant == "conjugator":
        b = matrix_from_json(spec, body, n, "conjugator")
        try:
            return AutomorphismOracle.conjugation_by(b)
        except SingularMatrix:
            raise ParseError(
                "conjugator matrix is singular; the inner map needs det != 0"
            )
    if variant == "generator_pair":
        if not isinstance(body, dict) or set(body) != {"H", "G"}:
            raise ParseError("generator_pair must be an object with keys 'H' and 'G'")
        h = matrix_from_json(spec, body["H"], n, "generator_pair.H")
        g = matrix_from_json(spec, body["G"], n, "generator_pair.G")
        return AutomorphismOracle.from_generator_pair(h, g)
    if not _is_square_array(body, n):
        raise ParseError("full_table must be an n x n array of matrices")
    images = {}
    for i in range(n):
        for j in range(n):
            images[(i + 1, j + 1)] = matrix_from_json(
                spec, body[i][j], n, f"full_table[{i}][{j}]"
            )
    return AutomorphismOracle.from_table(images)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, refusing a repeated key: json.loads alone would
    keep its last copy silently."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_problem(path: str) -> tuple[AutomorphismOracle, str]:
    """Parse a problem file into its oracle, with the SHA-256 of the raw bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    digest = hashlib.sha256(raw).hexdigest()
    try:
        obj = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # bad UTF-8, bad JSON, a repeated key, an over-long integer, or
        # nesting past the stack
        raise ParseError(f"invalid JSON in {path}: {exc}")
    return problem_from_json(obj), digest


# -- report serialization ----------------------------------------------------


def checks_to_json(checks: StructureCheckReport | None):
    if checks is None:
        return None
    return {
        "nilpotent_ok": checks.nilpotent_ok,
        "idempotent_ok": checks.idempotent_ok,
        "kernel_rank_ok": checks.kernel_rank_ok,
        "intertwine_E_ok": checks.intertwine_E_ok,
        "intertwine_S_ok": checks.intertwine_S_ok,
        "first_failing": checks.first_failing,
    }


def report_to_json(report: RecoveryReport) -> dict:
    return {
        "outcome": report.outcome.value,
        "n": report.n,
        "field": field_descriptor(report.spec),
        "seed": report.seed,
        "query_count": report.query_count,
        "scalar": str(report.scalar) if report.scalar is not None else None,
        "checks": checks_to_json(report.checks),
        "failing_pair": list(report.failing_pair) if report.failing_pair else None,
        "verified_pairs": report.verified_pairs,
        "detail": report.detail,
        "rng": report.rng_algorithm,
    }


def validation_to_json(report: ValidationReport) -> dict:
    return {
        "linear_ok": True,  # every backing defines a linear map
        "unital_ok": report.unital_ok,
        "multiplicative_ok": report.multiplicative_ok,
        "bijective_ok": report.bijective_ok,
        "first_violation": report.first_violation,
        "is_automorphism": report.is_automorphism,
    }


def summary_to_json(summary: IdentitySummary) -> dict:
    return {
        "total_trials": summary.total_trials,
        "assertion_counts": dict(sorted(summary.assertion_counts.items())),
        "violations": list(summary.violations),
        "ok": summary.ok,
    }


def _dump(obj, out_path: str | None) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", out_path)


def _write(text: str, out_path: str | None) -> None:
    """The one writer of every command's output: ``out_path`` or stdout."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {out_path}: {exc}")


def _fail_parse(message: str) -> int:
    sys.stderr.write(json.dumps({"error": message}) + "\n")
    return EXIT_PARSE


# -- commands ----------------------------------------------------------------


def cmd_recover(args) -> int:
    oracle, digest = load_problem(args.problem)
    output: dict = {
        "command": "recover",
        "input_sha256": digest,
        "field": field_descriptor(oracle.spec),
        "n": oracle.n,
    }
    h, g = oracle.query_generators()
    output["query_count"] = oracle.query_count
    try:
        witness = build_conjugator(h, g)
    except (EmptyKernel, SingularConjugator) as exc:
        outcome = build_failure_outcome(exc)
        output["outcome"] = outcome.value
        output["detail"] = str(exc)
        _dump(output, args.out)
        return exit_code_for(outcome)

    output["conjugator"] = matrix_to_json(witness.conjugator)
    output["conjugator_inverse"] = matrix_to_json(witness.conjugator_inv)
    output["kernel_vector"] = vector_to_json(witness.kernel_vector)

    outcome = Outcome.RECOVERED
    if args.no_verify:
        output["verification"] = None
    else:
        verification = certify(oracle, witness)
        outcome = verification.outcome
        output["verification"] = {
            "passed": outcome is Outcome.RECOVERED,
            "verified_pairs": verification.verified_pairs,
            "failing_pair": list(verification.failing_pair)
            if verification.failing_pair
            else None,
        }
        if outcome is not Outcome.RECOVERED:
            output["detail"] = verification.detail

    if oracle.backing.kind == "conjugation" and outcome is Outcome.RECOVERED:
        scalar = scalar_relation(witness.conjugator, oracle.backing.conjugator)
        output["scalar"] = str(scalar) if scalar is not None else None
    output["outcome"] = outcome.value
    _dump(output, args.out)
    return exit_code_for(outcome)


def cmd_check_aut(args) -> int:
    oracle, digest = load_problem(args.problem)
    report = decide_automorphism(oracle)
    output = {
        "command": "check-aut",
        "input_sha256": digest,
        "field": field_descriptor(oracle.spec),
        "n": oracle.n,
    }
    output.update(validation_to_json(report))
    _dump(output, args.out)
    return EXIT_OK if report.is_automorphism else 1


def cmd_gen(args) -> int:
    spec = args.field
    rng = random.Random(derive_trial_seed(args.seed, spec, args.n, 0))
    b = random_invertible(spec, args.n, rng, ENTRY_BOUND)
    problem = {"field": field_descriptor(spec), "n": args.n, "conjugator": matrix_to_json(b)}
    _dump(problem, args.out)
    return EXIT_OK


def cmd_fuzz(args) -> int:
    try:
        cfg = FuzzConfig(
            n_range=args.n,
            field_specs=tuple(args.fields),
            trials_per_cell=args.trials,
            seed=args.seed,
            adversary=args.adversary,
        )
    except ValueError as exc:
        return _fail_parse(str(exc))
    started = time.monotonic()
    summary = IdentitySummary()
    reports = run_roundtrip_suite(cfg, summary)
    elapsed = time.monotonic() - started

    recovered = sum(1 for r in reports if r.outcome is Outcome.RECOVERED)
    ok = summary.ok and all(
        (r.outcome is Outcome.RECOVERED) == cfg.expects_recovery(r.n) for r in reports
    )

    lines = [json.dumps(report_to_json(r), sort_keys=True) for r in reports]
    if cfg.adversary is None:
        lines.append(
            json.dumps({"identity_summary": summary_to_json(summary)}, sort_keys=True)
        )
    lines.append(
        json.dumps(
            {
                "fuzz_summary": {
                    "trials": len(reports),
                    "recovered": recovered,
                    "adversary": cfg.adversary,
                    "ok": ok,
                    "rng": RNG_ALGORITHM,
                }
            },
            sort_keys=True,
        )
    )
    _write("\n".join(lines) + "\n", args.out)
    # Wall time goes to stderr only: report bytes must be seed-deterministic.
    sys.stderr.write(f"fuzz: {len(reports)} trials in {elapsed:.2f}s\n")
    return EXIT_OK if ok else 1


# -- argument parsing --------------------------------------------------------


def _field_flag(text: str) -> FieldSpec:
    try:
        return parse_field_flag(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _fields_flag(text: str) -> list[FieldSpec]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("need at least one field")
    return [_field_flag(p) for p in parts]


def _n_range_flag(text: str) -> tuple[int, int]:
    s = text.strip()
    try:
        if ".." in s:
            lo, hi = s.split("..")
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension range {text!r}")
    if not (1 <= lo <= hi <= MAX_FUZZ_N):
        raise argparse.ArgumentTypeError(f"dimensions must satisfy 1 <= lo <= hi <= {MAX_FUZZ_N}")
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _gen_dimension(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_GEN_N:
        raise argparse.ArgumentTypeError(f"dimension must be at most {MAX_GEN_N}")
    return value


class _JsonErrorParser(argparse.ArgumentParser):
    """Reports a bad flag or command as a JSON error (exit 2); subparsers
    share the class, so this covers every command."""

    def error(self, message):
        self.exit(_fail_parse(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(
        prog="matconj",
        description=(
            "Recover the invertible matrix realizing an inner automorphism of "
            "the n x n matrix algebra, from two oracle queries, over exact fields."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_recover = sub.add_parser(
        "recover", help="recover the conjugator from a problem file"
    )
    p_recover.add_argument("problem", help="path to a JSON problem file")
    p_recover.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the certificate after the 2-query recovery",
    )
    p_recover.add_argument("--out", help="write the JSON report here instead of stdout")
    p_recover.set_defaults(func=cmd_recover)

    p_check = sub.add_parser(
        "check-aut", help="validate the automorphism axioms of an input map"
    )
    p_check.add_argument("problem", help="path to a JSON problem file")
    p_check.add_argument("--out", help="write the JSON report here instead of stdout")
    p_check.set_defaults(func=cmd_check_aut)

    p_gen = sub.add_parser(
        "gen", help="generate a random conjugation problem file (seed-deterministic)"
    )
    p_gen.add_argument("--field", type=_field_flag, required=True, help="q or gfp:P")
    p_gen.add_argument("--n", type=_gen_dimension, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", help="write the problem file here instead of stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_fuzz = sub.add_parser(
        "fuzz", help="run the seeded roundtrip and identity suites"
    )
    p_fuzz.add_argument(
        "--n", type=_n_range_flag, default=(1, 8), help="dimension or range, e.g. 3 or 1..8"
    )
    p_fuzz.add_argument(
        "--fields",
        type=_fields_flag,
        default=[rationals()],
        help="comma list, e.g. q,gfp:2,gfp:101",
    )
    p_fuzz.add_argument("--trials", type=_positive_int, default=10)
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument(
        "--adversary",
        choices=ADVERSARY_KINDS,
        default=None,
        help="swap ground-truth conjugations for a non-automorphism family",
    )
    p_fuzz.add_argument("--out", help="write the JSONL report stream here")
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MatconjError as exc:
        return _fail_parse(str(exc))


if __name__ == "__main__":
    sys.exit(main())
