"""CLI commands, JSON formats, exit codes, and byte determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import matconj
from matconj import (
    AutomorphismOracle,
    ConjugationWitness,
    Matrix,
    Outcome,
    elementary_matrix,
    prime_field,
    rationals,
)
from matconj.field import FieldSpec
from matconj.fuzz import MAX_FUZZ_N
from matconj.cli import (
    EXIT_CONSTRUCTION,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFICATION,
    MAX_GEN_N,
    build_parser,
    exit_code_for,
    field_descriptor,
    load_problem,
    main,
    matrix_from_json,
    matrix_to_json,
    parse_field_descriptor,
    parse_field_flag,
    problem_from_json,
)

from helpers import problem_json

QQ = rationals()


def write_problem(tmp_path, obj, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def swap_problem():
    return {
        "field": {"type": "Q"},
        "n": 2,
        "conjugator": [["0", "1"], ["1", "0"]],
    }


def transpose_table_problem(n=2):
    table = [
        [matrix_to_json(elementary_matrix(QQ, n, j, i)) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return {"field": {"type": "Q"}, "n": n, "full_table": table}


# -- formats -----------------------------------------------------------------


def test_field_descriptor_roundtrip():
    assert parse_field_descriptor({"type": "Q"}) == QQ
    assert parse_field_descriptor({"type": "GFp", "p": 7}) == prime_field(7)
    from matconj.cli import field_descriptor

    assert field_descriptor(prime_field(13)) == {"type": "GFp", "p": 13}


@pytest.mark.parametrize(
    "bad",
    [
        {},
        {"type": "R"},
        {"type": "GFp"},
        {"type": "GFp", "p": 6},
        {"type": "GFp", "p": "7"},
        {"type": "Q", "p": 3},
        "Q",
        {"type": "GFp", "p": 1287836182261 * 2575672364521},
    ],
)
def test_field_descriptor_rejects(bad):
    from matconj import ParseError

    with pytest.raises(ParseError):
        parse_field_descriptor(bad)


def test_field_flag():
    assert parse_field_flag("q") == QQ
    assert parse_field_flag("GFP:11") == prime_field(11)
    from matconj import ParseError

    with pytest.raises(ParseError):
        parse_field_flag("gfp:10")
    with pytest.raises(ParseError):
        parse_field_flag("reals")
    with pytest.raises(ParseError, match="2\\*\\*64"):
        parse_field_flag("gfp:3317044064679887385961981")


@pytest.mark.parametrize(
    "obj",
    [
        swap_problem(),
        transpose_table_problem(),
        {
            "field": {"type": "GFp", "p": 5},
            "n": 2,
            "generator_pair": {
                "H": [["0", "0"], ["1", "0"]],
                "G": [["0", "1"], ["0", "0"]],
            },
        },
    ],
)
def test_problem_roundtrip(obj):
    # the oracle's backing holds the whole file: writing it back gives the file
    oracle = problem_from_json(obj)
    assert problem_json(oracle) == obj
    again = problem_from_json(problem_json(oracle))
    assert (again.spec, again.n, again.backing) == (oracle.spec, oracle.n, oracle.backing)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("field"),
        lambda d: d.pop("n"),
        lambda d: d.update(n=0),
        lambda d: d.update(n="2"),
        lambda d: d.pop("conjugator"),
        lambda d: d.update(generator_pair={"H": d["conjugator"], "G": d["conjugator"]}),
        lambda d: d.update(conjugator=[["0", "1"]]),
        lambda d: d.update(conjugator=[["0", "x"], ["1", "0"]]),
        lambda d: d.update(conjugator=[["0", 1], ["1", "0"]]),
        lambda d: d.update(conjugatr=d["conjugator"]),  # a typo beside the key
    ],
)
def test_problem_rejects(mutate):
    from matconj import ParseError

    obj = swap_problem()
    mutate(obj)
    with pytest.raises(ParseError):
        problem_from_json(obj)


def test_problem_rejects_boolean_n():
    from matconj import ParseError

    obj = {"field": {"type": "Q"}, "n": 1, "conjugator": [["1"]]}
    assert problem_from_json(obj).n == 1
    obj["n"] = True
    with pytest.raises(ParseError, match="'n'"):
        problem_from_json(obj)


def test_problem_rejects_singular_conjugator():
    from matconj import ParseError

    obj = swap_problem()
    obj["conjugator"] = [["1", "1"], ["1", "1"]]
    with pytest.raises(
        ParseError, match="^conjugator matrix is singular; the inner map needs det != 0$"
    ):
        problem_from_json(obj)


def test_exit_codes_total_over_outcomes():
    assert exit_code_for(Outcome.RECOVERED) == EXIT_OK
    assert exit_code_for(Outcome.EMPTY_KERNEL) == EXIT_CONSTRUCTION
    assert exit_code_for(Outcome.SINGULAR_CONJUGATOR) == EXIT_CONSTRUCTION
    assert exit_code_for(Outcome.VERIFICATION_FAILED) == EXIT_VERIFICATION
    assert len(Outcome) == 4


# -- recover -----------------------------------------------------------------


def test_recover_swap(tmp_path, capsys):
    path = write_problem(tmp_path, swap_problem())
    code = main(["recover", path])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["outcome"] == "recovered"
    assert out["conjugator"] == [["0", "1"], ["1", "0"]]
    assert out["scalar"] == "1"
    assert out["query_count"] == 2
    assert out["verification"]["passed"] is True
    assert out["verification"]["verified_pairs"] == 4
    import hashlib

    assert out["input_sha256"] == hashlib.sha256(
        (tmp_path / "problem.json").read_bytes()
    ).hexdigest()


def test_recover_generator_pair_no_verify(tmp_path, capsys):
    obj = {
        "field": {"type": "Q"},
        "n": 2,
        "generator_pair": {
            "H": [["0", "0"], ["1", "0"]],
            "G": [["0", "1"], ["0", "0"]],
        },
    }
    path = write_problem(tmp_path, obj)
    code = main(["recover", path, "--no-verify"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["verification"] is None
    assert out["query_count"] == 2
    assert out["conjugator"] == [["1", "0"], ["0", "1"]]


def test_recover_generator_pair_verifies_against_expansion(tmp_path, capsys):
    obj = {
        "field": {"type": "Q"},
        "n": 2,
        "generator_pair": {
            "H": [["0", "0"], ["1", "0"]],
            "G": [["0", "1"], ["0", "0"]],
        },
    }
    path = write_problem(tmp_path, obj)
    code = main(["recover", path])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["verification"]["passed"] is True


def test_recover_transpose_table_fails_verification(tmp_path, capsys):
    path = write_problem(tmp_path, transpose_table_problem())
    code = main(["recover", path])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_VERIFICATION
    assert out["outcome"] == "verification_failed"
    assert out["verification"]["failing_pair"] is not None
    i, j = out["verification"]["failing_pair"]
    assert 1 <= i <= 2 and 1 <= j <= 2


def test_recover_empty_kernel_exit_3(tmp_path, capsys):
    obj = {
        "field": {"type": "Q"},
        "n": 2,
        "generator_pair": {
            "H": [["1", "0"], ["0", "0"]],
            "G": [["0", "0"], ["0", "0"]],
        },
    }
    path = write_problem(tmp_path, obj)
    code = main(["recover", path])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONSTRUCTION
    assert out["outcome"] == "empty_kernel"


def test_recover_singular_conjugator_exit_3(tmp_path, capsys):
    obj = {
        "field": {"type": "Q"},
        "n": 2,
        "generator_pair": {
            "H": [["1", "0"], ["0", "0"]],
            "G": [["1", "0"], ["0", "0"]],
        },
    }
    path = write_problem(tmp_path, obj)
    code = main(["recover", path])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CONSTRUCTION
    assert out["outcome"] == "singular_conjugator"


def test_recover_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["recover", str(path)]) == EXIT_PARSE
    assert main(["recover", str(tmp_path / "missing.json")]) == EXIT_PARSE


def _assert_parse_failure(capsys, code, stderr=None):
    assert code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]
    if stderr is not None:
        assert captured.err == stderr


def test_recover_oversized_scalar_exit_2(tmp_path, capsys):
    obj = swap_problem()
    obj["conjugator"][0][0] = "1" * 5000
    _assert_parse_failure(capsys, main(["recover", write_problem(tmp_path, obj)]))


def test_recover_oversized_json_integer_exit_2(tmp_path, capsys):
    path = tmp_path / "huge_n.json"
    huge_n = '{"field": {"type": "Q"}, "n": 1' + "0" * 5000 + "}"
    path.write_text(huge_n, encoding="utf-8")
    _assert_parse_failure(capsys, main(["recover", str(path)]))


def test_recover_oversized_output_exit_2(tmp_path, capsys):
    # Each input entry has 4300 digits, the most a scalar may have, but the
    # recovered conjugator and its inverse have longer entries, which the
    # text format cannot hold.
    sevens = "7" * 4300
    obj = {
        "field": {"type": "Q"},
        "n": 2,
        "conjugator": [["1/" + sevens, "0"], ["0", sevens]],
    }
    path = write_problem(tmp_path, obj)
    _assert_parse_failure(capsys, main(["recover", "--no-verify", path]))


def _recover_under_int_limit(path, limit):
    """``recover`` in a child interpreter whose int/str digit limit is
    ``limit`` (0: none), so this process's own limit is untouched."""
    src = str(Path(matconj.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS=str(limit))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "matconj", "recover", path],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _assert_child_parse_failure(result):
    assert result.returncode == EXIT_PARSE and result.stdout == "", result.stderr
    assert result.stderr.count("\n") == 1 and json.loads(result.stderr)["error"]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int/str limit"
)
def test_recover_scalar_over_a_lower_interpreter_limit_exit_2(tmp_path):
    # 1000 digits are within the format's 4300, but not within a limit of 640
    obj = swap_problem()
    obj["conjugator"][0][0] = "1" + "0" * 999
    _assert_child_parse_failure(_recover_under_int_limit(write_problem(tmp_path, obj), 640))


def test_recover_output_keeps_the_digit_bound_without_an_interpreter_limit(tmp_path):
    # B's entries fit the format, but B^-1 holds a 4301-digit entry: with no
    # interpreter limit to trip, the bound is still checked on output
    obj = {"field": {"type": "Q"}, "n": 2, "conjugator": [["1/3", "9" * 4300], ["0", "1"]]}
    _assert_child_parse_failure(_recover_under_int_limit(write_problem(tmp_path, obj), 0))


@pytest.mark.parametrize("command", ["recover", "check-aut"])
def test_deeply_nested_problem_exit_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    _assert_parse_failure(capsys, main([command, str(path)]))


@pytest.mark.parametrize("command", ["recover", "check-aut"])
def test_duplicate_key_problem_exit_2(tmp_path, capsys, command):
    # json.loads alone keeps the last copy of a key: the first file would be
    # recovered over Q, the second with the second H.
    texts = {
        "field": '{"field": {"type": "GFp", "p": 7}, "n": 2, '
        '"conjugator": [["0", "1"], ["1", "0"]], "field": {"type": "Q"}}',
        "H": '{"field": {"type": "Q"}, "n": 2, "generator_pair": '
        '{"H": [["0", "0"], ["1", "0"]], "G": [["0", "1"], ["0", "0"]], '
        '"H": [["0", "0"], ["2", "0"]]}}',
    }
    for key, text in texts.items():
        path = tmp_path / f"repeated_{key}.json"
        path.write_text(text, encoding="utf-8")
        code = main([command, str(path)])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"repeated key '{key}'" in json.loads(captured.err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "PROBLEM"],
        ["check-aut", "PROBLEM"],
        ["gen", "--field", "gfp:7", "--n", "2", "--seed", "1"],
        ["fuzz", "--n", "1..2", "--fields", "gfp:2", "--trials", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_exit_2(tmp_path, capsys, argv):
    problem = write_problem(tmp_path, swap_problem())
    out_path = tmp_path / "missing" / "report.json"
    argv = [problem if a == "PROBLEM" else a for a in argv]
    _assert_parse_failure(capsys, main(argv + ["--out", str(out_path)]))
    assert not out_path.parent.exists()


def test_recover_writes_out_file(tmp_path):
    path = write_problem(tmp_path, swap_problem())
    out_path = tmp_path / "report.json"
    assert main(["recover", path, "--out", str(out_path)]) == EXIT_OK
    report = json.loads(out_path.read_text())
    assert report["outcome"] == "recovered"


# -- check-aut ---------------------------------------------------------------


def test_check_aut_conjugator_passes(tmp_path, capsys):
    path = write_problem(tmp_path, swap_problem())
    code = main(["check-aut", path])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["is_automorphism"] is True


def test_check_aut_transpose_fails(tmp_path, capsys):
    path = write_problem(tmp_path, transpose_table_problem())
    code = main(["check-aut", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["multiplicative_ok"] is False
    assert out["first_violation"]


SINGULAR_CONJUGATOR_ERROR = (
    '{"error": "conjugator matrix is singular; the inner map needs det != 0"}\n'
)


def test_check_aut_rejects_generator_pair(tmp_path, capsys):
    obj = {
        "field": {"type": "Q"},
        "n": 2,
        "generator_pair": {
            "H": [["0", "0"], ["1", "0"]],
            "G": [["0", "1"], ["0", "0"]],
        },
    }
    path = write_problem(tmp_path, obj)
    _assert_parse_failure(
        capsys,
        main(["check-aut", path]),
        '{"error": "a generator pair carries too little information to validate"}\n',
    )


def test_check_aut_rejects_singular_conjugator(tmp_path, capsys):
    obj = swap_problem()
    obj["conjugator"] = [["1", "2"], ["2", "4"]]
    path = write_problem(tmp_path, obj)
    _assert_parse_failure(capsys, main(["check-aut", path]), SINGULAR_CONJUGATOR_ERROR)


@pytest.mark.parametrize("flags", [[], ["--no-verify"]], ids=["verify", "no-verify"])
@pytest.mark.parametrize(
    "obj",
    [
        {"field": {"type": "Q"}, "n": 2, "conjugator": [["1", "2"], ["2", "4"]]},
        {"field": {"type": "GFp", "p": 7}, "n": 2, "conjugator": [["0", "0"], ["0", "0"]]},
    ],
    ids=["rank-1", "zero"],
)
def test_recover_rejects_singular_conjugator(tmp_path, capsys, obj, flags):
    path = write_problem(tmp_path, obj)
    code = main(["recover", path, *flags])
    _assert_parse_failure(capsys, code, SINGULAR_CONJUGATOR_ERROR)


@pytest.mark.parametrize("flags", [[], ["--no-verify"]], ids=["verify", "no-verify"])
@pytest.mark.parametrize("field", ["q", "gfp:2305843009213693951"])
def test_recover_of_a_conjugator_runs_two_eliminations(
    tmp_path, capsys, monkeypatch, field, flags
):
    # B's inverse (which also refuses a singular B) and A's inverse: the
    # scalar relation A = cB holds, so scalar_relation takes no rank of B
    path = str(tmp_path / "problem.json")
    assert main(["gen", "--field", field, "--n", "5", "--seed", "3", "--out", path]) == 0
    eliminate = Matrix._eliminate
    eliminations = []

    def counted_eliminate(self, reduced):
        eliminations.append(reduced)
        return eliminate(self, reduced)

    monkeypatch.setattr(Matrix, "_eliminate", counted_eliminate)
    assert main(["recover", path, *flags]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["outcome"] == "recovered"
    assert len(eliminations) == 2


def _products_equal_to_identity(monkeypatch, argv):
    """main(argv)'s exit code and the sizes of the dense products it forms
    that equal I, for n >= 2 (at n = 1 the intertwine A E_{1,1} of A = I is one)."""
    matmul = Matrix.__matmul__
    found = []

    def spied(left, right):
        result = matmul(left, right)
        n = result.rows
        if n >= 2 and result.is_square and result == Matrix.identity(result.spec, n):
            found.append(n)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "__matmul__", spied)
        code = main(argv)
    return code, found


def test_certified_recover_and_fuzz_form_no_product_equal_to_identity(
    tmp_path, capsys, monkeypatch
):
    # a witness holds its A's own inverse, so nothing re-checks A A^-1 = I:
    # not certify, on a conjugator file or a pair file, and not a fuzz trial
    path = str(tmp_path / "problem.json")
    gen = ["gen", "--field", "gfp:2305843009213693951", "--n", "8", "--seed", "5"]
    assert main([*gen, "--out", path]) == EXIT_OK
    conjugation, _ = load_problem(path)
    pair = AutomorphismOracle.from_generator_pair(*conjugation.query_generators())
    pair_path = write_problem(tmp_path, problem_json(pair), "pair.json")
    for problem in (path, pair_path):
        assert _products_equal_to_identity(monkeypatch, ["recover", problem]) == (EXIT_OK, [])
    fuzz = ["fuzz", "--n", "1..4", "--fields", "q,gfp:2,gfp:7", "--trials", "2", "--seed", "3"]
    assert _products_equal_to_identity(monkeypatch, fuzz) == (EXIT_OK, [])
    capsys.readouterr()


def _rank_two_pair(descriptor):
    # H has rank 2, so no automorphism has this pair; before the corner was
    # read as rank 1 it built A = [[1, 1], [0, -1]] through the rref of I - P
    pair = {"H": [["1", "0"], ["-1", "2"]], "G": [["1", "0"], ["1", "1"]]}
    return {"field": descriptor, "n": 2, "generator_pair": pair}


@pytest.mark.parametrize("variant", ["conjugator", "generator_pair"])
@pytest.mark.parametrize("field", ["q", "gfp:7"])
def test_recover_kernel_vector_is_column_one_of_the_conjugator(
    tmp_path, capsys, monkeypatch, field, variant
):
    # column 1 of A is G^(n-1) H a = P a = a, read off the rank-1 corner with
    # no rref of I - P; the rank-2 pair is refused before any kernel vector
    import matconj.skolem_noether as sn

    path = str(tmp_path / "problem.json")
    if variant == "conjugator":
        assert main(["gen", "--field", field, "--n", "5", "--seed", "3", "--out", path]) == 0
    else:
        write_problem(tmp_path, _rank_two_pair(field_descriptor(parse_field_flag(field))))
    kernel_vector, rrefs = sn.kernel_vector, []

    def counted_kernel_vector(projector):
        rrefs.append(projector)
        return kernel_vector(projector)

    monkeypatch.setattr(sn, "kernel_vector", counted_kernel_vector)
    code = main(["recover", path])
    out = json.loads(capsys.readouterr().out)
    assert rrefs == []
    if variant == "conjugator":
        assert code == EXIT_OK
        assert out["kernel_vector"] == [row[0] for row in out["conjugator"]]
    else:
        assert code == EXIT_CONSTRUCTION
        assert out["outcome"] == "empty_kernel"
        assert out["detail"] == "corner image is not of rank 1"
        assert "kernel_vector" not in out and "conjugator" not in out


def _bumped_table(tmp_path):
    """The identity map's n = 2 table over Q with image (2, 1) bumped by
    E_12, so H = E_21 + E_12 has rank 2: a genuine table with one entry
    bumped, which no automorphism has."""
    units = (1, 2)
    table = [
        [matrix_to_json(elementary_matrix(QQ, 2, i, j)) for j in units] for i in units
    ]
    table[1][0][0][1] = "1"
    return write_problem(tmp_path, {"field": {"type": "Q"}, "n": 2, "full_table": table})


def test_recover_no_verify_refuses_a_corner_that_is_not_of_rank_1(tmp_path, capsys):
    # --no-verify runs the build alone: a map whose H has rank 2 is no
    # automorphism, and the build says so rather than printing a conjugator
    path = _bumped_table(tmp_path)
    for flags in (["--no-verify"], []):
        code = main(["recover", *flags, path])
        out = json.loads(capsys.readouterr().out)
        assert code == EXIT_CONSTRUCTION, flags
        assert out["outcome"] == "empty_kernel", flags
        assert out["detail"] == "corner image is not of rank 1", flags
        assert out["query_count"] == 2 and "conjugator" not in out, flags
    assert main(["check-aut", path]) == 1
    assert json.loads(capsys.readouterr().out)["multiplicative_ok"] is False


def test_load_problem_decodes_each_table_scalar_once(tmp_path, monkeypatch):
    # n^4 cells, each through parse_value alone: no FieldElement and no
    # second coerce of the parsed value
    n = 3
    gf = prime_field(2**61 - 1)
    table = [
        [matrix_to_json(elementary_matrix(gf, n, i, j)) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    path = write_problem(tmp_path, {"field": field_descriptor(gf), "n": n, "full_table": table})
    calls = {"parse_value": 0, "coerce": 0, "parse": 0}
    for name in calls:
        method = getattr(FieldSpec, name)

        def counted(self, value, method=method, name=name):
            calls[name] += 1
            return method(self, value)

        monkeypatch.setattr(FieldSpec, name, counted)
    oracle, _ = load_problem(path)
    assert calls == {"parse_value": n**4, "coerce": 0, "parse": 0}
    assert oracle.backing.images()[(2, 3)] == elementary_matrix(gf, n, 2, 3)


BAD_CELLS = [
    (7, "scalar must be a string, got int"),
    (None, "scalar must be a string, got NoneType"),
    ("1/2", "invalid GF(7) scalar: '1/2'"),
    ("\uff11", "invalid GF(7) scalar: '\\uff11'"),
]


def _bad_cell_problem(where, bad):
    gf7 = prime_field(7)
    if where == "full_table":
        body = [
            [matrix_to_json(elementary_matrix(gf7, 2, i, j)) for j in (1, 2)]
            for i in (1, 2)
        ]
        body[-1][-1][-1][-1] = bad
    else:
        body = {"H": [["0", "0"], ["1", "0"]], "G": [["0", "1"], ["0", "0"]]}
        body["G"][-1][-1] = bad
    return {"field": {"type": "GFp", "p": 7}, "n": 2, where: body}


@pytest.mark.parametrize("command", ["recover", "check-aut"])
@pytest.mark.parametrize("where", ["full_table", "generator_pair"])
@pytest.mark.parametrize("bad, message", BAD_CELLS, ids=["int", "null", "fraction", "fullwidth"])
def test_bad_last_cell_exit_2(tmp_path, capsys, command, where, bad, message):
    path = write_problem(tmp_path, _bad_cell_problem(where, bad))
    stderr = '{"error": "' + message + '"}\n'
    _assert_parse_failure(capsys, main([command, path]), stderr)


def test_matrix_from_json_refuses_a_non_positive_dimension():
    from matconj import DimensionMismatch, ParseError

    # an empty array has the shape of a 0x0 matrix, which no Matrix may have
    with pytest.raises(DimensionMismatch, match="positive dimensions"):
        matrix_from_json(QQ, [], 0, "conjugator")
    with pytest.raises(ParseError, match="-1x-1"):
        matrix_from_json(QQ, [], -1, "conjugator")


# -- gen ---------------------------------------------------------------------


def test_gen_is_parseable_and_invertible(tmp_path):
    out_path = tmp_path / "generated.json"
    code = main(["gen", "--field", "gfp:7", "--n", "3", "--seed", "42", "--out", str(out_path)])
    assert code == EXIT_OK
    oracle = problem_from_json(json.loads(out_path.read_text()))
    assert oracle.backing.kind == "conjugation"
    assert not oracle.backing.conjugator.det().is_zero()


def test_gen_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--field", "q", "--n", "4", "--seed", "7", "--out", str(p1)])
    main(["gen", "--field", "q", "--n", "4", "--seed", "7", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()
    main(["gen", "--field", "q", "--n", "4", "--seed", "8", "--out", str(p2)])
    assert p1.read_bytes() != p2.read_bytes()


def test_gen_n1_rational_is_nonzero(tmp_path, capsys):
    code = main(["gen", "--field", "q", "--n", "1", "--seed", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    value = out["conjugator"][0][0]
    assert QQ.parse(value) != QQ.element(0)


def _assert_flag_error(capsys, exc):
    """A rejected flag exits 2 with exactly one JSON object on stderr."""
    assert exc.value.code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1, captured.err
    error = json.loads(captured.err)
    assert list(error) == ["error"] and error["error"], captured.err
    return error["error"]


def test_gen_flag_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--field", "reals", "--n", "2", "--seed", "1"])
    _assert_flag_error(capsys, exc)


def test_gen_caps_dimension(capsys):
    assert MAX_GEN_N == 64
    assert main(["gen", "--field", "gfp:7", "--n", "64", "--seed", "1"]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["conjugator"]) == 64
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--field", "gfp:7", "--n", "65", "--seed", "1"])
    assert "at most 64" in _assert_flag_error(capsys, exc)


@pytest.mark.parametrize(
    "argv",
    [["gen", "--field", "q", "--n", "2", "--seed", "1"], ["fuzz", "--n", "2", "--trials", "1"]],
    ids=["gen", "fuzz"],
)
def test_entry_bound_is_no_flag(capsys, argv):
    # gen and fuzz draw rational entries with the constant fuzz.ENTRY_BOUND
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--entry-bound", "3"])
    assert "--entry-bound" in _assert_flag_error(capsys, exc)


# -- fuzz --------------------------------------------------------------------


def test_fuzz_small_run(tmp_path, capsys):
    code = main(
        ["fuzz", "--n", "1..3", "--fields", "q,gfp:5", "--trials", "2", "--seed", "9"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    lines = captured.out.strip().splitlines()
    reports = [json.loads(line) for line in lines]
    trial_lines = [r for r in reports if "outcome" in r]
    assert len(trial_lines) == 3 * 2 * 2
    assert all(r["outcome"] == "recovered" for r in trial_lines)
    assert all(r["query_count"] == 2 for r in trial_lines)
    assert reports[-2]["identity_summary"]["ok"] is True
    assert reports[-1]["fuzz_summary"]["ok"] is True


def test_fuzz_deterministic_bytes(tmp_path):
    args = ["fuzz", "--n", "1..3", "--fields", "q,gfp:3", "--trials", "2", "--seed", "4"]
    p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert main(args + ["--out", str(p1)]) == EXIT_OK
    assert main(args + ["--out", str(p2)]) == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()


def test_fuzz_adversary_exit_zero_when_nothing_recovers(tmp_path, capsys):
    code = main(
        [
            "fuzz",
            "--n",
            "2..3",
            "--fields",
            "q",
            "--trials",
            "2",
            "--seed",
            "13",
            "--adversary",
            "random_pair",
        ]
    )
    captured = capsys.readouterr()
    assert code == EXIT_OK
    reports = [json.loads(line) for line in captured.out.strip().splitlines()]
    outcomes = {r["outcome"] for r in reports if "outcome" in r}
    assert "recovered" not in outcomes


def test_fuzz_transpose_adversary_default_grid_is_ok(capsys):
    # --n 1..8: the n = 1 trials recover, since the 1x1 transpose is the identity
    code = main(["fuzz", "--adversary", "transpose"])
    lines = capsys.readouterr().out.strip().splitlines()
    reports = [json.loads(line) for line in lines[:-1]]
    assert code == EXIT_OK and json.loads(lines[-1])["fuzz_summary"]["ok"] is True
    assert [r["n"] for r in reports if r["outcome"] == "recovered"] == [1] * 10


@pytest.mark.parametrize("seed", range(1, 5))
def test_fuzz_random_pair_adversary_at_n1_is_ok(capsys, seed):
    argv = ["fuzz", "--n", "1", "--fields", "gfp:2", "--trials", "4", "--seed", str(seed)]
    code = main([*argv, "--adversary", "random_pair"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == EXIT_OK
    assert json.loads(last)["fuzz_summary"]["recovered"] == 0


def test_fuzz_rejects_zero_trials():
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--trials", "0"])
    assert exc.value.code == 2


def test_fuzz_rejects_bad_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--n", "5..2"])
    _assert_flag_error(capsys, exc)


def test_fuzz_rejects_repeated_field(capsys):
    # q and Q name the same field; running its cells twice would double-count them
    code = main(["fuzz", "--n", "2", "--fields", "q,Q", "--trials", "1"])
    _assert_parse_failure(capsys, code)


def test_fuzz_dimension_flag_uses_config_bound():
    assert build_parser().parse_args(["fuzz", "--n", f"1..{MAX_FUZZ_N}"]).n == (1, MAX_FUZZ_N)
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--n", f"1..{MAX_FUZZ_N + 1}"])
    assert exc.value.code == 2


# -- mutated problem files ---------------------------------------------------


def _mutation_bases():
    gf3 = prime_field(3)
    pair = {
        "field": {"type": "GFp", "p": 3},
        "n": 2,
        "generator_pair": {
            "H": matrix_to_json(elementary_matrix(gf3, 2, 1, 2)),
            "G": matrix_to_json(Matrix.from_rows(gf3, [[0, 0], [1, 0]])),
        },
    }
    gf5_conjugator = {
        "field": {"type": "GFp", "p": 5},
        "n": 3,
        "conjugator": [["1", "2", "0"], ["0", "1", "4"], ["3", "0", "1"]],
    }
    return [swap_problem(), pair, transpose_table_problem(2), gf5_conjugator]


MUTATION_BASES = _mutation_bases()
MUTATIONS = ("drop", "rename", "swap", "entry", "wrong_n", "truncate", "non_utf8", "nest")
SCALARS = st.sampled_from(["0", "1", "2", "-1/2"])
JSON_VALUES = st.one_of(
    SCALARS,
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.integers(min_value=2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.lists(st.text(max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _json_paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _json_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from _json_paths(value, prefix + (index,))


def _get(obj, path):
    for step in path:
        obj = obj[step]
    return obj


def _replaced(obj, path, value):
    """A copy of obj with the node at path replaced by value."""
    if not path:
        return value
    obj = json.loads(json.dumps(obj))
    _get(obj, path[:-1])[path[-1]] = value
    return obj


def _mutated_bytes(data) -> bytes:
    obj = data.draw(st.sampled_from(MUTATION_BASES))
    kind = data.draw(st.sampled_from(MUTATIONS))
    paths = list(_json_paths(obj))
    if kind in ("drop", "rename"):
        dict_paths = [p for p in paths if isinstance(_get(obj, p), dict)]
        path = data.draw(st.sampled_from(dict_paths))
        target = dict(_get(obj, path))
        key = data.draw(st.sampled_from(sorted(target)))
        value = target.pop(key)
        if kind == "rename":
            target[data.draw(st.text(max_size=8))] = value
        obj = _replaced(obj, path, target)
    elif kind == "swap":
        obj = _replaced(obj, data.draw(st.sampled_from(paths)), data.draw(JSON_VALUES))
    elif kind == "entry":  # a new scalar, which may keep the file valid
        leaves = [p for p in paths if isinstance(_get(obj, p), str)]
        obj = _replaced(obj, data.draw(st.sampled_from(leaves)), data.draw(SCALARS))
    elif kind == "wrong_n":
        n = data.draw(st.integers(-2, 6).filter(lambda k: k != obj["n"]))
        obj = _replaced(obj, ("n",), n)
    elif kind == "nest":
        depth = data.draw(st.sampled_from([1, 50, 5000, 200000]))
        path = data.draw(st.sampled_from(paths))
        return json.dumps(_replaced(obj, path, "@")).replace(
            '"@"', "[" * depth + "]" * depth
        ).encode()
    raw = json.dumps(obj).encode()
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if kind == "non_utf8":
        at = data.draw(st.integers(0, len(raw)))
        bad = data.draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80"]))
        return raw[:at] + bad + raw[at:]
    return raw


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@given(data=st.data())
def test_mutated_problem_files_keep_the_exit_contract(mutation_dir, data):
    path = mutation_dir / "problem.json"
    path.write_bytes(_mutated_bytes(data))
    for command, allowed in (("recover", {0, 2, 3, 4}), ("check-aut", {0, 1, 2})):
        code, err = _run_cli([command, str(path)])
        assert code in allowed, (command, code)
        if err:
            assert err.endswith("\n") and err.count("\n") == 1, err
            assert isinstance(json.loads(err), dict), err


# -- misc --------------------------------------------------------------------


def test_problem_parses_to_its_conjugation_oracle():
    oracle = problem_from_json(swap_problem())
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert (oracle.spec, oracle.n, oracle.query_count) == (QQ, 2, 0)
    assert oracle.backing == ConjugationWitness(swap)
    assert oracle.backing.conjugator_inv == swap
