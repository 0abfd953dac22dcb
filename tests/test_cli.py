"""CLI commands, JSON formats, exit codes, and byte determinism."""

import json

import pytest

from matconj import Matrix, Outcome, elementary_matrix, prime_field, rationals
from matconj.cli import (
    EXIT_CONSTRUCTION,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFICATION,
    ProblemFile,
    exit_code_for,
    main,
    matrix_to_json,
    parse_field_descriptor,
    parse_field_flag,
    problem_from_json,
    problem_to_json,
)

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
    problem = problem_from_json(obj)
    again = problem_from_json(problem_to_json(problem))
    assert again == problem
    assert problem_to_json(again) == problem_to_json(problem)


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
    with pytest.raises(ParseError, match="det"):
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


def _assert_parse_failure(capsys, code):
    assert code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]


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
    assert main(["check-aut", path]) == EXIT_PARSE


def test_check_aut_rejects_singular_conjugator(tmp_path):
    obj = swap_problem()
    obj["conjugator"] = [["1", "2"], ["2", "4"]]
    path = write_problem(tmp_path, obj)
    assert main(["check-aut", path]) == EXIT_PARSE


# -- gen ---------------------------------------------------------------------


def test_gen_is_parseable_and_invertible(tmp_path):
    out_path = tmp_path / "generated.json"
    code = main(["gen", "--field", "gfp:7", "--n", "3", "--seed", "42", "--out", str(out_path)])
    assert code == EXIT_OK
    problem = problem_from_json(json.loads(out_path.read_text()))
    assert problem.variant == "conjugator"
    assert not problem.payload.det().is_zero()


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
    assert QQ.parse(value) != QQ.zero


def test_gen_flag_validation():
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--field", "reals", "--n", "2", "--seed", "1"])
    assert exc.value.code == 2


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


def test_fuzz_rejects_zero_trials():
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--trials", "0"])
    assert exc.value.code == 2


def test_fuzz_rejects_bad_range():
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", "--n", "5..2"])
    assert exc.value.code == 2


# -- misc --------------------------------------------------------------------


def test_problemfile_equality_includes_variant():
    a = problem_from_json(swap_problem())
    assert a == ProblemFile(QQ, 2, "conjugator", Matrix.from_rows(QQ, [[0, 1], [1, 0]]))
