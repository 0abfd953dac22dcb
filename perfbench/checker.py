"""Independent checks of matconj's reports, in stdlib exact arithmetic.

``check`` returns None for a correct report and a one-line reason otherwise.
A correct rejection of a non-automorphism is a success.  ``corruptions``
derives wrong variants of a correct report (one flipped entry of A, a wrong
exit code, an acceptance of a rejection input); the benchmark feeds them back
through ``check`` to show that a clean run is clean for a reason.
"""

from __future__ import annotations

import json

import exact
from workloads import fuzz_trials

MALFORMED = (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError,
           AttributeError)


def check(op, code, text: str) -> str | None:
    try:
        if op.kind == "fuzz":
            return _check_fuzz(op, code, text)
        report = json.loads(text)
        if op.kind in ("recover-rejection", "check-aut-rejection"):
            return _check_rejection(op, code, report)
        if op.kind == "check-aut":
            return _check_aut(op, code, report)
        return _check_recovery(op, code, report)
    except MALFORMED as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"


def _check_rejection(op, code, report) -> str | None:
    if not code:
        return f"exit code {code} on a non-automorphism"
    if op.kind == "recover-rejection" and report["outcome"] == "recovered":
        return "recovered a conjugator for a non-automorphism"
    if op.kind == "check-aut-rejection" and report["is_automorphism"] is not False:
        return "accepted a non-automorphism"
    return _check_input(op, report)


def _check_aut(op, code, report) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    flags = ("linear_ok", "unital_ok", "multiplicative_ok", "bijective_ok",
             "is_automorphism")
    if any(report[f] is not True for f in flags) or report["first_violation"]:
        return "rejected a genuine automorphism"
    return _check_input(op, report)


def _check_input(op, report) -> str | None:
    if report["input_sha256"] != op.sha256 or report["n"] != op.n:
        return "report names another input"
    return None


def _check_recovery(op, code, report) -> str | None:
    n, p = op.n, op.p
    if code != 0:
        return f"exit code {code}, expected 0"
    if report["outcome"] != "recovered":
        return f"outcome {report['outcome']!r}"
    if report["query_count"] != 2:
        return f"query_count {report['query_count']}"
    certified = "--no-verify" not in op.argv
    expected = ({"passed": True, "verified_pairs": n * n, "failing_pair": None}
                if certified else None)
    if report["verification"] != expected:
        return f"verification {report['verification']!r}"
    a = exact.decode(report["conjugator"], p)
    a_inv = exact.decode(report["conjugator_inverse"], p)
    if len(a) != n or any(len(row) != n for row in a):
        return "conjugator has the wrong shape"
    if exact.matmul(a, a_inv, p) != exact.identity(n, p):
        return "A * A^-1 is not the identity"
    if op.kind == "recover-conjugator":
        c = exact.parse(report["scalar"], p)
        if not c:
            return "scalar is zero"
        mul = (lambda x: c * x % p) if p else (lambda x: c * x)
        if a != [[mul(x) for x in row] for row in op.b]:
            return "A is not the reported scalar times B"
    else:
        # A E_{n,1} = H A and A S = G A: conjugation by A sends both generators
        # to their given images
        a_e = [[row[n - 1] if c == 0 else 0 for c in range(n)] for row in a]
        a_s = [[row[c - 1] if c else 0 for c in range(n)] for row in a]
        if a_e != exact.matmul(op.h, a, p) or a_s != exact.matmul(op.g, a, p):
            return "conjugation by A does not reproduce H and G"
    return _check_input(op, report)


def _check_fuzz(op, code, text: str) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    lines = [json.loads(line) for line in text.splitlines()]
    summary = lines[-1]["fuzz_summary"]
    identity = lines[-2]["identity_summary"]
    trials = lines[:-2]
    expected = fuzz_trials(op.n)
    if summary["trials"] != expected or len(trials) != expected:
        return f"{len(trials)} trials reported, expected {expected}"
    if summary["ok"] is not True or summary["recovered"] != expected:
        return "fuzz summary is not ok"
    if identity["ok"] is not True or identity["total_trials"] != expected:
        return "identity summary is not ok"
    if any(t["outcome"] != "recovered" or t["query_count"] != 2 for t in trials):
        return "a trial was not recovered with two queries"
    return None


# -- corrupted variants, for the self-test ----------------------------------


def corruptions(op, code, text: str) -> list[tuple[str, int, str]]:
    """Wrong (exit code, report) variants of a correct one, each labelled."""
    if op.kind == "fuzz":
        lines = text.splitlines()
        summary = json.loads(lines[-1])
        summary["fuzz_summary"]["ok"] = False
        return [
            ("exit code 1", 1, text),
            ("summary not ok", code, "\n".join(lines[:-1] + [json.dumps(summary)])),
            ("one trial missing", code, "\n".join(lines[1:])),
        ]
    report = json.loads(text)
    out = [("wrong exit code", 0 if code else 3, text)]
    if op.kind == "recover-rejection":
        out.append(("recovered a rejection input", code,
                    _dump(report, outcome="recovered")))
    elif op.kind == "check-aut-rejection":
        out.append(("accepted a rejection input", code,
                    _dump(report, is_automorphism=True)))
    elif op.kind == "check-aut":
        out.append(("rejected a genuine table", code,
                    _dump(report, is_automorphism=False)))
    else:
        a = [list(row) for row in report["conjugator"]]
        a[0][0] = str(exact.parse(a[0][0], op.p) + 1)
        out.append(("one flipped entry of A", code, _dump(report, conjugator=a)))
    return out


def _dump(report: dict, **changes) -> str:
    return json.dumps({**report, **changes}, indent=2, sort_keys=True) + "\n"
