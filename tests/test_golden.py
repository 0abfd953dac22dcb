"""Golden SHA-256 digests of a small seeded corpus of CLI calls.

``gen``, ``recover``, ``check-aut`` and ``fuzz`` must give the same bytes
for the same input and seed, on every supported interpreter.  The bytes
depend on ``random.Random`` seeding and ``randrange``, on ``json.dumps`` and
on ``str(Fraction)``, so each call's exit code and stdout are hashed and
compared with ``golden_digests.json``.  The corpus: ``gen`` over Q, GF(2),
GF(101) and GF(2^61-1) at n = 1..6 for seeds 0 and 1; ``recover``,
``recover --no-verify`` and ``check-aut`` on each generated file; and
``fuzz`` over n = 1..4 with no adversary, ``transpose`` and ``random_pair``,
and over n = 5..8 with no adversary, whose summary counts every identity
at sizes past the first four.

A change that alters these bytes on purpose regenerates the list with

    PYTHONPATH=src python tests/test_golden.py --write

and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from matconj.cli import main

GOLDEN = Path(__file__).with_name("golden_digests.json")
GEN_FIELDS = ("q", "gfp:2", "gfp:101", f"gfp:{2**61 - 1}")
FUZZ_ADVERSARIES = ((), ("--adversary", "transpose"), ("--adversary", "random_pair"))


def _digest(argv) -> str:
    """SHA-256 of the call's exit code line followed by its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def corpus_digests(workdir: Path) -> dict:
    """Each corpus call, by name, mapped to its digest; files go to workdir."""
    digests = {}
    for seed in (0, 1):
        for field in GEN_FIELDS:
            for n in range(1, 7):
                tag = f"{field} n={n} seed={seed}"
                path = str(workdir / f"gen_{n}_{seed}_{field.replace(':', '_')}.json")
                gen = ["gen", "--field", field, "--n", str(n), "--seed", str(seed)]
                digests[f"gen {tag}"] = _digest(gen)
                main([*gen, "--out", path])
                digests[f"recover {tag}"] = _digest(["recover", path])
                digests[f"recover --no-verify {tag}"] = _digest(["recover", "--no-verify", path])
                digests[f"check-aut {tag}"] = _digest(["check-aut", path])
        for adversary in FUZZ_ADVERSARIES:
            argv = ["fuzz", "--n", "1..4", "--fields", "q,gfp:2,gfp:3", "--trials", "2",
                    "--seed", str(seed), *adversary]
            digests[" ".join(argv)] = _digest(argv)
        argv = ["fuzz", "--n", "5..8", "--fields", "q,gfp:2", "--trials", "1",
                "--seed", str(seed)]
        digests[" ".join(argv)] = _digest(argv)
    return digests


def test_corpus_matches_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert corpus_digests(tmp_path) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        digests = corpus_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
