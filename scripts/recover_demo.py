#!/usr/bin/env python3
"""End-to-end walkthrough of one recovery, printing every intermediate object.

Draws a random invertible B over the chosen field, wraps conjugation by B as
an oracle, recovers the conjugator from the two generator images, and shows
that the result matches B up to the expected scalar.

Usage: python scripts/recover_demo.py [--field q|gfp:P] [--n 3] [--seed 1]
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from matconj import (  # noqa: E402
    AutomorphismOracle,
    build_conjugator,
    certify,
    check_structure_identities,
    prime_field,
    random_invertible,
    rationals,
    scalar_relation,
)
from matconj.cli import parse_field_flag  # noqa: E402


def show(label, matrix):
    rows = matrix.to_strings()
    width = max(len(cell) for row in rows for cell in row)
    print(f"{label}:")
    for row in rows:
        print("  [ " + "  ".join(cell.rjust(width) for cell in row) + " ]")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--field", type=parse_field_flag, default=rationals())
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    b = random_invertible(args.field, args.n, random.Random(args.seed), 5)
    show(f"ground-truth B over {args.field}", b)

    oracle = AutomorphismOracle.conjugation_by(b)
    h, g = oracle.query_generators()
    show("H = phi(corner unit)", h)
    show("G = phi(shift matrix)", g)
    print(f"oracle queries so far: {oracle.query_count}")

    witness = build_conjugator(h, g)
    print(f"kernel vector a = {[row[0] for row in witness.kernel_vector.to_strings()]}")
    show("recovered conjugator A", witness.conjugator)

    all_hold = check_structure_identities(h, g, witness.conjugator).first_failing is None
    print(f"structural identities all hold: {all_hold}")

    report = certify(oracle, witness)
    print(
        f"conjugation certificate: {report.outcome.value} "
        f"({report.verified_pairs} basis pairs)"
    )
    scalar = scalar_relation(witness.conjugator, b)
    print(f"A = {scalar} * B")
    return 0 if all_hold and scalar is not None else 1


if __name__ == "__main__":
    sys.exit(main())
