#!/usr/bin/env python3
"""Full acceptance-scale sweep with a per-cell table and wall-clock timing.

Runs 100 recoveries per (dimension, field) cell over n = 1..8 and the fields
Q, GF(2), GF(3), GF(7), GF(101), verifying the conjugation certificate and
all structural identities in every trial, in one pass.  Prints one row per
cell and the identity summary the pass recorded.

Usage: python scripts/acceptance_sweep.py [--trials 100] [--seed 20260808]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from matconj import (  # noqa: E402
    FuzzConfig,
    IdentitySummary,
    Outcome,
    prime_field,
    rationals,
    run_roundtrip_suite,
)

FIELDS = (
    rationals(),
    prime_field(2),
    prime_field(3),
    prime_field(7),
    prime_field(101),
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20260808)
    args = parser.parse_args()

    print(f"{'field':>8} {'n':>2} {'trials':>6} {'recovered':>9} {'queries':>7} {'time':>8}")
    total_start = time.monotonic()
    all_ok = True
    summary = IdentitySummary()
    for spec in FIELDS:
        for n in range(1, 9):
            cfg = FuzzConfig(
                n_range=(n, n),
                field_specs=(spec,),
                trials_per_cell=args.trials,
                seed=args.seed,
            )
            started = time.monotonic()
            reports = run_roundtrip_suite(cfg, summary)
            elapsed = time.monotonic() - started
            recovered = sum(1 for r in reports if r.outcome is Outcome.RECOVERED)
            queries_ok = all(r.query_count == 2 for r in reports)
            ok = recovered == len(reports) and queries_ok
            all_ok = all_ok and ok
            print(
                f"{str(spec):>8} {n:>2} {len(reports):>6} {recovered:>9} "
                f"{'2' if queries_ok else 'BAD':>7} {elapsed:>7.2f}s"
                + ("" if ok else "   <-- FAILURE")
            )
    total_elapsed = time.monotonic() - total_start
    print(
        f"\nidentity assertions: {sum(summary.assertion_counts.values())}, "
        f"violations: {len(summary.violations)}"
    )
    print(f"total: {total_elapsed:.2f}s (desk target 60s)")
    if not (all_ok and summary.ok):
        print("SWEEP FAILED")
        return 1
    print("SWEEP OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
