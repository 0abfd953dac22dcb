#!/usr/bin/env python3
"""Time det, rref, inverse and rank in two checkouts, interleaved.

Each case is a seeded pool of random dense matrices over one field: det, rref
and inverse at n = 1..6 over Q (entries a/b with |a| <= 5, 1 <= b <= 5),
GF(2), GF(3), GF(7), GF(101) and GF(2^61-1); then the rank of a 49 x 49
matrix over GF(2^61-1) (``validate``'s shape at n = 7) and the inverse at
n = 18 over GF(2^61-1) and over Q.  Inverse pools keep only the invertible
draws.

Both checkouts' ``matconj`` packages are imported into this one process,
under two module names, so both sides run on the same core and interpreter
state; separate worker processes read up to 1.7x apart on one shared host
even with the same code on both sides.  Each round times every case on both
sides back to back, and the side that goes first alternates from round to
round.  A case's time is the mean over its pool of one call, in
microseconds; the script prints each side's median over the rounds and
their ratio (change / parent).

Usage:
    python scripts/elimination_times.py --parent DIR --change DIR [--rounds 15]

Only the standard library is used.
"""

import argparse
import importlib.util
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SIDES = ("parent", "change")
M61 = 2**61 - 1
FIELDS = {"Q": None, "GF(2)": 2, "GF(3)": 3, "GF(7)": 7, "GF(101)": 101, "GF(M61)": M61}
POOL = 12


def cases():
    """(label, field modulus or None for Q, n, op, repeats) of every case."""
    out = []
    for name, p in FIELDS.items():
        for n in range(1, 7):
            for op in ("det", "rref", "inverse"):
                out.append((f"{name} n={n} {op}", p, n, op, 20))
    out.append(("GF(M61) 49x49 rank", M61, 49, "rank", 1))
    out.append(("GF(M61) n=18 inverse", M61, 18, "inverse", 2))
    out.append(("Q n=18 inverse", None, 18, "inverse", 1))
    return out


def load(checkout: Path, name: str):
    """The checkout's ``matconj`` package, imported as module ``name``."""
    init = checkout / "src" / "matconj" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def pools(package, seed: int) -> list:
    """Per case, (bound calls over its pool, repeats); the same draws on
    every side for one seed."""
    rng = random.Random(seed)
    out = []
    for _, p, n, op, repeats in cases():
        spec = package.prime_field(p) if p else package.rationals()
        pool = []
        while len(pool) < POOL:
            if p:
                entries = [rng.randrange(p) for _ in range(n * n)]
            else:
                entries = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n * n)]
            m = package.Matrix(spec, n, n, entries)
            if op != "inverse" or not m.det().is_zero():
                pool.append(m)
        out.append(([getattr(m, op) for m in pool], repeats))
    return out


def time_case(calls, repeats: int) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        for call in calls:
            call()
    return (time.perf_counter() - t0) * 1e6 / (repeats * len(calls))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("need --rounds >= 1")

    sides = {
        side: pools(load(checkout, f"matconj_{side}"), args.seed)
        for side, checkout in zip(SIDES, (args.parent, args.change))
    }
    times = {side: [[] for _ in cases()] for side in SIDES}
    for r in range(args.rounds + 1):  # round 0 warms up and is not kept
        for k in range(len(cases())):
            for side in SIDES[::-1] if r % 2 else SIDES:
                us = time_case(*sides[side][k])
                if r:
                    times[side][k].append(us)

    print(f"seed {args.seed}, {args.rounds} rounds, median us per call")
    print(f"{'case':<26}{'parent':>11}{'change':>11}{'ratio':>8}")
    for k, (label, *_) in enumerate(cases()):
        parent, change = (statistics.median(times[side][k]) for side in SIDES)
        print(f"{label:<26}{parent:>11.1f}{change:>11.1f}{change / parent:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
