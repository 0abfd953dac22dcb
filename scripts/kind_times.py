#!/usr/bin/env python3
"""Time each op kind of a benchmark workload in two checkouts, interleaved.

The workload's seeded input files are written once, by
``perfbench/workloads.py`` of the checkout this script sits in (read, never
modified), into a temporary directory.  One worker process per checkout
imports that checkout's ``matconj`` and runs ``matconj.cli.main`` in
process.  Each round runs every op of the workload's slots once in both
workers, one worker at a time, and the side that goes first alternates from
round to round, so a drift in host speed lands on both sides.  Op times are
wall-clock milliseconds of the ``cli.main`` call alone, not scaled by the
benchmark's speed probe.

The script prints, per op kind, the number of ops and the median time on
each side, then the median op of each side, its kind and the next kind above
it: the kinds a workload's ``latency_p50_ms`` reads.  Every slot of the
workload is weighted equally, as in the benchmark's cycle.

Usage:
    python scripts/kind_times.py --parent DIR --change DIR \\
        [--workload table-inputs] [--seed 7] [--rounds 15]

Only the standard library is used.
"""

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def summarize(kinds: list[str], weights: list[float], times: dict) -> dict:
    """Per-kind medians and each side's median op, from the timed rounds.

    ``kinds[k]`` and ``weights[k]`` are op k's kind and its share of the
    workload's cycle; ``times[side]`` lists rounds, each a list of op k's
    milliseconds.  Returns ``{"kinds": {kind: {"ops": count, side: median}},
    "median": {side: {"ms": m, "kind": kind, "above": kind}}}``, where m is
    the weighted median of the side's samples, "kind" the kind of the
    sample at it and "above" the kind of the next slower sample of another
    kind (None when there is none).
    """
    order = list(dict.fromkeys(kinds))
    summary = {"kinds": {kind: {"ops": kinds.count(kind)} for kind in order},
               "median": {}}
    for side, rounds in times.items():
        for kind in order:
            samples = [r[k] for r in rounds for k in range(len(kinds)) if kinds[k] == kind]
            summary["kinds"][kind][side] = statistics.median(samples)
        pooled = sorted((r[k], weights[k], kinds[k]) for r in rounds for k in range(len(kinds)))
        half = sum(w for _, w, _ in pooled) / 2
        seen = 0.0
        for at, (ms, weight, kind) in enumerate(pooled):
            seen += weight
            if seen >= half:
                break
        above = next((other for _, _, other in pooled[at + 1:] if other != kind), None)
        summary["median"][side] = {"ms": ms, "kind": kind, "above": above}
    return summary


def workload_ops(name: str, seed: int, workdir: Path) -> list[tuple[str, list, float]]:
    """(kind, argv, weight) of every op in the workload's cycle of slots."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    slots = getattr(workload, "slots", None)
    if slots is None:  # one op per slot, fresh seeds
        slots = [[workload.op(i)] for i in range(workload.cycle_len)]
    return [(op.kind, list(op.argv), 1 / len(pool)) for pool in slots for op in pool]


def worker(checkout: Path) -> int:
    """Read a JSON list of argv per line; answer each line with its ms list."""
    sys.path.insert(0, str(checkout / "src"))
    from matconj.cli import main

    for line in sys.stdin:
        result = []
        for argv in json.loads(line):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    main(argv)
                except SystemExit:
                    pass
                result.append((time.perf_counter() - t0) * 1000)
        print(json.dumps(result), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload", default="table-inputs")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return worker(args.worker)
    if not (args.parent and args.change) or args.rounds < 1:
        parser.error("need --parent and --change, and --rounds >= 1")

    with tempfile.TemporaryDirectory(prefix="kind_times_") as tmp:
        ops = workload_ops(args.workload, args.seed, Path(tmp))
        line = json.dumps([argv for _, argv, _ in ops]) + "\n"
        workers = {
            side: subprocess.Popen(
                [sys.executable, __file__, "--worker", str(checkout)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for side, checkout in zip(SIDES, (args.parent, args.change))
        }
        times = {side: [] for side in SIDES}
        try:
            for _ in range(2):  # warm-up, not recorded
                for proc in workers.values():
                    proc.stdin.write(line)
                    proc.stdin.flush()
                    proc.stdout.readline()
            for r in range(args.rounds):
                for side in SIDES[::-1] if r % 2 else SIDES:
                    proc = workers[side]
                    proc.stdin.write(line)
                    proc.stdin.flush()
                    reply = proc.stdout.readline()
                    if not reply:
                        raise SystemExit(f"{side} worker stopped")
                    times[side].append(json.loads(reply))
        finally:
            for proc in workers.values():
                proc.stdin.close()
                proc.wait()

    summary = summarize([kind for kind, _, _ in ops], [w for _, _, w in ops], times)
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds, medians in ms")
    print(f"{'kind':<22}{'ops':>5}{'parent':>10}{'change':>10}{'ratio':>8}")
    for kind, row in summary["kinds"].items():
        ratio = row["change"] / row["parent"]
        print(f"{kind:<22}{row['ops']:>5}{row['parent']:>10.2f}{row['change']:>10.2f}"
              f"{ratio:>8.3f}")
    for side, med in summary["median"].items():
        print(f"{side} median op: {med['ms']:.2f} ms, a {med['kind']} op; "
              f"next kind above: {med['above']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
