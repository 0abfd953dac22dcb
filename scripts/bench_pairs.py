#!/usr/bin/env python3
"""Run the benchmark in two checkouts, in alternating pairs, and record it.

For each workload and seed, ``perfbench/run.py`` runs once in the parent
checkout and once in the change checkout, each in a fresh subprocess with the
checkout as its working directory.  The side that goes first alternates from
one pair to the next, so a drift in host speed lands on both sides.  The last
stdout line of each run (its JSON result) is stored, keyed by workload and
seed, in two BENCH files: one for the parent and one for the change.  Each
file's header records its checkout's ``src_lines``, the line count of the
Python files under ``src/``, so a change's size is kept beside its numbers.  An
existing file is extended, so workloads can be run in separate calls.  After
the runs, the script prints the median of each end-to-end metric per side,
the number of pairs in which the change was better, and whether the change's
median is inside the metric's relative ``bound`` from BENCHMARK.json: no
worse than the parent's median by more than that fraction.  A metric whose
parent IQR is wider than its bound (relative to the parent's median) is
"unresolved": its pairs are too noisy to tell, and more pairs are needed.
Beside the median of ``peak_rss_mb`` it prints the largest rise in any one
pair and that pair's ratio of attempted ops (change / parent): the harness
keeps state per op, so a pair whose change run made many more ops can break
the RSS bound on its own even when the median is inside it.

Usage:
    python scripts/bench_pairs.py --parent DIR --change DIR \\
        --parent-out BENCH_<commit>.json --change-out BENCH_<name>.json \\
        --parent-label <commit> --workload two-query-recover --seeds 801-810 \\
        [--workload fuzz-grid ...] [--seconds 25]

Only the standard library is used.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = ("python3 perfbench/run.py --workload <workload> --seed <seed> "
           "--seconds {seconds} --trace 0")


def parse_seeds(text: str) -> list[int]:
    """'801-810' or '801,805,809' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(lines[-1])


def load(path: Path, header: dict) -> dict:
    """The header, then the runs already recorded in ``path``, if any."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else {}
    return {**header, "runs": runs}


def src_lines(texts) -> int:
    """The number of lines in ``texts``, the contents of a checkout's ``src/``
    files; a last line without a newline counts too."""
    return sum(len(text.splitlines()) for text in texts)


def checkout_src_lines(checkout: Path) -> int:
    return src_lines(path.read_text() for path in (checkout / "src").rglob("*.py"))


def end_to_end(checkout: Path) -> dict:
    """Each end-to-end metric's (direction, relative bound) from BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def compare(before: list, after: list, better: str, bound: float) -> dict:
    """Medians, parent IQR, wins and the bound verdict of one metric's pairs.

    ``before[i]`` and ``after[i]`` are the parent's and the change's values in
    pair i.  The verdict is "unresolved" when the parent's IQR exceeds
    ``bound`` times its median, else "inside bound" when the change's median
    is worse than the parent's by at most that fraction, else "outside bound".
    """
    sign = 1 if better == "higher" else -1
    mb, ma = statistics.median(before), statistics.median(after)
    q = statistics.quantiles(before, n=4) if len(before) > 1 else [mb, mb, mb]
    iqr = q[2] - q[0]
    base = mb or 1.0
    if iqr / base > bound:
        verdict = "unresolved"
    elif sign * (mb - ma) / base <= bound:
        verdict = "inside bound"
    else:
        verdict = "outside bound"
    return {
        "parent": mb,
        "change": ma,
        "iqr": iqr,
        "wins": sum(sign * (a - b) > 0 for b, a in zip(before, after)),
        "verdict": verdict,
    }


def largest_rise(pairs: list, name: str) -> dict:
    """The pair in which metric ``name`` rose the most, relative to the parent.

    ``pairs`` holds (parent run, change run) tuples.  Returns the rise as a
    fraction, the pair's index and its attempted-ops ratio (change / parent).
    """
    rises = []
    for index, (p, c) in enumerate(pairs):
        before, after = p["metrics"][name]["value"], c["metrics"][name]["value"]
        rises.append(((after - before) / before if before else 0.0, index))
    rise, index = max(rises)
    p, c = pairs[index]
    return {"rise": rise, "pair": index, "ops_ratio": c["attempted"] / p["attempted"]}


def summarize(parent: dict, change: dict, workload: str, seeds, metrics: dict) -> None:
    pairs = [(parent[workload][str(s)], change[workload][str(s)]) for s in seeds]
    print(f"{workload}: {len(pairs)} pairs, medians parent -> change")
    counts = " ".join(f"{p['attempted']}/{c['attempted']}" for p, c in pairs)
    print(f"  attempted {counts}")
    for name, (better, bound) in metrics.items():
        before = [p["metrics"][name]["value"] for p, _ in pairs]
        after = [c["metrics"][name]["value"] for _, c in pairs]
        r = compare(before, after, better, bound)
        mb = r["parent"]
        rel = (r["change"] - mb) / mb * 100 if mb else 0.0
        print(f"  {name:<16} {r['parent']:10.4g} -> {r['change']:10.4g} "
              f"({rel:+6.1f}%)  parent IQR {r['iqr']:.3g}  "
              f"change better in {r['wins']}/{len(pairs)}  "
              f"{r['verdict']} ({bound:.0%})")
        if name == "peak_rss_mb":
            worst = largest_rise(pairs, name)
            print(f"  {'':<16} largest pair rise {worst['rise'] * 100:+.1f}% "
                  f"(seed {seeds[worst['pair']]}), attempted ops ratio "
                  f"{worst['ops_ratio']:.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-out", type=Path, required=True)
    parser.add_argument("--change-out", type=Path, required=True)
    parser.add_argument("--parent-label", required=True, help="the parent's commit")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()

    shared = {
        "command": COMMAND.format(seconds=f"{args.seconds:g}"),
        "host": f"Python {platform.python_version()}, {platform.system()}, "
                f"{os.cpu_count()}-core host",
    }
    parent = load(args.parent_out, {
        "commit": args.parent_label,
        "src_lines": checkout_src_lines(args.parent),
        "note": "each run alternated with a run of the same seed on the change, "
                f"recorded in {args.change_out.name}",
        **shared,
    })
    change = load(args.change_out, {
        "parent": args.parent_label,
        "src_lines": checkout_src_lines(args.change),
        "note": "each run alternated with a run of the same seed on "
                f"{args.parent_label}, recorded in {args.parent_out.name}",
        **shared,
    })
    sides = (
        ("parent", args.parent, parent, args.parent_out),
        ("change", args.change, change, args.change_out),
    )
    pair = 0
    for workload in args.workload:
        for seed in args.seeds:
            order = sides if pair % 2 == 0 else sides[::-1]
            for side, checkout, record, out in order:
                result = run_once(checkout, workload, seed, args.seconds)
                record["runs"].setdefault(workload, {})[str(seed)] = result
                out.write_text(json.dumps(record, indent=1) + "\n")
                ops = result["metrics"]["ops_per_s"]["value"]
                print(f"{workload} {seed} {side}: {ops:.4g} ops/s",
                      file=sys.stderr, flush=True)
            pair += 1
    metrics = end_to_end(args.change)
    for workload in args.workload:
        summarize(parent["runs"], change["runs"], workload, args.seeds, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
