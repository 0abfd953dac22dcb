"""The matconj benchmark: one workload, seeded inputs, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certified-recover --seed 1 --seconds 25 --trace 0

Every op is one in-process ``matconj.cli.main(argv)`` call, issued in a closed
loop by a single client: the next op starts when the previous one returns.
The loop runs whole cycles of the workload's op mix until ``--seconds`` of
op time have passed and at least ``MIN_OPS`` ops are done.  Reports are
checked after the timed interval by ``checker`` (stdlib exact arithmetic, no
matconj).

Every time is scaled by the speed probe of :mod:`speed`, run before each op
outside the timed interval, so that a run reads the same whether the shared
host is busy or idle; the unscaled figures are printed beside the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half traced, and prints the per-layer metrics of
``tracer``; the ratio of the two phases' throughput is the tracing overhead.
The last line of standard output is the JSON result.  Without ``src/matconj``
next to this directory the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checker  # noqa: E402
import exact  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

SETUP_REPEATS = 3
MIN_OPS = 100  # leaves at least ten samples beyond the 90th percentile
MAX_SECONDS = 120.0  # stop at the next cycle end, whatever the op count

UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "correct_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def import_matconj():
    """Import matconj afresh from ``src/`` and return its ``cli`` module."""
    for name in [m for m in sys.modules if m == "matconj" or m.startswith("matconj.")]:
        del sys.modules[name]
    cli = importlib.import_module("matconj.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"matconj imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Sample:
    """One timed op: its report, its wall and CPU time, and the speed scale."""

    index: int
    op: Op
    code: object
    text: str
    start_ns: int
    end_ns: int
    cpu_ns: int
    probe_ms: float
    scale: float = 1.0

    @property
    def raw_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6

    @property
    def ms(self) -> float:
        return self.raw_ms * self.scale


def run_op(main, argv):
    """One ``cli.main`` call: (exit code, stdout, start ns, end ns, cpu ns)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed op, reported by the checker
            code = "crash: " + traceback.format_exc(limit=1).splitlines()[-1]
        t1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
    return code, out.getvalue(), t0, t1, c1 - c0


def measure(workload, main, start, seconds, min_ops, on_op=None) -> list[Sample]:
    """Closed loop of whole cycles until ``seconds`` of op time have passed."""
    samples = []
    i = start
    timed_ns = 0
    while True:
        op = workload.op(i)
        probe = speed.probe_ms()
        if on_op is not None:
            on_op(i)
        code, text, t0, t1, cpu = run_op(main, op.argv)
        samples.append(Sample(i, op, code, text, t0, t1, cpu, probe))
        timed_ns += t1 - t0
        i += 1
        if (i - start) % workload.cycle_len == 0:
            done = timed_ns / 1e9
            if (done >= seconds and i - start >= min_ops) or done >= MAX_SECONDS:
                break
    for sample, scale in zip(samples, speed.scales([s.probe_ms for s in samples])):
        sample.scale = scale
    return samples


def check_all(results):
    """Verdict per result: None when correct.  An input seen before must give
    the same exit code and report bytes; then the earlier verdict stands."""
    seen = {}
    verdicts = []
    for sample in results:
        op, code, text = sample.op, sample.code, sample.text
        prev = seen.get(op.argv)
        if prev is None:
            verdict = checker.check(op, code, text)
            seen[op.argv] = (code, text, verdict)
        elif prev[:2] == (code, text):
            verdict = prev[2]
        else:
            verdict = "report differs from an earlier op on the same input"
        verdicts.append(verdict)
    return verdicts


def self_test(results, verdicts):
    """Feed corrupted copies of one correct report per op kind to the checker.

    Returns (flagged, total, messages); every corruption must be flagged.
    """
    kinds = {s.op.kind for s in results}
    samples = {}
    for s, verdict in zip(results, verdicts):
        if verdict is None:
            samples.setdefault(s.op.kind, (s.op, s.code, s.text))
    flagged = total = 0
    messages = []
    for kind in sorted(kinds):
        if kind not in samples:
            total += 1
            messages.append(f"{kind}: no correct report to corrupt")
            continue
        op, code, text = samples[kind]
        for label, bad_code, bad_text in checker.corruptions(op, code, text):
            total += 1
            if checker.check(op, bad_code, bad_text) is None:
                messages.append(f"{kind}: '{label}' passed the checker")
            else:
                flagged += 1
    return flagged, total, messages


def q_out_bits(text: str) -> int:
    """Largest bit size of a rational in a report (0 when there is none)."""
    try:
        reports = [json.loads(text)]
    except ValueError:  # fuzz writes one JSON object per line
        reports = [json.loads(line) for line in text.splitlines()]
    peak = 0
    for report in reports:
        if report.get("field") != {"type": "Q"}:
            continue
        values = [report.get("scalar")]
        for key in ("conjugator", "conjugator_inverse"):
            values.extend(x for row in report.get(key) or [] for x in row)
        values.extend(report.get("kernel_vector") or [])
        for v in values:
            if v is not None:
                peak = max(peak, exact.bits(v))
    return peak


def setup(name, seed, workdir):
    """Import matconj, write the seeded inputs, run the warm-up ops.

    Returns the cli module, the workload and the set-up time in seconds,
    scaled by the speed probes taken just before and after.
    """
    probes = [speed.probe_ms() for _ in range(3)]
    t0 = time.perf_counter()
    cli = import_matconj()
    workload = WORKLOADS[name](seed, workdir)
    for op in workload.warmup_ops():
        run_op(cli.main, op.argv)
    seconds = time.perf_counter() - t0
    probes += [speed.probe_ms() for _ in range(3)]
    return cli, workload, seconds, seconds * speed.scale(probes)


def percentiles(ms):
    """(median, 90th percentile) of a list of op times."""
    return statistics.median(ms), statistics.quantiles(ms, n=10)[-1]


def end_to_end(samples, verdicts, setup_times):
    attempted = len(samples)
    ok = sum(v is None for v in verdicts)
    p50, p90 = percentiles([s.ms for s in samples])
    return {
        "ops_per_s": ok / (sum(s.ms for s in samples) / 1000),
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "cpu_ms_per_op": sum(s.cpu_ns / 1e6 * s.scale for s in samples) / attempted,
        "setup_s": statistics.median(setup_times),
        "correct_ratio": ok / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(name, workload, main, seconds):
    """Untraced then traced halves; returns (samples, per-layer metrics)."""
    half = seconds / 2
    min_ops = 2 * workload.cycle_len
    plain = measure(workload, main, 0, half, min_ops)
    rec = tracer.Tracer()
    rec.install()
    try:
        traced = measure(workload, main, len(plain), half, min_ops,
                         on_op=lambda i: setattr(rec, "op", i))
    finally:
        rec.uninstall()
    ops = {s.index: (s.op.group, s.start_ns, s.end_ns, s.scale) for s in traced}
    overhead = (sum(s.ms for s in traced) / len(traced)) / (
        sum(s.ms for s in plain) / len(plain))
    bits = {s.index: q_out_bits(s.text) for s in traced}
    metrics = rec.metrics(ops, workload.groups, bits, overhead)
    rec.write(HERE / ".out" / f"trace-{name}.tsv", ops)
    return plain + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "matconj" / "__init__.py").is_file():
        print(f"no matconj package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            cli, workload, raw_s, scaled_s = setup(args.workload, args.seed, workdir)
            setups.append((raw_s, scaled_s))
        if args.trace:
            samples, metrics = traced_run(args.workload, workload, cli.main,
                                          args.seconds)
            verdicts = check_all(samples)
            units = tracer.metric_units()
        else:
            samples = measure(workload, cli.main, 0, args.seconds, MIN_OPS)
            verdicts = check_all(samples)
            metrics = end_to_end(samples, verdicts, [s for _, s in setups])
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    flagged, total, messages = self_test(samples, verdicts)
    failed = sum(v is not None for v in verdicts)
    report(args, workload, samples, verdicts, metrics, units, setups)
    print(f"  checker self-test: {flagged} of {total} corruptions flagged")
    for message in messages:
        print(f"  self-test: {message}")
    result = {
        "correct": failed == 0 and flagged == total,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def report(args, workload, samples, verdicts, metrics, units, setups) -> None:
    """Human-readable lines before the JSON result, with the unscaled times."""
    sizes = " ".join(f"{g}=n{n}" for g, n in workload.groups.items()) or "-"
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(samples)} ops, sizes {sizes}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    failed = [v for v in verdicts if v is not None]
    print(f"  {'error_rate':<40} {len(failed) / len(samples):>14.6g} ratio "
          f"({len(failed)} of {len(samples)} ops failed the independent check)")
    raw = [s.raw_ms for s in samples]
    p50, p90 = percentiles(raw)
    scale = statistics.median(s.scale for s in samples)
    print(f"  unscaled: ops_per_s {len(samples) / (sum(raw) / 1000):.6g}, "
          f"latency_p50_ms {p50:.6g}, latency_p90_ms {p90:.6g} over {len(samples)} "
          f"ops; setup_s {statistics.median(r for r, _ in setups):.6g}; "
          f"median speed scale {scale:.4g}")
    for verdict in sorted(set(failed)):
        print(f"  check failed ({failed.count(verdict)} ops): {verdict}")


if __name__ == "__main__":
    sys.exit(main())
