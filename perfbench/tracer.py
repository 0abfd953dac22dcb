"""Span recorder for the traced run, installed around matconj's public functions.

``Tracer.install`` replaces each traced function with a wrapper in every
matconj module that binds it (``cli.build_conjugator`` and
``fuzz.build_conjugator`` are the same function under two names) and on the
classes that define traced methods; ``uninstall`` puts the originals back.
Nothing under ``src/`` changes.

A span is ``(name, start_ns, end_ns, parent, op, extra)``: ``parent`` is the
index of the enclosing span (-1 at the top of an op), ``op`` the index of
the ``cli.main`` call it belongs to and ``extra`` the dense scalar
multiplications of a matmul, computed from the operand shapes.  Spans stay in
memory and are written out when the run ends.  No traced function calls
another traced function of the same name, so a name's spans never nest.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function, span name): plain functions, wrapped in every binding
FUNCTIONS = [
    ("cli", "build_parser", "cli.argparse"),
    ("cli", "load_problem", "cli.parse"),
    ("cli", "matrix_to_json", "cli.serialize"),
    ("cli", "vector_to_json", "cli.serialize"),
    ("cli", "report_to_json", "cli.serialize"),
    ("cli", "validation_to_json", "cli.serialize"),
    ("cli", "_dump", "cli.serialize"),
    ("skolem_noether", "build_conjugator", "skolem_noether.build"),
    ("skolem_noether", "projected_idempotent", "skolem_noether.projector"),
    ("skolem_noether", "kernel_vector", "skolem_noether.kernel"),
    ("skolem_noether", "verify_conjugation", "skolem_noether.certificate"),
    ("skolem_noether", "check_structure_identities", "skolem_noether.structure"),
    ("skolem_noether", "scalar_relation", "skolem_noether.scalar"),
    ("matrix", "outer_product", "matrix.outer"),
    ("fuzz", "run_roundtrip_suite", "fuzz.roundtrip"),
    ("fuzz", "run_identity_suite", "fuzz.identity"),
    ("fuzz", "random_invertible", "fuzz.gen"),
]

# (module, class, method, span name); Matrix.__matmul__ is wrapped separately
METHODS = [
    ("matrix", "Matrix", "rref", "matrix.rref"),
    ("matrix", "Matrix", "det", "matrix.det"),
    ("field", "FieldSpec", "parse", "field.parse"),
    ("automorphism", "AutomorphismOracle", "apply", "automorphism.apply"),
    ("automorphism", "AutomorphismOracle", "validate", "automorphism.validate"),
    ("automorphism", "AutomorphismOracle", "to_full_table", "automorphism.expand"),
    ("automorphism", "AutomorphismOracle", "conjugation_by",
     "automorphism.conjugation_setup"),
    ("automorphism", "AutomorphismOracle", "from_table", "automorphism.table_setup"),
    ("automorphism", "AutomorphismOracle", "from_generator_pair",
     "automorphism.pair_setup"),
]

GROUPS = ("lo", "mid", "hi")

# per-layer metric -> (kind, span name): an op's total ms, self ms, calls or
# dense multiplications in spans of that name
SPAN_METRICS = {
    "cli.argparse_ms": ("ms", "cli.argparse"),
    "cli.parse_ms": ("ms", "cli.parse"),
    "cli.serialize_ms": ("ms", "cli.serialize"),
    "field.parse_calls": ("calls", "field.parse"),
    "automorphism.apply_calls": ("calls", "automorphism.apply"),
    "automorphism.apply_ms": ("ms", "automorphism.apply"),
    "automorphism.conjugation_setup_ms": ("ms", "automorphism.conjugation_setup"),
    "automorphism.validate_ms": ("ms", "automorphism.validate"),
    "automorphism.expand_ms": ("ms", "automorphism.expand"),
    "skolem_noether.build_ms": ("ms", "skolem_noether.build"),
    "skolem_noether.projector_ms": ("ms", "skolem_noether.projector"),
    "skolem_noether.kernel_ms": ("ms", "skolem_noether.kernel"),
    "skolem_noether.assembly_self_ms": ("self_ms", "skolem_noether.build"),
    "skolem_noether.certificate_ms": ("ms", "skolem_noether.certificate"),
    "skolem_noether.certificate_self_ms": ("self_ms", "skolem_noether.certificate"),
    "skolem_noether.structure_ms": ("ms", "skolem_noether.structure"),
    "skolem_noether.scalar_ms": ("ms", "skolem_noether.scalar"),
    "matrix.matmul_calls": ("calls", "matrix.matmul"),
    "matrix.matmul_ms": ("ms", "matrix.matmul"),
    "matrix.matmul_dense_mults": ("extra", "matrix.matmul"),
    "matrix.matvec_calls": ("calls", "matrix.matvec"),
    "matrix.matvec_ms": ("ms", "matrix.matvec"),
    "matrix.rref_calls": ("calls", "matrix.rref"),
    "matrix.rref_ms": ("ms", "matrix.rref"),
    "matrix.det_calls": ("calls", "matrix.det"),
    "matrix.det_ms": ("ms", "matrix.det"),
    "matrix.outer_calls": ("calls", "matrix.outer"),
    "matrix.outer_ms": ("ms", "matrix.outer"),
    "fuzz.roundtrip_ms": ("ms", "fuzz.roundtrip"),
    "fuzz.identity_ms": ("ms", "fuzz.identity"),
    "fuzz.gen_ms": ("ms", "fuzz.gen"),
}
GROUP_METRICS = ("matrix.matmul_dense_mults", "automorphism.apply_calls",
                 "field.parse_calls")

UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count", "extra": "count"}
OTHER_UNITS = {
    "field.q_out_bits": "bits",
    "field.q_peak_bits": "bits",
    "fuzz.gen_accept_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: UNITS[kind] for name, (kind, _) in SPAN_METRICS.items()}
    for name in GROUP_METRICS:
        for group in GROUPS:
            units[f"{name}.{group}"] = "count"
    for group in GROUPS:
        units[f"size.n_{group}"] = "n"
    units.update(OTHER_UNITS)
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op = -1
        self.peak_bits: dict[int, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules[f"matconj.{name}"]
                for name in ("cli", "automorphism", "skolem_noether", "matrix",
                             "field", "fuzz")}
        bindings = [sys.modules["matconj"], *mods.values()]
        for mod_name, fn_name, span in FUNCTIONS:
            original = getattr(mods[mod_name], fn_name)
            wrapper = self._wrap(span, original)
            for mod in bindings:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self._wrap(span, raw.__func__)))
            else:
                self._patch(cls, meth, self._wrap(span, raw, self._measure(span)))
        matrix = mods["matrix"]
        self._patch(matrix.Matrix, "__matmul__",
                    self._wrap_matmul(matrix.Matrix.__matmul__, matrix.ColumnVector))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, measure=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op, 0)
            if measure is not None:
                measure(args[0], result)
            return result

        return traced

    def _wrap_matmul(self, fn, vector_type):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(left, right):
            is_vec = isinstance(right, vector_type)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(left, right)
            finally:
                t1 = clock()
                stack.pop()
                if is_vec:
                    spans[idx] = ("matrix.matvec", t0, t1, parent, self.op, 0)
                else:
                    mults = left.rows * left.cols * getattr(right, "cols", 0)
                    spans[idx] = ("matrix.matmul", t0, t1, parent, self.op, mults)
            if not left.spec.is_prime_field:
                self._note_bits(result._data)
            return result

        return traced

    def _measure(self, span):
        """Bit growth of Q results, for the matrix methods that produce them."""
        if span == "matrix.rref":
            def measure(matrix, result):
                if not matrix.spec.is_prime_field:
                    self._note_bits(result.matrix._data)
            return measure
        if span == "matrix.det":
            def measure(matrix, result):
                if not matrix.spec.is_prime_field:
                    self._note_bits((result.value,))
            return measure
        return None

    def _note_bits(self, values) -> None:
        peak = max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                    for v in values), default=0)
        if peak > self.peak_bits[self.op]:
            self.peak_bits[self.op] = peak

    # -- analysis ----------------------------------------------------------

    def per_op(self, ops) -> dict[int, dict]:
        """Per-op totals: ms and self ms by span name, calls, dense mults,
        time covered by top-level spans, and ``random_invertible`` acceptance."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, t0, t1, parent, op, extra in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        stats = {op: {"ms": Counter(), "self_ms": Counter(), "calls": Counter(),
                      "extra": Counter(), "covered_ns": 0, "gen": 0, "gen_dets": 0}
                 for op in ops}
        for idx, (name, t0, t1, parent, op, extra) in enumerate(spans):
            s = stats.get(op)
            if s is None:
                continue
            dur = t1 - t0
            s["ms"][name] += dur / 1e6
            s["self_ms"][name] += (dur - child_ns[idx]) / 1e6
            s["calls"][name] += 1
            s["extra"][name] += extra
            if parent < 0:
                s["covered_ns"] += dur
            elif name == "matrix.det" and spans[parent][0] == "fuzz.gen":
                s["gen_dets"] += 1
            if name == "fuzz.gen":
                s["gen"] += 1
        return stats

    def metrics(self, ops, groups, q_out_bits, overhead_ratio) -> dict[str, float]:
        """Per-layer metrics over the traced ops.

        ``ops`` maps op index to ``(group, start_ns, end_ns, speed scale)``;
        ``groups`` maps a size class to its n; ``q_out_bits`` maps op index to
        the largest rational entry in its report.  Times and calls are means
        per op, so a layer that only some ops of a mix use still shows, and
        times carry the op's speed scale.  The per-group counts are medians
        within the group, which are exact: every op of a group does the same
        work.  Bit sizes are the largest over the traced ops.
        """
        stats = self.per_op(ops)

        def value(i, kind, span):
            v = stats[i][kind][span]
            return v * ops[i][3] if kind in ("ms", "self_ms") else v

        out = {}
        for metric, (kind, span) in SPAN_METRICS.items():
            out[metric] = sum(value(i, kind, span) for i in ops) / len(ops)
        for metric in GROUP_METRICS:
            kind, span = SPAN_METRICS[metric]
            for group in GROUPS:
                values = [value(i, kind, span) for i, op in ops.items()
                          if op[0] == group]
                out[f"{metric}.{group}"] = statistics.median(values) if values else 0
        for group in GROUPS:
            out[f"size.n_{group}"] = groups.get(group, 0)
        out["field.q_out_bits"] = max(q_out_bits[i] for i in ops)
        out["field.q_peak_bits"] = max(self.peak_bits[i] for i in ops)
        gen = sum(s["gen"] for s in stats.values())
        gen_dets = sum(s["gen_dets"] for s in stats.values())
        out["fuzz.gen_accept_ratio"] = gen / gen_dets if gen_dets else 0
        out["trace.overhead_ratio"] = overhead_ratio
        wall = sum(t1 - t0 for _, t0, t1, _ in ops.values())
        out["trace.coverage_ratio"] = sum(s["covered_ns"] for s in stats.values()) / wall
        return out

    def write(self, path, ops) -> None:
        """Spans as tab-separated rows (row k is span k), then one row per op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\tdense_mults\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
            for i, (group, t0, t1, _) in ops.items():
                fh.write(f"op:{group}\t{t0}\t{t1}\t-1\t{i}\t0\n")
