"""The four workloads: seeded input files and the ``matconj`` argv of each op.

Inputs are drawn from ``random.Random`` seeded by the workload name and the
benchmark seed, written as problem files, and handed to matconj by path only.
Each op carries the reference data the checker needs (the ground-truth
conjugator B, or the generator images H and G), computed here with
:mod:`exact`, never with matconj.

File workloads run a fixed cycle of slots; each slot rotates through its own
pool of files, so a run repeats every file and the checker can compare report
bytes.  Size mixes put their three sizes in equal counts, so the median falls
inside the middle size and the 90th percentile inside the largest.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import exact

P61 = (1 << 61) - 1
GFP61 = {"type": "GFp", "p": P61}
QQ = {"type": "Q"}
ENTRY_BOUND = 5  # rational entries: |numerator| <= 5, 1 <= denominator <= 5
POOL = 6  # files per size in the recover workloads

FUZZ_FIELDS = "q,gfp:2,gfp:3,gfp:7,gfp:101"
FUZZ_SIZES = {"lo": 4, "mid": 5, "hi": 6}  # fuzz ops run --n 1..<size>


def fuzz_trials(n: int) -> int:
    """Trials of ``fuzz --n 1..n --trials 1``: one per (dimension, field) cell."""
    return n * len(FUZZ_FIELDS.split(","))


@dataclass(frozen=True)
class Op:
    """One ``cli.main`` call and what its report must satisfy.

    ``kind`` is one of ``recover-conjugator``, ``recover-pair``,
    ``recover-rejection``, ``check-aut``, ``check-aut-rejection``, ``fuzz``.
    ``group`` names the op's size class: 'lo', 'mid' or 'hi'.
    """

    kind: str
    argv: tuple
    n: int
    p: int | None = None
    group: str | None = None
    sha256: str | None = None
    b: list | None = None  # ground-truth conjugator
    h: list | None = None  # image of E_{n,1}
    g: list | None = None  # image of the shift matrix


class PoolWorkload:
    """A fixed cycle of slots, each rotating through its own pool of ops."""

    def __init__(self, slots: list[list[Op]], groups: dict[str, int]) -> None:
        self.slots = slots
        self.groups = groups  # size class -> n
        self.cycle_len = len(slots)

    def op(self, i: int) -> Op:
        pool = self.slots[i % self.cycle_len]
        return pool[(i // self.cycle_len) % len(pool)]

    def warmup_ops(self) -> list[Op]:
        """The first op of each kind, so every code path has run once."""
        seen = {}
        for pool in self.slots:
            seen.setdefault(pool[0].kind, pool[0])
        return list(seen.values())


class FuzzWorkload:
    """``fuzz`` over the acceptance grid's fields, a fresh master seed per op,
    on grids up to n = 4, 5 and 6 in turn."""

    groups = FUZZ_SIZES
    cycle_len = len(FUZZ_SIZES)

    def __init__(self, seed: int) -> None:
        self.base = seed * 1_000_000

    def op(self, i: int) -> Op:
        group, n = list(FUZZ_SIZES.items())[i % self.cycle_len]
        argv = ("fuzz", "--n", f"1..{n}", "--fields", FUZZ_FIELDS, "--trials", "1",
                "--seed", str(self.base + i))
        return Op("fuzz", argv, n=n, group=group)

    def warmup_ops(self) -> list[Op]:
        return [self.op(-self.cycle_len)]


# -- random matrices ---------------------------------------------------------


def _random_matrix(rng: random.Random, n: int, p: int | None):
    if p:
        return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    return [
        [Fraction(rng.randint(-ENTRY_BOUND, ENTRY_BOUND), rng.randint(1, ENTRY_BOUND))
         for _ in range(n)]
        for _ in range(n)
    ]


def _invertible(rng: random.Random, n: int, p: int | None):
    """A random invertible matrix; over Q rows are scaled to integers and
    tested mod a prime, which can only accept a nonsingular matrix."""
    while True:
        b = _random_matrix(rng, n, p)
        if p:
            if exact.inverse(b, p) is not None:
                return b
            continue
        scaled = []
        for row in b:
            d = math.lcm(*(x.denominator for x in row))
            scaled.append([x.numerator * (d // x.denominator) % P61 for x in row])
        if exact.inverse(scaled, P61) is not None:
            return b


def _conjugation_images(b, p: int):
    """All n^2 images B E_ij B^-1 = (column i of B)(row j of B^-1)."""
    binv = exact.inverse(b, p)
    cols = list(zip(*b))
    return [[exact.outer(cols[i], binv[j], p) for j in range(len(b))]
            for i in range(len(b))]


# -- problem files -----------------------------------------------------------


class _Writer:
    def __init__(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir

    def write(self, name: str, problem: dict) -> tuple[str, str]:
        data = json.dumps(problem, sort_keys=True).encode()
        path = self.workdir / name
        path.write_bytes(data)
        return str(path), hashlib.sha256(data).hexdigest()


def _recover_pool(w, rng, field, p, n, group, flags, tag):
    ops = []
    for k in range(POOL):
        b = _invertible(rng, n, p)
        path, sha = w.write(f"{tag}-n{n}-{k}.json",
                            {"field": field, "n": n, "conjugator": exact.encode(b)})
        ops.append(Op("recover-conjugator", ("recover", *flags, path), n, p, group,
                      sha, b=b))
    return ops


def certified_recover(seed: int, workdir: Path) -> PoolWorkload:
    rng = random.Random(f"certified-recover/{seed}")
    w = _Writer(workdir)
    sizes = {"lo": 10, "mid": 14, "hi": 18}
    slots = [_recover_pool(w, rng, GFP61, P61, n, group, (), "cert")
             for group, n in sizes.items()]
    return PoolWorkload(slots, sizes)


def two_query_recover(seed: int, workdir: Path) -> PoolWorkload:
    rng = random.Random(f"two-query-recover/{seed}")
    w = _Writer(workdir)
    sizes = {"lo": 10, "mid": 14, "hi": 18}
    slots = [_recover_pool(w, rng, QQ, None, n, group, ("--no-verify",), "q")
             for group, n in sizes.items()]
    return PoolWorkload(slots, sizes)


TABLE_N = 7
PAIR_N = 12


def table_inputs(seed: int, workdir: Path) -> PoolWorkload:
    """Equal thirds: genuine tables, genuine pairs, and rejections split
    between random pairs and index-transposed tables."""
    rng = random.Random(f"table-inputs/{seed}")
    w = _Writer(workdir)
    p = P61

    def table_op(k, transposed):
        images = _conjugation_images(_invertible(rng, TABLE_N, p), p)
        if transposed:  # X -> B X^T B^-1, an anti-automorphism
            images = [list(row) for row in zip(*images)]
        name = f"table-{'t' if transposed else 'g'}{k}.json"
        table = [[exact.encode(m) for m in row] for row in images]
        path, sha = w.write(name, {"field": GFP61, "n": TABLE_N, "full_table": table})
        kind = "check-aut-rejection" if transposed else "check-aut"
        return Op(kind, ("check-aut", path), TABLE_N, p, "lo", sha)

    def pair_op(k):
        n = PAIR_N
        b = _invertible(rng, n, p)
        binv = exact.inverse(b, p)
        h = exact.outer([row[n - 1] for row in b], binv[0], p)
        bs = [[row[c - 1] if c else 0 for c in range(n)] for row in b]  # B S
        g = exact.matmul(bs, binv, p)
        path, sha = w.write(f"pair-g{k}.json", _pair_problem(n, h, g))
        return Op("recover-pair", ("recover", path), n, p, "mid", sha, h=h, g=g)

    def random_pair_op(k):
        n = PAIR_N
        while True:
            h, g = _random_matrix(rng, n, p), _random_matrix(rng, n, p)
            # the shift matrix is nilpotent, so no automorphism maps it to G
            if not exact.power_is_zero(g, n, p):
                break
        path, sha = w.write(f"pair-r{k}.json", _pair_problem(n, h, g))
        return Op("recover-rejection", ("recover", path), n, p, "mid", sha)

    slots = [
        [table_op(0, False), table_op(1, False)],
        [pair_op(0), pair_op(1)],
        [table_op(2, False), table_op(3, False)],
        [pair_op(2), pair_op(3)],
        [random_pair_op(0), random_pair_op(1)],
        [table_op(4, True), table_op(5, True)],
    ]
    return PoolWorkload(slots, {"lo": TABLE_N, "mid": PAIR_N})


def _pair_problem(n, h, g) -> dict:
    return {"field": GFP61, "n": n,
            "generator_pair": {"H": exact.encode(h), "G": exact.encode(g)}}


def fuzz_grid(seed: int, workdir: Path) -> FuzzWorkload:
    return FuzzWorkload(seed)


WORKLOADS = {
    "certified-recover": certified_recover,
    "two-query-recover": two_query_recover,
    "fuzz-grid": fuzz_grid,
    "table-inputs": table_inputs,
}
