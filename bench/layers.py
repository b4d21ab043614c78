"""Per-layer timings: one public function at a time, at stated sizes.

Sized layers are timed per call at x1, x2 and x4 (n, 2n and 4n digit
groups, or trace steps), and ``.growth`` is t(x4)/t(x2): about 2 when a
call's cost is linear in its input, about 4 when it is quadratic and
about 8 when it is cubic.  For StepTrace.record and lookup the input is
the length of the trace, so a call that scans the trace reads about 2
and one that indexes it reads about 1.
"""

from __future__ import annotations

import io
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import sexakit
import sexakit.cli
from sexakit import (CanalConstant, Dimension, Quantity, QuadraticProblem,
                     Sexa, StepTrace, SumDifferenceProblem)
from sexakit.errors import IrregularDivisor

import gen
import oracle
import spec
import workloads


def _per_call(fn, inputs, reps: int = 5) -> float:
    """Median over ``reps`` passes of the mean seconds per call."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for x in inputs:
            fn(x)
        times.append((time.perf_counter() - t0) / len(inputs))
    return statistics.median(times)


def _put_sized(metrics: dict, prefix: str,
               per_scale: dict[int, float]) -> None:
    for scale, seconds in per_scale.items():
        metrics[f"{prefix}.x{scale}.us"] = seconds * 1e6
    metrics[f"{prefix}.growth"] = per_scale[4] / per_scale[2]


def _sexa(x: Fraction) -> Sexa:
    return Sexa(x.numerator, x.denominator)


def sexa_layer(seed: int, n: int) -> dict[str, float]:
    """Sized calls at spec.LAYER_N digit groups; rejects at ``n`` groups."""
    rng = random.Random(f"layers-{seed}")
    values = {s: [gen.even_literal(pair, s * spec.LAYER_N)
                  for pair in gen.PAIRS] for s in spec.SCALES}
    calls = {
        "parse": (sexakit.parse, lambda x: oracle.render(x)),
        "render": (sexakit.render, _sexa),
        "is_regular": (sexakit.is_regular, _sexa),
        "reciprocal": (sexakit.reciprocal, _sexa),
        "sqrt_exact": (sexakit.sqrt_exact, lambda x: _sexa(x * x)),
    }
    metrics: dict[str, float] = {}
    for name, (fn, prepare) in calls.items():
        _put_sized(metrics, f"sexa.{name}", {
            s: _per_call(fn, [prepare(x) for x in xs], reps=3)
            for s, xs in values.items()})

    def reject(v):
        try:
            sexakit.reciprocal(v)
        except IrregularDivisor:
            return
        raise RuntimeError("irregular number accepted")

    for label, top in gen.PRIME_BUCKETS.items():
        inputs = [_sexa(gen.irregular(rng, n, top)[0]) for _ in range(6)]
        metrics[f"sexa.irregular_reject.{label}.ms"] = \
            _per_call(reject, inputs) * 1e3

    pairs = [(gen.regular(rng), gen.regular(rng)) for _ in range(500)]
    sexa_pairs = [(_sexa(a), _sexa(b)) for a, b in pairs]

    def multiply_all(ps):
        for a, b in ps:
            a * b

    metrics["sexa.overhead_ratio"] = (
        _per_call(multiply_all, [sexa_pairs], reps=9)
        / _per_call(multiply_all, [pairs], reps=9))
    return metrics


def trace_layer() -> dict[str, float]:
    record, lookup = {}, {}
    for scale in spec.SCALES:
        steps = spec.TRACE_STEPS * scale
        labels = [f"step.{i}" for i in range(steps)]
        value = Sexa(1, 2)
        rec_times, look_times = [], []
        for _ in range(3):
            trace = StepTrace()
            t0 = time.perf_counter()
            for label in labels:
                trace.record(label, value)
            t1 = time.perf_counter()
            for label in labels:
                trace[label]
            t2 = time.perf_counter()
            rec_times.append((t1 - t0) / steps)
            look_times.append((t2 - t1) / steps)
        record[scale] = statistics.median(rec_times)
        lookup[scale] = statistics.median(look_times)
    metrics: dict[str, float] = {}
    _put_sized(metrics, "procedures.record", record)
    _put_sized(metrics, "procedures.lookup", lookup)
    return metrics


def procedure_layers(root: Path, seed: int) -> dict[str, float]:
    """Procedures, geometry, units and corpus on tablet-sized problems."""
    problems = gen.corpus(seed, workloads.TRACED_OPS["corpus_replay"])
    by_kind: dict[str, list[gen.Problem]] = {}
    for p in problems:
        kind = p.procedure + ("+V" if p.givens and p.givens[0][0] == "V"
                              else "")
        by_kind.setdefault(kind, []).append(p)

    def values(p):
        return {**dict(p.params), **dict(p.steps)}

    quadratic = [QuadraticProblem(*(_sexa(values(p)[k]) for k in "ABC"))
                 for p in by_kind["quadratic"] + by_kind["quadratic+V"]]
    sum_diff = [SumDifferenceProblem(_sexa(values(p)["diff"]),
                                     _sexa(values(p)["xy"]))
                for p in by_kind["rect-canal-system"]]
    labor = []
    for p in by_kind["labor-depth"]:
        v = values(p)
        total, unit = p.givens[0][1:]
        labor.append((
            Quantity(_sexa(oracle.normalized(total, unit)[0]),
                     Dimension.VOLUME_SAR),
            _sexa(v["reach_length"]),
            Quantity(_sexa(p.givens[1][1]), Dimension.WORKER_COUNT),
            Quantity(_sexa(p.givens[2][1]), Dimension.LENGTH_NINDAN),
            CanalConstant(_sexa(v.get("canal_constant", Fraction(4, 5))))))
    volumes = []
    for p in by_kind["quadratic+V"]:
        volume, unit = p.givens[0][1:]
        volumes.append((
            Quantity(_sexa(oracle.normalized(volume, unit)[0]),
                     Dimension.VOLUME_SAR),
            Quantity(_sexa(values(p)["S"]), Dimension.CROSS_SECTION)))

    metrics = {
        "procedures.solve_quadratic.us":
            _per_call(sexakit.solve_quadratic_scribal, quadratic) * 1e6,
        "procedures.solve_sum_difference.us":
            _per_call(sexakit.solve_sum_difference, sum_diff) * 1e6,
        "geometry.depth_from_labor.us":
            _per_call(lambda a: sexakit.depth_from_labor(*a), labor) * 1e6,
        "units.qdiv.us": _per_call(lambda a: sexakit.qdiv(*a), volumes) * 1e6,
    }
    corpus = workloads.CorpusReplay(root, seed, len(problems))
    try:
        metrics["corpus.load_corpus.s"] = _per_call(
            sexakit.load_corpus, [corpus.path], reps=5)
        loaded = sexakit.load_corpus(corpus.path)
        metrics["corpus.replay.us"] = _per_call(
            sexakit.replay, loaded, reps=3) * 1e6
    finally:
        corpus.close()
    return metrics


def _wall(argv: list[str], env: dict[str, str],
          cwd: Path) -> tuple[float, str]:
    t0 = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                          text=True, check=True)
    return time.perf_counter() - t0, done.stderr


def cli_layer(root: Path, reps: int = 5) -> dict[str, float]:
    env = workloads.child_env(root)
    python = sys.executable
    _wall([python, "-c", "import sexakit.cli"], env, root)   # compile once
    self_us: dict[str, list[int]] = {m: [] for m in spec.CLI_MODULES}
    cumulative, bare = [], []
    for _ in range(reps):
        _, report = _wall([python, "-X", "importtime", "-c",
                           "import sexakit.cli"], env, root)
        top = 0
        for line in report.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cum, module = line[len("import time:"):].split("|")
            if not own.strip().isdigit():           # the header line
                continue
            if module.strip() in self_us:
                self_us[module.strip()].append(int(own))
            if module.strip() in ("sexakit", "sexakit.cli"):
                top += int(cum)
        cumulative.append(top)
        bare.append(_wall([python, "-c", "pass"], env, root)[0])
    metrics = {f"cli.import_ms.{m.removeprefix('sexakit.')}":
               statistics.median(v) / 1e3 for m, v in self_us.items()}
    metrics["cli.import_ms.cumulative"] = statistics.median(cumulative) / 1e3
    metrics["cli.interpreter_ms"] = statistics.median(bare) * 1e3

    def main_once(_):
        with redirect_stdout(io.StringIO()):
            if sexakit.cli.main(["replay", "--all"]) != 0:
                raise RuntimeError("bundled corpus did not replay PASS")

    metrics["cli.main_ms"] = _per_call(main_once, [None], reps=21) * 1e3
    return metrics


def measure(root: Path, seed: int, n: int) -> dict[str, float]:
    return {**sexa_layer(seed, n), **trace_layer(),
            **procedure_layers(root, seed), **cli_layer(root)}
