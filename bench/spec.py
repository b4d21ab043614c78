"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is written from this module
(``python3 bench/run.py --write-spec``), so the two cannot disagree.
"""

from __future__ import annotations

import json
from pathlib import Path

import gen
from tracer import LAYERS

WORKLOADS = {
    "cli_cold": (
        "fresh 'sexakit replay --all' per op, text and --json in turn: "
        "interpreter start, import and cli, almost no arithmetic; bounds set "
        "on Python 3.11.7, nproc 2"),
    "corpus_replay": (
        "load_corpus + replay of 2000 seeded answer-first problems (all 3 "
        "procedures, 1-6 digit groups, 10% with one wrong value): corpus, "
        "procedures, units, geometry"),
    "reciprocal_table": (
        "2^a3^b5^c at 60/120/240 groups (ms per entry: thousands a run) "
        "parsed, inverted, rendered, traced; 1 in 8 irregular, prime<=1e5. "
        "10^9 semiprime hang (~51 s/input) excluded"),
}

#: Latency tail per workload: the highest of 90/99/99.9 that leaves at
#: least ten samples beyond it at the run length below, except on
#: corpus_replay, where p99.9 (about 20 samples beyond) moved by 19% of
#: its median between seeds on the same code, and p99 is used.
TAIL_PERCENTILE = {"cli_cold": 90, "corpus_replay": 99,
                   "reciprocal_table": 99}

RUN_SECONDS = 25

END_TO_END = [
    # name, unit, better, bound (share of the parent's median)
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: Sizes of the reciprocal table, in digit groups: n, 2n and 4n.  At
#: 60/120/240 groups an entry takes about 1-20 ms before any fix, so a
#: run holds thousands of entries and its p99 tail has dozens of samples
#: beyond it, while parse, render and factor stripping are already most
#: of an entry's time (see sexa.self_share of a traced run).
TABLE_N = 60
#: Sizes of the per-layer sexa.* calls: 1k/2k/4k digit groups, as in
#: ROADMAP's measurements.  At 60/120/240 groups per-call constants hide
#: the quadratic terms: growth read 1.7-3.0 there.  At 1k/2k/4k it reads
#: about 4 for render, is_regular and reciprocal, 3.2 for sqrt_exact and
#: 5.9-7.5 for parse of a literal with a fractional part, with Python
#: 3.11 on a 2-vCPU 2.1 GHz x86-64 VM.
LAYER_N = 1000
SCALES = (1, 2, 4)
SIZED_FUNCTIONS = ("parse", "render", "is_regular", "reciprocal",
                   "sqrt_exact")
#: Trace lengths for StepTrace.record and lookup: x1, x2, x4 steps.
#: Both scan the trace, so each call's growth reads about 2.
TRACE_STEPS = 1000
CLI_MODULES = ("sexakit", "sexakit.errors", "sexakit.sexa", "sexakit.units",
               "sexakit.procedures", "sexakit.geometry", "sexakit.corpus",
               "sexakit.cli")


def _sized(prefix: str) -> list[tuple[str, str, str]]:
    return ([(f"{prefix}.x{s}.us", "us", "lower") for s in SCALES]
            + [(f"{prefix}.growth", "ratio", "lower")])


PER_LAYER = (
    [m for f in SIZED_FUNCTIONS for m in _sized(f"sexa.{f}")]
    + [(f"sexa.irregular_reject.{p}.ms", "ms", "lower")
       for p in gen.PRIME_BUCKETS]
    + [("sexa.overhead_ratio", "ratio", "lower")]
    + _sized("procedures.record") + _sized("procedures.lookup")
    + [("procedures.solve_quadratic.us", "us", "lower"),
       ("procedures.solve_sum_difference.us", "us", "lower"),
       ("geometry.depth_from_labor.us", "us", "lower"),
       ("units.qdiv.us", "us", "lower"),
       ("corpus.load_corpus.s", "s", "lower"),
       ("corpus.replay.us", "us", "lower")]
    + [(f"cli.import_ms.{m.removeprefix('sexakit.')}", "ms", "lower")
       for m in CLI_MODULES]
    + [("cli.import_ms.cumulative", "ms", "lower"),
       ("cli.interpreter_ms", "ms", "lower"),
       ("cli.main_ms", "ms", "lower")]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [(f"{layer}.self_share", "share", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower")]
)

#: The end-to-end metrics each per-layer metric should move, written down
#: before measuring; printed next to the value in traced runs.
MOVES = {
    "sexa.parse": "reciprocal_table ops_per_s+tail; corpus_replay ops_per_s",
    "sexa.render": "reciprocal_table ops_per_s+tail; corpus_replay ops_per_s",
    "sexa.is_regular": "reciprocal_table ops_per_s+tail",
    "sexa.reciprocal": "reciprocal_table ops_per_s+tail",
    "sexa.sqrt_exact": "reciprocal_table ops_per_s+tail",
    "sexa.irregular_reject": "reciprocal_table latency_tail_ms",
    "sexa.overhead_ratio": "corpus_replay ops_per_s",
    "procedures.record": "reciprocal_table ops_per_s; none on corpus_replay",
    "procedures.lookup": "reciprocal_table ops_per_s; none on corpus_replay",
    "procedures.solve_quadratic": "corpus_replay ops_per_s",
    "procedures.solve_sum_difference": "corpus_replay ops_per_s",
    "geometry.depth_from_labor": "corpus_replay ops_per_s",
    "units.qdiv": "corpus_replay ops_per_s",
    "corpus.load_corpus": "corpus_replay ops_per_s; negligible on cli_cold",
    "corpus.replay": "corpus_replay ops_per_s; negligible on cli_cold",
    "cli": "setup_s, cli_cold latency; none on the other two workloads",
    "trace": "none: cost of tracing, traced minus untraced time",
}


def moves(metric: str) -> str:
    if metric.endswith((".calls", ".self_share")):
        return "this workload's ops_per_s and latency, by the layer's share"
    for prefix in sorted(MOVES, key=len, reverse=True):
        if metric.startswith(prefix):
            return MOVES[prefix]
    raise KeyError(metric)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def write(path: Path) -> None:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
