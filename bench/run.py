"""sexakit benchmark: one workload per run, or every workload with --all.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --write-spec

Run from the root of a source checkout; the package is imported from
``src/`` there, so nothing needs installing.  Every operation's output
is checked against the plain-``Fraction`` oracle in ``bench/oracle.py``.
With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds``; with ``--trace 1`` it measures the per-layer metrics and
a fixed amount of the workload with every layer wrapped in spans.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Fresh interpreters timed for setup_s, spread over the run.
SETUP_SAMPLES = 30


def _import_package() -> None:
    """Import sexakit from this checkout's ``src/``, or exit nonzero."""
    if not (SRC / "sexakit" / "__init__.py").is_file():
        sys.exit(f"bench: no sexakit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sexakit
    if Path(sexakit.__file__).resolve().parent != SRC / "sexakit":
        sys.exit(f"bench: imported sexakit from {sexakit.__file__}, "
                 f"not from {SRC}")


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class SetupTimer:
    """Wall time for a fresh interpreter to ``import sexakit``.

    Sampled between operations across the whole run, so the median sees
    the same machine as the operations do.
    """

    def __init__(self):
        import workloads
        self.env = workloads.child_env(ROOT)
        self.argv = [sys.executable, "-c", "import sexakit"]
        subprocess.run(self.argv, env=self.env, cwd=ROOT, check=True)
        self.samples: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(self.argv, env=self.env, cwd=ROOT, check=True)
        self.samples.append(time.perf_counter() - t0)


def end_to_end(name: str, seed: int, seconds: float):
    import spec
    import workloads
    setup = SetupTimer()
    workload = workloads.make(name, ROOT, seed, traced=False)
    # The oracle's inputs stay alive for the whole run; keep the collector
    # from scanning them, as it would not in a real user's process.
    gc.freeze()
    try:
        run = workloads.drive(workload, seconds=seconds, between=setup,
                              every=seconds / SETUP_SAMPLES)
        peak = workload.peak_rss_mb()
    finally:
        workload.close()
    lat = run.latencies
    percentile = spec.TAIL_PERCENTILE[name]
    tail_s, beyond = tail(lat, percentile)
    print(f"# ops {run.attempted}, failed {run.failed} "
          f"(failed_share {run.failed / max(run.attempted, 1):.6f}); "
          f"tail is p{percentile} with {beyond} of {len(lat)} samples beyond; "
          f"setup_s is the median of {len(setup.samples)} interpreters")
    if beyond < 10:
        print(f"# warning: fewer than ten samples beyond p{percentile}")
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setup.samples),
        "peak_rss_mb": peak,
    }
    return run.attempted, run.failed, metrics


def per_layer(name: str, seed: int):
    import layers
    import spec
    import tracer
    import workloads
    metrics = layers.measure(ROOT, seed, spec.TABLE_N)
    workload = workloads.make(name, ROOT, seed, traced=True)
    ops = workloads.TRACED_OPS[name]
    recorder = tracer.Recorder()
    try:
        workloads.drive(workload, ops=ops)                    # warm-up
        plain = workloads.drive(workload, ops=ops)
        recorder.install()
        try:
            traced = workloads.drive(workload, ops=ops, wrap=recorder.root)
        finally:
            recorder.uninstall()
    finally:
        workload.close()
    dump = ROOT / ".bench_out" / f"spans-{name}.tsv"
    recorder.dump(dump)
    calls, self_ns, op_ns = tracer.summarize(list(recorder.spans()))
    for layer in tracer.LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_share"] = self_ns[layer] / op_ns
    metrics["trace.overhead_s"] = sum(traced.latencies) - sum(plain.latencies)
    print(f"# traced {traced.attempted} ops: {len(recorder.start)} spans "
          f"dumped to {dump.relative_to(ROOT)}; benchmark's own share "
          f"{self_ns['bench'] / op_ns:.4f}")
    return (plain.attempted + traced.attempted,
            plain.failed + traced.failed, metrics)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_package()
    import spec
    print(f"# workload {name}, seed {seed}, seconds {seconds}, "
          f"trace {int(trace)}; Python {platform.python_version()}, "
          f"nproc {os.cpu_count()}")
    if trace:
        attempted, failed, metrics = per_layer(name, seed)
        specs = [(n, u) for n, u, _ in spec.PER_LAYER]
    else:
        attempted, failed, metrics = end_to_end(name, seed, seconds)
        specs = [(n, u) for n, u, _, _ in spec.END_TO_END]
    if sorted(metrics) != sorted(n for n, _ in specs):
        raise RuntimeError("metrics differ from the benchmark's spec")
    for metric, unit in specs:
        note = f"   moves: {spec.moves(metric)}" if trace else ""
        print(f"{metric} = {metrics[metric]:.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in specs},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, one child process at a time."""
    _import_package()
    import spec
    code = 0
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], cwd=ROOT)
            code = code or done.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--write-spec", action="store_true",
                        help="rewrite BENCHMARK.json from bench/spec.py")
    args = parser.parse_args(argv)
    if args.write_spec:
        import spec
        spec.write(ROOT / "BENCHMARK.json")
        return 0
    import spec
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    if args.all:
        return run_all(args.seed, seconds)
    if args.workload not in spec.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(spec.WORKLOADS)}")
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
