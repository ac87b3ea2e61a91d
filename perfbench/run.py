"""Benchmark for slepbeam: three closed-loop workloads, one caller each.

    python3 perfbench/run.py --workload capacity_table --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the run
times the workload's operations and reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from one traced pass over all three
workloads.  Either way every output is checked after timing, and the last line
of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"

# nproc is 2 on the machines this runs on and the load is one caller, so the
# BLAS pool is held to one thread; a pool of two let other tenants' load into
# the timings as outliers
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 15
SWEEP_REPEATS = {16: 9, 32: 5, 64: 3, 128: 1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing slepbeam and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import slepbeam, slepbeam.cli"],
            cwd=ROOT, env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail_ms(op_seconds) -> float:
    """90th percentile of the run's operation latencies, interpolated between
    the operations that bracket it.  Every round holds the same set of sizes,
    so the percentile lands at the same place in that set however many rounds
    fit into a run, and a lone stalled operation moves it by one rank only."""
    return 1e3 * statistics.quantiles(op_seconds, n=10, method="inclusive")[-1]


class Runner:
    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.index = 0
        self.attempted = 0
        self.failed = 0
        self.items: dict[str, list] = {}

    def run_round(self, workload, inputs) -> tuple[float, list[float]]:
        """Run one round; returns its wall time and the per-operation times."""
        op_times = []
        items = self.items.setdefault(workload.name, [])
        round_start = time.perf_counter()
        for inp in inputs:
            self.index += 1
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = workload.run(inp, self.outdir, self.index)
            except Exception as exc:  # the run goes on; the failure is counted
                out = None
                self.failed += 1
                print(f"# {workload.name} operation {inp!r} failed: {exc!r}", file=sys.stderr)
            op_times.append(time.perf_counter() - start)
            if out is not None:
                items.append((inp, out))
        return time.perf_counter() - round_start, op_times

    def check(self, workloads, seed: int) -> list[str]:
        """Check every output; operations that failed through a known fault
        of the program are added to ``failed``, any other failure is
        returned."""
        import numpy as np

        rng = np.random.default_rng([seed, 0x5EB])
        fails = []
        for name, items in self.items.items():
            try:
                found, failed_ops = workloads[name].check(items, rng)
            except Exception as exc:  # malformed output fails the check, not the run
                found, failed_ops = [f"check raised {exc!r}"], 0
            self.failed += failed_ops
            fails += [f"{name}: {f}" for f in found]
        return fails


def timed_run(workloads, name, seed, seconds, runner) -> dict:
    import numpy as np

    workload = workloads[name]
    rng = np.random.default_rng(seed)
    workload.warm(runner.outdir)
    round_times, round_ops = [], []
    start = time.perf_counter()
    while True:
        round_s, ops = runner.run_round(workload, workload.round_inputs(rng))
        round_times.append(round_s)
        round_ops.append(ops)
        if time.perf_counter() - start >= seconds:
            break
    op_times = [t for ops in round_ops for t in ops]
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        f"# {name}: {len(op_times)} operations in {len(round_times)} rounds, {elapsed:.3f} s; "
        f"round s {[round(t, 4) for t in round_times]}",
        file=sys.stderr,
    )
    # a mean over whole rounds: the host's speed shifts for seconds at a time,
    # and a median of the 1-12 rounds of a run jumps between its slow and fast
    # stretches where a mean moves with their share
    return {
        "wall_s": (statistics.fmean(round_times), "s"),
        "ops_per_s": (len(op_times) / elapsed, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(op_times), "ms"),
        "op_ms_tail": (tail_ms(op_times), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def eigh_sweep() -> dict:
    """The eigensolver over array size, timed directly rather than through a
    workload, so that no workload mixes sizes."""
    from slepbeam.array_model import ArrayConfig
    from slepbeam.concentration import concentration_matrix
    from slepbeam.linalg import eigh_symmetric

    def median_ms(call, repeats):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return 1e3 * statistics.median(times)

    out = {}
    for m, repeats in SWEEP_REPEATS.items():
        band = concentration_matrix(ArrayConfig(m, 0.5), 0.125).entries
        out[f"linalg.eigh_ms.M{m}"] = (median_ms(lambda: eigh_symmetric(band), repeats), "ms")
    return out


def traced_run(workloads, name, seed, runner) -> dict:
    import numpy as np

    from tracer import LayerTracer

    rng = np.random.default_rng(seed)
    for workload in workloads.values():
        workload.warm(runner.outdir)
    inputs = {w: workloads[w].round_inputs(rng) for w in workloads}
    untraced_s, _ = runner.run_round(workloads[name], inputs[name])
    tracer = LayerTracer()
    tracer.install(callers=[sys.modules[type(w).__module__] for w in workloads.values()])
    traced_s = {}
    try:
        for w in workloads:
            tracer.label = w
            traced_s[w], _ = runner.run_round(workloads[w], inputs[w])
    finally:
        tracer.uninstall()
    extra = eigh_sweep()
    book_items = runner.items["codebook_design"][-len(inputs["codebook_design"]):]
    extra["codebook.file_kb"] = (
        statistics.mean(out["file_bytes"] for _, out in book_items) / 1024.0,
        "kB",
    )
    extra["trace.overhead_pct"] = (100.0 * (traced_s[name] / untraced_s - 1.0), "%")
    return tracer.metrics({w: len(inputs[w]) for w in workloads}, extra)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "slepbeam" / "__init__.py").is_file():
        print(f"error: no slepbeam sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    # the program's near-degeneracy warnings are still raised, just not shown
    warnings.simplefilter("ignore")
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    import slepbeam

    if Path(slepbeam.__file__).resolve().parent != (SRC / "slepbeam").resolve():
        print(f"error: imported slepbeam from {slepbeam.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    outdir = SCRATCH / f"run-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(outdir)
    try:
        if args.trace:
            metrics = traced_run(WORKLOADS, args.workload, args.seed, runner)
        else:
            metrics = {"setup_s": (setup_seconds(), "s")}
            metrics.update(timed_run(WORKLOADS, args.workload, args.seed, args.seconds, runner))
        fails = runner.check(WORKLOADS, args.seed)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # only when no other run is using it
    for line in fails[:20]:
        print(f"# check failed: {line}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
