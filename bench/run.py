"""Benchmark for ranktopo: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload campaign_ordinal --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ranktopo is imported from its ``src``.
The run repeats rounds of the workload until ``--seconds`` of rounds have
passed, checking each round's outputs after its clock stops.  ``--trace 0``
reports the end-to-end metrics, timing ``setup_s`` in fresh interpreters
started between the rounds; ``--trace 1`` pairs each untraced round with a
traced one and reports the per-layer metrics, writing the spans to
``.bench_out/``.  Metric names and units are those of ``BENCHMARK.json``.
The last line of standard output is the result object.
"""

import os

# Steadiness: one BLAS thread.  Set before numpy loads; probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up probes per run.  The machine's speed drifts over seconds, so the
# probes are spread over the run rather than taken back to back.
SETUP_PROBES = 15


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports ranktopo and builds
    the workload's inputs, from spawn to exit."""
    start = time.perf_counter()
    # No timeout: with one, the wait polls with sleeps of up to 50 ms,
    # which quantises the measurement.
    subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    try:
        modules = workloads.load_ranktopo(ROOT)
    except ImportError as exc:
        print(f"cannot import ranktopo from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    workload = workloads.WORKLOADS[args.workload](modules, args.seed)
    capture = workloads.Capture(modules)
    tracer = Tracer(modules) if args.trace else None
    outcome = workloads.Outcome()
    Path(workloads.OUT_DIR).mkdir(exist_ok=True)

    def timed_round(r: int) -> list[float]:
        capture.clear()
        lap = workloads.Laps()
        result = workload.run_round(r, lap)
        workload.check(result, capture, outcome)
        return lap.times

    work, overhead, setup = [], [], []
    probe_s = 0.0  # wall time spent in set-up probes, not counted as rounds
    began = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - began - probe_s < args.seconds:
        work.append(timed_round(r))
        if tracer:
            tracer.install()
            try:
                overhead.append(sum(timed_round(r)) - sum(work[-1]))
            finally:
                tracer.uninstall()
        else:
            # Keep the probes in step with the share of the run gone by.
            done = (time.perf_counter() - began - probe_s) / args.seconds
            while len(setup) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * done)):
                setup.append(setup_probe(args.workload, args.seed))
                probe_s += setup[-1]
        r += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    capture.hooks.restore()

    if tracer:
        values = tracer.layer_metrics(len(overhead), workloads.packing_cap(modules))
        values["trace.overhead_s"] = statistics.median(overhead)
        tracer.write(Path(workloads.OUT_DIR) / f"trace_{args.workload}_{args.seed}.jsonl")
    else:
        # Each timed call's median over the rounds, summed: a burst of
        # machine contention that slows part of one round is voted out.
        values = {"setup_s": statistics.median(setup),
                  "work_s": sum(map(statistics.median, zip(*work))),
                  "peak_rss_mb": peak_rss_mb}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"rounds {r} ({' '.join(f'{sum(t):.3f}' for t in work)} s, "
          f"median {statistics.median(map(sum, work)):.4f} s), "
          f"operations {outcome.attempted}, failed {outcome.failed}")
    print(json.dumps({"correct": not outcome.problems, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
