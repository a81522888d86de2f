"""One benchmark process: set up a workload, then run its cases in a loop.

Started by run.py in a fresh interpreter, so that the import of `sandpiles`
is part of the timed set-up and the peak resident memory is this workload's
own.  Prints one JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload closed_large --seed 1 --seconds 25 --workdir .perfbench_out/w
    python3 perfbench/worker.py --workload closed_large --seed 1 --setup-only --workdir .perfbench_out/w
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent

# Pairs outside the timed pool and the warm-up, for the memory probe: a
# pair never enumerated before in the process cannot come from a cache.
MEMORY_PROBE_PAIRS = ((19, 2), (11, 3))
SMOKE_PROBE_PAIRS = ((7, 2),)
# Whole passes run untraced, then traced, by --trace 1.
TRACE_PASSES = 2
# Time of the reference loop on the host all reported times are scaled to.
REFERENCE_S = 0.010
# Reference samples taken around each case (the median scales the case).
REFERENCE_WINDOW = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    return parser.parse_args(argv)


def _reference() -> float:
    """Time a fixed piece of interpreter and big-integer work (about 10 ms).

    The host is shared: its speed drifts by a third over minutes, which
    would swamp any change in the program.  Timing this loop next to every
    case measures that drift, and case times are scaled by it.
    """
    t0 = time.perf_counter()
    acc, big = 0, 3**4000
    for i in range(60000):
        acc = (acc * 31 + i) % 1000003
    for i in range(600):
        math.gcd(big + i, big * 7 + 1)
    return time.perf_counter() - t0


def _scaled(latencies: list[float], reference: list[float]) -> list[float]:
    """Each latency at reference speed, using the reference samples around it."""
    half = REFERENCE_WINDOW // 2
    return [
        t * REFERENCE_S / statistics.median(reference[max(0, i - half) : i + half + 1])
        for i, t in enumerate(latencies)
    ]


def _measure(workload, passes, seconds: float = 0.0, pass_count: int = 1, tracer=None) -> dict:
    """Run whole passes, at least `pass_count` of them, until at least
    `seconds` of case time at reference speed have passed.

    Only the case body is timed; the checks run afterwards, untimed and
    untraced.  Passes are never cut, so every run covers whole strata, and
    counting time at reference speed keeps the number of passes (and so the
    rank the tail percentile falls on) independent of host drift.
    """
    latencies: list[float] = []
    reference: list[float] = []
    cases: list[tuple] = []
    failures: list[str] = []
    busy = 0.0
    done = 0
    while busy < seconds or done < pass_count:
        done += 1
        for case in next(passes):
            if tracer is not None:
                tracer.case = len(latencies)
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result = workload.run(case)
                error = None
            except Exception as exc:  # a raising case is a counted failure
                result, error = None, f"raised {exc!r}"
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            if error is None:
                try:
                    error = workload.check(case, result)
                except Exception as exc:  # a check that cannot run fails the case
                    error = f"check raised {exc!r}"
            if error is not None:
                failures.append(f"{workload.name} case {case}: {error}")
                print(f"FAILED {failures[-1]}", file=sys.stderr, flush=True)
            latencies.append(elapsed)
            reference.append(_reference())
            cases.append(case)
            busy += elapsed * REFERENCE_S / statistics.median(reference[-REFERENCE_WINDOW:])
    return {
        "latencies": _scaled(latencies, reference),
        "raw_latencies": latencies,
        "reference": reference,
        "cases": cases,
        "failures": failures,
    }


def _summary(latencies: list[float]) -> dict:
    """Throughput, median, and the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count > 10:
        tail, tail_pct = ordered[count - 11], 100.0 * (count - 10) / count
    else:
        tail, tail_pct = ordered[-1], 100.0
    return {
        "cases_per_s": count / sum(ordered),
        "case_p50_ms": 1000 * statistics.median(ordered),
        "case_tail_ms": 1000 * tail,
        "case_tail_percentile": tail_pct,
        "samples": count,
    }


def _peak_bytes_per_element(sp, pairs) -> float:
    worst = 0.0
    for n, q in pairs:
        tracemalloc.start()
        try:
            sp.unit_group_brute(n, q, restricted=True, cap=workloads.BRUTE_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        worst = max(worst, peak / q**n)
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import numpy
        import sandpiles as sp
        import sandpiles.cli  # noqa: F401  (the package does not import its CLI)

        workload = workloads.make(args.workload, args.seed, args.smoke)
        workload.setup(sp, workdir)
        workload.warm_up()
        setup_raw = time.perf_counter() - t0
        host = statistics.median(_reference() for _ in range(REFERENCE_WINDOW))
        out = {
            "setup_s": setup_raw * REFERENCE_S / host,
            "setup_raw_s": setup_raw,
            "numpy": numpy.__version__,
        }
        if not args.setup_only:
            passes = workload.passes()
            if args.trace:
                # A fixed number of passes, so that counts repeat exactly
                # for a seed and the overhead compares equal amounts of work.
                untraced = _measure(workload, passes, pass_count=TRACE_PASSES)
                tracer = spans.Tracer()
                tracer.install()
                traced = _measure(workload, passes, pass_count=TRACE_PASSES, tracer=tracer)
                layers = spans.layer_metrics(tracer.spans)
                traced_cps = _summary(traced["latencies"])["cases_per_s"]
                untraced_cps = _summary(untraced["latencies"])["cases_per_s"]
                layers["trace.cases_per_s"] = traced_cps
                layers["trace.untraced_cases_per_s"] = untraced_cps
                layers["trace.overhead_ratio"] = untraced_cps / traced_cps
                layers["circulant.brute.peak_bytes_per_element"] = (
                    _peak_bytes_per_element(sp, SMOKE_PROBE_PAIRS if args.smoke else MEMORY_PROBE_PAIRS)
                    if args.workload == "enum_circulant"
                    else 0.0
                )
                runs = (untraced, traced)
                out.update(layers=layers, spans=tracer.to_json())
            else:
                runs = (_measure(workload, passes, seconds=args.seconds),)
            out.update(
                summary=_summary(runs[-1]["latencies"]),
                raw_summary=_summary(runs[-1]["raw_latencies"]),
                reference_median_s=statistics.median(x for r in runs for x in r["reference"]),
                attempted=sum(len(r["latencies"]) for r in runs),
                failures=[f for r in runs for f in r["failures"]],
                case_log=[
                    list(row)
                    for r in runs
                    for row in zip(r["cases"], r["latencies"], r["raw_latencies"], r["reference"])
                ],
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
