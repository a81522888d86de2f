#!/usr/bin/env python3
"""Benchmark entry point for the sandpiles package.

    python3 perfbench/run.py --workload oracle_snf --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout.  Workloads: oracle_snf,
enum_circulant, closed_large (see perfbench/README.md).  Each run
byte-compiles `src/`, measures set-up in several fresh worker processes,
then runs the workload in one more fresh process.  `--trace 0` reports the
end-to-end metrics; `--trace 1` runs two passes untraced and two traced and
reports the per-layer metrics and the tracing overhead.  Metric names and
units come from BENCHMARK.json.  Times are scaled to a reference host speed
(see worker.py); the unscaled values are in the run record.

Standard output ends with one JSON line: correct, attempted, failed and
metrics.  The line before it, and `.perfbench_out/<workload>-seed<seed>-
trace<t>.json`, hold the environment record, the tail percentile and sample
count, and (traced) every span.  Exit status 0 when every case passed its
check, 1 when a case failed or the run broke, 2 when the checkout has no
`src/sandpiles`.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# Set-up is measured this many times per run (set-up-only processes plus
# the measuring one); the median is reported.
SETUP_SAMPLES = 5
# Every worker must finish within this many seconds of the start.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests"
    )
    return parser.parse_args(argv)


def _worker(args, started: float, index: int, setup_only: bool) -> dict:
    workdir = OUT / f"work-{args.workload}-{os.getpid()}-{index}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(remaining, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _metrics(declared: list[dict], values: dict) -> dict:
    names = {m["name"] for m in declared}
    if names != set(values):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: missing {sorted(names - set(values))}, "
            f"extra {sorted(set(values) - names)}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run(args) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "sandpiles" / "__init__.py").is_file():
        raise FileNotFoundError("no src/sandpiles in this checkout")
    started = time.monotonic()
    # The build step: compile once, so no set-up sample pays for bytecode.
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        raise BenchError("src/ failed to byte-compile")
    setup_runs = [_worker(args, started, i, setup_only=True) for i in range(SETUP_SAMPLES - 1)]
    main = _worker(args, started, SETUP_SAMPLES, setup_only=False)
    setup_runs.append(main)
    setups = [r["setup_s"] for r in setup_runs]
    summary = main["summary"]
    failed = len(main["failures"])
    if args.trace:
        metrics = _metrics(spec["per_layer"], main["layers"])
    else:
        metrics = _metrics(spec["end_to_end"], {
            "cases_per_s": summary["cases_per_s"],
            "case_p50_ms": summary["case_p50_ms"],
            "case_tail_ms": summary["case_tail_ms"],
            "peak_rss_mb": main["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        })
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": {
            "cores": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": main["numpy"],
        },
        "cases": main["attempted"],
        "cases_in_summary": summary["samples"],
        "case_tail_percentile": summary["case_tail_percentile"],
        "setup_s_samples": setups,
        "reference_median_s": main["reference_median_s"],
        "unscaled": {
            "cases_per_s": main["raw_summary"]["cases_per_s"],
            "case_p50_ms": main["raw_summary"]["case_p50_ms"],
            "case_tail_ms": main["raw_summary"]["case_tail_ms"],
            "setup_s": statistics.median(r["setup_raw_s"] for r in setup_runs),
        },
        "fail_frac": failed / main["attempted"],
        "failures": main["failures"],
    }
    result = {"correct": failed == 0, "attempted": main["attempted"], "failed": failed, "metrics": metrics}
    return record, dict(result, spans=main.get("spans"), case_log=main["case_log"])


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        record, result = run(args)
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    extra = {key: result.pop(key) for key in ("case_log", "spans")}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(record, result=result, **extra)))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
