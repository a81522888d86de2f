"""Tests of the benchmark itself: schedules, checks, metric names, refusal.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def _passes(name: str, seed: int, count: int, smoke: bool = False) -> list[list[tuple]]:
    gen = workloads.make(name, seed, smoke).passes()
    return [next(gen) for _ in range(count)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    assert _passes(name, 7, 3) == _passes(name, 7, 3)
    assert _passes(name, 7, 3) != _passes(name, 8, 3)


def test_snf_matrices_follow_the_seed():
    assert workloads.snf_matrix(3, 0, 2, False) == workloads.snf_matrix(3, 0, 2, False)
    assert workloads.snf_matrix(3, 0, 2, False) != workloads.snf_matrix(4, 0, 2, False)


def test_enumeration_never_brings_a_pair_back_within_the_cache_window():
    distance = workloads.ENUM_REUSE_DISTANCE
    for seed in range(20):
        cases = [c for p in _passes("enum_circulant", seed, 8) for c in p]
        for i, case in enumerate(cases):
            assert case not in cases[max(0, i - distance + 1) : i]


def _work(case: tuple) -> float:
    """A size proxy for one case: dense elimination is cubic in the matrix
    side with entries growing with n*log|d|; enumeration is linear in q^n;
    canonical merging in the closed forms is quadratic in rank."""
    kind = case[0]
    if kind == "family":
        n, d = case[2], case[3]
        return n**3 * (1 + n * math.log2(d) / 100)
    if kind == "snf":
        return 0.0
    if kind == "enum":
        return case[2] ** case[1]
    n, d = case[1], case[2]
    if math.gcd(n, d) > 1:
        return n**2
    return n * 100


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pass_work_is_steady_across_seeds(name):
    totals = [sum(_work(c) for c in _passes(name, seed, 1)[0]) for seed in range(10)]
    q1, _, q3 = statistics.quantiles(totals, n=4)
    assert (q3 - q1) / statistics.median(totals) < BOUNDS["cases_per_s"] / 3


@pytest.mark.parametrize(
    "n, q", [(6, 2), (9, 2), (4, 3), (6, 3), (4, 4), (3, 5), (3, 7), (3, 8), (3, 9), (5, 3)]
)
def test_unit_count_matches_enumeration(n, q):
    import sandpiles

    brute = sandpiles.unit_group_brute(n, q, restricted=True, cap=workloads.BRUTE_CAP)
    assert workloads.restricted_unit_count(n, q) == brute.order


def test_checks_reject_wrong_answers():
    import sandpiles

    closed = workloads.make("closed_large", 1)
    closed.setup(sandpiles, None)
    case = ("sandpile", 12, 2)
    good = closed.run(case)
    assert closed.check(case, good) is None
    assert closed.check(case, (good[1], good[1])) is not None
    circ = ("circulant", 12, 4)
    star, quotient = closed.run(circ)
    assert closed.check(circ, (star, quotient)) is None
    assert closed.check(circ, (sandpiles.direct_sum(star, star), quotient)) is not None

    enum = workloads.make("enum_circulant", 1)
    enum.setup(sandpiles, None)
    case = ("enum", 6, 3)
    star, full, quot = enum.run(case)
    assert enum.check(case, (star, full, quot)) is None
    assert enum.check(case, (star, full, star)) is not None


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_exactly_the_declared_metrics(name, trace):
    started = time.monotonic()
    proc = _run(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - started < 30
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in declared
    ]
    if trace:
        own = {
            "oracle_snf": "exact_linalg.smith_normal_form.under_snf.s",
            "enum_circulant": "circulant.brute.peak_bytes_per_element",
            "closed_large": "closed_form.cosets",
        }[name]
        assert result["metrics"][own]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "closed_large", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_scaling_divides_out_host_speed():
    import worker

    ref = worker.REFERENCE_S
    assert worker._scaled([0.2, 0.4], [ref, ref]) == [0.2, 0.4]
    slow = worker._scaled([0.2, 0.4, 0.6], [2 * ref] * 3)
    assert slow == pytest.approx([0.1, 0.2, 0.3])


def test_self_time_subtracts_children_and_splits_smith_forms_by_command():
    import spans

    trace = [
        ["cli.run", 0.0, 10.0, -1, 0, {"command": "db"}],
        ["exact_linalg.smith_normal_form", 1.0, 4.0, 0, 0, {"entries": 9, "max_factor_bits": 5}],
        ["exact_linalg.determinant", 5.0, 9.0, 0, 0, {"entries": 9}],
        ["cli.run", 10.0, 12.0, -1, 1, {"command": "snf"}],
        ["exact_linalg.smith_normal_form", 10.5, 11.5, 3, 1, {"entries": 4, "max_factor_bits": 7}],
    ]
    layers = spans.layer_metrics(trace)
    assert layers["cli.run.s"] == pytest.approx(10 - 3 - 4 + 2 - 1)
    assert layers["cli.run.calls"] == 2
    assert layers["exact_linalg.smith_normal_form.under_family.s"] == pytest.approx(3)
    assert layers["exact_linalg.smith_normal_form.under_snf.s"] == pytest.approx(1)
    assert layers["exact_linalg.smith_normal_form.entries"] == 13
    assert layers["exact_linalg.smith_normal_form.max_factor_bits"] == 7
    assert layers["exact_linalg.determinant.s"] == pytest.approx(4)
