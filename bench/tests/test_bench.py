"""Tests of the benchmark itself: exact tracer counters, seeded inputs and
failure accounting.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, MODULE_LAYERS, Tracer  # noqa: E402

sys.path.insert(0, str(wl.SRC))
import ncdet as nc  # noqa: E402
import ncdet.cli  # noqa: E402,F401


def traced_metrics(fn):
    tracer = Tracer()
    tracer.install([sys.modules[m] for m in MODULE_LAYERS])
    try:
        tracer.run_op(0, fn)
    finally:
        tracer.uninstall()
    return tracer.metrics()


def test_sdet_generic_n3_makes_36_pairs_of_two_products():
    _, A = nc.generic_matrix(3)
    metrics = traced_metrics(lambda: nc.symmetric_determinant(A))
    assert metrics["determinants.ring_mults"] == 72  # (3!)^2 * 2
    assert metrics["determinants.sdet.calls"] == 1


def test_result_terms_of_generic_sdet_n5():
    _, A = nc.generic_matrix(5)
    assert traced_metrics(lambda: nc.symmetric_determinant(A))["determinants.result_terms"] == 14_400


def test_result_terms_of_generic_rdet2_n3():
    _, A = nc.generic_matrix(3)
    metrics = traced_metrics(lambda: nc.right_determinant(A, 2))
    assert metrics["determinants.result_terms"] == 62_208


def test_layer_self_times_add_up_to_traced_wall():
    _, A = nc.generic_matrix(3)
    metrics = traced_metrics(lambda: nc.characteristic_polynomial(A, "left", 1))
    total = metrics["unattributed_s"] + sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(metrics["traced_wall_s"], rel=1e-9, abs=1e-12)
    assert metrics["charpoly.characteristic_polynomial.inclusive_s"] > 0


def test_uninstall_restores_the_package():
    original = nc.symmetric_determinant
    traced_metrics(lambda: None)
    assert nc.symmetric_determinant is original
    assert nc.FreePoly.__add__ is nc.FreePoly.__radd__


def test_counting_ints_count_integer_products():
    tracer = Tracer()
    A = nc.Matrix(nc.IntegerRing(), [[tracer.int_type(v) for v in row] for row in ((1, 2), (3, 4))])
    tracer.install([sys.modules[m] for m in MODULE_LAYERS])
    try:
        value, _ = tracer.run_op(0, lambda: nc.symmetric_determinant(A))
    finally:
        tracer.uninstall()
    assert value == 2 * (1 * 4 - 2 * 3)
    assert tracer.metrics()["determinants.ring_mults"] == 4  # (2!)^2 * 1


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_same_seed_gives_same_input_digest(name, tmp_path):
    first = wl.build(name, 7, nc, scratch=tmp_path / "a")
    again = wl.build(name, 7, nc, scratch=tmp_path / "b")
    other = wl.build(name, 8, nc, scratch=tmp_path / "c")
    assert first.input_digest == again.input_digest
    assert [op.label for op in first.ops] == [op.label for op in again.ops]
    assert first.input_digest != other.input_digest
    assert len(first.ops) >= 11  # ten samples beyond the tail even in one round


def test_corrupted_result_counts_as_failure():
    workload = wl.build("integer_exact", 0, nc)
    op = next(o for o in workload.ops if o.kind == "sdet")
    honest = op.run
    tally = bench.Tally([op])
    bench.run_round(tally, bench.Budget(), time.perf_counter() + 60)
    assert tally.failed == 0
    op.run = lambda: honest() + 1
    bench.run_round(tally, bench.Budget(), time.perf_counter() + 60)
    assert tally.failed == 1
    assert tally.unexpected() == [(op.label, "mismatch")]


def test_time_budget_hit_is_a_timeout_failure():
    op = wl.Op("sleep", "sleep", lambda: time.sleep(5), lambda _: None, budget_s=0.05)
    tally = bench.Tally([op])
    bench.run_round(tally, bench.Budget(), time.perf_counter() + 60)
    assert list(tally.failures) == [("sleep", "timeout")]
    assert tally.latencies[0][0] < 1.0


def test_known_cli_failure_is_listed_by_input(tmp_path):
    workload = wl.build("cli_verify", 0, nc, scratch=tmp_path)
    op = next(o for o in workload.ops if o.label == "cli rdet --k 3 --generic 3")
    failure = op.check(wl.run_cli_inprocess(nc, op.argv))
    if failure is not None:  # the code still has the defect
        assert wl.KNOWN_FAILURES[op.label] == failure[0]


def test_benchmark_json_names_what_the_run_prints():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.per_layer_units()


def test_tail_leaves_ten_samples_beyond_it():
    value, percentile = bench.tail([float(i) for i in range(100)])
    assert (value, percentile) == (89.0, 90.0)
