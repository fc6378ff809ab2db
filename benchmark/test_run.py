"""Tests of the benchmark's own helpers and tracer.

Run from the repository root:  python3 -m pytest -q benchmark/test_run.py
"""

import functools
import json
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, str(run.SRC))
from dpptrack import dpp_filter, harness, kernels, smc  # noqa: E402
from dpptrack.harness import ExperimentConfig, TruthSpec, preset  # noqa: E402
from dpptrack.scenario import (  # noqa: E402
    DynamicsConfig,
    EventSchedule,
    Region,
    SensorConfig,
    Window,
)
from dpptrack.smc import SmcConfig  # noqa: E402


def tiny_config(runs=2, steps=2):
    dom = Region(-40.0, 40.0, -40.0, 40.0)
    window = Window(Region(-60.0, 60.0, -60.0, 60.0), -2.0, 2.0, -math.pi, math.pi)
    return ExperimentConfig(
        name="tiny",
        steps=steps,
        mc_runs=runs,
        seed=7,
        filter="dpp",
        dynamics=DynamicsConfig(),
        filter_dynamics=DynamicsConfig(),
        sensor=SensorConfig(p_d=0.9, clutter_mean=1.0, window=window),
        truth=TruthSpec(groups=((dom, 2),), placement="uniform", speed=0.5),
        schedule=EventSchedule(),
        smc=SmcConfig(
            n_init=40, resample_per_target=10, birth_per_target=5, cap=80,
            roughening_scale=0.01, alpha=4.0, gamma0=1.0,
        ),
    )


@pytest.fixture
def tracer(tmp_path):
    t = tracing.Tracer(tmp_path)
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


# -- self time ----------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.covered([(0.2, 0.4), (0.3, 0.6)], 0.0, 1.0) == pytest.approx(0.4)
    assert tracing.covered([(-1.0, 0.5), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.6)
    assert tracing.covered([(0.1, 0.2), (0.1, 0.2)], 0.0, 1.0) == pytest.approx(0.1)


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        (0, None, "a", 0.0, 10.0, None),
        (1, 0, "b", 1.0, 4.0, None),
        (2, 1, "c", 2.0, 3.0, None),
        (3, 0, "b", 5.0, 6.0, None),
        # two workers in parallel under one parent: their union counts once
        (4, 0, "w", 6.0, 9.0, None),
        (5, 0, "w", 7.0, 9.5, None),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0 - 3.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    agg = tracing.aggregate(spans)
    assert agg["b"] == {"s": pytest.approx(4.0), "self_s": pytest.approx(3.0), "calls": 2}
    assert agg["missing"] == {"s": 0.0, "self_s": 0.0, "calls": 0}


# -- failure scoring and percentiles ------------------------------------------


def test_failed_run_scores_cutoff_and_zero_count():
    cfg = replace(preset("death"), mc_runs=1)
    rows = run.failed_rows(cfg)
    assert len(rows) == cfg.steps * 2  # both filters
    assert {r["ospa"] for r in rows} == {cfg.ospa_c}
    assert {r["count_estimate"] for r in rows} == {0.0}
    # death preset: 15 targets, 10 of them removed at step 9
    assert [r["count_truth"] for r in rows if r["filter"] == "dpp"][7:10] == [15, 5, 5]


def test_accuracy_mixes_completed_and_failed_runs():
    cfg = replace(preset("good-ratio"), mc_runs=1, steps=2)
    ok_rows = [
        {"t": t, "filter": "ppp", "ospa": 10.0, "count_estimate": 3.0, "count_truth": 3}
        for t in (1, 2)
    ]
    ops = [
        run.Op(cfg, 0.1, ok_rows, None, b""),
        run.Op(cfg, 0.1, None, "ValueError: x", b""),
    ]
    ospa, err = run.accuracy(ops)
    assert ospa == pytest.approx((10.0 + 10.0 + 100.0 + 100.0) / 4)
    assert err == pytest.approx((0 + 0 + 3 + 3) / 4)


def test_fail_frac_is_positive_and_tends_to_the_ratio():
    assert run.fail_frac(0, 14) == pytest.approx(1 / 16)
    assert run.fail_frac(40, 250) == pytest.approx(41 / 252)
    assert abs(run.fail_frac(2000, 10000) - 0.2) < 1e-4


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(99) is None
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10000) == 99.9


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90.0) == 90
    assert run.percentile(values, 50.0) == 50
    assert run.percentile([3.0], 99.0) == 3.0


def test_run_seeds_slide_with_the_seed():
    assert run.run_seed(100, 1, 0) == run.run_seed(100, 0, 1)
    assert [run.run_seed(100, 5, i) for i in range(3)] == [105, 106, 107]


def test_check_ops_flags_bad_rows():
    wl = run.WORKLOADS["spooky-dpp"]
    cfg = replace(run.base_config(wl), steps=1)
    good = {"t": 1, "count_estimate": 6.0, "ospa": 5.0, "corr_AB": -0.1}
    assert run.check_ops(wl, [run.Op(cfg, 1.0, [good], None, b"")]) == []
    bad = [dict(good, corr_AB=0.2), dict(good, ospa=math.nan)]
    problems = run.check_ops(wl, [run.Op(cfg, 1.0, bad, None, b"")])
    assert len(problems) == 3  # row count, corr_AB > 0, non-finite OSPA


# -- the metric names agree with BENCHMARK.json -------------------------------


def test_declared_metrics_are_the_measured_ones():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["workloads"]} <= set(run.WORKLOADS)
    declared = {m["name"] for m in spec["per_layer"]}
    measured = set(tracing.layer_metrics([])) | {"trace.overhead_frac"}
    assert declared == measured


# -- tracer -------------------------------------------------------------------


def test_install_patches_every_module_that_imported_by_name(tracer):
    assert hasattr(kernels.project_kernel, "__wrapped__")
    assert smc.project_kernel is kernels.project_kernel
    assert dpp_filter.project_kernel is kernels.project_kernel
    tracer.uninstall()
    assert smc.project_kernel.__name__ == "project_kernel"
    assert not hasattr(smc.project_kernel, "__wrapped__")


def test_traced_run_writes_the_same_bytes(tmp_path):
    cfg = tiny_config(runs=1)
    harness.run_experiment(cfg, out_dir=tmp_path / "plain")
    t = tracing.Tracer(tmp_path)
    t.install()
    try:
        harness.run_experiment(cfg, out_dir=tmp_path / "traced")
    finally:
        t.uninstall()
    plain = (tmp_path / "plain" / "steps.csv").read_bytes()
    assert (tmp_path / "traced" / "steps.csv").read_bytes() == plain
    metrics = tracing.layer_metrics(t.spans)
    assert metrics["harness.run_single.calls"] == 1
    assert metrics["kernels.project_kernel.eigh_calls"] > 0
    assert metrics["kernels.project_kernel.eigh_calls"] <= metrics["kernels.eigh.calls"]


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_worker_spans_are_collected(tracer, monkeypatch, method):
    pool = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context(method))
    monkeypatch.setattr(harness, "ProcessPoolExecutor", pool)
    harness.run_experiment(tiny_config(runs=2), threads=2)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["harness.run_single.calls"] == 2
    assert metrics["harness.run_experiment.calls"] == 1
    assert metrics["dpp_filter.step.calls"] == 4
    assert metrics["kernels.project_kernel.calls"] > 0
    assert 0.0 < metrics["harness.pool_eff"] <= 1.0
    assert not list(tracer.trace_dir.glob("worker-*"))


def test_missing_worker_spans_fail_loudly(tracer, monkeypatch):
    monkeypatch.setattr(tracing.Tracer, "flush_worker", lambda self: None)
    with pytest.raises(tracing.TraceError):
        harness.run_experiment(tiny_config(runs=2), threads=2)


def test_pool_eff_counts_calls_whose_run_raised(tracer, monkeypatch):
    def broken(*args):
        raise ValueError("no filters")

    monkeypatch.setattr(harness, "_make_filters", broken)
    with pytest.raises(ValueError):
        harness.run_experiment(tiny_config(runs=1))
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["harness.run_single.calls"] == 1
    assert 0.0 < metrics["harness.pool_eff"] <= 1.0
