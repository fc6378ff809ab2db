"""The benchmark tracer's targets resolve against the package.

``benchmark/tracing.py`` patches functions by module and name; a rename or
a dropped import in the package would leave a layer's spans empty, so a
short traced experiment must still record the prediction of both filters,
the filter-side motion, both filters' weight updates, the DPP posterior
moments and a clamp share that is a fraction of the band pairs.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

from dpptrack.harness import preset, run_experiment

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_both_predictions_and_the_filter_motion(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        run_experiment(replace(preset("spooky"), filter="both", mc_runs=1, steps=2))
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["dpp_filter.predict.calls"] > 0
    assert metrics["ppp_filter.ppp_predict.calls"] > 0
    assert metrics["scenario.step_dynamics.rows_filter"] > 0
    assert metrics["dpp_filter.posterior_diagonal.calls"] > 0
    assert metrics["dpp_filter.dpp_update.calls"] > 0
    assert metrics["dpp_filter.posterior_moments.calls"] > 0
    assert 0.0 <= metrics["dpp_filter.clamp_frac"] <= 1.0
    assert metrics["ppp_filter.poisson_weight_update.calls"] > 0
    assert metrics["scenario.TruthSimulator.step.calls"] > 0
    assert metrics["scenario.step_dynamics.rows_truth"] > 0
