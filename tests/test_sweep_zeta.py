import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "sweep_zeta", Path(__file__).resolve().parents[1] / "scripts" / "sweep_zeta.py"
)
sweep_zeta = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep_zeta)


def row(run, t, name, truth, estimate, ratio=None, gain=None):
    return dict(
        run=run, t=t, filter=name, count_truth=truth, count_estimate=estimate,
        good_ratio=ratio, gain=gain,
    )


def cells(line):
    return dict(zip(sweep_zeta.COLUMNS, line.split(",")))


def test_rows_are_grouped_by_filter_then_step():
    rows = [
        row(0, 1, "dpp", 4, 3.0), row(0, 1, "ppp", 4, 6.0),
        row(0, 2, "dpp", 4, 5.0), row(0, 2, "ppp", 4, 2.0),
        row(1, 1, "dpp", 2, 1.0), row(1, 1, "ppp", 2, 2.0),
        row(1, 2, "dpp", 2, 3.0), row(1, 2, "ppp", 2, 2.0),
    ]
    lines = [cells(x) for x in sweep_zeta.sweep_lines(8.0, rows)]
    assert [(c["zeta"], c["filter"], c["t"]) for c in lines] == [
        ("8", "dpp", "1"), ("8", "dpp", "2"), ("8", "ppp", "1"), ("8", "ppp", "2"),
    ]
    dpp1, ppp1 = lines[0], lines[2]
    assert float(dpp1["count_truth_mean"]) == 3.0
    assert float(dpp1["count_estimate_mean"]) == 2.0
    assert float(dpp1["count_estimate_sd"]) == pytest.approx(2**0.5, rel=1e-15)
    assert float(dpp1["abs_error_mean"]) == 1.0
    assert float(ppp1["count_estimate_mean"]) == 4.0
    assert float(ppp1["abs_error_mean"]) == 1.0


def test_a_cell_without_a_value_is_empty():
    rows = [row(0, 1, "ppp", 3, 2.5, ratio=0.5, gain=-0.25), row(1, 1, "ppp", 3, 3.5)]
    (line,) = sweep_zeta.sweep_lines(0.0, rows)
    assert cells(line)["good_ratio_mean"] == "0.5"
    assert cells(line)["gain_mean"] == "-0.25"
    (line,) = sweep_zeta.sweep_lines(0.0, rows[1:])
    c = cells(line)
    assert (c["count_estimate_sd"], c["good_ratio_mean"], c["gain_mean"]) == ("", "", "")
    assert c["count_estimate_mean"] == "3.5"
