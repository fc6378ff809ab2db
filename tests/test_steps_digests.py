import importlib.util
import math
from pathlib import Path

from dpptrack.harness import CSV_COLUMNS

_SPEC = importlib.util.spec_from_file_location(
    "steps_digests", Path(__file__).resolve().parents[1] / "scripts" / "steps_digests.py"
)
steps_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(steps_digests)

HEADER = ",".join(CSV_COLUMNS)
ROW = "0,1,dpp,6,3.0,79.9,59.7,0.4,-0.05,1.1,0.0,"


def steps_text(*rows):
    return "\n".join((HEADER, *rows)) + "\n"


def test_equal_texts_have_no_column_changes():
    text = steps_text(ROW, ROW.replace("dpp", "ppp"))
    assert steps_digests.column_changes(text, text) == []


def test_one_changed_cell_names_its_column_and_count():
    old = steps_text(ROW, ROW)
    new = steps_text(ROW, ROW.replace(",3.0,", ",3.5,"))
    (line,) = steps_digests.column_changes(old, new)
    assert line.startswith("count_estimate: 1 of 2 cells changed, 1 by more than 1e-9 relative")
    assert line.endswith("largest relative change 0.14")


def test_row_count_change_is_reported():
    lines = steps_digests.column_changes(steps_text(ROW, ROW), steps_text(ROW))
    assert lines == ["row count changed: 2 -> 1"]


def test_emptied_cell_is_an_infinite_change():
    assert steps_digests.relative_change("0.014", "") == math.inf
    assert steps_digests.relative_change("2.0", "2.0") == 0.0
    assert steps_digests.relative_change("2.0", "1.0") == 0.5


def test_filter_columns_drops_exactly_the_score_columns():
    kept = steps_digests.filter_columns(steps_text(ROW)).splitlines()[0].split(",")
    assert set(CSV_COLUMNS) - set(kept) == {"ospa", "omat", "good_ratio", "gain"}
    assert kept == [c for c in CSV_COLUMNS if c not in ("ospa", "omat", "good_ratio", "gain")]
