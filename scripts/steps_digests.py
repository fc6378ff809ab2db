#!/usr/bin/env python3
"""Print two sha256[:16] digests of steps.csv for a fixed set of seeded runs:
one of the whole file, and one of the file without the columns scored from
the extracted estimates (ospa, omat, good_ratio, gain).

Fixed-seed steps.csv bytes are the behaviour contract: a change that
should not move the filters' output must print the same digests before and
after.  A change to scoring alone may move the first digest but must keep
the second.  The runs are spooky, death, birth and repulsion-bias at 2 Monte
Carlo runs with both filters, and good-ratio at 4 runs of 6 steps with the
PPP filter alone and with both.  steps.csv does not depend on --threads.

--save DIR keeps each run's steps.csv in DIR.  --against DIR compares each
run with the file saved there and prints, per column that differs, how
many cells changed, how many of them by more than 1e-9 relative, and the
largest relative change |new - old| / max(|new|, |old|), and exits with
status 1 if any cell of any run changed.  To list what a change moves, save
at the parent commit and compare at the change:

    PYTHONPATH=src python3 scripts/steps_digests.py [--threads 2] [--save DIR] [--against DIR]
"""

import argparse
import hashlib
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from dpptrack.harness import CSV_COLUMNS, preset, run_experiment

RUNS = (
    ("spooky", "spooky", dict(mc_runs=2, filter="both")),
    ("death", "death", dict(mc_runs=2, filter="both")),
    ("birth", "birth", dict(mc_runs=2, filter="both")),
    ("repulsion-bias", "repulsion-bias", dict(mc_runs=2, filter="both")),
    ("good-ratio ppp", "good-ratio", dict(mc_runs=4, steps=6, filter="ppp")),
    ("good-ratio both", "good-ratio", dict(mc_runs=4, steps=6, filter="both")),
)

SCORE_COLUMNS = ("ospa", "omat", "good_ratio", "gain")
FILTER_COLUMNS = [i for i, name in enumerate(CSV_COLUMNS) if name not in SCORE_COLUMNS]


def filter_columns(text: str) -> str:
    """steps.csv text without the SCORE_COLUMNS."""
    return "".join(
        ",".join(line.split(",")[i] for i in FILTER_COLUMNS) + "\n" for line in text.splitlines()
    )


def relative_change(old: str, new: str) -> float:
    """|new - old| / max(|new|, |old|) of two cells; inf if a changed cell is
    empty, text or not finite."""
    if old == new:
        return 0.0
    try:
        x, y = float(old), float(new)
    except ValueError:
        return math.inf
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    scale = max(abs(x), abs(y))
    return abs(y - x) / scale if scale else 0.0


def column_changes(old: str, new: str) -> list[str]:
    """One line per column in which two steps.csv texts differ; none if
    they are equal."""
    old_rows = [line.split(",") for line in old.splitlines()[1:]]
    new_rows = [line.split(",") for line in new.splitlines()[1:]]
    if len(old_rows) != len(new_rows):
        return [f"row count changed: {len(old_rows)} -> {len(new_rows)}"]
    lines = []
    for i, name in enumerate(CSV_COLUMNS):
        moves = [relative_change(a[i], b[i]) for a, b in zip(old_rows, new_rows) if a[i] != b[i]]
        if moves:
            lines.append(
                f"{name}: {len(moves)} of {len(new_rows)} cells changed, "
                f"{sum(m > 1e-9 for m in moves)} by more than 1e-9 relative, "
                f"largest relative change {max(moves):.2g}"
            )
    return lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--threads", type=int, default=1, help="worker processes per run")
    ap.add_argument("--save", type=Path, help="directory to keep each run's steps.csv in")
    ap.add_argument("--against", type=Path, help="directory of steps.csv files to compare with")
    args = ap.parse_args()
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    changed = False
    with tempfile.TemporaryDirectory() as tmp:
        for label, name, overrides in RUNS:
            cfg = replace(preset(name), **overrides)
            file_name = label.replace(" ", "-")
            res = run_experiment(cfg, out_dir=Path(tmp) / file_name, threads=args.threads)
            text = (Path(res.out_dir) / "steps.csv").read_text()
            digests = [
                hashlib.sha256(t.encode()).hexdigest()[:16] for t in (text, filter_columns(text))
            ]
            print(label, *digests, flush=True)
            if args.save is not None:
                (args.save / f"{file_name}.csv").write_text(text)
            if args.against is not None:
                old = (args.against / f"{file_name}.csv").read_text()
                lines = column_changes(old, text)
                changed = changed or bool(lines)
                for line in lines or ["no cell changed"]:
                    print("  " + line, flush=True)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
