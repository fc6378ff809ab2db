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

    PYTHONPATH=src python3 scripts/steps_digests.py [--threads 2]
"""

import argparse
import hashlib
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


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--threads", type=int, default=1, help="worker processes per run")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for label, name, overrides in RUNS:
            cfg = replace(preset(name), **overrides)
            out = Path(tmp) / label.replace(" ", "-")
            res = run_experiment(cfg, out_dir=out, threads=args.threads)
            text = (Path(res.out_dir) / "steps.csv").read_text()
            digests = [
                hashlib.sha256(t.encode()).hexdigest()[:16] for t in (text, filter_columns(text))
            ]
            print(label, *digests, flush=True)


if __name__ == "__main__":
    main()
