#!/usr/bin/env python3
"""Print the sha256[:16] of steps.csv for a fixed set of seeded runs.

Fixed-seed steps.csv bytes are the behaviour contract: a change that
should not move the filters' output must print the same digests before and
after.  The runs are spooky, death, birth and repulsion-bias at 2 Monte
Carlo runs with both filters, and good-ratio at 4 runs of 6 steps with the
PPP filter alone and with both.  steps.csv does not depend on --threads.

    PYTHONPATH=src python3 scripts/steps_digests.py [--threads 2]
"""

import argparse
import hashlib
import tempfile
from dataclasses import replace
from pathlib import Path

from dpptrack.harness import preset, run_experiment

RUNS = (
    ("spooky", "spooky", dict(mc_runs=2, filter="both")),
    ("death", "death", dict(mc_runs=2, filter="both")),
    ("birth", "birth", dict(mc_runs=2, filter="both")),
    ("repulsion-bias", "repulsion-bias", dict(mc_runs=2, filter="both")),
    ("good-ratio ppp", "good-ratio", dict(mc_runs=4, steps=6, filter="ppp")),
    ("good-ratio both", "good-ratio", dict(mc_runs=4, steps=6, filter="both")),
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
            digest = hashlib.sha256((Path(res.out_dir) / "steps.csv").read_bytes()).hexdigest()
            print(f"{label} {digest[:16]}", flush=True)


if __name__ == "__main__":
    main()
