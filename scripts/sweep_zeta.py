#!/usr/bin/env python3
"""Sweep the truth's repulsion strength zeta over one preset.

  --preset repulsion-bias  count estimation bias under target repulsion;
                           default zetas 0 4 8
  --preset good-ratio      good-estimate ratio and gain (p_d = 1, no
                           clutter); default zetas 0 10 20 30

Every zeta runs with the same seeds and writes its own result directory,
OUT/zeta<value>/ (steps.csv, summary.csv, meta.txt).  OUT/sweep.csv has one
row per (zeta, t, filter), grouped by filter within each zeta: the means
over runs of the true count, the count estimate (and its s.d.), the
absolute count error, the good-estimate ratio and the gain.  A cell is
empty when it has no value: no run scored a ratio or gain at that step, or
one run leaves no s.d.

    PYTHONPATH=src python3 scripts/sweep_zeta.py --preset repulsion-bias [--zetas 0 8]
"""

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from dpptrack.harness import preset, run_experiment

DEFAULT_ZETAS = {"repulsion-bias": [0.0, 4.0, 8.0], "good-ratio": [0.0, 10.0, 20.0, 30.0]}

COLUMNS = (
    "zeta",
    "t",
    "filter",
    "count_truth_mean",
    "count_estimate_mean",
    "count_estimate_sd",
    "abs_error_mean",
    "good_ratio_mean",
    "gain_mean",
)


def cell(values, reduce=np.mean, least=1) -> str:
    """reduce(values) as a float repr, or empty with fewer than ``least`` values."""
    values = [v for v in values if v is not None]
    return repr(float(reduce(np.asarray(values, dtype=float)))) if len(values) >= least else ""


def sweep_lines(zeta: float, rows) -> list[str]:
    """sweep.csv lines of one zeta's steps rows, one per (filter, t)."""
    groups: dict = {}
    for row in rows:
        groups.setdefault((row["filter"], row["t"]), []).append(row)
    lines = []
    for (name, t), sel in sorted(groups.items()):
        truth = [r["count_truth"] for r in sel]
        est = [r["count_estimate"] for r in sel]
        cells = [
            f"{zeta:g}",
            str(t),
            name,
            cell(truth),
            cell(est),
            cell(est, lambda a: a.std(ddof=1), least=2),
            cell([abs(e - n) for e, n in zip(est, truth)]),
            cell([r["good_ratio"] for r in sel]),
            cell([r["gain"] for r in sel]),
        ]
        lines.append(",".join(cells))
    return lines


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--preset", choices=sorted(DEFAULT_ZETAS), required=True)
    ap.add_argument("--out", type=Path, help="output directory (default results/<preset>)")
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--full", action="store_true")
    ap.add_argument("--zetas", type=float, nargs="+", help="default: the preset's list")
    args = ap.parse_args()
    base = preset(args.preset, full=args.full)
    out = args.out or Path("results") / args.preset
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(COLUMNS)]
    for zeta in args.zetas or DEFAULT_ZETAS[args.preset]:
        cfg = replace(base, dynamics=replace(base.dynamics, zeta_x=zeta, zeta_y=zeta))
        res = run_experiment(cfg, out_dir=out / f"zeta{zeta:g}", threads=args.threads)
        lines += sweep_lines(zeta, res.rows)
        print(f"zeta={zeta:g} done ({res.wall_seconds:.1f}s)", flush=True)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {out / 'sweep.csv'}")


if __name__ == "__main__":
    main()
