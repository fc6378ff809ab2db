#!/usr/bin/env python3
"""dpptrack benchmark: Monte Carlo runs per second at unchanged tracking
accuracy, with a per-module trace.

Run from the repository root:

    python3 benchmark/run.py --workload spooky-dpp --seed 1 --seconds 45 --trace 0

One client drives the package through ``harness.run_experiment`` in a closed
loop: one call in flight, one Monte Carlo run per call (two runs on two pool
workers for ``spooky-dpp-t2``).  Call ``i`` of seed ``s`` uses the experiment
seed ``preset seed + s + i``.  The loop runs until ``--seconds`` have passed
and the workload's scored panel of calls is complete.  A run that raises is a
failed run: it counts in ``run_fail_frac`` and its rows are scored as OSPA = c
and a count estimate of 0, so fixing a crash cannot read as an accuracy
regression.  No BLAS or OpenMP thread variable is set here: the environment
is measured as users have it and recorded with the result.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
half of the panel untraced, then again with every public function of the
Monte Carlo modules wrapped (see ``tracing.py``), checks that both produce
the same ``steps.csv`` bytes, and prints the per-layer metrics.  The last
line of standard output is one JSON object; the full record goes to
``.bench_out/``.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from tracing import TraceError, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
# Stop starting runs after this long, so a run ends well inside 180 s even
# when the program has become much slower than the panel was sized for.
DEADLINE_S = 140.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    preset: str
    filter: str
    threads: int  # run_experiment(threads=...)
    runs_per_call: int  # Monte Carlo runs in one run_experiment call
    steps: int | None  # None keeps the preset's horizon
    panel: int  # calls scored for accuracy and failures; half are traced


WORKLOADS = {
    # Kernel-bound: project_kernel and its eigendecompositions dominate.  The
    # horizon is cut from 30 to 10 steps (one forced-miss cycle) so a run
    # holds 15-20 Monte Carlo runs.
    "spooky-dpp": Workload("spooky", "dpp", 1, 1, 10, 14),
    # The same problem on two pool workers: shows the process pool and BLAS
    # oversubscription.  On 2 cores one call took anywhere from 11 to 35 s,
    # too spread for any bound, so BENCHMARK.json does not list it.
    "spooky-dpp-t2": Workload("spooky", "dpp", 2, 2, 10, 2),
    # Kernel bypass: the spooky problem through the PPP filter, which makes no
    # kernels call, at the preset's 30-step horizon.  No run raises here.
    "spooky-ppp": Workload("spooky", "ppp", 1, 1, None, 150),
    # Also a kernel bypass, and the preset where NaN weights make about one
    # run in five raise.  BENCHMARK.json does not list it: its benchmark
    # operations fail by design, and a listed workload must not fail.
    "good-ratio-ppp": Workload("good-ratio", "ppp", 1, 1, None, 250),
}

# ---------------------------------------------------------------------------
# Helpers (pure; tested in test_run.py)
# ---------------------------------------------------------------------------


def run_seed(base: int, seed: int, i: int) -> int:
    """Experiment seed of call ``i``: a window sliding along the preset's
    run sequence, so neighbouring ``--seed`` values share most runs."""
    return base + seed + i


def truth_count(cfg, t: int) -> int:
    """Targets alive after step ``t`` under the config's scripted events."""
    alive = sum(count for _region, count in cfg.truth.groups)
    for u in range(1, t + 1):
        alive += cfg.schedule.births.get(u, 0) - cfg.schedule.deaths.get(u, 0)
    return alive


def filters_of(cfg) -> tuple:
    return ("dpp", "ppp") if cfg.filter == "both" else (cfg.filter,)


def failed_rows(cfg) -> list:
    """Rows scored for a run that raised: OSPA at its cutoff, count 0."""
    return [
        {"t": t, "filter": name, "ospa": cfg.ospa_c, "count_estimate": 0.0,
         "count_truth": truth_count(cfg, t)}
        for _run in range(cfg.mc_runs)
        for t in range(1, cfg.steps + 1)
        for name in filters_of(cfg)
    ]


def fail_frac(failed: int, attempted: int) -> float:
    """Failure probability by the rule of succession, (f + 1) / (n + 2).

    Never 0, so a relative bound applies to a workload that does not fail;
    with many runs it is close to f / n.
    """
    return (failed + 1) / (attempted + 2)


def tail_percentile(n: int):
    """Highest of p90/p99/p99.9 with at least ten of ``n`` samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One run_experiment call."""

    cfg: object
    seconds: float
    rows: list | None  # None when the call raised
    error: str | None
    steps_csv: bytes


def base_config(wl: Workload):
    from dpptrack.harness import preset

    cfg = replace(preset(wl.preset), filter=wl.filter, mc_runs=wl.runs_per_call)
    return cfg if wl.steps is None else replace(cfg, steps=wl.steps)


def run_op(wl: Workload, base, seed: int, i: int, out_dir: Path) -> Op:
    from dpptrack import harness

    cfg = replace(base, seed=run_seed(base.seed, seed, i))
    t0 = time.perf_counter()
    try:
        res = harness.run_experiment(cfg, out_dir=out_dir, threads=wl.threads)
    except TraceError:
        raise
    except Exception as exc:  # a run that raises is a measured outcome
        return Op(cfg, time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}",
                  f"FAILED {cfg.seed} {type(exc).__name__}\n".encode())
    seconds = time.perf_counter() - t0
    return Op(cfg, seconds, res.rows, None, (out_dir / "steps.csv").read_bytes())


def run_ops(wl, base, seed, out_dir, count=0, seconds=0.0, deadline=DEADLINE_S):
    """Run ops 0, 1, ... until ``count`` are done and ``seconds`` have
    passed, or the deadline is reached; return (ops, wall seconds)."""
    ops = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if (len(ops) >= count and elapsed >= seconds) or elapsed >= deadline:
            return ops, elapsed
        ops.append(run_op(wl, base, seed, len(ops), out_dir))


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(op.steps_csv)
    return h.hexdigest()


def check_ops(wl: Workload, ops) -> list:
    """Output checks on the completed calls; returns the failures."""
    problems = []
    for op in ops:
        if op.rows is None:
            continue
        cfg = op.cfg
        expected = cfg.mc_runs * cfg.steps * len(filters_of(cfg))
        if len(op.rows) != expected:
            problems.append(f"seed {cfg.seed}: {len(op.rows)} rows, expected {expected}")
        for row in op.rows:
            if not (math.isfinite(row["count_estimate"]) and math.isfinite(row["ospa"])):
                problems.append(f"seed {cfg.seed} t={row['t']}: non-finite estimate or OSPA")
            if wl.preset == "spooky" and row["corr_AB"] is not None and row["corr_AB"] > 0.0:
                problems.append(f"seed {cfg.seed} t={row['t']}: corr_AB {row['corr_AB']!r} > 0")
    return problems


def accuracy(ops) -> tuple:
    """(mean OSPA, mean |count estimate - count truth|) over all rows."""
    rows = [r for op in ops for r in (op.rows if op.rows is not None else failed_rows(op.cfg))]
    ospa = statistics.fmean(r["ospa"] for r in rows)
    err = statistics.fmean(abs(r["count_estimate"] - r["count_truth"]) for r in rows)
    return ospa, err


# ---------------------------------------------------------------------------
# Environment and set-up
# ---------------------------------------------------------------------------

PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    " from dpptrack.harness import preset; preset(sys.argv[2]);"
    " print('ready', flush=True)"
)


def setup_seconds(preset_name: str, repeats: int = SETUP_REPEATS) -> list:
    """Fresh-interpreter times from start to the first harness call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE, str(SRC), preset_name],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        ) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        times.append(t1 - t0)
    return times


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "pool_start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for (pool workers)."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def measure(wl, seed, seconds, work) -> dict:
    """End-to-end metrics of a closed loop of ``--seconds``."""
    setup = setup_seconds(wl.preset)
    base = base_config(wl)
    ops, wall = run_ops(wl, base, seed, work, count=wl.panel, seconds=seconds)
    panel = ops[: wl.panel]
    runs = sum(op.cfg.mc_runs for op in ops)
    failed = sum(op.cfg.mc_runs for op in ops if op.rows is None)
    panel_runs = sum(op.cfg.mc_runs for op in panel)
    panel_failed = sum(op.cfg.mc_runs for op in panel if op.rows is None)
    ospa, count_err = accuracy(panel)
    op_seconds = [op.seconds for op in ops]
    tail = tail_percentile(len(op_seconds))
    return {
        "metrics": {
            "runs_per_s": (runs - failed) / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
            "ospa_mean": ospa,
            "count_abs_err": count_err,
            "run_fail_frac": fail_frac(panel_failed, panel_runs),
        },
        "ops": ops,
        "attempted": runs,
        "failed": failed,
        "problems": check_ops(wl, ops),
        "detail": {
            "wall_s": wall,
            "setup_samples_s": setup,
            "panel_runs": panel_runs,
            "panel_failed": panel_failed,
            "panel_steps_sha256": digest(panel),
            "call_seconds_median": statistics.median(op_seconds),
            "call_seconds_tail": None if tail is None else [tail, percentile(op_seconds, tail)],
            "calls": len(op_seconds),
        },
    }


def measure_layers(wl, seed, work) -> dict:
    """Per-layer metrics: the same runs untraced, then traced."""
    base = base_config(wl)
    count = max(1, wl.panel // 2)
    plain, plain_wall = run_ops(wl, base, seed, work, count=count, deadline=DEADLINE_S / 2)
    tracer = Tracer(work)
    tracer.install()
    try:
        traced, traced_wall = run_ops(wl, base, seed, work, count=len(plain), deadline=math.inf)
    finally:
        tracer.uninstall()
    problems = check_ops(wl, traced)
    if digest(plain) != digest(traced):
        problems.append("traced steps.csv bytes differ from the untraced run's")
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    runs = sum(op.cfg.mc_runs for op in traced)
    return {
        "metrics": metrics,
        "ops": traced,
        "attempted": runs,
        "failed": sum(op.cfg.mc_runs for op in traced if op.rows is None),
        "problems": problems,
        "detail": {
            "untraced_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "steps_sha256": digest(traced),
            "project_kernel_n": sorted(
                {extra["n"] for _s, _p, name, _a, _b, extra in tracer.spans
                 if name == "kernels.project_kernel" and extra}
            ),
        },
    }


def metric_units(trace_mode: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_mode else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "dpptrack" / "__init__.py").is_file():
        print(f"error: no dpptrack package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    units = metric_units(args.trace == 1)

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            result = measure_layers(wl, args.seed, work)
        else:
            result = measure(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = set(units) - set(result["metrics"])
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    errors = collections.Counter(op.error for op in result["ops"] if op.error is not None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": {name: result["metrics"][name] for name in units},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "errors": errors,
        "detail": result["detail"],
        "environment": environment(),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} runs,"
          f" {result['failed']} failed")
    for name, unit in units.items():
        print(f"  {name:45s} {result['metrics'][name]:.6g} {unit}")
    for key, value in record["detail"].items():
        print(f"  {key}: {value}")
    for message, count in errors.items():
        print(f"  raised x{count}: {message}")
    print(f"  environment: {json.dumps(record['environment'])}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
