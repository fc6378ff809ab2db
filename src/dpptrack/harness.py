"""Monte Carlo experiment harness: presets at desk scale, config file
parsing, parallel run dispatch, and CSV/metadata outputs.

Outputs per experiment directory:
  steps.csv    one row per (run, step, filter)
  summary.csv  per-step aggregates (mean and s.d. across runs)
  meta.txt     config echo, seed, scale notes, build id
"""

from __future__ import annotations

import configparser
import contextlib
import ctypes
import functools
import hashlib
import io
import math
import os
import resource
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from . import __version__
from .dpp_filter import DppPhdFilter, UpdateDiagnostics, correlation_estimate
from .errors import ConfigError, DegenerateVariance, UnknownPreset
from .likelihood import SensorModel
from .metrics import extract_estimates, good_estimate_stats, omat, ospa
from .ppp_filter import PppPhdFilter, SurvivalModel
from .rng import stream
from .scenario import (
    DynamicsConfig,
    EventSchedule,
    Region,
    SensorConfig,
    TruthSimulator,
    TruthSpec,
    Window,
)
from .smc import SmcConfig

PRESET_NAMES = ("spooky", "death", "birth", "repulsion-bias", "good-ratio")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    steps: int
    mc_runs: int
    seed: int
    filter: str  # "dpp" | "ppp" | "both"
    dynamics: DynamicsConfig
    filter_dynamics: DynamicsConfig
    sensor: SensorConfig
    truth: TruthSpec
    schedule: EventSchedule
    smc: SmcConfig
    p_s: float = 1.0
    domains: Optional[tuple[Region, Region]] = None
    ospa_c: float = 100.0
    ospa_p: float = 2.0
    notes: str = ""

    def __post_init__(self):
        if self.mc_runs < 1:
            raise ConfigError("mc_runs must be >= 1")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.filter not in ("dpp", "ppp", "both"):
            raise ConfigError(f"filter must be dpp, ppp or both, got {self.filter!r}")
        if not (0.0 <= self.p_s <= 1.0):
            raise ConfigError("p_s must lie in [0, 1]")
        if not (0.0 < self.ospa_c < math.inf and 1.0 <= self.ospa_p < math.inf):
            raise ConfigError("ospa_c must be finite and > 0, ospa_p finite and >= 1")


@dataclass
class RunRecord:
    rows: list
    updates: list[UpdateDiagnostics]  # one per DPP step, in step order


# ---------------------------------------------------------------------------
# Presets (paper parameters scaled to desk budgets; --full restores them)
# ---------------------------------------------------------------------------


def _experiment(
    name: str, *, seed: int, filter: str, steps: int, mc_runs: int, region: Region,
    sigma_range: float, p_d: float, clutter_mean: float, groups: tuple, placement: str,
    n_init: int, resample_per_target: int, birth_per_target: int, cap: int, gamma0: float,
    spread: float = 15.0, schedule: EventSchedule = EventSchedule(), zeta: float = 0.0,
    domains: Optional[tuple[Region, Region]] = None, notes: str = "",
) -> ExperimentConfig:
    """A preset: what it sets, on the setup all presets share.  That is the
    default motion model with repulsion zeta in the truth only, a window over
    ``region`` with velocities in +-2 m/s and turn rates in +-pi, bearing
    noise pi, the SMC kernel parameters (roughening 0.01, alpha 4, band_eta
    0.1), p_s = 1 and initial target velocities in +-0.5 m/s."""
    window = Window(region, -2.0, 2.0, -math.pi, math.pi)
    return ExperimentConfig(
        name=name, steps=steps, mc_runs=mc_runs, seed=seed, filter=filter,
        dynamics=DynamicsConfig(zeta_x=zeta, zeta_y=zeta), filter_dynamics=DynamicsConfig(),
        sensor=SensorConfig(sigma_range, math.pi, p_d, clutter_mean, window),
        truth=TruthSpec(groups, placement, spread, speed=0.5), schedule=schedule,
        smc=SmcConfig(
            n_init, resample_per_target, birth_per_target, cap,
            roughening_scale=0.01, alpha=4.0, band_eta=0.1, gamma0=gamma0,
        ),
        p_s=1.0, domains=domains, notes=notes,
    )


def preset(name: str, full: bool = False) -> ExperimentConfig:
    """Named experiment setups.

    Desk scale keeps the source experiments' sensor noise, detection and
    kernel parameters but shrinks run counts, particle budgets and the
    spatial layout so a full preset fits in minutes on two cores; --full
    restores the large-scale budgets (slow).  A preset states only what
    differs from ``_experiment``'s shared setup, as pick(desk, full) where
    the scales differ.
    """
    if name not in PRESET_NAMES:
        raise UnknownPreset(f"unknown preset {name!r}; choose from {PRESET_NAMES}")

    def pick(desk, paper):
        return paper if full else desk

    if name == "spooky":
        # domains in disjoint range bands from the sensor at the origin;
        # --full triples the layout
        k = pick(1.0, 3.0)
        a = Region(0.0, 50.0 * k, 0.0, 50.0 * k)
        b = Region(100.0 * k, 150.0 * k, 100.0 * k, 150.0 * k)
        n = pick(3, 10)
        return _experiment(
            name, seed=20170401, filter="dpp", steps=pick(30, 50), mc_runs=pick(20, 100),
            region=Region(-25.0 * k, 175.0 * k, -25.0 * k, 175.0 * k),
            sigma_range=math.sqrt(2.0), p_d=0.9, clutter_mean=pick(4.0, 10.0),
            groups=((a, n), (b, n)), placement="central", spread=pick(12.0, 30.0),
            schedule=EventSchedule(miss_region=b, miss_cycle=10), domains=(a, b),
            n_init=pick(300, 800), resample_per_target=pick(20, 30), birth_per_target=10,
            cap=pick(500, 1000), gamma0=2.0,
            notes=pick(
                "desk scale: 3 targets/domain on a 200 m window, 30 steps, 20 runs,"
                " 300 init particles, P_p=20 (source: 10/domain, 150 m domains,"
                " 50 steps, 100 runs, 800 particles, P_p=30)",
                "full-scale budgets",
            ),
        )

    if name in ("death", "birth"):
        dom = Region(0.0, 100.0, 0.0, 100.0)
        shared = dict(
            filter="both", region=Region(-50.0, 150.0, -50.0, 150.0), sigma_range=math.sqrt(2.0),
            resample_per_target=pick(20, 50), cap=pick(500, 1000), gamma0=0.2,
        )
        if name == "death":
            return _experiment(
                name, seed=20170402, steps=15, mc_runs=pick(10, 200), p_d=0.95,
                clutter_mean=1.0, groups=((dom, 15),), placement="uniform",
                schedule=EventSchedule(deaths={9: 10}, clutter_changes={10: 0.3}),
                n_init=pick(600, 6000), birth_per_target=pick(20, 60), **shared,
                notes=pick("desk scale: 600 init particles, P_p=20, 10 runs (source: 6000"
                           " particles, P_p=50, P_b=40-60, 200-300 runs)", ""),
            )
        return _experiment(
            name, seed=20170403, steps=45, mc_runs=pick(10, 100), p_d=0.9, clutter_mean=0.05,
            groups=((dom, 1),), placement="central", spread=10.0,
            schedule=EventSchedule(births={10: 9}, birth_region=dom, clutter_changes={10: 5.0}),
            n_init=300, birth_per_target=15, **shared,
            notes=pick("desk scale: 10 runs, P_p=20 (source: 100-400 runs, P_p=40-50)", ""),
        )

    # the repulsion presets: a PPP filter against a truth repelling at zeta = 8
    shared = dict(filter="ppp", sigma_range=2.0 * math.sqrt(2.0), placement="uniform", zeta=8.0)
    if name == "repulsion-bias":
        n = pick(4, 10)
        return _experiment(
            name, seed=20170404, steps=20, mc_runs=pick(30, 200),
            region=Region(-150.0, 150.0, -150.0, 150.0), p_d=0.95, clutter_mean=1.0,
            groups=((Region(-50.0, 50.0, -50.0, 50.0), n),), n_init=pick(400, 1000),
            resample_per_target=pick(30, 100), birth_per_target=pick(30, 100), cap=1000,
            gamma0=float(n), **shared,
            notes="sweep zeta in {0,4,8} via scripts/sweep_zeta.py --preset repulsion-bias;"
            " desk scale: 4 targets, 30 runs (source: 10 targets, 200 runs,"
            " 1000 particles, 100 per target)",
        )
    return _experiment(
        name, seed=20170405, steps=15, mc_runs=pick(20, 100),
        region=Region(-100.0, 100.0, -100.0, 100.0), p_d=1.0, clutter_mean=0.0,
        groups=((Region(-30.0, 30.0, -30.0, 30.0), 3),), n_init=400,
        resample_per_target=30, birth_per_target=30, cap=1000, gamma0=3.0, **shared,
        notes="sweep zeta via scripts/sweep_zeta.py --preset good-ratio; p_d=1, no clutter",
    )


# ---------------------------------------------------------------------------
# Single run
# ---------------------------------------------------------------------------


def _make_filters(cfg: ExperimentConfig, run: int, sensor_model: SensorModel) -> dict:
    survival = SurvivalModel(cfg.p_s, cfg.filter_dynamics)
    names = ("dpp", "ppp") if cfg.filter == "both" else (cfg.filter,)
    classes = {"dpp": DppPhdFilter, "ppp": PppPhdFilter}
    return {
        name: classes[name](
            cfg.smc, survival, sensor_model, cfg.sensor.window,
            stream(cfg.seed, run, f"filter-{name}"),
        )
        for name in names
    }


def run_single(cfg: ExperimentConfig, run: int) -> RunRecord:
    """One Monte Carlo run; all randomness comes from (seed, run) streams."""
    sim = TruthSimulator(
        cfg.truth.initial_states(stream(cfg.seed, run, "truth-init")),
        cfg.dynamics,
        cfg.sensor,
        cfg.schedule,
        stream(cfg.seed, run, "truth-motion"),
        stream(cfg.seed, run, "scan"),
        stream(cfg.seed, run, "events"),
    )
    filters = _make_filters(cfg, run, SensorModel(sim.sensor))
    extract_rngs = {name: stream(cfg.seed, run, f"extract-{name}") for name in filters}
    rec = RunRecord(rows=[], updates=[])
    for t in range(1, cfg.steps + 1):
        sensor = sim.sensor
        states, ids, scan = sim.step()
        if sim.sensor is not sensor:  # the schedule changed the clutter mean
            sensor_model = SensorModel(sim.sensor)
            for f in filters.values():
                f.sensor = sensor_model
        truth_xy = states[:, [0, 2]] if states.size else np.zeros((0, 2))
        for name, filt in filters.items():
            step_rec = filt.step(scan)
            if name == "dpp":
                rec.updates.append(step_rec.diagnostics)
            particles = filt.state.states
            intensity = filt.state.intensity
            gamma = filt.state.gamma
            est = extract_estimates(particles[:, [0, 2]], intensity, gamma, extract_rngs[name])
            ospa_v = ospa(truth_xy, est, cfg.ospa_c, cfg.ospa_p)
            omat_v = (
                omat(truth_xy, est) if truth_xy.shape[0] and est.shape[0] else None
            )
            ratio, gain = good_estimate_stats(scan, est, (ids, truth_xy))
            row = {
                "run": run,
                "t": t,
                "filter": name,
                "count_truth": states.shape[0],
                "count_estimate": gamma,
                "ospa": ospa_v,
                "omat": omat_v,
                "good_ratio": ratio,
                "gain": gain,
                "count_A": None,
                "count_B": None,
                "corr_AB": None,
            }
            if cfg.domains is not None:
                a, b = cfg.domains
                row["count_A"] = float(np.sum(intensity[a.contains_states(particles)]))
                row["count_B"] = float(np.sum(intensity[b.contains_states(particles)]))
                if name == "dpp":
                    try:
                        row["corr_AB"] = correlation_estimate(filt.state, a, b)
                    except DegenerateVariance:
                        row["corr_AB"] = None
            rec.rows.append(row)
    return rec


# ---------------------------------------------------------------------------
# Experiment driver & outputs
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "run",
    "t",
    "filter",
    "count_truth",
    "count_estimate",
    "ospa",
    "omat",
    "good_ratio",
    "gain",
    "count_A",
    "count_B",
    "corr_AB",
)


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list
    clamp_events: int
    offdiag_entries: int
    wall_seconds: float
    out_dir: Optional[Path]
    offdiag_scale_mean: Optional[float] = None  # None: no DPP update ran
    clipped_mass: float = 0.0


# (set, get) thread-count entry points of the OpenBLAS builds numpy and
# scipy ship with or link against, by symbol naming scheme.
_OPENBLAS_THREAD_API = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
_blas_controls: Optional[list] = None


def _blas_thread_controls() -> list:
    """(set, get) thread-count functions of every OpenBLAS loaded in this
    process, found on first use and cached.

    The thread-count environment variables are read only when the library
    loads, i.e. when numpy is imported, so the count is set through the
    library itself.  Where the loaded libraries cannot be listed, or none
    exports these entry points, the list is empty and BLAS keeps its own
    thread count.
    """
    global _blas_controls
    if _blas_controls is None:
        _blas_controls = []
        try:
            with open("/proc/self/maps") as fh:
                paths = {line.split(None, 5)[-1].strip() for line in fh}
        except OSError:
            paths = set()
        for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
            try:
                lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            except OSError:
                continue
            for set_name, get_name in _OPENBLAS_THREAD_API:
                if hasattr(lib, set_name) and hasattr(lib, get_name):
                    _blas_controls.append((getattr(lib, set_name), getattr(lib, get_name)))
                    break
    return _blas_controls


def blas_thread_counts() -> tuple:
    """Current thread count of each OpenBLAS loaded in this process."""
    return tuple(get() for _set, get in _blas_thread_controls())


def _pin_blas_threads() -> None:
    """Pool initializer: one BLAS thread in the worker."""
    for set_threads, _get in _blas_thread_controls():
        set_threads(1)


@contextlib.contextmanager
def _one_blas_thread():
    """One BLAS thread inside the block; the caller's counts come back after."""
    saved = blas_thread_counts()
    _pin_blas_threads()
    try:
        yield
    finally:
        for (set_threads, _get), n in zip(_blas_thread_controls(), saved):
            set_threads(n)


def run_experiment(
    cfg: ExperimentConfig, out_dir=None, threads: int = 1
) -> ExperimentResult:
    """Run all Monte Carlo repetitions and (optionally) write the CSV set.

    Deterministic for a fixed (config, seed): runs own their random streams,
    rows are always collected in run order, and every run uses one BLAS
    thread whether it runs in this process or in a pool worker (BLAS and
    LAPACK routines round differently at other thread counts), so the thread count
    never changes the output bytes.  Worker processes are the only
    parallelism; BLAS threads on top of them would oversubscribe the cores.
    """
    t0 = time.perf_counter()
    runs = list(range(cfg.mc_runs))
    with _one_blas_thread():
        if threads > 1 and cfg.mc_runs > 1:
            with ProcessPoolExecutor(
                max_workers=min(threads, cfg.mc_runs), initializer=_pin_blas_threads
            ) as pool:
                records = list(pool.map(run_single, [cfg] * len(runs), runs))
        else:
            records = [run_single(cfg, r) for r in runs]
    rows = [row for r in records for row in r.rows]
    updates = [d for r in records for d in r.updates]
    wall = time.perf_counter() - t0
    result = ExperimentResult(
        cfg,
        rows,
        sum(d.clamp_events for d in updates),
        sum(d.offdiag_entries for d in updates),
        wall,
        None,
        sum(d.offdiag_scale for d in updates) / len(updates) if updates else None,
        sum((d.clipped_mass for d in updates), 0.0),
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_steps_csv(out / "steps.csv", rows)
        _write_summary_csv(out / "summary.csv", rows)
        _write_meta(out / "meta.txt", result)
        result.out_dir = out
    return result


def _write_steps_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(row[c]) for c in CSV_COLUMNS) + "\n")


def _write_summary_csv(path, rows) -> None:
    groups: dict = {}
    for row in rows:
        groups.setdefault((row["filter"], row["t"]), []).append(row)
    keys = sorted(groups)
    lines = [[fname, str(t)] for fname, t in keys]
    header = ["filter", "t"]
    for metric in CSV_COLUMNS[3:]:
        header += [f"{metric}_mean", f"{metric}_sd"]
        present = [[r[metric] for r in groups[key] if r[metric] is not None] for key in keys]
        stats = {}
        for size in set(map(len, present)) - {0}:
            # one reduction over the groups with as many values: each row of
            # the C-contiguous array reduces exactly as its own 1-D array
            same = [i for i, vals in enumerate(present) if len(vals) == size]
            arr = np.array([present[i] for i in same], dtype=float)
            sd = arr.std(axis=1, ddof=1) if size > 1 else np.zeros(len(same))
            stats.update(zip(same, zip(arr.mean(axis=1).tolist(), sd.tolist())))
        for i, cells in enumerate(lines):
            cells += [repr(x) for x in stats[i]] if i in stats else ["", ""]
    Path(path).write_text("".join(",".join(cells) + "\n" for cells in [header] + lines))


def build_id(config_text: str) -> str:
    """Id of a build and config: a hash of the config's INI text (from
    ``config_to_ini``) and the package version."""
    return hashlib.sha1((config_text + __version__).encode()).hexdigest()[:12]


def peak_rss_mb() -> float:
    """Peak resident set size, in MB, of this process or of its largest
    finished child (the pool workers): the larger ru_maxrss of
    RUSAGE_SELF and RUSAGE_CHILDREN, which Linux reports in KiB."""
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def _write_meta(path, result: ExperimentResult) -> None:
    cfg = result.config
    echo = config_to_ini(cfg)
    with open(path, "w") as fh:
        fh.write(f"dpptrack version = {__version__}\n")
        fh.write(f"build id = {build_id(echo)}\n")
        fh.write(f"experiment = {cfg.name}\n")
        fh.write(f"seed = {cfg.seed}\n")
        fh.write(f"mc_runs = {cfg.mc_runs}\n")
        fh.write(f"steps = {cfg.steps}\n")
        fh.write(f"filter = {cfg.filter}\n")
        fh.write(f"scale notes = {cfg.notes}\n")
        fh.write(f"sqrt clamp events = {result.clamp_events}\n")
        fh.write(f"offdiag entries updated = {result.offdiag_entries}\n")
        scale = result.offdiag_scale_mean
        fh.write(f"mean offdiag scale = {'n/a' if scale is None else f'{scale:.6f}'}\n")
        fh.write(f"clipped diagonal mass = {result.clipped_mass:.6g}\n")
        fh.write(f"wall seconds = {result.wall_seconds:.3f}\n")
        fh.write(f"openblas libraries pinned = {len(_blas_thread_controls())}\n")
        fh.write(f"peak rss mb = {peak_rss_mb():.1f}\n")
        fh.write("\n# config echo\n")
        fh.write(echo)


# ---------------------------------------------------------------------------
# Config file format (flat INI sections mirroring ExperimentConfig)
# ---------------------------------------------------------------------------


def _region_str(r: Region) -> str:
    return f"{r.x_min!r} {r.x_max!r} {r.y_min!r} {r.y_max!r}"


def _parse_region(text: str) -> Region:
    vals = [float(v) for v in text.split()]
    if len(vals) != 4:
        raise ConfigError(f"region needs 4 numbers, got {text!r}")
    return Region(*vals)


def _sched_dict_str(d: dict) -> str:
    return ";".join(f"{k}:{v}" for k, v in sorted(d.items()))


def _parse_sched_dict(text: str, cast) -> dict:
    out = {}
    text = text.strip()
    if not text:
        return out
    for part in text.split(";"):
        k, v = part.split(":")
        out[int(k)] = cast(v)
    return out


# (write, parse) per field type; fields of any other type are written by
# hand in config_to_ini and config_from_ini.
_CODECS = {
    str: (str, str),
    int: (str, int),
    float: (repr, float),
    Optional[Region]: (
        lambda r: "" if r is None else _region_str(r),
        lambda text: _parse_region(text) if text else None,
    ),
    dict[int, int]: (_sched_dict_str, lambda text: _parse_sched_dict(text, int)),
    dict[int, float]: (_sched_dict_str, lambda text: _parse_sched_dict(text, float)),
}


@functools.cache  # one entry per config dataclass; type hints are slow to resolve
def flat_fields(cls) -> tuple:
    """(field, (write, parse)) for each field of the config dataclass cls
    that the codec reads and writes by its type, in declaration order."""
    hints = get_type_hints(cls)
    return tuple((f, _CODECS[hints[f.name]]) for f in fields(cls) if hints[f.name] in _CODECS)


def _write_fields(obj) -> dict:
    return {f.name: write(getattr(obj, f.name)) for f, (write, _) in flat_fields(type(obj))}


def _read_config(cls, section, **given):
    """cls with its flat fields parsed from an INI section.  ``given`` holds
    the other fields and fallbacks for missing keys; a missing key with no
    fallback takes the dataclass default, and one with neither is an error."""
    kwargs = dict(given)
    for f, (_, parse) in flat_fields(cls):
        if f.name in section:
            kwargs[f.name] = parse(section[f.name])
        elif f.name not in given and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"[{section.name}] needs {f.name}")
    return cls(**kwargs)


def config_to_ini(cfg: ExperimentConfig) -> str:
    cp = configparser.ConfigParser(interpolation=None)
    cp["experiment"] = _write_fields(cfg)
    cp["dynamics"] = _write_fields(cfg.dynamics)
    cp["filter_dynamics"] = _write_fields(cfg.filter_dynamics)
    win = cfg.sensor.window
    cp["sensor"] = {
        **_write_fields(cfg.sensor),
        "window": _region_str(win.region),
        "speed": f"{win.speed_min!r} {win.speed_max!r}",
        "turn": f"{win.turn_min!r} {win.turn_max!r}",
    }
    cp["smc"] = _write_fields(cfg.smc)
    cp["truth"] = {
        "groups": ";".join(f"{_region_str(r)}:{n}" for r, n in cfg.truth.groups),
        **_write_fields(cfg.truth),
    }
    cp["schedule"] = _write_fields(cfg.schedule)
    if cfg.domains is not None:
        cp["domains"] = {
            "a": _region_str(cfg.domains[0]),
            "b": _region_str(cfg.domains[1]),
        }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# Keys older configs wrote, each with the one value the filters implement.
_FIXED_KEYS = {
    ("experiment", "double_update"): "true",
    ("experiment", "birth_mass"): "adaptive",
    ("experiment", "min_birth_particles"): "-1",
    ("smc", "resample_mode"): "multinomial",
    ("dynamics", "repulsion_norm"): "state",
    ("filter_dynamics", "repulsion_norm"): "state",
}


def _check_keys(cp: configparser.ConfigParser, cfg: ExperimentConfig) -> None:
    """Refuse every key the reader did not use, i.e. that the echo of the
    config it read does not write, other than a _FIXED_KEYS key at its value."""
    echo = configparser.ConfigParser(interpolation=None)
    echo.read_string(config_to_ini(cfg))
    for section in cp.sections():
        for key, value in cp[section].items():
            only = _FIXED_KEYS.get((section, key))
            if only is None and not echo.has_option(section, key):
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            if only is not None and value.lower() != only:
                raise ConfigError(f"{key} = {value!r} is not supported; the only value is {only}")


def config_from_ini(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    try:
        sen = cp["sensor"]
        window = Window(_parse_region(sen["window"]))  # its velocity and turn defaults
        if "speed" in sen:
            low, high = (float(v) for v in sen["speed"].split())
            window = replace(window, speed_min=low, speed_max=high)
        if "turn" in sen:
            low, high = (float(v) for v in sen["turn"].split())
            window = replace(window, turn_min=low, turn_max=high)
        groups = []
        for part in cp["truth"]["groups"].split(";"):
            region_text, count = part.rsplit(":", 1)
            groups.append((_parse_region(region_text), int(count)))
        domains = None
        if cp.has_section("domains"):
            domains = (_parse_region(cp["domains"]["a"]), _parse_region(cp["domains"]["b"]))
        cfg = _read_config(
            ExperimentConfig,
            cp["experiment"],
            name="custom",
            filter="dpp",
            dynamics=_read_config(DynamicsConfig, cp["dynamics"]),
            filter_dynamics=_read_config(DynamicsConfig, cp["filter_dynamics"]),
            sensor=_read_config(SensorConfig, sen, window=window),
            truth=_read_config(TruthSpec, cp["truth"], groups=tuple(groups)),
            schedule=_read_config(EventSchedule, cp["schedule"]),
            smc=_read_config(SmcConfig, cp["smc"]),
            domains=domains,
        )
    except (KeyError, ValueError) as e:
        raise ConfigError(f"bad experiment config: {e}") from e
    _check_keys(cp, cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    return config_from_ini(Path(path).read_text())
