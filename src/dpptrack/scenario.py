"""Ground-truth generation: repulsive nearly-constant-turn targets,
range-bearing sensing with misdetection and Poisson clutter, and scripted
death/birth/forced-miss events.

Target states are 5-vectors (x, xdot, y, ydot, theta) in SI units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DegenerateGeometry, ScheduleError


@dataclass(frozen=True)
class DynamicsConfig:
    tau: float = 1.0                # sampling period, s
    sigma_vx: float = 1.0           # acceleration noise, m/s^2
    sigma_vy: float = 1.0
    sigma_vtheta: float = math.pi   # turn-rate noise, rad/s
    zeta_x: float = 0.0             # repulsion strength, m per step
    zeta_y: float = 0.0

    def __post_init__(self):
        # chained comparisons with math.inf refuse NaN and infinities too
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be finite and positive")
        if not all(0.0 <= s < math.inf for s in (self.sigma_vx, self.sigma_vy, self.sigma_vtheta)):
            raise ValueError("sigma_vx, sigma_vy and sigma_vtheta must be finite and nonnegative")
        if not all(-math.inf < z < math.inf for z in (self.zeta_x, self.zeta_y)):
            raise ValueError("zeta_x and zeta_y must be finite")


def turn_transitions(theta: np.ndarray, tau: float) -> np.ndarray:
    """Nearly-constant-turn transition matrices, one (5, 5) matrix per turn
    rate in ``theta``.

    The sin(tau*theta)/theta entries are replaced by their theta -> 0 limits
    (tau and 0) below 1e-9 to keep the straight-line case exact.
    """
    theta = np.asarray(theta, dtype=float)
    straight = np.abs(theta) < 1e-9
    safe = np.where(straight, 1.0, theta)
    c = np.where(straight, 1.0, np.cos(tau * theta))
    s = np.where(straight, 0.0, np.sin(tau * theta))
    s_over = np.where(straight, tau, s / safe)
    c_over = np.where(straight, 0.0, (c - 1.0) / safe)
    f = np.zeros(theta.shape + (5, 5))
    f[..., 0, 0] = f[..., 2, 2] = f[..., 4, 4] = 1.0
    f[..., 0, 1] = f[..., 2, 3] = s_over
    f[..., 0, 3] = f[..., 2, 1] = c_over
    f[..., 1, 1] = f[..., 3, 3] = c
    f[..., 1, 3] = -s
    f[..., 3, 1] = s
    return f


def noise_gain(tau: float) -> np.ndarray:
    return np.array(
        [
            [tau**2 / 2, 0.0, 0.0],
            [tau, 0.0, 0.0],
            [0.0, tau**2 / 2, 0.0],
            [0.0, tau, 0.0],
            [0.0, 0.0, tau],
        ]
    )


def repulsion_term(states: np.ndarray, cfg: DynamicsConfig) -> np.ndarray:
    """Pairwise unit-direction repulsion, scaled by (zeta_x, zeta_y).

    Normalizes by the full state-vector difference as printed.
    """
    n = states.shape[0]
    out = np.zeros_like(states)
    if n < 2 or (cfg.zeta_x == 0.0 and cfg.zeta_y == 0.0):
        return out
    for i in range(n):
        sx = sy = 0.0
        for j in range(n):
            if j == i:
                continue
            diff = states[i] - states[j]
            norm = float(np.linalg.norm(diff))
            if norm == 0.0:
                raise DegenerateGeometry(f"targets {i} and {j} coincide")
            sx += diff[0] / norm
            sy += diff[2] / norm
        out[i, 0] = cfg.zeta_x * sx
        out[i, 2] = cfg.zeta_y * sy
    return out


def step_dynamics(
    states: np.ndarray, cfg: DynamicsConfig, rng: np.random.Generator
) -> np.ndarray:
    """Advance every target one step: F(theta) x + G v + repulsion."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    n = states.shape[0]
    gmat = noise_gain(cfg.tau)
    sig = np.array([cfg.sigma_vx, cfg.sigma_vy, cfg.sigma_vtheta])
    noise = rng.standard_normal((n, 3)) * sig
    rep = repulsion_term(states, cfg)
    f = turn_transitions(states[:, 4], cfg.tau)
    moved = (f @ states[:, :, None])[:, :, 0]
    return moved + (gmat @ noise[:, :, None])[:, :, 0] + rep


# ---------------------------------------------------------------------------
# Sensing
# ---------------------------------------------------------------------------


def _finite_ranges(*ranges) -> bool:
    """Whether every (low, high) pair is finite with low <= high."""
    return all(-math.inf < low <= high < math.inf for low, high in ranges)


@dataclass(frozen=True)
class Region:
    """Axis-aligned position rectangle."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not _finite_ranges((self.x_min, self.x_max), (self.y_min, self.y_max)):
            raise ValueError("region bounds must be finite, with x_min <= x_max and y_min <= y_max")

    def contains_states(self, states: np.ndarray) -> np.ndarray:
        return (
            (states[:, 0] >= self.x_min)
            & (states[:, 0] <= self.x_max)
            & (states[:, 2] >= self.y_min)
            & (states[:, 2] <= self.y_max)
        )

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))


@dataclass(frozen=True)
class Window:
    """State-space bounds: a position rectangle plus velocity/turn ranges."""

    region: Region
    speed_min: float = -5.0
    speed_max: float = 5.0
    turn_min: float = -0.2
    turn_max: float = 0.2

    def __post_init__(self):
        if not _finite_ranges((self.speed_min, self.speed_max), (self.turn_min, self.turn_max)):
            raise ValueError("window speed and turn bounds must be finite, with min <= max")

    def sample_states(self, count: int, rng: np.random.Generator) -> np.ndarray:
        r = self.region
        out = np.empty((count, 5))
        out[:, 0] = rng.uniform(r.x_min, r.x_max, count)
        out[:, 1] = rng.uniform(self.speed_min, self.speed_max, count)
        out[:, 2] = rng.uniform(r.y_min, r.y_max, count)
        out[:, 3] = rng.uniform(self.speed_min, self.speed_max, count)
        out[:, 4] = rng.uniform(self.turn_min, self.turn_max, count)
        return out

    def extents(self) -> np.ndarray:
        r = self.region
        return np.array(
            [
                r.x_max - r.x_min,
                self.speed_max - self.speed_min,
                r.y_max - r.y_min,
                self.speed_max - self.speed_min,
                self.turn_max - self.turn_min,
            ]
        )


@dataclass(frozen=True)
class SensorConfig:
    sigma_range: float = math.sqrt(2.0)     # m
    sigma_bearing: float = math.pi          # rad
    p_d: float = 0.9
    clutter_mean: float = 5.0               # expected clutter points per scan
    window: Window = field(
        default_factory=lambda: Window(Region(-100.0, 100.0, -100.0, 100.0))
    )

    def __post_init__(self):
        if not (0.0 <= self.p_d <= 1.0):
            raise ValueError("p_d must lie in [0, 1]")
        # the likelihood divides by both sigmas
        if not (0.0 < self.sigma_range < math.inf and 0.0 < self.sigma_bearing < math.inf):
            raise ValueError("sigma_range and sigma_bearing must be finite and positive")
        if not 0.0 <= self.clutter_mean < math.inf:
            raise ValueError("clutter_mean must be finite and nonnegative")
        if self.window.region.area == 0.0:  # the clutter density divides by it
            raise ValueError("the window region must have a positive area")


@dataclass(frozen=True)
class Scan:
    """One time step of detections: rows are (range m, bearing rad).

    truth_links gives the originating target id per detection (-1 for
    clutter); it is metrics-only metadata, never visible to the filters.
    """

    time: int
    detections: np.ndarray  # (m, 2)
    truth_links: Optional[np.ndarray] = None  # (m,) int

    def __post_init__(self):
        det = np.asarray(self.detections, dtype=float).reshape(-1, 2)
        object.__setattr__(self, "detections", det)
        if self.truth_links is not None:
            links = np.asarray(self.truth_links, dtype=int)
            if links.shape != (det.shape[0],):
                raise ValueError("truth_links length must match detections")
            object.__setattr__(self, "truth_links", links)

    def __len__(self) -> int:
        return self.detections.shape[0]

    def cartesian(self) -> np.ndarray:
        r = self.detections[:, 0]
        b = self.detections[:, 1]
        return np.column_stack([r * np.cos(b), r * np.sin(b)])


def to_polar(states: np.ndarray) -> np.ndarray:
    """(range, bearing) of each state; bearing via quadrant-correct atan2."""
    x, y = states[:, 0], states[:, 2]
    return np.column_stack([np.hypot(x, y), np.arctan2(y, x)])


def wrap_angle(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def generate_scan(
    states: np.ndarray,
    ids,
    sensor: SensorConfig,
    forced_misses: frozenset | set,
    rng: np.random.Generator,
    time: int = 0,
) -> Scan:
    """Detect each target independently with probability p_d, add clutter.

    Clutter positions are uniform over the window rectangle and reported in
    range-bearing coordinates, realizing a spatially constant clutter
    density over the window.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float)) if len(states) else np.zeros((0, 5))
    ids = list(ids)
    det_rows = []
    links = []
    if states.shape[0]:
        polar = to_polar(states)
        coin = rng.uniform(size=states.shape[0])
        for i, tid in enumerate(ids):
            if tid in forced_misses or coin[i] >= sensor.p_d:
                continue
            r = polar[i, 0] + rng.normal(0.0, sensor.sigma_range)
            b = wrap_angle(polar[i, 1] + rng.normal(0.0, sensor.sigma_bearing))
            det_rows.append((r, b))
            links.append(tid)
    n_clutter = int(rng.poisson(sensor.clutter_mean))
    if n_clutter:
        reg = sensor.window.region
        cx = rng.uniform(reg.x_min, reg.x_max, n_clutter)
        cy = rng.uniform(reg.y_min, reg.y_max, n_clutter)
        for x, y in zip(cx, cy):
            det_rows.append((math.hypot(x, y), math.atan2(y, x)))
            links.append(-1)
    det = np.array(det_rows, dtype=float).reshape(-1, 2)
    return Scan(time, det, np.array(links, dtype=int))


# ---------------------------------------------------------------------------
# Truth layout and scripted events
# ---------------------------------------------------------------------------

def place_targets(
    region: Region, count: int, placement: str, spread: float, speed: float, rng
) -> np.ndarray:
    """``count`` new target states: within +-spread of the region's center
    ("central") or uniform over it ("uniform"), both velocity components
    uniform in +-speed, no turn rate.  Draws x, y, vx, vy in that order."""
    out = np.zeros((count, 5))
    if placement == "central":
        cx, cy = region.center
        out[:, 0] = cx + rng.uniform(-spread, spread, count)
        out[:, 2] = cy + rng.uniform(-spread, spread, count)
    else:
        out[:, 0] = rng.uniform(region.x_min, region.x_max, count)
        out[:, 2] = rng.uniform(region.y_min, region.y_max, count)
    out[:, 1] = rng.uniform(-speed, speed, count)
    out[:, 3] = rng.uniform(-speed, speed, count)
    return out


@dataclass(frozen=True)
class TruthSpec:
    """Initial target layout: (region, count) groups plus placement style."""

    groups: tuple[tuple[Region, int], ...]
    placement: str = "central"  # "central" or "uniform"
    spread: float = 15.0
    speed: float = 1.0

    def __post_init__(self):
        if self.placement not in ("central", "uniform"):
            raise ValueError(f"placement must be central or uniform, got {self.placement!r}")
        if not (0.0 <= self.spread < math.inf and 0.0 <= self.speed < math.inf):
            raise ValueError("spread and speed must be finite and nonnegative")
        if not all(count >= 0 for _region, count in self.groups):
            raise ValueError("group counts must be nonnegative")

    def initial_states(self, rng: np.random.Generator) -> np.ndarray:
        """The initial targets, group by group, drawn from ``rng``."""
        args = (self.placement, self.spread, self.speed, rng)
        return np.vstack([np.zeros((0, 5))] + [place_targets(r, n, *args) for r, n in self.groups])


@dataclass(frozen=True)
class EventSchedule:
    """Deterministic event script for the truth simulator.

    miss_region + miss_cycle force every target inside the region to be
    misdetected at steps that are multiples of the cycle; deaths/births map
    a step index to a count of targets removed (uniformly at random) or
    spawned near the birth region's center; clutter_changes map a step
    index to the clutter mean from that step on.
    """

    miss_region: Optional[Region] = None
    miss_cycle: int = 0
    deaths: dict[int, int] = field(default_factory=dict)    # step -> count
    births: dict[int, int] = field(default_factory=dict)    # step -> count
    birth_region: Optional[Region] = None
    birth_spread: float = 15.0
    clutter_changes: dict[int, float] = field(default_factory=dict)  # step -> new clutter mean

    def __post_init__(self):
        if not all(n >= 0 for n in (*self.deaths.values(), *self.births.values())):
            raise ValueError("deaths and births must be nonnegative counts")
        if not all(0.0 <= c < math.inf for c in self.clutter_changes.values()):
            raise ValueError("clutter_changes means must be finite and nonnegative")
        if not (self.miss_cycle >= 0 and 0.0 <= self.birth_spread < math.inf):
            raise ValueError("miss_cycle must be >= 0, birth_spread finite and nonnegative")
        if (self.miss_region is None) != (self.miss_cycle == 0):
            raise ValueError("miss_region and a miss_cycle > 0 must be set together")
        # the simulator's first step is 1; a step past the run never comes,
        # which lets callers shorten a run with replace(cfg, steps=n)
        if not all(t >= 1 for t in (*self.deaths, *self.births, *self.clutter_changes)):
            raise ValueError("event steps must be >= 1, the first step")


class TruthSimulator:
    """Steps ground truth forward and emits scans.

    Owns the target id bookkeeping and resolves the whole event schedule:
    clutter changes replace ``sensor``, deaths pick uniformly among the
    living, births are placed centrally in the birth region (the window
    when it has none) at ``birth_spread`` with velocities in +-1 m/s, and
    forced misses blind the targets inside the miss region.
    """

    def __init__(
        self,
        initial_states: np.ndarray,
        dynamics: DynamicsConfig,
        sensor: SensorConfig,
        schedule: EventSchedule,
        rng_motion: np.random.Generator,
        rng_scan: np.random.Generator,
        rng_events: np.random.Generator,
    ):
        self.states = np.atleast_2d(np.asarray(initial_states, dtype=float)).copy()
        self.ids = list(range(self.states.shape[0]))
        self._next_id = self.states.shape[0]
        self.dynamics = dynamics
        self.sensor = sensor
        self.schedule = schedule
        self.rng_motion = rng_motion
        self.rng_scan = rng_scan
        self.rng_events = rng_events
        self.t = 0

    def step(self) -> tuple[np.ndarray, list, Scan]:
        """Advance one step; returns (states, ids, scan) at the new time."""
        self.t += 1
        t, sched = self.t, self.schedule
        if self.states.shape[0]:
            self.states = step_dynamics(self.states, self.dynamics, self.rng_motion)
        if t in sched.clutter_changes:
            self.sensor = replace(self.sensor, clutter_mean=float(sched.clutter_changes[t]))
        n_deaths = int(sched.deaths.get(t, 0))
        if n_deaths > len(self.ids):
            raise ScheduleError(f"step {t} kills {n_deaths} targets but only {len(self.ids)} alive")
        if n_deaths:
            doomed = self.rng_events.choice(self.states.shape[0], size=n_deaths, replace=False)
            keep = np.setdiff1d(np.arange(self.states.shape[0]), doomed)
            self.states = self.states[keep]
            self.ids = [self.ids[i] for i in keep]
        n_births = int(sched.births.get(t, 0))
        if n_births:
            region = sched.birth_region or self.sensor.window.region
            born = place_targets(
                region, n_births, "central", sched.birth_spread, 1.0, self.rng_events
            )
            self.states = np.vstack([self.states, born]) if self.states.size else born
            self.ids.extend(range(self._next_id, self._next_id + n_births))
            self._next_id += n_births
        miss = sched.miss_cycle > 0 and t % sched.miss_cycle == 0
        inside = sched.miss_region.contains_states(self.states) if miss else ()
        forced = frozenset(tid for tid, flag in zip(self.ids, inside) if flag)
        scan = generate_scan(self.states, self.ids, self.sensor, forced, self.rng_scan, time=t)
        return self.states.copy(), list(self.ids), scan
