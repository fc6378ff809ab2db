"""Classical SMC Poisson PHD filter: the zero-interaction baseline.

Particles carry intensity weights whose sum is the expected target count.
Each step runs the SMC-PHD pipeline shared with the determinantal filter
(``smc.phd_step``) on this O(N) weight-vector representation, so only the
weight update differs between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIntensity
from .likelihood import SensorModel
from .scenario import DynamicsConfig, Scan, Window, step_dynamics
from .smc import BirthScheme, ParticleSet, SmcConfig, birth_count, phd_step


@dataclass(frozen=True)
class SurvivalModel:
    """Survival probability plus the filter-side motion model."""

    p_s: float
    dynamics: DynamicsConfig

    def __post_init__(self):
        if not (0.0 <= self.p_s <= 1.0):
            raise ValueError("p_s must lie in [0, 1]")


@dataclass(frozen=True)
class WeightedParticles:
    states: np.ndarray  # (N, 5)
    weights: np.ndarray  # (N,) intensity masses

    def __post_init__(self):
        st = np.asarray(self.states, dtype=float).reshape(-1, 5)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (st.shape[0],):
            raise ValueError("one weight per particle")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        object.__setattr__(self, "states", st)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def mass(self) -> float:
        return float(np.sum(self.weights))

    @property
    def positions(self) -> np.ndarray:
        return self.states[:, [0, 2]]


def ppp_predict(
    p: WeightedParticles,
    survival: SurvivalModel,
    birth: BirthScheme,
    window: Window,
    rng: np.random.Generator,
) -> WeightedParticles:
    """Push particles through the motion model, scale by p_s, append births."""
    if len(p):
        states = step_dynamics(p.states, survival.dynamics, rng)
        weights = p.weights * survival.p_s
    else:
        states = p.states
        weights = p.weights
    gamma = float(np.sum(weights))
    n_birth, mass = birth_count(birth, gamma)
    if n_birth > 0:
        born = window.sample_states(n_birth, rng)
        states = np.vstack([states, born]) if len(p) else born
        weights = np.concatenate([weights, np.full(n_birth, mass / n_birth)])
    return WeightedParticles(states, weights)


def corrector_denominators(
    clutter: np.ndarray, like: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """l_c(z) + sum_u l~_d(z|x_u) w_u, one per detection.

    Raises DegenerateIntensity when one is 0: nothing explains that
    detection (no clutter there and zero likelihood under every weighted
    particle), so the corrector would divide 0 by 0 and every particle's
    posterior weight would be NaN or inf.
    """
    denom = clutter + like @ weights
    unexplained = np.flatnonzero(denom == 0.0)
    if unexplained.size:
        raise DegenerateIntensity(
            f"detection {unexplained[0]} has zero clutter density and zero"
            " likelihood under every weighted particle"
        )
    return denom


def poisson_weight_update(
    weights: np.ndarray, like: np.ndarray, clutter: np.ndarray, q_d: float
) -> np.ndarray:
    """Classical PHD corrector.

    w_i <- w_i * (q_d + sum_z l~_d(z|x_i) / (l_c(z) + sum_u l~_d(z|x_u) w_u)).
    Raises DegenerateIntensity when a denominator is 0.
    """
    weights = np.asarray(weights, dtype=float)
    if like.shape[0] == 0:
        return weights * q_d
    denom = corrector_denominators(clutter, like, weights)
    corrector = q_d + (like / denom[:, None]).sum(axis=0)
    return weights * corrector


def ppp_update(p: WeightedParticles, scan: Scan, sensor: SensorModel) -> WeightedParticles:
    like = sensor.tilde_matrix(scan.detections, p.states)
    clutter = sensor.clutter_density(scan.detections)
    return WeightedParticles(p.states, poisson_weight_update(p.weights, like, clutter, sensor.q_d))


@dataclass
class PppStepRecord:
    gamma: float
    particles: WeightedParticles


class PppPhdFilter:
    """Stateful SMC-PHD filter: ``smc.phd_step`` on a weight vector."""

    def __init__(
        self,
        smc: SmcConfig,
        survival: SurvivalModel,
        birth: BirthScheme,
        sensor: SensorModel,
        window: Window,
        rng: np.random.Generator,
    ):
        self.smc = smc
        self.survival = survival
        self.birth = birth
        self.sensor = sensor
        self.window = window
        self.rng = rng
        states = window.sample_states(smc.n_init, rng)
        weights = np.full(smc.n_init, smc.gamma0 / smc.n_init)
        self.particles = WeightedParticles(states, weights)
        self.gamma = smc.gamma0

    def step(self, scan: Scan) -> PppStepRecord:
        self.particles = phd_step(self, scan)
        self.gamma = self.particles.mass
        return PppStepRecord(self.gamma, self.particles)

    # the weight-vector half of smc.phd_step

    def predicted(self) -> WeightedParticles:
        return ppp_predict(self.particles, self.survival, self.birth, self.window, self.rng)

    def posterior_intensity(self, pred: WeightedParticles, scan: Scan) -> np.ndarray:
        return ppp_update(pred, scan, self.sensor).weights

    def kept(
        self, pred: WeightedParticles, intensity: np.ndarray, scan: Scan
    ) -> WeightedParticles:
        return WeightedParticles(pred.states, intensity)

    def rebuilt(self, particles: ParticleSet, gamma: float) -> WeightedParticles:
        size = len(particles)
        return WeightedParticles(particles.states, np.full(size, gamma / size))

    def updated(self, p: WeightedParticles, scan: Scan) -> WeightedParticles:
        return ppp_update(p, scan, self.sensor)

    def count_in(self, region) -> float:
        inside = region.contains_states(self.particles.states)
        return float(np.sum(self.particles.weights[inside]))
