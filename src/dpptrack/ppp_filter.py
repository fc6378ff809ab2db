"""Classical SMC Poisson PHD filter: the zero-interaction baseline.

Particles carry intensity weights whose sum is the expected target count.
Each step runs the SMC-PHD pipeline shared with the determinantal filter
(``smc.phd_step``) on this O(N) weight-vector representation, with the
same births (``smc.birth_count``), so only the weight update differs
between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIntensity
from .likelihood import SensorModel
from .scenario import DynamicsConfig, Scan, Window
from .smc import SmcConfig, phd_step, predict_states


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
    def intensity(self) -> np.ndarray:
        """Intensity mass per particle: the weights."""
        return self.weights

    @property
    def gamma(self) -> float:
        """Expected target count: the total intensity mass."""
        return float(np.sum(self.weights))


def ppp_predict(
    p: WeightedParticles,
    survival: SurvivalModel,
    birth_per_target: int,
    window: Window,
    rng: np.random.Generator,
) -> WeightedParticles:
    """Move the particles and draw the births (``smc.predict_states``),
    scale the weights by p_s and append the births, each of weight birth
    mass / count."""
    states, born, mass = predict_states(
        p.states, p.weights, survival, birth_per_target, window, rng
    )
    weights = p.weights * survival.p_s
    if len(born):
        states = np.vstack([states, born])
        weights = np.concatenate([weights, np.full(len(born), mass / len(born))])
    return WeightedParticles(states, weights)


def corrector_terms(
    clutter: np.ndarray, like: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First-moment corrector terms shared by both filters.

    s_c(z) = l_c(z) + sum_u l~_d(z|x_u) w_u, one per detection, and
    sum_z l~_d(z|x) / s_c(z), one per particle.  An empty scan gives no
    s_c and a zero sum.

    Raises DegenerateIntensity when an s_c is 0: nothing explains that
    detection (no clutter there and zero likelihood under every weighted
    particle), so the corrector would divide 0 by 0 and every particle's
    posterior weight would be NaN or inf.
    """
    sc = clutter + like @ weights
    unexplained = np.flatnonzero(sc == 0.0)
    if unexplained.size:
        raise DegenerateIntensity(
            f"detection {unexplained[0]} has zero clutter density and zero"
            " likelihood under every weighted particle"
        )
    return sc, (like / sc[:, None]).sum(axis=0)


def poisson_weight_update(
    weights: np.ndarray, like: np.ndarray, clutter: np.ndarray, q_d: float
) -> np.ndarray:
    """Classical PHD corrector.

    w_i <- w_i * (q_d + sum_z l~_d(z|x_i) / (l_c(z) + sum_u l~_d(z|x_u) w_u)).
    Raises DegenerateIntensity when a denominator is 0.
    """
    weights = np.asarray(weights, dtype=float)
    return weights * (q_d + corrector_terms(clutter, like, weights)[1])


def posterior_weights(p: WeightedParticles, scan: Scan, sensor: SensorModel) -> np.ndarray:
    """The classical corrector's weights of p against the scan."""
    like = sensor.tilde_matrix(scan.detections, p.states)
    clutter = sensor.clutter_density(scan.detections)
    return poisson_weight_update(p.weights, like, clutter, sensor.q_d)


def ppp_update(p: WeightedParticles, scan: Scan, sensor: SensorModel) -> WeightedParticles:
    return WeightedParticles(p.states, posterior_weights(p, scan, sensor))


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
        sensor: SensorModel,
        window: Window,
        rng: np.random.Generator,
    ):
        self.smc = smc
        self.survival = survival
        self.sensor = sensor
        self.window = window
        self.rng = rng
        self.state = self.rebuilt(window.sample_states(smc.n_init, rng), smc.gamma0)

    def step(self, scan: Scan) -> PppStepRecord:
        self.state = phd_step(self, scan)
        return PppStepRecord(self.state.gamma, self.state)

    # the weight-vector half of smc.phd_step

    def predicted(self) -> WeightedParticles:
        return ppp_predict(
            self.state, self.survival, self.smc.birth_per_target, self.window, self.rng
        )

    def posterior_intensity(self, pred: WeightedParticles, scan: Scan) -> np.ndarray:
        return posterior_weights(pred, scan, self.sensor)

    def rebuilt(self, states: np.ndarray, gamma: float) -> WeightedParticles:
        size = len(states)
        return WeightedParticles(states, np.full(size, gamma / size))

    def updated(self, p: WeightedParticles, scan: Scan) -> WeightedParticles:
        return ppp_update(p, scan, self.sensor)
