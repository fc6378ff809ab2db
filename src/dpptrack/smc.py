"""Particle lifecycle shared by both filters: initialization, the move and
birth draw of the prediction, multinomial resampling with roughening, kernel
(re-)initialization, and the SMC-PHD step that strings them together.

Each particle is a state point of unit reference mass, matching the
pseudocode convention: a particle kernel is its operator matrix, its
diagonal holds the per-particle intensity masses, and integrals against
it are plain sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIntensity, SpectrumError
from .kernels import DELTA, DiscretizedKernel
from .scenario import Scan, Window, step_dynamics


@dataclass(frozen=True)
class SmcConfig:
    n_init: int = 800                # N_{Phi,0}
    resample_per_target: int = 30    # P_p
    birth_per_target: int = 10       # P_b, birth particles per target (birth_count)
    cap: int = 1000                  # hard particle cap
    roughening_scale: float = 0.05   # jitter s.d. fraction of domain extent
    alpha: float = 4.0               # band strength rho = alpha / (1 + alpha)
    band_eta: float = 0.1            # index-band fraction
    gamma0: float = 2.0              # prior intensity at t = 0

    def __post_init__(self):
        if min(self.n_init, self.resample_per_target, self.birth_per_target, self.cap) <= 0:
            raise ValueError("particle counts must be positive")
        if not (0.0 < self.band_eta < 1.0):
            raise ValueError("band_eta must lie in (0, 1)")
        if not (
            0.0 <= self.roughening_scale < math.inf
            and 0.0 <= self.alpha < math.inf
            and 0.0 < self.gamma0 < math.inf
        ):
            raise ValueError(
                "roughening_scale and alpha must be finite and >= 0, gamma0 finite and > 0"
            )


def birth_count(per_target: int, gamma: float) -> tuple[int, float]:
    """(number of birth particles, total birth mass) at predicted count gamma.

    The birth mass is gamma, on per_target particles per whole target; when
    gamma floors to 0, one target's worth of particles carries it, so the
    filter cannot die out.
    """
    n = per_target * int(math.floor(gamma))
    return n or per_target, gamma


def predict_states(
    states: np.ndarray,
    intensity: np.ndarray,
    survival,
    birth_per_target: int,
    window: Window,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, float]:
    """The particle half of the prediction, shared by both filters: the
    states moved under ``survival.dynamics`` (a ``ppp_filter.SurvivalModel``),
    and birth_count particles at the surviving mass sum(p_s * intensity),
    drawn uniformly over the window.  Returns (moved states, birth states,
    total birth mass)."""
    if len(states):
        states = step_dynamics(states, survival.dynamics, rng)
    n, mass = birth_count(birth_per_target, float(np.sum(survival.p_s * intensity)))
    return states, window.sample_states(n, rng), mass


def banded_kernel(
    points: np.ndarray, gamma: float, alpha: float, eta: float
) -> DiscretizedKernel:
    """Correlation kernel of mass gamma on the points, feasible by
    construction.

    K = (gamma/n) [(1 - rho) I + rho F] inside the index band
    |i - j| <= b = floor(eta * n), the kernel's one band (n, b), and zero
    outside, written diagonal by diagonal into the band's rows, with the
    triangular (Fejer) profile
    F[i, j] = 1 - |i - j| / (b + 1).  F is positive semidefinite for
    every b (its symbol is the Fejer kernel, nonnegative by Herglotz/Bochner)
    and its row sums are at most 1 + b, so with

        rho = min(alpha / (1 + alpha), ((1 - DELTA) n / gamma - 1) / b)

    the operator spectrum lies in [0, 1 - DELTA] by Gershgorin.  The
    diagonal is exactly gamma/n, so the trace is the count gamma, and
    alpha = 0 gives the diagonal kernel; no eigendecomposition is needed.

    Raises SpectrumError when gamma/n lies outside [0, 1 - DELTA], where no
    kernel with that diagonal is a valid correlation kernel; on no points
    only gamma = 0 is valid, and gives the empty kernel.
    """
    n = len(points)
    if not 0.0 <= gamma <= (1.0 - DELTA) * n:
        diagonal = gamma / n if n else math.inf
        raise SpectrumError(
            f"diagonal gamma/n = {diagonal:.6g} lies outside [0, 1 - delta] (delta={DELTA:g})"
        )
    if n == 0:
        return DiscretizedKernel.from_profile([0.0], 0)
    scale = gamma / n
    b = math.floor(eta * n)
    profile = np.zeros(b + 1)
    profile[0] = scale
    if alpha > 0.0 and b > 0 and gamma > 0.0:
        rho = min(alpha / (1.0 + alpha), ((1.0 - DELTA) * n / gamma - 1.0) / b)
        profile[1:] = scale * rho * (1.0 - np.arange(1, b + 1) / (b + 1))
    return DiscretizedKernel.from_profile(profile, n)


def init_particles(
    cfg: SmcConfig, window: Window, rng: np.random.Generator
) -> tuple[np.ndarray, DiscretizedKernel]:
    """Uniform initial particles (N, 5) plus the prior kernel at mass gamma0."""
    states = window.sample_states(cfg.n_init, rng)
    return states, rebuild_kernel(states, cfg, cfg.gamma0)


def roughening_sd(extents: np.ndarray, scale: float, count: int) -> np.ndarray:
    """Per-dimension jitter s.d.: scale * extent * N^(-1/d)."""
    if count <= 0:
        return np.zeros_like(extents)
    d = extents.shape[0]
    return scale * extents * count ** (-1.0 / d)


def select_ids(
    intensity: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Source indices of ``size`` independent draws proportional to intensity."""
    intensity = np.clip(np.asarray(intensity, dtype=float), 0.0, None)
    probs = intensity / intensity.sum()
    counts = rng.multinomial(size, probs)
    return np.repeat(np.arange(probs.shape[0]), counts)


def resample_size(cfg: SmcConfig, gamma: float) -> int:
    """Particles after resampling at count gamma: min(P_p * floor(gamma), cap),
    with gamma raised by 1e-9 so that a count that is an integer in exact
    arithmetic does not lose one target's particles to a rounding error."""
    return min(cfg.resample_per_target * int(math.floor(gamma + 1e-9)), cfg.cap)


def resample(
    intensity: np.ndarray,
    states: np.ndarray,
    cfg: SmcConfig,
    window: Window,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """``size`` multinomial draws of states proportional to intensity, then
    Gaussian roughening.

    Raises DegenerateIntensity when nothing has mass.  No caller catches it:
    it propagates out of ``harness.run_experiment``, which then writes no
    output file, so one lost run aborts the whole experiment.
    """
    intensity = np.asarray(intensity, dtype=float)
    if float(intensity.sum()) <= 0.0 or not np.any(intensity > 0):
        raise DegenerateIntensity("all particle intensities are zero")
    ids = select_ids(intensity, size, rng)
    resampled = states[ids].copy()
    sd = roughening_sd(window.extents(), cfg.roughening_scale, size)
    if np.any(sd > 0):
        resampled += rng.standard_normal(resampled.shape) * sd
    return resampled


def rebuild_kernel(
    particles: np.ndarray, cfg: SmcConfig, gamma: float
) -> DiscretizedKernel:
    """Fresh kernel of mass gamma on the particles (see banded_kernel)."""
    return banded_kernel(particles, gamma, cfg.alpha, cfg.band_eta)


def phd_step(rep, scan: Scan):
    """One SMC-PHD step (Vo, Singh & Doucet 2005), shared by both filters.

    Predict; compute the posterior intensity per particle and its total
    gamma; draw resample_size(gamma) particles with roughening; rebuild the
    representation on them at mass gamma; update it again against the same
    scan.  When the size is 0 the filter is nearly empty: the predicted cloud
    is kept, updated against the scan, and births re-seed it.  The two
    filters differ only in ``rep``, which carries ``smc``, ``window`` and
    ``rng`` and the kernel representation's half of the step:

    - ``rep.predicted()``: the predicted state, with ``states`` per particle;
    - ``rep.posterior_intensity(pred, scan)``: the posterior intensity of
      each predicted particle;
    - ``rep.rebuilt(states, gamma)``: a state on the resampled (N, 5)
      particle states;
    - ``rep.updated(state, scan)``: the step's result after the update.

    Raises DegenerateIntensity when gamma is not finite.
    """
    pred = rep.predicted()
    intensity = rep.posterior_intensity(pred, scan)
    gamma = float(np.sum(intensity))
    if not math.isfinite(gamma):
        raise DegenerateIntensity(f"posterior count is {gamma}")
    size = resample_size(rep.smc, gamma)
    if size <= 0:
        return rep.updated(pred, scan)
    resampled = resample(intensity, pred.states, rep.smc, rep.window, rep.rng, size)
    return rep.updated(rep.rebuilt(resampled, gamma), scan)
