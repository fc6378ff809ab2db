"""Second-order determinantal PHD filter.

Propagates a full posterior kernel on the particle set: the diagonal is the
intensity, the off-diagonal carries pair-interaction (negative-correlation)
information.  Prediction scales the kernel by the survival probability on
the moved particles and appends a birth block; the update applies the
closed-form approximate corrector built from the interaction kernel
J = (Id - K)^{-1} K:

* posterior diagonal:  q_d K(x,x) + sum_z J(x,x) l~(z|x) / s_c(z)
* posterior pair:      (J(x,x)J(y,y) - J(x,y)^2) *
                       [q_d^2 + q_d sum_z (l~(z|x)+l~(z|y))/s_c(z)
                        + sum_{z != z'} l~(z|x) l~(z'|y) / (s_c s_c' - D(z,z'))]
* squared off-diagonal: mu(x) mu(y) - pair(x,y) on the prior kernel's
  bands, once per pair x > y, clamped at zero (clamp events are a health
  diagnostic),

with s_c(z) = l_c(z) + sum_v J(v,v) l~(z|v) and D the pairwise
interaction integral.  The posterior kernel keeps mu as its diagonal; its
off-diagonal is scaled by the largest factor that keeps the spectrum in
[0, 1 - delta], and a diagonal above 1 - delta is clipped there
(``kernels.shrink_to_feasible``).  The prior, birth and rebuilt kernels are
valid by construction (``smc.banded_kernel``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateIntensity, DegenerateVariance
from .kernels import (
    DiscretizedKernel,
    band_pairs,
    cross_covariance,
    interaction_diagonal,
    interaction_kernel,
    pair_index,
    shrink_to_feasible,
)
from .likelihood import SensorModel
from .ppp_filter import SurvivalModel, corrector_terms
from .scenario import Region, Scan, Window
from .smc import (
    SmcConfig,
    banded_kernel,
    init_particles,
    phd_step,
    predict_states,
    rebuild_kernel,
)


@dataclass(frozen=True)
class FilterState:
    """Filter snapshot: particle states (N, 5) and the kernel over them."""

    particles: np.ndarray
    kernel: DiscretizedKernel

    def __post_init__(self):
        if len(self.particles) != len(self.kernel):
            raise ValueError("kernel dimension must equal particle count")

    @property
    def states(self) -> np.ndarray:
        return self.particles

    @property
    def intensity(self) -> np.ndarray:
        """Intensity mass per particle: the kernel diagonal K(x,x)."""
        return self.kernel.diagonal

    @property
    def gamma(self) -> float:
        """Expected target count: the kernel's trace."""
        return float(np.sum(self.intensity))


@dataclass
class UpdateDiagnostics:
    clamp_events: int = 0  # band pairs whose radicand mu mu - rho was negative
    offdiag_entries: int = 0
    offdiag_scale: float = 1.0  # t of shrink_to_feasible; 1 leaves the off-diagonal as it is
    clipped_mass: float = 0.0  # posterior diagonal mass clipped at 1 - delta


def pair_denominators(j2: np.ndarray, like: np.ndarray, sc: np.ndarray) -> np.ndarray:
    """s_c(z) s_c(z') - sum_{u,v} J(u,v)^2 l~(z|u) l~(z'|v), from j2 = J**2."""
    return np.outer(sc, sc) - like @ j2 @ like.T


def posterior_moments(
    kernel: DiscretizedKernel,
    j: np.ndarray,
    like: np.ndarray,
    clutter: np.ndarray,
    q_d: float,
) -> tuple[np.ndarray, np.ndarray]:
    """First moment and pair factorial moment of the approximate posterior,
    from the correlation kernel and its interaction kernel ``j``.  The pair
    moment is given on the kernel's bands, once per pair, at the index
    pairs i > j of ``kernels.pair_index``.

    Raises DegenerateIntensity when a pair denominator
    s_c(z) s_c(z') - D(z, z') is not positive (it is 0 when one particle
    explains two detections with no clutter) or a moment is not finite.
    """
    kd = kernel.diagonal
    jd = np.diag(j).copy()  # contiguous: like @ a strided view rounds differently
    j2 = j**2
    rows, cols = pair_index(kernel.bands)
    at = rows * len(jd) + cols
    pair_j = jd[rows] * jd[cols] - np.take(j2, at)
    np.clip(pair_j, 0.0, None, out=pair_j)  # PSD minors; negatives are roundoff
    sc, per_point = corrector_terms(clutter, like, jd)
    mu = q_d * kd + jd * per_point
    denom = pair_denominators(j2, like, sc)
    inv = np.zeros_like(denom)
    off = ~np.eye(like.shape[0], dtype=bool)
    if np.any(denom[off] <= 0.0):
        raise DegenerateIntensity(
            f"pair denominator reaches {denom[off].min():.3e}; it must be positive"
        )
    with np.errstate(over="ignore"):  # an overflow is raised typed below
        inv[off] = 1.0 / denom[off]
    if not np.all(np.isfinite(inv)):
        raise DegenerateIntensity("pair denominator inverse is not finite")
    cross = like.T @ inv @ like
    factor = q_d**2 + q_d * (per_point[rows] + per_point[cols]) + np.take(cross, at)
    rho = pair_j * factor
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(rho))):
        raise DegenerateIntensity("posterior moments are not finite")
    return mu, rho


def posterior_kernel_entries(
    mu: np.ndarray, rho: np.ndarray, bands
) -> tuple[DiscretizedKernel, int]:
    """Assemble the posterior kernel: mu on the diagonal and sqrt(mu mu - rho)
    off it on the pairs inside ``bands``, with ``rho`` at the index pairs
    i > j of ``pair_index(bands)``.

    A negative radicand means the approximation lost the interaction at that
    pair; it is clamped to zero.  Returns the kernel, whose spectrum
    ``shrink_to_feasible`` then makes valid, and the number of clamped
    pairs.
    """
    rows, cols = pair_index(bands)
    sq = mu[rows] * mu[cols] - rho
    clamped = int(np.count_nonzero(sq < 0))
    np.clip(sq, 0.0, None, out=sq)
    return DiscretizedKernel.from_pairs(mu, np.sqrt(sq), bands), clamped


def dpp_update(
    state: FilterState, scan: Scan, sensor: SensorModel
) -> tuple[FilterState, UpdateDiagnostics]:
    """One measurement update; returns the posterior state.

    The posterior kernel has the posterior intensity mu as its diagonal
    (clipped at 1 - kernels.DELTA), so its trace is the posterior count; its
    off-diagonal is scaled into the valid kernels by ``shrink_to_feasible``,
    whose scale and clipped mass are recorded in the diagnostics.
    """
    like = sensor.tilde_matrix(scan.detections, state.particles)
    clutter = sensor.clutter_density(scan.detections)
    bands = state.kernel.bands
    j = interaction_kernel(state.kernel)
    mu, rho = posterior_moments(state.kernel, j, like, clutter, sensor.q_d)
    raw, clamped = posterior_kernel_entries(mu, rho, bands)
    new_kernel, scale, clipped = shrink_to_feasible(raw)
    diag = UpdateDiagnostics(
        clamp_events=clamped,
        offdiag_entries=band_pairs(bands),
        offdiag_scale=scale,
        clipped_mass=clipped,
    )
    return FilterState(state.particles, new_kernel), diag


def posterior_diagonal(state: FilterState, scan: Scan, sensor: SensorModel) -> np.ndarray:
    """Posterior intensity per particle without assembling off-diagonals.

    The per-step pipeline resamples on the posterior diagonal and then
    rebuilds the kernel from scratch, so this is all the intermediate
    update has to produce.
    """
    like = sensor.tilde_matrix(scan.detections, state.particles)
    clutter = sensor.clutter_density(scan.detections)
    jd = interaction_diagonal(state.kernel)
    per_point = corrector_terms(clutter, like, jd)[1]
    return sensor.q_d * state.kernel.diagonal + jd * per_point


def predict(
    state: FilterState,
    survival: SurvivalModel,
    smc: SmcConfig,
    window: Window,
    rng: np.random.Generator,
) -> FilterState:
    """Prediction step on the moved and born particles of
    ``smc.predict_states``: the SMC realization of the prediction moment
    formulas.  The survivors' bands are p_s times the previous posterior
    kernel's, and the births' block is ``banded_kernel`` at the birth mass
    in a band of their own; the cross-blocks are zero, so the predicted
    kernel is valid by construction.
    """
    particles, born, mass = predict_states(
        state.particles, state.intensity, survival, smc.birth_per_target, window, rng
    )
    arrays = tuple(survival.p_s * a for a in state.kernel.arrays)
    if len(born):
        arrays += banded_kernel(born, mass, smc.alpha, smc.band_eta).arrays
    return FilterState(np.vstack([particles, born]), DiscretizedKernel(arrays))


@dataclass
class DppStepRecord:
    gamma: float
    state: FilterState
    diagnostics: UpdateDiagnostics


class DppPhdFilter:
    """Stateful filter: ``smc.phd_step`` on the banded kernel.

    Per step: predict (move + p_s scaling + births by ``smc.birth_count``),
    resample by the posterior diagonal with roughening, rebuild the banded
    kernel on the resampled particles, and update it against the scan.
    """

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
        self.state = FilterState(*init_particles(smc, window, rng))

    def step(self, scan: Scan) -> DppStepRecord:
        self.state, diag = phd_step(self, scan)
        return DppStepRecord(self.state.gamma, self.state, diag)

    # the kernel half of smc.phd_step

    def predicted(self) -> FilterState:
        return predict(self.state, self.survival, self.smc, self.window, self.rng)

    def posterior_intensity(self, pred: FilterState, scan: Scan) -> np.ndarray:
        # the resampler only consumes the diagonal; the full posterior
        # kernel is computed after the rebuild
        return posterior_diagonal(pred, scan, self.sensor)

    def rebuilt(self, states: np.ndarray, gamma: float) -> FilterState:
        return FilterState(states, rebuild_kernel(states, self.smc, gamma))

    def updated(
        self, state: FilterState, scan: Scan
    ) -> tuple[FilterState, UpdateDiagnostics]:
        return dpp_update(state, scan, self.sensor)


# ---------------------------------------------------------------------------
# Covariance / correlation estimates
# ---------------------------------------------------------------------------


def region_indices(particles: np.ndarray, region: Region) -> np.ndarray:
    return np.nonzero(region.contains_states(particles))[0]


def approx_count_covariance(
    kernel: DiscretizedKernel,
    like: np.ndarray,
    clutter: np.ndarray,
    q_d: float,
    a: np.ndarray,
    b: np.ndarray,
) -> float:
    """Closed-form posterior count covariance over two index sets.

    Evaluated from the interaction kernel of the predicted correlation
    kernel and the scan, term by term: the miss-branch intensity and pair
    terms, the single-measurement cross terms with their z = z' correction,
    and the paired-measurement term (taken over A x B with its product
    counterpart subtracted, which degenerates to the negative-correlation
    contract for disjoint regions with no cross interaction).
    """
    a = np.asarray(sorted(set(int(i) for i in a)), dtype=int)
    b = np.asarray(sorted(set(int(i) for i in b)), dtype=int)
    if a.size == 0 or b.size == 0:
        return 0.0
    jm = interaction_kernel(kernel)
    jd = np.diag(jm).copy()
    m = like.shape[0]
    inter = np.intersect1d(a, b)

    terms = [float(q_d * np.sum(jd[inter]))]
    jab = jm[np.ix_(a, b)]
    terms.append(float(-(q_d**2) * np.sum(jab**2)))
    sc = corrector_terms(clutter, like, jd)[0]
    la, lb = like[:, a], like[:, b]
    for z in range(m):
        cross = (la[z][:, None] + lb[z][None, :]) * jab**2
        terms.append(float(-q_d / sc[z] * np.sum(cross)))
        inter_term = float(np.sum(like[z, inter] * jd[inter]))
        sa = float(np.sum(la[z] * jd[a]))
        sb = float(np.sum(lb[z] * jd[b]))
        terms.append((inter_term - sa * sb / sc[z]) / sc[z])
    denom = pair_denominators(jm**2, like, sc)
    pair_ab = np.outer(jd[a], jd[b]) - jab**2
    for z in range(m):
        for z2 in range(m):
            if z == z2:
                continue
            num = float(np.sum(pair_ab * np.outer(la[z], lb[z2])))
            prod = float(np.sum(la[z] * jd[a])) * float(np.sum(lb[z2] * jd[b]))
            terms.append(num / denom[z, z2] - prod / (sc[z] * sc[z2]))
    return float(math.fsum(terms))


def correlation_estimate(state: FilterState, region_a: Region, region_b: Region) -> float:
    """Cross-domain correlation: rescaled determinantal covariance.

    cov(A, B) / sqrt(var(A) var(B)) with all three computed from the
    posterior kernel's determinantal covariance form; clamped to [-1, 1].
    """
    a = region_indices(state.particles, region_a)
    b = region_indices(state.particles, region_b)
    var_a = cross_covariance(state.kernel, a, a)
    var_b = cross_covariance(state.kernel, b, b)
    if var_a <= 0.0 or var_b <= 0.0:
        raise DegenerateVariance(
            f"domain variances {var_a:.3e}, {var_b:.3e} must be positive"
        )
    cov = cross_covariance(state.kernel, a, b)
    return float(np.clip(cov / math.sqrt(var_a * var_b), -1.0, 1.0))


# ---------------------------------------------------------------------------
# Quadrature form of the prediction moments (small grids, used as an oracle
# target for the SMC realization)
# ---------------------------------------------------------------------------


def prediction_moments(
    kernel: DiscretizedKernel,
    p_s: float,
    transition: np.ndarray,
    birth_intensity: np.ndarray,
    birth_pair: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted first and second factorial moments on an explicit grid of
    target points.

    ``transition[t, u]`` is the motion density l_s(target point t | source
    point u); the survivor terms sum it against the prior kernel, whose
    diagonal is the source points' intensity mass.
    """
    kd = kernel.diagonal
    surv = p_s * transition @ kd
    mu = np.asarray(birth_intensity, dtype=float) + surv
    pair_prior = np.outer(kd, kd) - kernel.to_dense() ** 2
    rho_surv = p_s**2 * transition @ pair_prior @ transition.T
    rho = (
        rho_surv
        + np.outer(birth_intensity, surv)
        + np.outer(surv, birth_intensity)
        + np.asarray(birth_pair, dtype=float)
    )
    np.fill_diagonal(rho, 0.0)
    return mu, rho


def reconstruct_kernel_from_moments(mu: np.ndarray, rho: np.ndarray) -> DiscretizedKernel:
    """Square-root kernel reconstruction K(x,y) = sqrt(mu mu - rho) from the
    dense pair moment ``rho``, on every pair, made valid by the filter's own
    map, ``shrink_to_feasible``."""
    bands = ((len(mu), len(mu)),)
    raw = posterior_kernel_entries(np.asarray(mu, dtype=float), rho[pair_index(bands)], bands)[0]
    return shrink_to_feasible(raw)[0]
