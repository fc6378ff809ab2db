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
* squared off-diagonal: mu(x) mu(y) - pair(x,y), clamped at zero
  (clamp events are a health diagnostic),

with s_c(z) = l_c(z) + sum_v J(v,v) l~(z|v) w_v and D the pairwise
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
    CORRELATION,
    DELTA,
    DiscretizedKernel,
    GridSpec,
    cross_covariance,
    interaction_kernel,
    shrink_to_feasible,
)
from .likelihood import SensorModel
from .ppp_filter import SurvivalModel, corrector_denominators, poisson_weight_update
from .scenario import Region, Scan, Window, step_dynamics
from .smc import (
    BirthScheme,
    ParticleSet,
    SmcConfig,
    init_particles,
    inject_births,
    phd_step,
    rebuild_kernel,
)


@dataclass(frozen=True)
class FilterState:
    """Posterior snapshot: particles, kernel over them, count estimate."""

    particles: ParticleSet
    kernel: DiscretizedKernel
    gamma: float

    def __post_init__(self):
        if len(self.particles) != len(self.kernel):
            raise ValueError("kernel dimension must equal particle count")

    @property
    def states(self) -> np.ndarray:
        return self.particles.states


@dataclass
class UpdateDiagnostics:
    clamp_events: int = 0
    offdiag_entries: int = 0
    offdiag_scale: float = 1.0  # t of shrink_to_feasible; 1 leaves the off-diagonal as it is
    clipped_mass: float = 0.0  # posterior diagonal mass clipped at 1 - delta


def s_c(
    j_diagonal: np.ndarray,
    like: np.ndarray,
    clutter: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Clutter-plus-detected-interaction denominators, one per measurement.

    Raises DegenerateIntensity when one is 0 (see corrector_denominators).
    """
    return corrector_denominators(clutter, like, j_diagonal * weights)


def pair_denominators(
    j: np.ndarray, like: np.ndarray, sc: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """s_c(z) s_c(z') - integral of J(u,v)^2 l~(z|u) l~(z'|v) over both points."""
    lw = like * weights[None, :]
    d = lw @ (j**2) @ lw.T
    return np.outer(sc, sc) - d


def posterior_moments(
    kernel: DiscretizedKernel,
    j: DiscretizedKernel,
    like: np.ndarray,
    clutter: np.ndarray,
    q_d: float,
) -> tuple[np.ndarray, np.ndarray, UpdateDiagnostics]:
    """First moment and pair factorial moment of the approximate posterior.

    Raises DegenerateIntensity when a pair denominator
    s_c(z) s_c(z') - D(z, z') is not positive (it is 0 when one particle
    explains two detections with no clutter) or a moment is not finite.
    """
    w = kernel.grid.weights
    kd = kernel.diagonal
    jd = j.diagonal
    jm = j.entries
    diag = UpdateDiagnostics()
    pair_j = np.outer(jd, jd) - jm**2
    np.clip(pair_j, 0.0, None, out=pair_j)  # PSD minors; negatives are roundoff
    m = like.shape[0]
    if m == 0:
        mu = q_d * kd
        rho = q_d**2 * pair_j
    else:
        sc = s_c(jd, like, clutter, w)
        per_point = (like / sc[:, None]).sum(axis=0)
        mu = q_d * kd + jd * per_point
        denom = pair_denominators(jm, like, sc, w)
        inv = np.zeros_like(denom)
        off = ~np.eye(m, dtype=bool)
        if np.any(denom[off] <= 0.0):
            raise DegenerateIntensity(
                f"pair denominator reaches {denom[off].min():.3e}; it must be positive"
            )
        with np.errstate(over="ignore"):  # an overflow is raised typed below
            inv[off] = 1.0 / denom[off]
        if not np.all(np.isfinite(inv)):
            raise DegenerateIntensity("pair denominator inverse is not finite")
        cross = like.T @ inv @ like
        factor = q_d**2 + q_d * (per_point[:, None] + per_point[None, :]) + cross
        rho = pair_j * factor
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(rho))):
        raise DegenerateIntensity("posterior moments are not finite")
    np.fill_diagonal(rho, 0.0)
    return mu, rho, diag


def posterior_kernel_entries(
    mu: np.ndarray, rho: np.ndarray, diag: UpdateDiagnostics
) -> np.ndarray:
    """Assemble the posterior kernel: sqrt(mu mu - rho) off the diagonal.

    A negative radicand means the approximation lost the interaction at that
    pair; it is clamped to zero and counted.
    """
    n = mu.shape[0]
    sq = np.outer(mu, mu) - rho
    off = ~np.eye(n, dtype=bool)
    neg = (sq < 0) & off
    diag.clamp_events += int(neg.sum()) // 2
    diag.offdiag_entries += (n * (n - 1)) // 2
    np.clip(sq, 0.0, None, out=sq)
    entries = np.sqrt(sq)
    entries[np.eye(n, dtype=bool)] = mu
    return 0.5 * (entries + entries.T)


def dpp_update(
    state: FilterState,
    scan: Scan,
    sensor: SensorModel,
    delta: float = DELTA,
    poisson_equivalent: bool = False,
) -> tuple[FilterState, UpdateDiagnostics]:
    """One measurement update; returns the posterior state.

    The posterior kernel has the posterior intensity mu as its diagonal
    (clipped at 1 - delta), so its trace is the posterior count; its
    off-diagonal is scaled into the valid kernels by ``shrink_to_feasible``,
    whose scale and clipped mass are recorded in the diagnostics.

    With ``poisson_equivalent`` the interaction transform is the identity
    (J := K, exact in the vanishing-interaction limit) and the diagonal is
    updated through the classical Poisson corrector, which makes a
    zero-off-diagonal run reproduce the PPP filter bit for bit.
    """
    like = sensor.tilde_matrix(scan.detections, state.particles.states)
    clutter = sensor.clutter_density(scan.detections)
    diag = UpdateDiagnostics()
    if poisson_equivalent:
        # identity interaction transform and the classical corrector; no
        # spectral clipping, so the diagonal stays bit-identical to the
        # Poisson filter's weight trajectory
        mu = poisson_weight_update(state.kernel.diagonal, like, clutter, sensor.q_d)
        new_kernel = DiscretizedKernel(
            state.kernel.grid, np.diag(mu), CORRELATION, state.kernel.band
        )
    else:
        j = interaction_kernel(state.kernel, delta)
        mu, rho, diag = posterior_moments(state.kernel, j, like, clutter, sensor.q_d)
        entries = posterior_kernel_entries(mu, rho, diag)
        new_kernel, diag.offdiag_scale, diag.clipped_mass = shrink_to_feasible(
            entries, state.kernel.grid, state.kernel.band, delta
        )
    gamma = float(np.sum(new_kernel.diagonal * new_kernel.grid.weights))
    return FilterState(state.particles, new_kernel, gamma), diag


def posterior_diagonal(
    state: FilterState,
    scan: Scan,
    sensor: SensorModel,
    delta: float = DELTA,
    poisson_equivalent: bool = False,
) -> np.ndarray:
    """Posterior intensity per particle without assembling off-diagonals.

    The per-step pipeline resamples on the posterior diagonal and then
    rebuilds the kernel from scratch, so this is all the intermediate
    update has to produce.
    """
    like = sensor.tilde_matrix(scan.detections, state.particles.states)
    clutter = sensor.clutter_density(scan.detections)
    if poisson_equivalent:
        return poisson_weight_update(state.kernel.diagonal, like, clutter, sensor.q_d)
    kd = state.kernel.diagonal
    jd = interaction_kernel(state.kernel, delta).diagonal
    if like.shape[0] == 0:
        return sensor.q_d * kd
    sc = s_c(jd, like, clutter, state.kernel.grid.weights)
    return sensor.q_d * kd + jd * (like / sc[:, None]).sum(axis=0)


def estimate_count(state: FilterState) -> float:
    """gamma = weighted trace of the posterior kernel."""
    return float(np.sum(state.kernel.diagonal * state.kernel.grid.weights))


def predict(
    state: FilterState,
    survival: SurvivalModel,
    birth: BirthScheme,
    smc: SmcConfig,
    window: Window,
    rng: np.random.Generator,
) -> FilterState:
    """Prediction step: move particles, scale the kernel, append births.

    The SMC realization of the prediction moment formulas: each particle is
    one sample of the transition, so the surviving block of the kernel is
    p_s times the previous posterior kernel evaluated on the moved
    particles, and the birth block follows the adaptive extension rule.
    """
    if len(state.particles):
        moved = step_dynamics(state.particles.states, survival.dynamics, rng)
    else:
        moved = state.particles.states
    particles = ParticleSet(moved, np.zeros(len(state.particles), dtype=np.int8))
    entries = survival.p_s * state.kernel.entries
    kernel = DiscretizedKernel(particles.grid(), entries, CORRELATION, state.kernel.band)
    gamma_pred = float(np.sum(kernel.diagonal * kernel.grid.weights))
    particles, kernel = inject_births(particles, kernel, smc, birth, gamma_pred, window, rng)
    gamma = float(np.sum(kernel.diagonal * kernel.grid.weights))
    return FilterState(particles, kernel, gamma)


@dataclass
class DppStepRecord:
    gamma: float
    state: FilterState
    diagnostics: UpdateDiagnostics


class DppPhdFilter:
    """Stateful filter: ``smc.phd_step`` on the dense banded kernel.

    Per step: predict (move + p_s scaling + adaptive birth), resample by the
    posterior diagonal with roughening, rebuild the banded kernel on the
    resampled particles, and update it against the scan.  With
    ``poisson_equivalent`` (which needs alpha = 0) the kernel stays diagonal
    and the update is the classical Poisson corrector, so the filter
    reproduces PppPhdFilter bit for bit.
    """

    def __init__(
        self,
        smc: SmcConfig,
        survival: SurvivalModel,
        birth: BirthScheme,
        sensor: SensorModel,
        window: Window,
        rng: np.random.Generator,
        poisson_equivalent: bool = False,
        delta: float = DELTA,
    ):
        if poisson_equivalent and smc.alpha != 0.0:
            raise ValueError("poisson_equivalent mode requires alpha = 0")
        self.smc = smc
        self.survival = survival
        self.birth = birth
        self.sensor = sensor
        self.window = window
        self.rng = rng
        self.poisson_equivalent = poisson_equivalent
        self.delta = delta
        particles, kernel = init_particles(smc, window, rng)
        gamma = float(np.sum(kernel.diagonal))
        self.state = FilterState(particles, kernel, gamma)

    def step(self, scan: Scan) -> DppStepRecord:
        self.state, diag = phd_step(self, scan)
        return DppStepRecord(self.state.gamma, self.state, diag)

    # the dense-kernel half of smc.phd_step

    def predicted(self) -> FilterState:
        return predict(self.state, self.survival, self.birth, self.smc, self.window, self.rng)

    def posterior_intensity(self, pred: FilterState, scan: Scan) -> np.ndarray:
        # the resampler only consumes the diagonal; the full posterior
        # kernel is computed after the rebuild
        mu = posterior_diagonal(pred, scan, self.sensor, self.delta, self.poisson_equivalent)
        return mu * pred.kernel.grid.weights

    def kept(self, pred: FilterState, intensity: np.ndarray, scan: Scan):
        return self.updated(pred, scan)

    def rebuilt(self, particles: ParticleSet, gamma: float) -> FilterState:
        # alpha = 0 in poisson_equivalent mode, so this is diagonal there
        return FilterState(particles, rebuild_kernel(particles, self.smc, gamma), gamma)

    def updated(
        self, state: FilterState, scan: Scan
    ) -> tuple[FilterState, UpdateDiagnostics]:
        return dpp_update(state, scan, self.sensor, self.delta, self.poisson_equivalent)

    def count_in(self, region: Region) -> float:
        inside = region.contains_states(self.state.particles.states)
        intensity = self.state.kernel.diagonal * self.state.kernel.grid.weights
        return float(np.sum(intensity[inside]))


# ---------------------------------------------------------------------------
# Covariance / correlation estimates
# ---------------------------------------------------------------------------


def region_indices(particles: ParticleSet, region: Region) -> np.ndarray:
    return np.nonzero(region.contains_states(particles.states))[0]


def approx_count_covariance(
    j: DiscretizedKernel,
    like: np.ndarray,
    clutter: np.ndarray,
    q_d: float,
    a: np.ndarray,
    b: np.ndarray,
) -> float:
    """Closed-form posterior count covariance over two index sets.

    Evaluated from the prediction interaction kernel and the scan, term by
    term: the miss-branch intensity and pair terms, the single-measurement
    cross terms with their z = z' correction, and the paired-measurement
    term (taken over A x B with its product counterpart subtracted, which
    degenerates to the negative-correlation contract for disjoint regions
    with no cross interaction).
    """
    a = np.asarray(sorted(set(int(i) for i in a)), dtype=int)
    b = np.asarray(sorted(set(int(i) for i in b)), dtype=int)
    if a.size == 0 or b.size == 0:
        return 0.0
    w = j.grid.weights
    jd = j.diagonal
    jm = j.entries
    m = like.shape[0]
    inter = np.intersect1d(a, b)

    terms = [float(q_d * np.sum(jd[inter] * w[inter]))]
    jab = jm[np.ix_(a, b)]
    wa, wb = w[a], w[b]
    terms.append(float(-(q_d**2) * np.sum(wa[:, None] * jab**2 * wb[None, :])))
    if m:
        sc = s_c(jd, like, clutter, w)
        la, lb = like[:, a], like[:, b]
        for z in range(m):
            cross = (la[z][:, None] + lb[z][None, :]) * jab**2
            terms.append(float(-q_d / sc[z] * np.sum(wa[:, None] * cross * wb[None, :])))
            inter_term = float(np.sum(like[z, inter] * jd[inter] * w[inter]))
            sa = float(np.sum(la[z] * jd[a] * wa))
            sb = float(np.sum(lb[z] * jd[b] * wb))
            terms.append((inter_term - sa * sb / sc[z]) / sc[z])
        denom = pair_denominators(jm, like, sc, w)
        pair_ab = np.outer(jd[a], jd[b]) - jab**2
        for z in range(m):
            for z2 in range(m):
                if z == z2:
                    continue
                num = float(
                    np.sum(wa[:, None] * pair_ab * np.outer(la[z], lb[z2]) * wb[None, :])
                )
                prod = float(np.sum(la[z] * jd[a] * wa)) * float(
                    np.sum(lb[z2] * jd[b] * wb)
                )
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
    target_grid: GridSpec,
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted first and second factorial moments on an explicit grid.

    ``transition[t, u]`` is the motion density l_s(target point t | source
    point u); the survivor terms integrate it against the prior kernel with
    the source grid's weights.
    """
    w = kernel.grid.weights
    kd = kernel.diagonal
    surv = p_s * transition @ (kd * w)
    mu = np.asarray(birth_intensity, dtype=float) + surv
    pair_prior = np.outer(kd, kd) - kernel.entries**2
    lw = transition * w[None, :]
    rho_surv = p_s**2 * lw @ pair_prior @ lw.T
    rho = (
        rho_surv
        + np.outer(birth_intensity, surv)
        + np.outer(surv, birth_intensity)
        + np.asarray(birth_pair, dtype=float)
    )
    np.fill_diagonal(rho, 0.0)
    return mu, rho


def reconstruct_kernel_from_moments(
    mu: np.ndarray, rho: np.ndarray, grid: GridSpec, delta: float = DELTA
) -> DiscretizedKernel:
    """Square-root kernel reconstruction K(x,y) = sqrt(mu mu - rho), made
    valid by the filter's own map, ``shrink_to_feasible``."""
    diag = UpdateDiagnostics()
    entries = posterior_kernel_entries(np.asarray(mu, dtype=float), rho, diag)
    return shrink_to_feasible(entries, grid, None, delta)[0]
