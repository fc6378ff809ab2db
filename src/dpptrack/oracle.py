"""Exact posterior inference for point processes on small discrete spaces.

A prior is a Janossy table over point configurations of a small grid
(configurations are multisets, so truncated Poisson priors are represented
exactly alongside simple processes such as DPPs).  Measurements live on a
second small grid with per-point clutter intensity and a detection
likelihood matrix.  Two independent routes to the posterior are provided:

* the corrector-term route: measurement Janossy values and the Upsilon
  functionals combine into posterior intensity, pair moment and covariance;
* the enumeration route: every (configuration, detected subset, injective
  association) triple is weighted and normalized into a posterior table
  whose empirical moments are the ground truth.

Everything is an exact finite sum; there is no truncation once the prior's
support is finite.  Probabilities are carried in linear scale with
compensated (math.fsum) summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Mapping

import numpy as np

from .errors import SizeError
from .kernels import DiscretizedKernel, all_subset_masses

# Exact-sum size bounds.  The joint Janossy sum is factorial in the number
# of points; these caps keep every call comfortably under a second.
MAX_POINTS = 8       # configuration size for joint_janossy
MAX_SUPPORT = 12     # prior support size for the Upsilon sums
MAX_MEASUREMENTS = 6
MAX_ENUM_GRID = 6    # grid size for enumerate_posterior
MAX_ENUM_MEAS = 4

Config = tuple[int, ...]  # sorted grid-index multiset


@dataclass(frozen=True)
class ObservationModel:
    """Detection/clutter model on discrete state and measurement grids.

    p_d[x] is the detection probability at state point x; l_d[z, x] is the
    detection likelihood density of measurement point z given x (w.r.t. the
    measurement grid's reference weights); l_c[z] is the clutter intensity.
    """

    p_d: np.ndarray  # (G,)
    l_d: np.ndarray  # (Z, G)
    l_c: np.ndarray  # (Z,)

    def __post_init__(self):
        object.__setattr__(self, "p_d", np.asarray(self.p_d, dtype=float))
        object.__setattr__(self, "l_d", np.asarray(self.l_d, dtype=float))
        object.__setattr__(self, "l_c", np.asarray(self.l_c, dtype=float))
        if np.any(self.p_d < 0) or np.any(self.p_d > 1):
            raise ValueError("p_d must lie in [0, 1]")
        if np.any(self.l_d < 0) or np.any(self.l_c < 0):
            raise ValueError("likelihoods and clutter must be nonnegative")
        if self.l_d.shape != (self.l_c.shape[0], self.p_d.shape[0]):
            raise ValueError("l_d must be (measurement points, state points)")

    @property
    def q_d(self) -> np.ndarray:
        return 1.0 - self.p_d

    @property
    def l_tilde(self) -> np.ndarray:
        """Thinned likelihood p_d(x) l_d(z|x)."""
        return self.l_d * self.p_d[None, :]


@dataclass(frozen=True)
class FiniteProcess:
    """Point process given by an exhaustive Janossy table on a small grid of
    points with measure ``weights``.

    ``janossy`` maps a sorted index multiset to its Janossy density value
    (weights not folded in); absent keys are zero.  The probability of a
    configuration with multiplicities m_i is

        j(config) * prod_i w_i^{m_i} / m_i!
    """

    weights: np.ndarray  # (G,)
    janossy: Mapping[Config, float]

    def __post_init__(self):
        object.__setattr__(self, "weights", measure_weights(self.weights))
        table = {}
        for key, val in self.janossy.items():
            key = tuple(sorted(int(i) for i in key))
            if key and (min(key) < 0 or max(key) >= len(self.weights)):
                raise ValueError(f"configuration {key} outside grid")
            if val < 0:
                raise ValueError("Janossy densities must be nonnegative")
            if val != 0.0:
                table[key] = float(val)
        object.__setattr__(self, "janossy", table)

    # -- masses -----------------------------------------------------------

    def config_mass(self, config: Config) -> float:
        dens = self.janossy.get(tuple(sorted(config)), 0.0)
        return dens * _weight_factor(self.weights, config)

    def total_mass(self) -> float:
        return math.fsum(self.config_mass(c) for c in self.janossy)

    @property
    def support_size(self) -> int:
        return max((len(c) for c in self.janossy), default=0)

    def normalized(self) -> "FiniteProcess":
        z = self.total_mass()
        if z <= 0:
            raise ValueError("process has zero total mass")
        return FiniteProcess(self.weights, {c: v / z for c, v in self.janossy.items()})

    # -- moments ----------------------------------------------------------

    def intensity(self) -> np.ndarray:
        """First moment density: E[multiplicity at x] / w_x."""
        mu = np.zeros(len(self.weights))
        for cfg in self.janossy:
            p = self.config_mass(cfg)
            for i in cfg:
                mu[i] += p
        return mu / self.weights

    def pair_factorial(self, zero_diagonal: bool = True) -> np.ndarray:
        """Second factorial moment density E[m_i (m_j - delta_ij)] / (w_i w_j)."""
        g = len(self.weights)
        rho = np.zeros((g, g))
        for cfg in self.janossy:
            p = self.config_mass(cfg)
            counts = np.bincount(np.asarray(cfg, dtype=int), minlength=g) if cfg else np.zeros(g)
            block = np.outer(counts, counts) - np.diag(counts)
            rho += p * block
        rho /= np.outer(self.weights, self.weights)
        if zero_diagonal:
            np.fill_diagonal(rho, 0.0)
        return rho

    def count_covariance(self, a: Iterable[int], b: Iterable[int]) -> float:
        """Covariance of the point counts in index sets A and B."""
        a, b = set(a), set(b)
        ea = eb = eab = 0.0
        for cfg in self.janossy:
            p = self.config_mass(cfg)
            na = sum(1 for i in cfg if i in a)
            nb = sum(1 for i in cfg if i in b)
            ea += p * na
            eb += p * nb
            eab += p * na * nb
        return eab - ea * eb

    def mean_count(self) -> float:
        return math.fsum(self.config_mass(c) * len(c) for c in self.janossy)


def _weight_factor(weights: np.ndarray, config: Config) -> float:
    """prod w_i^{m_i} / m_i! for the multiset's multiplicities."""
    out = 1.0
    mult: dict[int, int] = {}
    for i in config:
        mult[i] = mult.get(i, 0) + 1
    for i, m in mult.items():
        out *= weights[i] ** m / math.factorial(m)
    return out


def measure_weights(weights) -> np.ndarray:
    """``weights`` as a float vector of finite, nonnegative masses nu({x_i})."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be a vector")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    return w


# ---------------------------------------------------------------------------
# Prior constructors
# ---------------------------------------------------------------------------


def dpp_process(kernel: DiscretizedKernel) -> FiniteProcess:
    """Exact Janossy table of a DPP on a small grid (subset enumeration).

    The kernel is an operator matrix, so its points have unit mass and the
    Janossy densities are the configuration masses."""
    masses = all_subset_masses(kernel)
    return FiniteProcess(np.ones(len(kernel)), {c: m for c, m in masses.items() if m > 0.0})


def poisson_process(weights, intensity, n_max: int = MAX_SUPPORT) -> FiniteProcess:
    """Truncated Poisson process with the given intensity density on the
    points of measure ``weights``.

    The exact table has j(config) = exp(-nu(Lambda-weighted intensity)) *
    prod intensity(x_i) on every multiset; truncation at n_max leaves a
    total-mass deficit of order (mass)^{n_max+1}/(n_max+1)!, so keep the
    total intensity mass small when 1e-10 identities are asserted.
    """
    lam = np.broadcast_to(np.asarray(intensity, dtype=float), (len(weights),))
    total = float((lam * weights).sum())
    base = math.exp(-total)
    table: dict[Config, float] = {}
    points = list(range(len(weights)))

    def rec(start: int, cfg: tuple[int, ...], dens: float):
        table[cfg] = dens
        if len(cfg) == n_max:
            return
        for i in points[start:]:
            rec(i, cfg + (i,), dens * lam[i])

    rec(0, (), base)
    return FiniteProcess(weights, table)


def single_config_process(weights, config: Config) -> FiniteProcess:
    """Point mass on exactly one configuration."""
    cfg = tuple(sorted(config))
    dens = 1.0 / _weight_factor(weights, cfg)
    return FiniteProcess(weights, {cfg: dens})


# ---------------------------------------------------------------------------
# Observation likelihood core
# ---------------------------------------------------------------------------


def _check_meas(meas) -> tuple[int, ...]:
    meas = tuple(int(z) for z in meas)
    if len(meas) > MAX_MEASUREMENTS:
        raise SizeError(f"at most {MAX_MEASUREMENTS} measurements supported, got {len(meas)}")
    return meas


def observation_likelihood(instances: Config, obs: ObservationModel, meas: Config) -> float:
    """Miss/detection/clutter factorization of one configuration.

    Sums over detected measurement subsets S and injective associations of S
    to the configuration's instances:

        sum_S prod_{j not in S} l_c(z_j)
              sum_{injective a} prod_{i in S} l~_d(z_i | x_{a(i)})
              prod_{unmatched u} q_d(x_u)

    This is the (n, m) joint-Janossy combinatorial factor; the common
    clutter-void constant exp(-integral of l_c) is dropped throughout, as it
    cancels in every posterior ratio.
    """
    n, m = len(instances), len(meas)
    if n > MAX_SUPPORT:
        raise SizeError(f"configuration of {n} points exceeds the exact-sum bound {MAX_SUPPORT}")
    qd = obs.q_d
    lt = obs.l_tilde
    lc = obs.l_c
    q_inst = [float(qd[u]) for u in instances]
    q_all = 1.0
    for q in q_inst:
        q_all *= q
    clutter_all = 1.0
    for z in meas:
        clutter_all *= lc[z]
    total = [q_all * clutter_all]  # S = empty term
    if n == 0 or m == 0:
        return total[0]
    # detection likelihood over a residual miss product; when every q_d is
    # positive the residual is q_all divided by the assigned factors,
    # otherwise fall back to explicit products
    fast = min(q_inst) > 0.0
    ratios = None
    if fast:
        ratios = [
            [float(lt[z, instances[i]]) / q_inst[i] for i in range(n)] for z in meas
        ]
    for k in range(1, min(n, m) + 1):
        for s_slots in combinations(range(m), k):
            clut = 1.0
            for j in range(m):
                if j not in s_slots:
                    clut *= lc[meas[j]]
            acc = 0.0
            if fast:
                rows = [ratios[slot] for slot in s_slots]
                for assoc in permutations(range(n), k):
                    term = q_all
                    for row, inst in zip(rows, assoc):
                        term *= row[inst]
                    acc += term
            else:
                for assoc in permutations(range(n), k):
                    term = 1.0
                    for slot, inst in zip(s_slots, assoc):
                        term *= lt[meas[slot], instances[inst]]
                        if term == 0.0:
                            break
                    else:
                        for u in range(n):
                            if u not in assoc:
                                term *= q_inst[u]
                        acc += term
            total.append(clut * acc)
    return math.fsum(total)


class _Session:
    """Memoizes the observation factorization per (configuration, meas)."""

    def __init__(self, prior: FiniteProcess, obs: ObservationModel):
        self.prior = prior
        self.obs = obs
        self.weights = prior.weights
        self._g: dict = {}
        self._wf: dict = {}

    def like(self, cfg: Config, meas: Config) -> float:
        key = (cfg, meas)
        val = self._g.get(key)
        if val is None:
            val = observation_likelihood(cfg, self.obs, meas)
            self._g[key] = val
        return val

    def wfactor(self, cfg: Config) -> float:
        val = self._wf.get(cfg)
        if val is None:
            val = _weight_factor(self.weights, cfg)
            self._wf[cfg] = val
        return val

    def jxi(self, meas: Config) -> float:
        return math.fsum(
            dens * self.wfactor(cfg) * self.like(cfg, meas)
            for cfg, dens in self.prior.janossy.items()
        )

    def ups1(self, meas: Config, x: int) -> float:
        terms = []
        for key, dens in self.prior.janossy.items():
            m_cfg = _remove_once(key, (x,))
            if m_cfg is None:
                continue
            terms.append(dens * self.wfactor(m_cfg) * self.like(m_cfg, meas))
        return math.fsum(terms)

    def ups2(self, meas: Config, x: int, y: int) -> float:
        terms = []
        for key, dens in self.prior.janossy.items():
            m_cfg = _remove_once(key, (x, y))
            if m_cfg is None:
                continue
            terms.append(dens * self.wfactor(m_cfg) * self.like(m_cfg, meas))
        return math.fsum(terms)


def joint_janossy(prior: FiniteProcess, obs: ObservationModel, states, meas) -> float:
    """Joint Janossy density of (states, measurement list).

    Equals j_prior(states) times the observation factorization above.  The
    combinatorial coefficient is q_d^{n-|S|} per association term (the
    version under which the conditional table normalizes to one).
    """
    states = tuple(int(x) for x in states)
    meas = _check_meas(meas)
    if len(states) > MAX_POINTS:
        raise SizeError(f"at most {MAX_POINTS} state points supported, got {len(states)}")
    dens = prior.janossy.get(tuple(sorted(states)), 0.0)
    if dens == 0.0:
        return 0.0
    return dens * observation_likelihood(states, obs, meas)


def measurement_janossy(
    prior: FiniteProcess, obs: ObservationModel, meas, n_max: int | None = None
) -> float:
    """Janossy density of the measurement process at the given points."""
    meas = _check_meas(meas)
    _check_support(prior, meas, n_max)
    return _Session(prior, obs).jxi(meas)


def _check_support(prior: FiniteProcess, meas, n_max) -> None:
    support = prior.support_size
    if n_max is not None and support > n_max:
        raise SizeError(f"prior support {support} exceeds n_max={n_max}")
    if support > MAX_SUPPORT:
        raise SizeError(f"prior support {support} exceeds the exact-sum bound {MAX_SUPPORT}")


def _remove_once(cfg: Config, points: tuple[int, ...]) -> Config | None:
    """Remove one instance of each requested point; None if short on any."""
    out = list(cfg)
    for p in points:
        try:
            out.remove(p)
        except ValueError:
            return None
    return tuple(out)


def corrector_upsilon1(
    prior: FiniteProcess, obs: ObservationModel, meas, x: int, n_max: int | None = None
) -> float:
    """Upsilon^(1)(x): measurement-Janossy-like sum over (p+1)-point tables.

    The integration configurations M run over everything the (p+1)-point
    table supports: each table key containing x contributes its density at
    that key times the observation factorization of M = key minus one
    instance of x.
    """
    meas = _check_meas(meas)
    _check_support(prior, meas, n_max)
    return _Session(prior, obs).ups1(meas, int(x))


def corrector_upsilon2(
    prior: FiniteProcess,
    obs: ObservationModel,
    meas,
    x: int,
    y: int,
    n_max: int | None = None,
) -> float:
    """Upsilon^(2)(x, y): as Upsilon^(1) with two appended points."""
    meas = _check_meas(meas)
    _check_support(prior, meas, n_max)
    return _Session(prior, obs).ups2(meas, int(x), int(y))


def _drop(meas: tuple[int, ...], pos: int) -> tuple[int, ...]:
    return meas[:pos] + meas[pos + 1 :]


def _drop2(meas: tuple[int, ...], p1: int, p2: int) -> tuple[int, ...]:
    return tuple(meas[i] for i in range(len(meas)) if i not in (p1, p2))


def posterior_intensity_exact(
    prior: FiniteProcess, obs: ObservationModel, meas, n_max: int | None = None
) -> np.ndarray:
    """Posterior first moment density via the corrector-term expansion.

    q_d(x) Upsilon^(1)_{z_{1:m}}(x) + sum_z l~_d(z|x) Upsilon^(1)_{z_{1:m} \\ z}(x),
    normalized by the measurement Janossy density.
    """
    meas = _check_meas(meas)
    _check_support(prior, meas, n_max)
    ses = _Session(prior, obs)
    jz = ses.jxi(meas)
    g = len(prior.weights)
    qd, lt = obs.q_d, obs.l_tilde
    mu = np.zeros(g)
    for x in range(g):
        val = [qd[x] * ses.ups1(meas, x)]
        for pos in range(len(meas)):
            val.append(lt[meas[pos], x] * ses.ups1(_drop(meas, pos), x))
        mu[x] = math.fsum(val) / jz
    return mu


def posterior_pair_exact(
    prior: FiniteProcess,
    obs: ObservationModel,
    meas,
    n_max: int | None = None,
    zero_diagonal: bool = True,
) -> np.ndarray:
    """Posterior second factorial moment density via the corrector terms.

    The reported matrix has a zero diagonal (the display convention for the
    pair moment); pass zero_diagonal=False to keep the factorial diagonal,
    which non-simple priors need for covariance assembly.
    """
    meas = _check_meas(meas)
    _check_support(prior, meas, n_max)
    ses = _Session(prior, obs)
    jz = ses.jxi(meas)
    g = len(prior.weights)
    qd, lt = obs.q_d, obs.l_tilde
    rho = np.zeros((g, g))
    for x in range(g):
        for y in range(x, g):
            terms = [qd[x] * qd[y] * ses.ups2(meas, x, y)]
            for pos in range(len(meas)):
                u2 = ses.ups2(_drop(meas, pos), x, y)
                terms.append((qd[y] * lt[meas[pos], x] + qd[x] * lt[meas[pos], y]) * u2)
            for p1 in range(len(meas)):
                for p2 in range(len(meas)):
                    if p1 == p2:
                        continue
                    u2 = ses.ups2(_drop2(meas, p1, p2), x, y)
                    terms.append(lt[meas[p1], x] * lt[meas[p2], y] * u2)
            rho[x, y] = rho[y, x] = math.fsum(terms) / jz
    if zero_diagonal:
        np.fill_diagonal(rho, 0.0)
    return rho


def posterior_covariance_exact(
    prior: FiniteProcess,
    obs: ObservationModel,
    meas,
    a: Iterable[int],
    b: Iterable[int],
    n_max: int | None = None,
) -> float:
    """Posterior count covariance over index sets A and B.

    Assembled term by term from the corrector expansion: the intersection
    intensity term, the q_d^2 pair-vs-product term, the single-measurement
    cross terms, the z = z' diagonal correction, and the z != z' pair term.
    The subtracted products in the single-measurement cross terms use the
    first-order corrector of the opposite variable (the printed source drops
    to a second-order corrector there, which fails the Bayes cross-check).
    """
    meas = _check_meas(meas)
    a = sorted(set(int(i) for i in a))
    b = sorted(set(int(i) for i in b))
    inter = sorted(set(a) & set(b))
    w = prior.weights
    qd, lt = obs.q_d, obs.l_tilde
    _check_support(prior, meas, n_max)
    ses = _Session(prior, obs)
    jz = ses.jxi(meas)
    m = len(meas)

    def l1(mm, x):
        return ses.ups1(mm, x) / jz

    def l2(mm, x, y):
        return ses.ups2(mm, x, y) / jz

    terms = []
    # q_d intersection intensity
    for x in inter:
        terms.append(qd[x] * l1(meas, x) * w[x])
    # q_d^2 (l2 - l1 l1) over A x B
    l1_full = {x: l1(meas, x) for x in set(a) | set(b)}
    for x in a:
        for y in b:
            terms.append(
                qd[x] * qd[y] * (l2(meas, x, y) - l1_full[x] * l1_full[y]) * w[x] * w[y]
            )
    for pos in range(m):
        z = meas[pos]
        rest = _drop(meas, pos)
        l1_rest = {x: l1(rest, x) for x in set(a) | set(b)}
        l2_rest = {}
        for x in a:
            for y in b:
                l2_rest[(x, y)] = l2(rest, x, y)
        # single-detection cross terms against the miss branch
        for x in a:
            for y in b:
                terms.append(
                    qd[y] * lt[z, x]
                    * (l2_rest[(x, y)] - l1_rest[x] * l1_full[y]) * w[x] * w[y]
                )
                terms.append(
                    qd[x] * lt[z, y]
                    * (l2_rest[(x, y)] - l1_full[x] * l1_rest[y]) * w[x] * w[y]
                )
        # z = z' diagonal correction
        for x in inter:
            terms.append(lt[z, x] * l1_rest[x] * w[x])
        sa = math.fsum(lt[z, x] * l1_rest[x] * w[x] for x in a)
        sb = math.fsum(lt[z, y] * l1_rest[y] * w[y] for y in b)
        terms.append(-sa * sb)
    # z != z' pair terms
    for p1 in range(m):
        for p2 in range(m):
            if p1 == p2:
                continue
            z1, z2 = meas[p1], meas[p2]
            rest1 = _drop(meas, p1)
            rest2 = _drop(meas, p2)
            rest12 = _drop2(meas, p1, p2)
            for x in a:
                l1x = l1(rest1, x)
                for y in b:
                    terms.append(
                        lt[z1, x] * lt[z2, y]
                        * (l2(rest12, x, y) - l1x * l1(rest2, y)) * w[x] * w[y]
                    )
    return math.fsum(terms)


def enumerate_posterior(prior: FiniteProcess, obs: ObservationModel, meas) -> FiniteProcess:
    """Independent Bayes oracle: weight every configuration and normalize.

    posterior_janossy(config) = prior_janossy(config) * observation
    factorization / measurement Janossy.  Its moments are the ground truth
    for the corrector-term route.
    """
    meas = _check_meas(meas)
    if len(prior.weights) > MAX_ENUM_GRID:
        raise SizeError(f"enumerate_posterior limited to {MAX_ENUM_GRID} grid points")
    if len(meas) > MAX_ENUM_MEAS:
        raise SizeError(f"enumerate_posterior limited to {MAX_ENUM_MEAS} measurements")
    _check_support(prior, meas, None)
    table = {}
    for cfg, dens in prior.janossy.items():
        like = observation_likelihood(cfg, obs, meas)
        if like > 0.0:
            table[cfg] = dens * like
    if not table:
        raise ValueError("measurements have zero likelihood under the prior")
    return FiniteProcess(prior.weights, table).normalized()
