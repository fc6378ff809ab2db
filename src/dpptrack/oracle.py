"""Exact posterior inference for point processes on small discrete spaces.

A prior is a table of configuration probabilities on a small grid of
unit-mass points (configurations are multisets, so truncated Poisson priors
are represented exactly alongside simple processes such as DPPs).  On a
grid that table is the Janossy measure with respect to counting measure,
so every state-side quantity here is a mass, in the convention of the
filter's kernels: intensity, pair moment and Upsilon terms.  Measurements
live on a second small grid with per-point clutter intensity and a
detection likelihood matrix.  Two independent routes to the posterior are
provided:

* the corrector-term route: ``ExactPosterior``, made once per problem,
  evaluates each observation factor once per configuration and
  measurement sub-list, keeps the Upsilon arrays, and reads the posterior
  intensity, pair moment and count covariance from them;
* the enumeration route: ``enumerate_posterior`` weights every
  configuration by its own observation factor and normalizes the table;
  its moments (``FiniteProcess``, from the configuration count matrix) are
  the ground truth.

Everything is an exact finite sum; there is no truncation once the prior's
support is finite.  Probabilities are carried in linear scale, and every
Upsilon entry and covariance is a compensated (math.fsum) sum.

Paper formulas on explicit grids close the module, as references that the
tests check against the exact routes and the filter: the Janossy masses of
a DPP (``all_subset_masses``, behind ``dpp_process``), the predicted
moments (``prediction_moments``), the square-root kernel reconstruction
(``reconstruct_kernel_from_moments``) and the approximate posterior count
covariance (``approx_count_covariance``).  No Monte Carlo step runs them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Iterable, Mapping

import numpy as np

from .dpp_filter import pair_denominators, posterior_kernel_entries
from .errors import SizeError
from .kernels import (
    DiscretizedKernel,
    interaction_kernel,
    operator_spectrum,
    pair_index,
    shrink_to_feasible,
)
from .ppp_filter import corrector_terms

# Exact-sum size bounds.  The observation factorization is factorial in the
# number of points; these caps keep every call comfortably under a second.
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
    measurement grid's reference measure); l_c[z] is the clutter intensity.
    """

    p_d: np.ndarray  # (G,)
    l_d: np.ndarray  # (Z, G)
    l_c: np.ndarray  # (Z,)

    def __post_init__(self):
        object.__setattr__(self, "p_d", np.asarray(self.p_d, dtype=float))
        object.__setattr__(self, "l_d", np.asarray(self.l_d, dtype=float))
        object.__setattr__(self, "l_c", np.asarray(self.l_c, dtype=float))
        if not all(np.isfinite(v).all() for v in (self.p_d, self.l_d, self.l_c)):
            raise ValueError("p_d, likelihoods and clutter must be finite")
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
    """Point process given by an exhaustive probability table on a grid of
    ``points`` unit-mass points.

    ``table`` maps a sorted index multiset to the probability of that
    configuration (before ``normalized``, to any finite nonnegative mass);
    absent keys are zero.  On a grid, a Janossy measure with respect to
    counting measure is this table, so every moment below is a mass.
    """

    points: int
    table: Mapping[Config, float]
    # from ``table``: count matrix C (configurations x points), probabilities p
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = int(self.points)
        table = {}
        for key, val in self.table.items():
            key = tuple(sorted(int(i) for i in key))
            if key and (key[0] < 0 or key[-1] >= points):
                raise ValueError(f"configuration {key} outside grid")
            if not (val >= 0 and math.isfinite(val)):
                raise ValueError(f"probability {val} of {key} is not finite and nonnegative")
            if val != 0.0:
                table[key] = float(val)
        counts = np.zeros((len(table), points), dtype=int)
        for row, cfg in zip(counts, table):
            np.add.at(row, list(cfg), 1)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "probs", np.array(list(table.values()), dtype=float))

    def total_mass(self) -> float:
        return math.fsum(self.table.values())

    @property
    def support_size(self) -> int:
        return max((len(c) for c in self.table), default=0)

    def normalized(self) -> "FiniteProcess":
        z = self.total_mass()
        if z <= 0:
            raise ValueError("process has zero total mass")
        return FiniteProcess(self.points, {c: p / z for c, p in self.table.items()})

    def intensity(self) -> np.ndarray:
        """First moment E[multiplicity at x]: C^T p."""
        return self.counts.T @ self.probs

    def pair_factorial(self) -> np.ndarray:
        """Second factorial moment E[m_i m_j] off the diagonal, the
        off-diagonal of C^T diag(p) C; the diagonal is reported as zero."""
        rho = self.counts.T @ (self.probs[:, None] * self.counts)
        np.fill_diagonal(rho, 0.0)
        return rho

    def count_covariance(self, a: Iterable[int], b: Iterable[int]) -> float:
        """Covariance of the point counts in index sets A and B (off-grid indices count none)."""
        grid = np.arange(self.points)
        na, nb = self.counts @ np.isin(grid, list(a)), self.counts @ np.isin(grid, list(b))
        p = self.probs
        return float(p @ (na * nb) - (p @ na) * (p @ nb))


def dpp_process(kernel: DiscretizedKernel) -> FiniteProcess:
    """Exact probability table of a DPP on a small grid (subset enumeration)."""
    masses = all_subset_masses(kernel)
    return FiniteProcess(len(kernel), {c: m for c, m in masses.items() if m > 0.0})


def poisson_process(intensity, n_max: int = MAX_SUPPORT) -> FiniteProcess:
    """Poisson process with intensity masses ``intensity``, one per grid
    point, truncated at n_max points.

    P(config) = exp(-sum lambda) prod_i lambda_i^{m_i} / m_i! on every
    multiset; truncation leaves a total-mass deficit of order
    (sum lambda)^{n_max+1}/(n_max+1)!, so keep the total small when 1e-10
    identities are asserted.
    """
    lam = np.asarray(intensity, dtype=float)
    table: dict[Config, float] = {}

    def rec(start: int, cfg: Config, p: float):
        table[cfg] = p
        if len(cfg) == n_max:
            return
        for i in range(start, len(lam)):
            rec(i, cfg + (i,), p * lam[i] / (cfg.count(i) + 1))

    rec(0, (), math.exp(-float(lam.sum())))
    return FiniteProcess(len(lam), table)


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
    qd, lt, lc = obs.q_d, obs.l_tilde, obs.l_c
    q_inst = [float(qd[u]) for u in instances]
    q_all = math.prod(q_inst, start=1.0)
    total = [q_all * math.prod((lc[z] for z in meas), start=1.0)]  # S = empty term
    if n == 0 or m == 0:
        return total[0]
    # detection likelihood over a residual miss product; when every q_d is
    # positive the residual is q_all divided by the assigned factors,
    # otherwise fall back to explicit products
    fast = min(q_inst) > 0.0
    if fast:
        ratios = [[float(lt[z, instances[i]]) / q_inst[i] for i in range(n)] for z in meas]
    for k in range(1, min(n, m) + 1):
        for s_slots in combinations(range(m), k):
            clut = math.prod((lc[meas[j]] for j in range(m) if j not in s_slots), start=1.0)
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


def _fsum0(terms: np.ndarray) -> np.ndarray:
    """math.fsum along the first axis: one compensated sum per entry."""
    cols = terms.reshape(len(terms), -1).T.tolist()
    return np.array([math.fsum(col) for col in cols]).reshape(terms.shape[1:])


def _remove(cfg: Config, x: int) -> Config:
    i = cfg.index(x)
    return cfg[:i] + cfg[i + 1 :]


def _check(prior: FiniteProcess, obs: ObservationModel, meas) -> Config:
    """The measurement list as a tuple, once the problem is within the
    exact-sum bounds, every measurement index lies on the measurement grid
    and prior and observation model share one grid."""
    meas = tuple(int(z) for z in meas)
    if len(meas) > MAX_MEASUREMENTS:
        raise SizeError(f"at most {MAX_MEASUREMENTS} measurements supported, got {len(meas)}")
    if any(not 0 <= z < len(obs.l_c) for z in meas):
        raise ValueError(f"measurements {meas} outside the grid of {len(obs.l_c)} points")
    if prior.points != len(obs.p_d):
        raise ValueError(f"prior on {prior.points} points, observation model on {len(obs.p_d)}")
    support = prior.support_size
    if support > MAX_SUPPORT:
        raise SizeError(f"prior support {support} exceeds the exact-sum bound {MAX_SUPPORT}")
    return meas


class ExactPosterior:
    """The corrector-term route for one (prior, observation model,
    measurement list) problem.

    For each sub-list M' of the measurements, the observation factor
    g(c, M') is evaluated once per configuration c (the prior's support and
    every configuration one or two points less), and three Upsilon arrays
    are kept:

        u0       = sum_c P(c) g(c, M')                    (a Janossy value)
        u1[x]    = sum_c P(c) m_x(c) g(c - x, M')
        u2[x, y] = sum_c P(c) m_x(c) m_y(c - x) g(c - x - y, M')

    where m_x(c) is the multiplicity of x in c.  The posterior moments are
    array formulas over these arrays.
    """

    def __init__(self, prior: FiniteProcess, obs: ObservationModel, meas):
        self.meas = _check(prior, obs, meas)
        self.prior, self.obs = prior, obs
        counts = prior.counts
        n, g = counts.shape
        # _less_x[r, x] (_less_xy[r, x, y]) indexes in _configs the r-th
        # configuration less x (less x and then y); -1 where that point is
        # absent, and there the weight below is zero
        index = {c: r for r, c in enumerate(prior.table)}
        self._less_x = np.full((n, g), -1)
        self._less_xy = np.full((n, g, g), -1)
        for r, cfg in enumerate(prior.table):
            for x in set(cfg):
                cx = _remove(cfg, x)
                self._less_x[r, x] = index.setdefault(cx, len(index))
                for y in set(cx):
                    self._less_xy[r, x, y] = index.setdefault(_remove(cx, y), len(index))
        self._configs = list(index)
        self._w1 = prior.probs[:, None] * counts
        self._w2 = self._w1[:, :, None] * (counts[:, None, :] - np.eye(g, dtype=int))
        self._memo: dict[Config, tuple[float, np.ndarray, np.ndarray]] = {}

    def upsilon(self, meas=None) -> tuple[float, np.ndarray, np.ndarray]:
        """(u0, u1, u2) of a sub-list of the measurement list (default: the
        whole list)."""
        key = self.meas if meas is None else tuple(int(z) for z in meas)
        if Counter(key) - Counter(self.meas):
            raise ValueError(f"{key} is not a sub-list of the measurements {self.meas}")
        if key not in self._memo:
            g = np.array([observation_likelihood(c, self.obs, key) for c in self._configs])
            probs = self.prior.probs
            self._memo[key] = (
                math.fsum((probs * g[: len(probs)]).tolist()),
                _fsum0(self._w1 * g[self._less_x]),
                _fsum0(self._w2 * g[self._less_xy]),
            )
        return self._memo[key]

    @property
    def janossy(self) -> float:
        """Janossy density of the measurement process at the measurements."""
        return self.upsilon()[0]

    def _without(self, *positions: int) -> tuple[float, np.ndarray, np.ndarray]:
        """Upsilon arrays of the measurement list less the given positions."""
        return self.upsilon(z for i, z in enumerate(self.meas) if i not in positions)

    def _normalizer(self) -> float:
        if self.janossy == 0.0:
            raise ValueError("measurements have zero likelihood under the prior")
        return self.janossy

    def intensity(self) -> np.ndarray:
        """Posterior first moment via the corrector-term expansion.

        q_d(x) Upsilon^(1)_{z_{1:m}}(x) + sum_z l~_d(z|x) Upsilon^(1)_{z_{1:m} \\ z}(x),
        normalized by the measurement Janossy density.
        """
        qd, lt = self.obs.q_d, self.obs.l_tilde
        terms = [qd * self.upsilon()[1]]
        terms += [lt[z] * self._without(p)[1] for p, z in enumerate(self.meas)]
        return _fsum0(np.array(terms)) / self._normalizer()

    def pair(self) -> np.ndarray:
        """Posterior second factorial moment via the corrector terms, with a
        zero diagonal (the display convention for the pair moment)."""
        qd, lt, meas = self.obs.q_d, self.obs.l_tilde, self.meas
        terms = [np.outer(qd, qd) * self.upsilon()[2]]
        for p, z in enumerate(meas):
            terms.append((np.outer(lt[z], qd) + np.outer(qd, lt[z])) * self._without(p)[2])
        for (p1, z1), (p2, z2) in permutations(enumerate(meas), 2):
            terms.append(np.outer(lt[z1], lt[z2]) * self._without(p1, p2)[2])
        rho = np.triu(_fsum0(np.array(terms)), 1) / self._normalizer()
        return rho + rho.T

    def covariance(self, a: Iterable[int], b: Iterable[int]) -> float:
        """Posterior count covariance over index sets A and B.

        Assembled from the corrector expansion: the intersection intensity,
        the q_d^2 pair-vs-product, the single-measurement cross terms, the
        z = z' diagonal correction and the z != z' pair terms.  The cross
        terms subtract products with the first-order corrector of the
        opposite variable (the printed source drops to a second-order
        corrector there, which fails the Bayes cross-check).
        """
        grid = np.arange(self.prior.points)
        a, b = grid[np.isin(grid, list(a))], grid[np.isin(grid, list(b))]
        both = np.intersect1d(a, b)
        ab = np.ix_(a, b)
        qd, lt, meas = self.obs.q_d, self.obs.l_tilde, self.meas
        jz = self._normalizer()

        def ratios(*positions):
            _, u1, u2 = self._without(*positions)
            return u1 / jz, u2 / jz

        l1, l2 = ratios()
        singles = [ratios(p)[0] for p in range(len(meas))]
        terms = [
            qd[both] * l1[both],
            np.outer(qd[a], qd[b]) * (l2[ab] - np.outer(l1[a], l1[b])),
        ]
        for p, z in enumerate(meas):
            r1, r2 = singles[p], ratios(p)[1]
            # single-detection cross terms against the miss branch
            terms.append(np.outer(lt[z, a], qd[b]) * (r2[ab] - np.outer(r1[a], l1[b])))
            terms.append(np.outer(qd[a], lt[z, b]) * (r2[ab] - np.outer(l1[a], r1[b])))
            # z = z' diagonal correction
            terms.append(lt[z, both] * r1[both])
            sa = math.fsum((lt[z, a] * r1[a]).tolist())
            sb = math.fsum((lt[z, b] * r1[b]).tolist())
            terms.append(np.array([-sa * sb]))
        # z != z' pair terms
        for (p1, z1), (p2, z2) in permutations(enumerate(meas), 2):
            dev = ratios(p1, p2)[1][ab] - np.outer(singles[p1][a], singles[p2][b])
            terms.append(np.outer(lt[z1, a], lt[z2, b]) * dev)
        return math.fsum(np.concatenate([t.ravel() for t in terms]).tolist())


def enumerate_posterior(prior: FiniteProcess, obs: ObservationModel, meas) -> FiniteProcess:
    """Independent Bayes oracle: weight every configuration and normalize.

    P(config | meas) = P(config) * observation factorization / measurement
    Janossy.  Its moments are the ground truth for the corrector-term route.
    """
    meas = _check(prior, obs, meas)
    if prior.points > MAX_ENUM_GRID:
        raise SizeError(f"enumerate_posterior limited to {MAX_ENUM_GRID} grid points")
    if len(meas) > MAX_ENUM_MEAS:
        raise SizeError(f"enumerate_posterior limited to {MAX_ENUM_MEAS} measurements")
    table = {}
    for cfg, p in prior.table.items():
        like = observation_likelihood(cfg, obs, meas)
        if like > 0.0:
            table[cfg] = p * like
    if not table:
        raise ValueError("measurements have zero likelihood under the prior")
    return FiniteProcess(prior.points, table).normalized()


def all_subset_masses(kernel: DiscretizedKernel) -> dict[tuple[int, ...], float]:
    """Janossy masses of every subset of a small kernel's states (N <= 12):
    the probability that the process is exactly that subset.  Raises
    SpectrumError, from ``interaction_kernel``, unless the kernel is valid."""
    n = len(kernel)
    if n > 12:
        raise ValueError("subset enumeration is limited to 12 points")
    j = interaction_kernel(kernel)
    void = float(np.prod(1.0 - operator_spectrum(kernel)))
    out: dict[tuple[int, ...], float] = {(): void}
    for bits in range(1, 1 << n):
        idx = [i for i in range(n) if bits >> i & 1]
        out[tuple(idx)] = max(void * float(np.linalg.det(j[np.ix_(idx, idx)])), 0.0)
    return out


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


def approx_count_covariance(
    kernel: DiscretizedKernel,
    like: np.ndarray,
    clutter: np.ndarray,
    q_d: float,
    a: np.ndarray,
    b: np.ndarray,
) -> float:
    """Closed-form posterior count covariance over two index sets, from the
    interaction kernel of the predicted correlation kernel and the scan:
    the miss-branch intensity and pair terms, per detection z the cross
    terms and their z = z' correction, and per pair z != z' the paired
    term over A x B less its product counterpart (for disjoint regions with
    no cross interaction this degenerates to the negative-correlation
    contract), summed by one math.fsum."""
    a, b = (np.unique(np.asarray(s, dtype=int)) for s in (a, b))
    if a.size == 0 or b.size == 0:
        return 0.0
    jm = interaction_kernel(kernel)
    jd = np.diag(jm).copy()
    inter = np.intersect1d(a, b)
    jab2 = jm[np.ix_(a, b)] ** 2
    sc = corrector_terms(clutter, like, jd)[0]
    la, lb = like[:, a], like[:, b]
    sa, sb = la @ jd[a], lb @ jd[b]
    # per detection z: the cross terms against the miss branch, and the
    # z = z' correction
    cross = -q_d / sc * (la @ jab2.sum(axis=1) + lb @ jab2.sum(axis=0))
    single = (like[:, inter] @ jd[inter] - sa * sb / sc) / sc
    # per pair z != z'
    off = ~np.eye(len(sc), dtype=bool)
    num = (la @ (np.outer(jd[a], jd[b]) - jab2) @ lb.T)[off]
    denom = pair_denominators(jm**2, like, sc)[off]
    paired = num / denom - np.outer(sa, sb)[off] / np.outer(sc, sc)[off]
    terms = [q_d * np.sum(jd[inter]), -(q_d**2) * np.sum(jab2), *cross, *single, *paired]
    return math.fsum(terms)
