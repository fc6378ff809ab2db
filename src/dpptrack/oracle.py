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
    measurement grid's reference measure); l_c[z] is the clutter intensity.
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
    """Point process given by an exhaustive probability table on a grid of
    ``points`` unit-mass points.

    ``table`` maps a sorted index multiset to the probability of that
    configuration (before ``normalized``, to any finite nonnegative mass);
    absent keys are zero.  On a grid, a Janossy measure with respect to
    counting measure is this table, so every moment below is a mass.
    """

    points: int
    table: Mapping[Config, float]

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
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "table", table)

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

    # -- moments ----------------------------------------------------------

    def intensity(self) -> np.ndarray:
        """First moment: E[multiplicity at x]."""
        mu = np.zeros(self.points)
        for cfg, p in self.table.items():
            for i in cfg:
                mu[i] += p
        return mu

    def pair_factorial(self) -> np.ndarray:
        """Second factorial moment E[m_i m_j] off the diagonal; the diagonal
        is reported as zero."""
        rho = np.zeros((self.points, self.points))
        for cfg, p in self.table.items():
            counts = np.bincount(np.asarray(cfg, dtype=int), minlength=self.points)
            rho += p * np.outer(counts, counts)
        np.fill_diagonal(rho, 0.0)
        return rho

    def count_covariance(self, a: Iterable[int], b: Iterable[int]) -> float:
        """Covariance of the point counts in index sets A and B."""
        a, b = set(a), set(b)
        ea = eb = eab = 0.0
        for cfg, p in self.table.items():
            na = sum(1 for i in cfg if i in a)
            nb = sum(1 for i in cfg if i in b)
            ea += p * na
            eb += p * nb
            eab += p * na * nb
        return eab - ea * eb


# ---------------------------------------------------------------------------
# Prior constructors
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Observation likelihood core
# ---------------------------------------------------------------------------


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
        self._g: dict = {}

    def like(self, cfg: Config, meas: Config) -> float:
        key = (cfg, meas)
        val = self._g.get(key)
        if val is None:
            val = observation_likelihood(cfg, self.obs, meas)
            self._g[key] = val
        return val

    def ups(self, meas: Config, points: tuple[int, ...] = ()) -> float:
        """Upsilon over the appended ``points``: the sum over configurations
        c of P(c) times the number of ordered ways to pick ``points`` from c
        times the observation factorization of what c leaves."""
        terms = []
        for cfg, p in self.prior.table.items():
            rest = list(cfg)
            for x in points:
                k = rest.count(x)
                if k == 0:
                    break
                p *= k
                rest.remove(x)
            else:
                terms.append(p * self.like(tuple(rest), meas))
        return math.fsum(terms)


def _check(prior: FiniteProcess, obs: ObservationModel, meas) -> Config:
    """The measurement list as a tuple, once the problem is within the
    exact-sum bounds and prior and observation model share one grid."""
    meas = tuple(int(z) for z in meas)
    if len(meas) > MAX_MEASUREMENTS:
        raise SizeError(f"at most {MAX_MEASUREMENTS} measurements supported, got {len(meas)}")
    if prior.points != len(obs.p_d):
        raise ValueError(
            f"prior on {prior.points} points, observation model on {len(obs.p_d)}"
        )
    support = prior.support_size
    if support > MAX_SUPPORT:
        raise SizeError(f"prior support {support} exceeds the exact-sum bound {MAX_SUPPORT}")
    return meas


def joint_janossy(prior: FiniteProcess, obs: ObservationModel, states, meas) -> float:
    """P(states) times the observation factorization of (states, meas): on a
    simple configuration, the joint Janossy density of the states (counting
    measure) and the measurement list.

    The combinatorial coefficient is q_d^{n-|S|} per association term (the
    version under which the conditional table normalizes to one).
    """
    states = tuple(int(x) for x in states)
    meas = _check(prior, obs, meas)
    if len(states) > MAX_POINTS:
        raise SizeError(f"at most {MAX_POINTS} state points supported, got {len(states)}")
    p = prior.table.get(tuple(sorted(states)), 0.0)
    if p == 0.0:
        return 0.0
    return p * observation_likelihood(states, obs, meas)


def measurement_janossy(prior: FiniteProcess, obs: ObservationModel, meas) -> float:
    """Janossy density of the measurement process at the given points."""
    return _Session(prior, obs).ups(_check(prior, obs, meas))


def corrector_upsilon1(prior: FiniteProcess, obs: ObservationModel, meas, x: int) -> float:
    """Upsilon^(1)(x): each configuration with m_x > 0 points at x
    contributes m_x P(config) times the observation factorization of the
    configuration less one point at x."""
    return _Session(prior, obs).ups(_check(prior, obs, meas), (int(x),))


def corrector_upsilon2(
    prior: FiniteProcess, obs: ObservationModel, meas, x: int, y: int
) -> float:
    """Upsilon^(2)(x, y): as Upsilon^(1) with two appended points, picked
    in order (m_x m_y ways, or m_x (m_x - 1) when x = y)."""
    return _Session(prior, obs).ups(_check(prior, obs, meas), (int(x), int(y)))


def _drop(meas: tuple[int, ...], pos: int) -> tuple[int, ...]:
    return meas[:pos] + meas[pos + 1 :]


def _drop2(meas: tuple[int, ...], p1: int, p2: int) -> tuple[int, ...]:
    return tuple(meas[i] for i in range(len(meas)) if i not in (p1, p2))


def posterior_intensity_exact(prior: FiniteProcess, obs: ObservationModel, meas) -> np.ndarray:
    """Posterior first moment via the corrector-term expansion.

    q_d(x) Upsilon^(1)_{z_{1:m}}(x) + sum_z l~_d(z|x) Upsilon^(1)_{z_{1:m} \\ z}(x),
    normalized by the measurement Janossy density.
    """
    meas = _check(prior, obs, meas)
    ses = _Session(prior, obs)
    jz = ses.ups(meas)
    qd, lt = obs.q_d, obs.l_tilde
    mu = np.zeros(prior.points)
    for x in range(prior.points):
        val = [qd[x] * ses.ups(meas, (x,))]
        for pos in range(len(meas)):
            val.append(lt[meas[pos], x] * ses.ups(_drop(meas, pos), (x,)))
        mu[x] = math.fsum(val) / jz
    return mu


def posterior_pair_exact(prior: FiniteProcess, obs: ObservationModel, meas) -> np.ndarray:
    """Posterior second factorial moment via the corrector terms, with a zero
    diagonal (the display convention for the pair moment)."""
    meas = _check(prior, obs, meas)
    ses = _Session(prior, obs)
    jz = ses.ups(meas)
    g = prior.points
    qd, lt = obs.q_d, obs.l_tilde
    rho = np.zeros((g, g))
    for x in range(g):
        for y in range(x + 1, g):
            terms = [qd[x] * qd[y] * ses.ups(meas, (x, y))]
            for pos in range(len(meas)):
                u2 = ses.ups(_drop(meas, pos), (x, y))
                terms.append((qd[y] * lt[meas[pos], x] + qd[x] * lt[meas[pos], y]) * u2)
            for p1 in range(len(meas)):
                for p2 in range(len(meas)):
                    if p1 == p2:
                        continue
                    u2 = ses.ups(_drop2(meas, p1, p2), (x, y))
                    terms.append(lt[meas[p1], x] * lt[meas[p2], y] * u2)
            rho[x, y] = rho[y, x] = math.fsum(terms) / jz
    return rho


def posterior_covariance_exact(
    prior: FiniteProcess, obs: ObservationModel, meas, a: Iterable[int], b: Iterable[int]
) -> float:
    """Posterior count covariance over index sets A and B.

    Assembled term by term from the corrector expansion: the intersection
    intensity term, the q_d^2 pair-vs-product term, the single-measurement
    cross terms, the z = z' diagonal correction, and the z != z' pair term.
    The subtracted products in the single-measurement cross terms use the
    first-order corrector of the opposite variable (the printed source drops
    to a second-order corrector there, which fails the Bayes cross-check).
    """
    meas = _check(prior, obs, meas)
    a = sorted(set(int(i) for i in a))
    b = sorted(set(int(i) for i in b))
    inter = sorted(set(a) & set(b))
    qd, lt = obs.q_d, obs.l_tilde
    ses = _Session(prior, obs)
    jz = ses.ups(meas)
    m = len(meas)

    def l1(mm, x):
        return ses.ups(mm, (x,)) / jz

    def l2(mm, x, y):
        return ses.ups(mm, (x, y)) / jz

    terms = []
    # q_d intersection intensity
    for x in inter:
        terms.append(qd[x] * l1(meas, x))
    # q_d^2 (l2 - l1 l1) over A x B
    l1_full = {x: l1(meas, x) for x in set(a) | set(b)}
    for x in a:
        for y in b:
            terms.append(qd[x] * qd[y] * (l2(meas, x, y) - l1_full[x] * l1_full[y]))
    for pos in range(m):
        z = meas[pos]
        rest = _drop(meas, pos)
        l1_rest = {x: l1(rest, x) for x in set(a) | set(b)}
        # single-detection cross terms against the miss branch
        for x in a:
            for y in b:
                l2_rest = l2(rest, x, y)
                terms.append(qd[y] * lt[z, x] * (l2_rest - l1_rest[x] * l1_full[y]))
                terms.append(qd[x] * lt[z, y] * (l2_rest - l1_full[x] * l1_rest[y]))
        # z = z' diagonal correction
        for x in inter:
            terms.append(lt[z, x] * l1_rest[x])
        sa = math.fsum(lt[z, x] * l1_rest[x] for x in a)
        sb = math.fsum(lt[z, y] * l1_rest[y] for y in b)
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
                        lt[z1, x] * lt[z2, y] * (l2(rest12, x, y) - l1x * l1(rest2, y))
                    )
    return math.fsum(terms)


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
