"""Self-contained validation battery behind the `oracle-check` CLI command.

Each check exercises the exact-oracle formulas against an independent
computation and reports one PASS/FAIL line; all of them also run (with
more cases) in the pytest suite, which shares this module's test rig:
kernel builders, spectral references and ``validate_kernel``.
"""

from __future__ import annotations

import time

import numpy as np

from .kernels import DELTA, DiscretizedKernel, interaction_kernel, shrink_to_feasible
from .oracle import (
    ExactPosterior,
    FiniteProcess,
    ObservationModel,
    dpp_process,
    enumerate_posterior,
    poisson_process,
)


def _random_case(rng: np.random.Generator):
    """A random simple prior on 2-4 points, its density table drawn on a
    grid of random point masses and folded into configuration masses."""
    g = int(rng.integers(2, 5))
    z = int(rng.integers(1, 4))
    weights = rng.uniform(0.5, 1.5, g)
    obs = ObservationModel(
        p_d=rng.uniform(0.3, 0.9, g),
        l_d=rng.uniform(0.05, 1.0, (z, g)),
        l_c=rng.uniform(0.1, 0.6, z),
    )
    support = min(g, 3)
    table = {}
    for bits in range(1 << g):
        cfg = tuple(i for i in range(g) if bits >> i & 1)
        if len(cfg) <= support:
            table[cfg] = float(rng.uniform(0.05, 1.0)) * float(np.prod(weights[list(cfg)]))
    prior = FiniteProcess(g, table).normalized()
    meas = tuple(int(v) for v in rng.choice(z, size=min(z, 2), replace=False))
    return prior, obs, meas


def check_poisson_reduction(tol: float = 1e-10) -> tuple[bool, str]:
    # small intensity masses, so the truncated table is exact to far below
    # the tolerance
    lam = np.array([0.12, 0.10, 0.08])
    prior = poisson_process(lam, n_max=12)
    obs = ObservationModel(
        p_d=np.full(3, 0.7),
        l_d=np.array([[0.9, 0.3, 0.1], [0.2, 0.5, 0.8]]),
        l_c=np.array([0.25, 0.45]),
    )
    meas = (0, 1)
    exact = ExactPosterior(prior, obs, meas)
    jz, u1, u2 = exact.upsilon()
    s = obs.l_c + obs.l_tilde @ lam
    closed = float(np.exp(-0.7 * lam.sum()) * np.prod(s))
    errs = [abs(jz - closed) / closed]
    # the corrector ratios are lambda_x and lambda_x lambda_y in the Poisson case
    errs += list(np.abs(u1 / (jz * lam) - 1.0))
    errs += list(np.abs(u2 / (jz * np.outer(lam, lam)) - 1.0).ravel())
    # classical posterior intensity lambda (q_d + sum_z l~(z) / s(z)), per lambda
    mu = exact.intensity()
    classical = obs.q_d + (obs.l_tilde / s[:, None]).sum(axis=0)
    errs.append(float(np.max(np.abs(mu / lam - classical))))
    # classical posterior covariance over overlapping and disjoint domain pairs
    lt = obs.l_tilde * lam
    for a, b in [((0, 1), (1, 2)), ((0,), (2,)), ((0, 1, 2), (0, 1, 2))]:
        a, b = list(a), list(b)
        inter = sorted(set(a) & set(b))
        closed = float(np.sum(obs.q_d[inter] * lam[inter]))
        for z in meas:
            ia, ib, ii = lt[z, a].sum(), lt[z, b].sum(), lt[z, inter].sum()
            closed += ii / s[z] - ia * ib / s[z] ** 2
        errs.append(abs(exact.covariance(a, b) - closed))
    worst = max(errs)
    return worst < tol, f"poisson reduction: worst deviation {worst:.2e} (tol {tol:g})"


def check_oracle_equivalence(cases: int = 5, tol: float = 1e-9) -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(cases):
        prior, obs, meas = _random_case(rng)
        post = enumerate_posterior(prior, obs, meas)
        exact = ExactPosterior(prior, obs, meas)
        worst = max(worst, float(np.max(np.abs(exact.intensity() - post.intensity()))))
        everything = range(prior.points)
        cov = exact.covariance(everything, everything)
        worst = max(worst, abs(cov - post.count_covariance(everything, everything)))
    return worst < tol, f"oracle equivalence: worst deviation {worst:.2e} over {cases} cases"


def check_dpp_normalization(tol: float = 1e-8) -> tuple[bool, str]:
    rng = np.random.default_rng(3)
    weights = rng.uniform(0.5, 1.5, 4)
    raw = rng.uniform(-0.2, 0.2, (4, 4))
    raw = 0.3 * np.eye(4) + 0.5 * (raw + raw.T)
    kernel = shrink_to_feasible(DiscretizedKernel.from_dense(operator_form(raw, weights)))[0]
    fp = dpp_process(kernel)
    total = fp.total_mass()
    return abs(total - 1.0) < tol, f"dpp janossy normalization: total mass {total:.12f}"


def operator_form(m: np.ndarray, weights) -> np.ndarray:
    """S = M o sqrt(w) sqrt(w)^T: the kernel matrix M of a grid whose points
    carry masses ``weights``, with the masses folded in; exactly symmetric
    when M is."""
    rw = np.sqrt(np.asarray(weights, dtype=float))
    return m * np.outer(rw, rw)


def validate_kernel(kernel: DiscretizedKernel) -> None:
    """Raise unless the operator spectrum lies in [0, 1 - DELTA], up to
    roundoff (construction checks the structure)."""
    tol = 1e-9  # roundoff allowed at the spectrum's bounds
    lam = np.linalg.eigvalsh(kernel.to_dense())
    if lam.min(initial=0.0) < -tol:
        raise AssertionError(f"spectrum has negative eigenvalue {lam.min():.3e}")
    if lam.max(initial=0.0) > 1.0 - DELTA + tol:
        raise AssertionError(f"spectrum reaches {lam.max():.6g} > 1 - delta")


def spectral_interaction(kernel) -> np.ndarray:
    """J by its spectral definition, the reference for the Cholesky
    transform: K = U diag(lam) U^T and J = U diag(lam / (1 - lam)) U^T."""
    lam, u = np.linalg.eigh(kernel.to_dense())
    return (u * (lam / (1.0 - lam))) @ u.T


def ceiling_bound_kernel(rng: np.random.Generator, n: int, width=None):
    """A ``shrink_to_feasible`` output on n points in one band of
    bandwidth ``width`` (None: full width), from the kernel of a grid of
    random point masses in operator form, whose spectrum sits at the
    1 - delta ceiling.  The diagonal is 0.6-0.99 of 1 - delta and the
    off-diagonal entries are at least 0.5, so the Perron root of
    E^-1/2 O E^-1/2 exceeds 1 and the one of D^-1/2 O D^-1/2: the ceiling
    sets the off-diagonal scale t < 1, which is returned with the kernel."""
    weights = rng.uniform(0.5, 2.0, n)
    raw = rng.uniform(1.0, 2.0, (n, n))
    raw = 0.5 * (raw + raw.T)
    np.fill_diagonal(raw, rng.uniform(0.6, 0.99, n) * (1.0 - DELTA) / weights)
    raw = operator_form(raw, weights)
    if width is not None:
        raw[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > width] = 0.0
    bands = ((n, n if width is None else width),)
    kernel, t, _ = shrink_to_feasible(DiscretizedKernel.from_dense(raw, bands))
    return kernel, t


def check_interaction_transform(rtol: float = 1e-10) -> tuple[bool, str]:
    """J = (Id - K)^{-1} K by Cholesky against its spectral definition, on a
    kernel whose spectrum sits at the 1 - delta ceiling: the case
    where the LAPACK build's rounding matters most."""
    kernel, _ = ceiling_bound_kernel(np.random.default_rng(5), 60)
    spectral = spectral_interaction(kernel)
    err = float(np.abs(interaction_kernel(kernel) - spectral).max())
    scale = float(np.abs(spectral).max())
    return err <= rtol * scale, (
        f"interaction transform: max |J - J_spectral| {err / scale:.2e} of max |J| "
        f"(tol {rtol:g})"
    )


ALL_CHECKS = (
    check_poisson_reduction,
    check_oracle_equivalence,
    check_dpp_normalization,
    check_interaction_transform,
)


def run_all(verbose_print=print) -> bool:
    ok = True
    for check in ALL_CHECKS:
        t0 = time.perf_counter()
        passed, msg = check()
        elapsed = time.perf_counter() - t0
        verbose_print(f"{'PASS' if passed else 'FAIL'}  {msg}, {elapsed:.2f}s")
        ok = ok and passed
    return ok
