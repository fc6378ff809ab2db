"""Tracking performance metrics: OSPA and OMAT miss-distances,
good-estimate statistics, and intensity peak extraction.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog


def _pairwise(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of x to each row of y, shape (n, m)."""
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    y = np.asarray(y, dtype=float).reshape(-1, 2)
    return _distances(y, x[None])[0]


def ospa(truth, est, c: float = 100.0, p: float = 2.0) -> float:
    """Optimal subpattern assignment distance with cutoff c and order p.

    Distances are cut at c, the optimal assignment covers the smaller set,
    unmatched points pay the cardinality penalty c, and the result is the
    order-p power mean.  Symmetric; both sets empty gives 0 by convention.
    """
    if c <= 0 or p < 1:
        raise ValueError("require c > 0 and p >= 1")
    x = np.asarray(truth, dtype=float).reshape(-1, 2)
    y = np.asarray(est, dtype=float).reshape(-1, 2)
    n, m = x.shape[0], y.shape[0]
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return float(c)
    d = np.minimum(_pairwise(x, y), c) ** p
    rows, cols = linear_sum_assignment(d)
    cost = float(d[rows, cols].sum())
    big = max(n, m)
    return float(((cost + c**p * abs(n - m)) / big) ** (1.0 / p))


# Above this lcm(n, m) the replicated assignment costs more than the
# transport LP, because its cost matrix has lcm^2 entries: 15 x 16 points
# (lcm 240) took 3.5 ms as an assignment and 5.6 ms as an LP, 16 x 17 (272)
# 7.9 ms and 6.2 ms, and 20 x 21 (420) 13.6 ms and 6.4 ms.
_ASSIGNMENT_MAX_LCM = 240


def omat(truth, est, p: float = 2.0) -> float:
    """Optimal mass transfer distance: the p-Wasserstein metric between the
    uniform empirical measures.  Undefined for empty sets.

    With both sets replicated to lcm(n, m) points every mass is 1/lcm, and an
    optimal plan can be taken to be a permutation (Birkhoff), so the problem
    is a square assignment.  Above ``_ASSIGNMENT_MAX_LCM`` it is solved as
    the transportation LP on the n x m distance matrix instead.
    """
    x = np.asarray(truth, dtype=float).reshape(-1, 2)
    y = np.asarray(est, dtype=float).reshape(-1, 2)
    n, m = x.shape[0], y.shape[0]
    if n == 0 or m == 0:
        raise ValueError("OMAT is undefined for empty point sets")
    d = _pairwise(x, y) ** p
    if n == 1 or m == 1:
        # plan forced: the single point meets everything with equal mass
        return float(d.mean()) ** (1.0 / p)
    size = math.lcm(n, m)
    if size <= _ASSIGNMENT_MAX_LCM:
        cost = np.repeat(np.repeat(d, size // n, axis=0), size // m, axis=1)
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].sum() / size) ** (1.0 / p)
    return _transport_lp(d) ** (1.0 / p)


def _transport_lp(d: np.ndarray) -> float:
    """Minimum of sum(P * d) over plans P >= 0 with rows summing to 1/n and
    columns to 1/m."""
    n, m = d.shape
    rows = np.kron(np.eye(n), np.ones(m))
    cols = np.kron(np.ones(n), np.eye(m))[:-1]  # one constraint is redundant
    a_eq = np.vstack([rows, cols])
    b_eq = np.concatenate([np.full(n, 1.0 / n), np.full(m - 1, 1.0 / m)])
    res = linprog(d.reshape(-1), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def _nearest(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Index of the nearest y for each x; ties break to the lower index."""
    return np.argmin(_pairwise(x, y), axis=1)


def good_estimate_stats(
    scan,
    estimates: np.ndarray,
    truth_positions: tuple,
) -> tuple[Optional[float], Optional[float]]:
    """Fraction of target-originated measurements beaten by their estimate,
    and the mean relative distance improvement.

    ``truth_positions`` is the pair (ids, positions) of the live targets: a
    sequence of target ids and an (n, 2) array of their positions.  Target
    ids are nonnegative; a scan links clutter to -1.

    A measurement is beaten when its associated (nearest) estimate is
    strictly closer to the originating target than the measurement itself.
    Returns (None, None) when the scan has no target-originated
    measurements or no estimates exist to associate.
    """
    if scan.truth_links is None:
        return None, None
    ids, positions = truth_positions
    # match[i, j]: measurement i came from target ids[j]
    match = scan.truth_links[:, None] == np.asarray(ids, dtype=int)
    target_rows = np.flatnonzero(match.any(axis=1))
    estimates = np.asarray(estimates, dtype=float).reshape(-1, 2)
    if target_rows.size == 0 or estimates.shape[0] == 0:
        return None, None
    meas = scan.cartesian()[target_rows]
    truth = np.asarray(positions, dtype=float).reshape(-1, 2)[match[target_rows].argmax(axis=1)]
    est = estimates[_nearest(meas, estimates)]
    d_meas = np.hypot(*(meas - truth).T)
    d_est = np.hypot(*(est - truth).T)
    gains = np.zeros_like(d_meas)
    np.divide(d_meas - d_est, d_meas, out=gains, where=d_meas > 0)
    ratio = int(np.count_nonzero(d_est < d_meas)) / target_rows.size
    return ratio, float(np.mean(gains))


def extract_estimates(
    positions: np.ndarray,
    intensity: np.ndarray,
    gamma: float,
    rng: np.random.Generator,
    restarts: int = 10,
) -> np.ndarray:
    """Target locations from the intensity surface: weighted k-means peaks.

    k = round(gamma); gamma <= 0.5 yields an empty estimate set.  Best of
    ``restarts`` k-means++-style seedings from the intensity distribution by
    weighted within-cluster sum of squares; the first best wins a tie.  All
    restarts run together as one array computation, and each stops after 50
    Lloyd iterations or once no centre moves by more than 1e-12.

    Draws exactly restarts * k uniforms from ``rng``, in restart-major
    order: restart r picks its j-th centre from draw r * k + j, by inverse
    CDF on the intensity or, for j > 0, on intensity times the squared
    distance to the nearest centre so far (the intensity alone when that
    product is 0 everywhere).  This consumes the stream as
    ``Generator.choice(n, p=...)`` does, one double per centre.
    """
    k = int(math.floor(gamma + 0.5))
    if gamma <= 0.5 or k == 0:
        return np.zeros((0, 2))
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    intensity = np.clip(np.asarray(intensity, dtype=float), 0.0, None)
    total = intensity.sum()
    if not math.isfinite(total):
        raise ValueError("intensity must be finite")
    if positions.shape[0] == 0 or total <= 0:
        return np.zeros((0, 2))
    k = min(k, positions.shape[0])
    centers = _seed_centers(positions, intensity / total, rng.random((restarts, k)))
    centers = _lloyd(positions, intensity, centers)
    inertia = (intensity * (_distances(positions, centers) ** 2).min(axis=1)).sum(axis=1)
    return centers[np.argmin(inertia)]


def _distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """_pairwise(c, points) for every restart's centres c, shape (r, k, n)."""
    dx = points[:, 0] - centers[:, :, 0, None]
    dy = points[:, 1] - centers[:, :, 1, None]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _seed_centers(points: np.ndarray, probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k-means++ seeding of u.shape[0] restarts at once from the point
    probabilities ``probs``, centre j of restart r picked by inverse CDF at
    u[r, j]."""
    restarts, k = u.shape
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    centers = np.empty((restarts, k, 2))
    centers[:, 0] = points[np.searchsorted(cdf, u[:, 0], side="right")]
    d2 = np.full((restarts, points.shape[0]), np.inf)
    for j in range(1, k):
        np.minimum(d2, _distances(points, centers[:, j - 1 : j])[:, 0] ** 2, out=d2)
        score = probs * d2
        total = score.sum(axis=1, keepdims=True)
        # a restart whose score is 0 everywhere draws from probs
        p = np.divide(score, total, out=probs[None].repeat(restarts, 0), where=total > 0)
        cdf = p.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        # searchsorted(cdf, u, 'right') per restart; cdf is nondecreasing
        centers[:, j] = points[(cdf <= u[:, j, None]).sum(axis=1)]
    return centers


def _lloyd(
    points: np.ndarray, weights: np.ndarray, centers: np.ndarray, iters: int = 50
) -> np.ndarray:
    """Weighted Lloyd iterations on every restart, in place; a restart is
    frozen once no centre coordinate moves by more than 1e-12.  A cluster
    with no weight keeps its centre.

    Each new centre is sum(w * x) / sum(w) over its cluster.  One
    ``np.bincount`` takes the mass and both coordinate sums of every
    cluster, each accumulated in point order.
    """
    restarts, k, _ = centers.shape
    # w, w * x and w * y of every point, once per restart
    terms = np.stack([weights, weights * points[:, 0], weights * points[:, 1]])
    terms = np.tile(terms, (restarts, 1, 1))
    # term j of a point in cluster c of the restart in row r goes to bin k * (3 r + j) + c
    offsets = k * np.arange(3 * restarts).reshape(restarts, 3, 1)
    active = np.arange(restarts)
    for _ in range(iters):
        old = centers[active]
        m = active.size
        bins = _distances(points, old).argmin(axis=1)[:, None, :] + offsets[:m]
        sums = np.bincount(bins.ravel(), terms[:m].ravel(), 3 * k * m).reshape(m, 3, k)
        mass = sums[:, 0, :, None]
        new = np.divide(sums[:, 1:].transpose(0, 2, 1), mass, out=old.copy(), where=mass > 0)
        centers[active] = new
        active = active[(np.abs(new - old) > 1e-12).any(axis=(1, 2))]
        if active.size == 0:
            break
    return centers
