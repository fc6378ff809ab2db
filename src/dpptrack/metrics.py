"""Tracking performance metrics: OSPA and OMAT miss-distances,
measurement-estimate association, good-estimate statistics, and intensity
peak extraction.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog


def _pairwise(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    y = np.asarray(y, dtype=float).reshape(-1, 2)
    diff = x[:, None, :] - y[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


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


def associate(detections_xy: np.ndarray, estimates: np.ndarray) -> list[tuple[int, int]]:
    """Nearest estimate per detection; ties break to the lower estimate index."""
    detections_xy = np.asarray(detections_xy, dtype=float).reshape(-1, 2)
    estimates = np.asarray(estimates, dtype=float).reshape(-1, 2)
    if detections_xy.shape[0] == 0 or estimates.shape[0] == 0:
        return []
    return list(enumerate(_nearest(detections_xy, estimates).tolist()))


def good_estimate_stats(
    scan,
    estimates: np.ndarray,
    truth_positions: dict[int, np.ndarray],
) -> tuple[Optional[float], Optional[float]]:
    """Fraction of target-originated measurements beaten by their estimate,
    and the mean relative distance improvement.

    A measurement is beaten when its associated (nearest) estimate is
    strictly closer to the originating target than the measurement itself.
    Returns (None, None) when the scan has no target-originated
    measurements or no estimates exist to associate.
    """
    if scan.truth_links is None:
        return None, None
    links = np.asarray(scan.truth_links)
    known = np.fromiter(truth_positions, dtype=links.dtype, count=len(truth_positions))
    target_rows = np.flatnonzero((links >= 0) & np.isin(links, known))
    estimates = np.asarray(estimates, dtype=float).reshape(-1, 2)
    if target_rows.size == 0 or estimates.shape[0] == 0:
        return None, None
    meas = scan.cartesian()[target_rows]
    truth = np.array([truth_positions[int(tid)] for tid in links[target_rows]], dtype=float)
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
    if not np.all(np.isfinite(intensity)):
        raise ValueError("intensity must be finite")
    if positions.shape[0] == 0 or intensity.sum() <= 0:
        return np.zeros((0, 2))
    k = min(k, positions.shape[0])
    centers = _seed_centers(positions, intensity, rng.random((restarts, k)))
    centers = _lloyd(positions, intensity, centers)
    inertia = (intensity * (_distances(positions, centers) ** 2).min(axis=2)).sum(axis=1)
    return centers[np.argmin(inertia)]


def _distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """_pairwise(points, c) for every restart's centres c, shape (r, n, k)."""
    dx = points[:, 0, None] - centers[:, None, :, 0]
    dy = points[:, 1, None] - centers[:, None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def _seed_centers(points: np.ndarray, weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """k-means++ seeding of u.shape[0] restarts at once, centre j of restart
    r picked by inverse CDF at u[r, j]."""
    restarts, k = u.shape
    probs = weights / weights.sum()
    centers = np.empty((restarts, k, 2))
    d2 = np.full((restarts, points.shape[0]), np.inf)
    for j in range(k):
        if j == 0:
            p = np.broadcast_to(probs, d2.shape)
        else:
            score = probs * d2
            total = score.sum(axis=1)
            seeded = total > 0
            p = np.where(seeded[:, None], score / np.where(seeded, total, 1.0)[:, None], probs)
        cdf = p.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        # searchsorted(cdf, u, 'right') per restart; cdf is nondecreasing
        picks = (cdf <= u[:, j, None]).sum(axis=1)
        centers[:, j] = points[picks]
        np.minimum(d2, _distances(points, centers[:, j : j + 1])[:, :, 0] ** 2, out=d2)
    return centers


def _lloyd(
    points: np.ndarray, weights: np.ndarray, centers: np.ndarray, iters: int = 50
) -> np.ndarray:
    """Weighted Lloyd iterations on every restart, in place; a restart is
    frozen once no centre coordinate moves by more than 1e-12.  A cluster
    with no weight keeps its centre.

    Each new centre is sum(w * x) / sum(w) over its cluster, rounded as the
    per-cluster numpy sums ``(x[sel] * w[sel, None]).sum(axis=0)`` and
    ``w[sel].sum()`` round: the coordinate sums accumulate in point order
    (``np.bincount``), the mass pairwise (``_cluster_mass``).
    """
    restarts, k, _ = centers.shape
    # weight, w * x and w * y of every point, repeated once per restart
    tiled = np.tile(np.stack([weights, weights * points[:, 0], weights * points[:, 1]]), restarts)
    active = np.arange(restarts)
    for _ in range(iters):
        old = centers[active]
        assign = np.argmin(_distances(points, old), axis=2)
        labels = (np.arange(active.size)[:, None] * k + assign).ravel()
        w, wx, wy = tiled[:, : labels.size]
        bins = active.size * k
        mass = _cluster_mass(labels, w, bins)
        sums = np.stack([np.bincount(labels, wx, bins), np.bincount(labels, wy, bins)], axis=1)
        held = (mass > 0)[:, None]
        new = np.divide(sums, mass[:, None], out=old.reshape(-1, 2).copy(), where=held)
        new = new.reshape(old.shape)
        centers[active] = new
        moving = np.any(np.abs(new - old) > 1e-12, axis=(1, 2))
        active = active[moving]
        if active.size == 0:
            break
    return centers


def _cluster_mass(labels: np.ndarray, weights: np.ndarray, bins: int) -> np.ndarray:
    """Sum of the weights in each label bin, each bin summed pairwise in
    point order as ``weights[labels == b].sum()`` is.

    ``np.add.reduceat`` adds the first element of a segment to the pairwise
    sum of the rest, so every bin's segment starts with a 0.0 of its own.
    """
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=bins)
    padded = np.zeros(labels.size + bins)
    padded[np.arange(labels.size) + labels[order] + 1] = weights[order]
    starts = np.cumsum(counts + 1) - (counts + 1)
    return np.add.reduceat(padded, starts)
