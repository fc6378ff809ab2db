"""Dense symmetric-kernel algebra on weighted discrete state spaces.

A kernel K(x_i, x_j) lives on a finite grid of points with measure weights
w_i, and represents either a correlation kernel (operator spectrum in
[0, 1 - delta]) or an interaction kernel J = (Id - K)^{-1} K (positive
semidefinite).  All operator algebra goes through the symmetrized matrix
S = W^{1/2} K W^{1/2}, whose eigenvalues are the operator spectrum; with
unit weights, S is the kernel matrix itself and the discretized formulas
reduce to plain matrix sums.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from .errors import SpectrumError

log = logging.getLogger(__name__)

# Spectral margin: correlation spectra are clipped into [0, 1 - DELTA] so
# that (Id - K)^{-1} stays well conditioned (condition number <= 1/DELTA).
DELTA = 1e-3

CORRELATION = "correlation"
INTERACTION = "interaction"


@dataclass(frozen=True)
class GridSpec:
    """Discretized window: points of the state space plus measure weights."""

    points: np.ndarray  # (N, d)
    weights: np.ndarray  # (N,), nonnegative masses nu({x_i})

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must be one per point")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and nonnegative")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @staticmethod
    def unit(points: np.ndarray) -> "GridSpec":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return GridSpec(pts, np.ones(pts.shape[0]))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscretizedKernel:
    """Symmetric kernel matrix over a weighted grid.

    ``support`` is the boolean (N, N) mask of entries allowed to be nonzero
    (None allows every entry); ``smc.banded_kernel`` builds it with the
    kernel and operations that keep the sparsity pattern pass it on.
    Cheap structural invariants (symmetry, support zeros) are enforced at
    construction; spectral invariants are checked by :func:`validate_kernel`.
    Kernels are built valid (``smc.banded_kernel``) or made valid by
    :func:`shrink_to_feasible`.
    """

    grid: GridSpec
    entries: np.ndarray  # (N, N)
    kind: str
    support: Optional[np.ndarray] = None  # (N, N) bool

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.shape != (len(self.grid), len(self.grid)):
            raise ValueError("kernel shape does not match grid")
        if not np.array_equal(m, m.T):
            raise ValueError("kernel entries must be exactly symmetric")
        if self.kind not in (CORRELATION, INTERACTION):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.support is not None:
            if np.shape(self.support) != m.shape:
                raise ValueError("support mask shape does not match grid")
            if np.any(m[~self.support] != 0.0):
                raise ValueError("kernel has nonzero entries outside its support")
        object.__setattr__(self, "entries", m)

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries).copy()


def _sqrt_weights(grid: GridSpec) -> np.ndarray:
    if np.any(grid.weights <= 0):
        raise ValueError("operator algebra requires strictly positive weights")
    return np.sqrt(grid.weights)


def operator_matrix(kernel: DiscretizedKernel) -> np.ndarray:
    """Symmetrized operator matrix S = W^{1/2} K W^{1/2}."""
    rw = _sqrt_weights(kernel.grid)
    return kernel.entries * rw[:, None] * rw[None, :]


def operator_spectrum(kernel: DiscretizedKernel) -> np.ndarray:
    return np.linalg.eigvalsh(operator_matrix(kernel))


def _spd_inverse(a: np.ndarray) -> Optional[np.ndarray]:
    """Inverse of a symmetric positive definite matrix from its Cholesky
    factor (LAPACK dpotrf, then dpotri), or None if ``a`` has no Cholesky
    factor.  ``a`` must be nonempty: LAPACK rejects a 0 x 0 matrix."""
    factor, info = lapack.dpotrf(a, lower=False, clean=True)
    if info > 0:
        return None
    if info == 0:
        inv, info = lapack.dpotri(factor, lower=False, overwrite_c=True)
    if info != 0:
        raise ValueError(f"LAPACK Cholesky inverse failed with info={info}")
    # dpotri fills the upper triangle and leaves the strict lower one as the
    # zeros dpotrf's clean wrote, so this mirrors it: exactly symmetric
    full = inv + inv.T
    np.fill_diagonal(full, np.diagonal(inv))
    return full


def interaction_kernel(kernel: DiscretizedKernel, delta: float = DELTA) -> DiscretizedKernel:
    """Interaction kernel J = (Id - K)^{-1} K of a correlation kernel.

    In the symmetrized operator S = W^{1/2} K W^{1/2} this is
    J_S = (I - S)^{-1} - I, computed from a Cholesky factorization of I - S;
    no eigendecomposition is taken.  Raises :class:`SpectrumError` unless
    the operator spectrum lies at or below 1 - delta, with a slack of 1e-12,
    which holds iff (1 - delta + 1e-12) I - S has a Cholesky factor.  I - S
    then has condition number at most about 1/delta.  An empty grid gives
    an empty kernel.
    """
    if kernel.kind != CORRELATION:
        raise ValueError("interaction_kernel expects a correlation kernel")
    n = len(kernel)
    if n == 0:
        return DiscretizedKernel(kernel.grid, np.zeros((0, 0)), INTERACTION)
    rw = _sqrt_weights(kernel.grid)
    scale = np.outer(rw, rw)
    s = kernel.entries * scale
    eye = np.eye(n)
    if lapack.dpotrf((1.0 - delta + 1e-12) * eye - s, lower=False)[1] != 0:
        top = float(operator_spectrum(kernel).max())
        raise SpectrumError(
            f"correlation spectrum reaches {top:.12g} > 1 - delta (delta={delta:g}); "
            "make the kernel valid first"
        )
    j = _spd_inverse(eye - s)
    if j is None:  # unreachable once the domain check has passed
        raise SpectrumError("Id - K has no Cholesky factor")
    np.fill_diagonal(j, np.diagonal(j) - 1.0)
    j /= scale
    return DiscretizedKernel(kernel.grid, j, INTERACTION)


def correlation_from_interaction(kernel: DiscretizedKernel) -> DiscretizedKernel:
    """Inverse map K = (Id + J)^{-1} J, used to round-trip the transform:
    K_S = I - (I + J_S)^{-1} by the same Cholesky inverse.  Raises
    :class:`SpectrumError` if I + J_S is not positive definite (an operator
    eigenvalue of J at or below -1)."""
    if kernel.kind != INTERACTION:
        raise ValueError("expects an interaction kernel")
    n = len(kernel)
    if n == 0:
        return DiscretizedKernel(kernel.grid, np.zeros((0, 0)), CORRELATION)
    rw = _sqrt_weights(kernel.grid)
    scale = np.outer(rw, rw)
    eye = np.eye(n)
    inv = _spd_inverse(eye + kernel.entries * scale)
    if inv is None:
        raise SpectrumError("Id + J is not positive definite")
    return DiscretizedKernel(kernel.grid, (eye - inv) / scale, CORRELATION)


def cross_covariance(kernel: DiscretizedKernel, a, b) -> float:
    """Count covariance between index sets A and B under the DPP form.

    cov = sum_{A n B} K(x,x) w - sum_{A x B} K(x,y)^2 w w; the double sum
    includes x == y, which is what the count algebra on an atomic grid
    requires.  For disjoint A, B this is minus a sum of squares, hence <= 0
    exactly.
    """
    a = np.asarray(sorted(set(a)), dtype=int)
    b = np.asarray(sorted(set(b)), dtype=int)
    w = kernel.grid.weights
    inter = np.intersect1d(a, b)
    first = float((np.diag(kernel.entries)[inter] * w[inter]).sum()) if inter.size else 0.0
    if a.size and b.size:
        block = kernel.entries[np.ix_(a, b)] ** 2
        second = float((w[a][:, None] * block * w[b][None, :]).sum())
    else:
        second = 0.0
    return first - second


def all_subset_masses(kernel: DiscretizedKernel, delta: float = DELTA) -> dict[tuple[int, ...], float]:
    """Janossy masses of every subset of a small grid (N <= 12)."""
    n = len(kernel)
    if n > 12:
        raise ValueError("subset enumeration is limited to 12 points")
    lam = operator_spectrum(kernel)
    if lam.max(initial=0.0) > 1.0 - delta + 1e-12:
        raise SpectrumError(f"spectrum reaches {lam.max():.6g}; project the kernel first")
    void = float(np.prod(1.0 - lam))
    j = interaction_kernel(kernel, delta).entries
    w = kernel.grid.weights
    out: dict[tuple[int, ...], float] = {(): void}
    for bits in range(1, 1 << n):
        idx = [i for i in range(n) if bits >> i & 1]
        det = float(np.linalg.det(j[np.ix_(idx, idx)]))
        out[tuple(idx)] = max(void * det * float(np.prod(w[idx])), 0.0)
    return out


def project_kernel(
    entries: np.ndarray,
    grid: GridSpec,
    kind: str = CORRELATION,
    support: Optional[np.ndarray] = None,
    delta: float = DELTA,
    max_iter: int = 25,
) -> DiscretizedKernel:
    """Restore a symmetric matrix to the valid kernel set.

    Alternates eigenvalue clipping (into [0, 1 - delta] for correlation
    kernels, [0, inf) for interaction kernels) with re-zeroing the entries
    outside ``support``; both constraint sets are convex, so the alternation
    contracts the violation geometrically.  Because polishing the last few digits
    this way costs one eigendecomposition per digit, the loop is capped and
    the remaining violation is removed exactly in one closing move: a
    diagonal load of size max(0, -lambda_min) lifts the floor (the support
    holds since the load only touches the diagonal) and a multiplicative
    shrink enforces the ceiling.  Feasible inputs pass through unchanged,
    so the map is idempotent.
    """
    m = 0.5 * (np.asarray(entries, dtype=float) + np.asarray(entries, dtype=float).T)
    rw = _sqrt_weights(grid)
    hi = (1.0 - delta) if kind == CORRELATION else np.inf
    # Exactly diagonal matrices project by clipping the diagonal; this also
    # keeps the zero-interaction mode free of eigendecomposition roundoff.
    if np.count_nonzero(m - np.diag(np.diag(m))) == 0:
        d = np.clip(np.diag(m), 0.0, hi / np.clip(grid.weights, 1e-300, None))
        # operator eigenvalue of a diagonal kernel entry is K_ii * w_i
        return DiscretizedKernel(grid, np.diag(d), kind, support)
    feas_tol = 1e-12
    for _ in range(max_iter):
        if support is not None:
            m = np.where(support, m, 0.0)
            m = 0.5 * (m + m.T)
        s = m * rw[:, None] * rw[None, :]
        lam, u = np.linalg.eigh(s)
        floor = max(0.0, -float(lam.min(initial=0.0)))
        ceil = max(0.0, float(lam.max(initial=0.0)) - hi) if np.isfinite(hi) else 0.0
        if floor <= feas_tol and ceil <= feas_tol:
            return DiscretizedKernel(grid, m, kind, support)
        clipped = np.clip(lam, 0.0, hi)
        s = (u * clipped) @ u.T
        m = s / rw[:, None] / rw[None, :]
        m = 0.5 * (m + m.T)
    # closing move: exact feasibility from the last masked iterate
    if support is not None:
        m = np.where(support, m, 0.0)
        m = 0.5 * (m + m.T)
    s = m * rw[:, None] * rw[None, :]
    lam = np.linalg.eigvalsh(s)
    floor = max(0.0, -float(lam.min(initial=0.0)))
    if floor > 0.0:
        if floor > 1e-6:
            log.warning("kernel projection closing load of %.2e on the diagonal", floor)
        m = m + np.diag(np.full(len(grid), floor) / grid.weights)
        top = float(lam.max(initial=0.0)) + floor
    else:
        top = float(lam.max(initial=0.0))
    if np.isfinite(hi) and top > hi:
        m = m * (hi / top)
    m = 0.5 * (m + m.T)
    return DiscretizedKernel(grid, m, kind, support)


def shrink_to_feasible(
    entries: np.ndarray,
    grid: GridSpec,
    support: Optional[np.ndarray] = None,
    delta: float = DELTA,
) -> tuple[DiscretizedKernel, float, float]:
    """Make a symmetric matrix a valid correlation kernel by scaling its
    off-diagonal part and leaving its diagonal alone.

    In the symmetrized operator S = W^{1/2} M W^{1/2}, with the entries
    outside ``support`` zeroed, split S into its diagonal D and off-diagonal
    O.  D is clipped into [0, 1 - delta], and O loses the rows and columns of every point whose
    diagonal was clipped or sits on a bound.  On the other points D + tO is
    positive semidefinite iff t <= -1/lambda_min(D^{-1/2} O D^{-1/2}) and has
    spectrum at most 1 - delta iff t <= 1/lambda_max(E^{-1/2} O E^{-1/2}),
    with E = (1 - delta) I - D, so the largest such t in [0, 1] is taken: two
    eigvalsh calls and no iteration.  The weights cancel in both matrices, so
    they are formed from the kernel entries directly.

    The diagonal is kept bit for bit wherever its operator value lies in
    [0, 1 - delta], so the trace is the input's; a feasible input comes back
    unchanged.  Returns the kernel, the off-diagonal scale t and the diagonal
    mass the clip removed, sum_i w_i (M_ii - K_ii).
    """
    m = np.asarray(entries, dtype=float)
    m = 0.5 * (m + m.T)
    if support is not None:
        m = np.where(support, m, 0.0)
    _sqrt_weights(grid)  # the operator needs strictly positive weights
    mu = np.diag(m)
    cap = (1.0 - delta) / grid.weights  # kernel diagonal of operator value 1 - delta
    diagonal = np.clip(mu, 0.0, cap)
    clipped_mass = float(np.sum((mu - diagonal) * grid.weights))
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    free = (mu > 0.0) & (mu < cap)
    off[~free, :] = 0.0
    off[:, ~free] = 0.0
    t = 1.0
    if np.any(off):
        sub = off[np.ix_(free, free)]
        root_d = np.sqrt(mu[free])
        root_e = np.sqrt(cap[free] - mu[free])
        with np.errstate(over="ignore", invalid="ignore"):
            a = sub / root_d[:, None] / root_d[None, :]
            b = sub / root_e[:, None] / root_e[None, :]
        if np.all(np.isfinite(a)) and np.all(np.isfinite(b)):
            lowest = float(np.linalg.eigvalsh(a)[0])
            highest = float(np.linalg.eigvalsh(b)[-1])
            if lowest < 0.0:
                t = min(t, -1.0 / lowest)
            if highest > 0.0:
                t = min(t, 1.0 / highest)
        else:
            t = 0.0  # a diagonal too close to a bound to scale against
    out = t * off + np.diag(diagonal)
    return DiscretizedKernel(grid, out, CORRELATION, support), t, clipped_mass


def validate_kernel(kernel: DiscretizedKernel, delta: float = DELTA, tol: float = 1e-9) -> None:
    """Raise if any DiscretizedKernel invariant fails (used by test rigs)."""
    m = kernel.entries
    if not np.array_equal(m, m.T):
        raise AssertionError("kernel not exactly symmetric")
    if kernel.support is not None and np.any(m[~kernel.support] != 0.0):
        raise AssertionError("support condition violated")
    lam = operator_spectrum(kernel)
    if lam.min(initial=0.0) < -tol:
        raise AssertionError(f"spectrum has negative eigenvalue {lam.min():.3e}")
    if kernel.kind == CORRELATION and lam.max(initial=0.0) > 1.0 - delta + tol:
        raise AssertionError(f"spectrum reaches {lam.max():.6g} > 1 - delta")
