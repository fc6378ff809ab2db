"""Correlation-kernel algebra on discrete state spaces.

On a finite ground set a determinantal point process is given by one
symmetric matrix, its correlation kernel K, with spectrum in [0, 1 - delta]
(Kulesza & Taskar 2012).  A kernel here is that operator matrix itself.  A
grid whose points carry reference masses w_i folds them in before it builds
the kernel, S = W^{1/2} K W^{1/2}; SMC particles have unit mass, so their
kernel matrix needs no folding.  The states never enter the algebra.  The
interaction kernel J = (Id - K)^{-1} K (the L-ensemble of K; Macchi 1975)
is an intermediate of the filter update and is a plain (N, N) array.

Kernels are stored dense, with their support as a list of index bands:
the matrix is block diagonal, one block per band, and each block is zero
beyond its band's bandwidth from the diagonal.  Only this module reads the
bands.  The interaction transform uses them: K is block tridiagonal, and J
comes from a block Cholesky factorization of I - K (``interaction_kernel``),
or only its diagonal from the diagonal blocks of (I - K)^{-1}
(``interaction_diagonal``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import blas, lapack

from .errors import SpectrumError

# Spectral margin: correlation spectra are clipped into [0, 1 - DELTA] so
# that (Id - K)^{-1} stays well conditioned (condition number <= 1/DELTA).
DELTA = 1e-3


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscretizedKernel:
    """Correlation kernel: the symmetric (N, N) operator matrix of a DPP on
    N states.  Its diagonal is the intensity mass per state, so its trace
    is the expected count; the masses of a weighted grid are folded in
    (S = W^{1/2} K W^{1/2}) before the kernel is built.

    ``bands`` is the support: (points, bandwidth) pairs, one per diagonal
    block in order, whose points sum to N.  An entry may be nonzero only
    inside a block and at most its bandwidth from the diagonal; None means
    one block of full width.  ``smc.banded_kernel`` makes one band, births
    append theirs, and operations that keep the sparsity pattern pass the
    bands on.  Cheap structural invariants (symmetry, the bands tile N, no
    entry outside them) are enforced at construction; spectral invariants
    are checked by :func:`validate_kernel`.  Kernels are built valid
    (``smc.banded_kernel``) or made valid by :func:`shrink_to_feasible`.
    """

    entries: np.ndarray  # (N, N)
    bands: Optional[tuple[tuple[int, int], ...]] = None

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("kernel entries must be a square matrix")
        n = len(m)
        if not np.array_equal(m, m.T):
            raise ValueError("kernel entries must be exactly symmetric")
        bands = ((n, n),) if self.bands is None else tuple(self.bands)
        if sum(p for p, _ in bands) != n or any(min(p, b) < 0 for p, b in bands):
            raise ValueError("bands must tile the kernel's points")
        for lo, hi, reach in _reaches(bands):  # the upper half, by symmetry
            if np.any(m[lo:hi, hi:]) or np.any(np.triu(m[lo:hi, lo:hi], reach + 1)):
                raise ValueError("kernel has nonzero entries outside its bands")
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "bands", bands)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries).copy()


def _reaches(bands):
    """(start, stop, reach) per band: its [start, stop) index range and the
    largest |i - j| it allows there, min(bandwidth, points - 1)."""
    start = 0
    for points, width in bands:
        yield start, start + points, min(width, points - 1)
        start += points


def band_part(m: np.ndarray, bands) -> np.ndarray:
    """A copy of the (N, N) matrix ``m`` with every entry outside ``bands``
    set to zero; the entries inside are kept bit for bit."""
    out = np.zeros_like(m)
    for lo, hi, reach in _reaches(bands):
        out[lo:hi, lo:hi] = np.triu(np.tril(m[lo:hi, lo:hi], reach), -reach)
    return out


def band_pairs(bands) -> int:
    """Number of index pairs i < j inside ``bands``: sum c s - c (c + 1) / 2
    over bands of s points and reach c."""
    return sum(c * (hi - lo) - c * (c + 1) // 2 for lo, hi, c in _reaches(bands))


def operator_spectrum(kernel: DiscretizedKernel) -> np.ndarray:
    """Eigenvalues of the kernel's operator matrix."""
    return np.linalg.eigvalsh(kernel.entries)


# Floor on the block size of the banded interaction transform, and a kernel
# of fewer than 4 blocks is one dense block: with one BLAS thread, blocks of
# 32 beat 40 and 48 on the 80-340 point kernels of a spooky DPP run, and
# splitting a kernel of fewer than about 130 points costs more per-call
# overhead than its O(n^3) factorization saves.
BLOCK_FLOOR = 32


def _block_bounds(kernel: DiscretizedKernel) -> list[tuple[int, int]]:
    """[start, stop) of the diagonal blocks that make K block tridiagonal.

    Blocks hold m = max(c, BLOCK_FLOOR) points for the largest reach c of
    ``kernel.bands``, which bounds |i - j| over the nonzero entries.  So no
    entry of K lies outside the diagonal blocks and their two neighbours;
    the last block also takes the n mod m points left over, so it is ragged
    (m to 2m - 1 points).  A kernel of fewer than 4m points is one block.
    """
    n = len(kernel)
    m = max([BLOCK_FLOOR] + [reach for _, _, reach in _reaches(kernel.bands)])
    if n < 4 * m:
        return [(0, n)]
    starts = list(range(0, n - m + 1, m))
    return list(zip(starts, starts[1:] + [n]))


def _operator_blocks(entries, bounds):
    """The diagonal blocks of -K and the blocks below them, -K_{k+1,k}, for
    K block tridiagonal on ``bounds``."""
    diagonal = [-entries[lo:hi, lo:hi] for lo, hi in bounds]
    below = [-entries[lo:hi, clo:chi] for (clo, chi), (lo, hi) in zip(bounds, bounds[1:])]
    return diagonal, below


def _block_cholesky(diagonal, below, shift, couplings=True):
    """Block Cholesky factorization of the block tridiagonal A = shift I + B
    from the blocks of B (``_operator_blocks``); only block-sized arrays
    are formed.

    Returns (L, Y): the lower Cholesky factors L_k of the Schur complements
    of A's diagonal blocks and, with ``couplings``, Y_k = L_k^{-T} L_{k+1,k}^T
    for L_{k+1,k} = A_{k+1,k} L_k^{-T}; or None if A is not positive
    definite, which LAPACK dpotrf then decides exactly on one block.
    """
    factors, ys = [], []
    for k, d in enumerate(diagonal):
        a = d.copy()
        a.flat[:: a.shape[0] + 1] += shift
        if k:
            lc = blas.dtrsm(1.0, factors[-1], below[k - 1], side=1, lower=1, trans_a=1)
            if couplings:
                ys.append(blas.dtrsm(1.0, factors[-1], lc.T, lower=1, trans_a=1))
            a -= lc @ lc.T
        factor, info = lapack.dpotrf(a, lower=True, clean=True, overwrite_a=True)
        if info > 0:
            return None
        if info < 0:
            raise ValueError(f"LAPACK dpotrf failed with info={info}")
        factors.append(factor)
    return factors, ys


def _inverse_diagonal_blocks(factors, couplings):
    """Selected inversion (Takahashi recurrence), last block first: the
    diagonal blocks G_k of G = A^{-1} from G_k = (L_k L_k^T)^{-1} +
    Y_k G_{k+1} Y_k^T, each exactly symmetric.  Yields (k, G_k, Z_k) with
    Z_k = Y_k G_{k+1} = -G_{k,k+1} (None for the last block)."""
    g_next = None
    for k in range(len(factors) - 1, -1, -1):
        h, info = lapack.dpotri(factors[k], lower=True, overwrite_c=True)
        if info != 0:
            raise ValueError(f"LAPACK dpotri failed with info={info}")
        if g_next is None:
            z = None
        else:
            z = couplings[k] @ g_next
            h += z @ couplings[k].T
        g_next = np.where(np.tri(len(h), dtype=bool), h, h.T)  # h's lower triangle, mirrored
        yield k, g_next, z


def _interaction_factor(kernel: DiscretizedKernel):
    """(bounds, (factors, couplings)) of I - K, shared by both interaction
    transforms: checks that the kernel's spectrum lies at or below
    1 - DELTA (else :class:`SpectrumError`).  None for a kernel over no
    points.

    The spectrum check is exact, a Cholesky factorization of
    (1 - DELTA + 1e-12) I - K, and is skipped when Gershgorin's bound
    already proves it: every eigenvalue of K is at most its largest
    absolute row sum, which ``smc.banded_kernel`` caps at 1 - DELTA.  The
    bound only decides whether the exact check runs, so its rounding moves
    no output."""
    if len(kernel) == 0:
        return None
    bounds = _block_bounds(kernel)
    diagonal, below = _operator_blocks(kernel.entries, bounds)
    ceiling = 1.0 - DELTA + 1e-12
    gershgorin = float(np.abs(kernel.entries).sum(axis=1).max())
    if gershgorin > ceiling and _block_cholesky(diagonal, below, ceiling, couplings=False) is None:
        top = float(operator_spectrum(kernel).max())
        raise SpectrumError(
            f"correlation spectrum reaches {top:.12g} > 1 - delta (delta={DELTA:g}); "
            "make the kernel valid first"
        )
    factor = _block_cholesky(diagonal, below, 1.0)
    if factor is None:  # unreachable once the domain check has passed
        raise SpectrumError("Id - K has no Cholesky factor")
    return bounds, factor


def _block_inverse(n, bounds, factors, couplings) -> np.ndarray:
    """G = A^{-1} in full from the block factor: each diagonal block from the
    selected inversion, the strip right of it as G_{k,k+1:} = -Y_k G_{k+1,k+1:}
    (written once and mirrored below the diagonal, so G is exactly
    symmetric)."""
    g = np.empty((n, n))
    for k, g_k, z in _inverse_diagonal_blocks(factors, couplings):
        lo, hi = bounds[k]
        g[lo:hi, lo:hi] = g_k
        if z is None:
            continue
        nlo, nhi = bounds[k + 1]
        g[lo:hi, nlo:nhi] = -z
        if nhi < n:
            g[lo:hi, nhi:] = -(couplings[k] @ g[nlo:nhi, nhi:])
        g[nlo:, lo:hi] = g[lo:hi, nlo:].T
    return g


def interaction_kernel(kernel: DiscretizedKernel) -> np.ndarray:
    """Interaction kernel J = (Id - K)^{-1} K of a correlation kernel, as
    an exactly symmetric (N, N) array over the kernel's states.

    This is J = (I - K)^{-1} - I.  A banded kernel is block tridiagonal
    (``_block_bounds``), so (I - K)^{-1} comes from one block Cholesky
    factorization and a backward pass over its blocks (Takahashi, Fagan &
    Chen 1973): no eigendecomposition, and no n x n factorization once the
    kernel spans several blocks.  Raises :class:`SpectrumError` unless the
    spectrum lies at or below 1 - DELTA, with a slack of 1e-12, which holds
    iff (1 - DELTA + 1e-12) I - K has a Cholesky factor.  I - K then has
    condition number at most about 1/DELTA.  A kernel over no points
    gives a (0, 0) array.
    """
    n = len(kernel)
    factor = _interaction_factor(kernel)
    if factor is None:
        return np.zeros((0, 0))
    bounds, (factors, couplings) = factor
    j = _block_inverse(n, bounds, factors, couplings)
    j.flat[:: n + 1] -= 1.0
    return j


def interaction_diagonal(kernel: DiscretizedKernel) -> np.ndarray:
    """diag J of :func:`interaction_kernel`, bit for bit, from the diagonal
    blocks of (I - K)^{-1} alone: O(n m^2) for n points in blocks of m,
    with the same checks and errors."""
    factor = _interaction_factor(kernel)
    if factor is None:
        return np.zeros(0)
    bounds, (factors, couplings) = factor
    jd = np.empty(len(kernel))
    for k, g_k, _ in _inverse_diagonal_blocks(factors, couplings):
        lo, hi = bounds[k]
        jd[lo:hi] = np.diagonal(g_k) - 1.0
    return jd


def cross_covariance(kernel: DiscretizedKernel, a, b) -> float:
    """Count covariance between index sets A and B under the DPP form; each
    set is given as increasing distinct indices, as ``np.nonzero`` returns.

    cov = sum_{A n B} K(x,x) - sum_{A x B} K(x,y)^2; the double sum
    includes x == y, which is what the count algebra on atomic states
    requires.  For disjoint A, B this is minus a sum of squares, hence <= 0
    exactly.
    """
    a = np.asarray(a, dtype=int)
    b = np.asarray(b, dtype=int)
    inter = np.intersect1d(a, b, assume_unique=True)
    first = float(np.diag(kernel.entries)[inter].sum()) if inter.size else 0.0
    if a.size and b.size:
        second = float((kernel.entries[np.ix_(a, b)] ** 2).sum())
    else:
        second = 0.0
    return first - second


def all_subset_masses(kernel: DiscretizedKernel) -> dict[tuple[int, ...], float]:
    """Janossy masses of every subset of a small kernel's states (N <= 12):
    the probability that the process is exactly that subset."""
    n = len(kernel)
    if n > 12:
        raise ValueError("subset enumeration is limited to 12 points")
    lam = operator_spectrum(kernel)
    if lam.max(initial=0.0) > 1.0 - DELTA + 1e-12:
        raise SpectrumError(f"spectrum reaches {lam.max():.6g}; make the kernel valid first")
    void = float(np.prod(1.0 - lam))
    j = interaction_kernel(kernel)
    out: dict[tuple[int, ...], float] = {(): void}
    for bits in range(1, 1 << n):
        idx = [i for i in range(n) if bits >> i & 1]
        out[tuple(idx)] = max(void * float(np.linalg.det(j[np.ix_(idx, idx)])), 0.0)
    return out


def project_kernel(entries: np.ndarray) -> DiscretizedKernel:
    """Clip a symmetric matrix into the valid correlation kernels.

    One eigendecomposition of M, the symmetrized input: a spectrum already
    in [0, 1 - DELTA] (with a slack of 1e-12) returns M unchanged, so the
    map is idempotent; otherwise the eigenvalues are clipped into
    [0, 1 - DELTA] and M is rebuilt from them.
    """
    m = 0.5 * (np.asarray(entries, dtype=float) + np.asarray(entries, dtype=float).T)
    hi = 1.0 - DELTA
    lam, u = np.linalg.eigh(m)
    if lam.min(initial=0.0) >= -1e-12 and lam.max(initial=0.0) <= hi + 1e-12:
        return DiscretizedKernel(m)
    m = (u * np.clip(lam, 0.0, hi)) @ u.T
    return DiscretizedKernel(0.5 * (m + m.T))


def _extreme_eigenvalue(a: np.ndarray, top: bool) -> float:
    """The largest (``top``) or smallest eigenvalue of a symmetric matrix
    alone, by LAPACK dsyevr on that one index (tridiagonal reduction, then
    bisection to full accuracy); no eigenvectors are formed."""
    k = a.shape[0] if top else 1
    w, _, _, _, info = lapack.dsyevr(
        a, compute_v=0, range="I", lower=1, il=k, iu=k, abstol=2.0 * lapack.dlamch("S")
    )
    if info != 0:
        raise ValueError(f"LAPACK dsyevr failed with info={info}")
    return float(w[0])


def shrink_to_feasible(entries: np.ndarray, bands=None) -> tuple[DiscretizedKernel, float, float]:
    """Make a symmetric matrix M a valid correlation kernel by scaling its
    off-diagonal part and leaving its diagonal alone.

    M must be exactly symmetric and zero outside ``bands`` (None: one full
    block); the output's construction raises ValueError on a violation that
    the scaling keeps.  Split M into its diagonal D and off-diagonal O.  D
    is clipped into [0, 1 - DELTA], and O loses the rows and columns of
    every point whose diagonal was clipped or sits on a bound.  On the
    other points D + tO is positive semidefinite iff
    t <= -1/lambda_min(D^{-1/2} O D^{-1/2}) and has spectrum at most
    1 - DELTA iff t <= 1/lambda_max(E^{-1/2} O E^{-1/2}), with
    E = (1 - DELTA) I - D, and the largest such t in [0, 1] is taken.  t
    starts at min(1, -1/lambda_min), one extreme eigenvalue
    (``_extreme_eigenvalue``); a Cholesky factor of I - t E^{-1/2} O E^{-1/2}
    then certifies the ceiling at that t, and only when it does not exist is
    lambda_max computed and t lowered to 1/lambda_max.  No iteration.

    The diagonal is kept bit for bit wherever it lies in [0, 1 - DELTA], so
    the trace is the input's; a feasible input comes back unchanged.
    Returns the kernel, the off-diagonal scale t and the diagonal mass the
    clip removed, sum_i (M_ii - K_ii).
    """
    m = np.asarray(entries, dtype=float)
    mu = np.diag(m)
    cap = 1.0 - DELTA
    diagonal = np.clip(mu, 0.0, cap)
    clipped_mass = float(np.sum(mu - diagonal))
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    free = (mu > 0.0) & (mu < cap)
    off[~free, :] = 0.0
    off[:, ~free] = 0.0
    t = 1.0
    if np.any(off):
        sub = off[np.ix_(free, free)]
        root_d = np.sqrt(mu[free])
        root_e = np.sqrt(cap - mu[free])
        with np.errstate(over="ignore", invalid="ignore"):
            a = sub / root_d[:, None] / root_d[None, :]
            b = sub / root_e[:, None] / root_e[None, :]
        if np.all(np.isfinite(a)) and np.all(np.isfinite(b)):
            lowest = _extreme_eigenvalue(a, top=False)
            if lowest < 0.0:
                t = min(t, -1.0 / lowest)
            if _block_cholesky([-t * b], [], 1.0, couplings=False) is None:
                highest = _extreme_eigenvalue(b, top=True)
                if highest > 0.0:
                    t = min(t, 1.0 / highest)
        else:
            t = 0.0  # a diagonal too close to a bound to scale against
    out = t * off + np.diag(diagonal)
    return DiscretizedKernel(out, bands), t, clipped_mass


def validate_kernel(kernel: DiscretizedKernel) -> None:
    """Raise unless the operator spectrum lies in [0, 1 - DELTA], up to
    roundoff (used by test rigs; construction checks the structure)."""
    tol = 1e-9  # roundoff allowed at the spectrum's bounds
    lam = operator_spectrum(kernel)
    if lam.min(initial=0.0) < -tol:
        raise AssertionError(f"spectrum has negative eigenvalue {lam.min():.3e}")
    if lam.max(initial=0.0) > 1.0 - DELTA + tol:
        raise AssertionError(f"spectrum reaches {lam.max():.6g} > 1 - delta")
