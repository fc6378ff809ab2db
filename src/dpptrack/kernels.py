"""Correlation-kernel algebra on discrete state spaces.

On a finite ground set a determinantal point process is given by one
symmetric matrix, its correlation kernel K, with spectrum in [0, 1 - delta]
(Kulesza & Taskar 2012).  A kernel here is that operator matrix itself.  A
grid whose points carry reference masses w_i folds them in before it builds
the kernel, S = W^{1/2} K W^{1/2}; SMC particles have unit mass, so their
kernel matrix needs no folding.  The states never enter the algebra.  The
interaction kernel J = (Id - K)^{-1} K (the L-ensemble of K; Macchi 1975)
is an intermediate of the filter update and is a plain (N, N) array.

A kernel is stored as its bands alone: K is block diagonal, one block per
band, each block zero beyond its band's reach c from the diagonal, and each
band is one (c + 1, points) array in LAPACK lower band storage (Anderson et
al., *LAPACK Users' Guide*): row k holds the k-th subdiagonal.  Symmetry and
the zeros outside the bands hold by construction, and only this module
reads the layout; other modules scale band arrays, append them, or go
through ``pair_index`` and ``DiscretizedKernel.from_pairs``.  The
interaction transform gathers its blocks from the bands: K is block
tridiagonal, and J comes from a block Cholesky factorization of I - K
(``interaction_kernel``), or only its diagonal from the diagonal blocks of
(I - K)^{-1} (``interaction_diagonal``; Takahashi, Fagan & Chen 1973).

The arrays of N x N or block size that the module forms are LAPACK or BLAS
inputs and outputs: J and the blocks of the factorization; spectral bounds
take one LAPACK call per band array.  ``DiscretizedKernel.from_dense`` and
``to_dense`` convert dense matrices for the tests, the oracle and the checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, eigvals_banded, lapack

from .errors import NonFiniteKernel, SpectrumError

# Spectral margin: correlation spectra are clipped into [0, 1 - DELTA] so
# that (Id - K)^{-1} stays well conditioned (condition number <= 1/DELTA).
DELTA = 1e-3


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _past_end(rows: int, points: int) -> np.ndarray:
    """(rows, points) mask of the cells of a band array that lie past the
    band's end: row k, column j >= points - k.  Read-only, as it is cached."""
    mask = np.arange(points) >= points - np.arange(rows)[:, None]
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=16)
def _below_inside(rows: int, points: int) -> np.ndarray:
    """(rows - 1, points) mask of the cells of a band array's rows 1.. that
    lie inside the band: the index pairs i > j, in storage order."""
    mask = ~_past_end(rows, points)[1:]
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True, eq=False)
class DiscretizedKernel:
    """Correlation kernel: the symmetric (N, N) operator matrix of a DPP on
    N states, stored as its bands.  Its diagonal is the intensity mass per
    state, so its trace is the expected count; the masses of a weighted
    grid are folded in (S = W^{1/2} K W^{1/2}) before the kernel is built.

    ``arrays`` holds one (c + 1, points) array per diagonal block, in
    order, whose points sum to N: row k, column j is K(lo + j + k, lo + j)
    for the block starting at lo, and reach c < points bounds |i - j| over
    its nonzero entries.  The cells past the band's end (j + k >= points)
    are zero.  ``bands`` reads the (points, reach) pairs back.
    ``smc.banded_kernel`` makes one band, births append theirs, and
    operations that keep the sparsity pattern keep the bands.  Construction
    checks the shapes, that every entry is finite (:class:`NonFiniteKernel`)
    and the zero cells, in O(N c); spectral invariants are checked by
    ``checks.validate_kernel``, in the test rig.  Kernels are built valid
    (``smc.banded_kernel``) or made valid by :func:`shrink_to_feasible`.
    """

    arrays: tuple[np.ndarray, ...]

    def __post_init__(self):
        arrays = tuple(np.asarray(a, dtype=float) for a in self.arrays)
        for a in arrays:
            if a.ndim != 2 or not 1 <= a.shape[0] <= max(a.shape[1], 1):
                raise ValueError("each band must be a (reach + 1, points) array, reach < points")
            if not np.isfinite(a).all():
                raise NonFiniteKernel("kernel entries must be finite")
            if a[_past_end(*a.shape)].any():
                raise ValueError("band array has nonzero cells past the band's end")
        object.__setattr__(self, "arrays", arrays)

    @classmethod
    def from_dense(cls, entries, bands=None) -> "DiscretizedKernel":
        """The kernel of a dense (N, N) matrix, whose support ``bands`` is
        given as (points, bandwidth) pairs (None: one block of full width).
        The one validating conversion: raises ValueError unless the matrix
        is square, finite (:class:`NonFiniteKernel`), exactly symmetric and
        zero outside the bands, which must tile its points."""
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("kernel entries must be a square matrix")
        if not np.all(np.isfinite(m)):
            raise NonFiniteKernel("kernel entries must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("kernel entries must be exactly symmetric")
        n = len(m)
        bands = ((n, n),) if bands is None else tuple((int(p), int(b)) for p, b in bands)
        if sum(p for p, _ in bands) != n or any(min(p, b) < 0 for p, b in bands):
            raise ValueError("bands must tile the kernel's points")
        rows, cols = pair_index(bands)
        outside = np.ones((n, n), dtype=bool)
        outside[rows, cols] = outside[cols, rows] = False
        np.fill_diagonal(outside, False)
        if np.any(m[outside]):
            raise ValueError("kernel has nonzero entries outside its bands")
        return cls.from_pairs(np.diag(m), m[rows, cols], bands)

    @classmethod
    def from_pairs(cls, diagonal, lower, bands) -> "DiscretizedKernel":
        """The kernel with ``diagonal`` and, at the index pairs i > j of
        ``pair_index(bands)``, the entries ``lower``; ``bands`` are
        (points, bandwidth) pairs."""
        arrays, used = [], 0
        for lo, hi, reach in _reaches(bands):
            a = np.zeros((reach + 1, hi - lo))
            a[0] = diagonal[lo:hi]
            count = _band_pairs(hi - lo, reach)
            a[1:][_below_inside(reach + 1, hi - lo)] = lower[used : used + count]
            used += count
            arrays.append(a)
        return cls(tuple(arrays))

    @classmethod
    def from_profile(cls, profile, points: int) -> "DiscretizedKernel":
        """The one-band Toeplitz kernel on ``points`` states whose k-th
        diagonal is profile[k], for reach len(profile) - 1."""
        profile = np.asarray(profile, dtype=float)[:, None]
        return cls((np.where(_past_end(len(profile), points), 0.0, profile),))

    def __len__(self) -> int:
        return sum(a.shape[1] for a in self.arrays)

    @property
    def bands(self) -> tuple[tuple[int, int], ...]:
        """(points, reach) per band."""
        return tuple((a.shape[1], a.shape[0] - 1) for a in self.arrays)

    @property
    def diagonal(self) -> np.ndarray:
        return np.concatenate([a[0] for a in self.arrays]) if self.arrays else np.zeros(0)

    def lower(self) -> np.ndarray:
        """The entries at the index pairs i > j of ``pair_index(bands)``."""
        parts = [a[1:][_below_inside(*a.shape)] for a in self.arrays]
        return np.concatenate(parts) if parts else np.zeros(0)

    def to_dense(self) -> np.ndarray:
        """The (N, N) matrix, for tests, the oracle and the checks."""
        n = len(self)
        out = np.zeros((n, n))
        rows, cols = pair_index(self.bands)
        out[rows, cols] = out[cols, rows] = self.lower()
        np.fill_diagonal(out, self.diagonal)
        return out


def _reaches(bands):
    """(start, stop, reach) per band: its [start, stop) index range and the
    largest |i - j| it allows there, min(bandwidth, points - 1), or 0 for a
    band of no points."""
    start = 0
    for points, width in bands:
        yield start, start + points, max(min(width, points - 1), 0)
        start += points


def _band_pairs(points: int, reach: int) -> int:
    return reach * points - reach * (reach + 1) // 2


def band_pairs(bands) -> int:
    """Number of index pairs i < j inside ``bands``: sum c s - c (c + 1) / 2
    over bands of s points and reach c."""
    return sum(_band_pairs(hi - lo, c) for lo, hi, c in _reaches(bands))


@functools.lru_cache(maxsize=4)
def pair_index(bands) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the index pairs i > j inside ``bands``, in the order
    that ``DiscretizedKernel.lower`` and ``from_pairs`` use.  Read-only, as
    it is cached: one update reads the pairs of one band list several
    times."""
    rows, cols = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for lo, hi, reach in _reaches(bands):
        k, j = np.nonzero(_below_inside(reach + 1, hi - lo))
        rows.append(lo + j + k + 1)
        cols.append(lo + j)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def operator_spectrum(kernel: DiscretizedKernel) -> np.ndarray:
    """Eigenvalues of the kernel's operator matrix."""
    return np.linalg.eigvalsh(kernel.to_dense())


def _extreme_eigenvalue(arrays, top: bool) -> float:
    """The largest (``top``) or smallest eigenvalue of the block diagonal
    matrix of the band ``arrays``: LAPACK dsbevx on that index of each band
    of points, by bisection to abstol 2 dlamch('S'), with no eigenvectors."""
    ends = np.concatenate([
        eigvals_banded(a, lower=True, select="i", select_range=[a.shape[1] - 1 if top else 0] * 2)
        for a in arrays
        if a.shape[1]
    ])
    return float(ends.max() if top else ends.min())


def _dominates(shift: float, arrays) -> bool:
    """Whether shift I - M is positive definite, for M block diagonal with
    the band ``arrays`` as its blocks: whether LAPACK dpbtrf finds a banded
    Cholesky factor of every band."""
    infos = (lapack.dpbtrf(np.r_[shift - a[:1], -a[1:]], lower=1)[1] for a in arrays)
    info = next((i for i in infos if i), 0)  # the first failure, if any
    if info < 0:
        raise ValueError(f"LAPACK dpbtrf failed with info={info}")
    return info == 0


# Floor on the block size of the banded interaction transform, and a kernel
# of fewer than 4 blocks is one block: with one BLAS thread, blocks of 32
# beat 40 and 48 on the 80-340 point kernels of a spooky DPP run, and
# splitting a kernel of fewer than about 130 points costs more per-call
# overhead than its O(n^3) factorization saves.  The blocks are gathered
# from the band arrays; they and J are the only arrays of block or N x N size.
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


def _lower_band(kernel: DiscretizedKernel) -> np.ndarray:
    """The kernel's band arrays side by side, (c + 2, N + c + 1) for the
    largest reach c: G[k, j] = K(j + k, j) for j < N, zero across the ends
    of the bands, in the last row, which stands for every pair farther
    apart than c, and in the c + 1 columns past N."""
    reach = max((len(a) for a in kernel.arrays), default=1) - 1
    g = np.zeros((reach + 2, len(kernel) + reach + 1))
    lo = 0
    for a in kernel.arrays:
        g[: len(a), lo : lo + a.shape[1]] = a
        lo += a.shape[1]
    return g


def _gershgorin(g: np.ndarray) -> float:
    """max_i sum_j |K(i, j)|, from the ``_lower_band`` array g: its column i
    holds the entries right of the diagonal in row i, and the entries left
    of it are g[k, i - k], read by skewing |g| one column per row (the
    zero columns past N take the wrap)."""
    a = np.abs(g[:-1])
    rows, width = a.shape
    n = width - rows
    skewed = a.ravel()[: rows * (width - 1)].reshape(rows, width - 1)
    return float((a[:, :n].sum(axis=0) + skewed[1:, :n].sum(axis=0)).max(initial=0.0))


def _upper_rows(cells: np.ndarray, width: int) -> np.ndarray:
    """Per band array of the stack ``cells`` (..., at most width + 1 rows,
    width columns), a (width + 1, width) matrix M with the cells at flat
    index j (width + 1) + k: cell [k, j] lands at M[j, j + k] when
    j + k < width, else at M[j + 1, j + k - width]."""
    lead = cells.shape[:-2]
    flat = np.zeros(lead + ((width + 1) * width,))
    flat.reshape(lead + (width, width + 1))[..., : cells.shape[-2]] = np.swapaxes(cells, -1, -2)
    return flat.reshape(lead + (width + 1, width))


def _operator_blocks(g: np.ndarray, bounds):
    """The diagonal blocks of -K and the blocks below them, -K_{k+1,k}, for
    K block tridiagonal on ``bounds`` (``_block_bounds``: blocks of m >= the
    largest reach points, and a ragged last one), from the ``_lower_band``
    array g.  Each block's columns of g are laid out by ``_upper_rows``,
    all m-point blocks at once, in one array: the cells inside a block give
    the lower triangle of its diagonal block, and the cells past its end,
    which wrap into the strictly upper triangle there, the upper triangle
    of the block below it.  LAPACK dpotrf reads the lower triangle alone,
    and ``_block_cholesky`` the upper triangle of a block below."""
    lo, hi = bounds[-1]
    last = _upper_rows(g[:-1, lo:hi], hi - lo)[: hi - lo]  # nothing lies past the last block
    np.negative(last, out=last)
    if len(bounds) == 1:
        return [last.T], []
    m = bounds[0][1] - bounds[0][0]
    laid = _upper_rows(g[:-1, :lo].reshape(len(g) - 1, -1, m).swapaxes(0, 1), m)
    np.negative(laid, out=laid)
    diagonal = list(laid[:, :m].swapaxes(1, 2))
    below = list(laid[:, 1:].swapaxes(1, 2))
    below[-1] = np.concatenate([below[-1], np.zeros((hi - lo - m, m))])
    return diagonal + [last.T], below


def _block_cholesky(diagonal, below):
    """Block Cholesky factorization of the block tridiagonal A = I + B, that
    is I - K, from the blocks of B = -K (``_operator_blocks``), of whose
    diagonal blocks only the lower triangles are read, and of the blocks
    below them only the upper ones, each before the diagonal block above
    it, with which it may share memory.  The diagonal blocks are
    overwritten, a Fortran-ordered one by its factor.

    Returns (L, Y): the lower Cholesky factors L_k of the Schur complements
    of A's diagonal blocks and Y_k = L_k^{-T} L_{k+1,k}^T for
    L_{k+1,k} = A_{k+1,k} L_k^{-T}.  Raises :class:`SpectrumError` if A is
    not positive definite, which the domain check rules out beforehand.
    """
    factors, ys, under = [], [], None
    for k, a in enumerate(diagonal):
        left = under  # A_{k,k-1}
        if k < len(below):  # its upper triangle, Fortran-ordered as dtrsm reads it
            under = np.where(_lower_triangle(*below[k].shape[::-1]).T, below[k], 0.0)
        a.flat[:: a.shape[0] + 1] += 1.0
        if k:
            lc = blas.dtrsm(1.0, factors[-1], left, side=1, lower=1, trans_a=1)
            ys.append(blas.dtrsm(1.0, factors[-1], lc.T, lower=1, trans_a=1))
            a -= lc @ lc.T
        factor, info = lapack.dpotrf(a, lower=True, clean=True, overwrite_a=True)
        if info != 0:
            raise SpectrumError(f"Id - K has no Cholesky factor (LAPACK dpotrf info={info})")
        factors.append(factor)
    return factors, ys


@functools.lru_cache(maxsize=8)
def _lower_triangle(rows: int, cols: int) -> np.ndarray:
    """np.tri(rows, cols) as a read-only mask, cached: the transform reads
    every block below the diagonal through its transpose and mirrors every
    inverse block by it."""
    mask = np.tri(rows, cols, dtype=bool)
    mask.flags.writeable = False
    return mask


def _inverse_diagonal_blocks(factors, ys):
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
            z = ys[k] @ g_next
            h += z @ ys[k].T
        g_next = np.where(_lower_triangle(*h.shape), h, h.T)  # h's lower triangle, mirrored
        yield k, g_next, z


def _interaction_factor(kernel: DiscretizedKernel):
    """(bounds, (factors, ys)) of I - K, shared by both interaction
    transforms: checks that the kernel's spectrum lies at or below
    1 - DELTA (else :class:`SpectrumError`).  None for a kernel over no
    points.

    The spectrum check is exact, a banded Cholesky factorization of
    (1 - DELTA + 1e-12) I - K per band (``_dominates``), and is skipped
    when Gershgorin's bound already proves it: every eigenvalue of K is at
    most its largest absolute row sum, which ``smc.banded_kernel`` caps at
    1 - DELTA.  The bound only decides whether the exact check runs, so
    its rounding moves no output."""
    if len(kernel) == 0:
        return None
    g = _lower_band(kernel)
    ceiling = 1.0 - DELTA + 1e-12
    if _gershgorin(g) > ceiling and not _dominates(ceiling, kernel.arrays):
        top = _extreme_eigenvalue(kernel.arrays, top=True)
        raise SpectrumError(
            f"correlation spectrum reaches {top:.12g} > 1 - delta (delta={DELTA:g}); "
            "make the kernel valid first"
        )
    bounds = _block_bounds(kernel)
    diagonal, below = _operator_blocks(g, bounds)
    del g  # the blocks hold all that the factorization reads
    return bounds, _block_cholesky(diagonal, below)


def _block_inverse(n, bounds, factors, ys) -> np.ndarray:
    """G = A^{-1} in full from the block factor: each diagonal block from the
    selected inversion, the strip right of it as G_{k,k+1:} = -Y_k G_{k+1,k+1:}
    (written once and mirrored below the diagonal, so G is exactly
    symmetric)."""
    g = np.empty((n, n))
    for k, g_k, z in _inverse_diagonal_blocks(factors, ys):
        lo, hi = bounds[k]
        g[lo:hi, lo:hi] = g_k
        if z is None:
            continue
        nlo, nhi = bounds[k + 1]
        g[lo:hi, nlo:nhi] = -z
        if nhi < n:
            g[lo:hi, nhi:] = -(ys[k] @ g[nlo:nhi, nhi:])
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
    bounds, (factors, ys) = factor
    j = _block_inverse(n, bounds, factors, ys)
    j.flat[:: n + 1] -= 1.0
    return j


def interaction_diagonal(kernel: DiscretizedKernel) -> np.ndarray:
    """diag J of :func:`interaction_kernel`, bit for bit, from the diagonal
    blocks of (I - K)^{-1} alone: O(n m^2) for n points in blocks of m,
    with the same checks and errors."""
    factor = _interaction_factor(kernel)
    if factor is None:
        return np.zeros(0)
    bounds, (factors, ys) = factor
    jd = np.empty(len(kernel))
    for k, g_k, _ in _inverse_diagonal_blocks(factors, ys):
        lo, hi = bounds[k]
        jd[lo:hi] = np.diagonal(g_k) - 1.0
    return jd


def count_covariances(kernel: DiscretizedKernel, a, b) -> tuple[float, float, float]:
    """(var A, var B, cov(A, B)) of the counts in index sets A and B, each
    given as increasing distinct indices (as ``np.nonzero`` returns), under
    the DPP form cov(A, B) = sum_{A n B} K(x,x) - sum_{A x B} K(x,y)^2; the
    double sum includes x == y, as the count algebra on atomic states
    requires.  For disjoint A, B the covariance is minus a sum of squares,
    hence <= 0 exactly."""
    a = np.asarray(a, dtype=int)
    b = np.asarray(b, dtype=int)
    diagonal = kernel.diagonal
    inter = np.intersect1d(a, b, assume_unique=True)
    # K over (A, B) x (A, B) in one gather, zeros included; each block's
    # squares form a new C-contiguous array, so each sum rounds as the
    # dense block's does
    ab = np.concatenate([a, b])
    g = _lower_band(kernel)
    lag = np.minimum(np.abs(np.subtract.outer(ab, ab)), len(g) - 1)
    block = np.take(g, lag * g.shape[1] + np.minimum.outer(ab, ab))
    sa, sb = slice(len(a)), slice(len(a), None)
    squares = [float((block[r, c] ** 2).sum()) for r, c in ((sa, sa), (sb, sb), (sa, sb))]
    return tuple(float(diagonal[s].sum()) - q for s, q in zip((a, b, inter), squares))


# No filter calls project_kernel any more (shrink_to_feasible replaced it);
# it stays while benchmark/tracing.py wraps it by name and test fixtures
# build kernels with it, until ROADMAP item 1 retires both.
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
        return DiscretizedKernel.from_dense(m)
    m = (u * np.clip(lam, 0.0, hi)) @ u.T
    return DiscretizedKernel.from_dense(0.5 * (m + m.T))


def shrink_to_feasible(kernel: DiscretizedKernel) -> tuple[DiscretizedKernel, float, float]:
    """Make a kernel matrix M a valid correlation kernel by scaling its
    off-diagonal part and leaving its diagonal alone; M is any
    ``DiscretizedKernel``, whose spectrum construction does not check.

    Split M into its diagonal D and off-diagonal O.  D is clipped into
    [0, 1 - DELTA], and O loses the rows and columns of every point whose
    diagonal was clipped or sits on a bound.  On the other points D + tO is
    positive semidefinite iff t <= -1/lambda_min(D^{-1/2} O D^{-1/2}) and
    has spectrum at most 1 - DELTA iff t <= 1/lambda_max(E^{-1/2} O E^{-1/2}),
    with E = (1 - DELTA) I - D, and the largest such t in [0, 1] is taken.
    t starts at min(1, -1/lambda_min), one extreme eigenvalue
    (``_extreme_eigenvalue``); a banded Cholesky factor of
    I - t E^{-1/2} O E^{-1/2} (``_dominates``) then certifies the ceiling
    at that t, and only when it does not exist is lambda_max computed and
    t lowered to 1/lambda_max.  No iteration.  The two scaled operands are
    band arrays on the kernel's bands, with a zero diagonal and a zero row
    for each point that lost its pairs, which adds only a zero eigenvalue
    and so moves neither bound on t; no N x N array is formed.

    The diagonal is kept bit for bit wherever it lies in [0, 1 - DELTA], so
    the trace is the input's, and the bands are kept; a feasible input
    comes back unchanged.  Returns the kernel, the off-diagonal scale t and
    the diagonal mass the clip removed, sum_i (M_ii - K_ii).
    """
    mu = kernel.diagonal
    cap = 1.0 - DELTA
    diagonal = np.clip(mu, 0.0, cap)
    clipped_mass = float(np.sum(mu - diagonal))
    i, j = pair_index(kernel.bands)
    off = kernel.lower()
    free = (mu > 0.0) & (mu < cap)
    off[~(free[i] & free[j])] = 0.0  # the pairs of a clipped or bound point go
    t = 1.0
    if off.any():
        roots = np.sqrt(np.where(free, [mu, cap - mu], 1.0))  # a point with no pairs divides by 1
        try:
            # the divisors are positive and the entries finite, so only an
            # overflow makes a scaled entry non-finite
            with np.errstate(over="raise"):
                a, b = (off / r[i] / r[j] for r in roots)  # the scaled pairs
            a, b = (DiscretizedKernel.from_pairs(0.0 * mu, x, kernel.bands).arrays for x in (a, b))
        except FloatingPointError:
            t = 0.0  # a diagonal too close to a bound to scale against
        else:
            lowest = _extreme_eigenvalue(a, top=False)
            if lowest < 0.0:
                t = min(t, -1.0 / lowest)
            if not _dominates(1.0, [t * x for x in b]):
                highest = _extreme_eigenvalue(b, top=True)
                if highest > 0.0:
                    t = min(t, 1.0 / highest)
    return DiscretizedKernel.from_pairs(diagonal, t * off, kernel.bands), t, clipped_mass
