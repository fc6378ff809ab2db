import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpptrack import kernels
from dpptrack.dpp_filter import (
    FilterState,
    posterior_diagonal,
    posterior_kernel_entries,
)
from dpptrack.errors import NonFiniteKernel, SpectrumError
from dpptrack.kernels import (
    BLOCK_FLOOR,
    DELTA,
    DiscretizedKernel,
    _block_bounds,
    band_pairs,
    count_covariances,
    interaction_diagonal,
    interaction_kernel,
    operator_spectrum,
    pair_index,
    project_kernel,
    shrink_to_feasible,
)
from dpptrack.checks import (
    ceiling_bound_input,
    operator_form,
    spectral_interaction,
    validate_kernel,
)
from dpptrack.likelihood import SensorModel
from dpptrack.oracle import all_subset_masses
from dpptrack.scenario import SensorConfig, generate_scan
from dpptrack.smc import banded_kernel


def index_bands(n, eta):
    """One index band |i - j| <= eta * n over n points."""
    return ((n, int(eta * n)),)


def shrink_dense(m, bands=None):
    """``shrink_to_feasible`` of the dense matrix m on ``bands``."""
    return shrink_to_feasible(DiscretizedKernel.from_dense(m, bands))


def reach_bands(bands, n):
    """``bands`` as a kernel reads them back: (points, reach) pairs, with
    reach min(bandwidth, points - 1); None is one band of full width."""
    bands = ((n, n),) if bands is None else bands
    return tuple((p, max(min(b, p - 1), 0)) for p, b in bands)


def band_mask(n, bands):
    """The (n, n) boolean mask of the entries inside ``bands`` (None: all),
    built entry by entry from the definition."""
    if bands is None:
        return np.ones((n, n), dtype=bool)
    mask = np.zeros((n, n), dtype=bool)
    start = 0
    for points, width in bands:
        for i in range(start, start + points):
            for j in range(start, start + points):
                mask[i, j] = abs(i - j) <= width
        start += points
    return mask


def random_correlation(n, seed=0, scale=0.3, weights=None):
    """A random valid kernel; with ``weights``, of a grid of those point
    masses, in operator form."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * 0.25
    raw = scale * np.eye(n) + 0.5 * (a + a.T)
    return project_kernel(raw if weights is None else operator_form(raw, weights))


def kernel_with_top_eigenvalue(n, top, weights, seed):
    """Correlation kernel whose spectrum has its maximum at ``top``, in a
    random eigenbasis: the operator form of a kernel on a grid of point
    masses ``weights``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.0, 0.9, n)
    lam[0] = top
    s = (u * lam) @ u.T
    rw = np.sqrt(weights)
    m = s / rw[:, None] / rw[None, :]
    return DiscretizedKernel.from_dense(operator_form(0.5 * (m + m.T), weights))


@st.composite
def ceiling_bound_kernels(draw):
    """``shrink_to_feasible`` outputs whose spectrum ceiling binds, on
    up to 150 weighted points, with or without an index band."""
    n = draw(st.integers(min_value=2, max_value=150))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    width = None
    if draw(st.booleans()):  # a band of at least one neighbour
        eta = max(draw(st.floats(min_value=0.02, max_value=0.5)), 1.0 / n)
        width = index_bands(n, eta)[0][1]
    kernel, t, _ = shrink_to_feasible(ceiling_bound_input(rng, n, width))
    assert t < 1.0
    return kernel


class TestInteractionKernel:
    def test_zero_kernel_maps_to_zero(self):
        k = DiscretizedKernel.from_dense(np.zeros((3, 3)))
        np.testing.assert_allclose(interaction_kernel(k), 0.0, atol=1e-15)

    def test_diagonal_kernel_closed_form(self):
        d = np.array([0.1, 0.25, 0.4, 0.6])
        k = DiscretizedKernel.from_dense(np.diag(d))
        j = interaction_kernel(k)
        np.testing.assert_allclose(np.diag(j), d / (1 - d), atol=1e-12)

    def test_two_by_two_matches_direct_inverse(self):
        m = np.array([[0.3, 0.1], [0.1, 0.3]])
        k = DiscretizedKernel.from_dense(m)
        j = interaction_kernel(k)
        direct = np.linalg.solve(np.eye(2) - m, m)
        np.testing.assert_allclose(j, direct, atol=1e-12)

    def test_commutes_with_kernel(self):
        k = random_correlation(5, seed=2, weights=[0.5, 1.5, 1.0, 0.7, 1.3])
        j = interaction_kernel(k)
        left = k.to_dense() @ j
        right = j @ k.to_dense()
        np.testing.assert_allclose(left, right, atol=1e-10)

    def test_interaction_is_psd(self):
        k = random_correlation(6, seed=3)
        lam = np.linalg.eigvalsh(interaction_kernel(k))
        assert lam.min() > -1e-10

    def test_spectrum_error_raised(self):
        k = DiscretizedKernel.from_dense(np.diag([0.9995, 0.5]))
        with pytest.raises(SpectrumError):
            interaction_kernel(k)

    def test_empty_kernel_calls_no_lapack(self, capfd):
        j = interaction_kernel(DiscretizedKernel.from_dense(np.zeros((0, 0))))
        assert j.shape == (0, 0)
        out, err = capfd.readouterr()
        assert out == "" and err == ""

    @pytest.mark.parametrize("d", [0.0, 0.3, 0.9, 1.0 - DELTA])
    def test_single_point(self, d):
        j = interaction_kernel(DiscretizedKernel.from_dense(np.array([[d]])))
        assert j[0, 0] == pytest.approx(d / (1.0 - d), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("excess, valid", [(0.0, True), (1e-13, True), (1e-11, False)])
    def test_domain_check_boundary(self, weighted, excess, valid):
        n = 40
        rng = np.random.default_rng(23)
        weights = rng.uniform(0.5, 2.0, n) if weighted else np.ones(n)
        top = 1.0 - DELTA + excess
        k = kernel_with_top_eigenvalue(n, top, weights, seed=29)
        assert operator_spectrum(k).max() == pytest.approx(top, abs=1e-14)
        diag = DiscretizedKernel.from_dense(
            operator_form(np.diag([top, 0.5] / weights[:2]), weights[:2])
        )
        for kernel in (k, diag):
            if valid:
                assert np.all(np.isfinite(interaction_kernel(kernel)))
            else:
                with pytest.raises(SpectrumError, match=r"reaches 0\.99900000001"):
                    interaction_kernel(kernel)

    @given(ceiling_bound_kernels())
    @settings(max_examples=40, deadline=None)
    def test_matches_spectral_definition(self, kernel):
        assert operator_spectrum(kernel).max() > 1.0 - DELTA - 1e-9
        j = interaction_kernel(kernel)
        expect = spectral_interaction(kernel)
        np.testing.assert_allclose(j, expect, rtol=0.0, atol=1e-10 * np.abs(expect).max())
        np.testing.assert_array_equal(j, j.T)

    def test_weighted_operator_convention(self):
        # on a grid of point masses w the operator is K W and its J solves
        # (I - KW)^{-1} K; the operator form S = W^1/2 K W^1/2 carries
        # W^1/2 J W^1/2
        w = np.array([0.5, 2.0])
        m = np.array([[0.3, 0.05], [0.05, 0.2]])
        j = interaction_kernel(DiscretizedKernel.from_dense(operator_form(m, w)))
        direct = np.linalg.solve(np.eye(2) - m @ np.diag(w), m)
        np.testing.assert_allclose(j, operator_form(direct, w), atol=1e-12)


def gershgorin_bound(kernel):
    """The largest absolute row sum of K."""
    return float(np.abs(kernel.to_dense()).sum(axis=1).max())


def check_factorizations(monkeypatch):
    """Shifts of the banded Cholesky certificates (``kernels._dominates``),
    that is, the domain check's (1 - DELTA + 1e-12) I - K, as they are
    made."""
    shifts = []
    dominates = kernels._dominates

    def recorded(shift, arrays):
        shifts.append(shift)
        return dominates(shift, arrays)

    monkeypatch.setattr(kernels, "_dominates", recorded)
    return shifts


class TestGershgorinShortCut:
    def test_banded_kernel_at_its_ceiling_skips_the_check(self, monkeypatch):
        kernel = banded_kernel(np.zeros((450, 5)), 15.0, 4.0, 0.1)
        assert operator_spectrum(kernel).max() > 0.99
        assert gershgorin_bound(kernel) <= 1.0 - DELTA + 1e-12
        shifts = check_factorizations(monkeypatch)
        interaction_kernel(kernel)
        interaction_diagonal(kernel)
        assert shifts == []

    @pytest.mark.parametrize("top, valid", [(0.99, True), (1.0 - DELTA + 1e-11, False)])
    def test_kernel_above_the_bound_takes_the_exact_check(self, monkeypatch, top, valid):
        # a random eigenbasis: absolute row sums well above the spectrum
        kernel = kernel_with_top_eigenvalue(40, top, np.ones(40), seed=37)
        assert gershgorin_bound(kernel) > 1.0 - DELTA + 1e-12
        shifts = check_factorizations(monkeypatch)
        if valid:
            assert np.all(np.isfinite(interaction_kernel(kernel)))
        else:
            with pytest.raises(SpectrumError, match=r"reaches 0\.99900000001"):
                interaction_kernel(kernel)
        assert shifts == [1.0 - DELTA + 1e-12]


def splice(a, b):
    """Survivors and births: kernels a and b side by side in one kernel,
    with zero cross blocks and the bands of both."""
    n, total = len(a), len(a) + len(b)
    entries = np.zeros((total, total))
    entries[:n, :n] = a.to_dense()
    entries[n:, n:] = b.to_dense()
    return DiscretizedKernel.from_dense(entries, a.bands + b.bands)


# Block layouts of the banded transform: (points, band, births, birth band,
# blocks).  A band of None is one band of full width; blocks hold
# m = max(band, BLOCK_FLOOR) points, the last one ragged.
LAYOUTS = {
    "full width": (150, None, 0, None, 1),
    "below the floor": (4 * BLOCK_FLOOR - 1, 3, 0, None, 1),
    "exact multiple of m": (5 * BLOCK_FLOOR, 5, 0, None, 5),
    "ragged last block": (5 * BLOCK_FLOOR + 17, 9, 0, None, 5),
    "bandwidth 0": (4 * BLOCK_FLOOR + 3, 0, 0, None, 4),
    "band above the floor": (4 * (BLOCK_FLOOR + 8) + 10, BLOCK_FLOOR + 8, 0, None, 4),
    "survivors and births": (6 * BLOCK_FLOOR, 12, 20, 2, 6),
}


def layout_kernel(name, seed):
    """A kernel of the named layout at its 1 - delta ceiling."""
    n, band, births, birth_band, _ = LAYOUTS[name]
    rng = np.random.default_rng(seed)
    kernel = shrink_to_feasible(ceiling_bound_input(rng, n, band))[0]
    if births:
        kernel = splice(kernel, shrink_to_feasible(ceiling_bound_input(rng, births, birth_band))[0])
    return kernel


def argmax_block_bounds(n, mask):
    """The block rule read from an (n, n) support mask (None for no mask):
    the bandwidth is the largest distance from a row's diagonal to the last
    allowed column of that row."""
    if mask is None or n < 4 * BLOCK_FLOOR:
        return [(0, n)]
    last = n - 1 - np.argmax(mask[:, ::-1], axis=1)
    m = max(int((last - np.arange(n)).max()), BLOCK_FLOOR)
    if n < 4 * m:
        return [(0, n)]
    starts = list(range(0, n - m + 1, m))
    return list(zip(starts, starts[1:] + [n]))


class TestBandedTransform:
    @given(st.sampled_from(sorted(LAYOUTS)), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_spectral_definition(self, name, seed):
        kernel = layout_kernel(name, seed)
        assert len(_block_bounds(kernel)) == LAYOUTS[name][-1]
        j = interaction_kernel(kernel)
        jd = interaction_diagonal(kernel)
        expect = spectral_interaction(kernel)
        atol = 1e-10 * np.abs(expect).max()
        np.testing.assert_allclose(j, expect, rtol=0.0, atol=atol)
        np.testing.assert_allclose(jd, np.diag(expect), rtol=0.0, atol=atol)
        np.testing.assert_array_equal(j, j.T)
        # the diagonal-only pass is the full transform's diagonal, bit for bit
        np.testing.assert_array_equal(jd, np.diag(j))

    def test_block_bounds_tile_the_grid(self):
        for name in LAYOUTS:
            n = LAYOUTS[name][0] + LAYOUTS[name][2]
            bounds = _block_bounds(layout_kernel(name, 0))
            starts, stops = zip(*bounds)
            assert starts[0] == 0 and stops[-1] == n
            assert list(starts[1:]) == list(stops[:-1])
            sizes = [hi - lo for lo, hi in bounds]
            if len(bounds) > 1:
                m = max(LAYOUTS[name][1], BLOCK_FLOOR)
                assert sizes[:-1] == [m] * (len(bounds) - 1) and m <= sizes[-1] < 2 * m

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("excess, valid", [(0.0, True), (1e-13, True), (1e-11, False)])
    def test_domain_check_boundary_on_blocks(self, weighted, excess, valid):
        # a banded kernel scaled so that its spectrum tops out at
        # 1 - delta + excess: SpectrumError iff excess > 1e-12
        n = 6 * BLOCK_FLOOR + 5
        rng = np.random.default_rng(31)
        weights = rng.uniform(0.5, 2.0, n) if weighted else np.ones(n)
        bands = ((n, 7),)
        raw = np.where(band_mask(n, bands), rng.uniform(0.0, 1.0, (n, n)), 0.0)
        base = DiscretizedKernel.from_dense(operator_form(0.5 * (raw + raw.T), weights), bands)
        top = 1.0 - DELTA + excess
        scaled = base.to_dense() * (top / operator_spectrum(base).max())
        k = DiscretizedKernel.from_dense(scaled, bands)
        assert len(_block_bounds(k)) == 6
        assert operator_spectrum(k).max() == pytest.approx(top, abs=1e-14)
        if valid:
            assert np.all(np.isfinite(interaction_kernel(k)))
            assert np.all(np.isfinite(interaction_diagonal(k)))
        else:
            for transform in (interaction_kernel, interaction_diagonal):
                with pytest.raises(SpectrumError, match=r"reaches 0\.99900000001"):
                    transform(k)

    def test_empty_and_non_correlation_inputs(self):
        empty = DiscretizedKernel.from_dense(np.zeros((0, 0)))
        assert interaction_diagonal(empty).shape == (0,)
        above = DiscretizedKernel.from_dense(np.diag([0.9995, 0.5]))  # spectrum above 1 - delta
        with pytest.raises(SpectrumError):
            interaction_diagonal(above)

    def test_posterior_diagonal_makes_no_dense_lapack_call(self, monkeypatch):
        # 300 predicted particles and 20 births on their own bands: every
        # LAPACK and BLAS call of the diagonal transform is on one block or
        # a pair of them, never on the 320-point kernel
        rng = np.random.default_rng(7)
        points = rng.uniform(-60.0, 60.0, (320, 5))
        kernel = splice(
            banded_kernel(points[:300], 12.0, 4.0, 0.1), banded_kernel(points[300:], 1.0, 4.0, 0.1)
        )
        bounds = _block_bounds(kernel)
        assert len(bounds) >= 2
        largest = max(hi - lo for lo, hi in bounds)
        shapes = []

        class Recorder:
            def __init__(self, module):
                self.module = module

            def __getattr__(self, name):
                fn = getattr(self.module, name)

                def recorded(*args, **kwargs):
                    shapes.extend(np.shape(a) for a in args if isinstance(a, np.ndarray))
                    return fn(*args, **kwargs)

                return recorded

        def forbidden(*_args, **_kwargs):
            raise AssertionError("dense eigendecomposition")

        monkeypatch.setattr(kernels, "lapack", Recorder(kernels.lapack))
        monkeypatch.setattr(kernels, "blas", Recorder(kernels.blas))
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        sensor = SensorModel(SensorConfig(p_d=0.9, clutter_mean=1.0))
        scan = generate_scan(points[:3], [0, 1, 2], sensor.cfg, frozenset(), rng, time=0)
        mu = posterior_diagonal(FilterState(points, kernel), scan, sensor)
        assert np.all(np.isfinite(mu))
        assert shapes and max(max(s) for s in shapes) <= largest < len(kernel)


class TestCrossCovariance:
    def test_disjoint_zero_offdiagonal(self):
        k = DiscretizedKernel.from_dense(np.diag([0.2, 0.3, 0.1, 0.4]))
        assert count_covariances(k, [0, 1], [2, 3])[2] == 0.0

    def test_full_grid_diagonal_formula(self):
        # a diagonal kernel d on point masses w, in operator form
        w = np.array([0.5, 1.5, 1.0])
        d = np.array([0.2, 0.3, 0.4])
        k = DiscretizedKernel.from_dense(operator_form(np.diag(d), w))
        expect = float(np.sum(d * w) - np.sum(d**2 * w**2))
        assert count_covariances(k, range(3), range(3))[2] == pytest.approx(expect, abs=1e-14)

    def test_two_point_hand_value(self):
        k = DiscretizedKernel.from_dense(np.array([[0.4, 0.2], [0.2, 0.4]]))
        assert count_covariances(k, [0], [1])[2] == pytest.approx(-0.04, abs=1e-15)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_sets_never_positive(self, seed):
        k = random_correlation(5, seed=seed)
        rng = np.random.default_rng(seed + 1)
        mask = rng.integers(0, 3, size=5)  # 0 -> A, 1 -> B, 2 -> neither
        a = [i for i in range(5) if mask[i] == 0]
        b = [i for i in range(5) if mask[i] == 1]
        assert count_covariances(k, a, b)[2] <= 0.0


class TestJanossy:
    def test_empty_process(self):
        k = DiscretizedKernel.from_dense(np.zeros((3, 3)))
        assert all_subset_masses(k)[()] == pytest.approx(1.0)

    def test_diagonal_masses_sum_to_one(self):
        k = DiscretizedKernel.from_dense(np.diag([0.2, 0.5, 0.7]))
        total = sum(all_subset_masses(k).values())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_three_point_masses_sum_to_one(self):
        k = random_correlation(3, seed=5, scale=0.4)
        total = sum(all_subset_masses(k).values())
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_weighted_masses_sum_to_one(self):
        k = random_correlation(4, seed=7, weights=[0.5, 2.0, 1.2, 0.8])
        total = sum(all_subset_masses(k).values())
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_masses_of_a_weighted_grid_in_operator_form(self):
        # a kernel K on a grid of point masses w is the DPP whose subset
        # masses are void det(J[idx]) prod w[idx], J = (I - KW)^-1 K and
        # void = det(I - KW); its operator form S = W^1/2 K W^1/2 gives the
        # same masses, and its interaction kernel is W^1/2 J W^1/2
        rng = np.random.default_rng(43)
        n = 5
        w = rng.uniform(0.5, 2.0, n)
        rw = np.sqrt(w)
        s = random_correlation(n, seed=47, scale=0.4).to_dense()
        k = s / np.outer(rw, rw)
        kernel = DiscretizedKernel.from_dense(operator_form(k, w))
        lam = np.linalg.eigvalsh(operator_form(k, w))
        void = float(np.prod(1.0 - lam))
        j = spectral_interaction(kernel) / np.outer(rw, rw)
        masses = all_subset_masses(kernel)
        for idx, mass in masses.items():
            sub = list(idx)
            expect = void * np.linalg.det(j[np.ix_(sub, sub)]) * np.prod(w[sub])
            assert mass == pytest.approx(expect, rel=1e-9, abs=1e-15)
        direct = np.linalg.solve(np.eye(n) - k @ np.diag(w), k)
        np.testing.assert_allclose(
            interaction_kernel(kernel), operator_form(direct, w), rtol=0.0, atol=1e-12
        )

    @given(st.integers(min_value=0, max_value=5000))
    @settings(max_examples=10, deadline=None)
    def test_subset_masses_normalize_up_to_n12(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        k = random_correlation(n, seed=seed)
        total = sum(all_subset_masses(k).values())
        assert total == pytest.approx(1.0, abs=1e-8)


class TestProjectKernel:
    def test_feasible_matrix_unchanged(self):
        k = random_correlation(4, seed=13)
        again = project_kernel(k.to_dense())
        np.testing.assert_array_equal(again.to_dense(), k.to_dense())

    def test_scalar_clip(self):
        out = project_kernel(np.array([[1.5]]))
        assert out.to_dense()[0, 0] == pytest.approx(1.0 - DELTA)

    def test_random_symmetric_spectrum_in_range(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((4, 4))
        out = project_kernel(0.5 * (m + m.T))
        lam = operator_spectrum(out)
        assert lam.min() >= -1e-10
        assert lam.max() <= 1 - 1e-3 + 1e-10

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((5, 5)) * 2.0
        once = project_kernel(0.5 * (m + m.T))
        twice = project_kernel(once.to_dense())
        np.testing.assert_allclose(twice.to_dense(), once.to_dense(), atol=1e-12)


@st.composite
def band_lists(draw, n=None):
    """1 to 13 bands, with n given (at most n bands) of points summing to n,
    each of zero width, of width at or above its points - 1, or between."""
    if n is None:
        points = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=13))
    else:
        k = draw(st.integers(min_value=1, max_value=min(13, n)))
        cuts = draw(st.sets(st.integers(1, max(n - 1, 1)), min_size=k - 1, max_size=k - 1))
        points = np.diff([0, *sorted(cuts), n]).tolist()
    widths = [
        draw(st.sampled_from((0, p - 1, p + 3)) | st.integers(min_value=0, max_value=p))
        for p in points
    ]
    return tuple(zip(points, widths))


@st.composite
def shrink_inputs(draw):
    """A symmetric matrix (diagonal in [-0.2, 1.5], off-diagonal scale up to
    2) on unit or random point masses, in operator form and zeroed outside
    its bands, and no bands, an index band or a random band list."""
    n = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    weights = np.ones(n) if draw(st.booleans()) else rng.uniform(0.5, 2.0, n)
    off = rng.standard_normal((n, n)) * draw(st.floats(min_value=0.0, max_value=2.0))
    m = 0.5 * (off + off.T)
    np.fill_diagonal(m, rng.uniform(-0.2, 1.5, n))
    kind = draw(st.sampled_from(("none", "index", "bands")))
    if kind == "index":
        bands = index_bands(n, draw(st.floats(min_value=0.05, max_value=1.0)))
    elif kind == "bands":
        bands = draw(band_lists(n))
    else:
        bands = None
    return np.where(band_mask(n, bands), operator_form(m, weights), 0.0), bands


def eigvalsh_extreme(arrays, top):
    """Reference for kernels._extreme_eigenvalue from the full spectrum of
    each band array."""
    lam = np.concatenate([operator_spectrum(DiscretizedKernel((a,))) for a in arrays])
    return float(lam.max() if top else lam.min())


class TestShrinkToFeasible:
    @given(shrink_inputs())
    @settings(max_examples=60, deadline=None)
    def test_valid_banded_and_diagonal_kept(self, case):
        m, bands = case
        out, t, clipped = shrink_dense(m, bands)
        validate_kernel(out)
        assert 0.0 <= t <= 1.0
        assert out.bands == reach_bands(bands, len(m))
        assert np.all(out.to_dense()[~band_mask(len(m), bands)] == 0.0)
        mu = np.diag(m)
        cap = 1.0 - DELTA
        inside = (mu >= 0.0) & (mu <= cap)
        np.testing.assert_array_equal(out.diagonal[inside], mu[inside])
        # points clipped to (or sitting on) a bound keep no off-diagonal entry
        off = out.to_dense().copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off[~((mu > 0.0) & (mu < cap))] == 0.0)
        assert clipped == pytest.approx(float(np.sum(mu - out.diagonal)))

    @given(shrink_inputs())
    @settings(max_examples=60, deadline=None)
    def test_feasible_input_is_a_fixed_point(self, case):
        m, bands = case
        once = shrink_dense(m, bands)[0]
        # shrink the valid output's spectrum into [0.1, 0.6]: strictly feasible
        inner = 0.5 * once.to_dense() + 0.1 * np.eye(len(m))
        out, t, clipped = shrink_dense(inner, bands)
        assert t == 1.0 and clipped == 0.0
        np.testing.assert_array_equal(out.to_dense(), inner)

    @given(shrink_inputs())
    @settings(max_examples=60, deadline=None)
    def test_scale_matches_eigvalsh_reference(self, case):
        m, bands = case
        _, t, _ = shrink_dense(m, bands)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_extreme_eigenvalue", eigvalsh_extreme)
            _, expect, _ = shrink_dense(m, bands)
        assert t == pytest.approx(expect, rel=1e-12, abs=0.0)

    @given(st.data(), st.integers(min_value=1, max_value=40), st.integers(0, 2**32 - 1),
           st.floats(0.0, 2.0))
    @settings(max_examples=80, deadline=None)
    def test_bound_points_are_as_if_left_out(self, data, n, seed, off_scale):
        # zeroing the rows of the clipped and bound points gives the t of the
        # kernel restricted to its free points
        rng = np.random.default_rng(seed)
        bands = data.draw(band_lists(n))
        cap = 1.0 - DELTA
        kind = rng.integers(0, 5, n)  # free, zero, on the cap, above it, below zero
        mu = np.choose(kind, [rng.uniform(0.05, 0.9, n), np.zeros(n), np.full(n, cap),
                              rng.uniform(1.0, 1.5, n), rng.uniform(-0.2, -0.01, n)])
        off = rng.uniform(-off_scale, off_scale, (n, n))
        m = np.where(band_mask(n, bands), off + off.T, 0.0)
        np.fill_diagonal(m, mu)
        free = kind == 0
        out, t, _ = shrink_dense(m, bands)
        _, expect, _ = shrink_dense(m[np.ix_(free, free)])
        assert t == pytest.approx(expect, rel=1e-12, abs=0.0)
        np.testing.assert_array_equal(out.diagonal, np.clip(mu, 0.0, cap))
        pairs = out.to_dense()
        np.fill_diagonal(pairs, 0.0)
        assert not pairs[~free].any() and not pairs[:, ~free].any()
        np.fill_diagonal(m, 0.0)
        np.testing.assert_array_equal(pairs[np.ix_(free, free)], t * m[np.ix_(free, free)])

    @pytest.mark.parametrize("n, band", [(60, None), (150, 9), (320, 32)])
    def test_scale_matches_eigvalsh_reference_on_large_kernels(self, monkeypatch, n, band):
        # the ceiling sets t < 1
        raw = ceiling_bound_input(np.random.default_rng(n), n, band)
        _, t, _ = shrink_to_feasible(raw)
        monkeypatch.setattr(kernels, "_extreme_eigenvalue", eigvalsh_extreme)
        _, expect, _ = shrink_to_feasible(raw)
        assert t < 1.0
        assert t == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_one_extreme_eigenvalue_unless_the_ceiling_binds(self, monkeypatch):
        # a strictly feasible input's certificate holds at t = 1; a posterior
        # whose diagonal sits at 0.9-0.99 of 1 - delta, with large pair
        # entries, fails it, and lambda_max then sets t
        calls = []
        extreme = kernels._extreme_eigenvalue

        def counted(arrays, top):
            calls.append(top)
            return extreme(arrays, top)

        monkeypatch.setattr(kernels, "_extreme_eigenvalue", counted)
        rng = np.random.default_rng(41)
        n = 30
        kernel = banded_kernel(np.zeros((n, 5)), 3.0, 4.0, 0.2)
        out, t, _ = shrink_to_feasible(kernel)
        assert calls == [False] and t == 1.0
        np.testing.assert_array_equal(out.to_dense(), kernel.to_dense())
        calls.clear()
        mu = rng.uniform(0.9, 0.99, n) * (1.0 - DELTA)
        rho = np.outer(mu, mu) * rng.uniform(0.5, 0.9, (n, n))
        pairs = pair_index(((n, n),))
        entries, _ = posterior_kernel_entries(mu, 0.5 * (rho + rho.T)[pairs], ((n, n),))
        out, t, clipped = shrink_to_feasible(entries)
        assert calls == [False, True]
        assert t < 1.0 and clipped == 0.0
        validate_kernel(out)
        assert operator_spectrum(out).max() == pytest.approx(1.0 - DELTA, abs=1e-12)
        monkeypatch.setattr(kernels, "_extreme_eigenvalue", eigvalsh_extreme)
        assert t == pytest.approx(shrink_to_feasible(entries)[1], rel=1e-12, abs=0.0)

    def test_certificate_at_the_lowered_scale(self, monkeypatch):
        # diagonal (0.2, 0.2), pair 0.9: lambda_min sets t = 0.2 / 0.9, at
        # which the ceiling certificate holds (t 0.9 / 0.799 < 1) although it
        # fails at t = 1, so lambda_max is not computed
        calls = []
        extreme = kernels._extreme_eigenvalue

        def counted(arrays, top):
            calls.append(top)
            return extreme(arrays, top)

        monkeypatch.setattr(kernels, "_extreme_eigenvalue", counted)
        _, t, _ = shrink_dense(np.array([[0.2, 0.9], [0.9, 0.2]]))
        assert calls == [False] and t == pytest.approx(0.2 / 0.9, rel=1e-12)

    def test_peak_memory_below_one_dense_matrix(self):
        # the scaled operands are band arrays: one call with every path
        # (lambda_min, a failed certificate, lambda_max) on 840 points of
        # reach 80 peaks well below one (N, N) float64 array
        n = 840
        kernel = DiscretizedKernel.from_profile(np.r_[0.5, np.full(80, 0.05)], n)
        tracemalloc.start()
        try:
            out, t, _ = shrink_to_feasible(kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < t < 1.0 and out.bands == ((n, 80),)
        assert peak < 8 * n * n

    def test_overflowing_scale_takes_zero(self):
        # a diagonal at the smallest subnormal: the scaled pair overflows
        out, t, clipped = shrink_dense(np.array([[5e-324, 0.1], [0.1, 5e-324]]))
        assert t == 0.0 and clipped == 0.0
        np.testing.assert_array_equal(out.to_dense(), np.diag([5e-324, 5e-324]))

    def test_two_point_scale_closed_form(self):
        # diagonal (a, a), off-diagonal c: D + tO is PSD up to t = a/c and
        # below 1 - delta up to t = (1 - delta - a)/c
        out, t, clipped = shrink_dense(np.array([[0.5, 0.8], [0.8, 0.5]]))
        assert t == pytest.approx((1.0 - DELTA - 0.5) / 0.8, rel=1e-12)
        assert out.to_dense()[0, 1] == pytest.approx(1.0 - DELTA - 0.5, rel=1e-12)
        np.testing.assert_array_equal(out.diagonal, [0.5, 0.5])
        assert clipped == 0.0
        out, t, _ = shrink_dense(np.array([[0.2, 0.8], [0.8, 0.45]]))
        assert t == pytest.approx(0.3 / 0.8, rel=1e-12)  # sqrt(0.2 * 0.45) / 0.8

    def test_diagonal_above_ceiling_clipped(self):
        m = np.array([[1.06, 0.1, 0.05], [0.1, 0.3, 0.02], [0.05, 0.02, 0.2]])
        out, t, clipped = shrink_dense(m)
        np.testing.assert_array_equal(out.diagonal, [1.0 - DELTA, 0.3, 0.2])
        assert out.to_dense()[0, 1] == out.to_dense()[0, 2] == 0.0
        assert t == 1.0 and out.to_dense()[1, 2] == 0.02
        assert clipped == pytest.approx(1.06 - (1.0 - DELTA), rel=1e-12)

    def test_asymmetric_or_out_of_band_input_raises(self):
        # a feasible input (t = 1) comes back as it is; the dense
        # conversion rejects either violation, and none is repaired
        m = np.array([[0.3, 0.1, 0.0], [0.1, 0.3, 0.1], [0.0, 0.1, 0.3]])
        bands = ((3, 1),)
        out, t, _ = shrink_dense(m, bands)
        assert t == 1.0
        np.testing.assert_array_equal(out.to_dense(), m)
        asymmetric = m.copy()
        asymmetric[0, 1] = 0.11
        with pytest.raises(ValueError, match="exactly symmetric"):
            shrink_dense(asymmetric, bands)
        wide = m.copy()
        wide[0, 2] = wide[2, 0] = 0.05
        with pytest.raises(ValueError, match="outside its bands"):
            shrink_dense(wide, bands)

    def test_no_eigendecomposition_for_diagonal_input(self, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("eigendecomposition of a diagonal kernel")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(kernels, "_extreme_eigenvalue", forbidden)
        out, t, _ = shrink_dense(np.diag([0.2, 0.4, 0.0]))
        np.testing.assert_array_equal(out.diagonal, [0.2, 0.4, 0.0])
        assert t == 1.0


class TestBands:
    def test_kernel_constructor_rejects_band_violation(self):
        m = np.full((4, 4), 0.1)
        with pytest.raises(ValueError, match="outside its bands"):
            DiscretizedKernel.from_dense(m, bands=index_bands(4, 0.25))
        with pytest.raises(ValueError, match="outside its bands"):
            DiscretizedKernel.from_dense(m, bands=((2, 1), (2, 1)))
        with pytest.raises(ValueError, match="tile"):
            DiscretizedKernel.from_dense(m, bands=((3, 3),))
        with pytest.raises(ValueError, match="tile"):
            DiscretizedKernel.from_dense(m, bands=((4, -1),))
        assert DiscretizedKernel.from_dense(m, bands=((4, 3),)).bands == ((4, 3),)
        assert DiscretizedKernel.from_dense(m).bands == ((4, 3),)  # reach < points

    @given(st.none() | band_lists(), st.integers(min_value=1, max_value=600), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bands_match_their_mask(self, bands, n, seed):
        # every band reading against the explicit mask of the same bands
        n = n if bands is None else sum(p for p, _ in bands)
        mask = band_mask(n, bands)
        kernel = DiscretizedKernel.from_dense(np.zeros((n, n)), bands)
        assert _block_bounds(kernel) == argmax_block_bounds(n, None if bands is None else mask)
        assert band_pairs(kernel.bands) == np.count_nonzero(np.triu(mask, 1))
        rows, cols = pair_index(kernel.bands)
        below = np.zeros((n, n), dtype=bool)
        below[rows, cols] = True
        assert len(rows) == band_pairs(kernel.bands)
        np.testing.assert_array_equal(below, np.tril(mask, -1))
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        inside = np.where(mask, m + m.T, 0.0)
        kernel = DiscretizedKernel.from_dense(inside, bands)
        np.testing.assert_array_equal(kernel.to_dense(), inside)
        outside = np.argwhere(np.triu(~mask))
        if len(outside):  # the first entry outside a band, next to one
            i, j = outside[np.argmin(outside[:, 1] - outside[:, 0])]
            inside[i, j] = inside[j, i] = 1.0
            with pytest.raises(ValueError, match="outside its bands"):
                DiscretizedKernel.from_dense(inside, bands)
        with pytest.raises(ValueError, match="tile"):
            DiscretizedKernel.from_dense(np.zeros((n, n)), kernel.bands + ((1, 0),))
        with pytest.raises(ValueError, match="tile"):
            DiscretizedKernel.from_dense(np.zeros((n + 1, n + 1)), kernel.bands)

    @pytest.mark.parametrize("entries", [np.full((2, 3), 0.1), np.full(2, 0.1), np.float64(0.1)])
    def test_kernel_constructor_rejects_non_square_entries(self, entries):
        with pytest.raises(ValueError, match="square"):
            DiscretizedKernel.from_dense(entries)


def test_twelve_point_masses_sum_to_one():
    # the largest kernel the subset enumeration supports
    k = random_correlation(12, seed=99, scale=0.25)
    total = sum(all_subset_masses(k).values())
    assert total == pytest.approx(1.0, abs=1e-8)
