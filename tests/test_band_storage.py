"""The band-array kernel operations against the dense formulas they
replace, bit for bit, on random band layouts: width 0, width at or above
the points, one point, no points, and survivors plus births.  The dense
formulas are kept here as the reference."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from dpptrack import kernels
from dpptrack.dpp_filter import (
    DppPhdFilter,
    FilterState,
    posterior_kernel_entries,
    predict,
)
from dpptrack.errors import NonFiniteKernel, SpectrumError
from dpptrack.harness import preset, run_single
from dpptrack.kernels import (
    DELTA,
    DiscretizedKernel,
    band_pairs,
    count_covariances,
    interaction_diagonal,
    interaction_kernel,
    pair_index,
    shrink_to_feasible,
)
from dpptrack.ppp_filter import SurvivalModel
from dpptrack.scenario import DynamicsConfig, Region, Window
from dpptrack.smc import SmcConfig, banded_kernel

from test_kernels import argmax_block_bounds, band_mask

CEILING = 1.0 - DELTA + 1e-12


@st.composite
def layouts(draw, max_points=150):
    """0 to 3 bands of 0 to max_points points, each of width 0, of width
    at or above its points, or between."""
    bands = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        p = draw(st.integers(min_value=0, max_value=max_points) | st.just(1))
        width = draw(st.sampled_from((0, p, p + 3)) | st.integers(min_value=0, max_value=p))
        bands.append((p, width))
    return tuple(bands)


def dense_input(rng, bands, off_scale=0.5):
    """A dense symmetric matrix zero outside ``bands``: diagonal in
    [0.1, 1], off-diagonal uniform in [-off_scale, off_scale]."""
    n = sum(p for p, _ in bands)
    m = rng.uniform(-off_scale, off_scale, (n, n))
    m = np.where(band_mask(n, bands), m + m.T, 0.0)
    np.fill_diagonal(m, rng.uniform(0.1, 1.0, n))
    return m


# -- the dense formulas ------------------------------------------------------


def dense_banded_kernel(n, gamma, alpha, eta):
    scale = gamma / n
    b = math.floor(eta * n)
    profile = np.zeros(n)
    profile[0] = scale
    if alpha > 0.0 and b > 0 and gamma > 0.0:
        rho = min(alpha / (1.0 + alpha), ((1.0 - DELTA) * n / gamma - 1.0) / b)
        profile[1 : b + 1] = scale * rho * (1.0 - np.arange(1, b + 1) / (b + 1))
    return toeplitz(profile)


def dense_interaction(m, bands):
    """(J, diag J, whether the exact check ran) by slicing the blocks from
    the dense matrix, taking Gershgorin's bound from its rows and the
    domain check from its full spectrum."""
    n = len(m)
    if n == 0:
        return np.zeros((0, 0)), np.zeros(0), False
    bounds = argmax_block_bounds(n, band_mask(n, bands))
    below = [-m[lo:hi, clo:chi] for (clo, chi), (lo, hi) in zip(bounds, bounds[1:])]

    def factor():
        # the factorization overwrites its diagonal blocks: each takes new ones
        diagonal = [-m[lo:hi, lo:hi] for lo, hi in bounds]
        return kernels._block_cholesky(diagonal, below)

    checked = float(np.abs(m).sum(axis=1).max()) > CEILING
    if checked and np.linalg.eigvalsh(m).max() > CEILING:
        raise SpectrumError("spectrum above the ceiling")
    jd = np.empty(n)  # dpotri overwrites the factors: each transform factors anew
    for k, g_k, _ in kernels._inverse_diagonal_blocks(*factor()):
        lo, hi = bounds[k]
        jd[lo:hi] = np.diagonal(g_k) - 1.0
    j = kernels._block_inverse(n, bounds, *factor())
    j.flat[:: n + 1] -= 1.0
    return j, jd, checked


def dense_posterior_entries(mu, rho, bands):
    """One root per pair i > j inside the bands, from rho's lower triangle,
    mirrored; every negative radicand counts once."""
    n = len(mu)
    lower = np.tril(band_mask(n, bands), -1)
    sq = np.where(lower, np.outer(mu, mu) - rho, 0.0)
    clamped = int((sq < 0).sum())
    np.clip(sq, 0.0, None, out=sq)
    entries = np.sqrt(sq)
    entries += entries.T
    np.fill_diagonal(entries, mu)
    return entries, clamped


def dense_shrink(m):
    """(off-diagonal kept, clipped diagonal, t, clipped mass): the pairs of
    every clipped or bound point zeroed, and t from the full spectra of the
    two dense scaled operands, or 0 when a scaled entry overflows."""
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
        # the zeroed rows take the divisor 1 and add only zero eigenvalues
        roots = np.sqrt(np.where(free, mu, 1.0)), np.sqrt(np.where(free, cap - mu, 1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = (off / r[:, None] / r[None, :] for r in roots)
        if np.all(np.isfinite(a)) and np.all(np.isfinite(b)):
            lowest, highest = float(np.linalg.eigvalsh(a)[0]), float(np.linalg.eigvalsh(b)[-1])
            t = min([t] + [1.0 / x for x in (-lowest, highest) if x > 0.0])
        else:
            t = 0.0
    return off, diagonal, t, clipped_mass


def dense_cross_covariance(m, a, b):
    inter = np.intersect1d(a, b, assume_unique=True)
    first = float(np.diag(m)[inter].sum()) if inter.size else 0.0
    second = float((m[np.ix_(a, b)] ** 2).sum()) if a.size and b.size else 0.0
    return first - second


def gathered_cross_covariance(kernel, a, b):
    """cov(A, B) from its own gather of K over A x B from the bands: the
    one-pair form, called three times, that ``count_covariances`` replaces."""
    diagonal = kernel.diagonal
    inter = np.intersect1d(a, b, assume_unique=True)
    first = float(diagonal[inter].sum()) if inter.size else 0.0
    if not (a.size and b.size):
        return first
    g = kernels._lower_band(kernel)
    lag = np.minimum(np.abs(np.subtract.outer(a, b)), len(g) - 1)
    block = np.take(g, lag * g.shape[1] + np.minimum.outer(a, b))
    return first - float((block**2).sum())


# -- properties --------------------------------------------------------------


class TestAgainstDenseFormulas:
    @given(st.integers(min_value=1, max_value=400), st.floats(0.0, 1.0), st.floats(0.0, 8.0),
           st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_banded_kernel_is_the_toeplitz_matrix(self, n, fill, alpha, eta):
        gamma = fill * (1.0 - DELTA) * n
        kernel = banded_kernel(np.zeros((n, 5)), gamma, alpha, eta)
        assert kernel.bands == ((n, math.floor(eta * n)),)
        np.testing.assert_array_equal(kernel.to_dense(), dense_banded_kernel(n, gamma, alpha, eta))

    @given(layouts(max_points=60), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_predict_is_the_block_diagonal(self, bands, seed):
        rng = np.random.default_rng(seed)
        n = sum(p for p, _ in bands)
        prior = DiscretizedKernel.from_dense(0.1 * dense_input(rng, bands), bands)
        window = Window(Region(-50.0, 50.0, -50.0, 50.0), -2.0, 2.0, -math.pi, math.pi)
        smc = SmcConfig(birth_per_target=7, alpha=4.0, band_eta=0.2)
        survival = SurvivalModel(0.9, DynamicsConfig())
        state = FilterState(rng.uniform(-40.0, 40.0, (n, 5)), prior)
        pred = predict(state, survival, smc, window, rng)
        born = len(pred.particles) - n
        mass = float(np.sum(0.9 * prior.diagonal))
        births = dense_banded_kernel(born, mass, 4.0, 0.2)
        expect = np.zeros((n + born,) * 2)
        expect[:n, :n] = 0.9 * prior.to_dense()
        expect[n:, n:] = births
        np.testing.assert_array_equal(pred.kernel.to_dense(), expect)
        assert pred.kernel.bands == prior.bands + ((born, math.floor(0.2 * born)),)

    @pytest.mark.parametrize("path", ["gershgorin", "exact", "spectrum error"])
    @given(layouts(), st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_interaction_transforms(self, path, bands, seed, level):
        m = dense_input(np.random.default_rng(seed), bands)
        if len(m):
            if path == "gershgorin":
                m *= level * (1.0 - DELTA) / np.abs(m).sum(axis=1).max()
            else:
                top = np.linalg.eigvalsh(m).max()
                m *= (level if path == "exact" else 1.0 + level) * (1.0 - DELTA) / top
        kernel = DiscretizedKernel.from_dense(m, bands)
        checked = []
        dominates = kernels._dominates

        def recorded(shift, arrays):
            checked.append(shift)
            return dominates(shift, arrays)

        try:
            j, jd, expect_checked = dense_interaction(m, bands)
        except SpectrumError:
            assert path == "spectrum error"
            for transform in (interaction_kernel, interaction_diagonal):
                with pytest.raises(SpectrumError):
                    transform(kernel)
            return
        assert path != "spectrum error" or not len(m)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_dominates", recorded)
            np.testing.assert_array_equal(interaction_kernel(kernel), j)
            np.testing.assert_array_equal(interaction_diagonal(kernel), jd)
        # one certificate per transform, at the ceiling, or none
        assert checked == ([CEILING] * 2 if expect_checked else [])
        if path == "gershgorin":
            assert not checked

    @given(layouts(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_posterior_kernel_entries_and_clamps(self, bands, seed):
        rng = np.random.default_rng(seed)
        n = sum(p for p, _ in bands)
        mu = rng.uniform(0.0, 1.0, n)
        # an asymmetric pair moment, of which only the lower triangle is read
        rho = np.outer(mu, mu) * rng.uniform(0.5, 1.5, (n, n))
        np.fill_diagonal(rho, 0.0)
        kernel, clamped = posterior_kernel_entries(mu, rho[pair_index(bands)], bands)
        entries, expect = dense_posterior_entries(mu, rho, bands)
        np.testing.assert_array_equal(kernel.to_dense(), entries)
        assert clamped == expect

    @given(layouts(max_points=60), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
    @example(bands=((4, 4), (0, 0)), seed=1, off_scale=1.0)  # a band of no points
    @example(bands=((0, 2), (6, 0), (7, 3), (5, 0)), seed=2, off_scale=2.0)  # and of reach 0
    @settings(max_examples=40, deadline=None)
    def test_shrink_to_feasible(self, bands, seed, off_scale):
        rng = np.random.default_rng(seed)
        m = dense_input(rng, bands, off_scale)
        np.fill_diagonal(m, rng.uniform(-0.2, 1.5, len(m)))
        out, t, clipped = shrink_to_feasible(DiscretizedKernel.from_dense(m, bands))
        off, diagonal, expect_t, expect_clipped = dense_shrink(m)
        assert t == pytest.approx(expect_t, rel=1e-12, abs=0.0)
        assert clipped == expect_clipped
        # given t, the diagonal, the clip and the zeroed pairs bit for bit
        np.testing.assert_array_equal(out.to_dense(), t * off + np.diag(diagonal))

    @given(layouts(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_band_pairs_and_cross_covariance(self, bands, seed):
        rng = np.random.default_rng(seed)
        m = dense_input(rng, bands)
        n = len(m)
        kernel = DiscretizedKernel.from_dense(m, bands)
        assert band_pairs(kernel.bands) == np.count_nonzero(np.triu(band_mask(n, bands), 1))
        side = rng.integers(0, 3, n)  # 0 -> A, 1 -> B, 2 -> neither
        a, b = np.nonzero(side == 0)[0], np.nonzero(side == 1)[0]
        for x, y in ((a, b), (a, a), (b, b), (np.nonzero(side < 2)[0], a)):
            expect = tuple(dense_cross_covariance(m, *p) for p in ((x, x), (y, y), (x, y)))
            assert count_covariances(kernel, x, y) == expect
        assert count_covariances(kernel, a, b)[2] <= 0.0  # disjoint: minus a sum of squares

    @given(layouts(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_count_covariances_are_the_three_gathers(self, bands, seed):
        rng = np.random.default_rng(seed)
        kernel = DiscretizedKernel.from_dense(dense_input(rng, bands), bands)
        n = len(kernel)
        # overlapping, nested, disjoint and empty domains, as np.nonzero gives them
        a = np.nonzero(rng.random(n) < rng.random())[0]
        b = np.nonzero(rng.random(n) < rng.random())[0]
        for x, y in ((a, b), (b, a), (a, a), (a, np.union1d(a, b)), (a, b[:0])):
            expect = tuple(gathered_cross_covariance(kernel, *p) for p in ((x, x), (y, y), (x, y)))
            assert count_covariances(kernel, x, y) == expect


class TestEdges:
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_banded_kernel_on_no_points(self, gamma):
        if gamma == 0.0:
            kernel = banded_kernel(np.zeros((0, 5)), gamma, 4.0, 0.1)
            assert len(kernel) == 0 and kernel.diagonal.shape == (0,)
            assert interaction_kernel(kernel).shape == (0, 0)
        else:
            with pytest.raises(SpectrumError):
                banded_kernel(np.zeros((0, 5)), gamma, 4.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_dense_conversion_rejects_a_non_finite_entry(self, bad):
        m = np.array([[0.3, 0.1], [0.1, 0.3]])
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(NonFiniteKernel, match="finite"):
            DiscretizedKernel.from_dense(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_band_constructor_rejects_a_non_finite_entry(self, bad):
        band = np.array([[0.3, 0.3, 0.3], [0.1, bad, 0.0]])
        with pytest.raises(NonFiniteKernel, match="finite"):
            DiscretizedKernel((band,))

    def test_band_constructor_rejects_entries_past_the_band_end(self):
        with pytest.raises(ValueError, match="past the band's end"):
            DiscretizedKernel((np.array([[0.3, 0.3], [0.1, 0.1]]),))
        with pytest.raises(ValueError, match="reach"):
            DiscretizedKernel((np.zeros((3, 2)),))


def test_a_spooky_step_makes_no_dense_conversion(monkeypatch):
    # the step keeps every kernel as its band arrays: neither the validating
    # dense conversion nor the dense matrix is formed inside it
    calls, steps = [], []
    in_step = [False]

    def counted(name, method):
        def wrapper(*args, **kwargs):
            if in_step[0]:
                calls.append(name)
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        DiscretizedKernel, "from_dense",
        classmethod(counted("from_dense", DiscretizedKernel.from_dense.__func__)),
    )
    monkeypatch.setattr(
        DiscretizedKernel, "to_dense", counted("to_dense", DiscretizedKernel.to_dense)
    )
    step = DppPhdFilter.step

    def traced_step(self, scan):
        in_step[0] = True
        try:
            steps.append(len(self.state.particles))
            return step(self, scan)
        finally:
            in_step[0] = False

    monkeypatch.setattr(DppPhdFilter, "step", traced_step)
    run_single(replace(preset("spooky"), filter="dpp", steps=3), 0)
    assert len(steps) == 3
    assert calls == []
