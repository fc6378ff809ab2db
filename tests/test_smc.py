import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpptrack.dpp_filter import DppPhdFilter
from dpptrack.errors import ConfigError, DegenerateIntensity, SpectrumError
from dpptrack.harness import config_from_ini, config_to_ini, preset
from dpptrack.kernels import DELTA, IndexBand, band_allowed, validate_kernel
from dpptrack.likelihood import SensorModel
from dpptrack.ppp_filter import PppPhdFilter, SurvivalModel
from dpptrack.scenario import DynamicsConfig, Region, Scan, SensorConfig, Window
from dpptrack.smc import (
    BirthScheme,
    ParticleSet,
    SmcConfig,
    banded_kernel,
    init_particles,
    inject_births,
    rebuild_kernel,
    resample,
    roughening_sd,
)

WINDOW = Window(Region(-100.0, 100.0, -100.0, 100.0))


def particles_of(states):
    states = np.atleast_2d(states)
    return ParticleSet(states, np.zeros(states.shape[0], dtype=np.int8))


class TestInit:
    def test_paper_initialization_values(self):
        # N=800, gamma0=2, alpha=4, eta=0.1: diagonal 0.0025, band 80 and
        # rho = 4/5, so lag 1 is 0.0025 * 0.8 * 80/81 and lag 81 is outside
        cfg = SmcConfig(n_init=800, gamma0=2.0, alpha=4.0, band_eta=0.1)
        _, kernel = init_particles(cfg, WINDOW, np.random.default_rng(0))
        k = kernel.entries
        assert np.all(np.diag(k) == 0.0025)
        assert k[0, 1] == pytest.approx(0.0025 * 0.8 * 80 / 81, rel=1e-14)
        assert k[0, 80] == pytest.approx(0.0025 * 0.8 / 81, rel=1e-14)
        assert k[0, 81] == 0.0
        assert np.trace(k) == pytest.approx(2.0, rel=1e-12)

    def test_init_projected_kernel_is_valid(self):
        cfg = SmcConfig(n_init=120, gamma0=2.0, alpha=4.0, band_eta=0.1)
        particles, kernel = init_particles(cfg, WINDOW, np.random.default_rng(0))
        assert len(particles) == 120
        assert len(kernel) == 120
        validate_kernel(kernel)

    def test_alpha_zero_gives_diagonal_kernel(self):
        cfg = SmcConfig(n_init=50, gamma0=2.0, alpha=0.0)
        _, kernel = init_particles(cfg, WINDOW, np.random.default_rng(1))
        off = kernel.entries - np.diag(np.diag(kernel.entries))
        assert np.all(off == 0.0)
        assert np.trace(kernel.entries) == pytest.approx(2.0)

    def test_band_structure_enforced(self):
        cfg = SmcConfig(n_init=60, gamma0=2.0, alpha=4.0, band_eta=0.1)
        _, kernel = init_particles(cfg, WINDOW, np.random.default_rng(2))
        idx = np.arange(60)
        outside = np.abs(idx[:, None] - idx[None, :]) > 6
        assert np.all(kernel.entries[outside] == 0.0)


class TestResample:
    def test_point_mass_copies_without_roughening(self):
        cfg = SmcConfig(n_init=10, resample_per_target=5, roughening_scale=0.0)
        states = np.arange(50, dtype=float).reshape(10, 5)
        intensity = np.zeros(10)
        intensity[3] = 2.0
        out = resample(intensity, states, cfg, WINDOW, np.random.default_rng(0))
        assert len(out) == 10  # 5 per target, floor(2.0) = 2 targets
        assert np.all(out.states == states[3])

    def test_output_size_formula(self):
        cfg = SmcConfig(n_init=10, resample_per_target=30, cap=1000)
        intensity = np.full(10, 1.07)  # total 10.7
        out = resample(intensity, np.zeros((10, 5)), cfg, WINDOW,
                       np.random.default_rng(1))
        assert len(out) == 300

    def test_cap_applies(self):
        cfg = SmcConfig(n_init=10, resample_per_target=300, cap=100)
        intensity = np.full(10, 1.0)
        out = resample(intensity, np.zeros((10, 5)), cfg, WINDOW,
                       np.random.default_rng(2))
        assert len(out) == 100

    def test_degenerate_intensity_raises(self):
        cfg = SmcConfig(n_init=4)
        with pytest.raises(DegenerateIntensity):
            resample(np.zeros(4), np.zeros((4, 5)), cfg, WINDOW,
                     np.random.default_rng(3))

    def test_multinomial_frequencies_uniform(self):
        cfg = SmcConfig(n_init=4, resample_per_target=1, roughening_scale=0.0)
        states = np.arange(20, dtype=float).reshape(4, 5)
        intensity = np.full(4, 1.0)
        rng = np.random.default_rng(4)
        counts = np.zeros(4)
        reps = 10_000
        for _ in range(reps):
            out = resample(intensity, states, cfg, WINDOW, rng, size=1)
            counts[int(out.states[0, 0] // 5)] += 1
        freq = counts / reps
        # 3 sigma multinomial band around 0.25
        sigma = np.sqrt(0.25 * 0.75 / reps)
        assert np.all(np.abs(freq - 0.25) < 3.5 * sigma)

    def test_resampling_intensity_unbiased(self):
        cfg = SmcConfig(n_init=3, resample_per_target=4, roughening_scale=0.0)
        states = np.arange(15, dtype=float).reshape(3, 5)
        intensity = np.array([0.2, 0.5, 0.3]) * 3
        rng = np.random.default_rng(5)
        total = np.zeros(3)
        reps = 10_000
        for _ in range(reps):
            out = resample(intensity, states, cfg, WINDOW, rng, size=12)
            ids = (out.states[:, 0] // 5).astype(int)
            total += np.bincount(ids, minlength=3)
        expected = 12 * intensity / intensity.sum()
        got = total / reps
        se = np.sqrt(12 * (intensity / intensity.sum()) * (1 - intensity / intensity.sum()) / reps)
        assert np.all(np.abs(got - expected) < 4 * se)

    def test_roughening_zero_is_pure_multinomial(self):
        cfg = SmcConfig(n_init=5, resample_per_target=10, roughening_scale=0.0)
        states = np.random.default_rng(6).uniform(-50, 50, (5, 5))
        out = resample(np.ones(5) * 2, states, cfg, WINDOW,
                       np.random.default_rng(7))
        source_rows = {tuple(row) for row in states}
        assert all(tuple(row) in source_rows for row in out.states)

    def test_roughening_scale_formula(self):
        sd = roughening_sd(np.array([200.0, 10.0, 200.0, 10.0, 0.4]), 0.05, 100)
        np.testing.assert_allclose(sd, 0.05 * np.array([200, 10, 200, 10, 0.4]) * 100 ** -0.2)


class TestInjectBirths:
    def setup_method(self):
        self.cfg = SmcConfig(
            n_init=40, birth_per_target=10, gamma0=2.0, alpha=4.0, band_eta=0.1
        )
        self.particles, self.kernel = init_particles(
            self.cfg, WINDOW, np.random.default_rng(0)
        )
        self.birth = BirthScheme(self.cfg.birth_per_target)

    def test_gamma_below_one_no_minimum_injects_nothing(self):
        p, k = inject_births(
            self.particles, self.kernel, self.cfg, self.birth, 0.9, WINDOW,
            np.random.default_rng(1),
        )
        assert len(p) == len(self.particles)
        assert k is self.kernel

    def test_gamma_three_gives_thirty_particles(self):
        p, k = inject_births(
            self.particles, self.kernel, self.cfg, self.birth, 3.0, WINDOW,
            np.random.default_rng(2),
        )
        assert len(p) == 40 + 30
        assert len(k) == 70
        validate_kernel(k)

    def test_minimum_override(self):
        p, k = inject_births(
            self.particles, self.kernel, self.cfg,
            BirthScheme(self.cfg.birth_per_target, min_particles=10), 0.5, WINDOW,
            np.random.default_rng(3),
        )
        assert len(p) == 50

    def test_cross_block_zero(self):
        p, k = inject_births(
            self.particles, self.kernel, self.cfg, self.birth, 2.0, WINDOW,
            np.random.default_rng(4),
        )
        n_old = len(self.particles)
        assert np.all(k.entries[:n_old, n_old:] == 0.0)

    def test_kernel_dimension_tracks_particles(self):
        p, k = inject_births(
            self.particles, self.kernel, self.cfg, self.birth, 4.0, WINDOW,
            np.random.default_rng(5),
        )
        assert len(p) == len(k)


@st.composite
def kernel_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=1000))
    # gamma/n has to be a normal float for the trace to keep 12 digits
    gamma = draw(st.just(0.0) | st.floats(min_value=1e-300, max_value=(1.0 - DELTA) * n))
    alpha = draw(st.floats(min_value=0.0, max_value=10.0))
    eta = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    return n, gamma, alpha, eta


class TestBandedKernel:
    @given(kernel_inputs())
    @settings(max_examples=40, deadline=None)
    def test_feasible_by_construction(self, inputs):
        n, gamma, alpha, eta = inputs
        kernel = banded_kernel(np.zeros((n, 5)), gamma, alpha, eta)
        k = kernel.entries
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == gamma / n)
        assert math.isclose(np.trace(k), gamma, rel_tol=1e-12, abs_tol=0.0)
        assert kernel.band == IndexBand(eta)
        assert np.all(k[~band_allowed(IndexBand(eta), kernel.grid)] == 0.0)
        validate_kernel(kernel)

    @given(
        st.integers(min_value=1, max_value=1000),
        st.floats(min_value=1e-9, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_diagonal_above_one_minus_delta_raises(self, n, excess, alpha):
        with pytest.raises(SpectrumError):
            banded_kernel(np.zeros((n, 5)), (1.0 - DELTA) * n * (1.0 + excess), alpha, 0.1)

    def test_largest_mass_is_accepted(self):
        # (1 - DELTA) * n / n can round above 1 - DELTA; the bound is on gamma
        for n in range(1, 60):
            validate_kernel(banded_kernel(np.zeros((n, 5)), (1.0 - DELTA) * n, 4.0, 0.1))

    def test_zero_mass_gives_zero_block(self):
        kernel = banded_kernel(np.zeros((30, 5)), 0.0, 4.0, 0.1)
        assert np.all(kernel.entries == 0.0)

    def test_gershgorin_cap_keeps_heavy_kernels_feasible(self):
        # gamma/n = 0.8 with rho = 0.8 would put the row sums far above 1
        kernel = banded_kernel(np.zeros((300, 5)), 240.0, 4.0, 0.1)
        validate_kernel(kernel)
        assert np.trace(kernel.entries) == pytest.approx(240.0, rel=1e-12)


def test_kernel_constructors_make_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition called")

    cfg = SmcConfig(n_init=300, birth_per_target=10, gamma0=2.0, alpha=4.0, band_eta=0.1)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    particles, kernel = init_particles(cfg, WINDOW, np.random.default_rng(0))
    particles, kernel = inject_births(
        particles, kernel, cfg, BirthScheme(cfg.birth_per_target), 3.0, WINDOW,
        np.random.default_rng(1),
    )
    rebuilt = rebuild_kernel(particles, cfg, 6.5)
    monkeypatch.undo()
    assert len(kernel) == 330
    validate_kernel(kernel)
    validate_kernel(rebuilt)


def test_rebuild_kernel_valid_and_banded():
    cfg = SmcConfig(n_init=30, alpha=4.0, band_eta=0.1)
    particles = particles_of(np.random.default_rng(1).uniform(-50, 50, (90, 5)))
    kernel = rebuild_kernel(particles, cfg, 6.5)
    validate_kernel(kernel)
    allowed = band_allowed(IndexBand(0.1), kernel.grid)
    assert np.all(kernel.entries[~allowed] == 0.0)


class TestResampleModes:
    def test_unknown_mode_rejected(self):
        # multinomial resampling and the double update are the only modes;
        # config echoes that name them still load, other values are refused
        text = config_to_ini(preset("spooky"))
        old = text.replace("[smc]\n", "[smc]\nresample_mode = multinomial\n").replace(
            "[experiment]\n", "[experiment]\ndouble_update = true\n"
        )
        assert config_from_ini(old) == preset("spooky")
        for section, line in (
            ("smc", "resample_mode = systematic"),
            ("smc", "resample_mode = topk"),
            ("experiment", "double_update = false"),
        ):
            bad = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
            with pytest.raises(ConfigError):
                config_from_ini(bad)


@pytest.mark.parametrize("filter_cls", [PppPhdFilter, DppPhdFilter])
def test_unexplained_detection_raises_degenerate_intensity(filter_cls):
    # good-ratio sensor: p_d = 1 and no clutter, so a detection 140 m in
    # range from every particle has likelihood 0 everywhere and the
    # corrector divides 0 by 0
    window = Window(Region(-20.0, 20.0, -20.0, 20.0), -2.0, 2.0, -math.pi, math.pi)
    sensor = SensorModel(
        SensorConfig(sigma_range=2.0 * math.sqrt(2.0), sigma_bearing=math.pi,
                     p_d=1.0, clutter_mean=0.0, window=window)
    )
    smc = SmcConfig(n_init=60, resample_per_target=10, birth_per_target=10, cap=100)
    filt = filter_cls(smc, SurvivalModel(1.0, DynamicsConfig()), BirthScheme(10),
                      sensor, window, np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no 0/0 before the raise
        with pytest.raises(DegenerateIntensity, match="detection 0"):
            filt.step(Scan(1, np.array([[140.0, 0.0]])))


@pytest.mark.parametrize("filter_cls", [PppPhdFilter, DppPhdFilter])
def test_nearly_empty_filter_keeps_its_cloud(filter_cls):
    # posterior count 0.8 * q_d < 1 gives resample size 0: the predicted
    # particles stay and carry the posterior intensity
    sensor = SensorModel(SensorConfig(p_d=0.5, clutter_mean=1.0, window=WINDOW))
    smc = SmcConfig(n_init=40, gamma0=0.8, alpha=0.0)
    filt = filter_cls(smc, SurvivalModel(1.0, DynamicsConfig()), BirthScheme(10, mass=0.0),
                      sensor, WINDOW, np.random.default_rng(0))
    rec = filt.step(Scan(1, np.zeros((0, 2))))
    assert rec.gamma == pytest.approx(0.4)
    particles = rec.particles if filter_cls is PppPhdFilter else rec.state.particles
    assert len(particles) == 40
