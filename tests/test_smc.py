import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpptrack.dpp_filter import DppPhdFilter, FilterState, predict
from dpptrack.errors import ConfigError, DegenerateIntensity, SpectrumError
from dpptrack.harness import config_from_ini, config_to_ini, preset
from dpptrack.checks import validate_kernel
from dpptrack.kernels import DELTA
from dpptrack.likelihood import SensorModel
from dpptrack.ppp_filter import PppPhdFilter, SurvivalModel, WeightedParticles, ppp_predict
from dpptrack.scenario import DynamicsConfig, Region, Scan, SensorConfig, Window
from dpptrack.smc import (
    SmcConfig,
    banded_kernel,
    birth_count,
    init_particles,
    predict_states,
    rebuild_kernel,
    resample,
    resample_size,
    roughening_sd,
)

WINDOW = Window(Region(-100.0, 100.0, -100.0, 100.0))


def particles_of(states):
    return np.atleast_2d(states)


def index_mask(n, eta):
    """Entries with |i - j| <= eta * n: the index band of banded_kernel."""
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]) <= eta * n


class TestInit:
    def test_paper_initialization_values(self):
        # N=800, gamma0=2, alpha=4, eta=0.1: diagonal 0.0025, band 80 and
        # rho = 4/5, so lag 1 is 0.0025 * 0.8 * 80/81 and lag 81 is outside
        cfg = SmcConfig(n_init=800, gamma0=2.0, alpha=4.0, band_eta=0.1)
        _, kernel = init_particles(cfg, WINDOW, np.random.default_rng(0))
        k = kernel.to_dense()
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
        k = kernel.to_dense()
        assert np.all(k - np.diag(np.diag(k)) == 0.0)
        assert np.trace(k) == pytest.approx(2.0)

    def test_band_structure_enforced(self):
        cfg = SmcConfig(n_init=60, gamma0=2.0, alpha=4.0, band_eta=0.1)
        _, kernel = init_particles(cfg, WINDOW, np.random.default_rng(2))
        idx = np.arange(60)
        outside = np.abs(idx[:, None] - idx[None, :]) > 6
        assert np.all(kernel.to_dense()[outside] == 0.0)


class TestResample:
    def test_point_mass_copies_without_roughening(self):
        cfg = SmcConfig(n_init=10, resample_per_target=5, roughening_scale=0.0)
        states = np.arange(50, dtype=float).reshape(10, 5)
        intensity = np.zeros(10)
        intensity[3] = 2.0
        out = resample(intensity, states, cfg, WINDOW, np.random.default_rng(0),
                       resample_size(cfg, intensity.sum()))
        assert len(out) == 10  # 5 per target, floor(2.0) = 2 targets
        assert np.all(out == states[3])

    def test_output_size_formula(self):
        cfg = SmcConfig(n_init=10, resample_per_target=30, cap=1000)
        intensity = np.full(10, 1.07)  # total 10.7
        out = resample(intensity, np.zeros((10, 5)), cfg, WINDOW,
                       np.random.default_rng(1), resample_size(cfg, intensity.sum()))
        assert len(out) == 300

    def test_size_survives_one_ulp_below_an_integer_count(self):
        # p_d = 1 with no clutter makes the count an integer in exact
        # arithmetic; 3 - 4.4e-16 is one rounding error below 3
        cfg = SmcConfig(resample_per_target=30)
        assert resample_size(cfg, 3.0 - 4.4e-16) == 90
        assert resample_size(cfg, 2.9) == 60

    def test_cap_applies(self):
        cfg = SmcConfig(n_init=10, resample_per_target=300, cap=100)
        intensity = np.full(10, 1.0)
        out = resample(intensity, np.zeros((10, 5)), cfg, WINDOW,
                       np.random.default_rng(2), resample_size(cfg, intensity.sum()))
        assert len(out) == 100

    def test_degenerate_intensity_raises(self):
        cfg = SmcConfig(n_init=4)
        with pytest.raises(DegenerateIntensity):
            resample(np.zeros(4), np.zeros((4, 5)), cfg, WINDOW,
                     np.random.default_rng(3), resample_size(cfg, 0.0))

    def test_multinomial_frequencies_uniform(self):
        cfg = SmcConfig(n_init=4, resample_per_target=1, roughening_scale=0.0)
        states = np.arange(20, dtype=float).reshape(4, 5)
        intensity = np.full(4, 1.0)
        rng = np.random.default_rng(4)
        counts = np.zeros(4)
        reps = 10_000
        for _ in range(reps):
            out = resample(intensity, states, cfg, WINDOW, rng, size=1)
            counts[int(out[0, 0] // 5)] += 1
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
            ids = (out[:, 0] // 5).astype(int)
            total += np.bincount(ids, minlength=3)
        expected = 12 * intensity / intensity.sum()
        got = total / reps
        se = np.sqrt(12 * (intensity / intensity.sum()) * (1 - intensity / intensity.sum()) / reps)
        assert np.all(np.abs(got - expected) < 4 * se)

    def test_roughening_zero_is_pure_multinomial(self):
        cfg = SmcConfig(n_init=5, resample_per_target=10, roughening_scale=0.0)
        states = np.random.default_rng(6).uniform(-50, 50, (5, 5))
        out = resample(np.ones(5) * 2, states, cfg, WINDOW,
                       np.random.default_rng(7), resample_size(cfg, 10.0))
        source_rows = {tuple(row) for row in states}
        assert all(tuple(row) in source_rows for row in out)

    def test_roughening_scale_formula(self):
        sd = roughening_sd(np.array([200.0, 10.0, 200.0, 10.0, 0.4]), 0.05, 100)
        np.testing.assert_allclose(sd, 0.05 * np.array([200, 10, 200, 10, 0.4]) * 100 ** -0.2)


class TestPredictBirths:
    def setup_method(self):
        self.cfg = SmcConfig(
            n_init=40, birth_per_target=10, gamma0=2.0, alpha=4.0, band_eta=0.1
        )
        self.state = FilterState(*init_particles(self.cfg, WINDOW, np.random.default_rng(0)))
        self.survival = SurvivalModel(1.0, DynamicsConfig())

    def births(self, gamma, seed):
        """Birth states and mass of predict_states at surviving mass gamma,
        which sits on one particle so that the sum is exact."""
        intensity = np.zeros(len(self.state.particles))
        intensity[0] = gamma
        _, born, mass = predict_states(
            self.state.particles, intensity, self.survival, self.cfg.birth_per_target,
            WINDOW, np.random.default_rng(seed),
        )
        return born, mass

    def prior(self, gamma):
        """The particles with their kernel rebuilt at mass gamma (the sum of
        the 40 diagonal entries is exactly gamma for the masses used here)."""
        particles = self.state.particles
        return FilterState(particles, rebuild_kernel(particles, self.cfg, gamma))

    def predicted(self, gamma, seed):
        """predict at unit survival from mass gamma, which the births carry too."""
        return predict(
            self.prior(gamma), self.survival, self.cfg, WINDOW, np.random.default_rng(seed)
        )

    def test_gamma_three_gives_thirty_particles(self):
        born, mass = self.births(3.0, 2)
        assert born.shape == (30, 5) and mass == 3.0
        pred = self.predicted(3.0, 2)
        assert len(pred.particles) == 40 + 30
        assert pred.gamma == pytest.approx(3.0 + 3.0, rel=1e-12)
        validate_kernel(pred.kernel)

    def test_minimum_override(self):
        # below one target the floored count is 0; one target's worth of
        # particles carries the mass instead
        born, mass = self.births(0.5, 3)
        assert len(born) == 10 and mass == 0.5
        pred = self.predicted(0.5, 3)
        assert len(pred.particles) == 40 + 10
        assert pred.gamma == pytest.approx(1.0, rel=1e-12)
        validate_kernel(pred.kernel)

    def test_cross_block_zero(self):
        pred = self.predicted(2.0, 4)
        n_old = len(self.state.particles)
        assert np.all(pred.kernel.to_dense()[:n_old, n_old:] == 0.0)
        np.testing.assert_array_equal(
            pred.kernel.to_dense()[:n_old, :n_old], self.prior(2.0).kernel.to_dense()
        )

    def test_kernel_dimension_tracks_particles(self):
        pred = self.predicted(4.0, 5)
        assert len(pred.particles) == len(pred.kernel) == 40 + 40


def reference_birth_count(per_target, gamma):
    """The birth rule written out as a scheme with an adaptive mass and a
    minimum particle count of per_target."""
    mass = gamma
    n = per_target * int(math.floor(mass))
    if n == 0:
        n = max(per_target, 0)
    return n, mass


@given(
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.0, max_value=50.0)
    | st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    | st.integers(min_value=0, max_value=50).map(float)
    | st.sampled_from([0.9999999999999999, 2.9999999999999996, 3.0000000000000004]),
)
@settings(max_examples=300, deadline=None)
def test_birth_count_matches_the_reference_rule(per_target, gamma):
    n, mass = birth_count(per_target, gamma)
    assert (n, mass) == reference_birth_count(per_target, gamma)
    assert n >= per_target and mass == gamma


def test_ppp_and_dpp_predictions_move_and_birth_alike():
    # equal intensities and equal generators: the same moved and born
    # states, and the same intensity per particle, bit for bit
    cfg = SmcConfig(alpha=4.0, band_eta=0.1)
    states = np.random.default_rng(8).uniform(-50.0, 50.0, (60, 5))
    kernel = banded_kernel(states, 3.7, cfg.alpha, cfg.band_eta)
    survival = SurvivalModel(0.9, DynamicsConfig())
    ppp = ppp_predict(
        WeightedParticles(states, kernel.diagonal), survival, cfg.birth_per_target, WINDOW,
        np.random.default_rng(9),
    )
    dpp = predict(FilterState(states, kernel), survival, cfg, WINDOW, np.random.default_rng(9))
    assert len(ppp) == 60 + 30
    np.testing.assert_array_equal(ppp.states, dpp.particles)
    np.testing.assert_array_equal(ppp.weights, dpp.intensity)


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
        k = kernel.to_dense()
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == gamma / n)
        assert math.isclose(np.trace(k), gamma, rel_tol=1e-12, abs_tol=0.0)
        assert kernel.bands == ((n, math.floor(eta * n)),)
        assert np.all(k[~index_mask(n, eta)] == 0.0)
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
        assert np.all(kernel.to_dense() == 0.0)

    def test_gershgorin_cap_keeps_heavy_kernels_feasible(self):
        # gamma/n = 0.8 with rho = 0.8 would put the row sums far above 1
        kernel = banded_kernel(np.zeros((300, 5)), 240.0, 4.0, 0.1)
        validate_kernel(kernel)
        assert np.trace(kernel.to_dense()) == pytest.approx(240.0, rel=1e-12)


def test_kernel_constructors_make_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition called")

    # surviving mass 0.9 * 3.5 = 3.15 gives 30 births
    cfg = SmcConfig(n_init=300, birth_per_target=10, gamma0=3.5, alpha=4.0, band_eta=0.1)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    state = FilterState(*init_particles(cfg, WINDOW, np.random.default_rng(0)))
    pred = predict(
        state, SurvivalModel(0.9, DynamicsConfig()), cfg, WINDOW, np.random.default_rng(1)
    )
    kernel = pred.kernel
    rebuilt = rebuild_kernel(pred.particles, cfg, 6.5)
    monkeypatch.undo()
    assert len(kernel) == 330
    # births append their index band to the survivors'
    assert kernel.bands == ((300, 30), (30, 3))
    assert np.all(kernel.to_dense()[:300, 300:] == 0.0)
    assert np.all(kernel.to_dense()[300:, 300:][~index_mask(30, 0.1)] == 0.0)
    validate_kernel(kernel)
    validate_kernel(rebuilt)


def test_rebuild_kernel_valid_and_banded():
    cfg = SmcConfig(n_init=30, alpha=4.0, band_eta=0.1)
    particles = particles_of(np.random.default_rng(1).uniform(-50, 50, (90, 5)))
    kernel = rebuild_kernel(particles, cfg, 6.5)
    validate_kernel(kernel)
    assert kernel.bands == ((90, 9),)
    assert np.all(kernel.to_dense()[~index_mask(90, 0.1)] == 0.0)


class TestResampleModes:
    def test_unknown_mode_rejected(self):
        # multinomial resampling, the double update, the full-state
        # repulsion norm and the adaptive birth rule are the only modes;
        # config echoes that name them still load, other values are refused
        text = config_to_ini(preset("spooky"))
        old = text.replace("[smc]\n", "[smc]\nresample_mode = multinomial\n").replace(
            "[experiment]\n",
            "[experiment]\ndouble_update = true\n"
            "birth_mass = adaptive\nmin_birth_particles = -1\n",
        )
        for section in ("dynamics", "filter_dynamics"):
            old = old.replace(f"[{section}]\n", f"[{section}]\nrepulsion_norm = state\n")
        assert config_from_ini(old) == preset("spooky")
        for section, line in (
            ("smc", "resample_mode = systematic"),
            ("smc", "resample_mode = topk"),
            ("experiment", "double_update = false"),
            ("experiment", "birth_mass = 2.0"),
            ("experiment", "min_birth_particles = 5"),
            ("dynamics", "repulsion_norm = position"),
            ("filter_dynamics", "repulsion_norm = position"),
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
    filt = filter_cls(smc, SurvivalModel(1.0, DynamicsConfig()), sensor, window,
                      np.random.default_rng(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no 0/0 before the raise
        with pytest.raises(DegenerateIntensity, match="detection 0"):
            filt.step(Scan(1, np.array([[140.0, 0.0]])))


@pytest.mark.parametrize("filter_cls", [PppPhdFilter, DppPhdFilter])
def test_nearly_empty_filter_keeps_its_cloud(filter_cls):
    # the births carry the prior count 0.8 again, and the posterior count
    # (0.8 + 0.8) * q_d < 1 gives resample size 0: the predicted particles
    # stay and carry the posterior intensity
    sensor = SensorModel(SensorConfig(p_d=0.5, clutter_mean=1.0, window=WINDOW))
    smc = SmcConfig(n_init=40, gamma0=0.8, alpha=0.0)
    filt = filter_cls(smc, SurvivalModel(1.0, DynamicsConfig()), sensor, WINDOW,
                      np.random.default_rng(0))
    rec = filt.step(Scan(1, np.zeros((0, 2))))
    assert rec.gamma == pytest.approx(0.8)
    particles = rec.particles if filter_cls is PppPhdFilter else rec.state.particles
    assert len(particles) == 40 + smc.birth_per_target
