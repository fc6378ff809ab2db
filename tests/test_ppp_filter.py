import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpptrack.likelihood import SensorModel
from dpptrack.ppp_filter import (
    PppPhdFilter,
    SurvivalModel,
    WeightedParticles,
    poisson_weight_update,
    ppp_predict,
    ppp_update,
)
from dpptrack.scenario import (
    DynamicsConfig,
    Region,
    Scan,
    SensorConfig,
    Window,
    generate_scan,
)
from dpptrack.smc import SmcConfig

WINDOW = Window(Region(-100.0, 100.0, -100.0, 100.0))
QUIET = DynamicsConfig(sigma_vx=0.0, sigma_vy=0.0, sigma_vtheta=0.0)


def cloud(n, seed=0):
    rng = np.random.default_rng(seed)
    return WeightedParticles(rng.uniform(-50, 50, (n, 5)), rng.uniform(0.1, 1.0, n))


class TestPredict:
    def test_unit_survival_preserves_survivor_mass(self):
        # the births carry the predicted count again, so the total doubles
        p = cloud(20)
        out = ppp_predict(p, SurvivalModel(1.0, QUIET), 5, WINDOW, np.random.default_rng(1))
        np.testing.assert_array_equal(out.weights[:20], p.weights)
        assert out.gamma == pytest.approx(2.0 * p.gamma)

    def test_zero_survival_leaves_birth_mass(self):
        # nothing survives, so the births carry zero mass on one target's
        # worth of particles
        p = cloud(20)
        out = ppp_predict(p, SurvivalModel(0.0, QUIET), 5, WINDOW, np.random.default_rng(2))
        assert len(out) == 20 + 5
        assert out.gamma == 0.0

    def test_half_survival_plus_birth(self):
        rng = np.random.default_rng(3)
        p = WeightedParticles(rng.uniform(-10, 10, (8, 5)), np.full(8, 0.5))  # mass 4
        out = ppp_predict(p, SurvivalModel(0.5, QUIET), 5, WINDOW, np.random.default_rng(4))
        # survivors keep 2, and 5 * floor(2) births carry 2 more
        assert len(out) == 8 + 10
        assert out.gamma == pytest.approx(4.0)


class TestUpdate:
    def sensor(self, p_d=0.9, clutter=1.0):
        return SensorModel(SensorConfig(p_d=p_d, clutter_mean=clutter, window=WINDOW))

    def test_empty_scan_scales_by_qd(self):
        p = cloud(10)
        sensor = self.sensor(p_d=0.7)
        out = ppp_update(p, Scan(0, np.zeros((0, 2))), sensor)
        np.testing.assert_array_equal(out.weights, p.weights * sensor.q_d)

    def test_hand_evaluated_corrector(self):
        # 3 particles, 2 measurements, explicit likelihood matrix
        weights = np.array([0.5, 0.2, 0.3])
        like = np.array([[0.8, 0.1, 0.0], [0.05, 0.6, 0.3]])
        clutter = np.array([0.2, 0.4])
        q_d = 0.1
        got = poisson_weight_update(weights, like, clutter, q_d)
        expect = np.empty(3)
        for i in range(3):
            corr = q_d
            for z in range(2):
                corr += like[z, i] / (clutter[z] + like[z] @ weights)
            expect[i] = weights[i] * corr
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_concentration_limit(self):
        # one measurement exactly on one particle, negligible clutter
        states = np.zeros((2, 5))
        states[0, 0], states[0, 2] = 30.0, 40.0
        states[1, 0], states[1, 2] = -60.0, 10.0
        p = WeightedParticles(states, np.array([0.5, 0.5]))
        sensor = SensorModel(
            SensorConfig(
                sigma_range=0.5, sigma_bearing=0.01, p_d=1.0, clutter_mean=1e-9,
                window=WINDOW,
            )
        )
        det = np.array([[50.0, math.atan2(40.0, 30.0)]])
        out = ppp_update(p, Scan(0, det), sensor)
        assert out.weights[0] == pytest.approx(1.0, rel=1e-6)
        assert out.weights[1] < 1e-10

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_posterior_count_bound(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        m = int(rng.integers(0, 5))
        weights = rng.uniform(0.0, 1.0, n)
        like = rng.uniform(0.0, 2.0, (m, n))
        clutter = rng.uniform(0.01, 1.0, m)
        q_d = float(rng.uniform(0.0, 1.0))
        out = poisson_weight_update(weights, like, clutter, q_d)
        assert out.sum() <= q_d * weights.sum() + m + 1e-9


def test_filter_runs_and_tracks_mass():
    smc = SmcConfig(n_init=200, resample_per_target=20, birth_per_target=10,
                    cap=400, roughening_scale=0.01, alpha=0.0, gamma0=1.0)
    sensor_cfg = SensorConfig(p_d=0.95, clutter_mean=0.5, window=WINDOW)
    sensor = SensorModel(sensor_cfg)
    rng = np.random.default_rng(0)
    filt = PppPhdFilter(
        smc, SurvivalModel(1.0, DynamicsConfig()), sensor, WINDOW, np.random.default_rng(1)
    )
    truth = np.array([[20.0, 0.2, 30.0, -0.1, 0.0], [-40.0, 0.0, 10.0, 0.3, 0.0]])
    scan_rng = np.random.default_rng(2)
    gammas = []
    for t in range(12):
        scan = generate_scan(truth, [0, 1], sensor_cfg, frozenset(), scan_rng, time=t)
        rec = filt.step(scan)
        gammas.append(rec.gamma)
    # the count estimate settles near the true count of two
    assert 1.0 < float(np.mean(gammas[4:])) < 3.5
