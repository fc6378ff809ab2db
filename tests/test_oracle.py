import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpptrack.checks import operator_form
from dpptrack.errors import SizeError
from dpptrack.kernels import project_kernel
from dpptrack.oracle import (
    FiniteProcess,
    ObservationModel,
    corrector_upsilon1,
    corrector_upsilon2,
    dpp_process,
    enumerate_posterior,
    joint_janossy,
    measurement_janossy,
    observation_likelihood,
    poisson_process,
    posterior_covariance_exact,
    posterior_intensity_exact,
    posterior_pair_exact,
    single_config_process,
)


def small_grid(weights=(0.7, 1.3, 0.9)):
    """The measure weights of a small oracle grid."""
    return np.asarray(weights, dtype=float)


def random_simple_prior(weights, rng, support=None):
    n = len(weights)
    support = n if support is None else support
    table = {}
    for bits in range(1 << n):
        cfg = tuple(i for i in range(n) if bits >> i & 1)
        if len(cfg) <= support:
            table[cfg] = float(rng.uniform(0.05, 1.0))
    return FiniteProcess(weights, table).normalized()


def random_obs(g, z, rng):
    return ObservationModel(
        p_d=rng.uniform(0.3, 0.9, g),
        l_d=rng.uniform(0.05, 1.0, (z, g)),
        l_c=rng.uniform(0.1, 0.6, z),
    )


def unit_poisson(weights=(0.12, 0.1, 0.08), n_max=12):
    w = small_grid(weights)
    return w, poisson_process(w, 1.0, n_max=n_max)


class TestFiniteProcess:
    def test_poisson_table_normalizes(self):
        _, prior = unit_poisson()
        assert prior.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_poisson_intensity_is_one(self):
        _, prior = unit_poisson()
        np.testing.assert_allclose(prior.intensity(), 1.0, atol=1e-12)

    def test_single_config_moments(self):
        w = small_grid()
        fp = single_config_process(w, (0, 2))
        np.testing.assert_allclose(
            fp.intensity(), [1 / w[0], 0.0, 1 / w[2]], atol=1e-14
        )
        assert fp.total_mass() == pytest.approx(1.0)

    def test_dpp_process_matches_kernel_moments(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(0.5, 1.5, 4)
        raw = 0.35 * np.eye(4) + rng.uniform(-0.08, 0.08, (4, 4))
        kernel = project_kernel(operator_form(0.5 * (raw + raw.T), w))
        fp = dpp_process(kernel)
        assert fp.total_mass() == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(fp.intensity(), kernel.diagonal, atol=1e-10)
        pair = np.outer(kernel.diagonal, kernel.diagonal) - kernel.entries**2
        np.fill_diagonal(pair, 0.0)
        np.testing.assert_allclose(fp.pair_factorial(), pair, atol=1e-10)


class TestJointJanossy:
    def test_no_measurements_reduces_to_miss_product(self):
        w = small_grid()
        rng = np.random.default_rng(0)
        prior = random_simple_prior(w, rng)
        obs = random_obs(3, 2, rng)
        states = (0, 2)
        expect = prior.janossy[(0, 2)] * obs.q_d[0] * obs.q_d[2]
        assert joint_janossy(prior, obs, states, ()) == pytest.approx(expect, rel=1e-12)

    def test_no_targets_all_clutter(self):
        w = small_grid()
        rng = np.random.default_rng(1)
        prior = random_simple_prior(w, rng)
        obs = random_obs(3, 2, rng)
        expect = prior.janossy[()] * obs.l_c[0] * obs.l_c[1]
        assert joint_janossy(prior, obs, (), (0, 1)) == pytest.approx(expect, rel=1e-12)

    def test_one_target_one_measurement_hand_expansion(self):
        w = small_grid()
        rng = np.random.default_rng(2)
        prior = random_simple_prior(w, rng)
        obs = random_obs(3, 2, rng)
        j1 = prior.janossy[(1,)]
        expect = obs.q_d[1] * obs.l_c[0] * j1 + obs.l_tilde[0, 1] * j1
        assert joint_janossy(prior, obs, (1,), (0,)) == pytest.approx(expect, rel=1e-12)

    def test_size_error(self):
        w = small_grid()
        rng = np.random.default_rng(3)
        prior = random_simple_prior(w, rng)
        obs = random_obs(3, 2, rng)
        with pytest.raises(SizeError):
            joint_janossy(prior, obs, tuple([0] * 9), (0,))


class TestMeasurementJanossy:
    def test_poisson_closed_form(self):
        w, prior = unit_poisson()
        rng = np.random.default_rng(5)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        p_d = obs.p_d
        s = obs.l_c + obs.l_tilde @ w
        # constant p_d would give exp(-p_d nu); per-point uses the weighted sum
        closed = math.exp(-float(p_d @ w)) * float(np.prod(s))
        got = measurement_janossy(prior, obs, meas)
        assert got == pytest.approx(closed, rel=1e-10)

    def test_empty_measurement_set_is_miss_probability(self):
        w = small_grid()
        rng = np.random.default_rng(6)
        prior = random_simple_prior(w, rng)
        obs = random_obs(3, 1, rng)
        expect = sum(
            prior.config_mass(cfg) * float(np.prod(obs.q_d[list(cfg)]))
            for cfg in prior.janossy
        )
        assert measurement_janossy(prior, obs, ()) == pytest.approx(expect, rel=1e-12)

    def test_matches_enumeration_normalizer(self):
        w = np.array([1.1, 0.9])
        rng = np.random.default_rng(7)
        prior = random_simple_prior(w, rng)
        obs = random_obs(2, 2, rng)
        meas = (1,)
        # the enumeration route normalizes by the same quantity
        total = sum(
            prior.config_mass(cfg) * observation_likelihood(cfg, obs, meas)
            for cfg in prior.janossy
        )
        assert measurement_janossy(prior, obs, meas) == pytest.approx(total, rel=1e-12)

    def test_n_max_guard(self):
        w = small_grid()
        rng = np.random.default_rng(8)
        prior = random_simple_prior(w, rng)
        obs = random_obs(3, 1, rng)
        with pytest.raises(SizeError):
            measurement_janossy(prior, obs, (0,), n_max=1)


class TestCorrectors:
    def test_poisson_upsilon_equals_measurement_janossy(self):
        w, prior = unit_poisson()
        rng = np.random.default_rng(9)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        jz = measurement_janossy(prior, obs, meas)
        for x in range(3):
            assert corrector_upsilon1(prior, obs, meas, x) == pytest.approx(jz, rel=1e-10)
            for y in range(3):
                assert corrector_upsilon2(prior, obs, meas, x, y) == pytest.approx(
                    jz, rel=1e-10
                )

    def test_single_configuration_prior(self):
        w = small_grid()
        prior = single_config_process(w, (1,))
        rng = np.random.default_rng(10)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        # only the empty integration configuration contributes
        expect = prior.janossy[(1,)] * obs.l_c[0] * obs.l_c[1]
        assert corrector_upsilon1(prior, obs, meas, 1) == pytest.approx(expect, rel=1e-12)
        assert corrector_upsilon1(prior, obs, meas, 0) == 0.0

    def test_dpp_prior_against_enumeration(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.6, 1.4, 3)
        raw = 0.3 * np.eye(3) + rng.uniform(-0.05, 0.05, (3, 3))
        kernel = project_kernel(operator_form(0.5 * (raw + raw.T), w))
        prior = dpp_process(kernel)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        post = enumerate_posterior(prior, obs, meas)
        mu = posterior_intensity_exact(prior, obs, meas)
        np.testing.assert_allclose(mu, post.intensity(), atol=1e-10)


class TestPosteriorMoments:
    def test_poisson_intensity_classical_form(self):
        w, prior = unit_poisson()
        rng = np.random.default_rng(12)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        s = obs.l_c + obs.l_tilde @ w
        classical = obs.q_d + (obs.l_tilde / s[:, None]).sum(axis=0)
        mu = posterior_intensity_exact(prior, obs, meas)
        np.testing.assert_allclose(mu, classical, atol=1e-10)

    def test_no_detection_probability_keeps_prior(self):
        w = small_grid()
        rng = np.random.default_rng(13)
        prior = random_simple_prior(w, rng)
        obs = ObservationModel(
            p_d=np.zeros(3), l_d=rng.uniform(0.1, 1.0, (2, 3)), l_c=np.array([0.5, 0.4])
        )
        mu = posterior_intensity_exact(prior, obs, (0, 1))
        np.testing.assert_allclose(mu, prior.intensity(), atol=1e-12)

    def test_poisson_pair_closed_form(self):
        w, prior = unit_poisson()
        rng = np.random.default_rng(14)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        s = obs.l_c + obs.l_tilde @ w
        lt = obs.l_tilde
        qd = obs.q_d
        rho = posterior_pair_exact(prior, obs, meas)
        for x in range(3):
            for y in range(3):
                if x == y:
                    assert rho[x, y] == 0.0
                    continue
                expect = qd[x] * qd[y]
                for pos, z in enumerate(meas):
                    expect += (qd[y] * lt[z, x] + qd[x] * lt[z, y]) / s[z]
                for p1, z1 in enumerate(meas):
                    for p2, z2 in enumerate(meas):
                        if p1 == p2:
                            continue
                        expect += lt[z1, x] * lt[z2, y] / (s[z1] * s[z2])
                assert rho[x, y] == pytest.approx(expect, rel=1e-10)

    def test_at_most_one_point_prior_has_zero_pair(self):
        w = small_grid()
        table = {(): 0.4, (0,): 0.3 / w[0], (2,): 0.3 / w[2]}
        prior = FiniteProcess(w, table)
        rng = np.random.default_rng(15)
        obs = random_obs(3, 2, rng)
        rho = posterior_pair_exact(prior, obs, (0, 1))
        np.testing.assert_allclose(rho, 0.0, atol=1e-14)

    def test_pair_symmetry_exact(self):
        w = small_grid()
        rng = np.random.default_rng(16)
        prior = random_simple_prior(w, rng)
        obs = random_obs(3, 2, rng)
        rho = posterior_pair_exact(prior, obs, (0, 1))
        np.testing.assert_array_equal(rho, rho.T)


class TestPosteriorCovariance:
    def test_poisson_covariance_closed_form(self):
        w, prior = unit_poisson()
        rng = np.random.default_rng(17)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        lt = obs.l_tilde
        s = obs.l_c + lt @ w
        for a, b in [((0, 1), (1, 2)), ((0,), (1, 2)), ((0, 1, 2), (0, 1, 2))]:
            inter = sorted(set(a) & set(b))
            closed = float(np.sum(obs.q_d[list(inter)] * w[list(inter)])) if inter else 0.0
            for z in meas:
                ia = float(np.sum(lt[z, list(a)] * w[list(a)]))
                ib = float(np.sum(lt[z, list(b)] * w[list(b)]))
                ii = float(np.sum(lt[z, inter] * w[inter])) if inter else 0.0
                closed += ii / s[z] - ia * ib / s[z] ** 2
            got = posterior_covariance_exact(prior, obs, meas, a, b)
            assert got == pytest.approx(closed, abs=1e-10)

    def test_prior_covariance_recovered_without_information(self):
        w = small_grid()
        rng = np.random.default_rng(18)
        prior = random_simple_prior(w, rng)
        obs = ObservationModel(
            p_d=np.zeros(3), l_d=rng.uniform(0.1, 1.0, (1, 3)), l_c=np.array([0.5])
        )
        got = posterior_covariance_exact(prior, obs, (), (0, 1), (1, 2))
        assert got == pytest.approx(prior.count_covariance((0, 1), (1, 2)), abs=1e-12)

    def test_variance_matches_enumeration(self):
        rng = np.random.default_rng(19)
        w = rng.uniform(0.6, 1.4, 3)
        raw = 0.3 * np.eye(3) + rng.uniform(-0.06, 0.06, (3, 3))
        kernel = project_kernel(operator_form(0.5 * (raw + raw.T), w))
        prior = dpp_process(kernel)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        post = enumerate_posterior(prior, obs, meas)
        full = tuple(range(3))
        got = posterior_covariance_exact(prior, obs, meas, full, full)
        assert got == pytest.approx(post.count_covariance(full, full), abs=1e-10)


class TestEnumeratePosterior:
    def test_empty_only_prior(self):
        w = small_grid()
        prior = FiniteProcess(w, {(): 1.0})
        rng = np.random.default_rng(20)
        obs = random_obs(3, 2, rng)
        post = enumerate_posterior(prior, obs, (0,))
        assert post.janossy.keys() == {()}
        assert post.total_mass() == pytest.approx(1.0)

    def test_poisson_posterior_matches_formula_route(self):
        w, prior = unit_poisson(n_max=10)
        rng = np.random.default_rng(21)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        post = enumerate_posterior(prior, obs, meas)
        mu = posterior_intensity_exact(prior, obs, meas)
        np.testing.assert_allclose(mu, post.intensity(), atol=1e-9)

    def test_random_prior_two_routes_agree(self):
        rng = np.random.default_rng(22)
        w = rng.uniform(0.5, 1.5, 4)
        prior = random_simple_prior(w, rng)
        obs = random_obs(4, 2, rng)
        meas = (0, 1)
        post = enumerate_posterior(prior, obs, meas)
        np.testing.assert_allclose(
            posterior_intensity_exact(prior, obs, meas), post.intensity(), atol=1e-10
        )
        np.testing.assert_allclose(
            posterior_pair_exact(prior, obs, meas), post.pair_factorial(), atol=1e-10
        )

    def test_total_count_identity(self):
        rng = np.random.default_rng(23)
        w = rng.uniform(0.5, 1.5, 4)
        prior = random_simple_prior(w, rng, support=3)
        obs = random_obs(4, 3, rng)
        meas = (0, 2)
        post = enumerate_posterior(prior, obs, meas)
        mu = posterior_intensity_exact(prior, obs, meas)
        assert float(mu @ w) == pytest.approx(post.mean_count(), abs=1e-9)

    def test_size_limits(self):
        rng = np.random.default_rng(24)
        w = np.ones(7)
        prior = FiniteProcess(w, {(): 1.0})
        obs = random_obs(7, 1, rng)
        with pytest.raises(SizeError):
            enumerate_posterior(prior, obs, (0,))


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=30, deadline=None)
def test_bayes_consistency_property(seed):
    """Corrector-term route equals the enumeration route on random priors."""
    rng = np.random.default_rng(seed)
    g = int(rng.integers(2, 5))
    z = int(rng.integers(1, 4))
    w = rng.uniform(0.5, 1.5, g)
    prior = random_simple_prior(w, rng, support=min(g, 3))
    obs = random_obs(g, z, rng)
    m = int(rng.integers(0, min(z, 3) + 1))
    meas = tuple(int(v) for v in rng.choice(z, size=m, replace=False))
    post = enumerate_posterior(prior, obs, meas)
    np.testing.assert_allclose(
        posterior_intensity_exact(prior, obs, meas), post.intensity(), atol=1e-9
    )
    a = [i for i in range(g) if rng.uniform() < 0.6]
    b = [i for i in range(g) if rng.uniform() < 0.6]
    got = posterior_covariance_exact(prior, obs, meas, a, b)
    assert got == pytest.approx(post.count_covariance(a, b), abs=1e-9)
