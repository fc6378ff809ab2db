import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpptrack.checks import operator_form
from dpptrack.errors import SizeError
from dpptrack.kernels import project_kernel
from dpptrack import oracle
from dpptrack.oracle import (
    ExactPosterior,
    FiniteProcess,
    ObservationModel,
    dpp_process,
    enumerate_posterior,
    observation_likelihood,
    poisson_process,
)


def small_grid(weights=(0.7, 1.3, 0.9)):
    """The point masses of a small weighted grid."""
    return np.asarray(weights, dtype=float)


def random_simple_prior(weights, rng, support=None):
    """A random simple prior: a density table drawn on points of mass
    ``weights``, folded into configuration masses and normalized."""
    n = len(weights)
    support = n if support is None else support
    table = {}
    for bits in range(1 << n):
        cfg = tuple(i for i in range(n) if bits >> i & 1)
        if len(cfg) <= support:
            table[cfg] = float(rng.uniform(0.05, 1.0)) * float(np.prod(weights[list(cfg)]))
    return FiniteProcess(n, table).normalized()


def random_obs(g, z, rng):
    return ObservationModel(
        p_d=rng.uniform(0.3, 0.9, g),
        l_d=rng.uniform(0.05, 1.0, (z, g)),
        l_c=rng.uniform(0.1, 0.6, z),
    )


def small_poisson(intensity=(0.12, 0.1, 0.08), n_max=12):
    lam = np.asarray(intensity, dtype=float)
    return lam, poisson_process(lam, n_max=n_max)


class TestFiniteProcess:
    def test_poisson_table_normalizes(self):
        _, prior = small_poisson()
        assert prior.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_poisson_intensity_is_its_masses(self):
        lam, prior = small_poisson()
        np.testing.assert_allclose(prior.intensity() / lam, 1.0, atol=1e-12)

    def test_poisson_multiset_probability(self):
        # P({0, 0, 1}) = exp(-sum lambda) lambda_0^2 / 2! lambda_1
        lam, prior = small_poisson()
        expect = math.exp(-lam.sum()) * lam[0] ** 2 / 2 * lam[1]
        assert prior.table[(0, 0, 1)] == pytest.approx(expect, rel=1e-14)

    def test_single_config_moments(self):
        fp = FiniteProcess(3, {(0, 2): 1.0})
        np.testing.assert_array_equal(fp.intensity(), [1.0, 0.0, 1.0])
        assert fp.total_mass() == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1])
    def test_rejects_a_probability_that_is_not_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="not finite and nonnegative"):
            FiniteProcess(2, {(0,): bad, (): 0.5})

    def test_dpp_process_matches_kernel_moments(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(0.5, 1.5, 4)
        raw = 0.35 * np.eye(4) + rng.uniform(-0.08, 0.08, (4, 4))
        kernel = project_kernel(operator_form(0.5 * (raw + raw.T), w))
        fp = dpp_process(kernel)
        assert fp.total_mass() == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(fp.intensity(), kernel.diagonal, atol=1e-10)
        pair = np.outer(kernel.diagonal, kernel.diagonal) - kernel.to_dense() ** 2
        np.fill_diagonal(pair, 0.0)
        np.testing.assert_allclose(fp.pair_factorial(), pair, atol=1e-10)


class TestJointJanossy:
    """P(c) g(c, M): the joint Janossy value of a configuration and a
    measurement list."""

    def test_no_measurements_reduces_to_miss_product(self):
        w = small_grid()
        rng = np.random.default_rng(0)
        prior = random_simple_prior(w, rng)
        obs = random_obs(3, 2, rng)
        expect = prior.table[(0, 2)] * obs.q_d[0] * obs.q_d[2]
        got = prior.table[(0, 2)] * observation_likelihood((0, 2), obs, ())
        assert got == pytest.approx(expect, rel=1e-12)

    def test_no_targets_all_clutter(self):
        w = small_grid()
        rng = np.random.default_rng(1)
        prior = random_simple_prior(w, rng)
        obs = random_obs(3, 2, rng)
        expect = prior.table[()] * obs.l_c[0] * obs.l_c[1]
        got = prior.table[()] * observation_likelihood((), obs, (0, 1))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_one_target_one_measurement_hand_expansion(self):
        w = small_grid()
        rng = np.random.default_rng(2)
        prior = random_simple_prior(w, rng)
        obs = random_obs(3, 2, rng)
        j1 = prior.table[(1,)]
        expect = obs.q_d[1] * obs.l_c[0] * j1 + obs.l_tilde[0, 1] * j1
        got = prior.table[(1,)] * observation_likelihood((1,), obs, (0,))
        assert got == pytest.approx(expect, rel=1e-12)


class TestMeasurementJanossy:
    def test_poisson_closed_form(self):
        lam, prior = small_poisson()
        rng = np.random.default_rng(5)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        p_d = obs.p_d
        s = obs.l_c + obs.l_tilde @ lam
        # the detected mass is p_d weighted by the intensity masses
        closed = math.exp(-float(p_d @ lam)) * float(np.prod(s))
        got = ExactPosterior(prior, obs, meas).janossy
        assert got == pytest.approx(closed, rel=1e-10)

    def test_empty_measurement_set_is_miss_probability(self):
        w = small_grid()
        rng = np.random.default_rng(6)
        prior = random_simple_prior(w, rng)
        obs = random_obs(3, 1, rng)
        expect = sum(p * float(np.prod(obs.q_d[list(cfg)])) for cfg, p in prior.table.items())
        assert ExactPosterior(prior, obs, ()).janossy == pytest.approx(expect, rel=1e-12)

    def test_matches_enumeration_normalizer(self):
        w = np.array([1.1, 0.9])
        rng = np.random.default_rng(7)
        prior = random_simple_prior(w, rng)
        obs = random_obs(2, 2, rng)
        meas = (1,)
        # the enumeration route normalizes by the same quantity
        total = sum(
            p * observation_likelihood(cfg, obs, meas) for cfg, p in prior.table.items()
        )
        assert ExactPosterior(prior, obs, meas).janossy == pytest.approx(total, rel=1e-12)

    def test_support_bound_guard(self):
        prior = poisson_process([0.1], n_max=13)
        obs = random_obs(1, 1, np.random.default_rng(8))
        with pytest.raises(SizeError, match="exceeds the exact-sum bound 12"):
            ExactPosterior(prior, obs, (0,))

    def test_prior_and_model_on_different_grids(self):
        prior = random_simple_prior(small_grid(), np.random.default_rng(8))
        obs = random_obs(2, 1, np.random.default_rng(8))
        with pytest.raises(ValueError, match="prior on 3 points, observation model on 2"):
            ExactPosterior(prior, obs, (0,))


class TestCorrectors:
    def test_poisson_upsilon_is_intensity_times_janossy(self):
        lam, prior = small_poisson()
        rng = np.random.default_rng(9)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        jz, u1, u2 = ExactPosterior(prior, obs, meas).upsilon()
        np.testing.assert_allclose(u1, lam * jz, rtol=1e-10)
        np.testing.assert_allclose(u2, np.outer(lam, lam) * jz, rtol=1e-10)

    def test_single_configuration_prior(self):
        prior = FiniteProcess(3, {(1,): 1.0})
        rng = np.random.default_rng(10)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        # only the empty integration configuration contributes
        expect = obs.l_c[0] * obs.l_c[1]
        u1 = ExactPosterior(prior, obs, meas).upsilon()[1]
        assert u1[1] == pytest.approx(expect, rel=1e-12)
        assert u1[0] == 0.0

    def test_dpp_prior_against_enumeration(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.6, 1.4, 3)
        raw = 0.3 * np.eye(3) + rng.uniform(-0.05, 0.05, (3, 3))
        kernel = project_kernel(operator_form(0.5 * (raw + raw.T), w))
        prior = dpp_process(kernel)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        post = enumerate_posterior(prior, obs, meas)
        mu = ExactPosterior(prior, obs, meas).intensity()
        np.testing.assert_allclose(mu, post.intensity(), atol=1e-10)


class TestPosteriorMoments:
    def test_poisson_intensity_classical_form(self):
        lam, prior = small_poisson()
        rng = np.random.default_rng(12)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        s = obs.l_c + obs.l_tilde @ lam
        classical = obs.q_d + (obs.l_tilde / s[:, None]).sum(axis=0)
        mu = ExactPosterior(prior, obs, meas).intensity()
        np.testing.assert_allclose(mu / lam, classical, atol=1e-10)

    def test_no_detection_probability_keeps_prior(self):
        w = small_grid()
        rng = np.random.default_rng(13)
        prior = random_simple_prior(w, rng)
        obs = ObservationModel(
            p_d=np.zeros(3), l_d=rng.uniform(0.1, 1.0, (2, 3)), l_c=np.array([0.5, 0.4])
        )
        mu = ExactPosterior(prior, obs, (0, 1)).intensity()
        np.testing.assert_allclose(mu, prior.intensity(), atol=1e-12)

    def test_poisson_pair_closed_form(self):
        lam, prior = small_poisson()
        rng = np.random.default_rng(14)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        s = obs.l_c + obs.l_tilde @ lam
        lt = obs.l_tilde
        qd = obs.q_d
        rho = ExactPosterior(prior, obs, meas).pair()
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
                assert rho[x, y] == pytest.approx(lam[x] * lam[y] * expect, rel=1e-10)

    def test_at_most_one_point_prior_has_zero_pair(self):
        prior = FiniteProcess(3, {(): 0.4, (0,): 0.3, (2,): 0.3})
        rng = np.random.default_rng(15)
        obs = random_obs(3, 2, rng)
        rho = ExactPosterior(prior, obs, (0, 1)).pair()
        np.testing.assert_allclose(rho, 0.0, atol=1e-14)

    def test_pair_symmetry_exact(self):
        w = small_grid()
        rng = np.random.default_rng(16)
        prior = random_simple_prior(w, rng)
        obs = random_obs(3, 2, rng)
        rho = ExactPosterior(prior, obs, (0, 1)).pair()
        np.testing.assert_array_equal(rho, rho.T)


class TestPosteriorCovariance:
    def test_poisson_covariance_closed_form(self):
        lam, prior = small_poisson()
        rng = np.random.default_rng(17)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        lt = obs.l_tilde
        s = obs.l_c + lt @ lam
        exact = ExactPosterior(prior, obs, meas)
        for a, b in [((0, 1), (1, 2)), ((0,), (1, 2)), ((0, 1, 2), (0, 1, 2))]:
            inter = sorted(set(a) & set(b))
            closed = float(np.sum(obs.q_d[list(inter)] * lam[list(inter)])) if inter else 0.0
            for z in meas:
                ia = float(np.sum(lt[z, list(a)] * lam[list(a)]))
                ib = float(np.sum(lt[z, list(b)] * lam[list(b)]))
                ii = float(np.sum(lt[z, inter] * lam[inter])) if inter else 0.0
                closed += ii / s[z] - ia * ib / s[z] ** 2
            got = exact.covariance(a, b)
            assert got == pytest.approx(closed, abs=1e-10)

    def test_prior_covariance_recovered_without_information(self):
        w = small_grid()
        rng = np.random.default_rng(18)
        prior = random_simple_prior(w, rng)
        obs = ObservationModel(
            p_d=np.zeros(3), l_d=rng.uniform(0.1, 1.0, (1, 3)), l_c=np.array([0.5])
        )
        got = ExactPosterior(prior, obs, ()).covariance((0, 1), (1, 2))
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
        got = ExactPosterior(prior, obs, meas).covariance(full, full)
        assert got == pytest.approx(post.count_covariance(full, full), abs=1e-10)


class TestEnumeratePosterior:
    def test_empty_only_prior(self):
        prior = FiniteProcess(3, {(): 1.0})
        rng = np.random.default_rng(20)
        obs = random_obs(3, 2, rng)
        post = enumerate_posterior(prior, obs, (0,))
        assert post.table.keys() == {()}
        assert post.total_mass() == pytest.approx(1.0)

    def test_poisson_posterior_matches_formula_route(self):
        _, prior = small_poisson(n_max=10)
        rng = np.random.default_rng(21)
        obs = random_obs(3, 2, rng)
        meas = (0, 1)
        post = enumerate_posterior(prior, obs, meas)
        mu = ExactPosterior(prior, obs, meas).intensity()
        np.testing.assert_allclose(mu, post.intensity(), atol=1e-9)

    def test_random_prior_two_routes_agree(self):
        rng = np.random.default_rng(22)
        w = rng.uniform(0.5, 1.5, 4)
        prior = random_simple_prior(w, rng)
        obs = random_obs(4, 2, rng)
        meas = (0, 1)
        post = enumerate_posterior(prior, obs, meas)
        exact = ExactPosterior(prior, obs, meas)
        np.testing.assert_allclose(exact.intensity(), post.intensity(), atol=1e-10)
        np.testing.assert_allclose(exact.pair(), post.pair_factorial(), atol=1e-10)

    def test_total_count_identity(self):
        rng = np.random.default_rng(23)
        w = rng.uniform(0.5, 1.5, 4)
        prior = random_simple_prior(w, rng, support=3)
        obs = random_obs(4, 3, rng)
        meas = (0, 2)
        post = enumerate_posterior(prior, obs, meas)
        mu = ExactPosterior(prior, obs, meas).intensity()
        mean_count = sum(p * len(cfg) for cfg, p in post.table.items())
        assert float(mu.sum()) == pytest.approx(mean_count, abs=1e-9)

    def test_size_limits(self):
        rng = np.random.default_rng(24)
        prior = FiniteProcess(7, {(): 1.0})
        obs = random_obs(7, 1, rng)
        with pytest.raises(SizeError):
            enumerate_posterior(prior, obs, (0,))


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=30, deadline=None)
def test_bayes_consistency_property(seed):
    """Corrector-term route equals the enumeration route on random simple and
    Poisson (multiset) priors, also where some point is detected with
    certainty (p_d = 1, the explicit-product branch of
    observation_likelihood)."""
    rng = np.random.default_rng(seed)
    g = int(rng.integers(2, 5))
    z = int(rng.integers(1, 4))
    w = rng.uniform(0.5, 1.5, g)
    if rng.uniform() < 0.5:
        prior = random_simple_prior(w, rng, support=min(g, 3))
    else:
        prior = poisson_process(rng.uniform(0.05, 0.5, g), n_max=4)
    obs = random_obs(g, z, rng)
    if rng.uniform() < 0.5:
        p_d = obs.p_d.copy()
        p_d[rng.integers(g)] = 1.0
        obs = ObservationModel(p_d, obs.l_d, obs.l_c)
    m = int(rng.integers(0, min(z, 3) + 1))
    meas = [int(v) for v in rng.choice(z, size=m, replace=False)]
    if m and rng.uniform() < 0.3:
        meas.insert(int(rng.integers(m + 1)), meas[0])  # a repeated point
    post = enumerate_posterior(prior, obs, meas)
    exact = ExactPosterior(prior, obs, meas)
    np.testing.assert_allclose(exact.intensity(), post.intensity(), atol=1e-9)
    np.testing.assert_allclose(exact.pair(), post.pair_factorial(), atol=1e-9)
    # index sets as unsorted lists with repeats, sometimes empty
    a = [int(i) for i in rng.integers(0, g, size=rng.integers(0, g + 2))]
    b = [int(i) for i in rng.integers(0, g, size=rng.integers(0, g + 2))]
    got = exact.covariance(a, b)
    assert got == pytest.approx(post.count_covariance(a, b), abs=1e-9)


def test_each_observation_factor_is_evaluated_once(monkeypatch):
    """Criterion 1's Poisson problem: 455 configurations, and four
    measurement sub-lists of (0, 1), so at most 455 x 4 factor evaluations
    for every moment, and none when the moments are asked for again."""
    lam, prior = small_poisson()
    obs = ObservationModel(
        p_d=np.full(3, 0.7),
        l_d=np.array([[0.9, 0.3, 0.1], [0.2, 0.5, 0.8]]),
        l_c=np.array([0.25, 0.45]),
    )
    calls = []
    real = oracle.observation_likelihood

    def counting(instances, obs, meas):
        calls.append((instances, meas))
        return real(instances, obs, meas)

    monkeypatch.setattr(oracle, "observation_likelihood", counting)
    exact = ExactPosterior(prior, obs, (0, 1))

    def moments():
        exact.intensity()
        exact.pair()
        for a, b in [((0, 1), (1, 2)), ((0,), (2,)), ((0, 1, 2), (0, 1, 2))]:
            exact.covariance(a, b)

    moments()
    assert len(prior.table) == 455
    assert len(calls) <= 455 * 4
    assert len(set(calls)) == len(calls)
    first = len(calls)
    moments()
    assert len(calls) == first


class TestInputChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["p_d", "l_d", "l_c"])
    def test_observation_model_rejects_non_finite_entries(self, field, bad):
        arrays = dict(p_d=np.array([0.5, 0.7]), l_d=np.full((1, 2), 0.4), l_c=np.array([0.3]))
        arrays[field] = arrays[field].copy()
        arrays[field].flat[0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            ObservationModel(**arrays)

    @pytest.mark.parametrize("meas", [(-1,), (2,), (0, 2)])
    def test_measurement_index_outside_the_grid(self, meas):
        prior = FiniteProcess(2, {(): 0.5, (0,): 0.3, (1,): 0.2})
        obs = random_obs(2, 2, np.random.default_rng(25))
        for call in (
            lambda: ExactPosterior(prior, obs, meas),
            lambda: enumerate_posterior(prior, obs, meas),
        ):
            with pytest.raises(ValueError, match="outside the grid of 2 points"):
                call()

    def test_moments_of_a_measurement_with_zero_likelihood_raise(self):
        prior = FiniteProcess(1, {(): 1.0})
        obs = ObservationModel(p_d=[0.5], l_d=[[0.4]], l_c=[0.0])
        exact = ExactPosterior(prior, obs, (0,))
        assert exact.janossy == 0.0
        for moment in (exact.intensity, exact.pair, lambda: exact.covariance([0], [0])):
            with pytest.raises(ValueError, match="zero likelihood"):
                moment()

    def test_index_sets_off_the_grid_count_no_points(self):
        prior = random_simple_prior(small_grid(), np.random.default_rng(27))
        obs = random_obs(3, 2, np.random.default_rng(27))
        exact = ExactPosterior(prior, obs, (0, 1))
        post = enumerate_posterior(prior, obs, (0, 1))
        assert exact.covariance([1, 0, 5, -1, 0], [2, -3]) == exact.covariance([0, 1], [2])
        assert post.count_covariance([1, 0, 5, -1, 0], [2, -3]) == post.count_covariance(
            [0, 1], [2]
        )

    def test_upsilon_of_a_list_that_is_not_a_sub_list(self):
        prior = FiniteProcess(2, {(): 0.5, (0,): 0.5})
        exact = ExactPosterior(prior, random_obs(2, 2, np.random.default_rng(26)), (0, 1))
        assert exact.upsilon((1,))[0] > 0.0
        with pytest.raises(ValueError, match="not a sub-list"):
            exact.upsilon((1, 1))
