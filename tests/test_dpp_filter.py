import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpptrack import dpp_filter, kernels
from dpptrack.dpp_filter import (
    DppPhdFilter,
    FilterState,
    UpdateDiagnostics,
    correlation_estimate,
    dpp_update,
    posterior_diagonal,
    posterior_kernel_entries,
    posterior_moments,
    predict,
)
from dpptrack.errors import DegenerateIntensity, DegenerateVariance
from dpptrack.checks import operator_form, validate_kernel
from dpptrack.harness import preset, run_single
from dpptrack.kernels import (
    DELTA,
    DiscretizedKernel,
    band_pairs,
    interaction_kernel,
    operator_spectrum,
    pair_index,
    project_kernel,
)
from dpptrack.likelihood import SensorModel
from dpptrack.oracle import (
    ExactPosterior,
    ObservationModel,
    approx_count_covariance,
    dpp_process,
    prediction_moments,
    reconstruct_kernel_from_moments,
)
from dpptrack.ppp_filter import (
    PppPhdFilter,
    SurvivalModel,
    corrector_terms,
    poisson_weight_update,
)
from dpptrack.scenario import (
    DynamicsConfig,
    Region,
    Scan,
    SensorConfig,
    Window,
    generate_scan,
)
from dpptrack.smc import SmcConfig, banded_kernel

WINDOW = Window(Region(-100.0, 100.0, -100.0, 100.0))
QUIET = DynamicsConfig(sigma_vx=0.0, sigma_vy=0.0, sigma_vtheta=0.0)


def particles_of(states):
    return np.atleast_2d(states)


def small_state(n=6, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    states = rng.uniform(-50, 50, (n, 5))
    p = particles_of(states)
    raw = scale * np.eye(n) + rng.uniform(-0.01, 0.01, (n, n))
    kernel = project_kernel(0.5 * (raw + raw.T))
    return FilterState(p, kernel)


def epsilon_kernel(eps, weights=(0.9, 1.1, 1.0, 0.8)):
    """eps times a fixed kernel on four points of masses ``weights``, in
    operator form."""
    base = np.array(
        [
            [1.00, 0.30, 0.15, 0.05],
            [0.30, 0.90, 0.25, 0.10],
            [0.15, 0.25, 1.10, 0.30],
            [0.05, 0.10, 0.30, 0.95],
        ]
    )
    return DiscretizedKernel.from_dense(eps * operator_form(base, weights))


def at_pairs(m, kernel):
    """The dense (N, N) matrix m at the kernel's band pairs, as
    ``posterior_moments`` gives the pair moment."""
    return m[pair_index(kernel.bands)]


def abstract_obs(p_d=0.7):
    l_d = np.array([[0.9, 0.35, 0.10, 0.05], [0.10, 0.30, 0.75, 0.40]])
    l_c = np.array([0.30, 0.45])
    return ObservationModel(np.full(4, p_d), l_d, l_c)


class TestSc:
    # s_c(z) = l_c(z) + sum_v J(v,v) l~(z|v), which the DPP corrector forms
    # as corrector_terms with weights J(v,v); on a grid of point masses w_v,
    # the weights are J(v,v) w_v
    def test_no_detection_likelihood_leaves_clutter(self):
        jd = np.array([0.2, 0.3])
        like = np.zeros((2, 2))
        sc, per_point = corrector_terms(np.array([0.4, 0.7]), like, jd)
        np.testing.assert_allclose(sc, [0.4, 0.7])
        np.testing.assert_array_equal(per_point, 0.0)

    def test_uniform_case(self):
        # uniform diagonal j, uniform likelihood L, total mass W
        jd = np.full(5, 0.2)
        like = np.full((1, 5), 0.3)
        w = np.full(5, 1.5)
        sc, _ = corrector_terms(np.array([0.1]), like, jd * w)
        assert sc[0] == pytest.approx(0.1 + 0.2 * 0.3 * 7.5)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        jd = rng.uniform(0, 0.5, 6)
        like = rng.uniform(0, 1, (3, 6))
        w = rng.uniform(0.5, 1.5, 6)
        lc = rng.uniform(0.1, 1.0, 3)
        sc, per_point = corrector_terms(lc, like, jd * w)
        for z in range(3):
            expect = lc[z] + sum(jd[i] * like[z, i] * w[i] for i in range(6))
            assert sc[z] == pytest.approx(expect, rel=1e-12)
        for i in range(6):
            expect = sum(like[z, i] / sc[z] for z in range(3))
            assert per_point[i] == pytest.approx(expect, rel=1e-12)


class TestPredict:
    def test_identity_transition_preserves_kernel(self):
        st = small_state(seed=4)
        # zero velocities and zero noise make the motion an identity map
        states = st.particles.copy()
        states[:, 1] = states[:, 3] = states[:, 4] = 0.0
        st = FilterState(particles_of(states), st.kernel)
        out = predict(st, SurvivalModel(1.0, QUIET), SmcConfig(), WINDOW, np.random.default_rng(0))
        # the survivors' block; the births follow it
        n = len(states)
        np.testing.assert_array_equal(out.kernel.to_dense()[:n, :n], st.kernel.to_dense())
        np.testing.assert_array_equal(out.particles[:n], states)

    def test_zero_survival_leaves_birth_only(self):
        # nothing survives, so one target's worth of births carries zero mass
        st = small_state(seed=5)
        smc = SmcConfig(alpha=0.0)
        out = predict(st, SurvivalModel(0.0, QUIET), smc, WINDOW, np.random.default_rng(1))
        n_old = len(st.particles)
        assert len(out.particles) == n_old + smc.birth_per_target
        assert np.all(out.kernel.to_dense() == 0.0)

    def test_prediction_quadrature_against_monte_carlo(self):
        # 2-source prior, 1-d Gaussian transition; region mass from the
        # quadrature of the first-moment formula vs direct MC of the
        # transition with 1e6 samples
        src = np.array([0.0, 2.0])  # source points, of unit mass
        kernel = DiscretizedKernel.from_dense(np.array([[0.3, 0.1], [0.1, 0.35]]))
        p_s, sigma, drift = 0.9, 0.8, 1.0
        lo, hi = 0.5, 2.5
        nq = 800
        dx = (hi - lo) / nq
        xs = lo + dx / 2 + dx * np.arange(nq)  # midpoint cells tile [lo, hi]
        trans = np.exp(
            -0.5 * ((xs[:, None] - (src[None, :] + drift)) / sigma) ** 2
        ) / (sigma * math.sqrt(2 * math.pi))
        birth_intensity = np.full(nq, 0.05)
        mu, rho = prediction_moments(kernel, p_s, trans, birth_intensity, np.zeros((nq, nq)))
        mass_formula = float(np.sum(mu * dx))
        rng = np.random.default_rng(7)
        draws = 1_000_000
        mc_mass = 0.05 * (hi - lo)
        se_sq = 0.0
        for u, k_uu in zip(src, np.diag(kernel.to_dense())):
            hits = rng.normal(u + drift, sigma, draws)
            frac = float(np.mean((hits >= lo) & (hits <= hi)))
            mc_mass += p_s * k_uu * frac
            se_sq += (p_s * k_uu) ** 2 * frac * (1 - frac) / draws
        assert abs(mass_formula - mc_mass) < 3 * math.sqrt(se_sq) + 1e-6

    def test_reconstruction_roundtrip_identity_transition(self):
        raw = np.array([[0.3, 0.08, 0.02], [0.08, 0.25, 0.06], [0.02, 0.06, 0.33]])
        kernel = DiscretizedKernel.from_dense(raw)
        ident = np.eye(3)  # transition density: unit point masses
        mu, rho = prediction_moments(kernel, 1.0, ident, np.zeros(3), np.zeros((3, 3)))
        rebuilt = reconstruct_kernel_from_moments(mu, rho)
        np.testing.assert_allclose(rebuilt.to_dense(), raw, atol=1e-10)


class TestUpdate:
    def sensor(self, p_d=0.9, clutter=1.0, sigma_range=2.0, sigma_bearing=0.2):
        return SensorModel(
            SensorConfig(
                sigma_range=sigma_range, sigma_bearing=sigma_bearing, p_d=p_d,
                clutter_mean=clutter, window=WINDOW,
            )
        )

    def test_empty_scan_scales_diagonal_exactly(self):
        st = small_state(seed=8)
        sensor = self.sensor(p_d=0.9)
        out, diag = dpp_update(st, Scan(0, np.zeros((0, 2))), sensor)
        lhs = out.kernel.diagonal
        rhs = (1.0 - 0.9) * st.kernel.diagonal
        np.testing.assert_array_equal(lhs, rhs)

    def test_empty_scan_strictly_decreases_count(self):
        st = small_state(seed=9)
        sensor = self.sensor(p_d=0.5)
        out, _ = dpp_update(st, Scan(0, np.zeros((0, 2))), sensor)
        assert out.gamma < st.gamma

    def test_diagonal_interaction_reduces_to_classical_corrector(self):
        # zero off-diagonals: the update is the Poisson corrector with the
        # interaction diagonal in the intensity role
        n = 5
        rng = np.random.default_rng(10)
        kd = rng.uniform(0.05, 0.3, n)
        kernel = DiscretizedKernel.from_dense(np.diag(kd))
        j = interaction_kernel(kernel)
        like = rng.uniform(0.0, 1.0, (2, n))
        clutter = np.array([0.4, 0.6])
        q_d = 0.2
        mu, rho = posterior_moments(kernel, j, like, clutter, q_d)
        jd = kd / (1 - kd)
        sc = clutter + like @ jd
        expect = q_d * kd + jd * (like / sc[:, None]).sum(axis=0)
        np.testing.assert_allclose(mu, expect, atol=1e-12)

    def test_empty_scan_moments_are_the_miss_terms_bit_for_bit(self):
        # no detection: mu = q_d K(x,x), rho = q_d^2 (J(x,x)J(y,y) - J(x,y)^2)
        kernel = epsilon_kernel(0.1)
        j = interaction_kernel(kernel)
        q_d = 0.3
        mu, rho = posterior_moments(kernel, j, np.zeros((0, 4)), np.zeros(0), q_d)
        np.testing.assert_array_equal(mu, q_d * kernel.diagonal)
        expect = q_d**2 * (np.outer(np.diag(j), np.diag(j)) - j**2)
        assert rho.shape == (6,)  # every pair of the full-width kernel, once
        np.testing.assert_array_equal(rho, at_pairs(expect, kernel))

    def test_zero_pair_denominator_raises_degenerate_intensity(self):
        # one particle explains both detections and there is no clutter, so
        # s_c(z) s_c(z') - D(z, z') = J^2 l l' - J^2 l l' is exactly 0
        kernel = DiscretizedKernel.from_dense(np.array([[0.5]]))
        like = np.array([[0.3], [0.7]])
        with pytest.raises(DegenerateIntensity):
            posterior_moments(kernel, interaction_kernel(kernel), like, np.zeros(2), 0.1)

    def test_update_against_exact_oracle_second_order(self):
        obs = abstract_obs()
        meas = (0, 1)
        q_d = float(obs.q_d[0])
        errors = []
        for eps in (0.02, 0.01, 0.005):
            kernel = epsilon_kernel(eps)
            exact = ExactPosterior(dpp_process(kernel), obs, meas)
            mu_exact, rho_exact = exact.intensity(), exact.pair()
            j = interaction_kernel(kernel)
            like = obs.l_tilde[list(meas), :]
            clutter = obs.l_c[list(meas)]
            mu_ap, rho_ap = posterior_moments(kernel, j, like, clutter, q_d)
            errors.append(
                max(
                    float(np.max(np.abs(mu_ap - mu_exact))),
                    float(np.max(np.abs(rho_ap - at_pairs(rho_exact, kernel)))),
                )
            )
        assert 3.0 <= errors[0] / errors[1] <= 5.0
        assert 3.0 <= errors[1] / errors[2] <= 5.0

    def test_posterior_kernel_assembly_consistency(self):
        # assembled squared off-diagonals equal the first-moment product
        # minus the pair moment wherever no clamping occurred
        kernel = epsilon_kernel(0.05)
        obs = abstract_obs()
        j = interaction_kernel(kernel)
        like = obs.l_tilde[[0, 1], :]
        clutter = obs.l_c[[0, 1]]
        mu, rho = posterior_moments(kernel, j, like, clutter, 0.3)
        entries = posterior_kernel_entries(mu, rho, kernel.bands)[0].to_dense()
        rows, cols = pair_index(kernel.bands)
        dense = np.zeros((4, 4))
        dense[rows, cols] = dense[cols, rows] = rho
        for i in range(4):
            assert entries[i, i] == mu[i]
            for k in range(4):
                if i == k:
                    continue
                val = mu[i] * mu[k] - dense[i, k]
                assert entries[i, k] ** 2 == pytest.approx(max(val, 0.0), abs=1e-12)

    def test_clamps_counted_only_inside_the_bands(self):
        # pairs (0, 1) and (0, 2) both have a negative radicand mu mu - rho;
        # (0, 2) lies outside the band of width 1, so it is zeroed and not
        # counted
        mu = np.array([0.2, 0.3, 0.4])
        rho = np.array([[0.0, 0.1, 0.1], [0.1, 0.0, 0.02], [0.1, 0.02, 0.0]])
        bands = ((3, 1),)
        kernel, clamped = posterior_kernel_entries(mu, rho[pair_index(bands)], bands)
        assert clamped == 1
        entries = kernel.to_dense()
        assert entries[0, 1] == entries[0, 2] == entries[2, 0] == 0.0
        assert entries[1, 2] == pytest.approx(np.sqrt(0.3 * 0.4 - 0.02), rel=1e-12)
        np.testing.assert_array_equal(np.diag(entries), mu)
        every = ((3, 3),)
        assert posterior_kernel_entries(mu, rho[pair_index(every)], every)[1] == 2

    @pytest.mark.parametrize("k", [0, 1, 4, 7, 10])
    def test_clamps_count_each_negative_pair_once(self, k):
        # k of the 10 in-band pairs get a negative radicand mu mu - rho, the
        # rest a positive one; each counts once
        bands = ((5, 2), (4, 1))
        mu = np.linspace(0.2, 0.6, 9)
        rows, cols = pair_index(bands)
        assert len(rows) == 10
        negative = np.random.default_rng(k).permutation(10) < k
        rho = mu[rows] * mu[cols] * np.where(negative, 1.5, 0.5)
        kernel, clamped = posterior_kernel_entries(mu, rho, bands)
        assert clamped == k
        np.testing.assert_array_equal(kernel.lower() == 0.0, negative)

    def test_update_keeps_kernel_valid(self):
        rng = np.random.default_rng(11)
        sensor = self.sensor()
        for trial in range(5):
            st = small_state(seed=100 + trial, scale=0.08)
            truth = rng.uniform(-50, 50, (3, 5))
            scan = generate_scan(truth, [0, 1, 2], sensor.cfg, frozenset(), rng, time=trial)
            out, _ = dpp_update(st, scan, sensor)
            validate_kernel(out.kernel)

    def test_posterior_trace_is_posterior_count(self):
        # the posterior kernel keeps mu as its diagonal, so its trace is the
        # posterior count sum(mu) whenever no mu reaches 1 - delta
        sensor = self.sensor(clutter=4.0)
        rng = np.random.default_rng(14)
        for trial in range(4):
            points = rng.uniform(-60, 60, (120, 5))
            kernel = banded_kernel(points, 3.0, 4.0, 0.1)
            st = FilterState(particles_of(points), kernel)
            truth = points[rng.choice(120, 3, replace=False)]
            scan = generate_scan(truth, [0, 1, 2], sensor.cfg, frozenset(), rng, time=trial)
            like = sensor.tilde_matrix(scan.detections, points)
            clutter = sensor.clutter_density(scan.detections)
            j = interaction_kernel(kernel)
            mu, _ = posterior_moments(kernel, j, like, clutter, sensor.q_d)
            assert mu.max() <= 1.0 - DELTA
            out, diag = dpp_update(st, scan, sensor)
            # clamps and pairs are counted on the band |i - j| <= 12 alone
            lags = np.subtract.outer(np.arange(120), np.arange(120))
            assert diag.offdiag_entries == np.count_nonzero((lags < 0) & (lags >= -12))
            assert 0 <= diag.clamp_events <= diag.offdiag_entries
            count = float(np.sum(mu))
            assert out.gamma == pytest.approx(count, rel=1e-12)
            assert float(np.trace(out.kernel.to_dense())) == pytest.approx(count, rel=1e-12)
            assert diag.clipped_mass == 0.0
            assert 0.0 <= diag.offdiag_scale <= 1.0

    def test_posterior_diagonal_above_ceiling_is_clipped(self):
        # a posterior intensity above 1 - delta (seen on the death preset)
        # is clipped there, and its point loses its off-diagonal entries
        st = small_state(seed=15, scale=0.3)
        sensor = self.sensor(clutter=0.01, sigma_range=0.5)
        target = st.particles[:1]
        scan = generate_scan(target, [0], replace(sensor.cfg, p_d=1.0), frozenset(),
                             np.random.default_rng(5), time=0)
        like = sensor.tilde_matrix(scan.detections, st.particles)
        clutter = sensor.clutter_density(scan.detections)
        j = interaction_kernel(st.kernel)
        mu, _ = posterior_moments(st.kernel, j, like, clutter, sensor.q_d)
        out, diag = dpp_update(st, scan, sensor)
        over = mu > 1.0 - DELTA
        assert over.any()
        assert np.all(out.kernel.diagonal[over] == 1.0 - DELTA)
        np.testing.assert_array_equal(out.kernel.diagonal[~over], mu[~over])
        off = out.kernel.to_dense().copy()
        np.fill_diagonal(off, 0.0)
        assert np.all(off[over] == 0.0)
        assert diag.clipped_mass == pytest.approx(float(np.sum(mu[over] - (1.0 - DELTA))))
        assert out.gamma == pytest.approx(float(np.sum(mu)) - diag.clipped_mass, rel=1e-12)
        validate_kernel(out.kernel)

    def test_posterior_diagonal_matches_full_update_before_projection(self):
        st = small_state(seed=12, scale=0.04)
        sensor = self.sensor()
        truth = np.array([[10.0, 0, 20.0, 0, 0]])
        scan = generate_scan(
            truth, [0], sensor.cfg, frozenset(), np.random.default_rng(3), time=0
        )
        like = sensor.tilde_matrix(scan.detections, st.particles)
        clutter = sensor.clutter_density(scan.detections)
        j = interaction_kernel(st.kernel)
        mu_full, _ = posterior_moments(st.kernel, j, like, clutter, sensor.q_d)
        mu_fast = posterior_diagonal(st, scan, sensor)
        np.testing.assert_allclose(mu_fast, mu_full, atol=1e-14)

    def test_update_accepts_a_banded_kernel_at_its_ceiling(self):
        # banded_kernel builds to kernels.DELTA and the update checks against
        # the same margin: at 450 points and gamma = 15 the spectrum reaches
        # 0.9913, which a margin of 0.01 would reject
        rng = np.random.default_rng(16)
        points = rng.uniform(-60, 60, (450, 5))
        st = FilterState(particles_of(points), banded_kernel(points, 15.0, 4.0, 0.1))
        assert operator_spectrum(st.kernel).max() > 0.99
        sensor = self.sensor()
        scan = generate_scan(points[:3], [0, 1, 2], sensor.cfg, frozenset(), rng, time=0)
        assert np.all(np.isfinite(posterior_diagonal(st, scan, sensor)))
        validate_kernel(dpp_update(st, scan, sensor)[0].kernel)


def loop_count_covariance(kernel, like, clutter, q_d, a, b):
    """approx_count_covariance term by term: one loop over the detections
    z and one over the pairs z != z', each term a Python float."""
    a, b = np.unique(np.asarray(a, dtype=int)), np.unique(np.asarray(b, dtype=int))
    if a.size == 0 or b.size == 0:
        return 0.0
    jm = interaction_kernel(kernel)
    jd = np.diag(jm).copy()
    inter = np.intersect1d(a, b)
    jab = jm[np.ix_(a, b)]
    terms = [float(q_d * np.sum(jd[inter])), float(-(q_d**2) * np.sum(jab**2))]
    sc = corrector_terms(clutter, like, jd)[0]
    la, lb = like[:, a], like[:, b]
    m = like.shape[0]
    for z in range(m):
        terms.append(float(-q_d / sc[z] * np.sum((la[z][:, None] + lb[z][None, :]) * jab**2)))
        sa, sb = float(np.sum(la[z] * jd[a])), float(np.sum(lb[z] * jd[b]))
        terms.append((float(np.sum(like[z, inter] * jd[inter])) - sa * sb / sc[z]) / sc[z])
    denom = np.outer(sc, sc) - like @ jm**2 @ like.T
    pair_ab = np.outer(jd[a], jd[b]) - jab**2
    for z in range(m):
        for z2 in range(m):
            if z != z2:
                num = float(np.sum(pair_ab * np.outer(la[z], lb[z2])))
                prod = float(np.sum(la[z] * jd[a])) * float(np.sum(lb[z2] * jd[b]))
                terms.append(num / denom[z, z2] - prod / (sc[z] * sc[z2]))
    return math.fsum(terms)


class TestCovariance:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_array_terms_match_the_loop_form(self, seed, n, m):
        # the same terms in another summation order: equal to within the
        # roundoff of double-precision sums over at most 12 x 12 products
        rng = np.random.default_rng(seed)
        raw = rng.uniform(-0.05, 0.05, (n, n))
        raw = raw + raw.T
        np.fill_diagonal(raw, rng.uniform(0.05, 0.6, n))
        kernel = kernels.shrink_to_feasible(DiscretizedKernel.from_dense(raw))[0]
        like, clutter = rng.uniform(0.0, 1.0, (m, n)), rng.uniform(0.1, 1.0, m)
        a, b = np.nonzero(rng.random(n) < 0.6)[0], np.nonzero(rng.random(n) < 0.6)[0]
        q_d = float(rng.uniform(0.1, 0.9))
        expect = loop_count_covariance(kernel, like, clutter, q_d, a, b)
        got = approx_count_covariance(kernel, like, clutter, q_d, a, b)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-14)

    def test_no_detection_branch_reduces_to_two_terms(self):
        # q_d = 1: only the miss-branch terms survive
        kernel = epsilon_kernel(0.1)
        j = interaction_kernel(kernel)
        like = np.zeros((0, 4))
        clutter = np.zeros(0)
        a = [0, 1]
        b = [0, 1]
        got = approx_count_covariance(kernel, like, clutter, 1.0, a, b)
        jd = np.diag(j)
        expect = float(np.sum(jd[a]))
        expect -= float(np.sum(j[np.ix_(a, b)] ** 2))
        assert got == pytest.approx(expect, rel=1e-12)

    def test_disjoint_regions_zero_cross_interaction(self):
        # block-diagonal interaction: covariance reduces to the paired
        # measurement residue, which vanishes with the cross-block
        block = np.array(
            [
                [0.2, 0.05, 0.0, 0.0],
                [0.05, 0.2, 0.0, 0.0],
                [0.0, 0.0, 0.2, 0.05],
                [0.0, 0.0, 0.05, 0.2],
            ]
        )
        kernel = DiscretizedKernel.from_dense(block)
        # likelihoods supported on one block each
        like = np.array([[0.8, 0.6, 0.0, 0.0], [0.0, 0.0, 0.7, 0.9]])
        clutter = np.array([0.3, 0.3])
        got = approx_count_covariance(kernel, like, clutter, 0.1, [0, 1], [2, 3])
        # cross-block J is zero so the pure DPP terms vanish; what remains
        # is the small z != z' residue, which must not be positive beyond
        # roundoff of the D-correction
        assert got == pytest.approx(0.0, abs=5e-3)

    def test_covariance_against_exact_oracle_second_order(self):
        obs = abstract_obs()
        meas = (0, 1)
        q_d = float(obs.q_d[0])
        a, b = (0, 1), (2, 3)
        errors = []
        for eps in (0.02, 0.01, 0.005):
            kernel = epsilon_kernel(eps)
            exact = ExactPosterior(dpp_process(kernel), obs, meas).covariance(a, b)
            like = obs.l_tilde[list(meas), :]
            clutter = obs.l_c[list(meas)]
            approx = approx_count_covariance(kernel, like, clutter, q_d, a, b)
            errors.append(abs(approx - exact))
        # at least second-order decay per halving (disjoint regions cancel
        # the quadratic term and converge even faster)
        assert errors[0] > errors[1] > errors[2]
        assert errors[1] <= errors[0] / 2.5
        assert errors[2] <= errors[1] / 2.5


class TestCorrelationEstimate:
    def make_state(self):
        states = np.zeros((6, 5))
        states[:3, 0] = states[:3, 2] = 10.0  # region A cluster
        states[3:, 0] = states[3:, 2] = 60.0  # region B cluster
        p = particles_of(states)
        m = np.full((6, 6), 0.01) + 0.15 * np.eye(6)
        kernel = project_kernel(m)
        return FilterState(p, kernel)

    def test_same_region_correlation_is_one(self):
        st = self.make_state()
        a = Region(0.0, 20.0, 0.0, 20.0)
        assert correlation_estimate(st, a, a) == pytest.approx(1.0)

    def test_zero_cross_block_gives_zero(self):
        states = np.zeros((4, 5))
        states[:2, 0] = states[:2, 2] = 10.0
        states[2:, 0] = states[2:, 2] = 60.0
        p = particles_of(states)
        block = np.zeros((4, 4))
        block[:2, :2] = [[0.2, 0.05], [0.05, 0.2]]
        block[2:, 2:] = [[0.2, 0.05], [0.05, 0.2]]
        kernel = DiscretizedKernel.from_dense(block)
        st = FilterState(p, kernel)
        a = Region(0.0, 20.0, 0.0, 20.0)
        b = Region(50.0, 70.0, 50.0, 70.0)
        assert correlation_estimate(st, a, b) == 0.0

    def test_nonzero_cross_block_is_negative(self):
        st = self.make_state()
        a = Region(0.0, 20.0, 0.0, 20.0)
        b = Region(50.0, 70.0, 50.0, 70.0)
        assert correlation_estimate(st, a, b) < 0.0

    def test_empty_region_degenerate(self):
        st = self.make_state()
        a = Region(0.0, 20.0, 0.0, 20.0)
        empty = Region(900.0, 901.0, 900.0, 901.0)
        with pytest.raises(DegenerateVariance):
            correlation_estimate(st, a, empty)


class PoissonLimitFilter(DppPhdFilter):
    """DppPhdFilter in the vanishing-interaction limit, where J = K: both
    updates are the classical Poisson corrector on the kernel diagonal, and
    the posterior kernel is diagonal.  With alpha = 0 the predicted and
    rebuilt kernels are diagonal too, so a run reproduces PppPhdFilter bit
    for bit through the production predict, resample and rebuild."""

    def __init__(self, smc, *args):
        if smc.alpha != 0.0:
            raise ValueError("the Poisson limit needs alpha = 0")
        super().__init__(smc, *args)

    def poisson_diagonal(self, state, scan):
        like = self.sensor.tilde_matrix(scan.detections, state.particles)
        clutter = self.sensor.clutter_density(scan.detections)
        return poisson_weight_update(state.kernel.diagonal, like, clutter, self.sensor.q_d)

    def posterior_intensity(self, pred, scan):
        return self.poisson_diagonal(pred, scan)

    def updated(self, state, scan):
        bands = state.kernel.bands
        off = np.zeros(band_pairs(bands))
        kernel = DiscretizedKernel.from_pairs(self.poisson_diagonal(state, scan), off, bands)
        return FilterState(state.particles, kernel), UpdateDiagnostics()


class TestPoissonLimit:
    def test_zero_offdiagonal_matches_ppp_bitwise(self):
        smc = SmcConfig(
            n_init=150, resample_per_target=15, birth_per_target=10, cap=300,
            roughening_scale=0.01, alpha=0.0, gamma0=1.5,
        )
        sensor_cfg = SensorConfig(p_d=0.9, clutter_mean=1.0, window=WINDOW)
        sensor = SensorModel(sensor_cfg)
        survival = SurvivalModel(1.0, DynamicsConfig())
        dpp = PoissonLimitFilter(smc, survival, sensor, WINDOW, np.random.default_rng(42))
        ppp = PppPhdFilter(smc, survival, sensor, WINDOW, np.random.default_rng(42))
        rng_truth = np.random.default_rng(7)
        truth = rng_truth.uniform(-60, 60, (3, 5))
        scan_rng = np.random.default_rng(8)
        for t in range(8):
            truth = truth.copy()
            scan = generate_scan(truth, [0, 1, 2], sensor_cfg, frozenset(), scan_rng, time=t)
            rec_d = dpp.step(scan)
            rec_p = ppp.step(scan)
            assert rec_d.gamma == rec_p.gamma  # bit-identical trajectories
            np.testing.assert_array_equal(
                rec_d.state.kernel.diagonal, rec_p.particles.weights
            )


def test_filter_steps_keep_kernel_valid():
    smc = SmcConfig(
        n_init=60, resample_per_target=10, birth_per_target=5, cap=150,
        roughening_scale=0.01, alpha=4.0, band_eta=0.1, gamma0=2.0,
    )
    sensor_cfg = SensorConfig(p_d=0.9, clutter_mean=1.0, window=WINDOW)
    sensor = SensorModel(sensor_cfg)
    filt = DppPhdFilter(
        smc, SurvivalModel(1.0, DynamicsConfig()), sensor, WINDOW, np.random.default_rng(3)
    )
    truth = np.array([[20.0, 0.1, 20.0, -0.1, 0.0], [-30.0, 0.0, -10.0, 0.2, 0.0]])
    scan_rng = np.random.default_rng(4)
    for t in range(6):
        scan = generate_scan(truth, [0, 1], sensor_cfg, frozenset(), scan_rng, time=t)
        rec = filt.step(scan)
        validate_kernel(rec.state.kernel)
        assert len(rec.state.particles) == len(rec.state.kernel)


def test_spooky_step_eigh_budget(monkeypatch):
    # the prior, birth and rebuilt kernels need no eigendecomposition, both
    # interaction transforms are Cholesky factorizations and
    # shrink_to_feasible takes its extreme eigenvalues from LAPACK dsbevx
    # on the band arrays, so a step makes no numpy eigh-family call
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    per_step = []
    step = DppPhdFilter.step

    def counted_step(self, scan):
        before = len(calls)
        rec = step(self, scan)
        per_step.append(len(calls) - before)
        return rec

    monkeypatch.setattr(DppPhdFilter, "step", counted_step)
    run_single(replace(preset("spooky"), filter="dpp", steps=3), 0)
    assert per_step == [0, 0, 0]


def test_spooky_update_takes_one_extreme_eigenvalue(monkeypatch):
    # shrink_to_feasible's banded Cholesky certificate holds on every
    # spooky update, so lambda_max is never computed: one lambda_min (one
    # dsbevx per band) per update whose kernel has an off-diagonal, none
    # for a diagonal one
    calls = []
    extreme = kernels._extreme_eigenvalue

    def counted(arrays, top):
        calls.append(top)
        return extreme(arrays, top)

    per_update = []  # (wanted, made) extreme-eigenvalue calls
    update = dpp_filter.dpp_update

    def counted_update(*args, **kwargs):
        before = len(calls)
        state, diag = update(*args, **kwargs)
        off = state.kernel.to_dense()[~np.eye(len(state.kernel), dtype=bool)]
        per_update.append((int(np.any(off != 0.0)), len(calls) - before))
        return state, diag

    monkeypatch.setattr(kernels, "_extreme_eigenvalue", counted)
    monkeypatch.setattr(dpp_filter, "dpp_update", counted_update)
    run_single(replace(preset("spooky"), filter="dpp", steps=5), 0)
    assert len(per_update) == 5 and sum(want for want, _ in per_update) > 0
    assert all(made == want for want, made in per_update)
    assert True not in calls
