import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dpptrack import metrics
from dpptrack.metrics import associate, extract_estimates, good_estimate_stats, omat, ospa
from dpptrack.scenario import Scan


def brute_ospa(x, y, c, p):
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    y = np.asarray(y, dtype=float).reshape(-1, 2)
    n, m = len(x), len(y)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return float(c)
    if n > m:
        x, y = y, x
        n, m = m, n
    best = math.inf
    d = np.minimum(
        np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)), c
    ) ** p
    for perm in itertools.permutations(range(m), n):
        best = min(best, sum(d[i, perm[i]] for i in range(n)))
    return ((best + c**p * (m - n)) / m) ** (1.0 / p)


def pairwise(x, y):
    return np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))


def lp_omat(x, y, p):
    """reference: the transportation LP between the uniform measures,
    one equality constraint per row and per column but the last"""
    x = np.asarray(x, dtype=float).reshape(-1, 2)
    y = np.asarray(y, dtype=float).reshape(-1, 2)
    n, m = len(x), len(y)
    d = pairwise(x, y) ** p
    if n == 1 or m == 1:
        return float(d.mean()) ** (1.0 / p)
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.reshape(-1))
        b_eq.append(1.0 / n)
    for j in range(m - 1):
        col = np.zeros((n, m))
        col[:, j] = 1.0
        a_eq.append(col.reshape(-1))
        b_eq.append(1.0 / m)
    res = linprog(d.reshape(-1), A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None),
                  method="highs")
    assert res.success, res.message
    return float(res.fun) ** (1.0 / p)


def loop_weighted_kmeans(points, weights, k, rng, iters=50):
    """reference: one k-means++ seeding by rng.choice, then weighted Lloyd
    iterations cluster by cluster"""
    n = points.shape[0]
    probs = weights / weights.sum()
    first = rng.choice(n, p=probs)
    centers = [points[first]]
    for _ in range(1, k):
        d2 = np.min(pairwise(points, np.array(centers)) ** 2, axis=1)
        score = probs * d2
        total = score.sum()
        if total <= 0:
            centers.append(points[rng.choice(n, p=probs)])
        else:
            centers.append(points[rng.choice(n, p=score / total)])
    centers = np.array(centers)
    for _ in range(iters):
        assign = np.argmin(pairwise(points, centers), axis=1)
        new_centers = centers.copy()
        for c in range(k):
            sel = assign == c
            wsel = weights[sel]
            if wsel.sum() > 0:
                new_centers[c] = (points[sel] * wsel[:, None]).sum(axis=0) / wsel.sum()
        if np.allclose(new_centers, centers, atol=1e-12, rtol=0.0):
            centers = new_centers
            break
        centers = new_centers
    d2 = np.min(pairwise(points, centers) ** 2, axis=1)
    return centers, float((weights * d2).sum())


def loop_extract_estimates(positions, intensity, gamma, rng, restarts=10):
    """reference: the restarts one after another, first best kept"""
    k = int(math.floor(gamma + 0.5))
    if gamma <= 0.5 or k == 0:
        return np.zeros((0, 2))
    positions = np.asarray(positions, dtype=float).reshape(-1, 2)
    intensity = np.clip(np.asarray(intensity, dtype=float), 0.0, None)
    if positions.shape[0] == 0 or intensity.sum() <= 0:
        return np.zeros((0, 2))
    k = min(k, positions.shape[0])
    best, best_inertia = None, np.inf
    for _ in range(restarts):
        centers, inertia = loop_weighted_kmeans(positions, intensity, k, rng)
        if inertia < best_inertia:
            best, best_inertia = centers, inertia
    return best


def loop_good_estimate_stats(scan, estimates, truth_positions):
    """reference: one target-originated measurement at a time"""
    if scan.truth_links is None:
        return None, None
    links = scan.truth_links
    target_rows = [k for k in range(len(scan)) if links[k] >= 0 and links[k] in truth_positions]
    estimates = np.asarray(estimates, dtype=float).reshape(-1, 2)
    if not target_rows or estimates.shape[0] == 0:
        return None, None
    xy = scan.cartesian()
    d = pairwise(xy[target_rows], estimates)
    good = 0
    gains = []
    for slot, k in enumerate(target_rows):
        truth = truth_positions[int(links[k])]
        est = estimates[int(np.argmin(d[slot]))]
        d_meas = float(np.hypot(*(xy[k] - truth)))
        d_est = float(np.hypot(*(est - truth)))
        if d_est < d_meas:
            good += 1
        gains.append((d_meas - d_est) / d_meas if d_meas > 0 else 0.0)
    return good / len(target_rows), float(np.mean(gains))


class TestOspa:
    def test_identical_sets_zero(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert ospa(pts, pts.copy()) == 0.0

    def test_cardinality_penalty_only(self):
        assert ospa(np.array([[0.0, 0.0]]), np.zeros((0, 2)), c=100.0) == 100.0
        assert ospa(np.zeros((0, 2)), np.zeros((0, 2))) == 0.0

    def test_two_versus_one_hand_value(self):
        truth = np.array([[0.0, 0.0], [10.0, 0.0]])
        est = np.array([[0.0, 3.0]])
        expect = math.sqrt((3.0**2 + 100.0**2) / 2.0)
        assert ospa(truth, est, c=100.0, p=2.0) == pytest.approx(expect, rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n, m = rng.integers(0, 6, size=2)
            x = rng.uniform(-50, 50, (n, 2))
            y = rng.uniform(-50, 50, (m, 2))
            assert ospa(x, y, 30.0, 2.0) == pytest.approx(
                brute_ospa(x, y, 30.0, 2.0), abs=1e-9
            )

    def test_never_exceeds_cutoff(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-1000, 1000, (rng.integers(1, 5), 2))
            y = rng.uniform(-1000, 1000, (rng.integers(1, 5), 2))
            assert ospa(x, y, 40.0) <= 40.0 + 1e-12

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=120, deadline=None)
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        sets = [rng.uniform(-20, 20, (int(rng.integers(1, 6)), 2)) for _ in range(3)]
        a, b, c3 = sets
        dab = ospa(a, b, 25.0)
        dba = ospa(b, a, 25.0)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert ospa(a, a.copy(), 25.0) == pytest.approx(0.0, abs=1e-12)
        dac = ospa(a, c3, 25.0)
        dcb = ospa(c3, b, 25.0)
        assert dab <= dac + dcb + 1e-9


class TestOmat:
    def test_identical_zero(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert omat(pts, pts.copy()) == pytest.approx(0.0, abs=1e-9)

    def test_single_mass_distance(self):
        assert omat(np.array([[0.0, 0.0]]), np.array([[0.0, 4.0]])) == pytest.approx(4.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            omat(np.zeros((0, 2)), np.array([[0.0, 0.0]]))

    def test_two_versus_three_matches_transport_lp(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-10, 10, (2, 2))
        y = rng.uniform(-10, 10, (3, 2))
        assert omat(x, y) == pytest.approx(lp_omat(x, y, 2.0), abs=1e-9)

    def test_two_versus_three_matches_grid_search(self):
        # brute force over the transport polytope on a simplex grid
        x = np.array([[0.0, 0.0], [4.0, 0.0]])
        y = np.array([[0.0, 1.0], [4.0, 2.0], [2.0, 5.0]])
        d = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        best = math.inf
        steps = 60
        # plan rows sum to 1/2, columns to 1/3; two free parameters
        for i in range(steps + 1):
            for j in range(steps + 1):
                p00 = i / steps * 0.5
                p01 = j / steps * (0.5 - p00)
                p02 = 0.5 - p00 - p01
                p10 = 1 / 3 - p00
                p11 = 1 / 3 - p01
                p12 = 1 / 3 - p02
                plan = np.array([[p00, p01, p02], [p10, p11, p12]])
                if np.all(plan >= -1e-12):
                    best = min(best, float((plan * d).sum()))
        assert omat(x, y) == pytest.approx(math.sqrt(best), abs=5e-3)

    @given(
        st.integers(1, 20),
        st.integers(1, 20),
        st.sampled_from([1.0, 2.0]),
        st.integers(0, 2**32 - 1),
    )
    @example(15, 16, 2.0, 1)  # lcm 240: the largest assignment
    @example(16, 17, 2.0, 2)  # lcm 272: the LP
    @settings(max_examples=80, deadline=None)
    def test_matches_transport_lp(self, n, m, p, seed):
        # n, m <= 20 covers both routes: lcm(n, m) runs up to 380, past the
        # size where omat switches from assignment to the LP
        rng = np.random.default_rng(seed)
        x = rng.uniform(-30, 30, (n, 2))
        y = rng.uniform(-30, 30, (m, 2))
        assert omat(x, y, p) == pytest.approx(lp_omat(x, y, p), rel=1e-9, abs=1e-9)

    def test_both_routes_are_exercised(self):
        sizes = [math.lcm(n, m) for n in range(2, 21) for m in range(2, 21)]
        assert min(sizes) <= metrics._ASSIGNMENT_MAX_LCM < max(sizes)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-5, 5, (3, 2))
        assert omat(x, x[::-1].copy()) == pytest.approx(0.0, abs=1e-9)
        y = x.copy()
        y[0, 0] += 1.0
        assert omat(x, y) > 1e-3


class TestAssociate:
    def test_single_pair(self):
        assert associate(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])) == [(0, 0)]

    def test_tie_breaks_to_lower_index(self):
        det = np.array([[0.0, 0.0]])
        est = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert associate(det, est) == [(0, 0)]

    def test_every_pair_minimal(self):
        rng = np.random.default_rng(5)
        det = rng.uniform(-10, 10, (5, 2))
        est = rng.uniform(-10, 10, (5, 2))
        pairs = associate(det, est)
        d = np.sqrt(((det[:, None, :] - est[None, :, :]) ** 2).sum(axis=2))
        for k, j in pairs:
            assert d[k, j] == d[k].min()

    def test_many_to_one_allowed(self):
        det = np.array([[0.0, 0.0], [0.1, 0.0]])
        est = np.array([[0.0, 0.05], [50.0, 50.0]])
        pairs = associate(det, est)
        assert [j for _, j in pairs] == [0, 0]


class TestGoodEstimateStats:
    def scan_with_links(self, detections_xy, links):
        det = np.column_stack(
            [
                np.hypot(detections_xy[:, 0], detections_xy[:, 1]),
                np.arctan2(detections_xy[:, 1], detections_xy[:, 0]),
            ]
        )
        return Scan(0, det, np.asarray(links, dtype=int))

    def test_perfect_estimates(self):
        truth = {0: np.array([10.0, 10.0]), 1: np.array([-20.0, 5.0])}
        meas_xy = np.array([[11.0, 10.5], [-19.0, 5.5]])
        scan = self.scan_with_links(meas_xy, [0, 1])
        est = np.array([truth[0], truth[1]])
        ratio, gain = good_estimate_stats(scan, est, truth)
        assert ratio == 1.0
        assert gain > 0.0

    def test_estimates_at_measurements_no_improvement(self):
        truth = {0: np.array([10.0, 10.0])}
        meas_xy = np.array([[12.0, 10.0]])
        scan = self.scan_with_links(meas_xy, [0])
        ratio, gain = good_estimate_stats(scan, meas_xy, truth)
        assert ratio == 0.0
        assert gain == pytest.approx(0.0, abs=1e-12)

    def test_hand_built_three_target_case(self):
        truth = {
            0: np.array([0.0, 0.0]),
            1: np.array([30.0, 0.0]),
            2: np.array([0.0, 30.0]),
        }
        meas_xy = np.array([[2.0, 0.0], [33.0, 0.0], [0.0, 27.0]])
        est = np.array([[1.0, 0.0], [34.0, 0.0], [0.0, 29.0]])
        scan = self.scan_with_links(meas_xy, [0, 1, 2])
        ratio, gain = good_estimate_stats(scan, est, truth)
        # improvements: 2->1 (good), 3->4 (worse), 3->1 gain (good)
        assert ratio == pytest.approx(2.0 / 3.0)
        expect_gain = ((2 - 1) / 2 + (3 - 4) / 3 + (3 - 1) / 3) / 3
        assert gain == pytest.approx(expect_gain, rel=1e-9)

    def test_missing_when_all_clutter(self):
        scan = self.scan_with_links(np.array([[5.0, 5.0]]), [-1])
        ratio, gain = good_estimate_stats(scan, np.array([[0.0, 0.0]]), {})
        assert ratio is None and gain is None

    @given(st.integers(0, 12), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_reference_bitwise(self, n_meas, n_est, seed):
        rng = np.random.default_rng(seed)
        truth = {int(t): rng.uniform(-50, 50, 2) for t in rng.choice(10, 4, replace=False)}
        links = rng.integers(-1, 10, n_meas)
        scan = self.scan_with_links(rng.uniform(-50, 50, (n_meas, 2)), links)
        on_target = np.flatnonzero(np.isin(links, list(truth)))
        if on_target.size:
            # a target exactly at its measurement: zero distance, zero gain
            truth[int(links[on_target[0]])] = scan.cartesian()[on_target[0]]
        est = rng.uniform(-50, 50, (n_est, 2))
        assert good_estimate_stats(scan, est, truth) == loop_good_estimate_stats(scan, est, truth)

    def test_translation_invariance(self):
        truth = {0: np.array([10.0, 10.0]), 1: np.array([-5.0, 20.0])}
        meas_xy = np.array([[12.0, 9.0], [-6.0, 22.0]])
        est = np.array([[11.0, 10.0], [-5.5, 21.0]])
        scan = self.scan_with_links(meas_xy, [0, 1])
        r0, g0 = good_estimate_stats(scan, est, truth)
        shift = np.array([123.0, -45.0])
        truth2 = {k: v + shift for k, v in truth.items()}
        scan2 = self.scan_with_links(meas_xy + shift, [0, 1])
        r1, g1 = good_estimate_stats(scan2, est + shift, truth2)
        assert r0 == r1
        assert g0 == pytest.approx(g1, rel=1e-9)


class TestExtractEstimates:
    def test_all_intensity_on_one_particle(self):
        rng = np.random.default_rng(6)
        pos = rng.uniform(-10, 10, (20, 2))
        intensity = np.zeros(20)
        intensity[7] = 1.0
        est = extract_estimates(pos, intensity, 1.0, np.random.default_rng(0))
        assert est.shape == (1, 2)
        np.testing.assert_allclose(est[0], pos[7], atol=1e-9)

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(7)
        blob_a = rng.normal([0.0, 0.0], 0.5, (40, 2))
        blob_b = rng.normal([50.0, 50.0], 0.5, (40, 2))
        pos = np.vstack([blob_a, blob_b])
        intensity = np.full(80, 1.0 / 40)
        est = extract_estimates(pos, intensity, 2.0, np.random.default_rng(1))
        assert est.shape == (2, 2)
        d_a = np.hypot(*(est - np.array([0.0, 0.0])).T)
        d_b = np.hypot(*(est - np.array([50.0, 50.0])).T)
        assert min(d_a) < 2.0 and min(d_b) < 2.0

    def test_low_gamma_empty(self):
        pos = np.zeros((5, 2))
        assert extract_estimates(pos, np.ones(5), 0.4, np.random.default_rng(2)).shape == (0, 2)
        assert extract_estimates(pos, np.ones(5), 0.0, np.random.default_rng(2)).shape == (0, 2)

    @given(
        st.integers(1, 300),
        st.integers(1, 15),
        st.sampled_from(["random", "zeros", "one-point", "duplicates"]),
        st.integers(0, 2**32 - 1),
    )
    @example(300, 15, "random", 1)
    @example(300, 15, "one-point", 2)
    @example(200, 9, "duplicates", 3)
    @example(4, 12, "zeros", 4)  # k > n
    @example(1, 1, "random", 5)
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_reference(self, n, k, weighting, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-100.0, 100.0, (n, 2))
        intensity = rng.random(n) ** 2
        if weighting == "zeros":
            intensity[rng.random(n) < 0.5] = 0.0
        elif weighting == "one-point":
            # every seeding score after the first centre is 0: the
            # fallback draw from the intensity itself
            intensity[:] = 0.0
            intensity[rng.integers(n)] = 1.0
        elif weighting == "duplicates":
            pos = np.round(pos / 25.0) * 25.0  # repeated points and distance ties
        if intensity.sum() == 0.0:
            intensity[0] = 1.0
        gamma = k + rng.uniform(-0.49, 0.49)  # k may exceed n
        got_rng = np.random.default_rng(seed + 1)
        ref_rng = np.random.default_rng(seed + 1)
        got = extract_estimates(pos, intensity, gamma, got_rng)
        ref = loop_extract_estimates(pos, intensity, gamma, ref_rng)
        assert got.shape == ref.shape == (min(k, n), 2)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-9)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_draws_restarts_times_k_uniforms(self):
        pos = np.random.default_rng(8).uniform(-10, 10, (30, 2))
        rng = np.random.default_rng(9)
        extract_estimates(pos, np.ones(30), 3.0, rng, restarts=4)
        expect = np.random.default_rng(9)
        expect.random(12)
        assert rng.bit_generator.state == expect.bit_generator.state

    def test_non_finite_intensity_raises(self):
        pos = np.zeros((3, 2))
        with pytest.raises(ValueError):
            extract_estimates(pos, np.array([1.0, np.nan, 1.0]), 1.0, np.random.default_rng(0))
