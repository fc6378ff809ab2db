"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured quantities.  Tolerances are pinned here
and nowhere else.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
from scipy import stats

from dpptrack.checks import operator_form, validate_kernel
from dpptrack.dpp_filter import (
    FilterState,
    dpp_update,
    posterior_moments,
    predict,
)
from dpptrack.harness import preset, run_experiment
from dpptrack.kernels import (
    DiscretizedKernel,
    interaction_kernel,
    pair_index,
    project_kernel,
)
from dpptrack.likelihood import SensorModel
from dpptrack.metrics import omat, ospa
from dpptrack.oracle import (
    ExactPosterior,
    FiniteProcess,
    ObservationModel,
    dpp_process,
    enumerate_posterior,
    poisson_process,
)
from dpptrack.ppp_filter import PppPhdFilter, SurvivalModel
from dpptrack.scenario import (
    DynamicsConfig,
    EventSchedule,
    Region,
    SensorConfig,
    TruthSimulator,
    Window,
    generate_scan,
)
from dpptrack.smc import SmcConfig
from dpptrack.rng import stream


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# -- 1. Poisson reduction ----------------------------------------------------


def test_criterion_1_poisson_reduction():
    t0 = time.perf_counter()
    tol = 1e-10
    lam = np.array([0.12, 0.10, 0.08])
    prior = poisson_process(lam, n_max=12)
    obs = ObservationModel(
        p_d=np.full(3, 0.7),
        l_d=np.array([[0.9, 0.3, 0.1], [0.2, 0.5, 0.8]]),
        l_c=np.array([0.25, 0.45]),
    )
    meas = (0, 1)
    exact = ExactPosterior(prior, obs, meas)
    jz, u1, u2 = exact.upsilon()
    # corrector ratios l1 and l2 are lambda_x and lambda_x lambda_y
    worst = float(np.max(np.abs(u1 / (jz * lam) - 1.0)))
    worst = max(worst, float(np.max(np.abs(u2 / (jz * np.outer(lam, lam)) - 1.0))))
    # classical first-moment corrector, per unit of prior intensity
    s = obs.l_c + obs.l_tilde @ lam
    classical = obs.q_d + (obs.l_tilde / s[:, None]).sum(axis=0)
    mu = exact.intensity()
    worst = max(worst, float(np.max(np.abs(mu / lam - classical))))
    # classical covariance over overlapping and disjoint domain pairs
    lt = obs.l_tilde
    for a, b in [((0, 1), (1, 2)), ((0,), (2,)), ((0, 1, 2), (0, 1, 2))]:
        inter = sorted(set(a) & set(b))
        closed = float(np.sum(obs.q_d[list(inter)] * lam[list(inter)])) if inter else 0.0
        for z in meas:
            ia = float(np.sum(lt[z, list(a)] * lam[list(a)]))
            ib = float(np.sum(lt[z, list(b)] * lam[list(b)]))
            ii = float(np.sum(lt[z, inter] * lam[inter])) if inter else 0.0
            closed += ii / s[z] - ia * ib / s[z] ** 2
        got = exact.covariance(a, b)
        worst = max(worst, abs(got - closed))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < tol and elapsed < 1.0,
        f"poisson reduction worst deviation {worst:.2e} (tol {tol:g}), {elapsed:.2f}s",
    )


# -- 2. Oracle equivalence ---------------------------------------------------


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    tol = 1e-9
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(20):
        g = int(rng.integers(2, 6))
        z = int(rng.integers(1, 4))
        weights = rng.uniform(0.5, 1.5, g)
        support = min(g, 4)
        table = {}
        for n in range(support + 1):
            for cfg in itertools.combinations(range(g), n):
                # a density on points of mass `weights`, folded into a mass
                table[cfg] = float(rng.uniform(0.05, 1.0)) * float(np.prod(weights[list(cfg)]))
        prior = FiniteProcess(g, table).normalized()
        obs = ObservationModel(
            p_d=rng.uniform(0.3, 0.9, g),
            l_d=rng.uniform(0.05, 1.0, (z, g)),
            l_c=rng.uniform(0.1, 0.6, z),
        )
        m = int(rng.integers(0, min(z, 3) + 1))
        meas = tuple(int(v) for v in rng.choice(z, size=m, replace=False))
        post = enumerate_posterior(prior, obs, meas)
        exact = ExactPosterior(prior, obs, meas)
        worst = max(worst, float(np.max(np.abs(exact.intensity() - post.intensity()))))
        worst = max(worst, float(np.max(np.abs(exact.pair() - post.pair_factorial()))))
        a = [i for i in range(g) if rng.uniform() < 0.5]
        b = [i for i in range(g) if rng.uniform() < 0.5]
        cov = exact.covariance(a, b)
        worst = max(worst, abs(cov - post.count_covariance(a, b)))
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst < tol and elapsed < 30.0,
        f"20 random priors, worst moment deviation {worst:.2e} (tol {tol:g}), {elapsed:.1f}s",
    )


# -- 3. Approximation order --------------------------------------------------


def test_criterion_3_approximation_order():
    t0 = time.perf_counter()
    weights = np.array([0.9, 1.1, 1.0, 0.8])
    base = np.array(
        [
            [1.00, 0.30, 0.15, 0.05],
            [0.30, 0.90, 0.25, 0.10],
            [0.15, 0.25, 1.10, 0.30],
            [0.05, 0.10, 0.30, 0.95],
        ]
    )
    p_d = 0.7
    obs = ObservationModel(
        p_d=np.full(4, p_d),
        l_d=np.array([[0.9, 0.35, 0.10, 0.05], [0.10, 0.30, 0.75, 0.40]]),
        l_c=np.array([0.30, 0.45]),
    )
    meas = (0, 1)
    errors = []
    for eps in (0.02, 0.01, 0.005):
        kernel = DiscretizedKernel.from_dense(eps * operator_form(base, weights))
        exact = ExactPosterior(dpp_process(kernel), obs, meas)
        mu_exact, rho_exact = exact.intensity(), exact.pair()
        j = interaction_kernel(kernel)
        like = obs.l_tilde[list(meas), :]
        mu_ap, rho_ap = posterior_moments(kernel, j, like, obs.l_c[list(meas)], 1 - p_d)
        errors.append(
            max(
                float(np.max(np.abs(mu_ap - mu_exact))),
                float(np.max(np.abs(rho_ap - rho_exact[pair_index(kernel.bands)]))),
            )
        )
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    elapsed = time.perf_counter() - t0
    report(
        3,
        3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0 and elapsed < 10.0,
        f"update error halving ratios {r1:.2f}, {r2:.2f} (required in [3, 5]), {elapsed:.1f}s",
    )


# -- 4. DPP-PPP limit equivalence ---------------------------------------------


def test_criterion_4_poisson_limit_equivalence():
    t0 = time.perf_counter()
    window = Window(Region(-80.0, 80.0, -80.0, 80.0), -2.0, 2.0, -math.pi, math.pi)
    sensor_cfg = SensorConfig(p_d=0.9, clutter_mean=1.0, window=window)
    sensor = SensorModel(sensor_cfg)
    smc = SmcConfig(
        n_init=200, resample_per_target=15, birth_per_target=10, cap=400,
        roughening_scale=0.01, alpha=0.0, gamma0=2.0,
    )
    from test_dpp_filter import PoissonLimitFilter

    survival = SurvivalModel(0.98, DynamicsConfig())
    dpp = PoissonLimitFilter(smc, survival, sensor, window, stream(5, 0, "filter-dpp"))
    ppp = PppPhdFilter(smc, survival, sensor, window, stream(5, 0, "filter-dpp"))
    sim = TruthSimulator(
        window.sample_states(4, stream(5, 0, "truth-init")),
        DynamicsConfig(),
        sensor_cfg,
        EventSchedule(deaths={8: 2}, births={14: 3}, miss_region=window.region, miss_cycle=6),
        stream(5, 0, "truth-motion"),
        stream(5, 0, "scan"),
        stream(5, 0, "events"),
    )
    worst = 0.0
    for t in range(20):
        _, _, scan = sim.step()
        rec_d = dpp.step(scan)
        rec_p = ppp.step(scan)
        worst = max(worst, abs(rec_d.gamma - rec_p.gamma))
    elapsed = time.perf_counter() - t0
    report(
        4,
        worst <= 1e-6 and elapsed < 10.0,
        f"20-step zero-interaction run: max count gap {worst:.2e} (tol 1e-6), {elapsed:.1f}s",
    )


# -- 5. Negative correlation / spooky stability --------------------------------


def test_criterion_5_spooky_negative_correlation():
    t0 = time.perf_counter()
    cfg = preset("spooky")
    assert cfg.mc_runs == 20 and cfg.steps == 30
    res = run_experiment(cfg, threads=2)
    corrs = [r["corr_AB"] for r in res.rows if r["corr_AB"] is not None]
    max_corr = max(corrs)
    steps = sorted({r["t"] for r in res.rows})
    a_mean = {
        t: float(np.mean([r["count_A"] for r in res.rows if r["t"] == t])) for t in steps
    }
    cycle = cfg.schedule.miss_cycle
    miss_steps = [t for t in steps if t % cycle == 0]
    settled = [t for t in steps if t >= cycle]
    miss_mean = float(np.mean([a_mean[t] for t in settled if t in miss_steps]))
    other_mean = float(np.mean([a_mean[t] for t in settled if t not in miss_steps]))
    rel = abs(miss_mean - other_mean) / other_mean
    elapsed = time.perf_counter() - t0
    report(
        5,
        max_corr <= 0.0 and rel < 0.15 and elapsed < 300.0,
        f"max corr {max_corr:.3e} (<= 0), domain-A miss-cycle shift {100 * rel:.1f}%"
        f" (< 15%), {len(corrs)} recorded correlations, {elapsed:.0f}s (< 300s)",
    )


# -- 6. Repulsion degradation ---------------------------------------------------


def test_criterion_6_repulsion_degradation():
    t0 = time.perf_counter()
    cfg = preset("repulsion-bias")
    assert cfg.mc_runs == 30 and cfg.steps == 20 and cfg.filter == "ppp"

    def count_errors(zeta):
        run_cfg = replace(
            cfg, dynamics=replace(cfg.dynamics, zeta_x=zeta, zeta_y=zeta)
        )
        res = run_experiment(run_cfg, threads=2)
        errs = np.zeros(cfg.mc_runs)
        for run in range(cfg.mc_runs):
            rows = [r for r in res.rows if r["run"] == run and r["t"] > 3]
            errs[run] = float(
                np.mean([abs(r["count_estimate"] - r["count_truth"]) for r in rows])
            )
        return errs

    err0 = count_errors(0.0)
    err8 = count_errors(8.0)
    tstat = stats.ttest_rel(err8, err0, alternative="greater")
    elapsed = time.perf_counter() - t0
    report(
        6,
        float(np.mean(err8)) > float(np.mean(err0))
        and tstat.pvalue < 0.05
        and elapsed < 300.0,
        f"PPP count error zeta=8: {np.mean(err8):.2f} vs zeta=0: {np.mean(err0):.2f}, "
        f"paired one-sided p = {tstat.pvalue:.2e} (< 0.05), {elapsed:.0f}s",
    )


# -- 7. Kernel invariant suite ---------------------------------------------------


def test_criterion_7_kernel_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    # compact geometry: every particle pair shares measurement support, the
    # regime in which the square-root radicand should rarely go negative
    window = Window(Region(-12.0, 12.0, -12.0, 12.0), -2.0, 2.0, -math.pi, math.pi)
    sensor_cfg = SensorConfig(
        sigma_range=5.0, sigma_bearing=math.pi, p_d=0.85, clutter_mean=1.0, window=window
    )
    sensor = SensorModel(sensor_cfg)
    survival = SurvivalModel(0.95, DynamicsConfig(sigma_vx=0.3, sigma_vy=0.3))
    smc = SmcConfig(
        n_init=10, resample_per_target=5, birth_per_target=3, cap=40,
        roughening_scale=0.01, alpha=1.0, band_eta=0.3, gamma0=0.5,
    )
    cycles = 10_000
    clamps = 0
    offdiag = 0
    for cycle in range(cycles):
        n = int(rng.integers(6, 13))
        center = rng.uniform(-4, 4, 2)
        states = np.zeros((n, 5))
        states[:, 0] = center[0] + rng.normal(0, 3.0, n)
        states[:, 2] = center[1] + rng.normal(0, 3.0, n)
        particles = states
        eps = float(rng.uniform(0.01, 0.05))
        raw = eps * (np.eye(n) + 0.4 * np.exp(-np.abs(np.subtract.outer(range(n), range(n)))))
        kernel = project_kernel(0.5 * (raw + raw.T))
        state = FilterState(particles, kernel)
        pred = predict(state, survival, smc, window, rng)
        validate_kernel(pred.kernel)
        assert len(pred.particles) == len(pred.kernel)
        truth = np.zeros((2, 5))
        truth[0, [0, 2]] = center + rng.normal(0, 1.0, 2)
        truth[1, [0, 2]] = center + rng.normal(0, 1.0, 2)
        scan = generate_scan(truth, [0, 1], sensor_cfg, frozenset(), rng, time=cycle)
        post, diag = dpp_update(pred, scan, sensor)
        validate_kernel(post.kernel)
        assert len(post.particles) == len(post.kernel)
        clamps += diag.clamp_events
        offdiag += diag.offdiag_entries
    frac = clamps / offdiag
    elapsed = time.perf_counter() - t0
    report(
        7,
        frac < 0.05 and elapsed < 120.0,
        f"{cycles} predict/update cycles valid; sqrt clamps {clamps}/{offdiag}"
        f" = {100 * frac:.2f}% (< 5%), {elapsed:.0f}s",
    )


# -- 8. Metric correctness -------------------------------------------------------


def test_criterion_8_metric_correctness():
    t0 = time.perf_counter()
    from test_metrics import brute_ospa, lp_omat

    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(0, 6))
        m = int(rng.integers(0, 6))
        x = rng.uniform(-50, 50, (n, 2))
        y = rng.uniform(-50, 50, (m, 2))
        c = float(rng.uniform(10, 100))
        worst = max(worst, abs(ospa(x, y, c, 2.0) - brute_ospa(x, y, c, 2.0)))
        if n and m:
            worst = max(worst, abs(omat(x, y) - lp_omat(x, y, 2.0)))
    axiom_ok = True
    for _ in range(1000):
        a = rng.uniform(-20, 20, (int(rng.integers(1, 6)), 2))
        b = rng.uniform(-20, 20, (int(rng.integers(1, 6)), 2))
        c3 = rng.uniform(-20, 20, (int(rng.integers(1, 6)), 2))
        dab, dba = ospa(a, b, 25.0), ospa(b, a, 25.0)
        axiom_ok &= abs(dab - dba) < 1e-12
        axiom_ok &= dab <= ospa(a, c3, 25.0) + ospa(c3, b, 25.0) + 1e-9
    elapsed = time.perf_counter() - t0
    report(
        8,
        worst < 1e-9 and axiom_ok and elapsed < 30.0,
        f"200 brute-force comparisons worst {worst:.2e} (tol 1e-9),"
        f" axioms on 1000 triples {'ok' if axiom_ok else 'VIOLATED'}, {elapsed:.0f}s",
    )


# -- 9. Determinism ---------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = replace(preset("good-ratio"), mc_runs=4, steps=6)
    outs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 4)):
        run_experiment(cfg, out_dir=tmp_path / name, threads=threads)
        outs.append((tmp_path / name / "steps.csv").read_bytes())
    identical = outs[0] == outs[1] == outs[2]
    elapsed = time.perf_counter() - t0
    report(
        9,
        identical and elapsed < 60.0,
        f"steps.csv byte-identical across invocations and thread counts 1/4: "
        f"{identical}, {elapsed:.0f}s",
    )
