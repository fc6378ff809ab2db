import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpptrack.errors import DegenerateGeometry, ScheduleError
from dpptrack.rng import stream
from dpptrack.scenario import (
    DynamicsConfig,
    EventSchedule,
    Region,
    Scan,
    SensorConfig,
    TruthSimulator,
    TruthSpec,
    Window,
    generate_scan,
    place_targets,
    repulsion_term,
    step_dynamics,
    noise_gain,
    to_polar,
    turn_transitions,
    wrap_angle,
)


def turn_transition(theta, tau):
    """reference: the nearly-constant-turn matrix of one target, built
    entry by entry with the math module"""
    if abs(theta) < 1e-9:
        s_over, c_over = tau, 0.0
        c, s = 1.0, 0.0
    else:
        c = math.cos(tau * theta)
        s = math.sin(tau * theta)
        s_over = s / theta
        c_over = (c - 1.0) / theta
    return np.array(
        [
            [1.0, s_over, 0.0, c_over, 0.0],
            [0.0, c, 0.0, -s, 0.0],
            [0.0, c_over, 1.0, s_over, 0.0],
            [0.0, s, 0.0, c, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )


def loop_step_dynamics(states, cfg, rng):
    """reference: step_dynamics one target at a time"""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    n = states.shape[0]
    out = np.empty_like(states)
    gmat = noise_gain(cfg.tau)
    sig = np.array([cfg.sigma_vx, cfg.sigma_vy, cfg.sigma_vtheta])
    noise = rng.standard_normal((n, 3)) * sig
    rep = repulsion_term(states, cfg)
    for i in range(n):
        f = turn_transition(states[i, 4], cfg.tau)
        out[i] = f @ states[i] + gmat @ noise[i] + rep[i]
    return out


def quiet(zeta=0.0):
    return DynamicsConfig(
        tau=1.0, sigma_vx=0.0, sigma_vy=0.0, sigma_vtheta=0.0, zeta_x=zeta, zeta_y=zeta
    )


class TestDynamics:
    def test_small_angle_limit_is_straight_line(self):
        rng = np.random.default_rng(0)
        state = np.array([[10.0, 2.0, -5.0, 1.0, 0.0]])
        out = step_dynamics(state, quiet(), rng)
        np.testing.assert_allclose(out, [[12.0, 2.0, -4.0, 1.0, 0.0]], atol=1e-12)

    def test_turn_matrix_continuity_at_zero(self):
        near, exact = turn_transitions(np.array([1e-10, 0.0]), 1.0)
        np.testing.assert_allclose(near, exact, atol=1e-9)

    def test_turn_matrices_match_reference(self):
        theta = np.array([0.0, -0.0, 5e-10, -9.9e-10, 1e-9, 0.3, -2.5, 1e-6])
        for tau in (1.0, 0.5):
            stack = turn_transitions(theta, tau)
            for f, th in zip(stack, theta):
                np.testing.assert_array_equal(f, turn_transition(th, tau))

    @given(
        st.integers(min_value=0, max_value=60),
        st.sampled_from(("uniform", "zero", "tiny", "mixed")),
        st.sampled_from((1.0, 0.5, 2.0)),
        st.floats(min_value=0.0, max_value=3.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_reference_bitwise(self, n, turns, tau, zeta, seed):
        rng = np.random.default_rng(seed)
        states = rng.normal(0.0, 50.0, (n, 5))
        if turns == "zero":
            states[:, 4] = 0.0
        elif turns == "tiny":
            states[:, 4] = rng.normal(0.0, 1e-9, n)
        elif turns == "mixed":
            states[::2, 4] = 0.0
        cfg = DynamicsConfig(tau=tau, zeta_x=zeta, zeta_y=0.5 * zeta)
        got = step_dynamics(states, cfg, np.random.default_rng(seed))
        expect = loop_step_dynamics(states, cfg, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, expect)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expect))

    def test_single_target_has_no_repulsion(self):
        rng = np.random.default_rng(1)
        state = np.array([[0.0, 1.0, 0.0, -1.0, 0.1]])
        out_with = step_dynamics(state, quiet(zeta=5.0), rng)
        out_without = step_dynamics(state, quiet(), np.random.default_rng(1))
        np.testing.assert_array_equal(out_with, out_without)

    def test_symmetric_pair_repulsion(self):
        # two targets mirrored through the origin separate by zeta per axis
        states = np.array(
            [[3.0, 0.0, 4.0, 0.0, 0.0], [-3.0, 0.0, -4.0, 0.0, 0.0]]
        )
        cfg = quiet(zeta=2.0)
        rep = repulsion_term(states, cfg)
        norm = math.hypot(6.0, 8.0)
        np.testing.assert_allclose(rep[0], [2.0 * 6.0 / norm, 0, 2.0 * 8.0 / norm, 0, 0])
        np.testing.assert_allclose(rep[1], -rep[0])

    def test_speed_preserved_under_pure_turn(self):
        state = np.array([[0.0, 3.0, 0.0, 4.0, 0.7]])
        out = step_dynamics(state, quiet(), np.random.default_rng(2))
        speed = math.hypot(out[0, 1], out[0, 3])
        assert speed == pytest.approx(5.0, abs=1e-12)

    def test_coincident_targets_raise(self):
        states = np.array([[1.0, 0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0, 0.0]])
        with pytest.raises(DegenerateGeometry):
            step_dynamics(states, quiet(zeta=1.0), np.random.default_rng(3))

    def test_repulsion_magnitude_bound(self):
        rng = np.random.default_rng(4)
        states = rng.uniform(-50, 50, (6, 5))
        cfg = quiet(zeta=3.0)
        rep = repulsion_term(states, cfg)
        per_target = np.abs(rep[:, 0]) + np.abs(rep[:, 2])
        assert np.all(per_target <= (cfg.zeta_x + cfg.zeta_y) * 5 + 1e-12)


class TestScan:
    def window(self):
        return Window(Region(-100.0, 100.0, -100.0, 100.0))

    def test_empty_scan(self):
        sensor = SensorConfig(p_d=0.0, clutter_mean=0.0, window=self.window())
        scan = generate_scan(
            np.array([[3.0, 0, 4.0, 0, 0]]), [0], sensor, frozenset(), np.random.default_rng(0)
        )
        assert len(scan) == 0

    def test_exact_polar_detection(self):
        # the likelihood divides by the sigmas, so they cannot be 0
        sensor = SensorConfig(
            sigma_range=1e-12, sigma_bearing=1e-12, p_d=1.0, clutter_mean=0.0,
            window=self.window(),
        )
        scan = generate_scan(
            np.array([[3.0, 0, 4.0, 0, 0]]), [7], sensor, frozenset(), np.random.default_rng(0)
        )
        assert len(scan) == 1
        assert scan.detections[0, 0] == pytest.approx(5.0)
        assert scan.detections[0, 1] == pytest.approx(math.atan2(4.0, 3.0))
        assert scan.truth_links[0] == 7

    def test_forced_miss(self):
        sensor = SensorConfig(p_d=1.0, clutter_mean=0.0, window=self.window())
        scan = generate_scan(
            np.array([[3.0, 0, 4.0, 0, 0]]), [7], sensor, frozenset({7}),
            np.random.default_rng(0),
        )
        assert len(scan) == 0

    def test_clutter_mean_law_of_large_numbers(self):
        sensor = SensorConfig(p_d=0.0, clutter_mean=5.0, window=self.window())
        rng = np.random.default_rng(1)
        counts = [
            len(generate_scan(np.zeros((0, 5)), [], sensor, frozenset(), rng))
            for _ in range(10_000)
        ]
        assert 4.8 <= float(np.mean(counts)) <= 5.2

    def test_truth_links_partition(self):
        sensor = SensorConfig(p_d=0.7, clutter_mean=3.0, window=self.window())
        rng = np.random.default_rng(2)
        states = rng.uniform(-50, 50, (4, 5))
        scan = generate_scan(states, [0, 1, 2, 3], sensor, frozenset(), rng)
        assert scan.truth_links is not None
        for link in scan.truth_links:
            assert link == -1 or link in (0, 1, 2, 3)
        # each target contributes at most one detection
        target_links = [l for l in scan.truth_links if l >= 0]
        assert len(target_links) == len(set(target_links))

    def test_cartesian_inverts_polar(self):
        det = np.array([[5.0, math.atan2(4.0, 3.0)]])
        scan = Scan(0, det)
        np.testing.assert_allclose(scan.cartesian(), [[3.0, 4.0]], atol=1e-12)

    def test_wrap_angle(self):
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
        assert wrap_angle(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)


def simulator(schedule, n0=15, seed=0, p_d=0.9, clutter_mean=1.0):
    window = Window(Region(0.0, 100.0, 0.0, 100.0))
    sensor = SensorConfig(p_d=p_d, clutter_mean=clutter_mean, window=window)
    states = window.sample_states(n0, np.random.default_rng(seed))
    return TruthSimulator(
        states,
        DynamicsConfig(),
        sensor,
        schedule,
        stream(1, 0, "truth-motion"),
        stream(1, 0, "scan"),
        stream(1, 0, "events"),
    )


class TestSchedule:
    def test_spooky_cycle_flags(self):
        # every target stays inside the miss region, so a scan is empty
        # exactly at the forced-miss steps
        everywhere = Region(-1e6, 1e6, -1e6, 1e6)
        sim = simulator(
            EventSchedule(miss_region=everywhere, miss_cycle=10), n0=5, p_d=1.0, clutter_mean=0.0
        )
        blind = [sim.t for _ in range(50) if len(sim.step()[2]) == 0]
        assert blind == [10, 20, 30, 40, 50]

    def test_death_count_validated(self):
        sim = simulator(EventSchedule(deaths={9: 10}), n0=15)
        for _ in range(9):
            _, ids, _ = sim.step()
        assert len(ids) == 5
        sim = simulator(EventSchedule(deaths={9: 10}), n0=5)
        for _ in range(8):
            sim.step()
        with pytest.raises(ScheduleError, match="step 9 kills 10 targets but only 5 alive"):
            sim.step()

    def test_empty_schedule_noop(self):
        sim = simulator(EventSchedule(), n0=4)
        sensor = sim.sensor
        for _ in range(5):
            _, ids, _ = sim.step()
        assert ids == [0, 1, 2, 3]
        assert sim.sensor is sensor
        # no event drew from the events stream
        assert sim.rng_events.random() == stream(1, 0, "events").random()

    def test_clutter_change_applies_at_its_step(self):
        sim = simulator(EventSchedule(clutter_changes={2: 0.0}), n0=3, clutter_mean=50.0)
        _, _, scan1 = sim.step()
        assert -1 in scan1.truth_links
        _, _, scan2 = sim.step()
        assert -1 not in scan2.truth_links
        assert sim.sensor.clutter_mean == 0.0
        assert len(sim.step()[2]) <= 3  # the change lasts


class TestTruthSimulator:
    def test_deaths_reduce_population(self):
        sim = simulator(EventSchedule(deaths={9: 10}))
        counts = {}
        for _ in range(12):
            states, ids, _ = sim.step()
            counts[sim.t] = len(ids)
        assert counts[8] == 15
        assert counts[9] == 5
        assert counts[12] == 5

    def test_births_extend_population_with_new_ids(self):
        sim = simulator(EventSchedule(births={10: 9}), n0=1)
        for _ in range(10):
            states, ids, _ = sim.step()
        assert len(ids) == 10
        assert len(set(ids)) == 10

    def test_births_are_placed_centrally_from_the_events_stream(self):
        birth_region = Region(40.0, 60.0, 10.0, 30.0)
        sim = simulator(EventSchedule(births={1: 4}, birth_region=birth_region, birth_spread=5.0))
        states, ids, _ = sim.step()
        expect = place_targets(birth_region, 4, "central", 5.0, 1.0, stream(1, 0, "events"))
        np.testing.assert_array_equal(states[-4:], expect)
        assert ids[-4:] == [15, 16, 17, 18]

    def test_miss_region_blinds_targets_inside(self):
        region = Region(0.0, 100.0, 0.0, 100.0)
        sim = simulator(
            EventSchedule(miss_region=region, miss_cycle=2), n0=10, seed=3, p_d=1.0,
            clutter_mean=0.0,
        )
        _, ids1, scan1 = sim.step()  # t = 1, no forced miss
        _, ids2, scan2 = sim.step()  # t = 2, all inside blinded
        inside2 = region.contains_states(sim.states)
        assert len(scan2) == int((~inside2).sum())
        assert len(scan1) == len(ids1)


class TestPlacement:
    REGION = Region(100.0, 140.0, -20.0, 0.0)

    def test_draws_x_y_vx_vy_in_order(self):
        for placement in ("central", "uniform"):
            got = place_targets(self.REGION, 3, placement, 4.0, 0.5, np.random.default_rng(7))
            rng = np.random.default_rng(7)
            if placement == "central":
                x = 120.0 + rng.uniform(-4.0, 4.0, 3)
                y = -10.0 + rng.uniform(-4.0, 4.0, 3)
            else:
                x = rng.uniform(100.0, 140.0, 3)
                y = rng.uniform(-20.0, 0.0, 3)
            vx, vy = rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3)
            np.testing.assert_array_equal(got, np.column_stack([x, vx, y, vy, np.zeros(3)]))

    def test_initial_states_place_each_group_in_turn(self):
        other = Region(0.0, 10.0, 0.0, 10.0)
        spec = TruthSpec(groups=((self.REGION, 2), (other, 0), (other, 3)), placement="uniform")
        rng = np.random.default_rng(8)
        expect = np.vstack(
            [place_targets(r, n, "uniform", 15.0, 1.0, rng) for r, n in spec.groups]
        )
        np.testing.assert_array_equal(spec.initial_states(np.random.default_rng(8)), expect)
        assert TruthSpec(groups=()).initial_states(rng).shape == (0, 5)


REGION = Region(0.0, 50.0, 0.0, 50.0)

# (label, message, build) of values that used to crash a run part-way, or
# that a run silently misread
BAD_VALUES = [
    ("zeta_x nan", "zeta_x", lambda: DynamicsConfig(zeta_x=math.nan)),
    ("zeta_y inf", "zeta_x", lambda: DynamicsConfig(zeta_y=math.inf)),
    ("inverted window region", "region bounds", lambda: Region(175.0, -25.0, -25.0, 175.0)),
    ("inverted y bounds", "region bounds", lambda: Region(0.0, 1.0, 1.0, 0.0)),
    ("nan bound", "region bounds", lambda: Region(math.nan, 1.0, 0.0, 1.0)),
    ("infinite bound", "region bounds", lambda: Region(0.0, math.inf, 0.0, 1.0)),
    ("inverted speed", "speed and turn", lambda: Window(REGION, speed_min=2.0, speed_max=-2.0)),
    ("inverted turn", "speed and turn", lambda: Window(REGION, turn_min=0.3)),
    ("nan speed", "speed and turn", lambda: Window(REGION, speed_max=math.nan)),
    ("placement centre", "placement", lambda: TruthSpec(((REGION, 2),), placement="centre")),
    ("nan spread", "spread and speed", lambda: TruthSpec(((REGION, 2),), spread=math.nan)),
    ("negative speed", "spread and speed", lambda: TruthSpec(((REGION, 2),), speed=-1.0)),
    ("negative group", "group counts", lambda: TruthSpec(((REGION, 2), (REGION, -1)))),
    ("negative deaths", "deaths and births", lambda: EventSchedule(deaths={9: -1})),
    ("negative births", "deaths and births", lambda: EventSchedule(births={3: -2})),
    ("negative clutter", "clutter_changes", lambda: EventSchedule(clutter_changes={10: -1.0})),
    ("nan clutter", "clutter_changes", lambda: EventSchedule(clutter_changes={10: math.nan})),
    ("negative miss_cycle", "miss_cycle", lambda: EventSchedule(miss_cycle=-1)),
    ("nan birth_spread", "birth_spread", lambda: EventSchedule(birth_spread=math.nan)),
    ("negative birth_spread", "birth_spread", lambda: EventSchedule(birth_spread=-1.0)),
    # the clutter density divides by the window area
    (
        "flat window",
        "positive area",
        lambda: SensorConfig(window=Window(Region(-50.0, 150.0, 10.0, 10.0))),
    ),
    (
        "thin window",
        "positive area",
        lambda: SensorConfig(window=Window(Region(5.0, 5.0, 0.0, 1.0))),
    ),
    # events that never fire: the first step is 1, and a miss needs both
    ("deaths at step 0", "event steps", lambda: EventSchedule(deaths={0: 10, 40: 3})),
    ("births at step 0", "event steps", lambda: EventSchedule(births={0: 2})),
    ("clutter at step -1", "event steps", lambda: EventSchedule(clutter_changes={-1: 1.0})),
    ("miss_cycle alone", "set together", lambda: EventSchedule(miss_cycle=2)),
    ("miss_region alone", "set together", lambda: EventSchedule(miss_region=REGION)),
]


@pytest.mark.parametrize(
    "message, build", [v[1:] for v in BAD_VALUES], ids=[v[0] for v in BAD_VALUES]
)
def test_bad_truth_window_and_schedule_values_are_refused_when_built(message, build):
    with pytest.raises(ValueError, match=message):
        build()


def test_polar_transform_vectorized():
    states = np.array([[3.0, 0, 4.0, 0, 0], [0.0, 0, -2.0, 0, 0]])
    polar = to_polar(states)
    np.testing.assert_allclose(polar[0], [5.0, math.atan2(4, 3)])
    np.testing.assert_allclose(polar[1], [2.0, -math.pi / 2])
