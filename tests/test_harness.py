import configparser
import hashlib
import io
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from dpptrack import harness
from dpptrack.cli import main as cli_main
from dpptrack.dpp_filter import DppPhdFilter
from dpptrack.errors import ConfigError, UnknownPreset
from dpptrack.harness import (
    PRESET_NAMES,
    ExperimentConfig,
    TruthSpec,
    blas_thread_counts,
    config_from_ini,
    config_to_ini,
    flat_fields,
    peak_rss_mb,
    preset,
    run_experiment,
)
from dpptrack.scenario import (
    DynamicsConfig,
    EventSchedule,
    Region,
    SensorConfig,
    Window,
)
from dpptrack.smc import SmcConfig


def tiny_config(filter_name="ppp", runs=2, steps=3, seed=99):
    dom = Region(-40.0, 40.0, -40.0, 40.0)
    window = Window(Region(-60.0, 60.0, -60.0, 60.0), -2.0, 2.0, -math.pi, math.pi)
    return ExperimentConfig(
        name="tiny",
        steps=steps,
        mc_runs=runs,
        seed=seed,
        filter=filter_name,
        dynamics=DynamicsConfig(),
        filter_dynamics=DynamicsConfig(),
        sensor=SensorConfig(p_d=0.9, clutter_mean=1.0, window=window),
        truth=TruthSpec(groups=((dom, 2),), placement="uniform", speed=0.5),
        schedule=EventSchedule(),
        smc=SmcConfig(
            n_init=60, resample_per_target=10, birth_per_target=5, cap=120,
            roughening_scale=0.01, alpha=4.0 if filter_name != "ppp" else 0.0,
            gamma0=1.0,
        ),
        domains=(Region(-40.0, 0.0, -40.0, 40.0), Region(0.0, 40.0, -40.0, 40.0)),
    )


class TestConfigRoundtrip:
    @pytest.mark.parametrize(
        "name, full",
        [(name, full) for name in PRESET_NAMES for full in (False, True)],
        ids=[f"{name}-{scale}" for name in PRESET_NAMES for scale in ("desk", "full")],
    )
    def test_ini_roundtrip_preserves_everything(self, name, full):
        cfg = preset(name, full)
        text = config_to_ini(cfg)
        back = config_from_ini(text)
        assert back == cfg

    @pytest.mark.parametrize("key", ["steps", "mc_runs", "seed"])
    def test_missing_required_key_raises(self, key):
        text = config_to_ini(preset("spooky"))
        line = next(x for x in text.splitlines(keepends=True) if x.startswith(f"{key} = "))
        with pytest.raises(ConfigError, match=key):
            config_from_ini(text.replace(line, ""))

    def test_missing_key_takes_the_dataclass_default(self):
        cfg = preset("spooky")
        text = config_to_ini(cfg).replace(f"cap = {cfg.smc.cap}\n", "")
        assert config_from_ini(text) == replace(cfg, smc=replace(cfg.smc, cap=SmcConfig().cap))
        assert SmcConfig().cap == 1000

    def test_missing_window_velocity_keys_take_the_window_defaults(self):
        cfg = preset("spooky")
        text = config_to_ini(cfg)
        window = cfg.sensor.window
        for line in (
            f"speed = {window.speed_min!r} {window.speed_max!r}\n",
            f"turn = {window.turn_min!r} {window.turn_max!r}\n",
        ):
            assert text.count(line) == 1
            text = text.replace(line, "")
        back = config_from_ini(text)
        assert back.sensor.window == Window(window.region)
        assert back == replace(cfg, sensor=replace(cfg.sensor, window=Window(window.region)))

    @pytest.mark.parametrize(
        "cls",
        [ExperimentConfig, DynamicsConfig, SensorConfig, SmcConfig, TruthSpec, EventSchedule],
        ids=lambda cls: cls.__name__,
    )
    def test_codec_skips_only_the_nested_fields(self, cls):
        # a field of a type the codec cannot write would drop out of the
        # meta.txt config echo and the build id
        nested = {
            ExperimentConfig: {
                "dynamics", "filter_dynamics", "sensor", "truth", "schedule", "smc", "domains"
            },
            SensorConfig: {"window"},
            TruthSpec: {"groups"},
        }.get(cls, set())
        flat = {f.name for f, _codec in flat_fields(cls)}
        assert {f.name for f in fields(cls)} - flat == nested

    def test_roundtrip_with_schedule_dicts(self):
        cfg = preset("death")
        back = config_from_ini(config_to_ini(cfg))
        assert back.schedule.deaths == {9: 10}
        assert back.schedule.clutter_changes == {10: 0.3}
        assert back == cfg

    def test_bad_config_raises(self):
        with pytest.raises(ConfigError):
            config_from_ini("[experiment]\nname = broken\n")

    def test_percent_signs_roundtrip_through_the_meta_echo(self, tmp_path):
        cfg = replace(tiny_config(runs=1, steps=1), notes="P_d 90% run, 100%% sure, %(name)s")
        run_experiment(cfg, out_dir=tmp_path)
        echo = (tmp_path / "meta.txt").read_text().split("\n# config echo\n", 1)[1]
        assert config_from_ini(echo) == cfg

    def test_validation(self):
        with pytest.raises(ConfigError):
            tiny_config(runs=0)
        with pytest.raises(ConfigError):
            replace(tiny_config(), filter="bogus")


# (INI section, field, value) that would crash a run part-way: a zero sigma
# divides by zero in the likelihood, NaN passes every < check, and a bad
# OSPA cutoff or order fails only at the first scored step.
BAD_FIELDS = [
    ("sensor", "sigma_range", 0.0),
    ("sensor", "sigma_bearing", 0.0),
    ("sensor", "sigma_range", math.nan),
    ("sensor", "sigma_bearing", math.inf),
    ("sensor", "clutter_mean", math.nan),
    ("dynamics", "tau", math.nan),
    ("dynamics", "sigma_vx", math.nan),
    ("filter_dynamics", "sigma_vtheta", math.inf),
    ("smc", "alpha", math.nan),
    ("smc", "gamma0", math.nan),
    ("smc", "roughening_scale", math.nan),
    ("smc", "gamma0", math.inf),
    ("experiment", "seed", -1),
    ("experiment", "ospa_c", 0.0),
    ("experiment", "ospa_c", math.nan),
    ("experiment", "ospa_c", math.inf),
    ("experiment", "ospa_p", 0.5),
    ("experiment", "ospa_p", math.nan),
]


bad_fields = pytest.mark.parametrize(
    "section, name, value", BAD_FIELDS, ids=[f"{s}.{n}={v!r}" for s, n, v in BAD_FIELDS]
)


class TestRangeChecks:
    @bad_fields
    def test_refused_when_built(self, section, name, value):
        cfg = preset("spooky")
        owner = cfg if section == "experiment" else getattr(cfg, section)
        error = ConfigError if section == "experiment" else ValueError
        with pytest.raises(error, match=name):
            replace(owner, **{name: value})

    @bad_fields
    def test_refused_from_ini(self, section, name, value):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(config_to_ini(preset("spooky")))
        cp[section][name] = repr(value)
        buf = io.StringIO()
        cp.write(buf)
        with pytest.raises(ConfigError, match=name):
            config_from_ini(buf.getvalue())


# (INI section, key, text, message) of truth, window and schedule values
# that used to fail only part-way through a run, or never
BAD_LAYOUT = [
    ("dynamics", "zeta_x", "nan", "zeta_x"),
    ("filter_dynamics", "zeta_y", "inf", "zeta_x"),
    ("sensor", "window", "175.0 -25.0 -25.0 175.0", "region bounds"),
    ("sensor", "window", "nan 175.0 -25.0 175.0", "region bounds"),
    ("sensor", "speed", "2.0 -2.0", "speed and turn"),
    ("sensor", "turn", "0.2 nan", "speed and turn"),
    ("truth", "groups", "0.0 50.0 0.0 50.0:-1", "group counts"),
    ("truth", "placement", "centre", "placement"),
    ("truth", "spread", "nan", "spread and speed"),
    ("truth", "speed", "-1.0", "spread and speed"),
    ("schedule", "miss_region", "150.0 100.0 100.0 150.0", "region bounds"),
    ("schedule", "miss_cycle", "-1", "miss_cycle"),
    ("schedule", "deaths", "9:-1", "deaths and births"),
    ("schedule", "births", "3:-2", "deaths and births"),
    ("schedule", "clutter_changes", "10:-1.0", "clutter_changes"),
    ("schedule", "clutter_changes", "10:nan", "clutter_changes"),
    ("schedule", "birth_spread", "nan", "birth_spread"),
    ("domains", "a", "0.0 50.0 50.0 0.0", "region bounds"),
    ("sensor", "window", "-50.0 150.0 10.0 10.0", "positive area"),
    ("schedule", "deaths", "0:10;40:3", "event steps"),
    ("schedule", "clutter_changes", "0:1.0", "event steps"),
    ("schedule", "miss_region", "", "set together"),
    ("schedule", "miss_cycle", "0", "set together"),
]


class TestLayoutChecks:
    @pytest.mark.parametrize(
        "schedule",
        [dict(clutter_changes={10: -1.0}), dict(deaths={9: -1}), dict(deaths={0: 10, 40: 3})],
        ids=["clutter_changes", "deaths", "deaths at step 0"],
    )
    def test_death_schedule_refused_when_built(self, schedule):
        cfg = replace(preset("death"), filter="ppp", mc_runs=1, steps=12)
        with pytest.raises(ValueError):
            replace(cfg, schedule=replace(cfg.schedule, **schedule))

    @pytest.mark.parametrize(
        "section, key, text, message",
        BAD_LAYOUT,
        ids=[f"{s}.{k}={t}" for s, k, t, _m in BAD_LAYOUT],
    )
    def test_refused_from_ini(self, section, key, text, message):
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(config_to_ini(preset("spooky")))
        cp[section][key] = text
        buf = io.StringIO()
        cp.write(buf)
        with pytest.raises(ConfigError, match=message):
            config_from_ini(buf.getvalue())


class TestUnknownKeys:
    def test_misspelled_key_is_refused(self):
        text = config_to_ini(preset("spooky"))
        assert text.count("birth_per_target = 10\n") == 1
        bad = text.replace("birth_per_target = 10\n", "birth_per_targt = 3\n")
        with pytest.raises(ConfigError, match=r"unknown key 'birth_per_targt' in \[smc\]"):
            config_from_ini(bad)

    def test_unknown_section_is_refused(self):
        text = config_to_ini(preset("spooky")) + "[smcc]\nalpha = 0.0\n"
        with pytest.raises(ConfigError, match=r"unknown key 'alpha' in \[smcc\]"):
            config_from_ini(text)

    @pytest.mark.parametrize("section", ["experiment", "sensor", "truth", "domains"])
    def test_a_key_of_another_section_is_refused(self, section):
        text = config_to_ini(preset("spooky"))
        bad = text.replace(f"[{section}]\n", f"[{section}]\ncap = 500\n")
        with pytest.raises(ConfigError, match=rf"unknown key 'cap' in \[{section}\]"):
            config_from_ini(bad)


# sha256[:16] of each preset's config echo, (desk, full).  A change that
# moves a preset on purpose updates its digests here.
ECHO_DIGESTS = {
    "spooky": ("de2ee9bc42b864b5", "9227b89dcdc64dcc"),
    "death": ("56380b7e2f68edeb", "1f92df80d3f4b54c"),
    "birth": ("1a1fd6d08d9f02ed", "d3b401f609d1dfda"),
    "repulsion-bias": ("62bee0814fb2f5c8", "e801c2e53b8bbbc4"),
    "good-ratio": ("ab2df5f0311c5a82", "4b9521741fcb0b14"),
}


class TestPresets:
    @pytest.mark.parametrize(
        "name, full",
        [(name, full) for name in PRESET_NAMES for full in (False, True)],
        ids=[f"{name}-{scale}" for name in PRESET_NAMES for scale in ("desk", "full")],
    )
    def test_config_echo_is_pinned(self, name, full):
        echo = config_to_ini(preset(name, full))
        assert hashlib.sha256(echo.encode()).hexdigest()[:16] == ECHO_DIGESTS[name][full]

    def test_all_presets_construct(self):
        for name in ("spooky", "death", "birth", "repulsion-bias", "good-ratio"):
            cfg = preset(name)
            assert cfg.mc_runs >= 1

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("nope")

    def test_full_flag_restores_budgets(self):
        desk = preset("spooky")
        full = preset("spooky", full=True)
        assert full.mc_runs > desk.mc_runs
        assert full.smc.n_init > desk.smc.n_init

    def test_expected_parameters(self):
        death = preset("death")
        assert death.schedule.deaths == {9: 10}
        assert death.sensor.p_d == 0.95
        birth = preset("birth")
        assert birth.schedule.births == {10: 9}
        assert birth.steps == 45
        good = preset("good-ratio")
        assert good.sensor.p_d == 1.0
        assert good.sensor.clutter_mean == 0.0


class TestRunExperiment:
    def test_rows_and_summary_consistent(self, tmp_path):
        cfg = tiny_config()
        res = run_experiment(cfg, out_dir=tmp_path / "out")
        assert len(res.rows) == cfg.mc_runs * cfg.steps
        steps_csv = (tmp_path / "out" / "steps.csv").read_text().strip().split("\n")
        assert len(steps_csv) == 1 + len(res.rows)
        summary = (tmp_path / "out" / "summary.csv").read_text().strip().split("\n")
        header = summary[0].split(",")
        i_mean = header.index("count_estimate_mean")
        first = summary[1].split(",")
        t = int(first[1])
        vals = [r["count_estimate"] for r in res.rows if r["t"] == t]
        assert float(first[i_mean]) == pytest.approx(float(np.mean(vals)), rel=1e-12)
        meta = (tmp_path / "out" / "meta.txt").read_text()
        assert "build id" in meta and "seed = 99" in meta
        # 0 would mean BLAS ran unpinned: no OpenBLAS thread control was found
        assert f"openblas libraries pinned = {len(blas_thread_counts())}\n" in meta
        # no DPP update ran, so there is no off-diagonal scale to average
        assert "mean offdiag scale = n/a\n" in meta
        assert "clipped diagonal mass = 0\n" in meta
        # the process's peak memory, outside the config echo
        rss = [line for line in meta.split("\n# config echo\n")[0].splitlines()
               if line.startswith("peak rss mb = ")]
        assert len(rss) == 1 and 0.0 < float(rss[0].split(" = ")[1]) <= peak_rss_mb() + 0.05

    @pytest.mark.parametrize("name", ["spooky", "birth"])
    @pytest.mark.parametrize("runs", [1, 3])
    def test_summary_cells_are_the_per_group_reductions(self, tmp_path, name, runs):
        # spooky leaves corr_AB out of some DPP rows; birth also leaves out
        # omat and good_ratio where a filter reports no estimate
        res = run_experiment(replace(preset(name), mc_runs=runs, filter="both"), out_dir=tmp_path)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        groups: dict = {}
        for row in res.rows:
            groups.setdefault((row["filter"], row["t"]), []).append(row)
        assert len(lines) == 1 + len(groups)
        missing = set()
        for line, key in zip(lines[1:], sorted(groups)):
            cells = dict(zip(header, line.split(",")))
            assert (cells["filter"], int(cells["t"])) == key
            for metric in harness.CSV_COLUMNS[3:]:
                vals = [r[metric] for r in groups[key] if r[metric] is not None]
                if len(vals) < runs:
                    missing.add(metric)
                expect = ["", ""]
                if vals:
                    arr = np.asarray(vals, dtype=float)
                    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
                    expect = [repr(float(arr.mean())), repr(sd)]
                assert [cells[f"{metric}_mean"], cells[f"{metric}_sd"]] == expect
        assert {"corr_AB"} <= missing
        if name == "birth":
            assert {"omat", "good_ratio"} <= missing

    def test_meta_aggregates_the_posterior_map(self, tmp_path, monkeypatch):
        scales, clipped = [], []
        step = DppPhdFilter.step

        def recorded_step(self, scan):
            rec = step(self, scan)
            scales.append(rec.diagnostics.offdiag_scale)
            clipped.append(rec.diagnostics.clipped_mass)
            return rec

        monkeypatch.setattr(DppPhdFilter, "step", recorded_step)
        res = run_experiment(tiny_config("dpp"), out_dir=tmp_path / "out")
        assert len(scales) == 2 * 3
        assert all(0.0 <= t <= 1.0 for t in scales)
        assert res.offdiag_scale_mean == pytest.approx(float(np.mean(scales)), rel=1e-12)
        assert res.clipped_mass == pytest.approx(sum(clipped), abs=1e-15)
        meta = (tmp_path / "out" / "meta.txt").read_text()
        assert f"mean offdiag scale = {res.offdiag_scale_mean:.6f}\n" in meta
        assert f"clipped diagonal mass = {res.clipped_mass:.6g}\n" in meta

    @pytest.mark.parametrize(
        "cfg",
        [
            tiny_config(runs=3),
            # enough particles that the kernel eigendecompositions reach
            # threaded BLAS, whose rounding follows the BLAS thread count: the
            # serial path and the pool workers must both run on one thread
            replace(
                tiny_config("dpp", runs=2, steps=6),
                smc=replace(tiny_config("dpp").smc, n_init=300, cap=500),
            ),
        ],
        ids=["ppp", "dpp"],
    )
    def test_determinism_across_invocations_and_threads(self, tmp_path, cfg):
        before = blas_thread_counts()
        run_experiment(cfg, out_dir=tmp_path / "a", threads=1)
        run_experiment(cfg, out_dir=tmp_path / "b", threads=1)
        run_experiment(cfg, out_dir=tmp_path / "c", threads=2)
        a = (tmp_path / "a" / "steps.csv").read_bytes()
        b = (tmp_path / "b" / "steps.csv").read_bytes()
        c = (tmp_path / "c" / "steps.csv").read_bytes()
        assert a == b == c
        assert blas_thread_counts() == before

    def test_scoring_never_feeds_back_into_the_filters(self, monkeypatch):
        cfg = replace(preset("spooky"), filter="both", mc_runs=2, steps=12)
        scored = run_experiment(cfg).rows
        monkeypatch.setattr(harness, "extract_estimates", lambda *args: np.zeros((0, 2)))
        unscored = run_experiment(cfg).rows
        assert any(r["ospa"] < cfg.ospa_c for r in scored)
        assert all(r["ospa"] == cfg.ospa_c for r in unscored)
        columns = ("count_estimate", "count_A", "count_B", "corr_AB")
        assert [[r[c] for c in columns] for r in unscored] == [
            [r[c] for c in columns] for r in scored
        ]
        assert any(r["corr_AB"] is not None for r in scored)

    def test_domain_counts_sum_the_state_intensity(self, monkeypatch):
        made = []
        make = harness._make_filters

        def recorded_make(*args):
            made.append(make(*args))
            return made[-1]

        monkeypatch.setattr(harness, "_make_filters", recorded_make)
        # by step 3 both filters have particles in both domains
        cfg = replace(preset("spooky"), filter="both", steps=3)
        rows = [r for r in harness.run_single(cfg, 0).rows if r["t"] == 3]
        (filters,) = made
        assert [r["filter"] for r in rows] == ["dpp", "ppp"]
        for row in rows:
            state = filters[row["filter"]].state
            for column, region in zip(("count_A", "count_B"), cfg.domains):
                inside = [
                    mass
                    for (x, _, y, _, _), mass in zip(state.states, state.intensity)
                    if region.x_min <= x <= region.x_max and region.y_min <= y <= region.y_max
                ]
                assert len(inside) > 0
                assert row[column] == pytest.approx(math.fsum(inside), rel=1e-12)

    def test_both_filters_report_rows(self, tmp_path):
        cfg = tiny_config(filter_name="both", runs=1, steps=2)
        cfg = replace(cfg, smc=replace(cfg.smc, alpha=4.0))
        res = run_experiment(cfg)
        filters = {r["filter"] for r in res.rows}
        assert filters == {"dpp", "ppp"}
        # dpp rows carry correlation where defined, ppp rows never do
        assert all(r["corr_AB"] is None for r in res.rows if r["filter"] == "ppp")


class TestCli:
    def test_version(self, capsys):
        assert cli_main(["version"]) == 0
        assert capsys.readouterr().out.strip()

    def test_oracle_check(self, capsys):
        assert cli_main(["oracle-check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert "interaction transform" in out

    def test_interaction_check_catches_a_perturbed_transform(self, monkeypatch):
        from dpptrack import checks

        exact = checks.interaction_kernel

        def perturbed(kernel):
            return exact(kernel) * (1.0 + 1e-8)

        monkeypatch.setattr(checks, "interaction_kernel", perturbed)
        passed, msg = checks.check_interaction_transform()
        assert not passed and "interaction transform" in msg

    def test_run_with_config_file(self, tmp_path, capsys):
        cfg = tiny_config()
        path = tmp_path / "exp.ini"
        path.write_text(config_to_ini(cfg))
        rc = cli_main(
            ["run", "--config", str(path), "--out", str(tmp_path / "out"), "--runs", "1"]
        )
        assert rc == 0
        assert (tmp_path / "out" / "steps.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "meta.txt").exists()

    def test_run_requires_source(self, capsys):
        assert cli_main(["run", "--out", "/tmp/nowhere"]) == 2
        assert capsys.readouterr().err == "error: provide --config or --preset\n"

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--preset", "spooky", "--runs", "0"], "mc_runs must be >= 1"),
            (["--preset", "nosuch"], "unknown preset 'nosuch'"),
            (["--config", "missing.ini"], "No such file or directory"),
            (["--preset", "spooky", "--runs", "1", "--seed", "-1"], "seed must be >= 0"),
            (["--config", "missing.ini", "--full"], "--full needs --preset"),
            (["--config", "missing.ini", "--threads", "0"], "--threads must be >= 1"),
        ],
    )
    def test_config_errors_exit_2_without_a_traceback(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        assert cli_main(["run", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_config_and_preset_exclude_each_other(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(config_to_ini(tiny_config()))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--config", str(path), "--preset", "spooky", "--out", str(out)])
        assert exc.value.code == 2
        assert "not allowed with argument --config" in capsys.readouterr().err
        assert not out.exists()

    def test_a_failing_run_still_raises(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ConfigError("raised inside the run")

        monkeypatch.setattr(harness, "run_experiment", broken)
        with pytest.raises(ConfigError, match="raised inside the run"):
            cli_main(["run", "--preset", "spooky", "--out", str(tmp_path / "out")])
