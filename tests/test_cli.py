import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import qpskrx
from qpskrx.cli import NUMBER_FLAGS, RUNNERS, main, run
from qpskrx.config import MODES, SEED_LIMIT, ConfigError, RunConfig, load_config


class TestLoadConfig:
    def test_defaults_mirror_experiment(self):
        cfg = load_config()
        assert cfg.eta_t == 0.90
        assert cfg.eta_spd == 0.73
        assert cfg.xi == 0.996
        assert cfg.nu_per_state == 9.1e-3
        assert cfg.t_total_us == 200.0
        assert cfg.dt_us == 1.1
        assert cfg.m == 10

    def test_discard_multiplier_reference_values(self):
        cfg = load_config()
        assert 1 - cfg.discard_multiplier(10) == pytest.approx(0.0495, abs=1e-12)
        assert 1 - cfg.discard_multiplier(4) == pytest.approx(0.0165, abs=1e-12)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"xi": 0.99, "bogus_key": 1}))
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(str(path))

    def test_unknown_override_keys_rejected_with_the_file_keys(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"xi": 0.99, "bogus_key": 1}))
        with pytest.raises(ConfigError, match="^unknown config keys: bogus_flag$"):
            load_config(overrides={"bogus_flag": None})
        with pytest.raises(ConfigError, match="^unknown config keys: bogus_flag, bogus_key$"):
            load_config(str(path), {"bogus_flag": 2})

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"xi": 0.99,}')
        message = f"^config file {re.escape(str(path))}: invalid JSON"
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))
        assert main(["bounds", "--config", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", "0.5", '"sweep"', "null"])
    def test_top_level_not_an_object_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="top level must be an object$"):
            load_config(str(path))

    def test_out_of_range_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"xi": 1.2}))
        with pytest.raises(ConfigError, match="xi"):
            load_config(str(path))

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 10**6}))
        cfg = load_config(str(path), {"trials": 1000})
        assert cfg.trials == 1000

    def test_seed_range(self):
        cfg = load_config(overrides={"seed": SEED_LIMIT - 1, "trials": 8, "m": 2,
                                     "alpha_sq_points": 1}, mode="sweep")
        run(cfg)  # the largest seed still keys a valid stream
        with pytest.raises(ConfigError, match="^seed:"):
            load_config(overrides={"seed": SEED_LIMIT})

    def test_bin_width_underflow_rejected(self, tmp_path, capsys):
        # 5e-324 / 10 underflows to 0.0, which the window checks then allow
        config = {"t_total_us": 5e-324, "m": 10, "t_hold_us": 0.0, "t_swing_us": 0.0,
                  "dt_us": 0.0, "dt_start_us": 0.0, "dt_stop_us": 0.0}
        with pytest.raises(ConfigError, match="^t_total_us:"):
            load_config(overrides=config)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(["delay-sweep", "--config", str(path)]) == 1
        assert "t_total_us:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.inf, math.nan,
                                       pytest.param(10 ** 400, id="int-past-float")])
    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if "float" in f.type])
    def test_non_finite_alpha_sq_rejected(self, tmp_path, capsys, name, value):
        # and every other float field, in every mode: json.dumps would echo inf
        # and nan into the CSV header, which would then not be JSON
        if name.startswith("alpha_sq"):
            message = f"{name}: must be finite and >= 0"
            runs = [{"alpha_sq_start": ["bounds", "--alpha-sq-grid", f"{value}:{value}:3"],
                     "alpha_sq_stop": ["bounds", "--alpha-sq-grid", f"0:{value}:3"],
                     "alpha_sq": ["stages-sweep", "--alpha-sq", str(value)]}[name]]
        else:
            message = f"{name}: must be finite (got"
            value = [0.73, value] if name == "eta_spd_list" else value
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({name: value}))  # written as Infinity or NaN
            runs = [[mode, "--config", str(path), "--trials", "8"] for mode in MODES]
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            load_config(overrides={name: value})
        for args in runs:
            assert main(args) == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("name, value", [
        ("trials", "5"), ("m", 4.5), ("seed", 1.5), ("seed", True), ("workers", 1.5),
        ("eta_spd_list", 0.7), ("eta_spd_list", [0.7, "0.8"]), ("eta_spd_list", [True]),
        ("truth_delay", "off"), ("truth_delay", 0), ("xi", "0.9"), ("alpha_sq", False),
        ("alpha_sq_spacing", 1)])
    def test_wrong_json_type_rejected_by_name(self, tmp_path, capsys, name, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({name: value}))
        with pytest.raises(ConfigError, match=f"^{name}: must be "):
            load_config(str(path))
        assert main(["bounds", "--config", str(path)]) == 1
        assert f"error: {name}: must be " in capsys.readouterr().err

    def test_integer_numbers_kept_as_written(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alpha_sq_start": 1, "alpha_sq_stop": 2,
                                    "alpha_sq_points": 2, "eta_spd_list": [1]}))
        assert main(["bounds", "--config", str(path)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert '"alpha_sq_start": 1,' in header
        assert '"eta_spd_list": [1],' in header

    def test_mode_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "bounds"}))
        with pytest.raises(ConfigError, match="mode"):
            load_config(str(path), mode="sweep")


class TestRun:
    def test_one_runner_per_mode(self):
        assert list(RUNNERS) == list(MODES)

    def test_bounds_mode(self):
        cfg = load_config(overrides={"alpha_sq_start": 0.0, "alpha_sq_stop": 10.0,
                                     "alpha_sq_points": 11}, mode="bounds")
        columns, rows = run(cfg)
        assert columns == ["alpha_sq", "sql", "sql_lossy", "helstrom"]
        assert len(rows) == 11
        for row in rows:
            assert row["helstrom"] <= row["sql"] <= 0.75
            assert row["sql"] <= row["sql_lossy"]

    def test_enumerate_mode_reports_attenuated_signal(self):
        cfg = load_config(overrides={"alpha_sq_start": 1.0, "alpha_sq_stop": 2.0,
                                     "alpha_sq_points": 2, "m": 5}, mode="enumerate")
        _, rows = run(cfg)
        eta_eff = cfg.eta_se * cfg.discard_multiplier(5)
        assert rows[0]["alpha_sq_detected"] == pytest.approx(eta_eff, rel=1e-12)

    def test_sweep_mode_rows_in_grid_order(self):
        cfg = load_config(overrides={"alpha_sq_start": 0.5, "alpha_sq_stop": 1.5,
                                     "alpha_sq_points": 3, "trials": 2000, "m": 4},
                          mode="sweep")
        _, rows = run(cfg)
        assert [r["alpha_sq"] for r in rows] == [0.5, 1.0, 1.5]
        for r in rows:
            assert 0.0 <= r["error_prob"] <= 1.0

    def test_stages_sweep_columns(self):
        cfg = load_config(overrides={"m_start": 3, "m_stop": 4, "trials": 2000},
                          mode="stages-sweep")
        columns, rows = run(cfg)
        assert [r["m"] for r in rows] == [3, 4]
        assert "error_prob_no_discard" in columns
        assert "error_prob_discard" in columns

    def test_delay_sweep(self):
        cfg = load_config(overrides={"alpha_sq": 3.3, "dt_start_us": 0.0,
                                     "dt_stop_us": 2.0, "dt_points": 3,
                                     "trials": 2000}, mode="delay-sweep")
        _, rows = run(cfg)
        assert [r["dt_us"] for r in rows] == [0.0, 1.0, 2.0]

    def test_efficiency_sweep(self):
        cfg = load_config(overrides={"eta_spd_list": [0.73, 1.0],
                                     "alpha_sq_start": 1.0, "alpha_sq_stop": 1.0,
                                     "alpha_sq_points": 1, "trials": 2000},
                          mode="efficiency-sweep")
        _, rows = run(cfg)
        assert [r["eta_spd"] for r in rows] == [0.73, 1.0]

    def test_monte_carlo_modes_agree_where_their_points_coincide(self):
        # the four Monte Carlo modes build their points through one pipeline and
        # share one set of common random numbers, so equal points give bitwise
        # equal estimates, whichever mode runs them
        def rows(mode, **overrides):
            cfg = load_config(overrides={"m": 10, "trials": 40_000, "seed": 7,
                                         "alpha_sq": 4.0, "alpha_sq_start": 4.0,
                                         "alpha_sq_stop": 4.0, "alpha_sq_points": 1,
                                         **overrides}, mode=mode)
            return run(cfg)[1]

        def estimate(row, suffix=""):
            return row["error_prob" + suffix], row["stderr" + suffix]

        sweep = {dt: estimate(rows("sweep", dt_us=dt)[0]) for dt in (0.0, 1.1)}
        assert sweep[0.0] != sweep[1.1]  # the discard loss shows
        for truth_delay in (True, False):
            (delay,) = rows("delay-sweep", t_hold_us=0.0, t_swing_us=0.0, dt_start_us=0.0,
                            dt_stop_us=0.0, dt_points=1, truth_delay=truth_delay)
            assert estimate(delay) == sweep[0.0]
        efficiency = rows("efficiency-sweep", eta_spd_list=[0.9, 0.73])
        assert efficiency[1]["eta_spd"] == RunConfig().eta_spd
        assert estimate(efficiency[1]) == sweep[1.1]
        (stages,) = rows("stages-sweep", m_start=10, m_stop=10)
        assert estimate(stages, "_discard") == sweep[1.1]
        assert estimate(stages, "_no_discard") == sweep[0.0]

    @pytest.mark.parametrize("mode", [m for m in RUNNERS if m != "bounds"])
    def test_one_estimator_call_per_run(self, monkeypatch, mode):
        # the exact mode runs its whole grid in one DP pass, as each Monte Carlo
        # mode runs all its points in one estimate_errors call
        from qpskrx import cli

        calls = {"enumerate_points": [], "estimate_errors": []}
        for name, calls_of in calls.items():
            def spy(points, *args, original=getattr(cli, name), calls_of=calls_of):
                calls_of.append(len(points))
                return original(points, *args)
            monkeypatch.setattr(cli, name, spy)
        cfg = load_config(overrides={"m": 3, "m_start": 3, "m_stop": 4, "trials": 8,
                                     "alpha_sq_points": 3, "dt_points": 2,
                                     "eta_spd_list": [0.73, 1]}, mode=mode)
        rows = run(cfg)[1]
        points = 2 * len(rows) if mode == "stages-sweep" else len(rows)
        grid = "enumerate_points" if mode == "enumerate" else "estimate_errors"
        assert calls == {**dict.fromkeys(calls, []), grid: [points]}

    @pytest.mark.parametrize("mode", list(RUNNERS))
    def test_rows_hold_only_numbers(self, mode):
        # render_csv formats ints and floats only: a bool would print as True
        cfg = load_config(overrides={"m": 3, "m_start": 3, "m_stop": 4, "trials": 8,
                                     "alpha_sq_points": 2, "dt_points": 2,
                                     "eta_spd_list": [0.73, 1]}, mode=mode)
        _, rows = run(cfg)
        values = [value for row in rows for value in row.values()]
        assert values and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                              for v in values)


class TestCliMain:
    def test_bounds_to_file(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--alpha-sq-grid", "0:4:5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert "np.float64" not in out.read_text()  # plain reprs only
        assert lines[0].startswith("# config=")
        assert lines[1] == "alpha_sq,sql,sql_lossy,helstrom"
        assert len(lines) == 7

    def test_roundtrip_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        rc = main(["sweep", "--alpha-sq-grid", "1:2:2", "--m", "4",
                   "--trials", "500", "--seed", "42", "--out", str(out1)])
        assert rc == 0
        header = out1.read_text().splitlines()[0]
        cfg_json = header.removeprefix("# config=")
        cfg_path = tmp_path / "echo.json"
        cfg_path.write_text(cfg_json)
        out2 = tmp_path / "b.csv"
        rc = main(["sweep", "--config", str(cfg_path), "--out", str(out2)])
        assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_mirror(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["bounds", "--alpha-sq-grid", "0:1:2", "--out", str(out), "--json"])
        assert rc == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["columns"] == ["alpha_sq", "sql", "sql_lossy", "helstrom"]
        assert len(data["rows"]) == 2

    def test_json_mirror_stays_in_the_out_directory(self, tmp_path, monkeypatch):
        # the extension is split off the file name, not off the dotted directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs.v2").mkdir()
        rc = main(["bounds", "--alpha-sq-grid", "0:1:2", "--out", "runs.v2/table", "--json"])
        assert rc == 0
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "runs.v2", "runs.v2/table", "runs.v2/table.json"]
        assert json.loads((tmp_path / "runs.v2" / "table.json").read_text())["rows"]

    def test_json_mirror_over_out_rejected(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        rc = main(["bounds", "--alpha-sq-grid", "0:1:2", "--out", str(out), "--json"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --json: ")
        assert not out.exists()

    def test_json_without_out_rejected(self, capsys):
        rc = main(["bounds", "--alpha-sq-grid", "1:2:3", "--json"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --json:" in captured.err

    @pytest.mark.parametrize("args", [
        ["bounds", "--alpha-sq-grid", "a:2:3"],
        ["bounds", "--alpha-sq-grid", "1:2:x"],
        ["bounds", "--alpha-sq-grid", "1:2"],
        ["delay-sweep", "--dt-grid", "0:1:y"],
        ["delay-sweep", "--dt-grid", "0:1:3:4"],
        ["stages-sweep", "--m-grid", "3:x"],
        ["stages-sweep", "--m-grid", "3:4:5"],
        ["efficiency-sweep", "--eta-spd-list", "0.7,x"],
        # an empty value is malformed too, not a missing flag
        ["bounds", "--alpha-sq-grid", ""],
        ["delay-sweep", "--dt-grid", ""],
        ["stages-sweep", "--m-grid", ""],
        ["efficiency-sweep", "--eta-spd-list", ""]])
    def test_malformed_flag_named(self, capsys, args):
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: {args[1]}: ")

    def test_every_number_flag_fills_its_field(self, capsys):
        values = {"--alpha-sq": "2.5", "--m": "3", "--trials": "8", "--seed": "2",
                  "--eta-t": "0.5", "--eta-spd": "0.25", "--xi": "0.75", "--nu": "0.125",
                  "--dt-us": "0.5", "--workers": "2"}
        assert set(values) == set(NUMBER_FLAGS)
        assert main(["bounds", *(x for item in values.items() for x in item)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        config = json.loads(header.removeprefix("# config="))
        expected = {field: kind(values[flag]) for flag, (field, kind) in NUMBER_FLAGS.items()}
        assert {field: config[field] for field in expected} == expected

    def test_truth_delay_flag(self, capsys):
        args = ["delay-sweep", "--m", "4", "--alpha-sq", "3.3", "--dt-grid", "0:2:3",
                "--trials", "2000"]
        outputs = {}
        for flag in ("on", "off"):
            assert main([*args, "--truth-delay", flag]) == 0
            header, *body = capsys.readouterr().out.splitlines()
            config = json.loads(header.removeprefix("# config="))
            assert config["truth_delay"] is (flag == "on")
            outputs[flag] = body
        assert outputs["on"][0] == outputs["off"][0] == "dt_us,error_prob,stderr"
        assert outputs["on"][1:] != outputs["off"][1:]

    def test_grid_spacing_checked_by_field(self, capsys):
        assert main(["bounds", "--alpha-sq-grid", "1:2:3:cubic"]) == 1
        assert capsys.readouterr().err.startswith("error: alpha_sq_spacing: ")

    @pytest.mark.parametrize("args, expected", [
        (["bounds", "--alpha-sq-grid", "1:2:3:log"],
         {"alpha_sq_start": 1.0, "alpha_sq_stop": 2.0, "alpha_sq_points": 3,
          "alpha_sq_spacing": "log"}),
        (["delay-sweep", "--dt-grid", "0:1:2", "--trials", "8"],
         {"dt_start_us": 0.0, "dt_stop_us": 1.0, "dt_points": 2}),
        (["stages-sweep", "--m-grid", "3", "--trials", "8"], {"m_start": 3, "m_stop": 3}),
        (["stages-sweep", "--m-grid", "3:4", "--trials", "8"], {"m_start": 3, "m_stop": 4}),
        (["efficiency-sweep", "--eta-spd-list", "0.7,1", "--alpha-sq-grid", "1:1:1",
          "--trials", "8"], {"eta_spd_list": [0.7, 1.0]})])
    def test_grid_flags_fill_their_fields(self, capsys, args, expected):
        assert main(args) == 0
        header = capsys.readouterr().out.splitlines()[0]
        config = json.loads(header.removeprefix("# config="))
        assert {key: config[key] for key in expected} == expected

    def test_validation_error_exit_code(self, capsys):
        rc = main(["sweep", "--xi", "1.5", "--trials", "10"])
        assert rc == 1
        assert "xi" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", [0, 1, 2, 3])
    def test_fewer_trials_than_symbols_rejected(self, capsys, trials):
        # with 2 trials two symbols got none, and P_e at zero signal read 0.5, not 0.75
        with pytest.raises(ConfigError, match="^trials: must be >= 4"):
            load_config(overrides={"trials": trials})
        rc = main(["sweep", "--alpha-sq-grid", "0:0:1", "--m", "1", "--trials", str(trials)])
        assert rc == 1
        assert "trials: must be >= 4" in capsys.readouterr().err
        assert load_config(overrides={"trials": 4}).trials == 4

    @pytest.mark.parametrize("grid", ["182:182", "150:190"])
    def test_stages_sweep_discard_checked_at_m_stop(self, capsys, grid):
        # the default 1.1 us discard window passes t_total_us / m_stop = 200 / 182 us
        assert main(["stages-sweep", "--m-grid", grid, "--trials", "8"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: dt_us: must be <= t_total_us / m_stop = ")
        assert main(["stages-sweep", "--m-grid", "181", "--trials", "8"]) == 0

    @pytest.mark.parametrize("args", [
        ["sweep", "--m", "100", "--trials", "8", "--alpha-sq-grid", "1:1:1"],
        ["stages-sweep", "--m", "100", "--m-grid", "3:4", "--trials", "8"],
        ["stages-sweep", "--m", "1000", "--m-grid", "3", "--trials", "8"],
        ["bounds", "--m", "1000", "--alpha-sq-grid", "1:1:1"]])
    def test_bin_width_unchecked_where_unread(self, capsys, args):
        # 2 us bins (0.2 us at m = 1000) are shorter than the default dt_stop_us =
        # 3 us and than hold + swing at m = 1000, but only delay-sweep reads
        # those fields, and stages-sweep and bounds do not read m
        assert main(args) == 0

    @pytest.mark.parametrize("args, error", [
        (["delay-sweep", "--m", "100", "--trials", "8"], "dt_stop_us: must be <= t_bin = 2.0"),
        (["delay-sweep", "--m", "1000", "--dt-grid", "0:0.1:2", "--trials", "8"],
         "t_swing_us: hold + swing must be <= t_bin = 0.2"),
        (["sweep", "--m", "200", "--trials", "8"], "dt_us: must be <= t_bin = 1.0"),
        (["enumerate", "--m", "200"], "dt_us: must be <= t_bin = 1.0")])
    def test_bin_width_checked_where_read(self, capsys, args, error):
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(f"error: {error} ")

    def test_huge_seed_rejected_by_name(self, capsys):
        rc = main(["sweep", "--seed", str(2 ** 126), "--trials", "10"])
        assert rc == 1
        assert "seed:" in capsys.readouterr().err

    def test_deterministic_given_seed(self, tmp_path):
        args = ["sweep", "--alpha-sq-grid", "1:1:1", "--m", "4", "--trials", "2000",
                "--seed", "9"]
        out1, out2 = tmp_path / "1.csv", tmp_path / "2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_when_no_out(self, capsys):
        rc = main(["bounds", "--alpha-sq-grid", "0:1:2"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("# config=")

    def test_import_leaves_scipy_out(self):
        # numpy is the only runtime dependency; scipy serves the tests alone
        src = Path(qpskrx.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, qpskrx.cli; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# Rendered CSV sha256 of one small config per mode.  A change that claims to
# leave the numbers alone must leave these bytes alone.  The log-likelihood
# table's dyadic grid made log-posterior sums exact, so hypotheses that tie in
# real arithmetic go to the lowest index.  The enumerate and stages-sweep
# digests and every one from delay-sweep-truth-off on moved with it; bounds,
# sweep, efficiency-sweep and delay-sweep-truth-on held.
GOLDEN_CSV = [
    # sql takes math.erf since scipy left the runtime dependencies: three
    # values moved by 2.2e-16 (sql at 1 and 2, sql_lossy at 4); helstrom takes
    # closed-form eigenvalues and pair differences: all five values moved, by
    # at most 6.1e-9 relative, and 0.0 now reads exactly 0.75
    ("bounds", {"alpha_sq_start": 0.0, "alpha_sq_stop": 4.0, "alpha_sq_points": 5},
     "84d028cf8da661ae21dd2b0736f2e2e34084463a9af4ffd5d77be9281fb8bb25"),
    # the exact DP merges on differences of outcome counts, which joins states
    # whose log-posteriors differ by a constant vector and so sums their
    # weights in another order: 2.25 moved by +8.3e-17 and 4.0 by +5.6e-17
    ("enumerate", {"m": 6, "alpha_sq_start": 0.5, "alpha_sq_stop": 4.0,
                   "alpha_sq_points": 3},
     "5638c7930e06bb27ffc695925f9e22e84ca9599890c7c104879a8680870054fa"),
    # every Monte Carlo digest below was re-recorded for the bin-major
    # PCG64DXSM stream (montecarlo.RngSpec); each row stays within 2.1 of its
    # Philox-stream value in combined standard errors
    ("sweep", {"m": 4, "alpha_sq_start": 1.0, "alpha_sq_stop": 3.0,
               "alpha_sq_points": 3, "trials": 4000, "seed": 3},
     "6579f356c03638b7d28b591c1f519e1c59bc22b7ea206a123dddda4feccb705f"),
    ("efficiency-sweep", {"m": 4, "eta_spd_list": [0.73, 1.0], "alpha_sq_start": 1.0,
                          "alpha_sq_stop": 2.0, "alpha_sq_points": 2, "trials": 3000,
                          "seed": 4},
     "fa14261deb5829475631c435fb22d5482c7ad2a88676235badde92a0613f4212"),
    ("stages-sweep", {"m_start": 3, "m_stop": 5, "alpha_sq": 3.0, "trials": 3000,
                      "seed": 5},
     "1bf8628d5db19caa2d2a85847e8a7fe53ce7b1887a37a9415f88fa4daa098652"),
    ("delay-sweep", {"m": 10, "alpha_sq": 3.3, "dt_start_us": 0.0, "dt_stop_us": 2.0,
                     "dt_points": 3, "trials": 4000, "seed": 6, "truth_delay": True},
     "530d08801daca134df94c7701b2e0ba3dd37d4ceeddf6d670ddccbc5051e1221"),
    ("delay-sweep", {"m": 10, "alpha_sq": 3.3, "dt_start_us": 0.0, "dt_stop_us": 2.0,
                     "dt_points": 3, "trials": 4000, "seed": 6, "truth_delay": False},
     "8e223e79a9a2da5a270e8e70dd3a2d59ec3623be74a68e9a698c186590eaf1bd"),
    # M = 3 to 13 in one stack per task, on two workers; the id is from the pad
    # groups (4, 8, 12 and 16) that an earlier stream layout split this grid into
    ("stages-sweep", {"m_start": 3, "m_stop": 13, "alpha_sq": 3.0, "trials": 3000,
                      "seed": 7, "workers": 2},
     "77fcfe3d47c014ddac5aaccb411ce4c8904a5981c8c9479f1a8106b1ddee9b61"),
    # 67,500 trials per symbol: two chunks, the last one short
    ("sweep", {"m": 6, "alpha_sq_start": 1.0, "alpha_sq_stop": 3.0,
               "alpha_sq_points": 3, "trials": 270_000, "seed": 8, "workers": 2},
     "70ce3516722d3d3364394f5ad9654f09d8ded1239895797ddb88db6bd70adc38"),
    # hold and swing fill the bin exactly: no settle segment
    ("delay-sweep", {"m": 13, "alpha_sq": 3.3, "t_hold_us": 0.37,
                     "t_swing_us": 15.014615384615386, "dt_start_us": 0.0,
                     "dt_stop_us": 2.0, "dt_points": 3, "trials": 4000, "seed": 10},
     "8dbd0c55ba0b22361f9f9c702050c182c4a6456e5d6a78af2d6e57e4c157eebd"),
    # the whole bin is hold: the stale phase is nulled throughout
    ("delay-sweep", {"m": 10, "alpha_sq": 3.3, "t_hold_us": 20.0, "t_swing_us": 0.0,
                     "dt_start_us": 0.0, "dt_stop_us": 2.0, "dt_points": 3,
                     "trials": 4000, "seed": 11},
     "d5d22878db49f30d354ea7936e633711e5cddfb9638f78a5eaee3226e49b4e7d"),
    ("delay-sweep", {"m": 4, "alpha_sq": 9.4, "dt_start_us": 0.0, "dt_stop_us": 2.0,
                     "dt_points": 3, "trials": 4000, "seed": 12, "truth_delay": False},
     "402cfea8caf50e80d0643a6b108330c724839bbe29de0b1e618aa306b6bee491"),
    # one discard window ends inside the hold, three inside the swing
    ("delay-sweep", {"m": 10, "alpha_sq": 3.3, "dt_start_us": 0.2, "dt_stop_us": 0.8,
                     "dt_points": 4, "trials": 4000, "seed": 13, "truth_delay": True},
     "4d1b5ba04bf943f4dbd7c06cecdc9ad7587e9db662da184850e7a87f5544b81e"),
    ("delay-sweep", {"m": 10, "alpha_sq": 3.3, "dt_start_us": 0.2, "dt_stop_us": 0.8,
                     "dt_points": 4, "trials": 4000, "seed": 13, "truth_delay": False},
     "c2c1e02f82c53ca1daecfe12457fa31a1c2d55edd5ec0d962a08a6e53130a7f8"),
]


class TestGoldenCsv:
    @pytest.mark.parametrize(
        "mode, config, digest", GOLDEN_CSV,
        ids=["bounds", "enumerate", "sweep", "efficiency-sweep", "stages-sweep",
             "delay-sweep-truth-on", "delay-sweep-truth-off",
             "stages-sweep-pad-groups", "sweep-two-chunks",
             "delay-sweep-no-settle", "delay-sweep-all-hold",
             "delay-sweep-truth-off-m4", "delay-sweep-swing-window-truth-on",
             "delay-sweep-swing-window-truth-off"])
    def test_csv_bytes(self, tmp_path, mode, config, digest):
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg_path.write_text(json.dumps(config))
        assert main([mode, "--config", str(cfg_path), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestDelayBoundary:
    def test_hold_plus_swing_filling_the_bin_runs(self, tmp_path):
        # t_bin = 200/13 us, and 0.37 + 15.014615384615386 equals it exactly in
        # floating point: the validated config leaves no settle segment.
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg_path.write_text(json.dumps({"m": 13, "t_hold_us": 0.37,
                                        "t_swing_us": 15.014615384615386,
                                        "dt_points": 3, "trials": 2000}))
        assert main(["delay-sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 3
        for row in rows:
            assert math.isfinite(float(row.split(",")[1]))
