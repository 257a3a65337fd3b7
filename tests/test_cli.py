import hashlib
import json
import math

import numpy as np
import pytest

from qpskrx.cli import RUNNERS, main, run
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
        run(cfg)  # the largest seed still keys a valid Philox stream
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

    def test_validation_error_exit_code(self, capsys):
        rc = main(["sweep", "--xi", "1.5", "--trials", "10"])
        assert rc == 1
        assert "xi" in capsys.readouterr().err

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


# Rendered CSV sha256 of one small config per mode.  A change that claims to
# leave the numbers alone must leave these bytes alone.
GOLDEN_CSV = [
    ("bounds", {"alpha_sq_start": 0.0, "alpha_sq_stop": 4.0, "alpha_sq_points": 5},
     "b86bcfeea41395006d9745a2995668b458b979d3846b87b961708597a2b776a5"),
    ("enumerate", {"m": 6, "alpha_sq_start": 0.5, "alpha_sq_stop": 4.0,
                   "alpha_sq_points": 3},
     "00e040eed82e7307c88c526aa54b2fdbe5c461a152dcf04c6b55256ec00f895b"),
    ("sweep", {"m": 4, "alpha_sq_start": 1.0, "alpha_sq_stop": 3.0,
               "alpha_sq_points": 3, "trials": 4000, "seed": 3},
     "f5e27001cee3ff5d7f6127530a72872913cbd046506abda8856753b07160c80d"),
    ("efficiency-sweep", {"m": 4, "eta_spd_list": [0.73, 1.0], "alpha_sq_start": 1.0,
                          "alpha_sq_stop": 2.0, "alpha_sq_points": 2, "trials": 3000,
                          "seed": 4},
     "f758efa45cf179457055dd8159ffb84e12db2c7011590db68553e0991f78cc74"),
    ("stages-sweep", {"m_start": 3, "m_stop": 5, "alpha_sq": 3.0, "trials": 3000,
                      "seed": 5},
     "110880bc022efda8c0c1dfb2db0bbcf5fe718e60d654549359348a59a605e7cf"),
    ("delay-sweep", {"m": 10, "alpha_sq": 3.3, "dt_start_us": 0.0, "dt_stop_us": 2.0,
                     "dt_points": 3, "trials": 4000, "seed": 6, "truth_delay": True},
     "56fbb9bd7bd46b670db6235d3c1cd4835947f47168e80cb456c8cac6195054a4"),
    ("delay-sweep", {"m": 10, "alpha_sq": 3.3, "dt_start_us": 0.0, "dt_stop_us": 2.0,
                     "dt_points": 3, "trials": 4000, "seed": 6, "truth_delay": False},
     "0c139442f0d3c0c4c1358fe15201b1f3868f23982326d28c4d655fd242ef11e9"),
    # pad groups 4, 8, 12 and 16, of unequal size, run on two workers
    ("stages-sweep", {"m_start": 3, "m_stop": 13, "alpha_sq": 3.0, "trials": 3000,
                      "seed": 7, "workers": 2},
     "91dc76f06b742e56e406fbdf6a6423bc0835026f90c67068d8a00d1d213082ab"),
    # 67,500 trials per symbol: two chunks, the last one short
    ("sweep", {"m": 6, "alpha_sq_start": 1.0, "alpha_sq_stop": 3.0,
               "alpha_sq_points": 3, "trials": 270_000, "seed": 8, "workers": 2},
     "e64434c66c8f1081e195da12dce576270f36187d22fc1b9f8af1b1b0ea58a280"),
]


class TestGoldenCsv:
    @pytest.mark.parametrize(
        "mode, config, digest", GOLDEN_CSV,
        ids=["bounds", "enumerate", "sweep", "efficiency-sweep", "stages-sweep",
             "delay-sweep-truth-on", "delay-sweep-truth-off",
             "stages-sweep-pad-groups", "sweep-two-chunks"])
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
