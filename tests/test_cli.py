import numpy as np
import pytest

from seactrl.cli import main
from seactrl.config import EXPERIMENTS, ConfigError, load_config, write_config
from seactrl.sysid import TimeSeries

FAST_SCENARIO = """
[scenario]
duration_s = 2.0
plant_hz = 5000
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_defaults_resolve(self):
        cfg = load_config("dob-verify")
        assert cfg["scenario"]["duration_s"] == 120.0
        assert cfg["control"]["gamma"] == 1.0
        assert cfg["plant"]["den_factors"] == (1.0, 1.2, 0.8, 1.25)

    def test_experiment_overrides_differ(self):
        assert load_config("fit")["plant"]["den_factors"] == (1.0, 1.0, 1.0, 1.0)
        assert load_config("pendulum-chirp")["plant"]["stiction_breakaway"] == 150.0

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = write(tmp_path, "bad.ini", "[control]\nk_q = 3\n")
        with pytest.raises(ConfigError) as err:
            load_config("leaky-demo", path)
        assert err.value.keypath == "control.k_q"

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "bad.ini", "[controls]\nk = 3\n")
        with pytest.raises(ConfigError):
            load_config("leaky-demo", path)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("leaky-demo", "/nonexistent/nope.ini")

    def test_bad_value_rejected(self, tmp_path):
        path = write(tmp_path, "bad.ini", "[control]\nk_p = fast\n")
        with pytest.raises(ConfigError):
            load_config("leaky-demo", path)

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_shipped_defaults_load(self, experiment):
        load_config(experiment)

    def test_round_trip(self, tmp_path):
        cfg = load_config("pendulum-chirp")
        path = tmp_path / "echo.ini"
        write_config(cfg, path)
        again = load_config("pendulum-chirp", path)
        assert again == cfg


class TestCliCommands:
    def test_discretize_prints_dc_gain(self, capsys):
        assert main(["discretize", "--tf", "pn", "--rate", "1000"]) == 0
        out = capsys.readouterr().out
        assert "0.21155015" in out
        assert "a_hat" in out and "b_hat" in out

    def test_discretize_qd_and_pid(self, capsys):
        assert main(["discretize", "--tf", "qd", "--rate", "1000"]) == 0
        assert main(["discretize", "--tf", "pid", "--rate", "2000"]) == 0

    def test_leaky_demo_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "leaky"
        assert main(["leaky-demo", "--out", str(out)]) == 0
        assert (out / "summary.txt").exists()
        assert (out / "effective_config.ini").exists()
        assert (out / "leaky_alpha0.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "velocity_after_input_alpha0 = 0.025" in summary

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.ini", "[plant]\nfriction = 1\n")
        code = main(["leaky-demo", "--config", bad, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "plant.friction" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("control", "gamma", "nan"),
        ("plant", "gain_factor", "inf"),
        ("scenario", "kd_sweep", "0.0, -inf"),
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, section, key, value):
        bad = write(tmp_path, "bad.ini", f"[{section}]\n{key} = {value}\n")
        code = main(["pid-step", "--config", bad, "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("plant", "den_factors", "1, 2"),
        ("scenario", "controller_hz", "300"),
        ("scenario", "duration_s", "-1"),
        ("control", "omega_c_hz", "600"),
        ("plant", "backlash", "-1"),
        ("plant", "gain_factor", "0"),
        ("plant", "stiction_breakaway", "-1"),
        ("pendulum", "m", "0"),
        ("pendulum", "l1", "0"),
        ("pendulum", "l2", "0"),
        ("pendulum", "g", "-9.81"),
        ("scenario", "kd_sweep", "0.0, -0.5"),
        ("scenario", "amplitudes", "1.0, 0"),
        ("scenario", "leaky_dt", "0"),
        ("scenario", "leaky_input_end", "0.06"),
        ("scenario", "alphas", "0.5, 2"),
    ])
    def test_unrunnable_value_exits_2(self, tmp_path, capsys, section, key, value):
        bad = write(tmp_path, "bad.ini", f"[{section}]\n{key} = {value}\n")
        code = main(["pid-step", "--config", bad, "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_numeric_fault_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "blow.ini",
                    "[control]\nk_p = 1e9\n[scenario]\nduration_s = 1.0\nplant_hz = 5000\n")
        code = main(["pid-step", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "t =" in capsys.readouterr().err

    def test_pid_step_smoke(self, tmp_path):
        cfg = write(tmp_path, "fast.ini",
                    "[scenario]\nduration_s = 1.0\nplant_hz = 5000\nkd_sweep = 0.0, 0.25\n")
        out = tmp_path / "steps"
        assert main(["pid-step", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "step_kd0.csv").exists()
        assert (out / "step_kd0p25.csv").exists()

    def test_pendulum_chirp_single_mode_smoke(self, tmp_path):
        cfg = write(tmp_path, "fast.ini",
                    "[scenario]\nduration_s = 1.5\nplant_hz = 10000\n")
        out = tmp_path / "pend"
        assert main(["pendulum-chirp", "--config", cfg, "--dob", "on",
                     "--out", str(out)]) == 0
        assert (out / "pendulum_dob_on.csv").exists()
        summary = (out / "summary.txt").read_text()
        assert "rms_pos_err_m_dob_on" in summary
        assert "crossing_time_s" in summary

    def test_bode_open_loop_single_amp_smoke(self, tmp_path):
        cfg = write(tmp_path, "fast.ini",
                    "[scenario]\nduration_s = 12.0\nplant_hz = 2000\nchirp_f_start = 0.5\n"
                    "[sysid]\ngrid_lo_hz = 1.0\ngrid_hi_hz = 8.0\nsegments = 4\n")
        out = tmp_path / "bode"
        assert main(["bode-open-loop", "--config", cfg, "--amp", "1.75",
                     "--out", str(out)]) == 0
        assert (out / "frf_amp1p75.csv").exists()
        header = (out / "frf_amp1p75.csv").read_text().splitlines()[0]
        assert header == "f_hz,mag_db,phase_deg,coherence"

    def test_reproducible_and_config_round_trip(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["leaky-demo", "--out", str(out1)]) == 0
        # re-run from the echoed effective config: byte-identical CSVs
        assert main(["leaky-demo", "--config", str(out1 / "effective_config.ini"),
                     "--out", str(out2)]) == 0
        for name in ("leaky_alpha0.csv", "leaky_alpha0p75.csv", "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # the same for a simulated run
        cfg = write(tmp_path, "fast.ini",
                    "[scenario]\nduration_s = 0.5\nplant_hz = 5000\nkd_sweep = 0.0, 0.5\n")
        out3, out4 = tmp_path / "c", tmp_path / "d"
        assert main(["pid-step", "--config", cfg, "--out", str(out3)]) == 0
        assert main(["pid-step", "--config", str(out3 / "effective_config.ini"),
                     "--out", str(out4)]) == 0
        for name in ("step_kd0.csv", "step_kd0p5.csv", "summary.txt"):
            assert (out3 / name).read_bytes() == (out4 / name).read_bytes()

    def test_fit_from_csv_records(self, tmp_path):
        # tiny synthetic record: static gain of 2 fits orders (0, 0)
        rng = np.random.default_rng(0)
        u = TimeSeries(1e-3, rng.normal(size=4096))
        y = TimeSeries(1e-3, 2.0 * u.samples)
        up, yp = tmp_path / "u.csv", tmp_path / "y.csv"
        u.to_csv(up)
        y.to_csv(yp)
        cfg = write(tmp_path, "fit.ini",
                    "[sysid]\nfit_lo_hz = 1.0\nfit_hi_hz = 100.0\n"
                    "num_order = 0\nden_order = 0\nsegments = 4\n")
        out = tmp_path / "fit"
        assert main(["fit", "--config", cfg, "--u", str(up), "--y", str(yp),
                     "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "num_monic" in summary

    def test_fit_requires_both_records(self, tmp_path, capsys):
        code = main(["fit", "--u", "only_input.csv", "--out", str(tmp_path / "o")])
        assert code == 1
