import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seactrl import experiments, plant
from seactrl.cli import build_parser, main
from seactrl.config import EXPERIMENTS, ConfigError, load_config, write_config
from seactrl.control import NOMINAL_DEN, NOMINAL_NUM, build_force_controller, impedance_step
from seactrl.experiments import _base_scenario
from seactrl.kinematics import DET_TOL, PendulumMap, ff_force
from seactrl.plant import ReferenceSpec, SimulationFault
from seactrl.sysid import TimeSeries, linear_chirp_point

FAST_SCENARIO = """
[scenario]
duration_s = 2.0
plant_hz = 5000
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def first_scenario(command, cfg):
    """``_base_scenario`` of the first scenario ``command`` builds from ``cfg``."""
    sn = cfg["scenario"]
    if command == "pid-step":
        return _base_scenario(cfg, ReferenceSpec(kind="force_step", step_value=sn["step_force"],
                                                 step_time=sn["step_time"]))
    return _base_scenario(cfg, ReferenceSpec(kind="position_chirp", amplitude=sn["amplitude"],
                                             omega_o=sn["chirp_omega_o"]),
                          pendulum=experiments._pendulum_config(cfg),
                          estimate_backlash_m=cfg["pendulum"]["estimate_backlash_m"])


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

    @pytest.mark.parametrize("key", ["lambda_direct", "ff_current_scale"])
    def test_retired_key_rejected_with_path(self, tmp_path, capsys, key):
        # the pole and the feedforward have one key each, lambda_c and k_ff
        path = write(tmp_path, "old.ini", f"[control]\n{key} = 3.5\n")
        assert main(["pid-step", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"control.{key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, lam, k_ff", [
        ("pid-step", 3.5, NOMINAL_DEN[-1] / NOMINAL_NUM[0]),
        ("pendulum-chirp", 3.5e-3, NOMINAL_DEN[-1] / NOMINAL_NUM[0]),
        ("dob-verify", 3.5e-3, 3.2e-3),
    ])
    def test_gain_table_units_give_the_shipped_gains(self, experiment, lam, k_ff):
        # the pole is 1e-3 * lambda_c and the feedforward 1e-3 * k_ff, bit
        # for bit the values each experiment ran with before those keys
        # were its only ones
        sc = _base_scenario(load_config(experiment),
                            ReferenceSpec(kind="force_step", step_value=500.0, step_time=0.1))
        assert (sc.pid.lam, sc.k_ff) == (lam, k_ff)

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

    @pytest.mark.parametrize("tf, dc_gain", [("pn", "0.211550152"), ("qd", "1"), ("pid", "inf")])
    def test_discretize_prints_the_continuous_dc_gain(self, capsys, tf, dc_gain):
        # Tustin maps s = 0 to z = 1 exactly, so the PID's integrator gives
        # inf; every filter passes the Tustin gap check at 1 kHz
        assert main(["discretize", "--tf", tf, "--rate", "1000"]) == 0
        assert f"\ndc_gain_at_z1 = {dc_gain}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("tf, rate", [
        ("pn", "1e6"), ("qd", "1e6"), ("pid", "1e6"), ("pn", "1e5"), ("pn", "0.3")])
    def test_rate_beyond_tustin_tolerance_exits_2(self, capsys, tf, rate):
        # the printed coefficients would be off by more than TUSTIN_GAP_TOL
        # (pn: 6e-3 at 1 MHz, 5e-6 at 100 kHz); at 0.3 Hz no check point is
        # below a quarter of the rate
        assert main(["discretize", "--tf", tf, "--rate", rate]) == 2
        err = capsys.readouterr().err
        assert "--rate" in err and "Tustin gap" in err

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
        ("plant", "den_factors", "1, 0, 1, 1"),
        # the leading coefficient 0.01 underflows to 0: the plant's order
        # is its transfer function's, which would drop to two
        ("plant", "den_factors", "1e-322, 1, 1, 1"),
        ("scenario", "controller_hz", "300"),
        ("scenario", "duration_s", "-1"),
        # pid-step reads t >= 0.75 * duration_s: these leave no step there
        ("scenario", "duration_s", "0.0004"),
        ("scenario", "duration_s", "0.0014"),
        ("scenario", "duration_s", "0.002"),
        ("scenario", "duration_s", "0.003"),
        ("scenario", "duration_s", "0.0042"),  # four steps, the last at 3 ms
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
        # the observer's blend gain, which must lie in [0, 1]
        ("control", "gamma", "-0.1"),
        ("control", "gamma", "1.5"),
        # the open-loop bode would echo a blend gain it does not run
        ("control", "gamma", "0.5"),
        # an empty list would run nothing
        ("scenario", "kd_sweep", ""),
        ("scenario", "amplitudes", ","),
        ("scenario", "alphas", ""),
        ("control", "lambda_c", "0"),
        ("control", "lambda_c", "1e-322"),
        ("scenario", "step_force", "0"),
        ("scenario", "chirp_omega_o", "0"),
        ("scenario", "chirp_f_start", "0"),
        ("scenario", "chirp_f_end", "0"),
        ("scenario", "band_lo_hz", "5"),
        ("pendulum", "damping", "-1"),
        ("sysid", "segments", "0"),
        ("sysid", "points_per_decade", "0"),
        ("sysid", "grid_lo_hz", "0"),
        ("sysid", "grid_hi_hz", "0.05"),
        ("sysid", "fit_lo_hz", "0"),
        ("sysid", "fit_lo_hz", "30"),
        ("sysid", "den_order", "-1"),
        ("sysid", "num_order", "-1"),
        ("sysid", "num_order", "4"),
        ("sysid", "sk_iterations", "-1"),
        ("scenario", "chirp_f_end", "600"),
        ("scenario", "chirp_f_start", "600"),
        ("scenario", "chirp_f_end", "500"),
        ("scenario", "chirp_omega_o", "30"),
        # an FRF grid that ends at or above the records' Nyquist rate (at
        # 500 Hz np.logspace rounds the last point to 499.99999999999994),
        # and fit orders with more unknowns than half the fit grid's points
        ("sysid", "grid_hi_hz", "600"),
        ("sysid", "grid_hi_hz", "500"),
        ("sysid", "fit_hi_hz", "600"),
        ("sysid", "fit_hi_hz", "550"),
        ("sysid", "fit_hi_hz", "500"),
        ("sysid", "den_order", "40"),
    ])
    def test_unrunnable_value_exits_2(self, tmp_path, capsys, section, key, value):
        bad = write(tmp_path, "bad.ini", f"[{section}]\n{key} = {value}\n")
        # a chirp or a grid at Nyquist is runnable except on the experiment
        # that runs it; an empty list is tried on an experiment that reads it
        command = {("chirp_f_end", "600"): "bode-open-loop",
                   ("chirp_f_start", "600"): "dob-verify",
                   ("chirp_f_end", "500"): "fit",
                   ("chirp_omega_o", "30"): "pendulum-chirp",
                   ("amplitudes", ","): "bode-open-loop",
                   ("gamma", "0.5"): "bode-open-loop",
                   ("alphas", ""): "leaky-demo",
                   ("grid_hi_hz", "600"): "dob-verify",
                   ("grid_hi_hz", "500"): "dob-verify",
                   ("fit_hi_hz", "600"): "fit",
                   ("fit_hi_hz", "550"): "fit",
                   ("fit_hi_hz", "500"): "fit",
                   ("den_order", "40"): "fit"}.get((key, value), "pid-step")
        records = []
        if key == "fit_hi_hz" and value in ("550", "500"):
            # fit's own records, sampled at 1 kHz: a Nyquist rate of 500 Hz
            for flag in ("--u", "--y"):
                path = tmp_path / f"{flag[2:]}.csv"
                TimeSeries(1e-3, np.arange(64.0)).to_csv(path)
                records += [flag, str(path)]
        code = main([command, "--config", bad, *records, "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_pid_step_shortest_late_window_runs(self, tmp_path):
        # 3.5 ms at 1 kHz gives four steps, the last at t = 3 ms, in the late
        # window t >= 0.75 * duration_s that 3 ms (three steps) leaves empty
        cfg = write(tmp_path, "short.ini", "[scenario]\nduration_s = 0.0035\n")
        assert main(["pid-step", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "late_ripple_n_kd0 = 0" in (tmp_path / "o" / "summary.txt").read_text()

    @pytest.mark.parametrize("command", ["bode-open-loop", "dob-verify", "fit"])
    def test_segments_beyond_record_exits_2(self, tmp_path, capsys, command):
        bad = write(tmp_path, "bad.ini",
                    "[scenario]\nduration_s = 2\n[sysid]\nsegments = 100000\n")
        out = tmp_path / "o"
        assert main([command, "--config", bad, "--out", str(out)]) == 2
        assert "sysid.segments" in capsys.readouterr().err
        # rejected before the first simulation: no log was written
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.ini"]

    @pytest.mark.parametrize("command", ["bode-open-loop", "dob-verify", "fit"])
    @pytest.mark.parametrize("text, key", [
        # f_end / f_start overflows to inf, or underflows to 0
        ("chirp_f_start = 1e-320\n", "chirp_f_start"),
        ("chirp_f_start = 100\nchirp_f_end = 5e-324\n", "chirp_f_end"),
    ])
    def test_sweep_ratio_out_of_range_exits_2(self, tmp_path, capsys, command, text, key):
        bad = write(tmp_path, "bad.ini", "[scenario]\n" + text)
        out = tmp_path / "o"
        assert main([command, "--config", bad, "--out", str(out)]) == 2
        assert f"scenario.{key}" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["effective_config.ini"]

    @pytest.mark.parametrize("command, text, key, texts", [
        # each endpoint at or above the controller's Nyquist rate, and fit's
        # at exactly 500 Hz
        ("dob-verify", "chirp_f_start = 600", "chirp_f_start",
         ["reaches 600 Hz, at or above the Nyquist rate (500 Hz) of its 1000 Hz samples"]),
        ("bode-open-loop", "chirp_f_end = 600", "chirp_f_end",
         ["reaches 600 Hz, at or above the Nyquist rate (500 Hz) of its 1000 Hz samples"]),
        ("fit", "chirp_f_end = 500", "chirp_f_end",
         ["reaches 500 Hz, at or above the Nyquist rate (500 Hz) of its 1000 Hz samples"]),
        # a sweep ratio that overflows or underflows names the smaller endpoint
        ("fit", "chirp_f_start = 1e-320", "chirp_f_start",
         ["9.99988867183e-321 Hz gives f_end / f_start = inf, not a positive ratio "
          "below 2**1022"]),
        ("dob-verify", "chirp_f_start = 100\nchirp_f_end = 5e-324", "chirp_f_end",
         ["4.94065645841e-324 Hz gives f_end / f_start = 0, not a positive ratio "
          "below 2**1022"]),
        # a position chirp that sweeps past the reference rate's Nyquist rate
        ("pendulum-chirp", "chirp_omega_o = 30", "chirp_omega_o",
         ["sweeps to 122.231 Hz", "Nyquist rate (100 Hz)"]),
    ])
    def test_chirp_rejection_names_key_value_and_bound(self, tmp_path, capsys, command,
                                                       text, key, texts):
        bad = write(tmp_path, "bad.ini", f"[scenario]\n{text}\n")
        out = tmp_path / "o"
        assert main([command, "--config", bad, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: scenario.{key}: ")
        for want in texts:
            assert want in err
        # rejected before the first simulation; a position chirp before the
        # output directory is made
        if command == "pendulum-chirp":
            assert not out.exists()
        else:
            assert sorted(p.name for p in out.iterdir()) == ["effective_config.ini"]

    def test_non_chirp_rejection_passes_through_base_scenario(self):
        # only a chirp field maps to a config key; any other rejection of
        # SimScenario.validate is re-raised as it is
        cfg = load_config("pendulum-chirp")
        with pytest.raises(ValueError, match="needs the pendulum") as info:
            _base_scenario(cfg, ReferenceSpec(kind="position_chirp", amplitude=0.1,
                                              omega_o=0.427))
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("command", ["pendulum-chirp", "pid-step"])
    @pytest.mark.parametrize("key, value", [
        ("l1", "1e200"),  # the inertia m * l1 * l1 overflows
        ("l1", "1e154"),  # ... though l1**2 is finite
        ("l1", "1e-300"),  # the inertia, which the RK4 divides by, underflows to 0
        ("l2", "1e-12"),  # below the moment-arm tolerance of ff_force
    ])
    def test_pendulum_constant_that_cannot_be_formed_exits_2(self, tmp_path, capsys,
                                                             command, key, value):
        bad = write(tmp_path, "bad.ini", f"[pendulum]\n{key} = {value}\n")
        out = tmp_path / "o"
        assert main([command, "--config", bad, "--out", str(out)]) == 2
        assert f"pendulum.{key}" in capsys.readouterr().err
        assert not out.exists()

    def test_pendulum_constants_at_their_limits_load(self, tmp_path):
        # the largest l1 whose inertia m * l1 * l1 is finite at the default
        # m, and l2 at the tolerance; pid-step loads them, where
        # pendulum-chirp's feedforward rule rejects the pair (see below)
        m = load_config("pendulum-chirp")["pendulum"]["m"]
        l1 = math.sqrt(sys.float_info.max / m)
        while m * l1 * l1 < math.inf:
            l1 = math.nextafter(l1, math.inf)
        while m * l1 * l1 == math.inf:
            l1 = math.nextafter(l1, 0.0)
        edge = write(tmp_path, "edge.ini", f"[pendulum]\nl1 = {l1!r}\nl2 = {DET_TOL!r}\n")
        pend = load_config("pid-step", edge)["pendulum"]
        assert (pend["l1"], pend["l2"]) == (l1, DET_TOL)
        for key, value in (("l1", math.nextafter(l1, math.inf)),
                           ("l2", math.nextafter(DET_TOL, 0.0))):
            beyond = write(tmp_path, "beyond.ini", f"[pendulum]\n{key} = {value!r}\n")
            with pytest.raises(ConfigError, match=f"pendulum.{key}"):
                load_config("pendulum-chirp", beyond)

    def test_feedforward_that_overflows_at_the_first_point_exits_2(self, tmp_path, capsys):
        # at l1 = 4.2e153 the inertia m * l1 * l1 is finite, the tick's
        # first feedforward force m l1^2 (2 A omega_o) / l2 is not
        bad = write(tmp_path, "bad.ini", "[pendulum]\nl1 = 4.2e153\n")
        out = tmp_path / "o"
        assert main(["pendulum-chirp", "--config", bad, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        for want in ("pendulum.l1: 4.2e+153", "pendulum.m 10.0", "scenario.amplitude 0.1",
                     "scenario.chirp_omega_o 0.427", "pendulum.l2 0.07"):
            assert want in err
        assert not out.exists()
        # only pendulum-chirp runs the position chirp
        assert load_config("pid-step", bad)["pendulum"]["l1"] == 4.2e153

    def test_feedforward_rule_is_the_ticks_first_force(self):
        # the largest l1 whose first command, formed as the tick forms it
        # from the first desired force at theta0 = 0, is finite passes the
        # door, and the next float is rejected, though its feedforward
        # force is finite
        cfg = load_config("pendulum-chirp")
        m, g, l2 = (cfg["pendulum"][key] for key in ("m", "g", "l2"))
        sc = _base_scenario(cfg, ReferenceSpec(kind="position_chirp",
                                               amplitude=cfg["scenario"]["amplitude"],
                                               omega_o=cfg["scenario"]["chirp_omega_o"]),
                            pendulum=experiments._pendulum_config(cfg))
        pos, vel, acc = linear_chirp_point(sc.reference.amplitude, sc.reference.omega_o, 0.0)

        def force(l1):
            return ff_force(PendulumMap(l2), 0.0, m * l1 * l1 * acc + m * g * l1 * math.sin(pos))

        def command(l1):
            f_d = impedance_step(sc.impedance, l2 * pos, l2 * vel, l2 * 0.0, 0.0, force(l1))
            step = build_force_controller(sc.pid, sc.omega_c, sc.gamma, sc.k_ff,
                                          1.0 / sc.controller_hz).stepper()
            return step(f_d, 0.0)[0]

        lo, hi = 1.0, 4.2e153
        while math.nextafter(lo, math.inf) < hi:
            mid = lo + 0.5 * (hi - lo)
            lo, hi = (mid, hi) if math.isfinite(command(mid)) else (lo, mid)
        assert 1.4797e153 < lo < 1.4798e153 and math.isfinite(force(hi))
        cfg["pendulum"]["l1"] = lo
        assert first_scenario("pendulum-chirp", cfg).pendulum.l1 == lo
        cfg["pendulum"]["l1"] = hi
        with pytest.raises(ConfigError, match="pendulum.l1"):
            first_scenario("pendulum-chirp", cfg)

    @pytest.mark.parametrize("key, value", [("l1", 3e153), ("theta0", 1e308)])
    def test_first_command_that_overflows_exits_2(self, tmp_path, capsys, key, value):
        # at l1 = 3e153 the first feedforward and desired forces are finite
        # and the force loop's first command is not; at theta0 = 1e308 the
        # impedance of the first setpoint against theta0's estimate overflows
        bad = write(tmp_path, "bad.ini", f"[pendulum]\n{key} = {value!r}\n")
        out = tmp_path / "o"
        assert main(["pendulum-chirp", "--config", bad, "--out", str(out)]) == 2
        assert f"pendulum.{key}: {value:g}" in capsys.readouterr().err
        assert not out.exists()
        # only pendulum-chirp runs the position chirp
        assert load_config("pid-step", bad)["pendulum"][key] == value

    @pytest.mark.parametrize("command, text, at_t0, key", [
        *[("pendulum-chirp", f"[pendulum]\nl1 = {l1}\n", key is not None, key)
          for l1, key in (("0.33", None), ("1.4e153", None), ("1.47975e153", None),
                          ("1.4798e153", "pendulum.l1"), ("3e153", "pendulum.l1"),
                          ("4.2e153", "pendulum.l1"))],
        ("pendulum-chirp", "[pendulum]\ntheta0 = 1e308\n", True, "pendulum.theta0"),
        # the tick with the reference at rest faults too: no key to pin it on
        ("pendulum-chirp", "[control]\nk_d = 1e308\nlambda_c = 1e308\n", True, None),
        ("pid-step", "[scenario]\nstep_force = 1e308\nstep_time = 0\n", True,
         "scenario.step_force"),
        ("pid-step", "[scenario]\nstep_force = 1e308\nstep_time = 0.1\n", False, None),
    ])
    def test_door_agrees_with_the_run(self, tmp_path, monkeypatch, command, text, at_t0, key):
        # the run of the scenario the door is given faults at t = 0 exactly
        # when at_t0, and the door rejects it, naming key, exactly when it
        # can pin that fault on a key
        cfg = load_config(command, write(tmp_path, "case.ini", text))
        with monkeypatch.context() as door_open:
            door_open.setattr(experiments, "first_tick_fault", lambda sc: None)
            sc = first_scenario(command, cfg)
        try:
            experiments.run_scenario(sc)
            fault = None
        except SimulationFault as exc:
            fault = exc
        assert (fault is not None and fault.time == 0.0) == at_t0
        if key is None:
            assert first_scenario(command, cfg) == sc
        else:
            with pytest.raises(ConfigError, match=re.escape(key)) as rejected:
                first_scenario(command, cfg)
            assert str(fault) in str(rejected.value)

    def test_door_runs_no_scenario(self, monkeypatch):
        # the door runs the tick's first step, never run_scenario, which
        # perfbench times as a simulated run
        def run_scenario(sc):
            raise AssertionError("the door called run_scenario")

        monkeypatch.setattr(plant, "run_scenario", run_scenario)
        monkeypatch.setattr(experiments, "run_scenario", run_scenario)
        for command in ("pendulum-chirp", "pid-step"):
            cfg = load_config(command)
            assert first_scenario(command, cfg).duration_s == cfg["scenario"]["duration_s"]
        cfg["scenario"]["step_force"], cfg["scenario"]["step_time"] = 1e308, 0.0
        with pytest.raises(ConfigError, match="scenario.step_force"):
            first_scenario("pid-step", cfg)

    def test_pendulum_inertia_rule_reads_m_with_l1(self, tmp_path):
        # m * l1 * l1 = 1e20 is finite, though l1**2 alone is not
        light = write(tmp_path, "light.ini", "[pendulum]\nm = 1e-300\nl1 = 1e160\n")
        pend = load_config("pendulum-chirp", light)["pendulum"]
        assert (pend["m"], pend["l1"]) == (1e-300, 1e160)

    @pytest.mark.parametrize("text", [
        "[pendulum]\ntheta0 = 1e300\n[scenario]\n",
        "[pendulum]\ng = 1e300\n[scenario]\n",
        "[scenario]\namplitude = 1e300\n",
    ], ids=["theta0", "g", "amplitude"])
    def test_pendulum_chirp_at_extreme_value_gives_finite_summary(self, tmp_path, text):
        # the position error's square would overflow; its RMS is taken
        # scaled by a power of two, and warnings are errors here
        cfg = write(tmp_path, "huge.ini", text + "duration_s = 5.0\n")
        out = tmp_path / "o"
        assert main(["pendulum-chirp", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "rms_ratio_on_over_off" in summary
        assert not re.search(r"\b(nan|inf)\b", summary), summary

    @pytest.mark.parametrize("command, amplitude", [("fit", "1e-300"), ("dob-verify", "1e300")])
    def test_chirp_at_extreme_amplitude_gives_finite_summary(self, tmp_path, command,
                                                             amplitude):
        # the FRF's spectra would underflow or overflow; warnings are errors here
        cfg = write(tmp_path, "amp.ini",
                    f"[scenario]\namplitude = {amplitude}\nduration_s = 20.0\n")
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert not re.search(r"\b(nan|inf)\b", summary), summary

    def test_segments_beyond_csv_records_exits_2(self, tmp_path, capsys):
        u = TimeSeries(1e-3, np.arange(64.0))
        up, yp = tmp_path / "u.csv", tmp_path / "y.csv"
        u.to_csv(up)
        u.to_csv(yp)
        bad = write(tmp_path, "bad.ini", "[sysid]\nsegments = 100\n")
        code = main(["fit", "--config", bad, "--u", str(up), "--y", str(yp),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "sysid.segments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, values", [
        ("pid-step", "kd_sweep", "0.25, 0.2500001"),
        ("pid-step", "kd_sweep", "0.5, 0.5"),
        ("bode-open-loop", "amplitudes", "1.5, 1.0, 1.5"),
        ("leaky-demo", "alphas", "0.1, 0.1000001"),
    ])
    def test_list_values_sharing_a_tag_exit_2(self, tmp_path, capsys, command, key, values):
        # the two runs would write one file name and one summary key
        bad = write(tmp_path, "bad.ini", f"[scenario]\n{key} = {values}\n")
        out = tmp_path / "o"
        assert main([command, "--config", bad, "--out", str(out)]) == 2
        assert f"scenario.{key}" in capsys.readouterr().err
        assert not out.exists()  # rejected before the first run

    @pytest.mark.parametrize("rate", ["0", "-1000", "nan", "inf", "1e300", "1e-300"])
    def test_bad_rate_exits_2(self, capsys, rate):
        # finite extremes under- or overflow the Tustin chain
        tf = {"1e300": "pid"}.get(rate, "pn")
        assert main(["discretize", "--tf", tf, "--rate", rate]) == 2
        assert "--rate" in capsys.readouterr().err

    def test_numeric_fault_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "blow.ini",
                    "[control]\nk_p = 1e9\n[scenario]\nduration_s = 1.0\nplant_hz = 5000\n")
        code = main(["pid-step", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "t =" in capsys.readouterr().err

    def test_gains_that_overflow_the_tustin_chain_exit_3_without_warning(self, tmp_path,
                                                                        capsys):
        cfg = write(tmp_path, "gains.ini", "[control]\nk_p = 1e308\nk_i = 1e308\n"
                    "k_d = 1e308\n[scenario]\nduration_s = 0.5\n")
        code = main(["pendulum-chirp", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite i_m at t = 0.001000 s" in err
        assert "Warning" not in err

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

    def test_pendulum_chirp_odd_substep_ratio_runs(self, tmp_path):
        # five substeps a tick: each half-tick plant call takes five half-substeps
        cfg = write(tmp_path, "odd.ini", "[scenario]\nduration_s = 1.0\nplant_hz = 5000\n")
        out = tmp_path / "pend"
        assert main(["pendulum-chirp", "--config", cfg, "--dob", "on",
                     "--out", str(out)]) == 0
        assert (out / "pendulum_dob_on.csv").exists()

    def test_bode_open_loop_single_amp_smoke(self, tmp_path):
        cfg = write(tmp_path, "fast.ini",
                    "[scenario]\nduration_s = 12.0\nplant_hz = 2000\nchirp_f_start = 0.5\n"
                    "amplitudes = 1.75\n"
                    "[sysid]\ngrid_lo_hz = 1.0\ngrid_hi_hz = 8.0\nsegments = 4\n")
        out = tmp_path / "bode"
        assert main(["bode-open-loop", "--config", cfg, "--out", str(out)]) == 0
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

    @staticmethod
    def _fit_records(tmp_path, scenario=""):
        # tiny synthetic record: static gain of 2 fits orders (0, 0)
        rng = np.random.default_rng(0)
        u = TimeSeries(1e-3, rng.normal(size=4096))
        y = TimeSeries(1e-3, 2.0 * u.samples)
        up, yp = tmp_path / "u.csv", tmp_path / "y.csv"
        u.to_csv(up)
        y.to_csv(yp)
        cfg = write(tmp_path, "fit.ini",
                    scenario + "[sysid]\nfit_lo_hz = 1.0\nfit_hi_hz = 100.0\n"
                    "num_order = 0\nden_order = 0\nsegments = 4\n")
        out = tmp_path / "fit"
        code = main(["fit", "--config", cfg, "--u", str(up), "--y", str(yp),
                     "--out", str(out)])
        return code, out

    def test_fit_from_csv_records(self, tmp_path):
        code, out = self._fit_records(tmp_path)
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "num_monic" in summary

    def test_fit_from_csv_records_ignores_the_chirp(self, tmp_path):
        # no chirp runs, so a chirp at Nyquist (exit 2 without records) is moot
        code, out = self._fit_records(tmp_path, "[scenario]\nchirp_f_end = 600\n")
        assert code == 0
        assert "num_monic" in (out / "summary.txt").read_text()

    def test_fit_requires_both_records(self, tmp_path, capsys):
        for given, missing in (("--u", "--y"), ("--y", "--u")):
            code = main(["fit", given, "only_one.csv", "--out", str(tmp_path / "o")])
            assert code == 2
            assert f"config error: {missing}: missing" in capsys.readouterr().err

    @staticmethod
    def _fit_with(tmp_path, u, y):
        return main(["fit", "--u", str(u), "--y", str(y), "--out", str(tmp_path / "o")])

    # a record fit cannot use exits 2 and names the flag that gave it
    @pytest.mark.parametrize("case, text, message", [
        ("missing_file", None, "not found"),
        ("header_only", "t,value\n", "need at least two samples"),
        ("unparseable", "t,value\n0,1\n0.001,abc\n", "could not convert"),
        ("one_column", "t\n0\n0.001\n", "need two columns"),
        ("nan_sample", "t,value\n0,1\n0.001,nan\n0.002,3\n", "non-finite value at data row 2"),
        ("inf_time", "t,value\n0,1\n0.001,2\ninf,3\n", "non-finite value at data row 3"),
    ])
    @pytest.mark.parametrize("flag", ["--u", "--y"])
    def test_bad_fit_record_exits_2(self, tmp_path, capsys, case, text, message, flag):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        TimeSeries(1e-3, np.arange(64.0)).to_csv(good)
        if text is not None:
            bad.write_text(text)
        records = {"--u": good, "--y": good, flag: bad}
        assert self._fit_with(tmp_path, records["--u"], records["--y"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag}: ")
        assert message in err

    @pytest.mark.parametrize("samples, period, message", [
        (63, 1e-3, "--y: 63 samples every 0.001 s, but --u has 64 every 0.001 s"),
        (64, 2e-3, "--y: 64 samples every 0.002 s, but --u has 64 every 0.001 s"),
    ])
    def test_unmatched_fit_records_exit_2(self, tmp_path, capsys, samples, period, message):
        u, y = tmp_path / "u.csv", tmp_path / "y.csv"
        TimeSeries(1e-3, np.arange(64.0)).to_csv(u)
        TimeSeries(period, np.arange(float(samples))).to_csv(y)
        assert self._fit_with(tmp_path, u, y) == 2
        assert message in capsys.readouterr().err


class TestCommandTable:
    def test_main_looks_up_the_experiment_when_the_command_runs(self, tmp_path, capsys,
                                                                monkeypatch):
        # a function rebound on the experiments module (as perfbench's wall_s
        # timer does) is the one the command calls
        calls = []

        def stub(cfg, out_dir):
            calls.append(out_dir)
            return {"stub_key": 1}

        monkeypatch.setattr(experiments, "dob_verify", stub)
        out = str(tmp_path / "o")
        assert main(["dob-verify", "--out", out]) == 0
        assert calls == [out]
        assert "stub_key = 1\n" in capsys.readouterr().out

    def test_commands_are_the_configured_experiments(self):
        usage = build_parser().format_usage()
        commands = re.search(r"\{([^}]*)\}", usage).group(1).split(",")
        assert sorted(commands) == sorted(EXPERIMENTS)

    @pytest.mark.parametrize("command", sorted(EXPERIMENTS))
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        help_text = capsys.readouterr().out
        assert f"usage: seactrl {command}" in help_text
        assert "--config CONFIG" in help_text and "--out OUT" in help_text


def test_installed_entry_point_runs_the_cli():
    # pyproject's console script, called as an installed script calls it:
    # sys.exit(target()) with the arguments in sys.argv
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["seactrl"]
    module, _, attr = target.partition(":")
    src = str(root / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = ["discretize", "--tf", "pn", "--rate", "1000"]
    script = subprocess.run(
        [sys.executable, "-c",
         f"import sys; from {module} import {attr}; sys.argv[0] = 'seactrl'; sys.exit({attr}())",
         *argv], capture_output=True, text=True, env=env, timeout=60)
    direct = subprocess.run([sys.executable, "-m", "seactrl.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=60)
    assert script.returncode == 0, script.stderr
    assert direct.returncode == 0, direct.stderr
    assert script.stdout == direct.stdout
    assert "dc_gain_at_z1 = " in script.stdout


NUMPY_ONLY_CHILD = """
import sys
sys.modules["scipy"] = sys.modules["hypothesis"] = None  # importing either fails
from seactrl.cli import main
ini, out = sys.argv[1:]
runs = [["discretize", "--tf", "pn", "--rate", "1000"],
        ["dob-verify", "--config", ini, "--out", out + "/dob"],
        ["fit", "--config", ini, "--out", out + "/fit"],
        ["pendulum-chirp", "--dob", "both", "--config", ini, "--out", out + "/pend"]]
sys.exit(max(main(argv) for argv in runs))
"""


def test_package_runs_on_numpy_alone(tmp_path):
    # the package needs numpy only: with scipy and hypothesis unimportable,
    # a child interpreter discretizes and runs three experiments
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    ini = write(tmp_path, "short.ini", "[scenario]\nduration_s = 0.5\n")
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_CHILD, ini, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "dc_gain_at_z1 = " in proc.stdout
