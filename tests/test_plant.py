import math

import numpy as np
import pytest

from seactrl.control import ImpedanceConfig, PidConfig
from seactrl.lti import NyquistError, freq_response, log_grid
from seactrl.plant import (
    LOG_COLUMNS,
    BacklashPlay,
    LseaPlant,
    PendulumConfig,
    PlantConfig,
    ReferenceSpec,
    SimLog,
    SimScenario,
    SimulationFault,
    free_oscillation_frequency,
    nominal_lsea_tf,
    pendulum_step,
    run_scenario,
)
from seactrl.sysid import TimeSeries, empirical_frf

from oracles import coupled_ode_reference, pendulum_substeps_reference


class TestLseaPlant:
    def test_zero_input_equilibrium(self):
        p = LseaPlant()
        assert all(p.advance(0.0, 1e-3, 1) == 0.0 for _ in range(100))

    def test_unperturbed_dc_gain(self):
        p = LseaPlant()
        assert p.dc_gain() == pytest.approx(208.8 / 987.0, rel=1e-12)
        f = 0.0
        for _ in range(4000):
            f = p.advance(1.0, 1e-3, 1)
        assert f == pytest.approx(208.8 / 987.0, rel=1e-6)

    def test_step_matches_dense_rk4_oracle(self):
        # classic 4-stage RK4 on the canonical ODE, written out independently
        den = np.asarray([0.01, 1.13, 23.04, 987.0])
        a = den / den[0]
        cy = 208.8 / den[0]

        def deriv(x, u):
            return np.array([x[1], x[2], -a[3] * x[0] - a[2] * x[1] - a[1] * x[2] + u])

        x = np.zeros(3)
        dt, u = 1e-3, 0.7
        p = LseaPlant()
        for _ in range(200):
            k1 = deriv(x, u)
            k2 = deriv(x + 0.5 * dt * k1, u)
            k3 = deriv(x + 0.5 * dt * k2, u)
            k4 = deriv(x + dt * k3, u)
            x = x + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            got = p.advance(u, dt, 1)
        assert got == pytest.approx(cy * x[0], rel=1e-12)

    def test_stiction_holds_below_breakaway(self):
        p = LseaPlant(stiction_breakaway=0.3, stiction_velocity_deadband=0.1)
        out = [p.advance(0.2, 1e-3, 1) for _ in range(2000)]
        assert max(abs(v) for v in out) == 0.0

    def test_stiction_breaks_away(self):
        p = LseaPlant(stiction_breakaway=0.3, stiction_velocity_deadband=0.1)
        f = 0.0
        for _ in range(3000):
            f = p.advance(1.0, 1e-3, 1)
        assert f == pytest.approx(208.8 / 987.0, rel=1e-4)

    def test_perturbation_scales_dc_gain(self):
        p = LseaPlant(den_factors=(1.0, 1.0, 1.0, 1.25), gain_factor=0.9)
        assert p.dc_gain() == pytest.approx(0.9 * 208.8 / (1.25 * 987.0), rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LseaPlant(den_factors=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            LseaPlant(den_factors=(1.0, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            LseaPlant(gain_factor=-1.0)
        with pytest.raises(ValueError):
            LseaPlant(backlash=-1.0)

    @pytest.mark.parametrize("plant_hz, bound", [(1000, 1e-6), (5000, 1e-8), (20000, 1e-8)])
    def test_linear_limit_matches_lsim(self, plant_hz, bound):
        # without stiction or backlash the plant is the nominal LTI model, so
        # its RK4 substeps must track scipy's exact zero-order-hold solution;
        # y_ref[k + 1] is the output after input k was held for one period
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(23)
        u = rng.uniform(-1.0, 1.0, 2000)
        T = 1e-3
        tf = nominal_lsea_tf()
        _, y_ref, _ = signal.lsim((tf.num, tf.den), np.append(u, 0.0),
                                  np.arange(u.size + 1) * T, interp=False)
        p = LseaPlant()
        got = np.array([p.advance(u_k, 1.0 / plant_hz, plant_hz // 1000) for u_k in u])
        assert np.max(np.abs(got - y_ref[1:])) <= bound * np.max(np.abs(y_ref))

    def test_linear_limit_matches_analytic_response(self):
        # open-loop chirp through the clean plant vs the analytic bode
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.5,
                                    f_start=0.05, f_end=35.0),
            duration_s=120.0, plant=PlantConfig(), gamma=0.0,
            controller_hz=1000, reference_hz=200, plant_hz=1000)
        log = run_scenario(sc)
        grid = log_grid(0.2, 30.0, 20)
        emp = empirical_frf(TimeSeries(1e-3, log.i_m), TimeSeries(1e-3, log.f_o), grid)
        ref = freq_response(nominal_lsea_tf(), grid)
        assert np.max(np.abs(emp.magnitude_db - ref.magnitude_db)) < 0.2


class TestAdvancePendulum:
    N_SUB = 20
    DT = 1.0 / 20000

    @staticmethod
    def _plant(kwargs):
        return LseaPlant(den_factors=(1.0, 1.2, 0.8, 1.25), **kwargs)

    @pytest.mark.parametrize("plant_kwargs", [
        dict(stiction_breakaway=150.0, stiction_velocity_deadband=500.0),
        dict(stiction_breakaway=150.0, stiction_velocity_deadband=500.0, backlash=0.5),
        dict(),
    ], ids=["stiction", "backlash", "default"])
    def test_bit_identical_to_one_substep_composition(self, plant_kwargs):
        rng = np.random.default_rng(11)
        pend = PendulumConfig(damping=0.05)
        fused, composed = self._plant(plant_kwargs), self._plant(plant_kwargs)
        got = want = (0.0, 0.1, 0.0)
        for i_m in rng.uniform(-300.0, 300.0, 2000):
            got = fused.advance_pendulum(i_m, *got, self.DT, self.N_SUB, pend)
            want = pendulum_substeps_reference(composed, i_m, *want, self.DT,
                                               self.N_SUB, pend)
            assert got == want

    def test_matches_solve_ivp_on_joint_ode(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(5)
        pend = PendulumConfig(damping=0.05)
        inputs = rng.uniform(-100.0, 100.0, 200)
        plant = LseaPlant()
        f_o, theta, theta_dot = 0.0, pend.theta0, pend.theta_dot0
        got = []
        for i_m in inputs:
            f_o, theta, theta_dot = plant.advance_pendulum(
                i_m, f_o, theta, theta_dot, self.DT, self.N_SUB, pend)
            got.append((f_o, theta, theta_dot))
        want = coupled_ode_reference(208.8, (0.01, 1.13, 23.04, 987.0), pend, inputs, 1e-3)
        for col, ref in zip(zip(*got), want):
            assert np.max(np.abs(np.array(col) - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_rejects_non_positive_substep(self):
        with pytest.raises(ValueError):
            LseaPlant().advance_pendulum(1.0, 0.0, 0.0, 0.0, 0.0, 1, PendulumConfig())


class TestBacklashPlay:
    def test_holds_inside_gap_and_follows_outside(self):
        play = BacklashPlay(0.2)
        assert play.step(0.05) == 0.0      # inside the gap
        assert play.step(0.3) == pytest.approx(0.2)
        assert play.step(0.25) == pytest.approx(0.2)  # reversal: holds
        assert play.step(0.05) == pytest.approx(0.15)

    def test_zero_width_is_identity(self):
        play = BacklashPlay(0.0)
        for v in (0.0, 0.1, -0.4):
            assert play.step(v) == v

    def test_plant_output_backlash(self):
        # the transmitted output must equal the textbook play recursion
        # applied to the no-backlash trajectory, substep by substep
        w = 0.01
        p = LseaPlant(backlash=w)
        ref = LseaPlant()
        out = 0.0
        for k in range(6000):
            u = np.sin(2 * np.pi * 0.7 * k * 1e-3)
            f = p.advance(u, 1e-3, 1)
            f_lin = ref.advance(u, 1e-3, 1)
            if f_lin - out > w / 2:
                out = f_lin - w / 2
            elif out - f_lin > w / 2:
                out = f_lin + w / 2
            assert f == out


def pendulum_energy(p, theta, theta_dot):
    """Total mechanical energy (datum at the hanging equilibrium)."""
    return (0.5 * p.m * p.l1**2 * theta_dot**2
            + p.m * p.g * p.l1 * (1.0 - math.cos(theta)))


class TestPendulum:
    def test_rest_equilibrium(self):
        assert pendulum_step(PendulumConfig(), 0.0, 0.0, 0.0, 1e-3) == (0.0, 0.0)

    def test_static_hold_force_is_equilibrium(self):
        # f = m g l1 sin(0.1) / l2 holds the pendulum exactly at 0.1 rad
        p = PendulumConfig()
        f_hold = p.m * p.g * p.l1 * math.sin(0.1) / p.l2
        assert f_hold == pytest.approx(46.17, abs=0.01)
        th, w = 0.1, 0.0
        for _ in range(2000):
            th, w = pendulum_step(p, th, w, f_hold, 5e-4)
        assert th == pytest.approx(0.1, abs=1e-12)
        assert abs(w) < 1e-12

    def test_natural_frequency_small_angle(self):
        f_n = free_oscillation_frequency(theta0=0.1)
        assert f_n == pytest.approx(0.87, abs=0.01)
        assert f_n == pytest.approx(math.sqrt(9.81 / 0.33) / (2 * math.pi), abs=0.002)

    def test_energy_conservation_undamped(self):
        p = PendulumConfig()
        th, w = 0.5, 0.0
        e0 = pendulum_energy(p, th, w)
        for _ in range(int(60.0 / 5e-5)):
            th, w = pendulum_step(p, th, w, 0.0, 5e-5)
        assert abs(pendulum_energy(p, th, w) - e0) / e0 < 1e-5

    def test_damping_decays_energy(self):
        p = PendulumConfig(damping=0.5)
        th, w = 0.5, 0.0
        e0 = pendulum_energy(p, th, w)
        for _ in range(20000):
            th, w = pendulum_step(p, th, w, 0.0, 1e-3)
        assert pendulum_energy(p, th, w) < 0.1 * e0

    def test_validation(self):
        for bad in (dict(m=0.0), dict(l1=0.0), dict(l2=-0.07)):
            with pytest.raises(ValueError):
                PendulumConfig(**bad)


def short_pendulum_scenario(plant_hz=20000, duration=1.5):
    return SimScenario(
        reference=ReferenceSpec(kind="position_chirp", amplitude=0.1, omega_o=0.427),
        duration_s=duration,
        plant=PlantConfig(),
        pendulum=PendulumConfig(damping=0.05),
        pid=PidConfig(2.0, 4.0, 0.0, 3.5e-3),
        impedance=ImpedanceConfig(40.0, 5.0),
        k_ff=987.0 / 208.8,
        gamma=1.0, plant_hz=plant_hz)


class TestScenario:
    def test_determinism_bit_identical(self):
        log1 = run_scenario(short_pendulum_scenario(duration=0.5))
        log2 = run_scenario(short_pendulum_scenario(duration=0.5))
        for name in LOG_COLUMNS:
            assert np.array_equal(log1.column(name), log2.column(name))

    def test_zero_duration_empty_log(self, tmp_path):
        sc = SimScenario(reference=ReferenceSpec(), duration_s=0.0)
        log = run_scenario(sc)
        assert len(log) == 0
        path = tmp_path / "empty.csv"
        log.to_csv(path)
        assert path.read_text() == ",".join(LOG_COLUMNS) + "\n"

    def test_invalid_rate_ratio_rejected(self):
        sc = SimScenario(reference=ReferenceSpec(), duration_s=0.1,
                         controller_hz=1000, plant_hz=1500)
        with pytest.raises(ValueError):
            run_scenario(sc)
        sc = SimScenario(reference=ReferenceSpec(), duration_s=0.1,
                         controller_hz=1000, reference_hz=300)
        with pytest.raises(ValueError):
            run_scenario(sc)

    def test_chirp_nyquist_guard(self):
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                    f_start=0.1, f_end=600.0),
            duration_s=1.0)
        with pytest.raises(ValueError):
            run_scenario(sc)

    def test_chirp_rejects_negative_frequencies(self):
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                    f_start=-0.1, f_end=-10.0),
            duration_s=2.0)
        with pytest.raises(ValueError):
            run_scenario(sc)

    def test_current_chirp_observer_nyquist_guard(self):
        # the chirp path builds its observer through the same guarded builder
        # as the force controller: a Q cutoff above Nyquist is rejected
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0, omega_o=1.0),
            duration_s=2.0, omega_c=2.0 * math.pi * 600.0, controller_hz=1000)
        with pytest.raises(NyquistError):
            run_scenario(sc)

    def test_two_rate_convergence(self):
        # halving the substep leaves the logged outputs essentially unchanged
        log_a = run_scenario(short_pendulum_scenario(plant_hz=10000))
        log_b = run_scenario(short_pendulum_scenario(plant_hz=20000))
        diff = np.sqrt(np.mean((log_a.f_o - log_b.f_o) ** 2))
        assert diff < 1e-6
        assert np.sqrt(np.mean((log_a.theta - log_b.theta) ** 2)) < 1e-9

    def test_csv_round_trip(self, tmp_path):
        log = run_scenario(short_pendulum_scenario(duration=0.2))
        path = tmp_path / "log.csv"
        log.to_csv(path)
        back = SimLog.from_csv(path)
        for name in LOG_COLUMNS:
            assert np.allclose(back.column(name), log.column(name), rtol=1e-8, atol=1e-12)

    def test_csv_write_is_reproducible(self, tmp_path):
        log = run_scenario(short_pendulum_scenario(duration=0.2))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        log.to_csv(p1)
        run_scenario(short_pendulum_scenario(duration=0.2)).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numeric_fault_carries_time(self):
        # deliberately unstable force loop: giant proportional gain
        sc = SimScenario(
            reference=ReferenceSpec(kind="force_step", step_value=500.0, step_time=0.0),
            duration_s=2.0,
            pid=PidConfig(1e9, 0.0, 0.0, 3.5e-3),
            plant_hz=5000)
        with pytest.raises(SimulationFault) as err:
            run_scenario(sc)
        assert 0.0 <= err.value.time <= 2.0
        assert err.value.what == "i_m"

    @pytest.mark.parametrize("theta_dot0, what", [(1e308, "theta"), (math.inf, "theta_dot")])
    def test_pendulum_fault_names_signal(self, theta_dot0, what):
        # 1e308 rad/s overflows the angle inside the first substeps, where
        # math.sin(inf) raises ValueError
        sc = SimScenario(reference=ReferenceSpec(), duration_s=0.2,
                         pendulum=PendulumConfig(theta_dot0=theta_dot0))
        with pytest.raises(SimulationFault) as err:
            run_scenario(sc)
        assert err.value.what == what
        assert err.value.time == 0.0

    def test_locked_testbed_logs_zero_pendulum_columns(self):
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0, omega_o=1.0),
            duration_s=0.5, plant_hz=5000)
        log = run_scenario(sc)
        assert np.all(log.theta == 0.0)
        assert np.all(log.q_hat_a_m == 0.0)

    def test_estimate_backlash_divergence(self):
        sc = short_pendulum_scenario(duration=1.0)
        sc.estimate_backlash_m = 0.002
        log = run_scenario(sc)
        gap = log.q_hat_a_m - log.q_hat_a_j
        assert np.max(np.abs(gap)) <= 0.001 + 1e-12
        assert np.max(np.abs(gap)) > 0.0
