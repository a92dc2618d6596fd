import math

import numpy as np
import pytest

from seactrl.control import (
    DisturbanceObserver,
    DobConfig,
    ImpedanceConfig,
    PidConfig,
    build_force_controller,
    build_observer,
    impedance_step,
)
from seactrl.kinematics import PendulumMap, actuator_setpoints, ff_force
from seactrl.lti import NyquistError, freq_response, log_grid
from seactrl.plant import (
    _LOG_BLOCK_TICKS,
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
from seactrl.sysid import (
    TimeSeries,
    empirical_frf,
    exponential_chirp_point,
    linear_chirp_point,
)

from oracles import (
    coupled_ode_reference,
    pendulum_tick_reference,
    substep_composition,
    zoh_map,
)

SHIPPED_DEN_FACTORS = (1.0, 1.2, 0.8, 1.25)


def bits(values):
    """The IEEE bit patterns of ``values``, so ``-0.0`` differs from ``0.0``."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


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


class TestLiftedTick:
    """A held tick that stiction cannot act on is one cached linear map."""

    @pytest.mark.parametrize("dt, n", [(1 / 5000, 5), (1 / 20000, 20), (1 / 40000, 5)])
    def test_equals_substep_composition(self, dt, n):
        p = LseaPlant(den_factors=SHIPPED_DEN_FACTORS)
        lifted = p._lifted(dt, n)
        assert p._lifted(dt, n) is lifted
        power, gain = substep_composition(p._coeffs(dt), n)
        got = np.array(lifted)
        assert np.max(np.abs(got[:9] - power.ravel())) <= 1e-13 * np.max(np.abs(power))
        assert np.max(np.abs(got[9:] - gain)) <= 1e-13 * np.max(np.abs(gain))

    @pytest.mark.parametrize("dt", [1e-3, 1 / 5000, 1 / 20000, 1 / 40000])
    def test_one_substep_map_is_the_substep_map(self, dt):
        # a one-substep stepper applies _lifted(dt, 1) where the substep
        # loop applies _coeffs(dt): the two agree entry for entry
        p = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, gain_factor=0.9)
        assert p._lifted(dt, 1) == p._coeffs(dt)

    @pytest.mark.parametrize("dt, n, bound", [
        (1 / 5000, 5, 1e-8), (1 / 20000, 20, 4e-11), (1 / 40000, 5, 3e-12)])
    def test_matches_exact_zero_order_hold(self, dt, n, bound):
        # RK4's error falls as dt^4; each bound is ~3x the measured 3.5e-9,
        # 1.3e-11 and 8.9e-13 relative
        pytest.importorskip("scipy")
        p = LseaPlant(den_factors=SHIPPED_DEN_FACTORS)
        phi, gamma = zoh_map(p.tf.den, n * dt)
        got = np.array(p._lifted(dt, n))
        assert np.max(np.abs(got[:9] - phi.ravel())) <= bound * np.max(np.abs(phi))
        assert np.max(np.abs(got[9:] - gamma)) <= bound * np.max(np.abs(gamma))

    @pytest.mark.parametrize("n", [1, 5, 20])
    @pytest.mark.parametrize("kwargs, lo, hi, exact", [
        (dict(stiction_breakaway=0.15), 0.0, 0.149, True),
        (dict(stiction_breakaway=0.15, backlash=0.01), 0.0, 1.0, True),
        (dict(stiction_breakaway=0.15), 0.15, 1.0, False),
        (dict(stiction_breakaway=0.15), 0.0, 1.0, False),
        (dict(), 0.0, 1.0, False),
    ], ids=["stuck", "backlash", "above-breakaway", "both-sides", "no-stiction"])
    def test_tick_matches_single_substeps(self, n, kwargs, lo, hi, exact):
        # |u| is drawn from [lo, hi] with a random sign; a tick that steps
        # its substeps (stuck input, backlash, n = 1) must match bit for bit
        dt = 1 / 20000
        rng = np.random.default_rng(n)
        inputs = rng.uniform(lo, hi, 400) * rng.choice((-1.0, 1.0), 400)
        tick = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, **kwargs)
        single = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, **kwargs)
        # start in motion, so that the rate test lets a stuck input act
        for p in (tick, single):
            for _ in range(200):
                p.advance(1.0, dt, 1)
        got, want = [], []
        for u in inputs:
            got.append(tick.advance(u, dt, n))
            for _ in range(n):
                f = single.advance(u, dt, 1)
            want.append(f)
        got, want = np.array(got), np.array(want)
        if exact or n == 1:
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("kwargs, lo, hi, single", [
        (dict(stiction_breakaway=0.15), 0.0, 0.149, True),
        (dict(stiction_breakaway=0.15, backlash=0.01), 0.0, 1.0, True),
        (dict(stiction_breakaway=0.15), 0.0, 1.0, False),
        (dict(), 0.0, 1.0, False),
    ], ids=["stuck", "backlash", "both-sides", "no-stiction"])
    def test_interleaved_steppers_share_one_state(self, kwargs, lo, hi, single):
        # calls at mixed (dt, n), each through advance or a stepper held
        # since the start, step one state: a twin plant driven by advance
        # alone (one-substep calls where every substep is stepped) agrees
        # bit for bit after every call
        grid = [(1 / 20000, 1), (1 / 20000, 5), (1 / 40000, 10), (1 / 5000, 2)]
        rng = np.random.default_rng(29)
        mixed = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, **kwargs)
        twin = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, **kwargs)
        held = {key: mixed.stepper(*key) for key in grid}
        assert all(mixed.stepper(*key) is held[key] for key in grid)
        for p in (mixed, twin):
            for _ in range(200):
                p.advance(1.0, 1 / 20000, 1)
        for _ in range(1500):
            dt, n = grid[rng.integers(len(grid))]
            u = float(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0)))
            got = held[(dt, n)](u) if rng.random() < 0.5 else mixed.advance(u, dt, n)
            if single:
                for _ in range(n):
                    want = twin.advance(u, dt, 1)
            else:
                want = twin.advance(u, dt, n)
            assert got == want
            assert mixed._state() == twin._state()


class TestAdvancePendulum:
    """``run_scenario``'s pendulum path: four plant calls, two pendulum RK4 steps."""

    @pytest.mark.parametrize("plant", [
        PlantConfig(den_factors=(1.0, 1.2, 0.8, 1.25), stiction_breakaway=150.0,
                    stiction_velocity_deadband=500.0),
        PlantConfig(den_factors=(1.0, 1.2, 0.8, 1.25), stiction_breakaway=150.0,
                    stiction_velocity_deadband=500.0, backlash=0.5),
        PlantConfig(den_factors=(1.0, 1.2, 0.8, 1.25)),
    ], ids=["stiction", "backlash", "default"])
    def test_bit_identical_to_one_substep_composition(self, plant):
        # replay the logged commands through the written-out controller step
        sc = short_pendulum_scenario(duration=0.5)
        sc.plant = plant
        log = run_scenario(sc)
        ref_plant, pend = plant.build(), sc.pendulum
        state = (0.0, pend.theta0, pend.theta_dot0)
        for k, i_m in enumerate(log.i_m):
            assert (log.f_o[k], log.theta[k], log.theta_dot[k]) == state
            state = pendulum_tick_reference(ref_plant, pend, i_m, *state, 1.0 / sc.plant_hz,
                                            sc.plant_hz // sc.controller_hz,
                                            1.0 / sc.controller_hz)

    def test_matches_solve_ivp_on_joint_ode(self):
        pytest.importorskip("scipy")
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=100.0,
                                    f_start=0.5, f_end=40.0),
            duration_s=0.2, gamma=0.0, pendulum=PendulumConfig(damping=0.05))
        log = run_scenario(sc)
        # row k + 1 holds the state after input k was held for one period
        want = coupled_ode_reference(208.8, (0.01, 1.13, 23.04, 987.0), sc.pendulum,
                                     log.i_m[:-1], 1e-3)
        for col, ref in zip((log.f_o, log.theta, log.theta_dot), want):
            assert np.max(np.abs(col[1:] - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_rejects_non_positive_substep(self):
        with pytest.raises(ValueError):
            LseaPlant().advance(1.0, 0.0, 1)


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
        for pendulum in (None, PendulumConfig()):
            sc = SimScenario(reference=ReferenceSpec(step_value=5.0), duration_s=0.0,
                             pendulum=pendulum)
            log = run_scenario(sc)
            assert len(log) == 0
            for name in LOG_COLUMNS:
                col = log.column(name)
                assert col.shape == (0,) and col.dtype == np.float64, name
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

    def test_pendulum_needs_even_substep_ratio(self):
        with pytest.raises(ValueError, match="even multiple"):
            run_scenario(short_pendulum_scenario(plant_hz=5000, duration=0.1))

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

    def test_nyquist_violation_rejected(self):
        # a current chirp is generated at the controller rate, a position
        # chirp at the reference rate: each must stay below that Nyquist rate
        sc = SimScenario(
            reference=ReferenceSpec(kind="position_chirp", amplitude=1.0, omega_o=200.0),
            duration_s=10.0, pendulum=PendulumConfig(), reference_hz=1000)
        with pytest.raises(NyquistError):
            sc.validate()
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                    f_start=0.1, f_end=600.0),
            duration_s=10.0)
        with pytest.raises(NyquistError):
            sc.validate()

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="reference kind"):
            ReferenceSpec(kind="triangular")
        cases = [
            (ReferenceSpec(kind="current_chirp", amplitude=0.0, f_start=0.1, f_end=10.0),
             1.0, "positive amplitude"),
            (ReferenceSpec(kind="position_chirp", amplitude=0.0, omega_o=1.0),
             1.0, "positive amplitude"),
            (ReferenceSpec(kind="current_chirp", amplitude=1.0, f_start=0.1, f_end=10.0),
             0.0, "duration_s"),
            (ReferenceSpec(kind="position_chirp", amplitude=1.0, omega_o=1.0),
             0.0, "duration_s"),
            (ReferenceSpec(kind="current_chirp", amplitude=1.0, f_start=0.1),
             1.0, "f_start and f_end"),
        ]
        for reference, duration_s, match in cases:
            sc = SimScenario(reference=reference, duration_s=duration_s,
                             pendulum=PendulumConfig())
            with pytest.raises(ValueError, match=match):
                sc.validate()

    def test_current_chirp_is_exponential_only(self):
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0, omega_o=1.0),
            duration_s=1.0)
        with pytest.raises(ValueError, match="f_start and f_end"):
            sc.validate()

    def test_current_chirp_observer_nyquist_guard(self):
        # the chirp path builds its observer through the same guarded builder
        # as the force controller: a Q cutoff above Nyquist is rejected
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                    f_start=0.1, f_end=10.0),
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

    def test_block_log_across_block_boundaries(self):
        # with gamma = 0 the logged command is the chirp itself, and each
        # tick's output is one advance of a plant driven by the logged command
        n = 2 * _LOG_BLOCK_TICKS + 1
        ref = ReferenceSpec(kind="current_chirp", amplitude=1.0, f_start=0.1, f_end=10.0)
        sc = SimScenario(reference=ref, duration_s=n / 1000.0, gamma=0.0,
                         controller_hz=1000, plant_hz=5000,
                         plant=PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15))
        log = run_scenario(sc)
        assert len(log) == n
        assert all(col.flags.c_contiguous and col.dtype == np.float64
                   for col in (log.column(c) for c in LOG_COLUMNS))
        T = 1.0 / sc.controller_hz
        assert np.array_equal(log.t, np.arange(n) * T)
        chirp = [exponential_chirp_point(ref.amplitude, ref.f_start, ref.f_end,
                                         sc.duration_s, t)[0] for t in log.t.tolist()]
        assert np.array_equal(log.i_m.view(np.uint64), np.array(chirp).view(np.uint64))
        plant = sc.plant.build()
        replay = [0.0] + [plant.advance(i_m, 1.0 / sc.plant_hz, 5)
                          for i_m in log.i_m[:-1].tolist()]
        assert np.array_equal(log.f_o.view(np.uint64), np.array(replay).view(np.uint64))

    def test_pendulum_block_log_across_block_boundaries(self):
        # replay every tick of a position chirp through the public block
        # methods: the reference and kinematics on reference ticks, the
        # impedance, ForceController.step, then the written-out coupled step
        # (four LseaPlant.advance calls and two pendulum RK4 steps)
        n = 2 * _LOG_BLOCK_TICKS + 3
        sc = short_pendulum_scenario(duration=n / 1000.0)
        sc.estimate_backlash_m = 0.002
        log = run_scenario(sc)
        assert len(log) == n
        T, n_sub = 1.0 / sc.controller_hz, sc.plant_hz // sc.controller_hz
        ref_div = sc.controller_hz // sc.reference_hz
        assert n % ref_div != 0
        ref, pend = sc.reference, sc.pendulum
        fc = build_force_controller(sc.pid, DobConfig(sc.omega_c, sc.gamma, nominal_lsea_tf()),
                                    sc.k_ff, T)
        plant, pmap = sc.plant.build(), PendulumMap(pend.l2)
        play = BacklashPlay(sc.estimate_backlash_m)
        f_o, theta, theta_dot = 0.0, pend.theta0, pend.theta_dot0
        want = []
        for k in range(n):
            t = k * T
            q_hat_a_j = pend.l2 * theta
            q_hat_a_m = play.step(q_hat_a_j)
            if k % ref_div == 0:
                qj_d, qjdot_d, qjddot_d = linear_chirp_point(ref.amplitude, ref.omega_o, t)
                tau_ff = (pend.m * pend.l1**2 * qjddot_d
                          + pend.m * pend.g * pend.l1 * math.sin(qj_d))
                q_a_d, qdot_a_d = actuator_setpoints(pmap, qj_d, qjdot_d, theta)
                f_ff = ff_force(pmap, theta, tau_ff)
            f_d = impedance_step(sc.impedance, q_a_d, qdot_a_d, q_hat_a_m,
                                 pend.l2 * theta_dot, f_ff)
            i_m = fc.step(f_d, f_o)
            want.append((t, qj_d, q_a_d, qdot_a_d, f_d, f_o, i_m, fc.dob.d_hat,
                         theta, theta_dot, q_hat_a_m, q_hat_a_j))
            f_o, theta, theta_dot = pendulum_tick_reference(
                plant, pend, i_m, f_o, theta, theta_dot, 1.0 / sc.plant_hz, n_sub, T)
        got = np.stack([log.column(c) for c in LOG_COLUMNS], axis=1)
        assert np.any(log.q_hat_a_m != log.q_hat_a_j)
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("reference", [
        ReferenceSpec(kind="force_step", step_value=500.0, step_time=0.05),
        ReferenceSpec(kind="current_chirp", amplitude=1.75, f_start=0.1, f_end=20.0),
    ], ids=["force_step", "current_chirp"])
    def test_tick_equals_block_by_block_replay(self, reference):
        # replay the scenario through the public methods of fresh blocks:
        # ForceController.step (force step) or DisturbanceObserver.step
        # (DOB-on chirp), then LseaPlant.advance with the command held
        sc = SimScenario(reference=reference, duration_s=0.6, gamma=1.0,
                         controller_hz=1000, plant_hz=5000,
                         plant=PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15))
        log = run_scenario(sc)
        T, n_sub = 1.0 / sc.controller_hz, sc.plant_hz // sc.controller_hz
        dob_cfg = DobConfig(sc.omega_c, sc.gamma, nominal_lsea_tf())
        plant = sc.plant.build()
        if reference.kind == "force_step":
            fc = build_force_controller(sc.pid, dob_cfg, sc.k_ff, T)
            dob = fc.dob
        else:
            dob = build_observer(dob_cfg, T)
        f_o, want = 0.0, []
        for k in range(len(log)):
            t = k * T
            if reference.kind == "force_step":
                i_m = fc.step(reference.step_value if t >= reference.step_time else 0.0, f_o)
            else:
                u_c = exponential_chirp_point(reference.amplitude, reference.f_start,
                                              reference.f_end, sc.duration_s, t)[0]
                i_m = dob.step(u_c, f_o)
            want.append((i_m, dob.d_hat, f_o))
            f_o = plant.advance(i_m, 1.0 / sc.plant_hz, n_sub)
        got = np.stack((log.i_m, log.d_hat, log.f_o), axis=1)
        assert np.any(got[:, 1] != 0.0)
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))

    def test_locked_testbed_logs_zero_pendulum_columns(self):
        sc = SimScenario(
            reference=ReferenceSpec(kind="current_chirp", amplitude=1.0,
                                    f_start=0.1, f_end=10.0),
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


class TestDerivedColumns:
    """The columns ``run_scenario`` fills after its loop, pinned bit for bit.

    A tick records only the values it computes; ``t``, the held reference,
    a force step's ``f_d`` and ``q_hat_a_j`` are filled with numpy once, and
    every other column stays the zero it was allocated as.
    """

    CHIRP = ReferenceSpec(kind="current_chirp", amplitude=1.75, f_start=0.1, f_end=20.0)
    STEP = ReferenceSpec(kind="force_step", step_value=500.0, step_time=0.0503)

    @pytest.mark.parametrize("reference, pendulum", [
        (CHIRP, None),
        (STEP, None),
        (ReferenceSpec(kind="position_chirp", amplitude=0.1, omega_o=0.427),
         PendulumConfig(damping=0.05)),
    ], ids=["current_chirp", "force_step", "position_chirp"])
    def test_time_is_tick_times_period(self, reference, pendulum):
        sc = SimScenario(reference=reference, duration_s=0.3331, pendulum=pendulum)
        log = run_scenario(sc)
        T = 1.0 / sc.controller_hz
        assert len(log) == 333
        assert np.array_equal(bits(log.t), bits([k * T for k in range(len(log))]))

    @pytest.mark.parametrize("step_time", [0.0, 0.05, 0.0503, 1.0])
    def test_force_step_follows_the_tick_rule(self, step_time):
        ref = ReferenceSpec(kind="force_step", step_value=-37.5, step_time=step_time)
        sc = SimScenario(reference=ref, duration_s=0.3, plant_hz=5000)
        log = run_scenario(sc)
        T = 1.0 / sc.controller_hz
        want = [ref.step_value if k * T >= ref.step_time else 0.0 for k in range(len(log))]
        assert np.array_equal(bits(log.f_d), bits(want))

    @pytest.mark.parametrize("duration", [0.6, 0.603], ids=["whole", "partial"])
    def test_reference_held_between_reference_ticks(self, duration):
        sc = short_pendulum_scenario(duration=duration)
        log = run_scenario(sc)
        n, T = len(log), 1.0 / sc.controller_hz
        ref_div = sc.controller_hz // sc.reference_hz
        ref, pmap = sc.reference, PendulumMap(sc.pendulum.l2)
        want = []
        for k in range(n):
            if k % ref_div == 0:
                qj_d, qjdot_d, _ = linear_chirp_point(ref.amplitude, ref.omega_o, k * T)
                held = (qj_d, *actuator_setpoints(pmap, qj_d, qjdot_d, log.theta[k].item()))
            want.append(held)
        got = np.stack((log.ref_pos, log.q_bar_a_d, log.qdot_bar_a_d), axis=1)
        assert (n % ref_div == 0) == (duration == 0.6)
        assert np.array_equal(bits(got), bits(want))

    def test_joint_estimate_is_l2_theta(self):
        sc = short_pendulum_scenario(duration=0.5)
        sc.estimate_backlash_m = 0.002
        log = run_scenario(sc)
        l2 = sc.pendulum.l2
        assert np.array_equal(bits(log.q_hat_a_j), bits([l2 * th for th in log.theta.tolist()]))

    @pytest.mark.parametrize("pendulum", [PendulumConfig(damping=0.05), None],
                             ids=["pendulum", "locked"])
    def test_motor_estimate_is_backlash_replay(self, pendulum):
        # without the pendulum the joint estimate is 0.0 on every tick, and
        # so is the play's output
        reference = (ReferenceSpec(kind="position_chirp", amplitude=0.1, omega_o=0.427)
                     if pendulum else self.CHIRP)
        sc = SimScenario(reference=reference, duration_s=0.5, pendulum=pendulum,
                         estimate_backlash_m=0.002)
        log = run_scenario(sc)
        play = BacklashPlay(sc.estimate_backlash_m)
        want = [play.step(q) for q in log.q_hat_a_j.tolist()]
        assert np.array_equal(bits(log.q_hat_a_m), bits(want))

    @pytest.mark.parametrize("reference, computed", [
        (CHIRP, ("t", "f_o", "i_m", "d_hat")),
        (STEP, ("t", "f_d", "f_o", "i_m", "d_hat")),
    ], ids=["current_chirp", "force_step"])
    def test_constant_columns_are_positive_zero(self, reference, computed):
        sc = SimScenario(reference=reference, duration_s=0.3, plant_hz=5000,
                         estimate_backlash_m=0.002)
        log = run_scenario(sc)
        for name in LOG_COLUMNS:
            if name not in computed:
                assert not np.any(bits(log.column(name))), name


class TestPythonFloats:
    """The per-tick arithmetic runs on Python floats, never numpy scalars.

    ``numpy.float64`` subclasses ``float``, so each check is ``type(x) is float``.
    """

    @pytest.mark.parametrize("kwargs, u, n", [
        (dict(), 0.7, 1),
        (dict(stiction_breakaway=0.15), 0.1, 5),
        (dict(stiction_breakaway=0.15, backlash=0.01), 0.7, 5),
        (dict(stiction_breakaway=0.15), 0.7, 5),
    ], ids=["one-substep", "stuck", "backlash", "lifted"])
    def test_advance_returns_and_keeps_floats(self, kwargs, u, n):
        p = LseaPlant(den_factors=SHIPPED_DEN_FACTORS, **kwargs)
        for _ in range(3):
            assert type(p.advance(u, 1e-4, n)) is float
            assert all(type(x) is float for x in p._state())

    def test_coefficient_tuples_hold_floats(self):
        p = LseaPlant(den_factors=SHIPPED_DEN_FACTORS)
        assert all(type(c) is float for c in p._coeffs(1e-4))
        assert all(type(c) is float for c in p._lifted(1e-4, 5))

    @pytest.mark.parametrize("reference, pendulum", [
        (ReferenceSpec(kind="current_chirp", amplitude=1.75, f_start=0.05, f_end=15.0), None),
        (ReferenceSpec(kind="force_step", step_value=500.0, step_time=0.1), None),
        (ReferenceSpec(kind="position_chirp", amplitude=0.1, omega_o=0.427),
         PendulumConfig(damping=0.05)),
    ], ids=["current_chirp", "force_step", "position_chirp"])
    def test_loop_sees_only_floats(self, monkeypatch, reference, pendulum):
        # the tick calls the closures the plant's and the observer's
        # steppers return; spy on those
        seen = []
        plant_stepper, dob_stepper = LseaPlant.stepper, DisturbanceObserver.stepper

        def spy_plant_stepper(self, dt, substeps):
            advance = plant_stepper(self, dt, substeps)

            def spy(i_m):
                out = advance(i_m)
                seen.extend((i_m, dt, out))
                return out
            return spy

        def spy_dob_stepper(self):
            step = dob_stepper(self)

            def spy(u_c, f_measured):
                out = step(u_c, f_measured)
                seen.extend((u_c, f_measured, *out))
                return out
            return spy

        monkeypatch.setattr(LseaPlant, "stepper", spy_plant_stepper)
        monkeypatch.setattr(DisturbanceObserver, "stepper", spy_dob_stepper)
        # the shipped plant of each experiment: perturbed, with stiction
        plant = (PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=150.0,
                             stiction_velocity_deadband=500.0) if pendulum else
                 PlantConfig(SHIPPED_DEN_FACTORS, stiction_breakaway=0.15))
        run_scenario(SimScenario(reference=reference, duration_s=0.2, plant=plant,
                                 pendulum=pendulum, k_ff=987.0 / 208.8))
        assert len(seen) >= 1000  # 200 ticks of at least one observer and one plant call
        assert {type(x) for x in seen} == {float}
