import numpy as np
import pytest

from seactrl.control import (
    DisturbanceObserver,
    DobConfig,
    ForceController,
    ImpedanceConfig,
    LeakyState,
    PidConfig,
    build_force_controller,
    build_observer,
    impedance_step,
    leaky_step,
    pid_transfer_function,
    q_filter,
)
from seactrl.lti import (
    CausalityError,
    ContinuousTransferFunction,
    NyquistError,
    bilinear_discretize,
    freq_response,
)
from seactrl.plant import nominal_lsea_tf

from oracles import observer_reference

T = 1e-3
FRONT_HIP = dict(k_p=15.0, k_i=4.0, k_d=2.5, lambda_c=3.5)


def front_hip_pid():
    return PidConfig.from_gain_row(**FRONT_HIP)


class TestPidRationalForm:
    def test_front_hip_numerator_coefficients(self):
        tf = pid_transfer_function(front_hip_pid())
        assert tf.num == pytest.approx([15.00875, 4.0525, 0.014], rel=1e-12)
        assert tf.den == pytest.approx([1.0, 0.0035, 0.0], abs=1e-15)

    def test_gain_row_convention(self):
        assert front_hip_pid().lam == pytest.approx(3.5e-3)

    def test_rejects_negative_gains(self):
        with pytest.raises(ValueError):
            PidConfig(-1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            PidConfig(1.0, 0.0, 0.0, 0.0)

    def test_equivalence_with_time_domain_paths(self):
        # independent oracle: separate P, trapezoid-I, and filtered-D paths,
        # the D path from the hand-derived Tustin of lam*s/(s+lam)
        cfg = front_hip_pid()
        filt = bilinear_discretize(pid_transfer_function(cfg), T)

        integ = 0.0
        e_prev = 0.0
        d_prev = 0.0
        rng = np.random.default_rng(42)
        errors = rng.normal(size=1000)
        worst = 0.0
        peak = 0.0
        for e in errors:
            integ += 0.5 * T * (e + e_prev)
            d = ((2.0 - cfg.lam * T) * d_prev
                 + 2.0 * cfg.lam * (e - e_prev)) / (2.0 + cfg.lam * T)
            oracle = cfg.k_p * e + cfg.k_i * integ + cfg.k_d * d
            d_prev, e_prev = d, e
            got = filt.step(float(e))
            worst = max(worst, abs(got - oracle))
            peak = max(peak, abs(oracle))
        assert worst <= 1e-6 * peak


class TestQFilter:
    def test_unity_dc_gain_exact(self):
        assert q_filter(2 * np.pi * 25.0).dc_gain() == 1.0

    def test_half_gain_at_cutoff(self):
        wc = 2 * np.pi * 25.0
        q = q_filter(wc)
        assert abs(abs(q(1j * wc)) - 0.5) < 1e-9
        mag = float(freq_response(q, [25.0]).magnitude_db[0])
        assert mag == pytest.approx(20 * np.log10(0.5), abs=1e-6)

    def test_denominator_reduces_at_cutoff(self):
        # den(j wc) = wc^3 (-sqrt2 + j sqrt2)
        wc = 7.0
        q = q_filter(wc)
        val = np.polyval(q.den, 1j * wc)
        assert val == pytest.approx(wc**3 * (-np.sqrt(2) + 1j * np.sqrt(2)), rel=1e-12)

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError):
            q_filter(0.0)


class TestBuildForceController:
    def test_non_finite_gamma_rejected(self):
        for gamma in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                DobConfig(10.0, gamma, nominal_lsea_tf())

    def test_gamma_clamped(self):
        dob = DobConfig(10.0, 1.7, nominal_lsea_tf())
        assert dob.gamma == 1.0
        assert DobConfig(10.0, -0.2, nominal_lsea_tf()).gamma == 0.0

    def test_cutoff_above_nyquist_rejected(self):
        dob = DobConfig(2 * np.pi * 600.0, 1.0, nominal_lsea_tf())
        with pytest.raises(NyquistError):
            build_force_controller(front_hip_pid(), dob, 3.2e-3, T)

    def test_plant_relative_degree_above_q_order_rejected(self):
        # 1/s^4 cannot be made causal behind a 3rd-order Q
        from seactrl.lti import ContinuousTransferFunction
        plant = ContinuousTransferFunction([1.0], [1.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(CausalityError):
            build_force_controller(front_hip_pid(), DobConfig(100.0, 1.0, plant), 3.2e-3, T)

    def test_filters_share_period(self):
        fc = build_force_controller(
            front_hip_pid(), DobConfig(2 * np.pi * 25, 0.8, nominal_lsea_tf()), 3.2e-3, T)
        assert fc.pid.T == fc.dob.T == T


class TestForceControlStep:
    def make(self, gamma, k_ff=3.2e-3):
        return build_force_controller(
            front_hip_pid(), DobConfig(2 * np.pi * 25.0, gamma, nominal_lsea_tf()), k_ff, T)

    def test_rest_state(self):
        fc = self.make(0.8)
        assert fc.step(0.0, 0.0) == 0.0

    def test_feedforward_term(self):
        # f_d = f_m = 500 N, zero history, gamma 0: only the FF path acts
        fc = self.make(0.0)
        assert fc.step(500.0, 500.0) == pytest.approx(1.6, rel=1e-12)

    def test_gamma_zero_bit_identical_to_pid_ff(self):
        fc = self.make(0.0)
        pid_ref = bilinear_discretize(pid_transfer_function(front_hip_pid()), T)
        rng = np.random.default_rng(5)
        for _ in range(500):
            fd, fm = rng.normal(), rng.normal()
            assert fc.step(fd, fm) == pid_ref.step(fd - fm) + 3.2e-3 * fd

    def test_nan_rejected_command_held_fault_raised(self):
        fc = self.make(0.8)
        u1 = fc.step(10.0, 0.0)
        assert not fc.fault
        assert fc.step(np.nan, 0.0) == u1
        assert fc.fault
        assert fc.step(10.0, np.inf) == u1

    def test_dob_null_on_nominal_plant(self):
        # close the observer blend around the discretized nominal plant: the
        # force it measures comes from the previous blended command, so the
        # estimate stays at the rounding floor
        fc = self.make(1.0)
        plant_d = bilinear_discretize(nominal_lsea_tf(), T)
        rng = np.random.default_rng(3)
        i_m = 0.0
        worst = 0.0
        for _ in range(2000):
            f = plant_d.step(i_m)
            u_c = 0.5 * np.sin(0.3 * _ * T * 2 * np.pi) + 0.1 * rng.normal()
            i_m = fc.dob.step(u_c, f)
            worst = max(worst, abs(fc.dob.d_hat))
        assert worst < 1e-9

    def test_reset(self):
        fc = self.make(0.8)
        fc.step(100.0, 20.0)
        fc.reset()
        assert fc.dob.u_prev == 0.0 and not fc.fault
        assert fc.step(0.0, 0.0) == 0.0


class TestDisturbanceObserver:
    def test_mismatched_periods_rejected(self):
        q = bilinear_discretize(q_filter(100.0), 1e-3)
        q2 = bilinear_discretize(q_filter(100.0), 2e-3)
        with pytest.raises(ValueError):
            DisturbanceObserver(q, q2, 1.0)

    def test_mismatched_denominators_rejected(self):
        q = bilinear_discretize(q_filter(100.0), 1e-3)
        q2 = bilinear_discretize(q_filter(120.0), 1e-3)
        with pytest.raises(ValueError):
            DisturbanceObserver(q, q2, 1.0)

    @pytest.mark.parametrize("plant_num", [[208.8], [2.0, 100.0]])
    def test_matches_two_filter_reference(self, plant_num):
        # the fused filter against Q/P and Q discretized and run separately
        pytest.importorskip("scipy.signal")
        plant = ContinuousTransferFunction(plant_num, nominal_lsea_tf().den)
        cfg = DobConfig(2 * np.pi * 25.0, 1.0, plant)
        q = q_filter(cfg.omega_c)
        inv_plant = bilinear_discretize(ContinuousTransferFunction(
            np.convolve(q.num, plant.den), np.convolve(q.den, plant.num)), T)
        dob = build_observer(cfg, T)
        rng = np.random.default_rng(17)
        f, u_c = rng.normal(size=(2, 10_000))
        got, u = np.empty(f.size), np.empty(f.size)
        for k in range(f.size):
            u[k] = dob.step(float(u_c[k]), float(f[k]))
            got[k] = dob.d_hat
        # step blends in the estimate and keeps the result as the next u_prev
        assert np.array_equal(u, u_c - cfg.gamma * got)
        ref = observer_reference(inv_plant, bilinear_discretize(q, T), f,
                                 np.concatenate(([0.0], u[:-1])))
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


class TestImpedance:
    def test_front_hip_arithmetic(self):
        cfg = ImpedanceConfig(k=40.0, b=5.0)
        f = impedance_step(cfg, 0.01, 0.1, 0.0, 0.0, 100.0)
        assert f == pytest.approx(100.9, rel=1e-12)

    def test_all_zero(self):
        assert impedance_step(ImpedanceConfig(40.0, 5.0), 0, 0, 0, 0, 0) == 0.0

    def test_pure_feedforward_passthrough(self):
        assert impedance_step(ImpedanceConfig(40.0, 5.0), 1.0, 2.0, 1.0, 2.0, 250.0) == 250.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ImpedanceConfig(-1.0, 0.0)


class TestLeakyIntegration:
    def test_windup_with_zero_alpha(self):
        st = LeakyState(alpha_v=0.0, alpha_p=0.0, dT=0.001)
        v = 0.0
        for k in range(50):
            qddot = 1.0 if k < 25 else 0.0
            _, v = leaky_step(st, qddot, 0.1)
            # exact recursion oracle in the same arithmetic
        # velocity reached 25 * dT and holds (windup)
        assert st.qdot_bar_d == pytest.approx(0.025, rel=1e-12)
        recursion = 0.0
        for _ in range(25):
            recursion = 1.0 * 0.001 + recursion
        assert st.qdot_bar_d == recursion

    def test_zero_alpha_is_euler_integration(self):
        st = LeakyState(alpha_v=0.0, alpha_p=0.0, dT=0.01)
        q = v = 0.0
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = rng.normal()
            q_got, v_got = leaky_step(st, a, rng.normal())
            q, v = q + v * 0.01, v  # position uses pre-update velocity
            v = v + a * 0.01
            assert v_got == v and q_got == q

    def test_position_snaps_to_measurement(self):
        st = LeakyState(alpha_v=0.0, alpha_p=1.0, dT=0.001)
        q, _ = leaky_step(st, 0.0, 0.1)
        assert q == 0.1

    def test_position_snap_plus_velocity_term(self):
        st = LeakyState(alpha_v=0.0, alpha_p=1.0, dT=0.001, qdot_bar_d=2.0)
        q, _ = leaky_step(st, 0.0, 0.1)
        assert q == pytest.approx(0.1 + 2.0 * 0.001, rel=1e-15)

    def test_full_velocity_leak(self):
        st = LeakyState(alpha_v=1.0, alpha_p=0.0, dT=0.001, qdot_bar_d=5.0)
        _, v = leaky_step(st, 0.0, 0.0)
        assert v == 0.0

    def test_uses_pre_update_velocity_in_position(self):
        st = LeakyState(alpha_v=0.0, alpha_p=0.0, dT=0.5, qdot_bar_d=1.0)
        q, v = leaky_step(st, 2.0, 0.0)
        assert q == 0.5   # old velocity * dT
        assert v == 2.0   # updated afterwards

    def test_geometric_decay_after_input_stops(self):
        st = LeakyState(alpha_v=0.75, alpha_p=0.75, dT=0.001)
        for k in range(25):
            leaky_step(st, 1.0, 0.1)
        v_end = st.qdot_bar_d
        steps = 0
        while abs(st.qdot_bar_d) >= 1e-4:
            leaky_step(st, 0.0, 0.1)
            steps += 1
            assert steps <= 40
        # pure geometric contraction by (1 - alpha_v)
        assert st.qdot_bar_d == pytest.approx(v_end * 0.25**steps, rel=1e-9)

    def test_bounded_for_bounded_inputs(self):
        st = LeakyState(alpha_v=0.25, alpha_p=0.25, dT=0.002)
        rng = np.random.default_rng(7)
        v_bound = 1.0 * 0.002 / 0.25
        q_bound = (v_bound * 0.002 + 0.25 * 1.0) / 0.25
        for _ in range(20000):
            leaky_step(st, rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert abs(st.qdot_bar_d) <= v_bound * (1 + 1e-12)
            assert abs(st.q_bar_d) <= q_bound * (1 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LeakyState(alpha_v=1.5, alpha_p=0.0, dT=0.001)
        with pytest.raises(ValueError):
            LeakyState(alpha_v=0.0, alpha_p=0.0, dT=0.0)
