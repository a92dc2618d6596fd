import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seactrl.control import PidConfig, nominal_lsea_tf, pid_transfer_function, q_filter
from seactrl import lti
from seactrl.lti import (
    CausalityError,
    ContinuousTransferFunction,
    DiscreteIirFilter,
    FrequencyResponse,
    NyquistError,
    bilinear_discretize,
    bilinear_num_den,
    block_scan,
    butterworth_lowpass,
    freq_response,
    log_grid,
    taylor_shift,
    tustin_gap,
)
from seactrl.sysid import fit_rational

from oracles import random_stable_tf, tustin_direct


def filtered(filt, xs):
    """Step ``filt`` over the sequence ``xs`` and return the outputs."""
    step = filt.stepper()
    return np.array([step(x) for x in np.asarray(xs, dtype=float).tolist()])


def _q_over_pn():
    pn, q = nominal_lsea_tf(), q_filter(2.0 * np.pi * 25.0)
    return ContinuousTransferFunction(np.polymul(q.num, pn.den), np.polymul(q.den, pn.num))


# the continuous models the controller discretizes at its 1 kHz rate
CONTROLLER_TFS = {
    "plant": nominal_lsea_tf,
    "q": lambda: q_filter(2.0 * np.pi * 25.0),
    "q_over_plant": _q_over_pn,
    "pid": lambda: pid_transfer_function(PidConfig(2.0, 4.0, 0.5, 3.5e-3)),
}


def _scipy_bilinear_gaps(tf):
    """Relative gaps of ``bilinear_discretize`` to scipy at 1 kHz.

    Returns the largest numerator and denominator coefficient gaps, each
    relative to its largest coefficient, and the largest relative gap of
    the frequency response to ``scipy.signal.freqz`` of scipy's
    ``cont2discrete(method="bilinear")`` coefficients.
    """
    signal = pytest.importorskip("scipy.signal")
    T = 1e-3
    zn, zd = bilinear_num_den(tf, T)
    b, a, _ = signal.cont2discrete((tf.num, tf.den), T, method="bilinear")
    b, a = np.ravel(b) / a[0], a / a[0]
    freqs = np.array([0.2, 1.0, 5.0, 25.0, 100.0, 400.0])
    _, want = signal.freqz(b, a, worN=freqs, fs=1.0 / T)
    got = freq_response(bilinear_discretize(tf, T), freqs).values
    return (np.max(np.abs(zn - b)) / np.max(np.abs(zn)),
            np.max(np.abs(zd - a)) / np.max(np.abs(a)),
            np.max(np.abs(got - want) / np.abs(want)))


# a normal finite coefficient, and a pole or zero magnitude times the
# sample period, in a range where the Tustin coefficients stay conditioned
_coeff = st.floats(-10.0, 10.0, allow_subnormal=False)
_root_times_T = st.floats(1e-3, 0.5)


class TestTaylorShift:
    def test_square(self):
        assert np.allclose(taylor_shift([1.0, 0.0, 0.0]), [1.0, 2.0, 1.0])

    def test_constant_invariant(self):
        assert np.array_equal(taylor_shift([1.0]), [1.0])

    def test_cubic_by_hand(self):
        # 2(x+1)^3 + (x+1) + 5 = 2x^3 + 6x^2 + 7x + 8
        assert np.allclose(taylor_shift([2.0, 0.0, 1.0, 5.0]), [2.0, 6.0, 7.0, 8.0])

    def test_overflow_gives_non_finite_coefficients_without_warning(self):
        # a PID's Tustin chain at gains of 1e308: the run that uses these
        # coefficients reports the fault, so the shift itself stays quiet
        got = taylor_shift([1e308, 1e308, 1e308])
        assert np.isinf(got[1:]).all()

    def test_negative_shift_inverts(self):
        rng = np.random.default_rng(0)
        c = rng.normal(size=6)
        assert np.allclose(taylor_shift(taylor_shift(c, 1.0), -1.0), c, atol=1e-12)

    @given(st.lists(_coeff, min_size=1, max_size=7), st.floats(-2.0, 2.0),
           st.floats(-2.0, 2.0))
    def test_shifted_polynomial_evaluates_equal(self, coeffs, shift, x):
        # p(x + a) from the shifted coefficients; the bound scales with the
        # largest value the terms can take (measured <= 3.7e-16 of it), plus
        # an absolute floor for products that underflow
        got = np.polyval(taylor_shift(coeffs, shift), x)
        want = np.polyval(coeffs, x + shift)
        scale = np.polyval(np.abs(coeffs), abs(x) + abs(shift))
        assert abs(got - want) <= 1e-13 * scale + 1e-290


class TestPolynomial:
    """Coefficient coercion of a transfer function's numerator and denominator."""

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ContinuousTransferFunction([], [1.0])

    def test_strips_leading_zeros(self):
        tf = ContinuousTransferFunction([0.0, 0.0, 3.0, 1.0], [0.0, 1.0, 0.0])
        assert tf.num.tolist() == [3.0, 1.0]
        assert tf.order == 1
        assert tf(2.0) == 3.5

    def test_zero_polynomial(self):
        assert ContinuousTransferFunction([0.0, 0.0], [1.0]).num.tolist() == [0.0]

    @pytest.mark.parametrize("num, den, gain", [
        ([208.8], [0.01, 1.13, 23.04, 987.0], 208.8 / 987.0),
        ([1.0, 2.0], [1.0, 0.0], np.inf),           # integrator
        ([3.0, 0.0], [1.0, 1.0], 0.0),              # differentiator
        ([3.0, 0.5, 0.0], [1.0, 0.25, 0.0], 2.0),   # common factor s cancels
        ([0.0], [1.0, 0.0], 0.0),
    ])
    def test_dc_gain_is_the_limit_at_zero(self, num, den, gain):
        assert ContinuousTransferFunction(num, den).dc_gain() == gain


class TestBilinear:
    def test_integrator_is_trapezoid_rule(self):
        # 1/s at T = 0.002 -> y0 = y1 + 0.001 (x0 + x1)
        filt = bilinear_discretize(ContinuousTransferFunction([1.0], [1.0, 0.0]), 0.002)
        assert np.allclose(filt.a_hat, [0.001, 0.001], rtol=0, atol=1e-18)
        assert np.allclose(filt.b_hat, [1.0], rtol=0, atol=1e-15)

    def test_static_gain_unaffected(self):
        filt = bilinear_discretize(ContinuousTransferFunction([1.0], [1.0]), 0.004)
        assert filt.step(3.7) == 3.7

    def test_nominal_plant_dc_preserved(self):
        pn = ContinuousTransferFunction([208.8], [0.01, 1.13, 23.04, 987.0])
        filt = bilinear_discretize(pn, 0.001)
        dc = filt(1.0).real
        assert dc == pytest.approx(208.8 / 987.0, rel=1e-9)
        assert round(dc, 5) == 0.21155

    def test_invalid_period(self):
        tf = ContinuousTransferFunction([1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            bilinear_discretize(tf, 0.0)
        with pytest.raises(ValueError):
            bilinear_discretize(tf, -0.01)

    def test_non_causal_rejected_at_construction(self):
        with pytest.raises(CausalityError):
            ContinuousTransferFunction([1.0, 0.0, 0.0], [1.0, 1.0])

    def test_matches_direct_substitution(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            tf = random_stable_tf(rng)
            T = 10.0 ** rng.uniform(-4, -2)
            zn, zd = bilinear_num_den(tf, T)
            on, od = tustin_direct(tf.num, tf.den, T)
            assert np.max(np.abs(zn - on)) <= 1e-9 * max(1.0, np.max(np.abs(on)))
            assert np.max(np.abs(zd - od)) <= 1e-9 * np.max(np.abs(od))

    def test_dc_preservation(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            tf = random_stable_tf(rng)
            T = 1e-3
            filt = bilinear_discretize(tf, T)
            # tolerance reflects direct-form coefficient rounding for slow poles
            assert filt(1.0).real == pytest.approx(tf.dc_gain(), rel=1e-6)

    def test_stability_preservation(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            tf = random_stable_tf(rng, max_order=6)
            filt = bilinear_discretize(tf, 1e-3)
            assert np.all(np.abs(filt.poles()) < 1.0)

    @given(st.lists(_root_times_T, min_size=1, max_size=4),
           st.lists(_root_times_T, max_size=4), st.floats(0.1, 10.0),
           st.sampled_from([1e-4, 1e-3, 1e-2]))
    def test_dc_gain_kept(self, poles_T, zeros_T, gain, T):
        # s = 0 maps to z = 1; measured <= 3.1e-9 relative over this domain
        zeros_T = zeros_T[:len(poles_T)]
        tf = ContinuousTransferFunction(gain * np.poly([-w / T for w in zeros_T]),
                                        np.poly([-w / T for w in poles_T]))
        filt = bilinear_discretize(tf, T)
        assert filt(1.0).real == pytest.approx(tf.dc_gain(), rel=1e-6)

    # scipy discretizes a controllable-canonical state space and converts
    # back with ss2tf, whose numerator loses digits as the order and the
    # stiffness grow; its error, not the library's, sets these bounds
    @pytest.mark.parametrize("name", list(CONTROLLER_TFS))
    def test_matches_scipy_cont2discrete(self, name):
        # measured <= 1.7e-10 (numerator) and 4.4e-9 (response)
        num, den, response = _scipy_bilinear_gaps(CONTROLLER_TFS[name]())
        assert num <= 1e-9 and den <= 1e-14 and response <= 2e-8

    def test_matches_scipy_cont2discrete_random(self):
        # second-order systems: measured <= 2.2e-9 (numerator) and 1.25e-8
        # (response) over these draws
        rng = np.random.default_rng(5)
        for _ in range(100):
            num, den, response = _scipy_bilinear_gaps(random_stable_tf(rng, max_order=2))
            assert num <= 1e-8 and den <= 1e-14 and response <= 5e-8

    def test_pole_at_tustin_singularity_rejected(self):
        # a pole exactly at s = 2/T zeroes the current-output coefficient
        T = 0.001
        tf = ContinuousTransferFunction([1.0], [1.0, -2.0 / T])
        with pytest.raises(CausalityError):
            bilinear_discretize(tf, T)


class TestFilterStep:
    def test_trapezoid_hand_recursion(self):
        filt = bilinear_discretize(ContinuousTransferFunction([1.0], [1.0, 0.0]), 0.002)
        assert filt.step(1.0) == pytest.approx(0.001, abs=1e-18)
        assert filt.step(1.0) == pytest.approx(0.003, abs=1e-18)

    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1e-3])
    def test_rejects_period_not_positive_and_finite(self, T):
        # a NaN period used to be accepted, and freq_response then returned NaN
        with pytest.raises(ValueError, match="sample period must be positive"):
            DiscreteIirFilter([1.0, 1.0], [0.5], T)

    def test_nan_propagates(self):
        filt = bilinear_discretize(ContinuousTransferFunction([1.0], [1.0, 1.0]), 0.01)
        assert np.isnan(filt.step(np.nan))

    def test_matches_scipy_lfilter(self):
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(31)
        for _ in range(100):
            filt = bilinear_discretize(random_stable_tf(rng, max_order=8),
                                       10.0 ** rng.uniform(-4, -2))
            x = rng.normal(size=400)
            ref = signal.lfilter(filt.a_hat, filt.den, x)
            assert np.max(np.abs(filtered(filt, x) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_butterworth_impulse_matches_scipy_lfilter(self):
        signal = pytest.importorskip("scipy.signal")
        filt = bilinear_discretize(butterworth_lowpass(8, 25.0), 1e-3)
        x = np.zeros(10**5)
        x[0] = 1.0
        ref = signal.lfilter(filt.a_hat, filt.den, x)
        assert np.max(np.abs(filtered(filt, x) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_history_lengths(self):
        filt = bilinear_discretize(
            ContinuousTransferFunction([208.8], [0.01, 1.13, 23.04, 987.0]), 1e-3)
        # DF2T keeps one state value per order
        assert filt.a_hat.size == 4 and filt.b_hat.size == 3
        assert len(filt._z) == 3

    def test_steppers_share_state_with_step(self):
        # a stepper built mid-sequence continues from the state the
        # earlier stepper and step left
        filt = bilinear_discretize(
            ContinuousTransferFunction([208.8], [0.01, 1.13, 23.04, 987.0]), 1e-3)
        twin = bilinear_discretize(
            ContinuousTransferFunction([208.8], [0.01, 1.13, 23.04, 987.0]), 1e-3)
        step = filt.stepper()
        xs = np.random.default_rng(4).normal(size=300).tolist()
        for i, x in enumerate(xs):
            got = step(x) if i % 2 else filt.step(x)
            assert got == twin.step(x)
        later = filt.stepper()
        assert [later(x) for x in xs] == [twin.step(x) for x in xs]


class TestTustinGap:
    def test_rounding_floor_at_controller_rate(self):
        tf = nominal_lsea_tf()
        gap = tustin_gap(tf, bilinear_discretize(tf, 1e-3), log_grid(0.1, 100.0, 13))
        assert 0.0 < gap < 1e-10

    def test_measures_a_coefficient_error(self):
        # a numerator scaled by 1 + 1e-6 is off by 1e-6 at every frequency
        tf = nominal_lsea_tf()
        filt = bilinear_discretize(tf, 1e-3)
        scaled = DiscreteIirFilter(filt.a_hat * (1.0 + 1e-6), filt.b_hat, filt.T)
        assert tustin_gap(tf, scaled, log_grid(0.1, 100.0, 13)) == pytest.approx(1e-6, rel=1e-3)

    def test_needs_frequencies_below_nyquist(self):
        tf = nominal_lsea_tf()
        filt = bilinear_discretize(tf, 1e-3)
        for freqs in ([], [10.0, 500.0]):
            with pytest.raises(NyquistError):
                tustin_gap(tf, filt, freqs)


class TestFrequencyResponse:
    def test_nominal_plant_low_frequency_anchor(self):
        pn = ContinuousTransferFunction([208.8], [0.01, 1.13, 23.04, 987.0])
        resp = freq_response(pn, [1e-3 / (2 * np.pi)])  # s = j*1e-3
        assert round(float(resp.magnitude_db[0]), 2) == -13.49
        assert abs(float(resp.phase_deg[0])) < 0.01

    def test_phase_keeps_nan_and_unwraps_across_an_invalid_bin(self):
        # the phase turns 70 degrees a bin, to 420; bin 3 is invalid, so it
        # stays NaN, and the valid bins unwrap across it as if adjacent
        turns = np.radians(70.0 * np.arange(7))
        values = np.exp(1j * turns)
        values[3] = complex(np.nan, np.nan)
        phase = FrequencyResponse(np.arange(1.0, 8.0), values).phase_deg
        assert np.isnan(phase[3])
        valid = [0, 1, 2, 4, 5, 6]
        np.testing.assert_allclose(phase[valid], np.degrees(turns[valid]), rtol=0, atol=1e-9)
        # every bin valid: one unwrap over the whole response
        whole = FrequencyResponse(np.arange(1.0, 8.0), np.exp(1j * turns)).phase_deg
        assert np.array_equal(whole, np.degrees(np.unwrap(np.angle(np.exp(1j * turns)))))

    def test_grid_must_increase(self):
        pn = ContinuousTransferFunction([1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            freq_response(pn, [1.0, 1.0])
        with pytest.raises(ValueError):
            freq_response(pn, [0.0, 1.0])

    def test_discrete_nyquist_guard(self):
        filt = bilinear_discretize(ContinuousTransferFunction([1.0], [1.0, 1.0]), 1e-3)
        with pytest.raises(NyquistError):
            freq_response(filt, [100.0, 500.0])
        freq_response(filt, [100.0, 499.9])  # strictly below passes

    def test_round_trip_fidelity(self):
        # discrete vs continuous bode for well-conditioned systems: poles and
        # zeros damped and in-band, evaluated up to 0.04/T (warping stays
        # under 0.5 dB for relative degree <= 8 there)
        rng = np.random.default_rng(21)
        T = 1e-3
        grid = log_grid(0.1, 0.04 / T, 60)
        for _ in range(120):
            tf = random_stable_tf(rng, max_order=8, w_lo=40.0,
                                  w_hi=0.08 * 2 * np.pi / T)
            filt = bilinear_discretize(tf, T)
            rc = freq_response(tf, grid)
            rd = freq_response(filt, grid)
            assert np.max(np.abs(rc.magnitude_db - rd.magnitude_db)) < 0.5
            assert np.max(np.abs(rc.phase_deg - rd.phase_deg)) < 2.0


class TestFitIdempotence:
    @given(st.floats(0.5, 20.0), st.floats(0.05, 1.0), st.floats(0.5, 50.0),
           st.floats(0.1, 10.0))
    def test_refit_of_a_fit_returns_it(self, f_n, zeta, f_p, gain):
        # a second-order fit of a third-order system is not that system, but
        # refitting the fit's own response must return the fit (measured
        # <= 2.6e-13 of the peak response)
        wn, wp = 2.0 * np.pi * f_n, 2.0 * np.pi * f_p
        true = ContinuousTransferFunction(
            [gain * wn * wn * wp], np.polymul([1.0, 2.0 * zeta * wn, wn * wn], [1.0, wp]))
        grid = log_grid(0.1, 50.0, 30)
        first = fit_rational(freq_response(true, grid), 0, 2)
        second = fit_rational(freq_response(first.tf, grid), 0, 2)
        want = freq_response(first.tf, grid).values
        got = freq_response(second.tf, grid).values
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


class TestButterworth:
    def test_dc_gain_unity(self):
        assert butterworth_lowpass(8, 25.0).dc_gain() == pytest.approx(1.0, rel=1e-12)

    def test_cutoff_is_3db(self):
        bw = butterworth_lowpass(8, 25.0)
        mag = float(freq_response(bw, [25.0]).magnitude_db[0])
        assert mag == pytest.approx(-20 * np.log10(np.sqrt(2.0)), abs=1e-9)

    def test_discrete_poles_inside_unit_circle(self):
        filt = bilinear_discretize(butterworth_lowpass(8, 25.0), 1e-3)
        assert np.max(np.abs(filt.poles())) < 1.0

    def test_impulse_bounded_over_1e5_steps(self):
        filt = bilinear_discretize(butterworth_lowpass(8, 25.0), 1e-3)
        x = np.zeros(10**5)
        x[0] = 1.0
        y = filtered(filt, x)
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(y)) < 1.0
        assert abs(y[-1]) < 1e-12


def trajectory(A, b, C, u):
    """``y[k] = C x[k]``, ``x[k + 1] = A x[k] + b u[k]`` from ``x[0] = 0``, tick
    by tick in Python floats; returns the outputs and the states ``x[k]``."""
    A, b = np.asarray(A, float).tolist(), np.asarray(b, float).tolist()
    x, ys, xs = [0.0] * len(A), [], []
    for v in np.asarray(u, float).tolist():
        xs.append(x)
        ys.append(sum(c * e for c, e in zip(C, x)))
        x = [sum(a * e for a, e in zip(row, x)) + g * v for row, g in zip(A, b)]
    return np.array(ys), np.array(xs)


def orbit(A, x, count):
    """``[x, A x, ..., A^count x]``, by repeated ``A x`` in Python floats."""
    A, xs = np.asarray(A, float).tolist(), [np.asarray(x, float).tolist()]
    for _ in range(count):
        xs.append([sum(a * e for a, e in zip(row, xs[-1])) for row in A])
    return np.array(xs)


class TestBlockScan:
    # a record of two chunks whose last segment is partial
    N = lti._SCAN_CHUNK + 24 * lti._SCAN_SEGMENT + 5
    SYSTEMS = pytest.mark.parametrize("n, p", [(1, 1), (3, 1), (7, 2)])

    @staticmethod
    def stable_system(n, p, size=N):
        rng = np.random.default_rng(n + 10)
        A = rng.standard_normal((n, n))
        A *= 0.97 / np.max(np.abs(np.linalg.eigvals(A)))
        b, C = rng.standard_normal(n), rng.standard_normal((p, n))
        u = np.sin(np.cumsum(rng.uniform(0.0, 0.3, size)))
        return A, b, C, u

    @SYSTEMS
    def test_equals_the_recurrence_up_to_rounding(self, n, p):
        # p output rows over one state pass, each the recurrence's
        A, b, C, u = self.stable_system(n, p)
        outs = [np.full(self.N, np.nan) for _ in range(p)]
        assert block_scan(A, b, C, u, outs) is not None
        for out, c in zip(outs, C):
            want = trajectory(A, b, c, u)[0]
            assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))

    @SYSTEMS
    def test_state_at_a_tick_equals_the_recurrence(self, n, p):
        # segment edges, a chunk edge and the last tick, at once, one at a
        # time and a selection of rows at a time
        L = lti._SCAN_SEGMENT
        A, b, C, u = self.stable_system(n, p)
        scan = block_scan(A, b, C, u, [np.empty(self.N) for _ in range(p)])
        states = trajectory(A, b, C[0], u)[1]
        ticks = np.array([0, L - 1, L, L + 1, lti._SCAN_CHUNK, self.N - 1])
        got = scan.state(ticks)
        assert got.shape == (n, ticks.size)
        assert np.max(np.abs(got - states[ticks].T)) <= 1e-12 * np.max(np.abs(states))
        assert np.array_equal(got[:, 0], np.zeros(n))
        for i, k in enumerate(ticks.tolist()):
            assert np.array_equal(scan.state(k), got[:, i])
        assert np.array_equal(scan.state(ticks, slice(1, n)), got[1:])

    @SYSTEMS
    def test_free_response_equals_repeated_products(self, n, p):
        # C A^j x and the rows of A^j x, across the scan's own powers
        # (j <= L) and the doubled ones, up to the horizon
        A, b, C, u = self.stable_system(n, p)
        scan = block_scan(A, b, C, u, [np.empty(self.N) for _ in range(p)])
        x = np.random.default_rng(n).standard_normal(n)
        js = np.array([0, 1, 31, 32, 33, 1024])
        assert scan.horizon >= js[-1]
        want = orbit(A, x, js[-1])
        outputs = want @ C.T
        got = scan.free(x, js)
        assert got.shape == (p, js.size)
        assert np.max(np.abs(got - outputs[js].T)) <= 1e-12 * np.max(np.abs(outputs))
        got = scan.free(x, js, slice(None))
        assert got.shape == (n, js.size)
        assert np.max(np.abs(got - want[js].T)) <= 1e-12 * np.max(np.abs(want))
        for i, j in enumerate(js.tolist()):
            assert np.array_equal(scan.free(x, j, slice(None)), got[:, i])
        assert np.array_equal(scan.free(x, js, [n - 1]), got[n - 1:])

    # 1 and 2 segments (no pass of the doubling prefix, one), 64 and 65 (a
    # power of two, and one more), 537 (N ticks, two chunks) and 1,025
    # (three chunks), each record's last segment partial
    @pytest.mark.parametrize("segments", [1, 2, 64, 65, 537, 1025])
    def test_segment_starts_equal_the_recurrence(self, segments):
        n, L = 3, lti._SCAN_SEGMENT
        size = (segments - 1) * L + 5
        A, b, C, u = self.stable_system(n, 1, size)
        starts = block_scan(A, b, C, u, [np.empty(size)]).starts
        assert starts.shape == (segments, n)
        want = trajectory(A, b, C[0], u)[1][::L]
        assert np.max(np.abs(starts - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(starts[0], np.zeros(n))

    @pytest.mark.parametrize("size", [0, 1, lti._SCAN_SEGMENT + 1])
    def test_short_records(self, size):
        # y = x + 0.25 u, x+ = 0.5 x + u, the feedthrough added outside the
        # scan; the state at every tick, and the free response 0.5^j x,
        # exact in binary, over the horizon
        u = np.linspace(1.0, 2.0, size)
        out = np.full(size, np.nan)
        scan = block_scan([[0.5]], [1.0], [[1.0]], u, [out])
        x, want, states = 0.0, [], []
        for v in u.tolist():
            states.append(x)
            want.append(x + 0.25 * v)
            x = 0.5 * x + v
        np.testing.assert_allclose(out + 0.25 * u, want, rtol=1e-15)
        got = scan.state(np.arange(size))
        assert got.shape == (1, size)
        assert np.max(np.abs(got[0] - states), initial=0.0) <= 1e-12 * max(states, default=0.0)
        js = np.arange(scan.horizon + 1)
        assert scan.horizon >= lti._SCAN_SEGMENT
        assert np.array_equal(scan.free([3.0], js), [3.0 * 0.5 ** js])
        assert np.array_equal(scan.free([3.0], js, [0]), [3.0 * 0.5 ** js])

    def test_df2t_realization_steps_like_the_filter(self):
        # the filter's DF2T state z: y = z0 + b0 x, z_i+ = z_(i+1) + b_(i+1) x - a_(i+1) y;
        # the scan gives z0, and b0 x is added outside it
        filt = bilinear_discretize(_q_over_pn(), 1e-3)
        (_, *a), (b0, *b) = filt.den.tolist(), filt.a_hat.tolist()
        n = len(a)
        A = [[-a[i] if j == 0 else float(j == i + 1) for j in range(n)] for i in range(n)]
        x = np.sin(np.linspace(0.0, 200.0, 3000))
        out = np.empty(x.size)
        assert block_scan(A, [b[i] - a[i] * b0 for i in range(n)],
                          [[float(j == 0) for j in range(n)]], x, [out]) is not None
        want = filtered(filt, x)
        assert np.max(np.abs(out + b0 * x - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", ["unstable", "nan_input", "huge_input"])
    def test_gives_up_on_a_value_out_of_range(self, case):
        A = [[1.5]] if case == "unstable" else [[0.5]]
        u = np.ones(5000)
        if case == "nan_input":
            u[4000] = np.nan
        elif case == "huge_input":
            u[4000] = 1e301
        assert block_scan(A, [1.0], [[1.0]], u, [np.empty(u.size)]) is None


class TestLogGrid:
    def test_endpoints_and_monotone(self):
        g = log_grid(0.1, 100.0, 200)
        assert g[0] == pytest.approx(0.1)
        assert g[-1] == pytest.approx(100.0)
        assert np.all(np.diff(g) > 0)
        assert g.size == 601

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            log_grid(1.0, 1.0)
        with pytest.raises(ValueError):
            log_grid(0.0, 10.0)
