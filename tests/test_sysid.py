import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seactrl.control import nominal_lsea_tf
from seactrl.lti import (
    ContinuousTransferFunction,
    FrequencyResponse,
    NyquistError,
    freq_response,
    log_grid,
)
from seactrl.sysid import (
    _CSV_BLOCK_VALUES,
    FitError,
    TimeSeries,
    empirical_frf,
    exponential_chirp,
    exponential_chirp_point,
    fit_rational,
    linear_chirp_freq_hz,
    linear_chirp_point,
    write_csv,
    write_frf_csv,
    zoh_compensate,
)

from oracles import csv_reference

PN_MONIC_DEN = np.array([1.0, 113.0, 2304.0, 98700.0])
PN_MONIC_NUM = 20880.0


# an endpoint of an accepted exponential sweep: at most 500 Hz, and as low
# as 1e-300 Hz (log-uniform draws reach every decade)
_SWEEP_HZ = st.floats(1e-300, 500.0) | st.floats(-300.0, math.log10(500.0)).map(
    lambda e: min(10.0**e, 500.0))


def _written_out_sweep(a, f_start, f_end, duration, times):
    """The exponential sweep at each of ``times``, in Python floats."""
    if f_end == f_start:
        return np.array([a * math.sin(2.0 * math.pi * f_start * t) for t in times.tolist()])
    lnk = math.log(f_end / f_start) / duration
    return np.array([a * math.sin(2.0 * math.pi * f_start * (math.exp(lnk * t) - 1.0) / lnk)
                     for t in times.tolist()])


class TestChirp:
    def test_linear_values_at_zero(self):
        pos, vel, acc = linear_chirp_point(1.0, 2.75, 0.0)
        assert pos == 0.0 and vel == 0.0
        assert acc == pytest.approx(5.5, rel=1e-15)

    def test_linear_closed_forms(self):
        # derivative closed forms at a hand-checked point
        a, wo, t = 2.0, 2.75, 0.3
        pos, vel, acc = linear_chirp_point(a, wo, t)
        ph = wo * t * t
        assert pos == pytest.approx(a * math.sin(ph), rel=1e-15)
        assert vel == pytest.approx(2 * a * wo * t * math.cos(ph), rel=1e-15)
        assert acc == pytest.approx(
            2 * a * wo * math.cos(ph) - 4 * a * wo**2 * t * t * math.sin(ph), rel=1e-14)

    def test_instantaneous_frequency(self):
        assert linear_chirp_freq_hz(2.75, 1.0) == pytest.approx(2.75 / math.pi)
        assert round(linear_chirp_freq_hz(2.75, 1.0), 4) == 0.8754

    def test_linear_series_match_point_forms(self):
        # at samples of a 1 ms series, the point form's velocity and
        # acceleration equal central differences of its position and velocity;
        # their truncation error h^2 |x'''| / 6 stays below 1e-6 up to 2 s
        a, wo, h = 1.5, 2.75, 1e-5
        for idx in (0, 500, 1999):
            t = idx * 1e-3
            pos_m, vel_m, _ = linear_chirp_point(a, wo, t - h)
            pos_p, vel_p, _ = linear_chirp_point(a, wo, t + h)
            _, vel, acc = linear_chirp_point(a, wo, t)
            assert (pos_p - pos_m) / (2 * h) == pytest.approx(vel, rel=0, abs=1e-6)
            assert (vel_p - vel_m) / (2 * h) == pytest.approx(acc, rel=0, abs=1e-6)

    def test_exponential_endpoints(self):
        _, f_0 = exponential_chirp_point(1.0, 0.1, 100.0, 120.0, 0.0)
        _, f_end = exponential_chirp_point(1.0, 0.1, 100.0, 120.0, 120.0)
        assert f_0 == pytest.approx(0.1, rel=1e-12)
        assert f_end == pytest.approx(100.0, rel=1e-6)

    def test_phase_continuity(self):
        # sample-to-sample phase increments stay below pi for a valid sweep
        omega_o, T = 400.0, 1e-3
        t = np.arange(0, 3.0 + 1e-9, T)
        ph = omega_o * t * t
        assert np.max(np.diff(ph)) < np.pi
        f_start, f_end, duration = 0.1, 400.0, 20.0
        lnk = math.log(f_end / f_start) / duration
        te = np.arange(0, duration + 1e-9, T)
        phe = 2 * np.pi * f_start * (np.exp(lnk * te) - 1.0) / lnk
        assert np.max(np.diff(phe)) < np.pi

    @pytest.mark.parametrize("f_start, f_end",
                             [(0.05, 15.0), (0.1, 35.0), (2.0, 2.0), (15.0, 0.05)])
    def test_sampler_matches_written_out_sweep(self, f_start, f_end):
        # the array sampler keeps the scalar expression's order: equal bits
        a, duration = 1.75, 120.0
        times = np.arange(120_001) * 1e-3
        got = exponential_chirp(a, f_start, f_end, duration)(times)
        want = []
        for t in times.tolist():
            if f_end == f_start:
                want.append(a * math.sin(2.0 * math.pi * f_start * t))
            else:
                lnk = math.log(f_end / f_start) / duration
                want.append(a * math.sin(2.0 * math.pi * f_start * (math.exp(lnk * t) - 1.0)
                                         / lnk))
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
        for t, expected in zip(times[::997].tolist(), want[::997]):
            value = exponential_chirp_point(a, f_start, f_end, duration, t)[0]
            assert type(value) is float and value == expected

    @given(f_start=_SWEEP_HZ, f_end=st.none() | _SWEEP_HZ,
           duration=st.floats(0.1, 1e4), amplitude=st.floats(1e-3, 1e3),
           ticks=st.integers(1, 400))
    def test_sampler_matches_written_out_sweep_property(self, f_start, f_end, duration,
                                                        amplitude, ticks):
        # any accepted sweep (f_end None: a constant tone), sampled at
        # ``ticks`` times k T below the duration: equal bits, and no
        # floating-point exception on the way
        f_end = f_start if f_end is None else f_end
        times = np.arange(ticks) * (duration / ticks)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = exponential_chirp(amplitude, f_start, f_end, duration)(times)
        want = _written_out_sweep(amplitude, f_start, f_end, duration, times)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_sampler_bits_do_not_depend_on_block_or_stride(self):
        # the block path and the tick loop sample by blocks, and numpy may
        # pick another inner loop for a short or non-contiguous input
        times = np.arange(120_000) * 1e-3
        sample = exponential_chirp(1.75, 0.05, 15.0, 120.0)
        want = _written_out_sweep(1.75, 0.05, 15.0, 120.0, times).view(np.uint64)
        for block in (times.size, 1024, 1000):
            got = np.concatenate([sample(times[k:k + block])
                                  for k in range(0, times.size, block)])
            assert np.array_equal(got.view(np.uint64), want)
        assert np.array_equal(sample(times[::3]).view(np.uint64), want[::3])

    def test_constant_tone_degenerate_exponential(self):
        v, f = exponential_chirp_point(1.0, 2.0, 2.0, 10.0, 0.25)
        assert f == 2.0
        assert v == pytest.approx(math.sin(2 * np.pi * 2.0 * 0.25), rel=1e-12)


class TestTimeSeries:
    def test_csv_round_trip(self, tmp_path):
        ts = TimeSeries(0.01, np.array([0.0, 1.5, -2.25, 3.125]))
        path = tmp_path / "ts.csv"
        ts.to_csv(path)
        back = TimeSeries.from_csv(path)
        assert back.sample_period == pytest.approx(0.01)
        assert np.allclose(back.samples, ts.samples)

    def test_dropped_sample_rejected(self, tmp_path):
        ts = TimeSeries(0.01, np.arange(6.0))
        path = tmp_path / "ts.csv"
        ts.to_csv(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4] + lines[5:]) + "\n")  # drop t = 0.03
        with pytest.raises(ValueError, match="line 5"):
            TimeSeries.from_csv(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeries(0.0, [1.0])
        with pytest.raises(ValueError):
            TimeSeries(0.01, [])

    @pytest.mark.parametrize("period", [math.nan, math.inf, -0.01])
    def test_rejects_period_not_positive_and_finite(self, period):
        # a NaN period used to be accepted, and empirical_frf then failed
        # with "must share the sample period", which does not name it
        with pytest.raises(ValueError, match="sample period must be positive"):
            TimeSeries(period, [1.0, 2.0])


def _ulps(v, n=2):
    """``v`` and its ``n`` float64 neighbours on each side."""
    out = [v]
    for toward in (-math.inf, math.inf):
        w = v
        for _ in range(n):
            w = math.nextafter(w, toward)
            out.append(w)
    return out


def _float_from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# any float64 bit pattern (NaN payloads and subnormals included), any float
# hypothesis draws, and values in the range the numpy kernel formats itself
_ANY_FLOAT = st.one_of(
    st.integers(0, 2**64 - 1).map(_float_from_bits),
    st.floats(),
    st.floats(-1e31, 1e31),
    st.floats(-1.0, 1.0),
)


class TestWriteCsv:
    SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1 + 0.2,
               3.0, -42.0, 1e9, 123456789.0)

    @staticmethod
    def assert_matches_oracle(tmp_path, cols):
        header = tuple(f"c{j}" for j in range(len(cols)))
        path, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
        write_csv(path, header, cols)
        csv_reference(ref, header, cols)
        assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("rows", [0, 1, 512, 513, _CSV_BLOCK_VALUES // 3,
                                      _CSV_BLOCK_VALUES // 3 + 1])
    def test_matches_per_value_format_oracle(self, tmp_path, rows):
        vals = np.resize(np.array(self.SPECIAL), rows)
        self.assert_matches_oracle(tmp_path, (vals, vals[::-1], np.arange(rows) * 0.001))

    # constant columns are formatted once, into the row format
    @pytest.mark.parametrize("case, value", [
        ("zeros", [0.0]),
        ("negative_zeros", [-0.0]),
        ("mixed_zeros", [0.0, -0.0, -0.0]),
        ("nans", [math.nan]),
        ("signed_nans", [math.nan, -math.nan]),
        ("constant", [0.1 + 0.2]),
    ])
    @pytest.mark.parametrize("rows", [0, 1, 513, _CSV_BLOCK_VALUES + 1])
    def test_constant_columns_match_oracle(self, tmp_path, case, value, rows):
        col = np.resize(np.array(value), rows)
        ramp = np.arange(rows) * 0.001
        self.assert_matches_oracle(tmp_path, (col, ramp, col, np.full(rows, -42.5)))

    @pytest.mark.parametrize("rows", [0, 1, 512, 1027, _CSV_BLOCK_VALUES,
                                      2 * _CSV_BLOCK_VALUES + 3])
    def test_every_column_constant_matches_oracle(self, tmp_path, rows):
        cols = (np.zeros(rows), np.full(rows, -0.0), np.full(rows, math.nan),
                np.full(rows, 1e300), np.full(rows, 7.0))
        self.assert_matches_oracle(tmp_path, cols)

    @given(st.lists(_ANY_FLOAT, min_size=1, max_size=40))
    def test_any_float_matches_oracle(self, tmp_path_factory, values):
        vals = np.array(values)
        self.assert_matches_oracle(tmp_path_factory.mktemp("csv"), (vals, -vals[::-1]))

    # where the kernel's digits are hardest to get right: one column each of
    # 9-digit ties (k + 0.5) 10^e, powers of ten +-2 ulps (the exponent
    # estimate and the carry to 1e9), the values that round onto the fixed /
    # scientific boundaries 1e-4 and 1e9, and the edges of the kernel's
    # range 1e-14 and 1e31, both signs
    @pytest.mark.parametrize("case", ["ties", "powers_of_ten", "notation_boundaries",
                                      "kernel_range"])
    def test_hard_values_match_oracle(self, tmp_path, case):
        if case == "ties":
            vals = [(k + 0.5) * 10.0 ** e
                    for k in (100000000, 123456789, 314159265, 999999999)
                    for e in range(-23, 24)]
        elif case == "powers_of_ten":
            vals = [w for e in range(-16, 34) for w in _ulps(float(f"1e{e}"))]
        elif case == "notation_boundaries":
            vals = [w for b in (1e-4, 9.999999995e-5, 9.9999999949999e-5, 1e9,
                                999999999.5, 999999999.49999994)
                    for w in _ulps(b, 4)]
        else:
            vals = [w for b in (1e-14, 9.999999995e-15, 1e31, 9.999999995e30)
                    for w in _ulps(b, 4)]
        vals = np.array(vals)
        vals = np.concatenate([vals, -vals])
        self.assert_matches_oracle(tmp_path, (vals,))

    # a block is _CSV_BLOCK_VALUES // k rows of k varying columns, formatted
    # in one kernel call and copied column by column into the row buffer,
    # between constant columns; the files below end a row short of a block,
    # a row past it, and one and three rows past two blocks
    @pytest.mark.parametrize("varying", [1, 2, 3, 4, 5, 12])
    @pytest.mark.parametrize("past", [(1, -1), (1, 1), (2, 1), (2, 3)],
                             ids=["block-1", "block+1", "2blocks+1", "2blocks+3"])
    def test_block_edges_match_oracle(self, tmp_path, varying, past):
        blocks, extra = past
        rows = blocks * (_CSV_BLOCK_VALUES // varying) + extra
        rng = np.random.default_rng(varying)
        cols = [np.full(rows, -0.0)]
        for _ in range(varying):
            vals = rng.normal(size=rows) * 10.0 ** rng.integers(-16, 33, rows)
            vals[::7] = 0.0
            vals[3::11] = -0.0
            cols += [vals, np.full(rows, 0.1)]
        self.assert_matches_oracle(tmp_path, cols)

    # a column's field holds only the kernel slots that some value of its
    # block uses, so the fields change width where the values change form:
    # fixed >= 1, fixed with the "0.000" lead, scientific, fixed >= 1 again,
    # a block each (two varying columns), at the boundaries and a row after
    @pytest.mark.parametrize("offset", [0, 1])
    def test_used_slots_change_at_block_boundaries(self, tmp_path, offset):
        per_block = _CSV_BLOCK_VALUES // 2
        k = np.arange(per_block)
        col = np.concatenate([np.full(offset, 2.0), 1.5 + k * 1e-3, 2e-4 + k * 1e-8,
                              -3e-9 - k * 1e-13, 7.25 + k])
        rows = col.size
        self.assert_matches_oracle(tmp_path, (np.full(rows, 0.5), col, np.arange(rows) * 0.001))

    # in one block one column needs the "e+XX" slots and the other does
    # not; the next block swaps the two columns' values, so both fields
    # change width and the row does not
    def test_columns_swap_exponent_slots_at_a_block_boundary(self, tmp_path):
        k = np.arange(_CSV_BLOCK_VALUES // 2)
        sci, fixed = -1.25e-7 * (k + 1), 3.5 + k
        self.assert_matches_oracle(tmp_path, (np.concatenate([sci, fixed]),
                                              np.concatenate([fixed, sci])))

    # pendulum-chirp's peak RSS is set while its log is written, so the
    # writer's peak traced allocation is bounded on a log of that shape
    # (12,800 rows of 12 varying columns): 0.77 MB on numpy 2.4 with 8,192
    # values per kernel call, and 1.40 MB with 16,384, which the bound fails
    def test_peak_memory_of_a_pendulum_chirp_sized_log(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = 12800
        cols = [rng.normal(size=rows) * 10.0 ** rng.integers(-3, 3, rows) for _ in range(12)]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            write_csv(tmp_path / "log.csv", [f"c{j}" for j in range(12)], cols)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.9e6

    def test_unequal_columns_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=r"column 1 has 3 values, column 0 has 5"):
            write_csv(path, ("a", "b"), (np.arange(5.0), np.arange(3.0)))
        assert not path.exists()


class TestEmpiricalFrf:
    def test_identity_system(self):
        rng = np.random.default_rng(2)
        u = TimeSeries(1e-3, rng.normal(size=8192))
        frf = empirical_frf(u, u, log_grid(1.0, 400.0, 20))
        assert np.all(frf.valid)
        assert np.allclose(frf.magnitude_db, 0.0, atol=1e-9)
        assert np.allclose(frf.phase_deg, 0.0, atol=1e-9)
        assert np.allclose(frf.coherence, 1.0, atol=1e-12)

    def test_static_gain_two(self):
        rng = np.random.default_rng(3)
        u = TimeSeries(1e-3, rng.normal(size=4096))
        y = TimeSeries(1e-3, 2.0 * u.samples)
        frf = empirical_frf(u, y, [10.0, 100.0])
        assert np.allclose(frf.magnitude_db, 20 * np.log10(2.0), atol=1e-9)

    def test_low_energy_bins_flagged_invalid(self):
        # a pure tone leaves almost all bins without input energy
        t = np.arange(16384) * 1e-3
        u = TimeSeries(1e-3, np.sin(2 * np.pi * 50.0 * t))
        frf = empirical_frf(u, u, [5.0, 50.0, 200.0])
        assert frf.valid.tolist() == [False, True, False]
        assert np.isnan(frf.values[0]) and np.isnan(frf.values[2])
        assert abs(frf.values[1] - 1.0) < 1e-6

    def test_mismatched_records_rejected(self):
        u = TimeSeries(1e-3, np.zeros(128))
        with pytest.raises(ValueError):
            empirical_frf(u, TimeSeries(2e-3, np.zeros(128)), [10.0])
        with pytest.raises(ValueError):
            empirical_frf(u, TimeSeries(1e-3, np.zeros(64)), [10.0])

    def test_empty_grid_gives_empty_response(self):
        # as freq_response does for the same grid
        rng = np.random.default_rng(5)
        u = TimeSeries(1e-3, rng.normal(size=1024))
        frf = empirical_frf(u, u, [])
        want = freq_response(nominal_lsea_tf(), [])
        assert frf.freqs_hz.shape == frf.values.shape == want.values.shape == (0,)
        assert frf.coherence.shape == frf.valid.shape == (0,)

    def test_grid_above_nyquist_rejected(self):
        u = TimeSeries(1e-3, np.zeros(128))
        with pytest.raises(NyquistError):
            empirical_frf(u, u, [600.0])

    def test_longer_record_reduces_error(self):
        # first-order low-pass filtered noise: per-bin error shrinks with
        # record length
        tf = ContinuousTransferFunction([50.0], [1.0, 50.0])
        from seactrl.lti import bilinear_discretize
        grid = log_grid(2.0, 50.0, 10)
        ref = freq_response(tf, grid).values

        def err(n):
            rng = np.random.default_rng(7)
            u = rng.normal(size=n)
            step = bilinear_discretize(tf, 1e-3).stepper()
            y = np.array([step(x) for x in u.tolist()])
            frf = empirical_frf(TimeSeries(1e-3, u), TimeSeries(1e-3, y), grid)
            return np.nanmean(np.abs(frf.values - ref))

        assert err(65536) < err(4096)

    @pytest.mark.parametrize("record", ["u", "y"])
    @pytest.mark.parametrize("k", [-900, -1, 1, 900])
    def test_power_of_two_scaled_record_scales_the_estimate_exactly(self, record, k):
        # each segment is scaled by a power of two before its FFT, so the
        # spectra neither overflow nor underflow: scaling u by 2**k_u and y
        # by 2**k_y scales the estimate by 2**(k_y - k_u), bit for bit
        rng = np.random.default_rng(11)
        u = rng.normal(size=4096)
        y = np.convolve(u, [0.5, 0.3, 0.2])[:u.size]
        grid = log_grid(1.0, 400.0, 20)
        ref = empirical_frf(TimeSeries(1e-3, u), TimeSeries(1e-3, y), grid)
        k_u, k_y = (k, 0) if record == "u" else (0, k)
        frf = empirical_frf(TimeSeries(1e-3, np.ldexp(u, k_u)),
                            TimeSeries(1e-3, np.ldexp(y, k_y)), grid)
        assert ref.valid.all()
        assert np.array_equal(frf.valid, ref.valid)
        assert np.array_equal(frf.coherence.view(np.uint64), ref.coherence.view(np.uint64))
        want = np.ldexp(ref.values.real, k_y - k_u) + 1j * np.ldexp(ref.values.imag, k_y - k_u)
        assert np.array_equal(frf.values.view(np.uint64), want.view(np.uint64))

    def test_frf_csv_schema(self, tmp_path):
        rng = np.random.default_rng(4)
        u = TimeSeries(1e-3, rng.normal(size=2048))
        frf = empirical_frf(u, u, [10.0, 50.0])
        path = tmp_path / "frf.csv"
        write_frf_csv(frf, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "f_hz,mag_db,phase_deg,coherence"
        assert len(lines) == 3


class TestZohCompensate:
    def test_removes_half_sample_delay(self):
        T = 1e-3
        f = np.array([1.0, 10.0, 100.0])
        w = 2 * np.pi * f
        hold = np.exp(-1j * w * T / 2) * np.sinc(w * T / 2 / np.pi)
        frf = FrequencyResponse(f, hold)
        out = zoh_compensate(frf, T)
        assert np.allclose(out.values, 1.0, atol=1e-12)


class TestFitRational:
    def test_exact_recovery_of_nominal_plant(self):
        pn = nominal_lsea_tf()
        frf = freq_response(pn, log_grid(0.1, 50.0, 30))
        res = fit_rational(frf, 0, 3)
        den = res.tf.den / res.tf.den[0]
        num = res.tf.num / res.tf.den[0]
        assert np.allclose(den, PN_MONIC_DEN, rtol=1e-8)
        assert num[0] == pytest.approx(PN_MONIC_NUM, rel=1e-8)
        assert res.relative_residual < 1e-10

    def test_constant_fit(self):
        frf = FrequencyResponse([1.0, 2.0, 5.0], [0.5, 0.5, 0.5])
        res = fit_rational(frf, 0, 0)
        assert res.tf.num[0] / res.tf.den[0] == pytest.approx(0.5, rel=1e-12)

    def test_noisy_fit_monte_carlo(self):
        pn = nominal_lsea_tf()
        grid = log_grid(0.1, 50.0, 30)
        clean = freq_response(pn, grid).values
        for seed in range(5):
            rng = np.random.default_rng(seed)
            noisy = clean * (1.0 + 0.01 * rng.normal(size=clean.size)
                             + 0.01j * rng.normal(size=clean.size))
            res = fit_rational(FrequencyResponse(grid, noisy), 0, 3)
            assert res.relative_residual < 0.05
            assert np.all(np.real(res.tf.poles()) < 0.0)

    def test_idempotence(self):
        pn = nominal_lsea_tf()
        first = fit_rational(freq_response(pn, log_grid(0.1, 50.0, 30)), 0, 3)
        second = fit_rational(freq_response(first.tf, log_grid(0.1, 50.0, 30)), 0, 3)
        a = first.tf.den / first.tf.den[0]
        b = second.tf.den / second.tf.den[0]
        assert np.max(np.abs(a - b) / np.abs(a)) < 1e-6

    def test_sk_iterations_accepted(self):
        pn = nominal_lsea_tf()
        frf = freq_response(pn, log_grid(0.1, 50.0, 30))
        res = fit_rational(frf, 0, 3, sk_iterations=3)
        assert res.relative_residual < 1e-8

    def test_insufficient_bins_rejected(self):
        pn = nominal_lsea_tf()
        frf = freq_response(pn, [1.0, 2.0, 5.0, 10.0])
        with pytest.raises(FitError):
            fit_rational(frf, 0, 3)

    def test_causal_order_enforced(self):
        pn = nominal_lsea_tf()
        frf = freq_response(pn, log_grid(0.1, 50.0, 30))
        with pytest.raises(ValueError):
            fit_rational(frf, 3, 2)

    def test_invalid_bins_excluded(self):
        pn = nominal_lsea_tf()
        grid = log_grid(0.1, 50.0, 30)
        values = freq_response(pn, grid).values.copy()
        valid = np.ones(grid.size, bool)
        values[::7] = np.nan
        valid[::7] = False
        res = fit_rational(FrequencyResponse(grid, values, valid=valid), 0, 3)
        den = res.tf.den / res.tf.den[0]
        assert np.allclose(den, PN_MONIC_DEN, rtol=1e-8)
        assert res.n_bins == int(valid.sum())
