import math

import numpy as np
import pytest

from seactrl.lti import (
    ContinuousTransferFunction,
    FrequencyResponse,
    NyquistError,
    freq_response,
    log_grid,
)
from seactrl.plant import nominal_lsea_tf
from seactrl.sysid import (
    _CSV_BLOCK_ROWS,
    ChirpSpec,
    FitError,
    TimeSeries,
    empirical_frf,
    exponential_chirp_point,
    fit_rational,
    linear_chirp_freq_hz,
    linear_chirp_point,
    write_csv,
    write_frf_csv,
    zoh_compensate,
)

PN_MONIC_DEN = np.array([1.0, 113.0, 2304.0, 98700.0])
PN_MONIC_NUM = 20880.0


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

    def test_nyquist_violation_rejected(self):
        with pytest.raises(NyquistError):
            ChirpSpec(kind="linear", amplitude=1.0, duration=10.0,
                      sample_period=1e-3, omega_o=200.0)
        with pytest.raises(NyquistError):
            ChirpSpec(kind="exponential", amplitude=1.0, duration=10.0,
                      sample_period=1e-3, f_start=0.1, f_end=600.0)

    def test_phase_continuity(self):
        # sample-to-sample phase increments stay below pi for a valid spec
        spec = ChirpSpec(kind="linear", amplitude=1.0, duration=3.0,
                         sample_period=1e-3, omega_o=400.0)
        t = np.arange(0, 3.0 + 1e-9, 1e-3)
        ph = spec.omega_o * t * t
        assert np.max(np.diff(ph)) < np.pi
        espec = ChirpSpec(kind="exponential", amplitude=1.0, duration=20.0,
                          sample_period=1e-3, f_start=0.1, f_end=400.0)
        lnk = math.log(espec.f_end / espec.f_start) / espec.duration
        te = np.arange(0, 20.0 + 1e-9, 1e-3)
        phe = 2 * np.pi * espec.f_start * (np.exp(lnk * te) - 1.0) / lnk
        assert np.max(np.diff(phe)) < np.pi

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChirpSpec(kind="triangular", amplitude=1.0, duration=1.0, sample_period=1e-3)
        with pytest.raises(ValueError):
            ChirpSpec(kind="linear", amplitude=0.0, duration=1.0,
                      sample_period=1e-3, omega_o=1.0)
        with pytest.raises(ValueError):
            ChirpSpec(kind="exponential", amplitude=1.0, duration=1.0,
                      sample_period=1e-3, f_start=0.1)

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


class TestWriteCsv:
    SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, 0.1 + 0.2,
               3.0, -42.0, 1e9, 123456789.0)

    @pytest.mark.parametrize("rows", [0, 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
    def test_matches_per_value_format_oracle(self, tmp_path, rows):
        vals = np.resize(np.array(self.SPECIAL), rows)
        cols = (vals, vals[::-1], np.arange(rows) * 0.001)
        path = tmp_path / "out.csv"
        write_csv(path, ("a", "b", "c"), cols)
        oracle = "a,b,c\n" + "".join(
            ",".join(f"{v:.9g}" for v in row) + "\n" for row in zip(*cols))
        assert path.read_text() == oracle


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
            y = bilinear_discretize(tf, 1e-3).run(u)
            frf = empirical_frf(TimeSeries(1e-3, u), TimeSeries(1e-3, y), grid)
            return np.nanmean(np.abs(frf.values - ref))

        assert err(65536) < err(4096)

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
