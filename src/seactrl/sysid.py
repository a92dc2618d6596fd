"""Chirp excitation, empirical frequency responses, and rational fitting.

Desk-scale replacement for an identification-toolbox workflow: sweep the
input, record input/output, estimate the frequency response with an H1
estimator (cross-spectrum over input auto-spectrum, Hann windows, 50%
overlap), then fit a rational transfer function with linearized complex
least squares (Levy's method, optionally refined by Sanathanan-Koerner
reweighting).  All operations are pure and safe to parallelize across
records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lti import ContinuousTransferFunction, FrequencyResponse, NyquistError

__all__ = [
    "FitError",
    "ChirpSpec",
    "TimeSeries",
    "FitResult",
    "linear_chirp_point",
    "linear_chirp_freq_hz",
    "exponential_chirp_point",
    "empirical_frf",
    "fit_rational",
    "write_csv",
    "write_frf_csv",
]

_CSV_BLOCK_ROWS = 512  # rows formatted per write; bounds the transient list memory
# an FRF bin whose input auto-spectrum is below this fraction of the
# spectral peak carries no input energy and is flagged invalid
_SPECTRUM_FLOOR = 1e-12


class FitError(RuntimeError):
    """Raised when the rational fit is rank-deficient or under-determined."""


def write_csv(path, header, columns) -> None:
    """Write equal-length numeric columns as CSV, one ``%.9g`` row per sample.

    Every CSV the package emits goes through here, so the row format
    (``%.9g`` values, ``,`` separators, ``\n`` line ends) lives in one place.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    fmt = ",".join(["%.9g"] * len(cols)) + "\n"
    n = cols[0].size if cols else 0
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, n, _CSV_BLOCK_ROWS):
            block = (c[s:s + _CSV_BLOCK_ROWS].tolist() for c in cols)
            fh.write("".join(fmt % row for row in zip(*block)))


@dataclass
class TimeSeries:
    """Uniformly sampled scalar record."""

    sample_period: float
    samples: np.ndarray

    def __post_init__(self):
        if self.sample_period <= 0.0:
            raise ValueError("sample period must be positive")
        self.samples = np.asarray(self.samples, dtype=float).ravel()
        if self.samples.size == 0:
            raise ValueError("time series must be non-empty")

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.sample_period

    def to_csv(self, path) -> None:
        write_csv(path, ("t", "value"), (self.t, self.samples))

    @classmethod
    def from_csv(cls, path) -> "TimeSeries":
        """Read a ``t,value`` CSV whose time steps all match the first within 1e-3."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        t, v = data[:, 0], data[:, 1]
        if t.size < 2:
            raise ValueError("need at least two samples to infer the period")
        dt = float(t[1] - t[0])
        off = np.flatnonzero(np.abs(np.diff(t) - dt) > 1e-3 * abs(dt))
        if off.size:
            i = int(off[0]) + 1  # 0-based data row whose time step is off
            raise ValueError(
                f"{path}: non-uniform sampling at data row {i + 1} (line {i + 2}): "
                f"time step {t[i] - t[i - 1]:g} s, expected {dt:g} s"
            )
        return cls(sample_period=dt, samples=v)


@dataclass
class ChirpSpec:
    """Swept-sine specification.

    ``linear`` sweeps use phase w_o * t^2 (so the instantaneous frequency
    is w_o t / pi); ``exponential`` sweeps run from f_start to f_end over
    the duration.  The instantaneous frequency must stay strictly below
    Nyquist for the whole sweep.
    """

    kind: str
    amplitude: float
    duration: float
    sample_period: float
    omega_o: float | None = None
    f_start: float | None = None
    f_end: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "exponential"):
            raise ValueError(f"unknown chirp kind {self.kind!r}")
        if self.amplitude <= 0.0 or self.duration <= 0.0 or self.sample_period <= 0.0:
            raise ValueError("amplitude, duration, and sample period must be positive")
        nyq = 0.5 / self.sample_period
        if self.kind == "linear":
            if self.omega_o is None or self.omega_o <= 0.0:
                raise ValueError("linear chirp needs a positive sweep rate omega_o")
            if linear_chirp_freq_hz(self.omega_o, self.duration) >= nyq:
                raise NyquistError(
                    "linear chirp reaches Nyquist before the sweep ends"
                )
        else:
            if not (self.f_start and self.f_end) or self.f_start <= 0.0 or self.f_end <= 0.0:
                raise ValueError("exponential chirp needs positive f_start and f_end")
            if max(self.f_start, self.f_end) >= nyq:
                raise NyquistError("exponential chirp endpoint at or above Nyquist")


def linear_chirp_point(amplitude: float, omega_o: float, t: float):
    """Position, velocity, acceleration of A*sin(w_o t^2) at time ``t``."""
    ph = omega_o * t * t
    s, c = math.sin(ph), math.cos(ph)
    pos = amplitude * s
    vel = 2.0 * amplitude * omega_o * t * c
    acc = 2.0 * amplitude * omega_o * c - 4.0 * amplitude * omega_o**2 * t * t * s
    return pos, vel, acc


def linear_chirp_freq_hz(omega_o: float, t) -> float:
    """Instantaneous frequency f = w_o t / pi of the linear chirp."""
    return omega_o * t / math.pi


def exponential_chirp_point(amplitude: float, f_start: float, f_end: float,
                            duration: float, t: float):
    """Value and instantaneous frequency of an exponential sweep at ``t``."""
    if f_end == f_start:
        return amplitude * math.sin(2.0 * math.pi * f_start * t), f_start
    lnk = math.log(f_end / f_start) / duration
    phase = 2.0 * math.pi * f_start * (math.exp(lnk * t) - 1.0) / lnk
    return amplitude * math.sin(phase), f_start * math.exp(lnk * t)


def empirical_frf(u: TimeSeries, y: TimeSeries, freqs_hz,
                  segments: int = 8) -> FrequencyResponse:
    """H1 frequency-response estimate of y relative to u.

    The records are split into ``segments`` Hann-windowed segments with 50%
    overlap; the estimate at each requested frequency is read from the
    nearest FFT bin.  Bins whose input auto-spectrum falls below
    ``_SPECTRUM_FLOOR`` times the spectral peak are flagged invalid (NaN
    value) rather than fabricated.  Coherence is reported per bin.
    """
    if u.sample_period != y.sample_period:
        raise ValueError("input and output records must share the sample period")
    if u.samples.size != y.samples.size:
        raise ValueError("input and output records must have equal length")
    T = u.sample_period
    f = np.asarray(freqs_hz, dtype=float).ravel()
    if f.size and f.max() >= 0.5 / T:
        raise NyquistError("requested frequency at or above Nyquist")
    if segments < 1:
        raise ValueError("need at least one segment")

    n = u.samples.size
    seg = int(2 * n // (segments + 1))
    if seg < 4:
        raise ValueError("record too short for the requested segment count")
    step = seg // 2
    win = np.hanning(seg)
    puu = np.zeros(seg // 2 + 1)
    pyy = np.zeros(seg // 2 + 1)
    puy = np.zeros(seg // 2 + 1, dtype=complex)
    start = 0
    while start + seg <= n:
        uw = np.fft.rfft(win * u.samples[start:start + seg])
        yw = np.fft.rfft(win * y.samples[start:start + seg])
        puu += np.abs(uw) ** 2
        pyy += np.abs(yw) ** 2
        puy += yw * np.conj(uw)
        start += step

    bins = np.fft.rfftfreq(seg, T)
    floor = _SPECTRUM_FLOOR * puu.max()
    idx = np.array([int(np.argmin(np.abs(bins - fk))) for fk in f])
    valid = puu[idx] > floor
    values = np.full(f.size, np.nan + 1j * np.nan)
    coherence = np.full(f.size, np.nan)
    ok = idx[valid]
    values[valid] = puy[ok] / puu[ok]
    with np.errstate(invalid="ignore", divide="ignore"):
        coherence[valid] = np.abs(puy[ok]) ** 2 / (puu[ok] * pyy[ok])
    return FrequencyResponse(f, values, coherence=coherence, valid=valid)


@dataclass
class FitResult:
    """Outcome of a rational fit: the model, monic-normalized coefficients,
    relative residual over the fitted bins, and the LS condition number."""

    tf: ContinuousTransferFunction
    relative_residual: float
    condition: float
    n_bins: int


def fit_rational(frf: FrequencyResponse, num_order: int, den_order: int,
                 sk_iterations: int = 0) -> FitResult:
    """Fit num/den polynomial coefficients to a frequency response.

    Solves the Levy linearization min ||N(jw) - H D(jw)|| with the leading
    denominator coefficient pinned to 1 and the frequency axis scaled by
    its median to keep the normal equations conditioned over several
    decades.  ``sk_iterations`` > 0 applies Sanathanan-Koerner reweighting
    by 1/|D_prev(jw)| between solves.
    """
    if den_order < num_order:
        raise ValueError("den_order must be >= num_order (causal fit)")
    mask = np.isfinite(frf.values)
    if frf.valid is not None:
        mask &= frf.valid
    w = 2.0 * np.pi * frf.freqs_hz[mask]
    h = frf.values[mask]
    n_unknown = num_order + den_order + 1
    if w.size < 2 * n_unknown:
        raise FitError(
            f"need at least {2 * n_unknown} valid bins for orders "
            f"({num_order}, {den_order}); got {w.size}"
        )

    w_med = float(np.median(w))
    s = 1j * (w / w_med)
    m, n = num_order, den_order
    num_cols = np.column_stack([s ** (m - j) for j in range(m + 1)])
    den_cols = np.column_stack([s ** (n - i) for i in range(1, n + 1)]) if n else None

    scale = np.ones(w.size)  # Sanathanan-Koerner weights 1/|D_prev(jw)|
    cond = 0.0
    sol = None
    for _ in range(max(1, sk_iterations + 1)):
        if den_cols is not None:
            a_mat = np.hstack([num_cols, -(h[:, None]) * den_cols])
        else:
            a_mat = num_cols
        rhs = h * (s ** n)
        a_real = np.vstack([np.real(a_mat * scale[:, None]), np.imag(a_mat * scale[:, None])])
        b_real = np.concatenate([np.real(rhs * scale), np.imag(rhs * scale)])
        sol, _, rank, sv = np.linalg.lstsq(a_real, b_real, rcond=None)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        if rank < n_unknown:
            raise FitError(
                f"rank-deficient normal equations (rank {rank} < {n_unknown}, "
                f"condition {cond:.3g})"
            )
        if den_cols is not None:
            den_scaled = np.concatenate([[1.0], sol[m + 1:]])
            with np.errstate(divide="ignore"):
                scale = 1.0 / np.maximum(np.abs(np.polyval(den_scaled, s)), 1e-300)

    num_scaled = sol[:m + 1]
    den_scaled = np.concatenate([[1.0], sol[m + 1:]])
    # undo the frequency scaling: coefficient of s^d picks up w_med^-d, then
    # renormalize monic
    num = num_scaled * w_med ** (n - m + np.arange(m + 1))
    den = den_scaled * w_med ** np.arange(n + 1)
    tf = ContinuousTransferFunction(num / den[0], den / den[0])
    model = tf(1j * w)
    relative_residual = float(np.linalg.norm(model - h) / np.linalg.norm(h))
    return FitResult(tf=tf, relative_residual=relative_residual,
                     condition=cond, n_bins=int(w.size))


def zoh_compensate(frf: FrequencyResponse, sample_period: float) -> FrequencyResponse:
    """Remove the zero-order-hold response from a sampled-data FRF.

    A digitally commanded input reaches the continuous plant through a hold,
    which multiplies the true response by exp(-j w T/2) sinc(w T/2).  Divide
    it back out before fitting a continuous-time model.
    """
    w = 2.0 * np.pi * frf.freqs_hz
    half = 0.5 * w * sample_period
    hold = np.exp(-1j * half) * np.sinc(half / np.pi)
    return FrequencyResponse(frf.freqs_hz, frf.values / hold,
                             coherence=frf.coherence, valid=frf.valid)


def write_frf_csv(frf: FrequencyResponse, path) -> None:
    """FRF CSV contract: columns (f_hz, mag_db, phase_deg, coherence)."""
    mag = frf.magnitude_db
    ph = frf.phase_deg
    coh = frf.coherence if frf.coherence is not None else np.ones(frf.freqs_hz.size)
    write_csv(path, ("f_hz", "mag_db", "phase_deg", "coherence"),
              (frf.freqs_hz, mag, ph, coh))
