"""Chirp signal points, empirical frequency responses, and rational fitting.

Desk-scale replacement for an identification-toolbox workflow: sweep the
input, record input/output, estimate the frequency response with an H1
estimator (cross-spectrum over input auto-spectrum, Hann windows, 50%
overlap), then fit a rational transfer function with linearized complex
least squares (Levy's method, optionally refined by Sanathanan-Koerner
reweighting).  All operations are pure and safe to parallelize across
records.  The ``*_chirp_point`` functions give a chirp at one instant,
``exponential_chirp``'s sampler the sweep at an array of times; which sweep a
scenario runs, and its checks against the generating rate and on the
sweep ratio, belong to ``plant.ReferenceSpec`` and
``plant.SimScenario.validate``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .lti import ContinuousTransferFunction, FrequencyResponse, NyquistError

__all__ = [
    "FitError",
    "TimeSeries",
    "FitResult",
    "linear_chirp_point",
    "linear_chirp_freq_hz",
    "exponential_chirp",
    "exponential_chirp_point",
    "segment_length",
    "empirical_frf",
    "fit_rational",
    "write_csv",
    "write_frf_csv",
]

# varying values formatted per block: bounds the kernel's transient arrays
_CSV_BLOCK_VALUES = 4096
# byte slots of one value's ``%.9g`` field in ``_format_g9``; unused slots
# hold NUL, which the writer drops
_G9_SLOTS = 27
# an FRF bin whose input auto-spectrum is below this fraction of the
# spectral peak carries no input energy and is flagged invalid
_SPECTRUM_FLOOR = 1e-12
# an exponential sweep's f_end / f_start stays below this, so every
# argument of its exp stays below 1022 ln 2 (``exponential_chirp``)
_SWEEP_RATIO_LIMIT = 2.0**1022


class FitError(RuntimeError):
    """Raised when the rational fit is rank-deficient or under-determined."""


def _format_g9(x: np.ndarray) -> np.ndarray:
    """``"%.9g" % v`` of each value of the float64 vector ``x``, as the
    columns of a ``(_G9_SLOTS, x.size)`` uint8 matrix padded with NUL.

    Slot 0 holds the sign, slots 1-5 the ``0.000`` that fixed notation puts
    before a value below 1, slots 6-22 the nine significant digits with a
    decimal-point slot after each of the first eight, and slots 23-26 the
    ``e+XX`` of scientific notation; a slot the value does not use is NUL.

    A value with 1e-14 <= |v| < 1e31 is scaled by an exact power of ten
    onto [1e8, 1e9), so the scaled value is rounded once (by at most 6e-8),
    and its nearest integer holds the nine digits.  Python formats the rest:
    +-0, NaN, +-inf, |v| outside that range, a scaled value whose fraction
    lies within 1e-6 of one half (a tie, or too close to call), and one
    whose decimal exponent ``floor(log10|v|)`` came out too high or low.
    """
    n = x.size
    a = np.abs(x)
    with np.errstate(invalid="ignore"):  # NaN compares false: formatted by Python
        ok = (a >= 1e-14) & (a < 1e31)
    a[~ok] = 1.0
    p10 = np.array([float(10 ** i) for i in range(23)])  # exact up to 1e22
    # scale by 10^k onto [1e8, 1e9); floor(log10) can round across a power of ten
    k = np.clip(8.0 - np.floor(np.log10(a)), -22.0, 22.0).astype(np.intp)
    s = a * p10[np.abs(k)]
    big = np.flatnonzero(k < 0)
    s[big] = a[big] / p10[-k[big]]
    r = np.rint(s)
    ok &= (s >= 99999999.96) & (r <= 1e9) & (np.abs(s - r) < 0.499999)
    carry = r == 1e9  # the digits rounded up to 1e9: 1e8, one decade higher
    r[carry | ~ok] = 1e8
    exp10 = (8 - k).astype(np.int8) + carry.view(np.int8)

    # nine digits from three three-digit groups, in uint16 lanes
    d = r.astype(np.uint32)
    groups = np.empty((3, n), np.uint16)
    groups[0] = d // 1000000
    groups[1] = d // 1000 % 1000
    groups[2] = d % 1000
    digits = np.empty((3, 3, n), np.uint8)
    tens = groups // 10
    hundreds = tens // 10
    digits[:, 0] = hundreds
    digits[:, 1] = tens - hundreds * 10
    digits[:, 2] = groups - tens * 10
    digits = digits.reshape(9, n)
    one_to_nine = np.arange(1, 10, dtype=np.int8)[:, None]
    sig = ((digits != 0).view(np.int8) * one_to_nine).max(axis=0)  # trailing zeros cut

    fixed = (exp10 >= -4) & (exp10 < 9)
    point = exp10 * fixed.view(np.int8)  # digit the point follows; 0 in scientific
    kept = np.maximum(sig, point + np.int8(1))  # digits shown, integer zeros included
    out = np.empty((_G9_SLOTS, n), np.uint8)
    out[0] = np.signbit(x).view(np.uint8) * np.uint8(45)  # "-"
    lead_below = np.array([-1, -1, -2, -3, -4], np.int8)[:, None]
    out[1:6] = ((point <= lead_below).view(np.uint8)
                * np.array([48, 46, 48, 48, 48], np.uint8)[:, None])  # "0.000"
    out[6:23:2] = (digits + np.uint8(48)) * (one_to_nine <= kept).view(np.uint8)
    out[7:22:2] = (((one_to_nine[:8] == point + np.int8(1)) & (one_to_nine[:8] < sig))
                   .view(np.uint8) * np.uint8(46))  # "."
    sci = (~fixed).view(np.uint8)
    mag = np.abs(exp10).view(np.uint8)
    out[23] = sci * np.uint8(101)  # "e"
    out[24] = sci * (np.uint8(43) + (exp10 < 0).view(np.uint8) * np.uint8(2))  # "+" or "-"
    out[25] = sci * (mag // np.uint8(10) + np.uint8(48))
    out[26] = sci * (mag % np.uint8(10) + np.uint8(48))

    rest = np.flatnonzero(~ok)
    if rest.size:
        text = "".join(("%.9g" % v).ljust(_G9_SLOTS, "\0") for v in x[rest].tolist())
        out[:, rest] = np.frombuffer(text.encode(), np.uint8).reshape(rest.size, _G9_SLOTS).T
    return out


def write_csv(path, header, columns) -> None:
    """Write equal-length numeric columns as CSV, one ``%.9g`` row per sample.

    Every CSV the package emits goes through here, so the row format
    (``%.9g`` values, ``,`` separators, ``\n`` line ends, in binary mode on
    every platform) lives in one place.  The bytes are those of formatting
    each value with Python's ``"%.9g" % v``:

    - A column whose values all share one bit pattern (compared as
      ``uint64``, so ``0.0`` and ``-0.0`` differ and NaN matches itself) is
      formatted once, into a row buffer that also holds the separators.
    - The other columns are formatted ``_CSV_BLOCK_VALUES`` values at a time
      by the numpy kernel ``_format_g9``, copied into that buffer, and
      written with the kernel's NUL padding dropped.

    Raises ``ValueError`` when the columns differ in length.
    """
    cols = [np.asarray(c, dtype=float) for c in columns]
    n = cols[0].size if cols else 0
    for j, c in enumerate(cols):
        if c.size != n:
            raise ValueError(f"column {j} has {c.size} values, column 0 has {n}")
    row, varying = bytearray(), []  # varying: (offset in row, column)
    for c in cols:
        bits = c.view(np.uint64)
        if n and (bits == bits[0]).all():
            row += ("%.9g" % c[0]).encode()
        else:
            varying.append((len(row), c))
            row += bytes(_G9_SLOTS)
        row += b","
    row[-1:] = b"\n"
    rows = max(1, _CSV_BLOCK_VALUES // max(1, len(varying)))
    buf = np.tile(np.frombuffer(row, np.uint8), (min(rows, n), 1))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for s in range(0, n, rows):
            m = min(rows, n - s)
            if varying:
                text = _format_g9(np.concatenate([c[s:s + m] for _, c in varying]))
                for j, (off, _) in enumerate(varying):
                    buf[:m, off:off + _G9_SLOTS] = text[:, j * m:(j + 1) * m].T
            fh.write(buf[:m].tobytes().translate(None, b"\0"))


@dataclass
class TimeSeries:
    """Uniformly sampled scalar record."""

    sample_period: float
    samples: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.sample_period < math.inf:
            raise ValueError("sample period must be positive and finite")
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
        """Read a ``t,value`` CSV of finite values whose time steps all match
        the first within 1e-3.

        Raises ``OSError`` for a file that cannot be opened and
        ``ValueError`` for one that does not parse or breaks these rules.
        """
        with warnings.catch_warnings():
            # a header-only file warns; it is rejected below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] < 2:
            raise ValueError(f"{path}: need at least two samples to infer the period, "
                             f"got {data.shape[0]}")
        if data.shape[1] != 2:
            raise ValueError(f"{path}: need two columns (t,value), got {data.shape[1]}")
        off = np.flatnonzero(~np.isfinite(data).all(axis=1))
        if off.size:
            i = int(off[0])
            raise ValueError(f"{path}: non-finite value at data row {i + 1} (line {i + 2})")
        t, v = data[:, 0], data[:, 1]
        dt = float(t[1] - t[0])
        off = np.flatnonzero(np.abs(np.diff(t) - dt) > 1e-3 * abs(dt))
        if off.size:
            i = int(off[0]) + 1  # 0-based data row whose time step is off
            raise ValueError(
                f"{path}: non-uniform sampling at data row {i + 1} (line {i + 2}): "
                f"time step {t[i] - t[i - 1]:g} s, expected {dt:g} s"
            )
        return cls(sample_period=dt, samples=v)


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


def exponential_chirp(amplitude: float, f_start: float, f_end: float, duration: float):
    """The exponential sweep's sampler: ``sample(t)`` maps a 1-D array of
    times to the sweep's values there.

    Each value is ``amplitude * sin(w0 (exp(lnk t) - 1) / lnk)``, or
    ``amplitude * sin(w0 t)`` when ``f_end == f_start``, with ``w0 = 2 pi
    f_start`` and ``lnk = ln(f_end / f_start) / duration`` computed once
    here.  numpy does each product, difference and quotient elementwise,
    in that order, so every sample equals that expression in Python floats
    (``math.exp``, ``math.sin``), bit for bit.

    The ``exp`` and ``sin`` are the real parts of numpy's complex ``exp``
    and ``sin`` of ``x + 0j``, which evaluate C99's ``cexp`` and ``csin``:
    for finite ``x``, ``cexp(x + 0i) = exp(x) cos 0`` and ``csin(x + 0i) =
    sin(x) cosh 0``, libm's values times an exact 1, at C-loop speed.
    numpy's real ``exp`` runs its own vector kernel, which differs from
    libm in the last ulp (on 5,556 of the shipped 120 s sweep's 120,000
    arguments), and which kernel its real ``sin`` runs depends on the
    build, so neither is used.  glibc's ``cexp`` splits an ``x`` above
    ``1023 ln 2`` into two factors, whose product can round otherwise;
    ``SimScenario.validate`` keeps ``f_end / f_start`` below ``2**1022``,
    so no accepted sweep gets there.
    """
    w0 = 2.0 * math.pi * f_start

    def sines(phases):
        return amplitude * np.sin(phases.astype(complex)).real

    if f_end == f_start:
        return lambda t: sines(w0 * np.asarray(t, dtype=float))
    lnk = math.log(f_end / f_start) / duration

    def sample(t):
        e = np.exp((lnk * np.asarray(t, dtype=float)).astype(complex)).real
        return sines(w0 * (e - 1.0) / lnk)

    return sample


def exponential_chirp_point(amplitude: float, f_start: float, f_end: float,
                            duration: float, t: float):
    """Value and instantaneous frequency of an exponential sweep at ``t``."""
    value = float(exponential_chirp(amplitude, f_start, f_end, duration)([t])[0])
    if f_end == f_start:
        return value, f_start
    return value, f_start * math.exp(math.log(f_end / f_start) / duration * t)


def segment_length(n_samples: int, segments: int) -> int:
    """Length of each of ``segments`` half-overlapping segments of a record.

    Raises ``ValueError`` unless ``segments`` is at least one and leaves each
    segment at least four samples long.
    """
    if segments < 1:
        raise ValueError("need at least one segment")
    seg = int(2 * n_samples // (segments + 1))
    if seg < 4:
        raise ValueError("record too short for the requested segment count")
    return seg


def empirical_frf(u: TimeSeries, y: TimeSeries, freqs_hz,
                  segments: int = 8) -> FrequencyResponse:
    """H1 frequency-response estimate of y relative to u.

    The records are split into ``segments`` Hann-windowed segments with 50%
    overlap; the estimate at each requested frequency is read from the
    nearest FFT bin.  Bins whose input auto-spectrum falls below
    ``_SPECTRUM_FLOOR`` times the spectral peak are flagged invalid (NaN
    value) rather than fabricated.  Coherence is reported per bin.

    Each windowed segment is scaled by ``2**-e``, ``e`` the ``np.frexp``
    exponent of its record's peak magnitude, and the ratio is scaled back
    by ``2**(e_y - e_u)``.  A power of two scales exactly, so the spectra
    neither overflow nor underflow for records of any magnitude, and the
    estimate of records scaled by ``2**k_u`` and ``2**k_y`` is the
    unscaled one times ``2**(k_y - k_u)``, bit for bit.
    """
    if u.sample_period != y.sample_period:
        raise ValueError("input and output records must share the sample period")
    if u.samples.size != y.samples.size:
        raise ValueError("input and output records must have equal length")
    T = u.sample_period
    f = np.asarray(freqs_hz, dtype=float).ravel()
    if f.size and f.max() >= 0.5 / T:
        raise NyquistError("requested frequency at or above Nyquist")
    n = u.samples.size
    seg = segment_length(n, segments)
    step = seg // 2
    win = np.hanning(seg)
    # the peak magnitude's exponent, from the extremes: no record-sized temporary
    e_u, e_y = (int(np.frexp(max(r.samples.max(), -r.samples.min()))[1]) for r in (u, y))
    buf = np.empty(seg)
    puu = np.zeros(seg // 2 + 1)
    pyy = np.zeros(seg // 2 + 1)
    puy = np.zeros(seg // 2 + 1, dtype=complex)
    start = 0
    while start + seg <= n:
        np.multiply(win, u.samples[start:start + seg], out=buf)
        uw = np.fft.rfft(np.ldexp(buf, -e_u, out=buf))
        np.multiply(win, y.samples[start:start + seg], out=buf)
        yw = np.fft.rfft(np.ldexp(buf, -e_y, out=buf))
        puu += np.abs(uw) ** 2
        pyy += np.abs(yw) ** 2
        puy += yw * np.conj(uw)
        start += step

    bins = np.fft.rfftfreq(seg, T)
    floor = _SPECTRUM_FLOOR * puu.max()
    idx = np.array([int(np.argmin(np.abs(bins - fk))) for fk in f], dtype=np.intp)
    valid = puu[idx] > floor
    values = np.full(f.size, np.nan + 1j * np.nan)
    coherence = np.full(f.size, np.nan)
    ok = idx[valid]
    ratio = puy[ok] / puu[ok]
    np.ldexp(ratio.real, e_y - e_u, out=ratio.real)
    np.ldexp(ratio.imag, e_y - e_u, out=ratio.imag)
    values[valid] = ratio
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
    # (w.size, 0) at den_order = 0, so every order takes one path
    den_cols = np.reshape([s ** (n - i) for i in range(1, n + 1)], (n, w.size)).T

    scale = np.ones(w.size)  # Sanathanan-Koerner weights 1/|D_prev(jw)|
    cond = 0.0
    sol = None
    for _ in range(max(1, sk_iterations + 1)):
        a_mat = np.hstack([num_cols, -(h[:, None]) * den_cols])
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
        den_scaled = np.concatenate([[1.0], sol[m + 1:]])
        with np.errstate(divide="ignore"):
            scale = 1.0 / np.maximum(np.abs(np.polyval(den_scaled, s)), 1e-300)

    num_scaled = sol[:m + 1]
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
