"""LTI system core: transfer-function polynomials, Tustin discretization, IIR filters.

Continuous transfer functions are stored as real coefficient arrays
(highest degree first).  The bilinear (Tustin) transform is computed with
a Horner-shift polynomial chain that needs only coefficient reversals,
power scalings, and Taylor shifts, so it stays cheap and exact for any
causal transfer function.  Discrete filters realize the IIR difference
equation

    y0 = b_hat . y_hist + a_hat . x_hist

as a transposed direct form II (DF2T) stepped on Python floats: the state
is one zero-initialized value per order, updated in the same order of
operations as ``scipy.signal.lfilter``.  All coefficient arithmetic is
64-bit; single precision is known to destabilize filters above a few
orders.  Orders above ~10 produce very large intermediate coefficients and
are not guaranteed, only passed through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CausalityError",
    "NyquistError",
    "ContinuousTransferFunction",
    "DiscreteIirFilter",
    "FrequencyResponse",
    "taylor_shift",
    "bilinear_num_den",
    "bilinear_discretize",
    "freq_response",
    "log_grid",
    "butterworth_lowpass",
]


class CausalityError(ValueError):
    """Raised when a transfer function has more zeros than poles."""


class NyquistError(ValueError):
    """Raised when a frequency request or cutoff violates the Nyquist limit."""


def _as_coeffs(coeffs) -> np.ndarray:
    """Coerce to a 1-D float64 array, stripping exact leading zeros.

    The zero polynomial is kept as [0.]; an empty list is rejected.
    """
    arr = np.atleast_1d(np.asarray(coeffs, dtype=float)).ravel()
    if arr.size == 0:
        raise ValueError("empty coefficient list (the zero polynomial is [0])")
    nz = np.nonzero(arr)[0]
    if nz.size == 0:
        return np.zeros(1)
    return arr[nz[0]:].copy()


def taylor_shift(coeffs, shift: float = 1.0) -> np.ndarray:
    """Shift a polynomial's argument: return the coefficients of ``p(x + shift)``.

    Computed by repeated synthetic division (Horner's method) rather than
    binomial expansion: each pass deposits one coefficient of the expansion
    of ``p`` around ``x = shift``.

    Parameters
    ----------
    coeffs : array_like
        Coefficients of ``p``, highest degree first.
    shift : float
        Shift amount; the default ``1.0`` gives ``p(x + 1)``.

    Returns
    -------
    ndarray
        Coefficients of ``p(x + shift)``, highest degree first.
    """
    c = np.array(coeffs, dtype=float).ravel()
    m = c.size
    for i in range(m - 1):
        for j in range(1, m - i):
            c[j] += shift * c[j - 1]
    return c


class ContinuousTransferFunction:
    """Rational function of the Laplace variable, ``num(s) / den(s)``.

    Construction enforces causality (numerator degree cannot exceed the
    denominator degree) and rejects a zero denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = _as_coeffs(num)
        self.den = _as_coeffs(den)
        if not np.any(self.den):
            raise ValueError("denominator is the zero polynomial")
        if self.num.size > self.den.size:
            raise CausalityError(
                f"non-causal transfer function: numerator degree "
                f"{self.num.size - 1} > denominator degree {self.den.size - 1}"
            )

    @property
    def order(self) -> int:
        return self.den.size - 1

    def __call__(self, s):
        """Evaluate at a (complex) point or array of points."""
        return np.polyval(self.num, s) / np.polyval(self.den, s)

    def dc_gain(self) -> float:
        """Gain at s = 0; infinite if s = 0 is a pole."""
        if self.den[-1] == 0.0:
            return np.inf if self.num[-1] != 0.0 else np.nan
        return self.num[-1] / self.den[-1]

    def poles(self) -> np.ndarray:
        return np.roots(self.den)

    def __repr__(self):
        return (
            f"ContinuousTransferFunction(num={self.num.tolist()}, "
            f"den={self.den.tolist()})"
        )


class DiscreteIirFilter:
    """Stateful IIR filter with transfer function ``A(z) / (1 - B(z))``.

    ``a_hat`` holds the input coefficients (current sample first) and
    ``b_hat`` the output-feedback coefficients (most recent output first),
    so the filter realizes ``y0 = b_hat . y + a_hat . x``.  ``step`` runs
    the transposed direct form II (DF2T): with ``n`` the filter order, the
    state is ``n`` floats (one for a static gain) and each sample costs
    ``2n + 1`` multiply-adds with no numpy call.  This is the structure of
    ``scipy.signal.lfilter``.  The state is zero-initialized; an instance
    is single-owner and must not be shared mutably between threads.
    """

    __slots__ = ("a_hat", "b_hat", "T", "_a0", "_a", "_b", "_z", "_mid", "_last")

    def __init__(self, a_hat, b_hat, T: float):
        if T <= 0.0:
            raise ValueError(f"sample period must be positive, got {T}")
        self.a_hat = np.atleast_1d(np.asarray(a_hat, dtype=float)).ravel()
        self.b_hat = np.asarray(b_hat, dtype=float).ravel()
        self.T = float(T)
        n = max(1, self.a_hat.size - 1, self.b_hat.size)
        a = self.a_hat.tolist() + [0.0] * (n + 1 - self.a_hat.size)
        self._a0 = a[0]
        self._a = tuple(a[1:])
        self._b = tuple(self.b_hat.tolist() + [0.0] * (n - self.b_hat.size))
        self._z = [0.0] * n
        self._mid = range(n - 1)
        self._last = n - 1

    @property
    def den(self) -> np.ndarray:
        """Denominator of the z-domain transfer function, monic."""
        return np.concatenate(([1.0], -self.b_hat))

    def reset(self) -> None:
        """Zero the state (all experiments start from rest)."""
        self._z[:] = [0.0] * len(self._z)

    def step(self, x0: float) -> float:
        """Advance one sample: take ``x0``, return ``y0``, update the state."""
        z, a, b = self._z, self._a, self._b
        y0 = self._a0 * x0 + z[0]
        for i in self._mid:
            z[i] = z[i + 1] + a[i] * x0 + b[i] * y0
        last = self._last
        z[last] = a[last] * x0 + b[last] * y0
        return y0

    def run(self, xs) -> np.ndarray:
        """Filter a whole sequence, advancing the internal state."""
        out = np.empty(len(xs))
        for i, x in enumerate(xs):
            out[i] = self.step(float(x))
        return out

    def __call__(self, z):
        """Evaluate the z-domain transfer function at ``z``.

        Evaluation at a pole (e.g. z = 1 for an integrator) returns inf.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.polyval(self.a_hat, z) / np.polyval(self.den, z)

    def poles(self) -> np.ndarray:
        return np.roots(self.den)

    def __repr__(self):
        return (
            f"DiscreteIirFilter(a_hat={self.a_hat.tolist()}, "
            f"b_hat={self.b_hat.tolist()}, T={self.T})"
        )


def _davies_chain(coeffs: np.ndarray, n: int, T: float) -> np.ndarray:
    """Map one polynomial of the Tustin substitution onto z-domain coefficients.

    ``coeffs`` must already be padded to length ``n + 1`` (degree ``n``).
    Writing w = 1/s, the substitution w = (T/2)(2/(z-1) + 1) factors into
    pure coefficient operations: a reversal (s -> 1/s), a power scaling by
    T/2, a Horner shift by +1, a reversal with powers of 2, and a final
    Horner shift by -1 (u = z - 1).  Degree deficits are carried as
    explicit zeros so the reversal bookkeeping stays aligned.
    """
    powers = np.arange(n, -1, -1)
    c = coeffs[::-1].astype(float)              # x^n p(1/x): coefficient reversal
    c = c * (T / 2.0) ** powers                 # argument scale by T/2
    c = taylor_shift(c, 1.0)                    # v -> v + 1
    c = (c * 2.0 ** powers)[::-1]               # u^n q(2/u)
    return taylor_shift(c, -1.0)                # u = z - 1


def bilinear_num_den(tf: ContinuousTransferFunction, T: float):
    """Tustin-transform ``tf`` and return z-domain (num, den), den monic.

    Equivalent to substituting s = (2/T)(z - 1)/(z + 1) and clearing
    denominators, but computed through the Horner-shift chain.  The result
    is normalized so the current-output coefficient (leading denominator
    entry) is exactly 1.
    """
    if not np.isfinite(T) or T <= 0.0:
        raise ValueError(f"sample period must be positive and finite, got {T}")
    n = tf.den.size - 1
    num_padded = np.concatenate((np.zeros(tf.den.size - tf.num.size), tf.num))
    znum = _davies_chain(num_padded, n, T)
    zden = _davies_chain(tf.den, n, T)
    lead = zden[0]
    if lead == 0.0 or not np.isfinite(lead):
        raise CausalityError(
            "zero current-output coefficient after discretization "
            "(degenerate or non-causal input)"
        )
    return znum / lead, zden / lead


def bilinear_discretize(tf: ContinuousTransferFunction, T: float) -> DiscreteIirFilter:
    """Discretize a causal transfer function with the bilinear transform.

    Stepping the returned filter matches the Tustin substitution
    s = (2/T)(z - 1)/(z + 1) exactly up to floating-point rounding.

    Parameters
    ----------
    tf : ContinuousTransferFunction
        Causal continuous-time system.
    T : float
        Sample period in seconds, > 0.

    Returns
    -------
    DiscreteIirFilter
        Ready-to-step filter with zeroed histories.
    """
    znum, zden = bilinear_num_den(tf, T)
    return DiscreteIirFilter(a_hat=znum, b_hat=-zden[1:], T=T)


@dataclass
class FrequencyResponse:
    """Complex response sampled on an ascending positive frequency grid.

    ``coherence`` and ``valid`` are filled by empirical estimators; analytic
    evaluations leave them ``None``.  Invalid bins hold NaN values.
    """

    freqs_hz: np.ndarray
    values: np.ndarray
    coherence: np.ndarray | None = None
    valid: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.freqs_hz = np.asarray(self.freqs_hz, dtype=float).ravel()
        self.values = np.asarray(self.values, dtype=complex).ravel()
        if self.freqs_hz.size != self.values.size:
            raise ValueError("frequency grid and values must have equal length")
        if np.any(self.freqs_hz <= 0.0) or np.any(np.diff(self.freqs_hz) <= 0.0):
            raise ValueError("frequency grid must be strictly increasing and positive")

    @property
    def magnitude_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self.values))

    @property
    def phase_deg(self) -> np.ndarray:
        """Unwrapped phase in degrees (NaN preserved for invalid bins)."""
        ang = np.angle(self.values)
        finite = np.isfinite(ang)
        if finite.all():
            return np.degrees(np.unwrap(ang))
        out = np.full(ang.shape, np.nan)
        out[finite] = np.unwrap(ang[finite])
        return np.degrees(out)


def freq_response(sys, freqs_hz) -> FrequencyResponse:
    """Evaluate a continuous or discrete system on a frequency grid.

    Continuous systems are evaluated at s = j*2*pi*f; discrete filters at
    z = exp(j*2*pi*f*T).  For discrete systems every requested frequency
    must lie strictly below Nyquist.
    """
    f = np.asarray(freqs_hz, dtype=float).ravel()
    w = 2.0 * np.pi * f
    if isinstance(sys, ContinuousTransferFunction):
        return FrequencyResponse(f, sys(1j * w))
    if isinstance(sys, DiscreteIirFilter):
        nyquist = 0.5 / sys.T
        if f.size and f.max() >= nyquist:
            raise NyquistError(
                f"requested frequency {f.max():g} Hz is at or above "
                f"Nyquist ({nyquist:g} Hz)"
            )
        return FrequencyResponse(f, sys(np.exp(1j * w * sys.T)))
    raise TypeError(f"unsupported system type {type(sys).__name__}")


def log_grid(f_lo_hz: float, f_hi_hz: float, points_per_decade: int = 200) -> np.ndarray:
    """Log-spaced frequency grid, inclusive of both endpoints."""
    if f_lo_hz <= 0.0 or f_hi_hz <= f_lo_hz:
        raise ValueError("need 0 < f_lo_hz < f_hi_hz")
    decades = np.log10(f_hi_hz / f_lo_hz)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(f_lo_hz), np.log10(f_hi_hz), n)


def butterworth_lowpass(order: int, cutoff_hz: float) -> ContinuousTransferFunction:
    """Analog Butterworth low-pass prototype with unity DC gain."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if cutoff_hz <= 0.0:
        raise ValueError("cutoff must be positive")
    wc = 2.0 * np.pi * cutoff_hz
    k = np.arange(1, order + 1)
    poles = wc * np.exp(1j * np.pi * (2 * k + order - 1) / (2 * order))
    den = np.real(np.poly(poles))
    return ContinuousTransferFunction([wc**order], den)
