"""LTI system core: transfer-function polynomials, Tustin discretization, IIR filters.

Continuous transfer functions are stored as real coefficient arrays
(highest degree first).  The bilinear (Tustin) transform is computed with
a Horner-shift polynomial chain that needs only coefficient reversals,
power scalings, and Taylor shifts, so it stays cheap and exact for any
causal transfer function.  Discrete filters realize the IIR difference
equation

    y0 = b_hat . y_hist + a_hat . x_hist

as a transposed direct form II (DF2T) stepped on Python floats by a
closure each filter builds once (``DiscreteIirFilter.stepper``): the state
is one zero-initialized value per order, updated in the same order of
operations as ``scipy.signal.lfilter``.  ``block_scan`` runs a
single-input state-space system with no feedthrough over a whole record
in segments of ticks, whose start states a doubling prefix sums, computing
several output rows over one pass of the state, equal to the tick
recurrence up to rounding, with no BLAS call.  It returns a ``Scan``, which
owns the segment starts and the powers of the map and answers, for any
ticks, the scanned state and the free response of a state.  All coefficient
arithmetic is 64-bit; single precision is known to destabilize filters
above a few orders.  Orders above ~10 produce very large intermediate
coefficients and are not guaranteed, only passed through.
"""

from __future__ import annotations

import functools
import math
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
    "Scan",
    "orbit",
    "block_scan",
    "tustin_gap",
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
    # an overflow leaves inf or nan, which the run that uses them reports
    with np.errstate(over="ignore", invalid="ignore"):
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
        """Gain at s = 0, as the limit s -> 0: a factor s common to numerator
        and denominator cancels; infinite if s = 0 remains a pole."""
        num, den = np.trim_zeros(self.num, "b"), np.trim_zeros(self.den, "b")
        num_roots, den_roots = self.num.size - num.size, self.den.size - den.size
        if num.size == 0 or num_roots > den_roots:
            return 0.0
        if num_roots < den_roots:
            return np.inf
        return num[-1] / den[-1]

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
    so the filter realizes ``y0 = b_hat . y + a_hat . x``.  ``stepper``
    returns the transposed direct form II (DF2T) step as a closure over the
    coefficients and the state: with ``n`` the filter order, the state is
    ``n`` floats (one for a static gain) and each sample costs ``2n + 1``
    multiply-adds with no numpy call.  This is the structure of
    ``scipy.signal.lfilter``.  ``step`` calls that closure, so every
    stepper and ``step`` advance one zero-initialized state; an instance
    is single-owner and must not be shared mutably between threads.
    """

    __slots__ = ("a_hat", "b_hat", "T", "_z", "_step")

    def __init__(self, a_hat, b_hat, T: float):
        if not 0.0 < T < math.inf:
            raise ValueError(f"sample period must be positive and finite, got {T}")
        self.a_hat = np.atleast_1d(np.asarray(a_hat, dtype=float)).ravel()
        self.b_hat = np.asarray(b_hat, dtype=float).ravel()
        self.T = float(T)
        self._z = [0.0] * max(1, self.a_hat.size - 1, self.b_hat.size)
        self._step = self.stepper()

    @property
    def den(self) -> np.ndarray:
        """Denominator of the z-domain transfer function, monic."""
        return np.concatenate(([1.0], -self.b_hat))

    def stepper(self):
        """Return the DF2T step ``step(x0) -> y0`` over this filter's state.

        The coefficients are bound when it is built; the state is the
        filter's own, so every stepper of one filter advances it.
        """
        z = self._z
        n = len(z)
        a0, *a = self.a_hat.tolist() + [0.0] * (n + 1 - self.a_hat.size)
        b = self.b_hat.tolist() + [0.0] * (n - self.b_hat.size)
        mid, last = range(n - 1), n - 1

        def step(x0):
            y0 = a0 * x0 + z[0]
            for i in mid:
                z[i] = z[i + 1] + a[i] * x0 + b[i] * y0
            z[last] = a[last] * x0 + b[last] * y0
            return y0

        return step

    def step(self, x0: float) -> float:
        """Advance one sample: take ``x0``, return ``y0``, update the state."""
        return self._step(x0)

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


# block_scan's sizes: segments of _SCAN_SEGMENT ticks, and _SCAN_CHUNK
# ticks (whole segments) of temporaries at a time; a value at or beyond
# _SCAN_LIMIT in magnitude makes it give up
_SCAN_SEGMENT = 32
_SCAN_CHUNK = 16384
_SCAN_LIMIT = 1e300


def _dot(row, x) -> float:
    """``row . x`` in Python floats, summed left to right."""
    acc = 0.0
    for r, v in zip(row, x):
        acc += r * v
    return acc


def orbit(M, x, count) -> list:
    """``[x, M x, ..., M^count x]`` in Python floats, each row of ``M``
    dotted with the last point left to right."""
    points = [x]
    for _ in range(count):
        points.append([_dot(row, points[-1]) for row in M])
    return points


def _within_limit(values: np.ndarray) -> bool:
    # NaN fails both comparisons
    return values.size == 0 or bool(values.max() < _SCAN_LIMIT
                                    and values.min() > -_SCAN_LIMIT)


class Scan:
    """A finished ``block_scan``: its segment starts, and the two questions
    a caller asks of the scanned record, the state at a tick (``state``)
    and the free response of a state (``free``).

    ``starts[m]`` is the state segment ``m`` starts from, ``x[m L]`` with
    ``L = _SCAN_SEGMENT``, and ``horizon`` the most ticks ``free`` takes.
    The scan owns one list of powers of ``A``: ``A^0 ... A^L`` are its own
    orbits of the unit states, and longer ones, up to ``A^horizon``, are
    doubled from them, ``A^(m + i) = A^m A^i`` for ``i = 1 ... m`` and ``m
    = L, 2 L, 4 L, ...``, over the squares ``A^m`` that the prefix formed
    in Python floats.  ``horizon`` is ``L 2^p`` for the prefix's ``p``
    passes, at most ``L L``, so it covers at least ``min(len(u), L L)``
    ticks.  The tables are built at the first query.  Both queries take
    an int or an int array of ticks (``free`` also a slice), and every sum
    runs term by term in a fixed order, with no BLAS call.  ``state`` reads
    ``u``, which the scan does not copy.
    """

    def __init__(self, u, C, orbits, drive, squares, starts):
        self.starts, self._u = starts, u
        self.horizon = _SCAN_SEGMENT * min(2 ** len(squares), _SCAN_SEGMENT)
        self._parts = C, orbits, drive, squares

    @functools.cached_property
    def _tables(self) -> tuple:
        # terms[r, c, m] = (A^m)_rc for c < n, and (A^(m - 1 - l) b)_r for c
        # = n + l with l < m (zero for l >= m): x[g L + m] is the sum over c
        # of terms[:, c, m] times (starts[g], u[g L], ..., u[g L + L - 2])_c;
        # powers[r, c, j] = (A^j)_rc and outputs[i, c, j] = (C_i A^j)_c, for
        # j <= horizon, the rows of one table
        C, orbits, drive, squares = self._parts
        n, m = len(orbits), _SCAN_SEGMENT
        table = np.empty((self.horizon + 1, n + len(C), n))
        table[:m + 1, :n] = np.transpose(orbits, (1, 2, 0))
        terms = np.zeros((n, n + m - 1, m))
        terms[:, :n] = table[:m, :n].transpose(1, 2, 0)
        for lag in range(m - 1):
            terms[:, n + lag, lag + 1:] = np.transpose(drive[:m - 1 - lag])
        for square in squares[:int(math.log2(self.horizon // m))]:
            _rows_times(square, table[1:m + 1, :n], table[m + 1:2 * m + 1, :n])
            m *= 2
        _rows_times(C, table[:, :n], table[:, n:])
        stacked = np.ascontiguousarray(table.transpose(1, 2, 0))
        return terms, stacked[:n], stacked[n:]

    def state(self, ticks, rows=slice(None)) -> np.ndarray:
        """The rows ``rows`` of the scanned state ``x[k]`` at each tick ``k``
        of ``ticks`` (each ``0 <= k < len(u)``), shaped ``(rows,) +
        shape(ticks)``: segment ``k // L``'s start through ``A^(k % L)``, plus
        the inputs since it through ``A^l b``."""
        L, u = _SCAN_SEGMENT, self._u
        g, m = np.divmod(ticks, L)
        # the lags at or past the tick read a clamped u that zero terms cancel
        lagged = np.minimum(np.add.outer(np.arange(L - 1), g * L), u.size - 1)
        values = np.concatenate((self.starts[g].T, u[lagged]))
        return _summed(self._tables[0][rows].take(m, axis=2), values)

    def free(self, x, ticks, rows=None) -> np.ndarray:
        """The free response of the state ``x`` after ``j`` ticks, for each
        ``j`` of ``ticks`` (an int, an int array or a slice, each ``0 <= j
        <= horizon``): the outputs ``C A^j x`` with ``rows=None``, otherwise
        the rows ``rows`` of ``A^j x``; shaped ``(rows,) + shape(ticks)``."""
        _, powers, outputs = self._tables
        table = outputs if rows is None else powers[rows]
        products = table[:, :, ticks] if isinstance(ticks, slice) else table.take(ticks, axis=2)
        return _summed(products, np.asarray(x).reshape((-1,) + (1,) * (products.ndim - 2)))


def _rows_times(M, source: np.ndarray, out: np.ndarray) -> None:
    """``out[:, r] = sum_c M[r][c] source[:, c]`` for each row ``r`` of
    ``M`` (rows of Python floats), an elementwise numpy sum in a fixed
    order."""
    for r, row in enumerate(M):
        out[:, r] = row[0] * source[:, 0]
        for c in range(1, len(row)):
            out[:, r] += row[c] * source[:, c]


def _summed(products: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_c products[:, c] * weights[c]``, term by term from ``c = 0``.

    The products are a new C-contiguous array, so ``add.reduce`` over its
    second axis adds, for each row, whole runs of ticks in order; with one
    tick a row's terms would be a 1-D sum, which numpy adds pairwise, so
    those are accumulated.
    """
    products = np.multiply(products, weights, order="C")
    if math.prod(products.shape[2:]) == 1:
        return np.add.accumulate(products, axis=1)[:, -1]
    return np.add.reduce(products, axis=1)


def block_scan(A, b, C, u, outs) -> Scan | None:
    """Fill each ``outs[i]`` with ``y_i[k] = C[i] x[k]``, where ``x[k + 1] =
    A x[k] + b u[k]`` from ``x[0] = 0``, and return the ``Scan`` of the
    record, which holds ``starts``, the state each segment of
    ``_SCAN_SEGMENT`` ticks starts from, and the powers of ``A``.

    ``b`` is one input column and ``u`` its 1-D record; ``C`` holds one row
    per output, and every array in ``outs`` is as long as ``u``.  Within a
    segment of ``L = _SCAN_SEGMENT`` ticks from state ``s``,

        y_i[j] = C_i A^j s + sum_{l < j} h_i[j - 1 - l] u[l],  h_i[l] = C_i A^l b,

    and the next segment starts from ``S s + e``, with ``S = A^L`` and ``e =
    sum_l A^(L-1-l) b u[l]`` the segment's end state from a zero start.  So
    ``starts[m] = sum_{j < m} S^(m-1-j) e_j``: each ``e_j`` is summed into
    ``starts[j + 1]``, and passes ``shift = 1, 2, 4, ...`` each add
    ``S^shift`` times a copy of ``starts[:-shift]`` to ``starts[shift:]``
    (a doubling prefix), ``S^shift`` squared in Python floats.  Every other
    sum (the prefix, and each segment's end state and outputs, over
    ``_SCAN_CHUNK`` ticks at a time) is an elementwise numpy product or add
    in a fixed order, with no matrix product, so the bytes do not depend on
    a BLAS kernel.  ``S``, the rows above and ``A^j b`` come from running
    the recurrence itself in Python floats, and the ``Scan`` keeps those
    orbits and the squares ``S^shift`` for its own tables.  The result
    equals the tick-by-tick recurrence up to rounding.

    Returns ``None`` as soon as a segment's start state or an output is
    non-finite or reaches ``_SCAN_LIMIT`` in magnitude, leaving ``outs``
    partly written.
    """
    A = np.asarray(A, dtype=float).tolist()
    b = np.asarray(b, dtype=float).tolist()
    C = np.asarray(C, dtype=float).tolist()
    n, L, size = len(A), _SCAN_SEGMENT, u.size
    starts = np.empty((-(-size // L), n))

    # orbits of the unit states and of b under A: free[i, r, j] = (C_i
    # A^j)_r, power = A^L, markov[i, l] = h_i[l] and weight[l] = A^(L-1-l) b
    orbits = [orbit(A, [float(i == r) for i in range(n)], L) for r in range(n)]
    free = np.array([[[_dot(c, x) for x in run[:L]] for run in orbits] for c in C])
    power = np.transpose([run[L] for run in orbits]).tolist()
    drive = orbit(A, b, L - 1)
    markov = np.array([[_dot(c, x) for x in drive[:-1]] for c in C])
    weight = np.array(drive[::-1])

    def chunks():
        # each chunk's first segment and the input's segments as columns,
        # the last one padded with zeros, which reach no tick of the record
        for k0 in range(0, size, _SCAN_CHUNK):
            k1 = min(k0 + _SCAN_CHUNK, size)
            padded = np.zeros(-(-(k1 - k0) // L) * L)
            padded[:k1 - k0] = u[k0:k1]
            yield k0 // L, k1, np.ascontiguousarray(padded.reshape(-1, L).T)

    def fill(starts, segments, out, free, h):
        # rows[j, m] = y at tick j of segment m, from its start state
        # starts[m]: each product runs over a contiguous row of segments
        rows = free[0][:, None] * starts[:, 0]
        for r in range(1, n):
            rows += free[r][:, None] * starts[:, r]
        for lag in range(1, L):
            rows[lag:] += h[lag - 1] * segments[:L - lag]
        out[:] = rows.T.reshape(-1)[:out.size]
        return _within_limit(out)

    with np.errstate(over="ignore", invalid="ignore"):
        starts[:1] = 0.0
        for m0, _, segments in chunks():
            ends = starts[m0 + 1:m0 + 1 + segments.shape[1]]
            ends[:] = 0.0
            for i in range(L):
                ends += segments[i][:len(ends), None] * weight[i]
        # squares[i] = S^(2^i), the power each pass of the prefix applies
        shift, squares = 1, []
        while shift < len(starts):
            if squares:
                power = [[_dot(row, column) for column in zip(*power)] for row in power]
            squares.append(power)
            previous = starts[:-shift].copy()
            for r, column in enumerate(np.transpose(power)):
                starts[shift:] += previous[:, r:r + 1] * column
            shift *= 2
        if not _within_limit(starts):
            return None
        for m0, k1, segments in chunks():
            k0 = m0 * L
            for out, f, h in zip(outs, free, markov):
                if not fill(starts[m0:m0 + segments.shape[1]], segments, out[k0:k1], f, h):
                    return None
    return Scan(u, C, orbits, drive, squares, starts)


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


def tustin_gap(tf: ContinuousTransferFunction, filt: DiscreteIirFilter, freqs_hz) -> float:
    """Largest relative gap of the Tustin identity on a frequency grid.

    In exact arithmetic the Tustin discretization ``filt`` of ``tf`` obeys
    H_d(e^{jωT}) = H_c(j (2/T) tan(ωT/2)) at every ω below Nyquist, so

        max |H_d(e^{jωT}) - H_c(j (2/T) tan(ωT/2))| / |H_c(j (2/T) tan(ωT/2))|

    over ``freqs_hz`` is the rounding error the discrete coefficients
    carry, with no oracle.  Every frequency must lie strictly below Nyquist.
    """
    f = np.asarray(freqs_hz, dtype=float).ravel()
    T = filt.T
    if f.size == 0 or f.max() >= 0.5 / T:
        raise NyquistError("the Tustin gap needs frequencies strictly below Nyquist")
    wT = 2.0 * np.pi * f * T
    h_c = tf(1j * (2.0 / T) * np.tan(0.5 * wT))
    return float(np.max(np.abs(filt(np.exp(1j * wT)) - h_c) / np.abs(h_c)))


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
