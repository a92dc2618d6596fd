"""Joint-space force controller building blocks.

The actuator force loop combines a rational PID+feedforward with a
disturbance observer (DOB): the observer passes the measured force through
Q/P (inverse nominal plant made causal by a third-order low-pass Q) and
the previous command through Q, and subtracts the two.  Q/P and Q are put
over one continuous denominator before Tustin, so the observer is a single
two-input discrete filter.  ``DisturbanceObserver.step`` closes the blend
u = u_c - gamma * d_hat with a gain ``gamma`` in [0, 1] and keeps u as the
command the next estimate compares against.  Upstream of the force loop
sit a virtual spring/damper (impedance) and leaky integration of desired
accelerations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lti import (
    ContinuousTransferFunction,
    DiscreteIirFilter,
    NyquistError,
    bilinear_discretize,
)

__all__ = [
    "PidConfig",
    "DobConfig",
    "ImpedanceConfig",
    "LeakyState",
    "DisturbanceObserver",
    "ForceController",
    "q_filter",
    "pid_transfer_function",
    "build_observer",
    "build_force_controller",
    "impedance_step",
    "leaky_step",
]

_SQRT2 = math.sqrt(2.0)


@dataclass
class PidConfig:
    """PID gains plus the derivative low-pass pole ``lam`` (rad/s).

    ``from_gain_row`` applies the gain-table convention lam = 1e-3 *
    lambda_c; pass ``lam`` directly to bypass it.
    """

    k_p: float
    k_i: float
    k_d: float
    lam: float

    def __post_init__(self):
        if min(self.k_p, self.k_i, self.k_d) < 0.0:
            raise ValueError("PID gains must be non-negative")
        if self.lam <= 0.0:
            raise ValueError("derivative filter pole must be positive")

    @classmethod
    def from_gain_row(cls, k_p: float, k_i: float, k_d: float, lambda_c: float) -> "PidConfig":
        return cls(k_p, k_i, k_d, 1e-3 * lambda_c)


def pid_transfer_function(cfg: PidConfig) -> ContinuousTransferFunction:
    """Rational form of the PID with filtered derivative.

    C(s) = k_p + k_i/s + k_d*lam*s/(s + lam)
         = ((k_p + k_d*lam) s^2 + (k_p*lam + k_i) s + k_i*lam) / (s^2 + lam*s)
    """
    kp, ki, kd, lam = cfg.k_p, cfg.k_i, cfg.k_d, cfg.lam
    return ContinuousTransferFunction(
        [kp + kd * lam, kp * lam + ki, ki * lam], [1.0, lam, 0.0]
    )


def q_filter(omega_c: float) -> ContinuousTransferFunction:
    """Third-order low-pass with unity DC gain and |Q(j*omega_c)| = 1/2.

    Q(s) = wc^3 / (s^3 + (sqrt2 + 1) wc s^2 + (1 + sqrt2) wc^2 s + wc^3)
    """
    if omega_c <= 0.0:
        raise ValueError("cutoff must be positive")
    wc = float(omega_c)
    return ContinuousTransferFunction(
        [wc**3],
        [1.0, (_SQRT2 + 1.0) * wc, (1.0 + _SQRT2) * wc**2, wc**3],
    )


@dataclass
class DobConfig:
    """Disturbance-observer parameters.

    ``gamma`` is clamped into [0, 1] (it is a hand-tuned knob, not a hard
    constraint); this is the only place it is clamped, and a non-finite
    ``gamma`` is rejected.  ``plant`` is the nominal model whose inverse the
    observer applies behind the Q filter.
    """

    omega_c: float
    gamma: float
    plant: ContinuousTransferFunction

    def __post_init__(self):
        if self.omega_c <= 0.0:
            raise ValueError("Q-filter cutoff must be positive")
        if not math.isfinite(self.gamma):
            raise ValueError(f"observer gain gamma must be finite, got {self.gamma}")
        self.gamma = min(1.0, max(0.0, float(self.gamma)))


@dataclass
class ImpedanceConfig:
    """Virtual spring/damper gains in actuator space (N/m, N s/m)."""

    k: float
    b: float

    def __post_init__(self):
        if self.k < 0.0 or self.b < 0.0:
            raise ValueError("impedance gains must be non-negative")


def impedance_step(cfg: ImpedanceConfig, q_a_d, qdot_a_d, q_a_hat, qdot_a_hat, f_ff_d):
    """Desired actuator force from setpoint errors plus feedforward.

    f_d = (q_a_d - q_a_hat) k + (qdot_a_d - qdot_a_hat) b + f_ff_d
    Stateless; works elementwise on scalars or arrays.
    """
    return (q_a_d - q_a_hat) * cfg.k + (qdot_a_d - qdot_a_hat) * cfg.b + f_ff_d


@dataclass
class LeakyState:
    """Leaky-integration state: alpha-filtered setpoint recursions.

    alpha_v leaks the velocity setpoint toward zero, alpha_p leaks the
    position setpoint toward the measured position.  With both alphas at
    zero the recursions reduce to plain Euler integration (and wind up).
    """

    alpha_v: float
    alpha_p: float
    dT: float
    q_bar_d: float = 0.0
    qdot_bar_d: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.alpha_v <= 1.0 and 0.0 <= self.alpha_p <= 1.0):
            raise ValueError("alpha rates must lie in [0, 1]")
        if self.dT <= 0.0:
            raise ValueError("step time must be positive")


def leaky_step(st: LeakyState, qddot_d, q_measured):
    """Advance both setpoint recursions one step and return (q_bar_d, qdot_bar_d).

    The position update uses the pre-update velocity:

        qdot[k+1] = qddot[k] dT + (1 - alpha_v) qdot[k]
        q[k+1]    = qdot[k] dT + (1 - alpha_p) q[k] + alpha_p q_meas[k]
    """
    v_next = qddot_d * st.dT + (1.0 - st.alpha_v) * st.qdot_bar_d
    p_next = st.qdot_bar_d * st.dT + (1.0 - st.alpha_p) * st.q_bar_d + st.alpha_p * q_measured
    st.qdot_bar_d = v_next
    st.q_bar_d = p_next
    return p_next, v_next


class DisturbanceObserver:
    """Disturbance estimator d_hat = (Q/P)(f_measured) - Q(u_prev).

    ``inv_plant`` (Q/P) and ``q`` (Q) must share the sample period and the
    denominator, as ``build_observer`` makes them.  Their coefficients are
    copied into one two-input filter,

        d_hat = (N1(z) f_measured - N2(z) u_prev) / D(z),

    stepped as a transposed direct form II on Python floats with one state
    value per order.  ``step`` estimates from the current force measurement,
    subtracts ``gamma * d_hat`` from the command and keeps the result as
    ``u_prev``, the command the next estimate compares against.
    """

    def __init__(self, inv_plant: DiscreteIirFilter, q: DiscreteIirFilter, gamma: float):
        if inv_plant.T != q.T:
            raise ValueError("observer filters must share the sample period")
        if not np.array_equal(inv_plant.b_hat, q.b_hat):
            raise ValueError("observer filters must share the denominator")
        n = max(1, inv_plant.a_hat.size - 1, q.a_hat.size - 1, q.b_hat.size)

        def padded(c, size):
            return c.tolist() + [0.0] * (size - c.size)

        p, r = padded(inv_plant.a_hat, n + 1), padded(q.a_hat, n + 1)
        self._p0, self._q0 = p[0], r[0]
        self._p, self._q = tuple(p[1:]), tuple(r[1:])
        self._b = tuple(padded(q.b_hat, n))
        self._z = [0.0] * n
        self._mid = range(n - 1)
        self._last = n - 1
        self.T = q.T
        self.gamma = float(gamma)
        self.u_prev = 0.0
        self.d_hat = 0.0

    def estimate(self, f_measured: float) -> float:
        z, p, q, b = self._z, self._p, self._q, self._b
        u = self.u_prev
        d = self._p0 * f_measured - self._q0 * u + z[0]
        for i in self._mid:
            z[i] = z[i + 1] + p[i] * f_measured - q[i] * u + b[i] * d
        last = self._last
        z[last] = p[last] * f_measured - q[last] * u + b[last] * d
        self.d_hat = d
        return d

    def step(self, u: float, f_measured: float) -> float:
        """Return and keep the blended command u - gamma * d_hat."""
        self.u_prev = u - self.gamma * self.estimate(f_measured)
        return self.u_prev

    def reset(self) -> None:
        self._z[:] = [0.0] * len(self._z)
        self.u_prev = 0.0
        self.d_hat = 0.0


class ForceController:
    """PID + feedforward + DOB force loop producing motor-current commands.

    ``k_ff`` is the feedforward current per unit of desired force.  One
    instance per actuator; stateful, single-owner.  A non-finite input
    raises the ``fault`` flag and holds the previous command instead of
    propagating NaN into the filters; ``reset`` clears it.
    """

    def __init__(self, pid: DiscreteIirFilter, dob: DisturbanceObserver, k_ff: float):
        if pid.T != dob.T:
            raise ValueError("controller filters must share the sample period")
        self.pid = pid
        self.dob = dob
        self.k_ff = float(k_ff)
        self.fault = False

    def step(self, f_desired: float, f_measured: float) -> float:
        """One control tick: returns the motor current command in amperes."""
        if not (math.isfinite(f_desired) and math.isfinite(f_measured)):
            self.fault = True
            return self.dob.u_prev
        return self.dob.step(
            self.pid.step(f_desired - f_measured) + self.k_ff * f_desired, f_measured)

    def reset(self) -> None:
        self.pid.reset()
        self.dob.reset()
        self.fault = False


def build_observer(dob: DobConfig, T: float) -> DisturbanceObserver:
    """Discretize the observer's Q/P and Q filters at sample period ``T``.

    Q/P and Q are each discretized as single composite transfer functions
    (not cascades) to minimize rounding, both over the one continuous
    denominator ``Q.den * P.num``, so their Tustin denominators come out
    bit-identical and the observer runs them as one filter.  The inverse
    plant is only causal behind Q, so the plant's relative degree must not
    exceed Q's order.
    """
    if T <= 0.0:
        raise ValueError("sample period must be positive")
    if dob.omega_c >= math.pi / T:
        raise NyquistError(
            f"Q-filter cutoff {dob.omega_c:g} rad/s is at or above the "
            f"Nyquist rate {math.pi / T:g} rad/s"
        )
    q = q_filter(dob.omega_c)
    den = np.convolve(q.den, dob.plant.num)
    # raises CausalityError when Q cannot make 1/P proper
    inv_plant = ContinuousTransferFunction(np.convolve(q.num, dob.plant.den), den)
    q_over_den = ContinuousTransferFunction(np.convolve(q.num, dob.plant.num), den)
    return DisturbanceObserver(
        inv_plant=bilinear_discretize(inv_plant, T),
        q=bilinear_discretize(q_over_den, T),
        gamma=dob.gamma,
    )


def build_force_controller(pid: PidConfig, dob: DobConfig, k_ff: float,
                           T: float) -> ForceController:
    """Discretize the loop components and assemble a ForceController.

    The PID comes from its rational form; the observer from ``build_observer``.
    """
    return ForceController(
        pid=bilinear_discretize(pid_transfer_function(pid), T),
        dob=build_observer(dob, T),
        k_ff=k_ff,
    )
