"""Joint-space force controller building blocks.

The actuator force loop combines a rational PID+feedforward with a
disturbance observer (DOB): the observer passes the measured force through
Q/P (inverse nominal plant made causal by a third-order low-pass Q) and
the previous command through Q, and subtracts the two.  P is the one
nominal model the controller believes in, ``nominal_lsea_tf``, defined
here and not a setting: the observer treats every structural variation
of the real plant as disturbance, so it is set by three numbers, the Q
cutoff ``omega_c``, the blend gain ``gamma`` and the period ``T``.  Its
constructor puts Q/P and Q over one continuous denominator before Tustin,
so the observer is a single third-order two-input discrete filter.  Its
step closes the blend
u = u_c - gamma * d_hat with a gain ``gamma`` in [0, 1] and keeps u as the
command the next estimate compares against.  Each stateful block (PID,
observer, force loop) hands out its step as a closure over its
coefficients and state (``stepper``), which the simulator builds once per
scenario.  The observer's step keeps its state in three closure locals and
is written out.  Upstream of the force loop sit a virtual spring/damper
(impedance) and leaky integration of desired accelerations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .lti import (
    ContinuousTransferFunction,
    DiscreteIirFilter,
    NyquistError,
    bilinear_discretize,
    bilinear_num_den,
)

__all__ = [
    "nominal_lsea_tf",
    "PidConfig",
    "ImpedanceConfig",
    "LeakyState",
    "DisturbanceObserver",
    "ForceController",
    "q_filter",
    "pid_transfer_function",
    "build_force_controller",
    "impedance_step",
    "leaky_step",
]

_SQRT2 = math.sqrt(2.0)

NOMINAL_NUM = (208.8,)
NOMINAL_DEN = (0.01, 1.13, 23.04, 987.0)


def nominal_lsea_tf() -> ContinuousTransferFunction:
    """Identified nominal current-to-force model of the actuator testbed.

    It is the model the disturbance observer inverts; ``plant.LseaPlant``
    perturbs it to simulate the real actuator.
    """
    return ContinuousTransferFunction(NOMINAL_NUM, NOMINAL_DEN)


def _check_finite(cfg) -> None:
    """Raise ``ValueError`` naming the first non-finite field of dataclass ``cfg``."""
    for f in fields(cfg):
        if not math.isfinite(getattr(cfg, f.name)):
            raise ValueError(f"{f.name} must be finite")


@dataclass
class PidConfig:
    """PID gains plus the derivative low-pass pole ``lam`` (rad/s).

    ``from_gain_row`` applies the gain-table convention lam = 1e-3 *
    lambda_c; pass ``lam`` directly to bypass it.  A non-finite field
    raises ``ValueError`` naming it.
    """

    k_p: float
    k_i: float
    k_d: float
    lam: float

    def __post_init__(self):
        _check_finite(self)
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
    if not 0.0 < omega_c < math.inf:
        raise ValueError(f"omega_c must be positive and finite, got {omega_c}")
    wc = float(omega_c)
    return ContinuousTransferFunction(
        [wc**3],
        [1.0, (_SQRT2 + 1.0) * wc, (1.0 + _SQRT2) * wc**2, wc**3],
    )


@dataclass
class ImpedanceConfig:
    """Virtual spring/damper gains in actuator space (N/m, N s/m).

    A non-finite gain raises ``ValueError`` naming it.
    """

    k: float
    b: float

    def __post_init__(self):
        _check_finite(self)
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
        if not 0.0 < self.dT < math.inf:
            raise ValueError("step time must be positive and finite")


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

    P is ``nominal_lsea_tf`` and Q is ``q_filter(omega_c)``; P's relative
    degree, 3, equals Q's order, so Q/P is proper.  The constructor
    Tustin-discretizes Q/P and Q at period ``T``, each as one composite
    transfer function (not a cascade) to minimize rounding, both over the
    one continuous denominator ``Q.den * P.num``, so their discrete
    denominators come out bit-identical and form one two-input filter,

        d_hat = (N1(z) f_measured - N2(z) u_prev) / D(z),

    stepped as a transposed direct form II on Python floats, its three
    state values held in closure locals and the step written out.
    ``coefficients`` is ``(N1, N2, D)``, each a tuple of four Python floats
    in powers of z^-1, ``D`` monic: the numbers the step binds.
    ``stepper`` returns that step as a closure built once per observer,
    ``step(u_c, f_measured) -> (u, d_hat)``: it estimates from the current
    force measurement, subtracts ``gamma * d_hat`` from the command and
    keeps the result as ``u_prev``, the command the next estimate compares
    against.  The filter state and ``u_prev`` live in the closure's scope,
    which ``estimate`` steps too; ``state()`` reads it as ``(z0, z1, z2,
    u_prev)`` and ``set_state(s)`` loads it.  ``gamma`` is bound at
    construction.

    A ``gamma`` outside [0, 1] (NaN included) raises ``ValueError``; so
    do ``q_filter`` for an ``omega_c`` that is not positive and finite and
    ``bilinear_num_den`` for a ``T`` that is not.  An ``omega_c`` at or
    above the Nyquist rate ``pi / T`` raises ``NyquistError``.
    """

    def __init__(self, omega_c: float, gamma: float, T: float):
        q, pn = q_filter(omega_c), nominal_lsea_tf()
        if not 0.0 <= gamma <= 1.0:
            raise ValueError(f"observer gain gamma must lie in [0, 1], got {gamma}")
        den = np.convolve(q.den, pn.num)
        n1, _ = bilinear_num_den(ContinuousTransferFunction(np.convolve(q.num, pn.den), den), T)
        n2, d = bilinear_num_den(ContinuousTransferFunction(np.convolve(q.num, pn.num), den), T)
        if omega_c >= math.pi / T:
            raise NyquistError(
                f"Q-filter cutoff {omega_c:g} rad/s is at or above the "
                f"Nyquist rate {math.pi / T:g} rad/s"
            )
        self.coefficients = (tuple(n1.tolist()), tuple(n2.tolist()), tuple(d.tolist()))
        self.T = float(T)
        self.gamma = float(gamma)
        self._step, self.state, self.set_state = self._scope()

    def _scope(self):
        """Build the observer's ``(step, state, set_state)`` over one state:
        the DF2T state in three closure locals, and ``u_prev``."""
        (p0, p1, p2, p3), (q0, q1, q2, q3), (_, a1, a2, a3) = self.coefficients
        b1, b2, b3, gamma = -a1, -a2, -a3, self.gamma
        u_prev = 0.0
        z0 = z1 = z2 = 0.0

        def step(u_c, f):
            nonlocal u_prev, z0, z1, z2
            u = u_prev
            d = p0 * f - q0 * u + z0
            z0 = z1 + p1 * f - q1 * u + b1 * d
            z1 = z2 + p2 * f - q2 * u + b2 * d
            z2 = p3 * f - q3 * u + b3 * d
            u_prev = u_c - gamma * d
            return u_prev, d

        def state():
            return z0, z1, z2, u_prev

        def set_state(s):
            nonlocal z0, z1, z2, u_prev
            z0, z1, z2, u_prev = s

        return step, state, set_state

    def stepper(self):
        """Return the observer step ``step(u_c, f_measured) -> (u, d_hat)``."""
        return self._step

    def estimate(self, f_measured: float) -> float:
        """Return ``d_hat`` from ``f_measured``; ``u_prev`` is unchanged.

        It is one ``step``, after which ``u_prev`` is loaded back."""
        u_prev = self.state()[3]
        d_hat = self._step(u_prev, f_measured)[1]
        self.set_state((*self.state()[:3], u_prev))
        return d_hat


class ForceController:
    """PID + feedforward + DOB force loop producing motor-current commands.

    ``k_ff`` is the feedforward current per unit of desired force; a
    non-finite one raises ``ValueError``.  One instance per actuator;
    stateful, single-owner.  The loop checks no input: a non-finite one
    enters the filters (``run_scenario`` checks the plant output before
    the call, and the desired force and the command after it).
    """

    def __init__(self, pid: DiscreteIirFilter, dob: DisturbanceObserver, k_ff: float):
        if pid.T != dob.T:
            raise ValueError("controller filters must share the sample period")
        if not math.isfinite(k_ff):
            raise ValueError(f"feedforward gain k_ff must be finite, got {k_ff}")
        self.pid = pid
        self.dob = dob
        self.k_ff = float(k_ff)
        self._step = self.stepper()

    def stepper(self):
        """Return the force loop ``step(f_desired, f_measured) -> (i_m, d_hat)``.

        It composes the PID's and the observer's steppers, so it advances
        their state, with the ``k_ff`` feedforward bound when it is built.
        """
        pid_step, dob_step, k_ff = self.pid.stepper(), self.dob.stepper(), self.k_ff

        def step(f_desired, f_measured):
            return dob_step(pid_step(f_desired - f_measured) + k_ff * f_desired, f_measured)

        return step

    def step(self, f_desired: float, f_measured: float) -> float:
        """One control tick: returns the motor current command in amperes."""
        return self._step(f_desired, f_measured)[0]


def build_force_controller(pid: PidConfig, omega_c: float, gamma: float, k_ff: float,
                           T: float) -> ForceController:
    """Discretize the loop components and assemble a ForceController.

    The PID comes from its rational form; the observer is
    ``DisturbanceObserver(omega_c, gamma, T)``.
    """
    return ForceController(
        pid=bilinear_discretize(pid_transfer_function(pid), T),
        dob=DisturbanceObserver(omega_c, gamma, T),
        k_ff=k_ff,
    )
