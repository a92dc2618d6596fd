"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the library's own computation paths: the Tustin
oracle expands the substitution with binomial products, the random
system sampler builds transfer functions from explicit pole/zero draws, and
the coupled plant/pendulum ODE is integrated by scipy.  The one exception is
``pendulum_substeps_reference``: it keeps the slower composition of
one-substep plant calls that the fused coupled loop must match bit for bit.
"""

import math

import numpy as np

from seactrl.lti import ContinuousTransferFunction


def tustin_direct(num, den, T):
    """Substitute s = (2/T)(z-1)/(z+1) term by term; clear with (z+1)^n."""
    n = len(den) - 1
    numv = np.concatenate([np.zeros(n + 1 - len(num)), np.asarray(num, float)])

    def substitute(coeffs):
        out = np.zeros(n + 1)
        for j, cj in enumerate(coeffs):
            d = n - j  # degree of this term in s
            poly = np.array([cj * (2.0 / T) ** d])
            for _ in range(d):
                poly = np.convolve(poly, [1.0, -1.0])
            for _ in range(n - d):
                poly = np.convolve(poly, [1.0, 1.0])
            out += poly
        return out

    b = substitute(numv)
    a = substitute(np.asarray(den, float))
    return b / a[0], a / a[0]


def random_stable_tf(rng, max_order=4, w_lo=0.5, w_hi=200.0, min_damp=0.3):
    """Random causal transfer function with damped left-half-plane roots."""
    n = int(rng.integers(1, max_order + 1))
    m = int(rng.integers(0, n + 1))

    def roots(count):
        out = []
        while len(out) < count:
            if count - len(out) >= 2 and rng.random() < 0.5:
                w = rng.uniform(w_lo, w_hi)
                z = rng.uniform(min_damp, 1.0)
                out += [-z * w + 1j * w * np.sqrt(1 - z * z),
                        -z * w - 1j * w * np.sqrt(1 - z * z)]
            else:
                out.append(-rng.uniform(w_lo, w_hi))
        return out

    den = np.real(np.poly(roots(n)))
    num = (np.real(np.poly(roots(m))) * rng.uniform(0.1, 10.0)
           if m else np.array([rng.uniform(0.1, 10.0)]))
    return ContinuousTransferFunction(num, den)


def observer_reference(inv_plant, q, f_measured, u_prev):
    """Disturbance estimate of two separately stepped filters, via scipy.

    Returns ``(Q/P)(f_measured) - Q(u_prev)`` with each discrete filter run
    by ``scipy.signal.lfilter`` on its own (a_hat, den) pair.
    """
    from scipy.signal import lfilter

    return (lfilter(inv_plant.a_hat, inv_plant.den, f_measured)
            - lfilter(q.a_hat, q.den, u_prev))


def _closure_pendulum_rk4(theta, omega, f_0, f_mid, f_1, dt, m, l1, l2, g, c):
    """The pendulum RK4 as first written: one nested acceleration function."""
    inertia = m * l1 * l1
    mgl = m * g * l1

    def acc(th, w, f):
        return (l2 * f - mgl * math.sin(th) - c * w) / inertia

    k1t, k1w = omega, acc(theta, omega, f_0)
    k2t = omega + 0.5 * dt * k1w
    k2w = acc(theta + 0.5 * dt * k1t, k2t, f_mid)
    k3t = omega + 0.5 * dt * k2w
    k3w = acc(theta + 0.5 * dt * k2t, k3t, f_mid)
    k4t = omega + dt * k3w
    k4w = acc(theta + dt * k3t, k4t, f_1)
    return (theta + dt / 6.0 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t),
            omega + dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w))


def pendulum_substeps_reference(plant, i_m, f_o, theta, theta_dot, dt, substeps, pend):
    """Coupled plant/pendulum substeps composed from one-substep calls.

    Each substep is two ``plant.advance(i_m, dt / 2, 1)`` calls and one RK4
    of the pendulum with the force at the substep's start, midpoint and end.
    """
    for _ in range(substeps):
        f_start = f_o
        f_mid = plant.advance(i_m, 0.5 * dt, 1)
        f_o = plant.advance(i_m, 0.5 * dt, 1)
        theta, theta_dot = _closure_pendulum_rk4(
            theta, theta_dot, f_start, f_mid, f_o, dt,
            pend.m, pend.l1, pend.l2, pend.g, pend.damping)
    return f_o, theta, theta_dot


def coupled_ode_reference(num, den, pend, inputs, T):
    """Joint actuator/pendulum ODE integrated by ``scipy.integrate.solve_ivp``.

    The actuator is ``num / den`` (constant numerator) in controllable
    canonical form, the pendulum obeys
    m l1^2 theta'' = l2 f - m g l1 sin(theta) - c theta'
    and each input is held for one period ``T``.  Returns the force, angle and rate
    at the end of every period, each as an array.
    """
    from scipy.integrate import solve_ivp

    a = np.asarray(den, float) / den[0]
    cy = num / den[0]
    inertia = pend.m * pend.l1 ** 2
    mgl = pend.m * pend.g * pend.l1

    def rhs(_t, s, u):
        x0, x1, x2, th, w = s
        f = cy * x0
        return [x1, x2, u - a[3] * x0 - a[2] * x1 - a[1] * x2,
                w, (pend.l2 * f - mgl * math.sin(th) - pend.damping * w) / inertia]

    state = [0.0, 0.0, 0.0, pend.theta0, pend.theta_dot0]
    out = []
    for u in inputs:
        sol = solve_ivp(rhs, (0.0, T), state, method="DOP853", rtol=1e-12,
                        atol=1e-16, args=(float(u),))
        state = sol.y[:, -1]
        out.append((cy * state[0], state[3], state[4]))
    return tuple(np.array(col) for col in zip(*out))
