"""Independent oracles shared by the unit and acceptance suites.

These deliberately avoid the library's own computation paths: the Tustin
oracle expands the substitution with binomial products, the random
system sampler builds transfer functions from explicit pole/zero draws,
the coupled plant/pendulum ODE is integrated by scipy, the plant's
multi-substep map is composed with numpy matrix products or taken from
scipy's matrix exponential, and the observer loop's response is predicted
from scipy's zero-order-hold discretization of the plant; the CSV
reference formats each value on its own.  The exceptions write out, with
the library's own maps, what the library must match bit for bit:
``pendulum_tick_reference`` the controller step of ``run_scenario``'s
pendulum path, ``rate_rows`` the substep rates whose deviations
``LseaPlant._lifted`` keeps as its bound, ``stepped_substeps``,
``stepped_call``, ``lifted_oracle`` and ``held_call_reference`` one
plant call with stiction, and
``ThirdOrderObserver`` the third-order observer step, from the two
filters' coefficients.
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


def csv_reference(path, header, columns):
    """Per-value CSV writer: each value formatted on its own as ``f"{v:.9g}"``.

    The row format ``sysid.write_csv`` promises, without its block
    formatting or its folding of constant columns into the row format.
    """
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.9g}" for v in row) + "\n")


def observer_reference(inv_plant, q, f_measured, u_prev):
    """Disturbance estimate of two separately stepped filters, via scipy.

    Returns ``(Q/P)(f_measured) - Q(u_prev)`` with each discrete filter run
    by ``scipy.signal.lfilter`` on its own (a_hat, den) pair.
    """
    from scipy.signal import lfilter

    return (lfilter(inv_plant.a_hat, inv_plant.den, f_measured)
            - lfilter(q.a_hat, q.den, u_prev))


class ThirdOrderObserver:
    """The third-order two-input DF2T observer, written out with attributes.

    ``a_f`` and ``a_u`` are the four input coefficients of Q/P and of Q
    (current sample first), and ``b`` the three output-feedback
    coefficients of their shared denominator, in ``DiscreteIirFilter``'s
    convention ``y0 = b . y + a . x``.  ``step(u_c, f)`` estimates
    ``d_hat = (Q/P) f - Q u_prev``, keeps ``u_c - gamma * d_hat`` as
    ``u_prev`` and returns ``(u_prev, d_hat)``; ``estimate(f)`` estimates
    the same way but keeps ``u_prev``.
    """

    def __init__(self, a_f, a_u, b, gamma):
        self.f0, self.f1, self.f2, self.f3 = (float(c) for c in a_f)
        self.u0, self.u1, self.u2, self.u3 = (float(c) for c in a_u)
        self.b1, self.b2, self.b3 = (float(c) for c in b)
        self.gamma = float(gamma)
        self.s1 = self.s2 = self.s3 = 0.0
        self.u_prev = 0.0

    def estimate(self, f):
        u = self.u_prev
        d = self.f0 * f - self.u0 * u + self.s1
        self.s1 = self.s2 + self.f1 * f - self.u1 * u + self.b1 * d
        self.s2 = self.s3 + self.f2 * f - self.u2 * u + self.b2 * d
        self.s3 = self.f3 * f - self.u3 * u + self.b3 * d
        return d

    def step(self, u_c, f):
        d = self.estimate(f)
        self.u_prev = u_c - self.gamma * d
        return self.u_prev, d


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


def pendulum_tick_reference(plant, pend, i_m, f_o, theta, theta_dot, dt_sub, n_sub, T):
    """One controller step ``T`` of the coupled plant and pendulum, written out.

    Two ``plant.advance(i_m, dt_sub / 2, n_sub)`` calls give the force at
    the step's midpoint and end; one RK4 step of ``T`` sees the force at its
    start, midpoint and end.  Returns the force, angle and rate at the end
    of the step.
    """
    args = (pend.m, pend.l1, pend.l2, pend.g, pend.damping)
    f_h = plant.advance(i_m, dt_sub / 2, n_sub)
    f_1 = plant.advance(i_m, dt_sub / 2, n_sub)
    theta, theta_dot = _closure_pendulum_rk4(theta, theta_dot, f_o, f_h, f_1, T, *args)
    return f_1, theta, theta_dot


def substep_composition(coeffs, n):
    """``(M^n, (M^0 + ... + M^(n-1)) N)`` of a substep ``x+ = M x + N u``, in numpy.

    ``coeffs`` is the plant's substep tuple of a plant of order ``k``: the
    ``k * k`` entries of ``M`` row by row, then the ``k`` of ``N``.
    """
    c = np.array([float(v) for v in coeffs])
    k = (math.isqrt(4 * c.size + 1) - 1) // 2
    m, n_col = c[:k * k].reshape(k, k), c[k * k:]
    power, gain = np.eye(k), np.zeros(k)
    for _ in range(n):
        gain = gain + power @ n_col
        power = m @ power
    return power, gain


def rate_rows(plant, dt, n):
    """The rate rows of ``n`` substeps of ``plant._coeffs(dt)``, in Python floats.

    ``rows[j - 1] = (r0, r1, r2, s)`` gives the rate ``x1`` after ``j < n``
    substeps as ``r0 x0 + r1 x1 + r2 x2 + s u``.  Each row is read off the
    substep recurrence run on each unit state (zero input) and on the zero
    state (unit input), the runs ``plant._lifted(dt, n)`` composes, so its
    ``bound`` is these rows' largest deviation from ``(0, 1, 0, 0)``.
    """
    m00, m01, m02, m10, m11, m12, m20, m21, m22, n0, n1, n2 = plant._coeffs(dt)

    def rates(x0, x1, x2, u):
        out = []
        for _ in range(n - 1):
            x0, x1, x2 = (
                m00 * x0 + m01 * x1 + m02 * x2 + n0 * u,
                m10 * x0 + m11 * x1 + m12 * x2 + n1 * u,
                m20 * x0 + m21 * x1 + m22 * x2 + n2 * u,
            )
            out.append(x1)
        return out

    return tuple(zip(rates(1.0, 0.0, 0.0, 0.0), rates(0.0, 1.0, 0.0, 0.0),
                     rates(0.0, 0.0, 1.0, 0.0), rates(0.0, 0.0, 0.0, 1.0)))


def stepped_substeps(plant, state, u, dt, n):
    """``n`` substeps of ``plant._coeffs(dt)`` from ``state``, one by one.

    Before each substep the Karnopp test zeroes the input when it is below
    the breakaway and the force rate ``cy x1`` is inside the dead-band.
    Returns the state after the call and the effective input of each
    substep.
    """
    m00, m01, m02, m10, m11, m12, m20, m21, m22, n0, n1, n2 = plant._coeffs(dt)
    cy, brk = plant._cy, plant.stiction_breakaway
    vdead = plant.stiction_velocity_deadband
    x0, x1, x2 = state
    inputs = []
    for _ in range(n):
        ue = 0.0 if brk > 0.0 and abs(u) < brk and abs(cy * x1) < vdead else u
        inputs.append(ue)
        x0, x1, x2 = (
            m00 * x0 + m01 * x1 + m02 * x2 + n0 * ue,
            m10 * x0 + m11 * x1 + m12 * x2 + n1 * ue,
            m20 * x0 + m21 * x1 + m22 * x2 + n2 * ue,
        )
    return (x0, x1, x2), tuple(inputs)


def stepped_call(plant, state, u, dt, n):
    """The state after ``stepped_substeps``' call."""
    return stepped_substeps(plant, state, u, dt, n)[0]


def lifted_oracle(plant, dt, n):
    """Return ``call(state, u)``: ``plant._lifted(dt, n)`` applied to
    ``state`` with the input that the Karnopp test on ``state`` lets
    through (zero or ``u``).

    The map is composed once, here, for every call; ``call`` returns the
    state after the call.
    """
    p00, p01, p02, p10, p11, p12, p20, p21, p22, g0, g1, g2 = plant._lifted(dt, n)[0]
    brk, vdead, cy = plant.stiction_breakaway, plant.stiction_velocity_deadband, plant._cy

    def call(state, u):
        x0, x1, x2 = state
        ue = 0.0 if brk > 0.0 and abs(u) < brk and abs(cy * x1) < vdead else u
        return (
            p00 * x0 + p01 * x1 + p02 * x2 + g0 * ue,
            p10 * x0 + p11 * x1 + p12 * x2 + g1 * ue,
            p20 * x0 + p21 * x1 + p22 * x2 + g2 * ue,
        )

    return call


def held_call_reference(plant, state, u, dt, n):
    """One call of a backlash-free ``plant`` whose input stiction holds.

    The Karnopp rate test is decided for every substep from ``state``: the
    rate after ``j`` substeps of the input that substep 0's test chose is
    row 1 of numpy's composition ``(M^j, (M^0 + ... + M^(j-1)) N)`` of the
    substep map, applied to ``state`` and that input.  Returns ``(agrees,
    state_after)``: when the test gives substep 0's answer on every
    substep, the state after ``lifted_oracle``'s call, else after
    ``stepped_call``.
    """
    cy, vdead = plant._cy, plant.stiction_velocity_deadband
    c = np.array(plant._coeffs(dt))
    m, n_col = c[:9].reshape(3, 3), c[9:]
    x = np.array(state, dtype=float)
    zeroed = abs(cy * x[1]) < vdead
    ue = 0.0 if zeroed else u
    power, gain = np.eye(3), np.zeros(3)
    agrees = True
    for _ in range(1, n):
        gain = gain + power @ n_col
        power = m @ power
        agrees = agrees and bool(abs(cy * (power[1] @ x + gain[1] * ue)) < vdead) == zeroed
    if agrees:
        return agrees, lifted_oracle(plant, dt, n)(state, u)
    return agrees, stepped_call(plant, state, u, dt, n)


def zoh_map(den, T):
    """Exact zero-order-hold map ``(Phi, Gamma)`` of the canonical realization.

    ``den`` is the actuator's denominator of degree ``n``, highest degree
    first, and the state is ``(x, dx/dt, ..., d^(n-1)x/dt^(n-1))`` with
    ``d^n x/dt^n = u - a_n x - ... - a_1 d^(n-1)x/dt^(n-1)`` for the monic
    coefficients ``a``.  The map is ``scipy.linalg.expm`` of the augmented
    ``[[A, B], [0, 0]] T``.
    """
    from scipy.linalg import expm

    a = np.asarray(den, float) / den[0]
    n = a.size - 1
    aug = np.zeros((n + 1, n + 1))
    aug[:n, 1:] = np.eye(n)
    aug[n - 1, :n] = -a[:0:-1]
    e = expm(aug * T)
    return e[:n, :n], e[:n, n]


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


def dob_loop_response(plant, observer, freqs_hz):
    """Sampled-data ``u_c -> f_o`` response of the linear observer loop.

    ``plant`` is the simulated actuator's continuous transfer function and
    ``P_d`` its zero-order-hold discretization by ``scipy.signal.cont2discrete``
    at the observer's period.  ``A = Q/P`` and ``B = Q`` are the observer's
    own Tustin filters, read from its coefficients.  Each tick the loop
    commands ``i_m = u_c - gamma * (A f_o - z^-1 B i_m)`` and measures
    ``f_o = P_d i_m``, so

        H(z) = P_d / (1 + gamma (A P_d - z^-1 B)).

    Returns ``H`` at ``freqs_hz`` as a complex array.
    """
    from scipy.signal import cont2discrete

    num_d, den_d, _ = cont2discrete((plant.num, plant.den), observer.T, method="zoh")
    z = np.exp(2j * np.pi * np.asarray(freqs_hz, float) * observer.T)
    p_d = np.polyval(np.ravel(num_d), z) / np.polyval(den_d, z)

    def in_z_inverse(coeffs):  # c0 + c1 z^-1 + ...
        return np.polyval(np.asarray(coeffs, float)[::-1], 1.0 / z)

    n1, n2, d = observer.coefficients
    den = in_z_inverse(d)
    a = in_z_inverse(n1) / den
    b = in_z_inverse(n2) / den
    return p_d / (1.0 + observer.gamma * (a * p_d - b / z))
