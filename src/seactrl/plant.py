"""Deterministic simulator of the elastic actuator testbed and pendulum.

The actuator is the identified third-order current-to-force model in a
controllable-canonical realization, advanced with RK4 (for a linear system
with held input one RK4 substep is exactly a constant matrix recurrence,
which is precomputed per substep size, from the transfer function, for
any order).  ``LseaPlant.stepper(dt, n)``
builds, once per substep size and count, a closure that advances ``n``
substeps with the input held; every stepper of a plant, and
``LseaPlant.advance``, steps the one state that lives in the plant's
closure scope.  Without backlash, a step whose substeps all see one
effective input (an input at or above the stiction breakaway, or, below
it, zero or the input on every substep, where one bound on every
substep's rate decides that before the step) is one cached linear map,
the substep recurrence composed in Python floats; every other step runs
its substeps one by one.  Both maps hold Python floats, so the plant
output, and from it the observer, PID and pendulum state, stays a Python
float rather than a numpy scalar.  Injectable perturbations stand in for
everything the disturbance observer must absorb: multiplicative
denominator/gain perturbation (structural-elasticity emulation), a Karnopp
stiction dead-band on the effective input, and a hysteretic backlash play.

The pendulum is the nonlinear 1-DoF load; scenarios couple it to the
actuator through the small-angle testbed geometry q_a = l2 * theta and
tau = l2 * f, the only coupling modelled.  The coupling is one-way within
a controller step: the pendulum reaches the controller only through the
next step's measurement.  So each controller step runs the plant in two
steps of half-substeps, half a controller step each, and the pendulum in
one RK4 step of a controller step (``_pendulum_stepper``), which sees the
force at the step's start, midpoint and end.  ``run_scenario`` executes
the two-rate loop (reference rate / controller rate / plant substep rate)
and returns a uniformly sampled log of 12 columns that serializes to CSV
bit-reproducibly: each column the scenario writes is its own array, and
every other one a read-only zero-stride ``+0.0``.  A tick records only the
values it computes (the loop's outputs, and with the pendulum the desired
force and the pendulum state); the time is filled with numpy block by
block, and the held reference and the other derived columns after the
loop.  A non-finite signal stops the loop with a ``SimulationFault`` that
names the signal and the time.

One kind of scenario skips the tick loop: a current chirp with no
pendulum, at any ``gamma``, on a plant without backlash, which is the
observer loop alone.  Outside the calls below the stiction breakaway
(``LseaPlant.held_below``) its tick is one linear map (``_chirp_loop``),
so one ``lti.block_scan`` of that map runs over the whole chirp, and the
``lti.Scan`` it returns answers the scanned state at any tick and the
free response of a state.  A plant without stiction holds no call, so
its command is the chirp less ``gamma`` times the scanned estimate.
Otherwise one loop over chunks of the scan carries, from tick 0, the
steppers' state less the scanned one, and finds the held calls in order.
They are decided in bulk from the scanned states by the plant's own
bound: one that keeps its input is the scanned map, and from each one
the bound leaves undecided, the plant's and the observer's own steppers
step to the end of its window, superposed on the scan.  A plant with
backlash, a scan that gives up and a non-finite value all give way to
the tick loop, which also raises the fault.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

from .control import (
    NOMINAL_DEN,
    NOMINAL_NUM,
    DisturbanceObserver,
    ImpedanceConfig,
    PidConfig,
    _check_finite,
    build_force_controller,
    impedance_step,
)
from .kinematics import PendulumMap, actuator_setpoints, ff_force
from .lti import ContinuousTransferFunction, NyquistError, block_scan, orbit
from .sysid import (
    _SWEEP_RATIO_LIMIT,
    exponential_chirp,
    linear_chirp_freq_hz,
    linear_chirp_point,
    write_csv,
)

__all__ = [
    "SimulationFault",
    "BacklashPlay",
    "LseaPlant",
    "free_oscillation_frequency",
    "PlantConfig",
    "PendulumConfig",
    "ReferenceSpec",
    "SimScenario",
    "SimLog",
    "run_scenario",
]

class SimulationFault(RuntimeError):
    """A scenario produced a non-finite value.

    ``what`` names the signal: ``theta``/``theta_dot`` (pendulum state),
    ``f_o`` (plant output), ``f_d`` (desired force), then ``d_hat``
    (disturbance estimate) or ``i_m`` (current command), checked in that
    order: the first three at the start of a controller step, before the
    controller reads them, the rest after the controller call.  A
    non-finite command is reported as ``d_hat`` when the estimate it was
    formed from is non-finite too (at ``gamma = 0`` the command is
    ``u_c - 0.0 * d_hat``, NaN for an infinite estimate), else as ``i_m``.
    ``time`` is the start of the controller step that reports it.  A value
    produced at the end of step k (``f_o``, ``theta``, ``theta_dot``) is
    reported at the start of step k + 1; an angle that overflows inside
    one of step k's RK4 stages, and ``f_d``, ``d_hat`` and ``i_m``, are
    reported at step k.
    """

    def __init__(self, time: float, what: str):
        super().__init__(f"non-finite {what} at t = {time:.6f} s")
        self.time = time
        self.what = what


class BacklashPlay:
    """Hysteretic play operator of total width ``width``.

    The output follows the input only once the gap closes on either side;
    inside the gap it holds.
    """

    def __init__(self, width: float):
        if not 0.0 <= width < math.inf:
            raise ValueError("play width must be non-negative and finite")
        self.width = float(width)
        self.output = 0.0

    def step(self, x: float) -> float:
        half = 0.5 * self.width
        if x - self.output > half:
            self.output = x - half
        elif self.output - x > half:
            self.output = x + half
        return self.output


class LseaPlant:
    """Perturbable realization of the third-order actuator model.

    ``den_factors`` multiply the four denominator coefficients and
    ``gain_factor`` the numerator gain; both must be positive and finite,
    and the leading denominator coefficient must not underflow to 0.
    Stiction follows a Karnopp model:
    while the output rate is inside the velocity dead-band and the input
    magnitude is below the breakaway threshold, the effective input is
    zero.  ``backlash`` applies a hysteretic play of that width to the
    transmitted output.  The breakaway, dead-band and play width must be
    non-negative and finite.  A parameter that breaks these rules raises
    ``ValueError`` naming it.

    The model is ``tf``, a constant numerator over the perturbed
    denominator, in companion form with ``f_o = c_y x0``.  The build-time
    maps (``_coeffs``, ``_lifted``, ``realization``, ``held_bound``) are
    read off ``tf`` for whatever order its denominator has; the stepper is
    written out for the three states of this model.

    ``state()`` reads and ``set_state(x)`` loads the one state ``(x0, x1,
    x2)`` that every stepper of the plant steps; ``realization`` and
    ``held_below`` say which calls are the linear map ``x+ = P x + G u``,
    and ``held_bound`` gives the constants of the bound that decides the
    others before they are stepped.
    """

    def __init__(self, den_factors=(1.0, 1.0, 1.0, 1.0), gain_factor: float = 1.0,
                 stiction_breakaway: float = 0.0,
                 stiction_velocity_deadband: float = 0.5,
                 backlash: float = 0.0):
        # each check is a chained comparison that NaN and +-inf fail
        factors = np.asarray(den_factors, dtype=float).ravel()
        if factors.size != 4 or not np.all((0.0 < factors) & (factors < math.inf)):
            raise ValueError("den_factors must be four positive, finite multipliers")
        if not 0.0 < gain_factor < math.inf:
            raise ValueError("gain_factor must be positive and finite")
        for name, value in (("stiction_breakaway", stiction_breakaway),
                            ("stiction_velocity_deadband", stiction_velocity_deadband),
                            ("backlash", backlash)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        self.tf = ContinuousTransferFunction([NOMINAL_NUM[0] * gain_factor],
                                             np.asarray(NOMINAL_DEN) * factors)
        if self.tf.order != factors.size - 1:
            raise ValueError("den_factors[0] scales the leading denominator coefficient to 0")
        self.stiction_breakaway = float(stiction_breakaway)
        self.stiction_velocity_deadband = float(stiction_velocity_deadband)
        self._play = BacklashPlay(backlash) if backlash > 0.0 else None
        self._steppers: dict[tuple[float, int], Callable[[float], float]] = {}
        self.state, self.set_state, self._new_stepper = self._scope()

    @property
    def _cy(self) -> float:
        """The output gain: ``f_o = c_y x0`` for ``tf``'s constant numerator."""
        return float(self.tf.num[-1] / self.tf.den[0])

    def _coeffs(self, dt: float) -> tuple:
        """One RK4 substep of ``dt`` as the map ``x+ = M x + N u``.

        ``A`` is the companion matrix of ``tf``'s denominator, of whatever
        order ``n`` it has, and ``B`` the last unit vector.  Returns the
        ``n * n`` entries of ``M`` row by row, then the ``n`` of ``N B``, as
        Python floats.  ``M`` and ``N`` are built with numpy matrix products;
        ``tolist`` converts their entries exactly.
        """
        a = self.tf.den / self.tf.den[0]
        n = a.size - 1
        A = np.eye(n, k=1)
        A[-1] = -a[:0:-1]
        # RK4 of a linear system with held input is exact in (M, N) form:
        # x+ = M x + N u with the degree-4 truncations of expm(A dt).
        M = np.eye(n)
        N = np.zeros((n, n))
        term = np.eye(n)
        for k in range(1, 5):
            N = N + term * dt / math.factorial(k)
            term = term @ A * dt
            M = M + term / math.factorial(k)
        return (*M.ravel().tolist(), *(N @ np.eye(n)[-1]).tolist())

    def _lifted(self, dt: float, substeps: int) -> tuple:
        """``substeps`` RK4 substeps of ``dt`` as one map ``x+ = P x + G u``.

        ``P = M^substeps`` and ``G = (M^0 + ... + M^(substeps-1)) N`` are
        the ``lti.orbit``s, in Python floats, of the substep map of
        ``_coeffs(dt)`` augmented by the held input, ``(x, u)+ = (M x + N
        u, u)``, from each unit state (zero input) and from the zero state
        (unit input).  Returns ``(lifted, bound)`` in Python floats:
        ``lifted`` holds the ``n * n`` entries of ``P`` row by row, then the
        ``n`` of ``G``; ``bound``, read off the same orbits, holds the
        largest deviation ``|x1 - e1_i|`` of each orbit's rate after substeps
        1 ... substeps - 1, with ``e1 = (0, 1, 0, ..., 0)``, so the rate
        after any of them lies within ``sum_i bound[i] |x_i| + bound[n] |u|``
        of ``x1`` (all zeros for one substep).
        """
        coeffs = self._coeffs(dt)
        n = self.tf.order
        step = [[*coeffs[i * n:i * n + n], coeffs[n * n + i]] for i in range(n)]
        step.append([0.0] * n + [1.0])
        runs = [orbit(step, [float(i == r) for i in range(n + 1)], substeps)
                for r in range(n + 1)]
        lifted = (*(run[-1][i] for i in range(n) for run in runs[:n]), *runs[n][-1][:n])
        return lifted, tuple(max([0.0] + [abs(x[1] - float(r == 1)) for x in run[1:-1]])
                             for r, run in enumerate(runs))

    def realization(self, dt: float, substeps: int) -> tuple:
        """``(P, G, c_y)`` of a call of ``substeps`` RK4 substeps of ``dt``
        whose every substep sees the input ``u``: ``x+ = P x + G u`` and
        the transmitted force ``f_o = c_y x0``, without backlash.

        ``P`` is ``n`` rows of ``n`` Python floats and ``G`` ``n``, the map
        ``_lifted`` composes, which the stepper applies to every call whose
        input is not below ``held_below``.
        """
        lifted, _ = self._lifted(dt, substeps)
        n = self.tf.order
        return [list(lifted[i:i + n]) for i in range(0, n * n, n)], list(lifted[n * n:]), self._cy

    def held_bound(self, dt: float, substeps: int) -> tuple:
        """The constants ``(acy, vdead, floor, d0, ..., ds)`` of the bound
        by which a stepper of ``substeps`` RK4 substeps of ``dt`` decides a
        held call before stepping it (see ``stepper``): ``|c_y|``, the
        velocity dead-band, the underflow floor and ``_lifted``'s ``bound``,
        which is NaN for ``|c_y| < 1`` (a rate can overflow while ``v + b``
        stays finite), so that no held call is decided.  ``_keeps_input``
        evaluates the same test on arrays.
        """
        _, bound = self._lifted(dt, substeps)
        acy = abs(self._cy)
        # underflow errs by up to half the least subnormal per product,
        # an absolute error that acy scales and no relative margin covers
        return (acy, self.stiction_velocity_deadband, math.ldexp(acy + 1.0, -1070),
                *(bound if acy >= 1.0 else (math.nan,) * len(bound)))

    @property
    def held_below(self) -> float:
        """The input magnitude below which a stepper may run a call
        otherwise than by ``realization``'s map: 0 on a linear plant, the
        stiction breakaway, and with backlash ``inf`` (every call, so a
        current chirp runs the tick loop)."""
        return math.inf if self._play is not None else self.stiction_breakaway

    def _scope(self):
        """Build the state reader, its setter and the stepper factory over
        one plant state.

        The state ``x0, x1, x2`` lives in this scope, so every stepper the
        factory builds, and ``advance``, step the same state; ``state()``
        reads it and ``set_state`` loads it.  The perturbation parameters
        are bound here, once.
        """
        x0 = x1 = x2 = 0.0
        cy, play = self._cy, self._play
        brk = self.stiction_breakaway
        stiction = brk > 0.0

        def state():
            return x0, x1, x2

        def set_state(x):
            nonlocal x0, x1, x2
            x0, x1, x2 = x

        def new_stepper(dt, substeps):
            m00, m01, m02, m10, m11, m12, m20, m21, m22, n0, n1, n2 = self._coeffs(dt)
            # without backlash, a step on whose substeps the Karnopp test
            # agrees is one lifted map (for one substep, the substep's own,
            # entry for entry)
            lifted = play is None
            p00, p01, p02, p10, p11, p12, p20, p21, p22, g0, g1, g2 = (
                self._lifted(dt, substeps)[0] if lifted else (math.nan,) * 12)
            acy, vdead, floor, d0, d1, d2, ds = self.held_bound(dt, substeps)
            substep_range = range(substeps)

            def advance(i_m):
                nonlocal x0, x1, x2
                u = float(i_m)
                # the input half of the Karnopp test is constant for a held input
                stuck_input = stiction and abs(u) < brk
                if stuck_input and lifted:
                    # decide the rate half for every substep before stepping:
                    # substep 0's answer picks the input; the rate |cy x1|
                    # after any substep of it lies within b of v, so the call
                    # is lifted when v -+ b is on substep 0's side (a NaN or
                    # inf never is), and stepped otherwise
                    v = abs(cy * x1)
                    zeroed = v < vdead
                    ue = 0.0 if zeroed else u
                    b = acy * (d0 * abs(x0) + d1 * abs(x1) + d2 * abs(x2) + ds * abs(ue))
                    b += 1e-9 * (v + b) + floor
                    if (v + b < vdead) if zeroed else (v - b >= vdead):
                        u, stuck_input = ue, False
                if lifted and not stuck_input:
                    x0, x1, x2 = (
                        p00 * x0 + p01 * x1 + p02 * x2 + g0 * u,
                        p10 * x0 + p11 * x1 + p12 * x2 + g1 * u,
                        p20 * x0 + p21 * x1 + p22 * x2 + g2 * u,
                    )
                    return cy * x0
                y = cy * x0
                for _ in substep_range:
                    if stuck_input and abs(cy * x1) < vdead:
                        ue = 0.0
                    else:
                        ue = u
                    x0, x1, x2 = (
                        m00 * x0 + m01 * x1 + m02 * x2 + n0 * ue,
                        m10 * x0 + m11 * x1 + m12 * x2 + n1 * ue,
                        m20 * x0 + m21 * x1 + m22 * x2 + n2 * ue,
                    )
                    if play is not None:
                        y = play.step(cy * x0)
                return cy * x0 if play is None else y

            return advance

        return state, set_state, new_stepper

    def stepper(self, dt: float, substeps: int) -> Callable[[float], float]:
        """Return ``advance(i_m) -> f_o``: ``substeps`` equal RK4 substeps of
        ``dt`` with the input held, on this plant's one state.

        Without backlash, a call is one cached linear map (``_lifted``; for
        one substep it equals the substep's own map entry for entry) when
        every substep sees one effective input: always for an input at or
        above the stiction breakaway (or without stiction), and below it
        when one bound decides, from the state before the call, that the
        Karnopp rate test zeroes the input on every substep or on none.
        Every substep's rate lies within ``b = |c_y| (d0 |x0| + d1 |x1| + d2
        |x2| + ds |u_e|)`` of ``v = |c_y x1|`` (``_lifted``'s ``bound``), ``b``
        widened by ``1e-9 (v + b)`` for rounding and by a floor for
        underflow, so ``v + b`` below the dead-band (substep 0 zeroed) or
        ``v - b`` at or above it (not zeroed) lifts the call.  Every other
        call, and every held call of a plant with ``|c_y| < 1``, where a rate
        can overflow while ``v + b`` stays finite, is stepped: its substeps
        one by one, each applying the Karnopp test and the backlash play.
        The step returns the transmitted force after the last substep.
        Steppers are built once per ``(dt, substeps)`` and cached.  A ``dt``
        that is not positive and finite, or ``substeps`` that is not a
        positive integer, raises ``ValueError`` before anything is cached or
        stepped.
        """
        key = (dt, substeps)
        step = self._steppers.get(key)
        if step is None:
            if not (math.isfinite(dt) and dt > 0.0):
                raise ValueError("substep must be positive and finite")
            if not isinstance(substeps, Integral) or substeps < 1:
                raise ValueError("substeps must be a positive integer")
            step = self._steppers[key] = self._new_stepper(dt, substeps)
        return step

    def advance(self, i_m: float, dt: float, substeps: int) -> float:
        """Advance ``substeps`` equal RK4 substeps with held input (see ``stepper``).

        Returns the transmitted force after the last substep.
        """
        return (self._steppers.get((dt, substeps)) or self.stepper(dt, substeps))(i_m)


def _pendulum_stepper(dt, m, l1, l2, g, c):
    """RK4 step of m l1^2 theta'' = l2 f - m g l1 sin(theta) - c theta' over ``dt``.

    Returns ``rk4(theta, omega, f_0, f_mid, f_1) -> (theta, omega)``, which
    samples the actuator force at the stage times.
    """
    inertia = m * l1 * l1
    mgl = m * g * l1
    h = 0.5 * dt
    sixth = dt / 6.0
    sin = math.sin

    def rk4(theta, omega, f_0, f_mid, f_1):
        # stage k has angle th_k, rate k_kt and acceleration k_kw
        k1w = (l2 * f_0 - mgl * sin(theta) - c * omega) / inertia
        th2 = theta + h * omega
        k2t = omega + h * k1w
        k2w = (l2 * f_mid - mgl * sin(th2) - c * k2t) / inertia
        th3 = theta + h * k2t
        k3t = omega + h * k2w
        k3w = (l2 * f_mid - mgl * sin(th3) - c * k3t) / inertia
        th4 = theta + dt * k3t
        k4t = omega + dt * k3w
        k4w = (l2 * f_1 - mgl * sin(th4) - c * k4t) / inertia
        return (theta + sixth * (omega + 2.0 * k2t + 2.0 * k3t + k4t),
                omega + sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w))

    return rk4


def free_oscillation_frequency(theta0: float = 0.1, duration: float = 30.0,
                               dt: float = 5e-5, m: float = 10.0, l1: float = 0.33,
                               g: float = 9.81, damping: float = 0.0) -> float:
    """Oscillation frequency of the undriven pendulum, from zero crossings.

    Crossing times are interpolated linearly between samples; the result is
    (crossings - 1) / (2 * span).
    """
    rk4 = _pendulum_stepper(dt, m, l1, 1.0, g, damping)
    th, w = float(theta0), 0.0
    crossings = []
    t = 0.0
    n = int(round(duration / dt))
    for _ in range(n):
        th_next, w_next = rk4(th, w, 0.0, 0.0, 0.0)
        if th != 0.0 and (th_next == 0.0 or (th > 0.0) != (th_next > 0.0)):
            crossings.append(t + dt * th / (th - th_next))
        th, w = th_next, w_next
        t += dt
    if len(crossings) < 3:
        raise ValueError("not enough zero crossings; extend the duration")
    return (len(crossings) - 1) / (2.0 * (crossings[-1] - crossings[0]))


@dataclass
class PlantConfig:
    """Buildable description of the simulated actuator (keeps scenarios re-runnable).

    Its fields are ``LseaPlant``'s parameters and the config's ``[plant]``
    keys.
    """

    den_factors: tuple = (1.0, 1.0, 1.0, 1.0)
    gain_factor: float = 1.0
    stiction_breakaway: float = 0.0
    stiction_velocity_deadband: float = 0.5
    backlash: float = 0.0

    def build(self) -> LseaPlant:
        return LseaPlant(**vars(self))


@dataclass
class PendulumConfig:
    """Weighted-pendulum parameters and initial state for a scenario.

    tau = l2 * f drives  m l1^2 theta'' = tau - m g l1 sin(theta) - c theta',
    and the actuator sees q_a = l2 * theta (small-angle testbed geometry).
    Every field must be finite and ``m``, ``l1``, ``l2`` positive; a field
    that is not raises ``ValueError`` naming it.
    """

    m: float = 10.0
    l1: float = 0.33
    l2: float = 0.07
    g: float = 9.81
    damping: float = 0.0
    theta0: float = 0.0
    theta_dot0: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if min(self.m, self.l1, self.l2) <= 0.0:
            raise ValueError("m, l1, l2 must be positive")


@dataclass
class ReferenceSpec:
    """Reference signal for a scenario; each kind reads only its own fields.

    - ``force_step``: desired force ``step_value`` from ``step_time`` on
      (the default holds zero force).
    - ``current_chirp``: open-loop / DOB-loop current excitation, an
      exponential sweep of ``amplitude`` from ``f_start`` to ``f_end`` over
      the scenario, generated at the controller rate.
    - ``position_chirp``: joint-space linear chirp ``amplitude *
      sin(omega_o t^2)`` through the full controller, generated at the
      reference rate.

    ``SimScenario.validate`` checks the fields against the generating rate.
    """

    kind: str = "force_step"
    amplitude: float = 1.0
    omega_o: float | None = None
    f_start: float | None = None
    f_end: float | None = None
    step_value: float = 0.0
    step_time: float = 0.0

    def __post_init__(self):
        kinds = ("force_step", "current_chirp", "position_chirp")
        if self.kind not in kinds:
            raise ValueError(f"reference kind must be one of {kinds}")


# the numeric ReferenceSpec fields; the chirp ones may be None (unset)
_REFERENCE_NUMBERS = ("amplitude", "omega_o", "f_start", "f_end", "step_value", "step_time")


def _reject(name: str, message: str, cls: type = ValueError) -> ValueError:
    """A ``cls`` error whose ``field`` names the ``ReferenceSpec`` field it rejects."""
    exc = cls(message)
    exc.field = name
    return exc


@dataclass
class SimScenario:
    """Configuration of one two-rate controller/plant run."""

    reference: ReferenceSpec
    duration_s: float
    plant: PlantConfig = field(default_factory=PlantConfig)
    pendulum: PendulumConfig | None = None
    pid: PidConfig = field(default_factory=lambda: PidConfig(2.0, 4.0, 0.0, 3.5e-3))
    impedance: ImpedanceConfig = field(default_factory=lambda: ImpedanceConfig(40.0, 5.0))
    k_ff: float = 3.2e-3  # feedforward current per unit desired force
    omega_c: float = 2.0 * math.pi * 25.0
    gamma: float = 1.0
    controller_hz: int = 1000
    reference_hz: int = 200
    plant_hz: int = 20000
    estimate_backlash_m: float = 0.0

    def validate(self) -> None:
        """Check the duration, the rates and the reference.

        ``duration_s`` must be non-negative and finite, each rate a
        positive ``Integral`` (an integral float is rejected), and
        ``k_ff``, ``omega_c``, ``gamma``, ``estimate_backlash_m`` and each
        numeric reference field that is set finite, whatever the kind
        reads, and ``estimate_backlash_m`` non-negative; the error names the
        field.

        A chirp's frequency must stay below the Nyquist rate of its
        generating rate: a current chirp's ``f_start``, then its ``f_end``,
        and a position chirp's at the end of the sweep.  Then a current
        chirp's ``f_end / f_start`` must be positive and below ``2**1022``:
        a ratio that overflows or underflows gives no sweep, and the bound
        keeps ``exponential_chirp`` on libm's bits.

        This is the one check of a reference.  Raises ``ValueError``, or
        ``NyquistError`` for a chirp that reaches the Nyquist rate; the
        message states the offending value and the bound.  A rejection of
        a chirp field carries its name in ``field`` (``f_start``, ``f_end``
        or ``omega_o``; the smaller endpoint for the sweep ratio), which
        ``experiments`` maps to the config key.
        """
        if not 0.0 <= self.duration_s < math.inf:
            raise ValueError("duration_s must be non-negative and finite")
        for name, hz in (("controller_hz", self.controller_hz),
                         ("reference_hz", self.reference_hz),
                         ("plant_hz", self.plant_hz)):
            if not isinstance(hz, Integral) or hz <= 0:
                raise ValueError(f"{name} must be a positive integer")
        if self.plant_hz % self.controller_hz != 0:
            raise ValueError("plant rate must be an integer multiple of the controller rate")
        if self.controller_hz % self.reference_hz != 0:
            raise ValueError("controller rate must be an integer multiple of the reference rate")
        ref = self.reference
        numbers = {"k_ff": self.k_ff, "omega_c": self.omega_c, "gamma": self.gamma,
                   "estimate_backlash_m": self.estimate_backlash_m,
                   **{key: getattr(ref, key) for key in _REFERENCE_NUMBERS}}
        for name, value in numbers.items():
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.estimate_backlash_m < 0.0:
            raise ValueError("estimate_backlash_m must be non-negative")
        if ref.kind == "force_step":
            return
        if ref.amplitude <= 0.0 or self.duration_s <= 0.0:
            raise ValueError("a chirp needs a positive amplitude and duration_s")
        # current chirps are generated at the controller rate; position
        # references are communicated at the reference rate
        rate = self.controller_hz if ref.kind == "current_chirp" else self.reference_hz
        nyquist = 0.5 / (1.0 / rate)
        bound = f"at or above the Nyquist rate ({nyquist:g} Hz) of its {rate} Hz samples"
        if ref.kind == "current_chirp":
            for name, hz in (("f_start", ref.f_start), ("f_end", ref.f_end)):
                if hz is None or hz <= 0.0:
                    raise _reject(name, "current_chirp needs positive f_start and f_end")
                if hz >= nyquist:
                    raise _reject(name, f"{name} reaches {hz:.12g} Hz, {bound}", NyquistError)
            ratio = ref.f_end / ref.f_start
            if not 0.0 < ratio < _SWEEP_RATIO_LIMIT:
                name = "f_start" if ref.f_start < ref.f_end else "f_end"
                raise _reject(name, f"{name} = {getattr(ref, name):.12g} Hz gives f_end / "
                              f"f_start = {ratio:g}, not a positive ratio below 2**1022")
        else:
            if ref.omega_o is None or ref.omega_o <= 0.0:
                raise _reject("omega_o", "position_chirp needs a positive sweep rate omega_o")
            f_end = linear_chirp_freq_hz(ref.omega_o, self.duration_s)
            if f_end >= nyquist:
                raise _reject("omega_o", f"omega_o = {ref.omega_o:.12g} sweeps to {f_end:g} Hz "
                              f"by duration_s, {bound}", NyquistError)
            if self.pendulum is None:
                raise ValueError("position_chirp needs the pendulum enabled")


_LOG_BLOCK_TICKS = 1024  # ticks recorded before one copy into the log columns
# the columns a tick records, in the order it records them: the loop's
# outputs, and with the pendulum also the desired force and the pendulum
# state; t, the held reference (_REF_COLUMNS, one value per reference tick),
# a force step's f_d and q_hat_a_j = l2 * theta are filled outside the tick
_TICK_COLUMNS = ("f_o", "i_m", "d_hat")
_PENDULUM_TICK_COLUMNS = ("f_d", "f_o", "i_m", "d_hat", "theta", "theta_dot", "q_hat_a_m")
_REF_COLUMNS = ("ref_pos", "q_bar_a_d", "qdot_bar_a_d")


@dataclass
class SimLog:
    """Uniformly sampled scenario record (one row per controller step).

    A column the scenario never writes is a read-only zero-stride view of
    ``+0.0``; a caller who wants to write into it copies it first.
    """

    t: np.ndarray
    ref_pos: np.ndarray
    q_bar_a_d: np.ndarray
    qdot_bar_a_d: np.ndarray
    f_d: np.ndarray
    f_o: np.ndarray
    i_m: np.ndarray
    d_hat: np.ndarray
    theta: np.ndarray
    theta_dot: np.ndarray
    q_hat_a_m: np.ndarray
    q_hat_a_j: np.ndarray

    def __len__(self) -> int:
        return self.t.size

    def column(self, name: str) -> np.ndarray:
        return getattr(self, name)

    def to_csv(self, path) -> None:
        write_csv(path, LOG_COLUMNS, [self.column(name) for name in LOG_COLUMNS])


# the CSV header, in SimLog's field order
LOG_COLUMNS = tuple(column.name for column in fields(SimLog))


def _chirp_loop(plant, dob, dt_sub, n_sub):
    """The tick of a current chirp around the observer as one linear map
    ``(A, b, C)`` for ``lti.block_scan``, in sheared coordinates, and that
    shear.

    The tick's state is the plant's ``x``, the observer's DF2T state ``z``
    and its ``u_prev``; its input is the chirp ``u_c``; it measures ``f =
    c_y x0`` and estimates ``d = p0 f - q0 u_prev + z0``, commands ``i_m =
    u_c - gamma d``, and the plant call is ``realization``'s map ``x+ = P x
    + G i_m``.  With ``(p0, p1, p2, p3)`` the observer's ``N1``, the state
    is ``(x0, x1, x2, v0, v1, v2, u_prev)`` with ``v = z + s f`` for the
    shear ``s = (p0, -(p2 + p3), -p3)``: each DF2T state taken relative to
    the large part the force drives, which the raw states cancel between
    them, so ``d = v0 - q0 u_prev`` and every entry of the map multiplies a
    small increment.  ``C`` holds the rows of ``f`` and ``d``, and the tick
    has no feedthrough.  Returns ``(A, b, C, s)``.
    """
    P, G, cy = plant.realization(dt_sub, n_sub)
    (p0, p1, p2, p3), (q0, q1, q2, q3), (_, a1, a2, a3) = dob.coefficients
    gamma = dob.gamma
    s2 = p2 + p3
    gf = cy * G[0]  # f+ per unit command
    dp = [P[0][0] - 1.0, P[0][1], P[0][2]]  # (f+ - f) / c_y per unit x
    # d = v0 - q0 u_prev, and f+ - f = c_y dp x + gf i_m with i_m = u_c - gamma d
    A = [[*P[i], -gamma * G[i], 0.0, 0.0, gamma * q0 * G[i]] for i in range(3)]
    A.append([cy * (p0 * dp[0] + (p0 + p1 + s2)), cy * p0 * dp[1], cy * p0 * dp[2],
              -a1 - gamma * p0 * gf, 1.0, 0.0, a1 * q0 - q1 + gamma * q0 * p0 * gf])
    # v1+ = v2 + s2 (f - f+) - q2 u_prev - a2 d and v2+ = p3 (f - f+) - q3 u_prev - a3 d
    for p, a, q, v2 in ((s2, a2, q2, 1.0), (p3, a3, q3, 0.0)):
        A.append([-p * cy * dp[0], -p * cy * dp[1], -p * cy * dp[2],
                  -a + gamma * p * gf, 0.0, v2, a * q0 - q - gamma * p * q0 * gf])
    A.append([0.0, 0.0, 0.0, -gamma, 0.0, 0.0, gamma * q0])
    shear = (p0, -s2, -p3)
    b = [*G, *(s * gf for s in shear), 1.0]
    C = [[cy, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, -q0]]
    return A, b, C, shear


def _keeps_input(bound, margin: float, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Which held calls keep their input on every substep, by the
    stepper's own test on ``LseaPlant.held_bound``'s constants ``bound``,
    evaluated elementwise on the states ``x`` (rows ``x0, x1, x2``) and the
    inputs ``u``.

    A call is kept when ``v - b`` is at or above the dead-band, with ``v =
    |c_y x1|`` and ``b = |c_y| (d0 |x0| + d1 |x1| + d2 |x2| + ds |u|)``
    plus ``margin``, widened by ``1e-9 (v + b)`` and the underflow floor;
    with ``margin = 0`` each product and sum is the stepper's, so the
    answer is its answer bit for bit.  A NaN bound keeps nothing.
    """
    acy, vdead, floor, d0, d1, d2, ds = bound
    x0, x1, x2 = np.abs(x)
    v = acy * x1
    b = acy * (d0 * x0 + d1 * x1 + d2 * x2 + ds * np.abs(u)) + margin
    b += 1e-9 * (v + b) + floor
    return v - b >= vdead


def _run_open_loop_chirp(log, chirp, plant, dt_sub, n_sub, dob) -> bool:
    """Fill a current chirp's ``i_m``, ``f_o`` and ``d_hat`` columns
    without the tick loop, at any ``gamma``, on the ``t`` column that
    ``run_scenario`` has filled; ``False``, for the tick loop to run the
    scenario, on a plant with backlash (before anything is sampled), when
    the scan gives up, and on a non-finite ``f_o``, ``d_hat`` or ``i_m``.

    Every plant call whose command is not below ``plant.held_below`` is
    ``realization``'s map, so outside the held calls the tick is the
    linear map ``(A, b, C)`` of ``_chirp_loop``.  The chirp ``u_c`` is
    sampled on ``t`` into the ``i_m`` column.  One ``lti.block_scan`` of
    that map over the whole record, driven by ``u_c``, gives the linear
    ``f_o`` and ``d_hat`` and an ``lti.Scan``, whose ``state`` is the
    scanned state at any tick and whose ``free`` is the free response of a
    state.  A linear plant has no held call, and it asks the scan nothing.
    Otherwise the held calls are found in order, since at ``gamma > 0`` the
    command depends on the estimate, in one loop over chunks of the scan's
    ``horizon`` ticks.  ``delta`` is the steppers' state less the scanned
    one, zero at tick 0; from the chunk's first tick ``k``, ``f_o[k + j]``
    and ``d_hat[k + j]`` are the scan plus the free response ``C A^j
    delta``, and the command is ``u_c - gamma d_hat``.  The chunk's held
    calls (a command below ``held_below``) are decided in bulk:
    ``_keeps_input`` applies the stepper's own bound
    (``LseaPlant.held_bound``) to the plant rows of their scanned states
    plus ``A^j delta``, widened by 1e-9 of ``v + b`` at the peak of the
    segment starts, which covers the scan's
    rounding against a stepped state.  A held call that keeps its input on
    every substep is the linear map the scan and the free response already
    apply.  The chunk ends at the first held call the bound does not decide
    so; unless the steppers already hold that tick, the scanned state plus
    ``A^j delta`` is loaded into the plant's and the observer's own
    steppers (``set_state``, the observer's ``z = v - s f`` with
    ``_chirp_loop``'s shear ``s``), which step until a command is at or
    above ``held_below``, that call included, and record ``f_o`` and
    ``d_hat``; their state (``state()``, sheared) less the scanned one is
    the next ``delta``, and the next chunk starts there.  After the loop
    the blend ``i_m = u_c - gamma d_hat`` replaces the chirp, the product
    then the difference, as the observer's step forms it, so a stepped
    command is the one the observer gave.  Every sum runs in a fixed order,
    with no BLAS call.
    """
    below = plant.held_below
    if below == math.inf:
        return False
    times, i_m, f_o, d_hat = log["t"], log["i_m"], log["f_o"], log["d_hat"]
    n = i_m.size
    blocks = [slice(k0, k0 + _LOG_BLOCK_TICKS) for k0 in range(0, n, _LOG_BLOCK_TICKS)]
    u_c = i_m  # the chirp, until the blend replaces it after the loop
    for block in blocks:
        u_c[block] = chirp(times[block])
    A, b, C, (sh0, sh1, sh2) = _chirp_loop(plant, dob, dt_sub, n_sub)
    # f = c_y x0 and d = v0 - q0 u_prev; v = z + sh f, with sh the shear
    gamma, cy = dob.gamma, C[0][0]
    scan = block_scan(A, b, C, u_c, [f_o, d_hat])
    if scan is None:
        return False
    # the chunks start at tick k; the steppers hold the scanned state plus
    # delta at tick s; with no held call the loop, and every query of the
    # scan, is skipped
    k, s = (n if below == 0.0 else 0), 0
    # a held call is decided from its scanned state, so the bound is
    # widened by 1e-9 of v + b taken at the peaks of the segment starts'
    # x1, x0, x1, x2 and command u_prev, which covers the scan's rounding
    bound = plant.held_bound(dt_sub, n_sub)
    peak = np.max(np.abs(scan.starts[:, [1, 0, 1, 2, 6]]), axis=0, initial=0.0).tolist()
    margin = 1e-9 * bound[0] * sum(w * p for w, p in zip((1.0, *bound[3:]), peak))
    step, advance = dob.stepper(), plant.stepper(dt_sub, n_sub)
    delta, f = np.zeros(len(b)), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n:
            # ticks k ... from the scan plus delta's free response, up to
            # the first held tick the bound does not decide, a chunk at a time
            j = min(n - k, scan.horizon)
            free = scan.free(delta, slice(j))
            d = d_hat[k:k + j] + free[1]
            command = u_c[k:k + j] - gamma * d
            held = np.flatnonzero(np.abs(command) < below)
            m = j
            if held.size:
                # the first held tick the bound does not decide as keeping
                # its input, from the plant rows x0, x1, x2 of the held
                # ticks' scanned states plus delta's free response
                x = scan.state(k + held, slice(3)) + scan.free(delta, held, slice(3))
                kept = _keeps_input(bound, margin, x, command[held])
                m = j if kept.all() else int(held[kept.argmin()])
            f_o[k:k + m] += free[0, :m]
            d_hat[k:k + m] = d[:m]
            delta = scan.free(delta, m, slice(None))
            k += m
            if m == j:
                continue
            if k > s:
                x = (scan.state(k) + delta).tolist()
                f = cy * x[0]
                plant.set_state(x[:3])
                dob.set_state((x[3] - sh0 * f, x[4] - sh1 * f, x[5] - sh2 * f, x[6]))
            # step until a call that is not held, that call included, a
            # chunk at a time
            u = 0.0
            while k < n and abs(u) < below:
                values = []
                for u in u_c[k:k + scan.horizon].tolist():
                    u, d = step(u, f)
                    values += (f, d)
                    f = advance(u)
                    if not abs(u) < below:
                        break
                k0, k = k, k + len(values) // 2
                f_o[k0:k], d_hat[k0:k] = np.fromiter(values, float).reshape(-1, 2).T
            if not math.isfinite(u):
                return False
            if k < n:
                z0, z1, z2, u = dob.state()
                delta = np.array((*plant.state(), z0 + sh0 * f, z1 + sh1 * f, z2 + sh2 * f, u))
                delta -= scan.state(k)
                s = k
        # the blend, as the observer's step forms it
        for block in blocks:
            i_m[block] -= gamma * d_hat[block]
    return all(bool(np.isfinite(column).all()) for column in (f_o, d_hat, i_m))


def run_scenario(sc: SimScenario) -> SimLog:
    """Run the two-rate loop and return the log.

    Measurements are captured at the start of each controller step (so the
    controller sees the plant state produced by the previous command), the
    command is computed and logged, then the plant (and pendulum, when
    enabled) advance through the substeps with the command held: one plant
    step per controller step, or, with the pendulum, two plant steps of
    ``n_sub`` = plant_hz / controller_hz half-substeps each and one
    pendulum RK4 step of the whole controller step ``T``, which sees the
    force at its start, midpoint and end.  RK4's stability limit thus
    applies to a step of ``T``: the shipped pendulum's linearized
    eigenvalues have ``|lambda| T`` of about 0.0055 at 1 kHz, far inside
    it (about 2.8 on the imaginary axis).  Each block's step is
    a closure its factory builds once per scenario (``LseaPlant.stepper``,
    ``ForceController.stepper`` or ``DisturbanceObserver.stepper``, and the
    pendulum's RK4), so a tick calls no method of a block.  Every per-tick
    value is a Python float, not a numpy scalar, so it overflows to inf
    without a warning.  A tick records only what it computes: ``f_o``,
    ``i_m`` and ``d_hat``, and with the pendulum also ``f_d``, ``theta``,
    ``theta_dot`` and ``q_hat_a_m``, into a flat list that is copied into
    those columns every ``_LOG_BLOCK_TICKS`` ticks; a position chirp's
    three reference values are recorded on reference ticks only.  Numpy
    fills ``t = k * T`` once, a block at a time, before either path runs.
    After the loop, numpy fills a force step's ``f_d`` (without the
    pendulum), ``q_hat_a_j = l2 * theta`` and the reference columns, each
    held between reference ticks, in place and without a log-sized
    temporary.  Each column the scenario writes is its own ``np.zeros(n)``
    array (numpy advises huge pages for an allocation of 4 MiB or more, so
    one ``(12, n)`` array would make every row resident), and every other
    column is a read-only zero-stride
    ``+0.0``, which the CSV writer reads as one value.  Re-running an
    identical scenario yields bit-identical output.  A non-finite pendulum
    state, plant output, desired force or current command raises
    ``SimulationFault`` with the step time.  The block steppers check
    nothing: the pendulum state and the plant output are checked before
    the controller call, the desired force and the command after it.

    A current chirp with no pendulum, at any ``gamma``, skips the tick loop
    on a plant without backlash (``_run_open_loop_chirp``): one scan of the
    loop's linear map, whose ``lti.Scan`` gives the scanned state at any
    tick and the free response of a state.  Without stiction that is all.
    With it, one loop over the scan's chunks carries the steppers' state
    less the scanned one from tick 0 and decides the held calls in bulk
    from the scanned state by the stepper's own bound, widened to cover the
    scan's rounding; only from a held call that the bound does not decide
    as keeping its input do the plant's and the observer's own steppers
    step, to the end of that window of held calls.  Either way ``i_m`` is
    formed once, after the loop: the chirp less ``gamma`` times ``d_hat``.
    ``t`` is the tick loop's own, and ``i_m`` equals the tick loop's bit
    for bit at ``gamma = 0``; the scanned columns differ from it in
    rounding only: ``f_o`` by at most 1e-13 of its peak at ``gamma = 0``
    and 1e-10 at ``gamma = 1``, ``d_hat`` by 1e-9 of its peak, and ``i_m``
    at ``gamma > 0`` by 1e-9 of ``d_hat``'s.  The block path declines a
    plant with backlash, every call of which is held, a scan that gives up
    (on a non-finite value or one of 1e300 or more in magnitude), and a
    non-finite ``f_o``, ``d_hat`` or ``i_m``; the
    scenario then runs the tick loop on a fresh plant and observer, so
    every ``SimulationFault`` keeps its signal and time.  Every other
    scenario runs the tick loop, sampling the chirp a block of ticks at a
    time.
    """
    sc.validate()
    T = 1.0 / sc.controller_hz
    n_steps = int(round(sc.duration_s * sc.controller_hz))
    n_sub = sc.plant_hz // sc.controller_hz
    dt_sub = 1.0 / sc.plant_hz
    ref_div = sc.controller_hz // sc.reference_hz
    ref = sc.reference
    position_chirp = ref.kind == "position_chirp"
    force_step = ref.kind == "force_step"

    plant = sc.plant.build()
    pend = sc.pendulum
    if pend is not None:
        theta, theta_dot = pend.theta0, pend.theta_dot0
        l2 = pend.l2
        pmap = PendulumMap(l2)
        pend_rk4 = _pendulum_stepper(T, pend.m, pend.l1, l2, pend.g, pend.damping)
        # the feedforward's inertia and gravity torque, formed as the RK4 forms them
        inertia, mgl = pend.m * pend.l1 * pend.l1, pend.m * pend.g * pend.l1
        # n_sub half-substeps: half a tick per call, two calls a tick
        advance = plant.stepper(0.5 * dt_sub, n_sub)
    else:
        advance = plant.stepper(dt_sub, n_sub)
    est_play = BacklashPlay(sc.estimate_backlash_m) if sc.estimate_backlash_m > 0.0 else None

    if position_chirp or force_step:
        fc_step = build_force_controller(sc.pid, sc.omega_c, sc.gamma, sc.k_ff, T).stepper()
    else:
        dob = DisturbanceObserver(sc.omega_c, sc.gamma, T)
        dob_step = dob.stepper()
        chirp = exponential_chirp(ref.amplitude, ref.f_start, ref.f_end, sc.duration_s)

    # each column this scenario writes is its own np.zeros(n) (see the
    # docstring), and every other one a read-only zero-stride +0.0
    tick_columns = _TICK_COLUMNS if pend is None else _PENDULUM_TICK_COLUMNS
    written = {"t", *tick_columns}
    if pend is not None:
        written.add("q_hat_a_j")
    elif force_step:
        written.add("f_d")
    if position_chirp:
        written.update(_REF_COLUMNS)
    log = {name: np.zeros(n_steps) if name in written else np.broadcast_to(0.0, n_steps)
           for name in LOG_COLUMNS}
    times = log["t"]
    for k0 in range(0, n_steps, _LOG_BLOCK_TICKS):
        k1 = min(k0 + _LOG_BLOCK_TICKS, n_steps)
        np.multiply(np.arange(k0, k1), T, out=times[k0:k1])
    recorded = [log[name] for name in tick_columns]
    width = len(recorded)
    block: list[float] = []
    record = block.extend
    refs: list[float] = []
    record_ref = refs.extend
    f_o = 0.0
    q_a_d = qdot_a_d = f_ff = 0.0

    # a current chirp without the pendulum is the observer loop alone
    if ref.kind == "current_chirp" and pend is None:
        if _run_open_loop_chirp(log, chirp, plant, dt_sub, n_sub, dob):
            return SimLog(**log)
        # the tick loop runs what the block path declines, from a fresh
        # plant and observer, and names any fault at its time
        advance = sc.plant.build().stepper(dt_sub, n_sub)
        dob_step = DisturbanceObserver(sc.omega_c, sc.gamma, T).stepper()

    for k0 in range(0, n_steps, _LOG_BLOCK_TICKS):
        k1 = min(k0 + _LOG_BLOCK_TICKS, n_steps)
        if not (position_chirp or force_step):
            u_c = chirp(times[k0:k1]).tolist()
        for k in range(k0, k1):
            t = k * T
            if pend is not None:
                if not math.isfinite(theta):
                    raise SimulationFault(t, "theta")
                if not math.isfinite(theta_dot):
                    raise SimulationFault(t, "theta_dot")
                q_hat_a_j = l2 * theta
                qdot_hat_a = l2 * theta_dot
                q_hat_a_m = est_play.step(q_hat_a_j) if est_play is not None else q_hat_a_j
            if not math.isfinite(f_o):
                raise SimulationFault(t, "f_o")

            if position_chirp:
                if k % ref_div == 0:
                    qj_d, qjdot_d, qjddot_d = linear_chirp_point(
                        ref.amplitude, ref.omega_o, t)
                    tau_ff = inertia * qjddot_d + mgl * math.sin(qj_d)
                    q_a_d, qdot_a_d = actuator_setpoints(pmap, qj_d, qjdot_d, theta)
                    f_ff = ff_force(pmap, theta, tau_ff)
                    record_ref((qj_d, q_a_d, qdot_a_d))
                f_d = impedance_step(sc.impedance, q_a_d, qdot_a_d,
                                     q_hat_a_m, qdot_hat_a, f_ff)
                i_m, d_hat = fc_step(f_d, f_o)
            elif force_step:
                f_d = ref.step_value if t >= ref.step_time else 0.0
                i_m, d_hat = fc_step(f_d, f_o)
            else:  # current_chirp with the pendulum, or one the block path declined
                i_m, d_hat = dob_step(u_c[k - k0], f_o)
                f_d = 0.0

            if not math.isfinite(f_d):
                raise SimulationFault(t, "f_d")
            if not math.isfinite(i_m):
                raise SimulationFault(t, "i_m" if math.isfinite(d_hat) else "d_hat")

            if pend is not None:
                record((f_d, f_o, i_m, d_hat, theta, theta_dot, q_hat_a_m))
                f_h = advance(i_m)
                f_1 = advance(i_m)
                try:
                    theta, theta_dot = pend_rk4(theta, theta_dot, f_o, f_h, f_1)
                except ValueError:  # math.sin of an infinite stage angle
                    raise SimulationFault(t, "theta") from None
                f_o = f_1
            else:
                record((f_o, i_m, d_hat))
                f_o = advance(i_m)
        ticks = np.fromiter(block, float, (k1 - k0) * width).reshape(-1, width)
        for j, column in enumerate(recorded):
            column[k0:k1] = ticks[:, j]
        block.clear()

    # the other columns a scenario writes, each in place, without a
    # log-sized temporary
    if pend is not None:
        np.multiply(l2, log["theta"], out=log["q_hat_a_j"])
    elif force_step:
        # t is nondecreasing, so t >= step_time from one index on
        log["f_d"][np.searchsorted(times, ref.step_time):] = ref.step_value
    if position_chirp:
        held = np.fromiter(refs, float, len(refs)).reshape(-1, 3)
        whole = n_steps // ref_div  # reference ticks held for all ref_div ticks
        for j, name in enumerate(_REF_COLUMNS):
            column = log[name]
            column[:whole * ref_div].reshape(whole, ref_div)[:] = held[:whole, j, None]
            column[whole * ref_div:] = held[whole:, j]

    return SimLog(**log)
