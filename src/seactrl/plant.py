"""Deterministic simulator of the elastic actuator testbed and pendulum.

The actuator is the identified third-order current-to-force model in a
controllable-canonical realization, advanced with RK4 (for a linear system
with held input one RK4 substep is exactly a constant matrix recurrence,
which is precomputed per substep size).  ``LseaPlant.stepper(dt, n)``
builds, once per substep size and count, a closure that advances ``n``
substeps with the input held; every stepper of a plant, and
``LseaPlant.advance``, steps the one state that lives in the plant's
closure scope.  A held input that stiction cannot act on (at or above the
breakaway, no backlash) reaches every substep unchanged, so such a step is
one cached linear map, the substep recurrence composed in Python floats;
every other step runs its substeps one by one.  Both maps hold Python
floats, so the plant output, and from it the observer, PID and pendulum
state, stays a Python float rather than a numpy scalar.  Injectable
perturbations stand in
for everything the disturbance observer must absorb: multiplicative
denominator/gain perturbation (structural-elasticity emulation), a Karnopp
stiction dead-band on the effective input, and a hysteretic backlash play.

The pendulum is the nonlinear 1-DoF load; scenarios couple it to the
actuator through the small-angle testbed geometry q_a = l2 * theta and
tau = l2 * f, the only coupling modelled.  The coupling is one-way within
a controller step: the pendulum reaches the controller only through the
next step's measurement.  So each controller step runs the plant in four
steps of half-substeps, a quarter controller step each, and the pendulum
in two RK4 steps of half a controller step (``_pendulum_stepper``), each
seeing the force at its start, midpoint and end; the substep ratio must be
even on this path.  ``run_scenario`` executes the two-rate loop (reference rate /
controller rate / plant substep rate) and returns a uniformly sampled log
of 12 columns that serializes to CSV bit-reproducibly.  A tick records
only the values it computes (the loop's outputs, and with the pendulum the
desired force and the pendulum state); the time, the held reference and
the other derived columns are filled with numpy after the loop.  A
non-finite signal stops the loop with a ``SimulationFault`` that names the
signal and the time.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .control import (
    DobConfig,
    ForceController,
    ImpedanceConfig,
    PidConfig,
    build_force_controller,
    build_observer,
    impedance_step,
)
from .kinematics import PendulumMap, actuator_setpoints, ff_force
from .lti import ContinuousTransferFunction, NyquistError
from .sysid import exponential_chirp, linear_chirp_freq_hz, linear_chirp_point, write_csv

__all__ = [
    "SimulationFault",
    "nominal_lsea_tf",
    "BacklashPlay",
    "LseaPlant",
    "pendulum_step",
    "free_oscillation_frequency",
    "PlantConfig",
    "PendulumConfig",
    "ReferenceSpec",
    "SimScenario",
    "SimLog",
    "run_scenario",
]

NOMINAL_NUM = (208.8,)
NOMINAL_DEN = (0.01, 1.13, 23.04, 987.0)


class SimulationFault(RuntimeError):
    """A scenario produced a non-finite value.

    ``time`` is the start of the controller step it happened in and ``what``
    names the signal: ``theta``/``theta_dot`` (pendulum state), ``f_o``
    (plant output), ``f_d`` (the desired force the controller rejected) or
    ``i_m`` (the current command).
    """

    def __init__(self, time: float, what: str):
        super().__init__(f"non-finite {what} at t = {time:.6f} s")
        self.time = time
        self.what = what


def nominal_lsea_tf() -> ContinuousTransferFunction:
    """Identified nominal current-to-force model of the actuator testbed."""
    return ContinuousTransferFunction(NOMINAL_NUM, NOMINAL_DEN)


class BacklashPlay:
    """Hysteretic play operator of total width ``width``.

    The output follows the input only once the gap closes on either side;
    inside the gap it holds.
    """

    def __init__(self, width: float):
        if width < 0.0:
            raise ValueError("play width must be non-negative")
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
    ``gain_factor`` the numerator gain.  Stiction follows a Karnopp model:
    while the output rate is inside the velocity dead-band and the input
    magnitude is below the breakaway threshold, the effective input is
    zero.  ``backlash`` applies a hysteretic play of that width to the
    transmitted output.
    """

    def __init__(self, den_factors=(1.0, 1.0, 1.0, 1.0), gain_factor: float = 1.0,
                 stiction_breakaway: float = 0.0,
                 stiction_velocity_deadband: float = 0.5,
                 backlash: float = 0.0):
        factors = np.asarray(den_factors, dtype=float).ravel()
        if factors.size != 4 or np.any(factors <= 0.0):
            raise ValueError("den_factors must be four positive multipliers")
        if gain_factor <= 0.0:
            raise ValueError("gain_factor must be positive")
        if min(stiction_breakaway, stiction_velocity_deadband, backlash) < 0.0:
            raise ValueError("stiction and backlash parameters must be non-negative")
        den = np.asarray(NOMINAL_DEN) * factors
        gain = NOMINAL_NUM[0] * gain_factor
        self.tf = ContinuousTransferFunction([gain], den)
        a = den / den[0]
        self._c1, self._c2, self._c3 = float(a[1]), float(a[2]), float(a[3])
        self._cy = float(gain / den[0])
        self.stiction_breakaway = float(stiction_breakaway)
        self.stiction_velocity_deadband = float(stiction_velocity_deadband)
        self._play = BacklashPlay(backlash) if backlash > 0.0 else None
        self._step_cache: dict[float, tuple] = {}
        self._lift_cache: dict[tuple[float, int], tuple] = {}
        self._steppers: dict[tuple[float, int], Callable[[float], float]] = {}
        self._state, self._new_stepper = self._scope()

    def dc_gain(self) -> float:
        return self.tf.dc_gain()

    def _coeffs(self, dt: float) -> tuple:
        """One RK4 substep of ``dt`` as the map ``x+ = M x + N u``.

        Returns the nine entries of ``M`` row by row, then the three of
        ``N B``, as Python floats.  ``M`` and ``N`` are built with numpy
        matrix products; ``tolist`` converts their entries exactly.
        """
        cached = self._step_cache.get(dt)
        if cached is not None:
            return cached
        A = np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [-self._c3, -self._c2, -self._c1],
        ])
        B = np.array([0.0, 0.0, 1.0])
        # RK4 of a linear system with held input is exact in (M, N) form:
        # x+ = M x + N u with the degree-4 truncations of expm(A dt).
        M = np.eye(3)
        N = np.zeros((3, 3))
        term = np.eye(3)
        for k in range(1, 5):
            N = N + term * dt / math.factorial(k)
            term = term @ A * dt
            M = M + term / math.factorial(k)
        coeffs = (*M.ravel().tolist(), *(N @ B).tolist())
        self._step_cache[dt] = coeffs
        return coeffs

    def _lifted(self, dt: float, substeps: int) -> tuple:
        """``n = substeps`` RK4 substeps of ``dt`` as one map ``x+ = P x + G u``.

        ``P = M^n`` and ``G = (M^0 + ... + M^(n-1)) N`` are built by running
        the substep recurrence of ``_coeffs(dt)``, which holds Python floats,
        ``n`` times on each unit state (zero input) and on the zero state
        (unit input), so each entry is that composition.  Returns the nine
        entries of ``P`` row by row, then the three of ``G``, as Python
        floats.
        """
        key = (dt, substeps)
        cached = self._lift_cache.get(key)
        if cached is not None:
            return cached
        m00, m01, m02, m10, m11, m12, m20, m21, m22, n0, n1, n2 = self._coeffs(dt)

        def compose(x0, x1, x2, u):
            for _ in range(substeps):
                x0, x1, x2 = (
                    m00 * x0 + m01 * x1 + m02 * x2 + n0 * u,
                    m10 * x0 + m11 * x1 + m12 * x2 + n1 * u,
                    m20 * x0 + m21 * x1 + m22 * x2 + n2 * u,
                )
            return x0, x1, x2

        cols = (compose(1.0, 0.0, 0.0, 0.0), compose(0.0, 1.0, 0.0, 0.0),
                compose(0.0, 0.0, 1.0, 0.0))
        lifted = (*(col[i] for i in range(3) for col in cols),
                  *compose(0.0, 0.0, 0.0, 1.0))
        self._lift_cache[key] = lifted
        return lifted

    def _scope(self):
        """Build the state reader and the stepper factory over one plant state.

        The state ``x0, x1, x2`` lives in this scope, so every stepper the
        factory builds, and ``advance``, step the same state; ``state()``
        reads it.  The perturbation parameters are bound here, once.
        """
        x0 = x1 = x2 = 0.0
        cy, play = self._cy, self._play
        brk, vdead = self.stiction_breakaway, self.stiction_velocity_deadband
        stiction = brk > 0.0

        def state():
            return x0, x1, x2

        def new_stepper(dt, substeps):
            if dt <= 0.0:
                raise ValueError("substep must be positive")
            m00, m01, m02, m10, m11, m12, m20, m21, m22, n0, n1, n2 = self._coeffs(dt)
            # without backlash, a step whose input stiction cannot act on is one
            # lifted map (for one substep, the substep's own, entry for entry)
            lifted = play is None
            (p00, p01, p02, p10, p11, p12, p20, p21, p22, g0, g1, g2) = (
                self._lifted(dt, substeps) if lifted else (math.nan,) * 12)
            substep_range = range(substeps)

            def advance(i_m):
                nonlocal x0, x1, x2
                u = float(i_m)
                # the input half of the Karnopp test is constant for a held input
                stuck_input = stiction and abs(u) < brk
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

        return state, new_stepper

    def stepper(self, dt: float, substeps: int) -> Callable[[float], float]:
        """Return ``advance(i_m) -> f_o``: ``substeps`` equal RK4 substeps of
        ``dt`` with the input held, on this plant's one state.

        When there is no backlash and the input is at or above the stiction
        breakaway (or stiction is off), every substep sees the input
        unchanged, so the whole call is one cached linear map (``_lifted``;
        for one substep it equals the substep's own map entry for entry).
        Otherwise the substeps are stepped one by one, each applying the
        Karnopp test and the backlash play.  The step returns the
        transmitted force after the last substep.  Steppers are built once
        per ``(dt, substeps)`` and cached.
        """
        key = (dt, substeps)
        step = self._steppers.get(key)
        if step is None:
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


def pendulum_step(p: PendulumConfig, theta: float, theta_dot: float,
                  f_actuator: float, dt: float) -> tuple[float, float]:
    """One RK4 step of the pendulum driven by actuator force ``f_actuator``.

    Returns the angle and rate after ``dt``.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rk4 = _pendulum_stepper(dt, p.m, p.l1, p.l2, p.g, p.damping)
    return rk4(theta, theta_dot, f_actuator, f_actuator, f_actuator)


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
    """Buildable description of the simulated actuator (keeps scenarios re-runnable)."""

    den_factors: tuple = (1.0, 1.0, 1.0, 1.0)
    gain_factor: float = 1.0
    stiction_breakaway: float = 0.0
    stiction_velocity_deadband: float = 0.5
    backlash: float = 0.0

    def build(self) -> LseaPlant:
        return LseaPlant(
            den_factors=self.den_factors,
            gain_factor=self.gain_factor,
            stiction_breakaway=self.stiction_breakaway,
            stiction_velocity_deadband=self.stiction_velocity_deadband,
            backlash=self.backlash,
        )


@dataclass
class PendulumConfig:
    """Weighted-pendulum parameters and initial state for a scenario.

    tau = l2 * f drives  m l1^2 theta'' = tau - m g l1 sin(theta) - c theta',
    and the actuator sees q_a = l2 * theta (small-angle testbed geometry).
    """

    m: float = 10.0
    l1: float = 0.33
    l2: float = 0.07
    g: float = 9.81
    damping: float = 0.0
    theta0: float = 0.0
    theta_dot0: float = 0.0

    def __post_init__(self):
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
        """Check the rates and the reference.

        This is the one check of a reference; ``config`` (position chirp)
        and ``experiments`` (current chirp) repeat the Nyquist bounds only to
        name the offending key.  Raises ``ValueError``, or
        ``NyquistError`` for a chirp whose frequency reaches the Nyquist rate
        of its generating rate before the sweep ends.
        """
        if self.duration_s < 0.0:
            raise ValueError("duration must be non-negative")
        for name, hz in (("controller_hz", self.controller_hz),
                         ("reference_hz", self.reference_hz),
                         ("plant_hz", self.plant_hz)):
            if int(hz) != hz or hz <= 0:
                raise ValueError(f"{name} must be a positive integer")
        if self.plant_hz % self.controller_hz != 0:
            raise ValueError("plant rate must be an integer multiple of the controller rate")
        if self.pendulum is not None and (self.plant_hz // self.controller_hz) % 2:
            raise ValueError("with the pendulum, the plant rate must be an even multiple "
                             "of the controller rate")
        if self.controller_hz % self.reference_hz != 0:
            raise ValueError("controller rate must be an integer multiple of the reference rate")
        ref = self.reference
        if ref.kind == "force_step":
            return
        if ref.amplitude <= 0.0 or self.duration_s <= 0.0:
            raise ValueError("a chirp needs a positive amplitude and duration_s")
        # current chirps are generated at the controller rate; position
        # references are communicated at the reference rate
        if ref.kind == "current_chirp":
            if not (ref.f_start and ref.f_end) or ref.f_start <= 0.0 or ref.f_end <= 0.0:
                raise ValueError("current_chirp needs positive f_start and f_end")
            if max(ref.f_start, ref.f_end) >= 0.5 / (1.0 / self.controller_hz):
                raise NyquistError("current chirp endpoint at or above Nyquist")
        else:
            if ref.omega_o is None or ref.omega_o <= 0.0:
                raise ValueError("position_chirp needs a positive sweep rate omega_o")
            nyquist = 0.5 / (1.0 / self.reference_hz)
            if linear_chirp_freq_hz(ref.omega_o, self.duration_s) >= nyquist:
                raise NyquistError("position chirp reaches Nyquist before the sweep ends")
            if self.pendulum is None:
                raise ValueError("position_chirp needs the pendulum enabled")


LOG_COLUMNS = ("t", "ref_pos", "q_bar_a_d", "qdot_bar_a_d", "f_d", "f_o", "i_m",
               "d_hat", "theta", "theta_dot", "q_hat_a_m", "q_hat_a_j")
_LOG_BLOCK_TICKS = 1024  # ticks recorded before one copy into the log array
_COL = {name: i for i, name in enumerate(LOG_COLUMNS)}
# the rows a tick records: the loop's outputs, and with the pendulum also the
# desired force and the pendulum state; t, the held reference (_REF_ROWS, one
# value per reference tick), a force step's f_d and q_hat_a_j = l2 * theta
# are filled after the loop
_TICK_ROWS = slice(_COL["f_o"], _COL["d_hat"] + 1)
_PENDULUM_TICK_ROWS = slice(_COL["f_d"], _COL["q_hat_a_m"] + 1)
_REF_ROWS = slice(_COL["ref_pos"], _COL["qdot_bar_a_d"] + 1)


@dataclass
class SimLog:
    """Uniformly sampled scenario record (one row per controller step)."""

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
        write_csv(path, LOG_COLUMNS, [self.column(c) for c in LOG_COLUMNS])

    @classmethod
    def from_csv(cls, path) -> "SimLog":
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        if len(lines) <= 1:
            data = np.zeros((0, len(LOG_COLUMNS)))
        else:
            data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        if data.shape[1] != len(LOG_COLUMNS):
            raise ValueError(f"expected {len(LOG_COLUMNS)} columns")
        return cls(**{name: data[:, i] for i, name in enumerate(LOG_COLUMNS)})


def run_scenario(sc: SimScenario) -> SimLog:
    """Run the two-rate loop and return the log.

    Measurements are captured at the start of each controller step (so the
    controller sees the plant state produced by the previous command), the
    command is computed and logged, then the plant (and pendulum, when
    enabled) advance through the substeps with the command held: one plant
    step per controller step, or, with the pendulum, four plant steps of
    ``n_sub / 2`` half-substeps each (``n_sub`` = plant_hz / controller_hz
    must be even) and two pendulum RK4 steps of half a step each, which
    see the force at their start, midpoint and end.  Each block's step is
    a closure its factory builds once per scenario (``LseaPlant.stepper``,
    ``ForceController.stepper`` or ``DisturbanceObserver.stepper``, and the
    pendulum's RK4), so a tick calls no method of a block.  Every per-tick
    value is a Python float, not a numpy scalar, so it overflows to inf
    without a warning.  A tick records only what it computes: ``f_o``,
    ``i_m`` and ``d_hat``, and with the pendulum also ``f_d``, ``theta``,
    ``theta_dot`` and ``q_hat_a_m``, into a flat list that is copied into
    those rows of the ``(12, n)`` log array every ``_LOG_BLOCK_TICKS``
    ticks; a position chirp's three reference values are recorded on
    reference ticks only.  After the loop, numpy fills ``t = k * T``, a
    force step's ``f_d`` (without the pendulum), ``q_hat_a_j = l2 * theta``
    and the reference columns, each held between reference ticks; every
    other column keeps the ``+0.0`` it was allocated as.  Re-running an
    identical scenario yields bit-identical output.  A non-finite pendulum
    state, plant output, rejected desired force or current command raises
    ``SimulationFault`` with the step time.
    """
    sc.validate()
    T = 1.0 / sc.controller_hz
    n_steps = int(round(sc.duration_s * sc.controller_hz))
    n_sub = sc.plant_hz // sc.controller_hz
    dt_sub = 1.0 / sc.plant_hz
    # the pendulum path runs the plant in half-substeps, a quarter tick per call
    dt_half, n_quarter, T_half = 0.5 * dt_sub, n_sub // 2, 0.5 * T
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
        pend_rk4 = _pendulum_stepper(T_half, pend.m, pend.l1, l2, pend.g, pend.damping)
        advance = plant.stepper(dt_half, n_quarter)
    else:
        theta = theta_dot = 0.0
        advance = plant.stepper(dt_sub, n_sub)
    est_play = BacklashPlay(sc.estimate_backlash_m) if sc.estimate_backlash_m > 0.0 else None

    dob_cfg = DobConfig(sc.omega_c, sc.gamma, nominal_lsea_tf())
    fc: ForceController | None = None
    if position_chirp or force_step:
        fc = build_force_controller(sc.pid, dob_cfg, sc.k_ff, T)
        fc_step = fc.stepper()
    else:
        dob_step = build_observer(dob_cfg, T).stepper()
        chirp = exponential_chirp(ref.amplitude, ref.f_start, ref.f_end, sc.duration_s)

    # one row per log column, so each column is a contiguous float64 array;
    # a tick records only the rows it computes, into a flat block that fills
    # _LOG_BLOCK_TICKS columns of them, and the rest are filled after the loop
    data = np.zeros((len(LOG_COLUMNS), n_steps))
    rows = _TICK_ROWS if pend is None else _PENDULUM_TICK_ROWS
    width = rows.stop - rows.start
    block: list[float] = []
    record = block.extend
    refs: list[float] = []
    record_ref = refs.extend
    f_o = 0.0
    q_a_d = qdot_a_d = f_ff = 0.0

    for k0 in range(0, n_steps, _LOG_BLOCK_TICKS):
        k1 = min(k0 + _LOG_BLOCK_TICKS, n_steps)
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

            if position_chirp:
                if k % ref_div == 0:
                    qj_d, qjdot_d, qjddot_d = linear_chirp_point(
                        ref.amplitude, ref.omega_o, t)
                    tau_ff = (pend.m * pend.l1**2 * qjddot_d
                              + pend.m * pend.g * pend.l1 * math.sin(qj_d))
                    q_a_d, qdot_a_d = actuator_setpoints(pmap, qj_d, qjdot_d, theta)
                    f_ff = ff_force(pmap, theta, tau_ff)
                    record_ref((qj_d, q_a_d, qdot_a_d))
                f_d = impedance_step(sc.impedance, q_a_d, qdot_a_d,
                                     q_hat_a_m, qdot_hat_a, f_ff)
                i_m, d_hat = fc_step(f_d, f_o)
            elif force_step:
                f_d = ref.step_value if t >= ref.step_time else 0.0
                i_m, d_hat = fc_step(f_d, f_o)
            else:  # current_chirp: open loop around the observer blend
                i_m, d_hat = dob_step(chirp(t), f_o)
                f_d = 0.0

            if not math.isfinite(f_o):
                raise SimulationFault(t, "f_o")
            if fc is not None and fc.fault:
                # f_o is finite, so the controller rejected f_d
                raise SimulationFault(t, "f_d")
            if not math.isfinite(i_m):
                raise SimulationFault(t, "i_m")

            if pend is not None:
                record((f_d, f_o, i_m, d_hat, theta, theta_dot, q_hat_a_m))
                try:
                    for _ in range(2):
                        f_q = advance(i_m)
                        f_h = advance(i_m)
                        theta, theta_dot = pend_rk4(theta, theta_dot, f_o, f_q, f_h)
                        f_o = f_h
                except ValueError:  # math.sin of an infinite angle
                    raise SimulationFault(t, "theta") from None
            else:
                record((f_o, i_m, d_hat))
                f_o = advance(i_m)
        m = k1 - k0
        data[rows, k0:k1] = np.fromiter(block, float, m * width).reshape(m, width).T
        block.clear()

    # the columns a tick does not record, written in place so that no
    # log-sized temporary outlives one column; every other one stays zero
    times = data[_COL["t"]]
    np.multiply(np.arange(n_steps), T, out=times)
    if pend is None:
        if force_step:
            data[_COL["f_d"]] = np.where(times >= ref.step_time, ref.step_value, 0.0)
    else:
        np.multiply(l2, data[_COL["theta"]], out=data[_COL["q_hat_a_j"]])
    if position_chirp:
        held = np.fromiter(refs, float, len(refs)).reshape(-1, 3).T
        for row, values in zip(data[_REF_ROWS], held):
            row[:] = np.repeat(values, ref_div)[:n_steps]

    return SimLog(**dict(zip(LOG_COLUMNS, data)))
