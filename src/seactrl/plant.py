"""Deterministic simulator of the elastic actuator testbed and pendulum.

The actuator is the identified third-order current-to-force model in a
controllable-canonical realization, advanced with RK4 (for a linear system
with held input one RK4 substep is exactly a constant matrix recurrence,
which is precomputed per substep size).  Injectable perturbations stand in
for everything the disturbance observer must absorb: multiplicative
denominator/gain perturbation (structural-elasticity emulation), a Karnopp
stiction dead-band on the effective input, and a hysteretic backlash play.

The pendulum is the nonlinear 1-DoF load; scenarios couple it to the
actuator through the small-angle testbed geometry q_a = l2 * theta and
tau = l2 * f, the only coupling modelled.  ``LseaPlant.advance_pendulum``
runs one controller step of the coupled substeps in a single loop: two RK4
half-substeps of the plant per RK4 step of the pendulum, which sees the
force at its start, midpoint and end.  ``run_scenario`` executes the
two-rate loop (reference rate / controller rate / plant substep rate) and
returns a uniformly sampled log that serializes to CSV bit-reproducibly; a
non-finite signal stops it with a ``SimulationFault`` that names the signal
and the time.
"""

from __future__ import annotations

import math
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
from .lti import ContinuousTransferFunction
from .sysid import ChirpSpec, exponential_chirp_point, linear_chirp_point, write_csv

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
        self._cy = gain / den[0]
        self.stiction_breakaway = float(stiction_breakaway)
        self.stiction_velocity_deadband = float(stiction_velocity_deadband)
        self._play = BacklashPlay(backlash) if backlash > 0.0 else None
        self._x0 = self._x1 = self._x2 = 0.0
        self._step_cache: dict[float, tuple] = {}

    def dc_gain(self) -> float:
        return self.tf.dc_gain()

    def _coeffs(self, dt: float) -> tuple:
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
        coeffs = (*M.ravel(), *(N @ B))
        self._step_cache[dt] = coeffs
        return coeffs

    def advance(self, i_m: float, dt: float, substeps: int) -> float:
        """Advance ``substeps`` equal RK4 substeps with held input."""
        if dt <= 0.0:
            raise ValueError("substep must be positive")
        (m00, m01, m02, m10, m11, m12, m20, m21, m22, n0, n1, n2) = self._coeffs(dt)
        x0, x1, x2 = self._x0, self._x1, self._x2
        vdead = self.stiction_velocity_deadband
        cy = self._cy
        play = self._play
        u = float(i_m)
        # the input half of the Karnopp test is constant for a held input
        brk = self.stiction_breakaway
        stuck_input = brk > 0.0 and abs(u) < brk
        y = cy * x0
        for _ in range(substeps):
            if stuck_input and abs(cy * x1) < vdead:
                ue = 0.0
            else:
                ue = u
            x0, x1, x2 = (
                m00 * x0 + m01 * x1 + m02 * x2 + n0 * ue,
                m10 * x0 + m11 * x1 + m12 * x2 + n1 * ue,
                m20 * x0 + m21 * x1 + m22 * x2 + n2 * ue,
            )
            y = cy * x0
            if play is not None:
                y = play.step(y)
        self._x0, self._x1, self._x2 = x0, x1, x2
        return y

    def advance_pendulum(self, i_m: float, f_o: float, theta: float, theta_dot: float,
                         dt: float, substeps: int,
                         pend: PendulumConfig) -> tuple[float, float, float]:
        """Advance ``substeps`` substeps of size ``dt`` with the pendulum coupled.

        ``f_o`` is the output force at the start of the call.  Each substep
        is two RK4 half-substeps of the plant, so the pendulum's RK4 sees the
        force at its start, midpoint and end and the one-way coupling stays
        4th order.  The result is bit-identical to two
        ``advance(i_m, dt / 2, 1)`` calls and one pendulum RK4 on the three
        force samples per substep.  Returns the output force and the pendulum angle and rate
        after the last substep; a ``ValueError`` from ``math`` means the angle
        became infinite.
        """
        if dt <= 0.0:
            raise ValueError("substep must be positive")
        (m00, m01, m02, m10, m11, m12, m20, m21, m22, n0, n1, n2) = self._coeffs(0.5 * dt)
        x0, x1, x2 = self._x0, self._x1, self._x2
        vdead = self.stiction_velocity_deadband
        cy = self._cy
        play = self._play
        u = float(i_m)
        brk = self.stiction_breakaway
        stuck_input = brk > 0.0 and abs(u) < brk
        m, l1, l2, g, c = pend.m, pend.l1, pend.l2, pend.g, pend.damping
        for half in range(2 * substeps):
            if stuck_input and abs(cy * x1) < vdead:
                ue = 0.0
            else:
                ue = u
            x0, x1, x2 = (
                m00 * x0 + m01 * x1 + m02 * x2 + n0 * ue,
                m10 * x0 + m11 * x1 + m12 * x2 + n1 * ue,
                m20 * x0 + m21 * x1 + m22 * x2 + n2 * ue,
            )
            y = cy * x0
            if play is not None:
                y = play.step(y)
            if half & 1:
                theta, theta_dot = _pend_rk4_forced(theta, theta_dot, f_o, f_mid, y, dt,
                                                    m, l1, l2, g, c)
                f_o = y
            else:
                f_mid = y
        self._x0, self._x1, self._x2 = x0, x1, x2
        return f_o, theta, theta_dot


def _pend_rk4_forced(theta, omega, f_0, f_mid, f_1, dt, m, l1, l2, g, c):
    """RK4 step of m l1^2 theta'' = l2 f - m g l1 sin(theta) - c theta' with the
    actuator force sampled at the stage times."""
    inertia = m * l1 * l1
    mgl = m * g * l1
    h = 0.5 * dt
    # stage k has angle th_k, rate k_kt and acceleration k_kw (written out,
    # not as a nested function: this runs once per 20 kHz plant substep)
    k1w = (l2 * f_0 - mgl * math.sin(theta) - c * omega) / inertia
    th2 = theta + h * omega
    k2t = omega + h * k1w
    k2w = (l2 * f_mid - mgl * math.sin(th2) - c * k2t) / inertia
    th3 = theta + h * k2t
    k3t = omega + h * k2w
    k3w = (l2 * f_mid - mgl * math.sin(th3) - c * k3t) / inertia
    th4 = theta + dt * k3t
    k4t = omega + dt * k3w
    k4w = (l2 * f_1 - mgl * math.sin(th4) - c * k4t) / inertia
    return (theta + dt / 6.0 * (omega + 2.0 * k2t + 2.0 * k3t + k4t),
            omega + dt / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w))


def pendulum_step(p: PendulumConfig, theta: float, theta_dot: float,
                  f_actuator: float, dt: float) -> tuple[float, float]:
    """One RK4 step of the pendulum driven by actuator force ``f_actuator``.

    Returns the angle and rate after ``dt``.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return _pend_rk4_forced(theta, theta_dot, f_actuator, f_actuator, f_actuator,
                            dt, p.m, p.l1, p.l2, p.g, p.damping)


def free_oscillation_frequency(theta0: float = 0.1, duration: float = 30.0,
                               dt: float = 5e-5, m: float = 10.0, l1: float = 0.33,
                               g: float = 9.81, damping: float = 0.0) -> float:
    """Oscillation frequency of the undriven pendulum, from zero crossings.

    Crossing times are interpolated linearly between samples; the result is
    (crossings - 1) / (2 * span).
    """
    th, w = float(theta0), 0.0
    crossings = []
    t = 0.0
    n = int(round(duration / dt))
    for _ in range(n):
        th_next, w_next = _pend_rk4_forced(th, w, 0.0, 0.0, 0.0, dt, m, l1, 1.0, g,
                                           damping)
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
    """Reference signal for a scenario.

    kinds: ``force_step`` (desired force step of ``step_value`` at
    ``step_time``; the default holds zero force), ``current_chirp``
    (open-loop / DOB-loop current excitation), ``position_chirp``
    (joint-space linear chirp through the full controller).  Current chirps
    may be linear (``omega_o``) or exponential (``f_start``/``f_end``).
    ``SimScenario.validate`` checks chirps against their generating rate.
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
        if self.duration_s < 0.0:
            raise ValueError("duration must be non-negative")
        for name, hz in (("controller_hz", self.controller_hz),
                         ("reference_hz", self.reference_hz),
                         ("plant_hz", self.plant_hz)):
            if int(hz) != hz or hz <= 0:
                raise ValueError(f"{name} must be a positive integer")
        if self.plant_hz % self.controller_hz != 0:
            raise ValueError("plant rate must be an integer multiple of the controller rate")
        if self.controller_hz % self.reference_hz != 0:
            raise ValueError("controller rate must be an integer multiple of the reference rate")
        ref = self.reference
        # current chirps are generated at the controller rate; position
        # references are communicated at the reference rate
        if ref.kind == "current_chirp":
            exponential = ref.f_start is not None or ref.f_end is not None
            ChirpSpec("exponential" if exponential else "linear", ref.amplitude,
                      self.duration_s, 1.0 / self.controller_hz, omega_o=ref.omega_o,
                      f_start=ref.f_start, f_end=ref.f_end)
        elif ref.kind == "position_chirp":
            ChirpSpec("linear", ref.amplitude, self.duration_s, 1.0 / self.reference_hz,
                      omega_o=ref.omega_o)
        if self.pendulum is None and ref.kind == "position_chirp":
            raise ValueError("position_chirp needs the pendulum enabled")


LOG_COLUMNS = ("t", "ref_pos", "q_bar_a_d", "qdot_bar_a_d", "f_d", "f_o", "i_m",
               "d_hat", "theta", "theta_dot", "q_hat_a_m", "q_hat_a_j")


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
    enabled) advance through the substeps with the command held: one
    ``LseaPlant.advance`` call per step, or one ``advance_pendulum`` call
    with the pendulum.  Re-running an identical scenario yields bit-identical
    output.  A non-finite pendulum state, plant output, rejected desired
    force or current command raises ``SimulationFault`` with the step time.
    """
    sc.validate()
    T = 1.0 / sc.controller_hz
    n_steps = int(round(sc.duration_s * sc.controller_hz))
    n_sub = sc.plant_hz // sc.controller_hz
    dt_sub = 1.0 / sc.plant_hz
    ref_div = sc.controller_hz // sc.reference_hz
    ref = sc.reference

    plant = sc.plant.build()
    pend = sc.pendulum
    if pend is not None:
        theta, theta_dot = pend.theta0, pend.theta_dot0
        pmap = PendulumMap(pend.l2)
    else:
        theta = theta_dot = 0.0
        pmap = None
    est_play = BacklashPlay(sc.estimate_backlash_m) if sc.estimate_backlash_m > 0.0 else None

    dob_cfg = DobConfig(sc.omega_c, sc.gamma, nominal_lsea_tf())
    fc: ForceController | None = None
    if ref.kind == "current_chirp":
        dob = build_observer(dob_cfg, T)
    else:
        fc = build_force_controller(sc.pid, dob_cfg, sc.k_ff, T)
        dob = fc.dob

    # one row per log column, so each column is a contiguous float64 array
    data = np.zeros((len(LOG_COLUMNS), n_steps))
    f_o = 0.0
    ref_pos = q_a_d = qdot_a_d = f_ff = 0.0

    # a diverging loop is reported through SimulationFault; the transient
    # overflow on the way to the non-finite values is expected, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = k * T
            if pend is None:
                q_hat_a_j = qdot_hat_a = 0.0
            elif not math.isfinite(theta):
                raise SimulationFault(t, "theta")
            elif not math.isfinite(theta_dot):
                raise SimulationFault(t, "theta_dot")
            else:
                q_hat_a_j = pend.l2 * theta
                qdot_hat_a = pend.l2 * theta_dot
            q_hat_a_m = est_play.step(q_hat_a_j) if est_play is not None else q_hat_a_j

            if ref.kind == "position_chirp":
                if k % ref_div == 0:
                    qj_d, qjdot_d, qjddot_d = linear_chirp_point(
                        ref.amplitude, ref.omega_o, t)
                    tau_ff = (pend.m * pend.l1**2 * qjddot_d
                              + pend.m * pend.g * pend.l1 * math.sin(qj_d))
                    q_a_d, qdot_a_d = actuator_setpoints(pmap, qj_d, qjdot_d, theta)
                    f_ff = ff_force(pmap, theta, tau_ff)
                    ref_pos = qj_d
                f_d = impedance_step(sc.impedance, q_a_d, qdot_a_d,
                                     q_hat_a_m, qdot_hat_a, f_ff)
                i_m = fc.step(f_d, f_o)
            elif ref.kind == "force_step":
                f_d = ref.step_value if t >= ref.step_time else 0.0
                i_m = fc.step(f_d, f_o)
            else:  # current_chirp: open loop around the observer blend
                if ref.f_start is not None:
                    u_c, _ = exponential_chirp_point(ref.amplitude, ref.f_start,
                                                     ref.f_end, sc.duration_s, t)
                else:
                    u_c, _, _ = linear_chirp_point(ref.amplitude, ref.omega_o, t)
                i_m = dob.step(u_c, f_o)
                f_d = 0.0
            d_hat = dob.d_hat

            data[:, k] = (t, ref_pos, q_a_d, qdot_a_d, f_d, f_o, i_m, d_hat,
                          theta, theta_dot, q_hat_a_m, q_hat_a_j)
            if not math.isfinite(f_o):
                raise SimulationFault(t, "f_o")
            if fc is not None and fc.fault:
                # f_o is finite, so the controller rejected f_d
                raise SimulationFault(t, "f_d")
            if not math.isfinite(i_m):
                raise SimulationFault(t, "i_m")

            if pend is not None:
                try:
                    f_o, theta, theta_dot = plant.advance_pendulum(
                        i_m, f_o, theta, theta_dot, dt_sub, n_sub, pend)
                except ValueError:  # math.sin of an infinite angle
                    raise SimulationFault(t, "theta") from None
            else:
                f_o = plant.advance(i_m, dt_sub, n_sub)

    return SimLog(**dict(zip(LOG_COLUMNS, data)))
