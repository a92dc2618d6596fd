"""Joint-space to actuator-space transformation.

Setpoint positions go through the forward map, velocities through the
Jacobian (evaluated at the *measured* joint position), and feedforward
torques through the Jacobian inverse-transpose.  The mapping itself is a
pluggable interface; the two shipped instances cover the desk-scale
experiments (a scalar moment-arm map and a constant-Jacobian 2-DoF map).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "SingularJacobianError",
    "JointActuatorMap",
    "PendulumMap",
    "TwoDofAffineMap",
    "actuator_setpoints",
    "ff_force",
    "DET_TOL",
]

# |det J| below which ff_force refuses to invert the Jacobian
DET_TOL = 1e-9


class SingularJacobianError(ValueError):
    """Raised when the Jacobian cannot be inverted for effort mapping."""


class JointActuatorMap(ABC):
    """Forward map and Jacobian between joint and actuator coordinates.

    Maps are immutable after construction and safe for concurrent reads.
    """

    ndof: int = 1

    @abstractmethod
    def forward(self, q_j):
        """Actuator position(s) for joint position(s) ``q_j``."""

    @abstractmethod
    def jacobian(self, q_j):
        """d(actuator)/d(joint) at ``q_j``: scalar for 1-DoF, (2, 2) array otherwise."""


class PendulumMap(JointActuatorMap):
    """Small-angle 1-DoF map q_a = l2 * q_j with moment arm ``l2`` (m)."""

    def __init__(self, l2: float):
        if l2 == 0.0:
            raise ValueError("moment arm must be non-zero")
        self.l2 = float(l2)
        self.ndof = 1

    def forward(self, q_j):
        return self.l2 * q_j

    def jacobian(self, q_j):
        return self.l2


class TwoDofAffineMap(JointActuatorMap):
    """Constant-Jacobian 2-DoF map q_a = J q_j + offset."""

    def __init__(self, J, offset=(0.0, 0.0)):
        self.J = np.array(J, dtype=float)
        if self.J.shape != (2, 2):
            raise ValueError("J must be a 2x2 matrix")
        self.offset = np.array(offset, dtype=float)
        if self.offset.shape != (2,):
            raise ValueError("offset must have 2 entries")
        self.ndof = 2

    def forward(self, q_j):
        return self.J @ np.asarray(q_j, dtype=float) + self.offset

    def jacobian(self, q_j):
        return self.J


def actuator_setpoints(mapping: JointActuatorMap, q_bar_j_d, qdot_bar_j_d, q_j_measured):
    """Desired actuator position and velocity from joint setpoints.

    Position goes through the forward map of the desired joint position;
    velocity through the Jacobian evaluated at the measured joint position
    (the transform depends on the current joint measurements).
    """
    q_a = mapping.forward(q_bar_j_d)
    J = mapping.jacobian(q_j_measured)
    # a 1-DoF map's Jacobian is a Python float, tested before numpy's dispatch
    if type(J) is float or np.ndim(J) == 0:
        qdot_a = float(J) * qdot_bar_j_d
    else:
        qdot_a = np.asarray(J) @ np.asarray(qdot_bar_j_d, dtype=float)
    return q_a, qdot_a


def ff_force(mapping: JointActuatorMap, q_j_measured, tau_ff_d):
    """Feedforward actuator force f = J^{-T} tau at the measured joint position.

    For scalar 1-DoF maps this reduces to tau / l.  Raises
    SingularJacobianError (and emits no command) when |det J| < ``DET_TOL``;
    the config rejects a pendulum moment arm ``l2`` below it.
    """
    J = mapping.jacobian(q_j_measured)
    if type(J) is float or np.ndim(J) == 0:
        if abs(J) < DET_TOL:
            raise SingularJacobianError(f"|J| = {abs(J):g} below tolerance {DET_TOL:g}")
        return tau_ff_d / float(J)
    J = np.asarray(J, dtype=float)
    det = np.linalg.det(J)
    if abs(det) < DET_TOL:
        raise SingularJacobianError(f"|det J| = {abs(det):g} below tolerance {DET_TOL:g}")
    return np.linalg.solve(J.T, np.asarray(tau_ff_d, dtype=float))
