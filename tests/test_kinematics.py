import numpy as np
import pytest

from seactrl.kinematics import (
    JointActuatorMap,
    PendulumMap,
    SingularJacobianError,
    TwoDofAffineMap,
    actuator_setpoints,
    ff_force,
)


class CrankMap(JointActuatorMap):
    """Nonlinear 1-DoF test map q_a = r sin(q_j)."""

    def __init__(self, r):
        self.r = r
        self.ndof = 1

    def forward(self, q_j):
        return self.r * np.sin(q_j)

    def jacobian(self, q_j):
        return self.r * np.cos(q_j)


class TestActuatorSetpoints:
    def test_pendulum_map_values(self):
        m = PendulumMap(l2=0.07)
        q_a, qdot_a = actuator_setpoints(m, 0.1, 1.0, 0.05)
        assert q_a == pytest.approx(0.007, rel=1e-12)
        assert qdot_a == pytest.approx(0.07, rel=1e-12)

    def test_identity_passthrough(self):
        m = PendulumMap(l2=1.0)
        q_a, qdot_a = actuator_setpoints(m, 0.3, -0.2, 0.0)
        assert q_a == 0.3 and qdot_a == -0.2
        m2 = TwoDofAffineMap(np.eye(2))
        q_a2, qdot_a2 = actuator_setpoints(m2, [0.3, -0.1], [1.0, 2.0], [0.0, 0.0])
        assert np.array_equal(q_a2, [0.3, -0.1])
        assert np.array_equal(qdot_a2, [1.0, 2.0])

    def test_two_dof_velocity_map(self):
        m = TwoDofAffineMap([[0.05, 0.0], [0.0, 0.05]])
        _, qdot_a = actuator_setpoints(m, [0.0, 0.0], [1.0, 2.0], [0.0, 0.0])
        assert qdot_a == pytest.approx([0.05, 0.1], rel=1e-12)

    def test_jacobian_evaluated_at_measurement(self):
        m = CrankMap(r=2.0)
        # desired at 0, measured at pi/3: velocity scale must be cos(pi/3)
        _, qdot_a = actuator_setpoints(m, 0.0, 1.0, np.pi / 3)
        assert qdot_a == pytest.approx(2.0 * np.cos(np.pi / 3), rel=1e-12)


class TestFeedforwardForce:
    def test_pendulum_scalar_division(self):
        assert ff_force(PendulumMap(l2=0.07), 0.0, 7.0) == pytest.approx(100.0, rel=1e-12)

    def test_identity_jacobian(self):
        f = ff_force(TwoDofAffineMap(np.eye(2)), [0.0, 0.0], [3.0, -4.0])
        assert np.allclose(f, [3.0, -4.0])

    def test_diagonal_inverse_transpose(self):
        f = ff_force(TwoDofAffineMap(np.diag([0.05, 0.05])), [0.0, 0.0], [1.0, 2.0])
        assert f == pytest.approx([20.0, 40.0], rel=1e-12)

    def test_singularity_raises_without_command(self):
        m = CrankMap(r=2.0)
        with pytest.raises(SingularJacobianError):
            ff_force(m, np.pi / 2, 1.0)
        singular = TwoDofAffineMap([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularJacobianError):
            ff_force(singular, [0.0, 0.0], [1.0, 1.0])


class TestInvariants:
    def test_power_consistency(self):
        # f_ff . (J qdot) == tau_ff . qdot for any map and state
        rng = np.random.default_rng(17)
        maps = [
            PendulumMap(l2=0.07),
            CrankMap(r=0.4),
            TwoDofAffineMap(rng.normal(size=(2, 2)) + 2 * np.eye(2)),
        ]
        for _ in range(10000):
            m = maps[int(rng.integers(len(maps)))]
            if m.ndof == 1:
                q = rng.uniform(-1.0, 1.0)
                qdot = rng.normal()
                tau = rng.normal()
                f = ff_force(m, q, tau)
                power_a = f * (m.jacobian(q) * qdot)
                power_j = tau * qdot
            else:
                q = rng.uniform(-1.0, 1.0, 2)
                qdot = rng.normal(size=2)
                tau = rng.normal(size=2)
                f = ff_force(m, q, tau)
                power_a = f @ (m.jacobian(q) @ qdot)
                power_j = tau @ qdot
            assert power_a == pytest.approx(power_j, rel=1e-9, abs=1e-9)

    def test_jacobian_matches_finite_difference(self):
        rng = np.random.default_rng(18)
        m = CrankMap(r=1.3)
        h = 1e-7
        for _ in range(200):
            q = rng.uniform(-1.2, 1.2)
            fd = (m.forward(q + h) - m.forward(q - h)) / (2 * h)
            assert m.jacobian(q) == pytest.approx(fd, rel=1e-6, abs=1e-8)

    def test_two_dof_diagonal_matches_scalar_map(self):
        scalar = PendulumMap(l2=0.07)
        matrix = TwoDofAffineMap(np.diag([0.07, 0.07]))
        q_a_s, qdot_a_s = actuator_setpoints(scalar, 0.2, -0.3, 0.1)
        q_a_m, qdot_a_m = actuator_setpoints(matrix, [0.2, 0.2], [-0.3, -0.3], [0.1, 0.1])
        assert q_a_m[0] == q_a_s and qdot_a_m[0] == qdot_a_s
        f_s = ff_force(scalar, 0.1, 7.0)
        f_m = ff_force(matrix, [0.1, 0.1], [7.0, 7.0])
        assert f_m[0] == pytest.approx(f_s, rel=1e-12)


class TestConstruction:
    def test_zero_moment_arm_rejected(self):
        with pytest.raises(ValueError):
            PendulumMap(l2=0.0)

    def test_bad_matrix_shapes(self):
        with pytest.raises(ValueError):
            TwoDofAffineMap(np.eye(3))
        with pytest.raises(ValueError):
            TwoDofAffineMap(np.eye(2), offset=(1.0,))
