"""Joint-space force control for series-elastic linear actuators.

Modules follow the control stack layer by layer:

- ``lti``: transfer functions, bilinear (Tustin/Horner) discretization,
  IIR execution, frequency responses.
- ``control``: PID+feedforward force controller, disturbance observer with
  gamma blend, virtual impedance, leaky integration.
- ``kinematics``: joint-to-actuator maps (forward, Jacobian,
  inverse-transpose effort mapping).
- ``plant``: deterministic simulator of the elastic actuator testbed and
  the weighted pendulum, with injectable stiction/backlash/coefficient
  perturbations; its scenarios hold the reference signals and check them.
- ``sysid``: chirp signal points, empirical frequency responses (H1),
  rational transfer-function fitting, and the CSV writer.
- ``config``: INI experiment configuration, checked key by key.
- ``experiments``: the named desk-scale experiments and their CSV/summary
  emission.
- ``cli``: the ``seactrl`` command that runs the experiments.
"""

from .lti import (
    ContinuousTransferFunction,
    DiscreteIirFilter,
    FrequencyResponse,
    bilinear_discretize,
    freq_response,
    log_grid,
    taylor_shift,
)

__version__ = "0.1.0"
