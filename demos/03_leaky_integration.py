"""Why desired accelerations are integrated with a leak.

Setpoint generation integrates the planner's desired accelerations into
position and velocity setpoints.  A plain integrator winds up: command one
unit of acceleration for 25 ms and the velocity setpoint stays there
forever.  The leaky form biases the velocity toward zero and the position
toward the measured value, trading a little tracking for bounded setpoints.

This demo replays the canonical picture: acceleration = 1 for the first
25 ms, zero afterwards, measured position pinned at 0.1, step time 1 ms.

Run:  python demos/03_leaky_integration.py
"""

from pathlib import Path

from seactrl.control import LeakyState, leaky_step
from seactrl.sysid import write_csv

OUT = Path("demo_out/03_leaky")
OUT.mkdir(parents=True, exist_ok=True)

DT = 0.001
STEPS = 50
INPUT_STEPS = 25

print(f"{'alpha':>6} | {'v after input':>13} | {'v at 50 ms':>11} | {'q at 50 ms':>11}")
for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
    st = LeakyState(alpha_v=alpha, alpha_p=alpha, dT=DT)
    rows = []
    v_after = None
    for k in range(STEPS):
        qddot = 1.0 if k < INPUT_STEPS else 0.0
        q, v = leaky_step(st, qddot, 0.1)
        rows.append((k * DT, qddot, q, v))
        if k == INPUT_STEPS - 1:
            v_after = v
    tag = f"{alpha:g}".replace(".", "p")
    write_csv(OUT / f"alpha_{tag}.csv", ("t", "qddot_d", "q_bar_d", "qdot_bar_d"), zip(*rows))
    print(f"{alpha:>6} | {v_after:>13.6f} | {rows[-1][3]:>11.2e} | {rows[-1][2]:>11.6f}")

print("\nalpha = 0 keeps the velocity at 0.025 after the input stops (windup);")
print("alpha > 0 leaks it away geometrically and pulls the position toward 0.1.")
print(f"Time series in {OUT}/")
