"""From continuous filters to microcontroller-ready difference equations.

The force-control stack keeps every loop component as a continuous
transfer function and turns it into IIR coefficients at startup with the
Horner-shift bilinear transform.  This walk-through builds the three
components the controller actually runs, discretizes them at 1 kHz,
and shows that the discrete frequency responses sit on top of the
continuous ones through the control band.

Run:  python demos/01_discretize_filters.py
"""

import math
from pathlib import Path

import numpy as np

from seactrl.control import PidConfig, nominal_lsea_tf, pid_transfer_function, q_filter
from seactrl.lti import bilinear_discretize, freq_response, log_grid
from seactrl.sysid import write_frf_csv

OUT = Path("demo_out/01_discretize")
OUT.mkdir(parents=True, exist_ok=True)
T = 1e-3

systems = {
    "inverse_plant_filter": None,  # filled below: Q/P as one rational function
    "nominal_plant": nominal_lsea_tf(),
    "dob_filter": q_filter(2 * math.pi * 25.0),
    "pid": pid_transfer_function(PidConfig.from_gain_row(15.0, 4.0, 2.5, 3.5)),
}
q, pn = systems["dob_filter"], systems["nominal_plant"]
from seactrl.lti import ContinuousTransferFunction  # noqa: E402

systems["inverse_plant_filter"] = ContinuousTransferFunction(
    np.convolve(q.num, pn.den), np.convolve(q.den, pn.num))

grid = log_grid(0.1, 100.0, 50)
print(f"{'system':>22} | {'order':>5} | {'DC s=0':>10} | {'DC z=1':>10} | "
      f"{'max dB err <=40Hz':>17} | {'max deg err':>11}")
for name, tf in systems.items():
    filt = bilinear_discretize(tf, T)
    rc, rd = freq_response(tf, grid), freq_response(filt, grid)
    band = grid <= 40.0
    db_err = np.max(np.abs(rc.magnitude_db - rd.magnitude_db)[band])
    ph_err = np.max(np.abs(rc.phase_deg - rd.phase_deg)[band])
    dc_c = tf.dc_gain()
    dc_d = filt(1.0).real if tf.den[-1] != 0.0 else float("inf")
    print(f"{name:>22} | {tf.order:>5} | {dc_c:>10.5g} | {dc_d:>10.5g} | "
          f"{db_err:>17.4f} | {ph_err:>11.4f}")
    write_frf_csv(rd, OUT / f"discrete_{name}.csv")
    write_frf_csv(rc, OUT / f"continuous_{name}.csv")

print("\nNominal plant coefficients at 1 kHz:")
filt = bilinear_discretize(pn, T)
print("  a_hat =", np.array2string(filt.a_hat, precision=6))
print("  b_hat =", np.array2string(filt.b_hat, precision=6))
print(f"  DC gain at z = 1: {filt(1.0).real:.6f}  (208.8 / 987.0 = {208.8/987.0:.6f})")
print(f"\nFRF tables in {OUT}/ (f_hz, mag_db, phase_deg, coherence)")
