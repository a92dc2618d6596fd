"""What the disturbance observer buys you on a badly-behaved actuator.

The simulated testbed here is NOT the model the controller believes in:
its denominator coefficients are off by up to 25% and a stiction dead-band
chews on small inputs.  We excite it with an exponential current chirp,
estimate the current-to-force response, and compare against the nominal
model, once with the disturbance blend fully on and once off.

With the blend on, the closed loop is pulled back onto the nominal model
across the observer's bandwidth; with it off, the mismatch is plain.

Run:  python demos/02_dob_nominalization.py   (about 10 s)
"""

from pathlib import Path

import numpy as np

from seactrl.control import nominal_lsea_tf
from seactrl.lti import freq_response, log_grid
from seactrl.plant import PlantConfig, ReferenceSpec, SimScenario, run_scenario
from seactrl.sysid import TimeSeries, empirical_frf, write_frf_csv

OUT = Path("demo_out/02_dob")
OUT.mkdir(parents=True, exist_ok=True)

perturbed = PlantConfig(den_factors=(1.0, 1.2, 0.8, 1.25),
                        stiction_breakaway=0.15,
                        stiction_velocity_deadband=0.5)
grid = log_grid(0.1, 10.0, 12)
reference = freq_response(nominal_lsea_tf(), grid)

print("perturbation: den coefficients x (1.0, 1.2, 0.8, 1.25), stiction on")
for label, gamma in (("on", 1.0), ("off", 0.0)):
    sc = SimScenario(
        reference=ReferenceSpec(kind="current_chirp", amplitude=1.75,
                                f_start=0.05, f_end=15.0),
        duration_s=120.0, plant=perturbed, gamma=gamma,
        controller_hz=1000, reference_hz=200, plant_hz=5000)
    log = run_scenario(sc)
    u_c = log.i_m + gamma * log.d_hat     # excitation before the blend junction
    frf = empirical_frf(TimeSeries(1e-3, u_c), TimeSeries(1e-3, log.f_o), grid)
    dev = np.abs(frf.magnitude_db - reference.magnitude_db)
    write_frf_csv(frf, OUT / f"frf_dob_{label}.csv")
    print(f"\nDOB {label} (gamma = {gamma}):  max deviation from nominal "
          f"= {dev.max():.2f} dB")
    print("   f [Hz]   deviation [dB]")
    for f, d in list(zip(grid, dev))[::4]:
        print(f"   {f:7.3f}  {d:10.3f}")
print(f"\nFRF tables in {OUT}/")
