"""Acceptance gate: one check per criterion, each printing a pass/fail line.

Run under pytest (each criterion is a test) or standalone:

    python tests/test_acceptance.py

Criteria with simulation content reuse the named experiment machinery so the
gate exercises the same code paths as the command-line workflows.
"""

import math
import sys
import tempfile
import time

import numpy as np

from oracles import random_stable_tf, tustin_direct
from seactrl.config import load_config
from seactrl.control import (
    PidConfig,
    nominal_lsea_tf,
    pid_transfer_function,
    q_filter,
)
from seactrl.experiments import dob_verify, fit_experiment, pendulum_chirp
from seactrl.kinematics import PendulumMap, TwoDofAffineMap, ff_force
from seactrl.lti import (
    bilinear_discretize,
    bilinear_num_den,
    butterworth_lowpass,
    freq_response,
    log_grid,
)
from seactrl.plant import free_oscillation_frequency

RESULTS = []


def report(number, description, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description} ({detail})"
    RESULTS.append((number, ok, line))
    print(line)
    assert ok, line


def criterion_1():
    """Discretization fidelity for Pn, Qd, C at 1 kHz up to 40 Hz."""
    start = time.perf_counter()
    T = 1e-3
    systems = {
        "Pn": nominal_lsea_tf(),
        "Qd": q_filter(2 * math.pi * 25.0),
        "C": pid_transfer_function(PidConfig.from_gain_row(15.0, 4.0, 2.5, 3.5)),
    }
    grid = log_grid(0.1, 40.0, 100)
    worst_db = worst_deg = 0.0
    for tf in systems.values():
        rc = freq_response(tf, grid)
        rd = freq_response(bilinear_discretize(tf, T), grid)
        worst_db = max(worst_db, float(np.max(np.abs(rc.magnitude_db - rd.magnitude_db))))
        worst_deg = max(worst_deg, float(np.max(np.abs(rc.phase_deg - rd.phase_deg))))
    elapsed = time.perf_counter() - start
    ok = worst_db <= 0.5 and worst_deg <= 2.0 and elapsed < 1.0
    return ok, f"max {worst_db:.3f} dB, {worst_deg:.3f} deg over 0.1-40 Hz, {elapsed:.2f}s"


def criterion_2():
    """Q-filter anchors: unity DC exactly, half gain at the cutoff to 1e-9."""
    wc = 2 * math.pi * 25.0
    q = q_filter(wc)
    dc = q.dc_gain()
    cut_err = abs(abs(q(1j * wc)) - 0.5)
    ok = dc == 1.0 and cut_err <= 1e-9
    return ok, f"|Q(j0)| = {dc}, ||Q(j wc)| - 0.5| = {cut_err:.2e}"


def criterion_3(workdir):
    """DOB nominalization: on within 2 dB of Pn over 0.1-10 Hz, off beyond."""
    start = time.perf_counter()
    summary = dob_verify(load_config("dob-verify"), workdir)
    elapsed = time.perf_counter() - start
    on, off = summary["max_dev_db_dob_on"], summary["max_dev_db_dob_off"]
    ok = on <= 2.0 and off > 2.0 and elapsed < 30.0
    return ok, f"gamma=1 dev {on:.2f} dB, gamma=0 dev {off:.2f} dB, {elapsed:.1f}s"


def criterion_4(workdir):
    """Pendulum: 0.87 Hz natural frequency; DOB halves chirp tracking error."""
    start = time.perf_counter()
    f_n = free_oscillation_frequency(theta0=0.1, m=10.0, l1=0.33, g=9.81)
    summary = pendulum_chirp(load_config("pendulum-chirp"), workdir, dob="both")
    elapsed = time.perf_counter() - start
    ratio = summary["rms_ratio_on_over_off"]
    ok = abs(f_n - 0.87) <= 0.01 and ratio <= 0.5 and elapsed < 60.0
    return ok, (f"f_n = {f_n:.4f} Hz, band RMS on/off = {ratio:.3f} "
                f"({summary['rms_pos_err_m_dob_on'] * 1e3:.2f} / "
                f"{summary['rms_pos_err_m_dob_off'] * 1e3:.2f} mm), {elapsed:.1f}s")


def criterion_5():
    """Leaky integration against the exact recursion oracle."""
    from seactrl.control import LeakyState, leaky_step

    # alpha = 0: velocity integrates to 25 dT and winds up
    st = LeakyState(alpha_v=0.0, alpha_p=0.0, dT=0.001)
    oracle_v = 0.0
    for k in range(50):
        qddot = 1.0 if k < 25 else 0.0
        leaky_step(st, qddot, 0.1)
        if k == 24:
            for _ in range(25):
                oracle_v = 1.0 * 0.001 + oracle_v
            windup_exact = st.qdot_bar_d == oracle_v
    held = st.qdot_bar_d == oracle_v and abs(oracle_v - 0.025) < 1e-12

    # alpha_p = 1: position setpoint equals the measurement plus the velocity term
    st2 = LeakyState(alpha_v=0.0, alpha_p=1.0, dT=0.001)
    snap = True
    v = 0.0
    for k in range(10):
        q_got, v_new = leaky_step(st2, 0.5, 0.1)
        snap &= q_got == 0.1 + v * 0.001  # pre-update velocity
        v = v_new

    # alpha = 0.75: post-input velocity decays below 1e-4 within 40 steps,
    # geometrically at 0.25 per step
    st3 = LeakyState(alpha_v=0.75, alpha_p=0.75, dT=0.001)
    for k in range(25):
        leaky_step(st3, 1.0, 0.1)
    v0 = st3.qdot_bar_d
    steps = 0
    geometric = True
    while abs(st3.qdot_bar_d) >= 1e-4 and steps <= 40:
        prev = st3.qdot_bar_d
        leaky_step(st3, 0.0, 0.1)
        geometric &= st3.qdot_bar_d == 0.25 * prev
        steps += 1
    decayed = steps <= 40

    ok = windup_exact and held and snap and decayed and geometric
    return ok, (f"windup exact at {oracle_v:.6g}, snap exact, "
                f"decay from {v0:.3g} in {steps} steps")


def criterion_6():
    """Bilinear oracle: trapezoid, random Tustin equivalence, Butterworth poles."""
    from seactrl.lti import ContinuousTransferFunction

    start = time.perf_counter()
    filt = bilinear_discretize(ContinuousTransferFunction([1.0], [1.0, 0.0]), 0.002)
    trapezoid = (np.allclose(filt.a_hat, [0.001, 0.001], rtol=0, atol=1e-18)
                 and np.allclose(filt.b_hat, [1.0], rtol=0, atol=1e-15)
                 and filt.step(1.0) == 0.001 and filt.step(1.0) == 0.003)

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        tf = random_stable_tf(rng, max_order=4)
        T = 10.0 ** rng.uniform(-4, -2)
        zn, zd = bilinear_num_den(tf, T)
        on, od = tustin_direct(tf.num, tf.den, T)
        worst = max(worst,
                    float(np.max(np.abs(zn - on)) / max(1.0, np.max(np.abs(on)))),
                    float(np.max(np.abs(zd - od)) / np.max(np.abs(od))))

    bw = bilinear_discretize(butterworth_lowpass(8, 25.0), 1e-3)
    max_pole = float(np.max(np.abs(bw.poles())))
    elapsed = time.perf_counter() - start
    ok = trapezoid and worst <= 1e-9 and max_pole < 1.0 and elapsed < 5.0
    return ok, (f"trapezoid exact, Tustin match {worst:.1e}, "
                f"max pole radius {max_pole:.6f}, {elapsed:.1f}s")


def criterion_7():
    """Rational PID vs independent time-domain P/I/filtered-D oracle."""
    start = time.perf_counter()
    T = 1e-3
    cfg = PidConfig.from_gain_row(15.0, 4.0, 2.5, 3.5)
    filt = bilinear_discretize(pid_transfer_function(cfg), T)
    integ = e_prev = d_prev = 0.0
    rng = np.random.default_rng(42)
    worst = peak = 0.0
    for e in rng.normal(size=1000):
        integ += 0.5 * T * (e + e_prev)
        d = ((2.0 - cfg.lam * T) * d_prev + 2.0 * cfg.lam * (e - e_prev)) / (2.0 + cfg.lam * T)
        oracle = cfg.k_p * e + cfg.k_i * integ + cfg.k_d * d
        d_prev, e_prev = d, e
        worst = max(worst, abs(filt.step(float(e)) - oracle))
        peak = max(peak, abs(oracle))
    elapsed = time.perf_counter() - start
    rel = worst / peak
    ok = rel <= 1e-6 and elapsed < 1.0
    return ok, f"max relative deviation {rel:.2e} over 1000 steps, {elapsed:.2f}s"


def criterion_8(workdir):
    """Identification round trip recovers the nominal model within 1%."""
    start = time.perf_counter()
    summary = fit_experiment(load_config("fit"), workdir)
    elapsed = time.perf_counter() - start
    err = summary["max_rel_coeff_err_vs_nominal"]
    ok = err <= 0.01 and elapsed < 30.0
    return ok, f"max coefficient error {err * 100:.3f}%, {elapsed:.1f}s"


def criterion_9():
    """Kinematics: power consistency to 1e-9; static-hold force ~46.2 N."""
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    maps = [PendulumMap(l2=0.07),
            TwoDofAffineMap(rng.normal(size=(2, 2)) + 2 * np.eye(2))]
    worst = 0.0
    for _ in range(10000):
        m = maps[int(rng.integers(2))]
        if m.ndof == 1:
            q, qdot, tau = rng.uniform(-1, 1), rng.normal(), rng.normal()
            f = ff_force(m, q, tau)
            worst = max(worst, abs(f * m.jacobian(q) * qdot - tau * qdot))
        else:
            q = rng.uniform(-1, 1, 2)
            qdot, tau = rng.normal(size=2), rng.normal(size=2)
            f = ff_force(m, q, tau)
            worst = max(worst, abs(f @ (m.jacobian(q) @ qdot) - tau @ qdot))
    f_hold = 10.0 * 9.81 * 0.33 * math.sin(0.1) / 0.07
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and abs(f_hold - 46.2) < 0.05 and elapsed < 1.0
    return ok, f"worst power mismatch {worst:.1e}, hold force {f_hold:.2f} N, {elapsed:.2f}s"


def test_criterion_1_discretization_fidelity():
    ok, detail = criterion_1()
    report(1, "discretization fidelity (Pn, Qd, C at 1 kHz, <=40 Hz)", ok, detail)


def test_criterion_2_q_filter_anchors():
    ok, detail = criterion_2()
    report(2, "Q-filter anchor values", ok, detail)


def test_criterion_3_dob_nominalization(tmp_path):
    ok, detail = criterion_3(tmp_path)
    report(3, "DOB nominalization on perturbed sticky plant", ok, detail)


def test_criterion_4_pendulum_experiment(tmp_path):
    ok, detail = criterion_4(tmp_path)
    report(4, "pendulum natural frequency and chirp tracking", ok, detail)


def test_criterion_5_leaky_integration():
    ok, detail = criterion_5()
    report(5, "leaky integration exact recursions", ok, detail)


def test_criterion_6_bilinear_oracle():
    ok, detail = criterion_6()
    report(6, "bilinear transform oracle", ok, detail)


def test_criterion_7_pid_equivalence():
    ok, detail = criterion_7()
    report(7, "PID rational form vs time-domain oracle", ok, detail)


def test_criterion_8_identification_round_trip(tmp_path):
    ok, detail = criterion_8(tmp_path)
    report(8, "identification round trip", ok, detail)


def test_criterion_9_kinematics():
    ok, detail = criterion_9()
    report(9, "kinematics power consistency and static hold", ok, detail)


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        checks = [
            (1, "discretization fidelity (Pn, Qd, C at 1 kHz, <=40 Hz)", criterion_1, ()),
            (2, "Q-filter anchor values", criterion_2, ()),
            (3, "DOB nominalization on perturbed sticky plant", criterion_3, (f"{tmp}/c3",)),
            (4, "pendulum natural frequency and chirp tracking", criterion_4, (f"{tmp}/c4",)),
            (5, "leaky integration exact recursions", criterion_5, ()),
            (6, "bilinear transform oracle", criterion_6, ()),
            (7, "PID rational form vs time-domain oracle", criterion_7, ()),
            (8, "identification round trip", criterion_8, (f"{tmp}/c8",)),
            (9, "kinematics power consistency and static hold", criterion_9, ()),
        ]
        for number, description, fn, args in checks:
            try:
                ok, detail = fn(*args)
            except AssertionError:
                raise
            except Exception as exc:  # a crash is a failure, keep going
                ok, detail = False, f"raised {type(exc).__name__}: {exc}"
            line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description} ({detail})"
            print(line)
            failures += 0 if ok else 1
    print(f"{9 - failures}/9 criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
