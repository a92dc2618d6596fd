"""Named desk-scale experiments and their CSV/report emission.

Each experiment mirrors one workflow from the testbed campaign: open-loop
bode sweeps at several amplitudes, the DOB on/off nominalization
comparison, derivative-gain step sweeps, the leaky-integration demo,
coefficient discretization reports, the unmodeled-pendulum chirp, and the
identification round trip.  Experiments write CSV logs plus a flat
``summary.txt``; plots are offline artifacts, CSV is the contract.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .config import write_config
from .control import ImpedanceConfig, LeakyState, PidConfig, leaky_step
from .lti import bilinear_discretize, freq_response, log_grid
from .plant import (
    PendulumConfig,
    PlantConfig,
    ReferenceSpec,
    SimScenario,
    nominal_lsea_tf,
    run_scenario,
)
from .sysid import (
    TimeSeries,
    empirical_frf,
    fit_rational,
    write_csv,
    write_frf_csv,
    zoh_compensate,
)


def _pid_config(cfg: dict) -> PidConfig:
    c = cfg["control"]
    lam = c["lambda_direct"] if c["lambda_direct"] > 0.0 else 1e-3 * c["lambda_c"]
    return PidConfig(c["k_p"], c["k_i"], c["k_d"], lam)


def _plant_config(cfg: dict) -> PlantConfig:
    p = cfg["plant"]
    return PlantConfig(
        den_factors=tuple(p["den_factors"]),
        gain_factor=p["gain_factor"],
        stiction_breakaway=p["stiction_breakaway"],
        stiction_velocity_deadband=p["stiction_velocity_deadband"],
        backlash=p["backlash"],
    )


def _pendulum_config(cfg: dict) -> PendulumConfig:
    p = cfg["pendulum"]
    return PendulumConfig(m=p["m"], l1=p["l1"], l2=p["l2"], g=p["g"],
                          damping=p["damping"], theta0=p["theta0"])


def _base_scenario(cfg: dict, reference: ReferenceSpec, **overrides) -> SimScenario:
    sn = cfg["scenario"]
    c = cfg["control"]
    kwargs = dict(
        reference=reference,
        duration_s=sn["duration_s"],
        plant=_plant_config(cfg),
        pid=_pid_config(cfg),
        impedance=ImpedanceConfig(c["k"], c["b"]),
        k_ff=c["k_ff"] * c["ff_current_scale"],
        omega_c=2.0 * math.pi * c["omega_c_hz"],
        gamma=c["gamma"],
        controller_hz=sn["controller_hz"],
        reference_hz=sn["reference_hz"],
        plant_hz=sn["plant_hz"],
    )
    kwargs.update(overrides)
    return SimScenario(**kwargs)


def _prepare_out(cfg: dict, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_config(cfg, out / "effective_config.ini")
    return out


def _write_summary(out: Path, summary: dict) -> None:
    with open(out / "summary.txt", "w") as fh:
        for key in sorted(summary):
            value = summary[key]
            if isinstance(value, float):
                fh.write(f"{key} = {value:.9g}\n")
            else:
                fh.write(f"{key} = {value}\n")


def _grid(cfg: dict) -> np.ndarray:
    s = cfg["sysid"]
    return log_grid(s["grid_lo_hz"], s["grid_hi_hz"], s["points_per_decade"])


def _chirp_frf(cfg: dict, gamma: float, amplitude: float):
    """Run a current chirp through the (DOB-wrapped) plant and estimate the
    u_c -> f_o response on the configured grid."""
    sn = cfg["scenario"]
    sc = _base_scenario(
        cfg,
        ReferenceSpec(kind="current_chirp", amplitude=amplitude,
                      f_start=sn["chirp_f_start"], f_end=sn["chirp_f_end"]),
        gamma=gamma,
    )
    log = run_scenario(sc)
    T = 1.0 / sc.controller_hz
    u_c = log.i_m + gamma * log.d_hat
    frf = empirical_frf(TimeSeries(T, u_c), TimeSeries(T, log.f_o), _grid(cfg),
                        segments=cfg["sysid"]["segments"])
    return frf, log


def _max_deviation_db(frf, reference_tf) -> float:
    ref = freq_response(reference_tf, frf.freqs_hz)
    dev = np.abs(frf.magnitude_db - ref.magnitude_db)
    return float(np.nanmax(dev))


def bode_open_loop(cfg: dict, out_dir, amplitudes=None) -> dict:
    """Open-loop chirp bode of the simulated testbed at several amplitudes."""
    out = _prepare_out(cfg, out_dir)
    amps = tuple(amplitudes) if amplitudes else tuple(cfg["scenario"]["amplitudes"])
    summary: dict = {"experiment": "bode-open-loop", "amplitudes": list(amps)}
    pn = nominal_lsea_tf()
    for amp in amps:
        frf, log = _chirp_frf(cfg, gamma=0.0, amplitude=amp)
        tag = f"{amp:g}".replace(".", "p")
        write_frf_csv(frf, out / f"frf_amp{tag}.csv")
        log.to_csv(out / f"log_amp{tag}.csv")
        summary[f"max_dev_from_nominal_db_amp{tag}"] = _max_deviation_db(frf, pn)
    _write_summary(out, summary)
    return summary


def dob_verify(cfg: dict, out_dir) -> dict:
    """DOB nominalization check: closed-loop u_c -> f_o FRF with the blend
    on versus off, against the nominal model."""
    out = _prepare_out(cfg, out_dir)
    amp = cfg["scenario"]["amplitude"]
    gamma_on = cfg["control"]["gamma"]
    pn = nominal_lsea_tf()
    summary: dict = {"experiment": "dob-verify", "gamma_on": gamma_on}
    for tag, gamma in (("on", gamma_on), ("off", 0.0)):
        frf, log = _chirp_frf(cfg, gamma=gamma, amplitude=amp)
        write_frf_csv(frf, out / f"frf_dob_{tag}.csv")
        log.to_csv(out / f"log_dob_{tag}.csv")
        summary[f"max_dev_db_dob_{tag}"] = _max_deviation_db(frf, pn)
    summary["nominalized_within_2db"] = bool(summary["max_dev_db_dob_on"] <= 2.0)
    summary["off_exceeds_2db"] = bool(summary["max_dev_db_dob_off"] > 2.0)
    _write_summary(out, summary)
    return summary


def pid_step(cfg: dict, out_dir) -> dict:
    """Force-step responses across the derivative-gain sweep."""
    out = _prepare_out(cfg, out_dir)
    sn = cfg["scenario"]
    step_force = sn["step_force"]
    summary: dict = {"experiment": "pid-step", "step_force_n": step_force}
    base_pid = _pid_config(cfg)
    for kd in sn["kd_sweep"]:
        sc = _base_scenario(
            cfg,
            ReferenceSpec(kind="force_step", step_value=step_force,
                          step_time=sn["step_time"]),
            pid=PidConfig(base_pid.k_p, base_pid.k_i, kd, base_pid.lam),
        )
        log = run_scenario(sc)
        tag = f"{kd:g}".replace(".", "p")
        log.to_csv(out / f"step_kd{tag}.csv")
        settle = log.f_o[log.t >= 0.75 * sn["duration_s"]]
        summary[f"overshoot_pct_kd{tag}"] = float(
            (np.max(log.f_o) - step_force) / step_force * 100.0)
        summary[f"late_ripple_n_kd{tag}"] = float(np.ptp(settle))
    _write_summary(out, summary)
    return summary


def leaky_demo(cfg: dict, out_dir) -> dict:
    """Leaky-integration recursions for several alpha values.

    Constant desired acceleration up to ``leaky_input_end``, zero after;
    constant position measurement throughout.
    """
    out = _prepare_out(cfg, out_dir)
    sn = cfg["scenario"]
    dt = sn["leaky_dt"]
    n = int(round(sn["leaky_duration"] / dt))
    n_in = int(round(sn["leaky_input_end"] / dt))
    summary: dict = {"experiment": "leaky-demo", "dt": dt}
    for alpha in sn["alphas"]:
        st = LeakyState(alpha_v=alpha, alpha_p=alpha, dT=dt)
        rows = []
        decay_steps = None
        for k in range(n):
            qddot = sn["leaky_qddot"] if k < n_in else 0.0
            q_bar, qdot_bar = leaky_step(st, qddot, sn["leaky_measured"])
            rows.append((k * dt, qddot, q_bar, qdot_bar))
            if k >= n_in and decay_steps is None and abs(qdot_bar) < 1e-4:
                decay_steps = k + 1 - n_in
        tag = f"{alpha:g}".replace(".", "p")
        write_csv(out / f"leaky_alpha{tag}.csv", ("t", "qddot_d", "q_bar_d", "qdot_bar_d"),
                  zip(*rows))
        summary[f"velocity_after_input_alpha{tag}"] = rows[n_in][3]
        if decay_steps is not None:
            summary[f"decay_steps_to_1e-4_alpha{tag}"] = decay_steps
    _write_summary(out, summary)
    return summary


def discretize_report(cfg: dict, tf_name: str, rate_hz: float) -> dict:
    """Discrete coefficients of one of the stack's transfer functions."""
    from .control import pid_transfer_function, q_filter

    if rate_hz <= 0:
        raise ValueError("rate must be positive")
    name = tf_name.lower()
    if name == "pn":
        tf = nominal_lsea_tf()
    elif name == "qd":
        tf = q_filter(2.0 * math.pi * cfg["control"]["omega_c_hz"])
    elif name == "pid":
        tf = pid_transfer_function(_pid_config(cfg))
    else:
        raise ValueError(f"unknown transfer function {tf_name!r} (pn, qd, pid)")
    filt = bilinear_discretize(tf, 1.0 / rate_hz)
    return {
        "experiment": "discretize",
        "tf": name,
        "rate_hz": rate_hz,
        "a_hat": filt.a_hat.tolist(),
        "b_hat": filt.b_hat.tolist(),
        "dc_gain_at_z1": float(filt(1.0).real),
    }


def pendulum_chirp(cfg: dict, out_dir, dob: str = "both") -> dict:
    """Linear position chirp driving the unmodeled pendulum, DOB on/off.

    The actuator-position tracking error is summarized as RMS over the
    configured instantaneous-frequency band.
    """
    if dob not in ("on", "off", "both"):
        raise ValueError("dob must be 'on', 'off', or 'both'")
    out = _prepare_out(cfg, out_dir)
    sn = cfg["scenario"]
    pend = _pendulum_config(cfg)
    omega_o = sn["chirp_omega_o"]
    gamma_on = cfg["control"]["gamma"]
    f_n = math.sqrt(pend.g / pend.l1) / (2.0 * math.pi)
    summary: dict = {
        "experiment": "pendulum-chirp",
        "natural_freq_hz": f_n,
        "crossing_time_s": math.pi * f_n / omega_o,
        "band_lo_hz": sn["band_lo_hz"],
        "band_hi_hz": sn["band_hi_hz"],
    }

    runs = {"on": gamma_on, "off": 0.0} if dob == "both" else \
        {dob: gamma_on if dob == "on" else 0.0}
    for tag, gamma in runs.items():
        sc = _base_scenario(
            cfg,
            ReferenceSpec(kind="position_chirp", amplitude=sn["amplitude"],
                          omega_o=omega_o),
            gamma=gamma,
            pendulum=pend,
            estimate_backlash_m=cfg["pendulum"]["estimate_backlash_m"],
        )
        log = run_scenario(sc)
        log.to_csv(out / f"pendulum_dob_{tag}.csv")
        f_inst = omega_o * log.t / math.pi
        band = (f_inst >= sn["band_lo_hz"]) & (f_inst <= sn["band_hi_hz"])
        err = log.q_bar_a_d[band] - log.q_hat_a_j[band]
        # a run too short to reach the band reports nan rather than a value
        summary[f"rms_pos_err_m_dob_{tag}"] = (
            float(np.sqrt(np.mean(err**2))) if err.size else float("nan"))
    if dob == "both":
        summary["rms_ratio_on_over_off"] = (
            summary["rms_pos_err_m_dob_on"] / summary["rms_pos_err_m_dob_off"])
    _write_summary(out, summary)
    return summary


def fit_experiment(cfg: dict, out_dir, u_csv=None, y_csv=None) -> dict:
    """Identification round trip: chirp record -> H1 FRF -> rational fit.

    Without input records, a chirp is run through the configured simulated
    plant first.  The hold response of the sampled loop is compensated
    before fitting the continuous-time model.
    """
    out = _prepare_out(cfg, out_dir)
    s = cfg["sysid"]
    if (u_csv is None) != (y_csv is None):
        raise ValueError("provide both --u and --y records, or neither")
    if u_csv is not None:
        u = TimeSeries.from_csv(u_csv)
        y = TimeSeries.from_csv(y_csv)
    else:
        sn = cfg["scenario"]
        sc = _base_scenario(
            cfg,
            ReferenceSpec(kind="current_chirp", amplitude=sn["amplitude"],
                          f_start=sn["chirp_f_start"], f_end=sn["chirp_f_end"]),
            gamma=cfg["control"]["gamma"],
        )
        log = run_scenario(sc)
        T = 1.0 / sc.controller_hz
        u = TimeSeries(T, log.i_m)
        y = TimeSeries(T, log.f_o)
        u.to_csv(out / "input.csv")
        y.to_csv(out / "output.csv")

    grid = log_grid(s["fit_lo_hz"], s["fit_hi_hz"], s["points_per_decade"])
    frf = zoh_compensate(
        empirical_frf(u, y, grid, segments=s["segments"]), u.sample_period)
    write_frf_csv(frf, out / "frf.csv")
    result = fit_rational(frf, s["num_order"], s["den_order"],
                          sk_iterations=s["sk_iterations"])
    monic_num = result.tf.num / result.tf.den[0]
    monic_den = result.tf.den / result.tf.den[0]
    pn = nominal_lsea_tf()
    ref_num = pn.num / pn.den[0]
    ref_den = pn.den / pn.den[0]
    max_rel = 0.0
    if monic_num.size == ref_num.size and monic_den.size == ref_den.size:
        max_rel = float(max(
            np.max(np.abs(monic_num - ref_num) / np.abs(ref_num)),
            np.max(np.abs(monic_den[1:] - ref_den[1:]) / np.abs(ref_den[1:])),
        ))
        summary_extra = {"max_rel_coeff_err_vs_nominal": max_rel}
    else:
        summary_extra = {}
    summary = {
        "experiment": "fit",
        "num_monic": monic_num.tolist(),
        "den_monic": monic_den.tolist(),
        "relative_residual": result.relative_residual,
        "condition": result.condition,
        "n_bins": result.n_bins,
        **summary_extra,
    }
    _write_summary(out, summary)
    return summary

