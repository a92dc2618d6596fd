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

from .config import ConfigError, write_config
from .control import ImpedanceConfig, LeakyState, PidConfig, leaky_step, nominal_lsea_tf
from .lti import CausalityError, bilinear_discretize, freq_response, log_grid, tustin_gap
from .plant import (
    PendulumConfig,
    PlantConfig,
    ReferenceSpec,
    SimScenario,
    run_scenario,
)
from .sysid import (
    TimeSeries,
    empirical_frf,
    fit_rational,
    linear_chirp_freq_hz,
    segment_length,
    write_csv,
    write_frf_csv,
    zoh_compensate,
)


def _pid_config(cfg: dict) -> PidConfig:
    c = cfg["control"]
    return PidConfig.from_gain_row(c["k_p"], c["k_i"], c["k_d"], c["lambda_c"])


def _pendulum_config(cfg: dict) -> PendulumConfig:
    p = cfg["pendulum"]
    return PendulumConfig(m=p["m"], l1=p["l1"], l2=p["l2"], g=p["g"],
                          damping=p["damping"], theta0=p["theta0"])


# the config key of each reference field that SimScenario.validate may reject
_CHIRP_KEYS = {name: f"scenario.chirp_{name}" for name in ("f_start", "f_end", "omega_o")}


def _base_scenario(cfg: dict, reference: ReferenceSpec, **overrides) -> SimScenario:
    """The configured scenario with ``overrides``, validated; a chirp field
    that ``SimScenario.validate`` rejects is reported under its config key."""
    sn = cfg["scenario"]
    c = cfg["control"]
    kwargs = dict(
        reference=reference,
        duration_s=sn["duration_s"],
        plant=PlantConfig(**cfg["plant"]),
        pid=_pid_config(cfg),
        impedance=ImpedanceConfig(c["k"], c["b"]),
        k_ff=1e-3 * c["k_ff"],
        omega_c=2.0 * math.pi * c["omega_c_hz"],
        gamma=c["gamma"],
        controller_hz=sn["controller_hz"],
        reference_hz=sn["reference_hz"],
        plant_hz=sn["plant_hz"],
    )
    sc = SimScenario(**(kwargs | overrides))
    try:
        sc.validate()
    except ValueError as exc:
        if getattr(exc, "field", None) not in _CHIRP_KEYS:
            raise
        raise ConfigError(_CHIRP_KEYS[exc.field], str(exc)) from None
    return sc


def _tagged(cfg: dict, key: str) -> list[tuple[float, str]]:
    """``scenario.<key>``'s values with the tags that name their files and
    summary keys (0.25 -> 0p25), rejecting a list in which two values share
    a tag: their runs would write the same files."""
    values = cfg["scenario"][key]
    tags = [f"{v:g}".replace(".", "p") for v in values]
    for tag in tags:
        if tags.count(tag) > 1:
            raise ConfigError(f"scenario.{key}", f"{values} has two values tagged {tag!r}")
    return list(zip(values, tags))


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


def _grid(cfg: dict, name: str) -> np.ndarray:
    """The ``sysid.<name>_lo_hz`` to ``sysid.<name>_hi_hz`` grid, ``name``
    being ``grid`` (the FRF CSVs) or ``fit``."""
    s = cfg["sysid"]
    return log_grid(s[f"{name}_lo_hz"], s[f"{name}_hi_hz"], s["points_per_decade"])


def _grid_below_nyquist(cfg: dict, name: str, T: float) -> None:
    """Reject ``sysid.<name>_hi_hz`` when it, or the last point of its grid,
    is at or above the Nyquist rate of samples every ``T`` seconds.

    ``np.logspace`` can round the last point to either side of the key,
    and ``empirical_frf`` reads the FFT bin nearest it, so a key at Nyquist
    whose point rounds below it would read the Nyquist bin.
    """
    key = f"{name}_hi_hz"
    hz = max(cfg["sysid"][key], _grid(cfg, name)[-1])
    if hz >= 0.5 / T:
        raise ConfigError(f"sysid.{key}", f"reaches {hz:.12g} Hz, at or above the Nyquist "
                          f"rate ({0.5 / T:g} Hz) of its {1.0 / T:g} Hz samples")


def _check_segments(cfg: dict, n_samples: int) -> None:
    """Reject a ``sysid.segments`` that an ``n_samples`` record cannot hold."""
    segments = cfg["sysid"]["segments"]
    try:
        segment_length(n_samples, segments)
    except ValueError as exc:
        raise ConfigError("sysid.segments",
                          f"{segments} does not fit a {n_samples}-sample record: {exc}") from None


def _read_record(flag: str, path) -> TimeSeries:
    """``TimeSeries.from_csv`` of a ``fit`` record, a record that cannot be
    read or breaks its rules rejected with the flag that named it."""
    try:
        return TimeSeries.from_csv(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(flag, str(exc)) from None


def _current_chirp(cfg: dict, gamma: float, amplitude: float, grid: str):
    """Run the configured exponential current chirp through the
    (DOB-wrapped) plant; returns the log and its sample period.

    Before the run, a chirp that ``SimScenario.validate`` rejects (through
    ``_base_scenario``, naming its key), a ``grid`` (``_grid``'s name)
    whose key or last point is at or above the controller's Nyquist rate
    (``_grid_below_nyquist``), and a segment count the log cannot hold for
    its H1 estimate are rejected.
    """
    sn = cfg["scenario"]
    sc = _base_scenario(
        cfg,
        ReferenceSpec(kind="current_chirp", amplitude=amplitude,
                      f_start=sn["chirp_f_start"], f_end=sn["chirp_f_end"]),
        gamma=gamma,
    )
    T = 1.0 / sc.controller_hz
    _grid_below_nyquist(cfg, grid, T)
    _check_segments(cfg, int(round(sc.duration_s * sc.controller_hz)))
    return run_scenario(sc), T


def _chirp_frf(cfg: dict, gamma: float, amplitude: float, out: Path, name: str) -> float:
    """Run a current chirp, write its log to ``log_<name>.csv`` and its
    u_c -> f_o response on the configured grid to ``frf_<name>.csv``;
    returns the response's largest deviation from the nominal model, in dB.

    The log is freed before the response is written, so no two logs are
    alive at once.
    """
    log, T = _current_chirp(cfg, gamma, amplitude, "grid")
    log.to_csv(out / f"log_{name}.csv")
    u_c = gamma * log.d_hat
    u_c += log.i_m
    frf = empirical_frf(TimeSeries(T, u_c), TimeSeries(T, log.f_o), _grid(cfg, "grid"),
                        segments=cfg["sysid"]["segments"])
    del log, u_c
    write_frf_csv(frf, out / f"frf_{name}.csv")
    ref = freq_response(nominal_lsea_tf(), frf.freqs_hz)
    return float(np.nanmax(np.abs(frf.magnitude_db - ref.magnitude_db)))


def bode_open_loop(cfg: dict, out_dir) -> dict:
    """Open-loop chirp bode of the simulated testbed at each of
    ``scenario.amplitudes``."""
    amps = _tagged(cfg, "amplitudes")
    out = _prepare_out(cfg, out_dir)
    summary: dict = {"experiment": "bode-open-loop",
                     "amplitudes": list(cfg["scenario"]["amplitudes"])}
    for amp, tag in amps:
        summary[f"max_dev_from_nominal_db_amp{tag}"] = _chirp_frf(
            cfg, 0.0, amp, out, f"amp{tag}")
    _write_summary(out, summary)
    return summary


def dob_verify(cfg: dict, out_dir) -> dict:
    """DOB nominalization check: closed-loop u_c -> f_o FRF with the blend
    on versus off, against the nominal model."""
    out = _prepare_out(cfg, out_dir)
    amp = cfg["scenario"]["amplitude"]
    gamma_on = cfg["control"]["gamma"]
    summary: dict = {"experiment": "dob-verify", "gamma_on": gamma_on}
    for tag, gamma in (("on", gamma_on), ("off", 0.0)):
        summary[f"max_dev_db_dob_{tag}"] = _chirp_frf(cfg, gamma, amp, out, f"dob_{tag}")
    summary["nominalized_within_2db"] = bool(summary["max_dev_db_dob_on"] <= 2.0)
    summary["off_exceeds_2db"] = bool(summary["max_dev_db_dob_off"] > 2.0)
    _write_summary(out, summary)
    return summary


def pid_step(cfg: dict, out_dir) -> dict:
    """Force-step responses across the derivative-gain sweep."""
    kds = _tagged(cfg, "kd_sweep")
    out = _prepare_out(cfg, out_dir)
    sn = cfg["scenario"]
    step_force = sn["step_force"]
    summary: dict = {"experiment": "pid-step", "step_force_n": step_force}
    base_pid = _pid_config(cfg)
    for kd, tag in kds:
        sc = _base_scenario(
            cfg,
            ReferenceSpec(kind="force_step", step_value=step_force,
                          step_time=sn["step_time"]),
            pid=PidConfig(base_pid.k_p, base_pid.k_i, kd, base_pid.lam),
        )
        log = run_scenario(sc)
        log.to_csv(out / f"step_kd{tag}.csv")
        settle = log.f_o[log.t >= 0.75 * sn["duration_s"]]
        summary[f"overshoot_pct_kd{tag}"] = float(
            (np.max(log.f_o) - step_force) / step_force * 100.0)
        del log  # freed before the next scenario runs
        summary[f"late_ripple_n_kd{tag}"] = float(np.ptp(settle))
    _write_summary(out, summary)
    return summary


def leaky_demo(cfg: dict, out_dir) -> dict:
    """Leaky-integration recursions for several alpha values.

    Constant desired acceleration up to ``leaky_input_end``, zero after;
    constant position measurement throughout.
    """
    alphas = _tagged(cfg, "alphas")
    out = _prepare_out(cfg, out_dir)
    sn = cfg["scenario"]
    dt = sn["leaky_dt"]
    n = int(round(sn["leaky_duration"] / dt))
    n_in = int(round(sn["leaky_input_end"] / dt))
    summary: dict = {"experiment": "leaky-demo", "dt": dt}
    for alpha, tag in alphas:
        st = LeakyState(alpha_v=alpha, alpha_p=alpha, dT=dt)
        rows = []
        decay_steps = None
        for k in range(n):
            qddot = sn["leaky_qddot"] if k < n_in else 0.0
            q_bar, qdot_bar = leaky_step(st, qddot, sn["leaky_measured"])
            rows.append((k * dt, qddot, q_bar, qdot_bar))
            if k >= n_in and decay_steps is None and abs(qdot_bar) < 1e-4:
                decay_steps = k + 1 - n_in
        write_csv(out / f"leaky_alpha{tag}.csv", ("t", "qddot_d", "q_bar_d", "qdot_bar_d"),
                  zip(*rows))
        summary[f"velocity_after_input_alpha{tag}"] = rows[n_in][3]
        if decay_steps is not None:
            summary[f"decay_steps_to_1e-4_alpha{tag}"] = decay_steps
    _write_summary(out, summary)
    return summary


# the actuator's band, where the Tustin identity is checked: 40 points over
# 0.1-100 Hz, of which a rate keeps those below a quarter of itself, away
# from the zeros Tustin puts at Nyquist
TUSTIN_CHECK_HZ = np.logspace(-1.0, 2.0, 40)
# largest Tustin identity gap (relative rounding error of the printed
# coefficients, see lti.tustin_gap) that discretize accepts
TUSTIN_GAP_TOL = 1e-6


def discretize_report(cfg: dict, tf_name: str, rate_hz: float) -> dict:
    """Discrete coefficients of one of the stack's transfer functions.

    ``dc_gain_at_z1`` is the continuous DC gain: Tustin maps s = 0 to z = 1
    exactly, while the rounded coefficients move an integrator's pole off
    z = 1.  ``tustin_gap`` is ``lti.tustin_gap`` on the points of
    ``TUSTIN_CHECK_HZ`` below a quarter of the rate (inf when none is).
    Rejected with ``--rate``: a rate that is not positive and finite or
    that the Tustin chain cannot carry, one that overflows or underflows on
    the way, gives non-finite coefficients, or gives a ``tustin_gap`` above
    ``TUSTIN_GAP_TOL``.
    """
    from .control import pid_transfer_function, q_filter

    if not (math.isfinite(rate_hz) and rate_hz > 0.0):
        raise ConfigError("--rate", f"{rate_hz} is not a positive finite rate")
    name = tf_name.lower()
    try:
        with np.errstate(all="raise"):
            if name == "pn":
                tf = nominal_lsea_tf()
            elif name == "qd":
                tf = q_filter(2.0 * math.pi * cfg["control"]["omega_c_hz"])
            elif name == "pid":
                tf = pid_transfer_function(_pid_config(cfg))
            else:
                raise ValueError(f"unknown transfer function {tf_name!r} (pn, qd, pid)")
            filt = bilinear_discretize(tf, 1.0 / rate_hz)
            check_hz = TUSTIN_CHECK_HZ[TUSTIN_CHECK_HZ < 0.25 * rate_hz]
            report = {
                "experiment": "discretize",
                "tf": name,
                "rate_hz": rate_hz,
                "a_hat": filt.a_hat.tolist(),
                "b_hat": filt.b_hat.tolist(),
                "dc_gain_at_z1": float(tf.dc_gain()),
                "tustin_gap": tustin_gap(tf, filt, check_hz) if check_hz.size else math.inf,
            }
    except (FloatingPointError, CausalityError) as exc:
        raise ConfigError("--rate", f"{rate_hz:g} Hz cannot be discretized ({exc})") from None
    if not all(map(math.isfinite, report["a_hat"] + report["b_hat"])):
        raise ConfigError("--rate", f"{rate_hz:g} Hz gives non-finite coefficients")
    if not report["tustin_gap"] <= TUSTIN_GAP_TOL:
        raise ConfigError(
            "--rate", f"{rate_hz:g} Hz gives a Tustin gap of {report['tustin_gap']:.2g} "
            f"(tolerance {TUSTIN_GAP_TOL:g}) on the 0.1-100 Hz check points below a "
            "quarter of the rate (inf: there is none)")
    return report


def pendulum_chirp(cfg: dict, out_dir, dob: str = "both") -> dict:
    """Linear position chirp driving the unmodeled pendulum, DOB on/off.

    The actuator-position tracking error is summarized as RMS over the
    configured instantaneous-frequency band.
    """
    if dob not in ("on", "off", "both"):
        raise ValueError("dob must be 'on', 'off', or 'both'")
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

    runs = {tag: g for tag, g in (("on", gamma_on), ("off", 0.0)) if dob in (tag, "both")}
    # built, and so validated, before anything is written
    scenarios = {tag: _base_scenario(
        cfg,
        ReferenceSpec(kind="position_chirp", amplitude=sn["amplitude"], omega_o=omega_o),
        gamma=gamma,
        pendulum=pend,
        estimate_backlash_m=cfg["pendulum"]["estimate_backlash_m"],
    ) for tag, gamma in runs.items()}
    out = _prepare_out(cfg, out_dir)
    for tag, sc in scenarios.items():
        log = run_scenario(sc)
        log.to_csv(out / f"pendulum_dob_{tag}.csv")
        f_inst = linear_chirp_freq_hz(omega_o, log.t)
        band = (f_inst >= sn["band_lo_hz"]) & (f_inst <= sn["band_hi_hz"])
        err = log.q_bar_a_d[band] - log.q_hat_a_j[band]
        del log  # freed before the next scenario runs
        # the RMS of err * 2**-e, e the exponent of err's peak, scaled back
        # by 2**e: exact, and its square cannot overflow; a run too short to
        # reach the band reports nan rather than a value
        e = int(np.frexp(np.max(np.abs(err), initial=0.0))[1])
        summary[f"rms_pos_err_m_dob_{tag}"] = (
            math.ldexp(float(np.sqrt(np.mean(np.ldexp(err, -e)**2))), e)
            if err.size else float("nan"))
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
        raise ConfigError("--y" if y_csv is None else "--u",
                          "missing: give both --u and --y records, or neither")
    # fit_rational needs two grid bins per unknown; a record whose valid
    # bins fall short still raises FitError
    grid, unknowns = _grid(cfg, "fit"), s["num_order"] + s["den_order"] + 1
    if 2 * unknowns > grid.size:
        raise ConfigError("sysid.den_order", f"{s['den_order']} with sysid.num_order "
                          f"{s['num_order']} fits {unknowns} coefficients, which need "
                          f"{2 * unknowns} bins; the fit grid has {grid.size}")
    if u_csv is not None:
        u = _read_record("--u", u_csv)
        y = _read_record("--y", y_csv)
        if (y.samples.size, y.sample_period) != (u.samples.size, u.sample_period):
            raise ConfigError(
                "--y", f"{y.samples.size} samples every {y.sample_period:g} s, but --u "
                f"has {u.samples.size} every {u.sample_period:g} s")
        _check_segments(cfg, u.samples.size)
        _grid_below_nyquist(cfg, "fit", u.sample_period)
    else:
        log, T = _current_chirp(cfg, cfg["control"]["gamma"], cfg["scenario"]["amplitude"],
                                "fit")
        u = TimeSeries(T, log.i_m)
        y = TimeSeries(T, log.f_o)
        u.to_csv(out / "input.csv")
        y.to_csv(out / "output.csv")

    frf = zoh_compensate(
        empirical_frf(u, y, grid, segments=s["segments"]), u.sample_period)
    write_frf_csv(frf, out / "frf.csv")
    result = fit_rational(frf, s["num_order"], s["den_order"],
                          sk_iterations=s["sk_iterations"])
    num, den = result.tf.num, result.tf.den  # fit_rational's den is monic
    pn = nominal_lsea_tf()
    ref_num = pn.num / pn.den[0]
    ref_den = pn.den / pn.den[0]
    summary = {
        "experiment": "fit",
        "num_monic": num.tolist(),
        "den_monic": den.tolist(),
        "relative_residual": result.relative_residual,
        "condition": result.condition,
        "n_bins": result.n_bins,
    }
    if num.size == ref_num.size and den.size == ref_den.size:
        summary["max_rel_coeff_err_vs_nominal"] = float(max(
            np.max(np.abs(num - ref_num) / np.abs(ref_num)),
            np.max(np.abs(den[1:] - ref_den[1:]) / np.abs(ref_den[1:])),
        ))
    _write_summary(out, summary)
    return summary

