"""Experiment configuration: flat INI files with sections per module.

Defaults are layered: package baseline, then per-experiment defaults, then
the user's file.  Each quantity is set by one key, whose type and sign rule
its ``_SCHEMA`` entry states.  Unknown sections or keys, and values that
parse but cannot run (after layering), are rejected with the offending
``section.key`` path.  This module holds the schema and the rules on the
values and the constants formed from them; a first tick that cannot run
is rejected where the scenario is built, at ``experiments._base_scenario``,
which runs the tick's own first step.  The fully resolved configuration is
echoed into each experiment's output directory so a run can be reproduced
from it exactly.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

from .control import NOMINAL_DEN, NOMINAL_NUM
from .kinematics import DET_TOL

__all__ = ["ConfigError", "EXPERIMENTS", "load_config", "write_config"]


class ConfigError(ValueError):
    """Invalid configuration; ``keypath`` names the offending entry."""

    def __init__(self, keypath: str, message: str):
        super().__init__(f"{keypath}: {message}")
        self.keypath = keypath


# key -> (type tag, baseline default).  A tag is "float", "int" or "floats"
# (one or more values), with an optional sign rule every value must meet:
# ">0" positive, ">=0" non-negative.  Gain keys follow the gain table's
# column names and units: the derivative pole is 1e-3 * lambda_c rad/s, and
# the feedforward current 1e-3 * k_ff A per unit force.
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "control": {
        "k": ("float >=0", 40.0),
        "b": ("float >=0", 5.0),
        "k_ff": ("float", 3.2),
        "k_p": ("float >=0", 2.0),
        "k_i": ("float >=0", 4.0),
        "k_d": ("float >=0", 0.0),
        "lambda_c": ("float >0", 3.5),
        "gamma": ("float", 1.0),
        "omega_c_hz": ("float", 25.0),
    },
    "plant": {
        "den_factors": ("floats >0", (1.0, 1.2, 0.8, 1.25)),
        "gain_factor": ("float >0", 1.0),
        "stiction_breakaway": ("float >=0", 0.15),
        "stiction_velocity_deadband": ("float >=0", 0.5),
        "backlash": ("float >=0", 0.0),
    },
    "pendulum": {
        "m": ("float >0", 10.0),
        "l1": ("float >0", 0.33),
        "l2": ("float >0", 0.07),
        "g": ("float >=0", 9.81),
        "damping": ("float >=0", 0.05),
        "theta0": ("float", 0.0),
        "estimate_backlash_m": ("float >=0", 0.0),
    },
    "scenario": {
        "controller_hz": ("int >0", 1000),
        "reference_hz": ("int >0", 200),
        "plant_hz": ("int >0", 20000),
        "duration_s": ("float >0", 10.0),
        "amplitude": ("float >0", 1.0),
        "chirp_omega_o": ("float >0", 0.427),
        "chirp_f_start": ("float >0", 0.05),
        "chirp_f_end": ("float >0", 15.0),
        "step_force": ("float >0", 500.0),
        "step_time": ("float", 0.1),
        "band_lo_hz": ("float", 0.5),
        "band_hi_hz": ("float", 1.2),
        "kd_sweep": ("floats >=0", (0.0, 0.25, 0.5, 1.0)),
        "alphas": ("floats", (0.0, 0.25, 0.5, 0.75, 1.0)),
        "amplitudes": ("floats >0", (1.0, 1.5, 1.75)),
        "leaky_dt": ("float >0", 0.001),
        "leaky_qddot": ("float", 1.0),
        "leaky_input_end": ("float", 0.025),
        "leaky_duration": ("float", 0.05),
        "leaky_measured": ("float", 0.1),
    },
    "sysid": {
        "segments": ("int >0", 8),
        "grid_lo_hz": ("float >0", 0.1),
        "grid_hi_hz": ("float", 10.0),
        "points_per_decade": ("int >0", 20),
        "fit_lo_hz": ("float >0", 0.2),
        "fit_hi_hz": ("float", 30.0),
        "num_order": ("int >=0", 0),
        "den_order": ("int >=0", 3),
        "sk_iterations": ("int >=0", 0),
    },
}

# the feedforward that inverts the nominal model's DC gain, in the gain
# table's milliamps per unit force; used by the loop-closing experiments
_K_FF_CALIBRATED = 1e3 * (NOMINAL_DEN[-1] / NOMINAL_NUM[0])


EXPERIMENTS: dict[str, dict[tuple[str, str], object]] = {
    "bode-open-loop": {
        ("scenario", "duration_s"): 120.0,
        ("scenario", "plant_hz"): 5000,
        ("control", "gamma"): 0.0,
    },
    "dob-verify": {
        ("scenario", "duration_s"): 120.0,
        ("scenario", "plant_hz"): 5000,
        ("scenario", "amplitude"): 1.75,
        ("control", "gamma"): 1.0,
    },
    "pid-step": {
        ("scenario", "duration_s"): 2.0,
        ("scenario", "plant_hz"): 5000,
        ("control", "lambda_c"): 3500.0,
        ("control", "k_ff"): _K_FF_CALIBRATED,
    },
    "leaky-demo": {},
    "discretize": {},
    "pendulum-chirp": {
        ("scenario", "duration_s"): 12.8,
        ("scenario", "amplitude"): 0.1,
        ("plant", "stiction_breakaway"): 150.0,
        ("plant", "stiction_velocity_deadband"): 500.0,
        ("control", "k_ff"): _K_FF_CALIBRATED,
    },
    "fit": {
        ("scenario", "duration_s"): 120.0,
        ("scenario", "plant_hz"): 1000,
        ("scenario", "amplitude"): 1.5,
        ("scenario", "chirp_f_end"): 35.0,
        ("plant", "den_factors"): (1.0, 1.0, 1.0, 1.0),
        ("plant", "stiction_breakaway"): 0.0,
        ("control", "gamma"): 0.0,
    },
}


def _parse(section: str, key: str, raw: str):
    kind = _SCHEMA[section][key][0].partition(" ")[0]
    path = f"{section}.{key}"
    try:
        if kind == "floats":
            values = tuple(float(tok) for tok in raw.replace(",", " ").split())
        else:
            values = (float(raw),)
    except ValueError as exc:
        raise ConfigError(path, f"cannot parse {raw!r} ({exc})") from None
    if not values:
        raise ConfigError(path, f"{raw!r} has no values")
    if not all(map(math.isfinite, values)):
        raise ConfigError(path, f"{raw!r} is not finite")
    if kind == "floats":
        return values
    if kind == "float":
        return values[0]
    if values[0] != int(values[0]):
        raise ConfigError(path, f"cannot parse {raw!r} (not an integer)")
    return int(values[0])


def load_config(experiment: str, path: str | Path | None = None) -> dict:
    """Resolve the effective configuration for ``experiment``: the baseline,
    the experiment's defaults, then the file at ``path``, if given.

    Returns a dict of dicts (section -> key -> typed value).
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(experiment, "unknown experiment")
    cfg = {sec: {key: default for key, (_, default) in keys.items()}
           for sec, keys in _SCHEMA.items()}
    for (sec, key), value in EXPERIMENTS[experiment].items():
        cfg[sec][key] = value

    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = parser.read(str(path))
        if not read:
            raise ConfigError(str(path), "config file not found or unreadable")
        for sec in parser.sections():
            if sec not in _SCHEMA:
                raise ConfigError(sec, "unknown section")
            for key, raw in parser.items(sec):
                if key not in _SCHEMA[sec]:
                    raise ConfigError(f"{sec}.{key}", "unknown key")
                cfg[sec][key] = _parse(sec, key, raw)
    _check_semantics(cfg, experiment)
    return cfg


# (section, low key, high key, strict): the low value must lie below the high
# one, or may equal it where not strict
_ORDERED = (("scenario", "band_lo_hz", "band_hi_hz", True),
            ("sysid", "grid_lo_hz", "grid_hi_hz", True),
            ("sysid", "fit_lo_hz", "fit_hi_hz", True),
            ("sysid", "num_order", "den_order", False))


def _check_semantics(cfg: dict, experiment: str) -> None:
    """Reject values that parse but cannot run, naming their ``section.key``."""
    for sec, keys in _SCHEMA.items():
        for key, (tag, _) in keys.items():
            rule = tag.partition(" ")[2]
            value = cfg[sec][key]
            values = value if isinstance(value, tuple) else (value,)
            if rule and any(v < 0.0 or (rule == ">0" and v == 0.0) for v in values):
                raise ConfigError(f"{sec}.{key}", f"{value} is not "
                                  f"{'positive' if rule == '>0' else 'non-negative'}")
    for sec, lo_key, hi_key, strict in _ORDERED:
        lo, hi = cfg[sec][lo_key], cfg[sec][hi_key]
        if lo > hi or (strict and lo == hi):
            raise ConfigError(f"{sec}.{lo_key}", f"{lo} must be "
                              f"{'below' if strict else 'at most'} {sec}.{hi_key} ({hi})")
    # the derivative pole is 1e-3 * lambda_c, which underflows to 0 for a
    # subnormal lambda_c
    lambda_c = cfg["control"]["lambda_c"]
    if 1e-3 * lambda_c == 0.0:
        raise ConfigError("control.lambda_c", f"{lambda_c} gives a derivative pole "
                          f"1e-3 * lambda_c that underflows to 0")
    # plant forms the pendulum's inertia m * l1 * l1, which its RK4 divides
    # by, and its gravity torque m * g * l1 as written here, for the RK4 and
    # the feedforward; kinematics.ff_force divides by the moment arm l2 only
    # from DET_TOL up
    m, l1, l2 = cfg["pendulum"]["m"], cfg["pendulum"]["l1"], cfg["pendulum"]["l2"]
    inertia, mgl = m * l1 * l1, m * cfg["pendulum"]["g"] * l1
    if not (0.0 < inertia < math.inf and mgl < math.inf):
        raise ConfigError("pendulum.l1", f"{l1} with pendulum.m {m} gives an inertia "
                          f"m * l1 * l1 = {inertia:g} and a gravity torque m * g * l1 = "
                          f"{mgl:g}; the inertia must be finite and non-zero, the torque finite")
    if l2 < DET_TOL:
        raise ConfigError("pendulum.l2", f"{l2} is below the moment-arm tolerance "
                          f"{DET_TOL:g} of the feedforward force")
    sn = cfg["scenario"]
    if not all(0.0 <= a <= 1.0 for a in sn["alphas"]):
        raise ConfigError("scenario.alphas", f"{sn['alphas']} has a value outside [0, 1]")
    # the observer rejects a blend gain outside [0, 1] too; this names the key
    gamma = cfg["control"]["gamma"]
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError("control.gamma", f"{gamma} is outside [0, 1]")
    # the open-loop bode runs without the blend; any other gamma would be
    # echoed in effective_config.ini but not run
    if experiment == "bode-open-loop" and gamma != 0.0:
        raise ConfigError("control.gamma", f"{gamma} is not 0: bode-open-loop runs open loop")
    dt = sn["leaky_dt"]
    if not 0 <= int(round(sn["leaky_input_end"] / dt)) < int(round(sn["leaky_duration"] / dt)):
        raise ConfigError(
            "scenario.leaky_input_end",
            f"{sn['leaky_input_end']} must be non-negative and end at least one "
            f"scenario.leaky_dt ({dt}) before scenario.leaky_duration "
            f"({sn['leaky_duration']})")
    factors = cfg["plant"]["den_factors"]
    if len(factors) != 4:
        raise ConfigError("plant.den_factors", f"{factors} is not four multipliers")
    # a leading coefficient that underflows would leave the plant a lower order
    if NOMINAL_DEN[0] * factors[0] == 0.0:
        raise ConfigError("plant.den_factors", f"{factors} scales the leading denominator "
                          f"coefficient {NOMINAL_DEN[0]:g} to 0")
    plant_hz, controller_hz, reference_hz = (
        sn["plant_hz"], sn["controller_hz"], sn["reference_hz"])
    if plant_hz % controller_hz or controller_hz % reference_hz:
        raise ConfigError(
            "scenario.controller_hz",
            f"{controller_hz} must divide scenario.plant_hz ({plant_hz}) and be a "
            f"multiple of scenario.reference_hz ({reference_hz})")
    # pid-step reads each response's late window t >= 0.75 * duration_s on
    # run_scenario's grid, t = k * T for k < round(duration_s * controller_hz)
    if experiment == "pid-step":
        last_t = (int(round(sn["duration_s"] * controller_hz)) - 1) * (1.0 / controller_hz)
        if last_t < 0.75 * sn["duration_s"]:
            raise ConfigError(
                "scenario.duration_s",
                f"{sn['duration_s']} leaves no controller step in the late window "
                f"t >= 0.75 * scenario.duration_s that pid-step reads")
    omega_c_hz = cfg["control"]["omega_c_hz"]
    if not 0.0 < omega_c_hz < 0.5 * controller_hz:
        raise ConfigError(
            "control.omega_c_hz",
            f"{omega_c_hz} must lie between 0 and the controller's Nyquist rate "
            f"({0.5 * controller_hz:g} Hz)")


def write_config(cfg: dict, path: str | Path) -> None:
    """Echo a resolved configuration as a reloadable INI file."""
    parser = configparser.ConfigParser()
    for sec in _SCHEMA:
        parser.add_section(sec)
        for key, value in cfg[sec].items():
            if isinstance(value, tuple):
                parser.set(sec, key, ", ".join(repr(float(v)) for v in value))
            elif isinstance(value, float):
                parser.set(sec, key, repr(value))  # shortest exact round-trip
            else:
                parser.set(sec, key, str(value))
    with open(path, "w") as fh:
        parser.write(fh)
