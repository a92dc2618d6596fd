"""Experiment configuration: flat INI files with sections per module.

Defaults are layered: package baseline, then per-experiment overrides, then
the user's file.  Unknown sections or keys, and values that parse but
cannot run (after layering), are rejected with the offending ``section.key``
path.  The fully resolved configuration is echoed into each
experiment's output directory so a run can be reproduced from it exactly.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

__all__ = ["ConfigError", "EXPERIMENTS", "load_config", "write_config"]


class ConfigError(ValueError):
    """Invalid configuration; ``keypath`` names the offending entry."""

    def __init__(self, keypath: str, message: str):
        super().__init__(f"{keypath}: {message}")
        self.keypath = keypath


# key -> (type tag, baseline default).  Gain keys follow the gain-table
# column names; lambda_direct overrides the 1e-3*lambda_c convention when
# positive.
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "control": {
        "k": ("float", 40.0),
        "b": ("float", 5.0),
        "k_ff": ("float", 3.2),
        "k_p": ("float", 2.0),
        "k_i": ("float", 4.0),
        "k_d": ("float", 0.0),
        "lambda_c": ("float", 3.5),
        "lambda_direct": ("float", 0.0),
        "gamma": ("float", 1.0),
        "omega_c_hz": ("float", 25.0),
        "ff_current_scale": ("float", 1e-3),
    },
    "plant": {
        "den_factors": ("floats", (1.0, 1.2, 0.8, 1.25)),
        "gain_factor": ("float", 1.0),
        "stiction_breakaway": ("float", 0.15),
        "stiction_velocity_deadband": ("float", 0.5),
        "backlash": ("float", 0.0),
    },
    "pendulum": {
        "m": ("float", 10.0),
        "l1": ("float", 0.33),
        "l2": ("float", 0.07),
        "g": ("float", 9.81),
        "damping": ("float", 0.05),
        "theta0": ("float", 0.0),
        "estimate_backlash_m": ("float", 0.0),
    },
    "scenario": {
        "controller_hz": ("int", 1000),
        "reference_hz": ("int", 200),
        "plant_hz": ("int", 20000),
        "duration_s": ("float", 10.0),
        "amplitude": ("float", 1.0),
        "chirp_omega_o": ("float", 0.427),
        "chirp_f_start": ("float", 0.05),
        "chirp_f_end": ("float", 15.0),
        "step_force": ("float", 500.0),
        "step_time": ("float", 0.1),
        "band_lo_hz": ("float", 0.5),
        "band_hi_hz": ("float", 1.2),
        "kd_sweep": ("floats", (0.0, 0.25, 0.5, 1.0)),
        "alphas": ("floats", (0.0, 0.25, 0.5, 0.75, 1.0)),
        "amplitudes": ("floats", (1.0, 1.5, 1.75)),
        "leaky_dt": ("float", 0.001),
        "leaky_qddot": ("float", 1.0),
        "leaky_input_end": ("float", 0.025),
        "leaky_duration": ("float", 0.05),
        "leaky_measured": ("float", 0.1),
    },
    "sysid": {
        "segments": ("int", 8),
        "grid_lo_hz": ("float", 0.1),
        "grid_hi_hz": ("float", 10.0),
        "points_per_decade": ("int", 20),
        "fit_lo_hz": ("float", 0.2),
        "fit_hi_hz": ("float", 30.0),
        "num_order": ("int", 0),
        "den_order": ("int", 3),
        "sk_iterations": ("int", 0),
    },
}

# feedforward current gain calibrated to the nominal DC gain (amps per
# model-unit of force); used by the loop-closing experiments
_K_FF_CALIBRATED = 987.0 / 208.8

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
        ("control", "lambda_direct"): 3.5,
        ("control", "k_ff"): _K_FF_CALIBRATED,
        ("control", "ff_current_scale"): 1.0,
    },
    "leaky-demo": {},
    "discretize": {},
    "pendulum-chirp": {
        ("scenario", "duration_s"): 12.8,
        ("scenario", "amplitude"): 0.1,
        ("plant", "stiction_breakaway"): 150.0,
        ("plant", "stiction_velocity_deadband"): 500.0,
        ("control", "k_ff"): _K_FF_CALIBRATED,
        ("control", "ff_current_scale"): 1.0,
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
    kind, _ = _SCHEMA[section][key]
    path = f"{section}.{key}"
    try:
        if kind == "floats":
            values = tuple(float(tok) for tok in raw.replace(",", " ").split())
        else:
            values = (float(raw),)
    except ValueError as exc:
        raise ConfigError(path, f"cannot parse {raw!r} ({exc})") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(path, f"{raw!r} is not finite")
    if kind == "floats":
        return values
    if kind == "float":
        return values[0]
    if kind == "int":
        if values[0] != int(values[0]):
            raise ConfigError(path, f"cannot parse {raw!r} (not an integer)")
        return int(values[0])
    raise ConfigError(path, f"unhandled type {kind}")


def load_config(experiment: str, path: str | Path | None = None) -> dict:
    """Resolve the effective configuration for ``experiment``.

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
    _check_semantics(cfg)
    return cfg


# keys whose value (every value, for a list) must be positive, or non-negative
_POSITIVE = (("plant", "gain_factor"), ("pendulum", "m"), ("pendulum", "l1"),
             ("pendulum", "l2"), ("scenario", "amplitude"), ("scenario", "amplitudes"),
             ("scenario", "leaky_dt"))
_NON_NEGATIVE = (
    ("control", "k"), ("control", "b"), ("control", "k_p"), ("control", "k_i"),
    ("control", "k_d"), ("scenario", "kd_sweep"), ("plant", "stiction_breakaway"),
    ("plant", "stiction_velocity_deadband"), ("plant", "backlash"), ("pendulum", "g"),
    ("pendulum", "estimate_backlash_m"),
)


def _check_semantics(cfg: dict) -> None:
    """Reject values that parse but cannot run, naming their ``section.key``."""
    for keys, positive in ((_POSITIVE, True), (_NON_NEGATIVE, False)):
        for sec, key in keys:
            value = cfg[sec][key]
            values = value if isinstance(value, tuple) else (value,)
            if any(v < 0.0 or (positive and v == 0.0) for v in values):
                raise ConfigError(f"{sec}.{key}", f"{value} is not "
                                  f"{'positive' if positive else 'non-negative'}")
    sn = cfg["scenario"]
    if not all(0.0 <= a <= 1.0 for a in sn["alphas"]):
        raise ConfigError("scenario.alphas", f"{sn['alphas']} has a value outside [0, 1]")
    dt = sn["leaky_dt"]
    if not 0 <= int(round(sn["leaky_input_end"] / dt)) < int(round(sn["leaky_duration"] / dt)):
        raise ConfigError(
            "scenario.leaky_input_end",
            f"{sn['leaky_input_end']} must be non-negative and end at least one "
            f"scenario.leaky_dt ({dt}) before scenario.leaky_duration "
            f"({sn['leaky_duration']})")
    factors = cfg["plant"]["den_factors"]
    if len(factors) != 4 or min(factors) <= 0.0:
        raise ConfigError("plant.den_factors", f"{factors} is not four positive multipliers")
    plant_hz, controller_hz, reference_hz = (
        sn["plant_hz"], sn["controller_hz"], sn["reference_hz"])
    for key, hz in (("plant_hz", plant_hz), ("controller_hz", controller_hz),
                    ("reference_hz", reference_hz)):
        if hz <= 0:
            raise ConfigError(f"scenario.{key}", f"{hz} is not positive")
    if plant_hz % controller_hz or controller_hz % reference_hz:
        raise ConfigError(
            "scenario.controller_hz",
            f"{controller_hz} must divide scenario.plant_hz ({plant_hz}) and be a "
            f"multiple of scenario.reference_hz ({reference_hz})")
    if sn["duration_s"] <= 0.0:
        raise ConfigError("scenario.duration_s", f"{sn['duration_s']} is not positive")
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
