"""Workload definitions: seeded configs, CLI commands, and output checks.

Each workload is one or more ``seactrl`` CLI commands run from a generated
INI config.  The seed varies physical values (chirp amplitude, plant
denominator factors, pendulum mass) inside ranges that keep every
correctness check passing; it never varies durations, rates or grid sizes,
so the amount of work is the same for every seed.  Seed 0 writes no
overrides, i.e. the shipped experiment defaults.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Identified nominal current-to-force model of the testbed (the plant the
# simulator perturbs); used to state what ``fit`` must recover.
NOMINAL_NUM = 208.8
NOMINAL_DEN = (0.01, 1.13, 23.04, 987.0)


@dataclass(frozen=True)
class Workload:
    experiment: str                 # config experiment the commands load
    commands: tuple                 # argv per command; {out0}/{out1} = output dirs
    base: dict                      # (section, key) -> shipped default
    spread: dict                    # (section, key) -> relative +- range
    artifacts: tuple                # per command: (file name, row-count kind)


WORKLOADS = {
    # Two 120 s current chirps at 5 kHz plant and two 120k-row logs:
    # throughput- and CSV-bound; no ForceController, kinematics or pendulum.
    "dob-verify": Workload(
        experiment="dob-verify",
        commands=(("dob-verify", "--out", "{out0}"),),
        base={("scenario", "duration_s"): 120.0,
              ("scenario", "controller_hz"): 1000,
              ("scenario", "amplitude"): 1.75,
              ("plant", "den_factors"): (1.0, 1.2, 0.8, 1.25)},
        spread={("scenario", "amplitude"): 0.10,
                ("plant", "den_factors"): 0.01},   # +-3 % can push DOB-on past 2 dB
        artifacts=((("log_dob_on.csv", "steps"), ("log_dob_off.csv", "steps"),
                    ("frf_dob_on.csv", "grid"), ("frf_dob_off.csv", "grid")),),
    ),
    # Full ForceController, impedance and kinematics with the pendulum at
    # 20 kHz: dispatch-bound, no sysid.
    "pendulum-chirp": Workload(
        experiment="pendulum-chirp",
        commands=(("pendulum-chirp", "--dob", "both", "--out", "{out0}"),),
        base={("scenario", "duration_s"): 12.8,
              ("scenario", "controller_hz"): 1000,
              ("scenario", "amplitude"): 0.1,
              ("pendulum", "m"): 10.0,
              ("plant", "den_factors"): (1.0, 1.2, 0.8, 1.25)},
        spread={("scenario", "amplitude"): 0.10,
                ("pendulum", "m"): 0.10,
                ("plant", "den_factors"): 0.03},
        artifacts=((("pendulum_dob_on.csv", "steps"),
                    ("pendulum_dob_off.csv", "steps")),),
    ),
    # One 120 s chirp, then the H1 FRF and rational fit, from the simulated
    # records and again from the CSVs they were written to: the only CSV
    # reader, sysid-heavy, and a single scenario (nothing to batch).
    "identify": Workload(
        experiment="fit",
        commands=(("fit", "--out", "{out0}"),
                  ("fit", "--u", "{out0}/input.csv", "--y", "{out0}/output.csv",
                   "--out", "{out1}")),
        base={("scenario", "duration_s"): 120.0,
              ("scenario", "controller_hz"): 1000,
              ("scenario", "amplitude"): 1.5,
              ("plant", "den_factors"): (1.0, 1.0, 1.0, 1.0)},
        spread={("scenario", "amplitude"): 0.10,
                ("plant", "den_factors"): 0.03},
        artifacts=((("input.csv", "steps"), ("output.csv", "steps"),
                    ("frf.csv", "fit_grid")),
                   (("frf.csv", "fit_grid"),)),
    ),
}

# FRF rows of the shipped sysid grids, which seeds never change:
# 0.1-10 Hz and 0.2-30 Hz at 20 points per decade
_GRID_ROWS = {"grid": 41, "fit_grid": 45}


def config_values(workload: str, seed: int, duration_s: float | None = None) -> dict:
    """Effective values of the seeded keys: (section, key) -> value.

    ``duration_s`` shortens the run (smoke tests only).
    """
    wl = WORKLOADS[workload]
    values = dict(wl.base)
    if seed != 0:
        rng = random.Random(f"{workload}/{seed}")
        for key, rel in wl.spread.items():
            base = wl.base[key]
            if isinstance(base, tuple):
                values[key] = tuple(round(v * rng.uniform(1 - rel, 1 + rel), 6) for v in base)
            else:
                values[key] = round(base * rng.uniform(1 - rel, 1 + rel), 6)
    if duration_s is not None:
        values[("scenario", "duration_s")] = duration_s
    return values


def write_config(workload: str, seed: int, path: Path, duration_s: float | None = None) -> dict:
    """Write the workload's INI config for ``seed``; returns its seeded values."""
    values = config_values(workload, seed, duration_s)
    wl = WORKLOADS[workload]
    overrides = {k: v for k, v in values.items() if v != wl.base[k]}
    sections: dict = {}
    for (sec, key), value in sorted(overrides.items()):
        text = ", ".join(repr(float(v)) for v in value) if isinstance(value, tuple) else repr(value)
        sections.setdefault(sec, []).append(f"{key} = {text}")
    lines = [f"# {workload} seed {seed}"]
    for sec, entries in sections.items():
        lines += ["", f"[{sec}]", *entries]
    Path(path).write_text("\n".join(lines) + "\n")
    return values


def commands(workload: str, config: Path, outs: list) -> list:
    """CLI argv lists for one repeat, writing into ``outs`` (one dir per command)."""
    fmt = {f"out{i}": str(o) for i, o in enumerate(outs)}
    return [[a.format(**fmt) for a in cmd] + ["--config", str(config)]
            for cmd in WORKLOADS[workload].commands]


def read_summary(path: Path) -> dict:
    """Parse ``summary.txt`` (``key = value`` lines) into typed values."""
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, raw = line.partition(" = ")
        raw = raw.strip()
        if raw in ("True", "False"):
            out[key] = raw == "True"
        elif raw.startswith("["):
            out[key] = [float(v) for v in raw.strip("[]").split(",") if v.strip()]
        else:
            try:
                out[key] = float(raw)
            except ValueError:
                out[key] = raw
    return out


def _rel_err(got, want) -> float:
    return max(abs(g - w) / abs(w) for g, w in zip(got, want))


def _fit_error(summary: dict, values: dict) -> float:
    """Largest relative coefficient error of the monic fit vs the configured plant."""
    den = [d * f for d, f in zip(NOMINAL_DEN, values[("plant", "den_factors")])]
    want_num = [NOMINAL_NUM / den[0]]
    want_den = [d / den[0] for d in den]
    num, got_den = summary["num_monic"], summary["den_monic"]
    if len(num) != 1 or len(got_den) != 4:
        return math.inf
    return max(_rel_err(num, want_num), _rel_err(got_den[1:], want_den[1:]))


def summary_checks(workload: str, summaries: list, values: dict) -> list:
    """(name, passed) pairs for the experiment results of one repeat."""
    s0 = summaries[0]
    if workload == "dob-verify":
        return [("dob_on_nominalized_within_2db", s0.get("nominalized_within_2db") is True),
                ("dob_off_exceeds_2db", s0.get("off_exceeds_2db") is True)]
    if workload == "pendulum-chirp":
        ratio = s0.get("rms_ratio_on_over_off", math.nan)
        f_n = s0.get("natural_freq_hz", math.nan)
        return [("rms_ratio_on_over_off<=0.5", ratio <= 0.5),
                ("natural_freq_hz_near_0.87", abs(f_n - 0.87) <= 0.01)]
    if workload == "identify":
        s1 = summaries[1]
        refit = max(_rel_err(s1["num_monic"], s0["num_monic"]),
                    _rel_err(s1["den_monic"], s0["den_monic"]))
        return [("fit_matches_configured_plant", _fit_error(s0, values) <= 0.01),
                ("refit_from_records_matches", refit <= 1e-6)]
    raise KeyError(workload)


def expected_rows(kind: str, values: dict) -> int:
    if kind == "steps":
        sec = values[("scenario", "duration_s")]
        return int(round(sec * values[("scenario", "controller_hz")]))
    return _GRID_ROWS[kind]


def digest(path: Path) -> tuple:
    """(sha256 hex, data rows) of a CSV or text file."""
    data = Path(path).read_bytes()
    return hashlib.sha256(data).hexdigest(), max(0, data.count(b"\n") - 1)


def check_outputs(workload: str, outs: list, values: dict) -> tuple:
    """Check one repeat's output directories.

    Returns ``(checks, hashes)``: (name, passed) pairs, and the sha256 of
    every CSV and ``summary.txt`` keyed by relative path, for comparing
    repeats of one seed.
    """
    wl = WORKLOADS[workload]
    checks, hashes, summaries = [], {}, []
    for i, (out, artifacts) in enumerate(zip(outs, wl.artifacts)):
        for name, kind in artifacts:
            path = Path(out) / name
            ok = path.is_file()
            if ok:
                sha, rows = digest(path)
                hashes[f"out{i}/{name}"] = sha
                ok = rows == expected_rows(kind, values)
            checks.append((f"out{i}/{name}_rows", ok))
        path = Path(out) / "summary.txt"
        ok = path.is_file()
        checks.append((f"out{i}/summary.txt_exists", ok))
        if ok:
            hashes[f"out{i}/summary.txt"] = digest(path)[0]
            summaries.append(read_summary(path))
    if len(summaries) == len(outs):
        try:
            checks += summary_checks(workload, summaries, values)
        except (KeyError, TypeError, ValueError):
            checks.append(("summary_parses", False))
    return checks, hashes
