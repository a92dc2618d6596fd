"""seactrl benchmark: one workload, closed loop, one client, fresh interpreters.

Usage (from the repository root):

    python3 perfbench/run.py --workload dob-verify --seed 0 --seconds 40 --trace 0

Each repeat runs the workload's CLI experiments in a fresh interpreter
(``child.py``) with BLAS pinned to one thread; repeats continue until the
next one would overrun ``--seconds``.  Extra interpreters time set-up only.
Every repeat's outputs are checked (exit codes, experiment results,
artifact row counts, sha256 identical across repeats of the seed).

``--trace 0`` reports the end-to-end metrics: medians over untraced
repeats, with each time scaled to a reference host speed by the speed
that child.py's probe measured during it.  ``--trace 1`` alternates
untraced and traced repeats and reports the per-layer metrics.  The last
stdout line is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_CHILDREN = 3      # set-up-only interpreters before the first repeat ...
SETUP_PER_REPEAT = 1    # ... and after each repeat, so set-up samples span the run
MIN_REPEATS = 2         # the sha256 check needs two repeats of the seed
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "sim_rtf": "s/s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "lti.iir_step.calls": "count", "lti.iir_step.self_s": "s",
    "lti.iir_step.us_p50": "us", "lti.iir_step.us_p99": "us",
    "lti.bilinear_discretize.calls": "count", "lti.bilinear_discretize.self_ms": "ms",
    "control.force_step.calls": "count", "control.force_step.self_s": "s",
    "control.force_step.us_p50": "us", "control.force_step.us_p99": "us",
    "control.dob_estimate.calls": "count", "control.dob_estimate.self_s": "s",
    "control.impedance_step.self_s": "s", "control.build_force_controller.self_ms": "ms",
    "kinematics.calls": "count", "kinematics.self_s": "s",
    "plant.advance.calls": "count", "plant.advance.substeps": "count",
    "plant.advance.self_s": "s", "plant.advance.ns_per_substep": "ns",
    "plant.run_scenario.calls": "count", "plant.run_scenario.steps": "count",
    "plant.run_scenario.self_s": "s",
    "sysid.chirp_point.calls": "count", "sysid.chirp_point.self_s": "s",
    "sysid.empirical_frf.self_ms": "ms", "sysid.empirical_frf.valid_ratio": "ratio",
    "sysid.fit_rational.self_ms": "ms",
    "sysid.read_csv.rows": "count", "sysid.read_csv.self_ms": "ms",
    "experiments.csv_write.rows": "count", "experiments.csv_write.bytes": "bytes",
    "experiments.csv_write.self_s": "s", "experiments.self_s": "s",
    "config.load_config.self_ms": "ms", "cli.import_s": "s",
    "trace.wrapper_ns": "ns", "trace.overhead_frac": "ratio",
    "trace.unaccounted_frac": "ratio", "host.probe_ms": "ms", "host.speed": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def probe_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the host-speed drift probe."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def host_record(numpy_version: str) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy_version, "loadavg": [round(v, 2) for v in os.getloadavg()]}


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(mode: str, workload: str, config: Path, result: Path, outs=()) -> dict:
    """Run one fresh-interpreter repeat and return its JSON record."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload,
           workloads.WORKLOADS[workload].experiment, str(config), str(result),
           *map(str, outs)]
    try:
        proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{mode} repeat exceeded {CHILD_TIMEOUT_S:g} s") from exc
    if proc.returncode != 0 or not result.is_file():
        raise HarnessError(f"{mode} repeat exited {proc.returncode}: {proc.stderr.strip()}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


class Checks:
    """Attempted and failed correctness checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  work: Path, duration_s: float | None = None) -> dict:
    """Run one benchmark and return its metrics, checks and host record.

    ``duration_s`` shortens the simulated runs (smoke tests only).
    """
    if not (ROOT / "src" / "seactrl" / "__init__.py").is_file():
        raise HarnessError(f"seactrl sources not found under {ROOT / 'src'}")
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config = work / "config.ini"
    values = workloads.write_config(workload, seed, config, duration_s)
    result = work / "result.json"
    probes = [probe_ms()]

    checks = Checks()
    t_begin = time.perf_counter()
    setup_runs = [run_child("setup", workload, config, result) for _ in range(SETUP_CHILDREN)]
    host = host_record(setup_runs[0]["numpy"])
    setup = [(r["setup_s"], r["setup_speed"]) for r in setup_runs]
    plain, traced, reference = [], [], None
    n_out = len(workloads.WORKLOADS[workload].commands)
    durations = []
    while True:
        mode = "trace" if trace and len(traced) < len(plain) else "run"
        outs = [work / f"r{len(durations)}" / f"out{i}" for i in range(n_out)]
        t0 = time.perf_counter()
        rec = run_child(mode, workload, config, result, outs)
        setup.append((rec["setup_s"], rec["setup_speed"]))
        for _ in range(SETUP_PER_REPEAT):
            r = run_child("setup", workload, config, result)
            setup.append((r["setup_s"], r["setup_speed"]))
        durations.append(time.perf_counter() - t0)
        for i, code in enumerate(rec["exit_codes"]):
            checks.add(f"command{i}_exit_0", code == 0)
        completed = all(code == 0 for code in rec["exit_codes"])
        repeat_checks, hashes = workloads.check_outputs(workload, outs, values)
        for name, ok in repeat_checks:
            checks.add(name, ok)
        if reference is None:
            reference = hashes
        else:
            for name in sorted(set(reference) | set(hashes)):
                checks.add(f"{name}_sha256_repeats",
                           reference.get(name) == hashes.get(name))
        shutil.rmtree(outs[0].parent)
        if mode == "trace":
            if traced:
                checks.add("trace_counts_repeat", all(
                    rec["layers"][k] == v for k, v in traced[0]["layers"].items()
                    if LAYER_UNITS[k] in ("count", "bytes")))
            if completed:
                traced.append(rec)
        elif completed:
            plain.append(rec)
        elapsed = time.perf_counter() - t_begin
        # in trace mode the second repeat is the first traced one
        if len(durations) >= MIN_REPEATS and elapsed + statistics.median(durations) > seconds:
            break
    probes.append(probe_ms())
    shutil.rmtree(work)
    if not plain or (trace and not traced):
        raise HarnessError("no repeat completed; failed checks: "
                           + ", ".join(checks.failures))

    med = statistics.median
    calls = [c for r in plain for c in r["scenarios"]]   # (simulated s, host s, speed)
    samples = {   # times at the reference host speed
        "wall_s": [r["wall_s"] * r["wall_speed"] for r in plain],
        "setup_s": [t * speed for t, speed in setup],
        "sim_rtf": [sim / (host_s * speed) for sim, host_s, speed in calls],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    measured = {   # the same times as the wall clock read them
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [t for t, _ in setup],
        "sim_rtf": [sim / host_s for sim, host_s, _ in calls],
    }
    end_to_end = {key: med(values) for key, values in samples.items()}
    layers = {}
    if traced:
        for key, first in traced[0]["layers"].items():
            exact = LAYER_UNITS[key] in ("count", "bytes")  # checked equal across repeats
            layers[key] = first if exact else med(r["layers"][key] for r in traced)
        traced_wall = med(r["wall_s"] * r["wall_speed"] for r in traced)
        layers["cli.import_s"] = med(r["import_s"] for r in plain + traced)
        layers["trace.wrapper_ns"] = med(r["wrapper_ns"] for r in traced)
        layers["trace.overhead_frac"] = traced_wall / end_to_end["wall_s"] - 1.0
        layers["trace.unaccounted_frac"] = med(
            1.0 - r["self_total_s"] / r["wall_s"] for r in traced)
        layers["host.probe_ms"] = med(probes)
        layers["host.speed"] = med(r["wall_speed"] for r in plain)
    return {"end_to_end": end_to_end, "samples": samples, "measured": measured,
            "layers": layers, "checks": checks, "host": host, "probes_ms": probes,
            "traced": len(traced)}


def report(workload: str, seed: int, res: dict, trace: bool) -> str:
    """Readable lines followed by the one-line JSON result."""
    checks, host = res["checks"], res["host"]
    lines = [
        f"workload {workload}  seed {seed}  repeats {len(res['samples']['wall_s'])} "
        f"untraced, {res['traced']} traced",
        f"host nproc={host['nproc']} cpu={host['cpu']!r} python={host['python']} "
        f"numpy={host['numpy']} loadavg={host['loadavg']}",
        "host.probe_ms before {:.3f} after {:.3f}".format(*res["probes_ms"]),
    ]
    for key, value in res["end_to_end"].items():
        values = res["samples"][key]
        raw = res["measured"].get(key)
        at_ref = " at reference host speed" if raw else ""
        line = (f"{key} = {value:.6g} {END_TO_END_UNITS[key]}  (median of {len(values)}"
                f"{at_ref}, range {min(values):.6g}..{max(values):.6g}")
        if raw:
            line += (f"; wall clock: median {statistics.median(raw):.6g}, "
                     f"range {min(raw):.6g}..{max(raw):.6g}")
        lines.append(line + ")")
    frac = len(checks.failures) / checks.attempted if checks.attempted else 1.0
    lines.append(f"checks_failed_frac = {frac:.6g} ratio "
                 f"({len(checks.failures)} of {checks.attempted} checks failed)")
    for name in checks.failures:
        lines.append(f"FAILED {name}")
    for key, value in res["layers"].items():
        lines.append(f"{key} = {value if isinstance(value, int) else f'{value:.6g}'} "
                     f"{LAYER_UNITS[key]}")
    chosen = res["layers"] if trace else res["end_to_end"]
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    lines.append(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": chosen[k], "unit": units[k]} for k in units},
    }))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its child repeat and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        res = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(report(args.workload, args.seed, res, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
