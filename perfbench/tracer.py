"""Per-layer tracing of seactrl, installed from outside the package.

Public functions and methods are replaced, at every name a caller resolves
(module globals and class attributes), by wrappers that keep one aggregate
per layer name: call count, self time, optional work units, and for the
per-call latency layers a log-bucket histogram of inclusive durations.
No per-call span is stored, so million-call layers cost O(1) memory.

Self time is inclusive time minus the self time every traced call made
inside it recorded; one running total gives that without a span stack.
"""

from __future__ import annotations

import os
import sys
import time


class Aggregate:
    __slots__ = ("calls", "self_ns", "units", "bytes", "valid", "hist")

    def __init__(self, hist: bool):
        self.calls = 0
        self.self_ns = 0
        self.units = 0          # work count: substeps, steps or rows
        self.bytes = 0
        self.valid = 0          # valid FRF bins
        self.hist = {} if hist else None


def _bucket_ns(key: int) -> float:
    """Midpoint of a histogram bucket (16 buckets per octave above 32 ns)."""
    if key < 96:
        return float(key)
    b, sub = key >> 4, key & 15
    width = 1 << (b - 5)
    return ((16 | sub) << (b - 5)) + 0.5 * width


def quantile_us(hist: dict, q: float) -> float:
    """Quantile of a duration histogram, in microseconds (0 when empty)."""
    total = sum(hist.values())
    if not total:
        return 0.0
    rank, seen = q * total, 0
    for key in sorted(hist):
        seen += hist[key]
        if seen >= rank:
            return _bucket_ns(key) / 1e3


class Tracer:
    def __init__(self):
        self.aggs: dict[str, Aggregate] = {}
        self._acc = [0]  # self time recorded so far over all layers, ns

    def wrap(self, fn, name: str, hist: bool = False, after=None):
        """Return a traced version of ``fn`` aggregating under ``name``.

        ``after(agg, args, result)`` records work units outside the timed
        interval.
        """
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = Aggregate(hist)
        acc = self._acc
        clock = time.perf_counter_ns
        h = agg.hist

        def traced(*args, **kwargs):
            a0 = acc[0]
            t0 = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - t0
            own = elapsed - (acc[0] - a0)
            acc[0] += own
            agg.calls += 1
            agg.self_ns += own
            if h is not None:
                b = elapsed.bit_length()
                key = (b << 4) | ((elapsed >> (b - 5)) & 15) if b > 5 else elapsed
                h[key] = h.get(key, 0) + 1
            if after is not None:
                after(agg, args, result)
            return result

        return traced


def rebind(fn, wrapped) -> None:
    """Replace ``fn`` at every seactrl module global bound to it."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] == "seactrl":
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)


def _substeps(agg, args, result):
    agg.units += args[3]                     # advance(self, i_m, dt, substeps)


def _log_steps(agg, args, result):
    agg.units += len(result)


def _frf_valid(agg, args, result):
    agg.units += result.valid.size
    agg.valid += int(result.valid.sum())


def _series_rows(agg, args, result):
    agg.units += result.samples.size


def _csv_written(rows_of):
    def after(agg, args, result):
        agg.units += rows_of(args[0])
        agg.bytes += os.path.getsize(args[1])
    return after


EXPERIMENT_FUNCTIONS = ("dob_verify", "pendulum_chirp", "fit_experiment")


def install(tracer: Tracer) -> None:
    """Wrap seactrl's public layer entry points (import seactrl.cli first)."""
    from seactrl import config, control, experiments, kinematics, lti, plant, sysid

    functions = [
        (lti.bilinear_discretize, "lti.bilinear_discretize", None),
        (control.build_force_controller, "control.build_force_controller", None),
        (control.impedance_step, "control.impedance_step", None),
        (kinematics.actuator_setpoints, "kinematics", None),
        (kinematics.ff_force, "kinematics", None),
        (sysid.exponential_chirp_point, "sysid.chirp_point", None),
        (sysid.linear_chirp_point, "sysid.chirp_point", None),
        (sysid.empirical_frf, "sysid.empirical_frf", _frf_valid),
        (sysid.fit_rational, "sysid.fit_rational", None),
        (sysid.write_frf_csv, "experiments.csv_write", _csv_written(lambda f: f.freqs_hz.size)),
        (plant.run_scenario, "plant.run_scenario", _log_steps),
        (config.load_config, "config.load_config", None),
    ] + [(getattr(experiments, n), "experiments", None) for n in EXPERIMENT_FUNCTIONS]
    for fn, name, after in functions:
        rebind(fn, tracer.wrap(fn, name, after=after))

    methods = [
        (lti.DiscreteIirFilter, "step", "lti.iir_step", True, None),
        (control.ForceController, "step", "control.force_step", True, None),
        (control.DisturbanceObserver, "estimate", "control.dob_estimate", False, None),
        (plant.LseaPlant, "advance", "plant.advance", False, _substeps),
        (plant.SimLog, "to_csv", "experiments.csv_write", False, _csv_written(len)),
        (sysid.TimeSeries, "to_csv", "experiments.csv_write", False,
         _csv_written(lambda ts: ts.samples.size)),
    ]
    for cls, attr, name, hist, after in methods:
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, hist, after))
    from_csv = vars(sysid.TimeSeries)["from_csv"].__func__
    sysid.TimeSeries.from_csv = classmethod(
        tracer.wrap(from_csv, "sysid.read_csv", after=_series_rows))


def wrapper_cost_ns(calls: int = 200_000, batches: int = 5) -> float:
    """Median per-call cost the wrapper adds to a no-op, in ns."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    clock = time.perf_counter_ns
    costs = []
    for _ in range(batches):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[batches // 2]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (name -> number) from a traced repeat."""
    def agg(name):
        return tracer.aggs.get(name) or Aggregate(True)

    def s(name):
        return agg(name).self_ns / 1e9

    def ms(name):
        return agg(name).self_ns / 1e6

    iir, fsteps, adv = agg("lti.iir_step"), agg("control.force_step"), agg("plant.advance")
    frf, csv = agg("sysid.empirical_frf"), agg("experiments.csv_write")
    return {
        "lti.iir_step.calls": iir.calls,
        "lti.iir_step.self_s": s("lti.iir_step"),
        "lti.iir_step.us_p50": quantile_us(iir.hist, 0.50),
        "lti.iir_step.us_p99": quantile_us(iir.hist, 0.99),
        "lti.bilinear_discretize.calls": agg("lti.bilinear_discretize").calls,
        "lti.bilinear_discretize.self_ms": ms("lti.bilinear_discretize"),
        "control.force_step.calls": fsteps.calls,
        "control.force_step.self_s": s("control.force_step"),
        "control.force_step.us_p50": quantile_us(fsteps.hist, 0.50),
        "control.force_step.us_p99": quantile_us(fsteps.hist, 0.99),
        "control.dob_estimate.calls": agg("control.dob_estimate").calls,
        "control.dob_estimate.self_s": s("control.dob_estimate"),
        "control.impedance_step.self_s": s("control.impedance_step"),
        "control.build_force_controller.self_ms": ms("control.build_force_controller"),
        "kinematics.calls": agg("kinematics").calls,
        "kinematics.self_s": s("kinematics"),
        "plant.advance.calls": adv.calls,
        "plant.advance.substeps": adv.units,
        "plant.advance.self_s": s("plant.advance"),
        "plant.advance.ns_per_substep": adv.self_ns / adv.units if adv.units else 0.0,
        "plant.run_scenario.calls": agg("plant.run_scenario").calls,
        "plant.run_scenario.steps": agg("plant.run_scenario").units,
        "plant.run_scenario.self_s": s("plant.run_scenario"),
        "sysid.chirp_point.calls": agg("sysid.chirp_point").calls,
        "sysid.chirp_point.self_s": s("sysid.chirp_point"),
        "sysid.empirical_frf.self_ms": ms("sysid.empirical_frf"),
        "sysid.empirical_frf.valid_ratio": frf.valid / frf.units if frf.units else 0.0,
        "sysid.fit_rational.self_ms": ms("sysid.fit_rational"),
        "sysid.read_csv.rows": agg("sysid.read_csv").units,
        "sysid.read_csv.self_ms": ms("sysid.read_csv"),
        "experiments.csv_write.rows": csv.units,
        "experiments.csv_write.bytes": csv.bytes,
        "experiments.csv_write.self_s": s("experiments.csv_write"),
        "experiments.self_s": s("experiments"),
        "config.load_config.self_ms": ms("config.load_config"),
    }


def self_total_s(tracer: Tracer) -> float:
    """Self time of every layer but config (whose first call precedes the experiments)."""
    return sum(a.self_ns for n, a in tracer.aggs.items() if n != "config.load_config") / 1e9
