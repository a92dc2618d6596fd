"""One benchmark repeat in a fresh interpreter.

Usage: child.py MODE WORKLOAD EXPERIMENT CONFIG RESULT [OUT_DIR ...]

MODE is ``setup`` (time ``import seactrl.cli`` plus ``load_config`` and
exit), ``run`` (also run the workload's CLI commands through
``seactrl.cli.main``) or ``trace`` (the same, with per-layer tracing
installed).  Timings and counters go to RESULT as JSON.  ``seactrl`` must
be importable (the harness puts the checkout's ``src`` on PYTHONPATH).

Every timed interval comes with the host speed measured during it (see
``HostSpeed``), so the harness can express times at a fixed host speed.
"""

import signal
import sys
import time

# Duration of one HostSpeed probe on the reference host (a 2-vCPU Xeon VM
# in its usual state); a speed of 1.0 means the host ran at that pace.
REF_PROBE_S = 200e-6
SAMPLE_EVERY_S = 0.04
SETUP_PROBES = 25       # set-up is too short to sample, so it is probed right after


class HostSpeed:
    """In-process samples of the host's speed while the timed code runs.

    A shared host alternates between speed plateaus (up to 2x apart) for
    spans of a fraction of a second to minutes, on each vCPU separately.
    The probe -- a fixed kernel of small numpy operations, like the per-tick
    work of the simulator but no seactrl code -- runs from SIGALRM every
    ``SAMPLE_EVERY_S`` on the same CPU as the timed code, so the two see the
    same plateau.  Each sample costs ~0.2 ms (~0.5 % of the run).
    """

    def __init__(self):
        import numpy as np
        self.hist = np.zeros(5)
        self.coef = np.array([0.1, 0.2, 0.3, 0.2, 0.1])
        self.samples = []   # (end time, probe duration), seconds

    def probe(self, *_):
        h, c, y = self.hist, self.coef, 0.0
        t0 = time.perf_counter()
        for _ in range(100):
            h[1:] = h[:-1]
            h[0] = 0.5 * y + 1.0
            y = float(c @ h)
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.probe()        # so that even a run shorter than one period has a sample

    def speed(self, t0=float("-inf"), t1=float("inf")) -> float:
        """Mean host speed over samples taken in [t0, t1] (all if none)."""
        probes = [d for t, d in self.samples if t0 <= t <= t1] or \
            [d for _, d in self.samples]
        return REF_PROBE_S * len(probes) / sum(probes)


def _timed_calls(record: dict) -> None:
    """Time the experiment calls (wall window) and each run_scenario call (sim_rtf)."""
    from seactrl import experiments
    from tracer import EXPERIMENT_FUNCTIONS, rebind

    clock = time.perf_counter

    def experiment_timer(fn):
        def timed(*args, **kwargs):
            record.setdefault("first_call", clock())
            try:
                return fn(*args, **kwargs)
            finally:
                record["last_return"] = clock()
        return timed

    def scenario_timer(fn):
        def timed(sc):
            t0 = clock()
            log = fn(sc)
            record["scenarios"].append((len(log) / sc.controller_hz, t0, clock()))
            return log
        return timed

    for name in EXPERIMENT_FUNCTIONS:
        fn = getattr(experiments, name)
        rebind(fn, experiment_timer(fn))
    rebind(experiments.run_scenario, scenario_timer(experiments.run_scenario))


def main(argv) -> int:
    mode, workload, experiment, config, result_path, *outs = argv
    t_start = time.perf_counter()
    import seactrl.cli  # what setup_s times: the package import ...
    t_import = time.perf_counter()
    seactrl.cli.load_config(experiment, config)
    t_setup = time.perf_counter()  # ... through load_config returning

    import contextlib
    import io
    import json
    import resource

    import tracer  # sibling modules (the script's directory is on sys.path)
    import workloads

    host = HostSpeed()
    host.probe()                                 # warm-up, not kept
    host.samples.clear()
    for _ in range(SETUP_PROBES):
        host.probe()
    result = {"setup_s": t_setup - t_start, "setup_speed": host.speed(),
              "import_s": t_import - t_start, "numpy": sys.modules["numpy"].__version__}
    if mode != "setup":
        traced = None
        if mode == "trace":
            traced = tracer.Tracer()
            tracer.install(traced)
        record = {"scenarios": []}
        _timed_calls(record)
        host.samples.clear()
        host.start()
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [seactrl.cli.main(cmd)
                     for cmd in workloads.commands(workload, config, outs)]
        host.stop()
        t0, t1 = record.get("first_call", 0.0), record.get("last_return", 0.0)
        result.update(
            exit_codes=codes,
            wall_s=t1 - t0,
            wall_speed=host.speed(t0, t1),
            # (simulated s, host s, host speed) per run_scenario call
            scenarios=[(sim, b - a, host.speed(a, b)) for sim, a, b in record["scenarios"]],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if traced is not None:
            result["layers"] = tracer.layer_metrics(traced)
            result["self_total_s"] = tracer.self_total_s(traced)
            result["wrapper_ns"] = tracer.wrapper_cost_ns()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
