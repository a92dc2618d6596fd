"""Smoke tests of the benchmark harness on short generated configs.

Run with ``python -m pytest perfbench``.  Each workload runs for two
simulated seconds, so the experiment-result checks (which need the full
durations) are not asserted here; output, row-count and reproducibility
checks are.
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SHORT_S = 2.0
RESULT_CHECKS = ("nominalized", "exceeds", "rms_ratio", "natural_freq", "fit_", "refit")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_reports_every_metric(workload, tmp_path):
    res = run.run_benchmark(workload, seed=3, seconds=1, trace=True,
                            work=tmp_path / "work", duration_s=SHORT_S)
    assert not (tmp_path / "work").exists()
    assert len(res["samples"]["wall_s"]) >= 1 and res["traced"] >= 1
    structural = [f for f in res["checks"].failures
                  if not any(tag in f for tag in RESULT_CHECKS)]
    assert structural == []

    for trace, units in ((False, run.END_TO_END_UNITS), (True, run.LAYER_UNITS)):
        last = run.report(workload, 3, res, trace).splitlines()[-1]
        out = json.loads(last)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["attempted"] >= 1
        assert {k: m["unit"] for k, m in out["metrics"].items()} == units
        assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())

    steps = int(SHORT_S * 1000)
    scenarios = 1 if workload == "identify" else 2
    assert res["layers"]["plant.run_scenario.steps"] == scenarios * steps
    assert res["end_to_end"]["wall_s"] > 0 and res["end_to_end"]["setup_s"] > 0


def test_checker_flags_tampered_outputs(tmp_path):
    values = workloads.write_config("pendulum-chirp", 0, tmp_path / "c.ini", SHORT_S)
    outs = [tmp_path / "out0"]
    rec = run.run_child("run", "pendulum-chirp", tmp_path / "c.ini",
                        tmp_path / "r.json", outs)
    assert rec["exit_codes"] == [0]
    checks, hashes = workloads.check_outputs("pendulum-chirp", outs, values)
    passed = {name for name, ok in checks if ok}
    assert {"natural_freq_hz_near_0.87", "out0/pendulum_dob_on.csv_rows"} <= passed

    summary = outs[0] / "summary.txt"
    summary.write_text(summary.read_text().replace("natural_freq_hz = 0.8", "natural_freq_hz = 0.9"))
    log = outs[0] / "pendulum_dob_on.csv"
    log.write_text("".join(log.read_text().splitlines(keepends=True)[:-1]))
    checks, tampered = workloads.check_outputs("pendulum-chirp", outs, values)
    failed = {name for name, ok in checks if not ok}
    assert {"natural_freq_hz_near_0.87", "out0/pendulum_dob_on.csv_rows"} <= failed
    assert tampered["out0/summary.txt"] != hashes["out0/summary.txt"]
    assert tampered["out0/pendulum_dob_on.csv"] != hashes["out0/pendulum_dob_on.csv"]

    (outs[0] / "pendulum_dob_off.csv").unlink()
    checks, _ = workloads.check_outputs("pendulum-chirp", outs, values)
    assert ("out0/pendulum_dob_off.csv_rows", False) in checks


def test_seed_zero_is_shipped_defaults_and_seeds_vary_values_only(tmp_path):
    for name, wl in workloads.WORKLOADS.items():
        assert workloads.config_values(name, 0) == wl.base
        workloads.write_config(name, 0, tmp_path / "c.ini")
        assert "[" not in (tmp_path / "c.ini").read_text()
        seeded = workloads.config_values(name, 7)
        assert seeded == workloads.config_values(name, 7)
        assert seeded != wl.base
        for key, value in seeded.items():
            if key not in wl.spread:
                assert value == wl.base[key]


def test_benchmark_json_matches_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS


def test_host_speed_averages_the_probes_inside_the_interval():
    host = child.HostSpeed()
    ref = child.REF_PROBE_S
    host.samples = [(1.0, ref), (2.0, 3 * ref)]     # (end time, probe duration)
    assert host.speed(0.0, 1.5) == 1.0
    assert host.speed(0.0, 3.0) == 0.5              # two probes took 4 ref in all
    assert host.speed(5.0, 6.0) == 0.5              # no probe inside: all probes
    host.start()
    time.sleep(3 * child.SAMPLE_EVERY_S)
    host.stop()
    assert len(host.samples) >= 3 and all(d > 0 for _, d in host.samples[2:])


def _fake_clock(monkeypatch, ticks):
    it = iter(ticks)
    monkeypatch.setattr(tracer.time, "perf_counter_ns", lambda: next(it))


def test_tracer_histogram_quantiles(monkeypatch):
    durations = [1000] * 50 + [2000] * 49 + [100_000]
    _fake_clock(monkeypatch, [t for d in durations for t in (0, d)])
    tr = tracer.Tracer()
    fn = tr.wrap(lambda: None, "x", hist=True)
    for _ in durations:
        fn()
    agg = tr.aggs["x"]
    assert agg.calls == 100 and agg.self_ns == sum(durations)
    assert abs(tracer.quantile_us(agg.hist, 0.50) - 1.0) < 1.0 / 16
    assert abs(tracer.quantile_us(agg.hist, 0.99) - 2.0) < 2.0 / 16


def test_tracer_self_time_excludes_traced_callees(monkeypatch):
    _fake_clock(monkeypatch, [0, 10, 30, 100])   # outer in, inner in/out, outer out
    tr = tracer.Tracer()
    inner = tr.wrap(lambda: None, "inner")
    outer = tr.wrap(lambda: inner(), "outer")
    outer()
    assert tr.aggs["inner"].self_ns == 20
    assert tr.aggs["outer"].self_ns == 80
