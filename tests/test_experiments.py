"""Each experiment frees a finished scenario's log before the next one runs."""

import weakref

import pytest

from seactrl import experiments
from seactrl.config import load_config
from seactrl.plant import LOG_COLUMNS

CHIRP_INI = ("[scenario]\nduration_s = 2.0\nplant_hz = 2000\nchirp_f_start = 0.5\n"
             "amplitudes = 1.0, 1.75\n"
             "[sysid]\ngrid_lo_hz = 1.0\ngrid_hi_hz = 8.0\nsegments = 2\n")


@pytest.fixture
def live_at_start(monkeypatch):
    """Wrap ``experiments.run_scenario`` so that each call first counts the
    earlier logs, and the columns of those logs, that are still alive.

    No garbage collection is forced: a log must die by reference count.
    """
    run_scenario = experiments.run_scenario
    refs: list = []
    counts: list[int] = []

    def run(sc):
        counts.append(sum(ref() is not None for ref in refs))
        log = run_scenario(sc)
        refs.extend(weakref.ref(obj) for obj in (log, *map(log.column, LOG_COLUMNS)))
        return log

    monkeypatch.setattr(experiments, "run_scenario", run)
    return counts


@pytest.mark.parametrize("experiment, ini, run, scenarios", [
    ("dob-verify", CHIRP_INI, experiments.dob_verify, 2),
    ("bode-open-loop", CHIRP_INI, experiments.bode_open_loop, 2),
    ("pid-step", "[scenario]\nduration_s = 0.3\nplant_hz = 5000\nkd_sweep = 0.0, 0.5\n",
     experiments.pid_step, 2),
    ("pendulum-chirp", "[scenario]\nduration_s = 0.3\nplant_hz = 10000\n",
     lambda cfg, out: experiments.pendulum_chirp(cfg, out, dob="both"), 2),
], ids=["dob-verify", "bode-open-loop", "pid-step", "pendulum-chirp-both"])
def test_previous_log_is_dead_when_the_next_scenario_starts(
        tmp_path, live_at_start, experiment, ini, run, scenarios):
    path = tmp_path / "fast.ini"
    path.write_text(ini)
    run(load_config(experiment, path), tmp_path / "out")
    assert live_at_start == [0] * scenarios
