"""Command-line experiment runner.

Subcommands map to the named desk-scale workflows; every run echoes its
effective configuration and writes CSV logs plus a summary file.  Exit
codes: 0 success, 2 bad configuration (the offending key path is printed),
3 numeric fault during a run (with the experiment time), 1 anything else.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .config import ConfigError, load_config
from .plant import SimulationFault

# command -> (help, the experiments function that runs it, its own flags as
# (flag, add_argument keywords)).  The function is named, not bound: main
# looks it up on the module when the command runs, so a function rebound
# there (as a timer or tracer does) is the one called.  A flag's dest is the
# function's parameter; metavar keeps the flag's own name in the usage.
COMMANDS = {
    "bode-open-loop": ("open-loop chirp bode at several amplitudes", "bode_open_loop", ()),
    "dob-verify": ("DOB on/off nominalization comparison", "dob_verify", ()),
    "pid-step": ("force-step responses across the k_d sweep", "pid_step", ()),
    "leaky-demo": ("leaky-integration recursion demo", "leaky_demo", ()),
    "discretize": ("print discrete coefficients of pn, qd, or pid", "discretize_report", (
        ("--tf", dict(dest="tf_name", required=True, choices=("pn", "qd", "pid"))),
        ("--rate", dict(dest="rate_hz", metavar="RATE", type=float, required=True,
                        help="sample rate, Hz")))),
    "pendulum-chirp": ("pendulum tracking chirp, DOB on/off", "pendulum_chirp", (
        ("--dob", dict(default="both", choices=("on", "off", "both"))),)),
    "fit": ("identification round trip (chirp, FRF, rational fit)", "fit_experiment", (
        ("--u", dict(dest="u_csv", metavar="U", default=None,
                     help="input record CSV (t,value)")),
        ("--y", dict(dest="y_csv", metavar="Y", default=None,
                     help="output record CSV (t,value)")))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seactrl",
        description="Desk-scale experiments for the series-elastic joint force-control stack.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, flags) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", default=None, help="INI config file")
        sub.add_argument("--out", default=None, help="output directory")
        for flag, kwargs in flags:
            sub.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    kwargs = vars(build_parser().parse_args(argv))
    command, config, out = kwargs.pop("command"), kwargs.pop("config"), kwargs.pop("out")
    try:
        cfg = load_config(command, config)
        run = getattr(experiments, COMMANDS[command][1])
        if command == "discretize":
            report = run(cfg, **kwargs)
            print(f"tf = {report['tf']}  rate = {report['rate_hz']:g} Hz")
            print("a_hat =", " ".join(f"{v:.12g}" for v in report["a_hat"]))
            print("b_hat =", " ".join(f"{v:.12g}" for v in report["b_hat"]))
            print(f"dc_gain_at_z1 = {report['dc_gain_at_z1']:.9g}")
            return 0
        out = out or f"seactrl-out/{command}"
        summary = run(cfg, out, **kwargs)
        for key in sorted(summary):
            print(f"{key} = {summary[key]}")
        print(f"artifacts written to {out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # one-line diagnostic, non-zero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
