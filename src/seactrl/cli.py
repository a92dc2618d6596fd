"""Command-line experiment runner.

Subcommands map to the named desk-scale workflows; every run echoes its
effective configuration and writes CSV logs plus a summary file.  Exit
codes: 0 success, 2 bad configuration (the offending key path is printed),
3 numeric fault during a run (with the experiment time), 1 anything else.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import experiments
from .config import ConfigError, load_config
from .lti import CausalityError
from .plant import SimulationFault


def _add_common(sub):
    sub.add_argument("--config", default=None, help="INI config file")
    sub.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seactrl",
        description="Desk-scale experiments for the series-elastic joint force-control stack.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bode-open-loop", help="open-loop chirp bode at several amplitudes")
    _add_common(p)

    p = subs.add_parser("dob-verify", help="DOB on/off nominalization comparison")
    _add_common(p)

    p = subs.add_parser("pid-step", help="force-step responses across the k_d sweep")
    _add_common(p)

    p = subs.add_parser("leaky-demo", help="leaky-integration recursion demo")
    _add_common(p)

    p = subs.add_parser("discretize", help="print discrete coefficients of pn, qd, or pid")
    _add_common(p)
    p.add_argument("--tf", required=True, choices=("pn", "qd", "pid"))
    p.add_argument("--rate", type=float, required=True, help="sample rate, Hz")

    p = subs.add_parser("pendulum-chirp", help="pendulum tracking chirp, DOB on/off")
    _add_common(p)
    p.add_argument("--dob", default="both", choices=("on", "off", "both"))

    p = subs.add_parser("fit", help="identification round trip (chirp, FRF, rational fit)")
    _add_common(p)
    p.add_argument("--u", default=None, help="input record CSV (t,value)")
    p.add_argument("--y", default=None, help="output record CSV (t,value)")
    return parser


# largest Tustin identity gap (relative rounding error of the printed
# coefficients, see lti.tustin_gap) that discretize accepts
TUSTIN_GAP_TOL = 1e-6


def _discretize(cfg: dict, tf_name: str, rate: float) -> dict:
    """``discretize_report`` at ``--rate``, rejecting with ``--rate`` a rate
    that is not positive and finite or that the Tustin chain cannot carry:
    one that overflows or underflows on the way, gives non-finite
    coefficients, or gives a Tustin gap above ``TUSTIN_GAP_TOL``."""
    if not (math.isfinite(rate) and rate > 0.0):
        raise ConfigError("--rate", f"{rate} is not a positive finite rate")
    try:
        with np.errstate(all="raise"):
            report = experiments.discretize_report(cfg, tf_name, rate)
    except (FloatingPointError, CausalityError) as exc:
        raise ConfigError("--rate", f"{rate:g} Hz cannot be discretized ({exc})") from None
    if not all(map(math.isfinite, report["a_hat"] + report["b_hat"])):
        raise ConfigError("--rate", f"{rate:g} Hz gives non-finite coefficients")
    if not report["tustin_gap"] <= TUSTIN_GAP_TOL:
        raise ConfigError(
            "--rate", f"{rate:g} Hz gives a Tustin gap of {report['tustin_gap']:.2g} "
            f"(tolerance {TUSTIN_GAP_TOL:g}) on the 0.1-100 Hz check points below a "
            "quarter of the rate (inf: there is none)")
    return report


def _out_dir(args) -> str:
    return args.out if args.out else f"seactrl-out/{args.command}"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.command, args.config)
        if args.command == "discretize":
            report = _discretize(cfg, args.tf, args.rate)
            print(f"tf = {report['tf']}  rate = {report['rate_hz']:g} Hz")
            print("a_hat =", " ".join(f"{v:.12g}" for v in report["a_hat"]))
            print("b_hat =", " ".join(f"{v:.12g}" for v in report["b_hat"]))
            print(f"dc_gain_at_z1 = {report['dc_gain_at_z1']:.9g}")
            return 0
        out = _out_dir(args)
        if args.command == "bode-open-loop":
            summary = experiments.bode_open_loop(cfg, out)
        elif args.command == "dob-verify":
            summary = experiments.dob_verify(cfg, out)
        elif args.command == "pid-step":
            summary = experiments.pid_step(cfg, out)
        elif args.command == "leaky-demo":
            summary = experiments.leaky_demo(cfg, out)
        elif args.command == "pendulum-chirp":
            summary = experiments.pendulum_chirp(cfg, out, dob=args.dob)
        elif args.command == "fit":
            summary = experiments.fit_experiment(cfg, out, u_csv=args.u, y_csv=args.y)
        else:  # pragma: no cover - argparse enforces choices
            raise ValueError(f"unknown command {args.command}")
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
