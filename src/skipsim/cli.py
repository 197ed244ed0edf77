"""Command-line front end. Exit codes: 0 success, 2 configuration or usage
error, 3 failed built-in check in --assert mode."""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys

from . import calibrate, experiments
from .config import ConfigError, load_config
from .gait import Trajectory
from .stats import ForceTrace

# Move the objects created at import (numpy, the stdlib, skipsim: about
# 22,000) into the collector's permanent generation, so the interpreter's
# final collection skips them and exit takes about 10 ms, not 45. Safe: every
# output file is closed by its `with` block, stdout and stderr are still
# flushed at exit, and no skipsim object has a finalizer. Here rather than
# in main(), which tests call many times in one process.
gc.freeze()

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ASSERT = 3


TRIALS = ("--trials", {"type": int, "help": "trials per condition "
                       "(config key experiments.<command>.trials)"})
ASSERT = ("--assert", {"dest": "check", "action": "store_true",
                       "help": "run built-in result checks, exit 3 on failure"})

# name -> (help, flags beyond --config/--seed/--out, one-line report). Each
# flag's dest is a config key it sets (seed, trials, budget) or a keyword of
# experiments.run_<name> (an input CSV's takes what READ makes of it); a
# flag not given stays out of the namespace.
COMMANDS = {
    "tail-characterize": (
        "strike-force sweep over blade lengths", [ASSERT],
        lambda summary: f"{len(summary)} lengths"),
    "gait-drift": (
        "straight-line drift: encoder gaits vs open loop", [TRIALS, ASSERT],
        lambda summary: "open-loop max drift "
                        f"{summary['open_loop']['max_drift_m']:.4f} m"),
    "moisture-sweep": (
        "velocity vs moisture grid for all modes", [TRIALS, ASSERT],
        lambda rows: f"{len(rows)} conditions"),
    "substrate-bench": (
        "mean skip velocity per substrate", [TRIALS, ASSERT],
        lambda summary: f"ordering_ok={summary['ordering_ok']}"),
    "scenario": (
        "heterogeneous-terrain run with mode switches", [ASSERT],
        lambda summary: f"{len(summary['switches'])} switches, "
                        f"{summary['net_displacement_m']:.3f} m"),
    "calibrate": (
        "fit substrate parameters to velocity targets", [
            ("--targets", {"dest": "targets", "metavar": "CSV",
                           "help": "targets CSV (default: bundled)"}),
            ("--budget", {"type": int, "help": "evaluation budget (config "
                          "key experiments.calibrate.budget)"})],
        lambda summary: f"final loss {summary['final_loss']:.6f} "
                        f"({summary['evaluations']} evaluations)"),
    "analyze": (
        "run the measurement pipeline on CSV data", [
            ("--trace", {"dest": "trace", "metavar": "CSV",
                         "help": "force trace CSV (time_s, force_N)"}),
            ("--trajectory", {
                "dest": "trajectory", "metavar": "CSV",
                "help": "trajectory CSV (time_s, x_m, y_m, heading_rad)"})],
        lambda report: str(sorted(report))),
}
# each flag that names an input CSV: its dest -> how main reads the file,
# before --out is made (looked up per call, like the runners)
READ = {"targets": lambda path: calibrate.load_targets(path),
        "trace": lambda path: ForceTrace.read_csv(path),
        "trajectory": lambda path: Trajectory.read_csv(path)}


def build_parser():
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file overriding defaults")
    common.add_argument("--seed", type=int,
                        help="base random seed (config key seed)")
    common.add_argument("--out", default="skipsim_out",
                        help="output directory (default: skipsim_out)")
    parser = argparse.ArgumentParser(
        prog="skipsim",
        description="Skipping/crawling robot simulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=help_text,
                                 argument_default=argparse.SUPPRESS)
        for flag, options in flags:
            command.add_argument(flag, **options)
    return parser


def _outermost_missing(path: str):
    """The outermost directory of `path` that does not exist yet, as an
    absolute path (the one `os.makedirs(path)` makes first), or None."""
    path = os.path.abspath(path)
    if os.path.exists(path):
        return None
    while not os.path.exists(os.path.dirname(path)):
        path = os.path.dirname(path)
    return path


def main(argv=None) -> int:
    kwargs = vars(build_parser().parse_args(argv))
    name, out = kwargs.pop("command"), kwargs.pop("out")
    if name == "analyze" and not kwargs.keys() & {"trace", "trajectory"}:
        print("error: analyze needs --trace or --trajectory", file=sys.stderr)
        return EXIT_CONFIG
    section = name.replace("-", "_")
    # a value flag overrides its key, checked at load with the file's values
    counts = {key: kwargs.pop(key) for key in ("trials", "budget")
              if key in kwargs}
    overrides = {"experiments": {section: counts}} if counts else {}
    if "seed" in kwargs:
        overrides["seed"] = kwargs.pop("seed")
    try:
        config = load_config(kwargs.pop("config", None), overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # looked up per call, so that wrappers installed on the module apply
    run = getattr(experiments, "run_" + section)
    made = _outermost_missing(out)
    try:
        kwargs = {k: READ[k](v) if k in READ else v for k, v in kwargs.items()}
        os.makedirs(out, exist_ok=True)
        result = run(config, out, **kwargs)
    except experiments.AssertionFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_ASSERT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if made:  # the directories made here for an --out still empty go
            path = os.path.abspath(out)
            with contextlib.suppress(OSError):  # not made, or not empty
                while True:
                    os.rmdir(path)
                    if path == made:
                        break
                    path = os.path.dirname(path)
        return EXIT_CONFIG
    print(f"{name}: {COMMANDS[name][2](result)} -> {out}")
    return EXIT_OK


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
