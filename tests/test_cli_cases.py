"""The CLI's exit-code contract, one table of cases: 0 for a run that
succeeds, 2 for a usage or input error and 3 for a failed `--assert`.

Each row is run in process through `cli.main`, and, where `shutil.which`
finds a `skipsim` console script (`pip install -e .` makes one), through
that script too, with this checkout's `src` first on PYTHONPATH; both ways
must print the same lines and exit alike. Every run, whatever the row:
- writes no traceback and no warning;
- exit 0: prints one stdout line, nothing on stderr, and makes `--out`;
- exit 3: prints one `check failed:` line, nothing on stdout, and keeps
  the `--out` its check read;
- exit 2: prints one `error:` line (argparse's own after its usage) and
  nothing on stdout, and leaves its directory as it found it: no `--out`
  is made, and one that was there is left empty.
"""

import json
import math
import os
import shutil
import subprocess
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from skipsim import cli, experiments, gait
from skipsim.calibrate import MAX_RESTARTS
from skipsim.gait import (MAX_FIN_SPEED, MAX_TICKS, MAX_TRIAL_S, GaitConfig,
                          GaitMode, drift_duration)
from skipsim.locomotion import MAX_TRIALS
from skipsim.springtail import MAX_STRIKES, MAX_TRACE_SAMPLES
from skipsim.stats import MAX_BOOTSTRAP_RESAMPLES

SRC = str(Path(__file__).resolve().parents[1] / "src")
SKIPSIM = shutil.which("skipsim")
COLUMNS = "80"  # the width argparse wraps a usage to, either way


@dataclass(frozen=True)
class Row:
    """One command line and what it must do."""

    # after `skipsim`, split on spaces; `--out o` is added unless it is there
    argv: str
    # how stderr begins; of an argparse error, how its last line begins
    err: str = ""
    # cfg.json, given as `--config cfg.json`: a document, or its text or bytes
    config: object = None
    code: int = 2
    # input file name -> its text, or None for an empty directory
    files: dict = field(default_factory=dict)
    # the row whose --out this row's must equal, byte for byte
    same_as: str = ""
    # an exit 2 refused before any runner or input reader starts: in
    # process, each of them and the gait schedule raise if called
    load: bool = True


TARGETS = "mode,material,moisture,target_cmps,std_cmps,weight\n"
TRAJECTORY = "time_s,x_m,y_m,heading_rad\n"
PLAIN = ("time_s,force_N\n0.0,0.0\n0.0005,1.5\n0.001,3.25\n0.0015,1.5\n"
         "0.002,0.0\n")
PEAKS = "time_s,force_N\n0.0,0.0\n0.5,2.0\n1.0,0.0\n"
HUGE_PEAKS = ("time_s,force_N\n0.0,0\n0.1,1e308\n0.2,0\n0.3,0\n0.4,0\n0.5,0\n"
              "0.6,1e308\n0.7,0\n")
OUT_THERE = {"o": None}  # --out exists, empty, before the run
FINEST_DT = MAX_TRIAL_S / MAX_TICKS


def _input(argv, text, err, **kwargs):
    """A row reading `text` as the CSV of `argv`'s last flag."""
    files = {} if text is None else {"in.csv": text}
    return Row(f"{argv} in.csv", err, files=files, load=False, **kwargs)


def _doc(dotted, value):
    """The config document that sets the key `dotted` to `value`."""
    for key in reversed(dotted.split(".")):
        value = {key: value}
    return value


def _shortest_refused_drift():
    """The shortest distance the async gait, the slowest, cannot drift
    within MAX_TRIAL_S, found by bisection on the doubles."""
    lo, hi = 1.0, 100.0
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        try:
            drift_duration(GaitMode.ASYNC, GaitConfig(), mid)
            lo = mid
        except ValueError:
            hi = mid
    return hi


def _strikes_over(command, section, key):
    """`section`'s `key` runs 64 s at a motor rate one revolution over
    MAX_STRIKES in 64 s (exact in binary)."""
    value = [["grass", "skip", 64.0, 0.0]] if key == "segments" else 64.0
    named = "segments[0]" if key == "segments" else key
    return Row(command, "error: config key tail.motor_rev_per_s is too high "
               f"for experiments.{section}.{named}",
               {"tail": {"motor_rev_per_s": (MAX_STRIKES + 1) / 64.0},
                "experiments": {section: {key: value}}})


def _in_another(rows, command):
    """Each refused config of `rows` again in `command`, which refuses it at
    load too."""
    return {f"{name}-in-{command}": Row(command, row.err, row.config)
            for name, row in rows.items()}


TRIALS = f"must lie in [1, {MAX_TRIALS}]\n"
RESAMPLES = ("error: config key analysis.bootstrap_resamples must lie in "
             f"[1, {MAX_BOOTSTRAP_RESAMPLES}]\n")
TRIAL_LENGTH = "must lie in (0, 3600] s, got"
FINITE = "must be a finite number\n"
SKIP_SPEED = "error: config key robot.mass_kg, launched at "
COARSE = ("error: config key gait.dt_s is too coarse for gait.fin_speed_rad_s: "
          "a step of 1 rad a tick must stay below gait.detection_window_rad\n")

# Config values a trial spec, blade, analysis or strike count would refuse;
# each is refused at load in its own command and in another.
TRIAL_INPUTS = {
    "segment-material": Row("scenario", "error: config key experiments."
                            "scenario.segments[0]: material must be one of",
                            _doc("experiments.scenario.segments",
                                 [["mud", "skip", 12, 0]])),
    "segment-mode": Row("scenario", "error: config key experiments.scenario."
                        "segments[1]: mode must be one of",
                        _doc("experiments.scenario.segments",
                             [["grass", "skip", 12, 0],
                              ["rigid", "fly", 6, 0]])),
    "segment-moisture": Row("scenario", "error: config key experiments."
                            "scenario.segments[0]: moisture 5.0 outside "
                            "supported range [0, 1.2]\n",
                            _doc("experiments.scenario.segments",
                                 [["grass", "skip", 12, 5.0]])),
    "bench-material": Row("substrate-bench", "error: config key experiments."
                          "substrate_bench.conditions[0]: material must be "
                          "one of", _doc("experiments.substrate_bench."
                                         "conditions", [["mud", 0.0]])),
    "bench-moisture": Row("substrate-bench", "error: config key experiments."
                          "substrate_bench.conditions[0]: moisture 7.0 "
                          "outside supported range [0, 1.2]\n",
                          _doc("experiments.substrate_bench.conditions",
                               [["grass", 7.0]])),
    "sweep-material": Row("moisture-sweep", "error: config key experiments."
                          "moisture_sweep.materials[0]: material must be one "
                          "of", _doc("experiments.moisture_sweep.materials",
                                     ["mud"])),
    "sweep-unswept-material": Row(
        "moisture-sweep", "error: config key experiments.moisture_sweep."
        "materials[1]: material must be one of uniform_sand, bentonite_clay, "
        "not 'grass'\n", _doc("experiments.moisture_sweep.materials",
                              ["uniform_sand", "grass"])),
    "sweep-unused-grid": Row(
        "moisture-sweep", "error: config key experiments.moisture_sweep."
        "bentonite_clay_grid[0]: moisture -0.1 outside supported range",
        {"experiments": {"moisture_sweep": {
            "materials": ["uniform_sand"], "bentonite_clay_grid": [-0.1]}}}),
}
REFUSED_AT_LOAD = {
    "lengths-empty": Row("tail-characterize", "error: config key experiments."
                         "tail_characterize.lengths_mm must not be empty\n",
                         _doc("experiments.tail_characterize.lengths_mm", [])),
    "lengths-colliding": Row(
        "tail-characterize", "error: config key experiments.tail_"
        "characterize.lengths_mm lists 25mm more than once\n",
        _doc("experiments.tail_characterize.lengths_mm", [25.0, 25.0000001])),
    "length-0": Row("tail-characterize", "error: config key experiments."
                    "tail_characterize.lengths_mm[0]: 0mm must lie in ",
                    _doc("experiments.tail_characterize.lengths_mm", [0])),
    "length-neg": Row("tail-characterize", "error: config key experiments."
                      "tail_characterize.lengths_mm[1]: -5mm must lie in ",
                      _doc("experiments.tail_characterize.lengths_mm",
                           [25, -5])),
    "length-60": Row("tail-characterize", "error: config key experiments."
                     "tail_characterize.lengths_mm[0]: 60mm must lie in "
                     "(0, 51.8363] mm, the housing arc tail.housing_radius_m "
                     "* tail.housing_arc_rad\n",
                     _doc("experiments.tail_characterize.lengths_mm", [60])),
    "sweep-grid-empty": Row("moisture-sweep", "error: config key experiments."
                            "moisture_sweep.uniform_sand_grid must not be "
                            "empty", _doc("experiments.moisture_sweep."
                                          "uniform_sand_grid", [])),
    "sweep-material-twice": Row(
        "moisture-sweep", "error: config key experiments.moisture_sweep."
        "materials lists uniform_sand more than once\n",
        _doc("experiments.moisture_sweep.materials",
             ["uniform_sand", "bentonite_clay", "uniform_sand"])),
    "sweep-moisture-twice": Row(
        "moisture-sweep", "error: config key experiments.moisture_sweep."
        "uniform_sand_grid lists moisture 0.1 more than once\n",
        _doc("experiments.moisture_sweep.uniform_sand_grid", [0.1, 0.1])),
    "bench-material-twice": Row(
        "substrate-bench", "error: config key experiments.substrate_bench."
        "conditions lists grass more than once\n",
        _doc("experiments.substrate_bench.conditions",
             [["grass", 0.0], ["uniform_sand", 0.15], ["grass", 0.1]])),
    "segments-empty": Row("scenario", "error: config key experiments."
                          "scenario.segments must not be empty\n",
                          _doc("experiments.scenario.segments", [])),
    "angle-over-arc": Row("substrate-bench", "error: config key engaged_angle."
                          "upper_rad must stay below tail.housing_arc_rad\n",
                          _doc("engaged_angle.upper_rad", 5.0)),
    "ci-level-high": Row("tail-characterize", "error: config key analysis."
                         "ci_level must lie in (0, 1)\n",
                         _doc("analysis.ci_level", 1.5)),
    "ci-level-0": Row("analyze --trace in.csv", "error: config key analysis."
                      "ci_level must lie in (0, 1)\n",
                      _doc("analysis.ci_level", 0.0), files={"in.csv": PEAKS}),
    "peak-threshold-0": Row("analyze --trace in.csv", "error: config key "
                            "analysis.peak_threshold_n must be positive\n",
                            _doc("analysis.peak_threshold_n", 0.0),
                            files={"in.csv": PEAKS}),
    "min-separation-neg": Row("tail-characterize", "error: config key "
                              "analysis.min_separation_s must be >= 0\n",
                              _doc("analysis.min_separation_s", -1)),
    "fin-speed-over": Row("scenario", "error: config key gait.fin_speed_rad_s "
                          f"must lie in (0, {MAX_FIN_SPEED:g}] rad/s",
                          _doc("gait.fin_speed_rad_s", MAX_FIN_SPEED + 1)),
    "restarts-over": Row("calibrate", "error: config key experiments."
                         f"calibrate.restarts must lie in [1, {MAX_RESTARTS}]"
                         "\n", _doc("experiments.calibrate.restarts",
                                    MAX_RESTARTS + 1)),
    **{f"strikes-{section}": _strikes_over(command, section, key)
       for command, section, key in (
           ("tail-characterize", "tail_characterize", "record_s"),
           ("moisture-sweep", "moisture_sweep", "duration_s"),
           ("substrate-bench", "substrate_bench", "duration_s"),
           ("scenario", "scenario", "segments"),
           ("calibrate", "calibrate", "duration_s"))},
}
# Each check of a typed section: (name, a config it refuses, the error after
# "config key ")
TYPED = (
    ("tail-width-0", _doc("tail.width_m", 0), "tail.width_m must be positive"),
    ("tail-modulus-neg", _doc("tail.youngs_modulus_pa", -1),
     "tail.youngs_modulus_pa must be positive"),
    ("tail-thickness-over-radius", _doc("tail.thickness_m", 0.02),
     "tail.thickness_m must stay below tail.housing_radius_m"),
    ("tail-arc-7", _doc("tail.housing_arc_rad", 7),
     "tail.housing_arc_rad must lie in (0, 2*pi)"),
    ("angle-kind", _doc("engaged_angle.kind", "normal"),
     "engaged_angle.kind must be uniform or truncated_normal"),
    ("angle-lower-0", _doc("engaged_angle.lower_rad", 0),
     "engaged_angle.lower_rad must lie in (0, engaged_angle.upper_rad]"),
    ("angle-spread-neg", {"engaged_angle": {"kind": "truncated_normal",
                                            "spread_rad": -1}},
     "engaged_angle.spread_rad must be >= 0"),
    ("jam-over-roll", _doc("regimes.jam_below_m", 0.04),
     "regimes.jam_below_m must lie in (0, regimes.roll_above_m)"),
    ("jam-prob-2", _doc("regimes.jam_strike_prob", 2),
     "regimes.jam_strike_prob must lie in [0, 1]"),
    ("roll-attenuation-0", _doc("regimes.roll_attenuation", 0),
     "regimes.roll_attenuation must lie in (0, 1]"),
    ("magnets-none", _doc("gait.magnet_angles_rad", []),
     "gait.magnet_angles_rad must list at least one magnet"),
    ("magnets-overlap", _doc("gait.magnet_angles_rad", [0, 0.2]),
     "gait.magnet_angles_rad must lie over 2 * gait.detection_window_rad "
     "apart around the circle"),
    ("window-0", _doc("gait.detection_window_rad", 0),
     "gait.detection_window_rad must be positive"),
    ("split-lo-over-hi", _doc("noise.gain_split_lo", 0.01),
     "noise.gain_split_lo must lie in [0, noise.gain_split_hi]"),
    ("split-hi-2", _doc("noise.gain_split_hi", 2), "noise.gain_split_hi must "
     "stay below 2, so that each side's stride gain stays positive"),
    ("heading-jitter-neg", _doc("noise.heading_jitter_std", -1),
     "noise.heading_jitter_std must be >= 0"),
    ("track-width-0", _doc("noise.track_width_m", 0),
     "noise.track_width_m must be positive"),
    ("gravity-0", _doc("robot.gravity_m_s2", 0),
     "robot.gravity_m_s2 must be positive"),
    ("launch-angle-2", _doc("robot.launch_angle_rad", 2),
     "robot.launch_angle_rad must lie in (0, pi/2)"),
    ("pitch-limit-0", _doc("robot.pitch_speed_limit_m_s", 0),
     "robot.pitch_speed_limit_m_s must be positive"),
    ("skip-width-0", _doc("substrates.grass.skip.width", 0),
     "substrates.grass.skip.width must be positive"),
    ("skip-peak-2", _doc("substrates.uniform_sand.skip.peak", 2),
     "substrates.uniform_sand.skip.peak must lie in [0, 1]"),
    ("crawl-decay-neg", _doc("substrates.rigid.crawl.decay", -1),
     "substrates.rigid.crawl.decay must be >= 0"),
    ("crawl-rise-width-0", _doc("substrates.rigid.crawl.rise_width", 0),
     "substrates.rigid.crawl.rise_width must be positive"),
    ("excavation-neg", _doc("substrates.uniform_sand.excavation_traction", -1),
     "substrates.uniform_sand.excavation_traction must be >= 0"),
    ("slip-moisture-0", _doc("substrates.bentonite_clay.slip_moisture", 0),
     "substrates.bentonite_clay.slip_moisture must be positive"),
)

TRACE, TRAJ = "analyze --trace", "analyze --trajectory"
TARGET = "calibrate --budget 2 --targets"
MISSING = "[Errno 2] No such file or directory: 'in.csv'"
HEADER = "CSV line 1: the header must name the columns {}, each once"
FIELDS = "CSV line {}: a row must have {} fields, as the header has"
NOT_A_NUMBER = "CSV line 3: field {!r} is not a number"
# (name, argv before the CSV, its text or None for none, the error)
INPUTS = (
    ("trace-missing", TRACE, None, MISSING),
    ("trajectory-missing", TRAJ, None, MISSING),
    ("targets-missing", "calibrate --budget 1 --targets", None, MISSING),
    ("trace-equal-times", TRACE, "time_s,force_N\n0.0,1.0\n0.0,2.0\n",
     "force trace CSV timestamps must rise at a uniform step"),
    ("trace-uneven-times", TRACE,
     "time_s,force_N\n0.0,1.0\n0.5,2.0\n2.0,1.0\n",
     "force trace CSV timestamps must rise at a uniform step"),
    ("trace-subnormal-step", TRACE, "time_s,force_N\n0,1\n5e-324,2\n",
     "force trace CSV timestamps step too finely for a finite rate"),
    ("trace-short-row", TRACE, "time_s,force_N\n0.0,1.0\n0.0005\n",
     "force trace " + FIELDS.format(3, 2)),
    ("trace-first-row-short", TRACE, "time_s,force_N\n0.0\n",
     "force trace " + FIELDS.format(2, 2)),
    ("trace-extra-field", TRACE, "force_N,time_s\n1,0\n\n2,0.5,7\n",
     "force trace " + FIELDS.format(4, 2)),
    ("trace-extra-field-line-3", TRACE,
     "time_s,force_N\n0.0,1.0\n0.5,2.0,3.0\n",
     "force trace " + FIELDS.format(3, 2)),
    ("trace-field-over-csv-limit", TRACE,
     "time_s,force_N\n0,1\n1," + "9" * 200000,
     "force trace CSV line 3: field larger than field limit (131072)"),
    ("trace-repeated-column", TRACE,
     "time_s,time_s,force_N\n0.0,0.0,1.0\n0.5,0.5,2.0\n",
     "force trace " + HEADER.format(['time_s', 'force_N'])),
    ("trace-repeated-column-short", TRACE, "time_s,time_s,force_N\n0,0,1\n",
     "force trace " + HEADER.format(['time_s', 'force_N'])),
    ("trace-blank-force", TRACE, "time_s,force_N\n0.0,1.0\n0.0005,\n",
     "force trace " + NOT_A_NUMBER.format("")),
    # a bad field on line 3 comes before a row with an extra field on line
    # 5, as a reader that converts row by row meets them
    ("trace-first-error", TRACE,
     "time_s,force_N\n0.0,1.0\n0.0005,abc\n0.001,1.0\n0.0015,2.0,3.0\n",
     "force trace " + NOT_A_NUMBER.format("abc")),
    ("trace-header-only", TRACE, "time_s,force_N\n",
     "force trace CSV needs at least two samples"),
    ("trace-huge-peaks", TRACE, HUGE_PEAKS,
     "analysis.json would hold a non-finite number"),
    ("trajectory-no-heading", TRAJ,
     "time_s,x_m,y_m\n0.0,0.0,0.0\n1.0,1.0,0.0\n",
     "trajectory " + HEADER.format(['time_s', 'x_m', 'y_m', 'heading_rad'])),
    ("trajectory-empty", TRAJ, "",
     "trajectory " + HEADER.format(['time_s', 'x_m', 'y_m', 'heading_rad'])),
    ("trajectory-short-row", TRAJ, TRAJECTORY + "0,0,0\n",
     "trajectory " + FIELDS.format(2, 4)),
    ("trajectory-extra-field", TRAJ, TRAJECTORY + "0,0,0,0\n1,1,0,0,0\n",
     "trajectory " + FIELDS.format(3, 4)),
    ("trajectory-word-x", TRAJ, TRAJECTORY + "0,0,0,0\n1,abc,0,0\n",
     "trajectory " + NOT_A_NUMBER.format("abc")),
    ("trajectory-nan", TRAJ, TRAJECTORY + "0,0,0,0\n1,nan,0,0\n",
     "trajectory CSV values must be finite"),
    ("trajectory-inf", TRAJ, TRAJECTORY + "0,0,0,0\n1,0,-inf,0\n",
     "trajectory CSV values must be finite"),
    ("trajectory-overflow", TRAJ, TRAJECTORY + "0,-1e308,0,0\n1,1e308,0,0\n",
     "analysis.json would hold a non-finite number"),
    ("trajectory-overflow-drift", TRAJ,
     TRAJECTORY + "0,-1e308,0,0\n1,1e308,5,0\n2,-1e308,0,0\n",
     "analysis.json would hold a non-finite number"),
    ("trajectory-header-only", TRAJ, TRAJECTORY,
     "trajectory CSV needs at least two poses"),
    ("trajectory-crlf-blank", TRAJ, "time_s,x_m,y_m,heading_rad\r\n\r\n",
     "trajectory CSV needs at least two poses"),
    ("trajectory-one-row", TRAJ, TRAJECTORY + "0.0,0.0,0.0,0.0\n",
     "trajectory CSV needs at least two poses"),
    ("targets-word-moisture", TARGET,
     TARGETS + "skip,grass,zero,5.38,0.71,1.0\n",
     "targets CSV line 2: field 'zero' is not a number"),
    ("targets-nan-target", TARGET, TARGETS + "skip,grass,0.0,5.38,0.71,1.0\n"
     "skip,grass,0.0,nan,0.71,1.0\n",
     "targets CSV line 3: target_cmps must be finite"),
    ("targets-inf-weight", TARGET, TARGETS + "skip,grass,0.0,5.38,0.71,1.0\n"
     "skip,grass,0.0,5.38,0.71,inf\n",
     "targets CSV line 3: weight must be finite"),
    ("targets-moisture-5", TARGET, TARGETS + "skip,grass,0.0,5.38,0.71,1.0\n"
     "skip,grass,5.0,5.38,0.71,1.0\n",
     "targets CSV line 3: moisture 5.0 outside supported range [0, 1.2]"),
    # a target or weight that would make the loss overflow
    ("targets-huge-target", TARGET, TARGETS + "skip,grass,0.0,1e300,0.71,1.0\n",
     "targets CSV line 2: target_cmps must be at most 1e+50"),
    ("targets-huge-weights", TARGET, TARGETS + "skip,grass,0.0,5.38,0.71,1e308"
     "\nskip,rigid,0.0,5.38,0.71,1e308\n",
     "targets CSV line 2: weight must be at most 1e+50"),
    ("targets-short-row", TARGET, TARGETS + "skip,grass,0.0\n",
     "targets " + FIELDS.format(2, 6)),
    ("targets-extra-field", TARGET,
     TARGETS + "skip,grass,0.0,5.38,0.71,1.0,5\n",
     "targets " + FIELDS.format(2, 6)),
)

ROWS = {
    # runs that succeed, or whose --assert fails
    "scenario-assert": Row("scenario --assert", code=0),
    "tail-assert": Row("tail-characterize --assert", code=0),
    "drift-assert": Row("gait-drift --assert", code=0),
    "bench-assert": Row("substrate-bench --assert", code=0),
    "sweep-300-assert": Row("moisture-sweep --trials 300 --assert", code=0),
    "calibrate-seed-budget": Row("calibrate --seed 5 --budget 8", code=0),
    "tail-1mm-sweep-assert": Row(
        "tail-characterize --assert", code=0,
        config=_doc("experiments.tail_characterize.lengths_mm",
                    list(range(15, 36)))),
    "tail-truncated-normal-assert": Row(
        "tail-characterize --assert", code=0,
        config=_doc("engaged_angle.kind", "truncated_normal")),
    "finest-dt": Row("scenario", code=0, config=_doc("gait.dt_s", FINEST_DT)),
    "rate-int": Row("calibrate --budget 2", code=0,
                    config='{"analysis": {"trace_sample_rate_hz": 2000}}'),
    "rate-float": Row("calibrate --budget 2", code=0, same_as="rate-int",
                      config='{"analysis": {"trace_sample_rate_hz": 2000.0}}'),
    # an oversized stride split makes the open-loop drift check fail
    "drift-check-fails": Row(
        "gait-drift --assert", "check failed: open-loop drift ", code=3,
        config={"noise": {"gain_split_lo": 0.05, "gain_split_hi": 0.08}}),
    # the 15% uniform-sand row misses its bundled 3.4 cm/s target when the
    # curve's peak moves to 35%, while the ordering still holds
    "bench-target-at-row-moisture": Row(
        "substrate-bench --assert", "check failed: uniform_sand at moisture "
        "0.15", code=3, config={
            "substrates": {"uniform_sand": {"skip": {"center": 0.35}}},
            "experiments": {"substrate_bench": {"conditions": [
                ["uniform_sand", 0.15], ["nonuniform_sand", 0.0],
                ["bentonite_clay", 0.3333], ["grass", 0.0]]}}}),

    # usage errors: argparse's; a flag the command lacks is left to the
    # top-level parser
    "sweep-trials-word": Row("moisture-sweep --trials two",
                             "skipsim moisture-sweep: error: argument "
                             "--trials: invalid int value: 'two'"),
    "seed-fraction": Row("scenario --seed 1.5", "skipsim scenario: error: "
                         "argument --seed: invalid int value: '1.5'"),
    "tail-trials": Row("tail-characterize --trials 5",
                       "skipsim: error: unrecognized arguments: --trials 5"),
    "scenario-trials": Row("scenario --trials 0",
                           "skipsim: error: unrecognized arguments: --trials"),
    "calibrate-assert": Row(
        "calibrate --assert", "skipsim: error: unrecognized arguments: "
        "--assert"),
    "analyze-budget": Row("analyze --budget 3",
                          "skipsim: error: unrecognized arguments: --budget"),
    "analyze-no-input": Row("analyze", "error: analyze needs --trace or "
                            "--trajectory\n"),

    # the config file
    "config-not-utf8": Row("scenario", "error: config file is not UTF-8: ",
                           b"\xff\xfe"),
    "config-key-twice": Row(
        "calibrate --budget 2", "error: config key gait is named more than "
        "once\n", '{"gait": {"stride_m": 0.02}, "gait": {"dt_s": 0.005}}'),
    "config-nested-key-twice": Row(
        "scenario", "error: config key tail.width_m is named more than "
        "once\n", '{"tail": {"width_m": 0.01, "thickness_m": 1e-4, '
        '"width_m": 0.02}}'),
    # no list holds an object, so one naming a key twice is the wrong shape
    "config-listed-key-twice": Row(
        "scenario", "error: config key experiments.scenario.segments must be "
        "a list of rows", '{"experiments": {"scenario": {"segments": '
        '[["grass", "skip", 12, 0], {"mode": 1, "mode": 2}]}}}'),
    "config-nan": Row("substrate-bench", "error: config file holds NaN, which "
                      "is not a JSON number\n", '{"robot": {"mass_kg": NaN}}'),
    "unknown-key": Row("substrate-bench", "error: unknown config key: "
                       "tail.lenght_m\n", _doc("tail.lenght_m", 0.02)),
    "removed-key-body-length": Row(
        "scenario", "error: unknown config key: robot.body_length_m\n",
        _doc("robot.body_length_m", 0.058)),
    "removed-key-entanglement": Row(
        "scenario", "error: unknown config key: substrates.grass."
        "entanglement\n", _doc("substrates.grass.entanglement", 1.0)),
    "config-ci-level-word": Row("tail-characterize", "error: config key "
                                f"analysis.ci_level {FINITE}",
                                _doc("analysis.ci_level", "x")),
    "config-huge-integer-analysis": Row(
        "scenario", f"error: config key analysis.ci_level {FINITE}",
        _doc("analysis.ci_level", 10 ** 400)),
    "config-huge-integer-typed": Row(
        "scenario", f"error: config key tail.width_m {FINITE}",
        _doc("tail.width_m", -10 ** 400)),
    # json reads a number too large for a float, such as 1e400, as infinity
    **{f"overflow-{name}": Row("substrate-bench",
                               f"error: config key {key} must be a {kind}\n",
                               '{"%s": {"%s": %s}}' % (*key.split("."), text))
       for name, key, text, kind in (
           ("typed", "robot.mass_kg", "1e400", "finite number"),
           ("typed-motor", "tail.motor_rev_per_s", "1e400", "finite number"),
           ("typed-optional", "engaged_angle.mean_rad", "1e400",
            "finite number or null"),
           ("typed-tuple", "gait.magnet_angles_rad", "[0.0, 1e400]",
            "list of finite numbers"),
           ("analysis", "analysis.ci_level", "-1e400", "finite number"))},
    # a mass so small that a hop, or calibrate's squared velocity error,
    # would overflow; a blade whose E*I underflows to a zero force, or whose
    # t^3 overflows to an inf/inf one
    "mass-1e-100-calibrate": Row("calibrate", SKIP_SPEED,
                                 _doc("robot.mass_kg", 1e-100)),
    **{f"mass-1e-160-{command}": Row(command, SKIP_SPEED,
                                     _doc("robot.mass_kg", 1e-160))
       for command in ("moisture-sweep", "substrate-bench", "scenario",
                       "calibrate")},
    **{f"{name}-{command}": Row(
        command + " --trace in.csv" * (command == "analyze"), SKIP_SPEED,
        doc, files={"in.csv": PEAKS})
       for name, doc in (
           ("youngs-modulus-subnormal", _doc("tail.youngs_modulus_pa",
                                             1e-320)),
           ("thickness-huge", {"tail": {"housing_radius_m": 1e200,
                                        "thickness_m": 1e150}}))
       for command in cli.COMMANDS},

    # counts, seeds and budgets, by flag or by key
    "drift-trials-neg": Row("gait-drift --trials -3", "error: config key "
                            f"experiments.gait_drift.trials {TRIALS}"),
    "drift-trials-0": Row("gait-drift --trials 0", "error: config key "
                          f"experiments.gait_drift.trials {TRIALS}"),
    "config-drift-trials-0": Row(
        "gait-drift", f"error: config key experiments.gait_drift.trials "
        f"{TRIALS}", _doc("experiments.gait_drift.trials", 0)),
    "budget-0": Row("calibrate --budget 0", "error: config key experiments."
                    "calibrate.budget must be >= 1\n"),
    "seed-neg": Row("gait-drift --seed -1", "error: config key seed must be "
                    ">= 0\n"),
    "config-seed-neg": Row("gait-drift", "error: config key seed must be "
                           ">= 0\n", {"seed": -4}),
    **{f"trials-flag-over-{command}": Row(
        f"{command} --trials {MAX_TRIALS + 1}", "error: config key "
        f"experiments.{command.replace('-', '_')}.trials {TRIALS}",
        files=OUT_THERE)
       for command in ("gait-drift", "moisture-sweep", "substrate-bench")},
    **{f"{key}-{trials}-{command}": Row(
        command, f"error: config key experiments.{section}.{key} {TRIALS}",
        _doc(f"experiments.{section}.{key}", trials), files=OUT_THERE)
       for command, section, key in (
           ("gait-drift", "gait_drift", "trials"),
           ("moisture-sweep", "moisture_sweep", "trials"),
           ("substrate-bench", "substrate_bench", "trials"),
           ("calibrate", "calibrate", "n_trials"))
       for trials in (0, MAX_TRIALS + 1)},
    "budget-flag-0": Row("calibrate --budget 0", "error: config key "
                         "experiments.calibrate.budget must be >= 1\n",
                         files=OUT_THERE),
    "budget-key-0": Row("calibrate", "error: config key experiments."
                        "calibrate.budget must be >= 1\n",
                        _doc("experiments.calibrate.budget", 0),
                        files=OUT_THERE),
    "restarts-key-0": Row("calibrate", "error: config key experiments."
                          f"calibrate.restarts must lie in [1, {MAX_RESTARTS}]"
                          "\n", _doc("experiments.calibrate.restarts", 0),
                          files=OUT_THERE),
    "seed-flag-neg": Row("scenario --seed -2", "error: config key seed must "
                         "be >= 0\n", files=OUT_THERE),
    "scenario-seed-neg": Row("scenario --seed -1", "error: config key seed "
                             "must be >= 0\n"),
    **{f"resamples-{resamples}-{command}": Row(
        argv, RESAMPLES, _doc("analysis.bootstrap_resamples", resamples),
        files={**OUT_THERE, "in.csv": PEAKS})
       for command, argv in (("tail-characterize", "tail-characterize"),
                             ("analyze", "analyze --trace in.csv"))
       for resamples in (0, -1, MAX_BOOTSTRAP_RESAMPLES + 1)},

    # lengths of trials, recordings and drifts
    "sweep-grid-moisture": Row(
        "moisture-sweep", "error: config key experiments.moisture_sweep."
        "uniform_sand_grid[1]: moisture 5.0 outside supported range [0, 1.2]"
        "\n", _doc("experiments.moisture_sweep.uniform_sand_grid", [0.1, 5.0]),
        files=OUT_THERE),
    "bench-moisture-neg": Row(
        "substrate-bench", "error: config key experiments.substrate_bench."
        "conditions[1]: moisture -0.5 outside supported range [0, 1.2]\n",
        _doc("experiments.substrate_bench.conditions",
             [["uniform_sand", 0.0], ["grass", -0.5]]), files=OUT_THERE),
    "scenario-segment-moisture": Row(
        "scenario", "error: config key experiments.scenario.segments[1]: "
        "moisture 5.0 outside supported range [0, 1.2]\n",
        _doc("experiments.scenario.segments", [
            ["grass", "skip", 12.0, 0.0], ["rigid", "sync_crawl", 6.0, 5.0]])),
    "scenario-last-moisture": Row(
        "scenario", "error: config key experiments.scenario.segments[2]: "
        "moisture 5.0 outside supported range [0, 1.2]\n",
        _doc("experiments.scenario.segments", [
            ["grass", "skip", 12.0, 0.0], ["rigid", "sync_crawl", 6.0, 0.0],
            ["uniform_sand", "skip", 6.0, 5.0]]), files=OUT_THERE),
    "scenario-last-duration": Row(
        "scenario", "error: config key experiments.scenario.segments[2]: "
        f"duration {TRIAL_LENGTH} 3601.0\n",
        _doc("experiments.scenario.segments", [
            ["grass", "skip", 12.0, 0.0], ["rigid", "sync_crawl", 6.0, 0.0],
            ["uniform_sand", "skip", 3601, 0.1]]), files=OUT_THERE),
    "scenario-segment-long": Row(
        "scenario", "error: config key experiments.scenario.segments[1]: "
        f"duration {TRIAL_LENGTH} 100000.0\n",
        _doc("experiments.scenario.segments", [
            ["grass", "skip", 12.0, 0.0], ["rigid", "sync_crawl", 1e5, 0.0]])),
    **{f"{section}-duration-{value:g}": Row(
        command, f"error: config key experiments.{section}.duration_s "
        f"{TRIAL_LENGTH} {float(value)!r}\n",
        _doc(f"experiments.{section}.duration_s", value))
       for command, section, value in (
           ("moisture-sweep", "moisture_sweep", 3600.5),
           ("moisture-sweep", "moisture_sweep", -1),
           ("substrate-bench", "substrate_bench", 1e6),
           ("substrate-bench", "substrate_bench", -1),
           ("calibrate", "calibrate", 1e308),
           ("calibrate", "calibrate", -1),
           ("calibrate", "calibrate", 0))},
    "record-neg": Row("tail-characterize", "error: config key experiments."
                      "tail_characterize.record_s must be >= 0\n",
                      _doc("experiments.tail_characterize.record_s", -1)),
    # 2048 Hz and a 2**-7 s (16-sample) pulse: the duration and its product
    # are exact in binary
    "record-one-sample-over": Row(
        "tail-characterize", "error: config key experiments.tail_"
        "characterize.record_s plus tail.pulse_width_s is too long at "
        "analysis.trace_sample_rate_hz: a 4096 s trace at 2048 Hz would take "
        f"over {MAX_TRACE_SAMPLES} samples\n",
        {"tail": {"pulse_width_s": 2.0 ** -7},
         "analysis": {"trace_sample_rate_hz": 2048.0},
         "experiments": {"tail_characterize": {
             "record_s": (MAX_TRACE_SAMPLES - 16) / 2048.0}}},
        files=OUT_THERE),
    "record-4195": Row("tail-characterize", "error: config key experiments."
                       "tail_characterize.record_s plus tail.pulse_width_s is "
                       "too long at analysis.trace_sample_rate_hz: ",
                       _doc("experiments.tail_characterize.record_s", 4195.0)),
    **{f"distance-{value}": Row(
        "gait-drift", "error: config key experiments.gait_drift.distance_m "
        "must be positive\n", _doc("experiments.gait_drift.distance_m", value))
       for value in (-1, 0)},
    "distance-just-over": Row(
        "gait-drift", "error: config key experiments.gait_drift.distance_m is "
        "too long for gait.fin_speed_rad_s and gait.stride_m: a async drift "
        "over ", _doc("experiments.gait_drift.distance_m",
                      _shortest_refused_drift())),
    "distance-1000": Row(
        "gait-drift", "error: config key experiments.gait_drift.distance_m is "
        "too long for gait.fin_speed_rad_s and gait.stride_m: a sync drift "
        "over 1000 m would take 30309 s, over the 3600 s limit\n",
        _doc("experiments.gait_drift.distance_m", 1000)),

    # the gait, the blade and the trace
    "config-gait-stride-0": Row("gait-drift", "error: config key gait."
                                "stride_m must be positive\n",
                                _doc("gait.stride_m", 0)),
    "config-gait-fin-speed-0": Row(
        "scenario", "error: config key gait.fin_speed_rad_s must lie in ",
        _doc("gait.fin_speed_rad_s", 0)),
    "config-gait-dt-0": Row("scenario", "error: config key gait.dt_s must be "
                            "positive\n", _doc("gait.dt_s", 0)),
    # a fin turning a detection window or more per tick could sweep across
    # a magnet unseen; every command refuses it, crawling or not
    **{f"coarse-step-{command}": Row(command, COARSE,
                                     _doc("gait.fin_speed_rad_s", 100))
       for command in cli.COMMANDS if command != "analyze"},
    "coarse-step-analyze": Row("analyze --trajectory in.csv", COARSE,
                               _doc("gait.fin_speed_rad_s", 100),
                               files={"in.csv": TRAJECTORY + "0,0,0,0\n"
                                      "1,1,0,0\n"}),
    **{f"dt-{name}-{command}": Row(
        command, f"error: config key gait.dt_s must be at least {FINEST_DT!r} "
        f"s: a 3600 s schedule at {dt!r} s would take {ticks} controller "
        f"ticks, over the {MAX_TICKS} limit\n", _doc("gait.dt_s", dt))
       for name, dt, ticks in (
           ("subnormal", 5e-324, "inf"), ("1e-7", 1e-7, "36000000000.0"),
           ("just-too-fine", math.nextafter(FINEST_DT, 0.0),
            "4194304.000000001"))
       for command in ("scenario", "calibrate", "moisture-sweep",
                       "gait-drift")},
    **{f"typed-{name}": Row("scenario", f"error: config key {message}\n", doc)
       for name, doc, message in TYPED},
    **{f"{name}-{command}": Row(
        command, "error: config key analysis.trace_sample_rate_hz must be at "
        f"least 2 / tail.pulse_width_s = {least} Hz\n", doc)
       for name, doc, least in (
           ("rate-neg", _doc("analysis.trace_sample_rate_hz", -5), "200"),
           ("pulse-short", _doc("tail.pulse_width_s", 1e-9), "2e+09"))
       for command in ("tail-characterize", "substrate-bench")},
    "lengths-duplicate": Row(
        "tail-characterize", "error: config key experiments.tail_"
        "characterize.lengths_mm lists 20mm more than once\n",
        _doc("experiments.tail_characterize.lengths_mm", [20.0, 30.0, 20.0])),
    "bench-material-listed-twice": Row(
        "substrate-bench", "error: config key experiments.substrate_bench."
        "conditions lists uniform_sand more than once\n",
        _doc("experiments.substrate_bench.conditions", [
            ["uniform_sand", 0.15], ["nonuniform_sand", 0.0],
            ["bentonite_clay", 0.3333], ["grass", 0.0],
            ["uniform_sand", 0.0]])),
    **TRIAL_INPUTS, **_in_another(TRIAL_INPUTS, "tail-characterize"),
    **REFUSED_AT_LOAD, **_in_another(REFUSED_AT_LOAD, "gait-drift"),

    # input CSVs, read before --out is made
    **{name: _input(argv, text, f"error: {message}\n")
       for name, argv, text, message in INPUTS},
    "trace-plain": _input("analyze --trace", PLAIN, "", code=0),
    # rows numpy's parser refuses, which the row loop reads
    **{f"trace-{name}": _input("analyze --trace", text, "", code=0,
                               same_as="trace-plain")
       for name, text in (
           ("quoted", '"time_s","force_N"\n"0.0","0.0"\n"0.0005","1.5"\n'
                      '"0.001","3.25"\n"0.0015","1.5"\n"0.002","0.0"\n'),
           ("underscores", "time_s,force_N\n0.0,0.0\n0.000_5,0_1.5\n"
                           "0.001,3.2_5\n0.001_5,1.5\n0.002,0.0\n"),
           ("underscores-crlf", "time_s,force_N\r\n0.0,0.0\r\n0.000_5,0_1.5"
                                "\r\n0.001,3.2_5\r\n0.001_5,1.5\r\n"
                                "0.002,\u0660.\u0660\r\n"))},
    # every directory made for --out goes, up to the first made; nest stays
    "trace-huge-peaks-nested-out": Row(
        "analyze --trace in.csv --out nest/a/b/c", "error: analysis.json "
        "would hold a non-finite number\n",
        files={"in.csv": HUGE_PEAKS, "nest": None}, load=False),
}


def _argv(row):
    argv = row.argv.split()
    if row.config is not None:
        argv += ["--config", "cfg.json"]
    return argv if "--out" in argv else [*argv, "--out", "o"]


def _tree(root):
    """Each path under `root` -> its bytes, None for a directory."""
    return {str(path.relative_to(root)):
            None if path.is_dir() else path.read_bytes()
            for path in root.rglob("*")}


def _in_process(monkeypatch, capsys):
    """A way to run a row: `cli.main` in this process."""
    def never(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    def run(row, where):
        monkeypatch.chdir(where)
        monkeypatch.setenv("COLUMNS", COLUMNS)
        if row.code == 2 and row.load:
            for name in cli.COMMANDS:
                monkeypatch.setattr(experiments,
                                    "run_" + name.replace("-", "_"), never)
            for name in cli.READ:
                monkeypatch.setitem(cli.READ, name, never)
            monkeypatch.setattr(gait, "run_cycles", never)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(_argv(row))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        out, err = capsys.readouterr()
        return code, out, err + "".join(
            f"{w.category.__name__}: {w.message}\n" for w in caught)
    return run


def _script(row, where):
    """A way to run a row: the `skipsim` script, on this checkout's source."""
    env = dict(os.environ, COLUMNS=COLUMNS, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([SKIPSIM, *_argv(row)], cwd=where, env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def _write(row, where):
    """Make the directory `where` and write `row`'s inputs into it."""
    where.mkdir(parents=True)
    config = {} if row.config is None else {"cfg.json": row.config}
    for path, text in {**row.files, **config}.items():
        if text is None:
            (where / path).mkdir()
            continue
        if isinstance(text, (dict, list)):
            text = json.dumps(text)
        (where / path).write_bytes(
            text.encode() if isinstance(text, str) else text)


def _run(name, where, way):
    """(exit code, stdout, stderr) of row `name` run `way` in the new
    directory `where`, checked against the row."""
    row = ROWS[name]
    _write(row, where)
    argv = _argv(row)
    out_dir = where / argv[argv.index("--out") + 1]
    before = _tree(where)
    code, out, err = result = way(row, where)
    assert code == row.code, err
    assert "Traceback" not in err and "Warning" not in err, err
    if code == 0:
        assert err == "" and out.count("\n") == 1, (out, err)
        assert out.startswith(f"{argv[0]}: ") and out.endswith(" -> o\n")
    else:
        assert out == ""
        *usage, line = err.splitlines()
        if row.err.startswith("skipsim"):  # argparse: a usage, then the error
            assert usage[0].startswith("usage: ") and line.startswith(row.err)
        else:
            assert usage == [] and err.startswith(row.err), err
            assert line.startswith("check failed: " if code == 3 else "error: ")
    if code == 2:
        assert _tree(where) == before
    else:
        assert out_dir.is_dir()
    if row.same_as:
        same = where.with_name(where.name + "-same")
        _run(row.same_as, same, way)
        assert _tree(out_dir) == _tree(same / "o")
    return result


@pytest.mark.parametrize("name", ROWS)
def test_row_in_process(name, tmp_path, monkeypatch, capsys):
    _run(name, tmp_path / "run", _in_process(monkeypatch, capsys))


@pytest.mark.skipif(SKIPSIM is None, reason="no skipsim console script on "
                    "PATH; `pip install -e .` makes one")
@pytest.mark.parametrize("name", ROWS)
def test_row_through_the_script(name, tmp_path, monkeypatch, capsys):
    assert _run(name, tmp_path / "script", _script) == _run(
        name, tmp_path / "run", _in_process(monkeypatch, capsys))


def test_the_drift_row_sits_at_the_longest_trial():
    """distance-just-over is the shortest distance refused: the next double
    down drifts the async gait, the slowest, for exactly MAX_TRIAL_S, and
    the faster gaits fit at it."""
    refused = ROWS["distance-just-over"].config["experiments"]["gait_drift"][
        "distance_m"]
    allowed = math.nextafter(refused, 0.0)
    assert drift_duration(GaitMode.ASYNC, GaitConfig(), allowed) == MAX_TRIAL_S
    for mode in (GaitMode.SYNC, GaitMode.OPEN_LOOP):
        drift_duration(mode, GaitConfig(), refused)
