"""The benchmark's workloads: the skipsim commands of one round, the set-up
that makes their inputs, and the checks on their outputs.

Every workload derives its CLI seed from the benchmark seed. The seed is
reduced modulo SEED_RANGE because the built-in `gait-drift --assert` band
(open-loop drift at most 6 cm) is a statistical claim: single trial seeds
above 6 cm exist (the first is 384), and a base seed s runs trial seeds
s .. s+trials-1. Every base seed below SEED_RANGE passes all sweep-io
checks at the SIZES below.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from skipsim import calibrate as cal
from skipsim.config import load_config
from skipsim.springtail import (LengthRegime, length_regime, strike_sequence,
                                strike_trace)

SEED_RANGE = 256

# Default sizes. calibrate-fit keeps the shipped budget; long-recording
# raises the recording to 5 minutes at 2 kHz, where strike_trace and the
# bootstrap dominate; sweep-io raises trial counts so trial simulation and
# per-trial CSV output outweigh interpreter start-up.
SIZES = {
    "calibrate-fit": {"budget": 400},
    "long-recording": {"record_s": 300.0},
    "sweep-io": {"drift_trials": 100, "sweep_trials": 60, "bench_trials": 50,
                 "trace_s": 30.0},
}

# Smallest sizes at which every check still holds (used by the tests).
TINY = {
    "calibrate-fit": {"budget": 6},
    "long-recording": {"record_s": 10.0},
    "sweep-io": {"drift_trials": 3, "sweep_trials": 3, "bench_trials": 3,
                 "trace_s": 5.0},
}


class CheckFailed(Exception):
    """A command's output failed one of the benchmark's checks."""


class Op:
    """One CLI command of a round and the check on its output.

    The command writes to `out`, a directory the harness empties before
    each round. `check` gets {op name: output directory} of the round and
    raises CheckFailed. `input_strikes` counts the strikes in force traces
    the command reads from set-up files.
    """

    def __init__(self, work, name, argv, check, input_strikes=0):
        self.name = name
        self.out = os.path.join(work, "out", name)
        self.argv = argv + ["--out", self.out]
        self.check = check
        self.input_strikes = input_strikes


@dataclass
class Workload:
    name: str
    seed: int  # the CLI --seed
    sizes: dict
    ops: list


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _read_json(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def _calibrate_fit(seed, sizes, work):
    budget = sizes["budget"]
    config = load_config()
    params = config.experiments["calibrate"]
    targets = cal.bundled_targets()
    initial = cal.default_parameter_vector()
    sim_kwargs = dict(
        n_trials=params["n_trials"], seed=seed, duration=params["duration_s"],
        tail=config.tail, gait=config.gait, robot=config.robot,
        angle_model=config.angle_model, thresholds=config.thresholds)
    initial_loss = cal.loss(initial, targets, **sim_kwargs)

    def check(outs):
        out = outs["calibrate"]
        fit = _read_json(out, "fit_summary.json")
        _require(fit["evaluations"] == budget,
                 f"evaluations {fit['evaluations']} != budget {budget}")
        _require(_csv_rows(os.path.join(out, "loss_trace.csv")) == budget,
                 "loss_trace.csv does not hold one row per evaluation")
        fitted = cal.ParameterVector(values=fit["parameters"],
                                     bounds=initial.bounds)
        recomputed = cal.loss(fitted, targets, **sim_kwargs)
        _require(recomputed == fit["final_loss"],
                 f"final loss {fit['final_loss']!r} != loss at the fitted "
                 f"parameters {recomputed!r}")
        _require(fit["final_loss"] <= initial_loss,
                 f"final loss {fit['final_loss']!r} above the initial "
                 f"loss {initial_loss!r}")
        load_config(os.path.join(out, "fitted_config.json"))

    argv = ["calibrate", "--seed", str(seed), "--budget", str(budget)]
    return [Op(work, "calibrate", argv, check)]


def _long_recording(seed, sizes, work):
    record_s = sizes["record_s"]
    config_path = os.path.join(work, "long_recording.json")
    with open(config_path, "w") as fh:
        json.dump({"experiments": {"tail_characterize": {"record_s": record_s}}},
                  fh)
    config = load_config(config_path)
    expected = {}
    for idx, length_mm in enumerate(
            config.experiments["tail_characterize"]["lengths_mm"]):
        tail = replace(config.tail, free_length=length_mm * 1e-3)
        regime = length_regime(tail.free_length, config.thresholds)
        if regime is not LengthRegime.JAM:
            events = strike_sequence(tail, config.angle_model, regime,
                                     record_s, seed + idx, config.thresholds)
            expected[f"{length_mm:g}mm"] = len(events)

    def check(outs):
        out = outs["tail"]
        summary = _read_json(out, "summary.json")
        for key, strikes in expected.items():
            _require(summary[key]["n"] == strikes,
                     f"{key}: {summary[key]['n']} peaks for {strikes} strikes")
        for key, entry in summary.items():
            if entry["n"]:
                _require(entry["ci_lo_N"] <= entry["mean_N"] <= entry["ci_hi_N"],
                         f"{key}: mean outside its confidence interval")
        _require(_csv_rows(os.path.join(out, "peaks.csv"))
                 == sum(e["n"] for e in summary.values()),
                 "peaks.csv row count differs from the summary")

    argv = ["tail-characterize", "--seed", str(seed), "--config", config_path,
            "--assert"]
    return [Op(work, "tail", argv, check)]


def _sweep_io(seed, sizes, work):
    config = load_config()
    drift_trials = sizes["drift_trials"]
    events = strike_sequence(config.tail, config.angle_model,
                             LengthRegime.NOMINAL, sizes["trace_s"], seed,
                             config.thresholds)
    trace_path = os.path.join(work, "force_trace.csv")
    strike_trace(events, config.analysis["trace_sample_rate_hz"],
                 config.tail.pulse_width).write_csv(trace_path)
    trial = seed % drift_trials
    moisture = config.experiments["moisture_sweep"]
    conditions = 3 * sum(len(moisture[f"{m}_grid"])
                         for m in moisture["materials"])
    benches = len(config.experiments["substrate_bench"]["conditions"])

    def check_drift(outs):
        summary = _read_json(outs["drift"], "summary.json")
        for label in ("sync", "async", "open_loop"):
            _require(len(summary[label]["drifts_m"]) == drift_trials,
                     f"{label}: {len(summary[label]['drifts_m'])} drifts "
                     f"for {drift_trials} trials")
        files = [f for f in os.listdir(outs["drift"]) if f.startswith("trial_")]
        _require(len(files) == 3 * drift_trials, "missing trajectory CSVs")

    def check_rows(op, counts):
        def check(outs):
            for name, rows in counts.items():
                got = _csv_rows(os.path.join(outs[op], name))
                _require(got == rows, f"{name}: {got} rows, expected {rows}")
        return check

    def check_analyze(label, with_trace):
        def check(outs):
            report = _read_json(outs[f"analyze-{label}"], "analysis.json")
            drifts = _read_json(outs["drift"], "summary.json")[label]["drifts_m"]
            got = report["trajectory"]["lateral_drift_m"]
            _require(got == drifts[trial],
                     f"analyze drift {got!r} != gait-drift {drifts[trial]!r}")
            if with_trace:
                _require(report["trace"]["n"] == len(events),
                         f"{report['trace']['n']} peaks for {len(events)} "
                         "strikes")
        return check

    common = ["--seed", str(seed), "--assert"]
    sweep_trials, bench_trials = sizes["sweep_trials"], sizes["bench_trials"]
    ops = [
        Op(work, "drift", ["gait-drift", "--trials", str(drift_trials)]
           + common, check_drift),
        Op(work, "moisture", ["moisture-sweep", "--trials", str(sweep_trials)]
           + common, check_rows("moisture", {
               "sweep.csv": conditions,
               "trials.csv": conditions * sweep_trials})),
        Op(work, "bench", ["substrate-bench", "--trials", str(bench_trials)]
           + common, check_rows("bench", {
               "bench.csv": benches, "trials.csv": benches * bench_trials})),
        # scenario's --assert checks its duration and switch count
        Op(work, "scenario", ["scenario"] + common, lambda outs: None),
    ]
    drift_out = ops[0].out
    for label in ("sync", "async", "open_loop"):
        with_trace = label == "sync"
        argv = ["analyze", "--seed", str(seed), "--trajectory",
                os.path.join(drift_out, f"trial_{label}_{trial}.csv")]
        if with_trace:
            argv += ["--trace", trace_path]
        ops.append(Op(work, f"analyze-{label}", argv,
                      check_analyze(label, with_trace),
                      input_strikes=len(events) if with_trace else 0))
    return ops


WORKLOADS = {
    "calibrate-fit": _calibrate_fit,
    "long-recording": _long_recording,
    "sweep-io": _sweep_io,
}


def build(name, seed, work, sizes=None) -> Workload:
    """Set up workload `name` for benchmark seed `seed` in directory `work`."""
    sizes = dict(SIZES[name] if sizes is None else sizes)
    cli_seed = seed % SEED_RANGE
    os.makedirs(work, exist_ok=True)
    ops = WORKLOADS[name](cli_seed, sizes, work)
    return Workload(name, cli_seed, sizes, ops)
