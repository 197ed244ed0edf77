"""Named experiments: each reproduces one benchmark of the robot as
plot-ready CSV plus a JSON summary. All outputs are deterministic for a
given seed (floats are written in shortest round-trip form)."""

from __future__ import annotations

import os
from dataclasses import replace

from . import calibrate as cal
from .config import (BLADE_KEY, ExperimentConfig, document, tail_lengths,
                     trial_specs)
from .fileio import write_csv, write_json
from .gait import GaitMode, drift_trials
from .locomotion import (LocomotionMode, build_units, run_batch,
                         scenario_heterogeneous)
from .springtail import (length_regime, revolutions, strike_sequence,
                         strike_trace)
from .stats import bootstrap_ci, detect_peaks, lateral_drift, mean_velocity


class AssertionFailure(RuntimeError):
    """A built-in experiment check failed (--assert mode)."""


TRIAL_COLUMNS = ["mode", "material", "moisture", "seed", "displacement_m",
                 "velocity_mps", "failure"]


def _run_batches(config, section, out_dir) -> tuple:
    """(specs, summaries): one run_batch per trial spec of `section` over
    unit paths built once for all of them, every trial written to trials.csv
    as its batch runs, so one batch's outcomes are held at a time."""
    specs = trial_specs(config.experiments, section)
    seed, n_trials = config.seed, config.experiments[section]["trials"]
    batches, units = [], build_units(specs, seed, n_trials, config)

    def trial_rows():
        for spec in specs:
            outcomes, batch = run_batch(spec, n_trials, seed, config,
                                        units[spec.mode, spec.duration])
            batches.append(batch)
            yield from ((spec.mode.value, spec.material.value,
                         float(spec.moisture), seed + k, d, d / spec.duration,
                         failure.value)
                        for k, (d, failure) in enumerate(zip(
                            outcomes.displacement.tolist(), outcomes.failure)))

    write_csv(os.path.join(out_dir, "trials.csv"), TRIAL_COLUMNS, trial_rows())
    return specs, batches


def _peak_summaries(peak_sets, config) -> list:
    """The summary of each peak set: count, and with any peaks the mean and
    bootstrap CI. Sets of one size share one bootstrap_ci call, which draws
    the seed's index stream for that size once."""
    analysis = config.analysis
    entries = [{"n": peaks.count} for peaks in peak_sets]
    by_count = {}
    for entry, peaks in zip(entries, peak_sets):
        if peaks.count:
            by_count.setdefault(peaks.count, []).append((entry, peaks.values))
    for group in by_count.values():
        ci = bootstrap_ci([values for _, values in group], analysis["ci_level"],
                          analysis["bootstrap_resamples"], config.seed)
        for (entry, _), *row in zip(group, ci.mean, ci.lower, ci.upper):
            entry.update(zip(("mean_N", "ci_lo_N", "ci_hi_N"), row))
    return entries


def run_tail_characterize(config: ExperimentConfig, out_dir,
                          check=False) -> dict:
    """Strike-force sweep over blade lengths: all peaks per length plus the
    bootstrap CI of the detected peak forces. Every length draws from the
    same seed (common random numbers), so lengths differ only by what the
    model makes of them. Lengths whose strike sequences agree (strike times,
    peak forces and pulse width) share one trace and one PeakSet, so a sweep
    synthesizes one trace per distinct sequence, not per length."""
    record_s = config.experiments["tail_characterize"]["record_s"]
    analysis = config.analysis
    rows, peak_sets, summary, measured = [], [], {}, {}
    for key, (length_mm, tail) in tail_lengths(config).items():
        regime = length_regime(tail.free_length, config.thresholds)
        strikes = strike_sequence(tail, config.angle_model, regime, record_s,
                                  config.seed, config.thresholds)
        sequence = (strikes.time.tobytes(), strikes.peak_force.tobytes(),
                    tail.pulse_width)
        if sequence not in measured:
            measured[sequence] = detect_peaks(
                strike_trace(strikes, analysis["trace_sample_rate_hz"],
                             tail.pulse_width),
                analysis["peak_threshold_n"], analysis["min_separation_s"])
        peaks = measured[sequence]
        peak_sets.append(peaks)
        rows += [(float(length_mm), k, v) for k, v in enumerate(peaks.values)]
        summary[key] = {"mean_N": 0.0, "ci_lo_N": 0.0, "ci_hi_N": 0.0,
                        "regime": regime.value}
    for entry, measured in zip(summary.values(),
                               _peak_summaries(peak_sets, config)):
        entry.update(measured)
    write_csv(os.path.join(out_dir, "peaks.csv"),
              ["length_mm", "strike_idx", "peak_N"], rows)
    write_json(os.path.join(out_dir, "summary.json"), summary)
    if check:
        nominal_key = BLADE_KEY.format(config.tail.free_length * 1e3)
        if nominal_key in summary:
            entry = summary[nominal_key]
            expected = revolutions(config.tail.motor_speed, record_s)
            if entry["n"] != expected:
                raise AssertionFailure(
                    f"nominal length strike count {entry['n']} != {expected}")
            if not 3.5 <= entry["mean_N"] <= 4.5:
                raise AssertionFailure(
                    f"nominal mean force {entry['mean_N']:.2f} outside [3.5, 4.5]")
    return summary


def run_gait_drift(config: ExperimentConfig, out_dir, check=False) -> dict:
    """Straight-line drift comparison: encoder gaits versus open loop."""
    params = config.experiments["gait_drift"]
    distance = params["distance_m"]  # config load checks the trials fit
    summary = {}
    for mode in GaitMode:
        drifts = []
        seeds = range(config.seed, config.seed + params["trials"])
        for k, traj in enumerate(drift_trials(mode, config.gait, seeds,
                                              distance)):
            traj.write_csv(os.path.join(out_dir,
                                        f"trial_{mode.value}_{k}.csv"))
            drifts.append(lateral_drift(traj))
        summary[mode.value] = {"max_drift_m": max(drifts), "drifts_m": drifts}
    write_json(os.path.join(out_dir, "summary.json"), summary)
    if check:
        for label in ("sync", "async"):
            if summary[label]["max_drift_m"] >= 0.01:
                raise AssertionFailure(
                    f"{label} drift {summary[label]['max_drift_m']:.4f} m "
                    "not under 1 cm")
        if summary["open_loop"]["max_drift_m"] > 0.06:
            raise AssertionFailure(
                f"open-loop drift {summary['open_loop']['max_drift_m']:.4f} m "
                "exceeds 6 cm")
    return summary


def run_moisture_sweep(config: ExperimentConfig, out_dir, check=False) -> list:
    """Velocity versus moisture grid for all three locomotion modes."""
    specs, batches = _run_batches(config, "moisture_sweep", out_dir)
    rows = [(s.material.value, float(s.moisture), s.mode.value,
             b.mean_velocity * 100.0, b.std_velocity * 100.0, b.failures)
            for s, b in zip(specs, batches)]
    write_csv(os.path.join(out_dir, "sweep.csv"),
              ["material", "moisture", "mode", "mean_cmps", "std_cmps",
               "failures"], rows)
    if check:
        _check_sweep(rows)
    return rows


def _sweep_series(rows, material, mode):
    return {m: (v, fails) for mat, m, md, v, _, fails in rows
            if mat == material and md == mode}


def _check_sweep(rows):
    sand_skip = _sweep_series(rows, "uniform_sand", "skip")
    if sand_skip:
        argmax = max(sand_skip, key=lambda m: sand_skip[m][0])
        if not 0.10 <= argmax <= 0.20:
            raise AssertionFailure(
                f"sand skip velocity peaks at moisture {argmax}, not near 0.15")
    for mode in ("sync_crawl", "async_crawl"):
        series = _sweep_series(rows, "uniform_sand", mode)
        if 0.0 in series and series[0.0][0] != 0.0:
            raise AssertionFailure(f"dry-sand {mode} should fail (velocity 0)")
    clay_skip = _sweep_series(rows, "bentonite_clay", "skip")
    for m in (0.8, 1.0):
        if m in clay_skip and clay_skip[m][0] != 0.0:
            raise AssertionFailure(
                f"clay skip at moisture {m} should slip (velocity 0)")


BENCH_ORDER = ("grass", "nonuniform_sand", "bentonite_clay", "uniform_sand")


def run_substrate_bench(config: ExperimentConfig, out_dir,
                        check=False) -> dict:
    """Mean skip velocity per substrate with the velocity-ordering check and,
    where the bundled calibration targets hold a skip velocity for a row's
    condition, a 0.5 cm/s band around it."""
    specs, batches = _run_batches(config, "substrate_bench", out_dir)
    rows = [(s.material.value, float(s.moisture), b.mean_velocity * 100.0,
             b.std_velocity * 100.0, b.n_trials)
            for s, b in zip(specs, batches)]
    means = {key: mean for key, _, mean, _, _ in rows}
    write_csv(os.path.join(out_dir, "bench.csv"),
              ["substrate", "moisture", "mean_cmps", "std_cmps", "n"], rows)
    ordering_ok = all(k in means for k in BENCH_ORDER) and all(
        means[a] > means[b] for a, b in zip(BENCH_ORDER, BENCH_ORDER[1:]))
    summary = {"means_cmps": means, "ordering_ok": ordering_ok}
    write_json(os.path.join(out_dir, "summary.json"), summary)
    if check:
        if not ordering_ok:
            raise AssertionFailure(f"substrate ordering violated: {means}")
        targets = {(t.material.value, t.moisture): t.target_cmps
                   for t in cal.bundled_targets()
                   if t.mode is LocomotionMode.SKIP}
        for key, moisture, mean, _, _ in rows:
            target = targets.get((key, moisture))
            if target is not None and abs(mean - target) > 0.5:
                raise AssertionFailure(
                    f"{key} at moisture {moisture:g} mean {mean:.2f} cm/s "
                    f"off target {target} by more than 0.5")
    return summary


def run_scenario(config: ExperimentConfig, out_dir, check=False) -> dict:
    """Heterogeneous-terrain run with mode switches between segments: one
    trial per segment, segment k at seed seed + k."""
    specs = trial_specs(config.experiments, "scenario", config.seed)
    trajectory, starts = scenario_heterogeneous(specs, config)
    trajectory.write_csv(os.path.join(out_dir, "trajectory.csv"))
    log = [{"time_s": time, "material": spec.material.value,
            "mode": spec.mode.value} for time, spec in zip(starts, specs[1:])]
    summary = {
        "switches": log,
        "total_duration_s": trajectory.duration(),
        "net_displacement_m": trajectory.net_displacement(),
    }
    write_json(os.path.join(out_dir, "switch_log.json"), summary)
    if check:
        expected = sum(spec.duration for spec in specs)
        if abs(summary["total_duration_s"] - expected) > 1e-9:
            raise AssertionFailure("scenario duration mismatch")
        if len(log) != len(specs) - 1:
            raise AssertionFailure("unexpected number of mode switches")
    return summary


def run_calibrate(config: ExperimentConfig, out_dir, targets=None) -> dict:
    """Fit the free parameters of the configured substrate curves to
    `targets` (default: the bundled ones) and write the config, its seed and
    budget included, with the fitted curves."""
    params = config.experiments["calibrate"]
    if targets is None:
        targets = cal.bundled_targets()
    result = cal.fit(targets, budget=params["budget"], seed=config.seed,
                     n_trials=params["n_trials"],
                     restarts=params["restarts"],
                     duration=params["duration_s"], model=config)
    fitted = cal.apply_parameters(result.params, config.responses)
    write_json(os.path.join(out_dir, "fitted_config.json"),
               document(replace(config, responses=fitted)))
    write_csv(os.path.join(out_dir, "loss_trace.csv"),
              ["evaluation", "best_loss"],
              [(i + 1, v) for i, v in enumerate(result.trace)])
    write_json(os.path.join(out_dir, "fit_summary.json"), {
        "final_loss": result.loss,
        "evaluations": result.evaluations,
        "parameters": result.params.values,
    })
    return {"final_loss": result.loss, "evaluations": result.evaluations}


def run_analyze(config: ExperimentConfig, out_dir, trace=None,
                trajectory=None) -> dict:
    """Run the measurement pipeline on externally produced data, a
    `ForceTrace`, a `Trajectory` or both (the CLI reads them from CSV and
    refuses neither)."""
    report = {}
    if trace is not None:
        peaks = detect_peaks(trace, config.analysis["peak_threshold_n"],
                             config.analysis["min_separation_s"])
        report["trace"] = {**_peak_summaries([peaks], config)[0],
                           "peaks_N": list(peaks.values)}
    if trajectory is not None:
        report["trajectory"] = {
            "mean_velocity_mps": mean_velocity(trajectory),
            "lateral_drift_m": lateral_drift(trajectory),
            "net_displacement_m": trajectory.net_displacement(),
        }
    write_json(os.path.join(out_dir, "analysis.json"), report)
    return report
