"""Named experiments: each reproduces one benchmark of the robot as
plot-ready CSV plus a JSON summary. All outputs are deterministic for a
given seed (floats are written in shortest round-trip form)."""

from __future__ import annotations

import math
import os
from dataclasses import replace

from . import calibrate as cal
from .config import ExperimentConfig, config_with_responses
from .fileio import write_csv, write_json
from .gait import GaitMode, Trajectory, drift_trial
from .locomotion import (LocomotionMode, ScenarioSegment, TrialSpec,
                         run_batch, scenario_heterogeneous)
from .springtail import length_regime, strike_sequence, strike_trace
from .stats import (ForceTrace, bootstrap_ci, detect_peaks, lateral_drift,
                    mean_velocity)
from .terrain import Material


class AssertionFailure(RuntimeError):
    """A built-in experiment check failed (--assert mode)."""


TRIAL_COLUMNS = ["mode", "material", "moisture", "seed", "displacement_m",
                 "velocity_mps", "failure"]


def _run_batches(config, specs, n_trials, seed, out_dir) -> list:
    """One run_batch per spec, with every trial written to trials.csv; the
    batch summaries in spec order."""
    batches, trial_rows = [], []
    for spec in specs:
        results, batch = run_batch(spec, n_trials, seed, config)
        batches.append(batch)
        trial_rows += [(spec.mode.value, spec.material.value,
                        float(spec.moisture), seed + k, r.displacement,
                        r.mean_velocity, r.failure.value)
                       for k, r in enumerate(results)]
    write_csv(os.path.join(out_dir, "trials.csv"), TRIAL_COLUMNS, trial_rows)
    return batches


def _measure(trace, analysis, seed):
    """The peaks of `trace` and their summary: count, and with any peaks the
    mean and bootstrap CI."""
    peaks = detect_peaks(trace, analysis["peak_threshold_n"],
                         analysis["min_separation_s"])
    entry = {"n": peaks.count}
    if peaks.count:
        ci = bootstrap_ci(peaks.values, analysis["ci_level"],
                          analysis["bootstrap_resamples"], seed)
        entry.update(mean_N=ci.mean, ci_lo_N=ci.lower, ci_hi_N=ci.upper)
    return peaks, entry


def run_tail_characterize(config: ExperimentConfig, out_dir, seed,
                          check=False) -> dict:
    """Strike-force sweep over blade lengths: all peaks per length plus the
    bootstrap CI of the detected peak forces."""
    params = config.experiments["tail_characterize"]
    lengths_mm = params["lengths_mm"]
    if not lengths_mm:
        raise ValueError("tail_characterize.lengths_mm must not be empty")
    record_s = params["record_s"]
    analysis = config.analysis
    rows = []
    summary = {}
    for idx, length_mm in enumerate(lengths_mm):
        tail = replace(config.tail, free_length=length_mm * 1e-3)
        regime = length_regime(tail.free_length, config.thresholds)
        events = strike_sequence(tail, config.angle_model, regime, record_s,
                                 seed + idx, config.thresholds)
        trace = strike_trace(events, analysis["trace_sample_rate_hz"],
                             tail.pulse_width)
        peaks, entry = _measure(trace, analysis, seed + idx)
        rows += [(float(length_mm), k, v) for k, v in enumerate(peaks.values)]
        summary[f"{length_mm:g}mm"] = {"mean_N": 0.0, "ci_lo_N": 0.0,
                                       "ci_hi_N": 0.0, **entry,
                                       "regime": regime.value}
    write_csv(os.path.join(out_dir, "peaks.csv"),
              ["length_mm", "strike_idx", "peak_N"], rows)
    write_json(os.path.join(out_dir, "summary.json"), summary)
    if check:
        nominal_key = f"{config.tail.free_length * 1e3:g}mm"
        if nominal_key in summary:
            entry = summary[nominal_key]
            expected = int(math.floor(config.tail.motor_speed * record_s))
            if entry["n"] != expected:
                raise AssertionFailure(
                    f"nominal length strike count {entry['n']} != {expected}")
            if not 3.5 <= entry["mean_N"] <= 4.5:
                raise AssertionFailure(
                    f"nominal mean force {entry['mean_N']:.2f} outside [3.5, 4.5]")
    return summary


def run_gait_drift(config: ExperimentConfig, out_dir, seed, trials=None,
                   check=False) -> dict:
    """Straight-line drift comparison: encoder gaits versus open loop."""
    params = config.experiments["gait_drift"]
    n_trials = trials if trials is not None else params["trials"]
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    distance = params["distance_m"]
    summary = {}
    for mode in GaitMode:
        drifts = []
        for k in range(n_trials):
            traj = drift_trial(mode, config.gait, seed + k, distance)
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


def run_moisture_sweep(config: ExperimentConfig, out_dir, seed, trials=None,
                       check=False) -> list:
    """Velocity versus moisture grid for all three locomotion modes."""
    params = config.experiments["moisture_sweep"]
    n_trials = trials if trials is not None else params["trials"]
    duration = params["duration_s"]
    materials = [Material(m) for m in params["materials"]]
    for material in materials:
        if material not in (Material.UNIFORM_SAND, Material.BENTONITE_CLAY):
            raise ValueError(
                f"moisture sweep supports uniform_sand and bentonite_clay, "
                f"not {material.value}")
    specs = []
    for material in materials:
        grid = params[f"{material.value}_grid"]
        if not grid:
            raise ValueError(f"moisture grid for {material.value} is empty")
        specs += [TrialSpec(mode=mode, material=material, moisture=moisture,
                            duration=duration)
                  for moisture in grid for mode in LocomotionMode]
    batches = _run_batches(config, specs, n_trials, seed, out_dir)
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


def run_substrate_bench(config: ExperimentConfig, out_dir, seed, trials=None,
                        check=False) -> dict:
    """Mean skip velocity per substrate with the velocity-ordering check and,
    where the bundled calibration targets hold a skip velocity for a row's
    condition, a 0.5 cm/s band around it."""
    params = config.experiments["substrate_bench"]
    n_trials = trials if trials is not None else params["trials"]
    duration = params["duration_s"]
    specs = [TrialSpec(mode=LocomotionMode.SKIP, material=Material(key),
                       moisture=moisture, duration=duration)
             for key, moisture in params["conditions"]]
    batches = _run_batches(config, specs, n_trials, seed, out_dir)
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


def run_scenario(config: ExperimentConfig, out_dir, seed,
                 check=False) -> dict:
    """Heterogeneous-terrain run with mode switches between segments."""
    params = config.experiments["scenario"]
    segments = [ScenarioSegment(material=Material(m), mode=LocomotionMode(md),
                                duration=float(dur), moisture=float(moist))
                for m, md, dur, moist in params["segments"]]
    trajectory, switches = scenario_heterogeneous(segments, seed, config)
    trajectory.write_csv(os.path.join(out_dir, "trajectory.csv"))
    log = [{"time_s": s.time, "material": s.material.value,
            "mode": s.mode.value} for s in switches]
    summary = {
        "switches": log,
        "total_duration_s": trajectory.duration(),
        "net_displacement_m": trajectory.net_displacement(),
    }
    write_json(os.path.join(out_dir, "switch_log.json"), summary)
    if check:
        expected = sum(s.duration for s in segments)
        if abs(summary["total_duration_s"] - expected) > 1e-9:
            raise AssertionFailure("scenario duration mismatch")
        if len(log) != len(segments) - 1:
            raise AssertionFailure("unexpected number of mode switches")
    return summary


def run_calibrate(config: ExperimentConfig, out_dir, seed, targets_path=None,
                  budget=None) -> dict:
    """Fit the free parameters of the configured substrate curves and write
    the config with the fitted curves."""
    params = config.experiments["calibrate"]
    budget = budget if budget is not None else params["budget"]
    targets = (cal.load_targets(targets_path) if targets_path
               else cal.bundled_targets())
    result = cal.fit(targets, budget=budget, seed=seed,
                     n_trials=params["n_trials"],
                     restarts=params["restarts"],
                     duration=params["duration_s"], model=config)
    fitted = cal.apply_parameters(result.params, config.responses)
    write_json(os.path.join(out_dir, "fitted_config.json"),
               config_with_responses(config, fitted))
    write_csv(os.path.join(out_dir, "loss_trace.csv"),
              ["evaluation", "best_loss"],
              [(i + 1, v) for i, v in enumerate(result.trace)])
    write_json(os.path.join(out_dir, "fit_summary.json"), {
        "final_loss": result.loss,
        "evaluations": result.evaluations,
        "parameters": result.params.values,
    })
    return {"final_loss": result.loss, "evaluations": result.evaluations}


def run_analyze(config: ExperimentConfig, out_dir, seed, trace_path=None,
                trajectory_path=None) -> dict:
    """Run the measurement pipeline on externally produced CSV data."""
    if trace_path is None and trajectory_path is None:
        raise ValueError("analyze needs a force-trace or trajectory CSV")
    report = {}
    if trace_path is not None:
        peaks, entry = _measure(ForceTrace.read_csv(trace_path),
                                config.analysis, seed)
        report["trace"] = {**entry, "peaks_N": list(peaks.values)}
    if trajectory_path is not None:
        traj = Trajectory.read_csv(trajectory_path)
        report["trajectory"] = {
            "mean_velocity_mps": mean_velocity(traj),
            "lateral_drift_m": lateral_drift(traj),
            "net_displacement_m": traj.net_displacement(),
        }
    write_json(os.path.join(out_dir, "analysis.json"), report)
    return report
