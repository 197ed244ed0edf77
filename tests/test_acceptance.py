"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. All checks use the shipped calibrated defaults and fixed seeds.
"""

import csv
import itertools
import json
import math
import os

import numpy as np
import pytest

from skipsim import calibrate as cal
from skipsim.cli import main as cli_main
from skipsim.gait import GaitMode, drift_trials
from skipsim.locomotion import (LocomotionMode, Model, RobotParams, TrialSpec,
                                Units, build_units, effective_velocities,
                                run_batch, trial_outcomes)
from skipsim.springtail import (EngagedAngleModel, LengthRegime,
                                RegimeThresholds, StrikeSequence, TailConfig,
                                effective_length, strike_sequence,
                                strike_trace, unlatch_force)
from skipsim.stats import (FailureMode, _percentile, bootstrap_ci,
                           detect_peaks, lateral_drift)
from skipsim.terrain import (Material, SubstrateParams, default_curves,
                             moisture_response)


def report(criterion: int, description: str, passed: bool):
    print(f"\nACCEPTANCE {criterion:2d} {'PASS' if passed else 'FAIL'}: "
          f"{description}")
    assert passed, f"criterion {criterion} failed: {description}"


def test_criterion_1_tail_model_exactness():
    config = TailConfig()
    table = [(45, 2.6), (30, 3.9), (20, 5.9)]
    rows_ok = all(
        abs(unlatch_force(config, math.radians(deg)) - predicted) <= 0.05
        for deg, predicted in table)
    const = (3.0 * config.youngs_modulus * config.second_moment
             / (2.0 * config.housing_radius))
    identity_ok = all(
        abs(unlatch_force(config, th) * effective_length(config.housing_radius, th)
            - const) / const <= 1e-6
        for th in np.linspace(0.05, config.housing_arc - 0.05, 500))
    # the printed constant is rounded to three significant figures
    printed_ok = abs(const - 2.27e-2) <= 5e-5
    report(1, "predicted forces within 0.05 N and force-length product "
              "constant to 1e-6", rows_ok and identity_ok and printed_ok)


def test_criterion_2_strike_statistics():
    config = TailConfig()
    model = EngagedAngleModel()
    events = strike_sequence(config, model, duration=10.0, seed=0)
    count_ok = len(events) == 10
    f_lo = unlatch_force(config, model.upper)
    f_hi = unlatch_force(config, model.lower)
    # model bounds round to the predicted 2.6 / 5.9 N endpoints
    bounds_ok = abs(f_lo - 2.6) <= 0.05 and abs(f_hi - 5.9) <= 0.05
    forces_ok = bool(np.all((f_lo <= events.peak_force)
                            & (events.peak_force <= f_hi)))
    trace = strike_trace(events, 2000.0, config.pulse_width)
    peaks = detect_peaks(trace, threshold=1.0, min_separation=0.3)
    ci = bootstrap_ci(peaks.values, level=0.95, resamples=10000, seed=0)
    # README: "bootstrap mean about 3.8 N"
    mean_ok = 3.5 <= ci.mean <= 4.5 and round(ci.mean, 1) == 3.8
    jam_counts = [len(strike_sequence(config, model, LengthRegime.JAM,
                                      10.0, seed))
                  for seed in range(100)]
    jam_ok = abs(np.mean(jam_counts) - 3.0) <= 1.0
    report(2, "10 strikes in 10 s, peaks inside the predicted force band, "
              "bootstrap mean in [3.5, 4.5] N and 3.8 N to 0.1, jammed "
              "count near 3",
           count_ok and bounds_ok and forces_ok and mean_ok and jam_ok)


@pytest.mark.parametrize("seed", [0, 7])
def test_nominal_blade_lengths_tie_and_roll_attenuates_exactly(tmp_path,
                                                               seed):
    """README: the model's optimum is the whole nominal band. Every length
    draws the same strikes, and the force law does not read the length, so
    20, 25 and 30 mm give the same peaks and CI, and the rolling 35 mm blade
    gives exactly roll_attenuation times them."""
    assert cli_main(["tail-characterize", "--seed", str(seed), "--out",
                     str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    with open(tmp_path / "peaks.csv") as fh:
        peaks = {}
        for row in csv.DictReader(fh):
            peaks.setdefault(row["length_mm"], []).append(
                float(row["peak_N"]))
    nominal = summary["25mm"]
    assert summary["20mm"] == nominal == summary["30mm"]
    assert peaks["20.0"] == peaks["25.0"] == peaks["30.0"]
    factor = RegimeThresholds().roll_attenuation
    assert summary["35mm"]["regime"] == "roll"
    for key in ("mean_N", "ci_lo_N", "ci_hi_N"):
        assert summary["35mm"][key] == factor * nominal[key]
    assert peaks["35.0"] == [factor * f for f in peaks["25.0"]]
    if seed == 0:  # README's figures
        assert repr(nominal["mean_N"]) == "3.756668541526595"
        assert (round(nominal["ci_lo_N"], 2), round(nominal["ci_hi_N"], 2)
                ) == (3.15, 4.47)
        assert summary["15mm"]["n"] == 3


def test_criterion_3_gait_drift_reproduction():
    encoder_ok = all(lateral_drift(traj) < 0.01
                     for mode in (GaitMode.SYNC, GaitMode.ASYNC)
                     for traj in drift_trials(mode, seeds=range(100)))
    open_loop = [lateral_drift(traj) for traj in
                 drift_trials(GaitMode.OPEN_LOOP, seeds=range(100))]
    in_range = sum(1 for d in open_loop if 0.02 <= d <= 0.06)
    ge5 = sum(1 for d in open_loop if d >= 0.05)
    report(3, f"encoder drift < 1 cm on 100/100 seeds; open loop in "
              f"[2, 6] cm on {in_range}/100 with {ge5} seeds >= 5 cm",
           encoder_ok and in_range >= 50 and ge5 >= 1)


# the README's bench means (cm/s), pinned at the two decimals it states
BENCH = [(Material.GRASS, 0.0, 5.38), (Material.NONUNIFORM_SAND, 0.0, 2.62),
         (Material.BENTONITE_CLAY, 0.3333, 1.24),
         (Material.UNIFORM_SAND, 0.0, 0.92)]


def test_criterion_4_substrate_bench_reproduction():
    means = {}
    for material, moisture, _ in BENCH:
        spec = TrialSpec(LocomotionMode.SKIP, material, moisture, 30.0)
        _, summary = run_batch(spec, 3, 0)
        means[material] = summary.mean_velocity * 100.0
    targets_ok = all(round(means[m], 2) == target for m, _, target in BENCH)
    ordering_ok = True
    for base in range(0, 60, 3):
        triple = []
        for material, moisture, _ in BENCH:
            spec = TrialSpec(LocomotionMode.SKIP, material, moisture, 30.0)
            _, summary = run_batch(spec, 3, base)
            triple.append(summary.mean_velocity)
        if not (triple[0] > triple[1] > triple[2] > triple[3]):
            ordering_ok = False
    report(4, "bench means round to "
              f"{[t for _, _, t in BENCH]} and strict ordering over 20 "
              "seed triples", targets_ok and ordering_ok)


def _sweep(material, grid, mode):
    out = {}
    for m in grid:
        spec = TrialSpec(mode, material, m, 30.0)
        outcomes, summary = run_batch(spec, 3, 0)
        out[m] = (summary.mean_velocity * 100.0, outcomes.failure)
    return out


def test_criterion_5_moisture_curves():
    sand_grid = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    clay_grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    sand_skip = _sweep(Material.UNIFORM_SAND, sand_grid, LocomotionMode.SKIP)
    clay_skip = _sweep(Material.BENTONITE_CLAY, clay_grid, LocomotionMode.SKIP)

    sand_argmax = max(sand_skip, key=lambda m: sand_skip[m][0])
    # README: peaks of 3.4 and 2.6 cm/s, pinned at the one decimal stated
    sand_ok = abs(sand_argmax - 0.15) <= 0.05 and \
        abs(sand_skip[sand_argmax][0] - 3.4) <= 0.5 and \
        round(sand_skip[sand_argmax][0], 1) == 3.4
    crawl_fail_ok = True
    for mode in (LocomotionMode.SYNC_CRAWL, LocomotionMode.ASYNC_CRAWL):
        velocity, failures = _sweep(Material.UNIFORM_SAND, [0.0], mode)[0.0]
        if velocity != 0.0 or any(f is not FailureMode.EXCAVATION
                                  for f in failures):
            crawl_fail_ok = False
    clay_argmax = max(clay_skip, key=lambda m: clay_skip[m][0])
    clay_ok = abs(clay_argmax - 0.20) <= 0.05 and \
        abs(clay_skip[clay_argmax][0] - 2.6) <= 0.5 and \
        round(clay_skip[clay_argmax][0], 1) == 2.6
    slip_ok = all(
        clay_skip[m][0] == 0.0 and
        all(f is FailureMode.TAIL_SLIP for f in clay_skip[m][1])
        for m in (0.8, 1.0))
    unimodal_ok = True
    for material in (Material.UNIFORM_SAND, Material.BENTONITE_CLAY):
        response = default_curves(material)
        values = [response.skip_efficiency(m)
                  for m in np.arange(0.0, 1.0 + 1e-9, 0.01)]
        maxima = sum(1 for i in range(1, len(values) - 1)
                     if values[i] > values[i - 1] and values[i] >= values[i + 1])
        if maxima != 1:
            unimodal_ok = False
    report(5, f"sand skip peaks {sand_skip[sand_argmax][0]:.2f} cm/s at "
              f"m={sand_argmax}, clay skip peaks {clay_skip[clay_argmax][0]:.2f} "
              f"at m={clay_argmax}, dry-sand crawling fails, saturated clay "
              "slips, skip curves unimodal",
           sand_ok and crawl_fail_ok and clay_ok and slip_ok and unimodal_ok)


# README's skipping-against-crawling table (cm/s), pinned at the two
# decimals it states: (material, moisture) -> (skip, sync, async)
SKIP_VS_CRAWL = {
    ("uniform_sand", 0.0): (0.92, 0.00, 0.00),
    ("uniform_sand", 0.05): (1.60, 2.03, 1.00),
    ("uniform_sand", 0.1): (2.74, 3.06, 1.51),
    ("uniform_sand", 0.15): (3.40, 3.15, 1.56),
    ("uniform_sand", 0.2): (2.74, 3.11, 1.54),
    ("uniform_sand", 0.25): (1.60, 3.07, 1.52),
    ("uniform_sand", 0.3): (0.92, 3.02, 1.50),
    ("bentonite_clay", 0.0): (0.68, 0.00, 0.00),
    ("bentonite_clay", 0.2): (2.61, 1.03, 0.51),
    ("bentonite_clay", 0.4): (0.68, 1.64, 0.81),
    ("bentonite_clay", 0.6): (0.40, 1.64, 0.81),
    ("bentonite_clay", 0.8): (0.00, 1.40, 0.70),
    ("bentonite_clay", 1.0): (0.00, 1.16, 0.57),
}
SKIP_LEADS = {("uniform_sand", 0.0), ("uniform_sand", 0.15),
              ("bentonite_clay", 0.0), ("bentonite_clay", 0.2)}


def test_skipping_leads_crawling_only_where_readme_says(tmp_path):
    """README: at --seed 0 skipping is fastest at 4 of the 13 moisture-sweep
    points and synchronous crawling at the other 9."""
    assert cli_main(["moisture-sweep", "--seed", "0", "--out",
                     str(tmp_path)]) == 0
    sweep = {}
    with open(tmp_path / "sweep.csv") as fh:
        for row in csv.DictReader(fh):
            sweep.setdefault((row["material"], float(row["moisture"])),
                             {})[row["mode"]] = float(row["mean_cmps"])
    assert sweep.keys() == SKIP_VS_CRAWL.keys()
    for point, means in sweep.items():
        got = tuple(means[m] for m in ("skip", "sync_crawl", "async_crawl"))
        assert tuple(round(v, 2) for v in got) == SKIP_VS_CRAWL[point]
        leader = max(means, key=means.get)
        assert leader == ("skip" if point in SKIP_LEADS else "sync_crawl")


def test_calibration_residual_is_structural():
    """README, Calibration: of the seed-0 fit's loss of 0.152157, 0.1406 is
    async crawling on sand at 0.10 (target 2.7 cm/s, model 1.51), which the
    curve cannot reach: with the cap at its bound of 1 the traction there is
    0.924, and traction 1 gives 1.64 cm/s, about half the sync 3.31."""
    targets = cal.bundled_targets()
    result = cal.fit(targets, seed=0)
    assert round(result.loss, 6) == 0.152157
    model = Model(responses=cal.apply_parameters(result.params))
    (target,) = [t for t in targets if t.mode is LocomotionMode.ASYNC_CRAWL
                 and t.material is Material.UNIFORM_SAND]
    assert (target.moisture, target.target_cmps) == (0.10, 2.7)
    _, batch = run_batch(TrialSpec(target.mode, target.material,
                                   target.moisture), 3, 0, model)
    velocity = batch.mean_velocity * 100.0
    assert round(velocity, 2) == 1.51
    assert round(target.weight * (velocity - target.target_cmps) ** 2,
                 4) == 0.1406
    assert result.params.values["uniform_sand.crawl.cap"] == 1.0
    sand = model.responses[Material.UNIFORM_SAND]
    assert round(moisture_response(Material.UNIFORM_SAND, 0.10,
                                   sand).crawl_traction, 3) == 0.924
    full = SubstrateParams(skip_efficiency=1.0, crawl_traction=1.0,
                           tail_slips=False, excavates=False)
    at_one = {}
    for mode in (LocomotionMode.SYNC_CRAWL, LocomotionMode.ASYNC_CRAWL):
        units = build_units([TrialSpec(mode, Material.UNIFORM_SAND, 0.10)],
                            0, 3, model)[mode, 30.0]
        outcomes = trial_outcomes(units, mode, Material.UNIFORM_SAND, full,
                                  model.robot)
        at_one[mode] = float(effective_velocities(outcomes, 30.0).mean()) * 100
    sync, async_ = (at_one[m] for m in (LocomotionMode.SYNC_CRAWL,
                                        LocomotionMode.ASYNC_CRAWL))
    assert (round(async_, 2), round(sync, 2)) == (1.64, 3.31)
    # one traction curve for both gaits: on sand the async target needs a
    # traction above 1, and on clay at 0.6 the traction that fits sync's
    # 1.7 cm/s leaves async 0.14 cm/s off its 0.7
    clay = {t.mode: t.target_cmps for t in targets
            if t.material is Material.BENTONITE_CLAY and t.moisture == 0.6}
    assert target.target_cmps / async_ > 1.0
    assert round(clay[LocomotionMode.SYNC_CRAWL] / sync * async_
                 - clay[LocomotionMode.ASYNC_CRAWL], 2) == 0.14


def order_statistic(values, q):
    n = len(values)
    k = min(max(math.ceil(q * n), 1), n)
    return values[k - 1]


CORPUS = [(2.0, 4.0, 6.0), (3.2,), (2.0, 2.0, 2.0), (2.5, 5.9),
          (4.1, 3.3, 5.2, 2.8), (2.6, 3.1, 5.9, 4.4, 3.8),
          (5.0, 5.0, 5.0, 5.0, 5.0), (2.7, 5.1, 4.0, 3.6, 5.8)]


def test_criterion_6_bootstrap_oracle_equivalence():
    exact_ok = True
    mc_ok = True
    for samples in CORPUS:
        n = len(samples)
        means = sorted(sum(c) / n for c in itertools.product(samples, repeat=n))
        lo = order_statistic(means, 0.025)
        hi = order_statistic(means, 0.975)
        # the estimator's percentile rule over all n^n resample means
        ex_lo = _percentile(np.array(means), 0.025)
        ex_hi = _percentile(np.array(means), 0.975)
        if not (math.isclose(ex_lo, lo, rel_tol=0, abs_tol=1e-12)
                and math.isclose(ex_hi, hi, rel_tol=0, abs_tol=1e-12)):
            exact_ok = False
        mc = bootstrap_ci(samples, level=0.95, resamples=100000, seed=0)
        if abs(mc.lower - lo) > 0.05 or abs(mc.upper - hi) > 0.05:
            mc_ok = False
    report(6, "percentile rule over every resample matches independent "
              "enumeration exactly; 1e5-resample Monte Carlo within 0.05 N",
           exact_ok and mc_ok)


def test_criterion_7_roundtrip_signal_property():
    rate = 2000.0
    width = 0.010
    ok = True
    for seed in range(200):
        rng = np.random.default_rng(seed)
        count = seed % 51
        times, t = [], 0.6
        for _ in range(count):
            times.append(t)
            t += 0.4 + rng.uniform(0.0, 0.4)
        amplitudes = rng.uniform(2.6, 5.9, size=count)
        events = StrikeSequence(time=times, peak_force=amplitudes,
                                impulse=2.0 * amplitudes * width / math.pi,
                                engaged_angle=np.full(count, 0.5))
        trace = strike_trace(events, rate, width)
        peaks = detect_peaks(trace, threshold=1.0, min_separation=0.3)
        if peaks.count != count:
            ok = False
            break
        for got, want in zip(peaks.values, amplitudes):
            if abs(got - want) > 0.01 * want:
                ok = False
                break
    report(7, "peak detection recovers exact pulse counts (0-50) and "
              "amplitudes within 1% across 200 seeds", ok)


def _tree_bytes(root):
    found = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


def test_criterion_8_cli_determinism(tmp_path):
    # deterministic input for the analyze command
    probe = next(drift_trials(GaitMode.SYNC, seeds=[0]))
    traj_csv = tmp_path / "traj.csv"
    probe.write_csv(traj_csv)
    commands = [
        ["tail-characterize"],
        ["gait-drift"],
        ["moisture-sweep"],
        ["substrate-bench"],
        ["scenario"],
        ["calibrate", "--budget", "6"],
        ["analyze", "--trajectory", str(traj_csv)],
    ]
    ok = True
    for idx, argv in enumerate(commands):
        a = tmp_path / f"a{idx}"
        b = tmp_path / f"b{idx}"
        if cli_main(argv + ["--out", str(a), "--seed", "0"]) != 0:
            ok = False
            continue
        if cli_main(argv + ["--out", str(b), "--seed", "0"]) != 0:
            ok = False
            continue
        if _tree_bytes(a) != _tree_bytes(b):
            ok = False
    report(8, "every CLI experiment re-run with the same seed produces "
              "byte-identical outputs", ok)


def _labels(reach, excavates=False):
    """The failure labels `trial_outcomes` gives crawl trials of these net
    displacements at traction 1."""
    units = Units(np.array(reach), *np.empty((4, 0)))
    substrate = SubstrateParams(1.0, 1.0, tail_slips=False,
                                excavates=excavates)
    return trial_outcomes(units, LocomotionMode.SYNC_CRAWL, Material.GRASS,
                          substrate, RobotParams()).failure


def test_criterion_9_failure_rule_conformance():
    below = _labels([0.099]) == [FailureMode.BELOW_THRESHOLD]
    boundary = _labels([0.10]) == [FailureMode.NONE]
    precedence = _labels([0.5], excavates=True) == [FailureMode.EXCAVATION]
    grid = np.arange(0.0, 0.3, 0.001)
    grid_ok = _labels(grid) == [
        FailureMode.BELOW_THRESHOLD if d < 0.10 else FailureMode.NONE
        for d in grid.tolist()]
    report(9, "displacement threshold and hard-failure precedence rules hold",
           below and boundary and precedence and grid_ok)


def test_criterion_10_calibration_sanity():
    bounds = {"a": (-1.0, 1.0), "b": (-1.0, 1.0)}
    initial = cal.ParameterVector({"a": 0.0, "b": 0.0}, bounds)

    def quadratic(params):
        return (params.values["a"] - 0.3) ** 2 + \
            2.0 * (params.values["b"] + 0.2) ** 2

    result = cal.minimize(quadratic, initial, budget=500, seed=0)
    quad_ok = (result.evaluations <= 500
               and abs(result.params.values["a"] - 0.3) <= 1e-3
               and abs(result.params.values["b"] + 0.2) <= 1e-3)
    # the full model must run inside a bounded budget (full regeneration
    # budget is documented in the README; a short run proves termination)
    targets = cal.bundled_targets()
    short = cal.fit(targets, budget=30, seed=0, restarts=1)
    full_ok = short.evaluations <= 30 and \
        all(x >= y for x, y in zip(short.trace, short.trace[1:]))
    report(10, "quadratic fit converges within 1e-3 in <= 500 evaluations; "
               "full-model fit terminates within its budget",
           quad_ok and full_ok)
