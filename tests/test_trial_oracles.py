"""The trial layer against its per-strike and per-cycle reference loops,
the gait schedules against the per-tick controllers, and the batch
kernel's paths built once each in flat memory.

A skip trial scales its unit path (`skip_path`) by its squared skip
efficiency, and a sync or async crawl trial scales its traction-1 path
(`crawl_unit_path`) by its traction; `trial_outcomes` applies the failure
rules. The loops kept here as oracles draw every strike and every cycle's
noise, apply the substrate to each step, advance the pose one `+=` at a
time and state the failure rules again, each trial on its own.

The two sum the same steps in a different association, so poses agree to
the summation error bound (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., section 4.2): |got - want| <= n * 2**-53 * S, where
S is the start coordinate's magnitude plus the magnitudes of the steps
summed into the pose, and n counts the roundings behind the pose in both
computations together. Heading and time columns, failure labels, pose
counts (so the pitch-over strike) and everything `crawl_kinematics` and
`drift_trials` give stay exact: the tests compare `repr`s, which tell apart
any two doubles, -0.0 from 0.0 included. The golden digests cover only the
default settings; these tests draw skip efficiencies over the whole fitted
range, pitch-over, tail slip, excavation, start poses off the origin, all
three gait modes, zero noise terms, and jammed and rolling blades.

A gait's clock is integer tick counts: a fin's angle is its count times
its step, and a cycle's time is the gait's count times dt. `run_cycles`
applies each gait's rule in closed form to the counts at which each fin's
sensor rises; the per-tick controllers kept here take one `turned += 1`
and one `ticks += 1` per tick. Both derive every value as the same
product of a count, so the cycle times agree exactly.
"""

import csv
import gc
import json
import math
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from skipsim import calibrate as cal  # noqa: E402
from skipsim import gait, locomotion  # noqa: E402
from skipsim.calibrate import SKIP_EFF_MAX  # noqa: E402
from skipsim.cli import main  # noqa: E402
from skipsim.gait import (TWO_PI, AsymmetryNoise,  # noqa: E402
                          EncoderModel, GaitConfig, GaitMode, PlanarPose,
                          Trajectory, crawl_kinematics, drift_duration,
                          drift_trials, nominal_cycle_times, run_cycles)
from skipsim.locomotion import (LocomotionMode, Model,  # noqa: E402
                                RobotParams, TrialResult, TrialSpec,
                                hop_displacement, run_batch, run_trial,
                                skip_scale)
from skipsim.springtail import (EngagedAngleModel,  # noqa: E402
                                RegimeThresholds, TailConfig, length_regime,
                                strike_sequence)
from skipsim.stats import FAILURE_THRESHOLD_M, FailureMode  # noqa: E402
from skipsim.terrain import (CrawlCurve, Material,  # noqa: E402
                             MoistureResponse, SkipCurve, SubstrateParams,
                             moisture_response)


def _net(poses):
    """Net displacement from the first pose to the last."""
    return math.hypot(poses[-1][0] - poses[0][0], poses[-1][1] - poses[0][1])


def oracle_skip_trial(spec, substrate, model, start):
    tail, robot, thresholds = model.tail, model.robot, model.thresholds
    regime = length_regime(tail.free_length, thresholds)
    events = strike_sequence(tail, model.angle_model, regime, spec.duration,
                             spec.seed, thresholds)
    x, y, heading = start.x, start.y, start.heading
    poses = [start]
    for time, impulse in zip(events.time.tolist(), events.impulse.tolist()):
        v0 = substrate.skip_efficiency * impulse / robot.mass
        if spec.material is Material.RIGID and v0 > robot.pitch_speed_limit:
            poses.append(PlanarPose(x, y, heading, start.time + time))
            return np.array(poses), _net(poses), FailureMode.PITCH_OVER
        d = oracle_hop_displacement(impulse, robot, substrate)
        x += d * math.cos(heading)
        y += d * math.sin(heading)
        poses.append(PlanarPose(x, y, heading, start.time + time))
    return (np.array(poses), _net(poses),
            FailureMode.TAIL_SLIP if substrate.tail_slips else None)


def oracle_hop_displacement(impulse, robot, substrate):
    if substrate.tail_slips:
        return 0.0
    v0 = substrate.skip_efficiency * impulse / robot.mass
    return v0 ** 2 * math.sin(2.0 * robot.launch_angle) / robot.gravity


def oracle_crawl_kinematics(cycle_times, mode, noise, stride, seed,
                            start=None):
    # a stride may underflow to zero in oracle_crawl_trial
    if stride < 0:
        raise ValueError("stride must be >= 0")
    rng = np.random.default_rng(seed)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    lo, hi = noise.gain_split
    split = sign * (rng.uniform(lo, hi) if hi > lo else lo)
    gain_left = 1.0 + split / 2.0
    gain_right = 1.0 - split / 2.0
    turn_bias = 0.0
    if mode is GaitMode.OPEN_LOOP:
        turn_bias = stride * (gain_left - gain_right) / noise.track_width
    if start is None:
        start = PlanarPose(0.0, 0.0, 0.0, 0.0)
    x, y, heading = start.x, start.y, start.heading
    poses = [start]
    for t in cycle_times:
        if noise.heading_jitter_std > 0.0:
            heading += rng.normal(0.0, noise.heading_jitter_std)
        heading += turn_bias
        step = stride * (gain_left + gain_right) / 2.0
        if noise.stride_jitter_std > 0.0:
            step *= max(0.0, 1.0 + rng.normal(0.0, noise.stride_jitter_std))
        x += step * math.cos(heading)
        y += step * math.sin(heading)
        poses.append(PlanarPose(x, y, heading, start.time + t))
    return Trajectory(poses)


def oracle_crawl_batch(cycle_times, mode, noise, stride, seeds, start=None):
    """crawl_kinematics as the per-cycle loop, seed by seed."""
    return [oracle_crawl_kinematics(cycle_times, mode, noise, stride, seed,
                                    start).poses for seed in seeds]


def oracle_crawl_trial(spec, substrate, gait, start):
    if substrate.excavates:
        return np.array([start]), 0.0, FailureMode.EXCAVATION
    mode = {LocomotionMode.SYNC_CRAWL: GaitMode.SYNC,
            LocomotionMode.ASYNC_CRAWL: GaitMode.ASYNC}[spec.mode]
    events = nominal_cycle_times(mode, spec.duration, gait.fin_speed, gait.dt,
                                 gait.encoder)
    if substrate.crawl_traction <= 0.0 or not events:
        return np.array([start]), 0.0, None
    stride = gait.stride * substrate.crawl_traction
    poses = oracle_crawl_kinematics(events, mode, gait.noise, stride,
                                    spec.seed, start).poses
    return poses, _net(poses), None


def oracle_run_trial(spec, model, start=locomotion.ORIGIN):
    """run_trial as per-strike and per-cycle loops: the robot holds its
    last pose until the trial ends, a hard failure dominates, and a trial
    under the threshold fails."""
    substrate = moisture_response(spec.material, spec.moisture,
                                  model.responses.get(spec.material))
    if spec.mode is LocomotionMode.SKIP:
        poses, displacement, hard = oracle_skip_trial(spec, substrate, model,
                                                      start)
    else:
        poses, displacement, hard = oracle_crawl_trial(spec, substrate,
                                                       model.gait, start)
    end_time = start.time + spec.duration
    if poses[-1][3] < end_time:
        poses = np.concatenate((poses, [(*poses[-1][:3], end_time)]))
    if hard is None:
        hard = (FailureMode.BELOW_THRESHOLD
                if displacement < FAILURE_THRESHOLD_M else FailureMode.NONE)
    return TrialResult(Trajectory(poses), displacement,
                       displacement / spec.duration, hard)


U = 2.0 ** -53  # unit roundoff of a double
# A product that underflows is off by up to half the smallest subnormal
# instead of U relative (Higham, section 2.1); each rounding adds at most
# this, the smallest subnormal (half of it is not a double).
ETA = 2.0 ** -1074
# Roundings of one step's products, at most, in either computation: the
# oracle's eta*J, /m, the square (libm pow, counted twice), *sin(2*alpha),
# /g and *cos(heading); the model's J/m, square, *sin(2*alpha), /g,
# eta*eta, the scale and *cos(heading). A crawl step takes fewer.
PER_STEP = 7


def summation_bound(want):
    """|got - want| allowed for each x and y of the oracle poses `want`:
    n * (U * S + ETA) with S the start coordinate's magnitude plus the
    step magnitudes summed into the pose, and n = 2 * (k + PER_STEP) for
    the pose k steps after the start (k additions and the products of a
    step in each computation)."""
    steps = np.abs(np.diff(want[:, :2], axis=0))
    magnitude = np.abs(want[0, :2]) + np.concatenate(
        ([[0.0, 0.0]], np.cumsum(steps, axis=0)))
    n = 2.0 * (np.arange(len(want)) + PER_STEP)
    return n[:, None] * (U * magnitude + ETA)


def same_result(spec, got, want):
    """Poses within the summation bound, and the net displacement within
    that of the end pose; heading, time, pose count, failure and the
    velocity's derivation from the displacement exactly."""
    got_poses, want_poses = got.trajectory.poses, want.trajectory.poses
    assert got_poses.shape == want_poses.shape
    assert (repr(got_poses[:, 2:].tolist())
            == repr(want_poses[:, 2:].tolist()))
    bound = summation_bound(want_poses)
    assert (np.abs(got_poses[:, :2] - want_poses[:, :2]) <= bound).all()
    # |d(hypot)| <= |dx| + |dy|, plus the roundings of each side's hypot,
    # difference and scale
    slack = bound[-1].sum() + 8 * U * want.displacement
    assert abs(got.displacement - want.displacement) <= slack
    assert got.mean_velocity == got.displacement / spec.duration
    assert got.failure is want.failure


SIGNED = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5.0, 5.0))
STARTS = st.one_of(
    st.just(locomotion.ORIGIN),
    st.builds(PlanarPose, SIGNED, SIGNED,
              st.one_of(st.sampled_from([0.0, -0.0, math.pi]),
                        st.floats(-10.0, 10.0)),
              st.floats(0.0, 100.0)))
SEEDS = st.integers(0, 2 ** 32)
DURATIONS = st.one_of(st.sampled_from([0.5, 10.0, 30.0]),
                      st.floats(0.01, 40.0))
# free lengths below jam_below jam, above roll_above roll (the housing arc
# caps a blade at about 51.8 mm)
TAILS = st.builds(TailConfig,
                  free_length=st.one_of(st.sampled_from([15e-3, 25e-3, 35e-3]),
                                        st.floats(5e-3, 51e-3)),
                  motor_speed=st.floats(0.2, 5.0),
                  pulse_width=st.floats(0.002, 0.05))
ANGLE_MODELS = st.one_of(
    st.just(EngagedAngleModel()),
    st.builds(EngagedAngleModel, kind=st.just("truncated_normal")),
    st.builds(EngagedAngleModel, lower=st.just(0.5), upper=st.just(0.5)))
THRESHOLDS = st.builds(RegimeThresholds,
                       jam_strike_prob=st.floats(0.0, 1.0),
                       roll_attenuation=st.floats(0.05, 1.0))
ROBOTS = st.builds(RobotParams, mass=st.floats(0.005, 0.1),
                   launch_angle=st.floats(0.1, 1.4),
                   pitch_speed_limit=st.floats(0.05, 3.0))
EFFICIENCIES = st.one_of(st.sampled_from([0.0, SKIP_EFF_MAX]),
                         st.floats(0.0, SKIP_EFF_MAX))
# per-side gain split: equal ends draw no magnitude
SPLITS = st.one_of(st.just((0.0, 0.0)), st.just((0.004, 0.004)),
                   st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
                   .map(sorted).map(tuple))
STDS = st.one_of(st.just(0.0), st.floats(0.0, 0.6))
NOISES = st.one_of(
    st.just(AsymmetryNoise()), st.just(AsymmetryNoise.zero()),
    st.builds(AsymmetryNoise, gain_split=SPLITS, stride_jitter_std=STDS,
              heading_jitter_std=STDS, track_width=st.floats(0.01, 0.2)))


@st.composite
def skip_cases(draw):
    """A skip trial on a flat response of any fitted efficiency, slipping
    when its slip moisture is at or below the trial's moisture."""
    material = draw(st.sampled_from(list(Material)))
    moisture = draw(st.sampled_from([0.0, 0.5, 1.2]))
    efficiency = draw(EFFICIENCIES)
    slip = draw(st.sampled_from([None, 0.4, 1.0]))
    response = MoistureResponse(
        skip=SkipCurve(floor=efficiency, peak=efficiency, center=0.0,
                       width=1.0),
        crawl=CrawlCurve(cap=1.0, rise_mid=-1.0, rise_width=0.05, decay=0.0),
        slip_moisture=slip)
    model = Model(tail=draw(TAILS), robot=draw(ROBOTS),
                  angle_model=draw(ANGLE_MODELS), thresholds=draw(THRESHOLDS),
                  responses={material: response})
    spec = TrialSpec(LocomotionMode.SKIP, material, moisture,
                     duration=draw(DURATIONS), seed=draw(SEEDS))
    return spec, model, draw(STARTS)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(skip_cases())
def test_skip_trial_matches_per_strike_loop(case):
    spec, model, start = case
    same_result(spec, run_trial(spec, model, start),
                oracle_run_trial(spec, model, start))


@st.composite
def crawl_cases(draw):
    """A sync or async crawl trial whose traction may fall below the
    excavation threshold."""
    material = draw(st.sampled_from(list(Material)))
    response = MoistureResponse(
        skip=SkipCurve(floor=0.5, peak=0.5, center=0.0, width=1.0),
        crawl=CrawlCurve(cap=draw(st.floats(0.0, 1.0)), rise_mid=-1.0,
                         rise_width=0.05, decay=0.0),
        excavation_traction=draw(st.sampled_from([0.0, 0.15, 0.5])))
    gait = GaitConfig(noise=draw(NOISES), stride=draw(st.floats(0.001, 0.1)))
    model = Model(gait=gait, responses={material: response})
    mode = draw(st.sampled_from([LocomotionMode.SYNC_CRAWL,
                                 LocomotionMode.ASYNC_CRAWL]))
    # every new duration steps the gait controller once, so keep them short
    duration = draw(st.one_of(st.sampled_from([0.5, 3.0, 30.0]),
                              st.floats(0.01, 6.0)))
    spec = TrialSpec(mode, material, duration=duration, seed=draw(SEEDS))
    return spec, model, draw(STARTS)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(crawl_cases())
def test_crawl_trial_matches_per_cycle_loop(case):
    spec, model, start = case
    same_result(spec, run_trial(spec, model, start),
                oracle_run_trial(spec, model, start))


@pytest.mark.parametrize("efficiency", [0.2706, 0.566203, SKIP_EFF_MAX])
def test_hop_displacement_matches_scalar_formula_on_many_impulses(efficiency):
    """A scaled unit hop is the oracle's hop to the products' roundings,
    the bound of a pose one step from a zero start."""
    impulses = np.random.default_rng(0).uniform(5e-3, 0.05, 20_000)
    substrate = SubstrateParams(efficiency, 1.0, False, False)
    robot = RobotParams()
    got = skip_scale(substrate) * hop_displacement(impulses, robot)
    want = np.array([oracle_hop_displacement(j, robot, substrate)
                     for j in impulses.tolist()])
    assert (np.abs(got - want) <= 2 * (1 + PER_STEP) * U * want).all()


@pytest.mark.parametrize("mode", [LocomotionMode.SKIP,
                                  LocomotionMode.SYNC_CRAWL],
                         ids=lambda m: m.value)
def test_longest_trial_matches_its_loop(mode):
    """At MAX_TRIAL_S the bound still holds, for 3,600 steps."""
    spec = TrialSpec(mode, Material.RIGID, duration=locomotion.MAX_TRIAL_S,
                     seed=7)
    start = PlanarPose(-1.5, 2.25, 0.3, 10.0)
    got = run_trial(spec, Model(), start)
    assert len(got.trajectory) >= 3601
    same_result(spec, got, oracle_run_trial(spec, Model(), start))


@pytest.mark.parametrize("cases,outcomes", [
    (skip_cases(), {FailureMode.PITCH_OVER, FailureMode.TAIL_SLIP,
                    FailureMode.NONE}),
    (crawl_cases(), {FailureMode.EXCAVATION, FailureMode.NONE}),
], ids=["skip", "crawl"])
def test_drawn_trials_reach_every_outcome(cases, outcomes):
    """The trials the oracle tests draw include every failure the schedule
    layer decides, and clean runs."""
    seen = set()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(cases)
    def collect(case):
        seen.add(run_trial(*case).failure)

    collect()
    assert outcomes <= seen


@settings(max_examples=400, derandomize=True, deadline=None)
@given(times=st.lists(st.floats(0.0, 100.0), max_size=60).map(sorted),
       mode=st.sampled_from(list(GaitMode)), noise=NOISES,
       stride=st.floats(1e-4, 0.2), seeds=st.lists(SEEDS, max_size=5),
       start=st.one_of(st.none(), STARTS))
def test_crawl_kinematics_matches_per_cycle_loop(times, mode, noise, stride,
                                                 seeds, start):
    """Each seed's row of a batch is the loop's trajectory for that seed."""
    got = crawl_kinematics(times, mode, noise, stride, seeds, start)
    assert got.shape == (len(seeds), len(times) + 1, 4)
    want = oracle_crawl_batch(times, mode, noise, stride, seeds, start)
    assert repr([p.tolist() for p in got]) == repr([p.tolist() for p in want])


@pytest.mark.parametrize("noise", [
    AsymmetryNoise(), AsymmetryNoise.zero(),
    AsymmetryNoise(stride_jitter_std=0.0), AsymmetryNoise(heading_jitter_std=0.0),
    AsymmetryNoise(gain_split=(0.004, 0.004)),
], ids=["default", "zero", "no-stride-jitter", "no-heading-jitter",
        "fixed-split"])
@pytest.mark.parametrize("mode", list(GaitMode), ids=lambda m: m.value)
def test_drift_trial_matches_per_cycle_loop(noise, mode):
    config = GaitConfig(noise=noise)
    got, = drift_trials(mode, config, seeds=[5])
    with mock.patch.object(gait, "crawl_kinematics", oracle_crawl_batch):
        want, = drift_trials(mode, config, seeds=[5])
    assert repr(got.poses.tolist()) == repr(want.poses.tolist())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(mode=st.sampled_from(list(GaitMode)), noise=NOISES,
       seeds=st.lists(SEEDS, max_size=9), chunk=st.integers(1, 200),
       distance=st.floats(0.01, 1.5))
def test_drift_trials_match_per_cycle_loop_across_chunks(mode, noise, seeds,
                                                          chunk, distance):
    """At a chunk of a few poses, a drift's seeds run in several batches
    (one seed each at least), and every trajectory is still the loop's."""
    config = GaitConfig(noise=noise)
    batches = []

    def batch(cycle_times, mode, noise, stride, seeds, start=None):
        batches.append(len(seeds))
        return crawl_kinematics(cycle_times, mode, noise, stride, seeds, start)

    with mock.patch.object(gait, "DRIFT_CHUNK_POSES", chunk), \
            mock.patch.object(gait, "crawl_kinematics", batch):
        got = list(drift_trials(mode, config, seeds, distance))
    with mock.patch.object(gait, "crawl_kinematics", oracle_crawl_batch):
        want = list(drift_trials(mode, config, seeds, distance))
    assert (repr([t.poses.tolist() for t in got])
            == repr([t.poses.tolist() for t in want]))
    duration = drift_duration(mode, config, distance)
    poses = len(nominal_cycle_times(mode, duration, config.fin_speed,
                                    config.dt, config.encoder)) + 1
    per_batch = max(1, chunk // poses)
    assert batches == [min(per_batch, len(seeds) - k)
                       for k in range(0, len(seeds), per_batch)]


def test_a_long_drift_holds_one_batch_and_one_trajectory():
    """Forty 100 m drifts (about 3,000 poses each, two seeds a batch)
    peak at what one batch takes plus the one trajectory the caller holds,
    under 2 MiB: a batch is dropped before the next is built."""
    config = GaitConfig()
    duration = drift_duration(GaitMode.SYNC, config, 100.0)
    events = nominal_cycle_times(GaitMode.SYNC, duration, config.fin_speed,
                                 config.dt, config.encoder)
    per_batch = gait.DRIFT_CHUNK_POSES // (len(events) + 1)
    assert per_batch == 2
    gc.collect()
    tracemalloc.start()
    try:
        crawl_kinematics(events, GaitMode.SYNC, config.noise, config.stride,
                         range(per_batch))
        _, one_batch = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for traj in drift_trials(GaitMode.SYNC, config, range(40), 100.0):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= one_batch + traj.poses.nbytes + 16 * 1024
    assert peak < 2 * 1024 * 1024


def test_a_signed_zero_start_keeps_its_sign():
    """A trial starting at -0.0 starts at its own pose, as the loop does:
    the unit path starts at (0.0, 0.0), and -0.0 + 0.0 is +0.0."""
    spec = TrialSpec(LocomotionMode.ASYNC_CRAWL, Material.RIGID,
                     duration=5.0)
    for start in (PlanarPose(-0.0, -0.0, -0.0, -0.0),
                  PlanarPose(0.0, 0.0, 0.0, 0.0)):
        got = run_trial(spec, Model(), start)
        want = oracle_run_trial(spec, Model(), start)
        assert (repr(got.trajectory.poses[:, 2:].tolist())
                == repr(want.trajectory.poses[:, 2:].tolist()))
        assert repr(got.trajectory.start) == repr(start)


SWEEP_TRIALS = 300  # more seeds than a 256-entry path LRU would hold
# rigid ground at a pitch speed limit its strikes exceed; the other four are
# the bench's shipped conditions
BENCH_CONFIG = {"robot": {"pitch_speed_limit_m_s": 0.6},
                "experiments": {"substrate_bench": {"conditions": [
                    ["uniform_sand", 0.0], ["nonuniform_sand", 0.0],
                    ["bentonite_clay", 0.3333], ["grass", 0.0],
                    ["rigid", 0.0]]}}}


@pytest.fixture(scope="module")
def built_paths():
    """Runs moisture-sweep and substrate-bench at SWEEP_TRIALS trials, and a
    fit at as many trials per target, recording every unit path each builds
    as (kind, seed). Yields (paths by run, the runs' trials.csv rows)."""
    built = []
    strike_sequence = locomotion.strike_sequence
    crawl_kinematics = locomotion.crawl_kinematics

    def strikes(tail, angle_model, regime, duration, seed, thresholds):
        built.append(("skip", seed))
        return strike_sequence(tail, angle_model, regime, duration, seed,
                               thresholds)

    def cycles(cycle_times, mode, noise, stride, seeds, start):
        built.extend((mode.value, seed) for seed in seeds)
        return crawl_kinematics(cycle_times, mode, noise, stride, seeds, start)

    paths, rows = {}, {}
    with tempfile.TemporaryDirectory() as work, \
            mock.patch.object(locomotion, "strike_sequence", strikes), \
            mock.patch.object(locomotion, "crawl_kinematics", cycles):
        cfg = os.path.join(work, "bench.json")
        with open(cfg, "w") as fh:
            json.dump(BENCH_CONFIG, fh)
        for name, argv in (("moisture-sweep", []),
                           ("substrate-bench", ["--config", cfg])):
            out = os.path.join(work, name)
            built.clear()
            assert main([name, "--trials", str(SWEEP_TRIALS), "--out", out,
                         *argv]) == 0
            paths[name] = list(built)
            with open(os.path.join(out, "trials.csv"), newline="") as fh:
                rows[name] = list(csv.DictReader(fh))
        built.clear()
        cal.fit(cal.bundled_targets(), budget=20, n_trials=SWEEP_TRIALS)
        paths["calibrate"] = list(built)
    yield paths, rows


@pytest.mark.parametrize("run, kinds", [
    ("moisture-sweep", ("async", "skip", "sync")),
    ("substrate-bench", ("skip",)),
    ("calibrate", ("async", "skip", "sync")),
])
def test_each_path_is_built_once_per_kind_and_seed(built_paths, run, kinds):
    """A command builds each (kind, seed) unit path once however many
    conditions or targets share it, and seed by seed."""
    paths, _ = built_paths
    assert sorted(paths[run]) == [(kind, seed) for kind in kinds
                                  for seed in range(SWEEP_TRIALS)]
    seeds = [seed for _, seed in paths[run]]
    assert seeds == sorted(seeds)


@pytest.mark.parametrize("run, conditions, model, failures", [
    ("moisture-sweep", 39, Model(),
     {FailureMode.EXCAVATION, FailureMode.TAIL_SLIP}),
    ("substrate-bench", 5, Model(robot=RobotParams(pitch_speed_limit=0.6)),
     {FailureMode.PITCH_OVER}),
], ids=["moisture-sweep", "substrate-bench"])
def test_every_trial_row_is_the_loops_trial(built_paths, run, conditions,
                                            model, failures):
    """Each trials.csv row holds its trial's failure as the per-strike or
    per-cycle loop gives it, and its displacement to that loop's summation
    bound; displacement and failure are `run_trial`'s exactly, and the
    velocity is the displacement over the duration."""
    _, rows = built_paths
    assert len(rows[run]) == SWEEP_TRIALS * conditions
    seen = set()
    for row in rows[run]:
        spec = TrialSpec(LocomotionMode(row["mode"]),
                         Material(row["material"]), float(row["moisture"]),
                         30.0, int(row["seed"]))
        want, solo = oracle_run_trial(spec, model), run_trial(spec, model)
        displacement = float(row["displacement_m"])
        assert row["failure"] == want.failure.value == solo.failure.value
        slack = (summation_bound(want.trajectory.poses)[-1].sum()
                 + 8 * U * want.displacement)
        assert abs(displacement - want.displacement) <= slack
        assert row["displacement_m"] == repr(solo.displacement)
        assert float(row["velocity_mps"]) == displacement / spec.duration
        seen.add(want.failure)
    assert failures <= seen


@pytest.mark.parametrize("mode", [LocomotionMode.SKIP,
                                  LocomotionMode.SYNC_CRAWL],
                         ids=lambda m: m.value)
def test_a_large_batch_holds_a_few_numbers_per_trial(mode):
    """A 2000-seed batch of 10 s trials peaks under 256 bytes a trial: its
    paths are dropped as they are reduced (a batch that kept each trial's
    poses would hold about 2 MB)."""
    spec = TrialSpec(mode, Material.RIGID, duration=10.0)
    run_batch(spec, 10, 0)  # lazy imports settle first
    gc.collect()
    tracemalloc.start()
    try:
        run_batch(spec, 2000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 256


def oracle_detects(encoder, angle):
    angle = angle % TWO_PI
    for magnet in encoder.magnet_angles:
        d = abs(angle - magnet) % TWO_PI
        if min(d, TWO_PI - d) <= encoder.detection_window:
            return True
    return False


class OracleFin:
    def __init__(self, speed, encoder, dt):
        self.encoder = encoder
        self.angular_speed = self.nominal_speed = speed
        self.dt = dt
        self.step = speed * dt
        self.turned = self.paused_ticks = self.edges = 0
        self.angle = 0.0
        self.in_window = oracle_detects(encoder, 0.0)

    @property
    def total_angle(self):
        return self.turned * self.step

    @property
    def pause_time(self):
        return self.paused_ticks * self.dt

    def advance(self):
        if self.angular_speed <= 0.0:
            return False
        self.turned += 1
        self.angle = self.turned * self.step % TWO_PI
        was_in = self.in_window
        self.in_window = oracle_detects(self.encoder, self.angle)
        if self.in_window and not was_in:
            self.edges += 1
            return True
        return False


class OracleGait:
    """The per-tick controllers: `mode` picks the gait's tick rule."""

    def __init__(self, mode, left_speed, right_speed, encoder, dt):
        self.mode = mode
        self.dt = dt
        self.left = OracleFin(left_speed, encoder, dt)
        self.right = OracleFin(right_speed, encoder, dt)
        self.edges_per_cycle = len(encoder.magnet_angles)
        self.ticks = 0
        if mode is GaitMode.ASYNC:
            self.active = self.left
        self.cycles_marked = 0

    @property
    def time(self):
        return self.ticks * self.dt

    def step(self):
        if self.mode is GaitMode.SYNC:
            lead = self.left.edges - self.right.edges
            for fin, waits in ((self.left, lead > 0), (self.right, lead < 0)):
                fin.angular_speed = 0.0 if waits else fin.nominal_speed
                if waits:
                    fin.paused_ticks += 1
                fin.advance()
        elif self.mode is GaitMode.ASYNC:
            idler = self.right if self.active is self.left else self.left
            idler.angular_speed = 0.0
            self.active.angular_speed = self.active.nominal_speed
            if self.active.advance():
                self.active = idler
        else:
            self.left.advance()
            self.right.advance()
        self.ticks += 1
        if self.mode is GaitMode.OPEN_LOOP:
            if self.left.total_angle >= (self.cycles_marked + 1) * TWO_PI:
                self.cycles_marked += 1
                return True
            return False
        n = self.edges_per_cycle
        if self.left.edges >= n and self.right.edges >= n:
            self.left.edges -= n
            self.right.edges -= n
            return True
        return False


def oracle_run_cycles(controller, duration):
    times = []
    for _ in range(int(round(duration / controller.dt))):
        if controller.step():
            times.append(controller.time)
    return times


def oracle_schedule(mode, left_speed, right_speed, magnets, dt, duration):
    """The per-tick controllers' cycle times at these settings."""
    return oracle_run_cycles(
        OracleGait(mode, left_speed, right_speed,
                   EncoderModel(magnet_angles=magnets), dt), duration)


def schedule(mode, left_speed, right_speed, magnets, dt, duration):
    return run_cycles(mode, duration, dt, left_speed, right_speed,
                      EncoderModel(magnet_angles=magnets))


MAGNETS = st.sampled_from([(0.0,), (0.0, math.pi), (0.3, 2.0, 4.1),
                           (1.0, 5.5)])
GAIT_DTS = st.one_of(st.sampled_from([0.003, 0.01, 0.02]),
                     st.floats(0.003, 0.02))


@st.composite
def gait_cases(draw):
    """A gait at any dt from 0.003 to 0.02 s and 1 to 3 magnets, each fin
    at its own speed, 0.0 included. Each fin turns less than a detection
    window per tick."""
    mode = draw(st.sampled_from(list(GaitMode)))
    dt = draw(GAIT_DTS)
    speeds = st.one_of(st.just(TWO_PI), st.just(0.0),
                       st.floats(0.5, 0.149 / dt))
    left = draw(speeds)
    right = draw(st.one_of(st.just(left), speeds))
    return mode, left, right, draw(MAGNETS), dt


@settings(max_examples=150, derandomize=True, deadline=None)
@given(case=gait_cases(),
       duration=st.one_of(st.sampled_from([0.5, 1.0, 30.0, 60.0]),
                          st.floats(0.5, 60.0)))
# the 21st open-loop mark falls on tick 3000, though 21*2*pi / step
# rounds to just above 3000
@example(case=(GaitMode.OPEN_LOOP, TWO_PI, TWO_PI, (0.0, math.pi), 0.007),
         duration=30.0)
@example(case=(GaitMode.ASYNC, TWO_PI, 0.6 * TWO_PI, (0.3, 2.0, 4.1), 0.01),
         duration=60.0)
@example(case=(GaitMode.SYNC, 0.0, TWO_PI, (0.0, math.pi), 0.01),
         duration=10.0)
# a left fin too slow to reach its first mark
@example(case=(GaitMode.OPEN_LOOP, 1e-300, TWO_PI, (0.0, math.pi), 0.01),
         duration=10.0)
# the 60th cycle completes on tick 5998, the schedule's last
@example(case=(GaitMode.SYNC, TWO_PI, TWO_PI, (0.0, math.pi), 0.01),
         duration=59.98)
def test_cycle_times_match_per_tick_loop(case, duration):
    mode, left, right, magnets, dt = case
    assert (repr(schedule(mode, left, right, magnets, dt, duration))
            == repr(oracle_schedule(mode, left, right, magnets, dt, duration)))


def test_unequal_sync_speeds_match_per_tick_loop():
    """Over 60 s at 10% unequal speeds the per-tick controller's faster fin
    waits more than 5 s, and the closed form still gives its cycle times."""
    args = (GaitMode.SYNC, TWO_PI, 0.9 * TWO_PI, (0.0, math.pi), 0.01)
    oracle = OracleGait(*args[:3], EncoderModel(magnet_angles=args[3]),
                        args[4])
    want = oracle_run_cycles(oracle, 60.0)
    assert oracle.left.pause_time > 5.0
    assert repr(schedule(*args, 60.0)) == repr(want)


@pytest.mark.parametrize("mode,left,right,magnets,dt,duration", [
    (GaitMode.SYNC, TWO_PI, TWO_PI, (0.0, math.pi), 0.02,
     locomotion.MAX_TRIAL_S),
    (GaitMode.ASYNC, TWO_PI, TWO_PI, (0.0,), 0.02, locomotion.MAX_TRIAL_S),
    (GaitMode.OPEN_LOOP, TWO_PI, TWO_PI, (0.3, 2.0, 4.1), 0.02,
     locomotion.MAX_TRIAL_S),
    (GaitMode.ASYNC, TWO_PI, TWO_PI, (0.3, 2.0, 4.1), 0.003, 400.0),
    (GaitMode.SYNC, TWO_PI, 0.9 * TWO_PI, (0.0, math.pi), 0.02,
     locomotion.MAX_TRIAL_S),
    (GaitMode.ASYNC, 1.2 * TWO_PI, 0.7 * TWO_PI, (0.3, 2.0, 4.1), 0.003,
     400.0),
], ids=["sync", "async", "open_loop", "async-fine", "sync-unequal",
        "async-fine-unequal"])
def test_long_schedule_matches_per_tick_loop(mode, left, right, magnets, dt,
                                             duration):
    """Over 2**16 ticks each fin's rises are planned in several chunks, and
    the schedule is still the loop's."""
    assert duration / dt > gait.CHUNK_TICKS
    assert (repr(schedule(mode, left, right, magnets, dt, duration))
            == repr(oracle_schedule(mode, left, right, magnets, dt,
                                    duration)))


@pytest.mark.parametrize("mode", [GaitMode.SYNC, GaitMode.ASYNC],
                         ids=lambda m: m.value)
def test_a_rise_on_a_chunk_edge_counts(mode):
    """One magnet placed so that the sensor rises exactly at count
    CHUNK_TICKS, where one planning chunk ends and the next begins."""
    dt = 0.02
    step = TWO_PI * dt
    edge = gait.CHUNK_TICKS * step
    encoder = EncoderModel()
    magnet = (edge + encoder.detection_window - step / 2) % TWO_PI
    encoder = EncoderModel(magnet_angles=(magnet,))
    assert encoder.detects(edge)
    assert not encoder.detects((gait.CHUNK_TICKS - 1) * step)
    duration = 2.01 * gait.CHUNK_TICKS * dt
    assert (repr(schedule(mode, TWO_PI, TWO_PI, (magnet,), dt, duration))
            == repr(oracle_schedule(mode, TWO_PI, TWO_PI, (magnet,), dt,
                                    duration)))


@pytest.mark.parametrize("mode", list(GaitMode), ids=lambda m: m.value)
@pytest.mark.parametrize("duration", [1.0, 30.0, 301.5])
def test_nominal_schedule_matches_per_tick_loop(mode, duration):
    config = GaitConfig()
    assert (repr(nominal_cycle_times(mode, duration, config.fin_speed,
                                     config.dt, config.encoder))
            == repr(tuple(oracle_schedule(
                mode, config.fin_speed, config.fin_speed,
                config.encoder.magnet_angles, config.dt, duration))))


def test_sixty_second_schedules_fall_on_whole_ticks():
    """At the defaults over 60 s: sync completes 60 cycles, the last at
    tick 5998; async 30; open loop 60, the first at exactly 1.0 s. Every
    cycle time is its tick count times dt."""
    gait = GaitConfig()
    sync, asyn, open_loop = (
        nominal_cycle_times(mode, 60.0, gait.fin_speed, gait.dt, gait.encoder)
        for mode in (GaitMode.SYNC, GaitMode.ASYNC, GaitMode.OPEN_LOOP))
    assert len(sync) == 60 and repr(sync[-1]) == repr(5998 * 0.01)
    assert len(asyn) == 30
    assert len(open_loop) == 60 and repr(open_loop[0]) == "1.0"
    for t in sync + asyn + open_loop:
        assert t == round(t / gait.dt) * gait.dt


