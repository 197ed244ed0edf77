"""Hop model and crawl model composing tail strikes, gait cycles, and
substrate response into trials with failure classification.

The substrate enters a skip or sync/async crawl trial as one scale: a hop
of impulse J covers (eta*J/m)^2*sin(2*alpha)/g, so a skip trial travels
eta^2 times its path at skip efficiency eta = 1, and a crawl trial travels
its crawl traction times its path at traction 1. A trial is that unit path
times its scale, placed at its start pose. A batch keeps of each unit
path only what the failure rules read (`Units`); `trial_outcomes` applies
them for batches, single trials and the calibration loss alike."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import FieldError, check_positive
from .gait import (MAX_TRIAL_S, ORIGIN, GaitConfig, GaitMode, PlanarPose,
                   Trajectory, crawl_kinematics, nominal_cycle_times,
                   within_trial_limit)
from .springtail import (EngagedAngleModel, RegimeThresholds, TailConfig,
                         half_sine_impulse, length_regime, strike_sequence,
                         unlatch_force)
from .stats import FAILURE_THRESHOLD_M, FailureMode
from .terrain import (Material, SubstrateParams, check_moisture,
                      moisture_response)

MAX_TRIALS = 10_000  # per condition: 390,000 rows for a 39-point sweep
# the fastest a skip trial may travel (m/s): the speed of light, far above
# any robot, and far enough below the float range that every hop, velocity,
# calibration loss and standard deviation of a model under it is finite
MAX_SKIP_SPEED = 299_792_458.0


class LocomotionMode(Enum):
    SKIP = "skip"
    SYNC_CRAWL = "sync_crawl"
    ASYNC_CRAWL = "async_crawl"


_GAIT_MODE = {
    LocomotionMode.SYNC_CRAWL: GaitMode.SYNC,
    LocomotionMode.ASYNC_CRAWL: GaitMode.ASYNC,
}


@dataclass(frozen=True)
class RobotParams:
    mass: float = 0.028  # kg
    launch_angle: float = math.pi / 4  # rad
    gravity: float = 9.81  # m/s^2
    pitch_speed_limit: float = 1.5  # m/s; takeoff faster than this on rigid
    # ground tips the body onto its tail

    def __post_init__(self):
        check_positive(self, "mass", "gravity")
        if not 0.0 < self.launch_angle < math.pi / 2:
            raise FieldError("{launch_angle} must lie in (0, pi/2)")
        check_positive(self, "pitch_speed_limit")


@dataclass(frozen=True)
class Model:
    """The physics a trial runs under: springtail, fins, body and substrate.
    `responses` maps a material to its curves; a material it lacks uses the
    shipped curves."""

    tail: TailConfig = field(default_factory=TailConfig)
    gait: GaitConfig = field(default_factory=GaitConfig)
    robot: RobotParams = field(default_factory=RobotParams)
    angle_model: EngagedAngleModel = field(default_factory=EngagedAngleModel)
    thresholds: RegimeThresholds = field(default_factory=RegimeThresholds)
    responses: dict = field(default_factory=dict)  # Material -> MoistureResponse


@dataclass(frozen=True)
class TrialSpec:
    mode: LocomotionMode
    material: Material
    moisture: float = 0.0
    duration: float = 30.0  # s
    seed: int = 0

    def __post_init__(self):
        check_moisture(self.moisture)  # before a batch builds any path
        if not within_trial_limit(self.duration):
            raise FieldError("{duration} must lie in "
                             f"(0, {MAX_TRIAL_S:g}] s, got {self.duration!r}")


@dataclass
class TrialResult:
    trajectory: Trajectory
    displacement: float  # m, net
    mean_velocity: float  # m/s
    failure: FailureMode


@dataclass
class BatchSummary:
    mean_velocity: float  # m/s, over effective velocities
    std_velocity: float  # m/s, sample std (n-1), 0 for a single trial
    n_trials: int
    failures: int


def hop_displacement(impulse, params: RobotParams):
    """Forward distance of one strike-driven hop at skip efficiency 1, or of
    each hop for an array of impulses.

    Takeoff speed is the impulse over the robot mass; the hop covers the
    ballistic range v0^2*sin(2*alpha)/g. On a substrate the takeoff speed
    is scaled by the skip efficiency, so the hop by `skip_scale`.
    """
    impulses = np.asarray(impulse, dtype=float)
    if (impulses <= 0).any():
        raise ValueError("impulse must be positive")
    distance = ((impulses / params.mass) ** 2
                * math.sin(2.0 * params.launch_angle) / params.gravity)
    return distance if distance.ndim else float(distance)


def check_skip_speed(model: Model) -> None:
    """A skip trial's speed, one strike's hop at skip efficiency 1 once a
    revolution, lies in (0, MAX_SKIP_SPEED] at every engaged angle: at the
    upper bound, the weakest strike, and at the lower, the strongest, priced
    by the helpers a trial hops with in numpy floats: an overflow or a 0/0
    reads inf or nan, and a force or impulse that underflows to 0 (which a
    helper refuses) reads as speed 0."""
    tail, angles = model.tail, np.array([model.angle_model.upper,
                                         model.angle_model.lower])
    with np.errstate(all="ignore"):
        try:
            slowest, fastest = tail.motor_speed * hop_displacement(
                half_sine_impulse(unlatch_force(tail, angles),
                                  tail.pulse_width), model.robot)
        except ValueError:
            slowest = fastest = 0.0
    if not 0.0 < slowest <= fastest <= MAX_SKIP_SPEED:
        raise FieldError(
            "{mass}, launched at {launch_angle} under {gravity} by the "
            "strikes of {youngs_modulus}, {width}, {thickness}, "
            "{housing_radius}, {upper} to {lower} and {pulse_width} at "
            f"{{motor_speed}}, would skip at {slowest:g} to {fastest:g} m/s; "
            "a skip must move, and no faster than light")


def skip_scale(substrate: SubstrateParams) -> float:
    """What a skip trial's unit path is multiplied by: the squared skip
    efficiency, or 0 when the tail slips and transfers nothing."""
    if substrate.tail_slips:
        return 0.0
    return substrate.skip_efficiency * substrate.skip_efficiency


class Units(NamedTuple):
    """What the failure rules read of a batch's unit paths: each seed's net
    displacement at scale 1, and, flat over the seeds, each skip strike
    whose impulse tops every earlier one (only such a record can be the
    first over the pitch speed limit): its seed's index, its index among
    the strikes, its impulse and the reach of the hops before it."""

    reach: np.ndarray
    owner: np.ndarray
    hop: np.ndarray
    impulse: np.ndarray
    before: np.ndarray


def unit_path(mode: LocomotionMode, model: Model, duration: float, seed: int,
              heading: float = 0.0, time: float = 0.0) -> tuple:
    """(path, kept): a trial's unit path, in which no substrate enters, and
    what `Units` keeps of it, (reach, hop, impulse, before). A skip path is
    (strike times, impulses, reach), reach[k] the forward distance of its
    first k hops at skip efficiency 1, summed hop by hop. A crawl path is
    its poses at traction 1 from (0, 0) at the start `heading` and `time`:
    encoder feedback keeps the stride out of the heading."""
    if mode is not LocomotionMode.SKIP:
        gait, gait_mode = model.gait, _GAIT_MODE[mode]
        events = nominal_cycle_times(gait_mode, duration, gait.fin_speed,
                                     gait.dt, gait.encoder)
        path = crawl_kinematics(events, gait_mode, gait.noise, gait.stride,
                                (seed,), PlanarPose(0.0, 0.0, heading, time))[0]
        return path, (math.hypot(*path[-1, :2].tolist()), *np.empty((3, 0)))
    tail, thresholds = model.tail, model.thresholds
    strikes = strike_sequence(tail, model.angle_model,
                              length_regime(tail.free_length, thresholds),
                              duration, seed, thresholds)
    times, impulses = strikes.time, strikes.impulse
    reach = np.add.accumulate(np.append(0.0, hop_displacement(impulses,
                                                              model.robot)))
    # the records: impulses are positive, so the first tops a running 0
    hop = np.flatnonzero(
        impulses > np.maximum.accumulate(np.append(0.0, impulses))[:-1])
    return (times, impulses, reach), (float(reach[-1]), hop, impulses[hop],
                                      reach[hop])


def check_trials(n_trials: int) -> None:
    """Trials per condition lie in [1, MAX_TRIALS]."""
    if not 1 <= n_trials <= MAX_TRIALS:
        raise FieldError(f"{{n_trials}} must lie in [1, {MAX_TRIALS}]")


def build_units(specs, seed_base: int, n_trials: int, model: Model) -> dict:
    """(mode, duration) -> the `Units` of each trial kind among `specs` over
    the seeds seed_base..seed_base+n_trials-1. Seed-major: each seed builds
    its path of every kind once and drops it once reduced, so what stays is
    a few numbers per trial (8 bytes each, in typed arrays) and one path."""
    check_trials(n_trials)
    kinds = {kind: Units(*map(array, "dqqdd"))
             for kind in dict.fromkeys((s.mode, s.duration) for s in specs)}
    for index, seed in enumerate(range(seed_base, seed_base + n_trials)):
        for (mode, duration), kept in kinds.items():
            reach, hop, impulse, before = unit_path(mode, model, duration,
                                                    seed)[1]
            kept.reach.append(reach)
            for column, values in zip(kept[1:], (np.full(len(hop), index),
                                                 hop, impulse, before)):
                column.frombytes(values.astype(column.typecode).tobytes())
    return {kind: Units(*(np.frombuffer(c, c.typecode) for c in kept))
            for kind, kept in kinds.items()}


class Outcomes(NamedTuple):
    """A batch's trials, seed by seed."""

    displacement: np.ndarray  # m, net
    failure: list  # FailureMode
    stop: np.ndarray  # the strike a pitch-over stopped the trial at, or -1


def trial_outcomes(units: Units, mode: LocomotionMode, material: Material,
                   substrate: SubstrateParams,
                   robot: RobotParams) -> Outcomes:
    """Every trial of a batch from its units and the batch's one substrate,
    by the failure rules, stated here and nowhere else:
    - a crawl trial on a substrate that excavates digs in and stays put;
    - a skip trial whose tail slips transfers nothing (its scale is 0);
    - on rigid ground a skip trial stops at its first strike whose takeoff
      speed exceeds the pitch speed limit: it pitches over (over a slip);
    - any other trial under FAILURE_THRESHOLD_M fails below threshold (one
      of exactly 0.10 m succeeds)."""
    if mode is LocomotionMode.SKIP:
        scale = skip_scale(substrate)
        hard = FailureMode.TAIL_SLIP if substrate.tail_slips else None
    elif substrate.excavates:
        # the fins dig the robot into the bed; no forward motion
        scale, hard = 0.0, FailureMode.EXCAVATION
    else:
        scale, hard = substrate.crawl_traction, None
    displacement = scale * units.reach
    if hard is None:
        failure = [FailureMode.BELOW_THRESHOLD if d < FAILURE_THRESHOLD_M
                   else FailureMode.NONE for d in displacement.tolist()]
    else:
        failure = [hard] * len(displacement)
    stop = np.full(len(displacement), -1)
    if mode is LocomotionMode.SKIP and material is Material.RIGID:
        # a strike this fast lifts the forebody; the robot leans on its tail
        # and stops advancing
        over = (substrate.skip_efficiency * units.impulse / robot.mass
                > robot.pitch_speed_limit)
        trials, first = np.unique(units.owner[over], return_index=True)
        displacement[trials] = scale * units.before[over][first]
        stop[trials] = units.hop[over][first]
        for trial in trials.tolist():
            failure[trial] = FailureMode.PITCH_OVER
    return Outcomes(displacement, failure, stop)


def effective_velocities(outcomes: Outcomes, duration: float) -> np.ndarray:
    """Each trial's mean velocity (m/s), a failed trial's scored as zero
    (the reporting convention)."""
    return np.where([f is FailureMode.NONE for f in outcomes.failure],
                    outcomes.displacement / duration, 0.0)


def _skip_poses(path, scale, stop, start):
    times, _, reach = path
    hops = len(times) if stop < 0 else stop
    forward = scale * reach[:hops + 1]
    heading = start.heading
    # a pitch-over adds a pose at the over-limit strike, where motion stopped
    poses = np.empty((hops + 1 + (stop >= 0), 4))
    poses[:hops + 1, 0] = start.x + forward * math.cos(heading)
    poses[:hops + 1, 1] = start.y + forward * math.sin(heading)
    poses[hops + 1:, :2] = poses[hops, :2]
    poses[:, 2] = heading
    poses[0, 3] = start.time
    poses[1:, 3] = start.time + times[:len(poses) - 1]
    return poses


def run_trial(spec: TrialSpec, model: Model = Model(),
              start: PlanarPose = ORIGIN) -> TrialResult:
    """Run one locomotion trial under `model` from `start`: its poses are its
    start plus its scale times its unit path; `trial_outcomes` labels it."""
    substrate = moisture_response(spec.material, spec.moisture,
                                  model.responses.get(spec.material))
    path, (reach, hop, impulse, before) = unit_path(
        spec.mode, model, spec.duration, spec.seed, start.heading, start.time)
    outcome = trial_outcomes(
        Units(np.array([reach]), np.zeros(len(hop), dtype=np.int64), hop,
              impulse, before),
        spec.mode, spec.material, substrate, model.robot)
    displacement, failure = float(outcome.displacement[0]), outcome.failure[0]
    traction = substrate.crawl_traction
    if spec.mode is LocomotionMode.SKIP:
        poses = _skip_poses(path, skip_scale(substrate), int(outcome.stop[0]),
                            start)
    elif failure is FailureMode.EXCAVATION or traction <= 0.0 or len(path) == 1:
        poses = np.array([start])
    else:
        poses = path.copy()
        poses[:, :2] = (start.x, start.y) + traction * path[:, :2]
        # row 0 of the unit path is (0.0, 0.0), and a -0.0 start coordinate
        # plus 0.0 is +0.0: the start is row 0
        poses[0] = start
    end_time = start.time + spec.duration
    if poses[-1, 3] < end_time:
        # the robot holds its last pose until the trial ends
        poses = np.concatenate((poses, [(*poses[-1, :3], end_time)]))
    return TrialResult(trajectory=Trajectory(poses), displacement=displacement,
                       mean_velocity=displacement / spec.duration,
                       failure=failure)


def run_batch(spec: TrialSpec, n_trials: int, seed_base: int,
              model: Model = Model(), units: Units | None = None) -> tuple:
    """Run n_trials with seeds seed_base..seed_base+n-1 on one substrate:
    (outcomes, summary). The summary scores failed trials as zero velocity
    and uses the sample standard deviation. `units` are the batch's, when
    the caller built them with other batches' (`build_units`)."""
    if units is None:
        units = build_units([spec], seed_base, n_trials,
                            model)[spec.mode, spec.duration]
    substrate = moisture_response(spec.material, spec.moisture,
                                  model.responses.get(spec.material))
    outcomes = trial_outcomes(units, spec.mode, spec.material, substrate,
                              model.robot)
    velocities = effective_velocities(outcomes, spec.duration)
    std = (0.0 if n_trials == 1 or velocities.min() == velocities.max()
           else float(np.std(velocities, ddof=1)))
    return outcomes, BatchSummary(
        float(velocities.mean()), std, n_trials,
        sum(f is not FailureMode.NONE for f in outcomes.failure))


def scenario_heterogeneous(specs, model: Model = Model()) -> tuple:
    """Run `specs` back to back, each trial starting at the pose where the
    last one ended: (trajectory, the time at which each spec after the
    first starts)."""
    if not specs:
        raise ValueError("scenario needs at least one segment")
    pose, parts, starts = ORIGIN, [np.array([ORIGIN])], []
    for spec in specs:
        starts.append(pose.time)
        trajectory = run_trial(spec, model, pose).trajectory
        parts.append(trajectory.poses[1:])
        pose = trajectory.end
    return Trajectory(np.concatenate(parts)), starts[1:]
