"""Hop model and crawl model composing tail strikes, gait cycles, and
substrate response into trials with failure classification.

The substrate enters a skip or sync/async crawl trial as one scale: a hop
of impulse J covers (eta*J/m)^2*sin(2*alpha)/g, so a skip trial travels
eta^2 times its path at skip efficiency eta = 1, and a crawl trial travels
its crawl traction times its path at traction 1. A trial is that unit path
times its scale, placed at its start pose."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .gait import (MAX_TRIAL_S, ORIGIN, GaitConfig, GaitMode, PlanarPose,
                   Trajectory, accumulate, crawl_kinematics,
                   nominal_cycle_times)
from .springtail import (EngagedAngleModel, RegimeThresholds, TailConfig,
                         length_regime, strike_sequence)
from .stats import FailureMode, classify_trial
from .terrain import Material, SubstrateParams, moisture_response


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
        if self.mass <= 0 or self.gravity <= 0:
            raise ValueError("mass and gravity must be positive")
        if not 0.0 < self.launch_angle < math.pi / 2:
            raise ValueError("launch_angle must lie in (0, pi/2)")
        if self.pitch_speed_limit <= 0:
            raise ValueError("pitch_speed_limit must be positive")


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
        if not 0.0 < self.duration <= MAX_TRIAL_S:
            raise ValueError(f"duration must lie in (0, {MAX_TRIAL_S:g}] s, "
                             f"got {self.duration!r}")


@dataclass
class TrialResult:
    trajectory: Trajectory
    displacement: float  # m, net
    mean_velocity: float  # m/s
    failure: FailureMode

    @property
    def effective_velocity(self) -> float:
        """Velocity with failed trials scored as zero (reporting convention)."""
        return 0.0 if self.failure is not FailureMode.NONE else self.mean_velocity


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


def skip_scale(substrate: SubstrateParams) -> float:
    """What a skip trial's unit path is multiplied by: the squared skip
    efficiency, or 0 when the tail slips and transfers nothing."""
    if substrate.tail_slips:
        return 0.0
    return substrate.skip_efficiency * substrate.skip_efficiency


def takeoff_speed(impulse, params: RobotParams, substrate: SubstrateParams):
    """Takeoff speed of one impulse, or of each of an array of them."""
    return substrate.skip_efficiency * impulse / params.mass


@lru_cache(maxsize=256)
def skip_path(tail: TailConfig, angle_model: EngagedAngleModel,
              thresholds: RegimeThresholds, robot: RobotParams,
              duration: float, seed: int) -> tuple:
    """A skip trial's unit path: (strike times, impulses, reach) as
    read-only arrays, where reach[k] is the forward distance its first k
    hops cover at skip efficiency 1, summed hop by hop.

    Cached: the strikes never depend on the substrate, so every material,
    moisture and calibration step at the same seed and duration scales the
    same path. The key is exactly what `strike_sequence` and the hop read."""
    regime = length_regime(tail.free_length, thresholds)
    events = strike_sequence(tail, angle_model, regime, duration, seed,
                             thresholds)
    times = np.array([e.time for e in events], dtype=float)
    impulses = np.array([e.impulse for e in events], dtype=float)
    reach = accumulate(0.0, hop_displacement(impulses, robot))
    for array in (times, impulses, reach):
        array.setflags(write=False)
    return times, impulses, reach


def _skip_trial(spec, substrate, model, start):
    robot = model.robot
    times, impulses, reach = skip_path(model.tail, model.angle_model,
                                       model.thresholds, robot, spec.duration,
                                       spec.seed)
    hops = len(impulses)
    hard = FailureMode.TAIL_SLIP if substrate.tail_slips else None
    if spec.material is Material.RIGID:
        # a strike this fast lifts the forebody; the robot leans on its tail
        # and stops advancing
        over = np.flatnonzero(takeoff_speed(impulses, robot, substrate)
                              > robot.pitch_speed_limit)
        if over.size:
            hops, hard = int(over[0]), FailureMode.PITCH_OVER
    forward = skip_scale(substrate) * reach[:hops + 1]
    heading = start.heading
    # a pitch-over adds a pose at the over-limit strike, where motion stopped
    poses = np.empty((hops + 1 + (hard is FailureMode.PITCH_OVER), 4))
    poses[:hops + 1, 0] = start.x + forward * math.cos(heading)
    poses[:hops + 1, 1] = start.y + forward * math.sin(heading)
    poses[hops + 1:, :2] = poses[hops, :2]
    poses[:, 2] = heading
    poses[0, 3] = start.time
    poses[1:, 3] = start.time + times[:len(poses) - 1]
    return poses, float(forward[-1]), hard


@lru_cache(maxsize=256)
def crawl_unit_path(mode: GaitMode, duration: float, gait: GaitConfig,
                    seed: int, heading: float, time: float) -> np.ndarray:
    """A sync or async crawl trial's unit path: its poses, read-only, at
    crawl traction 1 from (0, 0) at the start `heading` and `time`.
    Encoder feedback keeps the stride out of the heading, so every
    traction scales this path.

    Cached like `skip_path`: the key is exactly what the path reads, and
    holds no substrate."""
    events = nominal_cycle_times(mode, duration, gait.fin_speed, gait.dt,
                                 gait.encoder)
    return crawl_kinematics(events, mode, gait.noise, gait.stride, seed,
                            PlanarPose(0.0, 0.0, heading, time)).poses


def _crawl_trial(spec, substrate, gait, start):
    if substrate.excavates:
        # the fins dig the robot into the bed; no forward motion
        return np.array([start]), 0.0, FailureMode.EXCAVATION
    traction = substrate.crawl_traction
    path = crawl_unit_path(_GAIT_MODE[spec.mode], spec.duration, gait,
                           spec.seed, start.heading, start.time)
    if traction <= 0.0 or len(path) == 1:
        return np.array([start]), 0.0, None
    poses = path.copy()
    poses[:, :2] = (start.x, start.y) + traction * path[:, :2]
    # the cache keys a -0.0 heading or time as 0.0: the start is row 0
    poses[0] = start
    return poses, traction * math.hypot(*path[-1, :2].tolist()), None


def unit_displacement(spec: TrialSpec, model: Model) -> tuple:
    """(net displacement at scale 1, strongest impulse) of `spec`'s trial
    run to the end: a skip trial that neither slips nor pitches over
    travels `skip_scale` times the displacement, a crawl trial that does
    not excavate its traction times it. The impulse (0.0 for a crawl
    trial) is what decides a pitch-over on rigid ground."""
    if spec.mode is LocomotionMode.SKIP:
        _, impulses, reach = skip_path(model.tail, model.angle_model,
                                       model.thresholds, model.robot,
                                       spec.duration, spec.seed)
        return float(reach[-1]), float(impulses.max(initial=0.0))
    path = crawl_unit_path(_GAIT_MODE[spec.mode], spec.duration, model.gait,
                           spec.seed, ORIGIN.heading, ORIGIN.time)
    return math.hypot(*path[-1, :2].tolist()), 0.0


def run_trial(spec: TrialSpec, model: Model = Model(),
              start: PlanarPose = ORIGIN) -> TrialResult:
    """Run one locomotion trial under `model` and classify its outcome. Its
    net displacement is its scale times its unit path's."""
    substrate = moisture_response(spec.material, spec.moisture,
                                  model.responses.get(spec.material))
    if spec.mode is LocomotionMode.SKIP:
        poses, displacement, hard = _skip_trial(spec, substrate, model, start)
    else:
        poses, displacement, hard = _crawl_trial(spec, substrate, model.gait,
                                                 start)
    end_time = start.time + spec.duration
    if poses[-1, 3] < end_time:
        # the robot holds its last pose until the trial ends
        poses = np.concatenate((poses, [(*poses[-1, :3], end_time)]))
    trajectory = Trajectory(poses)

    velocity = displacement / spec.duration
    failure = classify_trial(displacement, hard)
    return TrialResult(trajectory=trajectory, displacement=displacement,
                       mean_velocity=velocity, failure=failure)


def run_batch(spec: TrialSpec, n_trials: int, seed_base: int,
              model: Model = Model()) -> tuple:
    """Run n_trials with seeds seed_base..seed_base+n-1.

    Returns (results, summary); the summary scores failed trials as zero
    velocity and uses the sample standard deviation.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    results = []
    for k in range(n_trials):
        results.append(run_trial(TrialSpec(spec.mode, spec.material,
                                           spec.moisture, spec.duration,
                                           seed_base + k), model))
    velocities = np.array([r.effective_velocity for r in results])
    if n_trials == 1 or velocities.min() == velocities.max():
        std = 0.0
    else:
        std = float(np.std(velocities, ddof=1))
    summary = BatchSummary(
        mean_velocity=float(velocities.mean()),
        std_velocity=std,
        n_trials=n_trials,
        failures=sum(1 for r in results if r.failure is not FailureMode.NONE),
    )
    return results, summary


@dataclass(frozen=True)
class ScenarioSegment:
    material: Material
    mode: LocomotionMode
    duration: float
    moisture: float = 0.0


@dataclass(frozen=True)
class SwitchEvent:
    time: float
    material: Material
    mode: LocomotionMode


def scenario_heterogeneous(segments, seed: int = 0,
                           model: Model = Model()) -> tuple:
    """Run consecutive segments carrying the pose across boundaries.

    Returns (trajectory, switch_log); one switch event is logged at each
    segment boundary after the first segment.
    """
    if not segments:
        raise ValueError("scenario needs at least one segment")
    pose = ORIGIN
    parts = [np.array([pose])]
    switches = []
    for idx, seg in enumerate(segments):
        if idx > 0:
            switches.append(SwitchEvent(time=pose.time, material=seg.material,
                                        mode=seg.mode))
        spec = TrialSpec(mode=seg.mode, material=seg.material,
                         moisture=seg.moisture, duration=seg.duration,
                         seed=seed + idx)
        result = run_trial(spec, model, pose)
        parts.append(result.trajectory.poses[1:])
        pose = result.trajectory.end
    return Trajectory(np.concatenate(parts)), switches
