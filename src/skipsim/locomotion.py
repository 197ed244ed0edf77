"""Per-strike hop model and per-cycle crawl model composing tail strikes,
gait cycles, and substrate response into trials with failure classification."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .gait import (GaitConfig, GaitMode, PlanarPose, Trajectory,
                   crawl_kinematics, nominal_cycle_times)
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
    body_length: float = 0.058  # m
    launch_angle: float = math.pi / 4  # rad
    gravity: float = 9.81  # m/s^2
    pitch_speed_limit: float = 1.5  # m/s; takeoff faster than this on rigid
    # ground tips the body onto its tail

    def __post_init__(self):
        if self.mass <= 0 or self.gravity <= 0 or self.body_length <= 0:
            raise ValueError("mass, gravity and body_length must be positive")
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


ORIGIN = PlanarPose(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class TrialSpec:
    mode: LocomotionMode
    material: Material
    moisture: float = 0.0
    duration: float = 30.0  # s
    seed: int = 0

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")


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


def hop_displacement(impulse: float, params: RobotParams,
                     substrate: SubstrateParams) -> float:
    """Forward distance of one strike-driven hop.

    Takeoff speed is the substrate-scaled impulse over the robot mass; the
    hop covers the ballistic range v0^2*sin(2*alpha)/g. A slipping tail
    transfers nothing.
    """
    if impulse <= 0:
        raise ValueError("impulse must be positive")
    if substrate.tail_slips:
        return 0.0
    v0 = takeoff_speed(impulse, params, substrate)
    return v0 ** 2 * math.sin(2.0 * params.launch_angle) / params.gravity


def takeoff_speed(impulse: float, params: RobotParams,
                  substrate: SubstrateParams) -> float:
    return substrate.skip_efficiency * impulse / params.mass


def _skip_trial(spec, substrate, model, start):
    tail, robot, thresholds = model.tail, model.robot, model.thresholds
    regime = length_regime(tail.free_length, thresholds)
    events = strike_sequence(tail, model.angle_model, regime, spec.duration,
                             spec.seed, thresholds)
    x, y, heading = start.x, start.y, start.heading
    poses = [start]
    for e in events:
        v0 = takeoff_speed(e.impulse, robot, substrate)
        if spec.material is Material.RIGID and v0 > robot.pitch_speed_limit:
            # the strike lifts the forebody; the robot leans on its tail and
            # stops advancing
            poses.append(PlanarPose(x, y, heading, start.time + e.time))
            return poses, FailureMode.PITCH_OVER
        d = hop_displacement(e.impulse, robot, substrate)
        x += d * math.cos(heading)
        y += d * math.sin(heading)
        poses.append(PlanarPose(x, y, heading, start.time + e.time))
    return poses, FailureMode.TAIL_SLIP if substrate.tail_slips else None


def _crawl_trial(spec, substrate, gait, start):
    if substrate.excavates:
        # the fins dig the robot into the bed; no forward motion
        return [start], FailureMode.EXCAVATION
    mode = _GAIT_MODE[spec.mode]
    events = nominal_cycle_times(mode, spec.duration, gait.fin_speed,
                                 gait.dt, gait.encoder)
    stride_eff = gait.stride * substrate.crawl_traction
    if stride_eff <= 0.0 or not events:
        return [start], None
    return crawl_kinematics(events, mode, gait.noise, stride_eff, spec.seed,
                            start).poses, None


def run_trial(spec: TrialSpec, model: Model = Model(),
              start: PlanarPose = ORIGIN) -> TrialResult:
    """Run one locomotion trial under `model` and classify its outcome."""
    response = model.responses.get(spec.material)
    substrate = moisture_response(spec.material, spec.moisture, response)

    if spec.mode is LocomotionMode.SKIP:
        poses, hard = _skip_trial(spec, substrate, model, start)
    else:
        poses, hard = _crawl_trial(spec, substrate, model.gait, start)
    end, end_time = poses[-1], start.time + spec.duration
    if end.time < end_time:
        poses.append(PlanarPose(end.x, end.y, end.heading, end_time))
    trajectory = Trajectory(poses)

    displacement = trajectory.net_displacement()
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
        results.append(run_trial(replace(spec, seed=seed_base + k), model))
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
    poses = [pose]
    switches = []
    for idx, seg in enumerate(segments):
        if idx > 0:
            switches.append(SwitchEvent(time=pose.time, material=seg.material,
                                        mode=seg.mode))
        spec = TrialSpec(mode=seg.mode, material=seg.material,
                         moisture=seg.moisture, duration=seg.duration,
                         seed=seed + idx)
        result = run_trial(spec, model, pose)
        poses.extend(result.trajectory.poses[1:])
        pose = result.trajectory.end
    return Trajectory(poses), switches
