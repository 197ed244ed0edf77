"""Per-strike hop model and per-cycle crawl model composing tail strikes,
gait cycles, and substrate response into trials with failure classification."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .gait import (ORIGIN, GaitConfig, GaitMode, PlanarPose, Trajectory,
                   accumulate, crawl_kinematics, nominal_cycle_times)
from .springtail import (EngagedAngleModel, RegimeThresholds, TailConfig,
                         strike_schedule)
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


# Longest trial, in s. A cached strike schedule or crawl draw grows by 16
# bytes per strike or cycle, so this bounds each cache entry.
MAX_TRIAL_S = 3600.0


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


def hop_displacement(impulse, params: RobotParams,
                     substrate: SubstrateParams):
    """Forward distance of one strike-driven hop, or of each hop for an
    array of impulses.

    Takeoff speed is the substrate-scaled impulse over the robot mass; the
    hop covers the ballistic range v0^2*sin(2*alpha)/g. A slipping tail
    transfers nothing.
    """
    impulses = np.asarray(impulse, dtype=float)
    if (impulses <= 0).any():
        raise ValueError("impulse must be positive")
    if substrate.tail_slips:
        distance = np.zeros_like(impulses)
    else:
        v0 = takeoff_speed(impulses, params, substrate)
        # Python's float ** (libm pow): numpy's v**2 is v*v, which differs
        # from it in the last bit for some v
        square = np.array([v ** 2 for v in v0.ravel().tolist()])
        distance = (square.reshape(v0.shape)
                    * math.sin(2.0 * params.launch_angle) / params.gravity)
    return distance if distance.ndim else float(distance)


def takeoff_speed(impulse, params: RobotParams, substrate: SubstrateParams):
    """Takeoff speed of one impulse, or of each of an array of them."""
    return substrate.skip_efficiency * impulse / params.mass


def _skip_trial(spec, substrate, model, start):
    robot = model.robot
    times, impulses = strike_schedule(model.tail, model.angle_model,
                                      model.thresholds, spec.duration,
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
    distance = hop_displacement(impulses[:hops], robot, substrate)
    heading = start.heading
    # a pitch-over adds a pose at the over-limit strike, where motion stopped
    poses = np.empty((hops + 1 + (hard is FailureMode.PITCH_OVER), 4))
    poses[:hops + 1, :2] = accumulate((start.x, start.y), distance[:, None]
                                      * (math.cos(heading), math.sin(heading)))
    poses[hops + 1:, :2] = poses[hops, :2]
    poses[:, 2] = heading
    poses[0, 3] = start.time
    poses[1:, 3] = start.time + times[:len(poses) - 1]
    return poses, hard


def _crawl_trial(spec, substrate, gait, start):
    if substrate.excavates:
        # the fins dig the robot into the bed; no forward motion
        return np.array([start]), FailureMode.EXCAVATION
    mode = _GAIT_MODE[spec.mode]
    events = nominal_cycle_times(mode, spec.duration, gait.fin_speed,
                                 gait.dt, gait.encoder)
    stride_eff = gait.stride * substrate.crawl_traction
    if stride_eff <= 0.0 or not events:
        return np.array([start]), None
    return crawl_kinematics(events, mode, gait.noise, stride_eff, spec.seed,
                            start).poses, None


def trial_substrate(mode: LocomotionMode,
                    substrate: SubstrateParams) -> SubstrateParams:
    """The fields of `substrate` a trial in `mode` reads, the other gait's
    zeroed: a skip trial reads the skip efficiency and tail slip, a crawl
    trial the crawl traction and excavation. Trials of one mode, material,
    duration and seed under substrates with equal projections are equal."""
    if mode is LocomotionMode.SKIP:
        return SubstrateParams(substrate.skip_efficiency, 0.0,
                               substrate.tail_slips, False)
    return SubstrateParams(0.0, substrate.crawl_traction, False,
                           substrate.excavates)


def run_trial(spec: TrialSpec, model: Model = Model(),
              start: PlanarPose = ORIGIN) -> TrialResult:
    """Run one locomotion trial under `model` and classify its outcome."""
    response = model.responses.get(spec.material)
    substrate = trial_substrate(spec.mode, moisture_response(
        spec.material, spec.moisture, response))

    if spec.mode is LocomotionMode.SKIP:
        poses, hard = _skip_trial(spec, substrate, model, start)
    else:
        poses, hard = _crawl_trial(spec, substrate, model.gait, start)
    end_time = start.time + spec.duration
    if poses[-1, 3] < end_time:
        # the robot holds its last pose until the trial ends
        poses = np.concatenate((poses, [(*poses[-1, :3], end_time)]))
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
