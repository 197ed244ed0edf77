"""Fin gait state machines with hall-effect encoder feedback, plus the planar
crawl kinematics used for straight-line drift studies.

Two closed-loop gaits are provided: a synchronous gait where both fins rotate
together and every magnet passage is cross-validated between sides, and an
asynchronous gait where the fins alternate, handing over at each encoder
detection. An open-loop controller (no feedback, dead-reckoned cycles) serves
as the baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .fileio import read_csv_table, write_csv

TWO_PI = 2.0 * math.pi


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


class GaitMode(Enum):
    SYNC = "sync"
    ASYNC = "async"
    OPEN_LOOP = "open_loop"


def wrap_angle(angle: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    return angle % TWO_PI


def angle_distance(a: float, b: float) -> float:
    """Smallest absolute separation between two angles (rad)."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


@dataclass
class FinState:
    """One fin: rotation angle in [0, 2*pi), commanded speed (rad/s, >= 0)."""

    angle: float = 0.0
    angular_speed: float = 0.0
    side: Side = Side.LEFT

    def __post_init__(self):
        if self.angular_speed < 0:
            raise ValueError("fin angular_speed must be >= 0")
        self.angle = wrap_angle(self.angle)


@dataclass(frozen=True)
class EncoderModel:
    """Magnet/hall-sensor pair per fin: detection is true whenever the fin
    angle lies within detection_window of any magnet angle."""

    magnet_angles: tuple = (0.0, math.pi)
    detection_window: float = 0.15  # rad, half-width around each magnet

    def __post_init__(self):
        if not self.magnet_angles:
            raise ValueError("encoder needs at least one magnet")
        if self.detection_window <= 0:
            raise ValueError("detection_window must be positive")
        angles = sorted(wrap_angle(a) for a in self.magnet_angles)
        # detection windows must not overlap, including across the wrap point
        for i, a in enumerate(angles):
            b = angles[(i + 1) % len(angles)]
            gap = (b - a) % TWO_PI if len(angles) > 1 else TWO_PI
            if gap <= 2.0 * self.detection_window:
                raise ValueError("magnet detection windows overlap")
        object.__setattr__(self, "magnet_angles", tuple(angles))

    def detects(self, angle: float) -> bool:
        angle = wrap_angle(angle)
        return any(
            angle_distance(angle, m) <= self.detection_window
            for m in self.magnet_angles
        )


def encoder_read(fin: FinState, model: EncoderModel) -> bool:
    """Binary hall-sensor output for the fin's current angle."""
    return model.detects(fin.angle)


class _FinTracker:
    """Per-fin bookkeeping: rising-edge detection and unwrapped rotation."""

    def __init__(self, fin: FinState, encoder: EncoderModel):
        self.fin = fin
        self.encoder = encoder
        self.nominal_speed = fin.angular_speed
        self.in_window = encoder.detects(fin.angle)
        self.edges = 0  # rising edges since the last completed cycle
        self.total_angle = 0.0  # unwrapped rotation, rad
        self.pause_time = 0.0

    def advance(self, dt: float) -> bool:
        """Integrate one step; returns True on a rising encoder edge."""
        if self.fin.angular_speed <= 0.0:
            return False
        step = self.fin.angular_speed * dt
        self.fin.angle = wrap_angle(self.fin.angle + step)
        self.total_angle += step
        was_in = self.in_window
        self.in_window = self.encoder.detects(self.fin.angle)
        if self.in_window and not was_in:
            self.edges += 1
            return True
        return False


def _check_step_resolution(speed: float, dt: float, encoder: EncoderModel):
    # a coarser step could sweep straight across a detection window
    if speed * dt >= encoder.detection_window:
        raise ValueError(
            "dt too coarse: angular step per tick must stay below the "
            "encoder detection window"
        )


class _FinPair:
    """Two fins, each watched by its own encoder and stepped finely enough
    that no magnet passage is missed; a subclass's `step` says when a gait
    cycle completes."""

    def __init__(self, left_speed: float = TWO_PI, right_speed: float | None = None,
                 encoder: EncoderModel | None = None, dt_hint: float = 0.01):
        if right_speed is None:
            right_speed = left_speed
        self.encoder = encoder or EncoderModel()
        _check_step_resolution(max(left_speed, right_speed), dt_hint, self.encoder)
        self.left = FinState(0.0, left_speed, Side.LEFT)
        self.right = FinState(0.0, right_speed, Side.RIGHT)
        self._lt = _FinTracker(self.left, self.encoder)
        self._rt = _FinTracker(self.right, self.encoder)
        self.edges_per_cycle = len(self.encoder.magnet_angles)
        self.time = 0.0


class SyncGait(_FinPair):
    """Both fins rotate together; the fin that reaches its magnet first
    pauses until the other side's detection validates the passage. A cycle
    completes once both fins have validated a full revolution."""

    def step(self, dt: float) -> bool:
        if dt <= 0:
            raise ValueError("dt must be positive")
        lt, rt = self._lt, self._rt
        # leading fin waits for the lagging side's detection
        left_waits = lt.edges > rt.edges
        right_waits = rt.edges > lt.edges
        self.left.angular_speed = 0.0 if left_waits else lt.nominal_speed
        self.right.angular_speed = 0.0 if right_waits else rt.nominal_speed
        if left_waits:
            lt.pause_time += dt
        if right_waits:
            rt.pause_time += dt
        lt.advance(dt)
        rt.advance(dt)
        self.time += dt
        if lt.edges >= self.edges_per_cycle and rt.edges >= self.edges_per_cycle:
            lt.edges -= self.edges_per_cycle
            rt.edges -= self.edges_per_cycle
            return True
        return False

    def angle_error(self) -> float:
        return angle_distance(self.left.angle, self.right.angle)

    @property
    def pause_time(self) -> float:
        return self._lt.pause_time + self._rt.pause_time


class AsyncGait(_FinPair):
    """Fins alternate: only the scheduled fin rotates, handing over at each
    of its encoder detections. A cycle completes once both fins have
    accumulated a full revolution of validated detections."""

    active = Side.LEFT  # the fin scheduled to move

    def step(self, dt: float) -> bool:
        if dt <= 0:
            raise ValueError("dt must be positive")
        mover = self._lt if self.active is Side.LEFT else self._rt
        idler = self._rt if self.active is Side.LEFT else self._lt
        # mutual exclusion: only the scheduled fin may move
        idler.fin.angular_speed = 0.0
        mover.fin.angular_speed = mover.nominal_speed
        rising = mover.advance(dt)
        self.time += dt
        cycle = False
        if rising:
            self.active = Side.RIGHT if self.active is Side.LEFT else Side.LEFT
            if (self._lt.edges >= self.edges_per_cycle
                    and self._rt.edges >= self.edges_per_cycle):
                self._lt.edges -= self.edges_per_cycle
                self._rt.edges -= self.edges_per_cycle
                cycle = True
        return cycle


class OpenLoopGait(_FinPair):
    """No encoder feedback: both fins free-run and cycles are dead-reckoned
    from the left fin's commanded rotation."""

    _cycles_marked = 0

    def step(self, dt: float) -> bool:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._lt.advance(dt)
        self._rt.advance(dt)
        self.time += dt
        if self._lt.total_angle >= (self._cycles_marked + 1) * TWO_PI:
            self._cycles_marked += 1
            return True
        return False

    def phase_error(self) -> float:
        """Unwrapped rotation mismatch between the fins (rad)."""
        return abs(self._lt.total_angle - self._rt.total_angle)


def make_controller(mode: GaitMode, fin_speed: float = TWO_PI,
                    encoder: EncoderModel | None = None, dt: float = 0.01):
    gait = {GaitMode.SYNC: SyncGait, GaitMode.ASYNC: AsyncGait,
            GaitMode.OPEN_LOOP: OpenLoopGait}[mode]
    return gait(fin_speed, encoder=encoder, dt_hint=dt)


def run_cycles(controller, duration: float, dt: float = 0.01) -> list:
    """Step a controller for `duration` seconds, returning cycle-complete times."""
    times = []
    n_steps = int(round(duration / dt))
    for _ in range(n_steps):
        if controller.step(dt):
            times.append(controller.time)
    return times


@lru_cache(maxsize=64)
def nominal_cycle_times(mode: GaitMode, duration: float, fin_speed: float = TWO_PI,
                        dt: float = 0.01, encoder: EncoderModel | None = None) -> tuple:
    """Cycle-complete times for symmetric nominal fin speeds (cached; the
    schedule is identical for every trial at the same settings)."""
    controller = make_controller(mode, fin_speed, encoder, dt)
    return tuple(run_cycles(controller, duration, dt))


@dataclass(frozen=True)
class PlanarPose:
    x: float
    y: float
    heading: float
    time: float


@dataclass
class Trajectory:
    """Time-stamped planar pose sequence."""

    poses: list

    def __post_init__(self):
        for a, b in zip(self.poses, self.poses[1:]):
            if b.time < a.time:
                raise ValueError("trajectory timestamps must be non-decreasing")

    def __len__(self):
        return len(self.poses)

    @property
    def start(self) -> PlanarPose:
        return self.poses[0]

    @property
    def end(self) -> PlanarPose:
        return self.poses[-1]

    def net_displacement(self) -> float:
        return math.hypot(self.end.x - self.start.x, self.end.y - self.start.y)

    def path_length(self) -> float:
        return sum(
            math.hypot(b.x - a.x, b.y - a.y)
            for a, b in zip(self.poses, self.poses[1:])
        )

    def duration(self) -> float:
        return self.end.time - self.start.time

    COLUMNS = ("time_s", "x_m", "y_m", "heading_rad")

    def write_csv(self, path):
        write_csv(path, self.COLUMNS,
                  ((p.time, p.x, p.y, p.heading) for p in self.poses))

    @classmethod
    def read_csv(cls, path) -> "Trajectory":
        table = read_csv_table(path, cls.COLUMNS, "trajectory")
        return cls([PlanarPose(x=x, y=y, heading=heading, time=t)
                    for t, x, y, heading in table.tolist()])


@dataclass(frozen=True)
class AsymmetryNoise:
    """Stride/heading asymmetry model for crawl kinematics.

    Each trial draws one persistent left/right stride gain split (magnitude
    uniform in gain_split, random sign; per-side gains have mean 1.0). The
    split steers the robot only in open-loop operation; encoder validation
    re-centers the fins every cycle, so closed-loop runs keep only the
    per-cycle zero-mean jitter. Magnitudes are fitted, not measured.
    """

    gain_split: tuple = (0.002, 0.0065)
    stride_jitter_std: float = 0.05
    heading_jitter_std: float = 0.0005  # rad per cycle
    track_width: float = 0.06  # m; differential stride to heading coupling

    def __post_init__(self):
        lo, hi = self.gain_split
        if lo < 0 or hi < lo:
            raise ValueError("gain_split must satisfy 0 <= lo <= hi")
        if hi >= 2.0:
            raise ValueError("gain split too large: per-side gains must stay positive")
        if self.stride_jitter_std < 0 or self.heading_jitter_std < 0:
            raise ValueError("noise magnitudes must be >= 0")
        if self.track_width <= 0:
            raise ValueError("track_width must be positive")

    @classmethod
    def zero(cls) -> "AsymmetryNoise":
        return cls(gain_split=(0.0, 0.0), stride_jitter_std=0.0,
                   heading_jitter_std=0.0)


@dataclass(frozen=True)
class GaitConfig:
    """Crawl-side configuration shared by trials and drift runs."""

    fin_speed: float = TWO_PI  # rad/s (one revolution per second)
    encoder: EncoderModel = field(default_factory=EncoderModel)
    noise: AsymmetryNoise = field(default_factory=AsymmetryNoise)
    stride: float = 0.033  # m per completed gait cycle (fitted)
    dt: float = 0.01  # s, controller integration step


def crawl_kinematics(cycle_times, mode: GaitMode, noise: AsymmetryNoise,
                     stride: float, seed: int,
                     start: PlanarPose | None = None) -> Trajectory:
    """Convert cycle-complete events into a planar trajectory.

    Every completed cycle advances the pose by one (noisy) stride along the
    current heading. With encoder feedback (sync/async) the persistent gain
    split cannot accumulate, so only per-cycle jitter perturbs the heading;
    open-loop runs additionally turn by the differential-stride bias every
    cycle.
    """
    if stride <= 0:
        raise ValueError("stride must be positive")
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


def drift_trial(mode: GaitMode, gait: GaitConfig | None = None, seed: int = 0,
                distance: float = 1.0) -> Trajectory:
    """Simulate one straight-line run until the forward progress along the
    initial heading reaches `distance` (m)."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    gait = gait or GaitConfig()
    n_cycles = int(math.ceil(distance / gait.stride)) + 3
    period = TWO_PI / gait.fin_speed * (2.0 if mode is GaitMode.ASYNC else 1.0)
    duration = (n_cycles + 2) * period
    events = nominal_cycle_times(mode, duration, gait.fin_speed, gait.dt,
                                 gait.encoder)
    traj = crawl_kinematics(events, mode, gait.noise, gait.stride, seed)
    kept = [traj.poses[0]]
    for pose in traj.poses[1:]:
        kept.append(pose)
        if pose.x - traj.poses[0].x >= distance:
            break
    return Trajectory(kept)
