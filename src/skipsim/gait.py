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
from typing import NamedTuple

import numpy as np

from .fileio import read_csv_table, write_csv

TWO_PI = 2.0 * math.pi

# Longest trial, in s. A trial cache entry grows with the strikes or
# cycles of one trial, so this bounds each entry.
MAX_TRIAL_S = 3600.0


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


class Fin:
    """One fin and its hall-effect sensor: the angle in [0, 2*pi), the
    commanded and nominal speeds (rad/s), whether the sensor sees a magnet,
    rising edges since the last completed cycle, the unwrapped rotation and
    the time spent paused."""

    def __init__(self, speed: float, encoder: EncoderModel):
        if speed < 0:
            raise ValueError("fin angular_speed must be >= 0")
        self.encoder = encoder
        self.angle = 0.0
        self.angular_speed = self.nominal_speed = speed
        self.in_window = encoder.detects(0.0)
        self.edges = 0
        self.total_angle = 0.0
        self.pause_time = 0.0

    def advance(self, dt: float) -> bool:
        """Turn for one tick; returns True on a rising encoder edge."""
        if self.angular_speed <= 0.0:
            return False
        step = self.angular_speed * dt
        self.angle = wrap_angle(self.angle + step)
        self.total_angle += step
        was_in = self.in_window
        self.in_window = self.encoder.detects(self.angle)
        if self.in_window and not was_in:
            self.edges += 1
            return True
        return False


class _FinPair:
    """Two fins, each watched by its own encoder and stepped finely enough
    that no magnet passage is missed. A gait says how the fins move in one
    tick (`_move`, by default both free-run) and may replace the rule that
    a cycle completes once both fins have validated a revolution."""

    def __init__(self, left_speed: float = TWO_PI, right_speed: float | None = None,
                 encoder: EncoderModel | None = None, dt_hint: float = 0.01):
        if right_speed is None:
            right_speed = left_speed
        self.encoder = encoder or EncoderModel()
        # a coarser step could sweep straight across a detection window
        if max(left_speed, right_speed) * dt_hint >= self.encoder.detection_window:
            raise ValueError("dt too coarse: angular step per tick must stay "
                             "below the encoder detection window")
        self.left = Fin(left_speed, self.encoder)
        self.right = Fin(right_speed, self.encoder)
        self.edges_per_cycle = len(self.encoder.magnet_angles)
        self.time = 0.0

    def step(self, dt: float) -> bool:
        """Advance one tick; returns True when it completes a gait cycle."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._move(dt)
        self.time += dt
        return self._cycle_complete()

    def _move(self, dt: float):
        self.left.advance(dt)
        self.right.advance(dt)

    def _cycle_complete(self) -> bool:
        n = self.edges_per_cycle
        if self.left.edges >= n and self.right.edges >= n:
            self.left.edges -= n
            self.right.edges -= n
            return True
        return False


class SyncGait(_FinPair):
    """Both fins rotate together; the fin that reaches its magnet first
    pauses until the other side's detection validates the passage."""

    def _move(self, dt: float):
        # the leading fin waits for the lagging side's detection
        lead = self.left.edges - self.right.edges
        for fin, waits in ((self.left, lead > 0), (self.right, lead < 0)):
            fin.angular_speed = 0.0 if waits else fin.nominal_speed
            if waits:
                fin.pause_time += dt
            fin.advance(dt)

    def angle_error(self) -> float:
        return angle_distance(self.left.angle, self.right.angle)

    @property
    def pause_time(self) -> float:
        return self.left.pause_time + self.right.pause_time


class AsyncGait(_FinPair):
    """Fins alternate: only the `active` fin rotates, handing over at each
    of its encoder detections."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.active = self.left

    def _move(self, dt: float):
        idler = self.right if self.active is self.left else self.left
        # mutual exclusion: only the scheduled fin may move
        idler.angular_speed = 0.0
        self.active.angular_speed = self.active.nominal_speed
        if self.active.advance(dt):
            self.active = idler


class OpenLoopGait(_FinPair):
    """No encoder feedback: both fins free-run and cycles are dead-reckoned
    from the left fin's commanded rotation."""

    _cycles_marked = 0

    def _cycle_complete(self) -> bool:
        if self.left.total_angle >= (self._cycles_marked + 1) * TWO_PI:
            self._cycles_marked += 1
            return True
        return False

    def phase_error(self) -> float:
        """Unwrapped rotation mismatch between the fins (rad)."""
        return abs(self.left.total_angle - self.right.total_angle)


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
    gait = {GaitMode.SYNC: SyncGait, GaitMode.ASYNC: AsyncGait,
            GaitMode.OPEN_LOOP: OpenLoopGait}[mode]
    return tuple(run_cycles(gait(fin_speed, encoder=encoder, dt_hint=dt),
                            duration, dt))


class PlanarPose(NamedTuple):
    x: float
    y: float
    heading: float
    time: float


ORIGIN = PlanarPose(0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped planar poses: a read-only (n, 4) float array whose rows
    are (x, y, heading, time), PlanarPose's field order. Built from such
    rows or from a list of PlanarPose."""

    poses: np.ndarray

    def __post_init__(self):
        poses = np.array(self.poses, dtype=float).reshape(len(self.poses), 4)
        if (poses[1:, 3] < poses[:-1, 3]).any():
            raise ValueError("trajectory timestamps must be non-decreasing")
        poses.setflags(write=False)
        object.__setattr__(self, "poses", poses)

    def __len__(self):
        return len(self.poses)

    @property
    def start(self) -> PlanarPose:
        return PlanarPose(*self.poses[0].tolist())

    @property
    def end(self) -> PlanarPose:
        return PlanarPose(*self.poses[-1].tolist())

    def net_displacement(self) -> float:
        start, end = self.start, self.end
        return math.hypot(end.x - start.x, end.y - start.y)

    def path_length(self) -> float:
        steps = np.diff(self.poses[:, :2], axis=0)
        return float(np.hypot(steps[:, 0], steps[:, 1]).sum())

    def duration(self) -> float:
        return self.end.time - self.start.time

    COLUMNS = ("time_s", "x_m", "y_m", "heading_rad")

    def write_csv(self, path):
        write_csv(path, self.COLUMNS, self.poses[:, [3, 0, 1, 2]].tolist())

    @classmethod
    def read_csv(cls, path) -> "Trajectory":
        table = read_csv_table(path, cls.COLUMNS, "trajectory")
        return cls(table[:, [1, 2, 3, 0]])


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

    def __post_init__(self):
        for name in ("fin_speed", "stride", "dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"gait {name} must be positive")


def accumulate(origin, steps) -> np.ndarray:
    """[origin, origin + steps[0], ...], summed one step at a time as a loop
    of `+=` would (np.add.accumulate is sequential, unlike np.sum). A pair
    `origin` sums the two columns of `steps` apart and gives (n + 1, 2)."""
    terms = np.empty((len(steps) + 1,) + np.shape(origin))
    terms[0] = origin
    terms[1:] = steps
    return np.add.accumulate(terms)


@lru_cache(maxsize=256)
def crawl_draws(gain_split: tuple, heading_jitter_std: float,
                stride_jitter_std: float, seed: int, n_cycles: int) -> tuple:
    """The random part of a crawl trial: (gain_left, gain_right, heading
    jitter per cycle, stride factor per cycle), the arrays read-only.

    Cached: the draws never depend on the substrate or the stride, so every
    material, moisture and calibration step at the same seed and cycle
    count reuses them. The key is exactly the noise fields drawn from. The
    stream is the model's: the split's sign and magnitude, then per cycle
    the heading jitter and the stride jitter, each drawn only if its std
    is positive. A jitter not drawn is a heading step of 0.0 and a stride
    factor of 1.0, which leave every pose unchanged."""
    rng = np.random.default_rng(seed)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    lo, hi = gain_split
    split = sign * (rng.uniform(lo, hi) if hi > lo else lo)
    drawn = [std for std in (heading_jitter_std, stride_jitter_std)
             if std > 0.0]
    jitter = rng.normal(0.0, drawn, size=(n_cycles, len(drawn)))
    turns = np.zeros(n_cycles)
    if heading_jitter_std > 0.0:
        turns = jitter[:, 0].copy()
    factors = np.ones(n_cycles)
    if stride_jitter_std > 0.0:
        factors = 1.0 + jitter[:, -1]
        factors = np.where(factors > 0.0, factors, 0.0)  # max(0.0, factor)
    turns.setflags(write=False)
    factors.setflags(write=False)
    return 1.0 + split / 2.0, 1.0 - split / 2.0, turns, factors


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
    gain_left, gain_right, turns, factors = crawl_draws(
        noise.gain_split, noise.heading_jitter_std, noise.stride_jitter_std,
        seed, len(cycle_times))
    turn_bias = 0.0
    if mode is GaitMode.OPEN_LOOP:
        turn_bias = stride * (gain_left - gain_right) / noise.track_width

    if start is None:
        start = ORIGIN
    poses = np.empty((len(turns) + 1, 4))
    # each cycle adds its jitter to the heading, then the turn bias
    heading_steps = np.empty(2 * len(turns))
    heading_steps[0::2] = turns
    heading_steps[1::2] = turn_bias
    poses[:, 2] = accumulate(start.heading, heading_steps)[0::2]
    steps = stride * (gain_left + gain_right) / 2.0 * factors
    directions = np.array([(math.cos(h), math.sin(h))
                           for h in poses[1:, 2].tolist()])
    poses[:, :2] = accumulate((start.x, start.y),
                              steps[:, None] * directions.reshape(-1, 2))
    poses[0, 3] = start.time
    poses[1:, 3] = start.time + np.asarray(cycle_times, dtype=float)
    return Trajectory(poses)


def drift_duration(mode: GaitMode, gait: GaitConfig, distance: float) -> float:
    """How long `drift_trial` runs the gait to cover `distance` (m): three
    cycles more than the distance takes, plus two periods of slack. A
    duration over MAX_TRIAL_S is an error."""
    if not distance > 0:
        raise ValueError("distance must be positive")
    period = TWO_PI / gait.fin_speed * (2.0 if mode is GaitMode.ASYNC else 1.0)
    # capping the stride count keeps ceil() finite; a capped count already
    # runs over the limit
    strides = min(distance / gait.stride, MAX_TRIAL_S / period)
    duration = (int(math.ceil(strides)) + 5) * period
    if duration > MAX_TRIAL_S:
        raise ValueError(f"a {mode.value} drift over {distance:g} m would take "
                         f"{duration:g} s, over the {MAX_TRIAL_S:g} s limit")
    return duration


def drift_trial(mode: GaitMode, gait: GaitConfig | None = None, seed: int = 0,
                distance: float = 1.0) -> Trajectory:
    """Simulate one straight-line run until the forward progress along the
    initial heading reaches `distance` (m)."""
    gait = gait or GaitConfig()
    duration = drift_duration(mode, gait, distance)
    events = nominal_cycle_times(mode, duration, gait.fin_speed, gait.dt,
                                 gait.encoder)
    traj = crawl_kinematics(events, mode, gait.noise, gait.stride, seed)
    xs = traj.poses[:, 0]
    # stop at the first pose that has gone `distance` along the x axis
    reached = np.flatnonzero(xs[1:] - xs[0] >= distance)
    return Trajectory(traj.poses[:reached[0] + 2]) if reached.size else traj
