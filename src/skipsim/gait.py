"""Fin gait schedules with hall-effect encoder feedback, plus the planar
crawl kinematics used for straight-line drift studies.

Two closed-loop gaits are provided: a synchronous gait where both fins rotate
together and every magnet passage is cross-validated between sides, and an
asynchronous gait where the fins alternate, handing over at each encoder
detection. An open-loop gait (no feedback, dead-reckoned cycles) serves as
the baseline. Each gait's schedule follows in closed form from the ticks at
which each fin's sensor rises (`run_cycles`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import FieldError
from .fileio import array_rows, read_csv_table, write_csv

TWO_PI = 2.0 * math.pi

# Longest trial, in s: it bounds the one unit path a batch holds at a time
MAX_TRIAL_S = 3600.0
# Fastest fin, in rad/s: 2^16 revolutions in the longest trial, as many as
# springtail.MAX_STRIKES grants the tail, so a crawl path holds at most
# 2^16 cycles (2 MB of poses) and a cached schedule as many cycle times
MAX_FIN_SPEED = TWO_PI * 2 ** 16 / MAX_TRIAL_S
# Most poses one batch of drift trials holds (32 bytes each)
DRIFT_CHUNK_POSES = 1 << 13


class GaitMode(Enum):
    SYNC = "sync"
    ASYNC = "async"
    OPEN_LOOP = "open_loop"


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
        angles = sorted(a % TWO_PI for a in self.magnet_angles)
        # detection windows must not overlap, including across the wrap point
        for i, a in enumerate(angles):
            b = angles[(i + 1) % len(angles)]
            gap = (b - a) % TWO_PI if len(angles) > 1 else TWO_PI
            if gap <= 2.0 * self.detection_window:
                raise ValueError("magnet detection windows overlap")
        object.__setattr__(self, "magnet_angles", tuple(angles))

    def detects(self, angle):
        """Whether the sensor sees a magnet at `angle` (rad), or at each of
        an array of angles: the angle, wrapped to [0, 2*pi), lies within
        detection_window of a magnet the short way round."""
        angles = np.asarray(angle, dtype=float) % TWO_PI
        seen = np.zeros(angles.shape, dtype=bool)
        for magnet in self.magnet_angles:
            # angle and magnet lie in [0, 2*pi], so their distance does too
            d = np.abs(angles - magnet)
            seen |= np.minimum(d, TWO_PI - d) <= self.detection_window
        return seen if seen.ndim else bool(seen)


# Most counts a fin's sensor is planned over in one numpy pass
CHUNK_TICKS = 1 << 16
# Most controller ticks in one schedule (`run_cycles`). A schedule lasts at
# most MAX_TRIAL_S, so a gait dt below MAX_TRIAL_S / MAX_TICKS is refused.
MAX_TICKS = 1 << 22


def schedule_ticks(duration: float, dt: float) -> int:
    """Controller ticks in `duration` seconds, round(duration / dt); more
    than MAX_TICKS is an error."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    ticks = duration / dt
    if not ticks <= MAX_TICKS:
        raise ValueError(f"a {duration:g} s schedule at dt {dt:g} s would "
                         f"take {ticks:g} controller ticks, over the "
                         f"{MAX_TICKS} limit")
    return int(round(ticks))


def _rises(step: float, encoder: EncoderModel, ticks: int) -> np.ndarray:
    """The counts, 1 to `ticks`, at which a fin turning `step` rad a tick
    sees its sensor rise: it detects a magnet at angle count * step and did
    not at the count before. Planned CHUNK_TICKS counts at a time; a fin
    that does not turn never rises."""
    parts = [np.empty(0, dtype=np.int64)]
    for first in range(0, ticks if step > 0.0 else 0, CHUNK_TICKS):
        counts = np.arange(first, min(first + CHUNK_TICKS, ticks) + 1)
        seen = encoder.detects(counts * step)
        parts.append(counts[1:][seen[1:] & ~seen[:-1]])
    return np.concatenate(parts)


def run_cycles(mode: GaitMode, duration: float, dt: float,
               left_speed: float = TWO_PI, right_speed: float | None = None,
               encoder: EncoderModel | None = None) -> list:
    """Cycle-complete times of a gait run for `duration` s in ticks of
    `dt`, its fins starting at angle 0 and turning at constant speeds
    (rad/s; the right fin at the left's unless given) when the gait lets
    them. With l_j and r_j the counts of the left and right fins' j-th
    sensor rises (`_rises`), each rule in closed form:

    - sync: the fin that reaches its magnet first waits for the other, so
      both fins' j-th edges complete at tick
      T_j = T_(j-1) + max(l_j - l_(j-1), r_j - r_(j-1));
    - async: the fins take turns from rise to rise, the left first, so the
      right fin's j-th edge comes at tick l_j + r_j;
    - both complete a cycle at every n-th such edge, n the magnets;
    - open loop: cycle k completes at the first tick t whose left fin
      angle t * (left_speed * dt) reaches k * 2 pi.

    A cycle's time is its tick times dt. A schedule over MAX_TICKS ticks
    or a step that could cross a detection window is refused."""
    ticks = schedule_ticks(duration, dt)
    right_speed = left_speed if right_speed is None else right_speed
    encoder = encoder or EncoderModel()
    if not (left_speed >= 0 and right_speed >= 0):
        raise ValueError("fin speeds must be >= 0")
    # a coarser step could sweep straight across a detection window
    if max(left_speed, right_speed) * dt >= encoder.detection_window:
        raise ValueError("dt too coarse: angular step per tick must stay "
                         "below the encoder detection window")
    step = left_speed * dt
    if mode is GaitMode.OPEN_LOOP:
        if not step > 0.0:
            return []
        marks = np.arange(1, int(ticks * step / TWO_PI) + 2) * TWO_PI
        # the quotient's ceiling can be a tick off; clip it past the end
        done = np.ceil(np.minimum(marks / step, ticks + 1)).astype(np.int64)
        done -= (done - 1) * step >= marks
        done += done * step < marks
    else:
        left, right = (_rises(s, encoder, ticks)
                       for s in (step, right_speed * dt))
        edges = min(len(left), len(right))
        left, right = left[:edges], right[:edges]
        if mode is GaitMode.SYNC:
            joint = np.cumsum(np.maximum(np.diff(left, prepend=0),
                                         np.diff(right, prepend=0)))
        else:
            joint = left + right
        n = len(encoder.magnet_angles)
        done = joint[n - 1::n]
    return (done[done <= ticks] * dt).tolist()


@lru_cache(maxsize=64)
def nominal_cycle_times(mode: GaitMode, duration: float, fin_speed: float = TWO_PI,
                        dt: float = 0.01, encoder: EncoderModel | None = None) -> tuple:
    """Cycle-complete times for symmetric nominal fin speeds (cached; the
    schedule is identical for every trial at the same settings)."""
    return tuple(run_cycles(mode, duration, dt, fin_speed, encoder=encoder))


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

    def duration(self) -> float:
        return self.end.time - self.start.time

    COLUMNS = ("time_s", "x_m", "y_m", "heading_rad")

    def write_csv(self, path):
        write_csv(path, self.COLUMNS, array_rows(
            len(self.poses),
            lambda start, stop: self.poses[start:stop, [3, 0, 1, 2]].T))

    @classmethod
    def read_csv(cls, path) -> "Trajectory":
        table = read_csv_table(path, cls.COLUMNS, "trajectory")
        if len(table) < 2:
            raise ValueError("trajectory CSV needs at least two poses")
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
        if not 0 < self.fin_speed <= MAX_FIN_SPEED:
            raise FieldError("{fin_speed} must lie in "
                             f"(0, {MAX_FIN_SPEED:g}] rad/s")
        for name in ("stride", "dt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"gait {name} must be positive")
        if MAX_TRIAL_S / self.dt > MAX_TICKS:
            raise ValueError(f"gait dt must be at least "
                             f"{MAX_TRIAL_S / MAX_TICKS:g} s: a "
                             f"{MAX_TRIAL_S:g} s schedule may take at most "
                             f"{MAX_TICKS} controller ticks")
        # a coarser step could sweep straight across a detection window
        if self.fin_speed * self.dt >= self.encoder.detection_window:
            raise ValueError("gait dt too coarse: fin_speed * dt must stay "
                             "below the encoder detection window")


def crawl_kinematics(cycle_times, mode: GaitMode, noise: AsymmetryNoise,
                     stride: float, seeds,
                     start: PlanarPose | None = None) -> np.ndarray:
    """Convert cycle-complete events into one planar trajectory per seed:
    an (len(seeds), len(cycle_times) + 1, 4) array of poses.

    Every completed cycle advances the pose by one (noisy) stride along the
    current heading. With encoder feedback (sync/async) the persistent gain
    split cannot accumulate, so only per-cycle jitter perturbs the heading;
    open-loop runs additionally turn by the differential-stride bias every
    cycle. Poses are summed cycle by cycle, as a loop of `+=` would
    (np.add.accumulate is sequential, unlike np.sum)."""
    if stride <= 0:
        raise ValueError("stride must be positive")
    n_seeds, n_cycles = len(seeds), len(cycle_times)
    lo, hi = noise.gain_split
    stds = np.array([noise.heading_jitter_std, noise.stride_jitter_std])
    drawn = stds > 0.0
    splits, jitter = np.empty(n_seeds), np.zeros((n_seeds, n_cycles, 2))
    # each seed draws the split's sign and magnitude, then per cycle the
    # heading jitter and the stride jitter, each only if its std is
    # positive; one not drawn stays 0.0
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        splits[k] = sign * (rng.uniform(lo, hi) if hi > lo else lo)
        jitter[k][:, drawn] = rng.normal(0.0, stds[drawn],
                                         size=(n_cycles, drawn.sum()))
    gain_left, gain_right = 1.0 + splits / 2.0, 1.0 - splits / 2.0
    turn_bias = (stride * (gain_left - gain_right) / noise.track_width
                 if mode is GaitMode.OPEN_LOOP else np.zeros(n_seeds))

    if start is None:
        start = ORIGIN
    poses = np.empty((n_seeds, n_cycles + 1, 4))
    # each cycle adds its jitter to the heading, then the turn bias
    headings = np.empty((n_seeds, 2 * n_cycles + 1))
    headings[:, 0] = start.heading
    headings[:, 1::2] = jitter[:, :, 0]
    headings[:, 2::2] = turn_bias[:, None]
    poses[:, :, 2] = np.add.accumulate(headings, axis=1)[:, 0::2]
    # a stride factor is max(0.0, 1.0 + jitter), and 1.0 + jitter is never -0.0
    steps = (stride * (gain_left + gain_right) / 2.0)[:, None] * np.maximum(
        1.0 + jitter[:, :, 1], 0.0)
    angles = poses[:, 1:, 2].ravel().tolist()
    poses[:, 0, :2] = start.x, start.y
    for j, trig in enumerate((math.cos, math.sin)):
        poses[:, 1:, j] = steps * np.fromiter(
            map(trig, angles), float, len(angles)).reshape(n_seeds, n_cycles)
    np.add.accumulate(poses[:, :, :2], axis=1, out=poses[:, :, :2])
    poses[:, 0, 3] = start.time
    poses[:, 1:, 3] = start.time + np.asarray(cycle_times, dtype=float)
    return poses


def drift_duration(mode: GaitMode, gait: GaitConfig, distance: float) -> float:
    """How long `drift_trials` runs the gait to cover `distance` (m): three
    cycles more than the distance takes, plus two periods of slack. A
    duration over MAX_TRIAL_S is an error."""
    if not distance > 0:
        raise FieldError("{distance} must be positive")
    period = TWO_PI / gait.fin_speed * (2.0 if mode is GaitMode.ASYNC else 1.0)
    strides = distance / gait.stride
    # ceil() of an infinite count would raise; it runs over the limit anyway
    duration = ((math.ceil(strides) if math.isfinite(strides) else strides)
                + 5) * period
    if duration > MAX_TRIAL_S:
        raise FieldError(
            "{distance} is too long for {fin_speed} and {stride}: a "
            f"{mode.value} drift over {distance:g} m would take "
            f"{duration:g} s, over the {MAX_TRIAL_S:g} s limit")
    return duration


def drift_trials(mode: GaitMode, gait: GaitConfig | None = None,
                 seeds=(0,), distance: float = 1.0):
    """Simulate one straight-line run per seed of the sequence `seeds`, each
    until its forward progress along the initial heading reaches `distance`
    (m), and yield their trajectories in seed order. The seeds run in
    batches of at most DRIFT_CHUNK_POSES poses (one seed at least), so
    memory does not grow with their number."""
    gait = gait or GaitConfig()
    duration = drift_duration(mode, gait, distance)
    events = nominal_cycle_times(mode, duration, gait.fin_speed, gait.dt,
                                 gait.encoder)
    chunk = max(1, DRIFT_CHUNK_POSES // (len(events) + 1))

    def until_reached(poses):
        # stop at the first pose that has gone `distance` along the x axis
        ahead = np.flatnonzero(poses[1:, 0] - poses[0, 0] >= distance)
        return Trajectory(poses[:ahead[0] + 2] if ahead.size else poses)

    for first in range(0, len(seeds), chunk):
        # a batch is dropped before the next is built
        yield from map(until_reached, crawl_kinematics(
            events, mode, gait.noise, gait.stride, seeds[first:first + chunk]))
