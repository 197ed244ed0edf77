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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .fileio import array_rows, read_csv_table, write_csv

TWO_PI = 2.0 * math.pi

# Longest trial, in s: it bounds the one unit path a batch holds at a time
MAX_TRIAL_S = 3600.0
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


# Most ticks a fin plans ahead: no array grows with a schedule's length.
CHUNK_TICKS = 1 << 16
# Most controller ticks in one schedule (`run_cycles`). A schedule lasts at
# most MAX_TRIAL_S, so a gait dt below MAX_TRIAL_S / MAX_TICKS is refused.
MAX_TICKS = 1 << 22


class Fin:
    """One fin and its hall-effect sensor, stepped in ticks of `dt`.

    Its state is two counts: `turned`, the ticks it has turned at its
    nominal speed, and `paused_ticks`, the ticks it has waited. Its total
    angle is turned * step, with step = nominal speed * dt, its angle that
    wrapped to [0, 2*pi), and `edges` counts the rising sensor edges since
    the last completed cycle. A controller gates it through
    `angular_speed`: the nominal speed to turn, 0.0 to hold.

    The angle depends only on the count, so the fin plans the counts at
    which its sensor rises, up to CHUNK_TICKS ahead, and a controller walks
    it from event to event (`ticks_to_event`, `advance`)."""

    def __init__(self, speed: float, encoder: EncoderModel, dt: float):
        if speed < 0:
            raise ValueError("fin angular_speed must be >= 0")
        self.encoder = encoder
        self.angular_speed = self.nominal_speed = speed
        self.dt = dt
        self.step = speed * dt
        self.turned = self.paused_ticks = self.edges = 0
        self._rises = []  # planned rising counts, sorted
        self._planned = 0  # the last count the plan covers

    @property
    def total_angle(self) -> float:
        return self.turned * self.step

    @property
    def angle(self) -> float:
        return self.total_angle % TWO_PI

    @property
    def pause_time(self) -> float:
        return self.paused_ticks * self.dt

    def _plan(self, limit: int):
        """Plan the rising counts from the fin's count on, `limit` ticks or
        one revolution ahead, whichever is further, and at most
        CHUNK_TICKS."""
        n = int(min(CHUNK_TICKS, max(limit, TWO_PI / self.step + 2.0)))
        counts = np.arange(self.turned, self.turned + n + 1)
        seen = self.encoder.detects(counts * self.step)
        self._rises = counts[1:][seen[1:] & ~seen[:-1]].tolist()
        self._planned = self.turned + n

    def ticks_to_event(self, limit: int, total: float = math.inf) -> int:
        """Ticks, 1 to `limit`, up to and including the fin's next rising
        edge, its first count with a total angle of at least `total`, or
        the end of its plan; `limit` for a fin that does not turn."""
        if self.angular_speed <= 0.0 or self.step <= 0.0:
            return limit
        if self._planned <= self.turned:
            self._plan(limit)
        k = bisect_right(self._rises, self.turned)
        end = self._rises[k] if k < len(self._rises) else self._planned
        if end * self.step >= total:
            # the first count up to `end` whose total angle reaches `total`
            counts = range(self.turned + 1, end + 1)
            end = counts[bisect_left(counts, total,
                                     key=lambda count: count * self.step)]
        return min(limit, end - self.turned)

    def advance(self, ticks: int) -> bool:
        """Turn `ticks` ticks, no more than `ticks_to_event` gives; returns
        True on a rising encoder edge at the last."""
        if self.angular_speed <= 0.0:
            return False
        self.turned += ticks
        k = bisect_left(self._rises, self.turned)
        if k < len(self._rises) and self._rises[k] == self.turned:
            self.edges += 1
            return True
        return False


class _FinPair:
    """Two fins, each watched by its own encoder and stepped finely enough
    that no magnet passage is missed. The clock is `ticks`, the ticks taken
    at one `dt`. A gait says how the fins move up to their next event
    (`_move`, by default both free-run) and may replace the rule that a
    cycle completes once both fins have validated a revolution. Between
    events no speed, edge count or cycle changes, so the pair turns its
    fins from event to event."""

    def __init__(self, left_speed: float = TWO_PI, right_speed: float | None = None,
                 encoder: EncoderModel | None = None, dt: float = 0.01):
        if right_speed is None:
            right_speed = left_speed
        if not dt > 0:
            raise ValueError("dt must be positive")
        self.encoder = encoder or EncoderModel()
        # a coarser step could sweep straight across a detection window
        if max(left_speed, right_speed) * dt >= self.encoder.detection_window:
            raise ValueError("dt too coarse: angular step per tick must stay "
                             "below the encoder detection window")
        self.dt = dt
        self.left = Fin(left_speed, self.encoder, dt)
        self.right = Fin(right_speed, self.encoder, dt)
        self.edges_per_cycle = len(self.encoder.magnet_angles)
        self.ticks = 0

    @property
    def time(self) -> float:
        return self.ticks * self.dt

    def step(self) -> bool:
        """Advance one tick; returns True when it completes a gait cycle."""
        return bool(self.advance(1))

    def advance(self, ticks: int) -> list:
        """Advance `ticks` ticks, returning the times of the cycles they
        complete."""
        times = []
        end = self.ticks + ticks
        while self.ticks < end:
            self.ticks += self._move(end - self.ticks)
            if self._cycle_complete():
                times.append(self.time)
        return times

    def _span(self, ticks: int) -> int:
        """Ticks up to the next event, at most `ticks`."""
        return min(self.left.ticks_to_event(ticks),
                   self.right.ticks_to_event(ticks))

    def _move(self, ticks: int) -> int:
        """Turn the fins up to their next event, at most `ticks` ticks;
        returns the ticks turned."""
        span = self._span(ticks)
        self.left.advance(span)
        self.right.advance(span)
        return span

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

    def _move(self, ticks: int) -> int:
        # the leading fin waits for the lagging side's detection
        lead = self.left.edges - self.right.edges
        fins = ((self.left, lead > 0), (self.right, lead < 0))
        for fin, waits in fins:
            fin.angular_speed = 0.0 if waits else fin.nominal_speed
        span = super()._move(ticks)
        for fin, waits in fins:
            if waits:
                fin.paused_ticks += span
        return span

    @property
    def pause_time(self) -> float:
        return self.left.pause_time + self.right.pause_time


class AsyncGait(_FinPair):
    """Fins alternate: only the `active` fin rotates, handing over at each
    of its encoder detections."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.active = self.left

    def _move(self, ticks: int) -> int:
        idler = self.right if self.active is self.left else self.left
        # mutual exclusion: only the scheduled fin may move
        idler.angular_speed = 0.0
        self.active.angular_speed = self.active.nominal_speed
        span = self.active.ticks_to_event(ticks)
        if self.active.advance(span):
            self.active = idler
        return span


class OpenLoopGait(_FinPair):
    """No encoder feedback: both fins free-run and cycles are dead-reckoned
    from the left fin's commanded rotation."""

    _cycles_marked = 0

    def _mark(self) -> float:
        return (self._cycles_marked + 1) * TWO_PI

    def _span(self, ticks: int) -> int:
        # the left fin's next mark is an event too
        return min(self.left.ticks_to_event(ticks, self._mark()),
                   self.right.ticks_to_event(ticks))

    def _cycle_complete(self) -> bool:
        if self.left.total_angle >= self._mark():
            self._cycles_marked += 1
            return True
        return False


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


def run_cycles(controller, duration: float, dt: float) -> list:
    """Step a controller built with tick `dt` for `duration` seconds,
    returning cycle-complete times."""
    ticks = schedule_ticks(duration, dt)
    if dt != controller.dt:
        raise ValueError(f"a schedule at dt {dt:g} s cannot step a "
                         f"controller built for dt {controller.dt:g} s")
    return controller.advance(ticks)


@lru_cache(maxsize=64)
def nominal_cycle_times(mode: GaitMode, duration: float, fin_speed: float = TWO_PI,
                        dt: float = 0.01, encoder: EncoderModel | None = None) -> tuple:
    """Cycle-complete times for symmetric nominal fin speeds (cached; the
    schedule is identical for every trial at the same settings)."""
    gait = {GaitMode.SYNC: SyncGait, GaitMode.ASYNC: AsyncGait,
            GaitMode.OPEN_LOOP: OpenLoopGait}[mode]
    return tuple(run_cycles(gait(fin_speed, encoder=encoder, dt=dt),
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
        raise ValueError("distance must be positive")
    period = TWO_PI / gait.fin_speed * (2.0 if mode is GaitMode.ASYNC else 1.0)
    strides = distance / gait.stride
    # ceil() of an infinite count would raise; it runs over the limit anyway
    duration = ((math.ceil(strides) if math.isfinite(strides) else strides)
                + 5) * period
    if duration > MAX_TRIAL_S:
        raise ValueError(f"a {mode.value} drift over {distance:g} m would take "
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
