"""Measurement pipeline: force-trace peak detection, percentile bootstrap
confidence intervals, trajectory metrics, and trial failure classification."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fileio import read_csv_table, write_csv
from .gait import Trajectory

FAILURE_THRESHOLD_M = 0.10  # net displacement below this counts as a failure


class FailureMode(Enum):
    NONE = "none"
    EXCAVATION = "excavation"
    PITCH_OVER = "pitch_over"
    TAIL_SLIP = "tail_slip"
    BELOW_THRESHOLD = "below_threshold"


HARD_FAILURES = (FailureMode.EXCAVATION, FailureMode.PITCH_OVER,
                 FailureMode.TAIL_SLIP)


@dataclass
class ForceTrace:
    """Uniformly sampled scalar force signal."""

    sample_rate: float  # Hz
    samples: np.ndarray  # N

    def __post_init__(self):
        if not 0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be positive and finite")
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.sample_rate

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    COLUMNS = ("time_s", "force_N")

    def write_csv(self, path):
        write_csv(path, self.COLUMNS,
                  zip(self.times().tolist(), self.samples.tolist()))

    @classmethod
    def read_csv(cls, path) -> "ForceTrace":
        """Read a trace written by write_csv: timestamps must rise at one
        step (to a relative 1e-6), from which the sample rate follows."""
        times, values = read_csv_table(path, cls.COLUMNS, "force trace").T
        if len(times) < 2:
            raise ValueError("force trace CSV needs at least two samples")
        step = (times[-1] - times[0]) / (len(times) - 1)
        if not (step > 0 and np.all(np.abs(np.diff(times) - step) <= 1e-6 * step)):
            raise ValueError(
                "force trace CSV timestamps must rise at a uniform step")
        with np.errstate(over="ignore"):
            rate = (len(times) - 1) / (times[-1] - times[0])
        if not np.isfinite(rate):
            raise ValueError(
                "force trace CSV timestamps step too finely for a finite rate")
        return cls(sample_rate=float(rate), samples=values)


@dataclass(frozen=True)
class PeakSet:
    indices: tuple
    values: tuple

    @property
    def count(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class BootstrapCI:
    mean: float
    lower: float
    upper: float
    level: float
    resamples: int


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of interior local maxima; a flat top is reported once, at its
    first sample."""
    if x.size < 3:
        return np.empty(0, dtype=int)
    cand = np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:])) + 1
    keep = []
    n = x.size
    for i in cand:
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1
        if j + 1 == n or x[j + 1] < x[i]:
            keep.append(i)
    return np.asarray(keep, dtype=int)


def detect_peaks(trace: ForceTrace, threshold: float = 1.0,
                 min_separation: float = 0.3) -> PeakSet:
    """Local maxima at or above `threshold` (N) with an enforced minimum
    separation (s). Where candidates conflict within a separation window the
    larger peak wins; equal values keep the earlier one."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if min_separation < 0:
        raise ValueError("min_separation must be >= 0")
    x = trace.samples
    if x.size == 0:
        return PeakSet(indices=(), values=())
    cand = _local_maxima(x)
    cand = cand[x[cand] >= threshold]
    min_gap = int(round(min_separation * trace.sample_rate))
    order = sorted(cand, key=lambda i: (-x[i], i))
    accepted = []
    for i in order:
        if all(abs(i - j) >= min_gap for j in accepted):
            accepted.append(i)
    accepted.sort()
    return PeakSet(indices=tuple(int(i) for i in accepted),
                   values=tuple(float(x[i]) for i in accepted))


def _percentile(sorted_values: np.ndarray, q: float) -> float:
    """Order-statistic (inverse CDF) percentile on pre-sorted data: the
    smallest value whose empirical CDF reaches q. This definition makes the
    Monte Carlo endpoints converge to the exhaustive-enumeration endpoints."""
    n = sorted_values.size
    k = min(max(int(math.ceil(q * n)), 1), n)
    return float(sorted_values[k - 1])


# huge samples overflow to an infinite mean, which the JSON writer refuses
@np.errstate(over="ignore")
def bootstrap_ci(samples, level: float = 0.95, resamples: int = 10000,
                 seed: int = 0, exhaustive: bool = False) -> BootstrapCI:
    """Percentile bootstrap CI for the mean.

    Resamples with replacement, takes the (1-level)/2 and (1+level)/2
    empirical quantiles (order statistics) of the resampled means. With
    exhaustive=True all n^n resamples are enumerated instead of drawing
    (only sensible for small n).
    """
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("bootstrap_ci requires at least one sample")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    n = arr.size
    if exhaustive:
        if n > 6:
            raise ValueError("exhaustive enumeration limited to n <= 6")
        means = np.fromiter(
            (sum(combo) / n for combo in itertools.product(arr, repeat=n)),
            dtype=float, count=n ** n)
        n_resamples = n ** n
    else:
        if resamples < 1:
            raise ValueError("resamples must be >= 1")
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, size=(resamples, n))
        means = arr[idx].mean(axis=1)
        n_resamples = resamples
    means.sort()
    q_lo = (1.0 - level) / 2.0
    lower = _percentile(means, q_lo)
    upper = _percentile(means, 1.0 - q_lo)
    return BootstrapCI(mean=float(arr.mean()), lower=lower, upper=upper,
                       level=level, resamples=n_resamples)


def mean_velocity(trajectory: Trajectory) -> float:
    """Net start-to-end displacement over elapsed time (m/s)."""
    if len(trajectory) < 2:
        raise ValueError("mean_velocity needs at least two poses")
    elapsed = trajectory.duration()
    if elapsed <= 0:
        raise ValueError("trajectory must span a positive time interval")
    return trajectory.net_displacement() / elapsed


def lateral_drift(trajectory: Trajectory) -> float:
    """Maximum absolute perpendicular deviation from the centerline defined
    by the start pose and its heading (m)."""
    if len(trajectory) < 2:
        raise ValueError("lateral_drift needs at least two poses")
    p0 = trajectory.start
    nx, ny = -math.sin(p0.heading), math.cos(p0.heading)
    return max(abs(nx * (p.x - p0.x) + ny * (p.y - p0.y))
               for p in trajectory.poses)


def classify_trial(displacement: float,
                   hard_failure: FailureMode | None = None) -> FailureMode:
    """Failure label for a trial: hard failures dominate, then the net
    displacement threshold (success at exactly 0.10 m)."""
    if displacement < 0:
        raise ValueError("displacement must be >= 0")
    if hard_failure is not None and hard_failure is not FailureMode.NONE:
        if hard_failure not in HARD_FAILURES:
            raise ValueError(f"not a hard failure label: {hard_failure}")
        return hard_failure
    if displacement < FAILURE_THRESHOLD_M:
        return FailureMode.BELOW_THRESHOLD
    return FailureMode.NONE
