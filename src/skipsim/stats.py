"""Measurement pipeline: force-trace peak detection, percentile bootstrap
confidence intervals, trajectory metrics, and the trial failure labels."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FieldError
from .fileio import array_rows, read_csv_table, write_csv
from .gait import Trajectory

FAILURE_THRESHOLD_M = 0.10  # net displacement below this counts as a failure
BOOTSTRAP_CHUNK_DRAWS = 1 << 16  # resample indices bootstrap_ci draws at once
# the resamples bootstrap_ci takes at most: 8 MB of sorted means per
# distinct sample set
MAX_BOOTSTRAP_RESAMPLES = 10 ** 6


class FailureMode(Enum):
    NONE = "none"
    EXCAVATION = "excavation"
    PITCH_OVER = "pitch_over"
    TAIL_SLIP = "tail_slip"
    BELOW_THRESHOLD = "below_threshold"


@dataclass
class ForceTrace:
    """Uniformly sampled scalar force signal of `n_samples` samples. A trace
    with `indices` stores only some samples, `samples[k]` being sample
    `indices[k]`, and every other sample is 0.0; without, `samples` holds
    every sample."""

    sample_rate: float  # Hz
    samples: np.ndarray  # N
    indices: np.ndarray | None = None  # rising, each in [0, n_samples)
    n_samples: int | None = None  # samples.size when indices is None

    def __post_init__(self):
        if not 0 < self.sample_rate < math.inf:
            raise ValueError("sample_rate must be positive and finite")
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if self.indices is None:
            if self.n_samples not in (None, self.samples.size):
                raise ValueError("n_samples must be samples.size when "
                                 "there are no indices")
            self.n_samples = self.samples.size
            return
        self.indices = at = np.asarray(self.indices, dtype=np.int64)
        if (at.shape != self.samples.shape or self.n_samples is None
                or at.size and not (0 <= at[0] and at[-1] < self.n_samples
                                    and np.all(at[1:] > at[:-1]))):
            raise ValueError("indices must give each sample its index, "
                             "rising within [0, n_samples)")

    COLUMNS = ("time_s", "force_N")

    def _window(self, start, stop) -> np.ndarray:
        """Samples start to stop, every one of them."""
        if self.indices is None:
            return self.samples[start:stop]
        lo, hi = np.searchsorted(self.indices, (start, stop))
        window = np.zeros(stop - start)
        window[self.indices[lo:hi] - start] = self.samples[lo:hi]
        return window

    def write_csv(self, path):
        write_csv(path, self.COLUMNS, array_rows(
            self.n_samples, lambda start, stop: (
                np.arange(start, stop) / self.sample_rate,
                self._window(start, stop))))

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
        # a copy, so that the (2, n) table and its timestamps can go
        return cls(sample_rate=float(rate), samples=values.copy())


@dataclass(frozen=True)
class PeakSet:
    indices: tuple
    values: tuple

    @property
    def count(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class BootstrapCI:
    mean: float  # mean, lower and upper: tuples for 2-D samples
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
    # first sample after each plateau; a candidate whose plateau runs to the
    # end of the trace has none and is kept
    steps = np.flatnonzero(x[1:] != x[:-1]) + 1
    after = np.searchsorted(steps, cand, "right")
    to_end = after == steps.size
    nxt = steps[np.minimum(after, steps.size - 1)]
    return cand[to_end | (x[nxt] < x[cand])]


def _joined(trace: ForceTrace):
    """The stored samples of a trace with `indices` as one signal, with a
    single 0.0 between runs of samples that are not adjacent and at each
    end of the trace they do not reach, and the position of each stored
    sample in it. No local maximum above 0.0 moves or changes: each sample
    keeps its neighbours where they are stored, and a 0.0 where not."""
    gap = np.diff(trace.indices, prepend=-1, append=trace.n_samples) > 1
    at = np.arange(trace.indices.size) + np.cumsum(gap[:-1])
    joined = np.zeros(trace.indices.size + np.count_nonzero(gap))
    joined[at] = trace.samples
    return joined, at


def check_detection(threshold: float, min_separation: float) -> None:
    """`detect_peaks`' rules: a positive threshold, a separation >= 0."""
    if not threshold > 0:
        raise FieldError("{threshold} must be positive")
    if not min_separation >= 0:
        raise FieldError("{min_separation} must be >= 0")


def detect_peaks(trace: ForceTrace, threshold: float = 1.0,
                 min_separation: float = 0.3) -> PeakSet:
    """Local maxima at or above `threshold` (N) with an enforced minimum
    separation (s). Where candidates conflict within a separation window the
    larger peak wins; equal values keep the earlier one.

    A trace that stores only some samples is scanned on those (see
    `_joined`), its candidates mapped back to sample indices. Time is
    linear in the stored samples plus one binary search over the peaks
    accepted so far for each candidate at or above the threshold."""
    check_detection(threshold, min_separation)
    x, at = trace.samples, None
    if trace.indices is not None:
        x, at = _joined(trace)
    cand = _local_maxima(x)
    cand = cand[x[cand] >= threshold]
    values = x[cand]
    if at is not None:  # above 0.0, so each candidate is a stored sample
        cand = trace.indices[np.searchsorted(at, cand)]
    min_gap = int(round(min_separation * trace.sample_rate))
    accepted = []  # sorted; a candidate need only clear its two neighbours
    for i in cand[np.lexsort((cand, -values))].tolist():
        pos = bisect.bisect_left(accepted, i)
        if ((pos == 0 or i - accepted[pos - 1] >= min_gap)
                and (pos == len(accepted) or accepted[pos] - i >= min_gap)):
            accepted.insert(pos, i)
    return PeakSet(indices=tuple(accepted), values=tuple(
        values[np.searchsorted(cand, accepted)].tolist()))


def _percentile(sorted_values: np.ndarray, q: float) -> float:
    """Order-statistic (inverse CDF) percentile on pre-sorted data: the
    smallest value whose empirical CDF reaches q. This definition makes the
    Monte Carlo endpoints converge to those of the full set of n^n
    resamples."""
    n = sorted_values.size
    k = min(max(int(math.ceil(q * n)), 1), n)
    return float(sorted_values[k - 1])


def check_bootstrap(level: float, resamples: int) -> None:
    """`bootstrap_ci`'s rules: a level in (0, 1), resamples in
    [1, MAX_BOOTSTRAP_RESAMPLES]."""
    if not 0.0 < level < 1.0:
        raise FieldError("{level} must lie in (0, 1)")
    if not 1 <= resamples <= MAX_BOOTSTRAP_RESAMPLES:
        raise FieldError("{resamples} must lie in "
                         f"[1, {MAX_BOOTSTRAP_RESAMPLES}]")


def _index_reader(seed: int, n: int):
    """`read(out)` fills `out`, a C-contiguous int64 array of count >= 1
    entries, with what successive `Generator.integers(0, n, size=count)`
    calls on `np.random.default_rng(seed)` return, bit for bit, for
    1 <= n < 2**32.

    That call reads 32-bit words, the low then the high half of each 64-bit
    PCG64 output, and keeps (w * n) >> 32 of each word w unless the low 32
    bits of w * n fall below 2**32 mod n (Lemire, Fast Random Integer
    Generation in an Interval, ACM TOMACS 2019). Here that rule runs as
    whole-array passes over `random_raw`'s words, and the words a call
    leaves unused are copied into the next call, so its raw draw is freed
    on return."""
    raw = np.random.default_rng(seed).bit_generator.random_raw
    scale = np.uint32(n)
    threshold = (1 << 32) % n  # w is skipped when (w * n) mod 2**32 < this
    carry = np.empty(0, np.uint32)

    def extend(words, size):
        """`words` followed by fresh words, at least `size` in all."""
        if words.size >= size:
            return words
        fresh = raw(-(-(size - words.size) // 2))
        fresh = fresh.astype("<u8", copy=False).view("<u4")  # low half first
        return np.concatenate((words, fresh)) if words.size else fresh

    def read(out):
        nonlocal carry
        count = out.size
        words = extend(carry, count)
        if (words[:count] * scale).min() >= threshold:  # no word skipped
            used, picked = count, words[:count]
        else:
            kept = np.flatnonzero(words * scale >= threshold)
            while kept.size < count:
                words = extend(words, words.size + count - kept.size)
                kept = np.flatnonzero(words * scale >= threshold)
            used, picked = kept[count - 1] + 1, words[kept[:count]]
        carry = words[used:].copy()
        out = out.view(np.uint64).reshape(-1)
        # dtype= picks the uint64 loop: without it NumPy 1.x multiplies in
        # uint32, where w * n wraps and every index reads 0
        np.multiply(picked, np.uint64(n), out=out, dtype=np.uint64)
        out >>= np.uint64(32)

    return read


# huge samples overflow to an infinite mean, which the JSON writer refuses
@np.errstate(over="ignore")
def bootstrap_ci(samples, level: float = 0.95, resamples: int = 10000,
                 seed: int = 0) -> BootstrapCI:
    """Percentile bootstrap CI for the mean.

    Resamples with replacement, takes the (1-level)/2 and (1+level)/2
    empirical quantiles (order statistics) of the resampled means.

    A 2-D `samples` holds equal-size rows, each bootstrapped with the same
    index stream, so each row's CI equals a 1-D call on that row bit for
    bit; `mean`, `lower` and `upper` are then tuples, one float per row.
    Other shapes are flattened.

    The resample indices are those of `default_rng(seed).integers(0, n,
    size=(resamples, n))`, read by `_index_reader` in chunks of about
    BOOTSTRAP_CHUNK_DRAWS (2**16), so that matrix never needs resamples * n
    integers at once. The resampled means are still held whole for
    sorting: 8 bytes per resample for each distinct row (byte-equal rows
    share theirs).
    """
    arr = np.ascontiguousarray(samples, dtype=float)
    table = arr if arr.ndim == 2 else arr.reshape(1, -1)
    if table.size == 0:
        raise ValueError("bootstrap_ci requires at least one sample")
    check_bootstrap(level, resamples)
    n = table.shape[1]
    # row -> its slot among the distinct rows, keyed by bytes: exact copies
    # (NaN rows too) share their means, merely equal rows (-0.0, 0.0) do not
    slots = {}
    slot = [slots.setdefault(row.tobytes(), len(slots)) for row in table]
    distinct = table[[slot.index(k) for k in range(len(slots))]]
    read = _index_reader(seed, n)
    # successive reads continue one stream, so the chunks hold exactly the
    # rows of a single integers(0, n, size=(resamples, n)) draw
    rows = max(BOOTSTRAP_CHUNK_DRAWS // n, 1)
    means = np.empty((len(distinct), resamples))
    # one index buffer for every chunk: a fresh array per chunk raised the
    # command's peak RSS by about 0.2 MiB
    chunk = np.empty((min(rows, resamples), n), np.int64)
    for start in range(0, resamples, rows):
        stop = min(start + rows, resamples)
        idx = chunk[:stop - start]
        read(idx)
        for row, row_means in zip(distinct, means):
            np.add.reduce(row.take(idx), axis=1, out=row_means[start:stop])
    # mean's own sum then true_divide, so each mean keeps mean()'s bits
    means /= n
    means.sort(axis=1)
    q_lo = (1.0 - level) / 2.0
    ci = [(float(row.mean()), _percentile(means[k], q_lo),
           _percentile(means[k], 1.0 - q_lo)) for row, k in zip(table, slot)]
    mean, lower, upper = zip(*ci) if arr.ndim == 2 else ci[0]
    return BootstrapCI(mean=mean, lower=lower, upper=upper, level=level,
                       resamples=resamples)


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
    xs, ys = trajectory.poses[:, 0], trajectory.poses[:, 1]
    # an overflowing offset (-0.0 * inf) is NaN and stays NaN through max
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(nx * (xs - p0.x) + ny * (ys - p0.y)).max())
