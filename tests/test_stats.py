import itertools
import math
import tracemalloc

import numpy as np
import pytest

from skipsim import experiments
from skipsim.cli import main
from skipsim.config import load_config
from skipsim.fileio import read_csv_table, write_csv
from skipsim.gait import PlanarPose, Trajectory
from skipsim.stats import (ForceTrace, _percentile, bootstrap_ci,
                           detect_peaks, lateral_drift, mean_velocity)


def half_sine_trace(pulses, rate=2000.0, width=0.010, duration=None):
    """Independent synthesis of (time, amplitude) pulses for oracle tests."""
    if duration is None:
        duration = max((t for t, _ in pulses), default=0.0) + width
    n = int(round(duration * rate)) + 1
    t = np.arange(n) / rate
    samples = np.zeros(n)
    for t0, amp in pulses:
        mask = (t >= t0) & (t <= t0 + width)
        samples[mask] += amp * np.sin(math.pi * (t[mask] - t0) / width)
    return ForceTrace(sample_rate=rate, samples=samples)


def brute_force_peaks(samples, rate, threshold, min_separation):
    """Quadratic reference implementation of the suppression rule."""
    n = len(samples)
    cands = []
    for i in range(1, n - 1):
        if samples[i] > samples[i - 1] and samples[i] >= samples[i + 1]:
            j = i
            while j + 1 < n and samples[j + 1] == samples[i]:
                j += 1
            if (j + 1 == n or samples[j + 1] < samples[i]) and \
                    samples[i] >= threshold:
                cands.append(i)
    min_gap = int(round(min_separation * rate))
    accepted = []
    for i in sorted(cands, key=lambda k: (-samples[k], k)):
        if all(abs(i - j) >= min_gap for j in accepted):
            accepted.append(i)
    return sorted(accepted)


class TestForceTraceCsv:
    def _long_trace(self):
        """200,000 samples of 4 N pulses, one a second."""
        return half_sine_trace([(t, 4.0) for t in np.arange(0.5, 99.0)],
                               duration=99.9995)

    def test_reading_peaks_under_three_float_columns(self, tmp_path):
        """A 200,000-sample trace reads back byte for byte through numpy's
        parser: the read peaks under three times the samples' two float
        columns, where holding every field's string until one conversion
        at the end takes about ten times."""
        trace = self._long_trace()
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        ForceTrace.read_csv(path)  # lazy imports settle first
        tracemalloc.start()
        try:
            back = ForceTrace.read_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.samples.tobytes() == trace.samples.tobytes()
        assert back.sample_rate == trace.sample_rate
        assert peak < 3 * 2 * trace.samples.nbytes

    def test_read_holds_only_the_force_column(self, tmp_path):
        """The samples read own their data, not a row of the (2, n) table
        that also holds the timestamps, and `analyze --trace` writes the
        bytes it writes from that row."""
        path = tmp_path / "trace.csv"
        half_sine_trace([(0.5, 4.0), (1.5, 5.0)], duration=2.0).write_csv(path)
        back = ForceTrace.read_csv(path)
        assert back.samples.base is None
        row = read_csv_table(path, ForceTrace.COLUMNS, "force trace").T[1]
        assert row.base is not None
        assert main(["analyze", "--trace", str(path),
                     "--out", str(tmp_path / "a")]) == 0
        (tmp_path / "b").mkdir()
        experiments.run_analyze(load_config(), str(tmp_path / "b"),
                                trace=ForceTrace(back.sample_rate, row))
        assert ((tmp_path / "a" / "analysis.json").read_bytes()
                == (tmp_path / "b" / "analysis.json").read_bytes())

    def test_writing_holds_one_chunk_of_rows(self, tmp_path):
        """A 200,000-sample trace writes the bytes of a writer that turns
        every sample into a Python float at once, holding Python floats for
        CSV_WRITE_ROWS rows at a time: the write peaks under 1 MiB at any
        length, where the two lists of every sample take about 12.8 MB."""
        trace = self._long_trace()
        path = tmp_path / "trace.csv"
        trace.write_csv(path)  # lazy imports settle first
        tracemalloc.start()
        try:
            trace.write_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        times = np.arange(trace.samples.size) / trace.sample_rate
        write_csv(tmp_path / "whole.csv", ForceTrace.COLUMNS,
                  zip(times.tolist(), trace.samples.tolist()))
        assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert peak < 1 << 20


class TestStoredForceTrace:
    @pytest.mark.parametrize("indices, n_samples", [
        ([0, 2], None), ([0], 5), ([2, 1], 5), ([1, 1], 5), ([-1, 2], 5),
        ([0, 5], 5)], ids=["no-count", "one-short", "falling", "repeated",
                           "before-0", "past-the-end"])
    def test_refuses_indices_that_do_not_place_each_sample(self, indices,
                                                           n_samples):
        with pytest.raises(ValueError, match="^indices must give each"):
            ForceTrace(100.0, [1.0, 2.0], indices, n_samples)

    def test_a_whole_trace_counts_its_own_samples(self):
        assert ForceTrace(100.0, [1.0, 2.0]).n_samples == 2
        with pytest.raises(ValueError, match="^n_samples must be"):
            ForceTrace(100.0, [1.0, 2.0], n_samples=3)


class TestDetectPeaks:
    def test_all_zero_trace(self):
        trace = ForceTrace(1000.0, np.zeros(5000))
        assert detect_peaks(trace).count == 0

    def test_ten_pulses_at_one_hertz(self):
        pulses = [(k + 1.0, 4.0) for k in range(10)]
        peaks = detect_peaks(half_sine_trace(pulses), threshold=1.0)
        assert peaks.count == 10
        assert all(v == pytest.approx(4.0, rel=1e-2) for v in peaks.values)

    def test_close_pulses_keep_the_larger(self):
        trace = half_sine_trace([(1.0, 3.0), (1.1, 5.0)])
        peaks = detect_peaks(trace, threshold=1.0, min_separation=0.3)
        assert peaks.count == 1
        assert peaks.values[0] == pytest.approx(5.0, rel=1e-2)

    def test_equal_close_peaks_keep_the_earlier(self):
        samples = np.zeros(3000)
        samples[[500, 600]] = 2.0  # two identical spikes inside one window
        trace = ForceTrace(1000.0, samples)
        peaks = detect_peaks(trace, threshold=1.0, min_separation=0.3)
        assert peaks.indices == (500,)

    def test_flat_top_counted_once(self):
        samples = np.zeros(1000)
        samples[100:110] = 3.0
        trace = ForceTrace(1000.0, samples)
        peaks = detect_peaks(trace, threshold=1.0, min_separation=0.05)
        assert peaks.count == 1

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            detect_peaks(ForceTrace(1000.0, np.zeros(10)), threshold=0.0)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force_reference(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(0.0, 1.0, 4000).cumsum() * 0.05
        samples -= samples.min()
        trace = ForceTrace(500.0, samples)
        got = detect_peaks(trace, threshold=1.0, min_separation=0.2)
        want = brute_force_peaks(samples, 500.0, 1.0, 0.2)
        assert list(got.indices) == want


def order_statistic(sorted_vals, q):
    """Smallest value whose empirical CDF reaches q (1-based rank ceil(q*n))."""
    n = len(sorted_vals)
    k = min(max(math.ceil(q * n), 1), n)
    return sorted_vals[k - 1]


def exhaustive_percentile_ci(samples, level):
    """Independent enumeration of every resample of the mean."""
    n = len(samples)
    means = sorted(sum(combo) / n
                   for combo in itertools.product(samples, repeat=n))
    q = (1.0 - level) / 2.0
    return order_statistic(means, q), order_statistic(means, 1.0 - q)


def exhaustive_ci(samples, level):
    """The percentile bootstrap over all n^n resamples, the limit of the
    Monte Carlo draw: every resample's mean, sorted, read by the package's
    percentile rule. Only sensible for small n."""
    n = len(samples)
    means = np.fromiter(
        (sum(combo) / n for combo in itertools.product(samples, repeat=n)),
        dtype=float, count=n ** n)
    means.sort()
    q = (1.0 - level) / 2.0
    return _percentile(means, q), _percentile(means, 1.0 - q)


CORPUS = [
    (2.0, 4.0, 6.0),
    (3.2,),
    (2.0, 2.0, 2.0),
    (2.5, 5.9),
    (4.1, 3.3, 5.2, 2.8),
    (2.6, 3.1, 5.9, 4.4, 3.8),
    (5.0, 5.0, 5.0, 5.0, 5.0),
]


class TestBootstrap:
    def test_constant_samples_collapse(self):
        ci = bootstrap_ci([3.0, 3.0, 3.0], seed=0)
        assert (ci.mean, ci.lower, ci.upper) == (3.0, 3.0, 3.0)

    @pytest.mark.parametrize("samples", CORPUS)
    def test_percentile_rule_matches_independent_enumeration(self, samples):
        lower, upper = exhaustive_ci(samples, 0.95)
        lo, hi = exhaustive_percentile_ci(list(samples), 0.95)
        assert lower == pytest.approx(lo, rel=1e-12, abs=1e-12)
        assert upper == pytest.approx(hi, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("samples", CORPUS)
    def test_monte_carlo_approaches_exhaustive(self, samples):
        mc = bootstrap_ci(samples, level=0.95, resamples=100000, seed=0)
        lower, upper = exhaustive_ci(samples, 0.95)
        assert abs(mc.lower - lower) <= 0.05
        assert abs(mc.upper - upper) <= 0.05

    @pytest.mark.parametrize("samples", CORPUS)
    def test_interval_brackets_the_mean(self, samples):
        ci = bootstrap_ci(samples, resamples=5000, seed=3)
        assert ci.lower <= ci.mean <= ci.upper

    def test_widening_level_never_narrows(self):
        narrow = bootstrap_ci([2.0, 4.0, 6.0, 3.0], level=0.95, seed=9)
        wide = bootstrap_ci([2.0, 4.0, 6.0, 3.0], level=0.99, seed=9)
        assert wide.lower <= narrow.lower
        assert wide.upper >= narrow.upper

    def test_deterministic_given_seed(self):
        a = bootstrap_ci([1.0, 2.0, 5.0], seed=4)
        b = bootstrap_ci([1.0, 2.0, 5.0], seed=4)
        assert a == b

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])


def line_trajectory(points):
    return Trajectory([PlanarPose(x, y, h, t) for x, y, h, t in points])


class TestTrajectoryMetrics:
    def test_straight_run_velocity(self):
        traj = line_trajectory([(0, 0, 0, 0.0), (0.3, 0, 0, 10.0)])
        assert mean_velocity(traj) == pytest.approx(0.03)

    def test_stationary_trajectory(self):
        traj = line_trajectory([(0, 0, 0, 0.0), (0, 0, 0, 5.0)])
        assert mean_velocity(traj) == 0.0

    def test_requires_two_poses(self):
        with pytest.raises(ValueError):
            mean_velocity(Trajectory([PlanarPose(0, 0, 0, 0)]))

    def test_net_velocity_bounded_by_path_rate(self):
        # curved path: net displacement is below traversed length
        poses = [(0, 0, 0, 0.0), (0.1, 0.05, 0, 1.0), (0.2, -0.02, 0, 2.0),
                 (0.25, 0.1, 0, 3.0)]
        traj = line_trajectory(poses)
        steps = np.diff(traj.poses[:, :2], axis=0)
        path_length = np.hypot(steps[:, 0], steps[:, 1]).sum()
        assert mean_velocity(traj) <= path_length / traj.duration()

    def test_drift_zero_for_straight_line(self):
        traj = line_trajectory([(0, 0, 0, 0.0), (1.0, 0, 0, 10.0)])
        assert lateral_drift(traj) == 0.0

    def test_drift_of_l_shaped_path(self):
        traj = line_trajectory([(0, 0, 0, 0.0), (0.2, 0, 0, 1.0),
                                (0.2, 0.06, 0, 2.0)])
        assert lateral_drift(traj) == pytest.approx(0.06)

    def test_centerline_follows_initial_heading(self):
        heading = math.radians(30)
        # motion exactly along the initial heading: zero drift
        poses = [(0, 0, heading, 0.0),
                 (math.cos(heading), math.sin(heading), heading, 10.0)]
        assert lateral_drift(line_trajectory(poses)) == pytest.approx(0.0, abs=1e-12)
