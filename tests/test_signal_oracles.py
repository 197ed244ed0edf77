"""Byte-identity of the signal layer against its reference implementations.

`strike_trace`, `detect_peaks` (with `_local_maxima`) and `bootstrap_ci`
are compared with straightforward versions kept here as oracles: a
full-length time mask per strike over a dense trace, an O(k^2) scan over
candidates sorted by (-value, index) with a sample-by-sample plateau walk,
and a single (resamples, n) index draw. Outputs must match exactly, not to
a tolerance. A synthesized trace stores only its pulse samples, so its
every sample, its peaks and its CSV are compared with those of the dense
oracle trace. The golden digests cover only the default settings; these
tests draw plateaus, ties, zero separation, overlapping pulses, pulses cut
off at time zero, strikes far before it, non-integer sample rates, and 2-D
bootstraps whose rows must each match the oracle's single draw.
"""

import csv
import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skipsim import experiments, fileio, stats  # noqa: E402
from skipsim.cli import main  # noqa: E402
from skipsim.config import load_config  # noqa: E402
from skipsim.fileio import write_csv, write_json  # noqa: E402
from skipsim.springtail import (StrikeSequence,  # noqa: E402
                                length_regime, strike_sequence, strike_trace)
from skipsim.stats import (BootstrapCI, ForceTrace, PeakSet,  # noqa: E402
                           bootstrap_ci, detect_peaks)


def oracle_strike_trace(events, sample_rate, pulse_width, written=None):
    """Every sample of the trace; `written`, a list, gets the indices of
    the samples some pulse covers."""
    strikes = list(zip(events.time.tolist(), events.peak_force.tolist()))
    duration = max((time for time, _ in strikes), default=0.0) + pulse_width
    duration = max(duration, pulse_width)
    n = int(round(duration * sample_rate)) + 1
    t = np.arange(n) / sample_rate
    samples = np.zeros(n)
    covered = np.zeros(n, dtype=bool)
    for time, force in strikes:
        mask = (t >= time) & (t <= time + pulse_width)
        samples[mask] += force * np.sin(math.pi * (t[mask] - time) / pulse_width)
        covered |= mask
    if written is not None:
        written += np.flatnonzero(covered).tolist()
    return samples


def full(trace):
    """Every sample of a synthesized trace, 0.0 where it stores none."""
    samples = np.zeros(trace.n_samples)
    samples[trace.indices] = trace.samples
    return samples


def oracle_local_maxima(x):
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


def oracle_detect_peaks(trace, threshold, min_separation):
    x = trace.samples
    if x.size == 0:
        return PeakSet(indices=(), values=())
    cand = oracle_local_maxima(x)
    cand = cand[x[cand] >= threshold]
    min_gap = int(round(min_separation * trace.sample_rate))
    accepted = []
    for i in sorted(cand, key=lambda i: (-x[i], i)):
        if all(abs(i - j) >= min_gap for j in accepted):
            accepted.append(i)
    accepted.sort()
    return PeakSet(indices=tuple(int(i) for i in accepted),
                   values=tuple(float(x[i]) for i in accepted))


def oracle_bootstrap_ci(samples, level, resamples, seed):
    arr = np.asarray(samples, dtype=float).ravel()
    n = arr.size
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(resamples, n))
    means = arr[idx].mean(axis=1)
    means.sort()
    q_lo = (1.0 - level) / 2.0
    return BootstrapCI(mean=float(arr.mean()),
                       lower=stats._percentile(means, q_lo),
                       upper=stats._percentile(means, 1.0 - q_lo),
                       level=level, resamples=resamples)


def with_sorted_means(call):
    """Run a bootstrap and also return the sorted resample means it took
    its percentiles from, so that every mean is compared, not just two."""
    seen = []
    percentile = stats._percentile

    def spy(sorted_values, q):
        seen.append(sorted_values.copy())
        return percentile(sorted_values, q)

    with mock.patch.object(stats, "_percentile", spy):
        ci = call()
    return repr(ci), seen[0].tobytes()


SEPARATIONS = st.one_of(st.sampled_from([0.0, 0.01, 0.05, 0.3]),
                        st.floats(0.0, 0.5))
RATES = st.one_of(st.sampled_from([100.0, 1000.0, 2000.0]),
                  st.floats(10.0, 3000.0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(values=st.lists(st.integers(0, 4), max_size=80),
       rate=RATES, threshold=st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]),
       min_separation=SEPARATIONS,
       stored_zeros=st.lists(st.booleans(), min_size=80, max_size=80))
def test_detect_peaks_matches_oracle_on_plateaus_and_ties(
        values, rate, threshold, min_separation, stored_zeros):
    """On the whole trace and on a form that stores its non-zero samples
    and some of its zeros."""
    x = np.asarray(values, dtype=float)
    assert (stats._local_maxima(x).tobytes()
            == oracle_local_maxima(x).tobytes())
    trace = ForceTrace(sample_rate=rate, samples=x)
    got = detect_peaks(trace, threshold, min_separation)
    want = oracle_detect_peaks(trace, threshold, min_separation)
    assert got.indices == want.indices
    assert all(type(i) is int for i in got.indices)
    assert np.array(got.values).tobytes() == np.array(want.values).tobytes()
    at = np.flatnonzero((x != 0.0) | np.array(stored_zeros[:x.size], bool))
    stored = ForceTrace(rate, x[at], indices=at, n_samples=x.size)
    assert repr(detect_peaks(stored, threshold, min_separation)) == repr(got)


# strikes that cover no sample of any trace: so far before time zero that
# time * rate is beyond any index (or overflows)
OFF_TRACE_TIMES = [-1e300, -5e305, -1.7e308]


@st.composite
def strike_sets(draw):
    """Strikes off and on the sample grid, overlapping when close, some
    before time zero, sometimes a few hundred of them, and sometimes a few
    so far before zero that they cover no sample."""
    pulse_width = draw(st.floats(0.001, 0.5))
    rate = draw(st.floats(2.0 / pulse_width, 2.0 / pulse_width + 2000.0))
    on_grid = st.integers(0, int(3.0 * rate)).map(lambda k: k / rate)
    times = draw(st.lists(st.one_of(st.floats(-1.0, 3.0), on_grid),
                          max_size=12))
    forces = [draw(st.floats(0.1, 8.0)) for _ in times]
    if draw(st.booleans()):
        many = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
        k = draw(st.integers(100, 400))
        times += many.uniform(-1.0, 3.0, k).tolist()
        forces += many.uniform(0.1, 8.0, k).tolist()
    off = draw(st.lists(st.sampled_from(OFF_TRACE_TIMES), max_size=3))
    times, forces = times + off, forces + [1.0] * len(off)
    events = StrikeSequence(time=times, peak_force=forces,
                            impulse=np.zeros(len(times)),
                            engaged_angle=np.full(len(times), 0.5))
    return events, rate, pulse_width


@settings(max_examples=300, derandomize=True, deadline=None)
@given(strike_sets())
def test_strike_trace_matches_oracle(case):
    """The stored samples rebuild the oracle's trace byte for byte, and they
    are exactly the samples some pulse covers."""
    events, rate, pulse_width = case
    got = strike_trace(events, rate, pulse_width)
    written = []
    want = oracle_strike_trace(events, rate, pulse_width, written)
    assert got.n_samples == want.size
    assert got.indices.tolist() == written
    assert full(got).tobytes() == want.tobytes()


def edge_strikes(times, rate, pulse_width):
    events = StrikeSequence(time=times, peak_force=[3.0] * len(times),
                            impulse=np.zeros(len(times)),
                            engaged_angle=np.full(len(times), 0.5))
    return events, rate, pulse_width


# a pulse peaking on the first sample, one starting on it, and a last
# pulse that covers the last sample
EDGES = [edge_strikes([-0.005, 0.5], 2000.0, 0.010),
         edge_strikes([0.0, 0.0004], 5000.0, 0.001),
         edge_strikes([0.3, 0.301], 1000.0, 0.004)]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(case=st.one_of(st.sampled_from(EDGES), strike_sets()),
       threshold=st.one_of(st.sampled_from([0.5, 1.0, 2.9, 3.0]),
                           st.floats(0.01, 9.0)),
       min_separation=SEPARATIONS)
def test_detect_peaks_on_stored_samples_matches_the_dense_form(
        case, threshold, min_separation):
    events, rate, pulse_width = case
    trace = strike_trace(events, rate, pulse_width)
    dense = ForceTrace(rate, full(trace))
    got = detect_peaks(trace, threshold, min_separation)
    assert repr(got) == repr(detect_peaks(dense, threshold, min_separation))
    want = oracle_detect_peaks(ForceTrace(rate, oracle_strike_trace(
        events, rate, pulse_width)), threshold, min_separation)
    assert got.indices == want.indices
    assert all(type(i) is int for i in got.indices)
    assert np.array(got.values).tobytes() == np.array(want.values).tobytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=st.one_of(st.sampled_from(EDGES), strike_sets()),
       chunk=st.one_of(st.integers(1, 64), st.just(fileio.CSV_WRITE_ROWS)))
def test_write_csv_writes_the_dense_forms_bytes(tmp_path_factory, case,
                                                chunk):
    events, rate, pulse_width = case
    trace = strike_trace(events, rate, pulse_width)
    stored = tmp_path_factory.getbasetemp() / "stored.csv"
    dense = tmp_path_factory.getbasetemp() / "dense.csv"
    with mock.patch.object(fileio, "CSV_WRITE_ROWS", chunk):
        trace.write_csv(stored)
    ForceTrace(rate, oracle_strike_trace(events, rate, pulse_width)
               ).write_csv(dense)
    assert stored.read_bytes() == dense.read_bytes()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(samples=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
       level=st.floats(0.5, 0.99), resamples=st.integers(1, 400),
       seed=st.integers(0, 2 ** 32), chunk=st.integers(1, 64))
def test_bootstrap_ci_matches_single_draw_for_any_chunk(
        samples, level, resamples, seed, chunk):
    want = with_sorted_means(
        lambda: oracle_bootstrap_ci(samples, level, resamples, seed))
    with mock.patch.object(stats, "BOOTSTRAP_CHUNK_DRAWS", chunk):
        got = with_sorted_means(
            lambda: bootstrap_ci(samples, level, resamples, seed))
    assert got == want


@st.composite
def sample_tables(draw):
    """Rows of one size, some repeated, and sometimes a row of 0.0 beside a
    row of -0.0 (equal as numbers, different as bytes)."""
    n = draw(st.integers(1, 12))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1e3, 1e3))
    pool = draw(st.lists(st.lists(value, min_size=n, max_size=n),
                         min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    if draw(st.booleans()):
        rows += [[0.0] * n, [-0.0] * n]
    return rows


@settings(max_examples=200, derandomize=True, deadline=None)
@given(rows=sample_tables(), level=st.floats(0.5, 0.99),
       resamples=st.integers(1, 300), seed=st.integers(0, 2 ** 32),
       chunk=st.integers(1, 64))
def test_2d_bootstrap_ci_matches_oracle_per_row(rows, level, resamples, seed,
                                                chunk):
    seen = []
    percentile = stats._percentile

    def spy(sorted_values, q):
        seen.append(sorted_values.tobytes())
        return percentile(sorted_values, q)

    with mock.patch.object(stats, "BOOTSTRAP_CHUNK_DRAWS", chunk), \
            mock.patch.object(stats, "_percentile", spy):
        got = bootstrap_ci(rows, level, resamples, seed)
    assert got.resamples == resamples
    for field in (got.mean, got.lower, got.upper):
        assert type(field) is tuple and len(field) == len(rows)
        assert all(type(v) is float for v in field)
    # _percentile is called for each row in turn, lower bound first
    for k, row in enumerate(rows):
        one = BootstrapCI(mean=got.mean[k], lower=got.lower[k],
                          upper=got.upper[k], level=level,
                          resamples=resamples)
        assert (repr(one), seen[2 * k]) == with_sorted_means(
            lambda: oracle_bootstrap_ci(row, level, resamples, seed))


class CountingRng:
    """A default_rng stand-in whose bit generator has only `random_raw`,
    recording the 32-bit words of each draw."""

    words = []
    real = np.random.default_rng

    def __init__(self, seed):
        self.bit_generator = self
        self.raw = CountingRng.real(seed).bit_generator.random_raw

    def random_raw(self, size):
        CountingRng.words.append(2 * size)
        return self.raw(size)


@pytest.mark.parametrize("rows", [1, 2, 5], ids=["1-row", "2-rows",
                                                 "5-rows-2-distinct"])
def test_one_index_draw_per_chunk_whatever_the_rows(monkeypatch, rows):
    n, resamples = 7, 13  # a chunk of 28 draws holds 4 resamples: 4 chunks
    table = np.random.default_rng(rows).normal(4.0, 1.0, (rows, n))
    table[2:] = table[0]
    want = bootstrap_ci(table, 0.95, resamples, seed=3)
    monkeypatch.setattr(stats, "BOOTSTRAP_CHUNK_DRAWS", 4 * n)
    monkeypatch.setattr(CountingRng, "words", [])
    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    assert bootstrap_ci(table, 0.95, resamples, seed=3) == want
    # whole 64-bit outputs: the last chunk's 7 words take 4, leaving one
    assert CountingRng.words == [28, 28, 28, 8]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(n=st.one_of(st.sampled_from([1, 2, 3, 2 ** 31 + 1, 3 * 2 ** 30,
                                    2 ** 32 - 1]),
                   st.integers(1, 2 ** 32 - 1)),
       sizes=st.lists(st.integers(1, 4096), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32))
def test_index_reader_continues_one_integers_stream(n, sizes, seed):
    """Successive reads equal successive Generator.integers(0, n) calls on
    one generator, across the words a read leaves for the next; at
    n = 2**31 + 1 about half the words are skipped."""
    rng = np.random.default_rng(seed)
    read = stats._index_reader(seed, n)
    for size in sizes:
        got = np.empty(size, np.int64)
        read(got)
        assert np.array_equal(got, rng.integers(0, n, size=size))


ROWS_7 = stats.BOOTSTRAP_CHUNK_DRAWS // 7
ROWS_1 = stats.BOOTSTRAP_CHUNK_DRAWS


@pytest.mark.parametrize("n,resamples", [
    (7, ROWS_7 - 1), (7, ROWS_7), (7, ROWS_7 + 1),
    (1, ROWS_1 - 1), (1, ROWS_1), (1, ROWS_1 + 1),
    # more samples than one chunk's draws: each chunk is a single row
    (stats.BOOTSTRAP_CHUNK_DRAWS + 3, 3),
])
def test_bootstrap_ci_chunk_boundaries(n, resamples):
    samples = np.random.default_rng(n).normal(4.0, 1.0, n)
    got = with_sorted_means(lambda: bootstrap_ci(samples, 0.95, resamples, 11))
    want = with_sorted_means(
        lambda: oracle_bootstrap_ci(samples, 0.95, resamples, 11))
    assert got == want


def test_bootstrap_ci_memory_is_one_float_per_resample_plus_a_chunk():
    resamples, n = 200_000, 10
    samples = np.arange(n, dtype=float)
    tracemalloc.start()
    try:
        bootstrap_ci(samples, 0.95, resamples, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a single draw would hold 2 * 8 * resamples * n bytes (32 MB) at once
    chunk = 2 * 8 * stats.BOOTSTRAP_CHUNK_DRAWS
    assert peak < 8 * resamples + chunk + (1 << 20)


def test_2d_memory_is_one_float_per_resample_per_distinct_row_plus_a_chunk():
    resamples, n = 200_000, 10
    base = np.arange(n, dtype=float)
    table = np.stack([base, base + 1, base, base * 2, base + 1, base])
    distinct = 3
    tracemalloc.start()
    try:
        bootstrap_ci(table, 0.95, resamples, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # means for all six rows, or a (rows, chunk, n) gather, would not fit
    chunk = 2 * 8 * stats.BOOTSTRAP_CHUNK_DRAWS
    assert peak < 8 * resamples * distinct + chunk + (1 << 20)


def test_tail_characterize_cis_equal_one_bootstrap_per_length(tmp_path):
    """Lengths that share a peak count share one bootstrap_ci call; each
    length's CI still equals a 1-D bootstrap of its own peaks.csv values."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"experiments": {"tail_characterize": {"record_s": 60.0}}}))
    out = tmp_path / "o"
    assert main(["tail-characterize", "--config", str(cfg), "--seed", "5",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "peaks.csv", newline="") as fh:
        peaks = {}
        for row in csv.DictReader(fh):
            peaks.setdefault(float(row["length_mm"]), []).append(
                float(row["peak_N"]))
    analysis = load_config().analysis
    counts = {len(values) for values in peaks.values()}
    assert len(counts) < len(peaks)  # some lengths do share a call
    for length_mm, values in peaks.items():
        ci = bootstrap_ci(values, analysis["ci_level"],
                          analysis["bootstrap_resamples"], 5)
        entry = summary[f"{length_mm:g}mm"]
        assert entry["n"] == len(values)
        assert (entry["mean_N"], entry["ci_lo_N"], entry["ci_hi_N"]) == (
            ci.mean, ci.lower, ci.upper)


SWEEP_1MM = [float(mm) for mm in range(15, 36)]


def _spy(monkeypatch, name, calls):
    real = getattr(experiments, name)

    def spy(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, name, spy)


@pytest.mark.parametrize("lengths_mm", [None, SWEEP_1MM],
                         ids=["default", "sweep-1mm"])
def test_tail_characterize_traces_each_distinct_sequence_once(
        tmp_path, monkeypatch, lengths_mm):
    """Every length draws its strike sequence, but lengths whose sequences
    agree share one trace and one peak detection: three regimes, three."""
    calls = dict.fromkeys(("strike_sequence", "strike_trace", "detect_peaks"),
                          0)
    for name in calls:
        _spy(monkeypatch, name, calls)
    argv = ["tail-characterize", "--out", str(tmp_path / "o")]
    if lengths_mm is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"experiments": {"tail_characterize": {"lengths_mm": lengths_mm}}}))
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    n_lengths = len(lengths_mm or load_config().experiments[
        "tail_characterize"]["lengths_mm"])
    assert calls == {"strike_sequence": n_lengths, "strike_trace": 3,
                     "detect_peaks": 3}


@pytest.mark.parametrize("doc", [
    {"experiments": {"tail_characterize": {"lengths_mm": SWEEP_1MM,
                                           "record_s": 60.0}}},
    {"experiments": {"tail_characterize": {"lengths_mm": [15.0, 25.0, 35.0],
                                           "record_s": 60.0}}},
    {"regimes": {"jam_strike_prob": 0.0},
     "experiments": {"tail_characterize": {"lengths_mm": [16.0, 25.0, 18.0],
                                           "record_s": 30.0}}},
], ids=["sweep-1mm", "no-shared-sequence", "shared-empty-sequence"])
def test_tail_characterize_matches_one_pipeline_per_length(tmp_path, doc):
    """peaks.csv and summary.json are byte for byte what running the whole
    pipeline (sequence, dense oracle trace, peaks, 1-D bootstrap) per
    length writes."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["tail-characterize", "--config", str(cfg), "--seed", "5",
                 "--out", str(out)]) == 0
    config = load_config(cfg, {"seed": 5})
    analysis = config.analysis
    params = config.experiments["tail_characterize"]
    rows, summary = [], {}
    for length_mm in params["lengths_mm"]:
        tail = replace(config.tail, free_length=length_mm * 1e-3)
        regime = length_regime(tail.free_length, config.thresholds)
        events = strike_sequence(tail, config.angle_model, regime,
                                 params["record_s"], 5, config.thresholds)
        rate = analysis["trace_sample_rate_hz"]
        peaks = detect_peaks(
            ForceTrace(rate, oracle_strike_trace(events, rate,
                                                 tail.pulse_width)),
            analysis["peak_threshold_n"], analysis["min_separation_s"])
        rows += [(length_mm, k, v) for k, v in enumerate(peaks.values)]
        entry = summary[f"{length_mm:g}mm"] = {
            "n": peaks.count, "mean_N": 0.0, "ci_lo_N": 0.0, "ci_hi_N": 0.0,
            "regime": regime.value}
        if peaks.count:
            ci = bootstrap_ci(peaks.values, analysis["ci_level"],
                              analysis["bootstrap_resamples"], 5)
            entry.update(mean_N=ci.mean, ci_lo_N=ci.lower, ci_hi_N=ci.upper)
    expected = tmp_path / "expected"
    expected.mkdir()
    write_csv(expected / "peaks.csv", ["length_mm", "strike_idx", "peak_N"],
              rows)
    write_json(expected / "summary.json", summary)
    for name in ("peaks.csv", "summary.json"):
        assert (out / name).read_bytes() == (expected / name).read_bytes()
