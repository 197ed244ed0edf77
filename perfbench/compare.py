"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records that perfbench/run.py appended to
.perfbench/results.jsonl. For every (metric, workload) pair the table shows
each side's sample count, median and quartiles, and the change's median as
a ratio of the base median. Untraced runs give the end-to-end metrics and
ops_failed_frac; traced runs give the per-layer metrics.

An end-to-end verdict is `better` or `worse` when the change wins (loses)
at least nine tenths of the paired runs, ties counting for neither, and the
medians differ by more than the base's interquartile range; otherwise it
is `unresolved`. Runs pair by seed when both sides ran the same seeds, else
in order. `exceeds bound` marks a change median that is worse than the base
median by more than the metric's bound in BENCHMARK.json. The last section
says, per workload and seed, whether the output files stayed
byte-identical.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def pairs(base, change):
    """(base value, change value) pairs from two lists of (seed, value)."""
    base_seeds = [s for s, _ in base]
    if sorted(base_seeds) == sorted(s for s, _ in change):
        by_seed = dict(change)
        return [(v, by_seed[s]) for s, v in base]
    return [(b, c) for (_, b), (_, c) in zip(base, change)]


def verdict(paired, base_values, change_values, better):
    """better / worse / unresolved under the nine-tenths-of-pairs rule."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in paired)
    losses = sum(sign * (c - b) < 0 for b, c in paired)
    q1, q3 = quartiles(base_values)
    gain = sign * (statistics.median(change_values)
                   - statistics.median(base_values))
    if wins >= 0.9 * len(paired) and gain > q3 - q1:
        return "better"
    if losses >= 0.9 * len(paired) and -gain > q3 - q1:
        return "worse"
    return "unresolved"


def series(records, traced, metric):
    """workload -> [(seed, value)] for records of the given trace mode."""
    out = defaultdict(list)
    for r in records:
        if r["trace"] != traced:
            continue
        value = (r["ops_failed_frac"] if metric == "ops_failed_frac"
                 else r["metrics"].get(metric))
        if value is not None:
            out[r["workload"]].append((r["seed"], value))
    return out


def describe(values):
    q1, q3 = quartiles(values)
    return (f"n={len(values):<3d} median {statistics.median(values):<11.5g} "
            f"q1 {q1:<11.5g} q3 {q3:.5g}")


def table(base, change, metrics, traced):
    for m in metrics:
        b_series = series(base, traced, m["name"])
        c_series = series(change, traced, m["name"])
        for workload in sorted(set(b_series) & set(c_series)):
            b = [v for _, v in b_series[workload]]
            c = [v for _, v in c_series[workload]]
            b_med, c_med = statistics.median(b), statistics.median(c)
            ratio = (f"{c_med / b_med:.3f}x of base {b_med:.5g} {m['unit']}"
                     if b_med else f"{c_med:.5g} {m['unit']} (base 0)")
            line = (f"{m['name']} on {workload}\n"
                    f"    base   {describe(b)}\n"
                    f"    change {describe(c)}\n"
                    f"    change median {ratio}")
            if not traced:
                paired = pairs(b_series[workload], c_series[workload])
                line += f"; {verdict(paired, b, c, m['better'])}"
                worse = (c_med - b_med) * (1 if m["better"] == "lower" else -1)
                if "bound" in m and worse > m["bound"] * abs(b_med):
                    line += f"; exceeds bound {m['bound']:.0%}"
            print(line)


def digests(records):
    out = {}
    for r in records:
        out.setdefault((r["workload"], r["seed"]), r["digests"])
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    base, change = load(argv[0]), load(argv[1])
    print("== end to end (untraced runs)")
    failed = {"name": "ops_failed_frac", "unit": "ratio", "better": "lower"}
    table(base, change, spec["end_to_end"] + [failed], traced=False)
    print("== per layer (traced runs)")
    table(base, change, spec["per_layer"], traced=True)
    print("== output digests")
    b_dig, c_dig = digests(base), digests(change)
    for key in sorted(set(b_dig) & set(c_dig)):
        differ = sorted(k for k in set(b_dig[key]) | set(c_dig[key])
                        if b_dig[key].get(k) != c_dig[key].get(k))
        state = (f"{len(differ)} files differ, e.g. {differ[:3]}" if differ
                 else "byte-identical")
        print(f"{key[0]:<15s} seed {key[1]:<6d} {state}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
