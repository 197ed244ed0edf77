"""skipsim benchmark: run one workload in a closed loop and print its metrics.

    python3 perfbench/run.py --workload calibrate-fit --seed 0 --seconds 30 --trace 0

Run from a source checkout; the package is taken from its src/. One client
runs the workload's skipsim commands one at a time, each in a fresh
interpreter (perfbench/child.py) through skipsim.cli.main. A round is one
pass over the commands; rounds repeat until --seconds have passed. Every
command's output is checked; a non-zero exit or a failed check counts as a
failed operation.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: setup_s
(interpreter start until skipsim is imported and load_config returned,
summed over a round's commands; median over rounds), run_s (the rest of
the commands' wall time, scaled to a host of fixed speed; median over
rounds) and peak_rss_mb (the largest max-RSS of any command). --trace 1
alternates untraced and traced rounds and reports the per-layer metrics
(medians over traced rounds), including the traced run_s and its overhead
over the untraced one, both as measured.

Scaling run_s: a shared host's speed drifts by 20-40% over minutes, which
moves a run's wall time by as much as a real change would. Before the
first round and after every round the harness times a fixed kernel that
runs no skipsim code (reference_s); a round's run_s is multiplied by
REFERENCE_S over the mean of the two readings around it. The unscaled
median and the readings are kept in the run record ("raw", "rounds").

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A full record of the run (environment,
sizes, per-round samples, output file digests) is appended to
.perfbench/results.jsonl, which perfbench/compare.py reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import LAYERS, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
OP_TIMEOUT_S = 150
# run_s is reported in seconds of a host on which reference_s() reads this
# (about its reading on a 2-vCPU x86_64 host at its faster pace).
REFERENCE_S = 0.03


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(op, traced, report_path, cwd):
    """Run one op in a fresh interpreter. Returns (report or None, stderr,
    setup_s, run_s)."""
    for path in (report_path, report_path + ".trace"):
        if os.path.exists(path):
            os.remove(path)
    argv = [sys.executable, str(BENCH_DIR / "child.py"), report_path,
            "1" if traced else "0", *op.argv]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=cwd,
                              capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {OP_TIMEOUT_S} s", 0.0, 0.0
    end = time.monotonic()
    if not os.path.exists(report_path):
        return None, proc.stderr, 0.0, 0.0
    with open(report_path) as fh:
        report = json.load(fh)
    if Path(report["module"]).resolve().parent != SRC / "skipsim":
        raise RuntimeError(f"child imported skipsim from {report['module']}, "
                           f"not from {SRC}")
    report["exit"] = proc.returncode
    setup_s = report["ready"] - start
    run_s = end - report["ready"] - report.get("dump_s", 0.0)
    return report, proc.stderr, setup_s, run_s


def file_digests(op):
    """sha256 and size of every file an op wrote, keyed 'op/relative path'."""
    digests, sizes = {}, {}
    for dirpath, _, files in os.walk(op.out):
        for name in files:
            path = os.path.join(dirpath, name)
            key = f"{op.name}/{os.path.relpath(path, op.out)}"
            with open(path, "rb") as fh:
                data = fh.read()
            digests[key] = hashlib.sha256(data).hexdigest()
            sizes[key] = len(data)
    return digests, sizes


class LayerTotals:
    """Span and counter totals of the traced commands of one round."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.counts = Counter()
        self.self_sum_s = 0.0

    def add(self, report, trace, input_strikes):
        names = trace["names"]
        spans = trace["spans"]
        for (idx, start, end, _), own in zip(spans, self_times(spans)):
            name = names[idx]
            self.calls[name] += 1
            self.self_s[name] += own
            self.total_s[name] += end - start
            if start >= report["ready"]:
                self.self_sum_s += own
        self.counts.update(trace["counts"])
        self.counts["stats.input_strikes"] += input_strikes
        self.counts["gait.cache_hits"] += trace["cache"]["hits"]
        self.counts["gait.cache_misses"] += trace["cache"]["misses"]

    def metrics(self, run_s, files, bytes_written):
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for _, _, name, _ in LAYERS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            if name.startswith("experiments."):
                out[f"{name}.s"] = self.total_s[name]
        out.update({
            "calibrate.improve_ratio": ratio(c["calibrate.improvements"],
                                             c["calibrate.evaluations"]),
            "locomotion.failure_ratio": ratio(
                c["locomotion.failed_trials"],
                self.calls["locomotion.run_trial"]),
            "springtail.strikes": c["springtail.strikes"],
            "springtail.trace_samples": c["springtail.trace_samples"],
            "stats.peak_yield": ratio(
                c["stats.peaks"],
                c["springtail.traced_strikes"] + c["stats.input_strikes"]),
            "stats.bootstrap_resamples": c["stats.bootstrap_resamples"],
            "gait.cycles": c["gait.cycles"],
            "gait.controller_steps": c["gait.controller_steps"],
            "gait.nominal_cycle_times.hit_ratio": ratio(
                c["gait.cache_hits"],
                c["gait.cache_hits"] + c["gait.cache_misses"]),
            "experiments.files_written": files,
            "experiments.bytes_written": bytes_written,
            "trace.run_s": run_s,
            "trace.self_sum_s": self.self_sum_s,
        })
        return out


def run_round(workload, traced, work):
    """Run every op of the workload once; returns the round's record."""
    from workloads import CheckFailed  # importable once main() found src/
    outs = {op.name: op.out for op in workload.ops}
    for out in outs.values():
        shutil.rmtree(out, ignore_errors=True)
    reports = os.path.join(work, "reports")
    os.makedirs(reports, exist_ok=True)
    rnd = {"traced": traced, "setup_s": 0.0, "run_s": 0.0, "peak_rss_mb": 0.0,
           "attempted": 0, "failed": 0, "errors": [], "digests": {},
           "op_run_s": {}}
    layers = LayerTotals() if traced else None
    bytes_written = 0
    for op in workload.ops:
        report_path = os.path.join(reports, f"{op.name}.json")
        report, stderr, setup_s, run_s = spawn(op, traced, report_path, work)
        rnd["attempted"] += 1
        error = None
        if report is None or report["exit"] != 0:
            error = f"exit {report and report['exit']}: {stderr.strip()[-500:]}"
        else:
            try:
                op.check(outs)
            except (CheckFailed, OSError, ValueError, KeyError, TypeError,
                    IndexError) as exc:
                error = f"check failed: {type(exc).__name__}: {exc}"
        if error is not None:
            rnd["failed"] += 1
            rnd["errors"].append(f"{op.name}: {error}")
            print(f"perfbench: {op.name}: {error}", file=sys.stderr)
        if report is None:
            continue
        rnd["setup_s"] += setup_s
        rnd["run_s"] += run_s
        rnd["op_run_s"][op.name] = run_s
        rnd["peak_rss_mb"] = max(rnd["peak_rss_mb"],
                                 report["maxrss_kib"] / 1024.0)
        digests, sizes = file_digests(op)
        rnd["digests"].update(digests)
        bytes_written += sum(sizes.values())
        if traced:
            with open(report_path + ".trace") as fh:
                layers.add(report, json.load(fh), op.input_strikes)
    if traced:
        rnd["layers"] = layers.metrics(rnd["run_s"], len(rnd["digests"]),
                                       bytes_written)
        if rnd["layers"]["trace.self_sum_s"] > rnd["run_s"]:
            raise RuntimeError("layer self times exceed the traced run time")
    return rnd


def digest_id(digests):
    """The first 52 bits of a sha256 over all output digests, exact as a
    JSON number."""
    text = "".join(f"{k}:{v}\n" for k, v in sorted(digests.items()))
    return int(hashlib.sha256(text.encode()).hexdigest()[:13], 16)


def environment():
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        commit = (lines[1] if git.returncode == 0 and len(lines) == 2
                  and Path(lines[0]).resolve() == ROOT else None)
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "skipsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(SRC)).encode() + b"\0")
            source.update(path.read_bytes())
    import numpy
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def reference_s():
    """Fastest of three passes of a fixed CPU kernel (Python bytecode and a
    numpy sort) that runs no skipsim code: a gauge of the host's current
    speed."""
    import numpy
    data = numpy.random.default_rng(0).random(20_000)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i
        for _ in range(25):
            numpy.sort(data)
        times.append(time.perf_counter() - start)
    return min(times)


def run_workload(workload, seconds, trace, work):
    """Warm up, then run rounds for `seconds` (untraced and, with `trace`,
    traced rounds in turn). Returns the run's record."""
    warm = subprocess.run([sys.executable, "-c", "import skipsim.cli"],
                          env=child_env(), cwd=work, capture_output=True,
                          text=True, timeout=OP_TIMEOUT_S)
    if warm.returncode != 0:
        raise RuntimeError(f"cannot import skipsim: {warm.stderr.strip()}")
    rounds = []
    refs = [reference_s()]
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(workload, traced, work))
        refs.append(reference_s())
        if time.monotonic() >= deadline and (not trace or len(rounds) >= 2):
            break
    for rnd, before, after in zip(rounds, refs, refs[1:]):
        rnd["reference_s"] = (before + after) / 2
        rnd["run_ref_s"] = rnd["run_s"] * REFERENCE_S / rnd["reference_s"]
    plain = [r for r in rounds if not r["traced"]]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "run_s": statistics.median(r["run_ref_s"] for r in plain),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
    }
    raw = {"run_s": statistics.median(r["run_s"] for r in plain),
           "reference_s": statistics.median(r["reference_s"] for r in plain)}
    reference = rounds[0]["digests"]
    if trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        for name in traced_rounds[0]["layers"]:
            metrics[name] = statistics.median(
                r["layers"][name] for r in traced_rounds)
        # medians on both sides, like the other per-layer metrics; a median
        # keeps trace.self_sum_s <= trace.run_s, which holds in every round
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - raw["run_s"]
        metrics["outputs.digest"] = digest_id(reference)
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    mismatched = sorted({k for r in rounds[1:] for k in
                         set(reference) | set(r["digests"])
                         if reference.get(k) != r["digests"].get(k)})
    if mismatched:
        # reported, not failed: outputs may change bytes on purpose
        print(f"perfbench: outputs differ between rounds: {mismatched[:5]}",
              file=sys.stderr)
    return {
        "workload": workload.name,
        "cli_seed": workload.seed,
        "sizes": workload.sizes,
        "trace": trace,
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "metrics": metrics,
        "raw": raw,
        "digests": reference,
        "digest_mismatches": mismatched,
        "rounds": [{k: v for k, v in r.items() if k != "digests"}
                   for r in rounds],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "skipsim" / "__init__.py").is_file():
        print(f"perfbench: no skipsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = STATE / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, str(work))
    record = run_workload(workload, args.seconds, bool(args.trace), str(work))
    record.update(seed=args.seed, env=environment(), time=time.time())
    with open(STATE / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
