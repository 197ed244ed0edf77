"""Tests of the benchmark itself: workloads at tiny sizes, the tracer, the
self-time arithmetic, failure counting and the compare verdicts."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = bench.load_spec()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass_at_tiny_size(name, tmp_path):
    workload = workloads.build(name, 0, str(tmp_path), workloads.TINY[name])
    record = bench.run_workload(workload, 0, True, str(tmp_path))
    assert record["failed"] == 0, [r["errors"] for r in record["rounds"]]
    assert record["attempted"] == 2 * len(workload.ops)
    metrics = record["metrics"]
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["name"] in metrics
    assert metrics["trace.self_sum_s"] <= metrics["trace.run_s"]
    assert not record["digest_mismatches"]


def test_tracer_restores_every_original(tmp_path):
    import skipsim.cli
    from skipsim.gait import PlanarPose, Trajectory
    from skipsim.stats import ForceTrace

    owners = [m for k, m in sys.modules.items()
              if k == "skipsim" or k.startswith("skipsim.")]
    owners += [Trajectory, ForceTrace]
    before = [(owner, dict(vars(owner))) for owner in owners]
    t = tracer.Tracer()
    t.install()
    try:
        replaced = sum(vars(owner)[k] is not v
                       for owner, attrs in before for k, v in attrs.items())
        assert replaced >= len(tracer.LAYERS)
        skipsim.cli.main(["tail-characterize", "--out", str(tmp_path)])
        path = str(tmp_path / "trajectory.csv")
        Trajectory([PlanarPose(0.0, 0.0, 0.0, 0.0),
                    PlanarPose(1.0, 0.0, 0.0, 1.0)]).write_csv(path)
        assert Trajectory.read_csv(path).net_displacement() == 1.0
    finally:
        t.uninstall()
    names = {t.names[span[0]] for span in t.spans}
    assert {"experiments.tail-characterize", "springtail.strike_sequence",
            "springtail.strike_trace", "stats.detect_peaks",
            "stats.bootstrap_ci", "config.load_config",
            "gait.Trajectory.write_csv", "gait.Trajectory.read_csv"} <= names
    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs)
        assert all(now[k] is v for k, v in attrs.items()), owner


def test_self_times_on_hand_built_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 3.0, 6.0, 0),  # overlaps a: the union counts once
        ("c", 9.0, 12.0, 0),  # runs past its parent: clipped to it
    ]
    assert tracer.self_times(spans) == [10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 3.0]


def test_broken_output_counts_as_failed(tmp_path):
    workload = workloads.build("calibrate-fit", 0, str(tmp_path),
                               workloads.TINY["calibrate-fit"])
    op = workload.ops[0]
    check = op.check

    def corrupt_then_check(outs):
        path = os.path.join(outs["calibrate"], "fit_summary.json")
        with open(path) as fh:
            fit = json.load(fh)
        fit["final_loss"] *= 1.0 + 1e-9
        with open(path, "w") as fh:
            json.dump(fit, fh)
        check(outs)

    op.check = corrupt_then_check
    record = bench.run_workload(workload, 0, False, str(tmp_path))
    assert record["attempted"] == 1
    assert record["failed"] == 1
    assert record["ops_failed_frac"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calibrate-fit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in base]
    paired = list(zip(base, faster))
    assert compare.verdict(paired, base, faster, "lower") == "better"
    assert compare.verdict(paired, base, faster, "higher") == "worse"
    same = list(zip(base, base))
    assert compare.verdict(same, base, base, "lower") == "unresolved"
