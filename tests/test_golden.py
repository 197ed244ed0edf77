"""Golden outputs: the sha256 of every file the seven CLI commands write at
--seed 0, pinned in tests/golden/digests.json.

A change that alters any output byte fails here. A change that does so on
purpose regenerates the digests and says why:

    PYTHONPATH=src python tests/test_golden.py

which prints the files whose digests it changed, added and removed.
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile

import pytest

from skipsim import fileio
from skipsim.cli import main
from skipsim.config import load_config
from skipsim.fileio import write_json
from skipsim.springtail import length_regime, strike_sequence, strike_trace

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden", "digests.json")
COMMANDS = ("tail-characterize", "gait-drift", "moisture-sweep",
            "substrate-bench", "scenario", "calibrate", "analyze")


def _write_trace(path):
    """A 10 s force trace of the default blade, as an external recording."""
    config = load_config()
    regime = length_regime(config.tail.free_length, config.thresholds)
    events = strike_sequence(config.tail, config.angle_model, regime, 10.0,
                             0, config.thresholds)
    strike_trace(events, config.analysis["trace_sample_rate_hz"],
                 config.tail.pulse_width).write_csv(path)


def _run(command, root):
    argv = [command, "--seed", "0", "--out", os.path.join(root, command)]
    if command == "analyze":
        trace = os.path.join(root, "input", "trace.csv")
        os.makedirs(os.path.dirname(trace), exist_ok=True)
        _write_trace(trace)
        trajectory = os.path.join(root, "gait-drift", "trial_sync_0.csv")
        if not os.path.exists(trajectory):
            _run("gait-drift", root)
        argv += ["--trace", trace, "--trajectory", trajectory]
    assert main(argv) == 0, command


def _digests(root):
    found = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as fh:
                found[rel] = hashlib.sha256(fh.read()).hexdigest()
    return found


@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_match_golden_digests(tmp_path, command):
    _run(command, str(tmp_path))
    found = _digests(str(tmp_path))
    with open(DIGESTS) as fh:
        pinned = json.load(fh)
    # analyze also leaves its inputs (a gait-drift run and a force trace)
    dirs = {rel.split("/")[0] for rel in found}
    assert command in dirs
    assert found == {rel: digest for rel, digest in pinned.items()
                     if rel.split("/")[0] in dirs}


def test_golden_inputs_never_enter_the_row_loop(tmp_path, monkeypatch):
    """numpy's parser alone reads the golden force trace and a gait-drift
    trajectory: `fileio.read_csv`, the row loop for what it refuses, is
    never called."""
    calls = []
    real = fileio.read_csv

    def spy(path, *args):
        calls.append(os.path.basename(path))
        return real(path, *args)

    monkeypatch.setattr(fileio, "read_csv", spy)
    _run("analyze", str(tmp_path))
    assert os.path.exists(os.path.join(tmp_path, "analyze", "analysis.json"))
    assert calls == []


def _report(old, new):
    """Lines naming the files whose digest `new` changes, adds and removes
    against `old`."""
    lines = []
    for label, names in (
            ("changed", [k for k in new if k in old and new[k] != old[k]]),
            ("added", [k for k in new if k not in old]),
            ("removed", [k for k in old if k not in new])):
        lines.append(f"{label}: {len(names)}")
        lines += [f"  {name}" for name in sorted(names)]
    return lines


def test_report_names_changed_added_and_removed():
    old = {"a/x.csv": "1", "a/y.csv": "2", "b/z.json": "3"}
    new = {"a/x.csv": "1", "a/y.csv": "9", "c/w.json": "4"}
    assert _report(old, new) == ["changed: 1", "  a/y.csv", "added: 1",
                                 "  c/w.json", "removed: 1", "  b/z.json"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        with contextlib.redirect_stdout(sys.stderr):
            for command in COMMANDS:
                _run(command, root)
        digests = _digests(root)
    old = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            old = json.load(fh)
    os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
    write_json(DIGESTS, digests)
    print("\n".join(_report(old, digests)))
    print(f"{len(digests)} digests -> {DIGESTS}", file=sys.stderr)
