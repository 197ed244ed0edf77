import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from skipsim import experiments, gait, locomotion
from skipsim.calibrate import MAX_RESTARTS
from skipsim.cli import build_parser, main
from skipsim.config import (ConfigError, default_dict, document, load_config,
                            tail_lengths, trial_specs)
from skipsim.fileio import write_json
from skipsim.gait import (MAX_FIN_SPEED, MAX_TICKS, MAX_TRIAL_S, GaitConfig,
                          GaitMode, drift_duration, drift_trials, run_cycles,
                          schedule_ticks)
from skipsim.locomotion import MAX_TRIALS
from skipsim.springtail import MAX_STRIKES, MAX_TRACE_SAMPLES
from skipsim.stats import MAX_BOOTSTRAP_RESAMPLES, ForceTrace
from skipsim.terrain import Material


def _floats(value):
    """`value` with every integer in it spelled as a float."""
    if isinstance(value, dict):
        return {k: _floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_floats(v) for v in value]
    return float(value) if type(value) is int else value


def _leaves(doc, path=""):
    for key, value in doc.items():
        dotted = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _leaves(value, dotted)
        else:
            yield dotted, value


# every key the config type-checks
TYPED_KEYS = [(k, v) for k, v in _leaves(default_dict())
              if k != "schema_version"]


class TestConfig:
    def test_defaults_build(self):
        config = load_config()
        assert config.tail.free_length == pytest.approx(25e-3)
        assert config.seed == 0
        assert Material.GRASS in config.responses

    def test_unknown_key_rejected_by_name(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"noise": {"track_widht_m": 0.05}}))
        with pytest.raises(ConfigError, match="noise.track_widht_m"):
            load_config(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"robots": {}}))
        with pytest.raises(ConfigError, match="robots"):
            load_config(path)

    def test_partial_override_merges(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"robot": {"mass_kg": 0.04}}))
        config = load_config(path)
        assert config.robot.mass == 0.04
        assert config.tail.width == pytest.approx(10e-3)

    def test_invalid_values_surface_as_config_errors(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tail": {"thickness_m": -1.0}}))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("dotted, default", TYPED_KEYS,
                             ids=[k for k, _ in TYPED_KEYS])
    def test_mistyped_value_names_its_key(self, dotted, default):
        override = 3 if isinstance(default, str) else "3"
        for key in reversed(dotted.split(".")):
            override = {key: override}
        with pytest.raises(ConfigError, match=re.escape(f"key {dotted} must")):
            load_config(overrides=override)

    def test_written_defaults_rebuild_equal_config(self, tmp_path):
        path = tmp_path / "defaults.json"
        write_json(path, default_dict())
        assert load_config(path) == load_config()
        assert document(load_config()) == default_dict()

    def test_defaults_are_schema_complete(self):
        doc = default_dict()
        assert doc["schema_version"] == 1
        assert set(doc["substrates"]) == {m.value for m in Material}


class TestDocument:
    """A config is written from its typed fields, so how a typed number was
    spelled does not reach the written document."""

    def test_integer_spelling_loads_and_writes_the_same(self, tmp_path):
        outs = []
        for spelled in ("1", "1.0"):
            cfg = tmp_path / f"cfg{spelled}.json"
            cfg.write_text('{"tail": {"motor_rev_per_s": %s}}' % spelled)
            outs.append(tmp_path / spelled)
            assert main(["calibrate", "--config", str(cfg), "--budget", "2",
                         "--out", str(outs[-1])]) == 0
        assert load_config(tmp_path / "cfg1.json") == load_config(
            tmp_path / "cfg1.0.json")
        first, second = (out / "fitted_config.json" for out in outs)
        assert first.read_bytes() == second.read_bytes()
        assert json.loads(first.read_text())["tail"]["motor_rev_per_s"] == 1.0

    @pytest.mark.parametrize("doc", [
        {"analysis": {"trace_sample_rate_hz": 2000}},
        {"experiments": {"tail_characterize": {"lengths_mm": [15, 20.5],
                                               "record_s": 10}}},
        {"experiments": {"moisture_sweep": {"uniform_sand_grid": [0, 0.15],
                                            "duration_s": 30}}},
        {"experiments": {"substrate_bench": {"conditions": [["grass", 0]]}}},
        {"experiments": {"scenario": {"segments": [["grass", "skip", 12, 0]]}}},
    ], ids=["analysis-scalar", "lengths", "grid-and-duration", "condition",
            "segment"])
    def test_untyped_integer_spelling_writes_the_same(self, tmp_path, doc):
        """In `analysis` and `experiments` too, an integer where the default
        holds a float is stored as a float."""
        outs = []
        for name, spelled in (("int", doc), ("float", _floats(doc))):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(spelled))
            outs.append(tmp_path / name)
            assert main(["calibrate", "--config", str(cfg), "--budget", "2",
                         "--out", str(outs[-1])]) == 0
        assert load_config(tmp_path / "int.json") == load_config(
            tmp_path / "float.json")
        first, second = (out / "fitted_config.json" for out in outs)
        assert first.read_bytes() == second.read_bytes()

    def test_integer_defaults_stay_integers(self):
        config = load_config(overrides={
            "analysis": {"bootstrap_resamples": 500},
            "experiments": {"gait_drift": {"trials": 4},
                            "calibrate": {"budget": 7, "restarts": 2}}})
        experiments = document(config)["experiments"]
        assert [type(v) for v in (
            document(config)["analysis"]["bootstrap_resamples"],
            experiments["gait_drift"]["trials"],
            experiments["calibrate"]["budget"],
            experiments["calibrate"]["restarts"])] == [int] * 4

    def test_written_document_is_typed_and_rebuilds_the_config(self):
        config = load_config(overrides={
            "gait": {"magnet_angles_rad": [7, -1]}, "robot": {"mass_kg": 1}})
        doc = json.loads(json.dumps(document(config)))
        assert doc["robot"]["mass_kg"] == 1.0
        assert isinstance(doc["robot"]["mass_kg"], float)
        # wrapped into [0, 2*pi) and sorted, as the encoder holds them
        assert doc["gait"]["magnet_angles_rad"] == sorted(
            a % (2 * math.pi) for a in (7.0, -1.0))
        assert load_config(overrides=doc) == config


class TestCli:
    def test_tail_characterize_outputs(self, tmp_path):
        out = tmp_path / "tail"
        assert main(["tail-characterize", "--out", str(out), "--assert"]) == 0
        assert (out / "peaks.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["25mm"]["n"] == 10

    def test_scenario_switch_log(self, tmp_path):
        out = tmp_path / "s"
        assert main(["scenario", "--out", str(out), "--assert"]) == 0
        log = json.loads((out / "switch_log.json").read_text())
        assert len(log["switches"]) == 1
        assert log["switches"][0]["time_s"] == pytest.approx(12.0)
        assert log["total_duration_s"] == pytest.approx(18.0)

    def test_moisture_sweep_small_grid(self, tmp_path):
        out = tmp_path / "m"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": {"moisture_sweep": {
            "uniform_sand_grid": [0.15], "bentonite_clay_grid": [0.2]}}}))
        assert main(["moisture-sweep", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "material,moisture,mode,mean_cmps,std_cmps,failures"
        assert len(rows) == 1 + 2 * 3  # two grid points, three modes

    def test_calibrate_writes_artifacts(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--out", str(out), "--budget", "4"]) == 0
        assert (out / "fitted_config.json").exists()
        trace = (out / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "evaluation,best_loss"
        best = [float(r.split(",")[1]) for r in trace[1:]]
        assert all(a >= b for a, b in zip(best, best[1:]))

    def test_analyze_external_files(self, tmp_path):
        trace_csv = tmp_path / "trace.csv"
        traj_csv = tmp_path / "traj.csv"
        import numpy as np
        t = np.arange(4001) / 2000.0
        samples = np.zeros_like(t)
        for t0 in (0.5, 1.5):
            mask = (t >= t0) & (t <= t0 + 0.01)
            samples[mask] = 4.0 * np.sin(math.pi * (t[mask] - t0) / 0.01)
        ForceTrace(2000.0, samples).write_csv(trace_csv)
        next(drift_trials(GaitMode.SYNC, seeds=[0])).write_csv(traj_csv)
        out = tmp_path / "a"
        assert main(["analyze", "--trace", str(trace_csv),
                     "--trajectory", str(traj_csv), "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["trace"]["n"] == 2
        assert report["trajectory"]["net_displacement_m"] >= 1.0



SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                       "digests.json")


def _python(*args):
    """Run this interpreter on `args` in a fresh process, skipsim imported
    from this checkout's source."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, text=True,
                          capture_output=True, timeout=120)


class TestCliProcess:
    """The CLI as a process: exit codes, stdout and stderr, and files
    complete once the interpreter has exited."""

    def test_scenario_exits_0_with_golden_outputs(self, tmp_path):
        out = tmp_path / "scenario"
        proc = _python("-m", "skipsim.cli", "scenario", "--assert",
                       "--seed", "0", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("scenario: 1 switches, ")
        assert proc.stdout.endswith(f" m -> {out}\n")
        assert proc.stdout.count("\n") == 1
        assert proc.stderr == ""
        with open(DIGESTS) as fh:
            pinned = {rel.split("/", 1)[1]: digest
                      for rel, digest in json.load(fh).items()
                      if rel.startswith("scenario/")}
        assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in out.iterdir()} == pinned

    def test_only_the_cli_freezes_the_collector(self):
        # importing the library leaves the collector alone; importing the
        # CLI moves its import-time objects into the permanent generation
        proc = _python("-c", "import gc, skipsim; "
                       "library = gc.get_freeze_count(); import skipsim.cli; "
                       "print(library, gc.get_freeze_count())")
        assert proc.returncode == 0, proc.stderr
        library, cli = map(int, proc.stdout.split())
        assert library == 0 and cli > 0


FINEST_DT = MAX_TRIAL_S / MAX_TICKS
TOO_FINE = math.nextafter(FINEST_DT, 0.0)


class TestLimits:
    """The limits config load checks: each bound itself loads, and the model
    refuses what lies past it. tests/test_cli_cases.py holds what each
    command refuses. Nothing here plans a large schedule, runs a trial at
    the trial limit or synthesizes a trace at the sample limit."""

    @pytest.mark.parametrize("distance", [1e6, 1e308, math.inf])
    def test_huge_drift_distances_are_refused(self, distance):
        with pytest.raises(ValueError, match="is too long"):
            drift_duration(GaitMode.ASYNC, GaitConfig(), distance)

    def test_tick_bound_sits_at_the_longest_schedule(self):
        assert GaitConfig(dt=FINEST_DT).dt == FINEST_DT
        assert schedule_ticks(MAX_TRIAL_S, FINEST_DT) == MAX_TICKS
        with pytest.raises(ValueError, match="gait dt must be at least"):
            GaitConfig(dt=TOO_FINE)

    @pytest.mark.parametrize("duration,dt", [
        (MAX_TRIAL_S, TOO_FINE), (30.0, 5e-324), (30.0, 1e-7),
        (math.inf, 0.01), (1e308, 1e-308)])
    @pytest.mark.parametrize("mode", list(GaitMode), ids=lambda m: m.value)
    def test_run_cycles_refuses_before_planning(self, monkeypatch, mode,
                                                duration, dt):
        def no_plan(*args, **kwargs):
            raise AssertionError("a fin's rises were planned")

        monkeypatch.setattr(gait, "_rises", no_plan)
        with pytest.raises(ValueError, match="controller ticks"):
            run_cycles(mode, duration, dt)

    @pytest.mark.parametrize("resamples", [1, MAX_BOOTSTRAP_RESAMPLES])
    def test_resample_bounds_load(self, resamples):
        config = load_config(overrides={
            "analysis": {"bootstrap_resamples": resamples}})
        assert config.analysis["bootstrap_resamples"] == resamples

    def test_the_trial_limit_itself_loads(self):
        args = build_parser().parse_args(["moisture-sweep", "--trials",
                                          str(MAX_TRIALS)])
        assert args.trials == MAX_TRIALS
        config = load_config(overrides={"experiments": {
            "calibrate": {"n_trials": MAX_TRIALS},
            "moisture_sweep": {"trials": MAX_TRIALS}}})
        assert config.experiments["calibrate"]["n_trials"] == MAX_TRIALS

    # 2048 Hz and a 2**-7 s (16-sample) pulse: the limit's duration is
    # exact in binary, and so is its product
    @pytest.mark.parametrize("record_s, rate, pulse", [
        ((MAX_TRACE_SAMPLES - 17) / 2048.0, 2048.0, 2.0 ** -7),
        (MAX_TRIAL_S, 2000.0, 0.01)],
        ids=["the-limit", "longest-trial-at-2khz"])
    def test_records_up_to_the_sample_limit_load(self, record_s, rate, pulse):
        config = load_config(overrides={
            "tail": {"pulse_width_s": pulse},
            "analysis": {"trace_sample_rate_hz": rate},
            "experiments": {"tail_characterize": {"record_s": record_s}}})
        assert config.experiments["tail_characterize"]["record_s"] == record_s

    @pytest.mark.parametrize("rate", [0.0, 199.99999999999997])
    def test_a_rate_just_under_two_samples_a_pulse_is_refused(self, rate):
        with pytest.raises(ConfigError, match="trace_sample_rate_hz"):
            load_config(overrides={"analysis": {"trace_sample_rate_hz": rate}})

    def test_two_samples_a_pulse_loads(self):
        config = load_config(overrides={
            "analysis": {"trace_sample_rate_hz": 200.0}})
        assert config.analysis["trace_sample_rate_hz"] == 200.0

    def test_the_length_bounds_load(self):
        config = load_config(overrides={"experiments": {
            "tail_characterize": {"record_s": 0},
            "gait_drift": {"distance_m": 5e-324},
            "calibrate": {"duration_s": MAX_TRIAL_S}}})
        assert config.experiments["calibrate"]["duration_s"] == MAX_TRIAL_S

    def test_every_material_and_mode_loads(self):
        segments = [[m.value, mode.value, 1.0, 0.0] for m in Material
                    for mode in locomotion.LocomotionMode]
        config = load_config(overrides={"experiments": {
            "scenario": {"segments": segments},
            "substrate_bench": {"conditions": [[m.value, 1.2]
                                               for m in Material]}}})
        assert config.experiments["scenario"]["segments"] == segments

    def test_the_strike_limit_itself_loads(self):
        for section, key in (("tail_characterize", "record_s"),
                             ("calibrate", "duration_s")):
            config = load_config(overrides={
                "tail": {"motor_rev_per_s": MAX_STRIKES / 64.0},
                "experiments": {section: {key: 64.0}}})
            assert config.tail.motor_speed * 64.0 == MAX_STRIKES

    def test_the_fin_speed_and_restart_limits_load(self):
        # a step under the detection window, which the fastest fin needs
        config = load_config(overrides={
            "gait": {"fin_speed_rad_s": MAX_FIN_SPEED, "dt_s": 0.001},
            "experiments": {"calibrate": {"restarts": MAX_RESTARTS}}})
        assert config.gait.fin_speed == MAX_FIN_SPEED
        assert config.experiments["calibrate"]["restarts"] == MAX_RESTARTS


def _tree_bytes(root):
    found = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, "rb") as fh:
                found[rel] = fh.read()
    return found


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["tail-characterize"],
        ["gait-drift"],
        ["substrate-bench"],
        ["scenario"],
    ])
    def test_reruns_are_byte_identical(self, tmp_path, argv):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out", str(a), "--seed", "0"]) == 0
        assert main(argv + ["--out", str(b), "--seed", "0"]) == 0
        assert _tree_bytes(a) == _tree_bytes(b)


class TestFittedConfigRoundTrip:
    def test_fitted_config_loads_and_reproduces(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--out", str(out), "--budget", "2"]) == 0
        fitted = out / "fitted_config.json"
        config = load_config(fitted)
        assert Material.BENTONITE_CLAY in config.responses
        # a budget-2 fit cannot leave the shipped optimum
        bench_out = tmp_path / "bench"
        assert main(["substrate-bench", "--config", str(fitted),
                     "--out", str(bench_out), "--assert"]) == 0


# Small sizes, so that each command below runs in well under a second.
SMALL = {"experiments": {
    "tail_characterize": {"record_s": 3.0},
    "gait_drift": {"trials": 1},
    "moisture_sweep": {"trials": 1, "duration_s": 5.0},
    "substrate_bench": {"trials": 1, "duration_s": 5.0},
    "calibrate": {"budget": 2, "n_trials": 1, "duration_s": 5.0},
}}
VALUE_FLAGS = [(command, "--seed", ("seed",), 3) for command in (
    "tail-characterize", "gait-drift", "moisture-sweep", "substrate-bench",
    "scenario", "calibrate", "analyze")] + [
    (command, "--trials", ("experiments", command.replace("-", "_"),
                           "trials"), 2)
    for command in ("gait-drift", "moisture-sweep", "substrate-bench")] + [
    ("calibrate", "--budget", ("experiments", "calibrate", "budget"), 3)]


class TestValueFlags:
    """--seed, --trials and --budget each set one config key, which
    load_config checks with the file's values; a runner reads only the
    config."""

    @pytest.mark.parametrize("command, flag, key, value", VALUE_FLAGS,
                             ids=[f"{c}{f}" for c, f, _, _ in VALUE_FLAGS])
    def test_flag_writes_what_its_config_key_writes(self, tmp_path, command,
                                                    flag, key, value):
        trace = tmp_path / "trace.csv"
        trace.write_text("time_s,force_N\n0,0\n0.5,2\n1,0\n1.5,3\n2,0\n")
        extra = ["--trace", str(trace)] if command == "analyze" else []
        doc = json.loads(json.dumps(SMALL))
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(doc))
        node = doc
        for part in key[:-1]:
            node = node.setdefault(part, {})
        node[key[-1]] = value
        keyed = tmp_path / "keyed.json"
        keyed.write_text(json.dumps(doc))
        by_flag, by_key = tmp_path / "flag", tmp_path / "key"
        assert main([command, "--config", str(plain), flag, str(value),
                     "--out", str(by_flag), *extra]) == 0
        assert main([command, "--config", str(keyed), "--out", str(by_key),
                     *extra]) == 0
        assert _tree_bytes(by_flag) == _tree_bytes(by_key)

    def test_fitted_config_records_the_flags(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--seed", "5", "--budget", "7",
                     "--out", str(out)]) == 0
        fitted = out / "fitted_config.json"
        doc = json.loads(fitted.read_text())
        assert doc["seed"] == 5
        assert doc["experiments"]["calibrate"]["budget"] == 7
        config = load_config(fitted)
        assert config.seed == 5
        assert config.experiments["calibrate"]["budget"] == 7
        assert json.loads((out / "fit_summary.json").read_text())[
            "evaluations"] == 7

    def test_sweep_holds_one_batch_of_trial_rows(self, tmp_path):
        # all 39,000 rows of a 1000-trial sweep take about 7 MB as a list;
        # one batch's outcomes and the units take under 0.5 MB (1.4 MB cold)
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            assert main(["moisture-sweep", "--trials", "1000",
                         "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with open(out / "trials.csv") as fh:
            assert sum(1 for _ in fh) == 1 + 39 * 1000
        assert peak < 3 << 20


class TestRunnersRunWhatLoadBuilds:
    @pytest.mark.parametrize("command", ["moisture-sweep", "substrate-bench",
                                         "scenario", "tail-characterize"])
    def test_each_runner_runs_what_config_load_builds(
            self, tmp_path, monkeypatch, command):
        """A batch runner builds units for exactly `trial_specs`, the
        scenario runs them, and tail-characterize draws the strikes of
        exactly `tail_lengths`' blades."""
        section = command.replace("-", "_")
        seen = []

        def spy(original, index):
            def wrapper(*args, **kwargs):
                seen.append(args[index])
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(experiments, "build_units",
                            spy(experiments.build_units, 0))
        monkeypatch.setattr(experiments, "scenario_heterogeneous",
                            spy(experiments.scenario_heterogeneous, 0))
        monkeypatch.setattr(experiments, "strike_sequence",
                            spy(experiments.strike_sequence, 0))
        argv = [command, "--seed", "7", "--out", str(tmp_path / "o")]
        trials = command in ("moisture-sweep", "substrate-bench")
        assert main(argv + (["--trials", "1"] if trials else [])) == 0
        config = load_config(overrides={"seed": 7})
        if command == "tail-characterize":
            assert seen == [tail for _, tail in tail_lengths(config).values()]
        else:
            seed = config.seed if command == "scenario" else 0
            assert seen == [trial_specs(config.experiments, section, seed)]
