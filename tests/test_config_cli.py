import json
import math
import os
import re

import pytest

from skipsim import experiments
from skipsim.cli import main
from skipsim.config import ConfigError, default_dict, load_config
from skipsim.fileio import write_json
from skipsim.gait import GaitMode, drift_trial
from skipsim.stats import ForceTrace
from skipsim.terrain import Material


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

    def test_defaults_are_schema_complete(self):
        doc = default_dict()
        assert doc["schema_version"] == 1
        assert set(doc["substrates"]) == {m.value for m in Material}


class TestCli:
    def test_substrate_bench_asserts_green(self, tmp_path):
        assert main(["substrate-bench", "--out", str(tmp_path / "o"),
                     "--assert"]) == 0

    def test_tail_characterize_outputs(self, tmp_path):
        out = tmp_path / "tail"
        assert main(["tail-characterize", "--out", str(out), "--assert"]) == 0
        assert (out / "peaks.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["25mm"]["n"] == 10

    def test_gait_drift_asserts_green(self, tmp_path):
        assert main(["gait-drift", "--out", str(tmp_path / "g"),
                     "--assert"]) == 0

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

    def test_empty_sweep_grid_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": {"moisture_sweep": {
            "uniform_sand_grid": []}}}))
        assert main(["moisture-sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_empty_length_sweep_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": {"tail_characterize": {
            "lengths_mm": []}}}))
        assert main(["tail-characterize", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tail": {"lenght_m": 0.02}}))
        assert main(["substrate-bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_failed_assertion_exits_3(self, tmp_path):
        # an oversized stride split makes the open-loop drift check fail
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"gain_split_lo": 0.05,
                                             "gain_split_hi": 0.08}}))
        assert main(["gait-drift", "--config", str(cfg),
                     "--out", str(tmp_path / "o"), "--assert"]) == 3

    def test_calibrate_writes_artifacts(self, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate", "--out", str(out), "--budget", "4"]) == 0
        assert (out / "fitted_config.json").exists()
        trace = (out / "loss_trace.csv").read_text().splitlines()
        assert trace[0] == "evaluation,best_loss"
        best = [float(r.split(",")[1]) for r in trace[1:]]
        assert all(a >= b for a, b in zip(best, best[1:]))

    def test_malformed_targets_exit_2(self, tmp_path):
        bad = tmp_path / "targets.csv"
        bad.write_text("mode,material,moisture,target_cmps,std_cmps,weight\n"
                       "skip,grass,zero,5.38,0.71,1.0\n")
        assert main(["calibrate", "--out", str(tmp_path / "o"),
                     "--targets", str(bad), "--budget", "2"]) == 2

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
        drift_trial(GaitMode.SYNC, seed=0).write_csv(traj_csv)
        out = tmp_path / "a"
        assert main(["analyze", "--trace", str(trace_csv),
                     "--trajectory", str(traj_csv), "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["trace"]["n"] == 2
        assert report["trajectory"]["net_displacement_m"] >= 1.0

    @pytest.mark.parametrize("argv, text", [
        (["analyze", "--trace"], "time_s,force_N\n0.0,1.0\n0.0,2.0\n"),
        (["analyze", "--trace"],
         "time_s,force_N\n0.0,1.0\n0.5,2.0\n2.0,1.0\n"),
        (["analyze", "--trajectory"],
         "time_s,x_m,y_m\n0.0,0.0,0.0\n1.0,1.0,0.0\n"),
        (["analyze", "--trace"], "time_s,force_N\n0.0,1.0\n0.0005\n"),
        (["analyze", "--trace"], None),
        (["calibrate", "--budget", "1", "--targets"], None),
        (["analyze", "--trajectory"],
         "time_s,x_m,y_m,heading_rad\n0,0,0,0\n1,nan,0,0\n"),
        (["analyze", "--trajectory"],
         "time_s,x_m,y_m,heading_rad\n0,0,0,0\n1,0,-inf,0\n"),
        (["analyze", "--trajectory"],
         "time_s,x_m,y_m,heading_rad\n0,-1e308,0,0\n1,1e308,0,0\n"),
        (["analyze", "--trace"], "time_s,force_N\n0,1\n5e-324,2\n"),
        (["analyze", "--trace"],
         "time_s,force_N\n0.0,0\n0.1,1e308\n0.2,0\n0.3,0\n0.4,0\n0.5,0\n"
         "0.6,1e308\n0.7,0\n"),
    ], ids=["trace-equal-times", "trace-uneven-times", "trajectory-no-heading",
            "trace-short-row", "trace-missing", "targets-missing",
            "trajectory-nan", "trajectory-inf", "trajectory-overflow",
            "trace-subnormal-step", "trace-huge-peaks"])
    def test_bad_csv_inputs_exit_2(self, tmp_path, capsys, argv, text):
        path = tmp_path / "input.csv"
        if text is not None:
            path.write_text(text)
        assert main(argv + [str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, text", [
        ("--trace", "time_s,force_N\n0.0,1.0\n0.0005,\n"),
        ("--trajectory", "time_s,x_m,y_m,heading_rad\n0,0,0,0\n1,abc,0,0\n"),
    ], ids=["trace-blank-force", "trajectory-word-x"])
    def test_unparsable_csv_field_names_its_line(self, tmp_path, capsys, flag,
                                                 text):
        path = tmp_path / "input.csv"
        path.write_text(text)
        assert main(["analyze", flag, str(path), "--out",
                     str(tmp_path / "o")]) == 2
        assert "CSV line 3" in capsys.readouterr().err

    def test_substrate_bench_checks_targets_at_row_moisture(self, tmp_path):
        # the 15% uniform-sand row misses its bundled 3.4 cm/s target when
        # the curve's peak moves to 25%, while the dry row still passes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "substrates": {"uniform_sand": {"skip": {"center": 0.25}}},
            "experiments": {"substrate_bench": {"conditions": [
                ["uniform_sand", 0.15], ["nonuniform_sand", 0.0],
                ["bentonite_clay", 0.3333], ["grass", 0.0],
                ["uniform_sand", 0.0]]}}}))
        assert main(["substrate-bench", "--config", str(cfg), "--assert",
                     "--out", str(tmp_path / "o")]) == 3

    def test_analyze_without_inputs_exits_2(self, tmp_path):
        assert main(["analyze", "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("argv, doc, named", [
        (["gait-drift", "--trials", "-3"], None, "--trials"),
        (["gait-drift", "--trials", "0"], None, "--trials"),
        (["moisture-sweep", "--trials", "two"], None, "--trials"),
        (["calibrate", "--budget", "0"], None, "--budget"),
        (["tail-characterize", "--trials", "5"], None, "--trials"),
        (["scenario", "--trials", "0"], None, "--trials"),
        (["calibrate", "--assert"], None, "--assert"),
        (["gait-drift"], {"experiments": {"gait_drift": {"trials": 0}}},
         "n_trials"),
        (["gait-drift", "--seed", "-1"], None, "--seed"),
        (["gait-drift"], {"seed": -4}, "key seed"),
        (["substrate-bench"], {"robot": {"mass_kg": math.nan}}, "NaN"),
        (["tail-characterize"], {"analysis": {"ci_level": "x"}},
         "analysis.ci_level"),
        (["gait-drift"], {"gait": {"stride_m": 0}}, "stride"),
        (["scenario"], {"gait": {"fin_speed_rad_s": 0}}, "fin_speed"),
        (["scenario"], {"gait": {"dt_s": 0}}, "dt"),
    ], ids=["drift-trials-neg", "drift-trials-0", "sweep-trials-word",
            "budget-0", "tail-trials", "scenario-trials", "calibrate-assert",
            "config-drift-trials-0", "seed-neg", "config-seed-neg",
            "config-nan", "config-ci-level-word", "config-gait-stride-0",
            "config-gait-fin-speed-0", "config-gait-dt-0"])
    def test_bad_counts_and_flags_exit_2(self, tmp_path, capsys, argv, doc,
                                         named):
        argv = argv + ["--out", str(tmp_path / "o")]
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv += ["--config", str(cfg)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects usage errors this way
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and named in err
        assert "empty sequence" not in err and "Traceback" not in err


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
