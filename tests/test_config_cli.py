import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

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


TARGETS_HEADER = "mode,material,moisture,target_cmps,std_cmps,weight\n"

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
        next(drift_trials(GaitMode.SYNC, seeds=[0])).write_csv(traj_csv)
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
        (["analyze", "--trajectory"], None),
        (["analyze", "--trajectory"],
         "time_s,x_m,y_m,heading_rad\n0,0,0,0\n1,nan,0,0\n"),
        (["analyze", "--trajectory"],
         "time_s,x_m,y_m,heading_rad\n0,0,0,0\n1,0,-inf,0\n"),
        (["analyze", "--trajectory"],
         "time_s,x_m,y_m,heading_rad\n0,-1e308,0,0\n1,1e308,0,0\n"),
        (["analyze", "--trajectory"],
         "time_s,x_m,y_m,heading_rad\n0,-1e308,0,0\n1,1e308,5,0\n"
         "2,-1e308,0,0\n"),
        (["analyze", "--trace"], "time_s,force_N\n0,1\n5e-324,2\n"),
        (["analyze", "--trace"],
         "time_s,force_N\n0.0,0\n0.1,1e308\n0.2,0\n0.3,0\n0.4,0\n0.5,0\n"
         "0.6,1e308\n0.7,0\n"),
        (["calibrate", "--budget", "2", "--targets"], TARGETS_HEADER +
         "skip,grass,0.0,5.38,0.71,1.0\nskip,grass,0.0,nan,0.71,1.0\n"),
        (["calibrate", "--budget", "2", "--targets"], TARGETS_HEADER +
         "skip,grass,0.0,5.38,0.71,1.0\nskip,grass,0.0,5.38,0.71,inf\n"),
        (["calibrate", "--budget", "2", "--targets"], TARGETS_HEADER +
         "skip,grass,0.0,5.38,0.71,1.0\nskip,grass,5.0,5.38,0.71,1.0\n"),
        (["calibrate", "--budget", "2", "--targets"], TARGETS_HEADER +
         "skip,grass,0.0\n"),
        (["calibrate", "--budget", "2", "--targets"], TARGETS_HEADER +
         "skip,grass,0.0,5.38,0.71,1.0,5\n"),
        (["analyze", "--trace"], "time_s,time_s,force_N\n0.0,0.0,1.0\n"
         "0.5,0.5,2.0\n"),
        (["analyze", "--trajectory"],
         "time_s,x_m,y_m,heading_rad\n0,0,0,0\n1,1,0,0,0\n"),
        (["analyze", "--trace"], "time_s,force_N\n0,1\n1," + "9" * 200000),
    ], ids=["trace-equal-times", "trace-uneven-times", "trajectory-no-heading",
            "trace-short-row", "trace-missing", "targets-missing",
            "trajectory-missing", "trajectory-nan", "trajectory-inf",
            "trajectory-overflow", "trajectory-overflow-drift",
            "trace-subnormal-step", "trace-huge-peaks", "targets-nan-target",
            "targets-inf-weight", "targets-moisture-5", "targets-short-row",
            "targets-extra-field", "trace-repeated-column",
            "trajectory-extra-field", "trace-field-over-csv-limit"])
    def test_bad_csv_inputs_exit_2(self, tmp_path, capsys, argv, text):
        path = tmp_path / "input.csv"
        if text is not None:
            path.write_text(text)
        assert main(argv + [str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        # refused before writing: a file that cannot be read, or results
        # that cannot be written, leave no --out
        assert not (tmp_path / "o").exists()

    def test_refused_result_removes_every_directory_made_for_out(
            self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("time_s,force_N\n0.0,0\n0.1,1e308\n0.2,0\n0.3,0\n"
                        "0.4,0\n0.5,0\n0.6,1e308\n0.7,0\n")
        (tmp_path / "nest").mkdir()
        out = tmp_path / "nest" / "a" / "b" / "c"
        assert main(["analyze", "--trace", str(path), "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        # nest/a/b/c goes up to a, the first directory made for it; nest,
        # which was there before, stays
        assert list((tmp_path / "nest").iterdir()) == []

    # one row a field short of each input's header
    SHORT_ROWS = {"--trace": "time_s,force_N\n0.0\n",
                  "--trajectory": "time_s,x_m,y_m,heading_rad\n0,0,0\n",
                  "--targets": TARGETS_HEADER + "skip,grass,0.0\n"}

    @pytest.mark.parametrize("malformed", [False, True],
                             ids=["missing", "malformed"])
    @pytest.mark.parametrize("flag", SHORT_ROWS)
    def test_unreadable_input_exits_2_before_out_is_made(
            self, tmp_path, capsys, flag, malformed):
        path = tmp_path / "input.csv"
        if malformed:
            path.write_text(self.SHORT_ROWS[flag])
        command = "calibrate" if flag == "--targets" else "analyze"
        out = tmp_path / "o"
        assert main([command, flag, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

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
        err = capsys.readouterr().err
        assert "CSV line 3: field " in err and "is not a number" in err
        assert "could not convert" not in err

    def test_first_error_in_file_order_wins(self, tmp_path, capsys):
        # a bad field on line 3 comes before a row with an extra field on
        # line 5, as a reader that converts row by row meets them
        path = tmp_path / "input.csv"
        path.write_text("time_s,force_N\n0.0,1.0\n0.0005,abc\n0.001,1.0\n"
                        "0.0015,2.0,3.0\n")
        assert main(["analyze", "--trace", str(path), "--out",
                     str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: force trace CSV line 3: field 'abc' is not a number\n")

    @pytest.mark.parametrize("text", [
        '"time_s","force_N"\n"0.0","0.0"\n"0.0005","1.5"\n"0.001","3.25"\n'
        '"0.0015","1.5"\n"0.002","0.0"\n',
        "time_s,force_N\r\n0.0,0.0\r\n0.000_5,0_1.5\r\n0.001,3.2_5\r\n"
        "0.001_5,1.5\r\n0.002,\u0660.\u0660\r\n"],
        ids=["quoted", "underscores-crlf"])
    def test_rows_numpy_refuses_analyze_like_plain_ones(self, tmp_path, text):
        plain = tmp_path / "plain.csv"
        plain.write_text("time_s,force_N\n0.0,0.0\n0.0005,1.5\n0.001,3.25\n"
                         "0.0015,1.5\n0.002,0.0\n")
        rough = tmp_path / "rough.csv"
        rough.write_bytes(text.encode())
        for path in (plain, rough):
            assert main(["analyze", "--trace", str(path), "--out",
                         str(tmp_path / path.stem)]) == 0
        assert ((tmp_path / "rough" / "analysis.json").read_bytes()
                == (tmp_path / "plain" / "analysis.json").read_bytes())

    @pytest.mark.parametrize("flag, text, message", [
        ("--trace", "time_s,force_N\n", "force trace CSV needs at least two "
         "samples"),
        ("--trajectory", "time_s,x_m,y_m,heading_rad\r\n\r\n",
         "trajectory CSV needs at least two poses"),
        ("--trajectory", "time_s,x_m,y_m,heading_rad\n0.0,0.0,0.0,0.0\n",
         "trajectory CSV needs at least two poses")],
        ids=["trace", "trajectory-crlf-blank", "trajectory-one-row"])
    def test_header_only_exits_2_without_a_warning(self, tmp_path, capsys,
                                                   flag, text, message):
        path = tmp_path / "input.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", flag, str(path), "--out",
                         str(tmp_path / "o")]) == 2
        assert caught == []
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, text, line", [
        ("--trace", "time_s,time_s,force_N\n0,0,1\n", 1),
        ("--trace", "force_N,time_s\n1,0\n\n2,0.5,7\n", 4),
        ("--trajectory", "time_s,x_m,y_m,heading_rad\n0,0,0,0\n1,1,0,0,0\n",
         3),
        ("--trajectory", "", 1),
    ], ids=["trace-repeated-column", "trace-extra-field",
            "trajectory-extra-field", "trajectory-empty"])
    def test_misshapen_csv_names_its_line(self, tmp_path, capsys, flag, text,
                                          line):
        path = tmp_path / "input.csv"
        path.write_text(text)
        assert main(["analyze", flag, str(path), "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f" CSV line {line}: " in err

    def test_substrate_bench_checks_targets_at_row_moisture(self, tmp_path,
                                                            capsys):
        # the 15% uniform-sand row misses its bundled 3.4 cm/s target when
        # the curve's peak moves to 35%, while the ordering still holds
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "substrates": {"uniform_sand": {"skip": {"center": 0.35}}},
            "experiments": {"substrate_bench": {"conditions": [
                ["uniform_sand", 0.15], ["nonuniform_sand", 0.0],
                ["bentonite_clay", 0.3333], ["grass", 0.0]]}}}))
        assert main(["substrate-bench", "--config", str(cfg), "--assert",
                     "--out", str(tmp_path / "o")]) == 3
        assert "uniform_sand at moisture 0.15" in capsys.readouterr().err

    def test_substrate_bench_rejects_a_material_listed_twice(self, tmp_path,
                                                             capsys):
        # one mean per material would keep only the last uniform_sand row
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": {"substrate_bench": {
            "conditions": [["uniform_sand", 0.15], ["nonuniform_sand", 0.0],
                           ["bentonite_clay", 0.3333], ["grass", 0.0],
                           ["uniform_sand", 0.0]]}}}))
        out = tmp_path / "o"
        assert main(["substrate-bench", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "uniform_sand" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("lengths_mm, key", [
        ([25.0, 25.0000001, 30.0], "25mm"), ([20.0, 30.0, 20.0], "20mm")],
        ids=["colliding", "duplicate"])
    def test_tail_characterize_rejects_lengths_sharing_a_key(
            self, tmp_path, capsys, monkeypatch, lengths_mm, key):
        # summary.json holds one entry per f"{length_mm:g}mm" key, so two
        # lengths under one key would merge
        def no_strikes(*args, **kwargs):
            raise AssertionError("a strike was drawn")

        monkeypatch.setattr(experiments, "strike_sequence", no_strikes)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": {"tail_characterize": {
            "lengths_mm": lengths_mm}}}))
        out = tmp_path / "o"
        assert main(["tail-characterize", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"lists {key} more than once" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tail-characterize", "gait-drift",
                                         "moisture-sweep", "substrate-bench",
                                         "scenario", "calibrate", "analyze"])
    def test_coarse_gait_step_exits_2_at_config_load(self, tmp_path, capsys,
                                                     command):
        # a fin turning a detection window or more per tick could sweep
        # across a magnet unseen; every command refuses it, crawling or not
        trajectory = tmp_path / "trajectory.csv"
        trajectory.write_text("time_s,x_m,y_m,heading_rad\n0,0,0,0\n1,1,0,0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gait": {"fin_speed_rad_s": 100}}))
        out = tmp_path / "o"
        extra = ["--trajectory", str(trajectory)] if command == "analyze" else []
        assert main([command, "--config", str(cfg), "--out", str(out),
                     *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config section gait: gait dt too coarse")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_analyze_without_inputs_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["analyze", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: analyze needs --trace or --trajectory\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, doc, named", [
        (["gait-drift", "--trials", "-3"], None,
         "error: config key experiments.gait_drift.trials must lie in "
         f"[1, {MAX_TRIALS}]\n"),
        (["gait-drift", "--trials", "0"], None,
         "error: config key experiments.gait_drift.trials must lie in "
         f"[1, {MAX_TRIALS}]\n"),
        (["moisture-sweep", "--trials", "two"], None, "--trials"),
        (["calibrate", "--budget", "0"], None,
         "error: config key experiments.calibrate.budget must be >= 1\n"),
        (["tail-characterize", "--trials", "5"], None, "--trials"),
        (["scenario", "--trials", "0"], None, "--trials"),
        (["calibrate", "--assert"], None, "--assert"),
        (["gait-drift"], {"experiments": {"gait_drift": {"trials": 0}}},
         "experiments.gait_drift.trials"),
        (["gait-drift", "--seed", "-1"], None,
         "error: config key seed must be >= 0\n"),
        (["gait-drift"], {"seed": -4}, "key seed"),
        (["substrate-bench"], {"robot": {"mass_kg": math.nan}}, "NaN"),
        (["tail-characterize"], {"analysis": {"ci_level": "x"}},
         "analysis.ci_level"),
        (["gait-drift"], {"gait": {"stride_m": 0}}, "stride"),
        (["scenario"], {"gait": {"fin_speed_rad_s": 0}}, "fin_speed"),
        (["scenario"], {"gait": {"dt_s": 0}}, "dt"),
        (["scenario"], {"robot": {"body_length_m": 0.058}},
         "unknown config key: robot.body_length_m"),
        (["scenario"], {"substrates": {"grass": {"entanglement": 1.0}}},
         "unknown config key: substrates.grass.entanglement"),
        (["moisture-sweep"],
         {"experiments": {"moisture_sweep": {"duration_s": 3600.5}}},
         "experiments.moisture_sweep.duration_s must lie in (0, 3600] s"),
        (["substrate-bench"],
         {"experiments": {"substrate_bench": {"duration_s": 1e6}}},
         "experiments.substrate_bench.duration_s must lie in (0, 3600] s"),
        (["calibrate"], {"experiments": {"calibrate": {"duration_s": 1e308}}},
         "experiments.calibrate.duration_s must lie in (0, 3600] s"),
        (["scenario"], {"experiments": {"scenario": {"segments": [
            ["grass", "skip", 12.0, 0.0], ["rigid", "sync_crawl", 1e5, 0.0]]}}},
         "duration must lie in (0, 3600] s"),
        (["scenario"], {"analysis": {"ci_level": 10 ** 400}},
         "config key analysis.ci_level must be a finite number"),
        (["scenario"], {"tail": {"width_m": -10 ** 400}},
         "config key tail.width_m must be a finite number"),
    ], ids=["drift-trials-neg", "drift-trials-0", "sweep-trials-word",
            "budget-0", "tail-trials", "scenario-trials", "calibrate-assert",
            "config-drift-trials-0", "seed-neg", "config-seed-neg",
            "config-nan", "config-ci-level-word", "config-gait-stride-0",
            "config-gait-fin-speed-0", "config-gait-dt-0",
            "removed-key-body-length", "removed-key-entanglement",
            "sweep-duration-long", "bench-duration-long",
            "calibrate-duration-long", "scenario-segment-long",
            "config-huge-integer-analysis", "config-huge-integer-typed"])
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

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tail": {"lenght_m": 0.02}}))
        proc = _python("-m", "skipsim.cli", "substrate-bench", "--config",
                       str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1 and "tail.lenght_m" in proc.stderr
        assert proc.stdout == ""

    def test_failed_assertion_exits_3(self, tmp_path):
        # the stride split of TestCli.test_failed_assertion_exits_3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise": {"gain_split_lo": 0.05,
                                             "gain_split_hi": 0.08}}))
        proc = _python("-m", "skipsim.cli", "gait-drift", "--config", str(cfg),
                       "--out", str(tmp_path / "o"), "--assert")
        assert proc.returncode == 3
        assert proc.stderr.startswith("check failed:")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_only_the_cli_freezes_the_collector(self):
        # importing the library leaves the collector alone; importing the
        # CLI moves its import-time objects into the permanent generation
        proc = _python("-c", "import gc, skipsim; "
                       "library = gc.get_freeze_count(); import skipsim.cli; "
                       "print(library, gc.get_freeze_count())")
        assert proc.returncode == 0, proc.stderr
        library, cli = map(int, proc.stdout.split())
        assert library == 0 and cli > 0


def _drift_too_long(distance, mode=GaitMode.ASYNC):
    try:
        drift_duration(mode, GaitConfig(), distance)
    except ValueError:
        return True
    return False


class TestDriftDistanceLimit:
    """gait-drift derives its trials' duration from `distance_m`; the
    slowest gait's may not exceed MAX_TRIAL_S."""

    @staticmethod
    def shortest_refused():
        """The smallest distance the async gait, the slowest, refuses,
        found by bisection on the doubles."""
        lo, hi = 1.0, 100.0
        while math.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2.0
            lo, hi = (lo, mid) if _drift_too_long(mid) else (mid, hi)
        return hi

    def test_bound_sits_at_the_longest_trial(self):
        refused = self.shortest_refused()
        allowed = math.nextafter(refused, 0.0)
        assert drift_duration(GaitMode.ASYNC, GaitConfig(),
                              allowed) == MAX_TRIAL_S
        # the faster gaits would still fit at the refused distance
        for mode in (GaitMode.SYNC, GaitMode.OPEN_LOOP):
            assert not _drift_too_long(refused, mode)

    def test_just_over_the_bound_exits_2_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        def no_trial(*args, **kwargs):
            raise AssertionError("a drift trial started")

        monkeypatch.setattr(experiments, "drift_trials", no_trial)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": {"gait_drift": {
            "distance_m": self.shortest_refused()}}}))
        out = tmp_path / "o"
        assert main(["gait-drift", "--config", str(cfg), "--out",
                     str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key experiments.gait_drift."
                              "distance_m is too long for gait.fin_speed_rad_s "
                              "and gait.stride_m: ")
        assert err.count("\n") == 1 and "3600 s limit" in err
        assert not out.exists()

    def test_a_1000_m_drift_is_refused_at_config_load(self, tmp_path, capsys,
                                                      monkeypatch):
        trials = []
        monkeypatch.setattr(experiments, "drift_trials",
                            lambda *args, **kwargs: trials.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"experiments": {"gait_drift": {"distance_m": 1000}}}))
        out = tmp_path / "o"
        assert main(["gait-drift", "--config", str(cfg), "--out",
                     str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: config key experiments.gait_drift.distance_m is too "
            "long for gait.fin_speed_rad_s and gait.stride_m: a sync drift "
            "over 1000 m would take 30309 s, over the 3600 s limit\n")
        assert trials == []
        assert not out.exists()

    @pytest.mark.parametrize("distance", [1e6, 1e308, math.inf])
    def test_huge_distances_are_refused(self, distance):
        assert _drift_too_long(distance)


FINEST_DT = MAX_TRIAL_S / MAX_TICKS
TOO_FINE = math.nextafter(FINEST_DT, 0.0)


class TestTickLimit:
    """A schedule spans at most MAX_TICKS controller ticks, so a gait dt at
    which the longest trial would take more is refused. Nothing here plans
    a large schedule."""

    def test_bound_sits_at_the_longest_schedule(self):
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

    @pytest.mark.parametrize("dt", [5e-324, 1e-7, TOO_FINE],
                             ids=["subnormal", "1e-7", "just-too-fine"])
    @pytest.mark.parametrize("command", ["scenario", "calibrate",
                                         "moisture-sweep", "gait-drift"])
    def test_too_fine_dt_exits_2_before_any_schedule(
            self, tmp_path, capsys, monkeypatch, command, dt):
        def no_schedule(*args, **kwargs):
            raise AssertionError("a schedule was planned")

        monkeypatch.setattr(gait, "run_cycles", no_schedule)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gait": {"dt_s": dt}}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: config section gait: gait dt must be at least")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_finest_dt_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gait": {"dt_s": FINEST_DT}}))
        assert main(["scenario", "--config", str(cfg), "--out",
                     str(tmp_path / "o")]) == 0


class TestBootstrapResamplesLimit:
    @pytest.mark.parametrize("resamples", [0, -1, MAX_BOOTSTRAP_RESAMPLES + 1])
    @pytest.mark.parametrize("command", ["tail-characterize", "analyze"])
    def test_out_of_range_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, resamples):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the config was checked")

        monkeypatch.setattr(experiments, "strike_sequence", no_work)
        monkeypatch.setattr(ForceTrace, "read_csv", no_work)
        trace = tmp_path / "trace.csv"
        trace.write_text("time_s,force_N\n0,0\n0.5,2\n1,0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"analysis": {"bootstrap_resamples": resamples}}))
        out = tmp_path / "o"
        out.mkdir()
        extra = ["--trace", str(trace)] if command == "analyze" else []
        assert main([command, "--config", str(cfg), "--out", str(out),
                     *extra]) == 2
        err = capsys.readouterr().err
        assert err == ("error: config key analysis.bootstrap_resamples must "
                       f"lie in [1, {MAX_BOOTSTRAP_RESAMPLES}]\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("resamples", [1, MAX_BOOTSTRAP_RESAMPLES])
    def test_bounds_load(self, resamples):
        config = load_config(overrides={
            "analysis": {"bootstrap_resamples": resamples}})
        assert config.analysis["bootstrap_resamples"] == resamples


class TestTrialsLimit:
    """Trials per condition lie in [1, MAX_TRIALS], from --trials or the
    config, checked before any path is built. Nothing here runs a trial at
    the limit."""

    @pytest.fixture
    def no_paths(self, monkeypatch):
        def no_path(*args, **kwargs):
            raise AssertionError("a path was built")

        monkeypatch.setattr(locomotion, "unit_path", no_path)
        monkeypatch.setattr(experiments, "drift_trials", no_path)

    @pytest.mark.parametrize("command", ["gait-drift", "moisture-sweep",
                                         "substrate-bench"])
    def test_flag_over_the_limit_exits_2(self, tmp_path, capsys, no_paths,
                                         command):
        # the flag sets its config key, which load_config checks
        out = tmp_path / "o"
        out.mkdir()
        assert main([command, "--trials", str(MAX_TRIALS + 1), "--out",
                     str(out)]) == 2
        section = command.replace("-", "_")
        assert capsys.readouterr().err == (
            f"error: config key experiments.{section}.trials must lie in "
            f"[1, {MAX_TRIALS}]\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, section, key", [
        ("gait-drift", "gait_drift", "trials"),
        ("moisture-sweep", "moisture_sweep", "trials"),
        ("substrate-bench", "substrate_bench", "trials"),
        ("calibrate", "calibrate", "n_trials"),
    ])
    @pytest.mark.parametrize("trials", [0, MAX_TRIALS + 1])
    def test_config_outside_the_range_exits_2(self, tmp_path, capsys,
                                              no_paths, command, section,
                                              key, trials):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": {section: {key: trials}}}))
        out = tmp_path / "o"
        out.mkdir()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: config key experiments.{section}.{key} must lie in "
            f"[1, {MAX_TRIALS}]\n")
        assert list(out.iterdir()) == []

    def test_the_limit_itself_loads(self):
        args = build_parser().parse_args(["moisture-sweep", "--trials",
                                          str(MAX_TRIALS)])
        assert args.trials == MAX_TRIALS
        config = load_config(overrides={"experiments": {
            "calibrate": {"n_trials": MAX_TRIALS},
            "moisture_sweep": {"trials": MAX_TRIALS}}})
        assert config.experiments["calibrate"]["n_trials"] == MAX_TRIALS


class TestRecordLimit:
    """A tail-characterize trace, record_s plus one pulse width at
    trace_sample_rate_hz, holds at most MAX_TRACE_SAMPLES samples, checked
    at config load by the rule `strike_trace` applies. Nothing here
    synthesizes a trace at the limit."""

    # 2048 Hz and a 2**-7 s (16-sample) pulse: every duration below is
    # exact in binary, and so is its product
    RATE, PULSE = 2048.0, 2.0 ** -7

    def test_one_sample_over_exits_2_before_any_strike(self, tmp_path, capsys,
                                                       monkeypatch):
        def no_strikes(*args, **kwargs):
            raise AssertionError("a strike was drawn")

        monkeypatch.setattr(experiments, "strike_sequence", no_strikes)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "tail": {"pulse_width_s": self.PULSE},
            "analysis": {"trace_sample_rate_hz": self.RATE},
            "experiments": {"tail_characterize": {
                "record_s": (MAX_TRACE_SAMPLES - 16) / self.RATE}}}))
        out = tmp_path / "o"
        out.mkdir()
        assert main(["tail-characterize", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: config key experiments.tail_characterize.record_s plus "
            "tail.pulse_width_s is too long at analysis.trace_sample_rate_hz: "
            f"a 4096 s trace at 2048 Hz would take over {MAX_TRACE_SAMPLES} "
            "samples\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("record_s, rate, pulse", [
        ((MAX_TRACE_SAMPLES - 17) / RATE, RATE, PULSE),
        (MAX_TRIAL_S, 2000.0, 0.01)],
        ids=["the-limit", "longest-trial-at-2khz"])
    def test_up_to_the_limit_loads(self, record_s, rate, pulse):
        config = load_config(overrides={
            "tail": {"pulse_width_s": pulse},
            "analysis": {"trace_sample_rate_hz": rate},
            "experiments": {"tail_characterize": {"record_s": record_s}}})
        assert config.experiments["tail_characterize"]["record_s"] == record_s


class TestTraceRate:
    """A trace needs at least two samples a pulse: trace_sample_rate_hz
    below 2 / pulse_width_s, zero and negative rates included, is refused
    at config load by every command, before `--out` is made, whether it
    synthesizes a trace or not."""

    @pytest.mark.parametrize("doc, least", [
        ({"analysis": {"trace_sample_rate_hz": -5}}, "200"),
        ({"tail": {"pulse_width_s": 1e-9}}, "2e+09")],
        ids=["negative-rate", "short-pulse"])
    @pytest.mark.parametrize("command", ["tail-characterize",
                                         "substrate-bench"])
    def test_exits_2_naming_both_keys_before_out(self, tmp_path, capsys,
                                                 doc, least, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: config key analysis.trace_sample_rate_hz must be at "
            f"least 2 / tail.pulse_width_s = {least} Hz\n")
        assert not out.exists()

    @pytest.mark.parametrize("rate", [0.0, 199.99999999999997])
    def test_just_under_is_refused(self, rate):
        with pytest.raises(ConfigError, match="trace_sample_rate_hz"):
            load_config(overrides={"analysis": {"trace_sample_rate_hz": rate}})

    def test_two_samples_a_pulse_loads(self):
        config = load_config(overrides={
            "analysis": {"trace_sample_rate_hz": 200.0}})
        assert config.analysis["trace_sample_rate_hz"] == 200.0


class TestOverflowingNumbers:
    """JSON reads a number too large for a float, such as 1e400, as
    infinity; a config holding one is refused at load, naming its key,
    before `--out` is made."""

    @pytest.mark.parametrize("text, key", [
        ('{"robot": {"mass_kg": 1e400}}', "robot.mass_kg"),
        ('{"tail": {"motor_rev_per_s": 1e400}}', "tail.motor_rev_per_s"),
        ('{"engaged_angle": {"mean_rad": 1e400}}', "engaged_angle.mean_rad"),
        ('{"gait": {"magnet_angles_rad": [0.0, 1e400]}}',
         "gait.magnet_angles_rad"),
        ('{"analysis": {"ci_level": -1e400}}', "analysis.ci_level"),
    ], ids=["typed", "typed-motor", "typed-optional", "typed-tuple",
            "analysis"])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert main(["substrate-bench", "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key} must be ")
        assert err.count("\n") == 1
        # the message says what is wrong: the number is not finite
        assert "finite number" in err
        assert not out.exists()


class TestDurationAndDistanceSigns:
    """A recording, trial or drift whose length has the wrong sign is
    refused at config load, naming its key, before `--out` is made."""

    @pytest.mark.parametrize("command, key, value, bound", [
        ("tail-characterize", "tail_characterize.record_s", -1, "be >= 0"),
        ("gait-drift", "gait_drift.distance_m", -1, "be positive"),
        ("gait-drift", "gait_drift.distance_m", 0, "be positive"),
        ("moisture-sweep", "moisture_sweep.duration_s", -1,
         "lie in (0, 3600] s, got -1.0"),
        ("substrate-bench", "substrate_bench.duration_s", -1,
         "lie in (0, 3600] s, got -1.0"),
        ("calibrate", "calibrate.duration_s", -1,
         "lie in (0, 3600] s, got -1.0"),
        ("calibrate", "calibrate.duration_s", 0,
         "lie in (0, 3600] s, got 0.0"),
    ])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, monkeypatch,
                                    command, key, value, bound):
        def never(*args, **kwargs):
            raise AssertionError("the command ran")

        section = command.replace("-", "_")
        monkeypatch.setattr(experiments, f"run_{section}", never)
        name = key.split(".")[1]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": {section: {name: value}}}))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: config key experiments.{key} must {bound}\n")
        assert not out.exists()

    def test_the_bounds_load(self):
        config = load_config(overrides={"experiments": {
            "tail_characterize": {"record_s": 0},
            "gait_drift": {"distance_m": 5e-324},
            "calibrate": {"duration_s": MAX_TRIAL_S}}})
        assert config.experiments["calibrate"]["duration_s"] == MAX_TRIAL_S


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

    @pytest.fixture
    def path_calls(self, monkeypatch):
        calls = []

        def spy(original):
            def called(*args, **kwargs):
                calls.append(args)
                return original(*args, **kwargs)
            return called

        monkeypatch.setattr(locomotion, "unit_path",
                            spy(locomotion.unit_path))
        monkeypatch.setattr(experiments, "drift_trials",
                            spy(experiments.drift_trials))
        return calls

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

    @pytest.mark.parametrize("argv, doc, line", [
        (["calibrate", "--budget", "0"], None,
         "config key experiments.calibrate.budget must be >= 1"),
        (["calibrate"], {"experiments": {"calibrate": {"budget": 0}}},
         "config key experiments.calibrate.budget must be >= 1"),
        (["calibrate"], {"experiments": {"calibrate": {"restarts": 0}}},
         "config key experiments.calibrate.restarts must lie in "
         f"[1, {MAX_RESTARTS}]"),
        (["scenario", "--seed", "-2"], None, "config key seed must be >= 0"),
        (["moisture-sweep"],
         {"experiments": {"moisture_sweep": {"uniform_sand_grid": [0.1, 5.0]}}},
         "config key experiments.moisture_sweep.uniform_sand_grid[1]: "
         "moisture 5.0 outside supported range [0, 1.2]"),
        (["substrate-bench"], {"experiments": {"substrate_bench": {
            "conditions": [["uniform_sand", 0.0], ["grass", -0.5]]}}},
         "config key experiments.substrate_bench.conditions[1]: "
         "moisture -0.5 outside supported range [0, 1.2]"),
        (["scenario"], {"experiments": {"scenario": {"segments": [
            ["grass", "skip", 12.0, 0.0], ["rigid", "sync_crawl", 6.0, 0.0],
            ["uniform_sand", "skip", 6.0, 5.0]]}}},
         "config key experiments.scenario.segments[2]: "
         "moisture 5.0 outside supported range [0, 1.2]"),
        (["scenario"], {"experiments": {"scenario": {"segments": [
            ["grass", "skip", 12.0, 0.0], ["rigid", "sync_crawl", 6.0, 0.0],
            ["uniform_sand", "skip", 3601, 0.1]]}}},
         "config key experiments.scenario.segments[2]: "
         "duration must lie in (0, 3600] s, got 3601.0"),
    ], ids=["budget-flag-0", "budget-key-0", "restarts-key-0", "seed-flag-neg",
            "sweep-grid-moisture", "bench-moisture", "scenario-last-moisture",
            "scenario-last-duration"])
    def test_bad_value_exits_2_before_any_path(self, tmp_path, capsys,
                                               path_calls, argv, doc, line):
        out = tmp_path / "o"
        out.mkdir()
        if doc is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            argv = argv + ["--config", str(cfg)]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"
        assert list(out.iterdir()) == []
        assert path_calls == []

    @pytest.mark.parametrize("argv", [
        ["moisture-sweep", "--trials", "two"],
        ["scenario", "--seed", "1.5"],
        ["tail-characterize", "--trials", "5"],
        ["analyze", "--budget", "3"],
    ], ids=["trials-word", "seed-fraction", "tail-trials", "analyze-budget"])
    def test_malformed_or_foreign_flag_is_a_usage_error(self, tmp_path,
                                                        capsys, argv):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # a flag the command lacks is left to the top-level parser
        assert re.match(f"skipsim( {argv[0]})?: error: ", err.splitlines()[-1])
        assert argv[1] in err
        assert not out.exists()

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


class TestTrialInputsAtLoad:
    """A material, locomotion mode or moisture that a runner's trial specs
    would refuse is refused at config load, naming its key, so no command
    makes --out and no message leaks an enum's own text."""

    CASES = {
        "segment-material": ("scenario", "experiments.scenario.segments[0]",
                             {"scenario": {"segments": [
                                 ["mud", "skip", 12, 0]]}}),
        "segment-mode": ("scenario", "experiments.scenario.segments[1]",
                         {"scenario": {"segments": [
                             ["grass", "skip", 12, 0],
                             ["rigid", "fly", 6, 0]]}}),
        "segment-moisture": ("scenario", "experiments.scenario.segments[0]",
                             {"scenario": {"segments": [
                                 ["grass", "skip", 12, 5.0]]}}),
        "bench-material": ("substrate-bench",
                           "experiments.substrate_bench.conditions[0]",
                           {"substrate_bench": {"conditions": [
                               ["mud", 0.0]]}}),
        "bench-moisture": ("substrate-bench",
                           "experiments.substrate_bench.conditions[0]",
                           {"substrate_bench": {"conditions": [
                               ["grass", 7.0]]}}),
        "sweep-material": ("moisture-sweep",
                           "experiments.moisture_sweep.materials[0]",
                           {"moisture_sweep": {"materials": ["mud"]}}),
        "sweep-unswept-material": (
            "moisture-sweep", "experiments.moisture_sweep.materials[1]",
            {"moisture_sweep": {"materials": ["uniform_sand", "grass"]}}),
        "sweep-unused-grid": (
            "moisture-sweep",
            "experiments.moisture_sweep.bentonite_clay_grid[0]",
            {"moisture_sweep": {"materials": ["uniform_sand"],
                                "bentonite_clay_grid": [-0.1]}}),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("other_command", [False, True],
                             ids=["own-command", "tail-characterize"])
    def test_exits_2_naming_the_key_before_out_is_made(
            self, tmp_path, capsys, case, other_command):
        command, key, experiments_doc = self.CASES[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiments": experiments_doc}))
        out = tmp_path / "o"
        if other_command:
            command = "tail-characterize"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key}: ")
        assert err.count("\n") == 1
        assert "is not a valid" not in err
        assert not out.exists()

    def test_every_material_and_mode_loads(self):
        segments = [[m.value, mode.value, 1.0, 0.0] for m in Material
                    for mode in locomotion.LocomotionMode]
        config = load_config(overrides={"experiments": {
            "scenario": {"segments": segments},
            "substrate_bench": {"conditions": [[m.value, 1.2]
                                               for m in Material]}}})
        assert config.experiments["scenario"]["segments"] == segments


# a motor rate one revolution over MAX_STRIKES in 64 s, exact in binary
OVER_RATE = (MAX_STRIKES + 1) / 64.0


def _strikes_over(section, key):
    """(document, message): `section`'s `key` runs 64 s at OVER_RATE, which
    config load refuses naming tail.motor_rev_per_s and that key."""
    value = ([["grass", "skip", 64.0, 0.0]] if key == "segments" else 64.0)
    named = "segments[0]" if key == "segments" else key
    return ({"tail": {"motor_rev_per_s": OVER_RATE},
             "experiments": {section: {key: value}}},
            f"tail.motor_rev_per_s is too high for experiments.{section}."
            f"{named}")


class TestRefusalsAtLoad:
    """Each trial, blade, analysis, size and strike-count input a runner or
    a layer would refuse is refused at config load, naming its key, in
    every command: exit 2 with one error line, no --out, and no strike
    drawn or unit path built."""

    CASES = {
        "lengths-empty": ("tail-characterize", {"experiments": {
            "tail_characterize": {"lengths_mm": []}}},
            "experiments.tail_characterize.lengths_mm must not be empty"),
        "lengths-colliding": ("tail-characterize", {"experiments": {
            "tail_characterize": {"lengths_mm": [25.0, 25.0000001]}}},
            "experiments.tail_characterize.lengths_mm lists 25mm more than "
            "once"),
        "length-0": ("tail-characterize", {"experiments": {
            "tail_characterize": {"lengths_mm": [0]}}},
            "experiments.tail_characterize.lengths_mm[0]: 0mm must lie in "),
        "length-neg": ("tail-characterize", {"experiments": {
            "tail_characterize": {"lengths_mm": [25, -5]}}},
            "experiments.tail_characterize.lengths_mm[1]: -5mm must lie in "),
        "length-60": ("tail-characterize", {"experiments": {
            "tail_characterize": {"lengths_mm": [60]}}},
            "experiments.tail_characterize.lengths_mm[0]: 60mm must lie in "
            "(0, 51.8363] mm, the housing arc tail.housing_radius_m * "
            "tail.housing_arc_rad"),
        "sweep-grid-empty": ("moisture-sweep", {"experiments": {
            "moisture_sweep": {"uniform_sand_grid": []}}},
            "experiments.moisture_sweep.uniform_sand_grid must not be empty"),
        "sweep-material-twice": ("moisture-sweep", {"experiments": {
            "moisture_sweep": {"materials": ["uniform_sand", "bentonite_clay",
                                             "uniform_sand"]}}},
            "experiments.moisture_sweep.materials lists uniform_sand more "
            "than once"),
        "sweep-moisture-twice": ("moisture-sweep", {"experiments": {
            "moisture_sweep": {"uniform_sand_grid": [0.1, 0.1]}}},
            "experiments.moisture_sweep.uniform_sand_grid lists moisture 0.1 "
            "more than once"),
        "bench-material-twice": ("substrate-bench", {"experiments": {
            "substrate_bench": {"conditions": [["grass", 0.0],
                                               ["uniform_sand", 0.15],
                                               ["grass", 0.1]]}}},
            "experiments.substrate_bench.conditions lists grass more than "
            "once"),
        "segments-empty": ("scenario", {"experiments": {
            "scenario": {"segments": []}}},
            "experiments.scenario.segments must not be empty"),
        "angle-over-arc": ("substrate-bench",
                           {"engaged_angle": {"upper_rad": 5.0}},
                           "engaged_angle.upper_rad must stay below "
                           "tail.housing_arc_rad"),
        "ci-level-high": ("tail-characterize", {"analysis": {"ci_level": 1.5}},
                          "analysis.ci_level must lie in (0, 1)"),
        "ci-level-0": ("analyze", {"analysis": {"ci_level": 0.0}},
                       "analysis.ci_level must lie in (0, 1)"),
        "peak-threshold-0": ("analyze",
                             {"analysis": {"peak_threshold_n": 0.0}},
                             "analysis.peak_threshold_n must be positive"),
        "min-separation-neg": ("tail-characterize",
                               {"analysis": {"min_separation_s": -1}},
                               "analysis.min_separation_s must be >= 0"),
        "fin-speed-over": ("scenario",
                           {"gait": {"fin_speed_rad_s": MAX_FIN_SPEED + 1}},
                           f"gait.fin_speed_rad_s must lie in "
                           f"(0, {MAX_FIN_SPEED:g}] rad/s"),
        "restarts-over": ("calibrate", {"experiments": {"calibrate": {
            "restarts": MAX_RESTARTS + 1}}},
            f"experiments.calibrate.restarts must lie in [1, {MAX_RESTARTS}]"),
        **{f"strikes-{section}": (command, *_strikes_over(section, key))
           for command, section, key in (
               ("tail-characterize", "tail_characterize", "record_s"),
               ("moisture-sweep", "moisture_sweep", "duration_s"),
               ("substrate-bench", "substrate_bench", "duration_s"),
               ("scenario", "scenario", "segments"),
               ("calibrate", "calibrate", "duration_s"))},
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("in_gait_drift", [False, True],
                             ids=["own-command", "gait-drift"])
    def test_exits_2_naming_the_key_before_out_is_made(
            self, tmp_path, capsys, monkeypatch, case, in_gait_drift):
        def never(*args, **kwargs):
            raise AssertionError("a runner got past config load")

        monkeypatch.setattr(experiments, "strike_sequence", never)
        monkeypatch.setattr(experiments, "build_units", never)
        command, doc, named = self.CASES[case]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        trace = tmp_path / "trace.csv"
        trace.write_text("time_s,force_N\n0.0,0.0\n0.5,2.0\n1.0,0.0\n")
        out = tmp_path / "o"
        command = "gait-drift" if in_gait_drift else command
        extra = ["--trace", str(trace)] if command == "analyze" else []
        assert main([command, "--config", str(cfg), "--out", str(out),
                     *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {named}")
        assert err.count("\n") == 1
        assert not out.exists()

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
