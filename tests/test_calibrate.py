import csv
import json

import pytest

from skipsim import calibrate as cal
from skipsim.cli import main
from skipsim.config import load_config
from skipsim.locomotion import LocomotionMode, Model
from skipsim.terrain import Material, default_curves


def quadratic_vector():
    bounds = {"a": (-1.0, 1.0), "b": (-1.0, 1.0)}
    return cal.ParameterVector(values={"a": 0.0, "b": 0.0}, bounds=bounds)


def quadratic_loss(params):
    a, b = params.values["a"], params.values["b"]
    return (a - 0.3) ** 2 + 2.0 * (b + 0.2) ** 2 + 0.7


class TestMinimize:
    def test_converges_on_quadratic(self):
        result = cal.minimize(quadratic_loss, quadratic_vector(), budget=500,
                              seed=0)
        assert result.evaluations <= 500
        assert abs(result.params.values["a"] - 0.3) <= 1e-3
        assert abs(result.params.values["b"] + 0.2) <= 1e-3
        assert result.loss == pytest.approx(0.7, abs=1e-5)

    def test_budget_one_returns_initial(self):
        initial = quadratic_vector()
        result = cal.minimize(quadratic_loss, initial, budget=1, seed=0)
        assert result.evaluations == 1
        assert result.params.values == initial.values

    def test_trace_is_monotone_best_so_far(self):
        result = cal.minimize(quadratic_loss, quadratic_vector(), budget=300,
                              seed=1)
        assert len(result.trace) == result.evaluations
        assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))

    def test_respects_bounds_exactly(self):
        bounds = {"a": (0.0, 0.4), "b": (-0.1, 0.0)}
        initial = cal.ParameterVector({"a": 0.2, "b": -0.05}, bounds)

        def edge_loss(params):
            # unconstrained optimum (1, -1) lies outside the box
            return (params.values["a"] - 1.0) ** 2 + (params.values["b"] + 1.0) ** 2

        result = cal.minimize(edge_loss, initial, budget=400, seed=2)
        assert 0.0 <= result.params.values["a"] <= 0.4
        assert -0.1 <= result.params.values["b"] <= 0.0
        assert result.params.values["a"] == pytest.approx(0.4, abs=1e-3)

    def test_bit_reproducible(self):
        a = cal.minimize(quadratic_loss, quadratic_vector(), budget=200, seed=5)
        b = cal.minimize(quadratic_loss, quadratic_vector(), budget=200, seed=5)
        assert a.params.values == b.params.values
        assert a.trace == b.trace


class TestLoss:
    def test_zero_when_targets_match_simulation(self):
        params = cal.default_parameter_vector()
        responses = cal.apply_parameters(params)
        target = cal.CalibrationTarget(LocomotionMode.SKIP, Material.GRASS,
                                       0.0, target_cmps=0.0)
        sim = cal.simulate_target(target, Model(responses=responses),
                                  n_trials=3, seed=0)
        matched = cal.CalibrationTarget(LocomotionMode.SKIP, Material.GRASS,
                                        0.0, target_cmps=sim)
        assert cal.loss(params, [matched], seed=0) == pytest.approx(0.0, abs=1e-18)

    def test_deterministic_given_seed(self):
        params = cal.default_parameter_vector()
        targets = cal.bundled_targets()
        assert cal.loss(params, targets, seed=0) == cal.loss(params, targets, seed=0)

    def test_out_of_bounds_rejected(self):
        params = cal.default_parameter_vector()
        params.values["grass.skip.level"] = 0.9  # above the energy ceiling
        with pytest.raises(ValueError):
            cal.loss(params, cal.bundled_targets(), seed=0)

    def test_shipped_curves_are_a_local_optimum(self):
        params = cal.default_parameter_vector()
        targets = cal.bundled_targets()
        base = cal.loss(params, targets, seed=0)
        for name in params.names:
            lo, hi = params.bounds[name]
            for sign in (1.0, -1.0):
                probe = params.copy()
                moved = min(hi, max(lo, probe.values[name] + sign * 0.02 * (hi - lo)))
                if moved == probe.values[name]:
                    continue
                probe.values[name] = moved
                assert cal.loss(probe, targets, seed=0) >= base - 1e-9


class TestTargets:
    def test_bundled_targets_load(self):
        targets = cal.bundled_targets()
        assert len(targets) >= 6
        bench = {(t.material, t.mode, t.moisture): t.target_cmps for t in targets}
        assert bench[(Material.GRASS, LocomotionMode.SKIP, 0.0)] == 5.38

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text(
            "mode,material,moisture,target_cmps,std_cmps,weight\n"
            "skip,grass,0.0,5.38,0.71,1.0\n"
            "skip,unobtainium,0.0,1.0,0.1,1.0\n")
        with pytest.raises(ValueError, match="row 3"):
            cal.load_targets(path)

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="columns"):
            cal.load_targets(path)


class TestFullModelFit:
    def test_short_fit_terminates_and_improves_or_holds(self):
        targets = cal.bundled_targets()
        result = cal.fit(targets, budget=24, seed=0, restarts=1)
        assert result.evaluations <= 24
        initial_loss = cal.loss(cal.default_parameter_vector(), targets, seed=0)
        assert result.loss <= initial_loss + 1e-12
        assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))


def _calibrate(tmp_path, substrates, budget="2"):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"substrates": substrates}))
    out = tmp_path / "cal"
    code = main(["calibrate", "--config", str(cfg), "--budget", budget,
                 "--out", str(out)])
    return code, cfg, out


class TestConfiguredCurves:
    """calibrate fits, and writes back, the curves of the config it is given."""

    def test_shipped_curves_by_default(self):
        config = load_config()
        assert (cal.default_parameter_vector(config.responses).values
                == cal.default_parameter_vector().values)
        assert cal.apply_parameters(cal.default_parameter_vector()) == {
            m: default_curves(m) for m in Material}

    def test_apply_keeps_the_fields_it_does_not_fit(self):
        config = load_config(overrides={"substrates": {
            "rigid": {"crawl": {"cap": 0.5}},
            "uniform_sand": {"skip": {"center": 0.2}}}})
        params = cal.default_parameter_vector(config.responses)
        assert cal.apply_parameters(params, config.responses) == config.responses

    def test_level_sets_floor_and_peak(self):
        params = cal.default_parameter_vector()
        params.values["grass.skip.level"] = 0.5
        skip = cal.apply_parameters(params)[Material.GRASS].skip
        assert (skip.floor, skip.peak) == (0.5, 0.5)

    def test_fitted_config_keeps_configured_fields(self, tmp_path):
        code, _, out = _calibrate(tmp_path, {
            "rigid": {"crawl": {"cap": 0.5}},
            "uniform_sand": {"skip": {"center": 0.2}}})
        assert code == 0
        fitted = json.loads((out / "fitted_config.json").read_text())
        assert fitted["substrates"]["rigid"]["crawl"]["cap"] == 0.5
        assert fitted["substrates"]["uniform_sand"]["skip"]["center"] == 0.2

    def test_fit_starts_from_configured_curves(self, tmp_path):
        code, cfg, out = _calibrate(
            tmp_path, {"uniform_sand": {"crawl": {"cap": 0.8}}}, budget="1")
        assert code == 0
        with open(out / "loss_trace.csv") as fh:
            first = float(next(csv.DictReader(fh))["best_loss"])
        config = load_config(cfg)
        params = config.experiments["calibrate"]
        targets = cal.bundled_targets()
        kwargs = dict(n_trials=params["n_trials"], seed=0,
                      duration=params["duration_s"])
        initial = cal.default_parameter_vector(config.responses)
        assert initial.values["uniform_sand.crawl.cap"] == 0.8
        assert first == cal.loss(initial, targets, **kwargs, model=config)
        assert first != cal.loss(cal.default_parameter_vector(), targets,
                                 **kwargs)

    def test_configured_value_outside_bounds_exits_2(self, tmp_path, capsys):
        code, _, _ = _calibrate(
            tmp_path, {"grass": {"skip": {"floor": 0.9, "peak": 0.9}}})
        assert code == 2
        assert "grass.skip.level" in capsys.readouterr().err
