import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from skipsim import calibrate as cal
from skipsim.cli import main
from skipsim.config import load_config
from skipsim import locomotion
from skipsim.locomotion import (LocomotionMode, Model, RobotParams,
                                TrialSpec, build_units, run_batch, run_trial)
from skipsim.stats import FailureMode
from skipsim.terrain import Material, default_curves


def oracle_simulate_target(target, model, n_trials=3, seed=0,
                           duration=30.0):
    """A target's simulated batch mean velocity (cm/s), one `run_trial` at
    a time, failed trials scored as zero."""
    velocities = []
    for k in range(n_trials):
        result = run_trial(TrialSpec(target.mode, target.material,
                                     target.moisture, duration, seed + k),
                           model)
        velocities.append(result.mean_velocity
                          if result.failure is FailureMode.NONE else 0.0)
    return float(np.array(velocities).mean()) * 100.0


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

    def test_restarts_past_the_budget_cost_nothing(self):
        # a restart past the budget-th gets no evaluation and draws nothing,
        # so the loop stops there instead of spinning through the rest
        few = cal.minimize(quadratic_loss, quadratic_vector(), budget=5,
                           seed=3, restarts=5)
        many = cal.minimize(quadratic_loss, quadratic_vector(), budget=5,
                            seed=3, restarts=cal.MAX_RESTARTS)
        assert many.trace == few.trace
        assert many.params.values == few.params.values

    def test_an_early_finish_leaves_its_evaluations_to_later_restarts(self):
        # alone, the first restart converges in 70 evaluations, under its
        # share of ceil(220 / 3) = 74; the two random restarts then share
        # the remaining 150 and spend them all
        alone = cal.minimize(quadratic_loss, quadratic_vector(), budget=10 ** 6,
                             restarts=1)
        assert alone.evaluations == 70
        result = cal.minimize(quadratic_loss, quadratic_vector(), budget=220,
                              seed=0, restarts=3)
        assert result.evaluations == len(result.trace) == 220


class TestLoss:
    def test_zero_when_targets_match_simulation(self):
        params = cal.default_parameter_vector()
        responses = cal.apply_parameters(params)
        target = cal.CalibrationTarget(LocomotionMode.SKIP, Material.GRASS,
                                       0.0, target_cmps=0.0)
        sim = oracle_simulate_target(target, Model(responses=responses),
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

    @pytest.mark.parametrize("row", [
        "skip,unobtainium,0.0,1.0,0.1,1.0", "skip,grass,0.0,nan,0.71,1.0",
        "skip,grass,0.0,5.38,0.71,inf", "skip,grass,nan,5.38,0.71,1.0",
        "skip,grass,5.0,5.38,0.71,1.0", "skip,grass,-0.1,5.38,0.71,1.0",
        "skip,grass,0.0", "skip,grass,0.0,5.38,0.71,1.0,5",
    ], ids=["material", "nan-target", "inf-weight", "nan-moisture",
            "moisture-above-max", "moisture-negative", "short-row",
            "extra-field"])
    def test_malformed_row_reports_line(self, tmp_path, row):
        path = tmp_path / "targets.csv"
        path.write_text(
            "mode,material,moisture,target_cmps,std_cmps,weight\n"
            f"skip,grass,0.0,5.38,0.71,1.0\n{row}\n")
        with pytest.raises(ValueError, match="line 3"):
            cal.load_targets(path)

    def test_blank_lines_do_not_shift_the_reported_line(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text(
            "mode,material,moisture,target_cmps,std_cmps,weight\n\n"
            "skip,grass,0.0,5.38,0.71,1.0\n\n\nskip,grass,0.0\n")
        with pytest.raises(ValueError, match="^targets CSV line 6: "):
            cal.load_targets(path)

    @pytest.mark.parametrize("text", [
        "a,b\n1,2\n",
        "mode,material,moisture,target_cmps,std_cmps,weight,weight\n"
        "skip,grass,0.0,5.38,0.71,1.0,7\n",
    ], ids=["other-columns", "repeated-column"])
    def test_wrong_columns_rejected(self, tmp_path, text):
        path = tmp_path / "targets.csv"
        path.write_text(text)
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


def model_loss(params, targets, model=Model(), n_trials=3, seed=0,
               duration=30.0):
    """The loss as the model gives it: every target's trials run one at a
    time (`oracle_simulate_target`) under the curves `apply_parameters`
    builds."""
    model = replace(model, responses=cal.apply_parameters(params,
                                                          model.responses))
    total = 0.0
    for t in targets:
        sim = oracle_simulate_target(t, model, n_trials, seed, duration)
        total += t.weight * (sim - t.target_cmps) ** 2
    return total


def _lowest(predicate, lo, hi):
    """The smallest double in [lo, hi] at which a monotone `predicate`
    holds (it must hold at hi), by bisection on the doubles."""
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        lo, hi = (lo, mid) if predicate(mid) else (mid, hi)
    return hi if not predicate(lo) else lo


SLIP = default_curves(Material.BENTONITE_CLAY).slip_moisture
# The bundled targets plus conditions on the failure rules' edges: clay at
# its slip moisture and just below it, and rigid ground, where a strong
# enough strike pitches over.
EDGE_TARGETS = cal.bundled_targets() + [
    cal.CalibrationTarget(LocomotionMode.SKIP, Material.BENTONITE_CLAY,
                          SLIP, 0.0),
    cal.CalibrationTarget(LocomotionMode.SKIP, Material.BENTONITE_CLAY,
                          math.nextafter(SLIP, 0.0), 0.5),
    cal.CalibrationTarget(LocomotionMode.SKIP, Material.RIGID, 0.0, 4.0),
]
# rigid skipping fits a level too, so a point can sit on the pitch-over edge
EDGE_BOUNDS = {**cal.default_parameter_vector().bounds,
               "rigid.skip.level": (0.0, cal.SKIP_EFF_MAX)}
EDGE_MODEL = Model(robot=RobotParams(pitch_speed_limit=0.6))


def _edge_vector(values=None):
    start = {**cal.default_parameter_vector().values,
             "rigid.skip.level": 0.5}
    return cal.ParameterVector({**start, **(values or {})}, dict(EDGE_BOUNDS))


def _random_points(n, seed):
    rng = np.random.default_rng(seed)
    return [_edge_vector({name: rng.uniform(lo, hi)
                          for name, (lo, hi) in EDGE_BOUNDS.items()})
            for _ in range(n)]


def _edges():
    """(target, point on an edge, point a double below it) for each
    excavation threshold a crawl target meets (the crawl cap at which its
    traction first reaches the material's excavation traction), for the
    pitch-over edge of the strongest rigid strike, and for the 0.10 m
    progress threshold of a grass skip trial."""
    edges, seen = [], set()
    base = cal.default_parameter_vector()
    for t in EDGE_TARGETS:
        if t.mode is LocomotionMode.SKIP or (t.material, t.moisture) in seen:
            continue
        seen.add((t.material, t.moisture))
        name = f"{t.material.value}.crawl.cap"

        def reaches(cap):
            params = cal.ParameterVector({**base.values, name: cap},
                                         base.bounds)
            response = cal.apply_parameters(params)[t.material]
            return (response.crawl_traction(t.moisture)
                    >= response.excavation_traction)
        edges.append((t, name, _lowest(reaches, 0.0, 1.0)))
    units = build_units([TrialSpec(LocomotionMode.SKIP, Material.GRASS)], 0,
                        3, EDGE_MODEL)[LocomotionMode.SKIP, 30.0]
    robot = EDGE_MODEL.robot
    rigid, grass = EDGE_TARGETS[-1], EDGE_TARGETS[3]
    assert (rigid.material, grass.material) == (Material.RIGID, Material.GRASS)
    strongest = units.impulse.max()
    edges.append((rigid, "rigid.skip.level", _lowest(
        lambda eta: eta * strongest / robot.mass > robot.pitch_speed_limit,
        0.0, cal.SKIP_EFF_MAX)))
    # a level at which a grass trial travels exactly 0.10 m, which counts
    # as progress (seed 2's unit displacement has one)
    levels = [(_lowest(lambda eta, u=u: eta * eta * u >= 0.10, 0.0,
                       cal.SKIP_EFF_MAX), u) for u in units.reach]
    edges.append((grass, "grass.skip.level", [
        eta for eta, u in levels if eta * eta * u == 0.10][0]))
    return [(t, _edge_vector({name: value}),
             _edge_vector({name: math.nextafter(value, 0.0)}))
            for t, name, value in edges]


EDGES = _edges()


class TestLossAgreesWithModel:
    """`loss` reads each target's unit displacements and scales them; it
    must give what running every batch under the fitted curves gives.
    It performs the trials' own float operations, so the two agree
    exactly, within any rounding bound."""

    @pytest.mark.parametrize("params", _random_points(100, 11) + [
        p for _, on, below in EDGES for p in (on, below)])
    def test_loss_equals_simulated_batches(self, params):
        assert (cal.loss(params, EDGE_TARGETS, model=EDGE_MODEL)
                == model_loss(params, EDGE_TARGETS, EDGE_MODEL))

    @pytest.mark.parametrize("target, on, below", EDGES)
    def test_edge_points_straddle_their_rule(self, target, on, below):
        """A trial of the edge's target fails differently on the edge and a
        double below it: the points decide the rule, not skip it."""
        spec = TrialSpec(target.mode, target.material, target.moisture)
        outcomes = []
        for params in (on, below):
            model = Model(robot=EDGE_MODEL.robot,
                          responses=cal.apply_parameters(params))
            outcomes.append(run_batch(spec, 3, 0, model)[0].failure)
        assert outcomes[0] != outcomes[1]

    def test_slip_moisture_edge(self):
        """At its slip moisture clay skipping scores zero; just below, it
        moves."""
        model = Model(responses=cal.apply_parameters(
            cal.default_parameter_vector()))
        slipping, moving = EDGE_TARGETS[-3:-1]
        assert oracle_simulate_target(slipping, model) == 0.0
        assert oracle_simulate_target(moving, model) > 0.0

    @pytest.mark.parametrize("n_trials", [1, 2, 10, 30])
    def test_other_trial_counts(self, n_trials):
        for params in _random_points(5, n_trials):
            assert (cal.loss(params, EDGE_TARGETS, n_trials, seed=3,
                             model=EDGE_MODEL)
                    == model_loss(params, EDGE_TARGETS, EDGE_MODEL, n_trials,
                                  seed=3))


class TestFitRunsTrialsOnce:
    """`fit` computes each target's unit displacements once, and its search
    sees the losses a fresh `loss` gives."""

    BUDGET = 40  # 14 evaluations per restart: the second restart is reached

    @pytest.fixture
    def recorded_fit(self, monkeypatch):
        evaluated = []
        fresh_loss = cal.loss

        def recording_loss(params, *args, **kwargs):
            value = fresh_loss(params, *args, **kwargs)
            evaluated.append((params.copy(), value))
            return value

        monkeypatch.setattr(cal, "loss", recording_loss)
        targets = cal.bundled_targets()
        result = cal.fit(targets, budget=self.BUDGET, seed=0)
        monkeypatch.undo()
        return targets, result, evaluated

    def test_trace_matches_a_fresh_loss_at_every_point(self, recorded_fit):
        targets, result, evaluated = recorded_fit
        assert len(evaluated) == result.evaluations == self.BUDGET
        best = []
        for params, value in evaluated:
            assert value == cal.loss(params, targets, seed=0)
            best.append(min(value, best[-1]) if best else value)
        assert result.trace == best
        assert result.loss == cal.loss(result.params, targets, seed=0)

    def test_same_trials_at_any_budget(self, monkeypatch):
        """A fit at --budget 20 builds as many unit paths as one at 400:
        one per trial kind and seed, however many targets share it."""
        built = []
        strike_sequence = locomotion.strike_sequence
        crawl_kinematics = locomotion.crawl_kinematics

        def strikes(tail, angle_model, regime, duration, seed, thresholds):
            built.append(("skip", seed))
            return strike_sequence(tail, angle_model, regime, duration, seed,
                                   thresholds)

        def cycles(cycle_times, mode, noise, stride, seeds, start):
            built.extend((mode.value, seed) for seed in seeds)
            return crawl_kinematics(cycle_times, mode, noise, stride, seeds,
                                    start)

        monkeypatch.setattr(locomotion, "strike_sequence", strikes)
        monkeypatch.setattr(locomotion, "crawl_kinematics", cycles)
        targets = cal.bundled_targets()
        for budget in (20, 400):
            built.clear()
            assert cal.fit(targets, budget=budget, seed=0).evaluations == budget
            assert sorted(built) == [(kind, seed)
                                     for kind in ("async", "skip", "sync")
                                     for seed in range(3)]


def _search_walk(n, seed):
    """Points in the order a coordinate search visits them: each moves one
    parameter of the last, now and then back to where it was, and every
    15th is a fresh random point, as at a restart."""
    rng = np.random.default_rng(seed)
    names = sorted(EDGE_BOUNDS)
    walk = [_edge_vector()]
    for k in range(1, n):
        if k % 15 == 0:
            walk += _random_points(1, seed + k)
            continue
        name = names[rng.integers(len(names))]
        value = (walk[-2].values[name] if k % 4 == 0 and k > 1
                 else rng.uniform(*EDGE_BOUNDS[name]))
        walk.append(_edge_vector({**walk[-1].values, name: value}))
    return walk


def _block_values(params, target):
    """The free parameters of the (material, curve) a target reads."""
    curve = "skip" if target.mode is LocomotionMode.SKIP else "crawl"
    prefix = f"{target.material.value}.{curve}."
    return tuple(sorted((name, value) for name, value in params.values.items()
                        if name.startswith(prefix)))


class TestLossMemo:
    """`fit` scores a target again only when its block's parameters move;
    what it sums is what a fresh `loss` gives."""

    @pytest.mark.parametrize("n_trials", [1, 2, 10, 30])
    def test_memoised_loss_equals_a_fresh_one(self, n_trials):
        context = cal._Context(EDGE_TARGETS, n_trials, 3, 30.0, EDGE_MODEL)
        walk = _search_walk(60, n_trials) + [
            p for _, on, below in EDGES for p in (on, below)]
        for params in walk:
            memoised = cal.loss(params, EDGE_TARGETS, n_trials, seed=3,
                                model=EDGE_MODEL, _context=context)
            assert memoised == cal.loss(params, EDGE_TARGETS, n_trials,
                                        seed=3, model=EDGE_MODEL)
        # each point scored about one target afresh, not all of them
        scored = sum(map(len, context.memo.values()))
        assert scored == len({(i, _block_values(p, t)) for p in walk
                              for i, t in enumerate(EDGE_TARGETS)})
        assert scored < len(walk) * len(EDGE_TARGETS) / 4

    def test_one_substrate_per_target_and_block_values(self, monkeypatch):
        """A default fit evaluates each target's substrate once for each
        distinct set of its block's values (4,000 times without the memo,
        once per target and evaluation)."""
        substrates, evaluated = [], []
        moisture_response, fresh_loss = cal.moisture_response, cal.loss

        def counting(material, moisture, response=None):
            substrates.append((material, moisture, response))
            return moisture_response(material, moisture, response)

        def recording(params, *args, **kwargs):
            evaluated.append(params.copy())
            return fresh_loss(params, *args, **kwargs)

        monkeypatch.setattr(cal, "moisture_response", counting)
        monkeypatch.setattr(cal, "loss", recording)
        targets = cal.bundled_targets()
        assert cal.fit(targets, seed=0).evaluations == len(evaluated) == 400
        distinct = {(i, _block_values(p, t)) for p in evaluated
                    for i, t in enumerate(targets)}
        # README's figure for the default fit
        assert len(substrates) == len(distinct) == 450

    def test_one_curve_per_block_and_values(self, monkeypatch):
        """A default fit builds a block's curve once for each distinct set
        of the block's values, however many of its targets read it."""
        built, evaluated = [], []
        with_fields, fresh_loss = cal._with_fields, cal.loss

        def counting(response, curve, values):
            built.append((response, curve, values))
            return with_fields(response, curve, values)

        def recording(params, *args, **kwargs):
            evaluated.append(params.copy())
            return fresh_loss(params, *args, **kwargs)

        monkeypatch.setattr(cal, "_with_fields", counting)
        monkeypatch.setattr(cal, "loss", recording)
        targets = cal.bundled_targets()
        assert cal.fit(targets, seed=0).evaluations == len(evaluated) == 400
        distinct = {_block_values(p, t) for p in evaluated for t in targets}
        # README's figure for the default fit
        assert len(built) == len(set(built)) == len(distinct) == 256

    def test_memo_lasts_one_fit(self, monkeypatch):
        """Two fits from the same free parameters under curves that differ
        elsewhere each see their own curves' losses."""
        sand = default_curves(Material.UNIFORM_SAND)
        shifted = Model(responses={Material.UNIFORM_SAND: replace(
            sand, skip=replace(sand.skip, center=0.2))})
        evaluated = []
        fresh_loss = cal.loss

        def recording(params, targets, *args, **kwargs):
            value = fresh_loss(params, targets, *args, **kwargs)
            evaluated.append((params.copy(), kwargs.get("model", args[-1]),
                              value))
            return value

        monkeypatch.setattr(cal, "loss", recording)
        targets = cal.bundled_targets()
        fits = [cal.fit(targets, budget=30, seed=0, model=model)
                for model in (Model(), shifted)]
        monkeypatch.undo()
        assert evaluated[0][0].values == evaluated[30][0].values
        assert fits[0].trace[0] != fits[1].trace[0]
        for params, model, value in evaluated:
            assert value == cal.loss(params, targets, model=model)


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


def test_loss_from_model_parts_is_the_written_final_loss(tmp_path):
    """The benchmark's calibrate-fit check: a default fit at seed 0 makes
    its 400 evaluations, and `loss` at the written parameters, given the
    model as keyword parts, is the written final loss to the bit."""
    out = tmp_path / "cal"
    assert main(["calibrate", "--seed", "0", "--out", str(out)]) == 0
    summary = json.loads((out / "fit_summary.json").read_text())
    assert summary["evaluations"] == 400
    config = load_config()
    params = config.experiments["calibrate"]
    fitted = cal.ParameterVector(values=summary["parameters"],
                                 bounds=cal.default_parameter_vector().bounds)
    assert cal.loss(
        fitted, cal.bundled_targets(), n_trials=params["n_trials"], seed=0,
        duration=params["duration_s"], tail=config.tail, gait=config.gait,
        robot=config.robot, angle_model=config.angle_model,
        thresholds=config.thresholds) == summary["final_loss"]
