"""Fitting of free substrate parameters against the bundled velocity targets.

The loss surface contains hard failure thresholds, so the search is a
bounded derivative-free coordinate descent with shrinking steps and a few
restart points. Every run is reproducible from its seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .locomotion import LocomotionMode, Model, TrialSpec, run_batch
from .terrain import Material, default_curves

TARGETS_RESOURCE = "calibration_targets.csv"


@dataclass(frozen=True)
class CalibrationTarget:
    """One (mode, material, moisture) condition with its target velocity."""

    mode: LocomotionMode
    material: Material
    moisture: float
    target_cmps: float
    std_cmps: float = 0.0
    weight: float = 1.0

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.target_cmps < 0 or self.std_cmps < 0:
            raise ValueError("targets must be >= 0")


@dataclass
class ParameterVector:
    """Named free parameters with per-parameter bounds."""

    values: dict
    bounds: dict

    def __post_init__(self):
        if set(self.values) != set(self.bounds):
            raise ValueError("values and bounds must cover the same names")
        self.check()

    def check(self):
        """Raise unless every value lies within its bounds."""
        for name, v in self.values.items():
            lo, hi = self.bounds[name]
            if lo > hi:
                raise ValueError(f"bad bounds for {name}")
            if not lo <= v <= hi:
                raise ValueError(f"parameter {name}={v} outside [{lo}, {hi}]")

    def copy(self) -> "ParameterVector":
        return ParameterVector(dict(self.values), dict(self.bounds))

    @property
    def names(self) -> list:
        return sorted(self.values)


# Skip efficiencies above ~0.82 would let a strike carry more kinetic
# energy than the fully latched blade stores, so the bound is structural.
SKIP_EFF_MAX = 0.82

_FREE_PARAM_BOUNDS = {
    "uniform_sand.skip.floor": (0.0, SKIP_EFF_MAX),
    "uniform_sand.skip.peak": (0.0, SKIP_EFF_MAX),
    "uniform_sand.crawl.cap": (0.0, 1.0),
    "bentonite_clay.skip.peak": (0.0, SKIP_EFF_MAX),
    "bentonite_clay.skip.width": (0.02, 0.5),
    "bentonite_clay.crawl.cap": (0.0, 1.0),
    "nonuniform_sand.skip.level": (0.0, SKIP_EFF_MAX),
    "grass.skip.level": (0.0, SKIP_EFF_MAX),
}


def _free_parameter(name: str) -> tuple:
    """(material, curve, curve fields) named by a free parameter; a `level`
    sets a flat skip curve's floor and peak together."""
    material, curve, fname = name.split(".")
    return Material(material), curve, (
        ("floor", "peak") if fname == "level" else (fname,))


def _curves(responses: dict | None) -> dict:
    """Material -> MoistureResponse, shipped curves filling any gaps."""
    responses = responses or {}
    return {m: responses.get(m) or default_curves(m) for m in Material}


def default_parameter_vector(responses: dict | None = None) -> ParameterVector:
    """Free parameters read from `responses` (default: the shipped curves)."""
    responses = _curves(responses)
    values = {}
    for name in _FREE_PARAM_BOUNDS:
        material, curve, fnames = _free_parameter(name)
        values[name] = getattr(getattr(responses[material], curve), fnames[0])
    return ParameterVector(values=values, bounds=dict(_FREE_PARAM_BOUNDS))


def apply_parameters(params: ParameterVector,
                     responses: dict | None = None) -> dict:
    """Material -> MoistureResponse map: `responses` (default: the shipped
    curves) with the free parameters applied."""
    responses = _curves(responses)
    for name, value in params.values.items():
        material, curve, fnames = _free_parameter(name)
        response = responses[material]
        fitted = replace(getattr(response, curve), **dict.fromkeys(fnames, value))
        responses[material] = replace(response, **{curve: fitted})
    return responses


def simulate_target(target: CalibrationTarget, model: Model,
                    n_trials: int = 3, seed: int = 0,
                    duration: float = 30.0) -> float:
    """Simulated batch mean velocity (cm/s) for one target condition."""
    spec = TrialSpec(mode=target.mode, material=target.material,
                     moisture=target.moisture, duration=duration)
    _, summary = run_batch(spec, n_trials, seed, model)
    return summary.mean_velocity * 100.0


def loss(params: ParameterVector, targets, n_trials: int = 3,
         seed: int = 0, duration: float = 30.0, model: Model = Model(),
         **fields) -> float:
    """Weighted squared velocity error over all targets, seeded so the
    surface is deterministic. The free parameters are applied on top of
    the substrate curves of `model`. `fields` replaces parts of `model` by
    name, the form `perfbench/workloads.py` calls it in."""
    params.check()
    model = replace(model, **fields)
    model = replace(model, responses=apply_parameters(params, model.responses))
    total = 0.0
    for target in targets:
        sim = simulate_target(target, model, n_trials, seed, duration)
        total += target.weight * (sim - target.target_cmps) ** 2
    return total


@dataclass
class FitResult:
    params: ParameterVector
    loss: float
    trace: list  # best-so-far loss after each evaluation
    evaluations: int


def minimize(fn, initial: ParameterVector, budget: int = 400, seed: int = 0,
             restarts: int = 3, init_step: float = 0.25,
             shrink: float = 0.5, min_step: float = 1e-4) -> FitResult:
    """Bounded coordinate search.

    Each restart walks the coordinates in order, trying +/- step moves
    scaled by the parameter range, shrinking all steps when a full sweep
    brings no improvement. The first restart starts from `initial`; the
    others from seeded random points inside the bounds.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    names = initial.names
    spans = {n: initial.bounds[n][1] - initial.bounds[n][0] for n in names}

    best_params = initial.copy()
    best_loss = None
    trace = []
    evaluations = 0

    def evaluate(values: dict) -> float:
        nonlocal evaluations, best_loss, best_params
        result = fn(ParameterVector(dict(values), dict(initial.bounds)))
        evaluations += 1
        if best_loss is None or result < best_loss:
            best_loss = result
            best_params = ParameterVector(dict(values), dict(initial.bounds))
        trace.append(best_loss)
        return result

    per_restart = [budget // restarts] * restarts
    for i in range(budget % restarts):
        per_restart[i] += 1

    for r in range(restarts):
        allowance = per_restart[r]
        if allowance < 1:
            continue
        if r == 0:
            point = dict(initial.values)
        else:
            point = {n: rng.uniform(*initial.bounds[n]) for n in names}
        current = evaluate(point)
        allowance -= 1
        steps = {n: init_step * spans[n] for n in names}
        while allowance > 0 and any(
                spans[n] > 0 and steps[n] > min_step * spans[n] for n in names):
            improved = False
            for name in names:
                if spans[name] == 0:
                    continue
                for direction in (1.0, -1.0):
                    if allowance <= 0:
                        break
                    candidate = dict(point)
                    lo, hi = initial.bounds[name]
                    moved = min(hi, max(lo, point[name] + direction * steps[name]))
                    if moved == point[name]:
                        continue
                    candidate[name] = moved
                    value = evaluate(candidate)
                    allowance -= 1
                    if value < current:
                        point, current = candidate, value
                        improved = True
                        break
                if allowance <= 0:
                    break
            if not improved:
                for name in names:
                    steps[name] *= shrink

    return FitResult(params=best_params, loss=best_loss, trace=trace,
                     evaluations=evaluations)


def fit(targets, initial: ParameterVector | None = None, budget: int = 400,
        seed: int = 0, n_trials: int = 3, restarts: int = 3,
        duration: float = 30.0, model: Model = Model()) -> FitResult:
    """Fit the free substrate parameters of `model`'s curves (the shipped
    curves where it holds none) to velocity targets."""
    initial = initial or default_parameter_vector(model.responses)

    def objective(params):
        return loss(params, targets, n_trials, seed, duration, model)

    return minimize(objective, initial, budget=budget, seed=seed,
                    restarts=restarts)


def load_targets(path) -> list:
    """Read calibration targets from CSV (mode, material, moisture,
    target_cmps, std_cmps, weight). Errors report the offending row."""
    targets = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"mode", "material", "moisture", "target_cmps",
                    "std_cmps", "weight"}
        if reader.fieldnames is None or set(reader.fieldnames) != expected:
            raise ValueError(
                f"targets file must have columns {sorted(expected)}")
        for row_num, row in enumerate(reader, start=2):
            try:
                targets.append(CalibrationTarget(
                    mode=LocomotionMode(row["mode"]),
                    material=Material(row["material"]),
                    moisture=float(row["moisture"]),
                    target_cmps=float(row["target_cmps"]),
                    std_cmps=float(row["std_cmps"]),
                    weight=float(row["weight"]),
                ))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"targets row {row_num}: {exc}") from exc
    if not targets:
        raise ValueError("targets file contains no rows")
    return targets


def bundled_targets() -> list:
    """The packaged velocity targets used to produce the shipped curves."""
    ref = resources.files("skipsim").joinpath("data", TARGETS_RESOURCE)
    with resources.as_file(ref) as path:
        return load_targets(path)
