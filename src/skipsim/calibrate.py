"""Fitting of free substrate parameters against the bundled velocity targets.

The loss surface contains hard failure thresholds, so the search is a
bounded derivative-free coordinate descent with shrinking steps and a few
restart points. Every run is reproducible from its seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources

import numpy as np

from .locomotion import (LocomotionMode, Model, TrialSpec, build_units,
                         effective_velocities, trial_outcomes)
from .terrain import MOISTURE_MAX, Material, default_curves, moisture_response

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
        for name in ("moisture", "target_cmps", "std_cmps", "weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.moisture <= MOISTURE_MAX:
            raise ValueError(f"moisture must lie in [0, {MOISTURE_MAX}]")
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


@lru_cache(maxsize=64)
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


def _block_fields(params: ParameterVector) -> dict:
    """(material, curve) -> {curve field: value}: the fields the free
    parameters set, block by block, a later parameter over an earlier."""
    fields = {}
    for name, value in params.values.items():
        material, curve, fnames = _free_parameter(name)
        fields.setdefault((material, curve), {}).update(
            dict.fromkeys(fnames, value))
    return fields


def _with_fields(response, curve: str, values: dict):
    return replace(response, **{curve: replace(getattr(response, curve),
                                               **values)})


def apply_parameters(params: ParameterVector,
                     responses: dict | None = None) -> dict:
    """Material -> MoistureResponse map: `responses` (default: the shipped
    curves) with the free parameters applied, each curve rebuilt once."""
    responses = _curves(responses)
    for (material, curve), values in _block_fields(params).items():
        responses[material] = _with_fields(responses[material], curve, values)
    return responses


def target_units(targets, n_trials: int, seed: int, duration: float,
                 model: Model) -> dict:
    """`locomotion.build_units` over the targets' trials: each trial kind's
    paths once, however many targets share it. No substrate curve enters."""
    return build_units([TrialSpec(t.mode, t.material, t.moisture, duration)
                        for t in targets], seed, n_trials, model)


def _block(target: CalibrationTarget) -> tuple:
    """The (material, curve) whose free parameters a target reads."""
    return target.material, ("skip" if target.mode is LocomotionMode.SKIP
                             else "crawl")


def loss(params: ParameterVector, targets, n_trials: int = 3,
         seed: int = 0, duration: float = 30.0, model: Model = Model(), *,
         _units: dict | None = None, _memo: dict | None = None,
         **fields) -> float:
    """Weighted squared velocity error over all targets, seeded so the
    surface is deterministic: a target's simulated velocity is its batch's
    mean under `apply_parameters` (the free parameters on top of `model`'s
    curves), from the `target_units` that `fit` passes as `_units`.
    `fields` replaces parts of `model` by name. A target reads only the
    free parameters of its (material, curve) block; `_memo`, which `fit`
    keeps for one fit, maps (target index, block values) to its velocity,
    so only targets whose block has new values are scored."""
    params.check()
    if fields:
        model = replace(model, **fields)
    units = (target_units(targets, n_trials, seed, duration, model)
             if _units is None else _units)
    memo = {} if _memo is None else _memo
    blocks, responses, total = _block_fields(params), None, 0.0
    for i, t in enumerate(targets):
        values = tuple(blocks.get(_block(t), {}).items())
        if (i, values) not in memo:
            responses = responses or _curves(model.responses)
            response = responses[t.material]
            if values:
                response = _with_fields(response, _block(t)[1], dict(values))
            substrate = moisture_response(t.material, t.moisture, response)
            outcomes = trial_outcomes(units[t.mode, duration], t.mode,
                                      t.material, substrate, model.robot)
            memo[i, values] = float(
                effective_velocities(outcomes, duration).mean()) * 100.0
        total += t.weight * (memo[i, values] - t.target_cmps) ** 2
    return total


@dataclass
class FitResult:
    params: ParameterVector
    loss: float
    trace: list  # best-so-far loss after each evaluation
    evaluations: int


# Coordinate-search steps, as fractions of each parameter's range.
INIT_STEP = 0.25  # the first step of every restart
SHRINK = 0.5  # a sweep that improves nothing scales every step by this
MIN_STEP = 1e-4  # a restart ends once every step is below this


def minimize(fn, initial: ParameterVector, budget: int = 400, seed: int = 0,
             restarts: int = 3) -> FitResult:
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

    def evaluate(values: dict) -> float:
        nonlocal best_loss, best_params
        result = fn(ParameterVector(dict(values), dict(initial.bounds)))
        if best_loss is None or result < best_loss:
            best_loss = result
            best_params = ParameterVector(dict(values), dict(initial.bounds))
        trace.append(best_loss)
        return result

    # the restarts share one budget: restart r may spend up to
    # ceil((budget - spent) / (restarts - r)), so one that converges early
    # leaves the rest to later ones, and none starts once it is spent
    for r in range(restarts):
        if len(trace) >= budget:
            break
        stop = len(trace) - (len(trace) - budget) // (restarts - r)
        point = (dict(initial.values) if r == 0 else
                 {n: rng.uniform(*initial.bounds[n]) for n in names})
        current = evaluate(point)
        steps = {n: INIT_STEP * spans[n] for n in names}
        while len(trace) < stop and any(
                spans[n] > 0 and steps[n] > MIN_STEP * spans[n] for n in names):
            improved = False
            for name in names:
                for direction in (1.0, -1.0):
                    lo, hi = initial.bounds[name]
                    moved = min(hi, max(lo, point[name] + direction * steps[name]))
                    if len(trace) >= stop or moved == point[name]:
                        continue
                    candidate = {**point, name: moved}
                    value = evaluate(candidate)
                    if value < current:
                        point, current = candidate, value
                        improved = True
                        break
            if not improved:
                for name in names:
                    steps[name] *= SHRINK

    return FitResult(params=best_params, loss=best_loss, trace=trace,
                     evaluations=len(trace))


def fit(targets, initial: ParameterVector | None = None, budget: int = 400,
        seed: int = 0, n_trials: int = 3, restarts: int = 3,
        duration: float = 30.0, model: Model = Model()) -> FitResult:
    """Fit the free substrate parameters of `model`'s curves (the shipped
    curves where it holds none) to velocity targets."""
    initial = initial or default_parameter_vector(model.responses)
    units = target_units(targets, n_trials, seed, duration, model)
    memo = {}

    def objective(params):
        return loss(params, targets, n_trials, seed, duration, model,
                    _units=units, _memo=memo)

    return minimize(objective, initial, budget=budget, seed=seed,
                    restarts=restarts)


_TARGET_COLUMNS = ("mode", "material", "moisture", "target_cmps", "std_cmps",
                   "weight")


def load_targets(path) -> list:
    """Read calibration targets from CSV (mode, material, moisture,
    target_cmps, std_cmps, weight). Errors report the offending row."""
    targets = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if set(reader.fieldnames or ()) != set(_TARGET_COLUMNS):
            raise ValueError("targets file must have columns "
                             f"{sorted(_TARGET_COLUMNS)}")
        for row_num, row in enumerate(reader, start=2):
            try:
                targets.append(CalibrationTarget(
                    LocomotionMode(row["mode"]), Material(row["material"]),
                    *(float(row[c]) for c in _TARGET_COLUMNS[2:])))
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
