"""Fitting of free substrate parameters against the bundled velocity targets.

The loss surface contains hard failure thresholds, so the search is a
bounded derivative-free coordinate descent with shrinking steps and a few
restart points. Every run is reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import FieldError
from .fileio import number, read_csv
from .locomotion import (LocomotionMode, Model, TrialSpec, build_units,
                         effective_velocities, trial_outcomes)
from .terrain import Material, check_moisture, default_curves, moisture_response

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
        check_moisture(self.moisture)
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.target_cmps < 0 or self.std_cmps < 0:
            raise ValueError("targets must be >= 0")


@dataclass
class ParameterVector:
    """Named free parameters with per-parameter bounds."""

    values: dict
    bounds: dict

    def check(self):
        """Raise unless values and bounds share names, each value in bounds."""
        if set(self.values) != set(self.bounds):
            raise ValueError("values and bounds must cover the same names")
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
    """(block, curve fields) a free parameter sets, its block the (material
    value, curve); a `level` sets a flat skip curve's floor and peak."""
    material, curve, fname = name.split(".")
    return (Material(material).value, curve), (
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
        (material, curve), fnames = _free_parameter(name)
        values[name] = getattr(getattr(responses[Material(material)], curve),
                               fnames[0])
    return ParameterVector(values=values, bounds=dict(_FREE_PARAM_BOUNDS))


def _block_fields(params: ParameterVector) -> dict:
    """Block -> ((free parameter, value), ...), in parameter order."""
    blocks = {}
    for name, value in params.values.items():
        block = _free_parameter(name)[0]
        blocks[block] = blocks.get(block, ()) + ((name, value),)
    return blocks


def _with_fields(response, curve: str, values: tuple):
    """`response` with the free parameters `values` set on its `curve`."""
    fields = {f: v for name, v in values for f in _free_parameter(name)[1]}
    return replace(response, **{curve: replace(getattr(response, curve),
                                               **fields)})


def apply_parameters(params: ParameterVector,
                     responses: dict | None = None) -> dict:
    """Material -> MoistureResponse map: `responses` (default: the shipped
    curves) with the free parameters applied, each curve rebuilt once."""
    responses = _curves(responses)
    for (material, curve), values in _block_fields(params).items():
        material = Material(material)
        responses[material] = _with_fields(responses[material], curve, values)
    return responses


class _Context:
    """What a fit's evaluations share. `blocks`: each block a target reads
    (its material's skip curve if it skips, else its crawl curve) -> its
    curves under the model and its targets with their units; `terms`: each
    target's block, index there, weight and target; `memo`: (block, values)
    -> the block's targets' velocities under those values."""

    def __init__(self, targets, n_trials: int, seed: int, duration: float,
                 model: Model):
        units = build_units([TrialSpec(t.mode, t.material, t.moisture,
                                       duration) for t in targets],
                            seed, n_trials, model)
        curves = _curves(model.responses)
        self.duration, self.robot = duration, model.robot
        self.blocks, self.terms, self.memo = {}, [], {}
        for t in targets:
            block = (t.material.value,
                     "skip" if t.mode is LocomotionMode.SKIP else "crawl")
            members = self.blocks.setdefault(block, (curves[t.material], []))[1]
            self.terms.append((block, len(members), t.weight, t.target_cmps))
            members.append((t, units[t.mode, duration]))


def loss(params: ParameterVector, targets, n_trials: int = 3,
         seed: int = 0, duration: float = 30.0, model: Model = Model(), *,
         _context: _Context | None = None, **fields) -> float:
    """Weighted squared velocity error over all targets, seeded so the
    surface is deterministic: a target's velocity is its batch's mean under
    `apply_parameters` (the free parameters on top of `model`'s curves),
    scored by `trial_outcomes`; `fields` replaces parts of `model` by name.
    A `_Context` builds a block's curve and scores its targets once per
    distinct values: a fresh one, or `fit`'s, standing for all but `params`."""
    params.check()
    _context = _context or _Context(targets, n_trials, seed, duration,
                                    replace(model, **fields))
    memo, blocks, total = _context.memo, _block_fields(params), 0.0
    for block, k, weight, target in _context.terms:
        values = blocks.get(block, ())
        velocities = memo.get((block, values))
        if velocities is None:
            response, members = _context.blocks[block]
            response = _with_fields(response, block[1], values)
            velocities = memo[block, values] = [float(effective_velocities(
                trial_outcomes(units, t.mode, t.material,
                               moisture_response(t.material, t.moisture,
                                                 response), _context.robot),
                _context.duration).mean()) * 100.0 for t, units in members]
        total += weight * (velocities[k] - target) ** 2
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
# Most restarts of one fit. Each evaluates once at least, so the budget
# alone would not bound a fit's evaluations; a converging restart ends
# within a few hundred whatever the budget.
MAX_RESTARTS = 100


def check_budget(budget: int, restarts: int) -> None:
    """`minimize`'s rules: a budget of at least one evaluation, restarts in
    [1, MAX_RESTARTS]."""
    if not budget >= 1:
        raise FieldError("{budget} must be >= 1")
    if not 1 <= restarts <= MAX_RESTARTS:
        raise FieldError(f"{{restarts}} must lie in [1, {MAX_RESTARTS}]")


def minimize(fn, initial: ParameterVector, budget: int = 400, seed: int = 0,
             restarts: int = 3) -> FitResult:
    """Bounded coordinate search.

    Each restart walks the coordinates in order, trying +/- step moves
    scaled by the parameter range, shrinking all steps when a full sweep
    brings no improvement. The first restart starts from `initial`; the
    others from seeded random points inside the bounds.
    """
    check_budget(budget, restarts)
    rng = np.random.default_rng(seed)
    names = initial.names
    bounds = dict(initial.bounds)
    spans = {n: bounds[n][1] - bounds[n][0] for n in names}

    best_params = best_loss = None
    trace = []

    def evaluate(values: dict) -> float:
        nonlocal best_loss, best_params
        params = ParameterVector(values, bounds)
        result = fn(params)
        if best_loss is None or result < best_loss:
            best_loss, best_params = result, params
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
                 {n: rng.uniform(*bounds[n]) for n in names})
        current = evaluate(point)
        steps = {n: INIT_STEP * spans[n] for n in names}
        while len(trace) < stop and any(
                spans[n] > 0 and steps[n] > MIN_STEP * spans[n] for n in names):
            improved = False
            for name in names:
                for direction in (1.0, -1.0):
                    lo, hi = bounds[name]
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
    curves where it holds none) to velocity targets, in one `_Context`."""
    initial = initial or default_parameter_vector(model.responses)
    context = _Context(targets, n_trials, seed, duration, model)

    def objective(params):
        return loss(params, targets, n_trials, seed, duration, model,
                    _context=context)

    return minimize(objective, initial, budget=budget, seed=seed,
                    restarts=restarts)


_TARGET_COLUMNS = ("mode", "material", "moisture", "target_cmps", "std_cmps",
                   "weight")


def _target(fields) -> CalibrationTarget:
    mode, material, *numbers = fields
    return CalibrationTarget(LocomotionMode(mode), Material(material),
                             *map(number, numbers))


def load_targets(path) -> list:
    """Read calibration targets from CSV (mode, material, moisture,
    target_cmps, std_cmps, weight) through `fileio.read_csv`."""
    targets = [*read_csv(path, _TARGET_COLUMNS, "targets", _target)]
    if not targets:
        raise ValueError("targets file contains no rows")
    return targets


def bundled_targets() -> list:
    """The packaged velocity targets used to produce the shipped curves."""
    ref = resources.files("skipsim").joinpath("data", TARGETS_RESOURCE)
    with resources.as_file(ref) as path:
        return load_targets(path)
