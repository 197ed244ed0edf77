"""Experiment configuration: a single versioned JSON document holding every
tunable of the toolkit. Files may override any subset of the defaults;
unknown keys are always rejected so typos cannot silently fall back."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace

from .calibrate import check_budget
from .errors import FieldError
from .gait import (AsymmetryNoise, EncoderModel, GaitConfig, GaitMode,
                   drift_duration)
from .locomotion import (LocomotionMode, Model, RobotParams, TrialSpec,
                         check_trials)
from .springtail import (EngagedAngleModel, RegimeThresholds, TailConfig,
                         check_sample_rate, check_strikes, revolutions,
                         trace_samples)
from .stats import check_bootstrap, check_detection
from .terrain import CrawlCurve, Material, MoistureResponse, SkipCurve, default_curves

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


# One table per typed section: JSON key -> dataclass field. Defaults,
# parsing and serialisation all read these tables. A tuple of keys spreads
# one tuple-valued field over several JSON numbers.
TAIL = {
    "youngs_modulus_pa": "youngs_modulus", "width_m": "width",
    "thickness_m": "thickness", "free_length_m": "free_length",
    "housing_radius_m": "housing_radius", "housing_arc_rad": "housing_arc",
    "motor_rev_per_s": "motor_speed", "pulse_width_s": "pulse_width",
}
ENGAGED_ANGLE = {"kind": "kind", "lower_rad": "lower", "upper_rad": "upper",
                 "mean_rad": "mean", "spread_rad": "spread"}
REGIMES = {
    "jam_below_m": "jam_below", "roll_above_m": "roll_above",
    "jam_strike_prob": "jam_strike_prob", "roll_attenuation": "roll_attenuation",
}
GAIT = {"fin_speed_rad_s": "fin_speed", "stride_m": "stride", "dt_s": "dt"}
ENCODER = {"magnet_angles_rad": "magnet_angles",
           "detection_window_rad": "detection_window"}
NOISE = {
    ("gain_split_lo", "gain_split_hi"): "gain_split",
    "stride_jitter_std": "stride_jitter_std",
    "heading_jitter_std": "heading_jitter_std", "track_width_m": "track_width",
}
ROBOT = {
    "mass_kg": "mass", "launch_angle_rad": "launch_angle",
    "gravity_m_s2": "gravity", "pitch_speed_limit_m_s": "pitch_speed_limit",
}
SKIP = {"floor": "floor", "peak": "peak", "center": "center", "width": "width"}
CRAWL = {"cap": "cap", "rise_mid": "rise_mid", "rise_width": "rise_width",
         "decay": "decay"}
RESPONSE = {"slip_moisture": "slip_moisture",
            "excavation_traction": "excavation_traction",
            "moisture_sensitive": "moisture_sensitive"}
# the analysis keys: JSON key -> the parameter of the stats or springtail
# check that reads it
ANALYSIS = {"peak_threshold_n": "threshold",
            "min_separation_s": "min_separation",
            "bootstrap_resamples": "resamples", "ci_level": "level",
            "trace_sample_rate_hz": "sample_rate"}


def _keys(section, table) -> dict:
    """Each field of `table` -> its dotted key in `section`."""
    return {name: f"{section}.{key}" for key, name in table.items()
            if isinstance(key, str)}


# The key of each field or parameter a model check may name, apart from a
# substrate curve's (named in its own section) and the experiments' (named
# where they are checked).
KEYS = {**_keys("tail", TAIL), **_keys("engaged_angle", ENGAGED_ANGLE),
        **_keys("regimes", REGIMES), **_keys("gait", GAIT),
        **_keys("gait", ENCODER), **_keys("noise", NOISE),
        **_keys("robot", ROBOT), **_keys("analysis", ANALYSIS)}

# The keys whose field may be None: each takes null or a finite number. How
# an error names the shape of a default, a list by its first item (json
# reads a number too large for a float, such as 1e400, as infinity).
NULLABLE = {"engaged_angle.mean_rad", "engaged_angle.spread_rad",
            *(f"substrates.{m.value}.slip_moisture" for m in Material)}
_TYPE_NAMES = {float: "a finite number", int: "an integer", str: "a string",
               bool: "a boolean", (list, float): "a list of finite numbers",
               (list, str): "a list of strings",
               (list, list): "a list of rows shaped like its default's"}
SWEPT = ("uniform_sand", "bentonite_clay")  # the materials a sweep grids
# each name a trial spec may give -> its member (a dict lookup is several
# times faster than an Enum call, and load_config makes ~47 specs)
MATERIALS = {m.value: m for m in Material}
MODES = {m.value: m for m in LocomotionMode}


def _default_analysis() -> dict:
    return {"peak_threshold_n": 1.0, "min_separation_s": 0.3,
            "bootstrap_resamples": 10000, "ci_level": 0.95,
            "trace_sample_rate_hz": 2000.0}


def _default_experiments() -> dict:
    return {
        "tail_characterize": {"lengths_mm": [15.0, 20.0, 25.0, 30.0, 35.0],
                              "record_s": 10.0},
        "gait_drift": {"distance_m": 1.0, "trials": 3},
        "moisture_sweep": {
            "materials": ["uniform_sand", "bentonite_clay"],
            "uniform_sand_grid": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
            "bentonite_clay_grid": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
            "duration_s": 30.0, "trials": 3},
        "substrate_bench": {
            "conditions": [["uniform_sand", 0.0], ["nonuniform_sand", 0.0],
                           ["bentonite_clay", 0.3333], ["grass", 0.0]],
            "duration_s": 30.0, "trials": 3},
        "scenario": {"segments": [["grass", "skip", 12.0, 0.0],
                                  ["rigid", "sync_crawl", 6.0, 0.0]]},
        "calibrate": {"budget": 400, "n_trials": 3, "duration_s": 30.0,
                      "restarts": 3},
    }


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(Model):
    """Typed view of the configuration document: the trial model plus the
    analysis and experiment sections. `document` writes it back."""

    analysis: dict = field(default_factory=_default_analysis)
    experiments: dict = field(default_factory=_default_experiments)
    seed: int = 0


def _dump(obj, table) -> dict:
    """The fields of `obj` named in `table`, keyed by their JSON names."""
    out = {}
    for key, name in table.items():
        value = getattr(obj, name)
        if isinstance(key, tuple):
            out.update(zip(key, value))
        else:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _substrate_dict(r: MoistureResponse) -> dict:
    return {"skip": _dump(r.skip, SKIP), "crawl": _dump(r.crawl, CRAWL),
            **_dump(r, RESPONSE)}


def document(config: ExperimentConfig) -> dict:
    """`config` as its JSON document, written from the typed fields (so a
    typed number is a float, and magnet angles are wrapped and sorted), with
    a material the config holds no curves for at its shipped curves. The
    `analysis` and `experiments` sections are the config's own dicts."""
    gait = config.gait
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": config.seed,
        "tail": _dump(config.tail, TAIL),
        "engaged_angle": _dump(config.angle_model, ENGAGED_ANGLE),
        "regimes": _dump(config.thresholds, REGIMES),
        "gait": {**_dump(gait, GAIT), **_dump(gait.encoder, ENCODER)},
        "noise": _dump(gait.noise, NOISE),
        "robot": _dump(config.robot, ROBOT),
        "substrates": {
            m.value: _substrate_dict(config.responses.get(m)
                                     or default_curves(m))
            for m in Material
        },
        "analysis": config.analysis,
        "experiments": config.experiments,
    }


def default_dict() -> dict:
    """The complete default configuration as a plain JSON-ready dict."""
    return document(ExperimentConfig())


def _merge(base, override, path=""):
    """Recursive dict merge; override keys must already exist in base. Each
    value must fit the shape of the default it replaces, and is stored
    `_like` it; a `NULLABLE` key takes null or a number."""
    for key, value in override.items():
        dotted = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {dotted}")
        default = base[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted} must be an object")
            _merge(default, value, dotted)
            continue
        nullable = dotted in NULLABLE
        if nullable:
            default = 0.0
        try:
            base[key] = None if nullable and value is None else _like(
                value, default)
        except TypeError:
            kind = ((list, type(default[0])) if isinstance(default, list)
                    else type(default))
            raise ConfigError(f"config key {dotted} must be "
                              f"{_TYPE_NAMES[kind]}"
                              + (" or null" if nullable else "")) from None
    return base


def _like(value, default, record=False):
    """`value` stored like `default`, each number a float where the
    default's is (so equal configs write equal documents); a TypeError
    unless it has the JSON shape of `default`: its scalar type (an integer
    passes for a number), a list whose items each fit the first default
    item, or, as such an item, a record that fits field by field."""
    if isinstance(default, float):
        # bool is an int subclass, but never a number; a number must be
        # finite (json reads 1e400 as inf), an integer too once converted
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max):
            return float(value)
    elif not isinstance(default, list) or not isinstance(value, list):
        if type(value) is type(default):
            return value
    else:
        like = default if record else default[:1] * len(value)
        if len(value) == len(like):
            return [_like(v, d, not record) for v, d in zip(value, like)]
    raise TypeError("the value does not fit its default")


def _check(check, *args, **keys):
    """`check(*args)`, a model check whose FieldError becomes a ConfigError
    naming each field it read by its key: in `keys`, else in KEYS."""
    try:
        return check(*args)
    except FieldError as exc:
        raise ConfigError(
            f"config key {exc.render({**KEYS, **keys})}") from None


def _parse(cls, table, section, name, **nested):
    """Build `cls` from the document `section` at `name` (dotted) through
    `table`, a list as a tuple; `nested` passes fields that are themselves
    dataclasses. A failed model check is a ConfigError naming the keys of
    the fields it read, or else the section `name`."""
    for part in name.split("."):
        section = section[part]
    for key, attr in table.items():
        if isinstance(key, tuple):
            nested[attr] = tuple(section[k] for k in key)
        else:
            value = section[key]
            nested[attr] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**nested)
    except FieldError as exc:
        raise ConfigError(
            f"config key {exc.render(_keys(name, table))}") from None
    except ValueError as exc:
        raise ConfigError(f"config section {name}: {exc}") from exc


def _spec(key, material, moisture, mode="skip", duration=1.0, seed=0,
          materials=MATERIALS) -> TrialSpec:
    """One trial's spec, or a ConfigError naming `key`."""
    for what, value, names in (("material", material, materials),
                               ("mode", mode, MODES)):
        if value not in names:
            raise ConfigError(f"config key {key}: {what} must be one of "
                              f"{', '.join(names)}, not {value!r}")
    try:
        return TrialSpec(MODES[mode], MATERIALS[material], float(moisture),
                         float(duration), seed)
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from None


def _once(key, items, shown="{}"):
    """A ConfigError naming `key` unless no two `items` are equal."""
    seen = set()
    for item in items:
        if item in seen:
            raise ConfigError(f"config key {key} lists {shown.format(item)} "
                              "more than once")
        seen.add(item)


def trial_specs(experiments: dict, section: str, seed: int = 0) -> list:
    """The specs the `section` runner runs, in its order: `moisture_sweep`
    by listed material, grid moisture and mode (checking every swept grid;
    a material or a grid's moisture listed twice is an error),
    `substrate_bench` by condition, each material once, and `scenario` by
    segment, segment k at `seed + k`; a ConfigError names a bad key."""
    params, key = experiments[section], f"experiments.{section}"
    if section == "substrate_bench":
        conditions = params["conditions"]
        _once(f"{key}.conditions", [material for material, _ in conditions])
        return [_spec(f"{key}.conditions[{k}]", material, moisture,
                      duration=params["duration_s"])
                for k, (material, moisture) in enumerate(conditions)]
    if section == "scenario":
        if not params["segments"]:
            raise ConfigError(f"config key {key}.segments must not be empty")
        return [_spec(f"{key}.segments[{k}]", material, moisture, mode,
                      duration, seed + k)
                for k, (material, mode, duration, moisture)
                in enumerate(params["segments"])]
    grids = {}
    for material in SWEPT:
        grid = params[f"{material}_grid"]
        _once(f"{key}.{material}_grid", grid, "moisture {:g}")
        grids[material] = [
            _spec(f"{key}.{material}_grid[{k}]", material, moisture, mode,
                  params["duration_s"])
            for k, moisture in enumerate(grid) for mode in MODES]
    materials = params["materials"]
    _once(f"{key}.materials", materials)
    for k, material in enumerate(materials):
        _spec(f"{key}.materials[{k}]", material, 0.0, materials=SWEPT)
        if not grids[material]:
            raise ConfigError(f"config key {key}.{material}_grid must not be "
                              f"empty, as {key}.materials lists {material}")
    return [spec for material in materials for spec in grids[material]]


def tail_lengths(config: ExperimentConfig) -> dict:
    """f"{length_mm:g}mm" -> (length_mm, the config's tail at that free
    length) for each of `tail_characterize.lengths_mm`; no lengths, two under
    one key or a blade the tail would refuse is a ConfigError."""
    key = "experiments.tail_characterize.lengths_mm"
    lengths_mm = config.experiments["tail_characterize"]["lengths_mm"]
    if not lengths_mm:
        raise ConfigError(f"config key {key} must not be empty")
    names = [f"{length_mm:g}mm" for length_mm in lengths_mm]
    _once(key, names)
    blades = {}
    for k, (name, length_mm) in enumerate(zip(names, lengths_mm)):
        blades[name] = length_mm, _check(
            lambda: replace(config.tail, free_length=length_mm * 1e-3),
            free_length=f"{key}[{k}]: {name}")
    return blades


def _build(doc: dict) -> ExperimentConfig:
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version: {doc['schema_version']}")
    if doc["seed"] < 0:
        raise ConfigError("config key seed must be >= 0")
    responses = {
        Material(key): _parse(
            MoistureResponse, RESPONSE, doc, f"substrates.{key}",
            skip=_parse(SkipCurve, SKIP, doc, f"substrates.{key}.skip"),
            crawl=_parse(CrawlCurve, CRAWL, doc, f"substrates.{key}.crawl"))
        for key in doc["substrates"]}
    config = ExperimentConfig(
        tail=_parse(TailConfig, TAIL, doc, "tail"),
        angle_model=_parse(EngagedAngleModel, ENGAGED_ANGLE, doc,
                           "engaged_angle"),
        thresholds=_parse(RegimeThresholds, REGIMES, doc, "regimes"),
        gait=_parse(GaitConfig, GAIT, doc, "gait",
                    encoder=_parse(EncoderModel, ENCODER, doc, "gait"),
                    noise=_parse(AsymmetryNoise, NOISE, doc, "noise")),
        robot=_parse(RobotParams, ROBOT, doc, "robot"),
        responses=responses, analysis=doc["analysis"],
        experiments=doc["experiments"], seed=doc["seed"])
    # each model check a runner or layer would apply, with what it will read
    tail, analysis, experiments = (config.tail, doc["analysis"],
                                   doc["experiments"])
    _check(check_detection, analysis["peak_threshold_n"],
           analysis["min_separation_s"])
    _check(check_bootstrap, analysis["ci_level"],
           analysis["bootstrap_resamples"])
    rate = analysis["trace_sample_rate_hz"]
    _check(check_sample_rate, rate, tail.pulse_width)
    record = "experiments.tail_characterize.record_s"
    record_s = experiments["tail_characterize"]["record_s"]
    _check(check_strikes, tail, config.angle_model, record_s, duration=record)
    try:  # the trace ends one pulse after the recording
        trace_samples(record_s + tail.pulse_width, rate)
    except ValueError as exc:
        raise ConfigError(
            f"config key {record} plus tail.pulse_width_s is too long at "
            f"analysis.trace_sample_rate_hz: {exc}") from None
    for mode in GaitMode:  # every gait-drift trial must fit MAX_TRIAL_S
        _check(drift_duration, mode, config.gait,
               experiments["gait_drift"]["distance_m"],
               distance="experiments.gait_drift.distance_m")
    calibrate = experiments["calibrate"]
    _check(check_budget, calibrate["budget"], calibrate["restarts"],
           budget="experiments.calibrate.budget",
           restarts="experiments.calibrate.restarts")
    durations = {record: record_s}
    for name, section in experiments.items():
        key = f"experiments.{name}."
        if "duration_s" in section:  # the rule of a trial of any kind
            durations[key + "duration_s"] = section["duration_s"]
            _check(TrialSpec, LocomotionMode.SKIP, Material.RIGID, 0.0,
                   section["duration_s"], duration=key + "duration_s")
        for count in ("trials", "n_trials"):
            if count in section:
                _check(check_trials, section[count], n_trials=key + count)
    for section in ("moisture_sweep", "substrate_bench", "scenario"):
        trial_specs(experiments, section)
    tail_lengths(config)
    for k, segment in enumerate(experiments["scenario"]["segments"]):
        durations[f"experiments.scenario.segments[{k}]"] = segment[2]
    longest = max(durations, key=durations.get)
    # a blade strikes at most once a revolution
    _check(revolutions, tail.motor_speed, durations[longest], duration=longest)
    return config


def _reject_constant(name):
    raise ConfigError(f"config file holds {name}, which is not a JSON number")


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a configuration from defaults, an optional JSON file, and
    optional in-process overrides (applied in that order)."""
    doc = default_dict()
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh, parse_constant=_reject_constant)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config file must contain a JSON object")
        _merge(doc, user)
    if overrides:
        _merge(doc, overrides)
    return _build(doc)
