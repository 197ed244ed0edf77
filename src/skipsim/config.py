"""Experiment configuration: a single versioned JSON document holding every
tunable of the toolkit. Files may override any subset of the defaults;
unknown keys are always rejected so typos cannot silently fall back."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .gait import AsymmetryNoise, EncoderModel, GaitConfig
from .locomotion import Model, RobotParams
from .springtail import EngagedAngleModel, RegimeThresholds, TailConfig
from .terrain import CrawlCurve, Material, MoistureResponse, SkipCurve, default_curves

SCHEMA_VERSION = 1
DEFAULT_SEED = 0


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
    "mass_kg": "mass", "body_length_m": "body_length",
    "launch_angle_rad": "launch_angle", "gravity_m_s2": "gravity",
    "pitch_speed_limit_m_s": "pitch_speed_limit",
}
SKIP = {"floor": "floor", "peak": "peak", "center": "center", "width": "width"}
CRAWL = {"cap": "cap", "rise_mid": "rise_mid", "rise_width": "rise_width",
         "decay": "decay"}
RESPONSE = {
    "slip_moisture": "slip_moisture", "entanglement": "entanglement",
    "excavation_traction": "excavation_traction",
    "moisture_sensitive": "moisture_sensitive",
}

# The field annotations the tables meet (strings: the model modules use
# `from __future__ import annotations`) and how an error names each type.
_TYPES = {"float": float, "float | None": float | None, "str": str,
          "bool": bool, "tuple": tuple}
_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string",
               bool: "a boolean", tuple: "a list of numbers",
               list: "a list shaped like its default"}


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


def default_dict() -> dict:
    """The complete default configuration as a plain JSON-ready dict."""
    gait = GaitConfig()
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": DEFAULT_SEED,
        "tail": _dump(TailConfig(), TAIL),
        "engaged_angle": _dump(EngagedAngleModel(), ENGAGED_ANGLE),
        "regimes": _dump(RegimeThresholds(), REGIMES),
        "gait": {**_dump(gait, GAIT), **_dump(gait.encoder, ENCODER)},
        "noise": _dump(gait.noise, NOISE),
        "robot": _dump(RobotParams(), ROBOT),
        "substrates": {
            m.value: _substrate_dict(default_curves(m)) for m in Material
        },
        "analysis": {
            "peak_threshold_n": 1.0,
            "min_separation_s": 0.3,
            "bootstrap_resamples": 10000,
            "ci_level": 0.95,
            "trace_sample_rate_hz": 2000.0,
        },
        "experiments": {
            "tail_characterize": {
                "lengths_mm": [15.0, 20.0, 25.0, 30.0, 35.0],
                "record_s": 10.0,
            },
            "gait_drift": {
                "distance_m": 1.0,
                "trials": 3,
            },
            "moisture_sweep": {
                "materials": ["uniform_sand", "bentonite_clay"],
                "uniform_sand_grid": [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
                "bentonite_clay_grid": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
                "duration_s": 30.0,
                "trials": 3,
            },
            "substrate_bench": {
                "conditions": [
                    ["uniform_sand", 0.0],
                    ["nonuniform_sand", 0.0],
                    ["bentonite_clay", 0.3333],
                    ["grass", 0.0],
                ],
                "duration_s": 30.0,
                "trials": 3,
            },
            "scenario": {
                "segments": [
                    ["grass", "skip", 12.0, 0.0],
                    ["rigid", "sync_crawl", 6.0, 0.0],
                ],
            },
            "calibrate": {
                "budget": 400,
                "n_trials": 3,
                "duration_s": 30.0,
                "restarts": 3,
            },
        },
    }


def _merge(base, override, path=""):
    """Recursive dict merge; override keys must already exist in base. In
    the sections no table types, each value must fit its default's shape."""
    for key, value in override.items():
        dotted = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {dotted}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {dotted} must be an object")
            _merge(base[key], value, dotted)
        elif (dotted.split(".")[0] in ("analysis", "experiments")
              and not _fits(value, base[key])):
            raise ConfigError(f"config key {dotted} must be "
                              f"{_TYPE_NAMES[type(base[key])]}")
        else:
            base[key] = value
    return base


def _fits(value, default, record=False) -> bool:
    """Whether `value` has the JSON shape of `default`: its scalar type (an
    integer passes for a number), a list whose items each fit the first
    default item, or, as such an item, a record that fits field by field."""
    if isinstance(default, float):
        return _is_number(value)
    if not isinstance(default, list) or not isinstance(value, list):
        return type(value) is type(default)
    like = default if record else default[:1] * len(value)
    return len(value) == len(like) and all(
        _fits(v, d, not record) for v, d in zip(value, like))


def _is_number(value) -> bool:
    # bool is an int subclass, but never a valid number
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _typed(value, kind, dotted):
    """`value` checked against the declared field type `kind`."""
    if kind == float | None:
        if value is None:
            return None
        kind = float
    if kind is float:
        if _is_number(value):
            return float(value)
    elif kind is tuple:
        if isinstance(value, (list, tuple)) and all(map(_is_number, value)):
            return tuple(float(v) for v in value)
    elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"config key {dotted} must be {_TYPE_NAMES[kind]}")


def _parse(cls, table, doc, path, **nested):
    """Build `cls` from the section of `doc` at dotted `path` through
    `table`; `nested` passes fields that are themselves dataclasses."""
    section = doc
    for key in path.split("."):
        section = section[key]
    annotations = {f.name: f.type for f in fields(cls)}
    for key, name in table.items():
        if isinstance(key, tuple):
            nested[name] = tuple(_typed(section[k], float, f"{path}.{k}")
                                 for k in key)
        else:
            nested[name] = _typed(section[key], _TYPES[annotations[name]],
                                  f"{path}.{key}")
    return cls(**nested)


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(Model):
    """Typed view of the configuration document: the trial model plus the
    analysis and experiment sections."""

    analysis: dict
    experiments: dict
    seed: int
    raw: dict = field(repr=False, default_factory=dict)


def _build(doc: dict) -> ExperimentConfig:
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version: {doc['schema_version']}")
    seed = _typed(doc["seed"], int, "seed")
    if seed < 0:
        raise ConfigError("config key seed must be >= 0")
    try:
        responses = {}
        for key in doc["substrates"]:
            path = f"substrates.{key}"
            responses[Material(key)] = _parse(
                MoistureResponse, RESPONSE, doc, path,
                skip=_parse(SkipCurve, SKIP, doc, path + ".skip"),
                crawl=_parse(CrawlCurve, CRAWL, doc, path + ".crawl"))
        return ExperimentConfig(
            tail=_parse(TailConfig, TAIL, doc, "tail"),
            angle_model=_parse(EngagedAngleModel, ENGAGED_ANGLE, doc,
                               "engaged_angle"),
            thresholds=_parse(RegimeThresholds, REGIMES, doc, "regimes"),
            gait=_parse(GaitConfig, GAIT, doc, "gait",
                        encoder=_parse(EncoderModel, ENCODER, doc, "gait"),
                        noise=_parse(AsymmetryNoise, NOISE, doc, "noise")),
            robot=_parse(RobotParams, ROBOT, doc, "robot"),
            responses=responses, analysis=dict(doc["analysis"]),
            experiments=doc["experiments"],
            seed=seed, raw=doc)
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


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


def config_with_responses(config: ExperimentConfig, responses: dict) -> dict:
    """Serializable copy of a config document with new substrate curves."""
    doc = json.loads(json.dumps(config.raw))
    for material, response in responses.items():
        doc["substrates"][material.value] = _substrate_dict(response)
    return doc
