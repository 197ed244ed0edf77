"""Rotary spring-tail mechanics.

A thin rectangular spring-steel blade is swept by a gearmotor inside a
curved housing. Each revolution it contacts the wall, bends progressively
until it conforms to the housing arc, then snaps free at the arc exit and
strikes the ground. The blade segment still engaged at release acts as a
short cantilever, which gives the closed-form strike force used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FieldError, check_positive
from .stats import ForceTrace

TWO_PI = 2.0 * math.pi
# the samples a force trace may span (`trace_samples`): room for a 3600 s
# recording at 2 kHz. A trace read from CSV holds every one, 64 MB of
# float64 at the limit; a synthesized one stores only its pulse samples.
MAX_TRACE_SAMPLES = 1 << 23
# the revolutions a strike sequence may span (`revolutions`): room for a
# 3600 s trial at 18 rev/s, 18 times the paper's 60 rpm. A sequence's four
# float64 columns then take 2 MB, and `strike_trace`'s per-strike windows
# at the default 10 ms pulse and 2 kHz about 12 MB an array, as do the
# samples and indices its trace stores.
MAX_STRIKES = 1 << 16


class LengthRegime(Enum):
    JAM = "jam"
    NOMINAL = "nominal"
    ROLL = "roll"


@dataclass(frozen=True)
class TailConfig:
    """Blade material/geometry and housing geometry.

    Defaults describe a 25 mm x 10 mm x 0.10 mm 1095 spring-steel blade in
    an 11 mm radius housing with a 270 degree arc, driven at 60 rpm.
    """

    youngs_modulus: float = 200e9  # Pa
    width: float = 10e-3  # m
    thickness: float = 0.10e-3  # m
    free_length: float = 25e-3  # m
    housing_radius: float = 11e-3  # m
    housing_arc: float = 1.5 * math.pi  # rad
    motor_speed: float = 1.0  # rev/s
    pulse_width: float = 0.010  # s, half-sine strike duration (fitted)

    def __post_init__(self):
        check_positive(self, "youngs_modulus", "width", "thickness",
                       "housing_radius", "motor_speed", "pulse_width")
        if self.thickness >= self.housing_radius:
            raise FieldError("{thickness} must stay below {housing_radius}")
        if not 0.0 < self.housing_arc < TWO_PI:
            raise FieldError("{housing_arc} must lie in (0, 2*pi)")
        # the blade must conform to the housing arc
        arc = self.housing_radius * self.housing_arc
        if not 0.0 < self.free_length <= arc:
            raise FieldError("{free_length} must lie in "
                             f"(0, {arc * 1e3:g}] mm, the housing arc "
                             "{housing_radius} * {housing_arc}")

    @property
    def second_moment(self) -> float:
        return area_moment(self.width, self.thickness)


@dataclass(frozen=True)
class EngagedAngleModel:
    """Distribution of the housing arc still engaged at the instant of
    release. The engagement varies strike to strike; the default uniform
    [20 deg, 45 deg] spread reproduces the observed 2-6 N force band."""

    kind: str = "uniform"  # "uniform" | "truncated_normal"
    lower: float = math.radians(20.0)
    upper: float = math.radians(45.0)
    mean: float | None = None
    spread: float | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "truncated_normal"):
            raise FieldError("{kind} must be uniform or truncated_normal")
        if not 0.0 < self.lower <= self.upper:
            raise FieldError("{lower} must lie in (0, {upper}]")
        if self.kind == "truncated_normal" and self.spread is not None:
            check_positive(self, "spread", zero_ok=True)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` engaged angles, drawn from `rng` exactly as `size` draws
        of one angle each would: the uniform model in one call, a truncated
        normal draw by draw, each retried up to 1000 times before it falls
        back to the mean clamped to [lower, upper]."""
        if self.lower == self.upper:
            return np.full(size, self.lower)
        if self.kind == "uniform":
            return rng.uniform(self.lower, self.upper, size)
        mean = self.mean if self.mean is not None else 0.5 * (self.lower + self.upper)
        spread = self.spread if self.spread is not None else 0.25 * (self.upper - self.lower)
        angles = np.full(size, min(max(mean, self.lower), self.upper))
        if spread == 0.0:
            return angles
        for k in range(size):
            for _ in range(1000):
                draw = rng.normal(mean, spread)
                if self.lower <= draw <= self.upper:
                    angles[k] = draw
                    break
        return angles


@dataclass(frozen=True, eq=False)
class StrikeSequence:
    """The strikes of a recording window in time order, as read-only
    float64 columns of one length each; `len()` is the strike count. The
    constructor copies what it is given."""

    time: np.ndarray  # s
    peak_force: np.ndarray  # N
    impulse: np.ndarray  # N*s
    engaged_angle: np.ndarray  # rad

    def __post_init__(self):
        names = ("time", "peak_force", "impulse", "engaged_angle")
        columns = [np.array(getattr(self, name), dtype=float) for name in names]
        if any(c.ndim != 1 or len(c) != len(columns[0]) for c in columns):
            raise ValueError("strike columns must be 1-D and of one length")
        for name, column in zip(names, columns):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self):
        return len(self.time)


@dataclass(frozen=True)
class RegimeThresholds:
    """Blade-length regime boundaries and regime behavior (fitted, not
    measured; boundary lengths classify as nominal)."""

    jam_below: float = 20e-3  # m
    roll_above: float = 30e-3  # m
    jam_strike_prob: float = 0.3  # per-revolution strike probability when jammed
    roll_attenuation: float = 0.5  # force multiplier when the blade rolls

    def __post_init__(self):
        if not 0.0 < self.jam_below < self.roll_above:
            raise FieldError("{jam_below} must lie in (0, {roll_above})")
        if not 0.0 <= self.jam_strike_prob <= 1.0:
            raise FieldError("{jam_strike_prob} must lie in [0, 1]")
        if not 0.0 < self.roll_attenuation <= 1.0:
            raise FieldError("{roll_attenuation} must lie in (0, 1]")


def area_moment(width: float, thickness: float) -> float:
    """Blade cross-section second moment b*t^3/12 (m^4); t^3 may read inf."""
    if width <= 0 or thickness <= 0:
        raise ValueError("width and thickness must be positive")
    return width * np.float64(thickness) ** 3 / 12.0


def tip_stiffness(youngs_modulus: float, second_moment: float,
                  length: float) -> float:
    """Cantilever tip stiffness 3*E*I/L^3 (N/m)."""
    if youngs_modulus <= 0 or second_moment <= 0 or length <= 0:
        raise ValueError("all stiffness inputs must be positive")
    return 3.0 * youngs_modulus * second_moment / length ** 3


def latch_deflection(length: float, housing_radius: float) -> float:
    """Tip deflection of a blade segment conformed against the housing,
    L^2/(2R) (m)."""
    if length <= 0 or housing_radius <= 0:
        raise ValueError("length and housing_radius must be positive")
    return length ** 2 / (2.0 * housing_radius)


def effective_length(housing_radius: float, engaged_angle):
    """Engaged cantilever length R*theta (m), of one angle or of each in an
    array."""
    if housing_radius <= 0 or np.any(engaged_angle <= 0):
        raise ValueError("housing_radius and engaged_angle must be positive")
    return housing_radius * engaged_angle


def _released_length(config: TailConfig, engaged_angle):
    """`effective_length` of an angle still inside the housing arc."""
    if np.any(engaged_angle >= config.housing_arc):
        raise ValueError("engaged_angle must be smaller than the housing arc")
    return effective_length(config.housing_radius, engaged_angle)


def unlatch_force(config: TailConfig, engaged_angle):
    """Peak elastic force at release, 3*E*I/(2*R*L_eff) with L_eff = R*theta
    (N), of one angle or of each in an array."""
    length = _released_length(config, engaged_angle)
    return (3.0 * config.youngs_modulus * config.second_moment
            / (2.0 * config.housing_radius * length))


def stored_energy(config: TailConfig, engaged_angle: float) -> float:
    """Elastic energy held by the engaged segment at release, equal to
    0.5*k*delta^2 = 3*E*I*L_eff/(8*R^2) (J)."""
    length = _released_length(config, engaged_angle)
    return (3.0 * config.youngs_modulus * config.second_moment * length
            / (8.0 * config.housing_radius ** 2))


def latch_energy(config: TailConfig) -> float:
    """Bending energy of the whole blade fully conformed to the housing arc,
    E*I*L/(2*R^2) (J). Upper bound on the energy a strike can deliver."""
    return (config.youngs_modulus * config.second_moment * config.free_length
            / (2.0 * config.housing_radius ** 2))


def half_sine_impulse(peak_force, pulse_width: float):
    """Analytic impulse of a half-sine pulse, 2*F*tau/pi (N*s), of one peak
    force or of each in an array."""
    if np.any(peak_force <= 0) or pulse_width <= 0:
        raise ValueError("peak_force and pulse_width must be positive")
    return 2.0 * peak_force * pulse_width / math.pi


def length_regime(free_length: float,
                  thresholds: RegimeThresholds | None = None) -> LengthRegime:
    """Classify a blade length; boundary lengths are nominal."""
    thresholds = thresholds or RegimeThresholds()
    if free_length <= 0:
        raise ValueError("free_length must be positive")
    if free_length < thresholds.jam_below:
        return LengthRegime.JAM
    if free_length > thresholds.roll_above:
        return LengthRegime.ROLL
    return LengthRegime.NOMINAL


def strike_sequence(config: TailConfig,
                    angle_model: EngagedAngleModel | None = None,
                    regime: LengthRegime = LengthRegime.NOMINAL,
                    duration: float = 10.0, seed: int = 0,
                    thresholds: RegimeThresholds | None = None
                    ) -> StrikeSequence:
    """Generate the strikes of a recording window.

    Nominal blades strike once per revolution; jammed blades strike with
    probability jam_strike_prob per revolution; rolling blades strike every
    revolution at attenuated force. Deterministic given the seed. The
    angles are drawn as one array and the force law prices them all at
    once, except that a jammed blade's strike test and angle draw take
    turns in one stream, revolution by revolution. A window of more than
    MAX_STRIKES revolutions is refused before anything is allocated.
    """
    angle_model = angle_model or EngagedAngleModel()
    thresholds = thresholds or RegimeThresholds()
    check_strikes(config, angle_model, duration)
    turns = revolutions(config.motor_speed, duration)
    rng = np.random.default_rng(seed)
    if regime is LengthRegime.JAM:
        struck, angles = [], []
        for k in range(turns):
            if rng.random() < thresholds.jam_strike_prob:
                struck.append(k)
                angles.append(angle_model.sample(rng, 1)[0])
        struck, theta = np.array(struck, dtype=np.int64), np.array(angles)
    else:
        struck = np.arange(turns)
        theta = angle_model.sample(rng, turns)
    force = unlatch_force(config, theta)
    if regime is LengthRegime.ROLL:
        force *= thresholds.roll_attenuation
    return StrikeSequence(time=(struck + 1) / config.motor_speed,
                          peak_force=force,
                          impulse=half_sine_impulse(force, config.pulse_width),
                          engaged_angle=theta)


def check_strikes(config: TailConfig, angle_model: EngagedAngleModel,
                  duration: float) -> None:
    """`strike_sequence`'s rules on its window and engagement: `duration`
    is >= 0, and the engaged angle's upper bound stays below the housing
    arc, so that every drawn angle prices a strike."""
    if not duration >= 0:
        raise FieldError("{duration} must be >= 0")
    if not angle_model.upper < config.housing_arc:
        raise FieldError("{upper} must stay below {housing_arc}")


def revolutions(motor_speed: float, duration: float) -> int:
    """floor(motor_speed * duration), the revolutions in a recording
    `duration` s long; more than MAX_STRIKES, an infinite count too, is an
    error."""
    if not motor_speed * duration < MAX_STRIKES + 1:
        raise FieldError("{motor_speed} is too high for {duration}: "
                         f"{motor_speed:g} rev/s over {duration:g} s would "
                         f"take over {MAX_STRIKES} strikes")
    return int(math.floor(motor_speed * duration))


def trace_samples(duration: float, sample_rate: float) -> int:
    """round(duration * sample_rate) + 1, the samples of a trace `duration` s
    long; more than MAX_TRACE_SAMPLES, an infinite count too, is an error."""
    if not duration * sample_rate < MAX_TRACE_SAMPLES - 0.5:
        raise FieldError("{duration} is too long at {sample_rate}: a "
                         f"{duration:g} s trace at {sample_rate:g} Hz would "
                         f"take over {MAX_TRACE_SAMPLES} samples")
    return int(round(duration * sample_rate)) + 1


def check_sample_rate(sample_rate: float, pulse_width: float) -> None:
    """`strike_trace`'s rule on its rates: a positive pulse width, resolved
    by at least two samples."""
    if not pulse_width > 0:
        raise FieldError("{pulse_width} must be positive")
    if not sample_rate >= 2.0 / pulse_width:
        raise FieldError("{sample_rate} must be at least 2 / {pulse_width} = "
                         f"{2.0 / pulse_width:g} Hz")


def strike_trace(events: StrikeSequence, sample_rate: float,
                 pulse_width: float = 0.010) -> ForceTrace:
    """Synthesize the force-sensor signal for a strike sequence: one
    half-sine pulse of width pulse_width per strike, starting at the strike
    time. Pulses must be resolved by at least two samples.

    The trace ends one pulse width after the latest strike (or at one pulse
    width, if none is later). A strike time that is not finite and a trace
    over MAX_TRACE_SAMPLES are each a ValueError, raised before anything is
    allocated. A strike far before time zero writes nothing.

    The trace stores only the samples some pulse writes, with their sample
    indices; every other sample is 0.0. Each strike touches only its own
    window of about pulse_width * sample_rate samples, laid out for all
    strikes in one numpy pass, so time and memory go with the pulse samples
    written, not with the trace length."""
    check_sample_rate(sample_rate, pulse_width)
    if not np.isfinite(events.time).all():
        raise ValueError("strike times must be finite")
    n = trace_samples(float(events.time.max(initial=0.0)) + pulse_width,
                      sample_rate)
    times, forces = events.time[:, None], events.peak_force[:, None]
    # One sample of slack each side: the time comparisons below, not this
    # index arithmetic, decide which samples a pulse covers. Clipped to the
    # trace before the cast, so far-off strikes get empty windows.
    with np.errstate(over="ignore"):
        lo = np.clip(np.ceil(times * sample_rate) - 1, 0, n)
        hi = np.clip(np.floor((times + pulse_width) * sample_rate) + 2, lo, n)
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    idx = lo + np.arange((hi - lo).max(initial=0))
    t = idx / sample_rate
    keep = (idx < hi) & (t >= times) & (t <= times + pulse_width)
    # np.nonzero is event-major, so overlapping pulses add in strike order,
    # each sample starting from 0.0
    strike = np.nonzero(keep)[0]
    indices, slot = np.unique(idx[keep], return_inverse=True)
    samples = np.zeros(indices.size)
    np.add.at(samples, slot, forces[strike, 0] * np.sin(
        math.pi * (t[keep] - times[strike, 0]) / pulse_width))
    return ForceTrace(sample_rate=sample_rate, samples=samples,
                      indices=indices, n_samples=n)
