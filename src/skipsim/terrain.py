"""Substrate response models.

Each material maps moisture content m (added water mass / dry substrate
mass) to a skip efficiency and a crawl traction in [0, 1], plus two
categorical flags: tail slip on saturated clay and excavation on loose beds.
Grass has no flag of its own: its crawl cap of 0.02 keeps fin crawling
below the progress threshold. Curve shapes are phenomenological; the shipped
coefficients are fitted against the bundled velocity targets (see the
calibrate module) and can be regenerated with `skipsim calibrate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

MOISTURE_MAX = 1.2  # upper end of the supported moisture domain


class Material(Enum):
    UNIFORM_SAND = "uniform_sand"
    NONUNIFORM_SAND = "nonuniform_sand"
    BENTONITE_CLAY = "bentonite_clay"
    GRASS = "grass"
    RIGID = "rigid"


@dataclass(frozen=True)
class SkipCurve:
    """Gaussian bump over moisture: floor + (peak - floor) * exp(-(m-center)^2 / 2w^2)."""

    floor: float
    peak: float
    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")
        if not 0.0 <= self.floor <= 1.0 or not 0.0 <= self.peak <= 1.0:
            raise ValueError("floor and peak must lie in [0, 1]")

    def __call__(self, m: float) -> float:
        value = self.floor + (self.peak - self.floor) * math.exp(
            -((m - self.center) ** 2) / (2.0 * self.width ** 2))
        return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class CrawlCurve:
    """Logistic rise times exponential decline:
    cap * sigmoid((m - rise_mid)/rise_width) * exp(-decay * m)."""

    cap: float
    rise_mid: float
    rise_width: float
    decay: float

    def __post_init__(self):
        if self.cap < 0:
            raise ValueError("cap must be >= 0")
        if self.rise_width <= 0:
            raise ValueError("rise_width must be positive")
        if self.decay < 0:
            raise ValueError("decay must be >= 0")

    def __call__(self, m: float) -> float:
        z = (m - self.rise_mid) / self.rise_width
        # guard the exp in the logistic for extreme arguments
        if z >= 0:
            logistic = 1.0 / (1.0 + math.exp(-z))
        else:
            e = math.exp(z)
            logistic = e / (1.0 + e)
        value = self.cap * logistic * math.exp(-self.decay * m)
        return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class MoistureResponse:
    """Full moisture response of one material."""

    skip: SkipCurve
    crawl: CrawlCurve
    slip_moisture: float | None = None  # tail shears the slurry at/above this m
    excavation_traction: float = 0.15  # crawling digs in below this traction
    moisture_sensitive: bool = True  # False: response identical at every m

    def __post_init__(self):
        if self.excavation_traction < 0:
            raise ValueError("excavation_traction must be >= 0")
        if self.slip_moisture is not None and self.slip_moisture <= 0:
            raise ValueError("slip_moisture must be positive")

    def skip_efficiency(self, m: float) -> float:
        return self.skip(m if self.moisture_sensitive else 0.0)

    def crawl_traction(self, m: float) -> float:
        return self.crawl(m if self.moisture_sensitive else 0.0)


@dataclass(frozen=True)
class SubstrateParams:
    """Evaluated response at one (material, moisture) point."""

    skip_efficiency: float
    crawl_traction: float
    tail_slips: bool
    excavates: bool


# Calibrated coefficients (regenerate with `skipsim calibrate`). Flat curves
# use floor == peak; grass and rigid ground ignore moisture entirely.
_DEFAULT_RESPONSES = {
    Material.UNIFORM_SAND: MoistureResponse(
        skip=SkipCurve(floor=0.2706, peak=0.646903, center=0.15, width=0.08),
        crawl=CrawlCurve(cap=1.0, rise_mid=0.04, rise_width=0.02, decay=0.3),
    ),
    Material.NONUNIFORM_SAND: MoistureResponse(
        skip=SkipCurve(floor=0.567802, peak=0.567802, center=0.10, width=0.10),
        crawl=CrawlCurve(cap=0.60, rise_mid=0.08, rise_width=0.03, decay=0.5),
    ),
    Material.BENTONITE_CLAY: MoistureResponse(
        skip=SkipCurve(floor=0.22, peak=0.566203, center=0.20, width=0.1119),
        crawl=CrawlCurve(cap=0.954544, rise_mid=0.25, rise_width=0.12, decay=1.0),
        slip_moisture=0.8,
    ),
    Material.GRASS: MoistureResponse(
        skip=SkipCurve(floor=0.812903, peak=0.812903, center=0.0, width=1.0),
        crawl=CrawlCurve(cap=0.02, rise_mid=-1.0, rise_width=0.05, decay=0.0),
        excavation_traction=0.0,
        moisture_sensitive=False,
    ),
    Material.RIGID: MoistureResponse(
        skip=SkipCurve(floor=0.80, peak=0.80, center=0.0, width=1.0),
        crawl=CrawlCurve(cap=0.94, rise_mid=-1.0, rise_width=0.05, decay=0.0),
        excavation_traction=0.0,
        moisture_sensitive=False,
    ),
}


def default_curves(material: Material) -> MoistureResponse:
    """Calibrated moisture response for a material."""
    return _DEFAULT_RESPONSES[material]


def check_moisture(moisture: float) -> None:
    if not 0.0 <= moisture <= MOISTURE_MAX:
        raise ValueError(f"moisture {moisture} outside supported range [0, {MOISTURE_MAX}]")


def moisture_response(material: Material, moisture: float,
                      response: MoistureResponse | None = None) -> SubstrateParams:
    """Evaluate a material's response at a moisture content.

    Tail slip zeroes the skip efficiency; excavation fires when the crawl
    traction falls below the material's excavation threshold (grass and
    rigid ground never excavate).
    """
    check_moisture(moisture)
    r = response or default_curves(material)
    skip = r.skip_efficiency(moisture)
    crawl = r.crawl_traction(moisture)
    m_eval = moisture if r.moisture_sensitive else 0.0
    slips = r.slip_moisture is not None and m_eval >= r.slip_moisture
    if slips:
        skip = 0.0
    excavates = crawl < r.excavation_traction
    return SubstrateParams(
        skip_efficiency=skip,
        crawl_traction=crawl,
        tail_slips=slips,
        excavates=excavates,
    )

