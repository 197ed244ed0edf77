"""skipsim: simulation and analysis toolkit for a centimeter-scale
skipping/crawling robot."""

__version__ = "0.1.0"

from .gait import (AsymmetryNoise, EncoderModel, FinState, GaitConfig,
                   GaitMode, PlanarPose, Side, Trajectory)
from .locomotion import (BatchSummary, LocomotionMode, Model, RobotParams,
                         ScenarioSegment, TrialResult, TrialSpec, run_batch,
                         run_trial, scenario_heterogeneous)
from .springtail import (EngagedAngleModel, LengthRegime, RegimeThresholds,
                         StrikeEvent, TailConfig, TailPhase)
from .stats import BootstrapCI, FailureMode, ForceTrace, PeakSet
from .terrain import Material, MoistureResponse, SubstrateParams

__all__ = [
    "AsymmetryNoise", "BatchSummary", "BootstrapCI", "EncoderModel",
    "EngagedAngleModel", "FailureMode", "FinState", "ForceTrace",
    "GaitConfig", "GaitMode", "LengthRegime", "LocomotionMode", "Material",
    "Model", "MoistureResponse", "PeakSet", "PlanarPose", "RegimeThresholds",
    "RobotParams", "ScenarioSegment", "Side", "StrikeEvent",
    "SubstrateParams", "TailConfig", "TailPhase", "Trajectory",
    "TrialResult", "TrialSpec", "run_batch", "run_trial",
    "scenario_heterogeneous",
]
