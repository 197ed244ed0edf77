"""skipsim: simulation and analysis toolkit for a centimeter-scale
skipping/crawling robot."""

__version__ = "0.1.0"

from .gait import (AsymmetryNoise, EncoderModel, GaitConfig, GaitMode,
                   PlanarPose, Trajectory)
from .locomotion import (BatchSummary, LocomotionMode, Model, RobotParams,
                         TrialResult, TrialSpec, run_batch, run_trial,
                         scenario_heterogeneous)
from .springtail import (EngagedAngleModel, LengthRegime, RegimeThresholds,
                         StrikeSequence, TailConfig)
from .stats import BootstrapCI, FailureMode, ForceTrace, PeakSet
from .terrain import Material, MoistureResponse, SubstrateParams

__all__ = [
    "AsymmetryNoise", "BatchSummary", "BootstrapCI", "EncoderModel",
    "EngagedAngleModel", "FailureMode", "ForceTrace",
    "GaitConfig", "GaitMode", "LengthRegime", "LocomotionMode", "Material",
    "Model", "MoistureResponse", "PeakSet", "PlanarPose", "RegimeThresholds",
    "RobotParams", "StrikeSequence",
    "SubstrateParams", "TailConfig", "Trajectory",
    "TrialResult", "TrialSpec", "run_batch", "run_trial",
    "scenario_heterogeneous",
]
