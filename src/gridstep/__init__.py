"""Discrete power-injection control toolkit for electric grids.

Two controllers are provided: discrete electromechanical oscillation control
(DEOC) on reduced linear multi-machine swing models, and discrete frequency
excursion control (DFEC) on a nonlinear two-machine governor model.
"""

from .errors import (
    DegenerateSpectrumError,
    DimensionError,
    GridStepError,
    InputFormatError,
    MaxWindowWarning,
    ModelError,
    NoSwitchOpportunityError,
    OptimizationError,
    ReachabilityWarning,
    ScheduleError,
    StiffnessError,
)
from .modal import ModalBasis, analyze, orbit_value, propagate
from .network import (
    GridSystem,
    ReducedModel,
    build_reduced_model,
    equilibrium_shifted,
    load_grid,
)
from .oscillation import (
    ControlStage,
    DeocSchedule,
    build_schedule,
    design_dp,
    find_switch_off,
    find_switch_on,
    oscillation_energy,
    switching_function,
)
from .simulate import Disturbance, Trajectory, apply_disturbance, simulate_deoc
from .frequency import (
    ActionBounds,
    DfecAction,
    DfecResult,
    GovernorParams,
    SimOptions,
    TwoMachineModel,
    contour_sweep,
    nadir_cost,
    optimize_action,
)
from .scenario import DeocScenario, DfecScenario, load_scenario

__all__ = [
    "ActionBounds", "DfecAction", "DfecResult", "GovernorParams",
    "SimOptions", "TwoMachineModel", "contour_sweep", "nadir_cost",
    "optimize_action", "DeocScenario", "DfecScenario", "load_scenario",
    "GridStepError", "ModelError", "DimensionError", "InputFormatError", "DegenerateSpectrumError",
    "NoSwitchOpportunityError", "ScheduleError", "StiffnessError",
    "OptimizationError", "ReachabilityWarning", "MaxWindowWarning",
    "GridSystem", "ReducedModel", "build_reduced_model", "equilibrium_shifted",
    "load_grid", "ModalBasis", "analyze", "propagate", "orbit_value",
    "ControlStage", "DeocSchedule", "switching_function", "oscillation_energy",
    "design_dp", "find_switch_on", "find_switch_off", "build_schedule",
    "Disturbance", "Trajectory", "apply_disturbance", "simulate_deoc",
]

__version__ = "0.1.0"
