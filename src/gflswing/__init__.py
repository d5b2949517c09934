"""Transient angular-stability simulator for parallel grid-following inverters.

A fleet of current-source inverters shares a single point of common coupling
(PCC) behind a Thevenin-equivalent feeder. The package solves the implicit
PCC voltage equation, steps per-inverter PLL dynamics through pre-fault,
fault-on and post-fault intervals, applies current limiting and trip logic,
and estimates critical clearing times by bisection.
"""

from gflswing.network import (
    GridModel,
    TheveninEquivalent,
    equivalent_impedance,
    faulted_grid,
    line_impedance,
    parallel,
)
from gflswing.pcc import (
    NonConvergence,
    PccSolution,
    ZeroVoltage,
    q_components,
    solve_vpcc,
)
from gflswing.dynamics import (
    FaultScenario,
    InitializationFailure,
    InverterConfig,
    SimState,
    SolverOptions,
    Trajectory,
    TrajectoryRecord,
    simulate,
)
from gflswing.stability import (
    BracketInvalid,
    CctResult,
    EmptyOrder,
    FleetComparison,
    StabilityVerdict,
    classify,
    compare_uniform,
    find_cct,
    sync_loss_order,
)

__version__ = "0.1.0"

__all__ = [
    "GridModel",
    "TheveninEquivalent",
    "equivalent_impedance",
    "faulted_grid",
    "line_impedance",
    "parallel",
    "NonConvergence",
    "PccSolution",
    "ZeroVoltage",
    "q_components",
    "solve_vpcc",
    "FaultScenario",
    "InitializationFailure",
    "InverterConfig",
    "SimState",
    "SolverOptions",
    "Trajectory",
    "TrajectoryRecord",
    "simulate",
    "BracketInvalid",
    "CctResult",
    "EmptyOrder",
    "FleetComparison",
    "StabilityVerdict",
    "classify",
    "compare_uniform",
    "find_cct",
    "sync_loss_order",
    "__version__",
]
