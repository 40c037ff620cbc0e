"""Partition-based asynchronous ADMM with a deterministic delay simulator,
an AC optimal power flow backend, and trace diagnostics."""

from .analysis import (
    DiagnosticConstants,
    GlobalIterationAssignment,
    assign_global_iterations,
    check_kkt,
    check_lambda_bound,
    check_staleness_bound,
    measure_omega,
    objective_gap,
    parameter_bounds,
)
from .engine import (
    DelayModel,
    DelaySpec,
    EventTrace,
    RunResult,
    StoppingRule,
    ready_to_update,
    run,
)
from .kernel import (
    AdmmParams,
    WorkerState,
    initial_z,
    lambda_update,
    project_lambda,
    residue,
    x_update,
    z_update,
)
from .localsolver import SolveError, SolveResult, solve_local
from .opf import (
    OpfCase,
    Partition,
    build_regional_subproblems,
    centralized_reference_solve,
    power_flow_residual,
)
from .problem import (
    CouplingEdge,
    PartitionedProblem,
    RegionSpec,
    make_nonconvex_toy,
    make_toy_consensus,
)

__version__ = "0.1.0"
