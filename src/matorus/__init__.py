"""Numerical laboratory for the complex Monge-Ampere equation on
Hermitian (generally non-Kahler) complex tori: spectral solvers, metric
diagnostics, and verification harnesses for the associated uniform
estimates and pointwise identities."""

from .errors import MatorusError
from .grid import (
    GridSpec,
    HermitianField,
    ScalarField,
    constant_field,
    ddbar,
    identity_metric,
    integrate,
    measure_weights,
)
from .fieldio import deserialize, serialize
from .geometry import (
    MetricDefects,
    canonical_laplacian,
    defects,
    gauduchon_metric,
    gauduchon_weight,
    ricci_form,
    trace_pair,
    wedge_integral,
)
from .solver import SolveResult, SolverConfig, continuity_solve, ma_log_residual, newton_solve
from .estimates import EstimateReport, report, sweep
from .jets import CoordinateChange, MetricJet, check_balanced_coords, check_cs_chain, normal_coordinates
from .chern import PrescriptionResult, constraint_integral, prescribe_ricci

__version__ = "0.1.0"

__all__ = [
    "MatorusError",
    "GridSpec",
    "ScalarField",
    "HermitianField",
    "constant_field",
    "identity_metric",
    "ddbar",
    "integrate",
    "measure_weights",
    "serialize",
    "deserialize",
    "MetricDefects",
    "defects",
    "canonical_laplacian",
    "trace_pair",
    "gauduchon_weight",
    "gauduchon_metric",
    "ricci_form",
    "wedge_integral",
    "SolverConfig",
    "SolveResult",
    "ma_log_residual",
    "newton_solve",
    "continuity_solve",
    "EstimateReport",
    "report",
    "sweep",
    "MetricJet",
    "CoordinateChange",
    "normal_coordinates",
    "check_cs_chain",
    "check_balanced_coords",
    "PrescriptionResult",
    "constraint_integral",
    "prescribe_ricci",
    "__version__",
]
