"""Fixed-point acceleration by alternating Anderson-Picard mixing.

Public surface: problem containers and helpers (`FixedPointProblem`,
`from_fixed_point_form`), the solver (`solve`, `SolverConfig`), its report
(`SolveReport`, one `MixingStep` record per mixing step, and the `Trace` of
a traced solve), the masking strategies (`Adaptivity`), and the built-in
grid problems under `aap.problems`.
"""
from .fixed_point import (
    FixedPointProblem,
    NumericalBreakdown,
    UnknownField,
    evaluate_residual,
    field_rows,
    from_fixed_point_form,
)
from .lsq import RankDeficient, estimate_sigma_min, qr_masked_solve
from .sketching import Adaptivity, MixingStep
from .solver import SolveReport, SolverConfig, Trace, solve

__version__ = "0.1.0"

__all__ = [
    "Adaptivity",
    "FixedPointProblem",
    "MixingStep",
    "NumericalBreakdown",
    "RankDeficient",
    "SolveReport",
    "SolverConfig",
    "Trace",
    "UnknownField",
    "estimate_sigma_min",
    "evaluate_residual",
    "field_rows",
    "from_fixed_point_form",
    "qr_masked_solve",
    "solve",
    "__version__",
]
