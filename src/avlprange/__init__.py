"""Range of optimal values of interval absolute value linear programs.

The package computes, for programs ``max c @ x  s.t.  A x - D |x| <= b``
whose data ``A``, ``b``, ``c``, ``D`` are interval-valued, the exact
best-case optimal value, certified bounds on the worst-case optimal
value, and exact worst-case values under verified basis stability.
"""

from .avlp import (
    DEFAULT_ORTHANT_CAP,
    GenAvlpProgram,
    SolveOutcome,
    from_realization,
    solve_gen_avlp,
)
from .errors import (
    AvlpRangeError,
    DimensionError,
    InputError,
    NumericalError,
    SingularMatrixError,
    SizeCapError,
    UnknownRegularityError,
)
from .intervals import (
    DEFAULT_TOL,
    IntervalMatrix,
    IntervalVector,
    RegularityCheck,
    SignVector,
    beeck_regular,
    interval_matvec,
    rex_rohn_regular,
    sign_of,
)
from .linalg import enclose_interval_solution, solve_square
from .problem_io import parse_problem, problem_from_dict, serialize_problem, write_problem
from .ranges import (
    AvlpProblem,
    IterationStep,
    RangeReport,
    Realization,
    best_case,
    full_range,
    lower_tightness,
    relaxed_interval_lp,
    sample_realization,
    worst_lower_bound,
    worst_range,
    worst_upper_bound,
)
from .simplex import (
    LpOutcome,
    LpProblem,
    Status,
    solve_lp,
)
from .stability import (
    Basis,
    CertificateStatus,
    StabilityCertificate,
    best_case_bstable,
    verify_b_stability,
    worst_case_bstable,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "DEFAULT_TOL",
    "DEFAULT_ORTHANT_CAP",
    "AvlpRangeError",
    "InputError",
    "DimensionError",
    "SingularMatrixError",
    "NumericalError",
    "UnknownRegularityError",
    "SizeCapError",
    "IntervalVector",
    "IntervalMatrix",
    "SignVector",
    "RegularityCheck",
    "sign_of",
    "beeck_regular",
    "rex_rohn_regular",
    "interval_matvec",
    "solve_square",
    "enclose_interval_solution",
    "Status",
    "LpProblem",
    "LpOutcome",
    "solve_lp",
    "GenAvlpProgram",
    "SolveOutcome",
    "solve_gen_avlp",
    "from_realization",
    "AvlpProblem",
    "Realization",
    "IterationStep",
    "RangeReport",
    "best_case",
    "relaxed_interval_lp",
    "worst_lower_bound",
    "lower_tightness",
    "worst_upper_bound",
    "sample_realization",
    "full_range",
    "worst_range",
    "Basis",
    "CertificateStatus",
    "StabilityCertificate",
    "verify_b_stability",
    "best_case_bstable",
    "worst_case_bstable",
    "parse_problem",
    "problem_from_dict",
    "serialize_problem",
    "write_problem",
]
