"""sexakit: exact base-60 arithmetic and Susa tablet excavation replays.

The package computes only exactly: every number is an arbitrary-precision
rational, every comparison is equality, nothing is ever rounded.  On top
of the number core sit Babylonian units, the scribal solution procedures
(completing the square, sum-difference, division by recognition), canal
geometry, and a corpus of tablet problems that replay and verify every
intermediate "you see N" value of SMT No. 24 and No. 25.
"""

from . import errors
from .corpus import (
    PROCEDURES,
    CheckRow,
    ExpectedStep,
    ProcedureSpec,
    ReplayReport,
    TabletProblem,
    bundled_corpus_path,
    find_problem,
    load_corpus,
    replay,
)
from .geometry import (
    SMALL_CANAL_CONSTANT,
    CanalConstant,
    breadths_from_constraints,
    depth_from_labor,
    length_from_volume,
    prism_volume,
    trapezoid_cross_section,
)
from .procedures import (
    QuadraticProblem,
    Step,
    StepTrace,
    SumDifferenceProblem,
    divide_by_recognition,
    replay_smt24_p2,
    solve_quadratic_scribal,
    solve_sum_difference,
)
from .sexa import (
    Sexa,
    halve,
    is_regular,
    parse,
    reciprocal,
    render,
    sqrt_exact,
    square,
)
from .units import (
    KUS_PER_NINDAN,
    Dimension,
    Quantity,
    parse_quantity,
    qdiv,
    qmul,
    sar_to_volume_sar,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    # numbers
    "Sexa", "parse", "render",
    "halve", "square", "sqrt_exact", "reciprocal", "is_regular",
    # units
    "Dimension", "Quantity", "KUS_PER_NINDAN",
    "qmul", "qdiv", "sar_to_volume_sar", "parse_quantity",
    # procedures
    "Step", "StepTrace", "QuadraticProblem", "SumDifferenceProblem",
    "solve_quadratic_scribal", "solve_sum_difference",
    "divide_by_recognition", "replay_smt24_p2",
    # geometry
    "CanalConstant", "SMALL_CANAL_CONSTANT",
    "trapezoid_cross_section", "prism_volume",
    "breadths_from_constraints", "length_from_volume", "depth_from_labor",
    # corpus
    "PROCEDURES", "ProcedureSpec", "ExpectedStep", "TabletProblem",
    "CheckRow", "ReplayReport", "bundled_corpus_path", "load_corpus",
    "find_problem", "replay",
]
