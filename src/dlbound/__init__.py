"""Static analysis toolkit for datalog: output-sensitive size bounds,
adornment rewriting, boundedness checks, and evaluation."""

from .core import (
    Atom, Const, DatalogError, ParseError, Program, Rule, ValidationError,
    Var, parse_program, print_program,
)
from .unify import canonical_form, mgu, subsumes
from .adorn import (
    Adornment, AdornedProgram, BudgetExceeded, GK, GMin, GOut, Id,
    MembershipFn, adorn_program, adornments_of, fixpoint_stable, h_cont,
    h_eq, make_relaxation, relax,
)
from .width import (
    EdgeCoverSolution, Hypergraph, UncoverableError, fractional_edge_cover,
    hypergraph_of, integral_edge_cover, width_of_adornment,
    width_of_predicate, width_of_program,
)
from .sizebound import (
    PredicateBounds, SchemaStats, SizeBoundReport, bound1, bound2,
    coeff_minimal, coeff_naive, pow_ceil, size_report,
)
from .boundedness import (
    Degraded, Inconclusive, NonRecursive, check_boundedness, cq_contained,
    extract_ucq,
)
from .minimize import minimize_program
from .evaluate import (
    BoundednessViolation, EDBInstance, IDBResult, RuleBoundedReport,
    check_rule_bounded, eval_cq, evaluate, parse_edb, union_adorned,
    value_cover_ok,
)
from .groundable import (
    ADORNMENT_GROUNDABLE, ComplexityBound, ComplexityReport, LINEAR,
    SIMPLE_CHAIN, classify_program, complexity_report, horn_ground_evaluate,
    integral_fchw,
)

__version__ = "0.1.0"
