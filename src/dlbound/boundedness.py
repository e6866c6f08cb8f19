"""Boundedness semi-decision: inlining with subsumption pruning, budgeted
fallback, non-recursive (UCQ) extraction, and CQ containment."""

from __future__ import annotations

from .core import Program, Rule, ValidationError, _Value
from .unify import subsumes
from .adorn import (
    AdornedProgram, BudgetExceeded, GK, Id, MembershipFn, adorn_program,
)


class NonRecursive(_Value):
    """The rewriting reached a fixpoint with no recursive adorned
    predicate: the program is bounded and each IDB collapses to a UCQ."""

    def __init__(self, program: AdornedProgram):
        self._init(program)

    @property
    def kind(self) -> str:
        return "non-recursive"


class Degraded(_Value):
    """A budgeted rewriting terminated, but some adorned predicate is
    recursive; the output is EDB-bounded yet not a UCQ."""

    def __init__(self, program: AdornedProgram, budget: int | None):
        self._init(program, budget)

    @property
    def kind(self) -> str:
        return "degraded"


class Inconclusive(_Value):
    """A rule or sweep limit was hit before reaching a fixpoint."""

    def __init__(self, partial: AdornedProgram, limit: str):
        self._init(partial, limit)

    @property
    def kind(self) -> str:
        return "inconclusive"


def cq_contained(c1: Rule, c2: Rule) -> bool:
    """Is the conjunctive query c1 contained in c2?

    Wildcards are already fresh variables internally, so containment is
    exactly subsumption of c1 by c2.
    """
    return subsumes(c2, c1)


def check_boundedness(p: Program, budget: int | None = None,
                      max_rules: int = 500, max_sweeps: int = 200):
    """Semi-decide boundedness of p.

    Without a budget the full-body (identity) relaxation is used and the
    search may hit its limits; with budget k the width-k relaxation
    guarantees termination.
    """
    g = Id() if budget is None else GK(budget)
    try:
        pi = adorn_program(p, g, MembershipFn("hcont"),
                           max_iterations=max_sweeps, max_rules=max_rules)
    except BudgetExceeded as exc:
        return Inconclusive(partial=exc.partial, limit=exc.limit)
    if pi.graph.cyclic():
        return Degraded(program=pi, budget=budget)
    return NonRecursive(program=pi)


def extract_ucq(outcome, q: str) -> list:
    """The UCQ (list of EDB-only rules) equivalent to q, for NonRecursive
    outcomes."""
    if not isinstance(outcome, NonRecursive):
        raise ValidationError(
            "UCQ extraction requires a non-recursive outcome")
    if q not in outcome.program.source.idb:
        raise ValidationError(f"unknown IDB predicate {q}")
    return [a.rule for a in outcome.program.adornment_map().get(q, ())]
