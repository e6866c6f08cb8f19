"""Adornment minimization: apply the greedy minimal relaxation to every
stored adornment and merge predicates whose adornments collapse."""

from __future__ import annotations

from .adorn import AdornedProgram, GMin, relax
from .core import Atom, Rule
from .unify import canonical_form


def minimize_program(pi: AdornedProgram) -> AdornedProgram:
    """Minimal equivalent of pi: every adornment replaced by its greedy
    minimal cover, colliding adorned predicates merged, duplicate rules
    dropped.  Preserves the integral edge-cover width."""
    gmin = GMin()
    mapping: dict = {}

    def rewrite(atom):
        adn = atom.adornment
        if adn is None:
            return atom
        if adn.key not in mapping:
            mapping[adn.key] = relax(gmin, adn.rule)
        return Atom(atom.pred, atom.terms, mapping[adn.key])

    new_rules: dict = {}  # canonical form -> first rule of that form
    for r in pi.rules:
        nr = Rule(rewrite(r.head), tuple(rewrite(a) for a in r.body))
        new_rules.setdefault(canonical_form(nr), nr)
    return AdornedProgram(rules=tuple(new_rules[k] for k in sorted(new_rules)),
                          source=pi.source)
