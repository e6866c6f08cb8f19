"""Adornment minimization: apply the greedy minimal relaxation to every
stored adornment and merge predicates whose adornments collapse."""

from __future__ import annotations

from dataclasses import replace

from .adorn import Adornment, AdornedProgram, GMin, relax
from .core import Rule
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
        return replace(atom, adornment=mapping[adn.key])

    new_rules: dict = {}  # canonical form -> first rule of that form
    for r in pi.rules:
        nr = Rule(rewrite(r.head), tuple(rewrite(a) for a in r.body))
        new_rules.setdefault(canonical_form(nr), nr)
    return AdornedProgram(rules=tuple(new_rules[k] for k in sorted(new_rules)),
                          source=pi.source)


def _adornment_minimal(adn: Adornment) -> bool:
    rule = adn.rule
    head_vars = set(rule.head_vars())
    counts: dict = {}
    for a in rule.body:
        atom_vars = set()
        for t in a.terms:
            name = getattr(t, "name", None)
            if name in head_vars:
                counts[name] = counts.get(name, 0) + 1
                atom_vars.add(name)
        if not atom_vars:
            return False  # an all-wildcard atom restricts nothing
    return all(c == 1 for c in counts.values()) and \
        set(counts) == head_vars if head_vars else True


def is_minimal(pi: AdornedProgram) -> bool:
    """True iff every head variable of every adornment occurs in exactly
    one body position and no body atom is all wildcards."""
    adns = {a.adornment.key: a.adornment
            for r in pi.rules for a in (r.head, *r.body)
            if a.adornment is not None}
    return all(_adornment_minimal(a) for a in adns.values())
