"""Program classification (linear, simple chain, adornment groundable),
Horn-clause grounding evaluation, and evaluation-complexity reports."""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache

from .core import (
    Atom, Program, Rule, ValidationError, Var, _Value, classify_rule_atoms,
    min_cover,
)
from .adorn import AdornedProgram
from .evaluate import EDBInstance, IDBResult, eval_cq
from .join import _Join, _Relation
from .width import hypergraph_of, width_of_program


LINEAR = "Linear"
SIMPLE_CHAIN = "SimpleChain"
ADORNMENT_GROUNDABLE = "AdornmentGroundable"


def classify_program(p: Program) -> set:
    """Syntactic classes the program falls into."""
    classes = set()
    if all(len(r.body) <= 2 for r in p.rules):
        classes.add(SIMPLE_CHAIN)
    if all(sum(1 for a in r.body if a.pred in p.idb) <= 1 for r in p.rules):
        classes.add(LINEAR)
    if all(_rule_groundable(r, p) for r in p.rules):
        classes.add(ADORNMENT_GROUNDABLE)
    return classes


def _rule_groundable(r: Rule, p: Program) -> bool:
    idb_atoms, edb_atoms = classify_rule_atoms(r, p)
    head_vars = set(r.head_vars())
    # variable -> how many body atoms hold it; an atom that occurs twice
    # as one object is one atom, and no other atom to itself
    holders: dict = {}
    for a in {id(a): a for a in r.body}.values():
        for v in a.vars():
            holders[v] = holders.get(v, 0) + 1
    for a in edb_atoms:
        vs = a.vars()
        if not (any(v in head_vars and holders[v] == 1 for v in vs)
                or head_vars.issuperset(vs)):
            return False
    edb_vars = {v for a in edb_atoms for v in a.vars()}
    for a in idb_atoms:
        if not set(a.vars()) <= head_vars | edb_vars:
            return False
    return True


# ---------------------------------------------------------------------------
# Horn grounding


def horn_ground_evaluate(pi: AdornedProgram, d: EDBInstance) -> IDBResult:
    """Evaluate pi by grounding every rule into propositional Horn clauses
    and running linear-time unit propagation."""
    if ADORNMENT_GROUNDABLE not in classify_program(pi.source):
        raise ValidationError("program is not adornment groundable")
    d.check_schema(pi.source)
    facts, apreds, _ = horn_clauses(pi, d)
    return IDBResult(tuple(sorted(zip(apreds, facts),
                                  key=lambda item: item[0].key)))


def horn_clauses(pi: AdornedProgram, d: EDBInstance):
    """Ground every rule of pi over d into definite Horn clauses and run
    unit propagation on each clause as it is generated (Dowling &
    Gallier, J. Logic Programming 1984).

    Grounding is bottom-up: adorned predicates go in the order of the
    adorned dependency graph's peeling, each after every one its rules'
    bodies name, and those on or above a cycle last.  Once a predicate's
    rules are grounded, its derived tuples are final.

    Groundings of a rule come from joining its EDB body atoms over d with
    one more atom, the picks: the answers of the head adornment's body
    atoms that hold a head variable the EDB atoms leave open, projected
    onto every head variable those atoms hold.  Every tuple the rule
    derives is an answer of its head adornment, so no derivation is
    lost.  The rule's IDB atoms of finished predicates join these as
    sources, their derived tuples, binding no new variable: a grounding
    with a false fact of theirs is counted, but never built.  Facts of
    the other IDB atoms are ints.  A clause whose head is derived is
    dropped; one whose open body facts are all derived derives its head
    at once.  Otherwise the clause waits on its missing facts: on one, in
    that fact's list; on several distinct ones, as a [missing, head]
    entry shared by their lists.  The derived facts do not depend on the
    order of the rules.
    Returns the derived tuples of each adorned predicate, the adorned
    predicates (their adornments), and the number of groundings the EDB
    atoms and picks generate, each counted, also when it repeats an
    earlier clause.
    """
    order = pi.graph.peel()
    # peeled predicate -> its derived tuples, final once its rules are
    # grounded, as its rules read only predicates peeled before it
    finished = {adn: _Relation(set()) for adn in order}
    rules_of = defaultdict(list)
    for rule in pi.rules:
        rules_of[rule.head.adornment].append(rule)
    derived = bytearray()  # fact id -> 1 once derived
    by_pred = {adn: {} for adn in pi.graph.edges if adn not in finished}
    waiting = defaultdict(list)  # missing fact -> heads missing only it
    shared = defaultdict(list)   # missing fact -> [missing, head] entries

    def fact_id(ids: dict, tup) -> int:
        f = ids.get(tup)
        if f is None:
            f = ids[tup] = len(derived)
            derived.append(0)
        return f

    def derive(fact: int) -> None:
        derived[fact] = 1
        stack = [fact]
        while stack:
            f = stack.pop()
            for head in waiting.pop(f, ()):
                if not derived[head]:
                    derived[head] = 1
                    stack.append(head)
            for entry in shared.pop(f, ()):
                entry[0] -= 1
                if entry[0] == 0 and not derived[entry[1]]:
                    derived[entry[1]] = 1
                    stack.append(entry[1])

    groundings = 0
    for adn in [*order, *by_pred]:
        for rule in rules_of[adn]:
            join, count, sources, open_atoms = _grounding_join(
                rule, pi, d, finished)
            groundings += count
            head = join.getter(rule.head.terms)
            if adn in finished:
                finished[adn].rows.update(map(head, join.run(sources)))
                continue
            head_ids = by_pred[adn]
            body = [(by_pred[a.adornment], join.getter(a.terms))
                    for a in open_atoms]
            single = len(body) == 1
            if single:
                [(one_ids, one)] = body
            for slots in join.run(sources):
                # fact_id inlined for the head and a single body atom:
                # this loop runs once per grounding
                t = head(slots)
                h = head_ids.get(t)
                if h is None:
                    h = head_ids[t] = len(derived)
                    derived.append(0)
                elif derived[h]:
                    continue
                if single:
                    t = one(slots)
                    b = one_ids.get(t)
                    if b is None:
                        b = one_ids[t] = len(derived)
                        derived.append(0)
                    elif derived[b]:
                        derive(h)
                        continue
                    waiting[b].append(h)
                    continue
                missing = {b for b in [fact_id(ids, get(slots))
                                       for ids, get in body]
                           if not derived[b]}
                if not missing:
                    derive(h)
                elif len(missing) == 1:
                    waiting[missing.pop()].append(h)
                else:
                    entry = [len(missing), h]
                    for f in missing:
                        shared[f].append(entry)
    facts = [frozenset(rel.rows) for rel in finished.values()]
    facts += [frozenset(t for t, f in ids.items() if derived[f])
              for ids in by_pred.values()]
    return facts, [*finished, *by_pred], groundings


def _grounding_join(rule: Rule, pi: AdornedProgram, d: EDBInstance,
                    finished: dict):
    """The join that grounds rule: its EDB atoms, its picks and its IDB
    atoms of finished predicates, with their sources; the number of
    groundings the EDB atoms and picks alone generate; and the rule's
    other IDB atoms."""
    adn = rule.head.adornment
    idb_atoms = [a for a in rule.body if a.pred in pi.source.idb]
    edb_atoms = [a for a in rule.body if a.pred not in pi.source.idb]
    atoms = [a.terms for a in edb_atoms]
    sources = [d.source(a.pred, a.arity) for a in edb_atoms]
    edb_vars = {v for a in edb_atoms for v in a.vars()}
    # the adornment's variables for the rule head's: its head has the
    # rule head's pattern
    canon = {t.name: c for t, c in zip(rule.head.terms, adn.rule.head.terms)
             if isinstance(t, Var)}
    wanted = {canon[v].name for v in rule.head.vars() if v not in edb_vars}
    if wanted:
        held = [a for a in adn.rule.body if wanted.intersection(a.vars())]
        held_vars = {v for a in held for v in a.vars()}
        pick_vars = [v for v in rule.head.vars()
                     if canon[v].name in held_vars]
        picks = eval_cq(Rule(
            Atom(adn.base, tuple(canon[v] for v in pick_vars)),
            tuple(held)), d)
        atoms.append(tuple(Var(v) for v in pick_vars))
        sources.append((_Relation(picks),))
    generating = _Join(atoms)
    assert {v for a in rule.body for v in a.vars()} <= \
        generating.slot_of.keys()
    done = [a for a in idb_atoms if a.adornment in finished]
    join = _Join(atoms + [a.terms for a in done]) if done else generating
    return (join, generating.count(sources),
            sources + [(finished[a.adornment],) for a in done],
            [a for a in idb_atoms if a not in done])


# ---------------------------------------------------------------------------
# Complexity reports


class ComplexityBound(_Value):
    def __init__(self, applies_to: str, formula: str,
                 exponent: Fraction | None):
        self._init(applies_to, formula, exponent)

    def to_json_dict(self) -> dict:
        return {
            "class": self.applies_to,
            "formula": self.formula,
            "exponent": None if self.exponent is None else str(self.exponent),
        }


class ComplexityReport(_Value):
    def __init__(self, classes: tuple, f: int, rule_count: int,
                 ew: Fraction, fchw: int | None, fchw_mode: str,
                 bounds: tuple):
        self._init(classes, f, rule_count, ew, fchw, fchw_mode, bounds)

    def to_json_dict(self) -> dict:
        return {
            "classes": sorted(self.classes),
            "f": self.f,
            "rule_count": self.rule_count,
            "ew": str(self.ew),
            "fchw": self.fchw,
            "fchw_mode": self.fchw_mode,
            "bounds": [b.to_json_dict() for b in self.bounds],
        }


def complexity_report(pi: AdornedProgram) -> ComplexityReport:
    """Applicable evaluation-time bounds with the numbers filled in.

    fchw is exact, by a DP over eliminated sets (integral variant, an
    upper bound on the fractional one), only on small rules; otherwise the
    simple-chain bound of 2 or a symbolic placeholder is reported.
    """
    p = pi.source
    classes = classify_program(p)
    f = sum(map(len, pi.adornment_map().values()))
    ew = Fraction(width_of_program(pi, "fractional"))
    small = all(len(r.body) <= 5 and len(r.all_vars()) <= 8
                for r in p.rules)
    if small:
        fchw = max(integral_fchw(hypergraph_of(r))
                   for r in p.rules)
        fchw_mode = "integral-bruteforce"
    elif SIMPLE_CHAIN in classes:
        fchw = 2
        fchw_mode = "classification-upper-bound"
    else:
        fchw = None
        fchw_mode = "symbolic"

    bounds = []
    if fchw is None:
        bounds.append(ComplexityBound(
            "general", "O(f^fchw * |P| * N^(ew*fchw))", None))
    else:
        bounds.append(ComplexityBound(
            "general",
            f"O({f}^{fchw} * {p.rule_count} * N^{ew * fchw})",
            ew * fchw))
    if SIMPLE_CHAIN in classes:
        bounds.append(ComplexityBound(
            SIMPLE_CHAIN,
            f"O({f}^2 * {p.rule_count} * N^{2 * ew})",
            2 * ew))
    if LINEAR in classes and fchw is not None:
        bounds.append(ComplexityBound(
            LINEAR,
            f"O({f} * {p.rule_count} * N^{ew + fchw - 1})",
            ew + fchw - 1))
    if ADORNMENT_GROUNDABLE in classes:
        bounds.append(ComplexityBound(
            ADORNMENT_GROUNDABLE,
            f"O({f} * {p.rule_count} * N^{ew})",
            ew))
    return ComplexityReport(
        classes=tuple(sorted(classes)), f=f, rule_count=p.rule_count,
        ew=ew, fchw=fchw, fchw_mode=fchw_mode, bounds=tuple(bounds))


def integral_fchw(h) -> int:
    """Exact integral free-connex width of a small hypergraph.

    The least, over vertex elimination orders of the primal graph
    augmented with an output-variable clique (forcing the output
    variables to share a bag, the connex condition), of the largest
    number of real edges needed to cover a bag.  Found by the subset DP
    of Bodlaender, Fomin, Koster, Kratsch & Thilikos (ACM TALG 2012):
    best(S) = min over v in S of max(best(S - v), cover(bag(S - v, v))),
    where bag(S, v) is v with every uneliminated vertex v reaches through
    the eliminated set S.  O*(2^n) instead of n! orders.
    """
    vertices = sorted(h.vertices)
    n = len(vertices)
    edge_sets = [e for _, e in h.edges if e]
    if not n or not edge_sets:
        return 1
    index = {v: i for i, v in enumerate(vertices)}
    adj = [0] * n  # bitmask of each vertex's neighbours
    for e in (*edge_sets, h.v_out):
        m = sum(1 << index[v] for v in e)
        for v in e:
            adj[index[v]] |= m & ~(1 << index[v])

    @cache
    def cover(bag: int) -> int:
        found = min_cover({vertices[i] for i in range(n) if bag >> i & 1},
                          edge_sets)
        # an uncoverable bag forces a width above every real cover
        return len(edge_sets) + 1 if found is None else len(found)

    def bag(eliminated: int, v: int) -> int:
        reached = todo = 1 << v
        while todo:
            u = todo.bit_length() - 1
            todo ^= 1 << u
            new = adj[u] & ~reached
            reached |= new
            todo |= new & eliminated
        return reached & ~eliminated

    best = [0] * (1 << n)
    for s in range(1, 1 << n):
        best[s] = min(max(best[s & ~(1 << v)], cover(bag(s & ~(1 << v), v)))
                      for v in range(n) if s >> v & 1)
    return best[-1]
