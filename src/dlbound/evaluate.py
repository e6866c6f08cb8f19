"""Ground oracle: naive/semi-naive evaluation of plain and adorned
programs, per-rule boundedness and value-cover checks, and the EDB file
reader."""

from __future__ import annotations

import re
from functools import cached_property

from .core import (
    _TOKEN, Atom, Program, Rule, ValidationError, Var, _Value, _is_int,
    _syntax_error,
)
from .adorn import AdornedProgram
from .join import _Join, _Relation


class EDBInstance(_Value):
    """Ground facts: relation name -> set of constant tuples.  Its join
    sources and value-cover index are made on first use and kept, so
    every evaluation and check over one instance shares them."""

    def __init__(self, relations: tuple):  # of (name, frozenset of tuples)
        vars(self).update(relations=relations, _by_name=dict(relations),
                          _sources={})

    @classmethod
    def of(cls, mapping) -> "EDBInstance":
        pairs = mapping.items() if isinstance(mapping, dict) else mapping
        items = tuple(sorted(
            (name, frozenset(tuple(t) for t in tuples))
            for name, tuples in pairs))
        for name, tuples in items:
            arities = {len(t) for t in tuples}
            if len(arities) > 1:
                raise ValidationError(
                    f"relation {name} holds tuples of mixed arity")
        return cls(items)

    def as_dict(self) -> dict:
        return dict(self.relations)

    def get(self, name: str) -> frozenset:
        return self._by_name.get(name, frozenset())

    def source(self, name: str, arity: int) -> tuple:
        """The relation as the one-part join source of an atom of `arity`
        (empty when its tuples have another arity), with its hash
        indexes."""
        src = self._sources.get((name, arity))
        if src is None:
            rows = self.get(name)
            if rows and len(next(iter(rows))) != arity:
                rows = frozenset()
            src = self._sources.setdefault((name, arity), (_Relation(rows),))
        return src

    @cached_property
    def value_cover_index(self) -> dict:
        """Value -> the distinct value sets of the tuples holding it."""
        index: dict = {}
        for vals in {frozenset(row) for _, tuples in self.relations
                     for row in tuples}:
            for v in vals:
                index.setdefault(v, []).append(vals)
        return index

    @property
    def n(self) -> int:
        """Max relation size."""
        return max((len(t) for _, t in self.relations), default=0)

    def check_schema(self, p: Program) -> None:
        arities = p.arities()
        for name, tuples in self.relations:
            if name in p.idb:
                raise ValidationError(
                    f"EDB file defines derived predicate {name}")
            if name in arities and tuples:
                ar = len(next(iter(tuples)))
                if ar != arities[name]:
                    raise ValidationError(
                        f"relation {name} has arity {ar}, "
                        f"program expects {arities[name]}")


# Lexical pieces of the EDB pattern.  Blanks are space, tab, CR and LF,
# and `%` starts a comment that runs to the end of its line.  The
# lookahead stops a comment from ending early, so blanks and comments can
# be read in only one way and backtracking stays linear.
_WS = r"[ \t\r\n]*"
_BLANK = r"(?:[ \t\r\n]|%[^\n]*(?![^\n]))*"
_NAME = r"[a-z][A-Za-z0-9_]*"  # a relation name or a symbol constant
_CONST = rf"-?[0-9]+|{_NAME}"


def _terms(term: str) -> str:
    """One or more `term`s separated by `,`, with blanks around each."""
    arg = rf"{_WS}(?:{term}){_WS}"
    return rf"{arg}(?:,{arg})*"


# One fact of an EDB file and the blanks and `%` comments before it: a
# name, `(`, int or symbol arguments, `)`, `.`, with only blanks inside.
# At the end of the text the blanks meet `\Z`; anything else that starts
# no fact, a comment inside a fact included, is taken whole as the rest,
# which sends the text to the token walk.
_FACT = re.compile(
    rf"{_BLANK}(?:({_NAME}){_WS}\(({_terms(_CONST)})\){_WS}\.|\Z|(.+))",
    re.ASCII | re.DOTALL)


def parse_edb(text: str) -> EDBInstance:
    """Parse an EDB file: ground facts `name(c1,...,ck).` with int or
    symbol constants, separated by blanks and `%` comments.

    One pattern reads the facts of a well-formed ASCII file with no
    comment inside a fact.  Any other text, malformed or not, is read by
    a walk over the program reader's tokens, which raises the positioned
    `ParseError`."""
    rels: dict = {}
    for name, args, rest in _FACT.findall(text):
        if rest:
            return _read_facts(text)
        if not name:
            continue
        vals = []
        for a in args.split(","):
            a = a.strip()
            if a[0] in "-0123456789":
                try:
                    a = int(a)
                except ValueError:  # past Python's int digit limit
                    return _read_facts(text)
            vals.append(a)
        rel = rels.get(name)
        if rel is None:
            rel = rels[name] = set()
        rel.add(tuple(vals))
    return EDBInstance.of(rels)


def _read_facts(text: str) -> EDBInstance:
    """The facts of an EDB file, read token by token."""
    toks = _TOKEN.findall(text)
    rels: dict = {}
    i = 0
    while toks[i]:
        name = toks[i]
        if not name[0].isalpha() or name[0].isupper():
            raise _syntax_error(text, toks, i, "expected a fact")
        if toks[i + 1] != "(":
            raise _syntax_error(text, toks, i + 1, "expected '('")
        vals = []
        while True:
            i += 2  # past the name and `(`, then past a term and `,`
            t = toks[i]
            if t[:1].isalpha() and not t[0].isupper():
                vals.append(t)
            elif _is_int(t):
                try:
                    vals.append(int(t))
                except ValueError as exc:  # past the digit limit
                    raise _syntax_error(text, toks, i, exc) from None
            elif t:
                raise _syntax_error(text, toks, i,
                                    "facts may contain only constants")
            else:
                raise _syntax_error(text, toks, i, "expected a constant, "
                                    "found 'end of input'")
            if toks[i + 1] != ",":
                break
        if toks[i + 1] != ")":
            raise _syntax_error(text, toks, i + 1, "expected ')'")
        if toks[i + 2] != ".":
            raise _syntax_error(text, toks, i + 2, "expected '.'")
        i += 3
        rels.setdefault(name, set()).add(tuple(vals))
    return EDBInstance.of(rels)


class IDBResult(_Value):
    """Least-fixpoint contents of every derived relation.

    Keys are predicate names for plain programs and adornments for
    adorned ones: an adorned relation is named by its adornment, which
    holds its base predicate.  Adornments sort by key, and a key starts
    with the base predicate, so relations sort by base predicate first.
    """

    def __init__(self, relations: tuple):  # of (key, frozenset)
        vars(self).update(relations=relations, _by_key=dict(relations))

    def as_dict(self) -> dict:
        return dict(self.relations)

    def get(self, key) -> frozenset:
        return self._by_key.get(key, frozenset())


def union_adorned(result: IDBResult, q: str) -> frozenset:
    """Union of all adorned relations over the base predicate q."""
    out: set = set()
    found = False
    for key, tuples in result.relations:
        base = getattr(key, "base", key)
        if base == q:
            found = True
            out |= tuples
    if not found:
        raise ValidationError(f"no relation with base predicate {q}")
    return frozenset(out)


# ---------------------------------------------------------------------------
# Evaluation core


class _ERule:
    """A rule with its body compiled: IDB keys are dense ints, and each
    body atom is (key, arity, is_idb)."""

    def __init__(self, head_key, head_terms, body):
        self.head_key = head_key
        self.body = tuple((key, len(terms), is_idb)
                          for key, terms, is_idb in body)
        self.idb_positions = [j for j, (_, _, is_idb) in enumerate(body)
                              if is_idb]
        self.join = _Join([terms for _, terms, _ in body])
        self.head = self.join.getter(head_terms)

    def apply(self, sources) -> set:
        return set(map(self.head, self.join.run(sources)))

    def sources(self, idb, d) -> list:
        """Each body atom's source: its IDB relation in `idb` (indexed by
        key), or its relation in d."""
        return [(idb[key],) if is_idb else d.source(key, arity)
                for key, arity, is_idb in self.body]


def _relation_key(a: Atom):
    """The IDBResult key of an IDB atom: its adornment, or its predicate
    if it carries none."""
    return a.pred if a.adornment is None else a.adornment


def _normalize(prog):
    """Turn a Program or AdornedProgram into _ERules, the list of IDB keys
    (indexed by the rules' dense ids) and the source program."""
    source = getattr(prog, "source", prog)
    if not isinstance(source, Program):
        raise TypeError(f"cannot evaluate {type(prog).__name__}")
    ids: dict = {}

    def idb_id(a):
        return ids.setdefault(_relation_key(a), len(ids))

    rules = [_ERule(idb_id(r.head), r.head.terms, tuple(
        (idb_id(a), a.terms, True) if a.pred in source.idb
        else (a.pred, a.terms, False) for a in r.body))
        for r in prog.rules]
    return rules, list(ids), source


def evaluate(prog, d: EDBInstance, method: str = "seminaive") -> IDBResult:
    """Least fixpoint of prog over d (exact, deterministic)."""
    rules, idb_keys, source = _normalize(prog)
    d.check_schema(source)
    if method == "naive":
        rels = _naive(rules, len(idb_keys), d)
    elif method == "seminaive":
        rels = _seminaive(rules, len(idb_keys), d)
    else:
        raise ValueError(f"unknown method {method!r}")
    return IDBResult(tuple(sorted(
        ((key, frozenset(rel.rows)) for key, rel in zip(idb_keys, rels)),
        key=lambda item: getattr(item[0], "key", item[0]))))


def _naive(rules, n_idb, d):
    rels = [_Relation(set()) for _ in range(n_idb)]
    changed = True
    while changed:
        changed = False
        for rule in rules:
            new = rule.apply(rule.sources(rels, d)) \
                - rels[rule.head_key].rows
            if new:
                rels[rule.head_key].add(new)
                changed = True
    return rels


def _seminaive(rules, n_idb, d):
    full = [_Relation(set()) for _ in range(n_idb)]
    delta = [set() for _ in range(n_idb)]

    # first round: rules without IDB body atoms
    for rule in rules:
        if not rule.idb_positions:
            delta[rule.head_key] |= rule.apply(
                [d.source(key, arity) for key, arity, _ in rule.body])

    # body atoms before the pivot read the old full relation, the pivot
    # reads the delta, and atoms after it read full and delta (disjoint)
    while any(delta):
        parts = [_Relation(rows) for rows in delta]
        candidates = [set() for _ in range(n_idb)]
        for rule in rules:
            for pivot in rule.idb_positions:
                sources = [
                    d.source(key, arity) if not is_idb
                    else (full[key],) if j < pivot
                    else (parts[key],) if j == pivot
                    else (full[key], parts[key])
                    for j, (key, arity, is_idb) in enumerate(rule.body)]
                h = rule.head_key
                candidates[h] |= (rule.apply(sources) - full[h].rows
                                  - delta[h])
        for key, rows in enumerate(delta):
            full[key].add(rows)
        delta = candidates
    return full


def eval_cq(rule: Rule, d: EDBInstance, within=None) -> frozenset:
    """Evaluate a single EDB-only rule as a conjunctive query over d; with
    `within`, only its answers among those tuples, joined first as one
    more atom, the head."""
    if not rule.body:
        for t in rule.head.terms:
            if isinstance(t, Var):
                raise ValidationError(
                    "empty-body query with head variables")
    atoms = [a.terms for a in rule.body]
    sources = [d.source(a.pred, a.arity) for a in rule.body]
    if within is not None:
        atoms.insert(0, rule.head.terms)
        sources.insert(0, (_Relation(within),))
    join = _Join(atoms)
    return frozenset(map(join.getter(rule.head.terms), join.run(sources)))


# ---------------------------------------------------------------------------
# Boundedness / cover checks


class BoundednessViolation(_Value):
    def __init__(self, rule_index: int, tuple_value: tuple):
        self._init(rule_index, tuple_value)


class RuleBoundedReport(_Value):
    def __init__(self, violations: tuple):
        self._init(violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_rule_bounded(pi: AdornedProgram, d: EDBInstance,
                       result: IDBResult | None = None) -> RuleBoundedReport:
    """Every tuple a rule derives must also be an answer of the rule's
    head adornment evaluated as a query over d.  A rule's tuples are
    derived from `result` by the rule as `evaluate` compiles it; `result`,
    if given, is `evaluate(pi, d)`.

    Only derived tuples are checked (a semijoin, as in Yannakakis, VLDB
    1981): each adornment is evaluated within the union of the tuples its
    rules derive."""
    if result is None:
        result = evaluate(pi, d)
    erules, idb_keys, _ = _normalize(pi)
    idb = [_Relation(result.get(key)) for key in idb_keys]
    derived = [erule.apply(erule.sources(idb, d)) for erule in erules]
    # each head adornment's derived tuples, then those it allows
    allowed_by: dict = {}
    for rule, rows in zip(pi.rules, derived):
        allowed_by.setdefault(rule.head.adornment, set()).update(rows)
    for adn, rows in allowed_by.items():
        allowed_by[adn] = eval_cq(adn.rule, d, rows)
    violations = []
    for idx, (rule, rows) in enumerate(zip(pi.rules, derived)):
        allowed = allowed_by[rule.head.adornment]
        # ints before symbols, so mixed tuples sort too
        for t in sorted(rows - allowed, key=lambda row: tuple(
                (isinstance(v, str), v) for v in row)):
            violations.append(BoundednessViolation(idx, t))
    return RuleBoundedReport(tuple(violations))


def value_cover_ok(values, d: EDBInstance, k: int) -> bool:
    """Can every value be found within at most k EDB tuples?  At most k
    values are covered when each is in some tuple.  Otherwise a
    depth-first search on d's value-cover index, one iterator of what each
    try leaves uncovered per level, branching on the value held by the
    fewest tuples."""
    index = d.value_cover_index
    values = frozenset(values)
    if len(values) <= k:  # one tuple per value will do
        return all(v in index for v in values)
    stack = [iter((values,))]
    while stack:
        remaining = next(stack[-1], None)
        if remaining is None:
            stack.pop()
        elif not remaining:
            return True
        elif len(stack) <= k:
            v = min(remaining, key=lambda u: len(index.get(u, ())))
            stack.append(map(remaining.difference, index.get(v, ())))
    return False
