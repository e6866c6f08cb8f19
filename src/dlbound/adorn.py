"""Adornments, relaxation and membership functions, and the fixpoint
engine that rewrites a program into an equivalent EDB-bounded one."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from operator import attrgetter

from .core import (
    Atom, INTERNAL_PREFIX, Program, Rule, ValidationError, Var,
    classify_rule_atoms, format_rule, min_cover,
)
from .unify import (
    _dedup_items, _pred_key, canonical_form, distance_profile, may_subsume,
    mgu, rule_of_key, substitute, subsumes, tagged,
)


class BudgetExceeded(Exception):
    """The fixpoint engine hit a rule or iteration limit."""

    def __init__(self, limit: str, partial):
        super().__init__(f"adornment budget exceeded: {limit}")
        self.limit = limit
        self.partial = partial


@dataclass(frozen=True, eq=False)
class Adornment:
    """A safe rule with EDB-only body, bounding an IDB predicate.

    Held as its canonical key: identity and hashing go through the key,
    so adornments equal up to renaming compare equal, and the key's hash
    is kept, as dict and set operations on adornments are frequent.  The
    representative rule and the distance profile are built on first use;
    an engine run keeps one object per key, so each is built once a run.
    """
    key: tuple
    key_hash: int = field(repr=False)

    @classmethod
    def of(cls, rule: Rule) -> "Adornment":
        key = canonical_form(rule)
        return cls(key, hash(key))

    def __eq__(self, other):
        return isinstance(other, Adornment) and self.key == other.key

    def __hash__(self):
        return self.key_hash

    @cached_property
    def rule(self) -> Rule:
        """The standard representative of the key, `rule_of_key`'s."""
        return rule_of_key(self.key)

    @cached_property
    def profile(self) -> tuple:
        """The distance profile for `may_subsume`, read off the key: its
        term signatures stand for the representative's terms one to
        one."""
        (_, head), body = self.key
        return distance_profile(head, [(pk[1], sigs) for pk, sigs in body])

    @property
    def base(self) -> str:
        return self.key[0][0][1]

    def __str__(self) -> str:
        return format_rule(self.rule, terminator="")


@dataclass(frozen=True)
class AdornedProgram:
    """Output of the fixpoint engine: rules sorted by canonical form.

    Each rule's head and IDB body atoms carry their adornments.
    """
    rules: tuple
    source: Program

    @cached_property
    def graph(self) -> _Graph:
        """The rules' dependency graph and pools, built on first use."""
        return _Graph(self.rules)

    def adornment_map(self) -> dict:
        """Base predicate -> its rules' distinct head adornments, sorted
        by key; the graph's pools, for every caller to read."""
        return self.graph.pools

    def pretty(self) -> str:
        return "\n".join(format_rule(r) for r in self.rules) + "\n"

    def __str__(self) -> str:
        return self.pretty()


def adornments_of(pi: AdornedProgram, q: str) -> list:
    """Distinct adornments the predicate q carries in pi, sorted by key."""
    if q not in pi.source.idb:
        raise ValidationError(f"unknown IDB predicate {q}")
    return pi.adornment_map().get(q, [])


# ---------------------------------------------------------------------------
# Relaxation functions


class RelaxationFn:
    """Base class; subclasses turn a candidate bounding rule into an
    adornment, never making it more restrictive."""

    def apply(self, rule: Rule) -> Rule:
        return rule

    def then(self, rule: Rule) -> "RelaxationFn":
        """The relaxation for `rule` and every later candidate of the
        same engine run."""
        return self


class Id(RelaxationFn):
    """The identity relaxation."""


class GOut(RelaxationFn):
    """Wildcard every non-head body argument, then drop body atoms that
    impose no restriction beyond another atom of the same predicate."""

    def apply(self, rule: Rule) -> Rule:
        return _gout(rule)


class GK(RelaxationFn):
    """Identity until some candidate body exceeds k atoms, then GOut.

    Within one engine run the switch is sticky: `then` hands the run
    GOut for that candidate and every later one.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k

    def apply(self, rule: Rule) -> Rule:
        return _gout(rule) if len(rule.body) > self.k else rule

    def then(self, rule: Rule) -> RelaxationFn:
        return GOut() if len(rule.body) > self.k else self


class GMin(RelaxationFn):
    """Greedy minimal covering subset of the body; each head variable
    survives in exactly one position."""

    def apply(self, rule: Rule) -> Rule:
        return _gmin(rule)


def _patterns(rule: Rule):
    """Body atoms as (pred, pattern) with non-head arguments (and
    constants) turned into None placeholders."""
    hv = set(rule.head_vars())
    pats = []
    for a in rule.body:
        pat = tuple(
            t.name if isinstance(t, Var) and t.name in hv else None
            for t in a.terms)
        pats.append((a.pred, pat))
    return pats


def _rebuild(head: Atom, pats) -> Rule:
    counter = [0]

    def wild() -> Var:
        counter[0] += 1
        return Var(f"{INTERNAL_PREFIX}g{counter[0]}")

    atoms = tuple(
        Atom(pred, tuple(Var(x) if x is not None else wild() for x in pat))
        for pred, pat in pats)
    return Rule(head, atoms)


def _gout(rule: Rule) -> Rule:
    # equal patterns rebuild into wildcard twins, which Adornment.of drops
    pats = _patterns(rule)

    def redundant(p) -> bool:
        pred, pat = p
        if all(x is None for x in pat):
            return True
        for pred2, pat2 in pats:
            if pred2 != pred or pat2 == pat:
                continue
            if all(a is None or a == b for a, b in zip(pat, pat2)):
                return True
        return False

    kept = [p for p in pats if not redundant(p)]
    return _rebuild(rule.head, kept)


def _gmin(rule: Rule) -> Rule:
    canon = rule_of_key(canonical_form(rule))
    pats = _patterns(canon)
    pats.sort(key=lambda p: (p[0], tuple((1,) if x is None else (0, x)
                                         for x in p[1])))
    # smallest covering subset of atoms, so the minimal adornment keeps
    # exactly as many atoms as the integral edge-cover width; ties go to
    # the lexicographically first index tuple for determinism
    cover = min_cover(canon.head_vars(), [pat for _, pat in pats]) or ()
    covered: set = set()
    kept = []
    for i in cover:
        pred, pat = pats[i]
        new_pat = []
        for x in pat:
            if x is not None and x not in covered:
                covered.add(x)
                new_pat.append(x)
            else:
                new_pat.append(None)
        kept.append((pred, tuple(new_pat)))
    return _rebuild(canon.head, kept)


def relax(f: RelaxationFn, rule: Rule) -> Adornment:
    """Apply a relaxation function and canonicalize the result."""
    relaxed = f.apply(rule)
    hv = set(relaxed.head_vars())
    bv = set(relaxed.body_vars())
    if not hv <= bv:
        raise AssertionError(f"relaxation produced an unsafe rule: {relaxed}")
    return Adornment.of(relaxed)


def make_relaxation(name: str) -> RelaxationFn:
    if name == "id":
        return Id()
    if name == "gout":
        return GOut()
    if name == "gmin":
        return GMin()
    if name.startswith("gk="):
        return GK(int(name[3:]))
    raise ValueError(f"unknown relaxation function {name!r}")


# ---------------------------------------------------------------------------
# Membership functions


def h_eq(r: Rule, rules) -> bool:
    return canonical_form(r) in {canonical_form(x) for x in rules}


def h_cont(r: Rule, rules) -> bool:
    return MembershipFn("hcont").check(r, _Admitted(rules))


class MembershipFn:
    """Membership as a value the engine takes: it holds only its name,
    and an hcont run memoises its verdicts on the run's `_Admitted`."""

    def __init__(self, name: str):
        if name not in ("heq", "hcont"):
            raise ValueError(f"unknown membership function {name!r}")
        self.name = name

    def check(self, r: Rule, admitted: "_Admitted") -> bool:
        """True exactly when the engine rejects r: r is among the
        admitted rules or, under hcont, its head adornment, off every
        cycle, is subsumed by a pooled one.  A pooled adornment subsumes
        itself, so that case needs no canonical form of r, and an
        admitted rule's head is pooled; distance profiles settle most
        other pairs."""
        if self.name == "heq" or admitted.graph.closes_cycle(r):
            return admitted.key_of(r) in admitted.rules
        rho = r.head.adornment
        if rho in admitted.graph.edges:  # it heads an admitted rule
            return True
        for other in admitted.graph.pools.get(r.head.pred, ()):
            verdict = admitted.verdicts.get((other, rho))
            if verdict is None:
                verdict = admitted.verdicts[other, rho] = (
                    may_subsume(other.profile, rho.profile)
                    and subsumes(other.rule, rho.rule))
            if verdict:
                return True
        return False


# ---------------------------------------------------------------------------
# The fixpoint engine


class _Graph:
    """The adorned dependency graph of some adorned rules, each head
    adornment -> its rules' body adornments, and each predicate's pool of
    distinct head adornments sorted by key, the candidates for resolving
    its atoms.  An engine run fills one rule by rule; an adorned program
    builds one from its rules."""

    def __init__(self, rules=()):
        self.edges: dict = {}
        self.pools: dict = {}
        for r in rules:
            self.add(r)

    def add(self, r: Rule) -> None:
        adn = r.head.adornment
        self.edges.setdefault(adn, set()).update(
            a.adornment for a in r.body if a.adornment is not None)
        pool = self.pools.setdefault(r.head.pred, [])
        i = bisect_left(pool, adn.key, key=attrgetter("key"))
        if i == len(pool) or pool[i] != adn:
            pool.insert(i, adn)

    def closes_cycle(self, r: Rule) -> bool:
        """Would adding r put its head's adorned predicate on a cycle?"""
        target = r.head.adornment
        stack = [a.adornment for a in r.body if a.adornment is not None]
        stack.extend(self.edges.get(target, ()))
        seen: set = set()
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(self.edges.get(node, ()))
        return False

    def peel(self) -> list:
        """Kahn's peeling (CACM 1962) toward dependencies: drop nodes
        with no remaining edge out, each after every node it depends on.
        What is left lies on a cycle or depends on one."""
        pending: dict = {}  # node -> its edges out to undropped nodes
        users: dict = {}
        for node, succs in self.edges.items():
            pending[node] = len(succs)
            for succ in succs:
                users.setdefault(succ, []).append(node)
                pending.setdefault(succ, 0)
        order = [node for node, n in pending.items() if not n]
        for node in order:  # grows as nodes are dropped
            for user in users.get(node, ()):
                pending[user] -= 1
                if not pending[user]:
                    order.append(user)
        return order

    def cyclic(self) -> bool:
        """Does some adorned predicate reach itself?  Exactly when
        peeling leaves a node (never one without edges out)."""
        return not self.edges.keys() <= set(self.peel())


class _Admitted:
    """An engine run's admitted rules by canonical form, with the graph
    that membership and candidate selection read, kept current rule by
    rule.  An admitted rule's head has its adornment representative's
    head pattern, so a candidate is its adornment.  hcont memoises its
    verdicts here, by (subsumer, subsumed) adornment pair, so they last
    for one run."""

    def __init__(self, rules=()):
        self.rules: dict = {}  # canonical form -> rule
        self.graph = _Graph()
        self.verdicts: dict = {}
        self.last = self.last_key = None
        for r in rules:
            self.add(r)

    def key_of(self, r: Rule) -> tuple:
        """r's canonical form, kept for the last rule asked about, so a
        candidate checked and then admitted is canonicalised once."""
        if r is not self.last:
            self.last, self.last_key = r, canonical_form(r)
        return self.last_key

    def add(self, r: Rule) -> None:
        self.rules[self.key_of(r)] = r
        self.graph.add(r)


class _Engine:
    def __init__(self, p: Program, g: RelaxationFn, h: MembershipFn,
                 max_iterations: int, max_rules: int, rules=()):
        self.p = p
        self.g = g
        self.h = h
        self.max_iterations = max_iterations
        self.max_rules = max_rules
        self.admitted = _Admitted(rules)
        self.renamed: dict = {}  # (adornment, position) -> its tagged rule
        # canonical key -> the run's one Adornment of it, whose
        # representative, profile and renamings are then built once
        self.adornments = {a.adornment.key: a.adornment for r in rules
                           for a in (r.head, *r.body)
                           if a.adornment is not None}

    def partial(self) -> AdornedProgram:
        rules = self.admitted.rules
        return AdornedProgram(rules=tuple(rules[k] for k in sorted(rules)),
                              source=self.p)

    def build(self, rule: Rule, idb_atoms, edb_atoms, combo) -> Rule | None:
        """Resolve each IDB atom of `rule` against its candidate of
        `combo`, renamed apart by its position, then relax what results
        into the head's adornment."""
        insts = []
        for j, adn in enumerate(combo):
            inst = self.renamed.get((adn, j))
            if inst is None:
                inst = self.renamed[adn, j] = tagged(adn.rule, j)
            insts.append(inst)
        sigma = mgu([(atom.terms, inst.head.terms)
                     for atom, inst in zip(idb_atoms, insts)])
        if sigma is None:
            return None
        # a tag never reaches the result: each unifier class holding a
        # tagged head variable also holds the atom term at its position,
        # which comes first in the pairs and so names the class
        head_terms = substitute(sigma, rule.head.terms)
        edb = tuple(Atom(a.pred, substitute(sigma, a.terms))
                    for a in edb_atoms)
        rho0 = Rule(Atom(rule.head.pred, head_terms), tuple(
            Atom(a.pred, substitute(sigma, a.terms))
            for inst in insts for a in inst.body) + edb)
        self.g = self.g.then(rho0)
        rho = relax(self.g, rho0)
        rho = self.adornments.setdefault(rho.key, rho)
        head = Atom(rule.head.pred, head_terms, rho)
        body = tuple(
            Atom(atom.pred, substitute(sigma, atom.terms), adn)
            for atom, adn in zip(idb_atoms, combo)
        ) + edb
        kept = _dedup_items(head_terms,
                            [(_pred_key(a), a.terms, a) for a in body])
        return Rule(head, tuple(a for _, _, a in kept))

    def run(self) -> AdornedProgram:
        admitted = self.admitted
        split = [classify_rule_atoms(rule, self.p) for rule in self.p.rules]
        # every combination of the previous sweep's candidates was tried
        # in it or before; None before the first sweep
        tried = None
        for _ in range(self.max_iterations):
            added = False
            # candidates admitted during a sweep wait for the next one
            per_pred = {q: list(a) for q, a in admitted.graph.pools.items()}
            for rule, (idb_atoms, edb_atoms) in zip(self.p.rules, split):
                pools = [per_pred.get(a.pred, ()) for a in idb_atoms]
                if not all(pools):
                    continue
                for combo in product(*pools):
                    if tried is not None and all(c in tried for c in combo):
                        continue
                    new_rule = self.build(rule, idb_atoms, edb_atoms, combo)
                    if new_rule is None:
                        continue
                    if self.h.check(new_rule, admitted):
                        continue
                    admitted.add(new_rule)
                    added = True
                    if len(admitted.rules) > self.max_rules:
                        raise BudgetExceeded("max-rules", self.partial())
            if not added:
                return self.partial()
            tried = {c for pool in per_pred.values() for c in pool}
        raise BudgetExceeded("max-iterations", self.partial())


def adorn_program(p: Program, g: RelaxationFn | str,
                  h: MembershipFn | str = "heq",
                  max_iterations: int = 1000,
                  max_rules: int = 10000) -> AdornedProgram:
    """Rewrite p into an equivalent EDB-bounded program (fixpoint search).

    Raises BudgetExceeded (carrying the partial program) when a limit is
    hit, which can happen with the Id relaxation on unbounded programs.
    """
    if isinstance(g, str):
        g = make_relaxation(g)
    if isinstance(h, str):
        h = MembershipFn(h)
    return _Engine(p, g, h, max_iterations, max_rules).run()


def fixpoint_stable(pi: AdornedProgram, g: RelaxationFn,
                    h: MembershipFn) -> bool:
    """Re-run one sweep over pi's rules; true iff nothing new is admitted."""
    engine = _Engine(pi.source, g, h, max_iterations=1, max_rules=10 ** 9,
                     rules=pi.rules)
    try:
        engine.run()  # a second sweep, run only after an admission, raises
    except BudgetExceeded:
        return False
    return True
