"""Adornments, relaxation and membership functions, and the fixpoint
engine that rewrites a program into an equivalent EDB-bounded one."""

from __future__ import annotations

from bisect import bisect_left, insort
from functools import cached_property
from itertools import count, product
from operator import attrgetter

from .core import (
    Atom, INTERNAL_PREFIX, Program, Rule, ValidationError, Var, _Value,
    classify_rule_atoms, format_rule, min_cover,
)
from . import unify
from .unify import (
    _dedup_items, _pred_key, canonical_form, distance_profile, items_of,
    key_terms, may_subsume, mgu, rule_of_items, rule_of_key, substitute,
    subsumes,
)


class BudgetExceeded(Exception):
    """The fixpoint engine hit a rule or iteration limit."""

    def __init__(self, limit: str, partial):
        super().__init__(f"adornment budget exceeded: {limit}")
        self.limit = limit
        self.partial = partial


class Adornment(_Value):
    """A safe rule with EDB-only body, bounding an IDB predicate.

    Held as its canonical key: identity and hashing go through the key,
    so adornments equal up to renaming compare equal, and the key's hash
    is kept, as dict and set operations on adornments are frequent.  The
    representative rule and the distance profile are built on first use;
    an engine run keeps one object per key, so each is built once a run.
    """

    def __init__(self, key: tuple):
        vars(self).update(key=key, key_hash=hash(key))

    @classmethod
    def of(cls, rule: Rule) -> "Adornment":
        return cls(canonical_form(rule))

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

    @cached_property
    def reach(self) -> float:
        """The sum of the profile's head-to-head distances.  A
        homomorphism never stretches a distance, so `may_subsume` holds
        only when the subsumer's reach is at least its image's."""
        return sum(sum(heads) for heads, _ in self.profile[1])

    @property
    def base(self) -> str:
        return self.key[0][0][1]

    def __str__(self) -> str:
        return format_rule(self.rule, terminator="")


class AdornedProgram(_Value):
    """Output of the fixpoint engine: rules sorted by canonical form.

    Each rule's head and IDB body atoms carry their adornments.
    """

    def __init__(self, rules: tuple, source: Program):
        self._init(rules, source)

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
    adornment, never making it more restrictive.

    A candidate is given as its head pred key, head terms and body items
    `(pred key, terms)`, as `canonical_key` takes a rule."""

    def outline(self, head_key, head_terms, items):
        """The relaxed rule as (head terms, body atom patterns), each
        pattern a (pred key, tuple of head variable names or None for a
        wildcard); None when the candidate stays as it is."""
        return None

    def apply(self, rule: Rule) -> Rule:
        """The relaxed rule of a plain rule."""
        head_key, head_terms, items = items_of(rule)
        outline = self.outline(head_key, head_terms, items)
        return rule if outline is None else rule_of_items(
            head_key, outline[0], _rebuild(outline[1]))

    def then(self, body) -> "RelaxationFn":
        """The relaxation for a candidate with this body, and for every
        later candidate of the same engine run."""
        return self


class Id(RelaxationFn):
    """The identity relaxation."""


class GOut(RelaxationFn):
    """Wildcard every non-head body argument, then drop body atoms that
    impose no restriction beyond another atom of the same predicate."""

    def outline(self, head_key, head_terms, items):
        return head_terms, _gout(_patterns(head_terms, items))


class GK(RelaxationFn):
    """Identity until some candidate body exceeds k atoms, then GOut.

    Within one engine run the switch is sticky: `then` hands the run
    GOut for that candidate and every later one.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k

    def outline(self, head_key, head_terms, items):
        g = self.then(items)
        return None if g is self else g.outline(head_key, head_terms, items)

    def then(self, body) -> RelaxationFn:
        return GOut() if len(body) > self.k else self


class GMin(RelaxationFn):
    """Greedy minimal covering subset of the body; each head variable
    survives in exactly one position."""

    def outline(self, head_key, head_terms, items):
        # the patterns of the canonical representative, so that the
        # cover, and with it the adornment, does not depend on names
        head_terms, items = key_terms(
            unify.canonical_key(head_key, head_terms, items))
        pats = _patterns(head_terms, items)
        pats.sort(key=lambda p: (p[0], tuple((1,) if x is None else (0, x)
                                             for x in p[1])))
        # smallest covering subset of atoms, so the minimal adornment
        # keeps exactly as many atoms as the integral edge-cover width;
        # ties go to the lexicographically first index tuple
        need = [t.name for t in head_terms if isinstance(t, Var)]
        cover = min_cover(need, [pat for _, pat in pats]) or ()
        covered: set = set()
        kept = []
        for i in cover:
            pk, pat = pats[i]
            new_pat = []
            for x in pat:
                new_pat.append(None if x in covered else x)
                covered.add(x)
            kept.append((pk, tuple(new_pat)))
        return head_terms, tuple(kept)


def _patterns(head_terms, items) -> list:
    """Body items as (pred key, pattern) with non-head arguments (and
    constants) turned into None placeholders."""
    hv = {t.name for t in head_terms if isinstance(t, Var)}
    return [(pk, tuple(t.name if isinstance(t, Var) and t.name in hv
                       else None for t in terms)) for pk, terms in items]


def _gout(pats) -> tuple:
    """The patterns that no other pattern of the same predicate makes
    redundant; equal patterns stay, and rebuild into wildcard twins,
    which the canonical key drops.  Only distinct patterns are compared,
    and only those with a wildcard, so long bodies cost linear time
    unless they hold many distinct patterns with wildcards."""
    distinct = dict.fromkeys(pats)
    by_pred: dict = {}
    for pk, pat in distinct:
        by_pred.setdefault(pk, []).append(pat)

    def redundant(pk, pat) -> bool:
        if all(x is None for x in pat):
            return True
        # a pattern without a wildcard is covered only by an equal one
        return None in pat and any(
            pat2 != pat and all(a is None or a == b for a, b in zip(pat, pat2))
            for pat2 in by_pred[pk])

    verdicts = {p: redundant(*p) for p in distinct}
    return tuple(p for p in pats if not verdicts[p])


def _rebuild(pats) -> list:
    """Body items from patterns, each wildcard a fresh variable."""
    wild = (Var(f"{INTERNAL_PREFIX}g{i}") for i in count(1))
    return [(pk, tuple(Var(x) if x is not None else next(wild) for x in pat))
            for pk, pat in pats]


def relax(f: RelaxationFn, rule, lookup: dict | None = None) -> Adornment:
    """Apply a relaxation function and canonicalize the result.

    `rule` is a plain Rule or, as an engine run passes its candidates,
    a (head pred key, head terms, body items) triple.  A relaxation to
    atom patterns is first looked up in `lookup`, if given, by (head
    pred key, head terms, patterns), and stored there when missing, so
    a run that passes its own dict rebuilds and keys each one once."""
    head_key, head_terms, items = (
        items_of(rule) if isinstance(rule, Rule) else rule)
    outline = f.outline(head_key, head_terms, items)
    if outline is None:
        return _adornment(head_key, head_terms, items)
    lookup = {} if lookup is None else lookup
    look = (head_key, *outline)
    adn = lookup.get(look)
    if adn is None:
        adn = lookup[look] = _adornment(
            head_key, outline[0], _rebuild(outline[1]))
    return adn


def _adornment(head_key, head_terms, items) -> Adornment:
    """The adornment of a relaxed rule, which must be safe."""
    bv = {t.name for _, terms in items for t in terms if isinstance(t, Var)}
    if not all(t.name in bv for t in head_terms if isinstance(t, Var)):
        raise AssertionError("relaxation produced an unsafe rule: "
                             f"{rule_of_items(head_key, head_terms, items)}")
    return Adornment(unify.canonical_key(head_key, head_terms, items))


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
        admitted rule's head is pooled.  Only pooled adornments of at
        least rho's reach can subsume it, and they are found by
        bisection; distance profiles settle most other pairs."""
        if self.name == "heq" or admitted.graph.closes_cycle(r):
            return admitted.key_of(r) in admitted.rules
        rho = r.head.adornment
        if rho in admitted.graph.edges:  # it heads an admitted rule
            return True
        pool = admitted.by_reach(r.head.pred)
        start = bisect_left(pool, rho.reach, key=attrgetter("reach"))
        for other in pool[start:]:
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
        self.in_bodies: set = set()  # every successor in `edges`
        for r in rules:
            self.add(r)

    def add(self, r: Rule) -> None:
        adn = r.head.adornment
        succs = {a.adornment for a in r.body if a.adornment is not None}
        self.edges.setdefault(adn, set()).update(succs)
        self.in_bodies |= succs
        pool = self.pools.setdefault(r.head.pred, [])
        i = bisect_left(pool, adn.key, key=attrgetter("key"))
        if i == len(pool) or pool[i] != adn:
            pool.insert(i, adn)

    def closes_cycle(self, r: Rule) -> bool:
        """Would adding r put its head's adorned predicate on a cycle?"""
        target = r.head.adornment
        stack = [a.adornment for a in r.body if a.adornment is not None]
        if target not in self.in_bodies:
            # the walk meets only r's body and successors in `edges`
            return target in stack
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
    for one run, and orders each pool by reach from its first check on,
    ascending; an adornment pooled later goes after those of equal
    reach."""

    def __init__(self, rules=()):
        self.rules: dict = {}  # canonical form -> rule
        self.graph = _Graph()
        self.verdicts: dict = {}
        self.reach: dict | None = None  # pred -> its pool by reach
        self.last = self.last_key = None
        for r in rules:
            self.add(r)

    def by_reach(self, pred: str) -> list:
        """pred's pool ordered by reach."""
        if self.reach is None:
            self.reach = {}
            for pool in self.graph.pools.values():
                for adn in pool:
                    self._place(adn)
        return self.reach.get(pred, [])

    def _place(self, adn: Adornment) -> None:
        insort(self.reach.setdefault(adn.base, []), adn,
               key=attrgetter("reach"))

    def key_of(self, r: Rule) -> tuple:
        """r's canonical form, kept for the last rule asked about, so a
        candidate checked and then admitted is canonicalised once."""
        if r is not self.last:
            self.last, self.last_key = r, canonical_form(r)
        return self.last_key

    def add(self, r: Rule) -> None:
        self.rules[self.key_of(r)] = r
        if self.reach is not None and r.head.adornment not in self.graph.edges:
            self._place(r.head.adornment)
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
        # (adornment, position) -> its representative, renamed apart by
        # the position as (head terms, body items)
        self.renamed: dict = {}
        # the run's one Adornment per key, whose representative, profile
        # and renamings are then built once
        self.adornments = {a.adornment: a.adornment for r in rules
                           for a in (r.head, *r.body)
                           if a.adornment is not None}
        self.relaxed: dict = {}  # `relax`'s lookup of atom patterns

    def partial(self) -> AdornedProgram:
        rules = self.admitted.rules
        return AdornedProgram(rules=tuple(rules[k] for k in sorted(rules)),
                              source=self.p)

    def build(self, rule: Rule, idb_atoms, edb_atoms, combo) -> Rule | None:
        """Resolve each IDB atom of `rule` against its candidate of
        `combo`, renamed apart by its position, then relax what results
        into the head's adornment.  The unfolded body stays (pred key,
        terms) items up to the adorned rule."""
        insts = []
        for j, adn in enumerate(combo):
            inst = self.renamed.get((adn, j))
            if inst is None:
                inst = self.renamed[adn, j] = key_terms(
                    adn.key, f"{INTERNAL_PREFIX}{j}")
            insts.append(inst)
        sigma = mgu([(atom.terms, head)
                     for atom, (head, _) in zip(idb_atoms, insts)])
        if sigma is None:
            return None
        # a tag never reaches the result: each unifier class holding a
        # tagged head variable also holds the atom term at its position,
        # which comes first in the pairs and so names the class
        head_terms = substitute(sigma, rule.head.terms)
        edb = [(("p", a.pred), substitute(sigma, a.terms)) for a in edb_atoms]
        items = [(pk, substitute(sigma, terms))
                 for _, body in insts for pk, terms in body] + edb
        self.g = self.g.then(items)
        rho = relax(self.g, (("p", rule.head.pred), head_terms, items),
                    self.relaxed)
        rho = self.adornments.setdefault(rho, rho)
        head = Atom(rule.head.pred, head_terms, rho)
        body = tuple(
            Atom(atom.pred, substitute(sigma, atom.terms), adn)
            for atom, adn in zip(idb_atoms, combo)
        ) + tuple(Atom(pk[1], terms) for pk, terms in edb)
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
