"""Shared fixtures: random program/EDB generators, independent
brute-force oracles used to cross-check the library, the test-only
counterparts of its formulas: Stirling numbers, falling factorials, the
tightness-instance generator and the minimality check, and the plain
labelling search that canonical keys are checked against, the key-first
membership check that the engine's is checked against, and the token
readers of programs and EDB files that the library's reader is checked
against, and the standalone rule-bound check and plain value-cover search
that `verify`'s checks are checked against, and the Rule-based candidate
build, relaxations and groundability test that the engine's and
`classify_program`'s are checked against, and the whole cycle walk
that hcont's is checked against."""

from __future__ import annotations

import itertools
import random

import pytest

from dlbound import (
    AdornedProgram, Adornment, Atom, BudgetExceeded, Const, EDBInstance, GK,
    GMin, GOut, MembershipFn, ParseError, Program, Rule, SchemaStats, Var,
    adorn_program, bound1, mgu, parse_program,
)
from dlbound.core import INTERNAL_PREFIX, classify_rule_atoms, min_cover
from dlbound.evaluate import (
    BoundednessViolation, RuleBoundedReport, _normalize, eval_cq, evaluate,
)
from dlbound.join import _Relation
from dlbound.unify import (
    _dedup_items, _pred_key, canonical_form, distance_profile, may_subsume,
    rule_of_key, substitute, subsumes,
)
from dlbound.sizebound import _stirling_row


TC_SRC = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), e(Z,Y).\n"
TRIANGLE_SRC = (
    "q(X,Y) :- e(X,Y,Z).\n"
    "p(X,Y,Z) :- q(X,Y), q(X,Z), q(Y,Z).\n"
)
REACH_SRC = "r(Y) :- e(X,Y).\nr(Y) :- r(X), e(X,Y).\n"
BUYS_SRC = (
    "buys(X,Y) :- likes(X,Y).\n"
    "buys(X,Y) :- trendy(X), buys(Z,Y).\n"
)
UNBOUNDED_SRC = "r(X) :- b(X).\nr(Y) :- r(X), e(X,Y).\n"


@pytest.fixture
def tc_program() -> Program:
    return parse_program(TC_SRC)


@pytest.fixture
def triangle_program() -> Program:
    return parse_program(TRIANGLE_SRC)


def corrupted_tc() -> AdornedProgram:
    """GOut-adorned TC whose recursive rules carry a head adornment too
    narrow to bound what they derive."""
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    # replace the recursive rule's head adornment by the single-edge one,
    # which cannot account for length-2 paths
    bad = Adornment.of(parse_program("tc(X,Y) :- e(X,Y).").rules[0])
    rules = []
    for r in pi.rules:
        if any(a.adornment is not None for a in r.body):
            head = Atom("tc", r.head.terms, adornment=bad)
            rules.append(Rule(head, r.body))
        else:
            rules.append(r)
    return AdornedProgram(rules=tuple(rules), source=pi.source)


# ---------------------------------------------------------------------------
# Random generators


def random_program(rng: random.Random) -> Program:
    """A small random safe program: <= 3 IDBs, arity <= 3, <= 4 rules,
    <= 3 body atoms per rule."""
    n_idb = rng.randint(1, 3)
    idb = [f"p{i}" for i in range(n_idb)]
    edb = [f"e{i}" for i in range(rng.randint(1, 2))]
    arity = {s: rng.randint(1, 3) for s in idb + edb}

    rules = []
    n_rules = rng.randint(1, 4)
    heads = set()
    for _ in range(n_rules):
        head_pred = rng.choice(idb)
        heads.add(head_pred)
        n_body = rng.randint(1, 3)
        body_preds = [rng.choice(idb + edb) for _ in range(n_body)]
        # at least one EDB atom keeps most programs productive
        if all(b in idb for b in body_preds):
            body_preds[rng.randrange(n_body)] = rng.choice(edb)
        var_pool = [f"V{i}" for i in range(4)]
        body = []
        body_vars = []
        for pred in body_preds:
            terms = []
            for _ in range(arity[pred]):
                if rng.random() < 0.15:
                    terms.append(Const(rng.randint(0, 2)))
                else:
                    v = rng.choice(var_pool)
                    terms.append(Var(v))
                    body_vars.append(v)
            body.append((pred, tuple(terms)))
        if not body_vars:
            continue
        head_terms = tuple(
            Var(rng.choice(body_vars)) if rng.random() < 0.9
            else Const(rng.randint(0, 2))
            for _ in range(arity[head_pred]))
        rules.append((head_pred, head_terms, body))

    # intended IDBs that never head a rule are simply EDB relations
    lines = []
    for head_pred, head_terms, body in rules:
        def fmt(terms):
            return ",".join(
                t.name if isinstance(t, Var) else str(t.value) for t in terms)
        body_s = ", ".join(f"{pred}({fmt(terms)})" for pred, terms in body)
        lines.append(f"{head_pred}({fmt(head_terms)}) :- {body_s}.")
    text = "\n".join(lines)
    try:
        return parse_program(text)
    except Exception:
        return None


def random_programs(seed: int, count: int):
    """Yield `count` valid random programs."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        p = random_program(rng)
        if p is None:
            continue
        made += 1
        yield p


def golden_corpus() -> list:
    """The programs whose engine runs the CLI goldens cover: the named
    programs and `random_programs(2024, 20)`."""
    return [*(parse_program(src) for src in (
        TC_SRC, TRIANGLE_SRC, REACH_SRC, BUYS_SRC, UNBOUNDED_SRC)),
        *random_programs(2024, 20)]


def adorn_every_way(programs, max_rules: int = 7):
    """Adorn each program under id, gout, gk=2 and gmin, each with heq
    and hcont, at the goldens' rule cap; yield each adorned program, the
    partial one when the cap is hit."""
    for p in programs:
        for g in ("id", "gout", "gk=2", "gmin"):
            for h in ("heq", "hcont"):
                try:
                    yield adorn_program(p, g, h, max_rules=max_rules)
                except BudgetExceeded as exc:
                    yield exc.partial


def random_edb(p: Program, rng: random.Random) -> EDBInstance:
    """A random instance over domain <= 4 with <= 6 facts per relation."""
    arities = p.arities()
    rels = []
    for name in sorted(p.edb):
        k = arities[name]
        n_facts = rng.randint(0, 6)
        facts = {tuple(rng.randint(0, 3) for _ in range(k))
                 for _ in range(n_facts)}
        rels.append((name, frozenset(facts)))
    return EDBInstance.of(rels)


_ARITY = {"e": 2, "f": 1, "p": 2, "q": 1}
_TERMS = ["X", "Y", "Zed_1", "X", "Y", "a", "b_2", "0", "-3", "007", "-0",
          "_", "9" * 4301]
_BLANKS = ["", "", " ", "\t", "\r\n", "\n  ", "% in (a, rule).\n"]
_BETWEEN = ["", " ", "\n", "\r\n", "\n\n", "\n% between: p(_) :- é.\n"]
_INSERTS = ["(", ")", ",", ".", ":", "-", "_", "_x", "q(_) :- f(X). ",
            "P(X) :- f(X). ", "e(1,2). ", "é", "²", "\f", "\v"]


def random_program_text(rng) -> str:
    """Rules over e/2, f/1, p/2 and q/1 with blanks between every two
    tokens; now and then a comment inside a rule or a mutation."""
    def pick(pool, valid):
        return rng.choice(pool[:valid] if rng.random() < 0.97 else pool)

    def blank():
        return pick(_BLANKS, 6)

    def atom(pred, terms):
        args = ("," + blank()).join(t + blank() for t in terms)
        return f"{pred}{blank()}({blank()}{args})"

    rules = []
    for _ in range(rng.randrange(1, 5)):
        body = [(pred, [pick(_TERMS, 12) for _ in range(_ARITY[pred])])
                for pred in rng.choices("efpq", k=rng.randrange(1, 4))]
        names = [t for _, ts in body for t in ts if t[0].isupper()] or ["a"]
        head = rng.choice("pq")
        head_terms = [rng.choice(names) if rng.random() < 0.95 else "1"
                      for _ in range(_ARITY[head])]
        rules.append(
            atom(head, head_terms) + blank() + ":-" + blank()
            + ("," + blank()).join(atom(*a) + blank() for a in body) + ".")
    text = "".join(rng.choice(_BETWEEN) + r for r in rules)
    text += rng.choice(["", "\n", "% end", "\n% end, no newline"])
    if rng.random() < 0.3:
        spots = [i for i, c in enumerate(text) if c in "(),.:-_"]
        if spots and rng.random() < 0.5:
            i = rng.choice(spots)
            return text[:i] + text[i + 1:]
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice(_INSERTS) + text[i:]
    return text


_EDB_NAMES = ["e", "e1", "rel_A9", "é", "E", "_"]
_EDB_ARGS = ["1", "-2", "007", "-0", "x", "a_b", "bC3", "9" * 300, "é",
             "12ab", "-", "²", "X", "_"]
_EDB_BLANKS = ["", "", " ", "\t", "\r\n", "\n", "% c, (x).\n"]


def random_edb_text(rng) -> str:
    """Facts over mostly valid names and constants, now and then broken."""
    def pick(pool, valid):
        return rng.choice(pool[:valid] if rng.random() < 0.95 else pool)

    def blank():  # inside a fact, now and then a comment
        return pick(_EDB_BLANKS, 6)

    arity = {}
    facts = []
    for _ in range(rng.randrange(5)):
        name = pick(_EDB_NAMES, 4)
        k = arity.setdefault(name, rng.randrange(1, 4))
        if rng.random() < 0.03:
            k = rng.randrange(4)  # mixed arity, or `e().`
        args = ("," + blank()).join(pick(_EDB_ARGS, 9) + blank()
                                    for _ in range(k))
        fact = f"{name}{blank()}({blank()}{args}){blank()}."
        if rng.random() < 0.05:
            i = rng.randrange(len(fact))
            fact = fact[:i] + fact[i + 1:]
        facts.append(rng.choice(_EDB_BLANKS) + fact)
    tail = rng.choice(["", "\n", "% end", "\n% end, no newline"])
    return "".join(facts) + tail


# ---------------------------------------------------------------------------
# Oracles


def naive_oracle(p: Program, d: EDBInstance) -> dict:
    """Ground-and-saturate datalog evaluation, written independently of
    the library's evaluator."""
    rels = {name: set(d.get(name)) for name in sorted(p.edb)}
    for name in p.idb:
        rels.setdefault(name, set())
    domain = {v for rel in rels.values() for t in rel for v in t}
    for r in p.rules:
        for a in (r.head, *r.body):
            for t in a.terms:
                if isinstance(t, Const):
                    domain.add(t.value)
    domain = sorted(domain, key=repr)
    if not domain:
        return {name: frozenset(rels[name]) for name in p.idb}

    groundings = []
    for r in p.rules:
        rule_vars = sorted(r.all_vars())
        for combo in itertools.product(domain, repeat=len(rule_vars)):
            env = dict(zip(rule_vars, combo))

            def ground(a):
                return a.pred, tuple(
                    env[t.name] if isinstance(t, Var) else t.value
                    for t in a.terms)
            groundings.append((ground(r.head),
                               [ground(a) for a in r.body]))

    changed = True
    while changed:
        changed = False
        for (hp, ht), body in groundings:
            if ht in rels[hp]:
                continue
            if all(bt in rels.get(bp, set()) for bp, bt in body):
                rels[hp].add(ht)
                changed = True
    return {name: frozenset(rels[name]) for name in p.idb}


def brute_homomorphism(r1: Rule, r2: Rule) -> bool:
    """Exhaustive homomorphism search r1 -> r2 with positional heads."""
    targets = [t for a in r2.body for t in a.terms] + list(r2.head.terms)
    vars1 = sorted(r1.all_vars())
    for combo in itertools.product(targets, repeat=len(vars1)):
        env = dict(zip(vars1, combo))

        def image(a):
            return a.pred, tuple(
                env[t.name] if isinstance(t, Var) else t for t in a.terms)
        if image(r1.head) != (r2.head.pred, r2.head.terms):
            continue
        atoms2 = {(a.pred, a.terms) for a in r2.body}
        if all(image(a) in atoms2 for a in r1.body):
            return True
    return False


def brute_stirling(n: int, k: int) -> int:
    """Count partitions of {0..n-1} into k nonempty blocks by building
    every partition: each element joins an existing block or opens one."""
    def count(i: int, blocks: int) -> int:
        if i == n:
            return 1 if blocks == k else 0
        return blocks * count(i + 1, blocks) + count(i + 1, blocks + 1)
    return count(0, 0)


def brute_permutations(n: int, k: int) -> int:
    return sum(1 for _ in itertools.permutations(range(n), k))


def brute_min_cover(vertices, edges) -> int | None:
    """Smallest number of edges covering all vertices, or None."""
    need = set(vertices)
    for k in range(0, len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            if need <= set().union(*combo) if combo else not need:
                return k
    return None


# ---------------------------------------------------------------------------
# Formulas and generators only the tests use


def stirling2(n: int, k: int) -> int:
    """Partitions of n labeled elements into k unlabeled blocks, read from
    the Stirling row that `bound1` and `coeff_minimal` use."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 requires non-negative arguments")
    return _stirling_row(n, k)[k]


def permutations(n: int, k: int) -> int:
    """Falling factorial n(n-1)...(n-k+1); 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("permutations requires non-negative arguments")
    if k > n:
        return 0
    out = 1
    for i in range(k):
        out *= n - i
    return out


def generate_tightness_instance(omega: int, mu: int, nu: int, m: int,
                                n: int, rule_cap: int = 50000):
    """A program and instance on which |q| equals bound1 exactly.

    The instance holds m relations of n pairwise-value-disjoint nu-tuples;
    the rules enumerate, for every k <= omega, every k-tuple of relation
    symbols and every mu-tuple of variable picks.
    """
    if min(omega, mu, nu, m, n) < 1:
        raise ValueError("all parameters must be >= 1")
    expected = sum(m ** k * (k * nu) ** mu for k in range(1, omega + 1))
    if expected > rule_cap:
        raise ValueError(
            f"parameter combination yields {expected} rules "
            f"(cap {rule_cap})")

    rels: dict = {}
    for i in range(1, m + 1):
        tuples = set()
        for r in range(1, n + 1):
            tuples.add(tuple(
                n * nu * (i - 1) + (r - 1) * nu + c
                for c in range(1, nu + 1)))
        rels[f"e{i}"] = tuples
    instance = EDBInstance.of(rels)

    rules = []
    for k in range(1, omega + 1):
        all_vars = [Var(f"X{j}") for j in range(1, k * nu + 1)]
        for rel_choice in itertools.product(range(1, m + 1), repeat=k):
            body = tuple(
                Atom(f"e{rel_choice[a]}",
                     tuple(all_vars[a * nu + c] for c in range(nu)))
                for a in range(k))
            for var_choice in itertools.product(range(k * nu), repeat=mu):
                head = Atom("q", tuple(all_vars[j] for j in var_choice))
                rules.append(Rule(head, body))
    program = Program.from_rules(rules)
    return program, instance


def tightness_bound(omega: int, mu: int, nu: int, m: int, n: int) -> int:
    """bound1 for a generated tightness instance's parameters."""
    stats = SchemaStats(num_edbs=m, ear=nu, arq=mu,
                        rule_count=0, term_count=0)
    return bound1(stats, omega, n)


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


# ---------------------------------------------------------------------------
# Canonical keys by plain search


def _reference_term_sig(t, labels: dict):
    if isinstance(t, Var):
        if t.name in labels:
            return ("v", labels[t.name])
        return ("v?",)
    if isinstance(t.value, int):
        return ("ci", t.value)
    return ("cs", str(t.value))


def _reference_dedup_items(head_terms, items):
    """Drop body atoms identical to an earlier one up to renaming of
    variables that occur only once in the whole rule.  An item is
    (pred key, terms, ...); the kept items are returned whole.

    A drop can leave a variable occurring once, which makes two more
    atoms twins, so the pass repeats while it drops anything."""
    kept = _reference_dedup_once(head_terms, items)
    while len(kept) < len(items):
        items, kept = kept, _reference_dedup_once(head_terms, kept)
    return kept


def _reference_dedup_once(head_terms, items):
    """One pass of `_reference_dedup_items`."""
    counts: dict = {}
    for terms in (head_terms, *[item[1] for item in items]):
        for t in terms:
            if isinstance(t, Var):
                counts[t.name] = counts.get(t.name, 0) + 1

    def pattern(pred_key, terms):
        sig = []
        for t in terms:
            if isinstance(t, Var) and counts.get(t.name, 0) == 1:
                sig.append(("_",))
            else:
                sig.append(_reference_term_sig(t, {})
                           if isinstance(t, Const) else ("v", t.name))
        return (pred_key, tuple(sig))

    seen = set()
    out = []
    for item in items:
        p = pattern(item[0], item[1])
        if p in seen:
            continue
        seen.add(p)
        out.append(item)
    return out


def reference_canonical_key(head_key, head_terms, body_items) -> tuple:
    """Canonical key for a rule given as (head pred key, head terms,
    [(body pred key, body terms)]).

    The labelling search without pruning, kept as the reference that
    `unify.canonical_key` must agree with byte for byte; exponential on
    symmetric bodies.

    Two rules get equal keys iff they are identical up to variable renaming
    and body reordering/duplication.  Head variables are labeled by first
    occurrence in the head; remaining variables by a depth-first search
    for the lexicographically least rendering, which at each step tries
    every unlabeled variable whose occurrence signature is least.
    """
    body_items = _reference_dedup_items(head_terms, list(body_items))

    labels: dict = {}
    for t in head_terms:
        if isinstance(t, Var) and t.name not in labels:
            labels[t.name] = len(labels)

    occurrences: dict = {}
    for pk, terms in body_items:
        for pos, t in enumerate(terms):
            if isinstance(t, Var) and t.name not in labels:
                occurrences.setdefault(t.name, []).append((pk, pos, terms))

    def render(lab):
        head_sig = (head_key,
                    tuple(_reference_term_sig(t, lab) for t in head_terms))
        body_sig = tuple(sorted(
            (pk, tuple(_reference_term_sig(t, lab) for t in terms))
            for pk, terms in body_items
        ))
        return (head_sig, body_sig)

    if not occurrences:
        return render(labels)

    # labeling v changes only the signatures of variables sharing an atom
    neighbours: dict = {v: set() for v in occurrences}
    for v, occ in occurrences.items():
        for _, _, terms in occ:
            neighbours[v].update(t.name for t in terms
                                 if isinstance(t, Var) and t.name != v
                                 and t.name in occurrences)

    def invariant(v, lab):
        sig = []
        for pk, pos, terms in occurrences[v]:
            sig.append((pk, pos, tuple(_reference_term_sig(t, lab)
                                       for t in terms)))
        return tuple(sorted(sig))

    def frame(lab, sigs):
        # sigs: unlabeled variable -> signature, in first-occurrence order
        least = min(sigs.values())
        return lab, sigs, iter([v for v, sig in sigs.items() if sig == least])

    best = None
    stack = [frame(labels, {v: invariant(v, labels) for v in occurrences})]
    while stack:
        lab, sigs, todo = stack[-1]
        v = next(todo, None)
        if v is None:
            stack.pop()
            continue
        lab2 = dict(lab)
        lab2[v] = len(lab)
        sigs2 = dict(sigs)
        del sigs2[v]
        if not sigs2:
            cand = render(lab2)
            if best is None or cand < best:
                best = cand
            continue
        for w in neighbours[v]:
            if w in sigs2:
                sigs2[w] = invariant(w, lab2)
        stack.append(frame(lab2, sigs2))
    return best


def symmetric_body(rng: random.Random):
    """(head key, head terms, body items) of a rule whose body is k = 2-6
    renamed copies of one random tree-shaped component of e/2 and f/1
    atoms, shuffled; in about half of them one atom of each copy holds
    the head variable H.  Components shrink as k grows, which keeps the
    reference search fast."""
    k = rng.choice((2, 2, 2, 3, 3, 4, 5, 6))
    n = rng.randint(1, {2: 7, 3: 4, 4: 3, 5: 2, 6: 2}[k])
    tied = rng.random() < 0.5
    atoms = [("f", (rng.randrange(n),))] if n == 1 or rng.random() < 0.3 \
        else []
    for v in range(1, n):
        u = rng.randrange(v)
        atoms.append(("e", (u, v) if rng.random() < 0.5 else (v, u)))
    if tied:
        atoms.append(("e", (n, rng.randrange(n))))

    def term(copy, i):
        return Var("H") if i == n else Var(f"C{copy}X{i}")

    body = [(("p", pred), tuple(term(c, i) for i in args))
            for c in range(k) for pred, args in atoms]
    rng.shuffle(body)
    return ("p", "q"), (Var("H"),) if tied else (), body


# ---------------------------------------------------------------------------
# Plain profiles and key-first membership


def rule_profile(r: Rule) -> tuple:
    """A plain rule's distance profile, over its own terms."""
    return distance_profile(r.head.terms,
                            [(a.pred, a.terms) for a in r.body])


def reference_check(h: MembershipFn, r: Rule, admitted) -> bool:
    """`MembershipFn.check` with r's canonical form first: a hit on it,
    then the cycle test, then every pooled adornment as a subsumer of
    r's head's, with verdicts memoised on the engine run's
    `_Admitted`."""
    if canonical_form(r) in admitted.rules:
        return True
    if h.name == "heq" or admitted.graph.closes_cycle(r):
        return False
    rho = r.head.adornment
    for other in admitted.graph.pools.get(r.head.pred, ()):
        verdict = admitted.verdicts.get((other, rho))
        if verdict is None:
            verdict = admitted.verdicts[other, rho] = (
                may_subsume(other.profile, rho.profile)
                and subsumes(other.rule, rho.rule))
        if verdict:
            return True
    return False


def reference_closes_cycle(graph, r: Rule) -> bool:
    """`_Graph.closes_cycle` as a whole walk: from r's body adornments
    and its head's successors along `graph.edges`, until the head's
    adornment is met."""
    target = r.head.adornment
    stack = [a.adornment for a in r.body if a.adornment is not None]
    stack.extend(graph.edges.get(target, ()))
    seen: set = set()
    while stack:
        node = stack.pop()
        if node == target:
            return True
        if node not in seen:
            seen.add(node)
            stack.extend(graph.edges.get(node, ()))
    return False


# ---------------------------------------------------------------------------
# The Rule-based candidate build and relaxations


def tagged(r: Rule, j: int) -> Rule:
    """r with each variable V renamed _{j}V: the renaming apart that
    `unify.key_terms(key, f"_{j}")` must equal on `rule_of_key(key)`."""
    def tag(terms) -> tuple:
        return tuple(Var(f"{INTERNAL_PREFIX}{j}{t.name}")
                     if isinstance(t, Var) else t for t in terms)

    return Rule(Atom(r.head.pred, tag(r.head.terms)),
                tuple(Atom(a.pred, tag(a.terms)) for a in r.body))


def _reference_patterns(rule: Rule) -> list:
    hv = set(rule.head_vars())
    return [(a.pred, tuple(t.name if isinstance(t, Var) and t.name in hv
                           else None for t in a.terms)) for a in rule.body]


def _reference_rebuild(head: Atom, pats) -> Rule:
    wild = (Var(f"{INTERNAL_PREFIX}g{i}") for i in itertools.count(1))
    return Rule(head, tuple(
        Atom(pred, tuple(Var(x) if x is not None else next(wild)
                         for x in pat)) for pred, pat in pats))


def reference_gout_kept(pats) -> list:
    """GOut's kept patterns by comparing every pattern with every other."""
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

    return [p for p in pats if not redundant(p)]


def _reference_gmin(rule: Rule) -> Rule:
    canon = rule_of_key(canonical_form(rule))
    pats = _reference_patterns(canon)
    pats.sort(key=lambda p: (p[0], tuple((1,) if x is None else (0, x)
                                         for x in p[1])))
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
    return _reference_rebuild(canon.head, kept)


def reference_relax(g, rule: Rule) -> Adornment:
    """`relax(g, rule)` on Rule objects: the relaxed rule is built whole,
    checked for safety and canonicalised."""
    if isinstance(g, GMin):
        relaxed = _reference_gmin(rule)
    elif isinstance(g, GOut) or isinstance(g, GK) and len(rule.body) > g.k:
        relaxed = _reference_rebuild(
            rule.head, reference_gout_kept(_reference_patterns(rule)))
    else:
        relaxed = rule
    if not set(relaxed.head_vars()) <= set(relaxed.body_vars()):
        raise AssertionError(f"relaxation produced an unsafe rule: {relaxed}")
    return Adornment.of(relaxed)


def reference_build(g, rule: Rule, idb_atoms, edb_atoms, combo):
    """`_Engine.build` on Rule objects, for a run whose relaxation is g
    so far: each candidate's representative renamed apart by `tagged`,
    the unfolded candidate a `Rule`.  Returns the adorned rule (None when
    unification fails) and the run's relaxation after it."""
    insts = [tagged(adn.rule, j) for j, adn in enumerate(combo)]
    sigma = mgu([(atom.terms, inst.head.terms)
                 for atom, inst in zip(idb_atoms, insts)])
    if sigma is None:
        return None, g
    head_terms = substitute(sigma, rule.head.terms)
    edb = tuple(Atom(a.pred, substitute(sigma, a.terms)) for a in edb_atoms)
    rho0 = Rule(Atom(rule.head.pred, head_terms), tuple(
        Atom(a.pred, substitute(sigma, a.terms))
        for inst in insts for a in inst.body) + edb)
    g = g.then(rho0.body)
    rho = reference_relax(g, rho0)
    head = Atom(rule.head.pred, head_terms, rho)
    body = tuple(Atom(atom.pred, substitute(sigma, atom.terms), adn)
                 for atom, adn in zip(idb_atoms, combo)) + edb
    kept = _dedup_items(head_terms,
                        [(_pred_key(a), a.terms, a) for a in body])
    return Rule(head, tuple(a for _, _, a in kept)), g


def reference_rule_groundable(r: Rule, p: Program) -> bool:
    """`groundable._rule_groundable`, each EDB atom's private head
    variables found by collecting every other atom's variables."""
    idb_atoms, edb_atoms = classify_rule_atoms(r, p)
    head_vars = set(r.head_vars())
    for a in edb_atoms:
        others = [b for b in r.body if b is not a]
        other_vars = {v for b in others for v in b.vars()}
        has_private_head_var = any(
            v in head_vars and v not in other_vars for v in a.vars())
        all_in_head = set(a.vars()) <= head_vars
        if not (has_private_head_var or all_in_head):
            return False
    edb_vars = {v for a in edb_atoms for v in a.vars()}
    for a in idb_atoms:
        if not set(a.vars()) <= head_vars | edb_vars:
            return False
    return True


# ---------------------------------------------------------------------------
# Standalone rule bounds and the plain value-cover search


def reference_check_rule_bounded(pi: AdornedProgram, d: EDBInstance,
                                 result=None) -> RuleBoundedReport:
    """`check_rule_bounded` with each head adornment evaluated as a
    standalone query over the whole of d."""
    if result is None:
        result = evaluate(pi, d)
    erules, idb_keys, _ = _normalize(pi)
    idb = [_Relation(result.get(key)) for key in idb_keys]
    violations = []
    allowed_by: dict = {}
    for idx, (rule, erule) in enumerate(zip(pi.rules, erules)):
        derived = erule.apply(erule.sources(idb, d))
        adn = rule.head.adornment
        if adn not in allowed_by:
            allowed_by[adn] = eval_cq(adn.rule, d)
        for t in sorted(derived - allowed_by[adn], key=lambda row: tuple(
                (isinstance(v, str), v) for v in row)):
            violations.append(BoundednessViolation(idx, t))
    return RuleBoundedReport(tuple(violations))


def plain_value_cover_ok(values, d: EDBInstance, k: int) -> bool:
    """The search `value_cover_ok` ran before it called `min_cover`, kept
    as the reference, without the shortcut for at most k values: a
    depth-first search on d's value-cover index, branching on the value
    held by the fewest tuples."""
    index = d.value_cover_index
    stack = [iter((frozenset(values),))]
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


# ---------------------------------------------------------------------------
# Token readers


# A character tokenizer and a recursive-descent walk over its tokens: the
# reference that `parse_program` and `parse_edb` must agree with byte for
# byte, results and positioned errors alike.  A program reads as
# `_Parser(text).program()`.

_DIGITS = frozenset("0123456789")
_PUNCT = {":-": "ARROW", "(": "LPAR", ")": "RPAR", ",": "COMMA", ".": "DOT",
          "_": "WILD"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith(":-", i):
            tokens.append(_Token("ARROW", ":-", line, col))
            i += 2
            col += 2
            continue
        if c in "(),.":
            tokens.append(_Token(_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        if c == "_" and (i + 1 >= n or not (text[i + 1].isalnum() or text[i + 1] == "_")):
            tokens.append(_Token("WILD", "_", line, col))
            i += 1
            col += 1
            continue
        # integers are -?[0-9]+; str.isdigit also takes other scripts' digits
        if c in _DIGITS or (c == "-" and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind = "VAR" if c.isupper() else "IDENT"
            tokens.append(_Token(kind, text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.fresh = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def expect(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col,
            )
        self.pos += 1
        return tok

    def fresh_wildcard(self) -> Var:
        self.fresh += 1
        return Var(f"{INTERNAL_PREFIX}w{self.fresh}")

    def term(self, allow_wildcard: bool) -> Term:
        tok = self.peek()
        if tok.kind == "VAR":
            self.pos += 1
            return Var(tok.text)
        if tok.kind == "IDENT":
            self.pos += 1
            return Const(tok.text)
        if tok.kind == "INT":
            self.pos += 1
            return Const(int(tok.text))
        if tok.kind == "WILD":
            if not allow_wildcard:
                raise ParseError("wildcard not allowed in rule head",
                                 tok.line, tok.col)
            self.pos += 1
            return self.fresh_wildcard()
        raise ParseError(
            f"expected a term, found {tok.text or 'end of input'!r}",
                         tok.line, tok.col)

    def atom(self, allow_wildcard: bool) -> Atom:
        name = self.expect("IDENT")
        self.expect("LPAR")
        terms = [self.term(allow_wildcard)]
        while self.peek().kind == "COMMA":
            self.pos += 1
            terms.append(self.term(allow_wildcard))
        self.expect("RPAR")
        return Atom(name.text, tuple(terms))

    def rule(self) -> Rule:
        head = self.atom(allow_wildcard=False)
        tok = self.peek()
        if tok.kind == "DOT":
            raise ParseError(
                "facts are not allowed in program text; use an EDB file",
                tok.line, tok.col,
            )
        self.expect("ARROW")
        body = [self.atom(allow_wildcard=True)]
        while self.peek().kind == "COMMA":
            self.pos += 1
            body.append(self.atom(allow_wildcard=True))
        self.expect("DOT")
        return Rule(head, tuple(body))

    def program(self) -> Program:
        rules = []
        while self.peek().kind != "EOF":
            rules.append(self.rule())
        if not rules:
            tok = self.peek()
            raise ParseError("empty program", tok.line, tok.col)
        return Program.from_rules(rules)


def _parse_edb_tokens(text: str) -> EDBInstance:
    tokens = _tokenize(text)
    rels: dict = {}
    i = 0
    while tokens[i].kind != "EOF":
        tok = tokens[i]
        if tok.kind != "IDENT":
            raise ParseError("expected a fact", tok.line, tok.col)
        name = tok.text
        i += 1
        if tokens[i].kind != "LPAR":
            raise ParseError("expected '('", tokens[i].line, tokens[i].col)
        i += 1
        vals = []
        while True:
            t = tokens[i]
            if t.kind == "INT":
                vals.append(int(t.text))
            elif t.kind == "IDENT":
                vals.append(t.text)
            elif t.kind == "EOF":
                raise ParseError("expected a constant, found 'end of input'",
                                 t.line, t.col)
            else:
                raise ParseError("facts may contain only constants",
                                 t.line, t.col)
            i += 1
            if tokens[i].kind == "COMMA":
                i += 1
                continue
            break
        if tokens[i].kind != "RPAR":
            raise ParseError("expected ')'", tokens[i].line, tokens[i].col)
        i += 1
        if tokens[i].kind != "DOT":
            raise ParseError("expected '.'", tokens[i].line, tokens[i].col)
        i += 1
        rels.setdefault(name, set()).add(tuple(vals))
    return EDBInstance.of(rels)
