"""Unification, canonical forms, and subsumption."""

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dlbound import (
    Const, Var, adorn, canonical_form, mgu, subsumes, unify,
)
from dlbound.core import Atom, Rule
from dlbound.unify import (
    canonical_key, items_of, key_terms, may_subsume, rule_of_items,
    rule_of_key, substitute,
)

from conftest import (
    adorn_every_way, brute_homomorphism, golden_corpus, random_programs,
    reference_canonical_key, rule_profile, symmetric_body, tagged,
)


def rule(text):
    from dlbound import parse_program
    return parse_program(text).rules[0]


# ---------------------------------------------------------------------------
# mgu


def pair(*eqs):
    return [((a,), (b,)) for a, b in eqs]


def test_mgu_basic():
    assert mgu(pair((Var("X"), Const(1)))) == {"X": Const(1)}
    assert mgu([]) == {}


def test_mgu_var_chain():
    s = mgu(pair((Var("X"), Var("Y")), (Var("Y"), Const(2))))
    assert s == {"X": Const(2), "Y": Const(2)}


def test_mgu_clash():
    assert mgu(pair((Const(1), Const(2)))) is None


def test_mgu_simultaneous():
    # both pairs must unify at once
    s = mgu(pair((Var("X"), Var("Y")), (Var("X"), Const(3))))
    assert s == {"X": Const(3), "Y": Const(3)}


def test_mgu_tuple_pairs():
    s = mgu([((Var("X"), Var("Y")), (Const(1), Var("X")))])
    assert s == {"X": Const(1), "Y": Const(1)}


def test_mgu_tie_break_deterministic():
    # later-first-occurrence variable maps to the earlier one
    assert mgu(pair((Var("A"), Var("B")))) == {"B": Var("A")}


names = st.sampled_from(["X", "Y", "Z", "W"])
terms = st.one_of(names.map(Var), st.integers(0, 3).map(Const))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(terms, terms), max_size=6))
def test_mgu_soundness(eqs):
    s = mgu(pair(*eqs))
    if s is None:
        return
    for a, b in eqs:
        assert substitute(s, (a,)) == substitute(s, (b,))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(terms, terms), max_size=6))
def test_mgu_idempotent(eqs):
    s = mgu(pair(*eqs))
    if s is None:
        return
    for t in s.values():
        assert substitute(s, (t,)) == (t,)


def reference_mgu(pairs):
    """The unifier mgu must equal: equations solved in order, each new
    binding rewritten into every earlier one; of two variables, the one
    first occurring later in the flattened pairs maps to the other."""
    order = {}
    for s_tuple, t_tuple in pairs:
        for t in (*s_tuple, *t_tuple):
            if isinstance(t, Var):
                order.setdefault(t.name, len(order))
    bindings = {}

    def resolve(t):
        return bindings.get(t.name, t) if isinstance(t, Var) else t

    def bind(v, t):
        for k, u in list(bindings.items()):
            if u == v:
                bindings[k] = t
        bindings[v.name] = t

    for s_tuple, t_tuple in pairs:
        for s, t in zip(s_tuple, t_tuple):
            s, t = resolve(s), resolve(t)
            if s == t:
                continue
            if isinstance(s, Const) and isinstance(t, Const):
                return None
            if isinstance(s, Var) and isinstance(t, Var):
                if order[s.name] <= order[t.name]:
                    bind(t, s)
                else:
                    bind(s, t)
            elif isinstance(s, Var):
                bind(s, t)
            else:
                bind(t, s)
    return bindings


def test_mgu_matches_reference():
    rng = random.Random(17)
    kinds = set()
    for _ in range(1500):
        pool = [Var(n) for n in "ABCDEFG"[:rng.randint(1, 7)]]
        pool += [Const(c) for c in (1, 2, "a")[:rng.randint(0, 3)]]
        pairs = []
        for _ in range(rng.randint(0, 4)):
            n = rng.randint(0, 4)
            pairs.append((tuple(rng.choice(pool) for _ in range(n)),
                          tuple(rng.choice(pool) for _ in range(n))))
        want = reference_mgu(pairs)
        assert mgu(pairs) == want, pairs
        terms = [t for s_t, t_t in pairs for t in (*s_t, *t_t)]
        kinds.add("clash" if want is None else
                  "constant" if any(isinstance(t, Const)
                                    for t in want.values()) else
                  "variables only")
        if len({t for t in terms if isinstance(t, Var)}) < sum(
                isinstance(t, Var) for t in terms):
            kinds.add("repeated variable")
    assert kinds == {"clash", "constant", "variables only",
                     "repeated variable"}


def instance_rule(key, prefix) -> Rule:
    """`key_terms(key, prefix)` as a rule."""
    return rule_of_items(key[0][0], *key_terms(key, prefix))


def test_tagged_renamings_are_apart():
    # the instances of a key tagged 0, 1, 2, 10, as an engine run unfolds
    # them: each is the representative renamed by `tagged`, keeps the
    # key, and shares no variable with the others or the representative
    rules = [r for p in random_programs(5, 30) for r in p.rules]
    rules += [rule("q(X) :- e(X,_), e(_,X).")]
    keys = [canonical_form(r) for r in rules]
    reps = [rule_of_key(key) for key in keys]
    assert any(v.startswith("_") for r in reps for v in r.all_vars())
    for key, rep in zip(keys, reps):
        assert instance_rule(key, "") == rep
        names = [set(rep.all_vars())]
        for j in (0, 1, 2, 10):
            t = instance_rule(key, f"_{j}")
            assert t == tagged(rep, j)
            assert canonical_form(t) == key
            names.append(set(t.all_vars()))
        assert sum(map(len, names)) == len(set().union(*names))


def test_engine_instances_are_the_tagged_representatives(monkeypatch):
    # every key an engine run unfolds (a candidate by its position tag,
    # a GMin input untagged) over the goldens' corpus, under every
    # relaxation and membership function
    seen = []
    real = adorn.key_terms

    def record(key, prefix=""):
        seen.append((key, prefix))
        return real(key, prefix)

    monkeypatch.setattr(adorn, "key_terms", record)
    for _ in adorn_every_way(golden_corpus()):
        pass
    monkeypatch.undo()
    assert len(seen) > 300 and any(prefix == "" for _, prefix in seen)
    for key, prefix in seen:
        rep = rule_of_key(key)
        expected = tagged(rep, int(prefix[1:])) if prefix else rep
        assert instance_rule(key, prefix) == expected


# ---------------------------------------------------------------------------
# canonical forms


def test_canonical_renaming_invariant():
    a = rule("tc(X,Y) :- e(X,Z), e(Z,Y).")
    b = rule("tc(A,B) :- e(A,C), e(C,B).")
    assert canonical_form(a) == canonical_form(b)


def test_canonical_body_order_invariant():
    a = rule("q(X) :- e(X,Y), f(Y).")
    b = rule("q(X) :- f(Y), e(X,Y).")
    assert canonical_form(a) == canonical_form(b)


def test_canonical_distinguishes_structure():
    a = rule("q(X) :- e(X,Y).")
    b = rule("q(X) :- e(Y,X).")
    assert canonical_form(a) != canonical_form(b)


def test_canonical_distinguishes_symbol_from_int():
    a = rule("q(X) :- e(X,a).")
    b = rule("q(X) :- e(X,1).")
    assert canonical_form(a) != canonical_form(b)
    assert canonical_form(a) == canonical_form(rule("q(Y) :- e(Y,a)."))


def test_canonical_dedups_singleton_twins():
    a = rule("q(X,X,X) :- e(X,A), e(X,B).")
    b = rule("q(X,X,X) :- e(X,A).")
    assert canonical_form(a) == canonical_form(b)


def test_canonical_dedups_twins_left_by_a_drop():
    # dropping the duplicate e(X,A) leaves A occurring once, which makes
    # the remaining two atoms twins
    a = rule("q(X) :- e(X,A), e(X,A), e(X,B).")
    b = rule("q(X) :- e(X,B).")
    assert canonical_form(a) == canonical_form(b)


def test_canonical_rule_representative_parses():
    r = rule_of_key(canonical_form(rule("tc(P,Q) :- e(P,M), e(M,Q).")))
    assert r.head.pred == "tc"
    assert canonical_form(r) == canonical_form(rule("tc(X,Y) :- e(X,Z), e(Z,Y)."))


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_canonical_congruence_random(rnd):
    progs = list(random_programs(rnd.randint(0, 10**6), 1))
    r = progs[0].rules[0]
    # apply a random variable permutation
    vs = sorted(r.all_vars())
    perm = list(vs)
    rnd.shuffle(perm)
    ren = dict(zip(vs, perm))

    def sub(a):
        return Atom(a.pred, tuple(
            Var(ren[t.name]) if isinstance(t, Var) else t for t in a.terms))
    shuffled_body = list(map(sub, r.body))
    rnd.shuffle(shuffled_body)
    r2 = Rule(sub(r.head), tuple(shuffled_body))
    assert canonical_form(r) == canonical_form(r2)


def engine_key_args(monkeypatch) -> list:
    """The arguments of every `canonical_key` call that engine runs over
    the goldens' corpus make under id, gout, gk=2 and gmin, with heq and
    hcont, at the goldens' rule cap; and of every adorned rule and
    adornment representative they return."""
    calls = []
    real = unify.canonical_key

    def record(head_key, head_terms, body_items):
        calls.append((head_key, head_terms, list(body_items)))
        return real(head_key, head_terms, body_items)

    monkeypatch.setattr(unify, "canonical_key", record)
    for pi in adorn_every_way(golden_corpus()):
        for r in pi.rules:
            calls.append(items_of(r))
            calls += [items_of(a.adornment.rule)
                      for a in (r.head, *r.body) if a.adornment]
    monkeypatch.undo()
    return calls


def shaped_bodies(rng: random.Random) -> list:
    """(head key, head terms, body items) of chains, up/down ladders (the
    unfoldings of same-generation), stars and cycles at sizes on both
    sides of `canonical_key`'s switch to cells; some with constants,
    repeated variables and repeated atoms, some symmetric, so that
    variables tie, and each with its body shuffled."""
    def items(*atoms):
        return [(("p", pred), tuple(Var(t) if t[0].isupper() else
                                    Const(int(t)) if t.isdigit() else
                                    Const(t) for t in args))
                for pred, *args in atoms]

    def chain(n, pred="e", x="X"):
        return [(pred, f"{x}{i}", f"{x}{i + 1}") for i in range(n)]

    shapes = []
    for n in (3, 8, 13, 14, 15, 16, 24, 40):
        ends = (Var("X0"), Var(f"X{n}"))
        shapes += [(ends, items(*chain(n))), (ends[:1], items(*chain(n))),
                   ((), items(*chain(n)))]
        # a cycle ties every variable when no head variable breaks it
        cycle = chain(n - 1) + [("e", f"X{n - 1}", "X0")]
        shapes += [((), items(*cycle)), (ends[:1], items(*cycle))]
        # a ladder: up-steps, a flat rung, as many down-steps
        k = max(1, n // 2)
        ladder = chain(k, "up", "U") + [("flat", f"U{k}", f"D{k}")] + [
            ("down", f"D{i + 1}", f"D{i}") for i in range(k)]
        shapes.append(((Var("U0"), Var("D0")), items(*ladder)))
        # a star whose spokes constants tell apart
        shapes.append(((Var("C"),), items(*[
            atom for i in range(n) for atom in
            (("e", "C", f"L{i}"), ("f", f"L{i}", str(i)))])))
        # a chain with loops, constants and repeated atoms
        mixed = chain(n) + [("e", x, x) for x in ("X1", f"X{n - 1}")]
        mixed += [("e", f"X{i}", str(i)) for i in range(2, n, 5)]
        mixed += mixed[:n // 3]
        shapes.append((ends, items(*mixed)))
    # symmetric bodies past the switch: copies of one chain, and a star of
    # copies of one spoke, which tie until a copy is labelled
    for copies, n in ((2, 8), (2, 15), (3, 5), (4, 4)):
        body = [atom for c in range(copies) for atom in chain(n, x=f"C{c}X")]
        shapes.append(((), items(*body)))
        spokes = [atom for c in range(copies) for atom in (
            ("e", "H", f"C{c}X0"), *chain(n, x=f"C{c}X"))]
        shapes.append(((Var("H"),), items(*spokes)))
    out = []
    for head, body in shapes:
        rng.shuffle(body)
        out.append((("p", "q"), head, body))
    return out


def test_canonical_key_matches_the_plain_search(monkeypatch):
    # the pruned search in place must give the plain search's keys byte
    # for byte: output order and hcont's trial order depend on them
    cases = [items_of(r) for p in random_programs(7, 400) for r in p.rules]
    engine = engine_key_args(monkeypatch)
    assert len(engine) > 2000
    rng = random.Random(0)
    symmetric = [symmetric_body(rng) for _ in range(400)]
    shaped = shaped_bodies(rng)
    sizes = {len(unify._dedup_items(head, body)) >= unify._CELLS_FROM
             for _, head, body in shaped}
    assert sizes == {False, True}
    for args in cases + engine + symmetric + shaped:
        assert canonical_key(*args) == reference_canonical_key(*args), args


def random19_body_rule() -> Rule:
    """The 19-atom candidate that `adorn --relax id` on random19 of the
    CLI goldens keys at a rule cap of 9: eight copies of e0(_,W),
    e0(W,W) hang off no head variable."""
    copies = [f"e0(C{j},W{j})" for j in range(1, 8)]
    loops = [f"e0(W{j},W{j})" for j in range(8)]
    return rule(f"p0(V3,1) :- e0(1,A), e0(V1,W0), {', '.join(copies)}, "
                f"{', '.join(loops)}, e0(V2,V2), e0(V3,V2).")


def test_canonical_key_on_a_symmetric_body_is_fast():
    # the plain search walks the 8! orderings of the copies, over a
    # second; its key is written out below
    e = ("p", "e0")
    want = ((("p", "p0"), (("v", 0), ("ci", 1))), (
        (e, (("ci", 1), ("v", 18))), (e, (("v", 0), ("v", 9))),
        *((e, (("v", i), ("v", 9 + i))) for i in range(1, 9)),
        *((e, (("v", i), ("v", i))) for i in range(9, 18))))
    start = time.perf_counter()
    key = canonical_form(random19_body_rule())
    assert time.perf_counter() - start < 0.1
    assert key == want


# ---------------------------------------------------------------------------
# subsumption


def test_subsumes_reach():
    r1 = rule("r(Y) :- e(X,Y).")
    r2 = rule("r(Y) :- e(A,X), e(X,Y).")
    assert subsumes(r1, r2)
    assert not subsumes(r2, r1)


def test_subsumes_buys():
    r2 = rule("buys(X,Y) :- trendy(X), likes(W,Y).")
    r3 = rule("buys(X,Y) :- trendy(X), trendy(V), likes(W,Y).")
    assert subsumes(r2, r3)
    assert subsumes(r3, r2)


def test_subsumes_mirror_false():
    assert not subsumes(rule("r(Y) :- e(Y,W)."), rule("r(Y) :- e(W,Y)."))


def test_subsumes_head_mismatch_raises():
    with pytest.raises(ValueError):
        subsumes(rule("q(X) :- e(X)."), rule("r(X) :- e(X)."))


def test_subsumes_constants():
    assert subsumes(rule("q(X) :- e(X,Y)."), rule("q(X) :- e(X,1)."))
    assert not subsumes(rule("q(X) :- e(X,2)."), rule("q(X) :- e(X,1)."))


def merge(r, x, y):
    """r with variable x replaced by variable y."""
    def atom(a):
        return Atom(a.pred, substitute({x: Var(y)}, a.terms))
    return Rule(atom(r.head), tuple(map(atom, r.body)))


def test_subsumes_matches_brute_force():
    rng = random.Random(7)
    progs = list(random_programs(11, 40))
    checked = rejected = 0
    for p in progs:
        small = [r for r in p.rules if len(r.body) <= 3]
        # merging two variables gives an image the rule maps onto, with
        # shorter distances between its terms
        merged = [merge(r, x, y) for r in small
                  for x, y in combinations(sorted(r.all_vars()), 2)]
        for r1 in small:
            for r2 in small + merged:
                if r1.head.pred != r2.head.pred:
                    continue
                if r1.head.arity != r2.head.arity:
                    continue
                if len(r1.all_vars()) > 5:
                    continue
                brute = brute_homomorphism(r1, r2)
                assert subsumes(r1, r2) == brute
                checked += 1
                # the distance-profile prefilter only rejects non-homomorphisms
                if not may_subsume(rule_profile(r1), rule_profile(r2)):
                    assert not brute
                    rejected += 1
    assert checked >= 30 and rejected >= 30


def chain_rule(n):
    body = ", ".join(f"e(Z{i},Z{i + 1})" for i in range(n))
    return rule(f"r(Z0,Z{n}) :- {body}.")


def test_subsumes_long_chains_fast():
    # failing chain-vs-chain searches must not blow up
    assert not subsumes(chain_rule(40), chain_rule(41))
    assert subsumes(chain_rule(41), chain_rule(41))


def test_subsumes_long_chain_is_iterative():
    r = chain_rule(1200)
    assert subsumes(r, r)


def test_canonical_form_long_chain_is_iterative():
    r = chain_rule(1200)
    renamed = ", ".join(f"e(W{i},W{i + 1})" for i in reversed(range(1200)))
    assert canonical_form(r) == canonical_form(
        rule(f"r(W0,W1200) :- {renamed}."))
    assert canonical_form(r) != canonical_form(chain_rule(1199))


def test_the_least_signature_pick_is_near_linear_on_chains(monkeypatch):
    # past the switch to cells a labelling step compares the distinct
    # signatures, a few on a chain, not every unlabelled variable's
    examined = []

    def counted(values):
        values = list(values)
        examined[-1] += len(values)
        return min(values)

    monkeypatch.setattr(unify, "min", counted, raising=False)
    for n in (50, 100, 200):
        examined.append(0)
        canonical_form(chain_rule(n))
    assert examined[1] <= 2.5 * examined[0], examined
    assert examined[2] <= 2.5 * examined[1], examined


def test_subsumes_remembers_failed_states():
    # every prefix of the chain maps into the two-node clique {A, B} in
    # 2^k ways, and none of them reaches C at the end
    clique = rule("r(A,C) :- e(A,B), e(B,A), e(A,A), e(B,B), e(C,C).")
    start = time.perf_counter()
    assert not subsumes(chain_rule(200), clique)
    assert time.perf_counter() - start < 1.0
