"""Adornments, relaxation/membership functions, and the fixpoint engine."""

import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from operator import attrgetter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

from dlbound import (
    Adornment, Atom, BudgetExceeded, GK, GMin, GOut, Id, MembershipFn, Rule,
    Var, adorn_program, adornments_of, canonical_form, fixpoint_stable,
    make_relaxation, parse_program, relax, subsumes,
)
from dlbound import adorn, unify
from dlbound.adorn import _Admitted, _Engine, _Graph, h_cont, h_eq
from dlbound.core import classify_rule_atoms, format_rule

from conftest import (
    REACH_SRC, TC_SRC, adorn_every_way, golden_corpus, random_programs,
    reference_build, reference_check, reference_closes_cycle,
    reference_gout_kept, reference_relax, rule_profile,
)


def rule(text):
    return parse_program(text).rules[0]


def adn_key(text):
    return Adornment.of(rule(text)).key


# ---------------------------------------------------------------------------
# relaxation functions


def test_id_keeps_body():
    r = rule("q(X) :- e(X,Y), f(Y).")
    assert relax(Id(), r).key == adn_key("q(X) :- e(X,Y), f(Y).")


def test_gout_wildcards_non_head_args():
    r = rule("tc(X,Y) :- e(X,Z), e(Z,Y).")
    assert relax(GOut(), r).key == adn_key("tc(X,Y) :- e(X,A), e(B,Y).")


def test_gout_wildcards_constants():
    r = rule("q(X) :- e(X,5).")
    assert relax(GOut(), r).key == adn_key("q(X) :- e(X,W).")


def test_gout_drops_redundant_patterns():
    r = rule("q(X) :- e(X,Y), e(X,Z), e(Y,Z).")
    # e(x,_) twice collapses; e(y,z) becomes the all-wildcard atom, dropped
    assert relax(GOut(), r).key == adn_key("q(X) :- e(X,W).")


def test_gout_equal_patterns_leave_one_atom():
    # three e(X,_) patterns rebuild into wildcard twins; the canonical
    # form keeps one
    src = "q(X) :- e(X,A), e(X,B), e(X,C)."
    assert str(relax(GOut(), rule(src))) == "q(V0) :- e(V0,_)"
    assert adorn_program(parse_program(src), GOut()).pretty() == \
        "q[q(X) :- e(X,_)](X) :- e(X,A).\n"


def test_gk_identity_below_budget():
    g = GK(2)
    small = rule("q(X) :- e(X,Y), f(Y).")
    assert g.then(small.body) is g
    assert relax(g, small).key == adn_key("q(X) :- e(X,Y), f(Y).")


def test_gk_triggers_and_sticks():
    g = GK(2)
    big = rule("q(X) :- e(X,A), e(A,B), e(B,C).")
    run = g.then(big.body)
    assert isinstance(run, GOut)
    assert relax(run, big).key == adn_key("q(X) :- e(X,W).")
    # sticky: even small rules now get the output relaxation, which also
    # drops the resulting all-wildcard f atom
    small = rule("q(X) :- e(X,Y), f(Y).")
    assert run.then(small.body) is run
    assert relax(run, small).key == adn_key("q(X) :- e(X,W).")
    # the switch belongs to the run: the original GK is unchanged
    assert relax(g, small).key == adn_key("q(X) :- e(X,Y), f(Y).")


def test_gk_reused_across_runs_is_pure():
    g = GK(2)
    adorn_program(parse_program("t(X) :- e(X,Y), f(Y), h(Y)."), g)
    p = parse_program("s(X) :- e(X,Y), f(Y).")
    reused = adorn_program(p, g).pretty()
    assert reused == adorn_program(p, GK(2)).pretty()
    assert reused == "s[s(X) :- e(X,V0), f(V0)](X) :- e(X,Y), f(Y).\n"


def test_adornment_key_is_its_representatives_key():
    # the key is computed once, from the rule; it must name the stored
    # representative as well, also when dropping a duplicate atom makes
    # two more atoms twins
    twins = Adornment.of(rule("q(X) :- e(X,A), e(X,A), e(X,B)."))
    assert len(twins.rule.body) == 1
    assert twins.key == adn_key("q(X) :- e(X,Y).")
    count = 0
    for p in random_programs(41, 60):
        rules = list(p.rules)
        for g in ("id", "gout", "gmin", "gk=2"):
            try:
                pi = adorn_program(p, g, max_rules=6)
            except BudgetExceeded as exc:
                pi = exc.partial
            rules += [a.rule for r in pi.rules
                      for a in (r.head.adornment, *(
                          b.adornment for b in r.body if b.adornment))]
        for r in rules:
            adn = Adornment.of(r)
            assert canonical_form(adn.rule) == adn.key
            count += 1
    assert count > 1000


def test_gmin_triangle():
    r = rule("p(X,Y,Z) :- e(X,Y,U), e(X,Z,V), e(Y,Z,W).")
    assert relax(GMin(), r).key == adn_key("p(X,Y,Z) :- e(X,Y,U), e(A,Z,B).")


def test_gmin_on_a_wide_head():
    # twenty unary atoms: the cover search starts at its lower bound, 20,
    # instead of trying every smaller subset first
    xs = ",".join(f"X{i}" for i in range(20))
    atoms = ", ".join(f"e(X{i})" for i in range(20))
    pi = adorn_program(parse_program(f"q({xs}) :- {atoms}."), GMin())
    assert pi.pretty() == f"q[q({xs}) :- {atoms}]({xs}) :- {atoms}.\n"


def test_make_relaxation():
    assert isinstance(make_relaxation("id"), Id)
    assert isinstance(make_relaxation("gout"), GOut)
    assert isinstance(make_relaxation("gmin"), GMin)
    gk = make_relaxation("gk=3")
    assert isinstance(gk, GK) and gk.k == 3
    with pytest.raises(ValueError):
        make_relaxation("nope")


def test_relaxation_subsumes_input():
    # every relaxation must yield an upper bound of the original CQ body
    for seed_p in random_programs(23, 25):
        for r in seed_p.rules:
            if any(a.pred in seed_p.idb for a in r.body):
                continue
            for g in (Id(), GOut(), GK(2), GMin()):
                a = relax(g, r)
                assert subsumes(a.rule, Adornment.of(r).rule)


# ---------------------------------------------------------------------------
# membership functions


def test_h_eq_modulo_renaming():
    pi1 = adorn_program(parse_program("q(X) :- e(X,Y)."),
                        GOut(), MembershipFn("heq"))
    pi2 = adorn_program(parse_program("q(A) :- e(A,B)."),
                        GOut(), MembershipFn("heq"))
    pi3 = adorn_program(parse_program("q(A) :- e(B,A)."),
                        GOut(), MembershipFn("heq"))
    assert h_eq(pi2.rules[0], pi1.rules)
    assert not h_eq(pi3.rules[0], pi1.rules)


def test_hcont_suppresses_subsumed_nonrecursive():
    # with rho1 = r(y) <- e(x,y) present, rho2 = r(y) <- e(x',x),e(x,y)
    # is subsumed and non-recursive, so hcont reports it as present
    p = parse_program("r(Y) :- e(X,Y).\nr(Y) :- r(X), e(X,Y).\n")
    pi = adorn_program(p, Id(), MembershipFn("hcont"))
    assert len(pi.rules) == 1


def split_recursive(rules):
    """(rules with an adorned body atom, rules without)."""
    recursive = [r for r in rules if any(a.adornment for a in r.body)]
    return recursive, [r for r in rules if r not in recursive]


def test_h_cont_admits_a_subsumed_rule_off_every_cycle():
    with pytest.raises(BudgetExceeded) as exc:
        adorn_program(parse_program(REACH_SRC), Id(), "heq", max_rules=1)
    (recursive,), (edb_only,) = split_recursive(exc.value.partial.rules)
    # r(Y) :- e(V0,Y), e(_,V0) is subsumed by r(Y) :- e(_,Y)
    assert h_cont(recursive, [edb_only])
    assert not h_eq(recursive, [edb_only])


def test_h_cont_rejects_a_rule_that_closes_a_cycle():
    pi = adorn_program(parse_program(TC_SRC), GOut(), "heq")
    (loop,) = [r for r in pi.rules
               if any(a.adornment == r.head.adornment for a in r.body)]
    others = [r for r in pi.rules if r is not loop]
    # its head adornment is an admitted one, but it depends on itself
    assert loop.head.adornment in {r.head.adornment for r in others}
    assert not h_cont(loop, others)


def test_membership_check_returns_a_bool():
    # on every path: the traced bench sums the verdicts of `check` into
    # its reject ratio, so another true value would skew the ratio
    with pytest.raises(BudgetExceeded) as exc:
        adorn_program(parse_program(REACH_SRC), Id(), "heq", max_rules=1)
    (recursive,), (edb_only,) = split_recursive(exc.value.partial.rules)
    pi = adorn_program(parse_program(TC_SRC), GOut(), "heq")
    (loop,) = [r for r in pi.rules
               if any(a.adornment == r.head.adornment for a in r.body)]
    cases = [("heq", edb_only, [edb_only], True),
             ("heq", recursive, [edb_only], False),
             ("hcont", edb_only, [edb_only], True),  # pooled
             ("hcont", recursive, [edb_only], True),  # subsumed
             ("hcont", edb_only, [recursive], False),
             ("hcont", loop, [r for r in pi.rules if r is not loop], False)]
    for name, r, rules, rejected in cases:
        verdict = MembershipFn(name).check(r, _Admitted(rules))
        assert type(verdict) is bool and verdict == rejected, (name, r)


def test_membership_matches_the_key_first_check(monkeypatch):
    # an hcont candidate whose head adornment is pooled and which closes
    # no cycle is rejected without its canonical form; every verdict of
    # the hcont runs equals the key-first check's, and every adornment's
    # profile, read off its key, equals its representative's
    check = MembershipFn.check
    counts = {"pooled": 0, True: 0, False: 0}
    heads: dict = {}

    def both(self, r, admitted):
        expected = reference_check(self, r, admitted)
        if r.head.adornment in admitted.graph.edges and \
                not admitted.graph.closes_cycle(r):
            counts["pooled"] += 1
        verdict = check(self, r, admitted)
        assert type(verdict) is bool and verdict == expected, format_rule(r)
        counts[verdict] += 1
        heads.setdefault(r.head.adornment.key, r.head.adornment)
        return verdict

    monkeypatch.setattr(MembershipFn, "check", both)
    for i, p in enumerate(random_programs(7, 400)):
        for g in ("id", "gout", "gk=2", "gmin"):
            if i == 363 and g == "id":
                continue  # the hang program: its subsumption joins stall
            try:
                adorn_program(p, g, "hcont", max_rules=7)
            except BudgetExceeded:
                pass
    assert counts["pooled"] > 250 and counts[True] > 800, counts
    assert counts[False] > 3000, counts
    for adn in heads.values():
        assert adn.profile == rule_profile(adn.rule), adn
    assert len(heads) > 1000, len(heads)


def test_an_engine_run_holds_one_adornment_per_key(monkeypatch):
    # nonlinear TC under Id repeats adornments: each is one object, its
    # representative built once however often it is read
    built = []
    rule_of_key = adorn.rule_of_key

    def counted(key):
        built.append(key)
        return rule_of_key(key)

    monkeypatch.setattr(adorn, "rule_of_key", counted)
    src = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), tc(Z,Y).\n"
    with pytest.raises(BudgetExceeded) as exc:
        adorn_program(parse_program(src), Id(), "heq", max_rules=12)
    pi = exc.value.partial
    pools = pi.adornment_map()
    for r in pi.rules:
        for a in (r.head, *r.body):
            if a.adornment is not None:
                pool = pools[a.pred]
                assert a.adornment is pool[pool.index(a.adornment)]
                assert a.adornment.profile == rule_profile(a.adornment.rule)
    pi.pretty()
    assert len(built) == len(set(built)) == len(pools["tc"]) > 3


def test_build_matches_the_rule_based_build(monkeypatch):
    # candidate for candidate, over the goldens' corpus and 150 more
    # random programs, the pair build gives the adorned rule that
    # unfolding tagged representatives into Rules gives, and leaves the
    # run with the same relaxation
    build = _Engine.build
    counts = {"built": 0, "failed": 0}

    def both(self, rule, idb_atoms, edb_atoms, combo):
        expected, g = reference_build(self.g, rule, idb_atoms, edb_atoms,
                                      combo)
        got = build(self, rule, idb_atoms, edb_atoms, combo)
        assert got == expected and type(self.g) is type(g), format_rule(rule)
        counts["built" if got else "failed"] += 1
        return got

    monkeypatch.setattr(_Engine, "build", both)
    for _ in adorn_every_way([*golden_corpus(), *random_programs(7, 150)]):
        pass
    assert counts["built"] > 2000 and counts["failed"] > 100, counts


def test_relaxations_match_the_rule_based_ones():
    rules = [r for p in random_programs(23, 60) for r in p.rules]
    rules += [rule("q(X) :- e(X,A), e(X,B), e(X,C)."),
              rule("q(X,Y) :- e(X,X,Y), e(Y,A,X), e(A,A,A)."),
              Rule(Atom("q", (Var("X"),)), (Atom("f", (Var("X"),)),
                                            Atom("g", ()))),
              rule("p(X,Y,Z) :- e(X,Y,U), e(X,Z,V), e(Y,Z,W).")]
    for r in rules:
        for g in (Id(), GOut(), GK(2), GMin()):
            assert relax(g, r) == reference_relax(g, r), (g, r)
            assert Adornment.of(g.apply(r)) == relax(g, r)


def test_gout_keeps_the_pairwise_kept_patterns():
    # comparing distinct patterns with a wildcard only keeps the same
    # list, duplicates and order included
    rng = random.Random(3)
    names = ["X", "Y", "Z", None, None]
    for _ in range(3000):
        pats = [(("p", rng.choice("ef")), tuple(rng.choice(names) for _ in
                                               range(2)))
                for _ in range(rng.randint(0, 8))]
        pats += [(("p", "g"), ())] * rng.randint(0, 1)
        assert list(adorn._gout(pats)) == reference_gout_kept(pats), pats
    n = 300
    chain = [(("p", "e"), ("X0" if i == 0 else None,
                           f"X{n}" if i == n - 1 else None))
             for i in range(n)]
    wide = [(("p", "e"), (f"X{i}", f"X{i + 1}")) for i in range(n)]
    for pats in (chain, wide):
        assert list(adorn._gout(pats)) == reference_gout_kept(pats)


def test_the_relaxation_lookup_holds_the_head_predicate():
    # equal head terms and kept patterns under two head predicates are
    # two adornments, each of its own base
    p = parse_program("p(X) :- e(X,Y), e(Y,X).\nq(X) :- e(X,Y), e(Y,X).\n")
    for g in ("gout", "gmin"):
        pi = adorn_program(p, g)
        assert [r.head.adornment.base for r in pi.rules] == ["p", "q"]
    lookup: dict = {}
    adns = [relax(GOut(), r, lookup) for r in p.rules]
    assert [a.base for a in adns] == ["p", "q"] and len(lookup) == 2


@pytest.mark.parametrize("g", ["gout", "gmin"])
@pytest.mark.parametrize("h", ["heq", "hcont"])
def test_a_run_keys_each_distinct_relaxation_once(monkeypatch, g, h):
    # over the goldens' corpus: one canonical key per distinct lookup key
    # (head predicate, head terms, kept patterns), one per GMin input,
    # and one per rule whose canonical form membership or admission
    # reads; the other relaxations are found in the lookup
    keyed, relaxed, read = [], [], {}
    canonical_key, key_of = unify.canonical_key, _Admitted.key_of

    def count_keys(*args):
        keyed.append(args)
        return canonical_key(*args)

    def count_relax(f, candidate, lookup=None):
        relaxed.append(candidate)
        return relax(f, candidate, lookup)

    def count_reads(self, r):
        read[id(r)] = r
        return key_of(self, r)

    monkeypatch.setattr(unify, "canonical_key", count_keys)
    monkeypatch.setattr(adorn, "relax", count_relax)
    monkeypatch.setattr(_Admitted, "key_of", count_reads)
    repeats = 0
    for p in golden_corpus():
        keyed.clear(), relaxed.clear(), read.clear()
        engine = _Engine(p, make_relaxation(g), MembershipFn(h),
                         max_iterations=1000, max_rules=7)
        try:
            engine.run()
        except BudgetExceeded:
            pass
        inputs = len(relaxed) if g == "gmin" else 0
        assert len(keyed) == len(engine.relaxed) + inputs + len(read)
        repeats += len(relaxed) - len(engine.relaxed)
    assert repeats >= 10, repeats


# ---------------------------------------------------------------------------
# the fixpoint engine


def test_tc_three_rules():
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    assert len(pi.rules) == 3
    assert len(adornments_of(pi, "tc")) == 2
    keys = {r.head.adornment.key for r in pi.rules}
    assert keys == {adn_key("tc(X,Y) :- e(X,Y)."),
                    adn_key("tc(X,Y) :- e(X,A), e(B,Y).")}


def test_tc_fixpoint_stable():
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    assert fixpoint_stable(pi, GOut(), MembershipFn("heq"))


def test_partial_program_is_not_fixpoint_stable():
    with pytest.raises(BudgetExceeded) as exc:
        adorn_program(parse_program(TC_SRC), Id(), "heq", max_rules=3)
    assert not fixpoint_stable(exc.value.partial, Id(), MembershipFn("heq"))


def test_adorned_pretty_golden():
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    assert "tc[tc(X,Y) :- e(X,_), e(_,Y)](X,Y)" in pi.pretty()


def test_simultaneous_unifier_dedup():
    # q(c,c,c) <- e(c,_) after body dedup of two identical atoms
    p = parse_program("q(X,X,X) :- e(X,A), e(X,B).")
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    assert len(pi.rules) == 1
    assert pi.rules[0].head.adornment.key == adn_key("q(X,X,X) :- e(X,W).")


def test_rule_order_determinism():
    rng = random.Random(3)
    for p in random_programs(31, 20):
        pi1 = adorn_program(p, GOut(), MembershipFn("heq"))
        shuffled = list(p.rules)
        rng.shuffle(shuffled)
        p2 = type(p).from_rules(tuple(shuffled))
        pi2 = adorn_program(p2, GOut(), MembershipFn("heq"))
        assert [canonical_form(r) for r in pi1.rules] == \
            [canonical_form(r) for r in pi2.rules]


def test_budget_exceeded_carries_partial():
    p = parse_program(TC_SRC)
    with pytest.raises(BudgetExceeded) as exc:
        adorn_program(p, Id(), MembershipFn("heq"), max_rules=5,
                      max_iterations=50)
    assert exc.value.partial is not None
    assert len(exc.value.partial.rules) >= 1


def test_adorned_rules_sorted_deterministically():
    p = parse_program(TC_SRC)
    a = adorn_program(p, GOut(), MembershipFn("heq")).pretty()
    b = adorn_program(p, GOut(), MembershipFn("heq")).pretty()
    assert a == b


def test_format_adorned_rule_parses_back_as_plain():
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    for r in pi.rules:
        line = format_rule(r)
        assert line.endswith(".")
        assert ":-" in line


def head_pattern(terms) -> tuple:
    """Head terms up to renaming: variables numbered by first occurrence."""
    labels: dict = {}
    return tuple(labels.setdefault(t.name, len(labels))
                 if isinstance(t, Var) else t for t in terms)


def engine_runs(seed, count):
    """(program, adorned or partial program, finished) for each random
    program under every relaxation and membership; Id is capped at 7
    rules, as canonical labelling grows steep above that."""
    for p in random_programs(seed, count):
        for g in ("id", "gout", "gmin", "gk=2"):
            for h in ("heq", "hcont"):
                try:
                    pi = adorn_program(p, g, h,
                                       max_rules=7 if g == "id" else 10000)
                    yield p, pi, True
                except BudgetExceeded as exc:
                    yield p, exc.partial, False


def sorted_and_grouped(pi) -> dict:
    """Base predicate -> distinct head adornments sorted by key, grouped
    after one sort, as the pools were once built apart from the graph."""
    out: dict = {}
    for adn in sorted({r.head.adornment for r in pi.rules},
                      key=attrgetter("key")):
        out.setdefault(adn.base, []).append(adn)
    return out


def test_admitted_heads_have_their_representatives_pattern():
    # what lets a candidate be its adornment alone; the graph's pools
    # of each finished or partial program match a sort-and-group
    count = 0
    for _, pi, _ in engine_runs(43, 40):
        for r in pi.rules:
            assert head_pattern(r.head.terms) == \
                head_pattern(r.head.adornment.rule.head.terms), r
            count += 1
        assert pi.adornment_map() == sorted_and_grouped(pi)
    assert count > 1000


def test_engine_builds_each_combination_once(monkeypatch):
    built = []
    build = _Engine.build

    def recording(self, rule, idb_atoms, edb_atoms, combo):
        built.append((id(rule), combo))
        return build(self, rule, idb_atoms, edb_atoms, combo)

    monkeypatch.setattr(_Engine, "build", recording)
    finished = 0
    for p, pi, done in engine_runs(43, 40):
        assert len(set(built)) == len(built)
        if done:
            # the last sweep admitted nothing: its pools are the final ones
            pools = pi.adornment_map()
            for rule in p.rules:
                idb_atoms = classify_rule_atoms(rule, p)[0]
                combos = product(*(pools.get(a.pred, ()) for a in idb_atoms))
                assert {(id(rule), c) for c in combos} <= set(built), rule
            finished += 1
        built.clear()
    assert finished > 300


@dataclass(frozen=True)
class StandIn:
    """A stand-in adornment: hashable, and ordered by its key."""
    key: int


def graph_rules(edges, nodes):
    """Stand-in adorned rules whose dependency graph is `edges`: one rule
    per node, with one adorned body atom per successor."""
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    return [SimpleNamespace(
        head=Atom("p", (), adornment=StandIn(u)),
        body=tuple(Atom("p", (), adornment=StandIn(v))
                   for v in succ.get(u, ())))
        for u in nodes]


def closure(edges) -> set:
    """The transitive closure of a set of edges."""
    reach = set(edges)
    while True:
        more = {(a, d) for a, b in reach for c, d in reach if b == c}
        if more <= reach:
            return reach
        reach |= more


def test_dependency_cycle_matches_reachability():
    rng = random.Random(13)
    for _ in range(300):
        nodes = list(range(rng.randint(1, 7)))
        edges = {(rng.choice(nodes), rng.choice(nodes))
                 for _ in range(rng.randint(0, 9))}
        reach = closure(edges)
        rules = graph_rules(edges, nodes)
        assert _Graph(rules).cyclic() == any((v, v) in reach for v in nodes)
        # peeling drops exactly the nodes that reach no cycle, each after
        # every node it depends on
        order = [adn.key for adn in _Graph(rules).peel()]
        assert sorted(order) == [u for u in nodes if not any(
            (v, v) in reach for v in nodes if v == u or (u, v) in reach)]
        assert all(order.index(b) < order.index(a)
                   for a, b in edges if a in order)


def test_closes_cycle_matches_the_whole_walk(monkeypatch):
    # a head adornment that no admitted rule's body holds closes a cycle
    # only through r's own body; the walk is skipped then
    closes_cycle = _Graph.closes_cycle
    counts: dict = {}  # (walk skipped, answer) -> how often

    def both(self, r):
        answer = closes_cycle(self, r)
        assert answer == reference_closes_cycle(self, r), format_rule(r)
        case = r.head.adornment not in self.in_bodies, answer
        counts[case] = counts.get(case, 0) + 1
        return answer

    monkeypatch.setattr(_Graph, "closes_cycle", both)
    for _ in adorn_every_way(golden_corpus()):
        pass
    assert counts[True, False] > 100 and counts[True, True] > 10, counts
    assert counts.get((False, True)), counts
    # on any graph, also one whose bodies hold adornments that head no
    # rule, as an engine run's never do: r closes a cycle exactly when
    # its head reaches itself once r's edges are added
    rng = random.Random(5)
    walked = 0
    for _ in range(500):
        nodes = range(rng.randint(1, 6))
        edges = {(rng.choice(nodes), rng.choice(nodes))
                 for _ in range(rng.randint(0, 8))}
        heads = rng.sample(nodes, rng.randint(1, len(nodes)))
        edges = {(a, b) for a, b in edges if a in heads}
        head = rng.choice(nodes)
        body = rng.sample(nodes, rng.randint(0, len(nodes)))
        graph = _Graph(graph_rules(edges, heads))
        r = SimpleNamespace(
            head=Atom("p", (), adornment=StandIn(head)),
            body=tuple(Atom("p", (), adornment=StandIn(v)) for v in body))
        assert closes_cycle(graph, r) == (
            (head, head) in closure(edges | {(head, v) for v in body}))
        walked += r.head.adornment in graph.in_bodies.difference(graph.edges)
    assert walked > 50


def test_dependency_cycle_on_a_long_chain():
    n = 5000
    edges = {(i, i + 1) for i in range(n)}
    assert not _Graph(graph_rules(edges, range(n + 1))).cyclic()
    edges.add((n, 0))
    rules = graph_rules(edges, range(n + 1))
    assert _Graph(rules).cyclic()


COUNT_UNSEEN = """
from dlbound import join
from conftest import adorn_every_way, golden_corpus
unseen, n = join._unseen, [0]
def counted(bindings, state):
    for b in unseen(bindings, state):
        n[0] += 1
        yield b
join._unseen = counted
for _ in adorn_every_way(golden_corpus()):
    pass
print(n[0])
"""


def test_engine_work_does_not_depend_on_the_hash_seed():
    # `subsumes` stops at its first match, so it must read the frozen
    # atoms, and the cycle test the graph, in an order no hash seed picks;
    # count the bindings the join's seen-state filter lets through
    tests = Path(__file__).parent
    counts = set()
    for seed in ("0", "9"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep
               .join([str(tests.parent / "src"), str(tests)])}
        done = subprocess.run([sys.executable, "-c", COUNT_UNSEEN], env=env,
                              capture_output=True, text=True, check=True)
        counts.add(int(done.stdout))
    assert len(counts) == 1 and min(counts) > 50, counts


def test_hcont_reused_across_runs_is_pure():
    # a check keeps nothing, neither on the caller's object nor between runs
    def run(h, src):
        try:
            return adorn_program(parse_program(src), Id(), h,
                                 max_rules=25).pretty()
        except BudgetExceeded as exc:
            return exc.partial.pretty()

    reach = "r(Y) :- e(X,Y).\nr(Y) :- r(X), e(X,Y).\n"
    h = MembershipFn("hcont")
    assert run(h, TC_SRC) == run(MembershipFn("hcont"), TC_SRC)
    assert run(h, reach) == run(MembershipFn("hcont"), reach)
    assert vars(h) == {"name": "hcont"}


@pytest.mark.parametrize("membership", ["heq", "hcont"])
def test_shared_relaxation_and_membership_across_threads(membership):
    # one GK and one MembershipFn, used by several runs at once, give
    # what fresh objects give one run at a time
    programs = list(random_programs(43, 40))

    def adorn_all(g, h):
        return [adorn_program(p, g, h).pretty() for p in programs]

    fresh = adorn_all(GK(2), MembershipFn(membership))
    g, h = GK(2), MembershipFn(membership)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the runs finely
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(lambda _: adorn_all(g, h), range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert runs == [fresh] * 4
