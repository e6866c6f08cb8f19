"""Boundedness semi-decision and UCQ extraction."""

import random

import pytest

from dlbound import (
    Degraded, Inconclusive, NonRecursive, ValidationError, canonical_form,
    check_boundedness, cq_contained, evaluate, extract_ucq, parse_program,
)
from dlbound.core import Program, Rule

from conftest import (
    BUYS_SRC, REACH_SRC, TC_SRC, UNBOUNDED_SRC, naive_oracle, random_edb,
)


def rule(text):
    return parse_program(text).rules[0]


def test_cq_contained():
    c1 = rule("r(Y) :- e(X,Y), e(Y,Z).")
    c2 = rule("r(Y) :- e(X,Y).")
    assert cq_contained(c1, c2)       # adding atoms shrinks the result
    assert not cq_contained(c2, c1)


def test_cq_contained_wildcard_positions():
    c1 = rule("r(Y) :- e(Y,W).")
    c2 = rule("r(Y) :- e(W,Y).")
    assert not cq_contained(c1, c2)
    assert not cq_contained(c2, c1)


def test_reach_nonrecursive_single_rule():
    out = check_boundedness(parse_program(REACH_SRC))
    assert isinstance(out, NonRecursive)
    assert out.kind == "non-recursive"
    assert len(out.program.rules) == 1


def test_reach_ucq():
    out = check_boundedness(parse_program(REACH_SRC))
    (cq,) = extract_ucq(out, "r")
    assert canonical_form(cq) == canonical_form(rule("r(Y) :- e(X,Y)."))


def test_buys_nonrecursive_two_rules():
    out = check_boundedness(parse_program(BUYS_SRC))
    assert isinstance(out, NonRecursive)
    assert len(out.program.rules) == 2
    ucq = extract_ucq(out, "buys")
    keys = {canonical_form(c) for c in ucq}
    assert keys == {
        canonical_form(rule("buys(X,Y) :- likes(X,Y).")),
        canonical_form(rule("buys(X,Y) :- trendy(X), likes(W,Y).")),
    }


def test_ucq_semantics_match_original():
    rng = random.Random(13)
    p = parse_program(BUYS_SRC)
    out = check_boundedness(p)
    ucq = extract_ucq(out, "buys")
    for _ in range(10):
        d = random_edb(p, rng)
        want = naive_oracle(p, d)["buys"]
        ucq_prog_rules = tuple(ucq)
        got = set()
        for cq in ucq_prog_rules:
            single = Program.from_rules((cq,))
            got |= naive_oracle(single, d)["buys"]
        assert got == want


def test_unbounded_variant_degraded_four_rules():
    out = check_boundedness(parse_program(UNBOUNDED_SRC), budget=2)
    assert isinstance(out, Degraded)
    assert out.kind == "degraded"
    assert out.budget == 2
    assert len(out.program.rules) == 4


def test_tc_inconclusive_at_rule_cap():
    out = check_boundedness(parse_program(TC_SRC), max_rules=30,
                            max_sweeps=10_000)
    assert isinstance(out, Inconclusive)
    assert out.kind == "inconclusive"
    assert out.limit == "max-rules"
    assert out.partial is not None


def test_extract_ucq_requires_nonrecursive():
    out = check_boundedness(parse_program(UNBOUNDED_SRC), budget=2)
    with pytest.raises(ValidationError):
        extract_ucq(out, "r")


def test_extract_ucq_unknown_predicate():
    out = check_boundedness(parse_program(REACH_SRC))
    with pytest.raises(ValidationError):
        extract_ucq(out, "zzz")


def test_degraded_output_is_equivalent():
    p = parse_program(UNBOUNDED_SRC)
    out = check_boundedness(p, budget=2)
    rng = random.Random(29)
    from dlbound import union_adorned
    for _ in range(10):
        d = random_edb(p, rng)
        assert union_adorned(evaluate(out.program, d), "r") == \
            naive_oracle(p, d)["r"]


SAMEGEN_SRC = ("sg(X,Y) :- flat(X,Y).\n"
               "sg(X,Y) :- up(X,U), sg(U,V), down(V,Y).\n")


@pytest.mark.parametrize("src", [TC_SRC, SAMEGEN_SRC])
def test_distance_profiles_settle_chain_ladders_without_a_join(
        monkeypatch, src):
    # each unfolding is a longer chain between the head variables, which
    # no shorter chain maps into; the profiles alone must say so
    from dlbound import join
    calls = []
    exists = join._Join.exists
    monkeypatch.setattr(join._Join, "exists",
                        lambda self, *a: calls.append(1) or exists(self, *a))
    out = check_boundedness(parse_program(src), max_rules=40)
    assert isinstance(out, Inconclusive) and out.limit == "max-rules"
    assert calls == []


NONLINEAR_TC_SRC = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), tc(Z,Y).\n"


@pytest.mark.parametrize("src, cap", [
    (TC_SRC, 40), (SAMEGEN_SRC, 40), (NONLINEAR_TC_SRC, 30)],
    ids=["tc", "samegen", "nonlinear-tc"])
def test_hcont_tries_only_pooled_adornments_of_enough_reach(
        monkeypatch, src, cap):
    # a subsumer's head-to-head distances are at least its image's, so
    # a candidate is tried only against pooled adornments of at least
    # its reach; on these ladders each unfolding reaches further
    from dlbound import adorn
    calls = {"candidates": 0, "may_subsume": 0}
    check, may_subsume = adorn.MembershipFn.check, adorn.may_subsume

    def counted_check(self, r, admitted):
        calls["candidates"] += 1
        return check(self, r, admitted)

    def counted_may_subsume(p1, p2):
        calls["may_subsume"] += 1
        return may_subsume(p1, p2)

    monkeypatch.setattr(adorn.MembershipFn, "check", counted_check)
    monkeypatch.setattr(adorn, "may_subsume", counted_may_subsume)
    out = check_boundedness(parse_program(src), max_rules=cap)
    assert isinstance(out, Inconclusive) and out.limit == "max-rules"
    assert calls["candidates"] > cap
    assert calls["may_subsume"] <= calls["candidates"], calls
