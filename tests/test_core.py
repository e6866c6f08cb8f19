"""Parser, validation, printing, and the minimum-cover search."""

import random
from itertools import combinations

import pytest

from dlbound import (
    Atom, Const, ParseError, ValidationError, Var, parse_program,
    print_program,
)
from dlbound.core import classify_rule_atoms, format_rule, min_cover

from conftest import TC_SRC


def test_parse_tc():
    p = parse_program(TC_SRC)
    assert p.rule_count == 2
    assert p.idb == frozenset({"tc"})
    assert p.edb == frozenset({"e"})


def test_wildcard_becomes_fresh_variable():
    p = parse_program("q(X) :- e(X,_).")
    (r,) = p.rules
    wild = r.body[0].terms[1]
    assert isinstance(wild, Var)
    assert wild.name.startswith("_")
    assert r.body[0].terms[0] == Var("X")


def test_unsafe_rule_rejected():
    with pytest.raises(ValidationError, match="X"):
        parse_program("q(X) :- e(Y).")


def test_wildcard_in_head_rejected():
    with pytest.raises((ParseError, ValidationError)):
        parse_program("q(_) :- e(X).")


def test_arity_mismatch_rejected():
    with pytest.raises(ValidationError, match="e"):
        parse_program("q(X) :- e(X), e(X,X).")


def test_fact_rejected():
    with pytest.raises((ParseError, ValidationError)):
        parse_program("q(1).")


def test_empty_program_rejected():
    with pytest.raises((ParseError, ValidationError)):
        parse_program("% nothing here\n")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("q(X) :- e(X,).")
    assert exc.value.line >= 1 and exc.value.col >= 1


def test_comments_and_integers():
    p = parse_program("q(X) :- e(X, 7).  % seven\n")
    (r,) = p.rules
    assert r.body[0].terms[1] == Const(7)


def test_negative_integer_constant():
    p = parse_program("q(X) :- e(X, -3).")
    assert p.rules[0].body[0].terms[1] == Const(-3)


def test_print_round_trip():
    p = parse_program(TC_SRC)
    p2 = parse_program(print_program(p))
    assert print_program(p2) == print_program(p)
    assert p2.idb == p.idb and p2.edb == p.edb


def test_wildcard_round_trip():
    p = parse_program("q(X) :- e(X,_), f(_,X).")
    text = print_program(p)
    assert "_" in text
    p2 = parse_program(text)
    assert print_program(p2) == text


def test_classify_rule_atoms():
    p = parse_program(TC_SRC)
    idb, edb = classify_rule_atoms(p.rules[1], p)
    assert [a.pred for a in idb] == ["tc"]
    assert [a.pred for a in edb] == ["e"]


def test_classify_edb_only_body():
    p = parse_program(TC_SRC)
    idb, edb = classify_rule_atoms(p.rules[0], p)
    assert idb == [] and [a.pred for a in edb] == ["e"]


def test_classify_unknown_predicate():
    p = parse_program(TC_SRC)
    foreign = parse_program("q(X) :- zzz(X).").rules[0]
    with pytest.raises(ValidationError):
        classify_rule_atoms(foreign, p)


def test_safety_accessors():
    p = parse_program("q(X,Y) :- e(X,Z), f(Z,Y).")
    (r,) = p.rules
    assert set(r.head_vars()) == {"X", "Y"}
    assert set(r.body_vars()) == {"X", "Y", "Z"}
    assert r.var_occurrences()["Z"] == 2


def test_format_rule_terminator():
    r = parse_program("q(X) :- e(X,Y).").rules[0]
    assert format_rule(r).endswith(".")
    assert not format_rule(r, terminator="").endswith(".")


def test_atom_vars_order():
    a = Atom("e", (Var("X"), Const(1), Var("Y"), Var("X")))
    assert list(a.vars()) == ["X", "Y"]


def brute_first_cover(need, sets):
    """First subset of indices, in (size, index tuple) order, covering need."""
    for size in range(len(sets) + 1):
        for combo in combinations(range(len(sets)), size):
            if set(need) <= set().union(*(sets[i] for i in combo)):
                return combo
    return None


def test_min_cover_matches_brute_force():
    rng = random.Random(11)
    kinds = set()
    for _ in range(600):
        universe = range(rng.randint(0, 6))
        sets = [frozenset(x for x in universe if rng.random() < 0.35)
                for _ in range(rng.randint(0, 7))]
        if sets and rng.random() < 0.3:  # at most 8 sets with the copy
            sets.insert(rng.randrange(len(sets)), rng.choice(sets))
        need = {x for x in universe if rng.random() < 0.6}
        if rng.random() < 0.1:
            need.add(99)  # in no set
        expected = brute_first_cover(need, sets)
        kinds.add("empty need" if not need else
                  "uncoverable" if expected is None else "covered")
        if frozenset() in sets:
            kinds.add("empty set")
        if len(set(sets)) < len(sets):
            kinds.add("duplicate")
        assert min_cover(need, sets) == expected, (need, sets)
    assert kinds == {"empty need", "uncoverable", "covered", "empty set",
                     "duplicate"}
