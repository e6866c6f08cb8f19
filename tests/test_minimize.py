"""Adornment minimization."""

import random
from fractions import Fraction

from dlbound import (
    Adornment, GOut, MembershipFn, adorn_program, coeff_minimal, evaluate,
    minimize_program, parse_program, union_adorned, width_of_predicate,
)
from dlbound.core import Const
from dlbound.sizebound import SchemaStats

from conftest import (
    TRIANGLE_SRC, is_minimal, naive_oracle, random_edb, random_programs,
)


def adn_key(text):
    return Adornment.of(parse_program(text).rules[0]).key


def triangle_pi():
    return adorn_program(parse_program(TRIANGLE_SRC), GOut(),
                         MembershipFn("heq"))


def test_triangle_minimizes_to_two_atom_adornment():
    mini = minimize_program(triangle_pi())
    keys = {r.head.adornment.key for r in mini.rules}
    assert keys == {
        adn_key("p(X,Y,Z) :- e(X,Y,U), e(A,Z,B)."),
        adn_key("q(X,Y) :- e(X,Y,U)."),
    }


def test_minimization_width_change():
    pi = triangle_pi()
    assert width_of_predicate(pi, "p", "integral") == 2
    assert width_of_predicate(pi, "p", "fractional") == Fraction(3, 2)
    mini = minimize_program(pi)
    assert width_of_predicate(mini, "p", "integral") == 2
    assert width_of_predicate(mini, "p", "fractional") == 2


def test_is_minimal():
    pi = triangle_pi()
    assert not is_minimal(pi)
    assert is_minimal(minimize_program(pi))


def test_minimize_idempotent_triangle():
    once = minimize_program(triangle_pi())
    twice = minimize_program(once)
    assert once.pretty() == twice.pretty()


def test_minimize_preserves_semantics():
    rng = random.Random(41)
    p = parse_program(TRIANGLE_SRC)
    pi = triangle_pi()
    mini = minimize_program(pi)
    for _ in range(8):
        d = random_edb(p, rng)
        want = naive_oracle(p, d)
        for q in p.idb:
            assert union_adorned(evaluate(mini, d), q) == want[q]


def test_corpus_properties():
    rng = random.Random(43)
    for p in random_programs(71, 40):
        try:
            pi = adorn_program(p, GOut(), MembershipFn("heq"))
        except Exception:
            continue
        mini = minimize_program(pi)
        assert is_minimal(mini)
        # idempotence
        assert minimize_program(mini).pretty() == mini.pretty()
        amap = mini.adornment_map()
        for q in sorted(p.idb):
            if not amap.get(q):
                continue
            # integral width invariance
            assert width_of_predicate(mini, q, "integral") == \
                width_of_predicate(pi, q, "integral")
            # adornment count bounded by the minimal-coefficient formula;
            # the partition-counting argument needs variable-only heads
            st = SchemaStats.of(p, q)
            ew = int(width_of_predicate(mini, q, "integral"))
            var_heads = all(
                not any(isinstance(t, Const) for t in a.rule.head.terms)
                for a in amap[q])
            if ew >= 1 and st.arq >= 1 and var_heads:
                assert len(amap[q]) <= coeff_minimal(st, ew)
        # semantics preserved; predicates the rewriting proved underivable
        # must also be empty under the oracle
        d = random_edb(p, rng)
        want = naive_oracle(p, d)
        res = evaluate(mini, d)
        for q in p.idb:
            if amap.get(q):
                assert union_adorned(res, q) == want[q]
            else:
                assert want[q] == frozenset()
