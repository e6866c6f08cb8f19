"""Top-level acceptance suite: one test per deliverable guarantee.

Each test exercises a complete scenario end to end, so a single pass/fail
line per guarantee shows up in verbose runs.
"""

import random
import time
from fractions import Fraction
from itertools import product

from dlbound import (
    ADORNMENT_GROUNDABLE, Adornment, Degraded, GOut, Inconclusive, LINEAR,
    MembershipFn, NonRecursive, SIMPLE_CHAIN, SchemaStats, adorn_program,
    bound1, bound2, check_boundedness, check_rule_bounded, classify_program,
    coeff_minimal, evaluate, horn_ground_evaluate, minimize_program,
    parse_program, union_adorned, value_cover_ok, width_of_predicate,
)
from dlbound.core import Const

from conftest import (
    BUYS_SRC, REACH_SRC, TC_SRC, TRIANGLE_SRC, UNBOUNDED_SRC,
    brute_permutations, brute_stirling, generate_tightness_instance,
    permutations, random_edb, random_programs, stirling2, tightness_bound,
)


def adn_key(text):
    return Adornment.of(parse_program(text).rules[0]).key


def corpus(seed=2024, count=200):
    return random_programs(seed, count)


def test_acceptance_1_tc_golden_adornment():
    t0 = time.perf_counter()
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    assert len(pi.rules) == 3
    keys = {r.head.adornment.key for r in pi.rules}
    assert keys == {
        adn_key("tc(X,Y) :- e(X,Y)."),
        adn_key("tc(X,Y) :- e(X,W), e(U,Y)."),
    }
    base = [r for r in pi.rules if len(r.body) == 1]
    assert len(base) == 1
    assert width_of_predicate(pi, "tc", "integral") == 2
    assert width_of_predicate(pi, "tc", "fractional") == 2
    from dlbound import size_report
    assert size_report(pi, 2).for_predicate("tc").f_exact == 2
    assert time.perf_counter() - t0 < 1.0


def test_acceptance_2_adorned_union_equals_plain_on_corpus():
    t0 = time.perf_counter()
    rng = random.Random(7)
    failures = 0
    for p in corpus():
        pi = adorn_program(p, GOut(), MembershipFn("heq"))
        amap = pi.adornment_map()
        for _ in range(5):
            d = random_edb(p, rng)
            plain = evaluate(p, d)
            adorned = evaluate(pi, d)
            for q in p.idb:
                want = plain.get(q)
                got = union_adorned(adorned, q) if amap.get(q) \
                    else frozenset()
                if want != got:
                    failures += 1
    assert failures == 0
    assert time.perf_counter() - t0 < 60.0


def _covered(t, adornments, d, k):
    # a tuple needs covering only at the positions its deriving adornment
    # leaves variable; try every adornment of the predicate
    for a in adornments:
        vals = []
        for term, v in zip(a.rule.head.terms, t):
            if isinstance(term, Const):
                if term.value != v:
                    break
            else:
                vals.append(v)
        else:
            if value_cover_ok(vals, d, k):
                return True
    return False


def test_acceptance_3_rule_boundedness_and_value_cover_on_corpus():
    rng = random.Random(11)
    violations = 0
    for p in corpus():
        pi = adorn_program(p, GOut(), MembershipFn("heq"))
        amap = pi.adornment_map()
        d = random_edb(p, rng)
        violations += len(check_rule_bounded(pi, d).violations)
        plain = evaluate(p, d)
        for q in p.idb:
            if not amap.get(q):
                continue
            k = int(width_of_predicate(pi, q, "integral"))
            if k < 1:
                continue
            for t in plain.get(q):
                if not _covered(t, amap[q], d, k):
                    violations += 1
    assert violations == 0


def test_acceptance_4_size_bound_tightness():
    st = SchemaStats(num_edbs=1, ear=2, arq=3, rule_count=1, term_count=1)
    assert bound1(st, 2, 2) == 64
    assert bound1(st, 2, 3) == 168
    assert bound2(st, 2, 2) == 864
    assert bound2(st, 2, 3) == 1944
    for n, want in ((2, 64), (3, 168)):
        prog, d = generate_tightness_instance(2, 3, 2, 1, n)
        count = len(evaluate(prog, d).get("q"))
        assert count == want
        assert count <= bound2(st, 2, n)
    for omega, mu, nu, m, n in product(
            range(1, 4), range(1, 4), range(1, 4), range(1, 3), range(1, 4)):
        try:
            prog, d = generate_tightness_instance(omega, mu, nu, m, n,
                                                  rule_cap=50_000)
        except ValueError:
            continue
        assert len(evaluate(prog, d).get("q")) == \
            tightness_bound(omega, mu, nu, m, n), (omega, mu, nu, m, n)


def test_acceptance_5_boundedness_outcomes():
    out = check_boundedness(parse_program(REACH_SRC))
    assert isinstance(out, NonRecursive) and len(out.program.rules) == 1

    out = check_boundedness(parse_program(BUYS_SRC))
    assert isinstance(out, NonRecursive) and len(out.program.rules) == 2

    out = check_boundedness(parse_program(UNBOUNDED_SRC), budget=2)
    assert isinstance(out, Degraded) and len(out.program.rules) == 4

    out = check_boundedness(parse_program(TC_SRC), max_rules=200,
                            max_sweeps=10_000)
    assert isinstance(out, Inconclusive)


def test_acceptance_6_minimization():
    pi = adorn_program(parse_program(TRIANGLE_SRC), GOut(),
                       MembershipFn("heq"))
    mini = minimize_program(pi)
    keys = {r.head.adornment.key for r in mini.rules}
    assert keys == {
        adn_key("p(X,Y,Z) :- e(X,Y,U), e(A,Z,B)."),
        adn_key("q(X,Y) :- e(X,Y,U)."),
    }
    assert width_of_predicate(pi, "p", "integral") == 2
    assert width_of_predicate(mini, "p", "integral") == 2
    assert width_of_predicate(pi, "p", "fractional") == Fraction(3, 2)
    assert width_of_predicate(mini, "p", "fractional") == 2

    for p in corpus(count=60):
        pi = adorn_program(p, GOut(), MembershipFn("heq"))
        mini = minimize_program(pi)
        assert minimize_program(mini).pretty() == mini.pretty()
        amap = mini.adornment_map()
        for q in sorted(p.idb):
            if not amap.get(q):
                continue
            st = SchemaStats.of(p, q)
            ew = width_of_predicate(mini, q, "integral")
            var_heads = all(
                not any(isinstance(t, Const) for t in a.rule.head.terms)
                for a in amap[q])
            if int(ew) == ew and ew >= 1 and st.arq >= 1 and var_heads:
                assert len(amap[q]) <= coeff_minimal(st, int(ew))


def test_acceptance_7_horn_grounding():
    assert classify_program(parse_program(TC_SRC)) == \
        {LINEAR, SIMPLE_CHAIN, ADORNMENT_GROUNDABLE}
    rng = random.Random(31)
    checked = 0
    for p in corpus(count=120):
        if ADORNMENT_GROUNDABLE not in classify_program(p):
            continue
        pi = adorn_program(p, GOut(), MembershipFn("heq"))
        amap = pi.adornment_map()
        d = random_edb(p, rng)
        got = horn_ground_evaluate(pi, d)
        want = evaluate(pi, d)
        for q in p.idb:
            if amap.get(q):
                assert union_adorned(got, q) == union_adorned(want, q)
        checked += 1
    assert checked >= 10


def test_acceptance_8_combinatorics():
    for n in range(0, 9):
        for k in range(0, n + 2):
            assert stirling2(n, k) == brute_stirling(n, k)
        for k in range(0, n + 1):
            assert permutations(n, k) == brute_permutations(n, k)
    rng = random.Random(4242)
    for _ in range(1000):
        st = SchemaStats(num_edbs=rng.randint(1, 3), ear=rng.randint(1, 3),
                         arq=rng.randint(1, 4), rule_count=rng.randint(1, 4),
                         term_count=rng.randint(1, 12))
        ew = rng.randint(1, st.arq)
        n = rng.randint(1, 5)
        assert bound1(st, ew, n) <= bound2(st, ew, n)
