"""Combinatorics helpers and output-size bound formulas."""

import random
from fractions import Fraction

import pytest

from dlbound import (
    GOut, MembershipFn, SchemaStats, adorn_program, bound1, bound2,
    coeff_minimal, coeff_naive, parse_program, pow_ceil, size_report,
)
from dlbound.sizebound import iroot

from conftest import (
    TC_SRC, brute_permutations, brute_stirling, permutations, stirling2,
)


def test_stirling_goldens():
    assert stirling2(3, 1) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(5, 3) == 25


def test_stirling_brute_force():
    for n in range(0, 9):
        for k in range(0, n + 2):
            assert stirling2(n, k) == brute_stirling(n, k), (n, k)


def test_stirling_negative_raises():
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        stirling2(2, -1)


def test_permutations_goldens():
    assert permutations(3, 2) == 6
    assert permutations(2, 1) == 2
    assert permutations(4, 5) == 0


def test_permutations_brute_force():
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert permutations(n, k) == brute_permutations(n, k)


def test_pow_ceil_exact_and_fractional():
    assert pow_ceil(4, Fraction(3, 2)) == 8
    assert pow_ceil(2, Fraction(3, 2)) == 3  # ceil(2.828...)
    assert pow_ceil(9, Fraction(1, 2)) == 3
    assert pow_ceil(5, Fraction(2)) == 25


def test_iroot():
    assert iroot(27, 3) == 3
    assert iroot(26, 3) == 2
    assert iroot(1, 5) == 1


def test_iroot_brackets_random_big_ints():
    rng = random.Random(41)
    for _ in range(3000):
        x = rng.getrandbits(rng.randint(1, 900))
        k = rng.randint(1, 7)
        r = iroot(x, k)
        assert r ** k <= x < (r + 1) ** k, (x, k)
    for k in (2, 3, 5):
        for r in (2 ** 60 + 1, 10 ** 120 + 7):
            assert iroot(r ** k, k) == r
            assert iroot(r ** k - 1, k) == r - 1


def test_pow_ceil_past_float_range():
    assert pow_ceil(10 ** 200, Fraction(3, 2)) == 10 ** 300
    n = 10 ** 249 + 3
    r = pow_ceil(n, Fraction(3, 2))
    assert (r - 1) ** 2 < n ** 3 <= r ** 2


CHAIN_STATS = SchemaStats(num_edbs=1, ear=2, arq=3, rule_count=1, term_count=1)


def test_bound1_goldens():
    assert bound1(CHAIN_STATS, 2, 2) == 64
    assert bound1(CHAIN_STATS, 2, 3) == 168


def test_bound2_goldens():
    assert bound2(CHAIN_STATS, 2, 2) == 864
    assert bound2(CHAIN_STATS, 2, 3) == 1944


def test_bound1_requires_integral_width():
    with pytest.raises((TypeError, ValueError)):
        bound1(CHAIN_STATS, Fraction(3, 2), 2)


def test_bound1_le_bound2_random_grid():
    rng = random.Random(99)
    for _ in range(1000):
        st = SchemaStats(num_edbs=rng.randint(1, 3), ear=rng.randint(1, 3),
                         arq=rng.randint(1, 4), rule_count=rng.randint(1, 4),
                         term_count=rng.randint(1, 12))
        ew = rng.randint(1, st.arq)
        n = rng.randint(1, 5)
        assert bound1(st, ew, n) <= bound2(st, ew, n), (st, ew, n)


def per_k_sum(st, ew, w):
    """The sum bound1 and coeff_minimal are defined by, one stirling2
    call per k: ear ** arq · Σ_{k=1..ew} S(arq, k) · w(k)."""
    return sum(stirling2(st.arq, k) * w(k) * st.ear ** st.arq
               for k in range(1, ew + 1))


def test_bound1_and_coeff_minimal_match_the_per_k_sum():
    # the sums read one Stirling row and stop past 4,300 digits, where
    # they are None; the large arities and EDB arities cross that limit
    rng = random.Random(23)
    capped = 0
    for _ in range(400):
        big = rng.random() < 0.1
        st = SchemaStats(num_edbs=rng.randint(0, 4),
                         ear=rng.randint(0, 1000 if big else 4),
                         arq=rng.randint(0, 1600 if big else 12),
                         rule_count=1, term_count=rng.randint(1, 20))
        ew = rng.randint(1, 3 if big else 14)
        n = rng.randint(0, 10 ** rng.randint(0, 900 if big else 2))
        for got, want in (
                (bound1(st, ew, n), per_k_sum(
                    st, ew, lambda k: permutations(st.num_edbs * n, k))),
                (coeff_minimal(st, ew), per_k_sum(
                    st, ew, lambda k: st.num_edbs ** k))):
            if want >= 10 ** 4300:
                assert got is None
                capped += 1
            else:
                assert got == want, (st, ew, n)
    assert capped >= 5


def test_coeff_goldens():
    # one binary EDB, one rule with two terms, binary IDB
    st = SchemaStats(num_edbs=1, ear=2, arq=2, rule_count=1, term_count=2)
    assert coeff_minimal(st, 2) == stirling2(2, 1) * 1 * 4 + \
        stirling2(2, 2) * 1 * 4
    # triangle schema: arq=3, ear=3, one EDB
    st2 = SchemaStats(num_edbs=1, ear=3, arq=3, rule_count=1, term_count=1)
    assert coeff_minimal(st2, 2) == 108


def test_coeff_minimal_le_naive_cap():
    st = SchemaStats(num_edbs=2, ear=3, arq=3, rule_count=2, term_count=5)
    assert coeff_minimal(st, 3) <= (st.num_edbs * st.ear * st.arq) ** st.arq


def test_size_report_tc():
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    rep = size_report(pi, 2)
    pb = rep.for_predicate("tc")
    assert pb.f_exact == 2
    assert pb.ew_integral == 2
    assert pb.ew_fractional == 2
    assert pb.bound1 == bound1(SchemaStats.of(p, "tc"), 2, 2)
    assert pb.fpt_bound == pb.f_exact * 2 ** 2
    d = rep.to_json_dict()
    assert d["n"] == 2
    assert d["predicates"][0]["predicate"] == "tc"


def test_size_report_respects_actual_counts():
    # evaluator result can never exceed bound1 or bound2
    from dlbound import evaluate, parse_edb, union_adorned
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    d = parse_edb("e(1,2). e(2,3).")
    rep = size_report(pi, 2)
    pb = rep.for_predicate("tc")
    got = len(union_adorned(evaluate(pi, d), "tc"))
    assert got <= pb.bound1 <= pb.bound2
