"""Evaluation: semi-naive/naive fixpoints, adorned-union semantics,
rule boundedness, value covers, and the tightness-instance generator."""

import importlib
import random
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from dlbound import (
    ADORNMENT_GROUNDABLE, AdornedProgram, Adornment, Atom, BudgetExceeded,
    Const, EDBInstance, GMin, GOut, IDBResult, MembershipFn, ParseError, Rule,
    ValidationError, Var,
    adorn_program, check_rule_bounded, classify_program, eval_cq, evaluate,
    horn_ground_evaluate, parse_edb, parse_program, subsumes, union_adorned,
    value_cover_ok,
)
from dlbound.join import _Join, _Relation

from conftest import (
    TC_SRC, _parse_edb_tokens, corrupted_tc, generate_tightness_instance,
    naive_oracle, plain_value_cover_ok, random_edb, random_edb_text,
    random_programs, reference_check_rule_bounded, tightness_bound,
)


def test_parse_edb():
    d = parse_edb("e(1,2). e(2,3).  % facts\nf(7).")
    assert d.get("e") == frozenset({(1, 2), (2, 3)})
    assert d.get("f") == frozenset({(7,)})
    assert d.n == 2


def test_parse_edb_takes_ascii_digits_only():
    # e(\u0663) is not e(3), and a superscript two no integer
    for text, col in (("e(\u0663).", 3), ("e(1,\u00b2).", 5),
                      ("e(1).\ne(-\u0663).", 3)):
        with pytest.raises(ParseError) as exc:
            parse_edb(text)
        assert (exc.value.line, exc.value.col) == (text.count("\n") + 1, col)
    assert parse_edb("e(\u00e9t\u00e9,-3).").get("e") == \
        frozenset({("\u00e9t\u00e9", -3)})


def test_parse_edb_rejects_rules():
    with pytest.raises(Exception):
        parse_edb("e(X,Y) :- f(X,Y).")


def test_edb_mixed_arity_rejected():
    with pytest.raises(ValidationError):
        EDBInstance.of([("e", frozenset({(1,), (1, 2)}))])


def test_tc_closure():
    p = parse_program(TC_SRC)
    d = parse_edb("e(1,2). e(2,3).")
    assert evaluate(p, d).get("tc") == {(1, 2), (2, 3), (1, 3)}


def test_empty_edb_gives_empty_idb():
    p = parse_program(TC_SRC)
    d = EDBInstance.of([("e", frozenset())])
    assert evaluate(p, d).get("tc") == frozenset()


def test_naive_equals_seminaive():
    rng = random.Random(5)
    for p in random_programs(61, 25):
        d = random_edb(p, rng)
        a = evaluate(p, d, method="seminaive")
        b = evaluate(p, d, method="naive")
        for q in p.idb:
            assert a.get(q) == b.get(q)


def test_matches_independent_oracle():
    rng = random.Random(17)
    for p in random_programs(67, 30):
        d = random_edb(p, rng)
        got = evaluate(p, d)
        want = naive_oracle(p, d)
        for q in p.idb:
            assert got.get(q) == want[q], (p, q)


def test_adorned_union_equals_plain():
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    d = parse_edb("e(1,2). e(2,3). e(3,4). e(4,1).")
    assert union_adorned(evaluate(pi, d), "tc") == evaluate(p, d).get("tc")


def test_union_adorned_unknown_predicate():
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    with pytest.raises(Exception):
        union_adorned(evaluate(pi, parse_edb("e(1,2).")), "nope")


def test_eval_cq():
    r = parse_program("q(X,Y) :- e(X,Z), e(Z,Y).").rules[0]
    d = parse_edb("e(1,2). e(2,3).")
    assert eval_cq(r, d) == {(1, 3)}


def test_atom_of_another_arity_reads_its_relation_as_empty():
    d = parse_edb("e(1,2). f(3).")
    both = parse_program("q(X) :- e(X), f(X).").rules[0]
    assert eval_cq(both, d) == frozenset()
    assert eval_cq(parse_program("q(X) :- e(X).").rules[0], d) == frozenset()
    assert eval_cq(parse_program("q(X) :- f(X).").rules[0], d) == {(3,)}


def test_check_rule_bounded_clean():
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    d = parse_edb("e(1,2). e(2,3). e(3,1).")
    assert check_rule_bounded(pi, d).ok


def test_check_rule_bounded_detects_corruption():
    report = check_rule_bounded(corrupted_tc(), parse_edb("e(1,2). e(2,3)."))
    assert not report.ok
    assert any(v.tuple_value == (1, 3) for v in report.violations)


def test_check_rule_bounded_reports_mixed_int_and_symbol_tuples():
    d = parse_edb("e(1,a). e(a,2). e(b,3). e(3,c).")
    report = check_rule_bounded(corrupted_tc(), d)
    assert [v.tuple_value for v in report.violations] == [(1, 2), ("b", "c")]


# adornments with wildcards, constants and repeated head variables
_SHAPED_SRCS = [
    "p(X,X) :- e(X,Y), e(Y,Z).",
    "p(X,1) :- e(X,Y), e(Y,1).",
    "p(X,X) :- e(X,X).\np(X,Y) :- p(X,Z), e(Z,Y).",
    "p(X,2) :- e(X,2).\np(Y,2) :- p(X,2), e(X,Y).",
    "p(X,Y,X) :- e(X,Z), e(Z,Y).\np(X,Y,Z) :- p(X,Y,W), e(W,Z), e(Z,0).",
]


def _corrupt(pi: AdornedProgram, rng, narrow) -> AdornedProgram:
    """pi with some rules' head adornments swapped for another of their
    predicate's: one of pi's own or one of `narrow`."""
    pools = {q: [*adns] for q, adns in pi.adornment_map().items()}
    for adn in narrow:
        pools.setdefault(adn.base, []).append(adn)
    rules = []
    for r in pi.rules:
        if rng.random() < 0.5:
            adn = rng.choice(pools[r.head.pred])
            r = Rule(Atom(r.head.pred, r.head.terms, adornment=adn), r.body)
        rules.append(r)
    return AdornedProgram(rules=tuple(rules), source=pi.source)


def test_check_rule_bounded_matches_the_standalone_check():
    rng = random.Random(29)
    cases = [(corrupted_tc(), parse_edb(text)) for text in (
        "e(1,2). e(2,3).", "e(1,a). e(a,2). e(b,3). e(3,c).",
        "e(1,2). e(2,3). e(3,1).", "")]
    programs = [*random_programs(31, 120),
                *map(parse_program, _SHAPED_SRCS)]
    for p in programs:
        # an EDB-only rule is an adornment narrower than its relaxation
        narrow = [Adornment.of(r) for r in p.rules
                  if not any(a.pred in p.idb for a in r.body)]
        for g in (GOut(), GMin()):
            try:
                pi = adorn_program(p, g, MembershipFn("heq"), max_rules=200)
            except BudgetExceeded:
                continue
            for _ in range(2):
                d = random_edb(p, rng)
                cases += [(pi, d), (_corrupt(pi, rng, narrow), d)]
    shapes = Counter()
    for pi, d in cases:
        got = check_rule_bounded(pi, d)
        assert got == reference_check_rule_bounded(pi, d), (pi.pretty(), d)
        shapes["violations"] += bool(got.violations)
        for adn in {r.head.adornment for r in pi.rules}:
            head, body = adn.rule.head.terms, adn.rule.body
            names = [t.name for a in body for t in a.terms
                     if isinstance(t, Var)]
            shapes["wildcard"] += any(
                names.count(n) == 1 and Var(n) not in head for n in names)
            shapes["constant"] += any(isinstance(t, Const) for t in head)
            shapes["repeated"] += len(set(head)) < len(head)
    assert all(shapes[s] >= 20 for s in (
        "violations", "wildcard", "constant", "repeated")), shapes


def test_value_cover_ok_matches_the_plain_search():
    rng = random.Random(73)
    shapes = Counter()
    for _ in range(150):
        vals = [*range(rng.randint(1, 5)), "a", "b"][:rng.randint(1, 7)]
        d = EDBInstance.of({
            f"e{ar}": {tuple(rng.choice(vals) for _ in range(ar))
                       for _ in range(rng.randint(0, 5))}
            for ar in (1, 2, 3)})
        for _ in range(8):
            # 9 is in no tuple
            values = [rng.choice([*vals, 9]) for _ in range(rng.randint(0, 5))]
            for k in range(5):
                want = plain_value_cover_ok(values, d, k)
                assert value_cover_ok(values, d, k) == want, (values, d, k)
                shapes[len(set(values)) <= k, want] += 1
                shapes["k=0"] += k == 0
                shapes["empty"] += not values
                shapes["absent"] += 9 in values
    assert all(count >= 20 for count in shapes.values()), shapes
    assert len(shapes) == 7, shapes


def test_value_cover():
    d = parse_edb("e(1,2). e(2,3).")
    assert value_cover_ok((1, 2), d, 1)
    assert value_cover_ok((1, 3), d, 2)
    assert not value_cover_ok((1, 3), d, 1)
    assert not value_cover_ok((9, 9), d, 2)


def brute_force_value_cover(values, d, k) -> bool:
    """The check as first written: try every EDB tuple holding some
    still-uncovered value, over a pool rebuilt for every call."""
    pool = [set(row) for _, tuples in d.relations for row in tuples]

    def rec(remaining, depth):
        if not remaining:
            return True
        if depth == 0:
            return False
        v = next(iter(remaining))
        return any(rec(remaining - tup, depth - 1)
                   for tup in pool if v in tup)

    return rec(set(values), k)


def test_value_cover_matches_brute_force():
    rng = random.Random(61)
    verdicts = set()
    for _ in range(60):
        vals = range(rng.randint(2, 7))
        d = EDBInstance.of({
            f"e{ar}": {tuple(rng.choice(vals) for _ in range(ar))
                       for _ in range(rng.randint(0, 5))}
            for ar in (1, 2, 3)})
        for _ in range(10):
            values = [rng.choice(range(len(vals) + 1))
                      for _ in range(rng.randint(0, 4))]
            for k in range(4):
                want = brute_force_value_cover(values, d, k)
                assert value_cover_ok(values, d, k) == want
                verdicts.add(want)
    assert verdicts == {True, False}


def test_tightness_generator_goldens():
    for n, want in ((2, 64), (3, 168)):
        prog, d = generate_tightness_instance(2, 3, 2, 1, n)
        assert len(evaluate(prog, d).get("q")) == want
        assert tightness_bound(2, 3, 2, 1, n) == want


def test_tightness_generator_rule_cap():
    with pytest.raises(ValueError):
        generate_tightness_instance(3, 3, 3, 2, 3, rule_cap=10)


def test_tightness_instance_values_disjoint():
    _, d = generate_tightness_instance(1, 1, 2, 2, 2)
    seen = set()
    for name in ("e1", "e2"):
        for t in d.get(name):
            for v in t:
                assert v not in seen
                seen.add(v)


# ---------------------------------------------------------------------------
# Join kernel


def brute_join(body, rels):
    """All bindings of the body's variables that ground every atom in its
    relation: a plain nested loop over every combination of rows."""
    import itertools

    names = sorted({t.name for terms in body for t in terms
                    if isinstance(t, Var)})
    out = set()
    for rows in itertools.product(*rels):
        env = {}
        ok = True
        for terms, row in zip(body, rows):
            for t, v in zip(terms, row):
                if isinstance(t, Const):
                    ok = t.value == v
                else:
                    ok = env.setdefault(t.name, v) == v
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.add(tuple(env[n] for n in names))
    return names, out


def test_join_matches_brute_force():
    rng = random.Random(2026)
    cuts = random.Random(7)  # splits sources for `exists`, not drawing on rng
    shapes = {"constant": 0, "repeated": 0, "empty": 0, "disjoint": 0,
              "parts": 0}
    for _ in range(400):
        pool = [Var(f"V{i}") for i in range(rng.randint(1, 4))]
        body, rels = [], []
        for _ in range(rng.randint(1, 4)):
            arity = rng.randint(1, 3)
            terms = tuple(Const(rng.randint(0, 2)) if rng.random() < 0.2
                          else rng.choice(pool) for _ in range(arity))
            body.append(terms)
            rels.append(frozenset(
                tuple(rng.randint(0, 2) for _ in range(arity))
                for _ in range(rng.randint(0, 7))))
        names, want = brute_join(body, rels)
        join = _Join(body)
        get = join.getter(tuple(Var(n) for n in names))
        sources = [(_Relation(r),) for r in rels]
        got = {get(slots) for slots in join.run(sources)}
        assert got == want, body
        assert join.exists(sources) == bool(want), body
        split = []
        for r in map(list, rels):
            cut = cuts.randint(0, len(r))
            split.append((_Relation(set(r[:cut])), _Relation(set(r[cut:])))
                         if cuts.random() < 0.3 else (_Relation(set(r)),))
        assert join.exists(split) == bool(want), body
        shapes["parts"] += any(len(parts) > 1 for parts in split)
        var_sets = [{t.name for t in terms if isinstance(t, Var)}
                    for terms in body]
        shapes["constant"] += any(isinstance(t, Const)
                                  for terms in body for t in terms)
        shapes["repeated"] += any(len(s) < sum(isinstance(t, Var)
                                               for t in terms)
                                  for s, terms in zip(var_sets, body))
        shapes["empty"] += any(not r for r in rels)
        shapes["disjoint"] += any(
            not s & set().union(*(o for o in var_sets if o is not s))
            for s in var_sets if len(var_sets) > 1)
    assert all(count >= 20 for count in shapes.values()), shapes


def test_exists_state_holds_slots_read_further_on():
    # the step after e(X,Y) reads only Y, but X is read at the last step:
    # a failure under one X must not rule out another X with the same Y
    body = [(Var("X"), Var("Y")), (Var("Y"), Var("Z")), (Var("Z"), Var("X"))]
    for x in (1, 2):
        rels = [{(1, 5), (2, 5)}, {(5, 6)}, {(6, x)}]
        assert _Join(body).exists([(_Relation(r),) for r in rels])
    assert not _Join(body).exists(
        [(_Relation(r),) for r in [{(1, 5), (2, 5)}, {(5, 6)}, {(6, 3)}]])


def test_incremental_planner_keeps_the_greedy_order():
    def reference(body):
        # most positions fixed first, ties to the earlier atom
        fixed, remaining, order = set(), list(range(len(body))), []
        while remaining:
            best = max(remaining, key=lambda j: (sum(
                1 for t in body[j]
                if isinstance(t, Const) or t.name in fixed), -j))
            remaining.remove(best)
            order.append(best)
            fixed.update(t.name for t in body[best] if isinstance(t, Var))
        return order

    rng = random.Random(11)
    for _ in range(400):
        pool = [Var(f"V{i}") for i in range(rng.randint(1, 6))]
        body = [tuple(Const(0) if rng.random() < 0.15 else rng.choice(pool)
                      for _ in range(rng.randint(0, 4)))
                for _ in range(rng.randint(1, 9))]
        assert [step[0] for step in _Join(body).steps] == reference(body)


def test_join_reads_disjoint_parts_as_one_relation():
    body = [(Var("X"), Var("Y")), (Var("Y"), Var("Z"))]
    rows = {(1, 2), (2, 3), (3, 4), (2, 5)}
    parts = (_Relation({(1, 2), (2, 5)}), _Relation({(2, 3), (3, 4)}))
    join = _Join(body)
    get = join.getter((Var("X"), Var("Y"), Var("Z")))
    got = {get(s) for s in join.run([parts, parts])}
    assert got == brute_join(body, [rows, rows])[1]
    assert {(x, z) for x, _, z in got} == {(1, 3), (1, 5), (2, 4)}


def test_join_count_equals_the_bindings_run_yields():
    rng = random.Random(17)
    shapes = {"last_repeats": 0, "constant": 0, "parts": 0, "empty": 0}
    for _ in range(400):
        pool = [Var(f"V{i}") for i in range(rng.randint(1, 4))]
        body, sources = [], []
        for _ in range(rng.randint(1, 4)):
            arity = rng.randint(1, 3)
            body.append(tuple(Const(rng.randint(0, 2)) if rng.random() < 0.2
                              else rng.choice(pool) for _ in range(arity)))
            rows = list({tuple(rng.randint(0, 2) for _ in range(arity))
                         for _ in range(rng.randint(0, 9))})
            cut = rng.randint(0, len(rows))
            sources.append((_Relation(set(rows[:cut])),
                            _Relation(set(rows[cut:]))) if rng.random() < 0.3
                           else (_Relation(set(rows)),))
        join = _Join(body)
        assert join.count(sources) == sum(1 for _ in join.run(sources)), body
        shapes["last_repeats"] += bool(join.steps[-1][4])
        shapes["constant"] += any(isinstance(t, Const)
                                  for terms in body for t in terms)
        shapes["parts"] += any(len(parts) > 1 for parts in sources)
        shapes["empty"] += any(not p.rows for parts in sources for p in parts)
    assert all(count >= 20 for count in shapes.values()), shapes
    assert _Join([]).count([]) == sum(1 for _ in _Join([]).run([])) == 1


def test_relation_index_follows_added_rows():
    rel = _Relation(set())
    assert rel.index((0,)) == {}
    rel.add({(1, 2), (1, 3)})
    rel.add({(2, 3)})
    assert sorted(rel.index((0,))[1]) == [(1, 2), (1, 3)]
    assert rel.index((0,))[2] == [(2, 3)]


def test_eval_cq_long_chain_is_iterative():
    n = 1200
    body = ", ".join(f"e(X{i},X{i + 1})" for i in range(n))
    rule = parse_program(f"q(X0,X{n}) :- {body}.").rules[0]
    path = EDBInstance.of({"e": {(i, i + 1) for i in range(n + 3)}})
    assert eval_cq(rule, path) == {(i, i + n) for i in range(4)}
    assert eval_cq(rule, EDBInstance.of({"e": {(0, 1)}})) == frozenset()


def test_evaluators_on_a_1200_atom_chain_at_the_default_recursion_limit():
    n = 1200
    body = ", ".join(f"e(X{i},X{i + 1})" for i in range(n))
    head = ",".join(f"X{i}" for i in range(n + 1))
    p = parse_program(f"q({head}) :- {body}.")
    cycle = EDBInstance.of({"e": {(0, 1), (1, 2), (2, 0)}})
    want = {tuple((s + i) % 3 for i in range(n + 1)) for s in range(3)}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert evaluate(p, cycle).get("q") == want
        pi = adorn_program(p, GOut(), MembershipFn("heq"))
        assert union_adorned(horn_ground_evaluate(pi, cycle), "q") == want
        assert check_rule_bounded(pi, cycle).ok
        assert subsumes(p.rules[0], p.rules[0])
    finally:
        sys.setrecursionlimit(limit)


def test_join_streams_its_last_step():
    # two unrelated atoms of 1,000 rows: 10^6 bindings, never held at once
    body = [(Var("X"),), (Var("Y"),)]
    sources = [(_Relation({(i,) for i in range(1000)}),),
               (_Relation({(-i,) for i in range(1000)}),)]
    join = _Join(body)
    tracemalloc.start()
    try:
        seen = sum(1 for _ in join.run(sources))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen == 10 ** 6
    assert peak < 2 * 2 ** 20, peak


def test_get_is_a_lookup_and_keeps_equality():
    d = EDBInstance.of({"e": {(1, 2)}, "f": {(3,)}})
    assert d.get("f") == {(3,)}
    assert d.get("g") == frozenset()
    assert d == EDBInstance.of({"f": {(3,)}, "e": {(1, 2)}})
    assert hash(d) == hash(EDBInstance.of({"f": {(3,)}, "e": {(1, 2)}}))
    assert d.as_dict() == {"e": {(1, 2)}, "f": {(3,)}}
    r = evaluate(parse_program(TC_SRC), d)
    assert r.get("tc") == {(1, 2)} and r.get("nope") == frozenset()
    assert r == IDBResult(r.relations)


def test_parse_edb_matches_token_parser(monkeypatch):
    # the package's `evaluate` attribute is the function, not the module
    ev = importlib.import_module("dlbound.evaluate")

    def outcome(text):
        try:
            return ev.parse_edb(text)
        except Exception as exc:
            return type(exc), str(exc)

    token_parsed = []
    token_walk = ev._read_facts
    monkeypatch.setattr(ev, "_read_facts", lambda text: (
        token_parsed.append(text) or token_walk(text)))
    rng = random.Random(11)
    texts = [random_edb_text(rng) for _ in range(3000)]
    texts += ["", "% only a comment", "e(1).\r\ne(2).\r\n", "e(1)\t.",
              "e(1).%", "e().", "e(12ab).", "e(-).", "e(²).", "e(é).",
              "_(1).", "E(1).", "e(1). e(1,2).", "e(1,\n% a, b\n2).",
              # past Python's int digit limit; then also a bad character
              f"e({'9' * 5000}).", f"e({'9' * 5000}). #"]
    results = [outcome(t) for t in texts]
    by_pattern = [t for t in texts if t not in token_parsed]
    monkeypatch.setattr(ev, "parse_edb", _parse_edb_tokens)
    assert results == [outcome(t) for t in texts]
    # both paths and both kinds of outcome are exercised
    assert len(by_pattern) > 1000
    errors = sum(isinstance(r, tuple) for r in results)
    assert 300 < errors < len(texts) - 1000


def test_shared_instance_across_threads():
    # one EDBInstance per program, its join sources and value-cover index
    # made on first use by several threads at once, gives what a fresh
    # instance gives one run at a time
    rng = random.Random(97)
    cases = []
    for p in random_programs(101, 40):
        try:
            pi = adorn_program(p, GOut(), MembershipFn("heq"))
        except Exception:
            continue
        cases.append((p, pi, random_edb(p, rng)))

    def check(p, pi, d):
        result = evaluate(pi, d)
        horn = (horn_ground_evaluate(pi, d)
                if ADORNMENT_GROUNDABLE in classify_program(p) else None)
        covers = tuple(value_cover_ok(t, d, k) for _, ts in result.relations
                       for t in sorted(ts, key=repr) for k in (1, 2))
        return result, check_rule_bounded(pi, d, result), horn, covers

    def check_all(fresh):
        return [check(p, pi, EDBInstance.of(d.relations) if fresh else d)
                for p, pi, d in cases]

    want = check_all(fresh=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the runs finely
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(lambda _: check_all(fresh=False), range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert runs == [want] * 4
    assert sum(horn is not None for _, _, horn, _ in want) >= 5
    for _, _, d in cases:
        for name, tuples in d.relations:
            for k in {len(t) for t in tuples}:
                assert d.source(name, k) is d.source(name, k)
