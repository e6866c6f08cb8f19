"""Program classification, Horn grounding, and complexity reports."""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations

import pytest

from dlbound import (
    ADORNMENT_GROUNDABLE, AdornedProgram, EDBInstance, GOut, LINEAR,
    MembershipFn, SIMPLE_CHAIN, ValidationError, adorn_program,
    classify_program, complexity_report, evaluate, horn_ground_evaluate,
    integral_fchw, parse_edb, parse_program, union_adorned,
)
from dlbound.core import Atom, Rule, Var
from dlbound.groundable import _rule_groundable, horn_clauses
from dlbound.width import Hypergraph

from conftest import (
    REACH_SRC, TC_SRC, TRIANGLE_SRC, random_edb, random_programs,
    reference_rule_groundable,
)


def test_tc_all_three_classes():
    p = parse_program(TC_SRC)
    assert classify_program(p) == {LINEAR, SIMPLE_CHAIN, ADORNMENT_GROUNDABLE}


def test_not_linear():
    p = parse_program("q(X) :- e(X,Y).\nr(X) :- q(X), q(X), e(X,X).")
    assert LINEAR not in classify_program(p)


def test_not_simple_chain():
    p = parse_program("q(X) :- e(X,A), e(A,B), e(B,X).")
    assert SIMPLE_CHAIN not in classify_program(p)


def test_not_groundable():
    # Y is shared between the two body atoms and is no head variable, so
    # neither EDB atom owns a private head variable
    p = parse_program("q(X) :- e(X,Y), f(Y,X).")
    assert ADORNMENT_GROUNDABLE not in classify_program(p)


def test_groundable_private_head_var():
    # Z is shared but X and Y are each private to one EDB atom
    p = parse_program("q(X,Y) :- e(X,Z), f(Y,Z).")
    assert ADORNMENT_GROUNDABLE in classify_program(p)


def test_rule_groundable_matches_the_pairwise_test():
    # each variable's atoms are counted once; the verdicts are those of
    # collecting every other atom's variables, also when one atom object
    # occurs twice in a body (it is then no other atom to itself)
    cases = [(r, p) for p in random_programs(11, 400) for r in p.rules]
    p = parse_program("q(X,Y) :- e(X,Z), f(Y,Z).")
    e = Atom("e", (Var("X"), Var("Z")))
    cases += [(Rule(Atom("q", (Var("X"),)), (e, e)), p),
              (Rule(Atom("q", (Var("X"),)), (e, Atom("e", e.terms))), p)]
    verdicts = [_rule_groundable(r, p) for r, p in cases]
    assert verdicts == [reference_rule_groundable(r, p) for r, p in cases]
    assert verdicts[-2:] == [True, False]
    assert 100 < sum(verdicts) < len(cases) - 100


def test_horn_equals_seminaive_tc():
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    d = parse_edb("e(1,2). e(2,3). e(3,1). e(2,4).")
    got = horn_ground_evaluate(pi, d)
    assert union_adorned(got, "tc") == evaluate(p, d).get("tc")


def test_horn_rejects_non_groundable():
    p = parse_program("q(X) :- e(X,Y), f(Y,X).")
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    with pytest.raises(ValidationError):
        horn_ground_evaluate(pi, parse_edb("e(1,2). f(2,1)."))


def test_horn_equals_seminaive_corpus():
    rng = random.Random(83)
    checked = 0
    for p in random_programs(89, 120):
        if ADORNMENT_GROUNDABLE not in classify_program(p):
            continue
        try:
            pi = adorn_program(p, GOut(), MembershipFn("heq"))
        except Exception:
            continue
        d = random_edb(p, rng)
        got = horn_ground_evaluate(pi, d)
        want = evaluate(pi, d)
        for q in sorted(p.idb):
            if pi.adornment_map().get(q):
                assert union_adorned(got, q) == union_adorned(want, q)
        checked += 1
    assert checked >= 10


def test_complexity_report_tc():
    p = parse_program(TC_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    rep = complexity_report(pi)
    assert rep.f == 2
    assert rep.ew == 2
    assert rep.fchw == 2
    by_class = {b.applies_to: b for b in rep.bounds}
    assert by_class[ADORNMENT_GROUNDABLE].exponent == 2
    assert "N^2" in by_class[ADORNMENT_GROUNDABLE].formula
    assert by_class[SIMPLE_CHAIN].exponent == 2 * rep.ew
    d = rep.to_json_dict()
    assert d["f"] == 2 and d["fchw"] == 2


def test_complexity_report_simple_chain_not_groundable():
    p = parse_program("q(X) :- e(X,Y), f(Y,X).")
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    rep = complexity_report(pi)
    assert SIMPLE_CHAIN in rep.classes
    assert ADORNMENT_GROUNDABLE not in rep.classes
    by_class = {b.applies_to: b for b in rep.bounds}
    assert by_class[SIMPLE_CHAIN].exponent == 2 * rep.ew


def test_integral_fchw_path():
    h = Hypergraph(vertices=("x", "y", "z"),
                   edges=(("a", frozenset({"x", "z"})),
                          ("b", frozenset({"z", "y"}))),
                   v_out=("x", "y"))
    assert integral_fchw(h) == 2


def test_integral_fchw_single_edge():
    h = Hypergraph(vertices=("x", "y"),
                   edges=(("a", frozenset({"x", "y"})),),
                   v_out=("x", "y"))
    assert integral_fchw(h) == 1


def fchw_by_elimination_orders(h) -> int:
    """Integral fchw by trying every elimination order: the search the
    subset DP replaced, kept as its reference."""
    vertices = sorted(h.vertices)
    edge_sets = [set(e) for _, e in h.edges if e]
    if not vertices or not edge_sets:
        return 1

    @cache
    def cover(bag: frozenset) -> int:
        for k in range(1, len(edge_sets) + 1):
            for combo in combinations(edge_sets, k):
                if bag <= set().union(*combo):
                    return k
        return len(edge_sets) + 1  # uncoverable

    adj = {v: set() for v in vertices}
    for e in (*edge_sets, set(h.v_out)):
        for a in e:
            adj[a] |= e - {a}
    best = len(edge_sets) + 1
    for order in permutations(vertices):
        g = {v: set(adj[v]) for v in vertices}
        width = 0
        for v in order:
            width = max(width, cover(frozenset({v} | g[v])))
            if width >= best:
                break
            neigh = g.pop(v)
            for a in neigh:
                g[a] |= neigh - {a}
                g[a].discard(v)
        else:
            best = width
    return best


def test_integral_fchw_matches_elimination_orders():
    # mostly binary edges: on dense graphs the fill-in of elimination
    # decides the width, which wide random edges rarely show
    rng = random.Random(5)
    isolated = 0
    for _ in range(300):
        vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
        edges = tuple(
            (f"e{j}", frozenset(rng.sample(
                vertices, min(len(vertices), rng.choice((0, 1, 2, 2, 2, 3))))))
            for j in range(rng.randint(0, 10)))
        v_out = [v for v in vertices if rng.random() < 0.3]
        h = Hypergraph(vertices=vertices, edges=edges, v_out=v_out)
        isolated += bool(set(vertices) - set().union(*(e for _, e in edges)))
        assert integral_fchw(h) == fchw_by_elimination_orders(h), h
    assert isolated


# ---------------------------------------------------------------------------
# Horn grounding against both fixpoint evaluators, and its work count

TC_LEFT_SRC = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\n"
SAMEGEN_SRC = ("sg(X,Y) :- flat(X,Y).\n"
               "sg(X,Y) :- up(X,U), sg(U,V), down(V,Y).\n")


def path(n):
    return {(i, i + 1) for i in range(n)}


def grid(k):
    return ({(i * k + j, i * k + j + 1) for i in range(k) for j in range(k - 1)}
            | {(i * k + j, (i + 1) * k + j)
               for i in range(k - 1) for j in range(k)})


def random_graph(rng, n, m):
    edges = set()
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
    return edges


def graph_edbs(seed):
    """EDBs for every program below: path, grid and random graphs."""
    rng = random.Random(seed)
    graphs = [path(12), grid(4), random_graph(rng, 10, 20),
              random_graph(rng, 15, 25)]
    for edges in graphs:
        nodes = sorted({v for e in edges for v in e})
        loops = {(a, a) for a, _ in sorted(edges)[::4]}
        yield {
            "e2": {"e": edges},
            "e2f": {"e": edges | loops, "f": {(a,) for a in nodes[::2]}},
            "samegen": {"up": edges, "down": {(b, a) for a, b in edges},
                        "flat": {(a, a) for a in nodes[::3]}},
            "e3": {"e": {(a, b, c) for a, b in edges for b2, c in edges
                         if b == b2}},
        }


# Rules whose open head variables (those no EDB body atom binds) take
# their values jointly from the head adornment's join.
SHARED_ATOM_SRC = "q(X,Y) :- e(X,Y).\np(X,Y) :- q(X,Y), q(Y,X).\n"
REPEATED_SRC = "q(X,Y) :- flat(X,Y).\np(Y) :- q(Y,Y).\n"
BESIDE_CONSTANT_SRC = "q(X,Y) :- e(X,Y).\np(X,1,Y) :- q(X,Y), q(Y,1).\n"
EDB_BOUND_NEIGHBOUR_SRC = "q(X,Y) :- up(X,Y).\np(X,Y) :- flat(X,X), q(X,Y).\n"


@pytest.mark.parametrize("src,edb_kind", [
    (TC_SRC, "e2"), (TC_LEFT_SRC, "e2"), (REACH_SRC, "e2"),
    (SAMEGEN_SRC, "samegen"), (TRIANGLE_SRC, "e3"),
    (SHARED_ATOM_SRC, "e2"), (REPEATED_SRC, "samegen"),
    (BESIDE_CONSTANT_SRC, "e2"), (EDB_BOUND_NEIGHBOUR_SRC, "samegen")],
    ids=["tc_right", "tc_left", "reach", "samegen", "triangle",
         "shared_atom", "repeated_variable", "beside_constant",
         "edb_bound_neighbour"])
def test_horn_seminaive_naive_agree_on_graphs(src, edb_kind):
    p = parse_program(src)
    assert ADORNMENT_GROUNDABLE in classify_program(p)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    for edbs in graph_edbs(7):
        d = EDBInstance.of(edbs[edb_kind])
        plain = evaluate(p, d)
        assert plain == evaluate(p, d, method="naive")
        semi = evaluate(pi, d)
        assert semi == evaluate(pi, d, method="naive")
        horn = horn_ground_evaluate(pi, d)
        for q in sorted(p.idb):
            assert union_adorned(horn, q) == union_adorned(semi, q) \
                == plain.get(q)
        assert any(plain.get(q) for q in p.idb)


@pytest.mark.parametrize("src", [TC_SRC, TC_LEFT_SRC],
                         ids=["tc_right", "tc_left"])
def test_horn_clause_count_grows_as_n_to_the_ew(src):
    p = parse_program(src)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    rep = complexity_report(pi)
    bound = {b.applies_to: b for b in rep.bounds}[ADORNMENT_GROUNDABLE]
    ew = bound.exponent
    assert ew == rep.ew == 2
    assert bound.formula == f"O({rep.f} * {rep.rule_count} * N^{ew})"
    counts = {}
    for n in (10, 20, 40):
        _, _, counts[n] = horn_clauses(pi, EDBInstance.of({"e": path(n)}))
        # one base rule grounds to n clauses, each of the two recursive
        # adorned rules to n * n
        assert counts[n] == n + 2 * n * n
        assert counts[n] <= rep.f * rep.rule_count * n ** ew
    for n in (10, 20):
        assert counts[2 * n] <= counts[n] * 2 ** ew


def test_horn_triangle_grounds_within_n_to_the_ew():
    # N random e(x,y,0) facts over 4N values: the p rule has no EDB atom,
    # and its picks are the triangles of the adornment's join, at most
    # N^(3/2) of them (Atserias, Grohe & Marx, SICOMP 2013)
    p = parse_program(TRIANGLE_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    rep = complexity_report(pi)
    ew = {b.applies_to: b for b in rep.bounds}[ADORNMENT_GROUNDABLE].exponent
    assert ew == rep.ew == Fraction(3, 2)
    rng = random.Random(3)
    counts = {}
    for n in (20, 40, 80, 160):
        facts = set()
        while len(facts) < n:
            facts.add((rng.randrange(4 * n), rng.randrange(4 * n), 0))
        _, _, counts[n] = horn_clauses(pi, EDBInstance.of({"e": facts}))
        assert counts[n] <= rep.f * rep.rule_count * n ** ew
    for n in (20, 40, 80):
        assert counts[2 * n] <= counts[n] * 2 ** ew


def test_horn_picks_join_the_edb_bound_head_slots():
    # Y is open, X is bound by flat(X,X): the picks are up's pairs, joined
    # on X with flat, so only the 4 flat values x pair with their up
    # neighbours (4 groundings, not 4 * 12 for every up target)
    p = parse_program(EDB_BOUND_NEIGHBOUR_SRC)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    d = EDBInstance.of(next(graph_edbs(7))["samegen"])
    facts, apreds, groundings = horn_clauses(pi, d)
    assert groundings == 12 + 4
    semi = evaluate(pi, d)
    assert facts == [semi.get(adn) for adn in apreds]


# ---------------------------------------------------------------------------
# Streaming unit propagation: clauses are propagated as they are generated


def backwards(pi):
    """pi with its rules in reverse order, so that clauses come before
    the clauses deriving their body facts."""
    return AdornedProgram(rules=tuple(reversed(pi.rules)), source=pi.source)


@pytest.mark.parametrize("src,edb_kind", [
    (TC_SRC, "e2"), (TC_LEFT_SRC, "e2"), (REACH_SRC, "e2"),
    (SAMEGEN_SRC, "samegen"), (TRIANGLE_SRC, "e3")],
    ids=["tc_right", "tc_left", "reach", "samegen", "triangle"])
def test_horn_independent_of_rule_order(src, edb_kind):
    p = parse_program(src)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    for edbs in graph_edbs(11):
        d = EDBInstance.of(edbs[edb_kind])
        semi = evaluate(pi, d)
        horn = horn_ground_evaluate(backwards(pi), d)
        assert horn == horn_ground_evaluate(pi, d)
        for q in sorted(p.idb):
            assert union_adorned(horn, q) == union_adorned(semi, q)
        assert horn_clauses(backwards(pi), d)[2] == horn_clauses(pi, d)[2]


# Each EDB grounds a clause whose body repeats a fact: the self-loop
# e(1,1) gives p(1,1) :- q(1,1), q(1,1), and q(1,1), q(1,2) give
# p(1,1,2) :- q(1,1), q(1,2), q(1,2).  q is grounded before p, so its
# atoms join as sources.  In "cycle" and "nonlinear", p's atoms lie on
# p's own cycle, so its clauses wait: on one repeated fact, as
# p(1,1) :- p(1,1), p(1,1) does, or on two distinct ones.  In
# "nonlinear", some clause waiting on two facts fires once both are
# derived.
@pytest.mark.parametrize("src,edb", [
    ("q(X,Y) :- e(X,Y).\np(X,Y) :- q(X,Y), q(Y,X), e(X,Y).\n",
     "e(1,1). e(1,2). e(2,1). e(2,3). e(3,3)."),
    (TRIANGLE_SRC, "e(1,1,0). e(1,2,0). e(2,2,0). e(2,3,1)."),
    ("p(X,Y) :- e(X,Y).\np(X,Y) :- p(Y,X), p(X,X), f(Y).\n",
     "e(1,1). e(2,1). e(2,3). e(3,3). f(1). f(2). f(3)."),
    ("p(X,Y) :- e(X,Y).\np(X,Y) :- a(X,Z), p(Z,Y), p(Z,Z).\n",
     "a(0,3). a(0,1). a(2,1). a(1,0). e(3,1). e(0,0). e(3,0). e(0,1)."),
], ids=["symmetric", "triangle", "cycle", "nonlinear"])
def test_horn_repeated_body_fact(src, edb):
    p = parse_program(src)
    assert ADORNMENT_GROUNDABLE in classify_program(p)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    d = parse_edb(edb)
    semi = evaluate(pi, d)
    assert union_adorned(semi, "p")
    for prog in (pi, backwards(pi)):
        horn = horn_ground_evaluate(prog, d)
        for q in sorted(p.idb):
            assert union_adorned(horn, q) == union_adorned(semi, q)


# An IDB atom of a predicate grounded earlier joins the groundings as a
# source: with a constant and with a repeated variable, and beside an IDB
# atom of the head's own cycle, which waits.  Each rule order grounds the
# counts pinned, one per EDB of graph_edbs(7).
FINISHED_ATOM_SRC = ("q(X,Y) :- e(X,Y).\np(X) :- q(X,X), f(X).\n"
                     "r(X) :- q(X,1), f(X).\n")
FINISHED_AND_OPEN_SRC = ("q(X,Y) :- e(X,Y).\np(X,Y) :- e(X,Y).\n"
                         "p(X,Y) :- q(X,Y), p(Y,X), f(X).\n")


@pytest.mark.parametrize("src,counts", [
    (FINISHED_ATOM_SRC, [29, 46, 35, 46]),
    (FINISHED_AND_OPEN_SRC, [39, 72, 69, 74])],
    ids=["finished_atom", "finished_and_open"])
def test_horn_joins_finished_atoms(src, counts):
    p = parse_program(src)
    assert ADORNMENT_GROUNDABLE in classify_program(p)
    pi = adorn_program(p, GOut(), MembershipFn("heq"))
    for edbs, count in zip(graph_edbs(7), counts, strict=True):
        d = EDBInstance.of(edbs["e2f"])
        semi = evaluate(pi, d)
        for prog in (pi, backwards(pi)):
            horn = horn_ground_evaluate(prog, d)
            for q in sorted(p.idb):
                assert union_adorned(horn, q) == union_adorned(semi, q)
            assert horn_clauses(prog, d)[2] == count
        assert all(union_adorned(semi, q) for q in ("p", "q"))


def test_horn_counts_groundings_not_distinct_clauses():
    # q(1,2) :- . is grounded once per Z
    pi = adorn_program(parse_program("q(X,Y) :- e(X,Y,Z).\n"), GOut(),
                       MembershipFn("heq"))
    facts, apreds, groundings = horn_clauses(
        pi, parse_edb("e(1,2,0). e(1,2,1). e(2,3,0)."))
    assert groundings == 3
    assert [a.base for a in apreds] == ["q"]
    assert facts == [{(1, 2), (2, 3)}]
