"""The value classes' contract: immutable objects whose equality, hash
and repr read their listed fields, as frozen dataclasses give them."""

from fractions import Fraction

import pytest

from conftest import TC_SRC
from dlbound import adorn_program, parse_program
from dlbound.adorn import AdornedProgram, Adornment
from dlbound.boundedness import Degraded, Inconclusive, NonRecursive
from dlbound.core import Atom, Const, Program, Rule, Var
from dlbound.evaluate import (
    BoundednessViolation, EDBInstance, IDBResult, RuleBoundedReport,
)
from dlbound.groundable import ComplexityBound, ComplexityReport
from dlbound.sizebound import PredicateBounds, SchemaStats, SizeBoundReport
from dlbound.width import EdgeCoverSolution, Hypergraph

TC = parse_program(TC_SRC)
PI = adorn_program(TC, "gout")
ATOM = Atom("e", (Var("X"), Const(1)))
RULE = TC.rules[1]
RELATIONS = (("e", frozenset({(1, 2), (2, 3)})),)
BOUND = ComplexityBound("groundable", "O(N^2)", Fraction(2))

# class -> (compared fields, their values), as each class declares them
CASES = {
    Var: (("name",), ("X",)),
    Const: (("value",), (7,)),
    Atom: (("pred", "terms", "adornment"),
           ("tc", (Var("X"), Var("Y")), PI.rules[0].head.adornment)),
    Rule: (("head", "body"), (RULE.head, RULE.body)),
    Program: (("rules", "idb", "edb"), (TC.rules, TC.idb, TC.edb)),
    Adornment: (("key",), (PI.rules[0].head.adornment.key,)),
    AdornedProgram: (("rules", "source"), (PI.rules, TC)),
    NonRecursive: (("program",), (PI,)),
    Degraded: (("program", "budget"), (PI, 2)),
    Inconclusive: (("partial", "limit"), (PI, "max-rules")),
    EDBInstance: (("relations",), (RELATIONS,)),
    IDBResult: (("relations",), (RELATIONS,)),
    BoundednessViolation: (("rule_index", "tuple_value"), (1, (2, 3))),
    RuleBoundedReport: (("violations",), ((BoundednessViolation(0, (1,)),),)),
    ComplexityBound: (("applies_to", "formula", "exponent"),
                      ("groundable", "O(N^2)", Fraction(2))),
    ComplexityReport: (
        ("classes", "f", "rule_count", "ew", "fchw", "fchw_mode", "bounds"),
        (("groundable",), 2, 2, Fraction(3, 2), None, "integral", (BOUND,))),
    SchemaStats: (("num_edbs", "ear", "arq", "rule_count", "term_count"),
                  (1, 2, 2, 2, 10)),
    PredicateBounds: (
        ("predicate", "ew_integral", "ew_fractional", "f_exact", "bound1",
         "bound2", "fpt_bound", "coeff_naive", "coeff_minimal"),
        ("tc", Fraction(1), Fraction(1), 3, 9, None, 27, 4, 5)),
    SizeBoundReport: (("n", "predicates"), (3, ())),
    Hypergraph: (("vertices", "edges", "v_out"),
                 (frozenset({"X", "Y"}), (("e", frozenset({"X", "Y"})),),
                  frozenset({"X"}))),
    EdgeCoverSolution: (("weights", "objective", "integral"),
                        ((Fraction(1),), Fraction(1), True)),
}

# fields that an object holds but that equality, hashing and repr skip
EXCLUDED = {EDBInstance: ("_by_name", "_sources"), IDBResult: ("_by_key",),
            Adornment: ("key_hash",)}

ids = [cls.__name__ for cls in CASES]


def test_every_value_class_is_listed():
    assert len(CASES) == 21


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_positional_and_keyword_objects_are_equal_and_hash_as_their_fields(
        cls):
    fields, values = CASES[cls]
    a = cls(*values)
    b = cls(**dict(zip(fields, values)))
    assert a == b and not a != b
    assert tuple(getattr(a, f) for f in fields) == values
    # an adornment hashes as its key; every other value as the tuple of
    # its fields
    expected = hash(values[0]) if cls is Adornment else hash(values)
    assert hash(a) == hash(b) == expected


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_a_changed_field_makes_an_unequal_object(cls):
    fields, values = CASES[cls]
    a = cls(*values)
    for other in CASES:
        if other is not cls:
            assert a != other(*CASES[other][1])
    assert a != object() and a != None  # noqa: E711


def test_equal_fields_of_two_classes_are_unequal():
    assert Var("a") != Const("a")
    assert Var("a").__eq__(Const("a")) is NotImplemented
    assert EDBInstance(RELATIONS) != IDBResult(RELATIONS)
    assert EDBInstance(RELATIONS).__eq__(IDBResult(RELATIONS)) \
        is NotImplemented
    assert NonRecursive(PI) != Degraded(PI, None)
    assert BoundednessViolation(1, (2,)) != (1, (2,))


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_fields_are_read_only(cls):
    fields, values = CASES[cls]
    a = cls(*values)
    for name in (*fields, *EXCLUDED.get(cls, ()), "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert tuple(getattr(a, f) for f in fields) == values


@pytest.mark.parametrize("cls", CASES, ids=ids)
def test_repr_lists_the_compared_fields(cls):
    fields, values = CASES[cls]
    inner = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({inner})"


def test_defaults_hold():
    assert Atom("e", ATOM.terms).adornment is None
    assert Atom("e", ATOM.terms) == Atom("e", ATOM.terms, None) == ATOM


def test_excluded_fields_stay_out_of_equality_hash_and_repr():
    d, e = EDBInstance(RELATIONS), EDBInstance(RELATIONS)
    d.source("e", 2)
    d.value_cover_index
    assert d._sources and not e._sources
    assert d == e and hash(d) == hash(e) == hash((RELATIONS,))
    assert d._by_name == {"e": RELATIONS[0][1]}
    assert "_by_name" not in repr(d) and "_sources" not in repr(d)
    r = IDBResult(RELATIONS)
    assert r._by_key == dict(RELATIONS) and "_by_key" not in repr(r)
    adn = PI.rules[0].head.adornment
    adn.rule, adn.profile
    assert adn == Adornment(adn.key) and hash(adn) == adn.key_hash
    assert repr(adn) == f"Adornment(key={adn.key!r})"


def test_cached_properties_leave_the_value_unchanged():
    pi = AdornedProgram(PI.rules, TC)
    before = hash(pi), repr(pi)
    pi.graph
    assert (hash(pi), repr(pi)) == before and pi == PI


def test_hypergraph_normalises_its_fields():
    h = Hypergraph(["X"], [("e", ["X"])], ["X"])
    assert h == Hypergraph(frozenset("X"), (("e", frozenset("X")),),
                           frozenset("X"))
    assert type(h.edges) is tuple and type(h.edges[0][1]) is frozenset
