"""Parser, validation, printing, and the minimum-cover search."""

import copy
import pickle
import random
import time
from itertools import combinations

import pytest

from dlbound import (
    Atom, Const, ParseError, ValidationError, Var, adorn_program, parse_edb,
    parse_program, print_program,
)
from dlbound.core import classify_rule_atoms, format_rule, min_cover

from conftest import (
    TC_SRC, _Parser, _parse_edb_tokens, random_program_text,
)


def test_values_survive_copy_and_pickle():
    p = parse_program(TC_SRC)
    pi = adorn_program(p, "gout")
    d = parse_edb("e(1,2). e(2,a).")
    for value in (Var("X"), Const(3), p.rules[1], p, pi.rules[0].head, pi,
                  d):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)
    assert pickle.loads(pickle.dumps(d)).get("e") == {(1, 2), (2, "a")}


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


def test_integers_take_ascii_digits_only():
    # a superscript two or an Arabic-Indic three is no digit of an
    # integer; a name may still hold one
    for text, col in (("q(X) :- e(X,\u00b2).", 13),
                      ("q(X) :- e(X,\u0663).", 13),
                      ("q(X) :- e(X,1\u00b2).", 14)):
        with pytest.raises(ParseError) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.col) == (1, col)
    (r,) = parse_program("q(X) :- e(X,a\u0663).").rules
    assert r.body[0].terms[1] == Const("a\u0663")


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


def _outcome(read, text):
    try:
        return read(text)
    except Exception as exc:
        return type(exc), str(exc)


def _token_parse(text):
    return _Parser(text).program()


def test_parse_program_matches_token_parser():
    rng = random.Random(5)
    texts = [random_program_text(rng) for _ in range(1500)]
    texts += ["", "% only a comment", "q(_) :- f(X).", "q(X) :- e(_x,X).",
              "P(X) :- f(X).", "q(1).", "é", "q(X) :- e(X,²).",
              "q(X) :- f(X).\f", "\vq(X) :- f(X).", "q(X) :- f(X)",
              "q(X) :- f(X)..", "q(X):-f(X).p(X,Y):-e(X,Y).",
              "q(X) :- % c\n f(X).", "q(X) :- f(X). % c", "q( X ) :- f( X ) .",
              # past Python's int digit limit; then also a bad character
              f"q(X) :- e(X,{'9' * 5000}).", f"q(X) :- e(X,{'9' * 5000}). #"]
    results = [_outcome(parse_program, t) for t in texts]
    assert results == [_outcome(_token_parse, t) for t in texts]
    # both kinds of outcome are exercised
    errors = sum(isinstance(r, tuple) for r in results)
    assert 300 < errors < len(texts) - 800


def test_parse_program_builds_each_term_once_per_call():
    text = "q(X,Y) :- e(X,Z), e(Z,Y), f(X,7), f(_,7), f(_,7)."

    def terms(p):
        return [t for r in p.rules for a in (r.head, *r.body)
                for t in a.terms]
    first, second = parse_program(text), parse_program(text)
    assert first == second
    # one object per distinct term text within a call, none shared across
    assert len({id(t) for t in terms(first)}) == len(set(terms(first))) == 6
    assert not {id(t) for t in terms(first)} & {id(t) for t in terms(second)}


def test_parse_program_time_is_linear_on_long_texts():
    long_rule = "q(X) :- " + ", ".join(["f(X)"] * 10000)  # no final `.`
    blank_line = "%" + " " * 10000
    for text in (long_rule, blank_line + "\n" + TC_SRC, TC_SRC + blank_line,
                 TC_SRC + blank_line + "\n" + long_rule,
                 " " * 10000 + "\n" + TC_SRC):
        start = time.perf_counter()
        got = _outcome(parse_program, text)
        assert time.perf_counter() - start < 1
        assert got == _outcome(_token_parse, text)
    assert _outcome(parse_program, long_rule) == (ParseError, (
        f"1:{len(long_rule) + 1}: expected DOT, found 'end of input'"))


# Word and blank pieces the generators rarely draw: a letter with no case
# (中), a titlecase letter (ǅ, not upper), accented letters, letter-like
# and other scripts' digits (Ⅳ, ½, ², ٣), form feed, vertical tab, a bare
# `%` and CRLF.  The words are 6 names, 2 integers, 3 variables and the
# wildcard, then bad words; the first 6 blanks are blanks or comments,
# and the rest break the text or comment out the rest of its line.
_RARE_WORDS = ["a", "中", "ǅ", "é", "中ǅ", "a²", "7", "-7", "X", "É", "X٣",
               "_", "Ⅳ", "½", "²", "٣", "_a"]
_RARE_BLANKS = ["", "", " ", "\r\n", "%\r\n", "% 中 ².\n", "\f", "\v", "%"]


def _rare_text(rng) -> str:
    """Facts, or rules with constant heads, whose words and blanks are
    drawn from the pieces above."""
    def pick(pool, valid):
        return rng.choice(pool[:valid] if rng.random() < 0.97 else pool)

    def atom(words):
        args = ",".join(pick(_RARE_BLANKS, 6) + pick(_RARE_WORDS, words)
                        + pick(_RARE_BLANKS, 6)
                        for _ in range(rng.randrange(1, 3)))
        return f"{pick(_RARE_WORDS, 6)}{pick(_RARE_BLANKS, 6)}({args})"

    clauses = []
    for _ in range(rng.randrange(1, 3)):
        clause = atom(8)
        if rng.random() < 0.7:
            clause += " :- " + ", ".join(
                atom(12) for _ in range(rng.randrange(1, 3)))
        clauses.append(pick(_RARE_BLANKS, 6) + clause + "."
                       + pick(_RARE_BLANKS, 6))
    return "".join(clauses)


def test_readers_match_the_token_readers_on_rare_characters():
    rng = random.Random(23)
    texts = [_rare_text(rng) for _ in range(3000)]
    for read, reference in ((parse_program, _token_parse),
                            (parse_edb, _parse_edb_tokens)):
        results = [_outcome(read, t) for t in texts]
        assert results == [_outcome(reference, t) for t in texts]
        read_whole = sum(not isinstance(r, tuple) for r in results)
        assert 300 < read_whole < len(texts) - 1000


@pytest.mark.parametrize("text, error", [
    # a comment that ends the text leaves the end of input where it starts
    ("q(X) :- f(X) % no dot", "1:14: expected DOT, found 'end of input'"),
    ("q(X) :- f(X).\n% c\np(X) :- % c",
     "3:9: expected IDENT, found 'end of input'"),
    # the end of the text where a term belongs
    ("q(X) :- e(X,", "1:13: expected a term, found 'end of input'"),
    # a bad character anywhere comes before an earlier grammar error
    ("q(X) :- f(X)\nq(Y) :- f(Y). ²", "2:15: unexpected character '²'"),
    # and before an integer past Python's digit limit
    (f"q(X) :- e(X,{'9' * 5000}), f(X). \f",
     "1:5022: unexpected character '\\x0c'"),
])
def test_parse_program_error_positions(text, error):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert str(exc.value) == error


@pytest.mark.parametrize("text, error", [
    ("e(1) % c", "1:6: expected '.'"),
    ("e(1,", "1:5: expected a constant, found 'end of input'"),
    # a variable or no term where a constant belongs, not at the end
    ("e(X).", "1:3: facts may contain only constants"),
    ("e().", "1:3: facts may contain only constants"),
    ("e(1)\ne(2). ²", "2:7: unexpected character '²'"),
    (f"e({'9' * 5000}). \v", "1:5006: unexpected character '\\x0b'"),
])
def test_parse_edb_error_positions(text, error):
    with pytest.raises(ParseError) as exc:
        parse_edb(text)
    assert str(exc.value) == error


def test_an_integer_past_the_digit_limit_raises_pythons_own_error():
    for read, text in ((parse_program, f"q(X) :- e(X,{'9' * 5000})."),
                       (parse_edb, f"e({'9' * 5000}).")):
        with pytest.raises(ValueError, match="^Exceeds the limit") as exc:
            read(text)
        assert type(exc.value) is ValueError


def test_parse_edb_time_is_linear_on_long_texts():
    blank_line = "%" + " " * 10000
    # ASCII well-formed facts go to the pattern; these go to the token walk
    for text in ("e(1).\n" * 9999 + "e(1",
                 blank_line + "\ne(é).", "e(é). " + blank_line):
        start = time.perf_counter()
        got = _outcome(parse_edb, text)
        assert time.perf_counter() - start < 1
        assert got == _outcome(_parse_edb_tokens, text)
    assert _outcome(parse_edb, "e(1).\n" * 9999 + "e(1") == (
        ParseError, "10000:4: expected ')'")


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
        universe = range(rng.randint(0, 10))
        density = rng.choice((0.2, 0.35, 0.5))
        sets = [frozenset(x for x in universe if rng.random() < density)
                for _ in range(rng.randint(0, 11))]
        if sets and rng.random() < 0.3:  # at most 12 sets with the copy
            sets.insert(rng.randrange(len(sets)), rng.choice(sets))
        need = {x for x in universe if rng.random() < 0.6}
        if rng.random() < 0.1:
            need.add(99)  # in no set
        most = rng.choice((None, rng.randint(0, 5)))
        first = brute_first_cover(need, sets)
        expected = first
        if first is not None and most is not None and len(first) > most:
            expected = None
            kinds.add("above most")
        kinds.add("empty need" if not need else
                  "uncoverable" if first is None else "covered")
        if frozenset() in sets:
            kinds.add("empty set")
        if len(set(sets)) < len(sets):
            kinds.add("duplicate")
        assert min_cover(need, sets, most) == expected, (need, sets, most)
    assert kinds == {"empty need", "uncoverable", "covered", "empty set",
                     "duplicate", "above most"}
