"""Datalog AST, textual dialect parser, pretty-printer, program validation,
and the minimum-cover search every width uses.

Dialect: identifiers starting with an uppercase letter are variables,
lowercase identifiers are predicate symbols or symbol constants, integers
are constants, `_` is a wildcard (only in rule bodies), rules end with `.`,
`:-` separates head and body, `%` begins a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_


class DatalogError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DatalogError):
    """Syntax error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ValidationError(DatalogError):
    """Semantic error: unsafe rule, arity clash, bad schema."""


# Variables created internally (desugared wildcards, canonical existentials)
# carry this prefix; the surface syntax cannot produce such names.
INTERNAL_PREFIX = "_"


@dataclass(frozen=True)
class Var:
    """A variable term."""
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A constant term: lowercase symbol or integer."""
    value: object

    def __str__(self) -> str:
        return str(self.value)


Term = Var | Const


def is_internal_var(t: Term) -> bool:
    """True for variables introduced internally (wildcard desugaring etc.)."""
    return isinstance(t, Var) and t.name.startswith(INTERNAL_PREFIX)


@dataclass(frozen=True)
class Atom:
    """A predicate applied to a tuple of terms.

    The IDB atoms of an adorned program carry their predicate's
    adornment (an `adorn.Adornment`); every other atom carries None.
    """
    pred: str
    terms: tuple
    adornment: object = None

    @property
    def arity(self) -> int:
        return len(self.terms)

    def vars(self) -> list:
        """Variable names in order of first occurrence."""
        seen = []
        for t in self.terms:
            if isinstance(t, Var) and t.name not in seen:
                seen.append(t.name)
        return seen

    def __str__(self) -> str:
        return format_atom(self)


@dataclass(frozen=True)
class Rule:
    """A safe rule: head atom and a non-empty body."""
    head: Atom
    body: tuple

    def head_vars(self) -> list:
        return self.head.vars()

    def body_vars(self) -> list:
        seen = []
        for a in self.body:
            for v in a.vars():
                if v not in seen:
                    seen.append(v)
        return seen

    def all_vars(self) -> list:
        seen = self.head.vars()
        for v in self.body_vars():
            if v not in seen:
                seen.append(v)
        return seen

    def var_occurrences(self) -> dict:
        """Total occurrence count per variable name across head and body."""
        counts: dict = {}
        for atom in (self.head, *self.body):
            for t in atom.terms:
                if isinstance(t, Var):
                    counts[t.name] = counts.get(t.name, 0) + 1
        return counts

    def __str__(self) -> str:
        return format_rule(self)


@dataclass(frozen=True)
class Program:
    """A validated datalog program with its IDB/EDB partition."""
    rules: tuple
    idb: frozenset
    edb: frozenset

    @classmethod
    def from_rules(cls, rules) -> "Program":
        rules = tuple(rules)
        if not rules:
            raise ValidationError("a program must contain at least one rule")
        idb = frozenset(r.head.pred for r in rules)
        preds: set = set()
        for r in rules:
            for a in (r.head, *r.body):
                preds.add(a.pred)
        edb = frozenset(preds - idb)
        prog = cls(rules=rules, idb=idb, edb=edb)
        prog.validate()
        return prog

    @property
    def rule_count(self) -> int:
        return len(self.rules)

    @property
    def term_count(self) -> int:
        """Total number of term occurrences across all atoms of all rules."""
        return sum(
            len(a.terms) for r in self.rules for a in (r.head, *r.body)
        )

    def arities(self) -> dict:
        out: dict = {}
        for r in self.rules:
            for a in (r.head, *r.body):
                out.setdefault(a.pred, a.arity)
        return out

    def validate(self) -> None:
        if self.idb & self.edb:
            raise ValidationError(
                f"predicates both derived and extensional: {sorted(self.idb & self.edb)}"
            )
        arities: dict = {}
        for r in self.rules:
            if not r.body:
                raise ValidationError(
                    f"rule for {r.head.pred} has an empty body; "
                    "ground facts belong in EDB files"
                )
            for a in (r.head, *r.body):
                known = arities.setdefault(a.pred, a.arity)
                if known != a.arity:
                    raise ValidationError(
                        f"predicate {a.pred} used with arities {known} and {a.arity}"
                    )
            for t in r.head.terms:
                if is_internal_var(t):
                    raise ValidationError(
                        f"wildcard in head of rule for {r.head.pred}"
                    )
            bv = set(r.body_vars())
            for v in r.head_vars():
                if v not in bv:
                    raise ValidationError(
                        f"unsafe rule for {r.head.pred}: head variable {v} "
                        "does not appear in the body"
                    )

    def __str__(self) -> str:
        return print_program(self)


def classify_rule_atoms(r: Rule, p: Program):
    """Partition r's body into (idb atoms, edb atoms), preserving order."""
    known = p.idb | p.edb
    for a in (r.head, *r.body):
        if a.pred not in known:
            raise ValidationError(f"unknown predicate {a.pred}")
    idb_atoms = [a for a in r.body if a.pred in p.idb]
    edb_atoms = [a for a in r.body if a.pred in p.edb]
    return idb_atoms, edb_atoms


# ---------------------------------------------------------------------------
# Covers


def min_cover(need, sets) -> tuple | None:
    """Indices of a smallest subfamily of `sets` whose union holds `need`.

    Ties go to the lexicographically first index tuple.  Returns () when
    need is empty and None when no subfamily covers it.  No cover is
    smaller than |need| over the largest share of need one set holds, so
    smaller sizes are not tried.
    """
    bit = {x: 1 << i for i, x in enumerate(set(need))}
    full = (1 << len(bit)) - 1
    if not full:
        return ()
    masks = []  # each set's share of need
    for s in sets:
        m = 0
        for x in s:
            m |= bit.get(x, 0)
        masks.append(m)
    if reduce(or_, masks, 0) != full:
        return None
    largest = max(m.bit_count() for m in masks)
    for size in range(-(-len(bit) // largest), len(masks) + 1):
        for combo in combinations(range(len(masks)), size):
            m = 0
            for i in combo:
                m |= masks[i]
            if m == full:
                return combo
    raise AssertionError("unreachable: the sets cover need")


# ---------------------------------------------------------------------------
# Parsing

# Lexical pieces of both readers, for programs and EDB files.  Blanks are
# space, tab, CR and LF, and `%` starts a comment that runs to the end of
# its line.  The lookahead stops a comment from ending early, so blanks and
# comments can be read in only one way and backtracking stays linear.
_WS = r"[ \t\r\n]*"
_BLANK = r"(?:[ \t\r\n]|%[^\n]*(?![^\n]))*"
_NAME = r"[a-z][A-Za-z0-9_]*"  # a predicate or a symbol constant
_CONST = rf"-?[0-9]+|{_NAME}"
_VAR = r"[A-Z][A-Za-z0-9_]*"


def _terms(term: str) -> str:
    """One or more `term`s separated by `,`, with blanks around each."""
    arg = rf"{_WS}(?:{term}){_WS}"
    return rf"{arg}(?:,{arg})*"


# One rule of a program and the blanks and comments before it: a head atom
# without wildcards, `:-`, body atoms separated by `,`, and `.`, with only
# blanks inside.  At the end of the text the blanks meet `\Z`; anything
# else that starts no rule, a comment inside a rule included, is taken
# whole as the rest, which sends the text to `_Parser`.
_BODY_ATOM = rf"{_WS}{_NAME}{_WS}\({_terms(rf'{_CONST}|{_VAR}|_')}\)"
_RULE = re.compile(
    rf"{_BLANK}(?:({_NAME}){_WS}\(({_terms(rf'{_CONST}|{_VAR}')})\){_WS}:-"
    rf"((?:{_BODY_ATOM}{_WS},)*{_BODY_ATOM}){_WS}\.|\Z|(.+))",
    re.ASCII | re.DOTALL)
# An atom of a rule body that `_RULE` read: its name and its terms.
_ATOM = re.compile(rf"({_NAME}){_WS}\(([^)]*)\)")


_DIGITS = frozenset("0123456789")
_PUNCT = {":-": "ARROW", "(": "LPAR", ")": "RPAR", ",": "COMMA", ".": "DOT",
          "_": "WILD"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith(":-", i):
            tokens.append(_Token("ARROW", ":-", line, col))
            i += 2
            col += 2
            continue
        if c in "(),.":
            tokens.append(_Token(_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        if c == "_" and (i + 1 >= n or not (text[i + 1].isalnum() or text[i + 1] == "_")):
            tokens.append(_Token("WILD", "_", line, col))
            i += 1
            col += 1
            continue
        # integers are -?[0-9]+; str.isdigit also takes other scripts' digits
        if c in _DIGITS or (c == "-" and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kind = "VAR" if c.isupper() else "IDENT"
            tokens.append(_Token(kind, text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.fresh = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def expect(self, kind: str) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col,
            )
        self.pos += 1
        return tok

    def fresh_wildcard(self) -> Var:
        self.fresh += 1
        return Var(f"{INTERNAL_PREFIX}w{self.fresh}")

    def term(self, allow_wildcard: bool) -> Term:
        tok = self.peek()
        if tok.kind == "VAR":
            self.pos += 1
            return Var(tok.text)
        if tok.kind == "IDENT":
            self.pos += 1
            return Const(tok.text)
        if tok.kind == "INT":
            self.pos += 1
            return Const(int(tok.text))
        if tok.kind == "WILD":
            if not allow_wildcard:
                raise ParseError("wildcard not allowed in rule head",
                                 tok.line, tok.col)
            self.pos += 1
            return self.fresh_wildcard()
        raise ParseError(f"expected a term, found {tok.text!r}",
                         tok.line, tok.col)

    def atom(self, allow_wildcard: bool) -> Atom:
        name = self.expect("IDENT")
        self.expect("LPAR")
        terms = [self.term(allow_wildcard)]
        while self.peek().kind == "COMMA":
            self.pos += 1
            terms.append(self.term(allow_wildcard))
        self.expect("RPAR")
        return Atom(name.text, tuple(terms))

    def rule(self) -> Rule:
        head = self.atom(allow_wildcard=False)
        tok = self.peek()
        if tok.kind == "DOT":
            raise ParseError(
                "facts are not allowed in program text; use an EDB file",
                tok.line, tok.col,
            )
        self.expect("ARROW")
        body = [self.atom(allow_wildcard=True)]
        while self.peek().kind == "COMMA":
            self.pos += 1
            body.append(self.atom(allow_wildcard=True))
        self.expect("DOT")
        return Rule(head, tuple(body))

    def program(self) -> Program:
        rules = []
        while self.peek().kind != "EOF":
            rules.append(self.rule())
        if not rules:
            tok = self.peek()
            raise ParseError("empty program", tok.line, tok.col)
        return Program.from_rules(rules)


def _read_rules(text: str) -> list | None:
    """The rules of a text that `_RULE` reads whole, else None.  Each
    distinct term text becomes one term object; each wildcard is a fresh
    variable, numbered in text order as `_Parser` numbers it."""
    terms: dict = {}  # term text -> its one Var or Const
    wildcards = 0
    rules = []
    for head, head_terms, body, rest in _RULE.findall(text):
        if rest:
            return None
        if not head:
            continue
        atoms = []
        for name, args in ((head, head_terms), *_ATOM.findall(body)):
            ts = []
            for a in args.split(","):
                a = a.strip()
                if a == "_":
                    wildcards += 1
                    ts.append(Var(f"{INTERNAL_PREFIX}w{wildcards}"))
                    continue
                t = terms.get(a)
                if t is None:
                    if a[0] in "-0123456789":
                        try:
                            t = Const(int(a))
                        except ValueError:  # past Python's int digit limit
                            return None
                    else:
                        t = Var(a) if a[0].isupper() else Const(a)
                    terms[a] = t
                ts.append(t)
            atoms.append(Atom(name, tuple(ts)))
        rules.append(Rule(atoms[0], tuple(atoms[1:])))
    return rules


def parse_program(text: str) -> Program:
    """Parse and validate a program in the textual dialect.

    One pattern reads the rules of a well-formed text whose tokens are
    ASCII and whose comments stand between rules.  Any other text, an
    empty or malformed one included, is read by `_Parser`, which raises
    the positioned `ParseError`."""
    rules = _read_rules(text)
    if not rules:
        return _Parser(text).program()
    return Program.from_rules(rules)


# ---------------------------------------------------------------------------
# Printing


def _name_vars(rule: Rule, names: dict, taken: set, fresh: str) -> dict:
    """Complete `names` (variable name -> display string) for rule.

    A variable not yet named prints as `_` if it occurs once, and as the
    first `{fresh}{i}` not in `taken` otherwise.
    """
    counts = rule.var_occurrences()
    gen = 0
    for v in rule.all_vars():
        if v in names:
            continue
        if counts[v] == 1:
            names[v] = "_"
        else:
            while f"{fresh}{gen}" in taken:
                gen += 1
            names[v] = f"{fresh}{gen}"
            taken.add(names[v])
    return names


def _display_names(rule: Rule) -> dict:
    """Map variable names to display strings: surface variables keep
    their names, internal ones print as `_` or a fresh `U{i}`."""
    names = {v: v for v in rule.all_vars()
             if not v.startswith(INTERNAL_PREFIX)}
    return _name_vars(rule, names, set(names), "U")


def _adornment_display(rep: Rule, args: tuple) -> str:
    """Render an adornment rule, naming its head variables after the
    display names `args` of the adorned atom they stand for."""
    names: dict = {}
    taken = set()
    for t, arg in zip(rep.head.terms, args):
        if isinstance(t, Var) and isinstance(arg, Var):
            if not arg.name.startswith(INTERNAL_PREFIX) \
                    and arg.name not in taken:
                names.setdefault(t.name, arg.name)
                taken.add(arg.name)
    _name_vars(rep, names, taken, "V")
    head = format_atom(rep.head, names)
    if not rep.body:
        return head
    return f"{head} :- " + ", ".join(format_atom(a, names) for a in rep.body)


def format_term(t: Term, names: dict | None = None) -> str:
    if isinstance(t, Var):
        if names is not None:
            return names.get(t.name, t.name)
        return t.name
    return str(t.value)


def format_atom(a: Atom, names: dict | None = None) -> str:
    """`p(args)`, or `p[adornment](args)` for an adorned atom."""
    args = [format_term(t, names) for t in a.terms]
    adornment = ""
    if a.adornment is not None:
        shown = tuple(Var(s) if isinstance(t, Var) else t
                      for t, s in zip(a.terms, args))
        adornment = f"[{_adornment_display(a.adornment.rule, shown)}]"
    return f"{a.pred}{adornment}({','.join(args)})"


def format_rule(r: Rule, terminator: str = ".") -> str:
    names = _display_names(r)
    head = format_atom(r.head, names)
    body = ", ".join(format_atom(a, names) for a in r.body)
    return f"{head} :- {body}{terminator}"


def print_program(p) -> str:
    """Render a Program (or anything exposing .pretty()) deterministically."""
    if isinstance(p, Program):
        if not p.rules:
            raise ValidationError("cannot print an empty program")
        return "\n".join(format_rule(r) for r in p.rules) + "\n"
    pretty = getattr(p, "pretty", None)
    if pretty is None:
        raise TypeError(f"cannot print object of type {type(p).__name__}")
    return pretty()
