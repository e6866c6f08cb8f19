"""Datalog AST, textual dialect parser, pretty-printer, program validation,
and the cover search behind every width and `verify`'s value cover.

Dialect: identifiers starting with an uppercase letter are variables,
lowercase identifiers are predicate symbols or symbol constants, integers
are constants, `_` is a wildcard (only in rule bodies), rules end with `.`,
`:-` separates head and body, `%` begins a line comment.
"""

from __future__ import annotations

import re
from itertools import islice


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

_set = object.__setattr__


class _Value:
    """Base of the package's immutable values.  A class's fields are its
    `__init__`'s parameters, which `__init__` fills by `_set` or `_init`.
    Equality (with an object of the same class only), hashing and repr
    read them in order, and every attribute is read-only."""
    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _init(self, *values) -> None:
        vars(self).update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Var(_Value):
    """A variable term."""
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))

    def __str__(self) -> str:
        return self.name


class Const(_Value):
    """A constant term: lowercase symbol or integer."""
    __slots__ = ("value",)

    def __init__(self, value):
        _set(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))

    def __str__(self) -> str:
        return str(self.value)


Term = Var | Const


def is_internal_var(t: Term) -> bool:
    """True for variables introduced internally (wildcard desugaring etc.)."""
    return isinstance(t, Var) and t.name.startswith(INTERNAL_PREFIX)


def _names(atoms) -> list:
    """The names of the variables in atoms, in order of first occurrence;
    linear time, as long bodies have many variables."""
    return list(dict.fromkeys([t.name for a in atoms for t in a.terms
                               if isinstance(t, Var)]))


class Atom(_Value):
    """A predicate applied to a tuple of terms.

    The IDB atoms of an adorned program carry their predicate's
    adornment (an `adorn.Adornment`); every other atom carries None.
    """
    __slots__ = ("pred", "terms", "adornment")

    def __init__(self, pred: str, terms: tuple, adornment=None):
        _set(self, "pred", pred)
        _set(self, "terms", terms)
        _set(self, "adornment", adornment)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.pred, self.terms, self.adornment)
                    == (other.pred, other.terms, other.adornment))
        return NotImplemented

    def __hash__(self):
        return hash((self.pred, self.terms, self.adornment))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def vars(self) -> list:
        """Variable names in order of first occurrence."""
        return _names((self,))

    def __str__(self) -> str:
        return format_atom(self)


class Rule(_Value):
    """A safe rule: head atom and a non-empty body."""
    __slots__ = ("head", "body")

    def __init__(self, head: Atom, body: tuple):
        _set(self, "head", head)
        _set(self, "body", body)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.head, self.body) == (other.head, other.body)
        return NotImplemented

    def __hash__(self):
        return hash((self.head, self.body))

    def head_vars(self) -> list:
        return self.head.vars()

    def body_vars(self) -> list:
        return _names(self.body)

    def all_vars(self) -> list:
        return _names((self.head, *self.body))

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


class Program(_Value):
    """A validated datalog program with its IDB/EDB partition."""

    def __init__(self, rules: tuple, idb: frozenset, edb: frozenset):
        self._init(rules, idb, edb)

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
                known = arities.setdefault(a.pred, len(a.terms))
                if known != len(a.terms):
                    raise ValidationError(
                        f"predicate {a.pred} used with arities {known} and {a.arity}"
                    )
            for t in r.head.terms:
                if is_internal_var(t):
                    raise ValidationError(
                        f"wildcard in head of rule for {r.head.pred}"
                    )
            bv = {t.name for a in r.body for t in a.terms
                  if isinstance(t, Var)}
            for t in r.head.terms:
                if isinstance(t, Var) and t.name not in bv:
                    raise ValidationError(
                        f"unsafe rule for {r.head.pred}: head variable {t} "
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


def min_cover(need, sets, most=None) -> tuple | None:
    """Indices of a smallest subfamily of `sets` whose union holds `need`.

    Ties go to the lexicographically first index tuple.  Returns () when
    need is empty and None when no subfamily of at most `most` sets covers
    it.  Sizes run up from |need| over the largest share of need one set
    holds.  At each, a depth-first search picks increasing indices; it
    drops a branch whose later sets miss an uncovered element or lack the
    room to cover the rest, and skips a set that adds nothing, which no
    smallest cover holds.
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
    n = len(masks)
    after = [0] * (n + 1)  # after[i], top[i]: masks[i:]'s union, top share
    top = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        after[i] = after[i + 1] | masks[i]
        top[i] = max(top[i + 1], masks[i].bit_count())
    if after[0] != full:
        return None
    most = n if most is None else min(most, n)
    for size in range(-(-len(bit) // top[0]), most + 1):
        stack, c, i = [], 0, 0  # each pick, with what was covered before it
        while True:
            room = size - len(stack)
            if (i < n and c | after[i] == full
                    and (full ^ c).bit_count() <= room * top[i]):
                if masks[i] & ~c:
                    if c | masks[i] == full:
                        return (*[j for j, _ in stack], i)
                    if room > 1:
                        stack.append((i, c))
                        c |= masks[i]
                i += 1
            elif stack:
                i, c = stack.pop()
                i += 1
            else:
                break
    return None


# ---------------------------------------------------------------------------
# Parsing

# One token of program or EDB text and the blanks and `%` comments before
# it.  Blanks are space, tab, CR and LF; a comment runs to the end of its
# line.  A token is `:-`, one of `(),.`, an integer `-?[0-9]+`, a run of
# word characters (`\w` is `str.isalnum()` or `_`), or any other single
# character.  At the end of the text the token is empty, and `findall`
# returns one or two empty strings there.
_TOKEN = re.compile(r"(?:[ \t\r\n]|%[^\n]*)*(:-|[(),.]|-?[0-9]+|\w+|.|\Z)",
                    re.DOTALL)
_PUNCTUATION = frozenset((":-", "(", ")", ",", ".", "_"))


def _is_int(tok: str) -> bool:
    """True for an integer token; `tok` may be the empty end token."""
    return "0" <= tok[:1] <= "9" or tok[:1] == "-" and len(tok) > 1


def _is_bad(tok: str) -> bool:
    """True for a non-empty token of no reader: a word that neither
    starts with a letter nor is the wildcard `_`, or a stray character."""
    return not (tok[0].isalpha() or _is_int(tok) or tok in _PUNCTUATION)


def _syntax_error(text: str, toks: list, i: int, error) -> Exception:
    """The error to raise when token `i` of `text` breaks the grammar.

    Every token before `i` was read, so the first bad character at or
    after it comes first.  Else `error` is a message placed at token `i`,
    or an exception returned as it is.  Columns count characters from 1,
    and a comment that ends the text does not move the end of input.
    """
    for j in range(i, len(toks)):
        if toks[j] and _is_bad(toks[j]):
            i, error = j, f"unexpected character {toks[j][0]!r}"
            break
    if not isinstance(error, str):
        return error
    at = next(islice(_TOKEN.finditer(text), i, None)).start(1)
    line_start = text.rfind("\n", 0, at) + 1
    if at == len(text) and "%" in text[line_start:]:
        at = text.index("%", line_start)
    return ParseError(error, text.count("\n", 0, at) + 1, at - line_start + 1)


def parse_program(text: str) -> Program:
    """Parse and validate a program in the textual dialect.

    One pattern splits the text into tokens and one walk reads the rules
    from them.  Each distinct term text becomes one term object, and each
    wildcard a fresh variable, `_w1`, `_w2`, ... in text order."""
    toks = _TOKEN.findall(text)

    def fail(i: int, error) -> Exception:
        return _syntax_error(text, toks, i, error)

    def expected(i: int, kind: str) -> Exception:
        return fail(i, f"expected {kind}, found {toks[i] or 'end of input'!r}")

    terms: dict = {}  # term text -> its one Var or Const
    wildcards = 0
    rules = []
    i = 0
    while toks[i]:
        atoms = []
        while True:  # the head atom, then each body atom
            name = toks[i]
            if not name[:1].isalpha() or name[0].isupper():
                raise expected(i, "IDENT")
            i += 1
            if toks[i] != "(":
                raise expected(i, "LPAR")
            args = []
            while True:
                i += 1
                t = toks[i]
                term = terms.get(t)
                if term is None:
                    if t == "_":
                        if not atoms:
                            raise fail(i, "wildcard not allowed in rule head")
                        wildcards += 1
                        term = Var(f"{INTERNAL_PREFIX}w{wildcards}")
                    elif t[:1].isalpha():
                        term = terms[t] = \
                            Var(t) if t[0].isupper() else Const(t)
                    elif _is_int(t):
                        try:
                            term = terms[t] = Const(int(t))
                        except ValueError as exc:  # past the digit limit
                            raise fail(i, exc) from None
                    else:
                        raise fail(i, "expected a term, found "
                                   f"{t or 'end of input'!r}")
                args.append(term)
                i += 1
                if toks[i] != ",":
                    break
            if toks[i] != ")":
                raise expected(i, "RPAR")
            atoms.append(Atom(name, tuple(args)))
            i += 1
            if len(atoms) > 1:
                if toks[i] != ",":
                    break
            elif toks[i] == ".":
                raise fail(i, "facts are not allowed in program text; "
                              "use an EDB file")
            elif toks[i] != ":-":
                raise expected(i, "ARROW")
            i += 1
        if toks[i] != ".":
            raise expected(i, "DOT")
        i += 1
        rules.append(Rule(atoms[0], tuple(atoms[1:])))
    if not rules:
        raise fail(i, "empty program")
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
