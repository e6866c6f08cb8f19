"""Independent references for checking dlbound's CLI output.

Nothing here imports dlbound.  Programs are lists of rules
``(head, body)``; an atom is ``(key, terms)``; a term is a ``str``
(variable) or an ``int`` (constant).  Keys are predicate names, or
``(name, adornment key)`` pairs for adorned programs.  An EDB is a dict
from predicate name to a set of int tuples.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import comb, factorial

FLOAT_MAX_INT = 2 ** 1024  # float(x) raises OverflowError from here on


# ---------------------------------------------------------------------------
# Text: rendering and parsing


def render_atom(atom) -> str:
    pred, terms = atom
    return f"{pred}({','.join(str(t) for t in terms)})"


def render_program(rules) -> str:
    return "".join(
        f"{render_atom(h)} :- {', '.join(render_atom(a) for a in body)}.\n"
        for h, body in rules)


def render_edb(edb) -> str:
    return "".join(f"{pred}({','.join(map(str, t))}).\n"
                   for pred in sorted(edb) for t in sorted(edb[pred]))


_TOKEN = re.compile(r"\s*(:-|[A-Za-z_][A-Za-z0-9_]*|-?\d+|[()\[\],.])")


def _tokens(text: str) -> list:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize {text[pos:pos + 20]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _RuleParser:
    """Parses plain rules and the adorned form ``p[adornment](args)``."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0
        self.fresh = 0

    def take(self, want=None) -> str:
        tok = self.toks[self.i]
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r}, got {tok!r}")
        self.i += 1
        return tok

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def term(self):
        tok = self.take()
        if tok == "_":
            self.fresh += 1
            return f"_{self.fresh}"
        if tok[0].isupper():
            return tok
        if tok.lstrip("-").isdigit():
            return int(tok)
        raise ValueError(f"unexpected term {tok!r}")

    def atom(self):
        pred = self.take()
        key = pred
        if self.peek() == "[":
            self.take("[")
            key = (pred, _RuleParser(self._bracket_text()).adornment_key())
        self.take("(")
        terms = []
        if self.peek() != ")":
            terms.append(self.term())
            while self.peek() == ",":
                self.take(",")
                terms.append(self.term())
        self.take(")")
        return key, tuple(terms)

    def _bracket_text(self) -> str:
        depth, start = 1, self.i
        while depth:
            tok = self.take()
            depth += {"[": 1, "]": -1}.get(tok, 0)
        return " ".join(self.toks[start:self.i - 1])

    def rule(self):
        head = self.atom()
        body = []
        if self.peek() == ":-":
            self.take(":-")
        if self.peek() not in (".", None):
            body.append(self.atom())
            while self.peek() == ",":
                self.take(",")
                body.append(self.atom())
        if self.peek() == ".":
            self.take(".")
        if self.peek() is not None:
            raise ValueError(f"trailing input {self.toks[self.i:]}")
        return head, tuple(body)

    def adornment_key(self) -> tuple:
        """Key of an adornment that is equal for every rendering of it:
        head variables renamed by position, body variables by first
        occurrence, wildcards kept anonymous."""
        (pred, head_terms), body = self.rule()
        names: dict = {}
        for t in head_terms:
            if isinstance(t, str):
                names.setdefault(t, f"H{len(names)}")
        n_head = len(names)
        for _, terms in body:
            for t in terms:
                if isinstance(t, str) and not t.startswith("_"):
                    names.setdefault(t, f"B{len(names) - n_head}")

        def norm(terms):
            return tuple(names.get(t, "_") if isinstance(t, str) else t
                         for t in terms)
        return (pred, norm(head_terms),
                tuple((p, norm(ts)) for p, ts in body))


def parse_rule(text: str):
    return _RuleParser(text).rule()


# ---------------------------------------------------------------------------
# Program structure


def head_keys(rules) -> set:
    return {h[0] for h, _ in rules}


def is_recursive(rules) -> bool:
    """Does the predicate dependency graph have a cycle?"""
    idb = head_keys(rules)
    edges = {k: set() for k in idb}
    for (hk, _), body in rules:
        edges[hk].update(k for k, _ in body if k in idb)
    state: dict = {}
    for start in idb:
        if start in state:
            continue
        stack = [(start, iter(edges[start]))]
        state[start] = 1
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
            elif state.get(nxt) == 1:
                return True
            elif nxt not in state:
                state[nxt] = 1
                stack.append((nxt, iter(edges[nxt])))
    return False


def arities(rules) -> dict:
    out = {}
    for h, body in rules:
        for k, terms in (h, *body):
            out.setdefault(k, len(terms))
    return out


def _vars(terms) -> list:
    return [t for t in terms if isinstance(t, str)]


def classify(rules) -> list:
    """Linear / SimpleChain / AdornmentGroundable, by their definitions."""
    idb = head_keys(rules)
    classes = []
    if all(sum(1 for k, _ in body if k in idb) <= 1 for _, body in rules):
        classes.append("Linear")
    if all(len(body) <= 2 for _, body in rules):
        classes.append("SimpleChain")
    if all(_groundable_rule(h, body, idb) for h, body in rules):
        classes.append("AdornmentGroundable")
    return sorted(classes)


def _groundable_rule(head, body, idb) -> bool:
    head_vars = set(_vars(head[1]))
    edb_vars = set()
    for i, (k, terms) in enumerate(body):
        if k in idb:
            continue
        own = set(_vars(terms))
        edb_vars |= own
        others = {v for j, (_, ts) in enumerate(body) if j != i
                  for v in _vars(ts)}
        if not (own <= head_vars or (own & head_vars) - others):
            return False
    return all(set(_vars(terms)) <= head_vars | edb_vars
               for k, terms in body if k in idb)


# ---------------------------------------------------------------------------
# Evaluation


def tc_closure(edges) -> set:
    """Transitive closure by a BFS from every node."""
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
    out = set()
    for src in succ:
        seen, frontier = set(), [src]
        while frontier:
            nxt = []
            for x in frontier:
                for y in succ.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        out.update((src, y) for y in seen)
    return out


def _join(body, rels, index):
    """Bindings (dicts) satisfying every body atom, by backtracking with
    per-(relation, bound positions) hash indexes."""
    def lookup(key, terms, env):
        bound = tuple(i for i, t in enumerate(terms)
                      if not isinstance(t, str) or t in env)
        rel = rels.get(key, ())
        if not bound:
            return rel
        ix = index.get((key, bound))
        if ix is None:
            ix = {}
            for row in rel:
                ix.setdefault(tuple(row[i] for i in bound), []).append(row)
            index[(key, bound)] = ix
        probe = tuple(env[terms[i]] if isinstance(terms[i], str)
                      else terms[i] for i in bound)
        return ix.get(probe, ())

    def rec(i, env):
        if i == len(body):
            yield env
            return
        key, terms = body[i]
        for row in lookup(key, terms, env):
            if len(row) != len(terms):
                continue
            new = dict(env)
            for t, v in zip(terms, row):
                if isinstance(t, str):
                    if new.setdefault(t, v) != v:
                        break
                elif t != v:
                    break
            else:
                yield from rec(i + 1, new)

    yield from rec(0, {})


def naive_eval(rules, edb) -> dict:
    """Least fixpoint by naive iteration: every round re-derives from all
    facts, until a round adds nothing."""
    idb = head_keys(rules)
    rels = {k: set() for k in idb}
    for k, v in edb.items():
        rels.setdefault(k, set(v))
    changed = True
    while changed:
        changed = False
        index: dict = {}
        new: dict = {k: set() for k in idb}
        for (hk, hterms), body in rules:
            for env in _join(body, rels, index):
                t = tuple(env[x] if isinstance(x, str) else x for x in hterms)
                if t not in rels[hk]:
                    new[hk].add(t)
        for k, ts in new.items():
            if ts:
                rels[k] |= ts
                changed = True
    return {k: rels[k] for k in idb}


def union_by_base(result: dict) -> dict:
    out: dict = {}
    for key, tuples in result.items():
        base = key[0] if isinstance(key, tuple) else key
        out.setdefault(base, set()).update(tuples)
    return out


# ---------------------------------------------------------------------------
# Edge covers of adornments


def cover_sets(adn_key):
    """Head variables and per-atom head-variable sets of an adornment."""
    _, head_terms, body = adn_key
    head = {t for t in head_terms if isinstance(t, str)}
    return head, [set(ts) & head for _, ts in body]


def integral_cover(adn_key) -> int:
    head, edges = cover_sets(adn_key)
    if not head:
        return 0
    for k in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            if head <= set().union(*combo):
                return k
    raise ValueError("uncoverable adornment")


def fractional_cover(adn_key) -> Fraction:
    """Exact LP optimum through its dual, the fractional matching
    max sum(y_v) s.t. sum(y_v for v in e) <= 1, y >= 0, by enumerating
    every vertex of the dual polytope."""
    head, edges = cover_sets(adn_key)
    verts = sorted(head)
    n = len(verts)
    if n == 0:
        return Fraction(0)
    rows = [[Fraction(int(v in e)) for v in verts] for e in edges if e]
    rows = [list(r) for r in dict.fromkeys(tuple(r) for r in rows)]
    cons = [(r, Fraction(1)) for r in rows]
    cons += [([Fraction(-int(i == j)) for j in range(n)], Fraction(0))
             for i in range(n)]
    best = None
    for pick in itertools.combinations(cons, n):
        y = _solve([r for r, _ in pick], [b for _, b in pick])
        if y is None or any(sum(a * x for a, x in zip(r, y)) > b
                            for r, b in cons):
            continue
        val = sum(y)
        best = val if best is None or val > best else best
    return best


def _solve(a, b):
    """Unique solution of the square system a x = b, or None."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# Size bounds


def stirling2(n: int, k: int) -> int:
    """By inclusion-exclusion over the empty blocks."""
    if k > n:
        return 0
    return sum((-1) ** j * comb(k, j) * (k - j) ** n
               for j in range(k + 1)) // factorial(k)


def falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= max(n - i, 0)
    return out


def int_root_ceil(x: int, k: int) -> int:
    """Smallest r with r**k >= x, by integer bisection."""
    lo, hi = 0, 1
    while hi ** k < x:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k >= x:
            hi = mid
        else:
            lo = mid + 1
    return lo


def pow_ceil(n: int, e: Fraction) -> int:
    return int_root_ceil(n ** e.numerator, e.denominator)


def float_root_seed(n: int, e: Fraction) -> str:
    """How a float estimate of the k-th root of n ** e fares, k being e's
    denominator: "overflow" when int -> float conversion fails,
    "inexact" when the estimate can be off by one or more (the root
    exceeds 2**53), else "exact".  Whole exponents need no root."""
    if e.denominator == 1:
        return "exact"
    x = n ** e.numerator
    if x >= FLOAT_MAX_INT:
        return "overflow"
    return "inexact" if x >= 2 ** (53 * e.denominator) else "exact"


def predicate_bounds(rules, q, adns, n: int) -> dict:
    """The size-bound entry for q, given q's adornments."""
    ar = arities(rules)
    idb = head_keys(rules)
    edb_ar = [a for k, a in ar.items() if k not in idb]
    m, ear, arq = len(edb_ar), max(edb_ar, default=0), ar[q]
    terms = sum(len(a[1]) for h, body in rules for a in (h, *body))
    naive = 1 if arq == 0 else \
        (arq + terms) ** arq * 2 ** (m * ((arq + 1) ** ear - 1))
    entry = {"predicate": q, "f_exact": len(adns), "coeff_naive": naive}
    if not adns:
        entry.update(ew_integral=None, ew_fractional=None, bound1=0,
                     bound2=0, fpt_bound=0, coeff_minimal=None)
        return entry
    ewi = max(integral_cover(a) for a in adns)
    ewf = max(fractional_cover(a) for a in adns)
    b1 = sum(stirling2(arq, k) * falling(m * n, k) * ear ** arq
             for k in range(1, ewi + 1)) if ewi >= 1 else \
        (1 if arq == 0 else None)
    cmin = sum(stirling2(arq, k) * m ** k * ear ** arq
               for k in range(1, ewi + 1)) if ewi >= 1 else None
    root = pow_ceil(n, ewf)
    entry.update(
        ew_integral=str(Fraction(ewi)), ew_fractional=str(ewf),
        bound1=b1, bound2=(m * ear * arq) ** arq * root,
        fpt_bound=len(adns) * root, coeff_minimal=cmin)
    return entry
