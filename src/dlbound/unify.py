"""Simultaneous most general unifiers as dicts, canonical forms for
rules and their standard representatives, and rule subsumption."""

from __future__ import annotations

from math import inf

from .core import Atom, Const, INTERNAL_PREFIX, Rule, Term, Var
from .join import _Join, _Relation


def substitute(sub: dict, terms) -> tuple:
    """terms with each variable that sub binds replaced by its term."""
    return tuple([sub.get(t.name, t) if isinstance(t, Var) else t
                  for t in terms])


def mgu(pairs) -> dict | None:
    """Simultaneous most general unifier of a list of term-tuple pairs,
    as a map from variable names to terms; the mgu of no pairs is {}.

    Returns None on failure.  A union-find over the variables: each class
    is named by its constant, else by its variable whose first occurrence
    in the flattened pair list is earliest, making the result
    deterministic.
    """
    order: dict = {}
    equations = []
    for s_tuple, t_tuple in pairs:
        if len(s_tuple) != len(t_tuple):
            raise ValueError("tuples in a unification pair differ in length")
        for t in (*s_tuple, *t_tuple):
            if isinstance(t, Var):
                order.setdefault(t.name, len(order))
        equations.extend(zip(s_tuple, t_tuple))

    parent: dict = {}  # variable name -> a term of its class; roots absent

    def find(t: Term) -> Term:
        while isinstance(t, Var) and t.name in parent:
            t = parent[t.name]
        return t

    for s, t in equations:
        s, t = find(s), find(t)
        if s == t:
            continue
        if isinstance(s, Const):
            if isinstance(t, Const):
                return None
            s, t = t, s
        if isinstance(t, Var) and order[t.name] > order[s.name]:
            s, t = t, s
        parent[s.name] = t
    sub = {v: find(t) for v, t in parent.items()}
    # idempotence and soundness are cheap to assert here
    for s_tuple, t_tuple in pairs:
        assert substitute(sub, s_tuple) == substitute(sub, t_tuple)
    return sub


# ---------------------------------------------------------------------------
# Canonical forms


def _term_sig(t: Term, labels: dict):
    if isinstance(t, Var):
        if t.name in labels:
            return ("v", labels[t.name])
        return ("v?",)
    if isinstance(t.value, int):
        return ("ci", t.value)
    return ("cs", str(t.value))


def _dedup_items(head_terms, items):
    """Drop body atoms identical to an earlier one up to renaming of
    variables that occur only once in the whole rule.  An item is
    (pred key, terms, ...); the kept items are returned whole.

    A drop can leave a variable occurring once, which makes two more
    atoms twins, so the pass repeats while it drops anything."""
    kept = _dedup_once(head_terms, items)
    while len(kept) < len(items):
        items, kept = kept, _dedup_once(head_terms, kept)
    return kept


def _dedup_once(head_terms, items, occurrences=None):
    """One pass of `_dedup_items`, given each body-only variable's
    occurrences if they are at hand (counting afresh costs
    `canonical_key` 4-5% of its time on the benchmarks' keys).  Only
    atoms whose predicate key occurs more than once can be twins, so
    only they get a pattern."""
    keys: dict = {}
    for item in items:
        keys[item[0]] = keys.get(item[0], 0) + 1
    if len(keys) == len(items):
        return items
    if occurrences is not None:
        once = {v for v, occ in occurrences.items() if len(occ) == 1}
    else:
        counts: dict = {}
        for terms in (head_terms, *[item[1] for item in items]):
            for t in terms:
                if isinstance(t, Var):
                    counts[t.name] = counts.get(t.name, 0) + 1
        once = {v for v, n in counts.items() if n == 1}

    def pattern(pred_key, terms):
        # a variable by its name, None if it occurs once, a constant by
        # its signature
        return pred_key, tuple([
            (None if t.name in once else t.name) if isinstance(t, Var)
            else _term_sig(t, {}) for t in terms])

    seen = set()
    out = []
    for item in items:
        if keys[item[0]] > 1:
            p = pattern(item[0], item[1])
            if p in seen:
                continue
            seen.add(p)
        out.append(item)
    return out


# Bodies of at least this many atoms, twins dropped, read the least
# signature off cells of equal signatures; smaller ones scan every
# signature, which costs them less.  Timed by body size on the keys of
# one pass of the adorn-heavy benchmark, cells take 1.2-1.4x the scan's
# time at 2 to 4 atoms and 1.05-1.17x at 5 to 12, break even at 13 to
# 15 and win from 16 on (1.6x at 30 or more); a loop with cells only
# takes 1.1x this one's time over adorn-heavy's keys and 1.14x over
# corpus-mix's, none of which has 5 atoms.
_CELLS_FROM = 15


def canonical_key(head_key, head_terms, body_items) -> tuple:
    """Canonical key for a rule given as (head pred key, head terms,
    [(body pred key, body terms)]).

    Two rules get equal keys iff they are identical up to variable renaming
    and body reordering/duplication.  Head variables are labeled by first
    occurrence in the head; remaining variables by a depth-first search
    for the lexicographically least rendering, which at each step tries
    every unlabeled variable whose occurrence signature is least.

    Each body atom has a row of term signatures, and labeling a variable
    writes its label into the rows in place; state is copied only where
    several variables tie.  Two leaves with equal renderings give an
    automorphism, and a tied variable in the orbit of one already tried,
    under the automorphisms found that fix every variable labeled above
    it, would only repeat that one's renderings, so it is skipped (the
    pruning of nauty: McKay & Piperno, J. Symb. Comp. 2014).

    On long bodies the unlabeled variables sit in cells keyed by
    signature, so a step compares distinct signatures only, and a label
    moves only the variables sharing an atom with the labeled one; tied
    variables are tried in first-occurrence order, as a scan finds them.
    """
    labels: dict = {}
    for t in head_terms:
        if isinstance(t, Var) and t.name not in labels:
            labels[t.name] = len(labels)
    head_sig = (head_key, tuple(_term_sig(t, labels) for t in head_terms))

    items = list(body_items)
    while True:
        # one walk gives the rows, each unlabeled variable's occurrences
        # as [(pk, position, atom)] and each atom's unlabeled variables;
        # the variables occurring once tell twins apart
        rows, occurrences, names = [], {}, []
        for i, (pk, terms) in enumerate(items):
            row, here = [], []
            for pos, t in enumerate(terms):
                if not isinstance(t, Var):
                    row.append(_term_sig(t, labels))
                elif t.name in labels:
                    row.append(("v", labels[t.name]))
                else:
                    row.append(("v?",))
                    occurrences.setdefault(t.name, []).append((pk, pos, i))
                    here.append(t.name)
            rows.append(row)
            names.append(here)
        kept = _dedup_once(head_terms, items, occurrences)
        if len(kept) == len(items):
            break
        items = kept
    pred_keys = [pk for pk, _ in items]

    def render(rows):
        return (head_sig, tuple(sorted(zip(pred_keys, map(tuple, rows)))))

    if not occurrences:
        return render(rows)

    def invariant(v, rows):
        return tuple(sorted([(pk, pos, tuple(rows[i]))
                             for pk, pos, i in occurrences[v]]))

    def leave(cells, v, sig):
        cell = cells[sig]
        cell.remove(v)
        if not cell:
            del cells[sig]

    def label(v, rows, sigs, cells, order):
        sig = ("v", len(labels) + len(order))
        order.append(v)
        if cells is not None:
            leave(cells, v, sigs[v])
        del sigs[v]
        for _, pos, i in occurrences[v]:
            rows[i][pos] = sig
        # only the signatures of variables sharing an atom with v change
        for w in {w for _, _, i in occurrences[v] for w in names[i]}:
            if w in sigs:
                new = invariant(w, rows)
                if cells is not None:
                    leave(cells, w, sigs[w])
                    cells.setdefault(new, set()).add(w)
                sigs[w] = new

    def copy(rows, sigs, cells, order):
        return ([list(r) for r in rows], dict(sigs), None if cells is None
                else {sig: set(cell) for sig, cell in cells.items()},
                list(order))

    # sigs: unlabeled variable -> signature, in first-occurrence order;
    # cells: signature -> its unlabeled variables, on long bodies;
    # order: the variables labeled so far, by label
    sigs = {v: invariant(v, rows) for v in occurrences}
    cells = None
    if len(items) >= _CELLS_FROM:
        rank = {v: r for r, v in enumerate(occurrences)}
        cells = {}
        for v, sig in sigs.items():
            cells.setdefault(sig, set()).add(v)
    order: list = []
    first = best = None  # (rendering, order) of the first and least leaf
    autos = []  # automorphisms found, as variable -> variable
    stack = []  # tied frames: [rows, sigs, cells, order, tied, next index]
    while True:
        while sigs:
            if cells is None:
                least = min(sigs.values())
                tied = [v for v, sig in sigs.items() if sig == least]
            else:
                cell = cells[min(cells)]
                tied = sorted(cell, key=rank.get) if len(cell) > 1 \
                    else [*cell]
            if len(tied) > 1:
                stack.append([*copy(rows, sigs, cells, order), tied, 1])
            label(tied[0], rows, sigs, cells, order)
        leaf = (render(rows), order)
        if first is None:
            first = best = leaf
        elif leaf[0] == first[0]:
            autos.append(dict(zip(first[1], order)))
        elif leaf[0] == best[0]:
            autos.append(dict(zip(best[1], order)))
        elif leaf[0] < best[0]:
            best = leaf
        while stack:
            frame = stack[-1]
            rows, sigs, cells, order, tied, i = frame
            # skip the orbit of the variables tried here, under the
            # automorphisms found that fix every variable labeled above
            fixing = [g for g in autos if all(g[x] == x for x in order)]
            orbit = new = set(tied[:i])
            while fixing and new:
                new = {g[x] for g in fixing for x in new} - orbit
                orbit |= new
            while i < len(tied) and tied[i] in orbit:
                i += 1
            if i == len(tied):
                stack.pop()
                continue
            frame[5] = i + 1
            if i + 1 < len(tied):
                rows, sigs, cells, order = copy(rows, sigs, cells, order)
            else:  # the frame's last candidate takes its state
                stack.pop()
            label(tied[i], rows, sigs, cells, order)
            break
        else:
            return best[0]


def _pred_key(a: Atom) -> tuple:
    """An atom's predicate as canonical keys see it: adorned atoms of one
    base predicate differ by their adornments."""
    if a.adornment is None:
        return ("p", a.pred)
    return ("q", a.pred, a.adornment.key)


def items_of(r: Rule) -> tuple:
    """A rule, plain or adorned, as `canonical_key` takes it: (head pred
    key, head terms, [(body pred key, terms)])."""
    return (_pred_key(r.head), r.head.terms,
            [(_pred_key(a), a.terms) for a in r.body])


def rule_of_items(head_key, head_terms, items) -> Rule:
    """The plain rule that `items_of` gives as these items."""
    return Rule(Atom(head_key[1], head_terms),
                tuple(Atom(pk[1], terms) for pk, terms in items))


def canonical_form(r: Rule) -> tuple:
    """Canonical key of a rule, plain or adorned."""
    return canonical_key(*items_of(r))


def key_terms(key: tuple, prefix: str = "") -> tuple:
    """The standard representative of the plain rules whose canonical
    key is `key`, as (head terms, [(body pred key, terms)]), each
    variable name prefixed by `prefix`.

    Head variables are named V0, V1, ... by label; body-only variables
    occurring exactly once get internal (wildcard) names.  Parsed and
    canonical names never start with `_` and a digit, so instances with
    prefixes `_0`, `_1`, ... share no variable with each other or with
    such a rule.
    """
    (_, head_sigs), body = key
    counts: dict = {}
    for sig in head_sigs:
        if sig[0] == "v":
            counts[sig[1]] = 2  # a head label is never a wildcard
    for _, sigs in body:
        for sig in sigs:
            if sig[0] == "v":
                counts[sig[1]] = counts.get(sig[1], 0) + 1
    terms: dict = {}  # signature -> its term
    for label, count in counts.items():
        name = f"{INTERNAL_PREFIX}c{label}" if count == 1 else f"V{label}"
        terms["v", label] = Var(prefix + name)

    def term(sig) -> Term:
        return terms[sig] if sig[0] == "v" else Const(sig[1])

    return (tuple(map(term, head_sigs)),
            [(pk, tuple(map(term, sigs))) for pk, sigs in body])


def rule_of_key(key: tuple) -> Rule:
    """The standard representative of `key` (`key_terms`) as a rule; its
    own canonical key is `key` again."""
    return rule_of_items(key[0][0], *key_terms(key))


# ---------------------------------------------------------------------------
# Subsumption


def distance_profile(head, body) -> tuple:
    """Distances from a rule's head terms in the Gaifman graph of its
    body (terms as vertices, adjacent when they share an atom), given
    the head's terms and the body as (pred, terms) atoms over any
    hashable values, one value per term: (body predicates, per head
    position i: (distance to each head term j, (pred, arity) -> distance
    to its nearest atom, 0 if term i occurs in one)).  Unreachable
    entries are `inf` or absent."""
    occurs: dict = {}
    for i, (_, terms) in enumerate(body):
        for t in terms:
            occurs.setdefault(t, []).append(i)
    rows = []
    for s in head:
        dist, near, expanded = {s: 0}, {}, set()
        frontier, d = [s], 0
        while frontier:
            nxt = []
            for t in frontier:
                for i in occurs.get(t, ()):
                    if i in expanded:
                        continue
                    expanded.add(i)
                    pred, terms = body[i]
                    near.setdefault((pred, len(terms)), d)
                    for u in terms:
                        if u not in dist:
                            dist[u] = d + 1
                            nxt.append(u)
            frontier, d = nxt, d + 1
        rows.append((tuple(dist.get(t, inf) for t in head), near))
    return frozenset((pred, len(terms)) for pred, terms in body), tuple(rows)


def may_subsume(p1: tuple, p2: tuple) -> bool:
    """False when no head-fixing homomorphism maps the rule profiled p1
    into the one profiled p2: one maps paths to walks and P-atoms to
    P-atoms, so p2's distances are at most p1's, and p2's body has every
    predicate of p1's."""
    if not p1[0] <= p2[0]:
        return False
    for (heads1, near1), (heads2, near2) in zip(p1[1], p2[1]):
        if any(b > a for a, b in zip(heads1, heads2)):
            return False
        if any(near2.get(k, inf) > d for k, d in near1.items()):
            return False
    return True


def subsumes(r1: Rule, r2: Rule) -> bool:
    """True iff a homomorphism maps r1 into r2, matching heads positionally.

    The subsumer r1 derives a superset of r2's tuples.  This is r1, its
    head an extra atom, as a conjunctive query over r2 frozen into a
    database: a constant stands for itself and a variable for a 1-tuple,
    which equals no constant.  Exponential in the worst case; the join
    drops a binding whose state it has met before, which keeps
    chain-shaped rules tractable.
    """
    if r1.head.pred != r2.head.pred or r1.head.arity != r2.head.arity:
        raise ValueError(
            f"subsumption needs matching heads: "
            f"{r1.head.pred}/{r1.head.arity} vs {r2.head.pred}/{r2.head.arity}"
        )

    def frozen(a: Atom) -> tuple:
        return tuple((t.name,) if isinstance(t, Var) else t.value
                     for t in a.terms)

    facts: dict = {}
    for b in r2.body:
        facts.setdefault((b.pred, b.arity), set()).add(frozen(b))
    if any((a.pred, a.arity) not in facts for a in r1.body):
        return False
    rels = {k: (_Relation(rows),) for k, rows in facts.items()}
    join = _Join([r1.head.terms, *(a.terms for a in r1.body)])
    return join.exists([(_Relation({frozen(r2.head)}),), *(
        rels[a.pred, a.arity] for a in r1.body)])
