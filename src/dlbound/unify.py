"""Simultaneous most general unifiers as dicts, renaming apart by
position tag, canonical forms for rules, and rule subsumption."""

from __future__ import annotations

from math import inf

from .core import Atom, Const, INTERNAL_PREFIX, Rule, Term, Var
from .join import _Join, _Relation


def substitute(sub: dict, terms) -> tuple:
    """terms with each variable that sub binds replaced by its term."""
    return tuple(sub.get(t.name, t) if isinstance(t, Var) else t
                 for t in terms)


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


def tagged(r: Rule, j: int) -> Rule:
    """r with each variable V renamed _{j}V.  Parsed and canonical names
    never start with `_` and a digit, so renamings by distinct tags share
    no variable with each other or with such a rule."""
    def tag(terms) -> tuple:
        return tuple(Var(f"{INTERNAL_PREFIX}{j}{t.name}")
                     if isinstance(t, Var) else t for t in terms)

    return Rule(Atom(r.head.pred, tag(r.head.terms)),
                tuple(Atom(a.pred, tag(a.terms)) for a in r.body))


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


def _dedup_once(head_terms, items):
    """One pass of `_dedup_items`.  Only atoms whose predicate key occurs
    more than once can be twins, so only they get a pattern."""
    keys: dict = {}
    for item in items:
        keys[item[0]] = keys.get(item[0], 0) + 1
    if len(keys) == len(items):
        return items
    counts: dict = {}
    for terms in (head_terms, *[item[1] for item in items]):
        for t in terms:
            if isinstance(t, Var):
                counts[t.name] = counts.get(t.name, 0) + 1

    def pattern(pred_key, terms):
        # a variable by its name, None if it occurs once, a constant by
        # its signature
        return pred_key, tuple([
            (t.name if counts[t.name] > 1 else None) if isinstance(t, Var)
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
    """
    body_items = _dedup_items(head_terms, list(body_items))

    labels: dict = {}
    for t in head_terms:
        if isinstance(t, Var) and t.name not in labels:
            labels[t.name] = len(labels)
    head_sig = (head_key, tuple(_term_sig(t, labels) for t in head_terms))
    pred_keys = [pk for pk, _ in body_items]
    rows = [[_term_sig(t, labels) for t in terms] for _, terms in body_items]

    def render(rows):
        return (head_sig, tuple(sorted(zip(pred_keys, map(tuple, rows)))))

    occurrences: dict = {}  # unlabeled variable -> [(pk, position, atom)]
    for i, (pk, terms) in enumerate(body_items):
        for pos, t in enumerate(terms):
            if isinstance(t, Var) and t.name not in labels:
                occurrences.setdefault(t.name, []).append((pk, pos, i))
    if not occurrences:
        return render(rows)

    def invariant(v, rows):
        return tuple(sorted([(pk, pos, tuple(rows[i]))
                             for pk, pos, i in occurrences[v]]))

    def label(v, rows, sigs, order):
        sig = ("v", len(labels) + len(order))
        order.append(v)
        del sigs[v]
        for _, pos, i in occurrences[v]:
            rows[i][pos] = sig
        # only the signatures of variables sharing an atom with v change
        for w in {t.name for _, _, i in occurrences[v]
                  for t in body_items[i][1] if isinstance(t, Var)}:
            if w in sigs:
                sigs[w] = invariant(w, rows)

    # sigs: unlabeled variable -> signature, in first-occurrence order;
    # order: the variables labeled so far, by label
    sigs = {v: invariant(v, rows) for v in occurrences}
    order: list = []
    first = best = None  # (rendering, order) of the first and least leaf
    autos = []  # automorphisms found, as variable -> variable
    stack = []  # tied frames: [rows, sigs, order, tied, next index]
    while True:
        while sigs:
            least = min(sigs.values())
            tied = [v for v, sig in sigs.items() if sig == least]
            if len(tied) > 1:
                stack.append([[list(r) for r in rows], dict(sigs),
                              list(order), tied, 1])
            label(tied[0], rows, sigs, order)
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
            rows, sigs, order, tied, i = frame
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
            frame[4] = i + 1
            if i + 1 < len(tied):
                rows = [list(r) for r in rows]
                sigs, order = dict(sigs), list(order)
            else:  # the frame's last candidate takes its state
                stack.pop()
            label(tied[i], rows, sigs, order)
            break
        else:
            return best[0]


def _pred_key(a: Atom) -> tuple:
    """An atom's predicate as canonical keys see it: adorned atoms of one
    base predicate differ by their adornments."""
    if a.adornment is None:
        return ("p", a.pred)
    return ("q", a.pred, a.adornment.key)


def canonical_form(r: Rule) -> tuple:
    """Canonical key of a rule, plain or adorned."""
    return canonical_key(_pred_key(r.head), r.head.terms,
                         [(_pred_key(a), a.terms) for a in r.body])


def _sig_to_term(sig, singleton_labels) -> Term:
    if sig[0] == "v":
        label = sig[1]
        if label in singleton_labels:
            return Var(f"{INTERNAL_PREFIX}c{label}")
        return Var(f"V{label}")
    return Const(sig[1])


def rule_of_key(key: tuple) -> Rule:
    """The standard representative of the plain rules whose canonical
    key is `key`; its own canonical key is `key` again.

    Head variables are named V0, V1, ... by head position; body-only
    variables occurring exactly once get internal (wildcard) names.
    """
    (head_key, head_sigs), body = key
    counts: dict = {}
    head_labels = set()
    for sig in head_sigs:
        if sig[0] == "v":
            counts[sig[1]] = counts.get(sig[1], 0) + 1
            head_labels.add(sig[1])
    for _, sigs in body:
        for sig in sigs:
            if sig[0] == "v":
                counts[sig[1]] = counts.get(sig[1], 0) + 1
    singles = {lab for lab, c in counts.items()
               if c == 1 and lab not in head_labels}
    head = Atom(head_key[1],
                tuple(_sig_to_term(s, singles) for s in head_sigs))
    atoms = tuple(
        Atom(pk[1], tuple(_sig_to_term(s, singles) for s in sigs))
        for pk, sigs in body
    )
    return Rule(head, atoms)


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
    remembers failed states, which keeps chain-shaped rules tractable.
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
