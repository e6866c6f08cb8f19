"""The conjunctive-join kernel: relations with hash indexes built on first
use, and a compiled, iterative join over a body of atoms.  Evaluation,
Horn grounding and rule subsumption all run on it."""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .core import Const


# `_Join.run` makes every _DEEP-th level of bindings a list, so that at
# most _DEEP generators nest, far below the recursion limit
_DEEP = 64


def _tuple_getter(positions):
    """Tuple of the values at `positions`, also for zero or one position."""
    if len(positions) == 1:
        i = positions[0]
        return lambda slots: (slots[i],)
    if not positions:
        return lambda slots: ()
    return itemgetter(*positions)


class _Relation:
    """A set of equal-arity tuples with hash indexes built on first use,
    one per tuple of key positions, kept current as rows are added.  An
    index key is a scalar for one position and a tuple for several (what
    `itemgetter` returns), both when built and when looked up."""

    __slots__ = ("rows", "_indexes")

    def __init__(self, rows):
        self.rows = rows
        self._indexes: dict = {}

    def index(self, positions) -> dict:
        idx = self._indexes.get(positions)
        if idx is None:
            idx = {}
            key = itemgetter(*positions)
            for row in self.rows:
                idx.setdefault(key(row), []).append(row)
            self._indexes[positions] = idx
        return idx

    def add(self, rows) -> None:
        """Add rows, none of which is present yet."""
        self.rows |= rows
        for positions, idx in self._indexes.items():
            key = itemgetter(*positions)
            for row in rows:
                idx.setdefault(key(row), []).append(row)


class _Join:
    """One compiled conjunctive join over a rule body.

    Atoms run in a greedy bound-first order: next is the atom with the
    most positions already fixed (constants or bound variables), ties
    going to the earlier body position.  Each atom is then a hash lookup
    on those positions; its other positions bind new variables or, for a
    variable repeated within the atom, check equality.

    A binding is a tuple of slots in bind order: the body's constants,
    then the variables in the order the plan binds them.  `run` works set
    at a time: each step is one comprehension that extends every binding
    of the step before with the rows its index returns.  The steps are
    chained lazily, so bindings stream and the last step is never held in
    memory; every `_DEEP` steps a level is made a list, which keeps the
    nesting of generators shallow on long bodies.  `exists` pulls the same
    chain depth first and keeps one set of seen states per step.
    """

    def __init__(self, atoms):
        # score[j]: positions of atom j fixed so far, raised as variables bind
        score = [0] * len(atoms)
        occurs: dict = {}
        for j, terms in enumerate(atoms):
            for t in terms:
                if isinstance(t, Const):
                    score[j] += 1
                else:
                    occurs.setdefault(t.name, []).append(j)
        # a variable's slot follows the constants' slots, in bind order
        self.slot_of = slot_of = {}
        consts: list = []
        top = sum(score)  # the next variable's slot
        remaining = list(range(len(atoms)))
        steps = []
        while remaining:
            best = max(remaining, key=score.__getitem__)
            remaining.remove(best)
            lo = top  # this step's first new slot
            positions, key_slots, new, eqs = [], [], [], []
            for pos, t in enumerate(atoms[best]):
                if isinstance(t, Const):
                    positions.append(pos)
                    key_slots.append(len(consts))
                    consts.append(t.value)
                    continue
                s = slot_of.get(t.name)
                if s is None:
                    slot_of[t.name] = top
                    top += 1
                    new.append(pos)
                    for j in occurs[t.name]:
                        score[j] += 1
                elif s < lo:
                    positions.append(pos)
                    key_slots.append(s)
                else:  # repeated within the atom
                    eqs.append((new[s - lo], pos))
            # grow(row): the values the row gives the new slots lo..top-1
            if not new or new[-1] - new[0] == len(new) - 1:
                grow = itemgetter(slice(new[0], new[-1] + 1) if new
                                  else slice(0, 0))
            else:
                grow = itemgetter(*new)
            # (atom, key positions, key getter, new slots, equalities,
            # key slots, grow)
            steps.append((best, tuple(positions),
                          itemgetter(*key_slots) if key_slots else None,
                          slice(lo, top), eqs, key_slots, grow))
        self.steps = steps
        self.init = tuple(consts)

    def getter(self, terms):
        """A function from a binding to the ground tuple of terms."""
        extra, positions = [], []
        width = len(self.init) + len(self.slot_of)
        for t in terms:
            if isinstance(t, Const):
                positions.append(width + len(extra))
                extra.append(t.value)
            else:
                positions.append(self.slot_of[t.name])
        get = _tuple_getter(positions)
        if not extra:
            return get
        extra = tuple(extra)
        return lambda binding: get(binding + extra)

    def run(self, sources):
        """The bindings that ground every atom in its source (sources[j]:
        a tuple of disjoint _Relation parts for atom j), streamed."""
        return self._run(sources, len(self.steps))

    def count(self, sources) -> int:
        """How many bindings `run` yields.  The last step's matching rows
        are summed, not walked, unless the step checks an equality."""
        if not self.steps:
            return 1
        step = self.steps[-1]
        j, positions, key, _, eqs = step[:5]
        prefixes = self._run(sources, len(self.steps) - 1)
        if eqs:
            return sum(1 for _ in _extend(prefixes, step, sources[j]))
        if not positions:
            return sum(1 for _ in prefixes) * sum(
                len(p.rows) for p in sources[j])
        indexes = [p.index(positions) for p in sources[j]]
        return sum(len(idx.get(key(b), ())) for b in prefixes
                   for idx in indexes)

    def _run(self, sources, n):
        """The bindings of the first n steps, chained lazily; none at once
        when a step's source is one empty part."""
        out = (self.init,)
        for depth in range(n):
            step = self.steps[depth]
            parts = sources[step[0]]
            if len(parts) == 1 and not parts[0].rows:
                return []
            if depth and not depth % _DEEP:
                out = list(out)
            out = _extend(out, step, parts)
        return out

    def exists(self, sources) -> bool:
        """Whether `run` yields a binding; stops at the first.  Before step
        d a binding is dropped when its state -- the values of the slots
        bound before d that step d or a later one reads as keys -- was met
        at d before: bindings in one state have the same continuations, so
        searching the first is enough."""
        steps, n_const = self.steps, len(self.init)
        # state[d]: the slots bound before step d and read from it on
        state, live = [], set()
        for step in reversed(steps):
            live.update(s for s in step[5] if s >= n_const)
            live.difference_update(range(step[3].start, step[3].stop))
            state.append(_tuple_getter(sorted(live)))
        state.reverse()
        out = (self.init,)
        for depth, step in enumerate(steps):
            if depth:
                out = _unseen(out, state[depth])
                if not depth % _DEEP:
                    out = list(out)
            out = _extend(out, step, sources[step[0]])
        return any(True for _ in out)


def _unseen(bindings, state):
    """The bindings whose state (a getter) no earlier one had."""
    seen = set()
    for b in bindings:
        s = state(b)
        if s not in seen:
            seen.add(s)
            yield b


def _extend(bindings, step, parts):
    """Every binding extended with each row of the step's source (a tuple
    of disjoint _Relation parts) that agrees with it on the key positions
    and passes the step's equality checks."""
    _, positions, key, new, eqs, _, grow = step
    if positions and new.start == new.stop:
        # every position is a key, so at most one row agrees: a semijoin
        indexes = [p.index(positions) for p in parts]
        return (b for b in bindings for idx in indexes if key(b) in idx)
    if eqs:
        left = itemgetter(*[a for a, _ in eqs])
        right = itemgetter(*[b for _, b in eqs])
    if not positions:
        # no key: every binding meets the same rows
        rows = parts[0].rows if len(parts) == 1 else \
            chain.from_iterable(p.rows for p in parts)
        if eqs:
            rows = (r for r in rows if left(r) == right(r))
        if isinstance(bindings, tuple):  # the first step's one binding
            (b,) = bindings  # the constants, if the body has any
            return (b + g for g in map(grow, rows)) if b else map(grow, rows)
        rows = list(map(grow, rows))
        return (b + g for b in bindings for g in rows)
    if len(parts) == 1 and not eqs:
        get = parts[0].index(positions).get
        return (b + grow(r) for b in bindings for r in get(key(b), ()))
    gets = [p.index(positions).get for p in parts]
    return (b + grow(r) for b in bindings for get in gets
            for r in get(key(b), ()) if not eqs or left(r) == right(r))
