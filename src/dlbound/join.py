"""The conjunctive-join kernel: relations with hash indexes built on first
use, and a compiled, iterative join over a body of atoms.  Evaluation,
Horn grounding and rule subsumption all run on it."""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .core import Const


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

    Every variable and constant gets a slot in a flat list.  Atoms run in
    a greedy bound-first order: next is the atom with the most positions
    already fixed (constants or bound variables), ties going to the
    earlier body position.  Each atom is then a hash lookup on those
    positions; its other positions bind new variables or, for a variable
    repeated within the atom, check equality.  `run` and `exists` walk the
    atoms with an explicit stack, so body length is not limited by
    recursion depth.
    """

    def __init__(self, atoms):
        self.slot_of: dict = {}
        self.init: list = []
        # score[j]: positions of atom j fixed so far, raised as variables bind
        score = [0] * len(atoms)
        occurs: dict = {}
        for j, terms in enumerate(atoms):
            for t in terms:
                if isinstance(t, Const):
                    score[j] += 1
                else:
                    occurs.setdefault(t.name, []).append(j)
        remaining = list(range(len(atoms)))
        steps = []
        while remaining:
            best = max(remaining, key=score.__getitem__)
            remaining.remove(best)
            positions, key_slots, binds, eqs = [], [], [], []
            first: dict = {}
            for pos, t in enumerate(atoms[best]):
                if isinstance(t, Const):
                    positions.append(pos)
                    key_slots.append(self._const(t.value))
                elif t.name in self.slot_of:
                    positions.append(pos)
                    key_slots.append(self.slot_of[t.name])
                elif t.name in first:
                    eqs.append((first[t.name], pos))
                else:
                    first[t.name] = pos
            for name, pos in first.items():
                binds.append((pos, self.slot(name)))
                for j in occurs[name]:
                    score[j] += 1
            steps.append((best, tuple(positions),
                          itemgetter(*key_slots) if key_slots else None,
                          tuple(binds), tuple(eqs), tuple(key_slots)))
        self.steps = steps
        self.bound = frozenset(self.slot_of)

    def slot(self, name: str) -> int:
        s = self.slot_of.get(name)
        if s is None:
            s = self.slot_of[name] = len(self.init)
            self.init.append(None)
        return s

    def _const(self, value) -> int:
        self.init.append(value)
        return len(self.init) - 1

    def getter(self, terms):
        """A function from a binding's slots to the ground tuple of terms."""
        return _tuple_getter([
            self._const(t.value) if isinstance(t, Const)
            else self.slot(t.name) for t in terms])

    def _rows(self, sources, slots):
        """rows(depth): an iterator over the rows of step `depth`'s source
        that agree with `slots` on the step's key positions."""
        steps = self.steps

        def rows(depth):
            j, positions, key = steps[depth][:3]
            parts = sources[j]
            if positions:
                k = key(slots)
                if len(parts) == 1:
                    return iter(parts[0].index(positions).get(k, ()))
                return chain.from_iterable(
                    p.index(positions).get(k, ()) for p in parts)
            if len(parts) == 1:
                return iter(parts[0].rows)
            return chain.from_iterable(p.rows for p in parts)
        return rows

    def run(self, sources):
        """Yield once per binding that grounds every atom in its source
        (sources[j]: a tuple of disjoint _Relation parts for atom j).
        The same slot list is yielded each time, updated in place."""
        return self._run(sources, list(self.init), len(self.steps))

    def count(self, sources) -> int:
        """How many bindings `run` yields.  The last step's matching rows
        are summed, not walked, unless the step checks an equality."""
        if not self.steps:
            return 1
        last = len(self.steps) - 1
        j, positions, key, _, eqs = self.steps[last][:5]
        slots = list(self.init)
        prefixes = self._run(sources, slots, last)
        if eqs:
            rows = self._rows(sources, slots)
            return sum(1 for _ in prefixes for row in rows(last)
                       if all(row[a] == row[b] for a, b in eqs))
        if not positions:
            return sum(1 for _ in prefixes) * sum(
                len(p.rows) for p in sources[j])
        indexes = [p.index(positions) for p in sources[j]]
        return sum(len(idx.get(key(slots), ())) for _ in prefixes
                   for idx in indexes)

    def _run(self, sources, slots, n):
        """Yield slots once per binding of the first n steps."""
        steps = self.steps
        last = n - 1
        if last < 0:
            yield slots
            return
        rows = self._rows(sources, slots)
        stack = [None] * n
        stack[0] = rows(0)
        depth = 0
        while depth >= 0:
            binds, eqs = steps[depth][3], steps[depth][4]
            for row in stack[depth]:
                if eqs and any(row[a] != row[b] for a, b in eqs):
                    continue
                for pos, s in binds:
                    slots[s] = row[pos]
                if depth == last:
                    yield slots
                else:
                    depth += 1
                    stack[depth] = rows(depth)
                    break
            else:
                depth -= 1

    def exists(self, sources) -> bool:
        """Whether some binding grounds every atom in its source; stops at
        the first.  A state that fails -- the depth and the values of the
        slots bound above it that this step or a later one reads as keys
        -- is remembered and not searched again."""
        steps = self.steps
        last = len(steps) - 1
        if last < 0:
            return True
        # state[depth]: the slots bound before `depth` and read from it on
        bound = {s for step in steps for _, s in step[3]}
        state, live = [None] * len(steps), set()
        for d in range(last, -1, -1):
            live.update(s for s in steps[d][5] if s in bound)
            live.difference_update(s for _, s in steps[d][3])
            state[d] = _tuple_getter(sorted(live))
        failed = [set() for _ in steps]
        slots = list(self.init)
        rows = self._rows(sources, slots)
        stack = [None] * len(steps)
        stack[0] = rows(0)
        depth = 0
        while depth >= 0:
            binds, eqs = steps[depth][3], steps[depth][4]
            for row in stack[depth]:
                if eqs and any(row[a] != row[b] for a, b in eqs):
                    continue
                for pos, s in binds:
                    slots[s] = row[pos]
                if depth == last:
                    return True
                if state[depth + 1](slots) not in failed[depth + 1]:
                    depth += 1
                    stack[depth] = rows(depth)
                    break
            else:
                failed[depth].add(state[depth](slots))
                depth -= 1
        return False
