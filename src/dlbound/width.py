"""Hypergraphs of rules/adornments and exact edge-cover widths.

The fractional cover is solved through the LP dual (a fractional matching
over the output variables) with a Bland-rule simplex over exact rationals,
one tableau per connected component of the edges; the primal weights are
read off the optimal tableaux.  No floating point.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Rule, ValidationError, Var, _Value, min_cover
from .adorn import Adornment, AdornedProgram, adornments_of


class UncoverableError(ValidationError):
    """An output variable lies in no edge (an unsafe rule slipped through)."""


class Hypergraph(_Value):
    def __init__(self, vertices: frozenset, edges: tuple, v_out: frozenset):
        # edges: (label, frozenset) pairs
        self._init(frozenset(vertices),
                   tuple((label, frozenset(e)) for label, e in edges),
                   frozenset(v_out))


class EdgeCoverSolution(_Value):
    def __init__(self, weights: tuple, objective: Fraction, integral: bool):
        # weights: a Fraction per edge, aligned with Hypergraph.edges
        self._init(weights, objective, integral)

    def verify(self, h: Hypergraph) -> None:
        assert sum(self.weights, Fraction(0)) == self.objective
        for w in self.weights:
            assert 0 <= w <= 1
            if self.integral:
                assert w in (Fraction(0), Fraction(1))
        for v in h.v_out:
            total = sum((w for w, (_, e) in zip(self.weights, h.edges)
                         if v in e), Fraction(0))
            assert total >= 1, f"vertex {v} uncovered"


def hypergraph_of(r) -> Hypergraph:
    """Hypergraph of a rule or adornment.

    Vertices are the rule's variables except wildcards (existential
    variables occurring exactly once) and constants; v_out is the set of
    head variables.
    """
    if isinstance(r, Adornment):
        r = r.rule
    if not isinstance(r, Rule):
        raise TypeError("expected a Rule or Adornment")
    counts = r.var_occurrences()
    head_vars = set(r.head_vars())
    keep = {v for v, c in counts.items() if v in head_vars or c >= 2}
    vertices = set()
    edges = []
    for i, a in enumerate(r.body):
        members = frozenset(
            t.name for t in a.terms
            if isinstance(t, Var) and t.name in keep)
        vertices |= members
        edges.append((f"{a.pred}#{i}", members))
    vertices |= head_vars
    return Hypergraph(frozenset(vertices), tuple(edges), frozenset(head_vars))


def _distinct_edges(h: Hypergraph):
    """Indices of representative edges with distinct, nonempty vertex sets
    that touch v_out (duplicates share a representative).

    Raises UncoverableError when an output variable lies in no edge.
    """
    reps = []
    seen = set()
    for i, (_, e) in enumerate(h.edges):
        members = e & h.v_out
        if not members or members in seen:
            continue
        seen.add(members)
        reps.append((i, members))
    missing = h.v_out.difference(*seen)
    if missing:
        raise UncoverableError(
            f"output variables in no edge: {sorted(missing)}")
    return reps


def integral_edge_cover(h: Hypergraph) -> EdgeCoverSolution:
    """Exact minimum-cardinality edge cover of v_out."""
    reps = _distinct_edges(h)
    cover = min_cover(h.v_out, [m for _, m in reps])
    weights = [Fraction(0)] * len(h.edges)
    for i in cover:
        weights[reps[i][0]] = Fraction(1)
    sol = EdgeCoverSolution(tuple(weights), Fraction(len(cover)), True)
    sol.verify(h)
    return sol


def fractional_edge_cover(h: Hypergraph) -> EdgeCoverSolution:
    """Exact rational optimum of the fractional edge-cover LP."""
    weights = [Fraction(0)] * len(h.edges)
    objective = Fraction(0)
    # the LP separates over the components: their optima add up
    for part in _components(_distinct_edges(h)):
        objective += _fractional(part, weights)
    sol = EdgeCoverSolution(tuple(weights), objective, False)
    sol.verify(h)
    return sol


def _components(reps) -> list:
    """reps grouped by the connected components of their vertex sets."""
    parent = list(range(len(reps)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first: dict = {}  # vertex -> the first rep holding it
    for i, (_, members) in enumerate(reps):
        for v in members:
            parent[find(i)] = find(first.setdefault(v, i))
    groups: dict = {}
    for i, rep in enumerate(reps):
        groups.setdefault(find(i), []).append(rep)
    return list(groups.values())


def _fractional(reps, weights: list) -> Fraction:
    """The optimum of the covering LP of the vertices of reps, solved
    exactly via its matching dual; each rep's weight goes to `weights`.

    Dual: maximize sum(y_v) over the vertices subject to, per edge,
    sum(y_v for v in edge) <= 1 and y >= 0.  Strong duality gives the
    cover optimum; the cover weights appear as reduced costs on slacks.
    """
    verts = sorted(set().union(*(members for _, members in reps)))
    vidx = {v: j for j, v in enumerate(verts)}
    m = len(reps)  # constraints (edges)
    n = len(verts)  # dual variables
    # tableau: m rows of [a | slack identity | rhs]; objective row below
    rows = []
    for _, members in reps:
        row = [Fraction(0)] * (n + m + 1)
        for v in members:
            row[vidx[v]] = Fraction(1)
        row[-1] = Fraction(1)
        rows.append(row)
    for i in range(m):
        rows[i][n + i] = Fraction(1)
    obj = [Fraction(-1)] * n + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))

    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][-1] / rows[i][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        assert best is not None, "dual LP cannot be unbounded"
        _, leave = best
        piv = rows[leave][enter]
        rows[leave] = [x / piv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, rows[leave])]
        basis[leave] = enter

    for k, (i, _) in enumerate(reps):
        weights[i] = obj[n + k]
    return obj[-1]


def width_of_adornment(adn: Adornment, mode: str = "integral") -> Fraction:
    h = hypergraph_of(adn)
    if mode == "integral":
        return integral_edge_cover(h).objective
    if mode == "fractional":
        return fractional_edge_cover(h).objective
    raise ValueError(f"unknown mode {mode!r}")


def width_of_predicate(pi: AdornedProgram, q: str,
                       mode: str = "integral") -> Fraction:
    """Max cover width over q's adornments."""
    adns = adornments_of(pi, q)
    if not adns:
        raise ValidationError(f"predicate {q} has no adornments")
    return max(width_of_adornment(a, mode) for a in adns)


def width_of_program(pi: AdornedProgram, mode: str = "integral") -> Fraction:
    widths = [width_of_adornment(a, mode)
              for adns in pi.adornment_map().values() for a in adns]
    if not widths:
        raise ValidationError("program has no adorned rules")
    return max(widths)
