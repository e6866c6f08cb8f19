"""Combinatorial size bounds: Stirling/permutation numbers, the two
closed-form bounds on IDB relation size, and adornment-count coefficients.

All arithmetic is arbitrary-precision integer or exact rational; fractional
exponents are resolved to certified integer ceilings by k-th-root
bracketing, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import Program, ValidationError
from .adorn import AdornedProgram, adornments_of
from .width import width_of_predicate


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Number of partitions of n labeled elements into k unlabeled blocks,
    one row of S(i, j) = j·S(i-1, j) + S(i-1, j-1) at a time."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 requires non-negative arguments")
    row = [1] + [0] * k  # S(0, j)
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[k]


def permutations(n: int, k: int) -> int:
    """Falling factorial n(n-1)...(n-k+1); 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("permutations requires non-negative arguments")
    if k > n:
        return 0
    out = 1
    for i in range(k):
        out *= n - i
    return out


def iroot(x: int, k: int) -> int:
    """Largest r with r**k <= x (integer k-th root, by integer Newton
    steps down from a power of two above the root)."""
    if x < 0 or k < 1:
        raise ValueError("iroot requires x >= 0 and k >= 1")
    if x in (0, 1) or k == 1:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        y = ((k - 1) * r + x // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


def pow_ceil(n: int, exp: Fraction) -> int:
    """Certified ceiling of n ** exp for a non-negative rational exponent."""
    exp = Fraction(exp)
    if exp < 0:
        raise ValueError("negative exponents not supported")
    if n == 0:
        return 1 if exp == 0 else 0
    power = n ** exp.numerator
    root = iroot(power, exp.denominator)
    return root if root ** exp.denominator == power else root + 1


@dataclass(frozen=True)
class SchemaStats:
    """Counting parameters a program exposes for one queried predicate."""
    num_edbs: int
    ear: int
    arq: int
    rule_count: int
    term_count: int

    @classmethod
    def of(cls, p: Program, q: str) -> "SchemaStats":
        if q not in p.idb:
            raise ValidationError(f"unknown IDB predicate {q}")
        arities = p.arities()
        edb_arities = [arities[e] for e in p.edb]
        return cls(
            num_edbs=len(p.edb),
            ear=max(edb_arities) if edb_arities else 0,
            arq=arities[q],
            rule_count=p.rule_count,
            term_count=p.term_count,
        )


def bound1(stats: SchemaStats, ew: int, n: int) -> int:
    """Exact combinatorial bound: tuples drawn from at most ew EDB tuples."""
    if int(ew) != ew:
        raise ValueError("bound1 needs an integral cover width")
    ew = int(ew)
    if ew < 1:
        raise ValueError("bound1 needs an integral cover width >= 1")
    if n < 0:
        raise ValueError("n must be non-negative")
    total = 0
    for k in range(1, ew + 1):
        total += (stirling2(stats.arq, k)
                  * permutations(stats.num_edbs * n, k)
                  * stats.ear ** stats.arq)
    return total


def bound2(stats: SchemaStats, ew, n: int) -> int:
    """Looser closed form; supports fractional widths via certified
    ceiling of n ** ew."""
    if n < 0:
        raise ValueError("n must be non-negative")
    coeff = (stats.num_edbs * stats.ear * stats.arq) ** stats.arq
    return coeff * pow_ceil(n, Fraction(ew))


def coeff_naive(stats: SchemaStats) -> int | None:
    """Upper bound on the number of adornments any predicate can take, or
    None when longer than the 4,300 digits Python prints by default.

    The size-of-program factor counts term occurrences, not rules: the
    underlying argument bounds the pool of constants an adornment head can
    mention by the number of terms in the program.
    """
    if stats.arq == 0:
        return 1
    exp2 = stats.num_edbs * ((stats.arq + 1) ** stats.ear - 1)
    # the bound is at least 2 ** (arq + exp2), and 2 ** 14300 > 10 ** 4300:
    # decide that before forming any power
    if stats.arq + exp2 >= 14300:
        return None
    coeff = (stats.arq + stats.term_count) ** stats.arq * 2 ** exp2
    return coeff if coeff < 10 ** 4300 else None


def coeff_minimal(stats: SchemaStats, ew: int) -> int:
    """Adornment-count bound for minimized programs."""
    if int(ew) != ew:
        raise ValueError("coeff_minimal needs an integral width")
    ew = int(ew)
    if ew < 1:
        raise ValueError("coeff_minimal needs an integral width >= 1")
    total = 0
    for k in range(1, ew + 1):
        total += (stirling2(stats.arq, k)
                  * stats.num_edbs ** k
                  * stats.ear ** stats.arq)
    if stats.arq > 0:
        assert total <= (stats.num_edbs * stats.ear * stats.arq) ** stats.arq
    return total


@dataclass(frozen=True)
class PredicateBounds:
    predicate: str
    ew_integral: Fraction | None
    ew_fractional: Fraction | None
    f_exact: int
    bound1: int | None
    bound2: int | None
    fpt_bound: int | None
    coeff_naive: int | None
    coeff_minimal: int | None

    def to_json_dict(self) -> dict:
        def rat(x):
            return None if x is None else str(Fraction(x))
        return {
            "predicate": self.predicate,
            "ew_integral": rat(self.ew_integral),
            "ew_fractional": rat(self.ew_fractional),
            "f_exact": self.f_exact,
            "bound1": self.bound1,
            "bound2": self.bound2,
            "fpt_bound": self.fpt_bound,
            "coeff_naive": self.coeff_naive,
            "coeff_minimal": self.coeff_minimal,
        }


@dataclass(frozen=True)
class SizeBoundReport:
    n: int
    predicates: tuple

    def for_predicate(self, q: str) -> PredicateBounds:
        for pb in self.predicates:
            if pb.predicate == q:
                return pb
        raise ValidationError(f"no report entry for {q}")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "predicates": [pb.to_json_dict() for pb in self.predicates],
        }


def size_report(pi: AdornedProgram, n: int) -> SizeBoundReport:
    """Per-IDB width, coefficient, and bound figures for EDBs of size <= n."""
    p = pi.source
    entries = []
    for q in sorted(p.idb):
        stats = SchemaStats.of(p, q)
        f_exact = len(adornments_of(pi, q))
        if f_exact == 0:
            entries.append(PredicateBounds(
                predicate=q, ew_integral=None, ew_fractional=None,
                f_exact=0, bound1=0, bound2=0, fpt_bound=0,
                coeff_naive=coeff_naive(stats), coeff_minimal=None))
            continue
        ewi = width_of_predicate(pi, q, "integral")
        ewf = width_of_predicate(pi, q, "fractional")
        # a width-0 predicate (all-constant head) has no covering bound;
        # only the adornment count limits it
        b1 = bound1(stats, int(ewi), n) if ewi >= 1 else (
            1 if stats.arq == 0 else None)
        b2 = bound2(stats, ewf, n)
        entries.append(PredicateBounds(
            predicate=q,
            ew_integral=Fraction(ewi),
            ew_fractional=Fraction(ewf),
            f_exact=f_exact,
            bound1=b1,
            bound2=b2,
            fpt_bound=f_exact * pow_ceil(n, Fraction(ewf)),
            coeff_naive=coeff_naive(stats),
            coeff_minimal=coeff_minimal(stats, int(ewi)) if ewi >= 1 else None,
        ))
    return SizeBoundReport(n=n, predicates=tuple(entries))
