"""Combinatorial size bounds: Stirling numbers, the two closed-form
bounds on IDB relation size, and adornment-count coefficients.

All arithmetic is arbitrary-precision integer or exact rational; fractional
exponents are resolved to certified integer ceilings by k-th-root
bracketing, never floating point.  Figures past 4,300 digits are None.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .core import Program, ValidationError, _Value
from .adorn import AdornedProgram, adornments_of
from .width import width_of_predicate


def _stirling_row(n: int, k: int) -> list:
    """S(n, 0..k), by rows of S(i, j) = j·S(i-1, j) + S(i-1, j-1)."""
    row = [1] + [0] * k  # S(0, j)
    for i in range(1, n + 1):
        for j in range(min(i, k), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row


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


class SchemaStats(_Value):
    """Counting parameters a program exposes for one queried predicate."""

    def __init__(self, num_edbs: int, ear: int, arq: int, rule_count: int,
                 term_count: int):
        self._init(num_edbs, ear, arq, rule_count, term_count)

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


_LIMIT = 10 ** 4300  # the least integer of more than 4,300 digits


def _pow(n: int, exp) -> int | None:
    """pow_ceil(n, exp), or None when n's bit length alone puts it past
    the limit: n ** exp >= 2 ** ((n.bit_length() - 1) * exp)."""
    exp = Fraction(exp)
    if n > 1 and (n.bit_length() - 1) * exp >= _LIMIT.bit_length():
        return None
    return pow_ceil(n, exp)


def _capped(*factors) -> int | None:
    """The product of factors: 0 if one is 0, else None if one is None
    or the product has more than 4,300 digits."""
    if 0 in factors:
        return 0
    if None in factors:
        return None
    out = prod(factors)
    return None if out >= _LIMIT else out


def _stirling_sum(stats: SchemaStats, ew: int, step) -> int | None:
    """ear ** arq · Σ_{k=1..ew} S(arq, k) · w_k, capped, where w_0 = 1
    and w_k = w_(k-1) · step(k) >= 0.  One Stirling row serves every k,
    and the sum stops once it passes the limit."""
    if int(ew) != ew or ew < 1:
        raise ValueError("the width must be an integer >= 1")
    row = _stirling_row(stats.arq, min(int(ew), stats.arq))
    total, w = 0, 1
    for k in range(1, len(row)):
        w *= step(k)
        total = _capped(total + row[k] * w)
        if not w or total is None:
            break
    return _capped(_pow(stats.ear, stats.arq), total)


def bound1(stats: SchemaStats, ew: int, n: int) -> int | None:
    """Exact combinatorial bound: tuples drawn from at most ew EDB tuples."""
    if n < 0:
        raise ValueError("n must be non-negative")
    # w_k = (num_edbs · n)(num_edbs · n - 1)…(num_edbs · n - k + 1)
    return _stirling_sum(stats, ew, lambda k: stats.num_edbs * n - k + 1)


def bound2(stats: SchemaStats, ew, n: int) -> int | None:
    """Looser closed form; supports fractional widths via certified
    ceiling of n ** ew."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _capped(_pow(stats.num_edbs * stats.ear * stats.arq, stats.arq),
                   _pow(n, ew))


def coeff_naive(stats: SchemaStats) -> int | None:
    """Upper bound on the number of adornments any predicate can take.

    The size-of-program factor counts term occurrences, not rules: the
    underlying argument bounds the pool of constants an adornment head can
    mention by the number of terms in the program.
    """
    if stats.arq == 0:
        return 1
    power = _pow(stats.arq + 1, stats.ear)
    if power is None:  # then 2 ** (power - 1) alone is past the limit
        return None
    return _capped(_pow(stats.arq + stats.term_count, stats.arq),
                   _pow(2, stats.num_edbs * (power - 1)))


def coeff_minimal(stats: SchemaStats, ew: int) -> int | None:
    """Adornment-count bound for minimized programs."""
    total = _stirling_sum(stats, ew, lambda k: stats.num_edbs)
    if stats.arq > 0 and total is not None:
        most = _pow(stats.num_edbs * stats.ear * stats.arq, stats.arq)
        assert most is None or total <= most
    return total


class PredicateBounds(_Value):
    def __init__(self, predicate: str, ew_integral: Fraction | None,
                 ew_fractional: Fraction | None, f_exact: int,
                 bound1: int | None, bound2: int | None,
                 fpt_bound: int | None, coeff_naive: int | None,
                 coeff_minimal: int | None):
        self._init(predicate, ew_integral, ew_fractional, f_exact, bound1,
                   bound2, fpt_bound, coeff_naive, coeff_minimal)

    def to_json_dict(self) -> dict:
        out = dict(zip(self._fields, self._values()))
        for k in ("ew_integral", "ew_fractional"):
            if out[k] is not None:
                out[k] = str(Fraction(out[k]))
        return out


class SizeBoundReport(_Value):
    def __init__(self, n: int, predicates: tuple):
        self._init(n, predicates)

    def for_predicate(self, q: str) -> PredicateBounds:
        for pb in self.predicates:
            if pb.predicate == q:
                return pb
        raise ValidationError(f"no report entry for {q}")

    def to_json_dict(self) -> dict:
        return {
            "n": _capped(self.n),
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
            fpt_bound=_capped(f_exact, _pow(n, ewf)),
            coeff_naive=coeff_naive(stats),
            coeff_minimal=coeff_minimal(stats, int(ewi)) if ewi >= 1 else None,
        ))
    return SizeBoundReport(n=n, predicates=tuple(entries))
