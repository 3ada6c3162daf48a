"""Closed-form dimension counts and their row-reduction cross-checks.

All arithmetic is exact big-integer arithmetic; every division asserted by a
formula is checked to be exact rather than truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, gcd

from .chains import Multidegree
from .quotients import Family, relation_span
from .scalars import InputError


def mobius(d: int) -> int:
    """1 on 1, (-1)^k on squarefree products of k primes, 0 otherwise."""
    if d < 1:
        raise InputError(f"mobius is defined on positive integers, got {d}")
    result = 1
    q = 2
    while q * q <= d:
        if d % q == 0:
            d //= q
            if d % q == 0:
                return 0
            result = -result
        q += 1
    if d > 1:
        result = -result
    return result


def _exact_div(num: int, den: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"expected exact division, got {num}/{den}")
    return quotient


def witt_total(n: int, p: int) -> int:
    """Dimension of the degree-n graded piece of the free Lie algebra on p
    letters: (1/n) * sum over d | n of mobius(d) * p^(n/d)."""
    if n < 1 or p < 1:
        raise InputError("witt_total needs n >= 1 and p >= 1")
    total = sum(mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return _exact_div(total, n)


def _check_multidegree(m) -> Multidegree:
    md = tuple(m)
    if not md or any(not isinstance(x, int) or x < 0 for x in md):
        raise InputError(f"multidegree must be non-negative integers, got {m!r}")
    if sum(md) < 1:
        raise InputError("multidegree must have a positive entry")
    return md


def witt_multidegree(m) -> int:
    """The necklace number: dimension of the multidegree-m piece of the free
    Lie algebra; summed over all multidegrees of total n it gives witt_total."""
    md = _check_multidegree(m)
    n = sum(md)
    g = 0
    for x in md:
        g = gcd(g, x)
    total = 0
    for d in range(1, g + 1):
        if g % d:
            continue
        mu = mobius(d)
        if not mu:
            continue
        term = factorial(n // d)
        for x in md:
            term //= factorial(x // d)
        total += mu * term
    return _exact_div(total, n)


def h_dim_total(n: int, p: int) -> int:
    """Dimension of the degree-n space of connected diagram classes:
    p * witt_total(n-1, p) - witt_total(n, p) for n >= 2, and 0 at n = 1
    (single letters die under the primed fold)."""
    if n < 1 or p < 1:
        raise InputError("h_dim_total needs n >= 1 and p >= 1")
    if n == 1:
        return 0
    return p * witt_total(n - 1, p) - witt_total(n, p)


def h_dim_multidegree(m) -> int:
    """Multidegree refinement of h_dim_total; 0 below total degree 2."""
    md = _check_multidegree(m)
    if sum(md) < 2:
        return 0
    total = -witt_multidegree(md)
    for i, x in enumerate(md):
        if x >= 1:
            total += witt_multidegree(md[:i] + (x - 1,) + md[i + 1:])
    return total


def rank_oracle(n: int, p: int, family: Family, char: int | None = None,
                max_words: int | None = None) -> int:
    """Quotient dimension computed independently of the formulas: the word
    count p^n minus the rank of the row-reduced relation span."""
    kwargs = {} if max_words is None else {"max_words": max_words}
    span = relation_span(n, p, family, char, **kwargs)
    return span.quotient_dim()


@dataclass
class DimensionReport:
    """One dimension/rank/verification result with its provenance anchor."""

    query: str
    value: int
    method: str = "formula"
    anchor: str = ""
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        record = {"query": self.query, "value": self.value,
                  "method": self.method, "anchor": self.anchor}
        if self.extra:
            record.update(self.extra)
        return record


def dimension_report(kind: str, *, n: int | None = None, p: int | None = None,
                     multidegree=None, oracle: bool = False,
                     char: int | None = None,
                     max_words: int | None = None) -> DimensionReport:
    """Evaluate one dimension query, optionally cross-checked by row reduction.

    The rank oracle checks totals over n and p only, so it is refused together
    with a multidegree rather than silently dropped."""
    if oracle and multidegree is not None:
        raise InputError("the rank oracle checks totals over --n and --p; "
                         "it does not take a multidegree")
    if kind == "witt":
        if multidegree is not None:
            return dimension_report("necklace", multidegree=multidegree)
        if n is None or p is None:
            raise InputError("witt needs --n and --p")
        value = witt_total(n, p)
        report = DimensionReport(f"witt(n={n}, p={p})", value,
                                 anchor="free Lie algebra dimension via the Moebius sum")
        family: Family = "l"
    elif kind == "necklace":
        md = _check_multidegree(multidegree)
        value = witt_multidegree(md)
        return DimensionReport(f"necklace{md}", value,
                               anchor="multidegree necklace count via the Moebius sum")
    elif kind == "h":
        if multidegree is not None:
            md = _check_multidegree(multidegree)
            value = h_dim_multidegree(md)
            return DimensionReport(f"h{md}", value,
                                   anchor="diagram-space dimension per multidegree")
        if n is None or p is None:
            raise InputError("h needs --n and --p (or --multidegree)")
        value = h_dim_total(n, p)
        report = DimensionReport(f"h(n={n}, p={p})", value,
                                 anchor="p*witt(n-1) - witt(n), zero at degree 1")
        family = "prime"
    else:
        raise InputError(f"unknown dimension kind {kind!r}")
    if oracle:
        computed = rank_oracle(n, p, family, char, max_words=max_words)
        report.method = "both"
        report.extra["rank_oracle"] = computed
        if computed != value:
            report.extra["agreement"] = False
            raise ArithmeticError(
                f"rank oracle disagrees with the formula: {computed} != {value}")
        report.extra["agreement"] = True
    return report
