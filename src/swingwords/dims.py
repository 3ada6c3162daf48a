"""Closed-form dimension counts and their row-reduction cross-checks.

All arithmetic is exact big-integer arithmetic; every division asserted by a
formula is checked to be exact rather than truncated.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from math import gcd

from .chains import (Multidegree, check_alphabet, check_degree, check_integer,
                     check_multidegree, word_count)
from .quotients import Family, relation_span
from .scalars import InputError, ResourceLimitError

# `dimension_report` refuses a total degree above this before any work; with
# p >= 2 every value past the interpreter's print limit comes far below it
MAX_DEGREE = 10**6


def _prime_factors(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, by trial division up to sqrt(n)."""
    factors: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def mobius(d: int) -> int:
    """1 on 1, (-1)^k on squarefree products of k primes, 0 otherwise."""
    if check_integer(d, "mobius argument") < 1:
        raise InputError(f"mobius is defined on positive integers, got {d}")
    factors = _prime_factors(d)
    if any(e > 1 for e in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def _moebius_divisors(n: int) -> list[tuple[int, int]]:
    """(d, mobius(d)) for the squarefree divisors d of n, the only divisors
    with a nonzero Moebius value: 2^k pairs for n with k prime factors."""
    pairs = [(1, 1)]
    for q in _prime_factors(n):
        pairs += [(d * q, -mu) for d, mu in pairs]
    return pairs


def _exact_div(num: int, den: int) -> int:
    quotient, remainder = divmod(num, den)
    if remainder:
        raise ArithmeticError(f"expected exact division, got {num}/{den}")
    return quotient


def witt_total(n: int, p: int) -> int:
    """Dimension of the degree-n graded piece of the free Lie algebra on p
    letters: (1/n) * sum over d | n of mobius(d) * p^(n/d)."""
    check_degree(n)
    check_alphabet(p)
    total = sum(mu * p ** (n // d) for d, mu in _moebius_divisors(n))
    return _exact_div(total, n)


def _check_multidegree(m) -> Multidegree:
    md = check_multidegree(m)
    if sum(md) < 1:
        raise InputError("multidegree must have a positive entry")
    return md


def witt_multidegree(m) -> int:
    """The necklace number: dimension of the multidegree-m piece of the free
    Lie algebra; summed over all multidegrees of total n it gives witt_total."""
    md = _check_multidegree(m)
    total = sum(mu * word_count(x // d for x in md)
                for d, mu in _moebius_divisors(gcd(*md)))
    return _exact_div(total, sum(md))


def h_dim_total(n: int, p: int) -> int:
    """Dimension of the degree-n space of connected diagram classes:
    p * witt_total(n-1, p) - witt_total(n, p) for n >= 2, and 0 at n = 1
    (single letters die under the primed fold)."""
    check_degree(n)
    check_alphabet(p)
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


def rank_oracle(n: int, p: int, family: Family, char: int | None = None) -> int:
    """Quotient dimension computed independently of the formulas: the word
    count p^n minus the rank of the row-reduced relation span."""
    return relation_span(n, p, family, char).quotient_dim()


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


def _too_long(query: str, limit: int) -> ResourceLimitError:
    return ResourceLimitError(f"{query} has more than {limit} decimal digits, too many to print")


def _refuse_before(query: str, n: int, low_bits: int) -> None:
    """Refuse a query of total degree n past MAX_DEGREE, or one whose value
    is at least 2^low_bits / (2n^2) and so surely past the interpreter's
    limit on printed digits, before any of its work is done.

    The callers' low_bits give that bound. Over p >= 2 letters, n*W(n, p) and
    n(n-1)*h(n, p) are p^n plus terms of total size at most 2n^2 p^((n+1)/2),
    so both values are at least p^n / (2n^2) once p^((n-1)/2) >= 4n^2; and
    p^n >= 2^low_bits for low_bits = (n-1)(bit length of p - 1). For a
    multidegree m of total n, the multinomial M = n!/prod(m_i!) is at least
    2^(n - max m) (peel off the largest part, one binomial at a time). Each
    Moebius term with d >= 2 is at most M^(1/2), because M_d^d <= M (a word
    of d equal blocks is one word of M), and the necklace count times n, or h
    times n(n-1), is M plus at most 2n^3 such terms: at least M / (2n^2) once
    M^(1/2) >= 4n^3. Passing the digit limit by 2 * bit_length(16n^6) more
    bits meets both side conditions."""
    limit = sys.get_int_max_str_digits()
    if limit and low_bits >= (10 ** limit).bit_length() + 2 * (16 * n ** 6).bit_length():
        raise _too_long(query, limit)
    if n > MAX_DEGREE:
        raise ResourceLimitError(f"{query} is refused: dims computes degrees up to {MAX_DEGREE}")


def _printable(report: "DimensionReport") -> "DimensionReport":
    """The report, if its value has no more digits than the interpreter prints."""
    limit = sys.get_int_max_str_digits()
    if limit and abs(report.value) >= 10 ** limit:
        raise _too_long(report.query, limit)
    return report


def dimension_report(kind: str, *, n: int | None = None, p: int | None = None,
                     multidegree=None, oracle: bool = False,
                     char: int | None = None) -> DimensionReport:
    """Evaluate one dimension query, optionally cross-checked by row reduction.

    A degree past MAX_DEGREE, or a value with more decimal digits than the
    interpreter prints, is refused with ResourceLimitError; a value surely
    that long is refused before it is computed (see `_refuse_before`). The
    rank oracle checks totals over n and p only, so it is refused together
    with a multidegree rather than silently dropped; a characteristic is read
    by the oracle only, so it is refused without one."""
    if oracle and multidegree is not None:
        raise InputError("the rank oracle checks totals over --n and --p; "
                         "it does not take a multidegree")
    if char is not None and not oracle:
        raise InputError("only the rank oracle reads a characteristic; --char needs --oracle")
    if kind not in ("witt", "necklace", "h"):
        raise InputError(f"unknown dimension kind {kind!r}")
    if kind == "witt" and multidegree is not None:
        kind = "necklace"
    if kind == "necklace" or multidegree is not None:
        if multidegree is None:
            raise InputError("necklace needs --multidegree")
        md = _check_multidegree(multidegree)
        query = f"{kind}{md}"
        _refuse_before(query, sum(md), sum(md) - max(md))
        if kind == "necklace":
            report = DimensionReport(query, witt_multidegree(md),
                                     anchor="multidegree necklace count via the Moebius sum")
        else:
            report = DimensionReport(query, h_dim_multidegree(md),
                                     anchor="diagram-space dimension per multidegree")
        return _printable(report)
    if n is None or p is None:
        raise InputError("witt needs --n and --p" if kind == "witt"
                         else "h needs --n and --p (or --multidegree)")
    query = f"{kind}(n={n}, p={p})"
    _refuse_before(query, check_degree(n), (n - 1) * (check_alphabet(p).bit_length() - 1))
    if kind == "witt":
        report = DimensionReport(query, witt_total(n, p),
                                 anchor="free Lie algebra dimension via the Moebius sum")
        family: Family = "l"
    else:
        report = DimensionReport(query, h_dim_total(n, p),
                                 anchor="p*witt(n-1) - witt(n), zero at degree 1")
        family = "prime"
    _printable(report)
    if oracle:
        computed = rank_oracle(n, p, family, char)
        report.method = "both"
        report.extra["rank_oracle"] = computed
        if computed != report.value:
            raise ArithmeticError(
                f"rank oracle disagrees with the formula: {computed} != {report.value}")
        report.extra["agreement"] = True
    return report
