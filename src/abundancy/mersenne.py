"""Even perfect numbers via Mersenne primes.

Every even perfect number is (2^p - 1) * 2^(p-1) with p and 2^p - 1 prime;
the Lucas-Lehmer residue recurrence certifies the Mersenne side. It lives in
`arith` (re-exported here) because `is_prime` proves every Mersenne-shaped
input with it. This is the one corner of the subject where genuine perfect
numbers can be constructed and verified against the divisor-sum closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import Factorization, lucas_lehmer, sigma

__all__ = [
    "DESK_SCALE_CAP",
    "EuclideanForm",
    "even_perfect_from_exponent",
    "lucas_lehmer",
    "mersenne_scan",
]

DESK_SCALE_CAP = 2500  # larger scans are refused


@dataclass(frozen=True)
class EuclideanForm:
    """An even perfect number (2^p - 1) * 2^(p-1) with its Mersenne factor."""

    p: int
    mersenne: int
    perfect: int


def even_perfect_from_exponent(p: int) -> EuclideanForm:
    """Construct the even perfect number for a Lucas-Lehmer-certified p."""
    if not lucas_lehmer(p):
        raise ValueError(f"2^{p} - 1 is not prime")
    return _euclidean_form(p)


def _euclidean_form(p: int) -> EuclideanForm:
    """The even perfect number for a p whose 2^p - 1 is already proven prime
    (the report's suite takes its p from `mersenne_scan`)."""
    mersenne = (1 << p) - 1
    # the factorization is known and Lucas-Lehmer has proven its Mersenne
    # factor: the divisor-sum closed form confirms perfection with no re-proof
    known = Factorization._derived(((2, p - 1), (mersenne, 1)))
    form = EuclideanForm(p, mersenne, known.value())
    if sigma(known) != 2 * form.perfect:
        raise ArithmeticError(f"sigma check failed for p = {p}")
    return form


def mersenne_scan(limit: int) -> list[int]:
    """All p <= limit with 2^p - 1 prime, ascending, for 2 <= limit <=
    DESK_SCALE_CAP (beyond it a scan takes minutes to hours)."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit > DESK_SCALE_CAP:
        raise ValueError(f"limit {limit} exceeds the desk-scale cap {DESK_SCALE_CAP}")
    return [p for p in range(2, limit + 1) if lucas_lehmer(p)]
