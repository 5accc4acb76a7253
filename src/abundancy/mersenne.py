"""Even perfect numbers via Mersenne primes.

Every even perfect number is (2^p - 1) * 2^(p-1) with p and 2^p - 1 prime
(Euclid-Euler). Once the Lucas-Lehmer recurrence has proven 2^p - 1 prime,
the construction is perfect by Euclid's theorem, and nothing is checked
again. The recurrence lives in `arith` (re-exported here) because `is_prime`
proves every Mersenne-shaped input with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import lucas_lehmer

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
    """Construct the even perfect number for a Lucas-Lehmer-certified p:
    perfect by Euclid's theorem, since 2^p - 1 is proven prime."""
    if not lucas_lehmer(p):
        raise ValueError(f"2^{p} - 1 is not prime")
    mersenne = (1 << p) - 1
    return EuclideanForm(p, mersenne, mersenne << (p - 1))


def mersenne_scan(limit: int) -> list[int]:
    """All p <= limit with 2^p - 1 prime, ascending, for 2 <= limit <=
    DESK_SCALE_CAP (beyond it a scan takes minutes to hours)."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit > DESK_SCALE_CAP:
        raise ValueError(f"limit {limit} exceeds the desk-scale cap {DESK_SCALE_CAP}")
    return [p for p in range(2, limit + 1) if lucas_lehmer(p)]
