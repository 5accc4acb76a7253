"""Abundancy index analytics.

The abundancy index I(n) = sigma(n)/n is an exact rational and multiplicative
over coprime arguments. The abundancy exponent of n > 1 is the real number
x(n) = ln(I(n^2))/ln(I(n)), i.e. the exponent with I(n^2) = I(n)**x(n); it
lies strictly between 1 and 2 and, for coprime a and b, x(ab) falls strictly
between x(a) and x(b). This module evaluates I exactly, encloses x
rigorously, certifies the sandwich property, and builds the certified lower
bound L**(1/x(u)) used to constrain odd perfect numbers.

ln I is additive over coprime parts, so ln I(n) and ln I(n^2) are sums of
logs ln I(p^e), each kept in a fixed-size LRU cache per prime power and
precision; x(ab) = (A2 + B2)/(A1 + B1), with A1 = ln I(a), A2 = ln I(a^2) and
B1, B2 likewise, is then the mediant of x(a) = A2/A1 and x(b) = B2/B1. Each
ln I(p^e) is itself the sum ln(p/(p-1)) + ln(1 - p^-(e+1)), from
I(p^e) = p/(p-1) * (1 - p^-(e+1)): the first term is cached per prime and
precision and shared by every exponent, and the second needs only a short
series because its atanh argument is 1/(2p^(e+1) - 1). A lone exponent is
taken at relative precision instead, as 1 + ln(I(n^2)/I(n))/ln I(n), and so
is 1/x(u) under the bound, so that each is one evaluation however close to 1
it lies: only the sandwich's verdict climbs the precision ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .arith import Factorization, gcd, is_prime, render_short, sigma
from .interval import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    Comparison,
    IntervalReal,
    PrecisionConfig,
    _ln_scaled,
    escalate,
    ln_ratio,
    pow_interval,
)

__all__ = [
    "ExponentValue",
    "SandwichResult",
    "SandwichStatus",
    "abundancy_exponent",
    "abundancy_index",
    "index_lower_bound",
    "prime_power_exponent",
    "prime_power_index",
    "reciprocal_exponent",
    "sandwich_check",
    "square_index_relation",
]


def abundancy_index(f: Factorization) -> Fraction:
    """sigma(n)/n in lowest terms; equals 1 only for n = 1."""
    return Fraction(sigma(f), f.value())


def prime_power_index(r: int, s: int) -> Fraction:
    """I(r^s) for prime r and s >= 1 (checked by the Factorization)."""
    return abundancy_index(Factorization(((r, s),)))


def square_index_relation(r: int, s: int) -> tuple[Fraction, Fraction]:
    """I(r^(2s)) two ways: directly, and as I(r^s) * (1 + (1 - r^-s)/(r^(s+1) - 1))
    with the negative power cleared to exact integers. The two must agree."""
    direct = prime_power_index(r, 2 * s)
    rs = r**s
    factored = prime_power_index(r, s) * (1 + Fraction(rs - 1, rs * (r ** (s + 1) - 1)))
    return direct, factored


@dataclass(frozen=True)
class ExponentValue:
    """Certified enclosure of the abundancy exponent of a factored integer."""

    value: IntervalReal
    of: Factorization


# Both log caches hold a fixed 512 entries. The sandwich corpora use 24 of
# them here (odd p < 100) and 130 in the prime-power cache, all at 256 bits;
# five seed-42 deep_precision rounds ask for up to 225 and 785 distinct keys
# per precision, almost all big random primes that are used once.
@lru_cache(maxsize=512)
def _ln_prime_factor(p: int, w: int) -> tuple[int, int]:
    """ln(p/(p-1)) scaled by 2^w, outward rounded: the part of ln I(p^e) that
    every exponent e of p shares."""
    return _ln_scaled(p, p - 1, w)


@lru_cache(maxsize=512)
def _ln_prime_power_index(p: int, e: int, w: int) -> tuple[int, int]:
    """ln I(p^e) scaled by 2^w, outward rounded, from I(p^e) = p/(p-1) * (1 - 1/P)
    with P = p^(e+1): the cached ln(p/(p-1)) plus ln((P-1)/P), whose atanh
    argument 1/(2P-1) ends the series after about w/(2 bits(P)) terms. Both
    are enclosed at w + 4 bits and their sum is rounded outward once."""
    big = p ** (e + 1)
    alo, ahi = _ln_prime_factor(p, w + 4)
    blo, bhi = _ln_scaled(big - 1, big, w + 4)
    return (alo + blo) >> 4, -(-(ahi + bhi) >> 4)


def _ln_indices(f: Factorization, bits: int) -> tuple[int, int, int, int]:
    """Sums of per-prime-power enclosures (lo, hi) of ln I(n) and ln I(n^2), scaled by 2^w."""
    w, lo1, hi1, lo2, hi2 = bits + GUARD_BITS, 0, 0, 0, 0
    for p, e in f.factors:
        (l1, h1), (l2, h2) = _ln_prime_power_index(p, e, w), _ln_prime_power_index(p, 2 * e, w)
        lo1, hi1, lo2, hi2 = lo1 + l1, hi1 + h1, lo2 + l2, hi2 + h2
    return lo1, hi1, lo2, hi2


def _log_quotient(lo1: int, hi1: int, lo2: int, hi2: int, bits: int) -> IntervalReal:
    """The sandwich's x = ln I(n^2) / ln I(n) from the ends of both logs,
    integers over one scale (which cancels), as the integer ratios lo2/hi1
    and hi2/lo1; while either log is not separated from 0 (its lower end <=
    0), the exact range [1, 2] is the enclosure."""
    if lo1 <= 0 or lo2 <= 0:
        return IntervalReal(1, 2, bits)
    return IntervalReal._of((lo2, hi1), (hi2, lo1), bits)


def abundancy_exponent(f: Factorization, bits: int = DEFAULT_PRECISION.initial_bits) -> ExponentValue:
    """Enclosure of x(n) = ln(I(n^2))/ln(I(n)) = 1 + D/A in one evaluation at
    `bits`, however close to 1 it lies.

    A = ln I(n) sums ln I(p^e) > ln(1 + 1/p) >= 2^-bits(p) over n's prime
    powers, and D = ln(I(n^2)/I(n)) sums ln(1 + δ) > δ/2 > 2^-(bits(p^(e+1)) + 2),
    1 + δ = (p^(2e+1) - 1)/((p^(e+1) - 1) p^e). With A's terms taken at w + t
    bits (w = bits + GUARD_BITS, t = 4 + the least bits(p)) and D's at w + s
    (s = 4 + the least bits(p^(e+1)) >= t), both positive sums are known to a
    few units of 2^-w of themselves, so the exact 1 < x(n) < 2 always shows.
    The enclosure's bits are those of D's logs, bits + s. Undefined for n = 1.
    """
    if not f.factors:
        raise ValueError("abundancy exponent is undefined for 1")
    w = bits + GUARD_BITS
    s = 4 + min((p ** (e + 1)).bit_length() for p, e in f.factors)
    t = 4 + min(p.bit_length() for p, _ in f.factors)
    d = [_ln_scaled(p ** (2 * e + 1) - 1, (p ** (e + 1) - 1) * p**e, w + s) for p, e in f.factors]
    a = [_ln_prime_power_index(p, e, w + t) for p, e in f.factors]
    (dlo, dhi), (alo, ahi) = map(sum, zip(*d)), map(sum, zip(*a))
    alo, ahi = alo << (s - t), ahi << (s - t)  # D/A, both over 2^(w + s)
    return ExponentValue(IntervalReal._of((ahi + dlo, ahi), (alo + dhi, alo), bits + s), f)


def prime_power_exponent(r: int, s: int, bits: int = DEFAULT_PRECISION.initial_bits) -> ExponentValue:
    """x(r^s) for prime r and s >= 1 (checked by the Factorization)."""
    return abundancy_exponent(Factorization(((r, s),)), bits)


class SandwichStatus(Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class SandwichResult:
    status: SandwichStatus
    x_a: IntervalReal
    x_b: IntervalReal
    x_ab: IntervalReal


def sandwich_check(
    fa: Factorization,
    fb: Factorization,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
) -> SandwichResult:
    """Certify min(x(a), x(b)) < x(ab) < max(x(a), x(b)) for coprime a, b > 1.

    HOLDS and VIOLATED are certified by disjoint enclosures only, escalating
    precision up to cfg.max_bits; anything still overlapping there is
    UNDECIDED (equality of x(a) and x(b) is never assumed impossible).
    """
    a, b = fa.value(), fb.value()
    if a == 1 or b == 1:
        raise ValueError("sandwich_check needs both values > 1")
    if gcd(a, b) != 1:
        raise ValueError(f"inputs must be coprime, gcd({render_short(a)}, {render_short(b)}) > 1")
    def evaluate(bits: int) -> tuple[IntervalReal, ...]:
        logs_a, logs_b = _ln_indices(fa, bits), _ln_indices(fb, bits)
        logs_ab = [x + y for x, y in zip(logs_a, logs_b)]  # x(ab) is their mediant
        return tuple(_log_quotient(*logs, bits) for logs in (logs_a, logs_b, logs_ab))

    status, (x_a, x_b, x_ab) = escalate(evaluate, _sandwich_verdict, cfg)
    return SandwichResult(status or SandwichStatus.UNDECIDED, x_a, x_b, x_ab)


def _sandwich_verdict(xs: tuple[IntervalReal, IntervalReal, IntervalReal]) -> SandwichStatus | None:
    x_a, x_b, x_ab = xs
    side_a, side_b = x_ab.compare(x_a), x_ab.compare(x_b)
    if side_a is Comparison.UNDECIDED or side_b is Comparison.UNDECIDED:
        return None
    # x(ab) on one side of both is a violation; between them, the sandwich
    return SandwichStatus.VIOLATED if side_a is side_b else SandwichStatus.HOLDS


# 1/x(u) and the bounds built on it are cached like the logs, 512 entries
# each, on (u, bits) and (L, u, bits), so callers pass bits positionally
# (lru_cache keys f(u) and f(u, 256) apart). Candidates share u, their least
# prime: 1,440 candidate_checks requests (seed 7, 4 rounds) missed on 3 keys.
@lru_cache(maxsize=512, typed=True)  # so that 3.0 does not hit the cached exponent of 3
def reciprocal_exponent(u: int, bits: int = DEFAULT_PRECISION.initial_bits) -> IntervalReal:
    """Enclosure of 1/x(u) = A/(A + D) for an odd prime u in one evaluation at
    `bits`, by abundancy_exponent's relative rule: A = ln I(u) > 1/(u+1) >=
    2^-bits(u) is taken at w + t bits (w = bits + GUARD_BITS, t = 4 + bits(u))
    and D = ln(I(u^2)/I(u)) > 1/(u^2+u+1) at w + s (s = 4 + bits(u^2)), so
    1/2 < 1/x(u) < 1 always shows. The ends A_lo/(A_lo + D_hi) and
    A_hi/(A_hi + D_lo) keep the one A in numerator and denominator."""
    if u < 3 or not is_prime(u):
        raise ValueError(f"u must be an odd prime, got {render_short(u)}")
    t, s = 4 + u.bit_length(), 4 + (u * u).bit_length()
    a, d = ln_ratio(Fraction(u + 1, u), bits + t), ln_ratio(Fraction(u * u + u + 1, u * (u + 1)), bits + s)
    alo, ahi = a._lo[0] << (s - t), a._hi[0] << (s - t)  # onto D's scale 2^(w + s)
    return IntervalReal._of((alo, alo + d._hi[0]), (ahi, ahi + d._lo[0]), bits)


@lru_cache(maxsize=512, typed=True)  # so that 2.0 does not hit the cached bound of 2
def index_lower_bound(
    L: Fraction | int,
    u: int,
    bits: int = DEFAULT_PRECISION.initial_bits,
) -> IntervalReal:
    """Enclosure of L**(1/x(u)) for L > 1 and an odd prime u, evaluated once
    at `bits`.

    Since x(u) < 2 this always exceeds the trivial bound sqrt(L). Used with
    L = 8/5 (root part of a candidate) and L = 2q/(q+1) (Euler-prime scans).
    """
    if L <= 1:
        n, d = L.as_integer_ratio()  # a float below 1 too; pow_interval refuses one above
        raise ValueError(f"the bound collapses for L <= 1, got {render_short(n)}/{render_short(d)}")
    return pow_interval(L, reciprocal_exponent(u, bits), bits)
