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
series because its atanh argument is 1/(2p^(e+1) - 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .arith import Factorization, gcd, is_prime, primes_up_to, render_short, sigma
from .interval import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    Comparison,
    IntervalReal,
    PrecisionConfig,
    RatioLike,
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
    "sample_coprime_odd_pair",
    "sample_odd_factorization",
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


def _log_quotient(lo1: RatioLike, hi1: RatioLike, lo2: RatioLike, hi2: RatioLike, bits: int) -> IntervalReal:
    """ln I(n^2) / ln I(n) from the endpoints of both logs (scaled integers or
    exact rationals); while either log is not separated from 0 (its lower end
    <= 0), the exact range [1, 2] is the enclosure."""
    if lo1 <= 0 or lo2 <= 0:
        return IntervalReal(Fraction(1), Fraction(2), bits)
    return IntervalReal(Fraction(lo2, hi1), Fraction(hi2, lo1), bits)


def _within_one_and_two(x: IntervalReal) -> bool | None:
    return (x.compare(1) is Comparison.GREATER and x.compare(2) is Comparison.LESS) or None


def abundancy_exponent(f: Factorization, cfg: PrecisionConfig = DEFAULT_PRECISION) -> ExponentValue:
    """Enclosure of x(n) = ln(I(n^2))/ln(I(n)).

    1 < x(n) < 2 holds exactly for every n > 1, since sigma(n)*n < sigma(n^2)
    < sigma(n)^2; precision escalates only until the enclosure shows it too,
    and at cfg.max_bits the last enclosure is returned as it is. Undefined for
    n = 1 (the denominator ln I(1) is zero).
    """
    if not f.factors:
        raise ValueError("abundancy exponent is undefined for 1")
    _, enclosure = escalate(
        lambda bits: _log_quotient(*_ln_indices(f, bits), bits), _within_one_and_two, cfg
    )
    return ExponentValue(enclosure, f)


def prime_power_exponent(r: int, s: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> ExponentValue:
    """x(r^s) for prime r and s >= 1 (checked by the Factorization)."""
    return abundancy_exponent(Factorization(((r, s),)), cfg)


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
        raise ValueError(f"inputs must be coprime, gcd({a}, {b}) > 1")
    def evaluate(bits: int) -> tuple[IntervalReal, ...]:
        logs_a, logs_b = _ln_indices(fa, bits), _ln_indices(fb, bits)
        logs_ab = [x + y for x, y in zip(logs_a, logs_b)]  # x(ab) is their mediant
        return tuple(_log_quotient(*logs, bits) for logs in (logs_a, logs_b, logs_ab))

    status, (x_a, x_b, x_ab) = escalate(evaluate, _sandwich_verdict, cfg)
    return SandwichResult(status or SandwichStatus.UNDECIDED, x_a, x_b, x_ab)


def _sandwich_verdict(xs: tuple[IntervalReal, IntervalReal, IntervalReal]) -> SandwichStatus | None:
    x_a, x_b, x_ab = xs
    sides = {x_ab.compare(x_a), x_ab.compare(x_b)}
    if sides == {Comparison.LESS, Comparison.GREATER}:
        return SandwichStatus.HOLDS
    if len(sides) == 1 and Comparison.UNDECIDED not in sides:
        return SandwichStatus.VIOLATED
    return None


# 1/x(u) and the bounds built on it are cached like the logs, 512 entries
# each: a candidate's u is its least prime, and candidates share few of them.
@lru_cache(maxsize=512)
def reciprocal_exponent(u: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> IntervalReal:
    """Enclosure of 1/x(u) = ln(I(u))/ln(I(u^2)) for an odd prime u: the
    reciprocal of x(u) enclosed by abundancy_exponent's rule, escalating until
    1 < x(u) < 2 shows, with the same [1, 2] fallback."""
    if u < 3 or not is_prime(u):
        raise ValueError(f"u must be an odd prime, got {render_short(u)}")
    index1, index2 = prime_power_index(u, 1), prime_power_index(u, 2)
    def evaluate(bits: int) -> IntervalReal:
        ln1, ln2 = ln_ratio(index1, bits), ln_ratio(index2, bits)
        return _log_quotient(ln1.lo, ln1.hi, ln2.lo, ln2.hi, bits)

    _, x = escalate(evaluate, _within_one_and_two, cfg)
    return IntervalReal.exact(1, x.bits) / x


@lru_cache(maxsize=512)
def index_lower_bound(
    L: Fraction | int,
    u: int,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
) -> IntervalReal:
    """Enclosure of L**(1/x(u)) for L > 1 and an odd prime u, evaluated at
    the precision reciprocal_exponent(u, cfg) settles on.

    Since x(u) < 2 this always exceeds the trivial bound sqrt(L). Used with
    L = 8/5 (root part of a candidate) and L = 2q/(q+1) (Euler-prime scans).
    """
    L = Fraction(L)
    if L <= 1:
        shown = f"{render_short(L.numerator)}/{render_short(L.denominator)}"
        raise ValueError(f"the bound collapses for L <= 1, got {shown}")
    y = reciprocal_exponent(u, cfg)
    return pow_interval(IntervalReal.exact(L, y.bits), y, y.bits)


# ---------------------------------------------------------------------------
# corpus sampling (deterministic given the caller's rng)
# ---------------------------------------------------------------------------

_CORPUS_PRIMES = tuple(p for p in primes_up_to(100) if p % 2 == 1)


def sample_odd_factorization(
    rng: random.Random,
    max_value: int = 10**6,
    exclude: tuple[int, ...] = (),
) -> Factorization:
    """Random odd integer > 1 in factored form: up to 5 distinct odd primes
    below 100 with exponents up to 4, rejected until the value fits."""
    pool = [p for p in _CORPUS_PRIMES if p not in exclude]
    while True:
        count = rng.randint(1, min(5, len(pool)))
        chosen = sorted(rng.sample(pool, count))
        factors = tuple((p, rng.randint(1, 4)) for p in chosen)
        value = 1
        for p, e in factors:
            value *= p**e
        if 1 < value <= max_value:
            return Factorization(factors)


def sample_coprime_odd_pair(
    rng: random.Random,
    max_value: int = 10**6,
) -> tuple[Factorization, Factorization]:
    """Coprime odd pair with disjoint prime supports (coprimality by draw)."""
    fa = sample_odd_factorization(rng, max_value)
    fb = sample_odd_factorization(rng, max_value, exclude=fa.primes())
    return fa, fb
