"""Rigorous real enclosures over exact rational endpoints.

An IntervalReal is a pair of Fractions [lo, hi] guaranteed to contain the
exact real value it stands for. Ring operations combine endpoints in exact
rational arithmetic, so they introduce no error at all. Transcendental
evaluations (ln, exp, powers, square roots) run in fixed-point integer
arithmetic at ``bits + GUARD_BITS`` of precision with every intermediate
division rounded outward (floor for lower bounds, ceil for upper bounds) and
the series truncation remainder folded into the upper bound. ln runs one
atanh series on its exact reduced argument, which is narrow or tiny wherever
the library takes a log. exp runs its Taylor chain on the reduced argument
divided by 2^h, h = isqrt(w) // 2, at h + 4 more bits and squares the result
back h times, each square rounded outward too. Containment is therefore
unconditional, and the enclosures never touch floating point; only their
text is rounded, correctly, by the `decimal` module from a short integer
quotient of the exact rational.

Strict inequalities are decided only by enclosure separation, and one method
spells it out: `IntervalReal.compare`, against another enclosure or an exact
rational (the degenerate enclosure). `contains`, `overlaps` and every verdict
elsewhere map its result. Every verdict escalates by one rule, `escalate`:
re-evaluate at doubled precision up to the configured ceiling and report
UNDECIDED only there; UNDECIDED is a value, never an exception, because every
library evaluator returns an enclosure at every rung. A verdict against a
rational threshold is `escalate` with `compare` as its stopping rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_HALF_UP, Context, Decimal
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Callable, Iterator, Optional, TypeVar, Union

__all__ = [
    "Comparison",
    "DEFAULT_PRECISION",
    "GUARD_BITS",
    "IntervalReal",
    "PrecisionConfig",
    "escalate",
    "exp_interval",
    "exp_ratio",
    "ln_ratio",
    "pow_interval",
    "sqrt_ratio",
]

GUARD_BITS = 32

RatioLike = Union[Fraction, int]
T = TypeVar("T")
V = TypeVar("V")


class Comparison(Enum):
    LESS = "LESS"
    GREATER = "GREATER"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class PrecisionConfig:
    """Working-precision schedule: start at initial_bits, double to max_bits."""

    initial_bits: int = 256
    max_bits: int = 4096

    def __post_init__(self) -> None:
        if self.initial_bits < 8:
            raise ValueError("initial_bits must be at least 8")
        if self.initial_bits > self.max_bits:
            raise ValueError("initial_bits must not exceed max_bits")

    def ladder(self) -> Iterator[int]:
        bits = self.initial_bits
        while True:
            yield bits
            if bits >= self.max_bits:
                return
            bits = min(2 * bits, self.max_bits)


DEFAULT_PRECISION = PrecisionConfig()


@dataclass(frozen=True)
class IntervalReal:
    """Enclosure [lo, hi] of a real value; `bits` is the precision it was
    produced at (metadata only, the endpoints are exact rationals)."""

    lo: Fraction
    hi: Fraction
    bits: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted interval: {self.lo} > {self.hi}")

    @classmethod
    def exact(cls, value: RatioLike, bits: int = DEFAULT_PRECISION.initial_bits) -> "IntervalReal":
        v = Fraction(value)
        return cls(v, v, bits)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def radius(self) -> Fraction:
        return self.width / 2

    def compare(self, other: Union["IntervalReal", RatioLike]) -> Comparison:
        """Separation test against an enclosure or an exact rational (the
        degenerate enclosure [t, t]): LESS iff hi < other.lo, GREATER iff
        lo > other.hi, else UNDECIDED (touching or overlapping)."""
        if isinstance(other, IntervalReal):
            other_lo, other_hi = other.lo, other.hi
        else:
            other_lo = other_hi = Fraction(other)
        if self.hi < other_lo:
            return Comparison.LESS
        if self.lo > other_hi:
            return Comparison.GREATER
        return Comparison.UNDECIDED

    def contains(self, value: RatioLike) -> bool:
        return self.compare(value) is Comparison.UNDECIDED

    def overlaps(self, other: "IntervalReal") -> bool:
        return self.compare(other) is Comparison.UNDECIDED

    # Endpoint arithmetic is exact, so these operations are themselves exact
    # enclosures of the pointwise image; no rounding happens here.

    def __neg__(self) -> "IntervalReal":
        return IntervalReal(-self.hi, -self.lo, self.bits)

    def __add__(self, other: Union["IntervalReal", RatioLike]) -> "IntervalReal":
        if isinstance(other, IntervalReal):
            return IntervalReal(self.lo + other.lo, self.hi + other.hi, min(self.bits, other.bits))
        v = Fraction(other)
        return IntervalReal(self.lo + v, self.hi + v, self.bits)

    __radd__ = __add__

    def __sub__(self, other: Union["IntervalReal", RatioLike]) -> "IntervalReal":
        if isinstance(other, IntervalReal):
            return self + (-other)
        return self + (-Fraction(other))

    def __mul__(self, other: Union["IntervalReal", RatioLike]) -> "IntervalReal":
        if isinstance(other, IntervalReal):
            products = (
                self.lo * other.lo,
                self.lo * other.hi,
                self.hi * other.lo,
                self.hi * other.hi,
            )
            return IntervalReal(min(products), max(products), min(self.bits, other.bits))
        v = Fraction(other)
        if v >= 0:
            return IntervalReal(self.lo * v, self.hi * v, self.bits)
        return IntervalReal(self.hi * v, self.lo * v, self.bits)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["IntervalReal", RatioLike]) -> "IntervalReal":
        if not isinstance(other, IntervalReal):
            other = IntervalReal.exact(other, self.bits)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("divisor interval touches zero")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return IntervalReal(min(quotients), max(quotients), min(self.bits, other.bits))

    def __str__(self) -> str:
        return self.render()

    def render(self) -> str:
        """Decimal rendering: midpoint to 10 significant digits with explicit
        radius and achieved precision, e.g. ``1.444405574 ± 2e-87 @256b``."""
        mid = self.midpoint
        mid_text = _decimal(mid, 10)
        rad_text = _radius_text(self.radius)
        return f"{mid_text} ± {rad_text} @{self.bits}b"


# ---------------------------------------------------------------------------
# fixed-point kernels (integers scaled by 2^w, w = bits + GUARD_BITS)
# ---------------------------------------------------------------------------


def _cdiv(a: int, b: int) -> int:
    """ceil(a / b) for b > 0 (Python's // already floors for the lower side)."""
    return -((-a) // b)


def _atanh_scaled(zn: int, zd: int, w: int) -> tuple[int, int]:
    """Enclosure of atanh(zn/zd) scaled by 2^w, for 0 <= zn/zd <= 1/3.

    Odd series sum z^(2k+1)/(2k+1) on the exact z; the geometric tail
    sum_{j>k} z^(2j+1)/(2j+1) <= z^(2k+3)/(1-z^2) is added to the upper bound.
    One chain is enough: a wide denominator makes each term's division dear,
    but every wide z the library makes (1/(2P-1) of the split log in
    `index._ln_prime_power_index`, 1/(2u+1) of ln I(u)) is below 2^-(w/6)
    and ends the series within 3 terms.
    """
    if zn == 0:
        return 0, 0
    plo = (zn << w) // zd
    phi = _cdiv(zn << w, zd)
    slo, shi = plo, phi
    z2n, z2d = zn * zn, zd * zd
    k = 1
    while True:
        plo = plo * z2n // z2d
        phi = _cdiv(phi * z2n, z2d)
        d = 2 * k + 1
        slo += plo // d
        shi += _cdiv(phi, d)
        if phi <= d:
            shi += _cdiv(phi * z2n, z2d - z2n) + 1
            return slo, shi
        k += 1


@lru_cache(maxsize=None)
def _ln2_scaled(w: int) -> tuple[int, int]:
    # ln 2 = 2 atanh(1/3)
    lo, hi = _atanh_scaled(1, 3, w)
    return 2 * lo, 2 * hi


def _ln_scaled(num: int, den: int, w: int) -> tuple[int, int]:
    """Enclosure of ln(num/den) scaled by 2^w, for num, den >= 1.

    Argument reduction num/den = 2^e * m with m in [sqrt(2)/2, sqrt(2))
    (decided by the exact test m^2 >= 2), then ln m = 2 atanh((m-1)/(m+1))
    with |(m-1)/(m+1)| <= 3 - 2*sqrt(2) < 0.1716.
    """
    if num == den:
        return 0, 0
    if num < den:
        lo, hi = _ln_scaled(den, num, w)
        return -hi, -lo
    e = num.bit_length() - den.bit_length()
    if num < den << e:
        e -= 1
    scaled_den = den << e
    if num * num >= 2 * scaled_den * scaled_den:
        e += 1
        scaled_den <<= 1
    zn = num - scaled_den
    zd = num + scaled_den
    if zn >= 0:
        alo, ahi = _atanh_scaled(zn, zd, w)
        mlo, mhi = 2 * alo, 2 * ahi
    else:
        alo, ahi = _atanh_scaled(-zn, zd, w)
        mlo, mhi = -2 * ahi, -2 * alo
    l2lo, l2hi = _ln2_scaled(w)
    return mlo + e * l2lo, mhi + e * l2hi  # e >= 0 here


def _exp_series_scaled(t: int, w: int, upper: bool) -> int:
    """One bound of exp(t / 2^w) scaled by 2^w, for 0 <= t/2^w <= 1 (after
    `_exp_bound`'s halving, t/2^w <= 0.70 / 2^h).

    Plain Taylor sum, each term (p * t >> w) // j: floored for the lower bound
    and ceiled for the upper (floor(floor(a/2^w)/j) = floor(a/(j*2^w)), and
    likewise ceil). Any partial sum of floored terms is a lower bound; the
    upper bound adds the remainder after the term of index j, below
    t^(j+1)/(j+1)! * 1/(1 - t/(j+2)) <= 4*p + 2 once p <= 2 ulps.
    """
    p = s = 1 << w
    j = 1
    while p > 2:
        p = -((-p * t >> w) // j) if upper else (p * t >> w) // j
        s += p
        j += 1
    return s + 4 * p + 2 if upper else s


def _exp_bound(xn: int, xd: int, w: int, upper: bool) -> int:
    """One bound of exp(xn/xd) scaled by 2^w (any sign of xn, xd > 0), from
    one Taylor chain.

    Reduction x = k*ln2 + r with r in [0, ~0.70] at w bits; then
    argument halving (Brent and Zimmermann, Modern Computer Arithmetic,
    4.3-4.4): the chain runs on r / 2^h with h = isqrt(w) // 2 at
    v = w + h + 4 bits, where r / 2^h scaled by 2^v is r's w-bit value
    shifted left by 4, exactly. Squaring back h times, floored on the lower
    bound and ceiled on the upper, doubles the relative error each time, which
    the h + 4 extra bits absorb; the result is rounded outward to w bits and
    shifted by k. Negative x goes through the reciprocal of the opposite bound
    of exp(-x), so the series argument stays non-negative.
    """
    if xn < 0:
        sq = 1 << (2 * w)
        return _cdiv(sq, _exp_bound(-xn, xd, w, False)) if upper else sq // _exp_bound(-xn, xd, w, True)
    # ln 2 at v = w + s bits is about 0.7 v units of 2^-v wide; with 2^s
    # above 2x * w > k * w, k times that stays near a unit of 2^-w. For
    # k = 0, r rounded back to w bits is exactly floor and ceil of x * 2^w.
    s = (xn // xd).bit_length() + 1 + w.bit_length()
    l2lo, l2hi = _ln2_scaled(w + s)
    xs_lo = (xn << (w + s)) // xd
    k = xs_lo // l2hi
    if upper:
        r = -((k * l2lo - _cdiv(xn << (w + s), xd)) >> s)
    else:
        r = (xs_lo - k * l2hi) >> s  # in [0, l2hi >> s] by choice of k
    h = isqrt(w) // 2
    v = w + h + 4
    y = _exp_series_scaled(r << 4, v, upper)
    for _ in range(h):
        y = -(-y * y >> v) if upper else y * y >> v
    return (-(-y >> (h + 4)) if upper else y >> (h + 4)) << k


def _sqrt_scaled(num: int, den: int, w: int) -> tuple[int, int]:
    """Enclosure of sqrt(num/den) scaled by 2^w via integer square roots."""
    lo = isqrt((num << (2 * w)) // den)
    t = _cdiv(num << (2 * w), den)
    hi = isqrt(t)
    if hi * hi < t:
        hi += 1
    return lo, hi


def _from_scaled(lo: int, hi: int, w: int, bits: int) -> IntervalReal:
    scale = 1 << w
    return IntervalReal(Fraction(lo, scale), Fraction(hi, scale), bits)


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------


def ln_ratio(r: RatioLike, bits: int = DEFAULT_PRECISION.initial_bits) -> IntervalReal:
    """Enclosure of ln(r) for an exact rational r > 0."""
    r = Fraction(r)
    if r <= 0:
        raise ValueError(f"ln requires a positive argument, got {r}")
    w = bits + GUARD_BITS
    lo, hi = _ln_scaled(r.numerator, r.denominator, w)
    return _from_scaled(lo, hi, w, bits)


def exp_ratio(x: RatioLike, bits: int = DEFAULT_PRECISION.initial_bits) -> IntervalReal:
    """Enclosure of exp(x) for an exact rational x: two chains, one per bound."""
    return exp_interval(IntervalReal.exact(x, bits), bits)


def exp_interval(x: IntervalReal, bits: int = DEFAULT_PRECISION.initial_bits) -> IntervalReal:
    """Enclosure of exp over an enclosure (exp is increasing)."""
    w = bits + GUARD_BITS
    lo = _exp_bound(x.lo.numerator, x.lo.denominator, w, False)
    hi = _exp_bound(x.hi.numerator, x.hi.denominator, w, True)
    return _from_scaled(lo, hi, w, bits)


def pow_interval(
    base: RatioLike,
    exponent: IntervalReal,
    bits: int = DEFAULT_PRECISION.initial_bits,
) -> IntervalReal:
    """Enclosure of base**exponent = exp(exponent * ln(base)) for an exact
    rational base > 0: one log of the base, then exp (ValueError if base <= 0)."""
    return exp_interval(exponent * ln_ratio(base, bits), bits)


def sqrt_ratio(r: RatioLike, bits: int = DEFAULT_PRECISION.initial_bits) -> IntervalReal:
    """Enclosure of sqrt(r) for an exact rational r >= 0, from integer square
    root refinement (no decimal literals anywhere)."""
    r = Fraction(r)
    if r < 0:
        raise ValueError(f"sqrt requires a non-negative argument, got {r}")
    w = bits + GUARD_BITS
    lo, hi = _sqrt_scaled(r.numerator, r.denominator, w)
    return _from_scaled(lo, hi, w, bits)


def escalate(
    evaluate: Callable[[int], T],
    verdict: Callable[[T], Optional[V]],
    cfg: PrecisionConfig = DEFAULT_PRECISION,
) -> tuple[Optional[V], T]:
    """Evaluate at each rung of cfg's precision ladder and return (verdict,
    value) at the first rung where verdict(value) is not None, or (None, last
    value) at the ceiling. An exception from evaluate propagates unchanged."""
    for bits in cfg.ladder():
        value = evaluate(bits)
        found = verdict(value)
        if found is not None:
            return found, value
    return None, value


# ---------------------------------------------------------------------------
# decimal rendering
# ---------------------------------------------------------------------------


def _rounded(x: Fraction, digits: int, rounding: str) -> Decimal:
    """x != 0 correctly rounded to `digits` significant digits, at any magnitude.

    Only |x|'s leading digits (digits + 1 to digits + 3 of them, an integer
    quotient) reach `decimal`, followed by a sticky digit that is 1 iff
    anything nonzero follows them. Rounding to `digits` digits, ties included,
    depends on nothing else, and the quotient takes time linear in the size
    of x where `Decimal(x.numerator)` takes quadratic time.
    """
    n, d = abs(x.numerator), x.denominator
    # a lower bound on the exponent of |x|'s leading digit: |x| exceeds
    # 2^(bits(n) - bits(d) - 1), and the - 1 covers the 2e-14 by which
    # 0.301029995664 exceeds log10(2) for any x narrower than 10^13 bits
    lead = (n.bit_length() - d.bit_length() - 1) * 301029995664 // 10**12 - 1
    shift = digits - lead
    q, r = divmod(n * 10**shift, d) if shift >= 0 else divmod(n, d * 10**-shift)
    kept = 10 * q + (r != 0)  # q >= 10^digits, then the sticky digit
    ctx = Context(prec=digits, rounding=rounding, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return ctx.scaleb(Decimal(kept if x > 0 else -kept), -shift - 1)


def _decimal(x: Fraction, sig: int) -> str:
    """Round x to `sig` significant digits (half up) and format positionally
    when the exponent is moderate, scientifically otherwise."""
    if x == 0:
        return "0"
    d = _rounded(x, sig, ROUND_HALF_UP)
    sign, digits, _ = d.as_tuple()
    e = d.adjusted()
    padded = Decimal((sign, digits + (0,) * (sig - len(digits)), e - sig + 1))
    return format(padded, "f" if -4 <= e < sig else "e")


def _radius_text(radius: Fraction) -> str:
    """Least one-significant-digit decimal >= the radius, e.g. ``3e-12``."""
    if radius == 0:
        return "0"
    d = _rounded(radius, 1, ROUND_CEILING)
    return f"{d.as_tuple().digits[0]}e{d.adjusted()}"
