"""Rigorous real enclosures over exact rational endpoints.

An IntervalReal [lo, hi] is guaranteed to contain the exact real value it
stands for. Its ends are exact rationals kept as unreduced integer ratios,
which ring operations combine exactly and comparisons cross-multiply; a
reduced Fraction is built only when an end is read. Transcendental
evaluations (ln, exp, powers, square roots) run in fixed-point integer
arithmetic at w = ``bits + GUARD_BITS`` bits. ln and exp each run one
floored chain at a few more bits, whose value is a lower bound, and add to it
an analytic bound on what its floors, its truncated series and, for exp, the
squarings of argument halving can have lost (midpoint-radius accounting, as
in Johansson's Arb, IEEE TC 2017); both ends are then rounded outward to w
bits. The exp chain sums its Taylor series in bit-burst levels, each term a
product by a short chunk of the argument and a division by a small integer,
and halves the argument only as far as it needs. A power keeps the log of its
base as scaled integers up to the exp chain, and picks the products with the
exponent's ends by their signs.
Containment is therefore unconditional. Every exact rational, an end or an
evaluator's argument, is read by `_ratio` as an int or a Fraction, never a
float. Only text is rounded: correctly, by `decimal`, from a short quotient.

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
from functools import cached_property, lru_cache
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
Ratio = tuple[int, int]  # an enclosure end (n, d), d > 0, not reduced
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


def _ratio(x: RatioLike) -> Ratio:
    """An int or Fraction as (n, d), d > 0; a float is not the decimal it shows."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"an exact rational must be an int or a Fraction, got {type(x).__name__}")


def _less(a: Ratio, b: Ratio) -> bool:
    """a < b for integer ratios with positive denominators, cross-multiplied unless they share one."""
    return a[0] < b[0] if a[1] == b[1] else a[0] * b[1] < b[0] * a[1]


class IntervalReal:
    """Enclosure [lo, hi] of a real value; `bits` is the precision it was
    produced at (metadata only, the ends are exact rationals). Immutable.

    Each end is kept as an unreduced integer ratio (n, d) with d > 0: the ring
    operators, `compare` and the evaluators combine and cross-multiply those
    integers with no gcd, and a reduced Fraction is built only where an end is
    read (`lo`, `hi`, `width`, `midpoint`, `radius`, `render`, `repr`).
    Equality and hashing follow the values and `bits`."""

    def __init__(self, lo: RatioLike, hi: RatioLike, bits: int) -> None:
        self._set(_ratio(lo), _ratio(hi), bits)

    @classmethod
    def _of(cls, lo: Ratio, hi: Ratio, bits: int) -> "IntervalReal":
        """The enclosure of two integer ratios with positive denominators."""
        self = object.__new__(cls)
        self._set(lo, hi, bits)
        return self

    def _set(self, lo: Ratio, hi: Ratio, bits: int) -> None:
        if _less(hi, lo):
            raise ValueError(f"inverted interval: {Fraction(*lo)} > {Fraction(*hi)}")
        self.__dict__.update(_lo=lo, _hi=hi, bits=bits)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: IntervalReal is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}: IntervalReal is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalReal):
            return NotImplemented
        return self.bits == other.bits and all(
            a[0] * b[1] == b[0] * a[1] for a, b in ((self._lo, other._lo), (self._hi, other._hi))
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.bits))

    def __repr__(self) -> str:
        return f"IntervalReal(lo={self.lo!r}, hi={self.hi!r}, bits={self.bits!r})"

    @classmethod
    def exact(cls, value: RatioLike, bits: int = DEFAULT_PRECISION.initial_bits) -> "IntervalReal":
        v = _ratio(value)
        return cls._of(v, v, bits)

    @property
    def lo(self) -> Fraction:
        return Fraction(*self._lo)

    @property
    def hi(self) -> Fraction:
        return Fraction(*self._hi)

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
            other_lo, other_hi = other._lo, other._hi
        else:
            other_lo = other_hi = _ratio(other)
        if _less(self._hi, other_lo):
            return Comparison.LESS
        if _less(other_hi, self._lo):
            return Comparison.GREATER
        return Comparison.UNDECIDED

    def contains(self, value: RatioLike) -> bool:
        return self.compare(value) is Comparison.UNDECIDED

    def overlaps(self, other: "IntervalReal") -> bool:
        return self.compare(other) is Comparison.UNDECIDED

    # Endpoint arithmetic is exact, so these operations are themselves exact
    # enclosures of the pointwise image; no rounding happens here, and no gcd:
    # the ends stay unreduced integer ratios. A rational operand is its
    # degenerate enclosure, and `_least_product` picks every end of a product.

    def __neg__(self) -> "IntervalReal":
        (ln, ld), (hn, hd) = self._lo, self._hi
        return IntervalReal._of((-hn, hd), (-ln, ld), self.bits)

    def __add__(self, other: Union["IntervalReal", RatioLike]) -> "IntervalReal":
        if not isinstance(other, IntervalReal):
            other = IntervalReal.exact(other, self.bits)
        ends = [(a * d + c * b, b * d) for (a, b), (c, d) in ((self._lo, other._lo), (self._hi, other._hi))]
        return IntervalReal._of(*ends, min(self.bits, other.bits))

    __radd__ = __add__

    def __sub__(self, other: Union["IntervalReal", RatioLike]) -> "IntervalReal":
        return self + (-other)

    def __mul__(self, other: Union["IntervalReal", RatioLike]) -> "IntervalReal":
        if not isinstance(other, IntervalReal):
            other = IntervalReal.exact(other, self.bits)
        (ln, ld), (hn, hd) = other._lo, other._hi
        least = _least_product(self._lo, self._hi, other._lo, other._hi)
        n, d = _least_product(self._lo, self._hi, (-hn, hd), (-ln, ld))  # the greatest is -n/d
        return IntervalReal._of(least, (-n, d), min(self.bits, other.bits))

    __rmul__ = __mul__

    def __truediv__(self, other: Union["IntervalReal", RatioLike]) -> "IntervalReal":
        if not isinstance(other, IntervalReal):
            other = IntervalReal.exact(other, self.bits)
        (ln, ld), (hn, hd) = other._lo, other._hi
        if ln <= 0 <= hn:
            raise ZeroDivisionError("divisor interval touches zero")
        s = 1 if ln > 0 else -1  # both ends have this sign; 1/(n/d) is sd/sn
        return self * IntervalReal._of((s * hd, s * hn), (s * ld, s * ln), other.bits)

    def __str__(self) -> str:
        return self.render()

    def render(self) -> str:
        """Decimal rendering: midpoint to 10 significant digits with explicit
        radius and achieved precision, e.g. ``1.444405574 ± 2e-87 @256b``."""
        return self._text

    @cached_property
    def _text(self) -> str:
        # render's text, kept in the instance's __dict__ on first use: not a
        # field, so equality, hashing and repr do not see it, and a cached
        # enclosure is rendered once however often it is shown
        return f"{_decimal(self.midpoint, 10)} ± {_radius_text(self.radius)} @{self.bits}b"


# ---------------------------------------------------------------------------
# fixed-point kernels (integers scaled by 2^w, w = bits + GUARD_BITS)
# ---------------------------------------------------------------------------


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for b > 0: a shift and a mask when b is a power of two."""
    return divmod(a, b) if b & (b - 1) else (a >> (b.bit_length() - 1), a & (b - 1))


def _cdiv(a: int, b: int) -> int:
    """ceil(a / b) for b > 0."""
    return -_divmod(-a, b)[0]


def _atanh_chain(zn: int, zd: int, v: int) -> tuple[int, int, int]:
    """(s, k, tail) for atanh(z) scaled by 2^v, z = zn/zd in (0, 1/3], from one
    floored chain: s sums floor(P_j / (2j+1)) for j <= k, with P_0 = floor(z 2^v)
    and P_j = floor(P_(j-1) z^2). Each P_j is short of z^(2j+1) 2^v by less than
    1/(1 - z^2) <= 9/8, so s is short of its k + 1 true terms by less than
    1 + 11k/8; the terms after them sum to at most (P_k + 2) z^2/(1 - z^2) <= tail.
    Every wide z the library makes (1/(2P-1) of `index._ln_prime_power_index`,
    about δ/2 of `index.abundancy_exponent`'s ln(1 + δ), 1/(2u+1) of ln I(u)) is
    below 2^-(w/6), so its dear divisions end within 3 terms; one below about
    2^-(v/3) stops at P_0 without forming zd^2: when bit lengths show P_0 zn^2 <
    zd^2, P_1 = 0 and the tail ceil(2z^2/(1 - z^2)) is 1 (as 3z <= 1)."""
    p = s = (zn << v) // zd
    if (p * zn * zn).bit_length() < 2 * zd.bit_length() - 1:
        return s, 1, 1
    z2n, z2d = zn * zn, zd * zd
    k = 1
    while True:
        p = p * z2n // z2d
        d = 2 * k + 1
        s += p // d
        if p <= d:
            return s, k, _cdiv((p + 2) * z2n, z2d - z2n)
        k += 1


def _atanh_scaled(zn: int, zd: int, w: int) -> tuple[int, int]:
    """Enclosure of atanh(zn/zd) scaled by 2^w, for 0 <= zn/zd <= 1/3: the chain
    at v = w + bits(w) bits, its deficit and tail (about 0.43 v < 2^bits(w)
    units of 2^-v) added above, both ends rounded outward to w bits."""
    if zn == 0:
        return 0, 0
    c = w.bit_length()
    s, k, tail = _atanh_chain(zn, zd, w + c)
    return s >> c, -(-(s + 1 + _cdiv(11 * k, 8) + tail) >> c)


@lru_cache(maxsize=None)
def _ln2_scaled(w: int) -> tuple[int, int]:
    # ln 2 = 2 atanh(1/3)
    lo, hi = _atanh_scaled(1, 3, w)
    return 2 * lo, 2 * hi


def _ln_scaled(num: int, den: int, w: int) -> tuple[int, int]:
    """Enclosure of ln(num/den) scaled by 2^w, for num, den >= 1.

    Argument reduction num/den = 2^e * m with m in [sqrt(2)/2, sqrt(2)), decided
    exactly (on num and den 2^e cut to num's top 64 bits, where those tell), then
    ln m = 2 atanh((m-1)/(m+1)) with |(m-1)/(m+1)| <= 3 - 2*sqrt(2) < 0.1716.
    """
    if num < den:
        lo, hi = _ln_scaled(den, num, w)
        return -hi, -lo
    e = num.bit_length() - den.bit_length()
    if num < den << e:
        e -= 1
    scaled_den = den << e
    t = num.bit_length() - 64
    a, b = (num >> t, scaled_den >> t) if t > 0 else (num, scaled_den)
    if t > 0 and (a + 1) ** 2 >= 2 * b * b and a * a < 2 * (b + 1) ** 2:
        a, b = num, scaled_den  # only here can the cut-off bits move a^2 across 2b^2
    if a * a >= 2 * b * b:
        e += 1
        scaled_den <<= 1
    zn = num - scaled_den
    zd = num + scaled_den
    alo, ahi = _atanh_scaled(abs(zn), zd, w)
    if zn < 0:
        alo, ahi = -ahi, -alo
    if e == 0:  # no ln 2 to add, and none to compute and cache at this w
        return 2 * alo, 2 * ahi
    l2lo, l2hi = _ln2_scaled(w)
    return 2 * alo + e * l2lo, 2 * ahi + e * l2hi  # e >= 1 here


def _exp_level(n: int, q: int, v: int) -> tuple[int, int]:
    """(s, e) with s <= exp(x) 2^v < s + e for x = n/2^q <= 1/2, q <= v: one
    floored Taylor series whose products are all by the short integer n.
    A_0 = 2^v, A_k = floor(floor(A_(k-1) n / 2^q) / k) = floor(A_(k-1) x / k),
    s = A_0 + ... + A_N for the first N >= 1 with A_N < 2^p, p = q - bits(n),
    so x < 2^-p. In units of 2^-v: A_1 = n 2^(v-q) is exact and A_k is short
    by δ_k < 1 + δ_(k-1) x/k, so δ_k < 1/(1 - x/2) <= 1 + x (k >= 2), and the
    terms lose less than (N - 1)(1 + x) < N + ((N - 1) >> p). Of the terms
    left out, the first is below (A_N + δ_N) x/(N + 1) < (2^p + x) x/2 <= 5/8
    and each later one at most x/(N + 2) <= 1/6 of the one before, so they
    sum to less than 3/4. Hence e = N + ((N - 1) >> p) + 1, about twice what
    a long series loses (a floor loses half a unit on average)."""
    p = q - n.bit_length()
    bound = 1 << p
    a = s = 1 << v
    k = 0
    while a >= bound:
        k += 1
        a = (a * n >> q) // k
        s += a
    return s, k + ((k - 1) >> p) + 1


def _times(y: int, e: int, s: int, d: int, v: int) -> tuple[int, int]:
    """The product of y <= Y <= y + e and s <= S <= s + d, all over 2^v:
    floor(y s / 2^v) <= Y S / 2^v <= (y s + e (s + d) + d y) / 2^v, and the
    floor loses less than 1, so the error is 1 + ceil((e (s + d) + d y) /
    2^v); a square, (s, d) = (y, e), takes 1 + ceil(e (2y + e) / 2^v)."""
    return y * s >> v, 1 - (-(e * (s + d) + d * y) >> v)


def _exp_chain(t: int, v: int, h: int) -> tuple[int, int]:
    """(y, e) with y <= exp(t/2^v)^(2^h) 2^v <= y + e, for 0 <= x = t/2^v <= 1/2,
    by bit-burst levels (Brent 1976; Brent and Zimmermann, Modern Computer
    Arithmetic, 4.9.2): exp(x) is the product of the exp(x_j), where x_0 holds
    x's first 128 bits below the point and each later x_j the bits after the
    end b of the one before, up to 4b, or up to v once fewer than b would be
    left (bits 129-512, 513-2048, 2049-v at v = 4158). Each level is one
    `_exp_level` series in the short integer x_j 2^(its end), of about v/b
    terms; one whose x_j is 0 is skipped, but x_0's always runs (t = 0 gives
    (2^v, 2)). `_times` multiplies the levels' values, then makes the h
    squarings, and carries the error bound through each product."""
    b = min(v, 128)
    y, e = _exp_level(t >> (v - b), b, v)
    while b < v:
        end = 4 * b if 5 * b <= v else v
        n = t >> (v - end) & ((1 << (end - b)) - 1)
        if n:
            y, e = _times(y, e, *_exp_level(n, end, v), v)
        b = end
    for _ in range(h):
        y, e = _times(y, e, y, e, v)
    return y, e


def _grow(y: int, d: int, w: int) -> int:
    """y (1 + δ + δ^2) rounded up, δ = d/2^w in [0, 1]: at least y e^δ."""
    return y - (-((y * d << w) + y * d * d) >> (2 * w))  # y d (2^w + d) / 2^(2w), by a shift


def _exp_scaled(xn: int, xd: int, w: int) -> tuple[int, int]:
    """Enclosure of exp(xn/xd) scaled by 2^w (any sign of xn, xd > 0), from
    one chain.

    Reduction x = k ln 2 + r with r in [r_lo, r_hi] / 2^w; then argument halving
    (Brent and Zimmermann, Modern Computer Arithmetic, 4.3-4.4) only as far
    as r needs: r_lo / 2^w has m leading zero bits below the point, and the
    chain runs on r_lo / 2^(w+h), h = max(0, bits(w) - m), which is below
    2^-max(m, bits(w)) <= 1/2, at v = w + c bits, c = h + 4 + bits(w), where
    it is r_lo shifted left by c - h, exactly. Its error before the
    squarings is about the number of terms it sums, about v/bits(w) (fewer
    than 2^9 at 4096 bits), and each squaring about doubles it, so it stays
    below 2^(h + 2 + bits(w)) < 2^c, a unit of 2^-w. The upper end
    grows by r_hi - r_lo; both ends are rounded outward to w bits and shifted
    by k. Negative x takes the reciprocals of both bounds of exp(-x).
    """
    if xn < 0:
        lo, hi = _exp_scaled(-xn, xd, w)
        sq = 1 << (2 * w)
        return sq // hi, _cdiv(sq, lo)
    # ln 2 at v = w + s bits is about 0.7 v units of 2^-v wide; with 2^s
    # above 2x * w > k * w, k times that stays near a unit of 2^-w. For
    # k = 0, r_lo and r_hi are exactly floor and ceil of x * 2^w.
    s = (xn // xd).bit_length() + 1 + w.bit_length()
    l2lo, l2hi = _ln2_scaled(w + s)
    xs_lo, rest = _divmod(xn << (w + s), xd)
    k = xs_lo // l2hi
    r_lo = (xs_lo - k * l2hi) >> s  # in [0, l2hi >> s] by choice of k
    r_hi = -((k * l2lo - xs_lo - (rest > 0)) >> s)
    h = max(0, w.bit_length() - (w - r_lo.bit_length()))
    c = h + 4 + w.bit_length()
    y, e = _exp_chain(r_lo << (c - h), w + c, h)
    return (y >> c) << k, -(-_grow(y + e, r_hi - r_lo, w) >> c) << k


def _exp_between(an: int, ad: int, bn: int, bd: int, w: int) -> tuple[int, int]:
    """Enclosure of exp over [an/ad, bn/bd] scaled by 2^w (ad, bd > 0), from the
    chain at a. For b - a <= 2^-(w/2) the upper end grows by b - a, which
    overshoots exp(b) by at most about (b - a)^2 / 2 <= 2^-w on its scale; a
    wider interval takes its upper end from a second chain at b."""
    lo, hi = _exp_scaled(an, ad, w)
    d = _cdiv((bn - an) << w, ad) if ad == bd else _cdiv((bn * ad - an * bd) << w, ad * bd)  # ceil((b - a) 2^w)
    return lo, _grow(hi, d, w) if d <= 1 << (w // 2) else _exp_scaled(bn, bd, w)[1]


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
    return IntervalReal._of((lo, scale), (hi, scale), bits)


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------


def ln_ratio(r: RatioLike, bits: int = DEFAULT_PRECISION.initial_bits) -> IntervalReal:
    """Enclosure of ln(r) for an exact rational r > 0."""
    n, d = _ratio(r)
    if n <= 0:
        raise ValueError(f"ln requires a positive argument, got {Fraction(n, d)}")
    w = bits + GUARD_BITS
    return _from_scaled(*_ln_scaled(n, d, w), w, bits)


def exp_ratio(x: RatioLike, bits: int = DEFAULT_PRECISION.initial_bits) -> IntervalReal:
    """Enclosure of exp(x) for an exact rational x, from one chain."""
    return exp_interval(IntervalReal.exact(x, bits), bits)


def exp_interval(x: IntervalReal, bits: int = DEFAULT_PRECISION.initial_bits) -> IntervalReal:
    """Enclosure of exp over an enclosure (exp is increasing): one chain, or
    two for an enclosure wider than 2^-(w/2), w = bits + GUARD_BITS."""
    w = bits + GUARD_BITS
    return _from_scaled(*_exp_between(*x._lo, *x._hi, w), w, bits)


def _least_product(y_lo: Ratio, y_hi: Ratio, l_lo: Ratio, l_hi: Ratio) -> Ratio:
    """The least y l over [y_lo, y_hi] x [l_lo, l_hi], as the unreduced ratio
    of the product of the ends picked by their signs: y l is increasing in y
    where l >= 0 and decreasing where l <= 0, and likewise in l by the sign of
    y. Only when both ranges straddle 0 are two candidates compared. It is the
    rule for every product of enclosures: `IntervalReal.__mul__`, `__truediv__`
    through it, and `pow_interval`; each takes the greatest as -y l over
    [-l_hi, -l_lo]. A power-of-two denominator of l (a log's 2^w) is a shift."""
    if l_lo[0] < 0 < l_hi[0]:
        if y_lo[0] < 0 < y_hi[0]:
            a, b = (y_lo[0] * l_hi[0], y_lo[1] * l_hi[1]), (y_hi[0] * l_lo[0], y_hi[1] * l_lo[1])
            return a if _less(a, b) else b
        y, l = (y_hi, l_lo) if y_lo[0] >= 0 else (y_lo, l_hi)
    else:
        y = y_lo if l_lo[0] >= 0 else y_hi
        l = l_lo if y[0] >= 0 else l_hi
    return y[0] * l[0], y[1] << (l[1].bit_length() - 1) if l[1] & (l[1] - 1) == 0 else y[1] * l[1]


def pow_interval(
    base: RatioLike,
    exponent: IntervalReal,
    bits: int = DEFAULT_PRECISION.initial_bits,
) -> IntervalReal:
    """Enclosure of base**exponent = exp(exponent * ln(base)) for an exact
    rational base > 0 (ValueError otherwise): `_least_product` picks the least
    and greatest products of the exponent's ends with the scaled-integer log
    of the base, which never straddles 0, and they go to the exp chain as
    integer pairs. That is the enclosure of `exp_interval(exponent *
    ln_ratio(base, bits), bits)`. An exponent with dyadic ends over one 2^v,
    as `index.reciprocal_exponent` gives, makes both products dyadic over
    2^(v + w): the chain's reduction and their width are then shifts."""
    n, d = _ratio(base)
    if n <= 0:
        raise ValueError(f"pow requires a positive base, got {Fraction(n, d)}")
    w = bits + GUARD_BITS
    lo, hi = _ln_scaled(n, d, w)
    scale = 1 << w
    an, ad = _least_product(exponent._lo, exponent._hi, (lo, scale), (hi, scale))
    bn, bd = _least_product(exponent._lo, exponent._hi, (-hi, scale), (-lo, scale))  # the greatest is -bn/bd
    return _from_scaled(*_exp_between(an, ad, -bn, bd, w), w, bits)


def sqrt_ratio(r: RatioLike, bits: int = DEFAULT_PRECISION.initial_bits) -> IntervalReal:
    """Enclosure of sqrt(r) for an exact rational r >= 0, from integer square
    root refinement (no decimal literals anywhere)."""
    n, d = _ratio(r)
    if n < 0:
        raise ValueError(f"sqrt requires a non-negative argument, got {Fraction(n, d)}")
    w = bits + GUARD_BITS
    return _from_scaled(*_sqrt_scaled(n, d, w), w, bits)


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
    d = _rounded(x, sig, ROUND_HALF_UP)  # exactly sig digits, trailing zeros kept
    return format(d, "f" if -4 <= d.adjusted() < sig else "e")


def _radius_text(radius: Fraction) -> str:
    """Least one-significant-digit decimal >= the radius, e.g. ``3e-12``."""
    if radius == 0:
        return "0"
    d = _rounded(radius, 1, ROUND_CEILING)
    return f"{d.as_tuple().digits[0]}e{d.adjusted()}"
