import importlib
import inspect
import math
import operator
import random
import re
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import BIG_PRIME, assert_consistent, separation
from abundancy import index, interval, opn, report
from abundancy.arith import Factorization, primes_up_to
from abundancy.index import SandwichStatus, abundancy_exponent, index_lower_bound, sandwich_check
from abundancy.opn import euler_sum_bound
from abundancy.interval import (
    DEFAULT_PRECISION,
    Comparison,
    IntervalReal,
    PrecisionConfig,
    escalate,
    exp_interval,
    exp_ratio,
    ln_ratio,
    pow_interval,
    sqrt_ratio,
)


def test_precision_config_validation():
    with pytest.raises(ValueError):
        PrecisionConfig(512, 256)
    assert list(PrecisionConfig(256, 1024).ladder()) == [256, 512, 1024]
    assert list(PrecisionConfig(256, 256).ladder()) == [256]


# A value is evaluated once and takes `bits`; only a verdict, which climbs the
# ladder, takes a PrecisionConfig. euler_sum_bound is the one value that takes
# a config, as the benchmark passes it one, and escalate is the ladder itself.
VALUES = (index.abundancy_exponent, index.prime_power_exponent, index.reciprocal_exponent,
          index.index_lower_bound, opn.euler_sum_bound_limit, opn.ceiling_interval, report.reference_constants,
          exp_interval, exp_ratio, ln_ratio, pow_interval, sqrt_ratio)
VERDICTS = (index.sandwich_check, opn.validate_eulerian, opn.ceiling_scan, report.run_report)


@pytest.mark.parametrize("value", VALUES, ids=lambda f: f.__name__)
def test_a_value_takes_bits_defaulting_to_the_first_rung(value):
    parameters = inspect.signature(value).parameters
    assert parameters["bits"].default == DEFAULT_PRECISION.initial_bits
    assert parameters["bits"].annotation in (int, "int")


@pytest.mark.parametrize("verdict", [*VERDICTS, opn.euler_sum_bound], ids=lambda f: f.__name__)
def test_a_verdict_takes_a_precision_config(verdict):
    parameters = inspect.signature(verdict).parameters
    assert parameters["cfg"].default is DEFAULT_PRECISION and "bits" not in parameters
    assert parameters["cfg"].annotation in (PrecisionConfig, "PrecisionConfig")


def test_only_the_verdicts_and_the_named_exception_take_a_precision_config():
    # over every public function of the package (an lru_cache's wrapped one)
    configs, bits = set(), set()
    for name in ("arith", "index", "interval", "mersenne", "opn", "report"):
        module = importlib.import_module(f"abundancy.{name}")
        for function in map(module.__dict__.get, module.__all__):
            if not inspect.isfunction(inspect.unwrap(function)):
                continue
            parameters = inspect.signature(function).parameters
            if any(p.default is DEFAULT_PRECISION or p.annotation in (PrecisionConfig, "PrecisionConfig")
                   for p in parameters.values()):
                configs.add(function)
            if "bits" in parameters:
                bits.add(function)
    assert configs == {*VERDICTS, opn.euler_sum_bound, escalate}
    assert bits == set(VALUES)


def test_interval_invariant():
    with pytest.raises(ValueError):
        IntervalReal(Fraction(2), Fraction(1), 256)


def test_ln_of_one_is_exact_zero():
    x = ln_ratio(1)
    assert x.lo == 0 and x.hi == 0


def test_ln_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_ratio(0)
    with pytest.raises(ValueError):
        ln_ratio(Fraction(-3, 2))


def test_ln_frozen_values():
    assert_consistent(ln_ratio(Fraction(4, 3)), "ln(4/3)")
    assert_consistent(ln_ratio(Fraction(13, 9)), "ln(13/9)")
    assert_consistent(ln_ratio(2), "ln(2)")


def test_ln_width_contract():
    # achieved width stays below 2^-bits (the guard bits absorb rounding)
    for r in (Fraction(4, 3), Fraction(10**13 + 7, 11), Fraction(1, 97)):
        x = ln_ratio(r, 256)
        assert x.width < Fraction(1, 2**256)


def test_exp_of_zero():
    # the general chain, no special case: exactly [1, 1 + 2^-w]
    for bits in (8, 256, 4096):
        x = exp_ratio(0, bits)
        assert (x.lo, x.hi) == (1, 1 + Fraction(1, 2 ** (bits + interval.GUARD_BITS)))


def test_exp_ln_containment():
    rng = random.Random(3)
    for _ in range(60):
        r = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**5))
        enclosure = exp_interval(ln_ratio(r, 192), 192)
        assert enclosure.contains(r), r


def test_exp_negative_arguments():
    x = exp_ratio(Fraction(-41, 5), 128)
    y = exp_ratio(Fraction(41, 5), 128)
    product = x * y
    assert product.contains(1)


def test_pow_identity_exponent():
    out = pow_interval(Fraction(7, 3), IntervalReal.exact(1))
    assert out.contains(Fraction(7, 3))
    assert out.width < Fraction(1, 2**200)
    rng = random.Random(13)
    for _ in range(40):
        r = Fraction(rng.randrange(1, 10**4), rng.randrange(1, 10**3))
        out = pow_interval(r, IntervalReal.exact(1, 128), 128)
        assert out.contains(r), r


def test_pow_square_root_agrees_with_isqrt_refinement():
    via_pow = pow_interval(2, IntervalReal.exact(Fraction(1, 2)))
    via_isqrt = sqrt_ratio(2)
    assert_consistent(via_pow, "sqrt(2)")
    assert_consistent(via_isqrt, "sqrt(2)")
    assert via_pow.overlaps(via_isqrt)


def test_pow_frozen_bound():
    expo = ln_ratio(Fraction(4, 3)) / ln_ratio(Fraction(13, 9))
    out = pow_interval(Fraction(8, 5), expo)
    assert_consistent(out, "bound(8/5,3)")
    assert out.width < Fraction(1, 10**10)


def test_pow_rejects_nonpositive_base():
    for base in (0, -1):
        with pytest.raises(ValueError):
            pow_interval(base, IntervalReal.exact(2))


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("base", [Fraction(8, 5), Fraction(5, 3), 2])
def test_pow_is_exp_of_the_exponent_times_ln_ratio(base, bits):
    y = ln_ratio(Fraction(4, 3), bits) / ln_ratio(Fraction(13, 9), bits)
    assert pow_interval(base, y, bits) == exp_interval(y * ln_ratio(base, bits), bits)


# exponents of every sign pattern: points, [-, +], [0, +], [-, 0], [+, +], [-, -]
POW_EXPONENTS = [
    IntervalReal(Fraction(a), Fraction(b), 64)
    for a, b in (
        (Fraction(7, 3),) * 2, (Fraction(-7, 3),) * 2, (0, 0), (Fraction(-1, 3), Fraction(5, 2)),
        (0, Fraction(5, 2)), (Fraction(-5, 2), 0), (Fraction(1, 3), Fraction(5, 2)), (Fraction(-5, 2), Fraction(-1, 3)),
    )
]


def test_least_product_is_picked_by_the_signs_of_the_ends():
    ends = [Fraction(-5, 2), Fraction(-1, 3), Fraction(0), Fraction(1, 3), Fraction(5, 2)]
    logs = [-7, -2, 0, 3, 11]
    for i, y_lo in enumerate(ends):
        for y_hi in ends[i:]:
            for j, l_lo in enumerate(logs):
                for l_hi in logs[j:]:
                    products = [y * l for y in (y_lo, y_hi) for l in (l_lo, l_hi)]
                    # the ends as unreduced integer ratios, the logs over a common 2^3
                    ys = [(3 * y.numerator, 3 * y.denominator) for y in (y_lo, y_hi)]
                    n, d = interval._least_product(*ys, (l_lo << 3, 8), (l_hi << 3, 8))
                    assert d > 0 and Fraction(n, d) == min(products)
                    n, d = interval._least_product(*ys, (-l_hi << 3, 8), (-l_lo << 3, 8))
                    assert d > 0 and -Fraction(n, d) == max(products)


def _pow_reference(base, exponent, bits):
    """pow_interval's enclosure from the least and greatest of the four
    `Fraction` products of the exponent's ends with the log's."""
    w = bits + interval.GUARD_BITS
    logs = interval._ln_scaled(base.numerator, base.denominator, w)
    products = [y * Fraction(l, 2**w) for y in (exponent.lo, exponent.hi) for l in logs]
    a, b = min(products), max(products)
    lo, hi = interval._exp_between(a.numerator, a.denominator, b.numerator, b.denominator, w)
    return interval._from_scaled(lo, hi, w, bits)


def test_pow_matches_the_four_product_reference(monkeypatch):
    for bits in (64, 256):
        near = Fraction(1, 2 ** (bits + interval.GUARD_BITS + 3))
        # below, at and above 1; within 2^-w of 1 the log's enclosure has 0 as an end
        for base in (Fraction(1, 3), Fraction(1), Fraction(8, 5), 1 - near, 1 + near):
            for y in POW_EXPONENTS:
                assert pow_interval(base, y, bits) == _pow_reference(base, y, bits), (base, y)
    # `_ln_scaled` makes a log that straddles 0 only below w = 4; its ln(3/2) at
    # w = 1, [-2, 3], is still an enclosure at any w
    kernel = interval._ln_scaled
    monkeypatch.setattr(interval, "_ln_scaled", lambda num, den, w: tuple(l << (w - 1) for l in kernel(num, den, 1)))
    assert interval._ln_scaled(3, 2, 96) == (-4 << 95, 6 << 95)
    for y in POW_EXPONENTS:
        out = pow_interval(Fraction(3, 2), y, 64)
        assert out == _pow_reference(Fraction(3, 2), y, 64), y
        for end in (y.lo, y.hi):
            assert out.contains(_reference(lambda: mpmath.mpf(1.5) ** (mpmath.mpf(end.numerator) / end.denominator), 160))


def test_sqrt_three_ceiling():
    x = sqrt_ratio(3) + 1
    assert_consistent(x, "1+sqrt(3)")


def test_sqrt_rejects_a_negative_argument():
    with pytest.raises(ValueError, match="^sqrt requires a non-negative argument, got -1$"):
        sqrt_ratio(-1)


def test_sqrt_containment_squares():
    rng = random.Random(5)
    for _ in range(40):
        r = Fraction(rng.randrange(1, 10**8), rng.randrange(1, 10**4))
        s = sqrt_ratio(r, 128)
        assert s.lo * s.lo <= r <= s.hi * s.hi


def test_directed_rounding_ring_ops():
    # endpoint arithmetic is exact, so the interval image always contains the
    # exact rational result
    rng = random.Random(9)
    for _ in range(100):
        a = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
        b = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
        ia, ib = IntervalReal.exact(a), IntervalReal.exact(b)
        assert (ia + ib).contains(a + b)
        assert (ia * ib).contains(a * b)
        assert (ia - ib).contains(a - b)
        if b != 0:
            if b > 0 or b < 0:
                assert (ia / ib).contains(a / b)


def test_ring_ops_with_a_rational_have_exact_endpoints():
    x = IntervalReal(Fraction(1, 3), Fraction(1, 2), 64)
    assert x - Fraction(1, 6) == IntervalReal(Fraction(1, 6), Fraction(1, 3), 64)
    assert x * Fraction(3, 2) == Fraction(3, 2) * x == IntervalReal(Fraction(1, 2), Fraction(3, 4), 64)
    assert x * 0 == IntervalReal(Fraction(0), Fraction(0), 64)
    assert x / Fraction(1, 2) == IntervalReal(Fraction(2, 3), Fraction(1), 64)
    # a negative scalar swaps the ends
    assert x * -6 == IntervalReal(Fraction(-3), Fraction(-2), 64)
    assert x / -2 == IntervalReal(Fraction(-1, 4), Fraction(-1, 6), 64)
    assert str(x) == x.render() == "0.4166666667 ± 9e-2 @64b"


def _random_enclosure(rng):
    """An enclosure with small rational ends at a random precision: a point of
    either sign, positive, touching 0 from either side, straddling 0, or negative.
    A quarter of them are given int ends, which IntervalReal takes as Fractions."""
    a, b = sorted(Fraction(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(2))
    if rng.random() < 0.25:
        a, b = math.ceil(a), math.ceil(b)
    ends = rng.choice([(a, a), (-a, -a), (a, b), (Fraction(0), b), (-b, Fraction(0)), (-a, b), (-b, -a)])
    return IntervalReal(*ends, rng.choice((64, 128, 256)))


def test_ring_ops_are_the_hull_of_the_endpoint_combinations():
    # an int or Fraction operand is the degenerate enclosure at the other's bits;
    # a rational on the left reaches __radd__ and __rmul__ (there is no reflected - or /)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    rng = random.Random(27)
    for _ in range(400):
        x, other = _random_enclosure(rng), _random_enclosure(rng)
        scalar = rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
        point = IntervalReal.exact(scalar, x.bits)
        for left, right, (a, b), symbols in (
            (x, other, (x, other), "+-*/"), (x, scalar, (x, point), "+-*/"), (scalar, x, (point, x), "+*"),
        ):
            for symbol in symbols:
                op = ops[symbol]
                if symbol == "/" and b.contains(0):
                    with pytest.raises(ZeroDivisionError, match="^divisor interval touches zero$"):
                        op(left, right)
                    continue
                ends = [op(p, q) for p in (a.lo, a.hi) for q in (b.lo, b.hi)]
                result = op(left, right)
                assert result == IntervalReal(min(ends), max(ends), min(a.bits, b.bits)), (left, symbol, right)
                assert type(result.lo) is type(result.hi) is Fraction


def test_int_ends_are_taken_as_fractions():
    # a float end would lose containment and break render
    quotient = IntervalReal(1, 2, 64) / IntervalReal(3, 3, 64)
    assert (quotient.lo, quotient.hi) == (Fraction(1, 3), Fraction(2, 3))
    assert type(quotient.lo) is type(quotient.hi) is Fraction
    assert quotient.contains(Fraction(2, 3))
    assert quotient.render() == "0.5000000000 ± 2e-1 @64b"
    assert IntervalReal(1, 2, 8).midpoint == Fraction(3, 2)


def test_float_ends_are_refused():
    # 0.1 is 3602879701896397/2^55, so [0.1, 0.2] would not contain 1/10
    for lo, hi in ((0.1, 0.2), (Fraction(1, 10), 0.2), (0, 1.0)):
        with pytest.raises(TypeError, match="int or a Fraction, got float"):
            IntervalReal(lo, hi, 64)
    x = IntervalReal(1, 2, 64)
    uses = (lambda: IntervalReal.exact(0.5), lambda: x + 0.5, lambda: 0.5 * x, lambda: x / 0.5, lambda: x.compare(0.5),
            # the evaluators read their argument by the same rule: sqrt_ratio(0.01) would miss 1/10
            lambda: ln_ratio(0.1), lambda: ln_ratio("8/5"), lambda: sqrt_ratio(0.01), lambda: exp_ratio(0.1),
            lambda: pow_interval(0.1, IntervalReal.exact(1)), lambda: sqrt_ratio(Decimal("0.01")))
    for use in uses:
        with pytest.raises(TypeError, match="int or a Fraction, got"):
            use()


def test_equal_values_are_equal_enclosures_however_built():
    w = 8 + interval.GUARD_BITS
    scaled = interval._from_scaled(3 << (w - 2), 5 << (w - 2), w, 8)  # [3/4, 5/4] over 2^w
    plain = IntervalReal(Fraction(3, 4), Fraction(5, 4), 8)
    assert scaled == plain and hash(scaled) == hash(plain) and len({scaled, plain}) == 1
    assert scaled != IntervalReal(Fraction(3, 4), Fraction(5, 4), 16)
    assert repr(scaled) == "IntervalReal(lo=Fraction(3, 4), hi=Fraction(5, 4), bits=8)"
    quotient, expected = index._log_quotient(4, 6, 9, 12, 8), IntervalReal(Fraction(3, 2), 3, 8)  # [9/6, 12/4]
    assert quotient == expected and hash(quotient) == hash(expected)
    with pytest.raises(AttributeError):
        scaled.bits = 16
    with pytest.raises(AttributeError, match="cannot delete field 'bits'"):
        del scaled.bits
    assert (scaled == 1) is False and (scaled != 1) is True  # no enclosure equals a number
    with pytest.raises(ValueError, match=r"^inverted interval: 2 > 3/2$"):
        IntervalReal._of((4, 2), (3, 2), 8)


def test_negative_operands_keep_positive_denominators():
    x = IntervalReal(Fraction(-7, 3), Fraction(-1, 5), 64)
    cases = {
        "-x": (-x, Fraction(1, 5), Fraction(7, 3)),
        "1/x": (IntervalReal.exact(1, 64) / x, Fraction(-5), Fraction(-3, 7)),
        "x/-2": (x / -2, Fraction(1, 10), Fraction(7, 6)),
        "x/x": (x / x, Fraction(3, 35), Fraction(35, 3)),
    }
    for name, (result, lo, hi) in cases.items():
        assert result._lo[1] > 0 and result._hi[1] > 0, name
        assert (result.lo, result.hi) == (lo, hi), name


def test_the_log_of_an_exact_rational_never_straddles_zero():
    # at every w the library uses (w >= GUARD_BITS; see the w = 1 log in
    # test_pow_matches_the_four_product_reference), so pow_interval's products
    # never reach _least_product's comparison
    rng = random.Random(28)
    for _ in range(20000):
        d = rng.randrange(1, 2 ** rng.choice((8, 64)))
        shape = rng.choice(("narrow", "wide", "near a power of 2"))
        if shape == "narrow":
            n = max(1, d + rng.randint(-3, 3))
        elif shape == "wide":
            n = rng.randrange(1, 2**64)
        else:  # n/d or d/n within a few units of 2^k
            n = max(1, (d << rng.randint(0, 8)) + rng.randint(-2, 2))
            if rng.random() < 0.5:
                n, d = d, n
        w = rng.randint(1, 300) + interval.GUARD_BITS
        lo, hi = interval._ln_scaled(n, d, w)
        if n >= d:
            assert lo >= 0, (n, d, w)
        if n <= d:
            assert hi <= 0, (n, d, w)


def test_monotone_refinement():
    for r in (Fraction(4, 3), Fraction(13, 9), Fraction(31, 25)):
        w256 = ln_ratio(r, 256).width
        w512 = ln_ratio(r, 512).width
        assert w512 <= w256


def test_division_rejects_interval_through_zero():
    with pytest.raises(ZeroDivisionError):
        IntervalReal.exact(1) / IntervalReal(Fraction(-1), Fraction(1), 256)


def test_compare_one_shot():
    assert ln_ratio(Fraction(4, 3)).compare(Fraction(1, 3)) is Comparison.LESS
    assert ln_ratio(2).compare(Fraction(1, 3)) is Comparison.GREATER
    assert IntervalReal.exact(0).compare(0) is Comparison.UNDECIDED  # touching


def test_compare_against_enclosures():
    x = IntervalReal(Fraction(1), Fraction(2), 256)
    assert x.compare(IntervalReal(Fraction(3), Fraction(4), 64)) is Comparison.LESS
    assert x.compare(IntervalReal(Fraction(-1), Fraction(1, 2), 64)) is Comparison.GREATER
    # touching endpoints on either side, and nesting, separate nothing
    assert x.compare(IntervalReal(Fraction(2), Fraction(3), 64)) is Comparison.UNDECIDED
    assert x.compare(IntervalReal(Fraction(0), Fraction(1), 64)) is Comparison.UNDECIDED
    assert x.compare(IntervalReal(Fraction(0), Fraction(5), 64)) is Comparison.UNDECIDED
    # a rational and its exact enclosure give the same verdict
    for t in (0, 1, Fraction(3, 2), 2, Fraction(5, 2)):
        assert x.compare(t) is x.compare(IntervalReal.exact(t))
    assert x.contains(2) and not x.contains(Fraction(5, 2))
    assert x.overlaps(IntervalReal.exact(1)) and not x.overlaps(IntervalReal.exact(3))


def test_decide_escalates():
    base = sqrt_ratio(2, 256)
    threshold = base.midpoint  # straddles at 256 bits by construction
    assert base.compare(threshold) is Comparison.UNDECIDED
    verdict, enclosure = escalate(lambda bits: sqrt_ratio(2, bits), separation(threshold))
    assert verdict is not None
    assert enclosure.bits > 256


def test_decide_touching_stays_undecided():
    verdict, _ = escalate(lambda bits: IntervalReal.exact(0, bits), separation(0), PrecisionConfig(64, 256))
    assert verdict is None


def test_decide_against_rational_proxy():
    # 1 + 2^(ln(6/5)/ln(31/25)) ~ 2.7995 is above the sqrt(3) proxy 2.732050808
    def limit(bits):
        expo = ln_ratio(Fraction(6, 5), bits) / ln_ratio(Fraction(31, 25), bits)
        return pow_interval(2, expo, bits) + 1

    verdict, _ = escalate(limit, separation(Fraction(2732050808, 10**9)))
    assert verdict is Comparison.GREATER


def test_decide_order():
    # ln(4/3) < ln(13/9), certified as a strictly negative difference
    verdict, gap = escalate(
        lambda bits: ln_ratio(Fraction(4, 3), bits) - ln_ratio(Fraction(13, 9), bits), separation(0)
    )
    assert verdict is Comparison.LESS
    assert gap.hi < 0


def test_escalate_propagates_an_evaluate_exception_from_the_first_rung():
    rungs = []
    error = ZeroDivisionError("divisor interval touches zero")

    def evaluate(bits):
        rungs.append(bits)
        raise error

    for run in (
        lambda: escalate(evaluate, lambda x: x.compare(2), PrecisionConfig(128, 2048)),
        lambda: escalate(evaluate, separation(2), PrecisionConfig(128, 2048)),
    ):
        rungs.clear()
        with pytest.raises(ZeroDivisionError) as raised:
            run()
        assert raised.value is error
        assert rungs == [128]


def _count_exp_chains(monkeypatch):
    kernel = interval._exp_chain
    chains = []

    def counted(t, v, h):
        chains.append(t)
        return kernel(t, v, h)

    monkeypatch.setattr(interval, "_exp_chain", counted)
    return chains


def test_pow_of_rational_base_takes_one_log(monkeypatch):
    # one log of the base and, for an exponent as narrow as the ladder's, one
    # exp chain: the log's products with the exponent stay scaled integers
    r = Fraction(8, 5)
    y = ln_ratio(Fraction(4, 3)) / ln_ratio(Fraction(13, 9))
    deep = ln_ratio(Fraction(4, 3), 4096) / ln_ratio(Fraction(13, 9), 4096)
    index_lower_bound(r, 3)  # warm reciprocal_exponent's cache
    kernel = interval._ln_scaled
    calls = []

    def counted(num, den, w):
        calls.append((num, den))
        return kernel(num, den, w)

    monkeypatch.setattr(interval, "_ln_scaled", counted)
    chains = _count_exp_chains(monkeypatch)
    pow_interval(r, y)
    assert calls == [(8, 5)] and len(chains) == 1
    calls.clear()
    chains.clear()
    pow_interval(r, deep, 4096)
    assert calls == [(8, 5)] and len(chains) == 1
    calls.clear()
    index_lower_bound.cache_clear()  # evaluate the bound again, on the warm 1/x(3)
    index_lower_bound(r, 3)
    assert calls == [(8, 5)]


def test_render_format():
    text = ln_ratio(Fraction(4, 3)).render()
    assert re.fullmatch(r"0\.2876820725 ± \de-\d+ @256b", text)
    bound = pow_interval(
        Fraction(8, 5),
        ln_ratio(Fraction(4, 3)) / ln_ratio(Fraction(13, 9)),
    )
    assert bound.render().startswith("1.444405574 ")
    assert bound.render().endswith("@256b")


def test_render_edge_cases():
    assert IntervalReal.exact(0).render().startswith("0 ±")
    assert IntervalReal.exact(Fraction(-3, 2)).render().startswith("-1.5")
    small = IntervalReal.exact(Fraction(1, 10**20))
    assert "e-20" in small.render()


@pytest.mark.parametrize("x, text", [
    (Fraction(12345678905, 10**10), "1.234567891"),
    (Fraction(99999999995, 10**10), "10.00000000"),
    (Fraction(-3, 2), "-1.500000000"),
    (Fraction(1234567890), "1234567890"),
    (Fraction(12345678901), "1.234567890e+10"),
    (Fraction(1234567891, 10**13), "0.0001234567891"),
    (Fraction(1234567891, 10**14), "1.234567891e-5"),
    (Fraction(-99999999995, 10**10), "-10.00000000"),
    (Fraction(99999999995, 10), "1.000000000e+10"),  # the carry leaves the positional range
])
def test_decimal_pinned(x, text):
    assert interval._decimal(x, 10) == text


@pytest.mark.parametrize("radius, text", [
    (Fraction(11, 10**13), "2e-12"),
    (Fraction(999, 100), "1e1"),
    (Fraction(1, 2**287), "5e-87"),
])
def test_radius_text_pinned(radius, text):
    assert interval._radius_text(radius) == text


def _power_of_ten(f):
    """k with f == 10^k; fails when f is not a power of ten."""
    k = len(str(f.numerator)) - len(str(f.denominator))
    assert f == Fraction(10) ** k
    return k


# Rendering spec, checked by reading the text back as an exact Fraction:
# fractions over wide exponents, exact half-unit ties (some carrying to the
# next power of ten), and w-bit fixed-point endpoints up to the CLI ceiling.
WIDE_FRACTION = st.builds(
    lambda f, e: f * Fraction(10) ** e,
    st.fractions(max_denominator=10**30).filter(bool),
    st.integers(-3000, 3000),
)
HALF_UNIT_TIE = st.builds(
    lambda m, e, sign: sign * Fraction(10 * m + 5) * Fraction(10) ** e,
    st.one_of(st.integers(10**9, 10**10 - 1), st.just(10**10 - 1)),
    st.integers(-30, 30),
    st.sampled_from([1, -1]),
)
FIXED_POINT = st.builds(
    lambda w, seed: Fraction(random.Random(seed).getrandbits(w + 8) - 2 ** (w + 7), 2**w),
    st.integers(1, 16416),
    st.integers(0, 2**32),
).filter(bool)
RENDERED = st.one_of(WIDE_FRACTION, HALF_UNIT_TIE, FIXED_POINT)


@settings(max_examples=300, deadline=None)
@given(RENDERED)
def test_decimal_is_the_nearest_ten_digit_decimal(x):
    text = interval._decimal(x, 10)
    y = Fraction(text)
    digits = text.partition("e")[0].lstrip("-").replace(".", "").lstrip("0")
    assert len(digits) == 10
    unit = abs(y) / int(digits)  # one unit of the last digit
    e = _power_of_ten(unit) + 9  # the exponent of the leading digit
    assert (y < 0) == (x < 0)
    assert abs(x - y) <= unit / 2
    if abs(x - y) == unit / 2:
        assert abs(y) > abs(x)  # ties away from zero
    assert ("e" not in text) == (-4 <= e < 10)


@settings(max_examples=300, deadline=None)
@given(RENDERED.map(abs))
def test_radius_text_is_the_least_one_digit_decimal_above(r):
    text = interval._radius_text(r)
    digit, _, exponent = text.partition("e")
    assert digit in "123456789" and len(digit) == 1
    assert Fraction(text) >= r
    below = Fraction(int(digit) - 1) if digit != "1" else Fraction(9, 10)
    assert below * Fraction(10) ** int(exponent) < r


def _rounded_by_full_division(x, digits, rounding):
    """The rendering's rounding before the quotient was shortened: the whole
    numerator converted to Decimal and divided by the whole denominator."""
    ctx = Context(prec=digits, rounding=rounding, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return ctx.divide(Decimal(x.numerator), x.denominator)


# exact one-digit decimals, on and just above the ceiling's grid point
ONE_DIGIT_TIE = st.builds(
    lambda d, e, above: Fraction(d) * Fraction(10) ** e + above,
    st.integers(1, 9),
    st.integers(-300, 300),
    st.sampled_from([Fraction(0), Fraction(1, 2**5000)]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(RENDERED, ONE_DIGIT_TIE))
def test_rendering_matches_the_full_division(x):
    mid = _rounded_by_full_division(x, 10, ROUND_HALF_UP)
    sign, digits, _ = mid.as_tuple()
    padded = Decimal((sign, digits + (0,) * (10 - len(digits)), mid.adjusted() - 9))
    assert interval._decimal(x, 10) == format(padded, "f" if -4 <= mid.adjusted() < 10 else "e")
    r = abs(x)
    rad = _rounded_by_full_division(r, 1, ROUND_CEILING)
    assert interval._radius_text(r) == f"{rad.as_tuple().digits[0]}e{rad.adjusted()}"


# Kernel containment against mpmath. A kernel runs at w = bits + GUARD_BITS
# and must enclose the value scaled by 2^w, within 2^-bits on the value's own
# scale (at least 1). mpmath evaluates at w + 64 bits; its rounding is far
# below one unit of the kernel's last place.

# precisions 8-4096, every octave alike
KERNEL_BITS = st.integers(3, 11).flatmap(lambda k: st.integers(2**k, 2 ** (k + 1)))
RATIONAL_PART = st.integers(1, 2**600)


def _reference(evaluate, prec):
    with mpmath.workprec(prec):
        value = evaluate()
    man, exp = value.man_exp  # the magnitude; the sign is apart
    return Fraction(man) * Fraction(2) ** exp * (-1 if value < 0 else 1)


def _assert_kernel_encloses(enclosure, bits, evaluate):
    lo, hi = enclosure
    w = bits + interval.GUARD_BITS
    prec = w + 64
    ref = _reference(evaluate, prec)
    scale = max(1, abs(ref))
    slack = Fraction(scale) / 2 ** (prec - 8)
    assert lo <= (ref + slack) * 2**w and (ref - slack) * 2**w <= hi
    assert hi - lo <= scale * 2 ** (w - bits)


@settings(max_examples=100, deadline=None)
@given(RATIONAL_PART, RATIONAL_PART, KERNEL_BITS)
def test_ln_kernel_contains_mpmath(num, den, bits):
    enclosure = interval._ln_scaled(num, den, bits + interval.GUARD_BITS)
    _assert_kernel_encloses(enclosure, bits, lambda: mpmath.log(mpmath.mpf(num) / den))


# sigma(p^e)/p^e for p < 100 and p^e up to 2^4096: ln's atanh argument then has
# an exact denominator wider than w/4 bits at most precisions without being
# tiny, so the exact-z series runs its full length of wide divisions
PRIME_POWER = st.sampled_from(primes_up_to(100)).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, 4096 // p.bit_length()))
)


@settings(max_examples=100, deadline=None)
@given(PRIME_POWER, KERNEL_BITS)
def test_ln_kernel_contains_mpmath_on_prime_power_indices(prime_power, bits):
    p, e = prime_power
    num, den = (p ** (e + 1) - 1) // (p - 1), p**e
    enclosure = interval._ln_scaled(num, den, bits + interval.GUARD_BITS)
    _assert_kernel_encloses(enclosure, bits, lambda: mpmath.log(mpmath.mpf(num) / den))


# The log kernel decides two things from bit lengths: whether the atanh chain
# stops after its first term, and which side of sqrt(2) the reduced argument
# lies on. Both stand in for full-width squares, so the kernel must return
# exactly what it returned when it formed them; this is that kernel, kept here.


def _squaring_atanh_chain(zn, zd, v):
    p = s = (zn << v) // zd
    z2n, z2d = zn * zn, zd * zd
    k = 1
    while True:
        p = p * z2n // z2d
        d = 2 * k + 1
        s += p // d
        if p <= d:
            return s, k, interval._cdiv((p + 2) * z2n, z2d - z2n)
        k += 1


def _squaring_atanh_scaled(zn, zd, w):
    if zn == 0:
        return 0, 0
    c = w.bit_length()
    s, k, tail = _squaring_atanh_chain(zn, zd, w + c)
    return s >> c, -(-(s + 1 + interval._cdiv(11 * k, 8) + tail) >> c)


def _squaring_ln_scaled(num, den, w):
    if num < den:
        lo, hi = _squaring_ln_scaled(den, num, w)
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
    alo, ahi = _squaring_atanh_scaled(abs(zn), zd, w)
    if zn < 0:
        alo, ahi = -ahi, -alo
    l2lo, l2hi = _squaring_atanh_scaled(1, 3, w)
    return 2 * alo + e * 2 * l2lo, 2 * ahi + e * 2 * l2hi


def _near_sqrt2(b, offset, shift):
    """isqrt(2 b^2) + offset over b, times 2^shift: within 5/b of sqrt(2) 2^shift."""
    num, den = isqrt(2 * b * b) + offset, b
    return (num << shift, den) if shift >= 0 else (num, den << -shift)


LOG_WORDS = st.integers(8, 4200)
# (num, den): P/(P - 1) or its inverse, the split log's argument, with P up to
# 5,000 bits; ratios of at most 64 bits; ratios within 2^-61 of sqrt(2) 2^e;
# and wide ratios
LOG_ARGUMENTS = st.one_of(
    st.tuples(st.integers(2, 2**5000), st.booleans()).map(lambda t: (t[0], t[0] - 1)[:: 1 if t[1] else -1]),
    st.tuples(st.integers(1, 2**64), st.integers(1, 2**64)),
    st.builds(_near_sqrt2, st.integers(2**64, 2**400), st.integers(-4, 4), st.integers(-80, 80)),
    st.tuples(st.integers(1, 2**4200), st.integers(1, 2**4200)),
)


@settings(max_examples=200, deadline=None)
@given(LOG_ARGUMENTS, LOG_WORDS)
@example((2**64 + 1, 2**64), 4200)
@example((3, 2), 8)
def test_ln_kernel_matches_the_kernel_that_squares(ratio, w):
    num, den = ratio
    assert interval._ln_scaled(num, den, w) == _squaring_ln_scaled(num, den, w), (num, den, w)


def test_atanh_chain_stops_at_its_first_term_on_one_side_of_the_bit_test():
    # zd = 2^B - 1 and zn = 1 give P_0 = floor(2^v / zd) with v - B + 1 bits: at
    # v = 3B - 3 that is 2 bits(zd) - 2 and the chain stops at P_0; at v = 3B - 2
    # the bit test cannot tell and the loop runs, to the same (s, k, tail)
    for b in (8, 64, 1000, 4100):
        zd = 2**b - 1
        for v, stops in ((3 * b - 3, True), (3 * b - 2, False)):
            p0 = (1 << v) // zd
            assert (p0.bit_length() < 2 * zd.bit_length() - 1) is stops
            assert interval._atanh_chain(1, zd, v) == _squaring_atanh_chain(1, zd, v), (b, v)
        assert interval._atanh_chain(1, zd, 3 * b - 3) == ((1 << 3 * b - 3) // zd, 1, 1)
    # zd = 2^(B-1) + 1, the least B-bit denominator: one bit more of v and P_1 > 0
    for b in (8, 64, 1000):
        zd = 2 ** (b - 1) + 1
        for v in range(3 * b - 6, 3 * b + 2):
            assert interval._atanh_chain(1, zd, v) == _squaring_atanh_chain(1, zd, v), (b, v)


def test_ln_kernel_squares_when_the_top_64_bits_cannot_tell():
    # num / den = isqrt(2 b^2) / b is within 2^-390 of sqrt(2), so its top 64
    # bits a, b fall between the two tests, and only the full squares decide
    b0 = 3**250
    num, den = isqrt(2 * b0 * b0), b0
    t = num.bit_length() - 64
    a, b = num >> t, den >> t
    assert (a + 1) ** 2 >= 2 * b * b and a * a < 2 * (b + 1) ** 2
    for offset in (0, 1):
        for w in (8, 300, 4200):
            assert interval._ln_scaled(num + offset, den, w) == _squaring_ln_scaled(num + offset, den, w)
    assert num * num < 2 * den * den <= (num + 1) ** 2  # the two offsets lie on either side


@settings(max_examples=100, deadline=None)
@given(st.fractions(-700, 700, max_denominator=2**64), KERNEL_BITS)
def test_exp_kernel_contains_mpmath_for_both_signs(x, bits):
    xn, xd, w = x.numerator, x.denominator, bits + interval.GUARD_BITS
    enclosure = interval._exp_scaled(xn, xd, w)
    _assert_kernel_encloses(enclosure, bits, lambda: mpmath.exp(mpmath.mpf(xn) / xd))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**600), RATIONAL_PART, KERNEL_BITS)
def test_sqrt_kernel_contains_mpmath(num, den, bits):
    enclosure = interval._sqrt_scaled(num, den, bits + interval.GUARD_BITS)
    _assert_kernel_encloses(enclosure, bits, lambda: mpmath.sqrt(mpmath.mpf(num) / den))


# Every working precision w from 4 to 70 bits, where the extra bits of each
# chain leave the least slack, and the rungs the ladder visits most.
SWEEP_W = [*range(4, 71), *(bits + interval.GUARD_BITS for bits in (256, 1024, 4096))]
_sweep = random.Random(21)
# up to and including z = 1/3 (ln 2), narrow and wide, near 1/3 and tiny
SWEEP_ATANH = [
    Fraction(1, 3), Fraction(1, 4), Fraction(4, 22), Fraction(1, 199),
    Fraction(3**40, 3**41 + 2), Fraction(1, 2**90 - 1),
    *(Fraction(_sweep.randrange(1, 10**9), _sweep.randrange(3 * 10**9, 4 * 10**9)) for _ in range(6)),
]
# both signs, 0, below ln 2, near multiples of ln 2 and far out
SWEEP_EXP = [
    Fraction(0), Fraction(1, 2**60), Fraction(1, 7), Fraction(693147, 10**6), Fraction(693148, 10**6),
    Fraction(7, 3), Fraction(41, 5), Fraction(700),
    *(Fraction(_sweep.randrange(-10**6, 10**6), _sweep.randrange(1, 2**64)) for _ in range(6)),
]
SWEEP_EXP += [-x for x in SWEEP_EXP if x]


def _scaled_reference(evaluate, w):
    """mpmath's value scaled by 2^w and its error bound, at w + 64 bits."""
    ref = _reference(evaluate, w + 64)
    return ref * 2**w, max(Fraction(1), abs(ref)) * Fraction(2**w, 2 ** (w + 56))


def test_atanh_kernel_contains_mpmath_at_every_precision():
    for w in SWEEP_W:
        for z in SWEEP_ATANH:
            lo, hi = interval._atanh_scaled(z.numerator, z.denominator, w)
            ref, slack = _scaled_reference(lambda: mpmath.atanh(mpmath.mpf(z.numerator) / z.denominator), w)
            assert lo <= ref + slack and ref - slack <= hi, (z, w)


def test_exp_kernel_contains_mpmath_at_every_precision():
    for w in SWEEP_W:
        for x in SWEEP_EXP:
            lo, hi = interval._exp_scaled(x.numerator, x.denominator, w)
            ref, slack = _scaled_reference(lambda: mpmath.exp(mpmath.mpf(x.numerator) / x.denominator), w)
            assert lo <= ref + slack and ref - slack <= hi, (x, w)


def test_exp_between_contains_mpmath_on_both_sides_of_the_narrow_threshold():
    # b - a = 2^(w//2) / 2^w grows the chain at a by 1 + δ + δ^2; one unit of
    # 2^-w more takes a second chain at b; either way the ends hold exp(a), exp(b)
    for w in SWEEP_W:
        for a in SWEEP_EXP[::3]:
            for units in (2 ** (w // 2), 2 ** (w // 2) + 1):
                b = a + Fraction(units, 2**w)
                lo, hi = interval._exp_between(a.numerator, a.denominator, b.numerator, b.denominator, w)
                ref_a, slack_a = _scaled_reference(lambda: mpmath.exp(mpmath.mpf(a.numerator) / a.denominator), w)
                ref_b, slack_b = _scaled_reference(lambda: mpmath.exp(mpmath.mpf(b.numerator) / b.denominator), w)
                assert lo <= ref_a + slack_a and ref_b - slack_b <= hi, (a, units, w)


# The rounding back to w bits has slack that can hide a missing error term, so
# each chain's declared error is checked apart, before that rounding, against
# its exact or mpmath value.


def test_atanh_chain_declares_at_least_its_deficit_and_its_tail():
    for w in [*range(4, 71), 288]:
        for z in SWEEP_ATANH:
            s, k, tail = interval._atanh_chain(z.numerator, z.denominator, w)
            head = sum(z ** (2 * j + 1) / (2 * j + 1) for j in range(k + 1)) * 2**w
            assert 0 <= head - s < 1 + Fraction(11 * k, 8), (z, w)
            ref, slack = _scaled_reference(lambda: mpmath.atanh(mpmath.mpf(z.numerator) / z.denominator), w)
            assert ref - head - slack <= tail, (z, w)


def test_exp_chain_declares_at_least_its_deficit():
    # (t, v, h) as the kernel picks them at w, and halvings from none to 8
    rng = random.Random(12)
    for w in SWEEP_W:
        for h in sorted({0, 1, 3, 8, isqrt(w) // 2}):
            v = w + h + 4 + w.bit_length()
            for t in (0, 1, 2**v // 2 ** (h + 1), rng.randrange(2**v // 2 ** (h + 1))):
                y, e = interval._exp_chain(t, v, h)
                ref, slack = _scaled_reference(lambda: mpmath.exp(mpmath.mpf(t) * 2**h / 2**v), v)
                assert y <= ref + slack and ref - slack <= y + e, (t, v, h)


def _chain_products(t, v, h, over, chain=interval._exp_chain):
    """(y, e) of chain(t, v, h) and the number of products it makes whose
    operands both have more than `over` bits: t is an int whose arithmetic
    returns its own kind, so every value derived from it is counted."""
    products = []

    class Traced(int):
        def __mul__(self, other):
            if min(self.bit_length(), other.bit_length()) > over:
                products.append(1)
            return Traced(int(self) * int(other))

        __rmul__ = __mul__

        def __add__(self, other):
            return Traced(int(self) + int(other))

        __radd__ = __add__

        def __rshift__(self, s):
            return Traced(int(self) >> s)

        def __floordiv__(self, d):
            return Traced(int(self) // d)

    y, e = chain(Traced(t), v, h)
    return y, e, len(products)


def test_exp_chain_edge_cases():
    # the smallest v (u = 1 below v = 16), t = 0, t = 1 (x = 2^-v: its table
    # T_2 = 0 ends the chain inside its first block when u > 2) and x at the
    # 1/2 cap (the most terms and blocks); at h = 0 a chain that ends inside
    # its first block makes 2(u - 1) products, the table's and the sums'
    for v in [*range(1, 20), 309, 4177]:
        u = max(1, isqrt(isqrt(v)))
        for h in (0, 1, 3):
            for t, first_block in ((0, u > 1), (1, u > 2), (2 ** (v - 1), False)):
                y, e, products = _chain_products(t, v, h, -1)
                ref, slack = _scaled_reference(lambda: mpmath.exp(mpmath.mpf(t) * 2**h / 2**v), v)
                assert y <= ref + slack and ref - slack <= y + e, (t, v, h)
                assert t or y == 2**v, (v, h)  # exp(0) = 1 exactly
                if h == 0:
                    assert (products == 2 * (u - 1)) == first_block, (t, v, products)


def test_exp_chain_makes_few_wide_products(monkeypatch):
    # products with both operands over v/2 bits in the chain of exp(693147/10^6),
    # just below ln 2 where the chain is longest: the table, one per block of
    # u terms, the u - 1 sums and the h squarings, not one per Taylor term
    # (22/44/89 for a chain with one product per term)
    kernel = interval._exp_chain
    counts = []

    def counted(t, v, h):
        y, e, products = _chain_products(t, v, h, v // 2, kernel)
        counts.append(products)
        return y, e

    for w, expected in ((288, 18), (1056, 30), (4128, 53)):
        untraced = interval._exp_scaled(693147, 10**6, w)
        counts.clear()
        monkeypatch.setattr(interval, "_exp_chain", counted)
        assert interval._exp_scaled(693147, 10**6, w) == untraced
        monkeypatch.setattr(interval, "_exp_chain", kernel)
        assert counts == [expected], w


def test_grow_covers_exp_up_to_delta_one():
    for w in SWEEP_W:
        for d in (0, 1, 2 ** (w // 2), 2 ** (w // 2) + 1, 2**w // 3, 2**w - 1, 2**w):
            # exp(d / 2^w) to 3w + 56 bits: its error times y is below 2^-(w+56)
            factor = _reference(lambda: mpmath.exp(mpmath.mpf(d) / 2**w), 3 * w + 64)
            for y in (1, 2**w + 1, 2 ** (2 * w) + 12345):
                grown = interval._grow(y, d, w)
                assert y * factor * (1 - Fraction(1, 2 ** (3 * w + 56))) <= grown, (y, d, w)
                assert grown <= y + Fraction(y * d * (2**w + d), 2 ** (2 * w)) + 1, (y, d, w)


# 0, points and intervals; at any precision and, more often, at the rungs the
# ladder visits most
EXP_ARGUMENT = st.one_of(st.just(Fraction(0)), st.fractions(-700, 700, max_denominator=2**64))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(EXP_ARGUMENT, min_size=1, max_size=2),
    st.one_of(st.sampled_from([256, 1024, 4096]), KERNEL_BITS),
)
def test_exp_interval_endpoints_contain_mpmath(ends, bits):
    # each endpoint comes from its own chain: below exp(lo), above exp(hi),
    # and each within 2^-bits on the value's scale
    lo, hi = min(ends), max(ends)
    out = exp_interval(IntervalReal(lo, hi, bits), bits)
    prec = bits + interval.GUARD_BITS + 64
    for end, bound, outward in ((lo, out.lo, -1), (hi, out.hi, 1)):
        ref = _reference(lambda: mpmath.exp(mpmath.mpf(end.numerator) / end.denominator), prec)
        scale = max(Fraction(1), ref)
        assert outward * (bound - ref) >= -scale / 2 ** (prec - 8)
        assert outward * (bound - ref) <= scale / 2**bits


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 69 * 2**40 // 100), st.sampled_from([256, 1024, 4096]))
def test_halved_exp_rounds_within_a_few_units_below_ln2(n, bits):
    # x = n / 2^40 in (0, 0.69): no multiple of ln 2 comes off and r is exact,
    # so the width is the chain's and the squarings' own rounding, which the
    # h + 4 + bits(w) extra bits keep to a few units of 2^-w (exp(x) < 2)
    w = bits + interval.GUARD_BITS
    lo, hi = interval._exp_scaled(n, 2**40, w)
    assert hi - lo <= 32


@settings(max_examples=60, deadline=None)
@given(st.fractions(-700, 700, max_denominator=2**64), st.sampled_from([256, 1024, 4096]))
def test_exp_width_does_not_grow_with_the_multiple_of_ln2(x, bits):
    # x = k ln 2 + r with |k| up to 1010: the reduction takes ln 2 at enough
    # extra bits that k times its width stays below a unit of 2^-w, so exp(x)
    # is as tight as below ln 2, within a few units of 2^-w on its scale
    out = exp_ratio(x, bits)
    w = bits + interval.GUARD_BITS
    ref = _reference(lambda: mpmath.exp(mpmath.mpf(x.numerator) / x.denominator), w + 64)
    assert out.lo <= ref <= out.hi
    assert out.hi - out.lo <= 32 * max(Fraction(1), ref) / 2**w


def test_exp_runs_one_chain_unless_the_interval_is_wide(monkeypatch):
    chains = _count_exp_chains(monkeypatch)
    # a point, of either sign (a negative one takes both reciprocals of
    # exp(-x)'s bounds), and an interval no wider than 2^-(w/2): one chain
    # at the lower end; a wider interval: a second chain at the upper end
    w = 256 + interval.GUARD_BITS
    narrow = Fraction(2 ** (w // 2), 2**w)
    for x, expected in (
        (IntervalReal.exact(Fraction(7, 3), 256), 1),
        (IntervalReal.exact(Fraction(-7, 3), 256), 1),
        (IntervalReal(Fraction(1, 5), Fraction(1, 5) + narrow, 256), 1),
        (IntervalReal(Fraction(-1, 5) - narrow, Fraction(-1, 5), 256), 1),
        (IntervalReal(Fraction(1, 5), Fraction(1, 5) + narrow + Fraction(1, 2**w), 256), 2),
        (IntervalReal(Fraction(1, 5), Fraction(7, 3), 256), 2),
        (IntervalReal(Fraction(-3, 2), Fraction(7, 3), 1024), 2),
        (IntervalReal(Fraction(-7, 3), Fraction(-1, 5), 256), 2),
    ):
        chains.clear()
        exp_interval(x, x.bits)
        assert len(chains) == expected, x


def test_every_wide_atanh_argument_the_library_makes_is_tiny(monkeypatch):
    # the one exact-z chain divides by a wide z's full denominator every term;
    # that stays cheap because each wide z the library builds (the split log
    # of ln I(p^e), ln I(u) of a big prime u) is below 2^-(w/6), so z^7 is
    # below 2^-w and the series ends within 3 terms
    kernel = interval._atanh_scaled
    wide = []

    def counted(zn, zd, w):
        if 4 * zd.bit_length() > w:
            wide.append((zd.bit_length() - zn.bit_length(), w))
        return kernel(zn, zd, w)

    for cached in (index._ln_prime_factor, index._ln_prime_power_index,
                   index.reciprocal_exponent, index.index_lower_bound, interval._ln2_scaled):
        cached.cache_clear()
    monkeypatch.setattr(interval, "_atanh_scaled", counted)
    abundancy_exponent(Factorization(((3, 2000),)))
    abundancy_exponent(Factorization(((BIG_PRIME, 1),)))
    euler_sum_bound(1000000000061, 5, PrecisionConfig(4096, 4096))
    index_lower_bound(Fraction(8, 5), BIG_PRIME)
    assert sandwich_check(Factorization(((3, 400),)), Factorization(((7, 150),))).status is SandwichStatus.HOLDS
    assert wide
    assert all(6 * gap >= w for gap, w in wide), min(wide)
