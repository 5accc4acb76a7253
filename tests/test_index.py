import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BIG_PRIME, assert_consistent, exponent_oracle
from abundancy import arith, index, interval
from abundancy.arith import Factorization, factorize, primes_up_to, sigma
from abundancy.index import (
    SandwichStatus,
    _sandwich_verdict,
    abundancy_exponent,
    abundancy_index,
    index_lower_bound,
    prime_power_exponent,
    prime_power_index,
    reciprocal_exponent,
    sandwich_check,
    square_index_relation,
)
from abundancy.interval import (
    GUARD_BITS, Comparison, IntervalReal, PrecisionConfig, _ln_scaled, escalate, ln_ratio, sqrt_ratio,
)
from abundancy.report import sample_coprime_odd_pair, sample_odd_factorization


def test_abundancy_index_examples():
    assert abundancy_index(factorize(3)) == Fraction(4, 3)
    assert abundancy_index(factorize(1)) == 1
    assert abundancy_index(factorize(25)) == Fraction(31, 25)


def test_abundancy_index_range():
    # 1 <= I(n), equality only at n = 1; and I(n) < prod p/(p-1)
    for n in range(1, 500):
        f = factorize(n)
        index = abundancy_index(f)
        if n == 1:
            assert index == 1
            continue
        assert index > 1
        cap = Fraction(1)
        for p, _ in f.factors:
            cap *= Fraction(p, p - 1)
        assert index < cap


def test_prime_power_index_examples():
    assert prime_power_index(3, 2) == Fraction(13, 9)
    assert prime_power_index(5, 1) == Fraction(6, 5)
    assert prime_power_index(3, 1) == Fraction(4, 3)
    with pytest.raises(ValueError):
        prime_power_index(4, 1)


def test_prime_power_index_both_algebraic_forms():
    for r in primes_up_to(300):
        for s in range(1, 8):
            closed = prime_power_index(r, s)
            telescoped = 1 + Fraction(1, r - 1) - Fraction(1, r**s * (r - 1))
            assert closed == telescoped


def test_square_index_relation_examples():
    assert square_index_relation(3, 1) == (Fraction(13, 9), Fraction(13, 9))
    direct, factored = square_index_relation(5, 1)
    assert direct == factored == Fraction(31, 25)
    direct, factored = square_index_relation(3, 2)
    assert direct == factored == Fraction(121, 81)


def test_square_index_relation_grid():
    for r in (3, 5, 7, 11, 97):
        for s in range(1, 6):
            direct, factored = square_index_relation(r, s)
            assert direct == factored


def test_abundancy_exponent_frozen_values():
    assert_consistent(abundancy_exponent(factorize(3)).value, "x(3)")
    assert_consistent(abundancy_exponent(factorize(5)).value, "x(5)")
    assert_consistent(abundancy_exponent(factorize(45)).value, "x(45)")


def test_abundancy_exponent_undefined_for_one():
    with pytest.raises(ValueError):
        abundancy_exponent(factorize(1))


def test_abundancy_exponent_certified_range():
    for n in (3, 9, 15, 45, 2 * 3 * 5 * 7, 10**6 - 1):
        x = abundancy_exponent(factorize(n)).value
        assert x.lo > 1 and x.hi < 2


def test_exponent_of_big_prime_escalates_past_zero_divisor():
    # ln I(p) ~ 1/p < 2^-300 would be a divisor not separated from zero at
    # 256 absolute bits; the exponent goes past that in one step, taking D's
    # logs at 256 + 4 + bits(p^2) bits and A's at 256 + 4 + bits(p)
    for x in (
        abundancy_exponent(Factorization(((BIG_PRIME, 1),))).value,
        prime_power_exponent(BIG_PRIME, 1).value,
    ):
        assert x.bits == 256 + 4 + (BIG_PRIME**2).bit_length() == 861
        assert x.lo > 1 and x.hi < 2
        assert x.width < (x.lo - 1) / 2**256


def _counted_is_prime(monkeypatch) -> list[int]:
    """Every is_prime argument, through arith's binding and index's."""
    calls, original = [], arith.is_prime

    def counted(n):
        calls.append(n)
        return original(n)

    for module in (arith, index):
        monkeypatch.setattr(module, "is_prime", counted)
    return calls


def test_a_reciprocal_exponent_miss_proves_u_once(monkeypatch):
    reciprocal_exponent.cache_clear()
    calls = _counted_is_prime(monkeypatch)
    reciprocal_exponent(BIG_PRIME, PrecisionConfig(256, 256))
    assert calls == [BIG_PRIME]  # I(u) and I(u^2) rest on that one proof


def test_the_sampler_proves_no_sieved_prime_and_keeps_its_draws(monkeypatch):
    calls = _counted_is_prime(monkeypatch)
    rng = random.Random(99)
    draws = [str(sample_odd_factorization(rng)) for _ in range(6)]
    assert draws == ["11", "13^2", "5^2*29^2*43", "19^2", "13^3*17", "17^2*47*71"]
    assert calls == []


def test_reciprocal_exponent_with_a_log_not_separated_from_zero_is_decided_at_once():
    # an absolute 256-bit enclosure of ln I(p) ~ 1/p would not be above zero;
    # at relative precision 1/2 < 1/x(p) < 1 shows at the first rung, and the
    # ceiling plays no part
    for bits in (256, 1024):
        y = reciprocal_exponent(BIG_PRIME, PrecisionConfig(bits, bits))
        assert y == reciprocal_exponent(BIG_PRIME, PrecisionConfig(bits, 4096))
        assert y.bits == bits and Fraction(1, 2) < y.lo and y.hi < 1
        assert y.width <= (1 - y.hi) / 2 ** (bits + 32)
    assert y.width < Fraction(1, 2**700)


def test_sandwich_with_a_log_not_separated_from_zero_is_undecided():
    # at a 256-bit ceiling x(BIG_PRIME) is only known to lie in [1, 2]
    fa, fb = Factorization(((BIG_PRIME, 1),)), Factorization(((3, 1),))
    result = sandwich_check(fa, fb, PrecisionConfig(256, 256))
    assert result.status is SandwichStatus.UNDECIDED
    assert (result.x_a.lo, result.x_a.hi, result.x_a.bits) == (1, 2, 256)
    assert sandwich_check(fa, fb).status is SandwichStatus.HOLDS


def test_prime_power_exponent_frozen_values():
    assert_consistent(prime_power_exponent(3, 1).value, "x(3)")
    assert_consistent(prime_power_exponent(3, 2).value, "x(9)")
    assert_consistent(prime_power_exponent(5, 1).value, "x(5)")
    with pytest.raises(ValueError):
        prime_power_exponent(6, 1)


def test_prime_power_exponent_overlaps_direct_evaluation():
    # the closed form 1 + ln(I(r^(2s))/I(r^s)) / ln I(r^s), evaluated here with
    # two fresh logs, against the library's quotient of cached log sums
    for r in (p for p in primes_up_to(1000) if p != 2):
        for s in range(1, 11):
            base = prime_power_index(r, s)
            closed = 1 + ln_ratio(prime_power_index(r, 2 * s) / base) / ln_ratio(base)
            assert prime_power_exponent(r, s).value.overlaps(closed), (r, s)


def test_sandwich_examples():
    result = sandwich_check(factorize(3), factorize(5))
    assert result.status is SandwichStatus.HOLDS
    assert_consistent(result.x_ab, "x(15)")
    assert_consistent(result.x_a, "x(3)")
    assert_consistent(result.x_b, "x(5)")

    result = sandwich_check(factorize(9), factorize(5))
    assert result.status is SandwichStatus.HOLDS
    assert_consistent(result.x_a, "x(9)")
    assert_consistent(result.x_ab, "x(45)")


_ODD_PRIMES = tuple(p for p in primes_up_to(1000) if p != 2)


@st.composite
def coprime_odd_pairs(draw):
    primes = draw(st.lists(st.sampled_from(_ODD_PRIMES), min_size=2, max_size=8, unique=True))
    cut = draw(st.integers(1, len(primes) - 1))

    def factorization(chosen):
        return Factorization(tuple((p, draw(st.integers(1, 6))) for p in sorted(chosen)))

    return factorization(primes[:cut]), factorization(primes[cut:])


@settings(max_examples=60, deadline=None)
@given(coprime_odd_pairs(), st.integers(8, 1024))
def test_exponents_contain_mpmath_value(pair, bits):
    fa, fb = pair
    cfg = PrecisionConfig(bits, bits)
    result = sandwich_check(fa, fb, cfg)
    assert result.x_ab.bits == bits
    # x(n) - 1 can be as small as p^-e, too close to 1 to certify at 8 bits,
    # so the exponent may escalate: the oracle follows its deciding rung
    exponent = abundancy_exponent(fa * fb, PrecisionConfig(bits, max(bits, 4096))).value
    for x, f in ((result.x_a, fa), (result.x_b, fb), (result.x_ab, fa * fb), (exponent, fa * fb)):
        prec = 2 * x.bits + 64
        ref = exponent_oracle(f, prec)
        slack = ref / 2 ** (prec - 24)  # the oracle's own rounding, far below x's width
        assert x.lo - slack <= ref <= x.hi + slack, (str(f), x.bits)


# ln I(p^e) is split as ln(p/(p-1)) + ln(1 - p^-(e+1)): p < 1000 and p^e up
# to 2^4096, against mpmath at w + 64 bits and against the direct log of the
# exact ratio sigma(p^e)/p^e
SPLIT_PRIME_POWER = st.sampled_from(primes_up_to(1000)).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, 4096 // p.bit_length()))
)


@settings(max_examples=100, deadline=None)
@given(SPLIT_PRIME_POWER, st.integers(3, 11).flatmap(lambda k: st.integers(2**k, 2 ** (k + 1))))
def test_split_prime_power_log_contains_mpmath_and_meets_the_direct_log(prime_power, bits):
    p, e = prime_power
    w = bits + GUARD_BITS
    num, den = sigma(Factorization(((p, e),))), p**e
    lo, hi = index._ln_prime_power_index(p, e, w)
    prec = w + 64
    with mpmath.workprec(prec):
        man, exp = mpmath.log(mpmath.mpf(num) / den).man_exp
    ref = Fraction(man) * Fraction(2) ** exp
    slack = Fraction(1, 2 ** (prec - 8))  # mpmath's own rounding; ln I(p^e) < 1
    assert lo <= (ref + slack) * 2**w and (ref - slack) * 2**w <= hi
    assert hi - lo <= 2 ** (w - bits)
    direct_lo, direct_hi = _ln_scaled(num, den, w)
    assert lo <= direct_hi and direct_lo <= hi
    # both terms carry 4 extra bits, so the one outward rounding of their sum
    # leaves the split enclosure no wider than the direct one
    assert hi - lo <= direct_hi - direct_lo


def _direct_quotient(p, e):
    """x(p^e) at the rung where it shows 1 < x < 2 with both logs taken directly
    as ln(sigma(p^k)/p^k), under the library's quotient and stopping rule."""
    def evaluate(bits):
        w = bits + GUARD_BITS
        (l1, h1), (l2, h2) = (_ln_scaled(sigma(Factorization(((p, k),))), p**k, w) for k in (e, 2 * e))
        return index._log_quotient(l1, h1, l2, h2, bits)

    def within_one_and_two(x):
        return (x.compare(1) is Comparison.GREATER and x.compare(2) is Comparison.LESS) or None

    return escalate(evaluate, within_one_and_two)[1]


def test_split_log_never_decides_an_exponent_at_a_higher_rung():
    # p < 100 and p^e from 64 to 4096 bits, two sizes per octave: the exponent
    # is decided from the first rung, its D logs 4 + bits(p^(e+1)) bits above
    # it, to a relative 2^-256 of x - 1; it meets the quotient of direct logs
    # at the rung where that quotient decides
    for p in primes_up_to(100):
        for size in (64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096):
            e = size // p.bit_length()
            x = abundancy_exponent(Factorization(((p, e),))).value
            direct = _direct_quotient(p, e)
            assert x.bits - 4 - (p ** (e + 1)).bit_length() == 256 <= direct.bits, (p, e)
            assert 1 < x.lo and x.hi < 2 and x.width < (x.lo - 1) / 2**256 and x.overlaps(direct), (p, e)


@st.composite
def relative_precision_cases(draw):
    """n > 1 with up to one prime power p^e (p < 1000) of up to 8,192 bits,
    log-uniform in size, up to two more primes below 1000 and up to two of
    200-320 bits, each to an exponent of 1-3; and a starting precision of
    8-1024 bits. With only big primes, ln I(n) is below 2^-199."""
    factors = {}
    if draw(st.booleans()):
        p = draw(st.sampled_from(primes_up_to(1000)))
        size = draw(st.integers(3, 12).flatmap(lambda k: st.integers(2**k, 2 ** (k + 1))))
        factors[p] = max(1, size // p.bit_length())
    for q in draw(st.lists(st.sampled_from(primes_up_to(1000)), max_size=2)):
        factors.setdefault(q, draw(st.integers(1, 3)))
    for bits in draw(st.lists(st.integers(200, 320), min_size=0 if factors else 1, max_size=2)):
        q = draw(st.integers(2 ** (bits - 1), 2**bits - 1)) | 1
        while not arith.is_prime(q):
            q += 2
        factors.setdefault(q, draw(st.integers(1, 3)))
    return Factorization(tuple(sorted(factors.items()))), draw(st.integers(8, 1024))


@settings(max_examples=40, deadline=None)
@given(relative_precision_cases())
def test_exponent_at_relative_precision_contains_mpmath_value(case):
    # x - 1 is as small as about p^-e, far below 2^-bits, and an absolute
    # enclosure of ln I(n) is not even separated from zero when n holds a
    # 300-bit prime: only a relative one shows 1 < x < 2 at the first rung
    f, bits = case
    x = abundancy_exponent(f, PrecisionConfig(bits, bits)).value
    assert 1 < x.lo and x.hi < 2
    assert x.width <= (x.lo - 1) / 2**bits
    prec = 2 * (f.value() ** 2).bit_length() + 2 * x.bits + 64
    ref = exponent_oracle(f, prec)
    slack = ref / 2 ** (prec - 24)  # the oracle's own rounding, far below x's width
    assert x.lo - slack <= ref <= x.hi + slack, (str(f), bits)


@lru_cache(maxsize=None)
def _big_primes():
    """Odd primes of 31 to 2,203 bits: Mersenne primes, BIG_PRIME, and the
    primes after fixed random starts of 40 to 1,024 bits."""
    mersenne = [2**p - 1 for p in (31, 61, 89, 127, 521, 607, 1279, 2203)]
    rng, found = random.Random(44), []
    for bits in (40, 100, 200, 320, 700, 1024):
        q = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        while not arith.is_prime(q):
            q += 2
        found.append(q)
    return sorted(mersenne + found + [BIG_PRIME])


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(primes_up_to(1000)[1:]), st.integers(0, 14).map(lambda i: _big_primes()[i])),
       st.integers(8, 1024))
def test_reciprocal_exponent_at_relative_precision_contains_mpmath_value(u, bits):
    # 1 - 1/x(u) is about 1/(2u), far below 2^-bits for a big u; the one
    # evaluation still shows 1/2 < 1/x(u) < 1, to a relative 2^-bits of 1 - 1/x(u)
    y = reciprocal_exponent(u, PrecisionConfig(bits, bits))
    assert y.bits == bits and Fraction(1, 2) < y.lo and y.hi < 1
    assert y.width <= (1 - y.hi) / 2**bits
    prec = 2 * (u * u).bit_length() + 2 * bits + 64
    with mpmath.workprec(prec):
        man, exp = (mpmath.log1p(mpmath.mpf(1) / u) / mpmath.log1p(mpmath.mpf(u + 1) / u**2)).man_exp
    ref = Fraction(man) * Fraction(2) ** exp
    slack = ref / 2 ** (prec - 24)  # the oracle's own rounding, far below y's width
    assert y.lo - slack <= ref <= y.hi + slack, (u, bits)


def test_an_exponent_is_one_evaluation(monkeypatch):
    # no ladder; per prime power one log for D and one for A's short tail,
    # and ln(p/(p-1)) once per prime for every exponent of p
    ladders, logs = [], []
    monkeypatch.setattr(index, "escalate", lambda *args: ladders.append(args))
    kernel = index._ln_scaled
    monkeypatch.setattr(index, "_ln_scaled", lambda *args: logs.append(args) or kernel(*args))
    index._ln_prime_power_index.cache_clear()
    index._ln_prime_factor.cache_clear()
    for exponents in ((40, 7, 1), (41, 8, 2)):
        logs.clear()
        f = Factorization(tuple(zip((3, 5, BIG_PRIME), exponents)))
        assert 1 < abundancy_exponent(f).value.lo
        assert len(logs) == (3 if exponents[0] == 40 else 2) * len(f.factors)
    assert ladders == []
    # ln 2 enters only through ln(3/2), at one precision for every exponent of
    # every p < 100; D's logs and A's tails never need it
    cached = interval._ln2_scaled.cache_info().currsize
    for i in range(200):
        p = primes_up_to(100)[i % 25]
        x = prime_power_exponent(p, max(1, (64 + 41 * i) // p.bit_length())).value
        assert 1 < x.lo and x.hi < 2
    assert interval._ln2_scaled.cache_info().currsize <= cached + 4
    # near the 65,536-bit input cap, x - 1 ~ 3^-41000 still shows
    x = prime_power_exponent(3, 41000).value
    assert 1 < x.lo and x.hi < 2 and x.width < (x.lo - 1) / 2**256


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(_ODD_PRIMES), st.integers(1, 30), min_size=1, max_size=6))
def test_exponent_range_is_exact_in_integers(factors):
    # 1 < x(n) < 2 is I(n) < I(n^2) < I(n)^2, i.e. sigma(n)*n < sigma(n^2) < sigma(n)^2
    f = Factorization(tuple(sorted(factors.items())))
    assert sigma(f) * f.value() < sigma(f**2) < sigma(f) ** 2


def test_sandwich_reuses_cached_prime_power_logs(monkeypatch):
    kernel = index._ln_scaled
    calls = []

    def counted(num, den, w):
        calls.append((num, den))
        return kernel(num, den, w)

    monkeypatch.setattr(index, "_ln_scaled", counted)
    index._ln_prime_power_index.cache_clear()
    index._ln_prime_factor.cache_clear()
    sandwich_check(Factorization(((3, 2), (5, 1))), Factorization(((7, 1), (11, 3))))
    # warm-up: ln(p/(p-1)) once per prime, shared by ln I(p^e) and ln I(p^2e),
    # each of which adds only ln(1 - p^-(e+1))
    assert sorted(calls) == sorted(
        [(p, p - 1) for p in (3, 5, 7, 11)]
        + [(p ** (k + 1) - 1, p ** (k + 1)) for p, e in ((3, 2), (5, 1), (7, 1), (11, 3)) for k in (e, 2 * e)]
    )
    calls.clear()
    result = sandwich_check(Factorization(((3, 2), (7, 1))), Factorization(((5, 1), (11, 3))))
    assert result.status is SandwichStatus.HOLDS
    assert calls == []


def test_sandwich_verdict_truth_table():
    def x(lo, hi):
        return IntervalReal(Fraction(lo), Fraction(hi), 256)

    low, high = x(1, 2), x(5, 6)
    assert _sandwich_verdict((low, high, x(3, 4))) is SandwichStatus.HOLDS
    assert _sandwich_verdict((high, low, x(3, 4))) is SandwichStatus.HOLDS
    assert _sandwich_verdict((low, high, x(7, 8))) is SandwichStatus.VIOLATED
    assert _sandwich_verdict((high, low, x(-1, 0))) is SandwichStatus.VIOLATED
    # x(ab) touching either enclosure, or overlapping both, decides nothing
    assert _sandwich_verdict((low, high, x(2, 3))) is None
    assert _sandwich_verdict((low, high, x(4, 5))) is None
    assert _sandwich_verdict((low, high, x(0, 9))) is None


@pytest.mark.parametrize("side_a, side_b", itertools.product(Comparison, repeat=2))
def test_sandwich_verdict_on_every_pair_of_sides(side_a, side_b):
    class Sides:  # x(ab), reporting a fixed side of x(a) and of x(b)
        def compare(self, other):
            return side_a if other == "a" else side_b

    less, greater = Comparison.LESS, Comparison.GREATER
    expected = {(less, greater): SandwichStatus.HOLDS, (greater, less): SandwichStatus.HOLDS,
                (less, less): SandwichStatus.VIOLATED, (greater, greater): SandwichStatus.VIOLATED}
    assert _sandwich_verdict(("a", "b", Sides())) is expected.get((side_a, side_b))


def _reference_sandwich(fa, fb):
    """sandwich_check recomputed with plain Fractions from the same cached
    logs: (status, rung, [(lo, hi) of x(a), x(b), x(ab)])."""
    for bits in PrecisionConfig().ladder():
        logs_a, logs_b = index._ln_indices(fa, bits), index._ln_indices(fb, bits)
        ends = [
            (Fraction(1), Fraction(2)) if lo1 <= 0 or lo2 <= 0 else (Fraction(lo2, hi1), Fraction(hi2, lo1))
            for lo1, hi1, lo2, hi2 in (logs_a, logs_b, [x + y for x, y in zip(logs_a, logs_b)])
        ]
        ab_lo, ab_hi = ends[2]
        sides = {"LESS" if ab_hi < lo else "GREATER" if ab_lo > hi else None for lo, hi in ends[:2]}
        if sides == {"LESS", "GREATER"}:
            return SandwichStatus.HOLDS, bits, ends
        if len(sides) == 1 and None not in sides:
            return SandwichStatus.VIOLATED, bits, ends
    return SandwichStatus.UNDECIDED, bits, ends


def test_sandwich_matches_a_plain_fraction_reference():
    rng = random.Random(20240501)  # the criterion-2 corpus
    for _ in range(2000):
        fa, fb = sample_coprime_odd_pair(rng)
        result = sandwich_check(fa, fb)
        status, bits, ends = _reference_sandwich(fa, fb)
        assert result.status is status, (str(fa), str(fb))
        xs = (result.x_a, result.x_b, result.x_ab)
        assert [(x.lo, x.hi) for x in xs] == ends and {x.bits for x in xs} == {bits}, (str(fa), str(fb))


def test_a_warm_sandwich_check_builds_no_fraction(monkeypatch):
    # a deterministic work count: timer noise cannot blur it
    fa, fb = sample_coprime_odd_pair(random.Random(20240501))
    sandwich_check(fa, fb)  # fills the log caches
    counts = {"Fraction": 0, "gcd": 0}
    new, gcd = Fraction.__new__, math.gcd

    def counting_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return new(cls, *args, **kwargs)

    def counting_gcd(*args):
        counts["gcd"] += 1
        return gcd(*args)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(math, "gcd", counting_gcd)  # as Fraction sees it
    monkeypatch.setattr(index, "gcd", counting_gcd)  # the coprimality check
    result = sandwich_check(fa, fb)
    monkeypatch.undo()
    assert result.status is SandwichStatus.HOLDS and result.x_a.bits == 256
    assert counts == {"Fraction": 0, "gcd": 1}


def test_sandwich_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sandwich_check(factorize(3), factorize(9))  # shared prime
    with pytest.raises(ValueError):
        sandwich_check(factorize(1), factorize(5))


def test_sandwich_corpus_smoke():
    rng = random.Random(123)
    for _ in range(150):
        fa, fb = sample_coprime_odd_pair(rng)
        result = sandwich_check(fa, fb)
        assert result.status is SandwichStatus.HOLDS, (str(fa), str(fb))
        for x in (result.x_a, result.x_b, result.x_ab):
            assert x.lo > 1 and x.hi < 2


def test_index_square_growth_is_strict():
    # I(n) < I(n^2) < I(n)^2 as exact rationals
    rng = random.Random(321)
    for _ in range(150):
        f = sample_odd_factorization(rng)
        index = abundancy_index(f)
        squared = abundancy_index(f**2)
        assert index < squared < index**2


def test_index_lower_bound_frozen_values():
    assert_consistent(index_lower_bound(Fraction(8, 5), 3), "bound(8/5,3)")
    assert_consistent(index_lower_bound(Fraction(8, 5), 5), "bound(8/5,5)")


def test_index_lower_bound_rejects_degenerate():
    with pytest.raises(ValueError):
        index_lower_bound(1, 3)
    with pytest.raises(ValueError):
        index_lower_bound(Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        index_lower_bound(Fraction(8, 5), 9)  # not prime
    with pytest.raises(ValueError):
        index_lower_bound(Fraction(8, 5), 2)  # not odd
    # a float is no exact rational: 1.6 is not 8/5, and 2.0 must not hit the cached bound of 2
    index_lower_bound(2, 3)
    for L in (1.6, 0.5, 2.0):
        with pytest.raises((TypeError, ValueError)):
            index_lower_bound(L, 3)
    # nor is 3.0 a prime, and it must not hit the cached exponent of 3
    for call in (lambda: index_lower_bound(2, 3.0), lambda: reciprocal_exponent(3.0)):
        with pytest.raises(TypeError, match="interpreted as an integer"):
            call()


def test_index_lower_bound_beats_trivial_sqrt():
    # since x(u) < 2, L^(1/x(u)) > sqrt(L)
    candidates_L = (Fraction(11, 10), Fraction(3, 2), Fraction(8, 5), Fraction(9, 5), 2)
    for u in (p for p in primes_up_to(97) if p != 2):
        for L in candidates_L:
            bound = index_lower_bound(L, u)
            trivial = sqrt_ratio(L)
            assert bound.lo > trivial.hi, (L, u)


def test_reciprocal_exponent_is_inverse():
    # the exponent in f(q, u) is 1/x(u): their product must enclose 1
    for u in (3, 5, 7):
        recip = reciprocal_exponent(u, PrecisionConfig(256, 256))
        x = prime_power_exponent(u, 1).value
        assert (recip * x).contains(1)


def test_exponent_monotonicity_smoke():
    # x(r^s) strictly decreasing in s, certified by disjoint enclosures
    for r in (3, 5, 7):
        values = [prime_power_exponent(r, s).value for s in range(1, 7)]
        for bigger, smaller in zip(values, values[1:]):
            assert smaller.hi < bigger.lo
    # x(r) strictly decreasing along consecutive odd primes
    chain = [p for p in primes_up_to(200) if p != 2]
    values = [prime_power_exponent(p, 1).value for p in chain]
    for bigger, smaller in zip(values, values[1:]):
        assert smaller.hi < bigger.lo


def test_sampler_contract():
    rng = random.Random(99)
    for _ in range(50):
        f = sample_odd_factorization(rng)
        assert 1 < f.value() <= 10**6
        assert all(p % 2 == 1 and p < 100 for p in f.primes())
        assert all(1 <= e <= 4 for _, e in f.factors)
        assert len(f.factors) <= 5
    fa, fb = sample_coprime_odd_pair(rng)
    assert set(fa.primes()).isdisjoint(fb.primes())
