import pytest

from abundancy import arith, mersenne
from abundancy.arith import factorize, is_perfect, is_prime, primes_up_to, sigma
from abundancy.mersenne import (
    DESK_SCALE_CAP,
    even_perfect_from_exponent,
    lucas_lehmer,
    mersenne_scan,
)

KNOWN_MERSENNE_EXPONENTS = [
    2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
]


def test_lucas_lehmer_examples():
    # 7 and 127 divide 2^3 - 1 and 2^7 - 1 and have the form 2kp + 1, but the
    # trial-factoring pre-pass only takes divisors below 2^p - 1
    assert lucas_lehmer(3)  # 7
    assert lucas_lehmer(7)  # 127
    assert not lucas_lehmer(11)  # 2047 = 23 * 89
    assert lucas_lehmer(13)  # 8191


def test_lucas_lehmer_special_cases():
    assert lucas_lehmer(2)
    assert not lucas_lehmer(9)  # composite exponent short-circuits
    assert not lucas_lehmer(100)
    with pytest.raises(ValueError):
        lucas_lehmer(1)


def test_even_perfect_construction():
    assert even_perfect_from_exponent(2).perfect == 6
    assert even_perfect_from_exponent(3).perfect == 28
    form = even_perfect_from_exponent(5)
    assert form.perfect == 496
    assert form.mersenne == 31
    assert sigma(factorize(496)) == 992
    with pytest.raises(ValueError):
        even_perfect_from_exponent(11)


def test_even_perfect_construction_factors_nothing_and_proves_once(monkeypatch):
    scan = mersenne_scan(2500)
    factorized, proven = [], []
    original_factorize, original_lucas_lehmer = arith.factorize, arith.lucas_lehmer

    def counted_factorize(n, *args, **kwargs):
        factorized.append(n)
        return original_factorize(n, *args, **kwargs)

    def counted_lucas_lehmer(p):
        proven.append(p)
        return original_lucas_lehmer(p)

    monkeypatch.setattr(arith, "factorize", counted_factorize)
    for module in (arith, mersenne):
        monkeypatch.setattr(module, "lucas_lehmer", counted_lucas_lehmer)
    for p in scan:
        factorized.clear()
        proven.clear()
        m = 2**p - 1
        assert even_perfect_from_exponent(p) == mersenne.EuclideanForm(p, m, m << (p - 1))
        # one proof of 2^p - 1; lucas_lehmer's own is_prime(p) may prove a
        # Mersenne-shaped p (127 = 2^7 - 1) by a recurrence of its own
        assert factorized == [] and proven.count(p) == 1, (p, factorized, proven)
    assert scan == KNOWN_MERSENNE_EXPONENTS
    with pytest.raises(ValueError):
        even_perfect_from_exponent(11)


def test_mersenne_scan_examples():
    assert mersenne_scan(20) == [2, 3, 5, 7, 13, 17, 19]
    assert mersenne_scan(2) == [2]
    assert mersenne_scan(130) == [2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127]


def test_mersenne_scan_is_sorted_strictly():
    scan = mersenne_scan(700)
    assert scan == sorted(set(scan))


def test_mersenne_scan_cap():
    with pytest.raises(ValueError):
        mersenne_scan(DESK_SCALE_CAP + 1)
    with pytest.raises(ValueError):
        mersenne_scan(1)


def test_lucas_lehmer_rejections_have_small_factors():
    # every odd prime p <= 61 failing the test yields a 2^p - 1 with a factor
    # found by trial division: independent confirmation of compositeness
    for p in (11, 23, 29, 37, 41, 43, 47, 53, 59):
        assert not lucas_lehmer(p)
        m = 2**p - 1
        divisor = next(d for d in range(3, 2**20, 2) if m % d == 0)
        assert 1 < divisor < m


def test_constructed_numbers_are_perfect():
    for p in mersenne_scan(130):
        form = even_perfect_from_exponent(p)
        assert is_perfect(form.perfect)
        # sigma((2^p - 1) * 2^(p-1)) = 2^p * (2^p - 1) via the closed form
        assert sigma(factorize(form.perfect)) == 2**p * (2**p - 1)


def test_cross_check_against_sympy():
    sympy = pytest.importorskip("sympy")
    for p in range(2, 131):
        assert lucas_lehmer(p) == sympy.isprime(2**p - 1), p


def test_trial_factor_rejections_are_proper_divisors():
    # the pre-pass multiplies its candidates block by block and takes a gcd after the first
    # block and after the last; the reference tries every q = 2kp + 1 below min(2p^2, 2^p - 1)
    # by itself, with no rule mod 8
    rejected = 0
    for p in primes_up_to(2500)[1:]:
        m = 2**p - 1
        witnessed = any(pow(2, p, q) == 1 for q in range(2 * p + 1, min(2 * p * p, m), 2 * p))
        q = arith._small_mersenne_factor(p)
        assert (q is not None) == witnessed, (p, q)
        if q is not None:
            assert 1 < q < m and m % q == 0, (p, q)
            assert p not in KNOWN_MERSENNE_EXPONENTS
            rejected += 1
    assert rejected == 366 - 201  # the odd primes, less those that reach the recurrence


def test_trial_factor_edge_cases():
    # 7 = 2^3 - 1 and 127 = 2^7 - 1 have the candidates' form, but 2^p - 1 is not its own witness
    assert arith._small_mersenne_factor(3) is None
    assert arith._small_mersenne_factor(7) is None
    # 23 * 89 = 2047: the product of the candidates holds all of 2^11 - 1, so the gcd is no
    # divisor to return, and a single candidate is
    assert arith._small_mersenne_factor(11) in (23, 89)


def test_mersenne_scan_runs_the_recurrence_for_201_odd_exponents(monkeypatch):
    # a count, not a time: trial factoring to 2p^2 leaves 201 of the 366 odd primes p <= 2500
    # (16 of them Mersenne exponents) to the Lucas-Lehmer loop
    verdicts = []
    original = arith._small_mersenne_factor
    monkeypatch.setattr(arith, "_small_mersenne_factor", lambda p: verdicts.append(original(p)) or verdicts[-1])
    assert mersenne_scan(2500) == KNOWN_MERSENNE_EXPONENTS
    assert len(verdicts) == 366
    assert verdicts.count(None) == 201


def test_trial_prepass_stops_at_the_first_decisive_block(monkeypatch):
    # counts, not times: the gcds and the block products the pre-pass makes, each block being
    # one product per residue class; calls made outside the pre-pass are not counted
    work = {"gcd": 0, "prod": 0}
    running = []

    def counted(name, fn):
        def call(*args):
            work[name] += bool(running)
            return fn(*args)

        return call

    def prepass(p):
        running.append(p)
        try:
            return original(p)
        finally:
            running.pop()

    def measure(run):
        work.update(gcd=0, prod=0)
        return run(), dict(work)

    original = arith._small_mersenne_factor
    monkeypatch.setattr(arith, "gcd", counted("gcd", arith.gcd))
    monkeypatch.setattr(arith, "prod", counted("prod", arith.prod))
    monkeypatch.setattr(arith, "_small_mersenne_factor", prepass)
    # 129 of the 165 rejections come at the first block, the 36 others at the last; the 201
    # exponents that reach the recurrence take two gcds, bar p = 3 and 5 with no candidate
    assert measure(lambda: mersenne_scan(2500)) == (KNOWN_MERSENNE_EXPONENTS, {"gcd": 599, "prod": 2 * 2568})
    assert measure(lambda: arith._small_mersenne_factor(2351)) == (4703, {"gcd": 1, "prod": 2})  # k = 1
    assert measure(lambda: arith._small_mersenne_factor(2447))[1]["gcd"] == 2  # found in a later block
    assert measure(lambda: arith._small_mersenne_factor(2477)) == (None, {"gcd": 2, "prod": 2 * 12})
    assert measure(lambda: arith._small_mersenne_factor(11))[0] in (23, 89)


def test_lucas_lehmer_matches_the_textbook_recurrence():
    # the library squares, folds mod 2^p - 1 and subtracts 2, keeping s in [-2, m)
    def reference(p):
        m, s = 2**p - 1, 4
        for _ in range(p - 2):
            s = (s * s - 2) % m
        return s == 0

    assert [p for p in primes_up_to(1000)[1:] if reference(p)] == KNOWN_MERSENNE_EXPONENTS[1:14]
    for p in primes_up_to(1000)[1:]:
        assert lucas_lehmer(p) == reference(p), p


def test_is_prime_on_mersenne_numbers_matches_known_exponents():
    assert [p for p in primes_up_to(2500) if is_prime(2**p - 1)] == KNOWN_MERSENNE_EXPONENTS


def test_is_prime_on_mersenne_numbers_of_composite_exponent_against_sympy():
    sympy = pytest.importorskip("sympy")
    for p in range(4, 201):
        if not sympy.isprime(p):
            assert is_prime(2**p - 1) == sympy.isprime(2**p - 1), p


def test_is_prime_proves_mersenne_numbers_by_lucas_lehmer(monkeypatch):
    calls = []
    original = arith.lucas_lehmer
    monkeypatch.setattr(arith, "lucas_lehmer", lambda p: calls.append(p) or original(p))
    assert is_prime(2**2281 - 1)
    assert not is_prime(2**2267 - 1)
    assert calls == [2281, 2267]
    assert mersenne.lucas_lehmer is original  # re-exported, same function
