import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abundancy import arith
from abundancy.arith import (
    Factorization,
    FactorizationBudgetError,
    digit_count,
    factorize,
    gcd,
    is_perfect,
    is_prime,
    omega,
    primes_up_to,
    render_exact,
    render_short,
    rho_factor,
    sigma,
    sigma_oracle,
    trial_factor,
    valuation,
)


def test_gcd_coprime_components():
    assert gcd(5, 9) == 1


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(2**89 - 1)


# psi_k (Jaeschke, Math. Comp. 1993; Sorenson-Webster, Math. Comp. 2017): the
# least strong pseudoprime to the first k prime bases, for k = 1..13, written
# out here independently of arith. psi_13 is the least n that is_prime hands
# to BPSW.
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)
PSI_12, PSI_13 = PSI[11], PSI[12]
# a proper divisor of each, as the composite witness
PSI_DIVISOR = {
    2047: 23, 1373653: 829, 25326001: 2251, 3215031751: 151, 2152302898747: 6763,
    3474749660383: 1303, 341550071728321: 10670053, 3825123056546413051: 149491,
    PSI_12: 399165290221, PSI_13: 1287836182261,
}
FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, a):
    """Strong Miller-Rabin round of odd n > 2 to base a, written out here
    independently of arith."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_strong_lucas_rejects_a_strong_pseudoprime_to_the_first_13_prime_bases():
    assert PSI_13 == arith._MR_PSI[-1]
    assert all(_strong_probable_prime(PSI_13, a) for a in FIRST_13_PRIMES)
    assert not arith._strong_lucas(PSI_13)
    assert not is_prime(PSI_13)


def test_every_psi_k_is_a_composite_that_passes_its_k_bases_and_is_rejected():
    for k, psi in enumerate(PSI, 1):
        assert psi % PSI_DIVISOR[psi] == 0 and 1 < PSI_DIVISOR[psi] < psi
        assert all(_strong_probable_prime(psi, a) for a in FIRST_13_PRIMES[:k])
        assert not is_prime(psi), k


def test_psi_12_is_not_proven_prime_by_twelve_bases():
    # psi_12 passes the first twelve prime bases, and only base 41 rejects it
    # below psi_13: twelve bases prove nothing from psi_12 on
    n, p, q = PSI_12, 399165290221, 798330580441
    assert p * q == n and is_prime(p) and is_prime(q)
    assert all(_strong_probable_prime(n, a) for a in FIRST_13_PRIMES[:12])
    assert not _strong_probable_prime(n, 41)
    assert not is_prime(n)
    assert factorize(n).factors == ((p, 1), (q, 1))
    with pytest.raises(ValueError, match=f"^{n} is not prime$"):
        Factorization(((n, 1),))


def test_is_prime_matches_a_sieve_below_two_million():
    limit = 2 * 10**6
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]
    # the one gcd with the product of the bases 2..41 agrees with the library's sieve
    assert [n for n in range(2**16) if is_prime(n)] == primes_up_to(2**16)


def _counting_pow(monkeypatch):
    exponentiations = []

    def counting_pow(base, exp, mod=None):
        exponentiations.append(exp)
        return pow(base, exp, mod)

    monkeypatch.setattr(arith, "pow", counting_pow, raising=False)
    return exponentiations


def _largest_prime_below(n):
    # a proof below psi_13: the strong test to the first thirteen prime bases
    n -= 1 + n % 2
    while not all(n % p and _strong_probable_prime(n, p) for p in FIRST_13_PRIMES):
        n -= 2
    return n


def test_proof_bases_are_graded_by_size(monkeypatch):
    exponentiations = _counting_pow(monkeypatch)
    # one gcd with the product of 2..41 decides every n below 43^2
    assert [n for n in range(1849) if is_prime(n)] == primes_up_to(1848)
    assert exponentiations == []
    # a prime just below psi_k costs the least j with psi_j above it: psi_7 =
    # psi_8 and psi_9 = psi_10 = psi_11, so 7 bases cover the first, 9 the second
    costs = []
    for psi in PSI:
        n = _largest_prime_below(psi)
        exponentiations.clear()
        assert is_prime(n)
        costs.append(len(exponentiations))
    assert costs == [1, 2, 3, 4, 5, 6, 7, 7, 9, 9, 9, 12, 13]


def test_strong_lucas_rejects_strong_base_2_pseudoprimes_above_the_bound():
    # (4^p + 1)/5 is a strong pseudoprime to base 2 for these primes p; the
    # Aurifeuillian factor 2^p + 2^((p+1)/2) + 1 of 4^p + 1 shows it composite
    for p in (43, 101, 199):
        n = (4**p + 1) // 5
        assert n > PSI_13 and 1 < gcd(n, 2**p + 2 ** ((p + 1) // 2) + 1) < n
        assert _strong_probable_prime(n, 2)
        assert not arith._strong_lucas(n)
        assert not is_prime(n)


def test_strong_base_2_rejects_the_strong_lucas_pseudoprimes():
    # the strong Lucas pseudoprimes below 20,000 with Selfridge's parameters
    lucas = [n for n in range(3, 20_000, 2) if arith._strong_lucas(n) and not is_prime(n)]
    assert lucas == [5459, 5777, 10877, 16109, 18971]
    assert not any(_strong_probable_prime(n, 2) for n in lucas)


def test_strong_lucas_rejects_the_square_of_a_prime():
    p = 10**29 + 319  # a 30-digit prime; squares have no Selfridge D
    assert is_prime(p)
    assert not arith._strong_lucas(p * p)
    assert not is_prime(p * p)


def test_a_prime_above_the_bound_costs_one_modular_exponentiation(monkeypatch):
    # BPSW: strong base 2 is the only pow; the Lucas chain multiplies
    exponentiations = _counting_pow(monkeypatch)
    p = 2**127 + 45  # prime, not Mersenne-shaped
    assert p > PSI_13 and is_prime(p)
    assert len([e for e in exponentiations if e > 0]) == 1
    exponentiations.clear()
    assert is_prime(PSI_13 - 168)  # the largest prime below the bound
    assert len(exponentiations) == 13  # a proof: the thirteen bases


_DIGITS = st.integers(20, 60).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("integer", "semiprime", "prime")), _DIGITS, _DIGITS)
def test_is_prime_agrees_with_sympy_on_20_to_60_digits(kind, a, b):
    sympy = pytest.importorskip("sympy")  # the oracle only
    if kind == "integer":
        n = a
    elif kind == "semiprime":
        n = sympy.nextprime(a) * sympy.nextprime(b)
    else:
        n = sympy.nextprime(a)
    assert is_prime(n) == sympy.isprime(n)


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []
    assert len(primes_up_to(10**4)) == 1229


def test_factorize_examples():
    assert factorize(45).factors == ((3, 2), (5, 1))
    assert factorize(1).factors == ()
    assert factorize(8191).factors == ((8191, 1),)


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_round_trip():
    for n in range(1, 2000):
        assert factorize(n).value() == n
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(10**9, 10**12)
        f = factorize(n)
        assert f.value() == n
        assert all(is_prime(p) for p, _ in f.factors)


def test_factorize_semiprime():
    p, q = 1_000_003, 1_000_033
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_trial_factor_leaves_a_composite_cofactor_or_none():
    p, q = 4294967311, 1099511627791  # primes above 2^32
    assert trial_factor(1) == (Factorization(()), 1)
    # a prime left after the division below 2^32 moves into the factorization
    assert trial_factor(3 * 100003) == (Factorization.parse("3*100003"), 1)
    # a cofactor above 2^32 stays whole and untested, with every prime factor above 2^16
    assert trial_factor(9 * 5 * p) == (Factorization.parse("3^2*5"), p)
    assert trial_factor(9 * 5 * p * q) == (Factorization.parse("3^2*5"), p * q)
    assert trial_factor(65537**2) == (Factorization(()), 65537**2)
    for n in (9 * 5 * p, 9 * 5 * p * q, 7 * p**2 * q, p * q):
        small, cofactor = trial_factor(n)
        assert factorize(n) == small * rho_factor(cofactor)


def _plain_trial_factor(n):
    """(factors, cofactor) as trial_factor defines them, by dividing n by
    2, 3, 4, ... below 2^16 in turn; the leftover rule is the same."""
    found = []
    d = 2
    while d < 1 << 16 and d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            found.append((d, e))
        d += 1
    if 1 < n < 2**32:
        found.append((n, 1))
        n = 1
    return tuple(found), n


_NEAR_SIZE_CLASSES = (13, 17, 251, 257, 4093, 4099, 65521, 65537)  # primes around 2^4, 2^8, 2^12, 2^16
_SMOOTH = st.lists(
    st.tuples(st.sampled_from((2, 3, 5, 7, 251, 4093, 65519, 65521)), st.integers(1, 4)), max_size=5
).map(lambda pairs: math.prod(p**e for p, e in pairs))
_TRIAL_CASES = st.one_of(
    st.tuples(_SMOOTH, st.sampled_from((1, 65537, 4294967311, 65537 * 65539, 4294967311 * 1099511627791)))
    .map(math.prod),
    st.sampled_from((8, 16, 24, 32)).flatmap(lambda b: st.integers((1 << b) - 200, (1 << b) + 200)),
    st.tuples(st.sampled_from(_NEAR_SIZE_CLASSES), st.sampled_from(_NEAR_SIZE_CLASSES)).map(math.prod),
    st.integers(0, 100).map(lambda k: 1 << k),
    st.sampled_from((1, 65537**2)),
)


@settings(max_examples=300, deadline=None)
@given(_TRIAL_CASES)
def test_trial_factor_matches_plain_trial_division(n):
    small, cofactor = trial_factor(n)
    assert (small.factors, cofactor) == _plain_trial_factor(n)


def test_trial_factor_reduces_n_by_no_small_prime(monkeypatch):
    # one gcd with the product of the primes below 2^16 stands in for a
    # division of n by each of them (6,542 reductions for this n)
    divisors = []

    class Counted(int):
        def __mod__(self, other):
            divisors.append(other)
            return int(self) % other

        def __floordiv__(self, other):
            divisors.append(other)
            return int(self) // other

    leftovers = []
    prove = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda m: leftovers.append(m) or prove(int(m)))
    p, q = 4294967311, 1099511627791  # primes above 2^32
    assert trial_factor(Counted(p * q)) == (Factorization(()), p * q)
    assert divisors == [] and leftovers == []
    # a small prime that does divide n costs a test and a division
    assert trial_factor(Counted(3 * p * q)) == (Factorization(((3, 1),)), p * q)
    assert divisors == [3, 3]


def test_factorize_budget_error():
    # a ~120-bit semiprime is far beyond a 1000-iteration rho budget
    p = 2**59 - 55  # prime
    q = 2**61 - 1
    assert is_prime(p) and is_prime(q)
    with pytest.raises(FactorizationBudgetError):
        factorize(p * q, budget=1000)


def _rho_reductions(m, budget):
    """The reductions mod m that rho_factor(m, budget) makes before it gives
    up; each rho iteration makes one or two."""
    reductions = []

    class Modulus(int):
        def __rmod__(self, other):
            reductions.append(other)
            return other % int(self)

    with pytest.raises(FactorizationBudgetError):
        rho_factor(Modulus(m), budget)
    return len(reductions)


def test_rho_budget_is_charged_by_operand_size():
    # an iteration costs 1 below 256 bits and (bits / 256)^2 above; the
    # budget is spent in chunks of at most the steps already taken plus 128
    p, q = 2**59 - 55, 2**61 - 1
    assert 1000 <= _rho_reductions(p * q, 1000) <= 2 * (2 * 1000 + 128)
    # two Mersenne primes: rho cannot split their 3,482-bit product
    m = (2**1279 - 1) * (2**2203 - 1)
    assert m.bit_length() == 3482 and m.bit_length() ** 2 >> 16 == 185
    assert 200_000 // 185 <= _rho_reductions(m, 200_000) <= 2 * (2 * 200_000 // 185 + 128)


def test_rho_walks_a_repeated_prime_once(monkeypatch):
    # rho finds b in p * b^2 after about 10^6 iterations; the b left in
    # the cofactor p * b is divided out, not found by the same walk again
    p, b = 103414619171, 137438953481
    walks = []
    original = arith._brent_rho

    def counting_rho(n, effort):
        before = effort[0]
        d = original(n, effort)
        walks.append((n, d, before - effort[0]))
        return d

    monkeypatch.setattr(arith, "_brent_rho", counting_rho)
    assert rho_factor(p * b * b).factors == ((p, 1), (b, 2))
    assert walks == [(p * b * b, b, 1_013_246)]


@pytest.mark.parametrize("m, factors, walked", [
    # a square is split at its root, and the second root divides down to 1
    (65537**2, ((65537, 2),), [(65537**2, 65537)]),
    # 65537 * 65539 > 2^32 is not taken as prime: a second walk splits it
    (65537 * 65539 * 65543, ((65537, 1), (65539, 1), (65543, 1)),
     [(65537 * 65539 * 65543, 65537), (65539 * 65543, 65543)]),
])
def test_rho_walks_each_composite_cofactor(monkeypatch, m, factors, walked):
    walks = []
    original = arith._brent_rho

    def counting_rho(n, effort):
        d = original(n, effort)
        walks.append((n, d))
        return d

    monkeypatch.setattr(arith, "_brent_rho", counting_rho)
    assert rho_factor(m).factors == factors
    assert walks == walked


def test_factorize_budget_error_renders_a_cofactor_past_the_str_digit_limit(monkeypatch):
    # only the message is under test: a real is_prime on this 14.6k-bit
    # cofactor takes seconds, so every cofactor is taken to be composite
    monkeypatch.setattr(arith, "is_prime", lambda n: False)
    with pytest.raises(FactorizationBudgetError, match=r"exhausted on \d{20}\.\.\.\d{20} \(\d+ digits\)$"):
        factorize(10**4400 + 1, budget=1)


def test_factorize_budget_error_abbreviates_a_cofactor_past_40_digits():
    # semiprimes of 40 and 41 digits with no factor below 2^16; one rho
    # iteration spends the budget
    p, q = 4 * 10**19 + 19, 4 * 10**19 + 39
    r, s = 10**20 + 39, 10**20 + 129
    assert all(is_prime(m) for m in (p, q, r, s))
    with pytest.raises(FactorizationBudgetError) as short:
        factorize(p * q, budget=1)
    assert str(short.value) == f"factoring budget exhausted on {p * q}"
    text = str(r * s)
    assert len(text) == 41
    with pytest.raises(FactorizationBudgetError) as long:
        factorize(r * s, budget=1)
    assert str(long.value) == f"factoring budget exhausted on {text[:20]}...{text[-20:]} (41 digits)"


def test_factorization_validation():
    with pytest.raises(ValueError):
        Factorization(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        Factorization(((5, 1), (3, 1)))  # not ascending
    with pytest.raises(ValueError):
        Factorization(((3, 0),))  # unit entry
    # primes and exponents are integers: 3.0 is refused at intake, not proven prime
    for factors in (((3, 2.0),), ((3.0, 2),), ((3, Fraction(2)),)):
        with pytest.raises(TypeError, match="interpreted as an integer"):
            Factorization(factors)
    three = Factorization(((3, 1),))
    for call, arg in ((is_prime, 3.0), (is_prime, Fraction(3)), (arith.lucas_lehmer, 2.0), (three.__pow__, 2.0)):
        with pytest.raises(TypeError, match="interpreted as an integer"):
            call(arg)


def test_a_malformed_factorization_is_refused_before_any_primality_proof(monkeypatch):
    calls = []
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or True)
    big = 10**1200 + 1  # a proof of it would take a BPSW run of a tenth of a second
    with pytest.raises(ValueError, match="^exponent of .* must be >= 1, got 0$"):
        Factorization(((3, 1), (big, 0)))
    with pytest.raises(ValueError, match="^primes must increase, got 3 after "):
        Factorization(((big, 1), (3, 1)))
    assert calls == []


def test_factorization_text_format():
    f = Factorization.parse("3^2*5")
    assert f.factors == ((3, 2), (5, 1))
    assert str(f) == "3^2*5"
    assert str(Factorization(())) == "1"
    assert Factorization.parse("1").value() == 1
    assert Factorization.parse("45").factors == ((3, 2), (5, 1))
    assert Factorization.parse(" 7 ").factors == ((7, 1),)
    with pytest.raises(ValueError):
        Factorization.parse("4^2")
    with pytest.raises(ValueError):
        Factorization.parse("5*3")


def test_factorization_product_merges_exponents():
    a = Factorization.parse("3^2*5")
    b = Factorization.parse("3*7")
    assert str(a * b) == "3^3*5*7"


def test_squared_doubles_exponents():
    f = Factorization.parse("3^2*5")
    assert (f**2).factors == ((3, 4), (5, 2))
    assert (f**2).value() == 45**2


def test_derived_factorizations_skip_primality(monkeypatch):
    a, b = Factorization.parse("3^2*5"), Factorization.parse("5*7")
    calls = []
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or True)
    product, square, cube = a * b, a**2, a**3
    assert calls == []
    monkeypatch.undo()
    assert product == Factorization.parse("3^2*5^2*7")
    assert square == Factorization.parse("3^4*5^2")
    assert cube == Factorization.parse("3^6*5^3")
    with pytest.raises(ValueError):
        Factorization(((4, 1),))
    with pytest.raises(ValueError):
        a**0


def test_factorize_proves_each_cofactor_once(monkeypatch):
    # two primes above the 2^32 rule, one of them squared: every cofactor at
    # least 2^32 is tested once, the repeated prime and the result not again
    p, q = 4294967311, 1099511627791
    n = 3 * p**2 * q
    calls = []
    original = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda m: calls.append(m) or original(m))
    f = factorize(n)
    assert f.factors == ((3, 1), (p, 2), (q, 1))
    assert len(calls) == len(set(calls)), calls
    assert {m for m in calls if original(m)} == {p, q}
    assert all(m >= 2**32 and n % m == 0 for m in calls)


def test_render_exact_past_the_str_limit():
    assert render_exact(45) == "45"
    assert render_exact(Fraction(26, 15)) == "26/15"
    big = 10**5000 + 7
    assert digit_count(big) == 5001
    assert render_exact(big) == "10000000000000000000...00000000000000000007 (5001 digits)"
    assert render_exact(Fraction(big, 3)) == render_exact(big) + "/3"
    # just above these powers of two, (bits - 1) * 0.30103 overshoots log10(n)
    wide = [2**13301, 2**26602, 65538 * (2**26586 - 1)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert [digit_count(n) for n in wide] == [len(str(n)) for n in wide] == [4004, 8008, 8008]
    finally:
        sys.set_int_max_str_digits(limit)
    assert render_short(wide[2]) == "99990308115669126509...36257709544709226494 (8008 digits)"


def test_sigma_examples():
    assert sigma(Factorization(((3, 2),))) == 13
    assert sigma(Factorization(())) == 1
    assert sigma(Factorization(((3, 2), (5, 1)))) == 78


def test_inputs_outside_the_domain_are_named():
    with pytest.raises(ValueError, match="^1 has no prime factors$"):
        Factorization(()).least_prime()
    with pytest.raises(ValueError, match="^positive input required$"):
        digit_count(0)
    with pytest.raises(ValueError, match="^sigma_oracle needs n >= 1, got 0$"):
        sigma_oracle(0)
    with pytest.raises(ValueError, match="^is_perfect needs n >= 1, got 0$"):
        is_perfect(0)


def test_sigma_oracle_examples():
    assert sigma_oracle(6) == 12
    assert sigma_oracle(1) == 1
    assert sigma_oracle(496) == 992
    with pytest.raises(ValueError):
        sigma_oracle(10**8)


def test_sigma_matches_oracle_prefix():
    for n in range(1, 2001):
        assert sigma(factorize(n)) == sigma_oracle(n), n


def test_sigma_of_prime_is_p_plus_1():
    for p in primes_up_to(1000):
        assert sigma(Factorization(((p, 1),))) == p + 1


def test_multiplicativity():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        a = rng.randrange(2, 10**4)
        b = rng.randrange(2, 10**4)
        if gcd(a, b) != 1:
            continue
        fa, fb, fab = factorize(a), factorize(b), factorize(a * b)
        assert sigma(fab) == sigma(fa) * sigma(fb)
        assert omega(fab) == omega(fa) + omega(fb)
        checked += 1


def test_omega_and_valuation():
    f = factorize(45)
    assert omega(f) == 2
    assert valuation(3, f) == 2
    assert valuation(5, f) == 1
    assert valuation(7, f) == 0
    with pytest.raises(ValueError):
        valuation(4, f)


def test_is_perfect():
    assert is_perfect(6)
    assert is_perfect(28)
    assert not is_perfect(45)
    perfect = [n for n in range(1, 10000) if is_perfect(n)]
    assert perfect == [6, 28, 496, 8128]
