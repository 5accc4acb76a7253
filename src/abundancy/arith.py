"""Exact integer arithmetic and multiplicative number theory primitives.

Everything here is pure and exact: arbitrary-precision integers, canonical
prime factorizations, primality (with the Lucas-Lehmer proof for Mersenne
numbers), the divisor-sum function computed from the closed form
sigma(p^e) = (p^(e+1) - 1)/(p - 1), and an independent brute-force divisor
oracle for cross-checking it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod

__all__ = [
    "Factorization",
    "FactorizationBudgetError",
    "TRIAL_BITS",
    "digit_count",
    "factor_pairs",
    "factorize",
    "gcd",
    "is_perfect",
    "is_prime",
    "lucas_lehmer",
    "omega",
    "parse_factored",
    "primes_up_to",
    "render_exact",
    "render_short",
    "rho_factor",
    "sigma",
    "sigma_oracle",
    "trial_factor",
    "valuation",
]

DEFAULT_BUDGET = 2_000_000  # rho iterations below 256 bits before giving up
ORACLE_CAP = 10**7

# trial_factor finds the primes below 2^TRIAL_BITS
TRIAL_BITS = 16
_TRIAL_LIMIT = 1 << TRIAL_BITS
# Below this bound the first twelve prime bases make Miller-Rabin deterministic;
# from it on is_prime is BPSW (strong base 2, then _strong_lucas).
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Lucas-Lehmer first tries the candidate factors of 2^p - 1 below this bound.
_LL_TRIAL_LIMIT = 1 << 18


class FactorizationBudgetError(Exception):
    """Factoring exceeded its effort budget: input too hard, not invalid."""


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by a plain sieve."""
    if limit < 2:
        return []
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : limit + 1 : p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    return tuple(primes_up_to(_TRIAL_LIMIT))


@lru_cache(maxsize=None)
def _prime_product(bits: int) -> int:
    """Product of the primes below 2^bits, multiplied up a balanced tree."""
    level = [p for p in _small_primes() if p >> bits == 0]
    while len(level) > 1:
        level = [prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0]


def is_prime(n: int) -> bool:
    """Primality test, deterministic (no randomness anywhere).

    A Mersenne-shaped n = 2^p - 1 is decided by the Lucas-Lehmer test, a proof
    at every size. Below ~3.3e24 the strong Miller-Rabin test to the first
    twelve prime bases is a proof. Above that bound n gets BPSW: a strong
    test to base 2 and a strong Lucas test with Selfridge's parameters
    (Baillie-Wagstaff 1980), so True is a probable-prime claim. No BPSW
    pseudoprime is known, and none exists below 2^64.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n & (n + 1) == 0:
        return lucas_lehmer(n.bit_length())
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    proven = n < _MR_DETERMINISTIC_BOUND
    for a in _MR_BASES if proven else (2,):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return proven or _strong_lucas(n)


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 1 with Selfridge's
    parameters: the first D of 5, -7, 9, -11, ... with Jacobi(D/n) = -1,
    P = 1 and Q = (1 - D)/4 (Baillie-Wagstaff 1980).

    With n + 1 = d * 2^s, d odd, n passes iff U_d = 0 or V_(d*2^r) = 0 (mod n)
    for some r < s. A square has no such D and is rejected first. The chain
    carries (V_k, V_(k+1), Q^k) up the bits of d, three products a bit, and
    U_d = 0 is read off D*U_d = 2*V_(d+1) - P*V_d, D being a unit mod n.
    """
    root = isqrt(n)
    if root * root == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return abs(D) == n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    v, w, qk = 1, 1 - 2 * Q, Q  # V_1, V_2, Q^1 (P = 1)
    for bit in bin(d)[3:]:
        if bit == "1":
            v, w, qk = (v * w - qk) % n, (w * w - 2 * qk * Q) % n, qk * qk * Q % n
        else:
            v, w, qk = (v * v - 2 * qk) % n, (v * w - qk) % n, qk * qk % n
    if (2 * w - v) % n == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a & 1 == 0:
            a >>= 1
            if n & 7 in (3, 5):
                out = -out
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def lucas_lehmer(p: int) -> bool:
    """True iff 2^p - 1 is prime, proven either way.

    p = 2 is the conventional special case (the recurrence starts at p = 3);
    composite p short-circuits to False since 2^p - 1 is then composite.
    Before the recurrence, a trial-factoring pre-pass tries the only possible
    factors of 2^p - 1, q = 2kp + 1 with q = +-1 (mod 8), below a fixed bound
    of 2^18 and below 2^p - 1 itself (so 7 and 127 are not their own
    witnesses); a divisor found is an exact composite verdict. Every True is a
    full Lucas-Lehmer proof.
    """
    if p < 2:
        raise ValueError(f"exponent must be >= 2, got {p}")
    if p == 2:
        return True
    if not is_prime(p):
        return False
    if _small_mersenne_factor(p) is not None:
        return False
    m = (1 << p) - 1
    s = 4
    for _ in range(p - 2):
        s = s * s - 2
        s = (s & m) + (s >> p)  # reduction mod 2^p - 1
        if s >= m:
            s -= m
    return s == 0


def _small_mersenne_factor(p: int) -> int | None:
    """A divisor q of 2^p - 1 (odd prime p) with 1 < q < min(2^18, 2^p - 1),
    or None. Every prime factor of 2^p - 1 is 2kp + 1 and +-1 (mod 8), so only
    those q are tried; pow(2, p, q) == 1 is exactly q | 2^p - 1."""
    candidates = range(2 * p + 1, min(_LL_TRIAL_LIMIT, (1 << p) - 1), 2 * p)
    return next((q for q in candidates if (q & 7) in (1, 7) and pow(2, p, q) == 1), None)


@dataclass(frozen=True)
class Factorization:
    """Canonical prime factorization: strictly ascending primes, exponents >= 1.

    The empty tuple represents 1. Construction validates canonicity, so
    equality and hashing are structural.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        prev = 1
        for p, e in self.factors:
            if not is_prime(p):
                raise ValueError(f"{render_short(p)} is not prime")
            if p <= prev:
                raise ValueError(f"primes must increase, got {render_short(p)} after {render_short(prev)}")
            if e < 1:
                raise ValueError(f"exponent of {render_short(p)} must be >= 1, got {render_short(e)}")
            prev = p

    @classmethod
    def _derived(cls, factors: tuple[tuple[int, int], ...]) -> "Factorization":
        """Canonical factors whose primes are already proven (**, *, factorize):
        no re-proof."""
        out = object.__new__(cls)
        object.__setattr__(out, "factors", factors)
        return out

    def value(self) -> int:
        out = 1
        for p, e in self.factors:
            out *= p**e
        return out

    def squared(self) -> "Factorization":
        """Factorization of value()**2 (exponents doubled, never refactored)."""
        return self**2

    def __pow__(self, k: int) -> "Factorization":
        """Factorization of value()**k for k >= 1 (exponents scaled, no re-proof)."""
        if k < 1:
            raise ValueError(f"power must be >= 1, got {k}")
        return Factorization._derived(tuple((p, k * e) for p, e in self.factors))

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def least_prime(self) -> int:
        if not self.factors:
            raise ValueError("1 has no prime factors")
        return self.factors[0][0]

    def __mul__(self, other: "Factorization") -> "Factorization":
        """Product of the two represented values (exponents of shared primes add)."""
        merged: dict[int, int] = dict(self.factors)
        for p, e in other.factors:
            merged[p] = merged.get(p, 0) + e
        return Factorization._derived(tuple(sorted(merged.items())))

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)

    @classmethod
    def parse(cls, text: str) -> "Factorization":
        """Parse the factored text form ``p1^e1*p2^e2*...`` (e.g. ``3^2*5``)."""
        return cls(() if text.strip() == "1" else factor_pairs(text))


def factor_pairs(text: str) -> tuple[tuple[int, int], ...]:
    """The unchecked (p, e) pairs of the factored text form: no prime is proven."""
    pairs = []
    for part in text.strip().split("*"):
        p_text, caret, e_text = part.partition("^")
        pairs.append((int(p_text), int(e_text) if caret else 1))
    return tuple(pairs)


def trial_factor(n: int) -> tuple[Factorization, int]:
    """Trial division of n >= 1 by the primes below 2^16, as one gcd.

    g = gcd(n, P) for P the product of the primes below 2^4, 2^8, 2^12 or
    2^16, the least of these that covers sqrt(n). The primes of g are read
    off in order until p^2 > g leaves g itself prime, and each is divided
    out of n as often as it goes.

    Returns (f, m) with n = f.value() * m. Either m = 1 and f is the whole
    factorization (a prime left over after the division is proven, by the
    2^32 rule or by one is_prime call, and moved into f), or m is composite,
    every prime factor of m exceeds 2^16 and f holds the primes below 2^16.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}; need n >= 1")
    # the primes below 2^b cover sqrt(n) once bits(n) <= 2b
    g = gcd(n, _prime_product(min(-(-n.bit_length() // 8) * 4, TRIAL_BITS)))
    found: list[tuple[int, int]] = []
    for p in _small_primes():
        if g == 1:
            break
        if p * p > g:  # g is itself prime
            p = g
        if g % p == 0:
            g //= p
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            found.append((p, e))
    # what survives has no prime factor below min(2^16, sqrt(n)): below 2^32 it is prime
    if n > 1 and (n < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(n)):
        found.append((n, 1))
        n = 1
    return Factorization._derived(tuple(found)), n


def factorize(n: int, budget: int = DEFAULT_BUDGET) -> Factorization:
    """Canonical factorization of n >= 1: trial_factor, then rho_factor on the
    composite cofactor it leaves, if any.

    Deterministic. Raises FactorizationBudgetError once `budget` is spent (a
    unit per rho iteration below 256 bits, more above; see _brent_rho), so
    pathological inputs fail cleanly in bounded time. Each reported prime is
    tested once, by the trial division, by the 2^32 rule or by its own
    is_prime call, so the result is not validated again. That is a proof
    below ~3.3e24 and for Mersenne-shaped primes; any other prime above it is
    a BPSW probable prime (none known; none below 2^64; see is_prime).
    """
    small, cofactor = trial_factor(n)
    return small if cofactor == 1 else small * rho_factor(cofactor, budget)


def rho_factor(m: int, budget: int = DEFAULT_BUDGET) -> Factorization:
    """Factorization of a cofactor m that trial_factor left: composite, every
    prime factor above 2^16.

    Brent-rho splitting with a fixed parameter schedule; m itself is not
    tested again, each smaller cofactor once. A prime once found is divided
    out of every later cofactor, so a repeated prime costs no second walk.
    Raises FactorizationBudgetError once `budget` is spent (see _brent_rho
    for what an iteration costs).
    """
    effort = [budget]
    found: dict[int, int] = {}
    d = _brent_rho(m, effort)
    stack = [m // d, d]
    while stack:
        c = stack.pop()
        for p in found:
            while c % p == 0:
                c //= p
                found[p] += 1
        if c == 1:
            continue
        # every prime factor exceeds 2^16, so below 2^32 c is prime
        if c < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(c):
            found[c] = 1
            continue
        d = _brent_rho(c, effort)
        stack.append(c // d)
        stack.append(d)
    return Factorization._derived(tuple(sorted(found.items())))


def _brent_rho(n: int, effort: list[int]) -> int:
    """Nontrivial factor of odd composite n (Brent's cycle variant).

    The polynomial offset walks c = 1, 2, 3, ... so results are deterministic.
    Decrements effort[0] per function evaluation, by 1 below 256 bits and by
    (bits(n) / 256)^2 above, as a multiplication mod n costs, to bound time.
    """
    root = isqrt(n)
    if root * root == n:
        return root
    cost = max(1, n.bit_length() ** 2 >> 16)

    def spend(steps: int) -> None:
        effort[0] -= steps * cost
        if effort[0] <= 0:
            raise FactorizationBudgetError(f"factoring budget exhausted on {render_short(n)}")

    for c in itertools.count(1):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            spend(r)
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(128, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                spend(batch)
                g = gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
                spend(1)
        if g != n:
            return g


def parse_factored(text: str) -> Factorization:
    """Parse either a bare integer or the ``p1^e1*p2^e2`` factored form."""
    text = text.strip()
    if text.isdigit():
        return factorize(int(text))
    return Factorization.parse(text)


def digit_count(n: int) -> int:
    """Number of decimal digits of n >= 1, without str(n) (which Python caps
    for huge integers)."""
    if n <= 0:
        raise ValueError("positive input required")
    d = max((n.bit_length() - 1) * 30103 // 100000, 0)
    while 10 ** (d + 1) <= n:
        d += 1
    return d + 1


def render_exact(x: int | Fraction) -> str:
    """str(x), except that an integer past Python's int-to-str digit limit is
    shown as its first and last 20 digits and its digit count."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{render_exact(x.numerator)}/{render_exact(x.denominator)}"
    n = int(x)
    try:
        return str(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return render_short(n)


def render_short(n: int) -> str:
    """str(n) for n of at most 40 digits, else the sign and the head/tail form."""
    return f"{'-' if n < 0 else ''}{_abbreviated(abs(n))}" if abs(n) >= 10**40 else str(n)


def _abbreviated(n: int) -> str:
    """n >= 10^40 as its first and last 20 digits and its digit count."""
    digits = digit_count(n)
    head, tail = n // 10 ** (digits - 20), n % 10**20
    return f"{head}...{tail:020d} ({digits} digits)"


def sigma(f: Factorization) -> int:
    """Sum of divisors from the multiplicative closed form; sigma(1) = 1."""
    out = 1
    for p, e in f.factors:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def sigma_oracle(n: int) -> int:
    """Sum of divisors by direct enumeration (independent of factorize/sigma)."""
    if n < 1:
        raise ValueError(f"sigma_oracle needs n >= 1, got {n}")
    if n > ORACLE_CAP:
        raise ValueError(f"sigma_oracle cap {ORACLE_CAP} exceeded by {n}")
    total = 0
    root = isqrt(n)
    for d in range(1, root + 1):
        if n % d == 0:
            total += d + n // d
    if root * root == n:
        total -= root
    return total


def omega(f: Factorization) -> int:
    """Number of distinct prime factors."""
    return len(f.factors)


def valuation(p: int, f: Factorization) -> int:
    """Exponent of the prime p in f (0 if absent)."""
    if not is_prime(p):
        raise ValueError(f"valuation requires a prime, got {render_short(p)}")
    for q, e in f.factors:
        if q == p:
            return e
    return 0


def is_perfect(n: int) -> bool:
    """True iff sigma(n) = 2n."""
    if n < 1:
        raise ValueError(f"is_perfect needs n >= 1, got {n}")
    return sigma(factorize(n)) == 2 * n
