"""Seeded request streams for the four benchmark workloads.

Every workload is a sequence of rounds. A round has a fixed composition (the
same number of requests of each kind, drawn afresh from the seed), so a run's
figures depend on the seed only through draws within a kind, and a rare
expensive kind (a factoring budget exhausted, a 4096-bit rung) appears at the
same share in every round instead of by chance.

The generators use their own sieve and Miller-Rabin, not the library's
samplers or primality test, and the random 20-40 digit q of large candidates
come from a committed pool of factored random integers (``data/``, made by
``make_q_pool.py``), so a change to the library cannot change the inputs. Requests call the library through its module attributes
(``index.sandwich_check``, ...), which is where the traced run installs its
wrappers.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from pathlib import Path

from abundancy import arith, index, interval, mersenne, opn

KNOWN_MERSENNE_EXPONENTS = (
    2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
)


def _sieve(limit: int) -> list[int]:
    flags = bytearray(b"\x01") * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, flag in enumerate(flags) if flag]


_PRIMES_1000 = _sieve(1000)
_PRIMES_100 = [p for p in _PRIMES_1000 if p < 100]
_ODD_PRIMES_100 = _PRIMES_100[1:]
_ODD_PRIMES_1000 = _PRIMES_1000[1:]
_Q_POOL_5000 = [p for p in _sieve(5000) if p % 4 == 1]
_PRIMES_2500 = _sieve(2500)
_MR_BASES = tuple(_PRIMES_100[:20])


def probable_prime(n: int) -> bool:
    """Miller-Rabin on the first twenty prime bases; inputs only."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, lo: int, hi: int, mod4: int | None = None) -> int:
    """Uniform draw from [lo, hi) retried until prime (and = mod4 mod 4)."""
    while True:
        n = rng.randrange(lo, hi) | 1
        if mod4 is not None and n % 4 != mod4:
            n += 2
        if lo <= n < hi and probable_prime(n):
            return n


def _index_of(factors) -> Fraction:
    out = Fraction(1)
    for p, e in factors:
        out *= Fraction(p ** (e + 1) - 1, p**e * (p - 1))
    return out


def _value(factors) -> int:
    out = 1
    for p, e in factors:
        out *= p**e
    return out


def _odd_factors(rng, exclude=(), max_value=10**6):
    """Up to five distinct odd primes below 100, exponents 1-4, value <= max_value."""
    pool = [p for p in _ODD_PRIMES_100 if p not in exclude]
    while True:
        chosen = sorted(rng.sample(pool, rng.randint(1, min(5, len(pool)))))
        factors = tuple((p, rng.randint(1, 4)) for p in chosen)
        if 1 < _value(factors) <= max_value:
            return factors


# ---------------------------------------------------------------------------
# request kinds: (kind, *inputs); inputs are plain ints and factor tuples
# ---------------------------------------------------------------------------


def _sandwich_round(rng) -> list[tuple]:
    out = []
    for _ in range(1000):
        fa = _odd_factors(rng)
        fb = _odd_factors(rng, exclude=[p for p, _ in fa])
        out.append(("sandwich", fa, fb))
    return out


def _small_candidate(rng) -> tuple:
    # like the order-implication surrogates: q prime = 1 (mod 4) below 5000,
    # k = 1 (mod 4), n odd, coprime to q, with I(n)^3 > 2
    while True:
        q = rng.choice(_Q_POOL_5000)
        k = rng.choice((1, 1, 1, 5, 9))
        n = _odd_factors(rng, exclude=(q,))
        if _index_of(n) ** 3 > 2:
            return ("candidate", q, k, n, ((q, 1),))


# Kinds of q by rho effort (see ``make_q_pool.py``): the Brent-rho iterations
# that split q, which set what factoring it costs, from none (every prime
# but the largest below 2^16) to the budget of 2*10^6, where the library
# gives up. Upper bounds, then the kinds' names.
EFFORT_KINDS = (
    (1, "rho 0"), (10**3, "rho<1e3"), (10**4, "rho<1e4"), (3 * 10**4, "rho<3e4"),
    (10**5, "rho<1e5"), (3 * 10**5, "rho<3e5"), (10**6, "rho<1e6"), (2 * 10**6, "rho<2e6"),
)


def _q_kind(factors: tuple, effort: int) -> str:
    """prime, beyond the rho budget, or the band of its rho effort."""
    if len(factors) == 1 and factors[0][1] == 1:
        return "prime"
    return next((name for bound, name in EFFORT_KINDS if effort < bound), "beyond budget")


@functools.cache
def _q_pool() -> dict[str, list[tuple]]:
    """The pool's factorizations of q (ascending primes) by kind, each kind
    ordered by rho effort, then by q."""
    path = Path(__file__).resolve().parent / "data" / "random_q.json"
    data = json.loads(path.read_text())
    rated = sorted(
        (effort, _value(factors), factors)
        for factors, effort in zip((tuple(map(tuple, f)) for f in data["factorizations"]), data["rho_effort"])
    )
    kinds: dict[str, list[tuple]] = {kind: [] for kind in LARGE_PER_ROUND}
    for effort, _, factors in rated:
        kinds[_q_kind(factors, effort)].append(factors)
    return kinds


# large candidates per round by the kind of q, in the proportions of the pool
# of 2000 uniform random q (2.8 % prime, 7.7 % beyond the budget); the kinds
# are drawn apart because a round's time hangs on its few costly
# factorizations
LARGE_PER_ROUND = {
    "prime": 1, "beyond budget": 3, "rho 0": 12, "rho<1e3": 2, "rho<1e4": 7, "rho<3e4": 3,
    "rho<1e5": 2, "rho<3e5": 3, "rho<1e6": 2, "rho<2e6": 1,
}
SMALL_PER_ROUND = 324  # large candidates are a tenth of the requests


def _large_candidate(rng, q_factors: tuple) -> tuple:
    """N = q^k n^2 > 10^1500 with n of 10-14 odd primes below 1000 (3 among
    them, so that I(n)^3 > 2 and the order premise holds)."""
    q = _value(q_factors)
    k = rng.choice((1, 1, 1, 5))
    others = rng.sample(_ODD_PRIMES_1000[1:], rng.randint(9, 13))
    primes = sorted([3] + others)
    exps = {p: rng.randint(1, 3) for p in primes}
    need = 1501 - k * math.log10(q)  # digits n^2 must supply, with slack
    while 2 * sum(e * math.log10(p) for p, e in exps.items()) < need:
        exps[rng.choice(primes)] += rng.randint(1, 8)
    n = tuple(sorted(exps.items()))
    return ("candidate", q, k, n, q_factors)


def _deal(rng, ordered: list[tuple], count: int) -> list[tuple]:
    """``count`` q of a kind, one from each of ``count`` equal strata of its
    pool ordered by rho effort, so that every run meets the same spread of
    costly factorizations and its slowest requests do not hang on a lucky
    or unlucky draw. The strata differ in size by one at most, so each q of
    the kind is about as likely to be drawn as any other."""
    bounds = [len(ordered) * i // count for i in range(count + 1)]
    deck = [ordered[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]
    rng.shuffle(deck)
    return deck


def _candidate_rounds(rng, count: int) -> list[list[tuple]]:
    # each q of the pool is used at most once in a run
    decks = {kind: _deal(rng, _q_pool()[kind], per_round * count)
             for kind, per_round in LARGE_PER_ROUND.items()}
    rounds = []
    for _ in range(count):
        out = [_small_candidate(rng) for _ in range(SMALL_PER_ROUND)]
        for kind, per_round in LARGE_PER_ROUND.items():
            out += [_large_candidate(rng, decks[kind].pop()) for _ in range(per_round)]
        rng.shuffle(out)
        rounds.append(out)
    return rounds


def _mersenne_round(rng) -> list[tuple]:
    order = list(_PRIMES_2500)
    rng.shuffle(order)
    return [("mersenne", p) for p in order]


def _deep_round(rng) -> list[tuple]:
    # 40 prime powers p^e (p < 100) whose sizes are log-uniform over 64-4096
    # bits, 40 primes uniform over 64-320 bits, each drawn from its own size
    # stratum, and 40 Euler-sum bounds at fixed precisions 512-4096 for a
    # least prime u of an odd perfect number (u <= 13)
    out = []
    for i in range(40):
        lo, hi = 64 * 2 ** (6 * i / 40), 64 * 2 ** (6 * (i + 1) / 40)
        p = rng.choice(_PRIMES_100)
        e = max(1, round(rng.uniform(lo, hi) / math.log2(p)))
        while (p**e).bit_length() > 4096:
            e -= 1
        while (p**e).bit_length() < 64:
            e += 1
        out.append(("exponent", ((p, e),)))
    for i in range(40):
        bits = 64 + (256 * i + rng.randrange(256)) // 40
        out.append(("exponent", ((random_prime(rng, 1 << (bits - 1), 1 << bits), 1),)))
    for i in range(40):
        q = random_prime(rng, 5, 10 ** rng.randint(2, 12), mod4=1)
        out.append(("euler_sum_bound", q, rng.choice((3, 5, 7, 11, 13)), 512 << (i % 4)))
    rng.shuffle(out)
    return out


def _repeated(make_round):
    return lambda rng, count: [make_round(rng) for _ in range(count)]


ROUNDS = {
    "sandwich_corpus": _repeated(_sandwich_round),
    "candidate_checks": _candidate_rounds,
    "mersenne_perfect": _repeated(_mersenne_round),
    "deep_precision": _repeated(_deep_round),
}


def make_rounds(workload: str, rng, count: int) -> list[list[tuple]]:
    """The first ``count`` rounds of the workload's stream for this rng."""
    return ROUNDS[workload](rng, count)


# ---------------------------------------------------------------------------
# execution: one request is one user-level call sequence
# ---------------------------------------------------------------------------


def execute(request: tuple):
    kind = request[0]
    if kind == "sandwich":
        _, fa, fb = request
        return index.sandwich_check(arith.Factorization(fa), arith.Factorization(fb))
    if kind == "candidate":
        _, q, k, n, _ = request
        candidate = opn.EulerianCandidate(q, k, arith.Factorization(n))
        report = opn.validate_eulerian(candidate)
        # order predicates presuppose a prime q; a client asks only then
        if report.status_of("q prime") is opn.CheckStatus.PASS:
            return report, opn.order_predicates(candidate)
        return report, None
    if kind == "mersenne":
        p = request[1]
        if mersenne.lucas_lehmer(p):
            return True, mersenne.even_perfect_from_exponent(p)
        return False, None
    if kind == "exponent":
        return index.abundancy_exponent(arith.Factorization(request[1]))
    if kind == "euler_sum_bound":
        _, q, u, bits = request
        return opn.euler_sum_bound(q, u, interval.PrecisionConfig(bits, bits))
    raise ValueError(f"unknown request kind {kind!r}")


def outcome(request: tuple, result) -> tuple[int, list[int], int]:
    """(UNDECIDED verdicts, precisions the library chose for its returned
    enclosures, verdicts left undecided at the top of the precision ladder)
    for a completed request."""
    kind = request[0]
    if kind == "sandwich":
        undecided = int(result.status.value == "UNDECIDED")
        return undecided, [result.x_ab.bits], undecided
    if kind == "candidate":
        statuses = {c.name: c.status.value for c in result[0].checks}
        undecided = sum(v == "UNDECIDED" for v in statuses.values())
        return undecided, [], int(statuses.get("I(n) > index lower bound") == "UNDECIDED")
    if kind == "exponent":
        return 0, [result.value.bits], 0
    # euler_sum_bound is evaluated at the precision asked, never escalated
    return 0, [], 0


def requested_bits(request: tuple) -> int | None:
    """Starting precision of a request (None for purely integer requests)."""
    kind = request[0]
    if kind == "euler_sum_bound":
        return request[3]
    if kind == "mersenne":
        return None
    return interval.DEFAULT_PRECISION.initial_bits


def prime_powers(request: tuple) -> list[tuple[int, int]]:
    """The prime powers a request's inputs are built from."""
    kind = request[0]
    if kind == "sandwich":
        return list(request[1]) + list(request[2])
    if kind == "candidate":
        _, q, k, n, q_factors = request
        return [(p, e * k) for p, e in q_factors] + list(n)
    if kind == "mersenne":
        return [(request[1], 1)]
    if kind == "exponent":
        return list(request[1])
    _, q, u, _ = request
    return [(q, 1), (u, 1), (u, 2)]


WARM_UP = {
    "sandwich_corpus": ("sandwich", ((3, 2),), ((5, 1),)),
    "candidate_checks": ("candidate", 13, 1, ((3, 2), (5, 1)), ((13, 1),)),
    "mersenne_perfect": ("mersenne", 7),
    "deep_precision": ("exponent", ((3, 40),)),
}
"""One fixed request per workload, run before timing and in the set-up probe."""
