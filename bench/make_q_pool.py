"""Write ``data/random_q.json``: random integers q = 1 (mod 4) of 20-40
digits with their factorizations, for the large candidates of
``candidate_checks``.

    python3 bench/make_q_pool.py

The number of digits is uniform over 20-40 and q is uniform among the
integers = 1 (mod 4) with that many digits. Each q comes with its prime
factorization by Kalai's algorithm ("Generating random factored numbers,
easily", J. Cryptology 16, 2003): a descending chain of uniform draws whose
prime members, kept when their product r <= 10^d and with probability
r / 10^d, give a uniform random integer in [1, 10^d] already factored.
Leaving the prime 2 out of the chain makes r uniform over the odd integers;
those = 3 (mod 4) or with fewer than d digits are drawn again.

Each q also gets its rho effort: the iterations that textbook Brent-rho
(f(x) = x^2 + c from x = 2, c = 1, 2, ... on a failed cycle, gcds batched
by 128) spends to split q once the primes below 2^16 are divided out,
capped at a budget of 2*10^6. The benchmark sorts q into kinds by this
effort and deals each kind by strata of it, so that every run meets the same
spread of costly factorizations; any ordering would keep that draw unbiased,
this one also keeps it steady. Slow (0.2 s per q to draw, up to 2 s to rate, on a 2-core
x86-64 VM), so the pool is made once and committed; the benchmark's seed
chooses from it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))  # workloads imports the library

from workloads import probable_prime  # noqa: E402

SEED = "random-q-pool/1"
COUNT = 2000
BUDGET = 2_000_000
TRIAL_LIMIT = 1 << 16
OUT = BENCH / "data" / "random_q.json"


def random_odd_factored(rng, limit: int) -> tuple[int, list[int]]:
    """Uniform random odd integer in [1, limit] with its prime factors."""
    while True:
        s, primes, r = limit, [], 1
        while s > 1:
            s = rng.randint(1, s)
            if s > 2 and probable_prime(s):
                primes.append(s)
                r *= s
                if r > limit:
                    break
        if r <= limit and rng.randint(1, limit) <= r:
            return r, primes


def random_q(rng) -> tuple[int, list[int]]:
    digits = rng.randint(20, 40)
    while True:
        q, primes = random_odd_factored(rng, 10**digits)
        if q % 4 == 1 and q >= 10 ** (digits - 1):
            return q, primes


def _split_effort(n: int, spent: int) -> tuple[int, int]:
    """(factor of composite n, iterations spent so far) by Brent-rho."""
    for c in itertools.count(1):
        x = y = ys = 2
        r, prod, g = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            spent += r
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                spent += min(128, r - k)
                g = math.gcd(prod, n)
                k += 128
            r *= 2
            if spent >= BUDGET:
                return 0, BUDGET
        if g == n:  # the batch overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                spent += 1
                if spent >= BUDGET:
                    return 0, BUDGET
        if g != n:
            return g, spent


def rho_effort(factors: list[tuple[int, int]]) -> int:
    """Brent-rho iterations to split q into its primes, capped at BUDGET."""
    primes = {p for p, _ in factors}
    stack = [p**e for p, e in factors if p >= TRIAL_LIMIT]
    rest = math.prod(stack)
    stack, spent = ([rest] if rest > 1 else []), 0
    while stack:
        m = stack.pop()
        if m < TRIAL_LIMIT * TRIAL_LIMIT or m in primes:
            continue
        d, spent = _split_effort(m, spent)
        if d == 0:
            return BUDGET
        stack += [d, m // d]
    return spent


def main() -> int:
    rng = random.Random(SEED)
    pool = []
    for _ in range(COUNT):
        _, primes = random_q(rng)
        factors: dict[int, int] = {}
        for p in primes:
            factors[p] = factors.get(p, 0) + 1
        pool.append(sorted(factors.items()))
    write(pool)
    return 0


def write(pool: list) -> None:
    efforts = [rho_effort(factors) for factors in pool]
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({"seed": SEED, "budget": BUDGET, "factorizations": pool,
                               "rho_effort": efforts}, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    sys.exit(main())
