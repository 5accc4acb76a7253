"""Correctness gate for every request, run outside the timed region.

The expected answers are recomputed without the library: integer facts from
the factorizations the generators hold (their primes confirmed by the
benchmark's own Miller-Rabin), real quantities by mpmath at twice the
precision of the returned enclosure; mpmath serves only as an oracle. A
mismatch raises WrongAnswer, which aborts the run; an UNDECIDED verdict is
never a mismatch. An enclosure must also be as tight as the precision it
claims, and a certified verdict must rest on the inequalities that certify it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath

from workloads import KNOWN_MERSENNE_EXPONENTS, probable_prime


class WrongAnswer(AssertionError):
    """The library returned a verdict or value that the oracle refutes."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def _sigma(factors: dict[int, int]) -> int:
    return math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in factors.items())


def _value(factors: dict[int, int]) -> int:
    return math.prod(p**e for p, e in factors.items())


def _to_fraction(x: mpmath.mpf) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


WIDTH_SLACK_BITS = 4
"""An enclosure produced at b bits is at most 2^(4 - b) wide, measured in
units of its scale: the kernels give every ln and exp to within 2^-b, so a
quotient of logarithms is that wide over its denominator and a sum of
exponentials over its own size. (Measured widths stay below 2^(-18 - b).)"""


def _certified(enclosure, evaluate, what: str) -> None:
    """The enclosure holds mpmath's value at 2x its precision (to within that
    value's own rounding error of a few units in the last place) and is as
    tight as the precision it claims. ``evaluate(prec)`` gives the value and
    its scale."""
    prec = 2 * enclosure.bits + 64
    ref, scale = map(_to_fraction, evaluate(prec))
    slack = abs(ref) / 2 ** (prec - 8)
    _require(
        enclosure.lo - slack <= ref <= enclosure.hi + slack,
        f"{what}: enclosure @{enclosure.bits}b misses the {prec}-bit oracle value",
    )
    _require(
        enclosure.width <= scale * Fraction(2) ** (WIDTH_SLACK_BITS - enclosure.bits),
        f"{what}: enclosure @{enclosure.bits}b is looser than that precision gives",
    )


def _index_mp(p: int, e: int) -> mpmath.mpf:
    return mpmath.mpf(p ** (e + 1) - 1) / (mpmath.mpf(p) ** e * (p - 1))


@functools.lru_cache(maxsize=1 << 14)
def _ln_index_mp(p: int, e: int, prec: int) -> mpmath.mpf:
    """ln I(p^e) at prec bits (cached: the sandwich corpus reuses few)."""
    with mpmath.workprec(prec):
        return mpmath.log(_index_mp(p, e))


def _check_exponent_value(enclosure, factors, what: str) -> None:
    """x(n) = ln I(n^2) / ln I(n) for n given by its factors, on the scale
    1 / ln I(n)."""

    def evaluate(prec):
        with mpmath.workprec(prec):
            ln_square = mpmath.fsum(_ln_index_mp(p, 2 * e, prec) for p, e in factors)
            ln_n = mpmath.fsum(_ln_index_mp(p, e, prec) for p, e in factors)
            return ln_square / ln_n, 1 / ln_n

    _certified(enclosure, evaluate, what)


def _reciprocal_exponent_mp(u: int) -> mpmath.mpf:
    return mpmath.log(_index_mp(u, 1)) / mpmath.log(_index_mp(u, 2))


def check_sandwich(request, result) -> None:
    _, fa, fb = request
    _require(result.status.value == "HOLDS", f"sandwich {request[1:]} gave {result.status.value}")
    x_a, x_b, x_ab = result.x_a, result.x_b, result.x_ab
    _require(
        (x_a.hi < x_ab.lo and x_ab.hi < x_b.lo) or (x_b.hi < x_ab.lo and x_ab.hi < x_a.lo),
        f"sandwich {request[1:]}: HOLDS without x(ab) separated strictly between x(a) and x(b)",
    )
    for enclosure, factors, name in ((x_a, fa, "x(a)"), (x_b, fb, "x(b)"), (x_ab, fa + fb, "x(ab)")):
        _check_exponent_value(enclosure, factors, f"sandwich {request[1:]}: {name}")


def check_candidate(request, result) -> None:
    _, q, k, n, q_factors = request
    report, order = result
    for p, _ in q_factors:
        _require(probable_prime(p), f"generator built q from composite {p}")
    n_fac = dict(n)
    full = {p: 2 * e for p, e in n_fac.items()}
    for p, e in q_factors:
        full[p] = full.get(p, 0) + k * e
    root, big_n = _value(n_fac), q**k * _value(n_fac) ** 2
    q_pow = {p: k * e for p, e in q_factors}
    euler_index = Fraction(_sigma(q_pow), q**k)
    expected = {
        "q prime": probable_prime(q),
        "q = 1 (mod 4)": q % 4 == 1,
        "k = 1 (mod 4)": k % 4 == 1,
        "gcd(q, n) = 1": math.gcd(q, root) == 1,
        "n odd": root % 2 == 1,
        "N > 10^1500": big_n > 10**1500,
        "omega(N) >= 10": len(full) >= 10,
        "I(q^k) < 5/4": euler_index < Fraction(5, 4),
        "q < n for k > 1": k == 1 or q < root,
        "sigma(N) = 2N": _sigma(full) == 2 * big_n,
    }
    statuses = {c.name: c.status.value for c in report.checks}
    for name, holds in expected.items():
        _require(name in statuses, f"report lacks check {name!r}")
        if statuses[name] != "UNDECIDED":
            _require(statuses[name] == ("PASS" if holds else "FAIL"),
                     f"{name}: got {statuses[name]} for {request[1:4]}")
    bound_status = statuses.get("I(n) > index lower bound")
    _require(bound_status is not None, "report lacks the index lower bound check")
    if bound_status != "UNDECIDED":
        u = min(full)
        if u == 2:
            holds = False
        else:
            root_index = Fraction(_sigma(n_fac), root)
            with mpmath.workprec(600):
                bound = _to_fraction(mpmath.power(mpmath.mpf(8) / 5, _reciprocal_exponent_mp(u)))
            holds = bound < root_index
        _require(bound_status == ("PASS" if holds else "FAIL"), f"index bound: got {bound_status}")
    if order is not None:
        sigma_euler, sigma_root = _sigma(q_pow), _sigma(n_fac)
        _require(order.euler_lt_root == (q**k < root), "order: q^k < n")
        _require(order.cross_lt == (sigma_euler * q**k < sigma_root * root), "order: cross product")
        _require(order.sigma_lt == (sigma_euler < sigma_root), "order: sigma(q^k) < sigma(n)")
    else:
        _require(not expected["q prime"], "order predicates skipped for a prime q")


def check_mersenne(request, result) -> None:
    p = request[1]
    is_mersenne, form = result
    _require(is_mersenne == (p in KNOWN_MERSENNE_EXPONENTS), f"lucas_lehmer({p}) = {is_mersenne}")
    if is_mersenne:
        m = (1 << p) - 1
        _require((form.p, form.mersenne, form.perfect) == (p, m, m << (p - 1)), f"even perfect for {p}")


def check_exponent(request, result) -> None:
    (p, e), = request[1]
    _require(result.of.factors == ((p, e),), "exponent of the wrong factorization")
    value = result.value
    _require(1 < value.lo and value.hi < 2, f"x({p}^{e}): enclosure not certified inside 1 < x < 2")
    _check_exponent_value(value, request[1], f"x({p}^{e})")


def check_euler_sum_bound(request, result) -> None:
    _, q, u, bits = request
    _require(result.bits == bits, f"f({q}, {u}) returned at {result.bits} bits, asked {bits}")

    def evaluate(prec):
        with mpmath.workprec(prec):
            f = mpmath.mpf(q + 1) / q + mpmath.power(mpmath.mpf(2 * q) / (q + 1), _reciprocal_exponent_mp(u))
            return f, f

    _certified(result, evaluate, f"f({q}, {u})")


CHECKS = {
    "sandwich": check_sandwich,
    "candidate": check_candidate,
    "mersenne": check_mersenne,
    "exponent": check_exponent,
    "euler_sum_bound": check_euler_sum_bound,
}


def check(request, result) -> None:
    CHECKS[request[0]](request, result)
