"""Odd-perfect-number candidate model and constraint predicates.

A hypothetical odd perfect number N in Eulerian form is N = q^k * n^2 with q
prime, q = k = 1 (mod 4) and gcd(q, n) = 1. No example is known; the point of
this module is to check a proposed (q, k, n) against every named structural
constraint and published bound exactly, and to certify the inequality
machinery that forces q < n whenever the least prime factor of N is at least
5: the Euler-prime lower bound f(q, u) = (q+1)/q + (2q/(q+1))**(1/x(u)) must
clear the ceiling 1 + sqrt(3) for u = 5, and provably cannot for u = 3.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial
from typing import Callable

from .arith import (
    TRIAL_BITS,
    Factorization,
    FactorizationBudgetError,
    bpsw_claim,
    digit_count,
    gcd,
    is_prime,
    omega,
    parse_integer,
    primes_up_to,
    render_exact,
    render_short,
    rho_factor,
    sigma,
    trial_factor,
)
from .index import abundancy_index, index_lower_bound, reciprocal_exponent
from .interval import (
    Comparison,
    DEFAULT_PRECISION,
    IntervalReal,
    PrecisionConfig,
    escalate,
    pow_interval,
    sqrt_ratio,
)

__all__ = [
    "CeilingScan",
    "Check",
    "CheckStatus",
    "ConstraintReport",
    "EulerianCandidate",
    "OrderPredicates",
    "PremiseError",
    "ResidualCase",
    "ResidualClassification",
    "acquaah_konyagin_holds",
    "ceiling_interval",
    "ceiling_scan",
    "euler_sum_bound",
    "euler_sum_bound_limit",
    "order_predicates",
    "residual_case_classify",
    "validate_eulerian",
]

OCHEM_RAO_FLOOR = 10**1500  # every odd perfect number exceeds this
NIELSEN_MIN_OMEGA = 10  # and has at least this many distinct primes

DEFAULT_MARGIN = Fraction(1, 1000)


class CheckStatus(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    UNDECIDED = "UNDECIDED"


class _Witness:
    """Check.witness, given as a str or a zero-argument callable that renders
    it: the first read calls the callable and keeps its text in the instance
    (as IntervalReal._text), and equality, hashing, repr, to_dict and
    pickling read the text, so a lazy Check equals the eager one."""

    def __get__(self, check: Check | None, owner: type) -> str:
        if check is None:
            raise AttributeError("witness")  # so dataclass gives the field no default
        if not isinstance(check._witness, str):
            self.__set__(check, check._witness())
        return check._witness

    def __set__(self, check: Check, witness: str | Callable[[], str]) -> None:
        object.__setattr__(check, "_witness", witness)  # not through __dict__, which would be built


@dataclass(frozen=True)
class Check:
    name: str
    status: CheckStatus
    witness: str = _Witness()  # no default: a str, or a callable that renders it

    def __reduce__(self) -> tuple:
        return Check, (self.name, self.status, self.witness)

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status.value, "witness": self.witness}


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple[Check, ...]

    def status_of(self, name: str) -> CheckStatus:
        for check in self.checks:
            if check.name == name:
                return check.status
        raise KeyError(name)

    @property
    def all_pass(self) -> bool:
        return all(check.status is CheckStatus.PASS for check in self.checks)

    def to_dict(self) -> dict:
        return {"checks": [c.to_dict() for c in self.checks]}


@dataclass(frozen=True)
class EulerianCandidate:
    """A proposed odd-perfect-number shape N = q^k * n^2.

    Construction only checks syntax (q >= 2, k >= 1, n in canonical factored
    form); every structural constraint lives in validate_eulerian so that
    failing candidates can still be examined.
    """

    q: int
    k: int
    n: Factorization

    def __post_init__(self) -> None:
        if operator.index(self.q) < 2:
            raise ValueError(f"q must be at least 2, got {render_short(self.q)}")
        if operator.index(self.k) < 1:
            raise ValueError(f"k must be at least 1, got {render_short(self.k)}")
        if not isinstance(self.n, Factorization):
            raise TypeError(f"n must be a Factorization, got {type(self.n).__name__}")

    @cached_property
    def _q_split(self) -> tuple[Factorization, int]:
        # trial_factor(q) for validate_eulerian and order_predicates, its
        # leftover proven only when it is all of q, as the "q prime" row
        # needs; not a field (as IntervalReal._text)
        small, cofactor = trial_factor(self.q)
        if cofactor == self.q and is_prime(cofactor):
            return Factorization._derived(((cofactor, 1),)), 1
        return small, cofactor

    @property
    def root(self) -> int:
        """The integer n (square root of the non-Euler part)."""
        return self.n.value()

    @property
    def euler_part(self) -> int:
        return self.q**self.k

    @property
    def value(self) -> int:
        """N = q^k * n^2, reconstructed exactly."""
        return self.euler_part * self.root**2

    @property
    def descartes_frenicle_sorli(self) -> bool:
        """True when the Euler exponent k equals 1 (the conjectured value)."""
        return self.k == 1

    def __str__(self) -> str:
        return f"q={render_exact(self.q)} k={self.k} n={self.n}"

    @classmethod
    def parse(cls, line: str) -> "EulerianCandidate":
        """Parse the candidate line format ``q=<int> k=<int> n=<factored>``."""
        q, k, n_text = cls.fields(line)
        return cls(q, k, Factorization.parse(n_text))

    @staticmethod
    def fields(line: str) -> tuple[int, int, str]:
        """q, k and n's text from a candidate line (each key once, no other keys)."""
        fields: dict[str, str] = {}
        for token in line.split():
            if "=" not in token:
                raise ValueError(f"expected key=value tokens, got {token!r}")
            key, _, text = token.partition("=")
            if key not in ("q", "k", "n"):
                raise ValueError(f"unknown key {key!r} in candidate line; expected q, k and n")
            if key in fields:
                raise ValueError(f"duplicate key {key!r} in candidate line")
            fields[key] = text
        missing = {"q", "k", "n"} - fields.keys()
        if missing:
            raise ValueError(f"candidate line is missing {sorted(missing)}")
        return parse_integer(fields["q"], "q"), parse_integer(fields["k"], "k"), fields["n"]


def acquaah_konyagin_holds(q: int, n: int) -> bool:
    """q < n*sqrt(3), tested exactly as q^2 < 3*n^2 (no irrationals)."""
    return operator.index(q) ** 2 < 3 * operator.index(n) ** 2


def _flag(name: str, ok: bool, witness: str | Callable[[], str]) -> Check:
    return Check(name, CheckStatus.PASS if ok else CheckStatus.FAIL, witness)


# The checks that need q's factorization, or the bounds that stand in for it
# (_factored_checks); UNDECIDED when neither decides and factoring exhausts
# the budget.
_FACTORED_CHECKS = ("omega(N) >= 10", "I(q^k) < 5/4", "I(n) > index lower bound", "sigma(N) = 2N")


def validate_eulerian(
    candidate: EulerianCandidate,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
) -> ConstraintReport:
    """Run every named constraint against a candidate.

    Form checks and literature bounds are exact integer comparisons; the index
    lower bound is decided by certified enclosures with automatic precision
    escalation. q goes through trial_factor once, which leaves a cofactor m
    that is 1 or above 2^32 with every prime factor above 2^16; m is proven
    only when it is all of q, which decides "q prime". One evaluator,
    _factored_checks, decides the checks that need q's factorization:
    exactly when m = 1, else from exact bounds on m's share of N, which hold
    for a prime m too. Only when a bound cannot decide is m factored (by
    rho_factor, which divides n's proven primes out, then proves m or walks)
    and the evaluator run once more, with m = 1; if rho exhausts the budget
    those checks are UNDECIDED. Failures are report entries, never
    exceptions.
    """
    q, k = candidate.q, candidate.k
    n = candidate.root
    big_n = q**k * n * n
    g = gcd(q, n)
    small, cofactor = candidate._q_split
    factored = _factored_checks(candidate, small, cofactor, cfg)
    if factored is None:
        try:
            known = small * rho_factor(cofactor, known=candidate.n.primes())
        except FactorizationBudgetError as exc:
            factored = [Check(name, CheckStatus.UNDECIDED, str(exc)) for name in _FACTORED_CHECKS]
        else:
            factored = _factored_checks(candidate, known, 1, cfg)
    prime = cofactor == 1 and small.factors == ((q, 1),)
    probable = prime and bpsw_claim(q)
    checks = [
        _flag("q prime", prime, lambda: f"q = {render_exact(q)}" + " (BPSW probable prime)" * probable),
        _flag("q = 1 (mod 4)", q % 4 == 1, f"q mod 4 = {q % 4}"),
        _flag("k = 1 (mod 4)", k % 4 == 1, f"k mod 4 = {k % 4}"),
        _flag("gcd(q, n) = 1", g == 1, lambda: f"gcd(q, n) = {render_exact(g)}"),
        _flag("n odd", n % 2 == 1, f"n mod 2 = {n % 2}"),
        _flag("N > 10^1500", big_n > OCHEM_RAO_FLOOR,
              lambda: f"N has {digit_count(big_n)} digits; needs more than 1500"),
    ]
    *bounds, residual = factored
    if k > 1:
        order = _flag("q < n for k > 1", q < n,
                      lambda: f"k = {k}, q = {render_exact(q)}, n = {render_exact(n)}")
    else:
        order = Check("q < n for k > 1", CheckStatus.PASS, "k = 1, not applicable")
    return ConstraintReport(tuple(checks + bounds + [order, residual]))


# Every prime factor of an unfactored cofactor m is at least 2^16 + 1, so m
# has at most t = (bit_length(m) - 1) // 16 of them and
# 1 < I(m^k) < (_GROWTH / 2^16)^t, which _side compares cross-multiplied.
_GROWTH = (1 << TRIAL_BITS) + 1


def _factored_checks(
    candidate: EulerianCandidate,
    known: Factorization,
    cofactor: int,
    cfg: PrecisionConfig,
) -> list[Check] | None:
    """The checks of _FACTORED_CHECKS, in order, for q = known.value() *
    cofactor, the cofactor being 1 or unfactored with every prime factor above
    2^16; None when a bound cannot decide one of them.

    With gcd(cofactor, n) = 1, N = rest * cofactor^k where rest = known^k * n^2
    is fully factored, so omega(N), I(q^k) and I(N) lie in exact ranges set by
    rest and t (_side compares them cross-multiplied: no Fraction over N), and
    the least prime of N is that of rest if below 2^16 + 1. A cofactor of 1
    has t = 0: each range is then one exact value, and the witnesses show it.
    A cofactor above 1 is proven by the first read of the omega(N), I(q^k)
    or sigma(N) witness: if prime, q is factored and they show the exact
    values as for a cofactor of 1, else the ranges.
    """
    euler_part = known**candidate.k
    rest = euler_part * candidate.n**2
    # None when the cofactor shares a prime with n or may hold N's least prime
    if cofactor > 1 and (gcd(cofactor, candidate.root) != 1 or not rest.factors
                         or rest.least_prime() > 1 << TRIAL_BITS):
        return None
    t = (cofactor.bit_length() - 1) // TRIAL_BITS
    least, most = omega(rest) + (cofactor > 1), omega(rest) + t
    if least == most:
        omega_witness = f"omega(N) = {least}"
    elif least >= NIELSEN_MIN_OMEGA:
        omega_witness = f"omega(N) >= {least}"
    elif most < NIELSEN_MIN_OMEGA:
        omega_witness = f"omega(N) <= {most}"
    else:
        return None
    euler_value, sigma_euler = euler_part.value(), sigma(euler_part)
    rest_value, sigma_rest = rest.value(), sigma(rest)
    euler_side = _side(sigma_euler, euler_value, t, 5, 4)
    residual_side = _side(sigma_rest, rest_value, t, 2, 1)
    if euler_side is None or residual_side is None:
        return None
    euler_witness = partial(_euler_text, sigma_euler, euler_value)
    residual_witness = partial(_residual_text, sigma_rest, rest_value, residual_side)
    if cofactor > 1:  # built only here, as the closures a report keeps cost memory
        prime = cache(partial(is_prime, cofactor))  # the first witness read proves the cofactor
        unfactored = lambda: f"(cofactor {render_short(cofactor)} unfactored, primes > 2^16)"

        def exact(sigma_part: int, part: int) -> tuple[int, int]:
            # sigma and value of part * cofactor^k, for a prime cofactor
            power = cofactor**candidate.k
            return sigma_part * ((power * cofactor - 1) // (cofactor - 1)), part * power

        omega_witness = lambda ranged=omega_witness: f"omega(N) = {least}" if prime() else ranged
        euler_witness = lambda: (_euler_text(*exact(sigma_euler, euler_value)) if prime() else
                                 f"I(q^k) {euler_side} 5/4 {unfactored()}")
        residual_witness = lambda: (_residual_text(*exact(sigma_rest, rest_value), residual_side) if prime()
                                    else f"sigma(N) != 2N: I(N) {residual_side} 2 {unfactored()}")
    omega_name, euler_name, _, residual_name = _FACTORED_CHECKS
    return [
        _flag(omega_name, least >= NIELSEN_MIN_OMEGA, omega_witness),
        _flag(euler_name, euler_side == "<", euler_witness),
        _index_bound_check(candidate, rest.least_prime(), cfg),
        _flag(residual_name, residual_side == "=", residual_witness),
    ]


def _euler_text(sigma_euler: int, euler_value: int) -> str:
    return f"I(q^k) = {render_exact(Fraction(sigma_euler, euler_value))}"


def _residual_text(sigma_n: int, n_value: int, side: str) -> str:
    """The sigma(N) = 2N witness from sigma(N) and N; side is I(N)'s against 2."""
    if n_value < 10**30:
        shown = f"sigma(N)/N = {sigma_n}/{n_value}"
        if gcd(sigma_n, n_value) != 1:  # only if it actually reduces
            shown += f" = {Fraction(sigma_n, n_value)}"
        return shown
    return "sigma(N) = 2N" if side == "=" else f"sigma(N) != 2N (N has {digit_count(n_value)} digits)"


def _side(num: int, den: int, t: int, tn: int, td: int) -> str | None:
    """'<', '=' or '>' as a value compares with tn/td: num/den when t = 0, else
    strictly between num/den and num/den * (_GROWTH / 2^16)^t; None when that
    open range straddles tn/td. Decided cross-multiplied, for den, td > 0."""
    lo, threshold = num * td, tn * den
    if t == 0:
        return "=" if lo == threshold else "<" if lo < threshold else ">"
    return "<" if lo * _GROWTH**t <= threshold << TRIAL_BITS * t else ">" if lo >= threshold else None


def _certify(
    value: Callable[[PrecisionConfig], IntervalReal],
    threshold: Callable[[int], IntervalReal | Fraction],
    passing: Comparison,
    cfg: PrecisionConfig,
) -> tuple[CheckStatus, IntervalReal]:
    """The one verdict rule of every escalated check in this module: value and
    threshold taken at each rung of cfg's ladder until they separate, then PASS
    on the passing side and FAIL on the other; UNDECIDED at the ceiling. Also
    returns value's enclosure at the last rung taken."""

    def verdict(pair: tuple[IntervalReal, IntervalReal | Fraction]) -> CheckStatus | None:
        side = pair[0].compare(pair[1])
        if side is Comparison.UNDECIDED:
            return None
        return CheckStatus.PASS if side is passing else CheckStatus.FAIL

    status, (enclosure, _) = escalate(
        lambda bits: (value(PrecisionConfig(bits, bits)), threshold(bits)), verdict, cfg
    )
    return status or CheckStatus.UNDECIDED, enclosure


def _index_bound_check(candidate: EulerianCandidate, u: int, cfg: PrecisionConfig) -> Check:
    name = _FACTORED_CHECKS[2]
    if u == 2:
        return Check(name, CheckStatus.FAIL, "N is even; the bound assumes odd N")
    root_index = abundancy_index(candidate.n)
    # bound < I(n) passes, bound > I(n) fails
    status, enclosure = _certify(partial(index_lower_bound, Fraction(8, 5), u),
                                 lambda bits: root_index, Comparison.LESS, cfg)
    return Check(name, status,
                 lambda: f"I(n) = {render_exact(root_index)} vs (8/5)^(1/x({u})) = {enclosure.render()}")


# ---------------------------------------------------------------------------
# order predicates between the Euler part and the root
# ---------------------------------------------------------------------------


class PremiseError(ValueError):
    """The abundancy premise I(q^k)^3 < 2 < I(n)^3 does not hold."""


@dataclass(frozen=True)
class OrderPredicates:
    """The three order statements (all exact):

    euler_lt_root:  q^k < n
    cross_lt:       sigma(q^k) * q^k < sigma(n) * n
                    (cross-multiplied form of sigma(q^k)/n < sigma(n)/q^k)
    sigma_lt:       sigma(q^k) < sigma(n)

    Under the premise, euler_lt_root implies both others and cross_lt implies
    sigma_lt. The converse sigma_lt -> euler_lt_root is only observed, never
    asserted.
    """

    euler_lt_root: bool
    cross_lt: bool
    sigma_lt: bool

    @property
    def implications_hold(self) -> bool:
        p1, p2, p3 = self.euler_lt_root, self.cross_lt, self.sigma_lt
        return (not p1 or p2) and (not p2 or p3)  # so p1 -> p3 as well

    @property
    def converse_observed(self) -> bool:
        return not self.sigma_lt or self.euler_lt_root


def order_predicates(candidate: EulerianCandidate) -> OrderPredicates:
    """Evaluate the order predicates for a candidate satisfying the premise.

    q must be prime (ValueError otherwise: the trial_factor split validate_eulerian
    reads decides it), and sigma gives sigma(q^k) and sigma(n). Raises PremiseError when
    I(q^k)^3 < 2 < I(n)^3 fails (checked exactly on integers, as sigma^3 against 2 * value^3)."""
    small, cofactor = candidate._q_split
    if cofactor != 1 or small.factors != ((candidate.q, 1),):
        raise ValueError(f"{render_short(candidate.q)} is not prime")
    euler = small ** candidate.k
    euler_part, sigma_euler = euler.value(), sigma(euler)
    n, sigma_root = candidate.root, sigma(candidate.n)
    if sigma_euler**3 >= 2 * euler_part**3:
        raise PremiseError(f"I(q^k)^3 = {Fraction(sigma_euler, euler_part) ** 3} >= 2")
    if sigma_root**3 <= 2 * n**3:
        raise PremiseError(f"I(n)^3 = {Fraction(sigma_root, n) ** 3} <= 2")
    return OrderPredicates(
        euler_lt_root=euler_part < n,
        cross_lt=sigma_euler * euler_part < sigma_root * n,
        sigma_lt=sigma_euler < sigma_root,
    )


# ---------------------------------------------------------------------------
# Euler-prime lower bound f(q, u) against the 1 + sqrt(3) ceiling
# ---------------------------------------------------------------------------


def _require_euler_prime(q: int) -> None:
    if not is_prime(q) or q % 4 != 1:
        raise ValueError(f"q must be a prime with q = 1 (mod 4), got {render_short(q)}")


def euler_sum_bound(q: int, u: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> IntervalReal:
    """Enclosure of f(q, u) = (q+1)/q + (2q/(q+1))**(1/x(u)): a lower bound
    for I(q) + I(n) when q is the Euler prime and u the least prime of N,
    evaluated once at cfg.initial_bits. The power is
    index_lower_bound(2q/(q+1), u, cfg) written out only because
    bench/test_bench.py requires opn to bind pow_interval."""
    _require_euler_prime(q)
    return pow_interval(Fraction(2 * q, q + 1), reciprocal_exponent(u, cfg), cfg.initial_bits) + Fraction(q + 1, q)


def euler_sum_bound_limit(u: int, cfg: PrecisionConfig = DEFAULT_PRECISION) -> IntervalReal:
    """The q -> infinity limit 1 + 2**(1/x(u)) of f(q, u): index_lower_bound(2, u) + 1."""
    return index_lower_bound(2, u, cfg) + 1


@lru_cache(maxsize=None)
def ceiling_interval(bits: int = DEFAULT_PRECISION.initial_bits) -> IntervalReal:
    """Enclosure of 1 + sqrt(3), the exact ceiling for sigma(q)/n + sigma(n)/q."""
    return sqrt_ratio(3, bits) + 1


@dataclass(frozen=True)
class CeilingScan(ConstraintReport):
    """ceiling_scan's report: its checks are its verdicts, the rows and then
    the limit. The minimum is shown beside them and decides nothing."""

    rows: tuple[Check, ...]  # one per q, ascending
    minimum: Check | None  # always PASS; None for an empty grid
    limit: Check  # the q -> infinity limit against the ceiling itself

    def to_dict(self) -> dict:
        return {**super().to_dict(), "minimum": self.minimum and self.minimum.to_dict()}


def ceiling_scan(
    q_limit: int,
    u: int,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    required_margin: Fraction = DEFAULT_MARGIN,
) -> CeilingScan:
    """Certify f(q, u) against 1 + sqrt(3) for every prime q = 1 (mod 4) with
    5 <= q <= q_limit.

    For u >= 5 each q must clear the ceiling by more than required_margin
    (this is the contradiction that forces q < n). For u = 3 each q must stay
    strictly below it (no contradiction is available there). The report ends
    with the q -> infinity limit, which is compared with the ceiling itself,
    and gives the scan minimum (the first q on a tie) beside its checks;
    UNDECIDED entries only appear after precision escalation up to
    cfg.max_bits. A negative required_margin is a ValueError.
    """
    if required_margin < 0:
        shown = render_exact(required_margin)
        raise ValueError(f"required margin must be at least 0, got {shown}")
    expect_greater = u >= 5
    # the side of ceiling + margin that passes; touching it decides nothing
    passing = Comparison.GREATER if expect_greater else Comparison.LESS
    margin, relation = (required_margin, ">") if expect_greater else (Fraction(0), "<")
    rows: list[Check] = []
    least = least_q = None  # ranked by unreduced lower ends, cross-multiplied as in interval._less
    for q in primes_up_to(q_limit):
        if q < 5 or q % 4 != 1:
            continue
        status, bound = _certify(partial(euler_sum_bound, q, u),
                                 lambda bits: ceiling_interval(bits) + margin, passing, cfg)
        # bound=bound binds this q's enclosure, where a closure would read the loop's last one
        witness = lambda bound=bound: (
            f"f = {bound.render()} vs ceiling = {ceiling_interval(bound.bits).render()}")
        rows.append(Check(f"f({q}, {u}) {relation} 1+sqrt(3)", status, witness))
        if least is None or bound._lo[0] * least._lo[1] < least._lo[0] * bound._lo[1]:
            least, least_q = bound, q
    minimum = least and Check("minimum over scan", CheckStatus.PASS,
                              lambda: f"q = {least_q}: f = {least.render()}")
    status, limit = _certify(partial(euler_sum_bound_limit, u), ceiling_interval, passing, cfg)
    limit_row = Check("limit as q grows", status, lambda: f"1 + 2^(1/x({u})) = {limit.render()}")
    return CeilingScan((*rows, limit_row), tuple(rows), minimum, limit_row)


# ---------------------------------------------------------------------------
# residual case classification of the Euler prime
# ---------------------------------------------------------------------------


class ResidualCase(Enum):
    CASE_Q5 = "CASE_Q5"
    CASE_5_MOD_12 = "CASE_5_MOD_12"
    CASE_1_MOD_12 = "CASE_1_MOD_12"


@dataclass(frozen=True)
class ResidualClassification:
    case: ResidualCase
    notes: str


def residual_case_classify(q: int) -> ResidualClassification:
    """Classify an Euler prime q = 1 (mod 4) by its residue mod 12.

    q = 5 is its own case: k = 1 is then necessary (Iannucci), which gives
    5 = q < n. Otherwise q = 5 (mod 12) forces 3 | (q+1)/2 | n^2 when k = 1,
    while q = 1 (mod 12) forces no divisibility of n by 3.
    """
    _require_euler_prime(q)
    half, label = render_exact((q + 1) // 2), " (q is a BPSW probable prime)" * bpsw_claim(q)
    if q == 5:
        return ResidualClassification(
            ResidualCase.CASE_Q5,
            "k = 1 is necessary for q = 5 (Iannucci), hence 5 = q < n; 3 = (q+1)/2 divides n^2",
        )
    if q % 12 == 5:
        return ResidualClassification(
            ResidualCase.CASE_5_MOD_12,
            f"q = 2 (mod 3), so 3 divides (q+1)/2 = {half}, hence 3 | n^2 when k = 1{label}",
        )
    return ResidualClassification(
        ResidualCase.CASE_1_MOD_12,
        f"(q+1)/2 = {half} is not divisible by 3; no divisibility of n by 3 is forced{label}",
    )
