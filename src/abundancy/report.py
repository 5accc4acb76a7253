"""Reproduction report: one call re-derives every reference constant and
re-runs every certified suite, producing a deterministic document suitable
for regression testing.

Given the same seed and precision configuration, two runs produce
byte-identical JSON: nothing time- or platform-dependent is recorded.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from .arith import Factorization, factorize, primes_up_to, sigma, sigma_oracle
from .index import (
    SandwichStatus,
    abundancy_index,
    index_lower_bound,
    prime_power_exponent,
    sandwich_check,
)
from .interval import (
    DEFAULT_PRECISION,
    Comparison,
    IntervalReal,
    PrecisionConfig,
)
from .mersenne import mersenne_scan
from .opn import (
    CheckStatus,
    EulerianCandidate,
    ceiling_interval,
    ceiling_scan,
    euler_sum_bound_limit,
    order_predicates,
)

__all__ = [
    "ConstantEntry",
    "ReportSizes",
    "ReproductionReport",
    "SuiteSummary",
    "reference_constants",
    "run_report",
    "sample_coprime_odd_pair",
    "sample_odd_factorization",
    "sample_surrogate",
]

@dataclass(frozen=True)
class ConstantEntry:
    label: str
    value: IntervalReal
    reference: str
    match: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "enclosure": self.value.render(),
            "reference": self.reference,
            "match": self.match,
        }


@dataclass(frozen=True)
class SuiteSummary:
    name: str
    cases: int
    failures: int
    undecided: int
    detail: str = ""


@dataclass(frozen=True)
class ReportSizes:
    """Suite sizes for the default regression document (smoke scale; the
    acceptance tests re-run the suites at full scale)."""

    oracle_limit: int = 10_000
    sandwich_pairs: int = 1_000
    grid_prime_limit: int = 100
    grid_exponent_max: int = 10
    chain_prime_limit: int = 1_000
    order_candidates: int = 2_000
    scan_limit: int = 10_000
    mersenne_limit: int = 2_500

    def __post_init__(self) -> None:
        for name, size in asdict(self).items():
            if size < 0:
                raise ValueError(f"report size {name} must not be negative, got {size}")


@dataclass(frozen=True)
class ReproductionReport:
    constants: tuple[ConstantEntry, ...]
    suites: tuple[SuiteSummary, ...]
    environment: dict

    @property
    def clean(self) -> bool:
        return all(c.match for c in self.constants) and all(
            s.failures == 0 and s.undecided == 0 for s in self.suites
        )

    def to_dict(self) -> dict:
        return {
            "constants": [c.to_dict() for c in self.constants],
            "suites": [asdict(s) for s in self.suites],
            "environment": self.environment,
        }

    def render(self) -> str:
        lines = ["reference constants:"]
        for c in self.constants:
            mark = "MATCH" if c.match else "MISMATCH"
            lines.append(f"  {c.label} = {c.value.render()}  [{c.reference}: {mark}]")
        lines.append("suites:")
        for s in self.suites:
            tail = f"  ({s.detail})" if s.detail else ""
            lines.append(
                f"  {s.name}: {s.cases} cases, {s.failures} failures, "
                f"{s.undecided} undecided{tail}"
            )
        lines.append("environment:")
        for key in sorted(self.environment):
            lines.append(f"  {key} = {self.environment[key]}")
        return "\n".join(lines)


def _reference_window(text: str) -> IntervalReal:
    """The printed decimal read as an interval of one unit in its last digit."""
    value = Fraction(text)
    places = len(text.partition(".")[2])
    ulp = Fraction(1, 10**places)
    return IntervalReal(value - ulp, value + ulp, DEFAULT_PRECISION.initial_bits)


def reference_constants(bits: int = DEFAULT_PRECISION.initial_bits) -> tuple[ConstantEntry, ...]:
    """Re-derive the five reference constants as certified enclosures, each
    checked against the decimal it is known by."""
    table = (
        ("(8/5)^(ln(4/3)/ln(13/9))", "1.44440557", index_lower_bound(Fraction(8, 5), 3, bits)),
        ("ln(13/9)/ln(4/3)", "1.27823", prime_power_exponent(3, 1, bits).value),
        ("1+2^(ln(6/5)/ln(31/25))", "2.799", euler_sum_bound_limit(5, bits)),
        ("1+sqrt(3)", "2.732", ceiling_interval(bits)),
        ("1+2^(ln(4/3)/ln(13/9))", "2.7199", euler_sum_bound_limit(3, bits)),
    )
    return tuple(ConstantEntry(label, value, reference, value.overlaps(_reference_window(reference)))
                 for label, reference, value in table)


# ---------------------------------------------------------------------------
# corpus sampling: what each suite draws (deterministic given the caller's rng)
# ---------------------------------------------------------------------------

_CORPUS_PRIMES = tuple(p for p in primes_up_to(100) if p % 2 == 1)
_SURROGATE_Q_POOL = tuple(p for p in primes_up_to(5000) if p % 4 == 1)


def sample_odd_factorization(rng: random.Random, exclude: tuple[int, ...] = ()) -> Factorization:
    """Random odd integer in (1, 10^6] in factored form: up to 5 distinct odd
    primes below 100 (sieved, so not proven again) with exponents up to 4,
    rejected until the value fits."""
    pool = [p for p in _CORPUS_PRIMES if p not in exclude]
    while True:
        count = rng.randint(1, min(5, len(pool)))
        chosen = sorted(rng.sample(pool, count))
        f = Factorization._derived(tuple((p, rng.randint(1, 4)) for p in chosen))
        if f.value() <= 10**6:  # at least one odd prime, so above 1
            return f


def sample_coprime_odd_pair(rng: random.Random) -> tuple[Factorization, Factorization]:
    """Coprime odd pair with disjoint prime supports (coprimality by draw)."""
    fa = sample_odd_factorization(rng)
    fb = sample_odd_factorization(rng, exclude=fa.primes())
    return fa, fb


def sample_surrogate(rng: random.Random) -> EulerianCandidate:
    """Random premise-satisfying candidate: q prime = 1 (mod 4), k = 1 (mod 4),
    n odd and coprime to q with I(n)^3 > 2 (the I(q^k)^3 < 2 side holds for
    every q >= 5 since I(q^k) < q/(q-1) <= 5/4)."""
    while True:
        q = rng.choice(_SURROGATE_Q_POOL)
        k = rng.choice((1, 1, 1, 5, 9))
        n = sample_odd_factorization(rng, exclude=(q,))
        if abundancy_index(n) ** 3 > 2:
            return EulerianCandidate(q, k, n)


def _suite_rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _oracle_suite(sizes: ReportSizes) -> SuiteSummary:
    failures = 0
    for n in range(1, sizes.oracle_limit + 1):
        if sigma(factorize(n)) != sigma_oracle(n):
            failures += 1
    return SuiteSummary("sigma oracle equivalence", sizes.oracle_limit, failures, 0)


def _sandwich_suite(seed: int, sizes: ReportSizes, cfg: PrecisionConfig) -> SuiteSummary:
    rng = _suite_rng(seed, "sandwich")
    violated = undecided = 0
    for _ in range(sizes.sandwich_pairs):
        fa, fb = sample_coprime_odd_pair(rng)
        result = sandwich_check(fa, fb, cfg)
        if result.status is SandwichStatus.VIOLATED:
            violated += 1
        elif result.status is SandwichStatus.UNDECIDED:
            undecided += 1
    return SuiteSummary("sandwich corpus", sizes.sandwich_pairs, violated, undecided)


def _monotonicity_suite(sizes: ReportSizes, bits: int) -> SuiteSummary:
    """x(r^s) must decrease in s for each odd prime r, and x(p) along the odd
    primes: a certified increase is a failure, touching enclosures undecided."""

    def x(r: int, s: int) -> IntervalReal:
        return prime_power_exponent(r, s, bits).value

    pairs: list[tuple[IntervalReal, IntervalReal]] = []
    for r in primes_up_to(sizes.grid_prime_limit):
        if r != 2:
            grid = [x(r, s) for s in range(1, sizes.grid_exponent_max + 1)]
            pairs += zip(grid, grid[1:])
    chain = [x(p, 1) for p in primes_up_to(sizes.chain_prime_limit) if p != 2]
    pairs += zip(chain, chain[1:])
    verdicts = [later.compare(earlier) for earlier, later in pairs]
    return SuiteSummary(
        "monotonicity grids",
        len(verdicts),
        verdicts.count(Comparison.GREATER),
        verdicts.count(Comparison.UNDECIDED),
    )


def _order_suite(seed: int, sizes: ReportSizes) -> SuiteSummary:
    rng = _suite_rng(seed, "order")
    failures = converse_held = 0
    for _ in range(sizes.order_candidates):
        predicates = order_predicates(sample_surrogate(rng))
        if not predicates.implications_hold:
            failures += 1
        if predicates.converse_observed:
            converse_held += 1
    detail = f"converse observed in {converse_held}/{sizes.order_candidates}"
    return SuiteSummary("order implications", sizes.order_candidates, failures, 0, detail)


def _scan_suite(u: int, sizes: ReportSizes, cfg: PrecisionConfig) -> SuiteSummary:
    report = ceiling_scan(sizes.scan_limit, u, cfg)
    statuses = [c.status for c in report.checks]
    minimum = report.minimum.witness if report.minimum else ""
    return SuiteSummary(f"ceiling scan u={u}", len(statuses), statuses.count(CheckStatus.FAIL),
                        statuses.count(CheckStatus.UNDECIDED), minimum)


def _mersenne_suite(sizes: ReportSizes) -> SuiteSummary:
    # each proven exponent gives an even perfect number by Euclid's theorem;
    # like the other sizes, a limit of 0 (or 1) makes the suite empty
    exponents = mersenne_scan(sizes.mersenne_limit) if sizes.mersenne_limit >= 2 else []
    detail = "p = " + ",".join(str(p) for p in exponents)
    return SuiteSummary("mersenne scan", len(exponents), 0, 0, detail)


def run_report(
    seed: int = 42,
    cfg: PrecisionConfig = DEFAULT_PRECISION,
    sizes: ReportSizes = ReportSizes(),
) -> ReproductionReport:
    """Build the full reproduction document. Deterministic in (seed, cfg, sizes)."""
    constants = reference_constants(cfg.initial_bits)
    suites = (
        _oracle_suite(sizes),
        _sandwich_suite(seed, sizes, cfg),
        _monotonicity_suite(sizes, cfg.initial_bits),
        _order_suite(seed, sizes),
        _scan_suite(5, sizes, cfg),
        _scan_suite(3, sizes, cfg),
        _mersenne_suite(sizes),
    )
    environment = {
        "seed": seed,
        "initial_bits": cfg.initial_bits,
        "max_bits": cfg.max_bits,
        **asdict(sizes),
    }
    return ReproductionReport(constants, suites, environment)
