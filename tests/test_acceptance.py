"""Acceptance suite: every criterion at full scale with its stated tolerance
and runtime budget, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import separation
from abundancy.arith import factorize, is_perfect, primes_up_to, sigma, sigma_oracle
from abundancy.cli import main as cli_main
from abundancy.index import (
    SandwichStatus,
    abundancy_index,
    prime_power_exponent,
    sandwich_check,
)
from abundancy.interval import Comparison, PrecisionConfig, escalate, sqrt_ratio
from abundancy.mersenne import even_perfect_from_exponent, mersenne_scan
from abundancy.opn import (
    CheckStatus,
    acquaah_konyagin_holds,
    ceiling_scan,
    euler_sum_bound,
    order_predicates,
)
from abundancy.report import reference_constants, sample_coprime_odd_pair, sample_odd_factorization, sample_surrogate

FIXED_256 = PrecisionConfig(256, 256)  # escalation disabled

KNOWN_MERSENNE_EXPONENTS = [
    2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
]


def _line(number: int, ok: bool, description: str) -> None:
    print(f"[criterion {number}] {description}: {'PASS' if ok else 'FAIL'}", flush=True)


def test_criterion_1_constant_reproduction():
    started = time.perf_counter()
    constants = reference_constants()
    elapsed = time.perf_counter() - started
    tight = all(entry.value.width < Fraction(1, 10**10) for entry in constants)
    matched = all(entry.match for entry in constants)
    ok = tight and matched and len(constants) == 5 and elapsed < 1.0
    _line(1, ok, f"constant reproduction (5 enclosures, {elapsed:.2f}s)")
    assert matched, [entry.label for entry in constants if not entry.match]
    assert tight
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_sandwich_suite():
    started = time.perf_counter()
    rng = random.Random(20240501)
    pairs = 10_000
    holds = violated = undecided = range_violations = 0
    for _ in range(pairs):
        fa, fb = sample_coprime_odd_pair(rng)
        result = sandwich_check(fa, fb, FIXED_256)
        if result.status is SandwichStatus.HOLDS:
            holds += 1
        elif result.status is SandwichStatus.VIOLATED:
            violated += 1
        else:
            undecided += 1
        for x in (result.x_a, result.x_b, result.x_ab):
            if not (x.lo > 1 and x.hi < 2):
                range_violations += 1
    elapsed = time.perf_counter() - started
    ok = (
        holds == pairs
        and violated == 0
        and undecided == 0
        and range_violations == 0
        and elapsed < 120.0
    )
    _line(
        2,
        ok,
        f"sandwich suite ({pairs} pairs, {holds} HOLDS, {violated} VIOLATED, "
        f"{undecided} UNDECIDED at 256b, 1<x<2 certified, {elapsed:.1f}s)",
    )
    assert violated == 0
    assert undecided == 0
    assert holds == pairs
    assert range_violations == 0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_3_monotonicity_grids():
    started = time.perf_counter()
    exponent_violations = 0
    exponent_cases = 0
    for r in (p for p in primes_up_to(1000) if p != 2):
        values = [prime_power_exponent(r, s).value for s in range(1, 21)]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                exponent_cases += 1
                if not values[i].lo > values[j].hi:
                    exponent_violations += 1
    chain = [p for p in primes_up_to(10**4) if p != 2]
    chain_values = [prime_power_exponent(p, 1).value for p in chain]
    chain_cases = chain_violations = 0
    for bigger, smaller in zip(chain_values, chain_values[1:]):
        chain_cases += 1
        if not smaller.hi < bigger.lo:
            chain_violations += 1
    elapsed = time.perf_counter() - started
    ok = exponent_violations == 0 and chain_violations == 0 and elapsed < 300.0
    _line(
        3,
        ok,
        f"monotonicity grids ({exponent_cases} exponent pairs, "
        f"{chain_cases} consecutive primes, {elapsed:.1f}s)",
    )
    assert exponent_violations == 0
    assert chain_violations == 0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_4_oracle_equivalence():
    started = time.perf_counter()
    mismatches = sum(
        1 for n in range(1, 10**5 + 1) if sigma(factorize(n)) != sigma_oracle(n)
    )
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    _line(4, ok, f"sigma oracle equivalence (1..1e5, {mismatches} mismatches, {elapsed:.1f}s)")
    assert mismatches == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_5_ceiling_scans():
    started = time.perf_counter()
    report5 = ceiling_scan(10**4, 5, required_margin=Fraction(1, 1000))
    per_q5 = report5.rows
    expected_grid = [q for q in primes_up_to(10**4) if q >= 5 and q % 4 == 1]
    failures5 = [c for c in per_q5 if c.status is not CheckStatus.PASS]

    minimum = report5.minimum
    min_is_at_5 = minimum.witness.startswith("q = 5:")
    f55 = euler_sum_bound(5, 5)
    min_near_derived = abs(f55.midpoint - Fraction("2.7418")) < Fraction(1, 1000)

    report3 = ceiling_scan(10**4, 3)
    per_q3 = report3.rows
    failures3 = [c for c in per_q3 if c.status is not CheckStatus.PASS]
    # the q -> infinity limit 1 + 2^(1/x(u)): above the ceiling for u = 5, below it for u = 3
    limits_hold = report5.limit.status is report3.limit.status is CheckStatus.PASS

    # f(q, u) is certified increasing along the full grid for both u
    increase_violations = 0
    for u in (3, 5):
        values = [euler_sum_bound(q, u) for q in expected_grid]
        for smaller, bigger in zip(values, values[1:]):
            if not smaller.hi < bigger.lo:
                increase_violations += 1
    elapsed = time.perf_counter() - started

    ok = (
        len(per_q5) == len(expected_grid)
        and not failures5
        and min_is_at_5
        and min_near_derived
        and not failures3
        and limits_hold
        and increase_violations == 0
    )
    _line(
        5,
        ok,
        f"ceiling scans ({len(per_q5)} primes: u=5 all clear margin>=1e-3, "
        f"u=3 zero contradictions, f increasing, {elapsed:.1f}s)",
    )
    assert len(per_q5) == len(expected_grid)
    assert not failures5, failures5[:3]
    assert min_is_at_5, minimum.witness
    assert min_near_derived, f55.render()
    assert not failures3, failures3[:3]
    assert limits_hold, (report5.limit, report3.limit)
    assert increase_violations == 0


def test_criterion_6_order_implications():
    started = time.perf_counter()
    rng = random.Random(775577)
    candidates = 10_000
    implication_failures = 0
    converse_held = 0
    for _ in range(candidates):
        predicates = order_predicates(sample_surrogate(rng))
        if not predicates.implications_hold:
            implication_failures += 1
        if predicates.converse_observed:
            converse_held += 1
    elapsed = time.perf_counter() - started
    ok = implication_failures == 0
    _line(
        6,
        ok,
        f"order implications ({candidates} surrogates, {implication_failures} "
        f"exceptions; converse observed {converse_held}/{candidates}, {elapsed:.1f}s)",
    )
    assert implication_failures == 0


def test_criterion_7_even_perfect_suite():
    started = time.perf_counter()
    sympy = pytest.importorskip("sympy")
    scan = mersenne_scan(2500)
    listing_ok = scan == KNOWN_MERSENNE_EXPONENTS
    oracle_ok = all(sympy.isprime(2**p - 1) for p in scan)
    misses = [p for p in primes_up_to(2500) if p not in scan]
    oracle_misses_ok = all(not sympy.isprime(2**p - 1) for p in misses)
    perfect_ok = all(is_perfect(even_perfect_from_exponent(p).perfect) for p in scan)
    elapsed = time.perf_counter() - started
    ok = listing_ok and oracle_ok and oracle_misses_ok and perfect_ok and elapsed < 120.0
    _line(
        7,
        ok,
        f"even-perfect suite ({len(scan)} exponents, oracle-confirmed, "
        f"{len(misses)} rejections confirmed composite, {elapsed:.1f}s)",
    )
    assert listing_ok, scan
    assert oracle_ok
    assert oracle_misses_ok
    assert perfect_ok
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_8_exactness_spot_checks():
    started = time.perf_counter()
    rng = random.Random(808)
    disagreements = 0
    for _ in range(1000):
        q = rng.randrange(1, 10**6)
        n = rng.randrange(1, 10**6)
        verdict, _ = escalate(lambda bits: sqrt_ratio(3 * n * n, bits), separation(q))
        enclosure_says_less = verdict is Comparison.GREATER  # q below sqrt(3 n^2)
        if acquaah_konyagin_holds(q, n) != enclosure_says_less:
            disagreements += 1

    growth_violations = 0
    corpus = 10_000
    for _ in range(corpus):
        f = sample_odd_factorization(rng)
        index = abundancy_index(f)
        squared = abundancy_index(f**2)
        if not (index < squared < index**2):
            growth_violations += 1
    elapsed = time.perf_counter() - started
    ok = disagreements == 0 and growth_violations == 0
    _line(
        8,
        ok,
        f"exactness spot checks (1000 sqrt(3) comparisons, {corpus} index-growth "
        f"chains, {elapsed:.1f}s)",
    )
    assert disagreements == 0
    assert growth_violations == 0


def test_criterion_9_report_determinism(capsys):
    started = time.perf_counter()
    argv = ["report", "--seed", "42", "--json"]
    code_first = cli_main(list(argv))
    first = capsys.readouterr().out
    code_second = cli_main(list(argv))
    second = capsys.readouterr().out
    elapsed = time.perf_counter() - started
    ok = first == second and first and code_first == code_second == 0
    _line(9, ok, f"report determinism (seed 42 twice, byte-identical, {elapsed:.1f}s)")
    assert code_first == 0
    assert code_second == 0
    assert first == second
    # the seed-42 document is pinned: refactors must keep it byte-identical
    golden = (Path(__file__).parent / "data" / "report-seed42.json").read_text()
    assert first == golden
