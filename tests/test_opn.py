import copy
import dataclasses
import itertools
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import BIG_PRIME, assert_consistent, separation
from abundancy import arith, index, interval, opn
from abundancy.arith import Factorization, factorize, is_prime, primes_up_to, trial_factor
from abundancy.index import index_lower_bound, reciprocal_exponent
from abundancy.interval import DEFAULT_PRECISION, Comparison, IntervalReal, PrecisionConfig, escalate, pow_interval
from abundancy.opn import (
    Check,
    CheckStatus,
    EulerianCandidate,
    OrderPredicates,
    PremiseError,
    ResidualCase,
    acquaah_konyagin_holds,
    ceiling_interval,
    ceiling_scan,
    euler_sum_bound,
    euler_sum_bound_limit,
    order_predicates,
    residual_case_classify,
    validate_eulerian,
)
from abundancy.interval import sqrt_ratio
from abundancy.report import sample_surrogate


def candidate(q, k, n):
    return EulerianCandidate(q, k, factorize(n))


# ---------------------------------------------------------------------------
# candidate model
# ---------------------------------------------------------------------------


def test_candidate_reconstruction():
    c = candidate(5, 1, 3)
    assert c.value == 45
    assert c.euler_part == 5
    assert c.root == 3
    # N = 3^2 * 5: the index bound is taken at the least prime, 3
    bound = next(ch for ch in validate_eulerian(c).checks if ch.name == "I(n) > index lower bound")
    assert "(8/5)^(1/x(3))" in bound.witness


def test_candidate_parse_round_trip():
    c = EulerianCandidate.parse("q=5 k=1 n=3^2")
    assert (c.q, c.k, c.root) == (5, 1, 9)
    assert str(c) == "q=5 k=1 n=3^2"
    assert EulerianCandidate.parse("q=13 k=1 n=9").root == 9
    with pytest.raises(ValueError):
        EulerianCandidate.parse("q=5 k=1")
    with pytest.raises(ValueError):
        EulerianCandidate.parse("5 1 9")


def test_candidate_parse_rejects_duplicate_key():
    with pytest.raises(ValueError, match="duplicate key 'q'"):
        EulerianCandidate.parse("q=5 k=1 n=3^2 q=13")


def test_candidate_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key 'm'"):
        EulerianCandidate.parse("q=5 k=1 n=3^2 m=7")


def test_candidate_syntax_validation():
    with pytest.raises(ValueError):
        EulerianCandidate(1, 1, factorize(3))
    with pytest.raises(ValueError):
        EulerianCandidate(5, 0, factorize(3))


@pytest.mark.parametrize("n", [9, "3^2", ((3, 2),)], ids=["int", "str", "tuple"])
def test_candidate_refuses_an_n_that_is_not_a_factorization(n):
    # every check reads n as a factored form, so anything else is refused at construction
    with pytest.raises(TypeError, match=f"n must be a Factorization, got {type(n).__name__}"):
        EulerianCandidate(5, 1, n)


@pytest.mark.parametrize("number", [5.0, Fraction(5)], ids=["float", "Fraction"])
@pytest.mark.parametrize("call", [
    factorize, trial_factor, arith.is_perfect, arith.digit_count, primes_up_to,
    lambda m: ceiling_scan(m, 5),
    lambda m: EulerianCandidate(m, 1, factorize(9)),
    lambda m: EulerianCandidate(13, m, factorize(9)),
    lambda m: acquaah_konyagin_holds(m, 3),
    lambda m: acquaah_konyagin_holds(13, m),
], ids=["factorize", "trial_factor", "is_perfect", "digit_count", "primes_up_to", "ceiling_scan",
        "candidate_q", "candidate_k", "acquaah_konyagin_q", "acquaah_konyagin_n"])
def test_integer_arguments_are_read_through_operator_index(call, number):
    # a number equal to 5 is not the integer 5: no integer rule is computed on it in floats or Fractions
    with pytest.raises(TypeError, match=f"^'{type(number).__name__}' object cannot be interpreted as an integer$"):
        call(number)


def test_candidate_conjecture_flag():
    assert candidate(5, 1, 3).descartes_frenicle_sorli
    assert not candidate(5, 5, 3).descartes_frenicle_sorli


# ---------------------------------------------------------------------------
# validate_eulerian
# ---------------------------------------------------------------------------


def test_validate_small_candidate():
    report = validate_eulerian(candidate(5, 1, 3))
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))  # every check exactly once
    assert report.status_of("q prime") is CheckStatus.PASS
    assert report.status_of("q = 1 (mod 4)") is CheckStatus.PASS
    assert report.status_of("N > 10^1500") is CheckStatus.FAIL
    assert report.status_of("omega(N) >= 10") is CheckStatus.FAIL
    with pytest.raises(KeyError, match="no such check"):
        report.status_of("no such check")
    residual = next(c for c in report.checks if c.name == "sigma(N) = 2N")
    assert residual.status is CheckStatus.FAIL
    assert "78/45" in residual.witness and "26/15" in residual.witness


def test_validate_form_checks_pass():
    report = validate_eulerian(candidate(13, 1, 9))
    for name in ("q prime", "q = 1 (mod 4)", "k = 1 (mod 4)", "gcd(q, n) = 1", "n odd"):
        assert report.status_of(name) is CheckStatus.PASS
    assert report.status_of("N > 10^1500") is CheckStatus.FAIL
    assert report.status_of("omega(N) >= 10") is CheckStatus.FAIL
    # I(9) = 13/9 > 1.44440557..., decided exactly against the enclosure
    assert report.status_of("I(n) > index lower bound") is CheckStatus.PASS
    assert report.status_of("I(q^k) < 5/4") is CheckStatus.PASS


def test_validate_k_residue_failure():
    report = validate_eulerian(candidate(5, 2, 3))
    assert report.status_of("k = 1 (mod 4)") is CheckStatus.FAIL


def test_validate_k_gt_one_estimate_flag():
    # k > 1 and q >= n violates the q < n estimate
    report = validate_eulerian(candidate(13, 5, 9))
    assert report.status_of("q < n for k > 1") is CheckStatus.FAIL
    report = validate_eulerian(candidate(5, 5, 9))
    assert report.status_of("q < n for k > 1") is CheckStatus.PASS


def test_validate_nonprime_and_even_candidates():
    report = validate_eulerian(candidate(9, 1, 5))
    assert report.status_of("q prime") is CheckStatus.FAIL
    report = validate_eulerian(candidate(5, 1, 6))
    assert report.status_of("n odd") is CheckStatus.FAIL
    assert report.status_of("I(n) > index lower bound") is CheckStatus.FAIL


def test_validate_certifies_q_prime_with_one_is_prime_call(monkeypatch):
    q = 10**300 + 4533  # prime
    calls = []

    def counted(n, real=arith.is_prime):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(opn, "is_prime", counted)
    report = validate_eulerian(EulerianCandidate(q, 1, Factorization(((3, 2),))))
    assert report.status_of("q prime") is CheckStatus.PASS
    assert calls.count(q) == 1


def test_validate_and_order_predicates_prove_q_once_between_them(monkeypatch):
    # the candidate keeps q's trial_factor split, which order_predicates reads
    # in place of proving q again; the split is not a field, so the candidate
    # still equals and hashes as a fresh one
    q = 10**30 + 57  # prime, above the range the small-prime rules prove
    calls = []

    def counted(n, real=arith.is_prime):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(opn, "is_prime", counted)
    c = EulerianCandidate(q, 1, Factorization(((3, 2),)))
    assert validate_eulerian(c).status_of("q prime") is CheckStatus.PASS
    assert order_predicates(c) == OrderPredicates(euler_lt_root=False, cross_lt=False, sigma_lt=False)
    assert calls.count(q) == 1
    fresh = EulerianCandidate(q, 1, Factorization(((3, 2),)))
    assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)


def test_validate_with_a_log_not_separated_from_zero_is_certified():
    # an absolute 256-bit ln I(BIG_PRIME) would not be above zero; at relative
    # precision 1/x(BIG_PRIME) is close to 1 at 256 bits, under a 256-bit
    # ceiling too, so the bound is (8/5)^(1/x) ~ 8/5 and I(1) = 1 is below it
    report = validate_eulerian(EulerianCandidate(BIG_PRIME, 1, Factorization(())), PrecisionConfig(256, 256))
    check = next(c for c in report.checks if c.name == "I(n) > index lower bound")
    assert check.status is CheckStatus.FAIL
    assert check.witness.endswith(" = 1.600000000 ± 2e-86 @256b")


def test_certify_truth_table():
    # a constant enclosure against the threshold 0 at every rung of 64..256 bits
    def certify(lo, hi, passing):
        return opn._certify(
            lambda cfg: IntervalReal(Fraction(lo), Fraction(hi), cfg.initial_bits),
            lambda bits: Fraction(0),
            passing,
            PrecisionConfig(64, 256),
        )

    less, greater = Comparison.LESS, Comparison.GREATER
    below, above, touching = (-2, -1), (1, 2), (-1, 1)
    assert certify(*below, less) == (CheckStatus.PASS, IntervalReal(Fraction(-2), Fraction(-1), 64))
    assert certify(*above, less)[0] is CheckStatus.FAIL
    assert certify(*above, greater)[0] is CheckStatus.PASS
    assert certify(*below, greater)[0] is CheckStatus.FAIL
    # touching or overlapping enclosures decide nothing on either passing side,
    # so only the ceiling rung answers, UNDECIDED
    for passing in (less, greater):
        status, enclosure = certify(*touching, passing)
        assert status is CheckStatus.UNDECIDED and enclosure.bits == 256


def test_certify_climbs_until_value_and_threshold_separate():
    # 1/1000 within 2^-(bits/16) of it, against 0: separated only at 256 bits
    def value(cfg):
        radius = Fraction(1, 2 ** (cfg.initial_bits // 16))
        return IntervalReal(Fraction(1, 1000) - radius, Fraction(1, 1000) + radius, cfg.initial_bits)

    thresholds = []
    status, enclosure = opn._certify(
        value, lambda bits: thresholds.append(bits) or Fraction(0), Comparison.GREATER, PrecisionConfig(64, 1024)
    )
    assert status is CheckStatus.PASS and enclosure == value(PrecisionConfig(256, 256))
    assert thresholds == [64, 128, 256]


def test_validate_q_past_the_str_digit_limit_is_reported():
    # q = 10^4400 has more digits than Python converts to str; the witnesses
    # render it, so the report comes back instead of a ValueError
    huge = EulerianCandidate(10**4400, 5, Factorization(((3, 2),)))
    report = validate_eulerian(huge)
    assert report.status_of("q prime") is CheckStatus.FAIL
    assert report.status_of("q < n for k > 1") is CheckStatus.FAIL
    shown = "10000000000000000000...00000000000000000000 (4401 digits)"
    assert {c.witness for c in report.checks} >= {f"q = {shown}", f"k = 5, q = {shown}, n = 9"}
    assert str(huge) == f"q={shown} k=5 n=3^2"


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


_SMALL_PRIMES = primes_up_to(2**16)
# q from primes below 2^16 and primes in (2^16, 2^40), which rho splits fast
_LARGE_PRIMES = st.integers(17, 40).flatmap(lambda b: st.integers(2 ** (b - 1) + 1, 2**b - 30)).map(_next_prime)


def _factors(draw, primes, exponents, counts):
    """{prime: exponent} with a number of distinct primes drawn from counts."""
    count = draw(counts)
    chosen = draw(st.lists(primes, min_size=count, max_size=count, unique=True))
    return {p: draw(exponents) for p in chosen}


@st.composite
def split_candidates(draw):
    """(candidate, factorization of q): q from up to three primes below 2^16
    and up to three above, n from up to ten odd primes below 100, now and
    then with 2 or one of q's large primes."""
    small = _factors(draw, st.sampled_from(_SMALL_PRIMES[:12]) | st.sampled_from(_SMALL_PRIMES),
                     st.integers(1, 6), st.sampled_from((0, 1, 2, 3)))
    large = _factors(draw, _LARGE_PRIMES, st.integers(1, 2), st.sampled_from((0, 1, 2, 2, 3)))
    q_f = Factorization(tuple(sorted({**small, **large}.items())))
    if q_f.value() < 2:
        q_f = Factorization(((3, 1),))
    n_factors = _factors(draw, st.sampled_from(primes_up_to(100)[1:]), st.integers(1, 3), st.integers(0, 10))
    if draw(st.integers(0, 9)) == 0:
        n_factors[2] = 1
    if large and draw(st.integers(0, 9)) == 0:
        n_factors[min(large)] = 1
    n = Factorization(tuple(sorted(n_factors.items())))
    return EulerianCandidate(q_f.value(), draw(st.integers(1, 9)), n), q_f


def _decline_examples():
    """Candidates whose cofactor no bound can decide: it shares a prime with
    n; n = 1 leaves N's least prime unknown; omega(rest) = 8 with room for
    two more primes; I(5^5) = 1.24992 times (65537/65536)^5 straddles 5/4."""
    p, r, big = 65537, 65539, _next_prime(2**64)
    seven = Factorization.parse("5*7*11*13*17*19*23")
    return [
        (EulerianCandidate(3 * p * r, 1, Factorization(((p, 1),))), Factorization(((3, 1), (p, 1), (r, 1)))),
        (EulerianCandidate(p * r, 1, Factorization(())), Factorization(((p, 1), (r, 1)))),
        (EulerianCandidate(3 * p * r, 1, seven), Factorization(((3, 1), (p, 1), (r, 1)))),
        (EulerianCandidate(5 * p * big, 5, factorize(9)), Factorization(((5, 1), (p, 1), (big, 1)))),
    ]


def _factored_part(report):
    return [c for c in report.checks if c.name in opn._FACTORED_CHECKS]


# q's cofactor 103414619171 * 137438953481^2: rho must not walk to the
# repeated prime twice, or its budget runs out and four checks are UNDECIDED
_REPEATED_PRIME_COFACTOR = (
    EulerianCandidate(768138307097537117063989261017943239282, 1, Factorization.parse("2*65537")),
    Factorization.parse("2*3*65537*103414619171*137438953481^2"),
)


@settings(max_examples=60, deadline=None)
@given(split_candidates())
@example(_REPEATED_PRIME_COFACTOR)
def test_bounded_checks_agree_with_the_full_factorization(case):
    candidate, q_factors = case
    expected = opn._factored_checks(candidate, q_factors, 1, DEFAULT_PRECISION)
    small, cofactor = trial_factor(candidate.q)
    bounded = opn._factored_checks(candidate, small, cofactor, DEFAULT_PRECISION)
    got = _factored_part(validate_eulerian(candidate))
    order = [opn._FACTORED_CHECKS.index(c.name) for c in got]  # the report puts sigma last
    exact = cofactor == 1 or is_prime(cofactor)  # q factored once its leftover is proven
    if exact and bounded is not None:
        assert bounded == expected  # the exact case, its witnesses proving a prime cofactor
    if bounded is None or exact:
        assert got == [expected[i] for i in order]  # the rho path, checks and witnesses
    else:
        assert got == [bounded[i] for i in order]
        assert [c.status for c in bounded] == [c.status for c in expected]
        assert all(len(c.witness) < 200 for c in bounded)


@pytest.mark.parametrize("case", _decline_examples())
def test_bounded_checks_decline_and_fall_back_to_rho(case):
    candidate, q_factors = case
    small, cofactor = trial_factor(candidate.q)
    assert cofactor > 1
    assert opn._factored_checks(candidate, small, cofactor, DEFAULT_PRECISION) is None
    expected = opn._factored_checks(candidate, q_factors, 1, DEFAULT_PRECISION)
    got = _factored_part(validate_eulerian(candidate))
    assert sorted(got, key=lambda c: c.name) == sorted(expected, key=lambda c: c.name)


# q's cofactor shares a prime with n, so no bound decides; each of these used
# to end with four UNDECIDED checks once rho's one budget ran out on what the
# shared prime left
_SHARED_PRIME_EXAMPLES = [
    ((2, 137438953481, 146364636083, 274877906951), (2, 137438953481)),
    ((64927166597, 549755813911, 688341721679), (64927166597,)),
    ((2, 7208677459, 274877906951, 549755813911), (2, 7208677459)),
    ((2, 36396289499, 84121526927, 274877906951), (2, 36396289499)),
]


def test_the_rho_path_takes_the_primes_q_shares_with_n_first(monkeypatch):
    for q_primes, n_primes in _SHARED_PRIME_EXAMPLES:
        q_factors = Factorization(tuple((p, 1) for p in q_primes))
        candidate = EulerianCandidate(q_factors.value(), 1, Factorization(tuple((p, 1) for p in n_primes)))
        expected = opn._factored_checks(candidate, q_factors, 1, DEFAULT_PRECISION)
        got = _factored_part(validate_eulerian(candidate))
        assert sorted(got, key=lambda c: c.name) == sorted(expected, key=lambda c: c.name), q_primes
    # with nothing shared, rho tests the composite cofactor once, then walks
    tested = []
    monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or is_prime(n))
    cofactor = 65537 * 65539
    assert arith.rho_factor(cofactor, known=(3, 5)).factors == ((65537, 1), (65539, 1))
    assert tested.count(cofactor) == 1
    # a prime left once a known prime is divided out is tested once, not walked
    tested.clear()
    assert arith.rho_factor(65537 * 4294967311, known=(65537,)).factors == ((65537, 1), (4294967311, 1))
    assert tested == [4294967311]


def test_a_prime_leftover_is_proven_by_the_first_witness_read(monkeypatch):
    # q = 3 * 5 * p, p a prime above 2^64: the bounds decide every check with
    # p unproven, and reading a witness proves p once and shows exact values
    p = 896399550136791510227903
    tested = []

    def counted(n, real=arith.is_prime):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(opn, "is_prime", counted)
    candidate = EulerianCandidate(15 * p, 1, Factorization.parse("3^2*5*7*11*13*17*19*23*29*31"))
    assert candidate.q == 13445993252051872653418545
    checks = _factored_part(validate_eulerian(candidate))
    assert p not in tested
    assert {c.name: c.witness for c in checks if c.name != "I(n) > index lower bound"} == {
        "omega(N) >= 10": "omega(N) = 11",
        "I(q^k) < 5/4": "I(q^k) = 7171196401094332081823232/4481997750683957551139515",
        "sigma(N) = 2N": "sigma(N) != 2N (N has 49 digits)",
    }
    assert tested.count(p) == 1


def test_rho_proves_a_prime_cofactor_without_a_walk():
    p = 18446744073709551629  # prime, above 2^64
    assert arith.rho_factor(p, budget=1).factors == ((p, 1),)


def test_bounded_witnesses_name_their_bound_and_stay_short():
    # the cofactor 65537^200 has 964 digits; q is 5 times it, n has eight
    # primes, so omega(N) = 10 and I(q) < 6/5 * (65537/65536)^200 < 5/4
    n = Factorization.parse("3*7*11*13*17*19*23*29")
    report = validate_eulerian(EulerianCandidate(5 * 65537**200, 1, n))
    unfactored = f"cofactor {arith.render_short(65537**200)} unfactored, primes > 2^16"
    assert unfactored.endswith("(964 digits) unfactored, primes > 2^16")
    witnesses = {c.name: (c.status, c.witness) for c in _factored_part(report)}
    assert witnesses["omega(N) >= 10"] == (CheckStatus.PASS, "omega(N) >= 10")
    assert witnesses["I(q^k) < 5/4"] == (CheckStatus.PASS, f"I(q^k) < 5/4 ({unfactored})")
    assert witnesses["sigma(N) = 2N"] == (CheckStatus.FAIL, f"sigma(N) != 2N: I(N) > 2 ({unfactored})")
    assert all(len(w) < 200 for _, w in witnesses.values())
    # below: N = 5 * 65537 * 65539 has 3 primes and I(N) < 6/5 * (65537/65536)^2
    report = validate_eulerian(EulerianCandidate(5 * 65537 * 65539, 1, Factorization(())))
    unfactored = f"cofactor {65537 * 65539} unfactored, primes > 2^16"
    witnesses = {c.name: (c.status, c.witness) for c in _factored_part(report)}
    assert witnesses["omega(N) >= 10"] == (CheckStatus.FAIL, "omega(N) <= 3")
    assert witnesses["sigma(N) = 2N"] == (CheckStatus.FAIL, f"sigma(N) != 2N: I(N) < 2 ({unfactored})")


def test_factored_check_names_keep_one_order_however_they_are_decided():
    # trial division factors q = 13; bounds decide the 964-digit cofactor;
    # rho's budget runs out on q, the product of two primes above 2^64
    big_q = 18446744073709551629 * 18446744073709551653
    candidates = [
        EulerianCandidate(13, 1, Factorization.parse("3^2")),
        EulerianCandidate(5 * 65537**200, 1, Factorization.parse("3*7*11*13*17*19*23*29")),
        EulerianCandidate(big_q, 1, Factorization(())),
    ]
    reports = [validate_eulerian(c) for c in candidates]
    assert [c.status for c in _factored_part(reports[2])] == [CheckStatus.UNDECIDED] * 4
    names = [[c.name for c in report.checks] for report in reports]
    assert names[0] == names[1] == names[2]
    assert [name for name in names[0] if name in opn._FACTORED_CHECKS] == list(opn._FACTORED_CHECKS)


def test_a_perfect_known_part_is_decided_without_rho(monkeypatch):
    # q = 7 * 65537 * 65539, n = 2: the factored rest 7 * 2^2 = 28 is perfect,
    # so I(rest) = 2 and the unfactored cofactor pushes I(N) above 2
    monkeypatch.setattr(opn, "rho_factor", lambda *args, **kwargs: pytest.fail("rho ran"))
    report = validate_eulerian(EulerianCandidate(7 * 65537 * 65539, 1, Factorization(((2, 1),))))
    unfactored = "(cofactor 4295229443 unfactored, primes > 2^16)"
    assert [(c.name, c.status, c.witness) for c in _factored_part(report)] == [
        ("omega(N) >= 10", CheckStatus.FAIL, "omega(N) <= 4"),
        ("I(q^k) < 5/4", CheckStatus.PASS, f"I(q^k) < 5/4 {unfactored}"),
        ("I(n) > index lower bound", CheckStatus.FAIL, "N is even; the bound assumes odd N"),
        ("sigma(N) = 2N", CheckStatus.FAIL, f"sigma(N) != 2N: I(N) > 2 {unfactored}"),
    ]


def test_a_perfect_number_past_10_to_30_is_witnessed_without_its_digits():
    # N = (2^107 - 1) * 2^106, the even perfect number of p = 107 (65 digits):
    # sigma(N) = 2N is certified, and the other checks still fail on even n
    report = validate_eulerian(EulerianCandidate(2**107 - 1, 1, Factorization(((2, 53),))))
    checks = {c.name: (c.status, c.witness) for c in report.checks}
    assert checks["sigma(N) = 2N"] == (CheckStatus.PASS, "sigma(N) = 2N")
    assert checks["n odd"][0] is CheckStatus.FAIL
    assert checks["I(n) > index lower bound"] == (CheckStatus.FAIL, "N is even; the bound assumes odd N")


def _fraction_side(lo, t, threshold):
    """The Fraction rule _side replaced: lo when t = 0, else the open range
    (lo, lo * (65537/65536)^t), against threshold."""
    if t == 0:
        return "=" if lo == threshold else "<" if lo < threshold else ">"
    return "<" if lo * Fraction(65537, 65536) ** t <= threshold else ">" if lo >= threshold else None


@st.composite
def side_cases(draw):
    """(lo, t, threshold): lo at or near threshold, at or near threshold over
    the growth (65537/65536)^t, halfway between the two, or anywhere."""
    threshold = draw(st.sampled_from([Fraction(5, 4), Fraction(2)])
                     | st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**9)))
    t = draw(st.integers(0, 3) | st.integers(0, 300))
    top = threshold / Fraction(65537, 65536) ** t
    anchor = draw(st.sampled_from([threshold, top, (threshold + top) / 2]))
    nudge = 1 + Fraction(draw(st.integers(-2, 2)), draw(st.sampled_from([10**6, 10**40, 2**16 * 10**700])))
    lo = draw(st.sampled_from([anchor, anchor * nudge])
              | st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**30)))
    return lo, t, threshold


@settings(max_examples=300, deadline=None)
@given(side_cases(), st.integers(1, 10**6), st.integers(1, 10**6))
@example((Fraction(5, 4), 0, Fraction(5, 4)), 1, 1)
@example((Fraction(5, 4) * Fraction(65536, 65537) ** 3, 3, Fraction(5, 4)), 7, 1)
@example((Fraction(2), 2, Fraction(2)), 1, 3)
def test_the_integer_side_agrees_with_the_fraction_rule(case, scale, threshold_scale):
    # _side reads unreduced ratios: scale each one by a common factor first
    lo, t, threshold = case
    num, den = lo.numerator * scale, lo.denominator * scale
    tn, td = threshold.numerator * threshold_scale, threshold.denominator * threshold_scale
    assert opn._side(num, den, t, tn, td) == _fraction_side(lo, t, threshold)


def test_a_1500_digit_candidate_builds_no_fraction_over_n(monkeypatch):
    # N = q * 3^3200 has over 1,500 digits. For the prime q = 10^30 + 57 the
    # factored rest of N is N itself; for q = 5 * 65537 * 65539 the bounds
    # decide with the cofactor 65537 * 65539 unfactored, and the rest is
    # 5 * 3^3200. No Fraction is built over either: the checks and the order
    # premise cross-multiply, and only the witnesses' I(q^k) and I(n) reduce
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(opn, "Fraction", counting)
    monkeypatch.setattr(index, "Fraction", counting)
    n = Factorization(((3, 1600),))
    for q in (10**30 + 57, 5 * 65537 * 65539):
        built.clear()
        big = EulerianCandidate(q, 1, n)
        report = validate_eulerian(big)
        assert report.status_of("N > 10^1500") is CheckStatus.PASS
        assert report.status_of("sigma(N) = 2N") is CheckStatus.FAIL
        if report.status_of("q prime") is CheckStatus.PASS:
            order_predicates(big)
        denominators = [args[1] for args in built if len(args) == 2]
        assert n.value() in denominators
        assert all(d < 10**1000 for d in denominators), [arith.digit_count(d) for d in denominators]


@pytest.mark.parametrize("q, label", [(10**30 + 57, True), (13, False), (2**89 - 1, False)])
def test_a_q_prime_row_labels_a_bpsw_claim(q, label):
    # 10^30 + 57 is prime above psi_13, so is_prime's True is BPSW's; 2^89 - 1
    # is as large but has a Lucas-Lehmer proof, and 13 is proven by trial
    check = next(c for c in validate_eulerian(candidate(q, 1, 9)).checks if c.name == "q prime")
    shown = f"q = {arith.render_exact(q)}"
    assert check == Check("q prime", CheckStatus.PASS, shown + " (BPSW probable prime)" * label)


def test_a_check_renders_a_callable_witness_once_and_compares_on_its_text():
    # a witness may be a zero-argument callable, called on the first read only;
    # everything that sees a Check sees the text, so a lazy Check is the eager one
    calls = []
    eager = Check("q prime", CheckStatus.PASS, "q = 13")
    lazy = Check("q prime", CheckStatus.PASS, lambda: calls.append(1) or "q = 13")
    assert calls == []
    assert lazy == eager and hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
    assert lazy.witness == "q = 13" and lazy.to_dict() == eager.to_dict() and calls == [1]
    assert Check("q prime", CheckStatus.FAIL, lambda: "q = 13") != eager
    for field in ("name", "status", "witness"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lazy, field, "q = 17")
    with pytest.raises(TypeError):
        Check("q prime", CheckStatus.PASS)  # the witness has no default
    # an unread lazy Check pickles as its text, alone and inside the reports
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        unread = Check("q prime", CheckStatus.PASS, lambda: "q = 13")
        assert pickle.loads(pickle.dumps(unread, protocol)) == eager
    for report, fresh in ((validate_eulerian(candidate(13, 1, 9)), validate_eulerian(candidate(13, 1, 9))),
                          (ceiling_scan(30, 5), ceiling_scan(30, 5))):
        assert pickle.loads(pickle.dumps(report)) == fresh
        assert copy.deepcopy(report) == fresh


_PINNED_WITNESSES = {
    "q=13 k=1 n=3^2": [
        ("q prime", "PASS", "q = 13"),
        ("q = 1 (mod 4)", "PASS", "q mod 4 = 1"),
        ("k = 1 (mod 4)", "PASS", "k mod 4 = 1"),
        ("gcd(q, n) = 1", "PASS", "gcd(q, n) = 1"),
        ("n odd", "PASS", "n mod 2 = 1"),
        ("N > 10^1500", "FAIL", "N has 4 digits; needs more than 1500"),
        ("omega(N) >= 10", "FAIL", "omega(N) = 2"),
        ("I(q^k) < 5/4", "PASS", "I(q^k) = 14/13"),
        ("I(n) > index lower bound", "PASS", "I(n) = 13/9 vs (8/5)^(1/x(3)) = 1.444405574 ± 9e-87 @256b"),
        ("q < n for k > 1", "PASS", "k = 1, not applicable"),
        ("sigma(N) = 2N", "FAIL", "sigma(N)/N = 1694/1053"),
    ],
    "q=5*65537*65539 k=5 n=3^9100": [
        ("q prime", "FAIL", "q = 21476147215"),
        ("q = 1 (mod 4)", "FAIL", "q mod 4 = 3"),
        ("k = 1 (mod 4)", "PASS", "k mod 4 = 1"),
        ("gcd(q, n) = 1", "PASS", "gcd(q, n) = 1"),
        ("n odd", "PASS", "n mod 2 = 1"),
        ("N > 10^1500", "PASS", "N has 8736 digits; needs more than 1500"),
        ("omega(N) >= 10", "FAIL", "omega(N) <= 4"),
        ("I(q^k) < 5/4", "PASS", "I(q^k) < 5/4 (cofactor 4295229443 unfactored, primes > 2^16)"),
        ("I(n) > index lower bound", "PASS",
         "I(n) = 95391396766978817512...97517949880646753001 (4342 digits)"
         "/63594264511319211674...31678633253764502001 (4342 digits) vs (8/5)^(1/x(3)) = 1.444405574 ± 9e-87 @256b"),
        ("q < n for k > 1", "PASS",
         "k = 5, q = 21476147215, n = 63594264511319211674...31678633253764502001 (4342 digits)"),
        ("sigma(N) = 2N", "FAIL", "sigma(N) != 2N: I(N) < 2 (cofactor 4295229443 unfactored, primes > 2^16)"),
    ],
}


def test_the_checks_render_no_witness_until_one_is_read(monkeypatch):
    # N > 10^1500 with k = 5: q = 5 * 65537 * 65539 leaves the cofactor
    # 65537 * 65539 unfactored, and the prime 10^30 + 57 also runs the order
    # predicates; neither they nor a ceiling scan call a renderer
    calls = []
    for owner, name in ((opn, "render_exact"), (opn, "render_short"), (opn, "digit_count"), (IntervalReal, "render")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    n = Factorization(((3, 9100),))  # past str()'s digit limit, so every text shortens it
    small = candidate(13, 1, 9)
    large = EulerianCandidate(5 * 65537 * 65539, 5, n)
    large_prime = EulerianCandidate(10**30 + 57, 5, n)
    reports = {"q=13 k=1 n=3^2": validate_eulerian(small), "q=5*65537*65539 k=5 n=3^9100": validate_eulerian(large)}
    prime_report = validate_eulerian(large_prime)
    assert prime_report.status_of("q prime") is CheckStatus.PASS
    order_predicates(large_prime)
    scan = ceiling_scan(200, 5)
    assert calls == []
    for shown, report in reports.items():
        got = [(c["name"], c["status"], c["witness"]) for c in report.to_dict()["checks"]]
        assert got == _PINNED_WITNESSES[shown]
    assert calls  # reading renders
    assert scan.minimum.witness == f"q = 5: f = {euler_sum_bound(5, 5).render()}"


def test_each_scan_row_renders_its_own_enclosure():
    # a row's witness is rendered when read, from the enclosure of its own q,
    # not from the last one the loop saw
    grid = [q for q in primes_up_to(200) if q % 4 == 1 and q >= 5]
    report = ceiling_scan(200, 5)
    expected = []
    for q in grid:
        bound = euler_sum_bound(q, 5)
        expected.append(f"f = {bound.render()} vs ceiling = {ceiling_interval(bound.bits).render()}")
    assert [c.witness for c in report.rows] == expected
    assert len(set(expected)) == len(grid)


def test_reciprocal_exponent_and_the_bounds_are_evaluated_at_the_first_rung():
    # 1/x(BIG_PRIME) shows 1/2 < 1/x < 1 at 256 bits, whatever the ceiling, and
    # each bound is evaluated once at cfg.initial_bits
    y = reciprocal_exponent(BIG_PRIME, PrecisionConfig(256, 4096))
    assert y.bits == 256 and Fraction(1, 2) < y.lo and y.hi < 1
    for cfg in (PrecisionConfig(256, 4096), PrecisionConfig(256, 256)):
        assert reciprocal_exponent(BIG_PRIME, cfg) == y
        bounds = (
            index_lower_bound(Fraction(8, 5), BIG_PRIME, cfg),
            euler_sum_bound(5, BIG_PRIME, cfg),
            euler_sum_bound_limit(BIG_PRIME, cfg),
        )
        assert [b.bits for b in bounds] == [256] * 3
        assert all(b.width < Fraction(1, 2**280) for b in bounds)
        assert bounds[0] == pow_interval(Fraction(8, 5), y)
        assert bounds[1] == pow_interval(Fraction(5, 3), y) + Fraction(6, 5)
        assert bounds[2] == pow_interval(2, y) + 1


def test_reciprocal_exponent_and_the_bounds_never_escalate(monkeypatch):
    # only verdicts climb the ladder: sandwich_check and opn._certify
    ladders = []
    for module in (interval, index, opn):
        monkeypatch.setattr(module, "escalate", lambda *args: ladders.append(args))
    reciprocal_exponent.cache_clear()
    index_lower_bound.cache_clear()
    cfg = PrecisionConfig(256, 4096)
    for u in (3, 5, 7919, BIG_PRIME):
        assert reciprocal_exponent(u, cfg).bits == 256
        assert index_lower_bound(Fraction(8, 5), u, cfg).bits == 256
        assert euler_sum_bound(13, u, cfg).bits == 256
        assert euler_sum_bound_limit(u, cfg).bits == 256
    assert ladders == []


def test_validate_coprimality_failure():
    report = validate_eulerian(candidate(5, 1, 15))
    assert report.status_of("gcd(q, n) = 1") is CheckStatus.FAIL


def test_validate_huge_candidate_size_check_passes():
    # q^k with k = 1 (mod 4) large enough to clear 10^1500 exactly
    report = validate_eulerian(candidate(5, 2161, 3))
    assert report.status_of("N > 10^1500") is CheckStatus.PASS
    assert report.status_of("k = 1 (mod 4)") is CheckStatus.PASS


# ---------------------------------------------------------------------------
# Acquaah-Konyagin exact test
# ---------------------------------------------------------------------------


def test_acquaah_konyagin_examples():
    assert acquaah_konyagin_holds(5, 3)  # 25 < 27
    assert not acquaah_konyagin_holds(13, 7)  # 169 > 147
    assert acquaah_konyagin_holds(13, 8)  # 169 < 192


def test_acquaah_konyagin_matches_enclosures():
    rng = random.Random(17)
    for _ in range(100):
        q = rng.randrange(1, 10**6)
        n = rng.randrange(1, 10**6)
        verdict, _ = escalate(lambda bits: sqrt_ratio(3 * n * n, bits), separation(q))
        # sqrt(3 n^2) is irrational for n >= 1, so the verdict is never UNDECIDED
        assert verdict is not None
        assert acquaah_konyagin_holds(q, n) == (verdict is Comparison.GREATER)


def test_the_cached_index_bound_is_rendered_once(monkeypatch):
    # candidates that share a least prime share its cached (8/5)^(1/x(u))
    # enclosure, whose text is rendered on its first use only
    rounded, bounds = [], []
    original_rounded, original_bound = interval._rounded, opn.index_lower_bound
    monkeypatch.setattr(interval, "_rounded", lambda *a: rounded.append(a) or original_rounded(*a))
    monkeypatch.setattr(opn, "index_lower_bound", lambda *a: bounds.append(original_bound(*a)) or bounds[-1])
    rng = random.Random(0)
    witnesses = []
    for _ in range(200):
        bounds.clear()
        report = validate_eulerian(sample_surrogate(rng))
        check = next(c for c in report.checks if c.name == "I(n) > index lower bound")
        witnesses.append((check.witness, bounds[-1]))
    distinct = {id(bound) for _, bound in witnesses}
    assert len(distinct) < 20
    assert len(rounded) <= 2 * len(distinct)
    monkeypatch.undo()
    for witness, bound in witnesses:
        fresh = IntervalReal(bound.lo, bound.hi, bound.bits)
        assert fresh == bound and fresh is not bound
        assert witness.endswith(f") = {fresh.render()}")


# ---------------------------------------------------------------------------
# order predicates
# ---------------------------------------------------------------------------


def test_order_predicates_examples():
    p = order_predicates(candidate(5, 1, 9))
    assert (p.euler_lt_root, p.cross_lt, p.sigma_lt) == (True, True, True)

    p = order_predicates(candidate(13, 1, 9))
    assert (p.euler_lt_root, p.cross_lt, p.sigma_lt) == (False, False, False)

    p = order_predicates(candidate(5, 1, 3))
    assert (p.euler_lt_root, p.cross_lt, p.sigma_lt) == (False, False, False)
    assert p.implications_hold


def test_order_predicates_premise_errors():
    with pytest.raises(PremiseError, match=r"^I\(q\^k\)\^3 = 64/27 >= 2$"):
        order_predicates(candidate(3, 1, 5))
    with pytest.raises(PremiseError):
        order_predicates(candidate(5, 1, 5**2))  # I(25)^3 < 2
    with pytest.raises(ValueError, match="^9 is not prime$"):
        order_predicates(candidate(9, 1, 3))  # q^k goes through Factorization


def test_order_predicates_implication_logic():
    # all three implications p1 -> p2, p2 -> p3 and p1 -> p3, over every input
    for p1, p2, p3 in itertools.product([False, True], repeat=3):
        holds = all(not a or b for a, b in [(p1, p2), (p2, p3), (p1, p3)])
        assert OrderPredicates(p1, p2, p3).implications_hold is holds, (p1, p2, p3)
    assert OrderPredicates(False, False, True).implications_hold  # converse failing is fine
    assert not OrderPredicates(False, False, True).converse_observed


def test_order_predicates_corpus():
    rng = random.Random(23)
    converse_failures = 0
    for _ in range(300):
        c = sample_surrogate(rng)
        p = order_predicates(c)
        assert p.implications_hold, str(c)
        converse_failures += not p.converse_observed
    # informational: the converse is not asserted, only observed
    assert converse_failures >= 0


def test_surrogate_sampler_contract():
    rng = random.Random(31)
    from abundancy.index import abundancy_index

    for _ in range(40):
        c = sample_surrogate(rng)
        assert c.q % 4 == 1 and c.k % 4 == 1
        assert c.root % 2 == 1
        from math import gcd

        assert gcd(c.q, c.root) == 1
        assert abundancy_index(c.n) ** 3 > 2


# ---------------------------------------------------------------------------
# Euler-prime bound and ceiling scan
# ---------------------------------------------------------------------------


def test_euler_sum_bound_frozen_values():
    assert_consistent(euler_sum_bound(5, 5), "f(5,5)")
    assert_consistent(euler_sum_bound(13, 5), "f(13,5)")
    assert_consistent(euler_sum_bound(5, 3), "f(5,3)")
    assert_consistent(euler_sum_bound_limit(5), "limit(5)")
    assert_consistent(euler_sum_bound_limit(3), "limit(3)")
    assert_consistent(ceiling_interval(), "1+sqrt(3)")


def test_euler_sum_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        euler_sum_bound(7, 5)  # q = 3 (mod 4)
    with pytest.raises(ValueError):
        euler_sum_bound(4, 5)
    with pytest.raises(ValueError):
        euler_sum_bound(5, 4)


def test_exponent_equals_reciprocal_exponent():
    # the exponent in f(q, u) is 1/x(u): enclosures must overlap
    from abundancy.index import prime_power_exponent

    for u in (3, 5):
        recip = reciprocal_exponent(u, PrecisionConfig(256, 256))
        x = prime_power_exponent(u, 1).value
        assert (recip * x).contains(1)


def test_ceiling_scan_u5_all_clear_with_margin():
    report = ceiling_scan(100, 5)
    grid = [q for q in primes_up_to(100) if q % 4 == 1 and q >= 5]
    assert [c.name for c in report.rows] == [f"f({q}, 5) > 1+sqrt(3)" for q in grid]
    assert all(c.status is CheckStatus.PASS for c in report.rows)
    assert report.minimum.name == "minimum over scan" and report.minimum.status is CheckStatus.PASS
    assert "q = 5" in report.minimum.witness
    # the verdicts are the rows, then the limit; the minimum stands beside them
    assert report.checks == (*report.rows, report.limit) and report.minimum not in report.checks
    assert report.limit.name == "limit as q grows" and report.limit.status is CheckStatus.PASS
    assert report.all_pass
    assert report.to_dict() == {"checks": [c.to_dict() for c in report.checks],
                                "minimum": report.minimum.to_dict()}


def test_ceiling_scan_minimum_keeps_the_first_q_on_a_tie(monkeypatch):
    # every q gets the same enclosure: the minimum is the first q, as min() gives
    tied = opn.euler_sum_bound(5, 5)
    monkeypatch.setattr(opn, "euler_sum_bound", lambda q, u, cfg: tied)
    report = ceiling_scan(100, 5)
    assert report.minimum.witness == f"q = 5: f = {tied.render()}"
    # a later enclosure that overlaps the minimum but starts lower takes its
    # place, though no separation orders the two; a tie keeps the first again
    lower = IntervalReal(tied.lo - tied.width, tied.midpoint, tied.bits)
    assert lower.overlaps(tied) and lower.lo < tied.lo
    monkeypatch.setattr(opn, "euler_sum_bound", lambda q, u, cfg: lower if q in (13, 29) else tied)
    assert ceiling_scan(100, 5).minimum.witness == f"q = 13: f = {lower.render()}"


def test_ceiling_scan_u3_no_contradiction():
    report = ceiling_scan(100, 3)
    assert report.rows and all(c.name.endswith(" < 1+sqrt(3)") for c in report.rows)
    assert all(c.status is CheckStatus.PASS for c in report.rows)  # PASS means f < ceiling here
    assert report.status_of("limit as q grows") is CheckStatus.PASS


def test_ceiling_scan_empty_grid():
    report = ceiling_scan(4, 5)
    assert report.rows == () and report.minimum is None
    assert report.checks == (report.limit,) and report.limit.name == "limit as q grows"
    assert report.to_dict()["minimum"] is None


@pytest.mark.parametrize("u", [9, 2])
@pytest.mark.parametrize("q_limit", [4, 30])
def test_ceiling_scan_rejects_bad_u(q_limit, u):
    # q_limit = 4 leaves the grid empty: only the limit sees u
    with pytest.raises(ValueError, match=f"u must be an odd prime, got {u}"):
        ceiling_scan(q_limit, u)


def test_ceiling_scan_margin_failure_is_certified():
    # an absurd margin requirement must FAIL (certified), not hang or pass
    report = ceiling_scan(30, 5, required_margin=Fraction(1, 2))
    assert len(report.rows) == 4  # q = 5, 13, 17, 29
    assert all(c.status is CheckStatus.FAIL for c in report.rows)
    # the margin is for the per-q checks only; the limit is compared with the ceiling
    assert report.status_of("limit as q grows") is CheckStatus.PASS


def test_ceiling_scan_rejects_a_negative_margin():
    for u in (5, 3):
        with pytest.raises(ValueError, match="required margin must be at least 0, got -1/1000"):
            ceiling_scan(100, u, required_margin=Fraction(-1, 1000))
    # 0 asks for f strictly above the ceiling
    assert ceiling_scan(30, 5, required_margin=Fraction(0)).all_pass


def test_euler_sum_bound_increases_on_grid():
    values = [euler_sum_bound(q, 5) for q in primes_up_to(200) if q % 4 == 1 and q >= 5]
    for smaller, bigger in zip(values, values[1:]):
        assert smaller.hi < bigger.lo
    values = [euler_sum_bound(q, 3) for q in primes_up_to(200) if q % 4 == 1 and q >= 5]
    for smaller, bigger in zip(values, values[1:]):
        assert smaller.hi < bigger.lo


# ---------------------------------------------------------------------------
# residual classification
# ---------------------------------------------------------------------------


def test_residual_classify_examples():
    assert residual_case_classify(5).case is ResidualCase.CASE_Q5
    assert residual_case_classify(17).case is ResidualCase.CASE_5_MOD_12
    assert residual_case_classify(13).case is ResidualCase.CASE_1_MOD_12


def test_residual_classify_notes():
    assert "Iannucci" in residual_case_classify(5).notes
    assert "(q+1)/2 = 9" in residual_case_classify(17).notes
    assert "not divisible by 3" in residual_case_classify(13).notes


@pytest.mark.parametrize("q, case, notes", [
    (10**30 + 57, ResidualCase.CASE_1_MOD_12,
     "(q+1)/2 = 500000000000000000000000000029 is not divisible by 3; no divisibility of n by 3 is forced"),
    (10**30 + 469, ResidualCase.CASE_5_MOD_12,
     "q = 2 (mod 3), so 3 divides (q+1)/2 = 500000000000000000000000000235, hence 3 | n^2 when k = 1"),
])
def test_residual_classify_labels_a_bpsw_probable_prime(q, case, notes):
    # from psi_13 on, is_prime's True for q is BPSW's: the notes say so, by the
    # rule of the q prime row; a q below psi_13 is proven and gets no label
    assert residual_case_classify(q) == opn.ResidualClassification(case, notes + " (q is a BPSW probable prime)")
    assert not any("BPSW" in residual_case_classify(p).notes for p in (5, 13, 17, 1000000009))


def test_residual_classify_renders_a_half_past_the_str_limit():
    # (q+1)/2 has 700 digits, past a 640-digit int-to-str limit, so the notes
    # show it as render_exact does instead of raising
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        result = residual_case_classify(10**700 + 1213)
    finally:
        sys.set_int_max_str_digits(limit)
    assert result == opn.ResidualClassification(
        ResidualCase.CASE_5_MOD_12,
        "q = 2 (mod 3), so 3 divides (q+1)/2 = 50000000000000000000...00000000000000000607 (700 digits),"
        " hence 3 | n^2 when k = 1 (q is a BPSW probable prime)",
    )


def test_residual_classify_rejects_bad_q():
    for q in (9, 7):  # composite; 7 = 3 (mod 4)
        message = rf"^q must be a prime with q = 1 \(mod 4\), got {q}$"
        with pytest.raises(ValueError, match=message):
            residual_case_classify(q)
        with pytest.raises(ValueError, match=message):
            euler_sum_bound(q, 5)


def test_residual_partition():
    # each admissible q below 1e5 lands in exactly one class, and the classes
    # with forced 3 | n^2 are exactly those with 3 | (q+1)/2
    seen = {case: 0 for case in ResidualCase}
    for q in primes_up_to(10**5):
        if q % 4 != 1:
            continue
        result = residual_case_classify(q)
        seen[result.case] += 1
        divisible = (q + 1) // 2 % 3 == 0
        in_divisible_classes = result.case in (ResidualCase.CASE_Q5, ResidualCase.CASE_5_MOD_12)
        assert divisible == in_divisible_classes, q
    assert seen[ResidualCase.CASE_Q5] == 1
    assert seen[ResidualCase.CASE_5_MOD_12] > 0 and seen[ResidualCase.CASE_1_MOD_12] > 0


def test_margin_at_minimum_matches_derived_value():
    f55 = euler_sum_bound(5, 5)
    margin = f55 - ceiling_interval()
    derived = Fraction("0.009763022968414144")  # frozen to 16 places
    tol = Fraction(1, 10**15)
    assert derived - tol <= margin.lo <= margin.hi <= derived + tol
    assert margin.lo > Fraction(1, 1000)
