import dataclasses
import json
import os
import random
import subprocess
import sys

import mpmath
import pytest

from fractions import Fraction

import abundancy
from conftest import BIG_PRIME, exponent_oracle
from abundancy import arith, cli, report
from abundancy.arith import Factorization
from abundancy.cli import main
from abundancy.index import ExponentValue
from abundancy.interval import IntervalReal, PrecisionConfig
from abundancy.report import ReportSizes, SuiteSummary, reference_constants, run_report

SMALL = ReportSizes(
    oracle_limit=500,
    sandwich_pairs=40,
    grid_prime_limit=20,
    grid_exponent_max=4,
    chain_prime_limit=60,
    order_candidates=40,
    scan_limit=200,
    mersenne_limit=130,
)


def test_reference_constants_all_match():
    from fractions import Fraction

    constants = reference_constants()
    assert len(constants) == 5
    for entry in constants:
        assert entry.match, entry.label
        assert entry.value.width < Fraction(1, 10**10)


def test_run_report_clean_and_deterministic():
    first = run_report(seed=42, sizes=SMALL)
    assert first.clean
    assert {s.name for s in first.suites} == {
        "sigma oracle equivalence",
        "sandwich corpus",
        "monotonicity grids",
        "order implications",
        "ceiling scan u=5",
        "ceiling scan u=3",
        "mersenne scan",
    }
    second = run_report(seed=42, sizes=SMALL)
    assert first.to_json() == second.to_json()
    different = run_report(seed=43, sizes=SMALL)
    assert different.environment["seed"] == 43


def test_report_with_no_admissible_scan_q(capsys):
    # no prime q = 1 (mod 4) with q >= 5 lies at or below 4
    scans = [s for s in run_report(sizes=dataclasses.replace(SMALL, scan_limit=4)).suites
             if s.name.startswith("ceiling scan")]
    assert scans == [SuiteSummary("ceiling scan u=5", 0, 0, 0), SuiteSummary("ceiling scan u=3", 0, 0, 0)]
    code, out = run_cli(capsys, "report", "--json", "--scan-limit", "4", "--oracle-limit", "100",
                        "--sandwich-pairs", "10", "--grid-prime-limit", "10", "--chain-prime-limit", "20",
                        "--order-candidates", "10", "--mersenne-limit", "20")
    assert code == 0
    suites = {s["name"]: s for s in json.loads(out)["suites"]}
    assert suites["ceiling scan u=5"]["cases"] == suites["ceiling scan u=3"]["cases"] == 0


def test_report_mersenne_detail():
    report = run_report(seed=1, sizes=SMALL)
    mersenne = next(s for s in report.suites if s.name == "mersenne scan")
    assert mersenne.detail == "p = 2,3,5,7,13,17,19,31,61,89,107,127"
    assert mersenne.failures == 0


def test_monotonicity_suite_counts_increases_and_overlaps(monkeypatch):
    crafted = {
        (3, 1): (Fraction(15, 10), Fraction(16, 10)),
        (3, 2): (Fraction(17, 10), Fraction(18, 10)),  # certified increase: a failure
        (5, 1): (Fraction(155, 100), Fraction(165, 100)),  # overlaps x(3): undecided
        (5, 2): (Fraction(11, 10), Fraction(12, 10)),  # certified decrease
    }

    def fake(r, s, cfg):
        enclosure = IntervalReal(*crafted[(r, s)], cfg.initial_bits)
        return ExponentValue(enclosure, Factorization(((r, s),)))

    monkeypatch.setattr(report, "prime_power_exponent", fake)
    sizes = ReportSizes(grid_prime_limit=5, grid_exponent_max=2, chain_prime_limit=5)
    summary = report._monotonicity_suite(sizes, PrecisionConfig())
    assert summary == SuiteSummary("monotonicity grids", 3, 1, 1)


def test_report_render_mentions_constants():
    text = run_report(seed=1, sizes=SMALL).render()
    assert "1.44440557" in text
    assert "MATCH" in text and "MISMATCH" not in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_sigma(capsys):
    code, out = run_cli(capsys, "sigma", "45")
    assert code == 0 and "78" in out
    code, out = run_cli(capsys, "sigma", "3^2*5", "--json")
    assert json.loads(out)["sigma"] == "78"


def test_cli_abundancy(capsys):
    code, out = run_cli(capsys, "abundancy", "3")
    assert code == 0 and "4/3" in out


def test_cli_exponent(capsys):
    code, out = run_cli(capsys, "exponent", "3")
    assert code == 0 and out.startswith("x(3) = 1.278233214")


def test_cli_sandwich(capsys):
    code, out = run_cli(capsys, "sandwich", "3", "5")
    assert code == 0 and "HOLDS" in out
    code, _ = run_cli(capsys, "sandwich", "3", "9")
    assert code == 2  # non-coprime input is an argument error


def test_cli_check(capsys):
    code, out = run_cli(capsys, "check", "q=5", "k=1", "n=3")
    assert code == 1  # not an odd perfect number
    assert "N > 10^1500" in out
    code, out = run_cli(capsys, "check", "q=5", "k=1", "n=3", "--json")
    payload = json.loads(out)
    assert payload["candidate"] == "q=5 k=1 n=3"
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["sigma(N) = 2N"] == "FAIL"


@pytest.mark.parametrize("extra", ["q=13", "m=7"])
def test_cli_check_rejects_malformed_line(capsys, extra):
    code = main(["check", "q=5", "k=1", "n=3^2", extra])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_bound_and_f(capsys):
    code, out = run_cli(capsys, "bound", "--L", "8/5", "--u", "3")
    assert code == 0 and "1.444405574" in out
    code, out = run_cli(capsys, "f", "--q", "5", "--u", "5")
    assert code == 0 and "2.741813831" in out


def test_cli_scan(capsys):
    code, out = run_cli(capsys, "scan", "--qmax", "100", "--u", "5")
    assert code == 0
    assert "failures: 0, undecided: 0" in out
    code, out = run_cli(capsys, "scan", "--qmax", "100", "--u", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(c["status"] == "PASS" for c in payload["checks"])


def test_cli_scan_rejects_a_negative_margin(capsys):
    assert main(["scan", "--qmax", "100", "--u", "5", "--margin=-1/1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: required margin must be at least 0, got -1/1000\n"
    done = run_bounded("scan", "--qmax", "100", "--u", "5", "--margin", "-5")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == "error: required margin must be at least 0, got -5\n"


@pytest.mark.parametrize("argv", [
    ["scan", "--qmax", "100", "--u", "5", "--margin"],
    ["bound", "--u", "3", "--L"],
])
def test_cli_negative_rational_option_is_read_as_a_value(capsys, argv):
    # argparse reads -5 as a number but took -1/1000 for an unknown option
    *head, option = argv
    results = []
    for tail in ([option, "-1/1000"], [f"{option}=-1/1000"]):
        code = main(head + tail)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert code == 2 and out == "" and err.startswith("error: ") and "-1/1000" in err


def test_cli_classify(capsys):
    code, out = run_cli(capsys, "classify", "17")
    assert code == 0 and "CASE_5_MOD_12" in out
    code, _ = run_cli(capsys, "classify", "9")
    assert code == 2


def test_cli_mersenne(capsys):
    code, out = run_cli(capsys, "mersenne", "--limit", "20")
    assert code == 0 and "2 3 5 7 13 17 19" in out
    code, _ = run_cli(capsys, "mersenne", "--limit", "99999")
    assert code == 2  # above the desk-scale cap, which has no override
    with pytest.raises(SystemExit) as exit_info:
        main(["mersenne", "--limit", "99999", "--allow-large"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --allow-large" in capsys.readouterr().err


def test_cli_report_deterministic(capsys):
    argv = [
        "report", "--seed", "7", "--json",
        "--oracle-limit", "200", "--sandwich-pairs", "20",
        "--grid-prime-limit", "10", "--grid-exponent-max", "3",
        "--chain-prime-limit", "30", "--order-candidates", "20",
        "--scan-limit", "100", "--mersenne-limit", "61",
    ]
    code, first = run_cli(capsys, *argv)
    assert code == 0
    code, second = run_cli(capsys, *argv)
    assert code == 0
    assert first == second
    payload = json.loads(first)
    assert len(payload["constants"]) == 5
    assert all(c["match"] for c in payload["constants"])


def test_cli_respects_bits_flag(capsys):
    code, out = run_cli(capsys, "exponent", "3", "--bits", "64")
    assert code == 0 and "@64b" in out


def test_cli_env_default_bits(capsys, monkeypatch):
    monkeypatch.setenv("ABUNDANCY_BITS", "128")
    # parser defaults are read at build time, so rebuild through main()
    code, out = run_cli(capsys, "exponent", "3")
    assert code == 0 and "@128b" in out


def test_cli_env_invalid_bits_is_an_argument_error(capsys, monkeypatch):
    monkeypatch.setenv("ABUNDANCY_BITS", "abc")
    with pytest.raises(SystemExit) as exit_info:
        main(["sigma", "45"])
    assert exit_info.value.code == 2
    assert "error: argument --bits: invalid int value: 'abc'" in capsys.readouterr().err


def test_cli_exponent_of_big_prime_escalates(capsys):
    code, out = run_cli(capsys, "exponent", str(BIG_PRIME))
    assert code == 0 and out.endswith("@1024b\n")


def test_cli_exponent_with_a_log_not_separated_from_zero_prints_the_range(capsys):
    # at 256 bits ln I(p) ~ 1/p is not above zero; [1, 2] holds exactly
    code, out = run_cli(capsys, "exponent", str(BIG_PRIME), "--max-bits", "256")
    assert code == 0 and out.endswith(" = 1.500000000 ± 5e-1 @256b\n")


@pytest.mark.parametrize("argv, name, reference", [
    (["bound", "--L", "8/5"], "index_lower_bound", lambda y: (mpmath.mpf(8) / 5) ** y),
    (["f", "--q", "5"], "euler_sum_bound", lambda y: mpmath.mpf(6) / 5 + (mpmath.mpf(10) / 6) ** y),
])
def test_cli_bound_with_a_log_not_separated_from_zero_prints_an_enclosure(capsys, monkeypatch, argv, name, reference):
    # 1/x(BIG_PRIME) escalates to 1024 bits by default; at a 256-bit ceiling
    # it is only known to lie in [1/2, 1], and the bound built on that range
    # still holds the true value
    returned = []
    original = getattr(cli, name)

    def spy(*args):
        returned.append(original(*args))
        return returned[-1]

    monkeypatch.setattr(cli, name, spy)
    with mpmath.workprec(1024):
        u = mpmath.mpf(BIG_PRIME)
        y = mpmath.log1p(1 / u) / mpmath.log1p(1 / u + 1 / u**2)
        man, exp = reference(y).man_exp
    ref = Fraction(man) * Fraction(2) ** exp
    for extra, bits in (((), 1024), (("--max-bits", "256"), 256)):
        code, out = run_cli(capsys, *argv, "--u", str(BIG_PRIME), *extra)
        assert code == 0 and out.endswith(f" = {returned[-1].render()}\n") and out.endswith(f"@{bits}b\n")
        assert returned[-1].lo < ref < returned[-1].hi
    assert returned[0].width < Fraction(1, 2**700) < Fraction(1, 10) < returned[1].width


def test_cli_exponent_at_the_ceiling_prints_the_last_enclosure(capsys, monkeypatch):
    # x(3^5000) - 1 is about 3^-5000, too close to 1 to separate at 4096 bits;
    # 1 < x < 2 holds exactly anyway, so the last enclosure is the answer
    returned = []
    original = cli.abundancy_exponent

    def spy(f, cfg):
        returned.append(original(f, cfg))
        return returned[-1]

    monkeypatch.setattr(cli, "abundancy_exponent", spy)
    code, out = run_cli(capsys, "exponent", "3^5000")
    assert code == 0 and out.startswith("x(3^5000) = ") and out.endswith("@4096b\n")
    x = returned[0].value
    prec = 2 * x.bits + 64
    ref = exponent_oracle(returned[0].of, prec)
    slack = ref / 2 ** (prec - 24)  # the oracle's own rounding, far below x's width
    assert x.lo - slack <= ref <= x.hi + slack


def test_cli_check_decides_an_unfactored_cofactor_from_bounds(capsys):
    # trial division leaves an 84-digit composite cofactor of 10^105 + 1; the
    # checks that need q's factorization are decided from exact bounds on it
    code, out = run_cli(capsys, "check", f"q={10**105 + 1}", "k=1", "n=3^2", "--json")
    assert code == 1
    checks = {c["name"]: (c["status"], c["witness"]) for c in json.loads(out)["checks"]}
    unfactored = "cofactor 41831885183188058168...68119418318851831881 (84 digits) unfactored, primes > 2^16"
    assert checks["q prime"][0] == "FAIL"
    assert checks["omega(N) >= 10"] == ("PASS", "omega(N) >= 11")
    assert checks["I(q^k) < 5/4"] == ("FAIL", f"I(q^k) > 5/4 ({unfactored})")
    assert checks["I(n) > index lower bound"][0] == "PASS"
    assert checks["sigma(N) = 2N"] == ("FAIL", f"sigma(N) != 2N: I(N) > 2 ({unfactored})")


def test_cli_check_budget_exhausted_is_undecided(capsys):
    # q is the product of two primes just above 2^64, far beyond the rho
    # budget, and n = 1 leaves N's least prime unknown, so no bound decides:
    # the report still prints, with the four checks that need q factored
    # UNDECIDED
    q = 18446744073709551629 * 18446744073709551653
    code, out = run_cli(capsys, "check", f"q={q}", "k=1", "n=1", "--json")
    assert code == 1
    checks = json.loads(out)["checks"]
    undecided = [c for c in checks if c["status"] == "UNDECIDED"]
    assert [c["name"] for c in undecided] == [
        "omega(N) >= 10", "I(q^k) < 5/4", "I(n) > index lower bound", "sigma(N) = 2N",
    ]
    assert all(c["witness"] == f"factoring budget exhausted on {q}" for c in undecided)
    assert [c["name"] for c in checks][-2:] == ["q < n for k > 1", "sigma(N) = 2N"]


@pytest.mark.parametrize("argv, bad", [
    (["abundancy", "-7"], -7),
    (["sigma", "0^1"], 0),
    (["sigma", "3^2*-5"], -5),
])
def test_cli_names_a_non_positive_factor_as_not_prime(capsys, argv, bad):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {bad} is not prime\n"


@pytest.mark.parametrize("flag", ["--bits", "--max-bits"])
def test_cli_rejects_precision_above_cap(capsys, flag):
    code = main(["bound", "--L", "8/5", "--u", "3", flag, "16385"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --bits and --max-bits must not exceed 16384\n"


@pytest.mark.parametrize("text", ["1/0", "abc"])
@pytest.mark.parametrize("argv", [
    ["bound", "--u", "3", "--L"],
    ["scan", "--qmax", "100", "--u", "3", "--margin"],
])
def test_cli_rational_option_is_an_argument_error(capsys, argv, text):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [text])
    assert exit_info.value.code == 2
    option = argv[-1]
    assert f"error: argument {option}: not a finite exact rational: '{text}'" in capsys.readouterr().err


def test_cli_sigma_past_the_str_limit(capsys):
    value = (3**10001 - 1) // 2  # 4772 digits, above Python's 4300-digit str limit
    head, tail = value // 10**4752, value % 10**20
    code, out = run_cli(capsys, "sigma", "3^10000")
    assert code == 0
    assert out == f"sigma(3^10000) = {head}...{tail:020d} (4772 digits)\n"


def run_bounded(*argv, seconds=30):
    """Run the CLI in a fresh interpreter; an input that hangs fails the test."""
    src = os.path.dirname(os.path.dirname(abundancy.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "abundancy", *argv], env=env,
                          capture_output=True, text=True, timeout=seconds)


@pytest.mark.parametrize("argv", [
    ["sigma", "3^100000000000"],
    ["check", "q=5", "k=100000000001", "n=3^2"],
])
def test_cli_rejects_oversized_input(argv):
    done = run_bounded(*argv)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and "capped at 65536 bits" in done.stderr


# 4,001 digits: below Python's 4,300-digit conversion limit, even, so no
# primality test takes long
WIDE_EVEN = 10**4000 + 2


@pytest.mark.parametrize("argv", [
    ["classify", str(WIDE_EVEN)],
    ["classify", str(-WIDE_EVEN)],
    ["f", "--q", str(WIDE_EVEN), "--u", "5"],
    ["bound", "--L", "8/5", "--u", str(WIDE_EVEN)],
    ["sigma", f"2*{WIDE_EVEN}"],
])
def test_cli_error_line_abbreviates_a_wide_integer(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 200
    shown = "10000000000000000000...00000000000000000002 (4001 digits)"
    assert shown in err and (f"-{shown}" in err) == (str(-WIDE_EVEN) in argv)


def test_cli_bound_error_line_abbreviates_a_wide_rational(capsys):
    assert main(["bound", "--L", f"{10**3799}/{10**3800 - 1}", "--u", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the bound collapses for L <= 1, got 1000000000")
    assert err.count("\n") == 1 and len(err) <= 200 and "(3800 digits)" in err


def test_cli_caps_the_size_before_proving_a_prime(capsys, monkeypatch):
    def unreachable(n):
        raise AssertionError("is_prime called before the size cap")

    monkeypatch.setattr(arith, "is_prime", unreachable)
    odd = random.Random(4200).randrange(10**4199, 10**4200) | 1  # about 13,950 bits
    for argv in (["sigma", f"{odd}^20"], ["check", "q=5", "k=1", f"n={odd}^20"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "capped at 65536 bits" in err and len(err) <= 200


def test_cli_rejects_scan_limit_above_cap():
    done = run_bounded("scan", "--qmax", str(10**12), "--u", "5")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: scan limit {10**12} exceeds the cap 1000000\n"


@pytest.mark.parametrize("flag, size", [
    ("--order-candidates", 10**8), ("--mersenne-limit", 2501), ("--oracle-limit", -1),
])
def test_cli_rejects_report_sizes_outside_their_caps(flag, size):
    done = run_bounded("report", flag, str(size), seconds=10)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith(f"error: {flag} {size} is outside the range 0 to ")


def test_precision_config_guard():
    with pytest.raises(ValueError):
        PrecisionConfig(0, 10)
