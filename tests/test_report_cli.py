import argparse
import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys

import mpmath
import pytest

from fractions import Fraction
from pathlib import Path

import abundancy
from conftest import BIG_PRIME, exponent_oracle
from abundancy import arith, cli, index, mersenne, opn, report
from abundancy.arith import Factorization
from abundancy.cli import main
from abundancy.index import ExponentValue, SandwichStatus
from abundancy.interval import DEFAULT_PRECISION, IntervalReal, PrecisionConfig
from abundancy.opn import DEFAULT_MARGIN, OrderPredicates
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
    assert first.to_dict() == second.to_dict()
    different = run_report(seed=43, sizes=SMALL)
    assert different.environment["seed"] == 43


def test_report_with_no_admissible_scan_q(capsys):
    # no prime q = 1 (mod 4) with q >= 5 lies at or below 4: each scan's one case is its limit
    scans = [s for s in run_report(sizes=dataclasses.replace(SMALL, scan_limit=4)).suites
             if s.name.startswith("ceiling scan")]
    assert scans == [SuiteSummary("ceiling scan u=5", 1, 0, 0), SuiteSummary("ceiling scan u=3", 1, 0, 0)]
    code, out = run_cli(capsys, "report", "--json", "--scan-limit", "4", "--oracle-limit", "100",
                        "--sandwich-pairs", "10", "--grid-prime-limit", "10", "--chain-prime-limit", "20",
                        "--order-candidates", "10", "--mersenne-limit", "20")
    assert code == 0
    suites = {s["name"]: s for s in json.loads(out)["suites"]}
    assert suites["ceiling scan u=5"]["cases"] == suites["ceiling scan u=3"]["cases"] == 1


def test_report_mersenne_detail():
    report = run_report(seed=1, sizes=SMALL)
    mersenne = next(s for s in report.suites if s.name == "mersenne scan")
    assert mersenne.detail == "p = 2,3,5,7,13,17,19,31,61,89,107,127"
    assert mersenne.failures == 0


def test_report_mersenne_suite_proves_each_exponent_once(monkeypatch):
    # the scan's Lucas-Lehmer run is the proof the construction rests on
    proven = []
    kernel = mersenne.lucas_lehmer

    def counted(p):
        proven.append(p)
        return kernel(p)

    monkeypatch.setattr(mersenne, "lucas_lehmer", counted)
    summary = report._mersenne_suite(SMALL)
    assert (summary.cases, summary.failures) == (12, 0)
    assert proven == list(range(2, SMALL.mersenne_limit + 1))


def test_monotonicity_suite_counts_increases_and_overlaps(monkeypatch):
    crafted = {
        (3, 1): (Fraction(15, 10), Fraction(16, 10)),
        (3, 2): (Fraction(17, 10), Fraction(18, 10)),  # certified increase: a failure
        (5, 1): (Fraction(155, 100), Fraction(165, 100)),  # overlaps x(3): undecided
        (5, 2): (Fraction(11, 10), Fraction(12, 10)),  # certified decrease
    }

    def fake(r, s, bits):
        enclosure = IntervalReal(*crafted[(r, s)], bits)
        return ExponentValue(enclosure, Factorization(((r, s),)))

    monkeypatch.setattr(report, "prime_power_exponent", fake)
    sizes = ReportSizes(grid_prime_limit=5, grid_exponent_max=2, chain_prime_limit=5)
    summary = report._monotonicity_suite(sizes, DEFAULT_PRECISION.initial_bits)
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


def test_every_subcommand_calls_its_own_handler(capsys):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, command in sub.choices.items():
        assert command.get_default("handler") is getattr(cli, f"_cmd_{name}"), name
    assert {f"_cmd_{name}" for name in sub.choices} == {n for n in vars(cli) if n.startswith("_cmd_")}
    # a handler returns (payload, text, exit code) and writes nothing; main
    # writes the text, or under --json the payload's sorted, indented dump
    runs = {}
    for argv in CLI_BATTERY:  # each command's first golden run with --json and without
        runs.setdefault((argv[0], "--json" in argv), argv)
    tiny = dataclasses.replace(SMALL, oracle_limit=50, sandwich_pairs=5, order_candidates=5, mersenne_limit=31)
    runs["report", True] = ["report", "--json", *size_flags(tiny)]  # the golden file leaves report out
    assert {name for name, _ in runs} == set(sub.choices)
    for argv in runs.values():
        args = parser.parse_args(argv)
        result = args.handler(args)
        assert capsys.readouterr() == ("", ""), argv
        assert [type(part) for part in result] == [dict, str, int], argv
        payload, text, code = result
        shown = json.dumps(payload, indent=2, sort_keys=True) if args.json else text
        assert (main(argv), capsys.readouterr()) == (code, (shown + "\n", "")), argv


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
    # past the 4,300-digit str() limit the margin is shown like a wide integer
    assert main(["scan", "--qmax", "100", "--u", "5", "--margin", "-1e5000"]) == 2
    shown = "-10000000000000000000...00000000000000000000 (5001 digits)"
    assert capsys.readouterr().err == f"error: required margin must be at least 0, got {shown}\n"


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


def size_flags(sizes):
    """ReportSizes as report's command-line flags."""
    return [arg for f in dataclasses.fields(ReportSizes)
            for arg in ("--" + f.name.replace("_", "-"), str(getattr(sizes, f.name)))]


def test_cli_report_text_is_the_rendered_report(capsys):
    sizes = dataclasses.replace(SMALL, oracle_limit=50, sandwich_pairs=5, order_candidates=5, mersenne_limit=31)
    code, out = run_cli(capsys, "report", "--seed", "7", *size_flags(sizes))
    assert code == 0
    assert out == run_report(7, DEFAULT_PRECISION, sizes).render() + "\n"


def test_a_failed_or_undecided_case_makes_the_report_unclean(capsys, monkeypatch):
    # in each run the first sandwich pair reads VIOLATED and the second
    # UNDECIDED, sigma disagrees with the oracle at n = 7, and no order
    # implication holds
    rigged = [SandwichStatus.VIOLATED, SandwichStatus.UNDECIDED]
    check, oracle = report.sandwich_check, report.sigma_oracle

    def sandwich(fa, fb, cfg):
        result = check(fa, fb, cfg)
        return dataclasses.replace(result, status=rigged.pop(0)) if rigged else result

    monkeypatch.setattr(report, "sandwich_check", sandwich)
    monkeypatch.setattr(report, "sigma_oracle", lambda n: oracle(n) + (n == 7))
    monkeypatch.setattr(report, "order_predicates", lambda candidate: OrderPredicates(True, False, False))
    sizes = dataclasses.replace(SMALL, oracle_limit=50, sandwich_pairs=5, order_candidates=5, mersenne_limit=31)
    built = run_report(7, DEFAULT_PRECISION, sizes)
    suites = {s.name: s for s in built.suites}
    assert suites["sigma oracle equivalence"] == SuiteSummary("sigma oracle equivalence", 50, 1, 0)
    assert suites["sandwich corpus"] == SuiteSummary("sandwich corpus", 5, 1, 1)
    assert suites["order implications"] == SuiteSummary("order implications", 5, 5, 0, "converse observed in 5/5")
    assert built.clean is False
    rigged[:] = [SandwichStatus.VIOLATED, SandwichStatus.UNDECIDED]
    code, out = run_cli(capsys, "report", "--seed", "7", *size_flags(sizes))
    assert code == 1 and out == built.render() + "\n"


def test_a_failed_or_undecided_scan_limit_makes_the_report_unclean(capsys, monkeypatch):
    # the u = 5 limit reads 2, below the ceiling (FAIL); the u = 3 limit is the
    # ceiling itself (UNDECIDED); the report's own constants are left alone
    def limit(u, bits):
        return IntervalReal.exact(2, bits) if u == 5 else opn.ceiling_interval(bits)

    monkeypatch.setattr(opn, "euler_sum_bound_limit", limit)
    sizes = dataclasses.replace(SMALL, oracle_limit=50, sandwich_pairs=5, order_candidates=5, mersenne_limit=31)
    built = run_report(7, DEFAULT_PRECISION, sizes)
    grid = len([q for q in arith.primes_up_to(sizes.scan_limit) if q % 4 == 1])
    suites = {s.name: s for s in built.suites}
    assert (suites["ceiling scan u=5"].cases, suites["ceiling scan u=5"].failures) == (grid + 1, 1)
    assert (suites["ceiling scan u=3"].cases, suites["ceiling scan u=3"].undecided) == (grid + 1, 1)
    assert all(c.match for c in built.constants)
    assert built.clean is False
    code, out = run_cli(capsys, "report", "--seed", "7", *size_flags(sizes))
    assert code == 1 and out == built.render() + "\n"
    code, out = run_cli(capsys, "scan", "--qmax", "100", "--u", "5", "--json")
    assert code == 1 and json.loads(out)["checks"][-1]["status"] == "FAIL"


def test_cli_scan_json_gives_the_verdicts_and_the_minimum_beside_them(capsys):
    code, out = run_cli(capsys, "scan", "--qmax", "30", "--u", "5", "--json")
    payload = json.loads(out)
    assert code == 0
    assert [c["name"] for c in payload["checks"]] == [
        "f(5, 5) > 1+sqrt(3)", "f(13, 5) > 1+sqrt(3)", "f(17, 5) > 1+sqrt(3)", "f(29, 5) > 1+sqrt(3)",
        "limit as q grows",
    ]
    assert payload["minimum"]["name"] == "minimum over scan"
    assert payload["minimum"]["status"] == "PASS" and payload["minimum"]["witness"].startswith("q = 5: f = 2.74")
    code, out = run_cli(capsys, "scan", "--qmax", "4", "--u", "3", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["minimum"] is None
    assert [c["name"] for c in payload["checks"]] == ["limit as q grows"]


def test_cli_leaves_no_traceback_when_the_reader_closes_stdout():
    # the JSON (about 100 kB) outgrows the pipe, so the writer is still writing when the reader leaves
    src = os.path.dirname(os.path.dirname(abundancy.__file__))
    argv = [sys.executable, "-m", "abundancy", "scan", "--qmax", "10000", "--u", "5", "--json"]
    with subprocess.Popen(argv, env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as process:
        assert process.stdout.read(100).startswith(b"{")
        process.stdout.close()
        err = process.stderr.read()
        code = process.wait(timeout=30)
    assert (code, err) == (1, b"")


@pytest.mark.parametrize("argv, shown", [
    (["sigma", "3*"], "p in the factor '' must be an integer, got ''"),
    (["sigma", "3^"], "e in the factor '3^' must be an integer, got ''"),
    (["sigma", "^2"], "p in the factor '^2' must be an integer, got ''"),
    (["sigma", "3^2^2"], "e in the factor '3^2^2' must be an integer, got '2^2'"),
    (["sigma", ""], "p in the factor '' must be an integer, got ''"),
    (["sigma", "x"], "p in the factor 'x' must be an integer, got 'x'"),
    (["abundancy", "3*5^x"], "e in the factor '5^x' must be an integer, got 'x'"),
    (["sigma", "y" * 1000], "p in the factor 'yyyyyyyyyyyy...yyyyyyyyyyyyy' must be an integer, "
                            "got 'yyyyyyyyyyyy...yyyyyyyyyyyyy'"),
    (["check", "q=x", "k=1", "n=9"], "q must be an integer, got 'x'"),
    (["check", "q=5", "k=1.5", "n=9"], "k must be an integer, got '1.5'"),
    (["check", "q=5", "k=1", "n=3^"], "e in the factor '3^' must be an integer, got ''"),
])
def test_cli_names_malformed_text(capsys, argv, shown):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {shown}\n"


def test_cli_respects_bits_flag(capsys):
    # an exponent's logs are taken at --bits + 4 + bits(p^(e+1)) bits, 64 + 4 + 4
    # for x(3)
    code, out = run_cli(capsys, "exponent", "3", "--bits", "64")
    assert code == 0 and out.endswith("@72b\n")


def test_cli_precision_and_margin_defaults_are_the_library_defaults():
    args = cli.build_parser().parse_args(["scan", "--qmax", "100", "--u", "5"])
    assert args.bits == DEFAULT_PRECISION.initial_bits
    assert args.max_bits == DEFAULT_PRECISION.max_bits
    assert args.margin == DEFAULT_MARGIN


def test_cli_exponent_of_big_prime_escalates(capsys):
    # the precision goes past 256 bits in one step, with no ladder: D's logs
    # are taken at 256 + 4 + bits(p^2) = 861 bits
    code, out = run_cli(capsys, "exponent", str(BIG_PRIME))
    assert code == 0 and out.endswith("@861b\n")


def test_cli_exponent_with_a_log_not_separated_from_zero_prints_the_range(capsys, monkeypatch):
    # an absolute 256-bit enclosure of ln I(p) ~ 1/p would not be above zero;
    # at relative precision the range printed lies strictly inside (1, 2) and
    # holds the oracle's value
    returned = []
    original = cli.abundancy_exponent

    def spy(f, bits):
        returned.append(original(f, bits))
        return returned[-1]

    monkeypatch.setattr(cli, "abundancy_exponent", spy)
    code, out = run_cli(capsys, "exponent", str(BIG_PRIME))
    assert code == 0 and out.endswith(" = 1.000000000 ± 5e-179 @861b\n")
    x = returned[0].value
    assert 1 < x.lo and x.hi < 2 and x.width < (x.lo - 1) / 2**256
    prec = 2 * x.bits + 64
    ref = exponent_oracle(returned[0].of, prec)
    assert x.lo - ref / 2 ** (prec - 24) <= ref <= x.hi + ref / 2 ** (prec - 24)


@pytest.mark.parametrize("argv, name, reference", [
    (["bound", "--L", "8/5"], "index_lower_bound", lambda y: (mpmath.mpf(8) / 5) ** y),
    (["f", "--q", "5"], "euler_sum_bound", lambda y: mpmath.mpf(6) / 5 + (mpmath.mpf(10) / 6) ** y),
])
def test_cli_bound_with_a_log_not_separated_from_zero_prints_an_enclosure(capsys, monkeypatch, argv, name, reference):
    # an absolute 256-bit ln I(BIG_PRIME) would not be above zero; 1/x(BIG_PRIME),
    # taken at relative precision, decides at --bits, and the bound printed
    # holds the true value to about 2^-284
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
    code, out = run_cli(capsys, *argv, "--u", str(BIG_PRIME))
    assert code == 0 and out.endswith(f" = {returned[0].render()}\n") and out.endswith("@256b\n")
    assert returned[0].lo < ref < returned[0].hi and returned[0].width < Fraction(1, 2**280)


def test_cli_exponent_at_the_ceiling_prints_the_last_enclosure(capsys, monkeypatch):
    # x(3^5000) - 1 is about 3^-5000; the 4096-bit ceiling does not bind an
    # exponent, whose one enclosure, taken at 256 + 4 + bits(3^5001) bits, is
    # printed and shows 1 < x < 2
    returned = []
    original = cli.abundancy_exponent

    def spy(f, bits):
        returned.append(original(f, bits))
        return returned[-1]

    monkeypatch.setattr(cli, "abundancy_exponent", spy)
    code, out = run_cli(capsys, "exponent", "3^5000")
    assert code == 0 and out == f"x(3^5000) = {returned[0].value.render()}\n" and out.endswith("@8187b\n")
    x = returned[0].value
    assert 1 < x.lo and x.hi < 2
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


@pytest.mark.parametrize("argv", [
    ["sigma", "4_5"],
    ["sigma", "+45"],
    ["check", "q=5", "k=1", "n=4_5"],
])
def test_cli_reads_a_bare_integer_as_int_does(capsys, argv):
    # a bare n and every factor follow one grammar, int()'s: 4_5 and +45 are 45
    main(argv)
    captured = capsys.readouterr()
    assert captured.err == "" and "3^2*5" in captured.out.splitlines()[0]


@pytest.mark.parametrize("flag", ["--bits", "--max-bits"])
def test_cli_rejects_precision_above_cap(capsys, flag):
    code = main(["sandwich", "3", "5", flag, "16385"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --bits and --max-bits must not exceed 16384\n"


# the seven commands that read a precision, each with a cheap input
PRECISION_COMMANDS = {
    "exponent": ["3"], "sandwich": ["3", "5"], "check": ["q=5", "k=1", "n=3^2"],
    "bound": ["--L", "8/5", "--u", "3"], "f": ["--q", "5", "--u", "5"],
    "scan": ["--qmax", "20", "--u", "5"], "report": [],
}


# the four whose verdicts climb the precision ladder, and so read --max-bits
CLIMBING_COMMANDS = ("sandwich", "check", "scan", "report")


def test_cli_precision_commands_keep_both_flags_their_defaults_and_the_cap(capsys):
    # each keeps --bits; only the climbing four keep --max-bits
    parser = cli.build_parser()
    for command, argv in PRECISION_COMMANDS.items():
        args = parser.parse_args([command, *argv])
        climbs = command in CLIMBING_COMMANDS
        assert (args.bits, getattr(args, "max_bits", None)) == (256, 4096 if climbs else None)
        for flag in ("--bits", "--max-bits")[:1 + climbs]:
            assert main([command, *argv, flag, "16385"]) == 2
            assert capsys.readouterr().err == "error: --bits and --max-bits must not exceed 16384\n"


@pytest.mark.parametrize("flag", ["--bits", "--max-bits"])
@pytest.mark.parametrize("argv", [
    ["sigma", "45"], ["abundancy", "45"], ["classify", "13"], ["mersenne", "--limit", "7"],
    *([command, *argv] for command, argv in PRECISION_COMMANDS.items()),
])
def test_cli_commands_that_read_no_precision_refuse_the_precision_flags(capsys, argv, flag):
    # the four exact commands refuse both flags: there a precision flag would be
    # read by nothing, so no cap would apply. exponent, bound and f evaluate a
    # value once and refuse --max-bits, which only a climbing verdict reads.
    # Every flag a command accepts meets the cap.
    command = f"abundancy {argv[0]}"
    if argv[0] in CLIMBING_COMMANDS or (argv[0] in PRECISION_COMMANDS and flag == "--bits"):
        assert main([*argv, flag, "20000"]) == 2
        assert capsys.readouterr().err == "error: --bits and --max-bits must not exceed 16384\n"
        return
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, flag, "20000"])
    assert exit_info.value.code == 2
    usage, *_, line = capsys.readouterr().err.splitlines()
    assert usage.startswith(f"usage: {command} ") and line.startswith(f"{command}: error: ")
    assert flag in line and len(line) < 200


@pytest.mark.parametrize("argv, prog, refused", [
    (["sigma", "45", "--bits", "300"], "abundancy sigma", "--bits 300"),
    (["report", "--seed", "1", "--verbose"], "abundancy report", "--verbose"),
    (["check", "q=5", "k=1", "n=9", "--foo", "--" + "7" * 5000], "abundancy check",
     "--foo --77777777777777777777...77777777777777777777 (5000 digits)"),
    (["--bits=300", "sigma", "45"], "abundancy", "--bits=300"),  # before the command: the top parser's
], ids=["sigma", "report", "check", "before_the_command"])
def test_cli_the_parser_that_reads_an_argument_refuses_it(capsys, argv, prog, refused):
    # argparse hands a subcommand's unknown arguments back to the top parser,
    # whose error names no command
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    usage, *_, line = capsys.readouterr().err.splitlines()
    assert usage.startswith(f"usage: {prog} [-h]")
    assert line == f"{prog}: error: unrecognized arguments: {refused}" and len(line) < 200


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


@pytest.mark.parametrize("accepted, refused, bits", [
    (["exponent", "3^41348"], ["exponent", "3^41349"], "the input has about 65537 bits"),
    (["check", "q=5", "k=28223", "n=3"], ["check", "q=5", "k=28224", "n=3"], "q^k * n^2 has about 65539 bits"),
], ids=["exponent", "check"])
def test_cli_counts_a_prime_power_at_its_own_bit_length_up_to_the_cap(capsys, accepted, refused, bits):
    # 3^41348 has 65,536 bits, and 5^28223 65,532 to which n^2 adds 2 * 2:
    # both sit at the cap, though e * bitlength(p) would count 82,696 and 84,669
    assert main(accepted) in (0, 1) and capsys.readouterr().err == ""
    assert main(refused) == 2
    assert capsys.readouterr().err == f"error: {bits}; inputs are capped at 65536 bits\n"


# 4,001 digits: below Python's 4,300-digit conversion limit, even, so no
# primality test takes long
WIDE_EVEN = 10**4000 + 2


@pytest.mark.parametrize("argv", [
    ["classify", str(WIDE_EVEN)],
    ["classify", str(-WIDE_EVEN)],
    ["f", "--q", str(WIDE_EVEN), "--u", "5"],
    ["bound", "--L", "8/5", "--u", str(WIDE_EVEN)],
    ["sigma", f"2*{WIDE_EVEN}"],
    ["scan", "--qmax", str(WIDE_EVEN), "--u", "5"],
    ["mersenne", "--limit", str(WIDE_EVEN)],
    ["mersenne", "--limit", str(-WIDE_EVEN)],
    ["report", "--oracle-limit", str(WIDE_EVEN)],
    ["scan", "--qmax", "100", "--u", "5", "--margin", str(-WIDE_EVEN)],
    ["scan", "--qmax", "100", "--u", "5", "--margin", f"-1/{WIDE_EVEN}"],
])
def test_cli_error_line_abbreviates_a_wide_integer(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 200
    shown = "10000000000000000000...00000000000000000002 (4001 digits)"
    assert shown in err and (f"-{shown}" in err) == (str(-WIDE_EVEN) in argv)


@pytest.mark.parametrize("argv", [
    ["sandwich", "3^2000", "3^2000"],
    ["sandwich", "3^20000", "3^20000"],  # 9,543 digits, past str()'s limit
    ["sigma", f"3^{WIDE_EVEN}"],
    ["check", "q=5", f"k={WIDE_EVEN}", "n=3"],
    ["check", "q=5", "k=1", "n=3", "x" * 3000],
    ["sigma", "x" * 3000],
])
def test_cli_error_line_is_one_bounded_line(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 200
    if argv[1] == "3^20000":
        assert "coprime" in err


def test_cli_names_the_digit_limit_of_a_decimal_integer(capsys):
    # int()'s own error advises sys.set_int_max_str_digits(), a call no CLI user can make
    limit = sys.get_int_max_str_digits()
    assert main(["sigma", "1" * (limit + 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: p in the factor ") and err.count("\n") == 1 and len(err) <= 200
    assert f"more than {limit} digits" in err and "factored form" in err


@pytest.mark.parametrize("argv", [
    ["mersenne", "--limit", "x" * 3000],
    ["mersenne", "--limit", "7" * 5000],  # past int()'s 4,300-digit limit
    ["exponent", "45", "--bits", "x" * 3000],
    ["x" * 3000],  # no such command
])
def test_cli_argparse_error_lines_are_bounded(capsys, argv):
    # argparse's own errors never reach main's handler: its usage block, then
    # its error line, cut like main's
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: abundancy") and ": error: argument " in lines[-1]
    assert all(len(line) < 200 for line in lines)
    assert ("(5000 digits)" in lines[-1]) == ("7" * 5000 in argv)
    assert (f"has more than {sys.get_int_max_str_digits()} digits" in lines[-1]) == ("7" * 5000 in argv)


def test_cli_bound_error_line_abbreviates_a_wide_rational(capsys):
    assert main(["bound", "--L", f"{10**3799}/{10**3800 - 1}", "--u", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the bound collapses for L <= 1, got 1000000000")
    assert err.count("\n") == 1 and len(err) <= 200 and "(3800 digits)" in err


@pytest.mark.parametrize("argv", [
    ["bound", "--L", "1e10000000", "--u", "3"],
    ["bound", "--L", "1e-10000000", "--u", "3"],
    ["bound", "--L", "0e10000000", "--u", "3"],
    ["scan", "--qmax", "20", "--u", "5", "--margin", "1e10000000"],
])
def test_cli_caps_a_rational_before_building_it(argv):
    # Fraction would build 10^10000000 in full; the text alone shows its size
    done = run_bounded(*argv, seconds=10)
    assert done.returncode == 2 and done.stdout == ""
    *usage, line = done.stderr.splitlines()
    assert usage[0].startswith("usage: abundancy") and len(line) < 200
    option = next(arg for arg in argv if arg in ("--L", "--margin"))
    text = argv[argv.index(option) + 1]
    assert line.endswith(f"error: argument {option}: {text!r} has about 33220004 bits; inputs are capped at 65536 bits")


def test_cli_caps_a_rational_in_process(capsys):
    # 10^100000 needs about 332,204 bits, past the cap (10^10000, inside it, is
    # taken by test_cli_bound_takes_and_shows_a_wide_rational_inside_the_cap)
    with pytest.raises(SystemExit) as exit_info:
        main(["bound", "--L", "1e100000", "--u", "3"])
    assert exit_info.value.code == 2
    usage, *_, line = capsys.readouterr().err.splitlines()
    assert usage.startswith("usage: abundancy bound")
    assert line == "abundancy bound: error: argument --L: '1e100000' has about 332204 bits; inputs are capped at 65536 bits"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_cli_bound_takes_and_shows_a_wide_rational_inside_the_cap(capsys, json_flag):
    # 10^5000 has more digits than str() converts; 10^10000 (33,220 bits) is inside the cap
    for exponent, digits, head in ((5000, 5001, "4.459180988e+3911"), (10000, 10001, "1.988429508e+7823")):
        code, out = run_cli(capsys, "bound", "--L", f"1e{exponent}", "--u", "3", *json_flag)
        shown = f"10000000000000000000...00000000000000000000 ({digits} digits)"
        assert code == 0
        if json_flag:
            payload = json.loads(out)
            assert payload["L"] == shown and payload["bound"].startswith(head)
        else:
            assert out.startswith(f"({shown})^(1/x(3)) = {head} ")


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


def test_report_sizes_refuse_a_negative_size():
    # a negative size would make a suite of -3 cases that reads clean
    zero = {f.name: 0 for f in dataclasses.fields(ReportSizes)}
    with pytest.raises(ValueError, match="^report size oracle_limit must not be negative, got -3$"):
        ReportSizes(**{**zero, "oracle_limit": -3, "sandwich_pairs": -2, "order_candidates": -1})
    for name in zero:
        with pytest.raises(ValueError, match=f"^report size {name} must not be negative, got -1$"):
            ReportSizes(**{**zero, name: -1})


@pytest.mark.parametrize("limit", [0, 1])
def test_cli_report_takes_a_mersenne_limit_below_two(capsys, limit):
    # like every other size, a limit with nothing to scan leaves its suite empty
    zero = {f.name: 0 for f in dataclasses.fields(ReportSizes)}
    sizes = ReportSizes(**{**zero, "mersenne_limit": limit})
    code, out = run_cli(capsys, "report", "--json", *size_flags(sizes))
    assert code == 0
    mersenne = next(s for s in json.loads(out)["suites"] if s["name"] == "mersenne scan")
    assert (mersenne["cases"], mersenne["failures"], mersenne["undecided"]) == (0, 0, 0)


def test_a_value_asked_at_the_same_bits_is_computed_and_cached_once(capsys):
    # the index-bound check of a candidate with u = 3 (under the default
    # ceiling, climbing from 256 bits), the bound and f commands and a direct
    # call all ask for 1/x(3) at 256 bits, and all but f for (8/5)^(1/x(3)):
    # one key each, as the ceiling of a verdict is no part of a value's key
    for cached in (index.reciprocal_exponent, index.index_lower_bound):
        cached.cache_clear()
    candidate = opn.EulerianCandidate(13, 1, Factorization(((3, 2),)))
    assert opn.validate_eulerian(candidate).status_of("I(n) > index lower bound") is opn.CheckStatus.PASS
    assert main(["bound", "--L", "8/5", "--u", "3"]) == 0
    assert main(["f", "--q", "13", "--u", "3"]) == 0
    assert index.index_lower_bound(Fraction(8, 5), 3, 256).bits == 256
    assert capsys.readouterr().err == ""
    assert index.index_lower_bound.cache_info().misses == 1
    assert index.reciprocal_exponent.cache_info().misses == 1


def test_precision_config_guard():
    with pytest.raises(ValueError):
        PrecisionConfig(0, 10)


# A fixed battery of CLI runs, each pinned by its exit code, stdout and stderr.
# Argparse usage and help text, which vary across Python versions, are left
# out, and so is the report, which report-seed42.json pins. Regenerate the
# file with `PYTHONPATH=src python tests/test_report_cli.py`.
CLI_GOLDEN = Path(__file__).parent / "data" / "cli-golden.json"
CLI_BATTERY = [
    ["sigma", "45"], ["sigma", "3^2*5"], ["sigma", "1", "--json"], ["sigma", "2^15000"],
    ["sigma", str(10000000019 * 20000000089)],
    ["abundancy", "45"], ["abundancy", "3^2*5", "--json"],
    ["exponent", "45"], ["exponent", "3^2*5", "--json"], ["exponent", "3^5000"],
    ["exponent", str(2**300 + 157)],  # the least prime above 2^300
    ["sandwich", "3", "5"], ["sandwich", "9", "25", "--json"], ["sandwich", "3", "9"],
    ["check", "q=5", "k=1", "n=3^2"], ["check", "q=5", "k=1", "n=3^2", "--json"],
    ["check", "q=5", "k=1", "n=3^2", "q=13"],
    ["bound", "--L", "8/5", "--u", "5"], ["bound", "--L", "8/5", "--u", "3", "--json"],
    ["f", "--q", "5", "--u", "5"], ["f", "--q", "13", "--u", "3", "--json"],
    ["scan", "--qmax", "100", "--u", "5", "--verbose"], ["scan", "--qmax", "100", "--u", "3"],
    ["scan", "--qmax", "60", "--u", "5", "--json"], ["scan", "--qmax", "60", "--u", "3", "--verbose", "--json"],
    ["scan", "--qmax", "100", "--u", "5", "--margin=-1/1000"],
    ["classify", "13"], ["classify", "17", "--json"], ["classify", "9"],
    ["mersenne", "--limit", "200"], ["mersenne", "--limit", "200", "--json"], ["mersenne", "--limit", "99999"],
    ["sigma", "3^x"], ["sigma", "3*"], ["abundancy", "3^-1"], ["sigma", "5*3"], ["sigma", "9^2"],
    ["sigma", "-7"], ["sigma", "0"], ["check", "q=5", "k=1", "n=3^^2"],
    ["sigma", "2^70000"], ["exponent", "3^100000"], ["check", "q=5", "k=40000", "n=3"],
    ["scan", "--qmax", "2000000", "--u", "5"], ["exponent", "3", "--bits", "20000"],
    # Descartes' spoof: sigma(n^2)(q+1) = 2N holds for q = 19^2*61 read as a prime; computed honestly, it fails
    ["check", "q=22021", "k=1", "n=3*7*11*13"],
]


def _cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_output_matches_the_golden_file():
    golden = json.loads(CLI_GOLDEN.read_text(encoding="utf-8"))
    assert [run["argv"] for run in golden] == CLI_BATTERY
    for run in golden:
        assert _cli_run(run["argv"]) == run


if __name__ == "__main__":
    runs = [_cli_run(argv) for argv in CLI_BATTERY]
    CLI_GOLDEN.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
