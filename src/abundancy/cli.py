"""Command-line interface: one subcommand per library operation plus the
`report` regression document. Exit code 0 means no failures and nothing
undecided."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from fractions import Fraction
from typing import Iterable, NoReturn

from .arith import Factorization, FactorizationBudgetError, factor_pairs, parse_integer, render_exact, sigma
from .index import (
    SandwichStatus,
    abundancy_exponent,
    abundancy_index,
    index_lower_bound,
    sandwich_check,
)
from .interval import DEFAULT_PRECISION, PrecisionConfig
from .mersenne import DESK_SCALE_CAP, mersenne_scan
from .opn import (
    DEFAULT_MARGIN,
    CheckStatus,
    EulerianCandidate,
    ceiling_scan,
    euler_sum_bound,
    residual_case_classify,
    validate_eulerian,
)
from .report import ReportSizes, run_report

# Input caps, so that every command ends in bounded time and memory.
# On a 2-core x86-64 VM, `exponent 3^32768` prints its 52,198-bit enclosure after 0.2 s and
# `scan --qmax 1000000 --u 5` takes 6.5-7.5 s; the sieve holds one byte per integer.
MAX_INPUT_BITS = 1 << 16
MAX_SCAN_LIMIT = 10**6
# Each report corpus size is capped at or above its full-scale acceptance size.
MAX_REPORT_SIZES = ReportSizes(oracle_limit=10**5, sandwich_pairs=10**4, grid_prime_limit=10**4,
                               grid_exponent_max=20, chain_prime_limit=10**4, order_candidates=10**4,
                               scan_limit=MAX_SCAN_LIMIT, mersenne_limit=DESK_SCALE_CAP)


def _exact_rational(text: str) -> Fraction:
    """text as a Fraction. Fraction builds 10^exponent in full, so the digits and
    the exponent are held to MAX_INPUT_BITS first, from the text alone."""
    head, _, exponent = text.lower().partition("e")
    scale = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    places = sum(c.isdigit() for c in head) + (int(scale[:10]) if scale.isdecimal() else 0)
    bits = (places * 3322 + 999) // 1000  # at least places * log2(10)
    if bits > MAX_INPUT_BITS:
        raise argparse.ArgumentTypeError(
            f"{text!r} has about {bits} bits; inputs are capped at {MAX_INPUT_BITS} bits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a finite exact rational: {text!r}") from None


def _integer(text: str) -> int:
    """An integer option, read by parse_integer's rule. Past int()'s digit
    limit its error shows the whole text, whose digits _error_line cuts."""
    try:
        return parse_integer(text, "the value", f", got {text!r}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _error_line(text: str) -> str:
    """text cut to 199 characters, 200 with its newline; runs of more than 40
    digits are shortened first, on the text, so int() cannot raise."""
    return re.sub(r"\d{41,}", lambda m: f"{m[0][:20]}...{m[0][-20:]} ({len(m[0])} digits)", text)[:199]


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        """Every parser here, each subcommand's too, refuses an argument it does
        not declare; argparse would hand a subcommand's back to the top parser."""
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message: str) -> NoReturn:
        """argparse's own error, its line bounded like main's."""
        self.print_usage(sys.stderr)
        self.exit(2, _error_line(f"{self.prog}: error: {message}") + "\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    precision = argparse.ArgumentParser(add_help=False)  # for the commands that call _cfg
    precision.add_argument("--bits", type=_integer, default=DEFAULT_PRECISION.initial_bits,
                           help="working precision in bits (default %(default)s)")
    ceiling = argparse.ArgumentParser(add_help=False)  # and those whose verdicts climb
    ceiling.add_argument("--max-bits", type=_integer, default=DEFAULT_PRECISION.max_bits,
                         help="precision ceiling for escalation (default %(default)s)")

    parser = _Parser(
        prog="abundancy",
        description="Exact and certified arithmetic around the abundancy index "
        "and odd-perfect-number constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse takes only tokens like -5 and -.5 for negative numbers and any
    # other token that starts with '-' for an option; no option here starts
    # with a digit, so a negative rational such as -1/1000 is a value too
    negative_number = re.compile(r"^-\.?\d")

    def command(handler, *parents: argparse.ArgumentParser, help: str) -> argparse.ArgumentParser:
        """The subcommand named after handler (`_cmd_<name>`), which main calls."""
        p = sub.add_parser(handler.__name__.removeprefix("_cmd_"), parents=[common, *parents], help=help)
        p.set_defaults(handler=handler)
        p._negative_number_matcher = negative_number
        return p

    p = command(_cmd_sigma, help="divisor sum of n")
    p.add_argument("value", help="integer or factored form like 3^2*5")

    p = command(_cmd_abundancy, help="abundancy index sigma(n)/n")
    p.add_argument("value")

    p = command(_cmd_exponent, precision, help="abundancy exponent x(n) at relative precision")
    p.add_argument("value")

    p = command(_cmd_sandwich, precision, ceiling, help="certify min(x(a),x(b)) < x(ab) < max(x(a),x(b))")
    p.add_argument("a")
    p.add_argument("b")

    p = command(_cmd_check, precision, ceiling, help="validate an odd-perfect-number candidate line")
    p.add_argument("candidate", nargs="+", help="e.g. q=5 k=1 n=3^2")

    p = command(_cmd_bound, precision, help="certified lower bound L^(1/x(u))")
    p.add_argument("--L", required=True, type=_exact_rational, help="exact rational, e.g. 8/5")
    p.add_argument("--u", required=True, type=_integer, help="odd prime")

    p = command(_cmd_f, precision, help="Euler-prime bound f(q,u) = (q+1)/q + (2q/(q+1))^(1/x(u))")
    p.add_argument("--q", required=True, type=_integer)
    p.add_argument("--u", required=True, type=_integer)

    p = command(_cmd_scan, precision, ceiling, help="certify f(q,u) against 1+sqrt(3) over primes q = 1 (mod 4)")
    p.add_argument("--qmax", required=True, type=_integer)
    p.add_argument("--u", required=True, type=_integer)
    p.add_argument("--margin", type=_exact_rational, default=DEFAULT_MARGIN,
                   help="required clearance for u >= 5 (exact rational)")
    p.add_argument("--verbose", action="store_true", help="print every grid entry")

    p = command(_cmd_classify, help="residual case of an Euler prime mod 12")
    p.add_argument("q", type=_integer)

    p = command(_cmd_mersenne, help="Lucas-Lehmer exponent scan")
    p.add_argument("--limit", required=True, type=_integer,
                   help=f"largest exponent to test, at most {DESK_SCALE_CAP}")

    p = command(_cmd_report, precision, ceiling, help="full reproduction document")
    p.add_argument("--seed", type=_integer, default=42)
    for field in dataclasses.fields(ReportSizes):
        p.add_argument("--" + field.name.replace("_", "-"), type=_integer, default=field.default)
    return parser


def _cfg(args: argparse.Namespace) -> PrecisionConfig:
    ceiling = max(args.bits, getattr(args, "max_bits", 0))  # only a climbing verdict's command has one
    if ceiling > 16384:  # `bound` takes 0.2 s there, 1.6 s with a 3,800-digit --L
        raise ValueError("--bits and --max-bits must not exceed 16384")
    return PrecisionConfig(args.bits, ceiling)


def _require_size(what: str, bits: int) -> None:
    if bits > MAX_INPUT_BITS:
        raise ValueError(f"{what} has about {bits} bits; inputs are capped at {MAX_INPUT_BITS} bits")


def _input_bits(pairs: Iterable[tuple[int, int]]) -> int:
    """The sum of the p^e's bit lengths, which bounds their product's: exact
    for each p^e whose e * (bitlength(p) - 1) is within the cap; past it, p^e
    is over the cap itself, is never built and counts as e * bitlength(p)."""
    return sum((p**e).bit_length() if 0 < e * (p.bit_length() - 1) <= MAX_INPUT_BITS else e * p.bit_length()
               for p, e in pairs)


def _parse(text: str) -> Factorization:
    _require_size("the input", _input_bits(factor_pairs(text)))
    return Factorization.parse(text)


def _check_line(check) -> str:
    return f"  {check.status.value:9s} {check.name}: {check.witness}"


def _cmd_sigma(args) -> tuple[dict, str, int]:
    f = _parse(args.value)
    value = render_exact(sigma(f))
    return {"input": str(f), "sigma": value}, f"sigma({f}) = {value}", 0


def _cmd_abundancy(args) -> tuple[dict, str, int]:
    f = _parse(args.value)
    index = render_exact(abundancy_index(f))
    return {"input": str(f), "index": index}, f"I({f}) = {index}", 0


def _cmd_exponent(args) -> tuple[dict, str, int]:
    f = _parse(args.value)
    x = abundancy_exponent(f, _cfg(args).initial_bits).value.render()
    return {"input": str(f), "exponent": x}, f"x({f}) = {x}", 0


def _cmd_sandwich(args) -> tuple[dict, str, int]:
    fa = _parse(args.a)
    fb = _parse(args.b)
    result = sandwich_check(fa, fb, _cfg(args))
    x_a, x_b, x_ab = result.x_a.render(), result.x_b.render(), result.x_ab.render()
    payload = {"a": str(fa), "b": str(fb), "status": result.status.value,
               "x_a": x_a, "x_b": x_b, "x_ab": x_ab}
    text = f"{result.status.value}: x({fa}) = {x_a}, x({fb}) = {x_b}, x(ab) = {x_ab}"
    return payload, text, 0 if result.status is SandwichStatus.HOLDS else 1


def _cmd_check(args) -> tuple[dict, str, int]:
    q, k, n_text = EulerianCandidate.fields(" ".join(args.candidate))
    _require_size("q^k * n^2", _input_bits(((q, k),)) + 2 * _input_bits(factor_pairs(n_text)))
    candidate = EulerianCandidate(q, k, Factorization.parse(n_text))
    report = validate_eulerian(candidate, _cfg(args))
    lines = [f"candidate {candidate}", *map(_check_line, report.checks)]
    return {"candidate": str(candidate), **report.to_dict()}, "\n".join(lines), 0 if report.all_pass else 1


def _cmd_bound(args) -> tuple[dict, str, int]:
    value = index_lower_bound(args.L, args.u, _cfg(args).initial_bits).render()
    L = render_exact(args.L)
    return {"L": L, "u": args.u, "bound": value}, f"({L})^(1/x({args.u})) = {value}", 0


def _cmd_f(args) -> tuple[dict, str, int]:
    value = euler_sum_bound(args.q, args.u, _cfg(args)).render()
    return {"q": args.q, "u": args.u, "f": value}, f"f({args.q}, {args.u}) = {value}", 0


def _cmd_scan(args) -> tuple[dict, str, int]:
    if args.qmax > MAX_SCAN_LIMIT:
        raise ValueError(f"scan limit {args.qmax} exceeds the cap {MAX_SCAN_LIMIT}")
    report = ceiling_scan(args.qmax, args.u, _cfg(args), args.margin)
    statuses = [c.status for c in report.checks]
    shown = [c for c in report.rows if args.verbose or c.status is not CheckStatus.PASS]
    lines = [
        f"scanned {len(report.rows)} primes q = 1 (mod 4) up to {args.qmax} with u = {args.u}",
        *map(_check_line, filter(None, (*shown, report.minimum, report.limit))),  # an empty grid has no minimum
        f"failures: {statuses.count(CheckStatus.FAIL)}, "
        f"undecided: {statuses.count(CheckStatus.UNDECIDED)}",
    ]
    return {"qmax": args.qmax, "u": args.u, **report.to_dict()}, "\n".join(lines), 0 if report.all_pass else 1


def _cmd_classify(args) -> tuple[dict, str, int]:
    result = residual_case_classify(args.q)
    text = f"{result.case.value}: {result.notes}"
    return {"q": args.q, "case": result.case.value, "notes": result.notes}, text, 0


def _cmd_mersenne(args) -> tuple[dict, str, int]:
    exponents = mersenne_scan(args.limit)
    text = f"mersenne exponents <= {args.limit}: " + " ".join(str(p) for p in exponents)
    return {"limit": args.limit, "exponents": exponents}, text, 0


def _cmd_report(args) -> tuple[dict, str, int]:
    sizes = {f.name: getattr(args, f.name) for f in dataclasses.fields(ReportSizes)}
    for name, size in sizes.items():  # ahead of ReportSizes' own check, so the error names the cap
        cap = getattr(MAX_REPORT_SIZES, name)
        if not 0 <= size <= cap:
            raise ValueError(f"--{name.replace('_', '-')} {size} is outside the range 0 to {cap}")
    report = run_report(args.seed, _cfg(args), ReportSizes(**sizes))
    return report.to_dict(), report.render(), 0 if report.clean else 1


def main(argv: list[str] | None = None) -> int:
    """Run one command. Its handler returns (payload, text, exit code) and
    writes nothing; the JSON dump of the payload under --json, else the
    text, is printed here, and an error is one bounded line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        payload, text, code = args.handler(args)
        # flushed, so that a reader who closed the pipe is met here
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json else text, flush=True)
        return code
    except BrokenPipeError:
        # as in Python's note on SIGPIPE: with stdout on devnull, the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError, FactorizationBudgetError) as exc:
        print(_error_line(f"error: {exc}"), file=sys.stderr)
        return 2
