"""Benchmark of certified-verdict throughput on four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``. One
client sends requests in a closed loop (the next request goes out when the
previous one returns), in a worker process started for the run.

``--trace 0`` measures the end-to-end metrics: a fixed number of whole
rounds of the seeded stream (the count depends on S and the workload only,
never on how fast the code runs, so that two versions are measured on the
same requests); throughput, CPU per request and latency (median and tail,
a request's latency being its CPU time) over all of them; the share of requests that completed and that came back fully
certified; the worker's peak memory; and the set-up time (median of fresh
interpreters that import the library and serve one warm-up request). On a
shared 2-core box identical work runs up to 1.7 times slower for
milliseconds to minutes at a time, and the host takes the CPU away from the
process for milliseconds, so every time is scaled to a reference machine
speed, measured by a fixed stdlib kernel run right before and right after
the timed work, and latency is CPU time (see ``speed.py``).

``--trace 1`` gives the per-layer metrics: one round with every public
function of ``arith``, ``interval``, ``index``, ``opn``, ``mersenne`` and
``cli`` wrapped in spans (written to ``bench/out/trace-<workload>.jsonl``),
its overhead against the same round untraced, and the CLI cold start.

Every answer is checked outside the timed region (see ``gates.py``). The
last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it gives the details behind them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sandwich_corpus", "candidate_checks", "mersenne_perfect", "deep_precision")
SETUP_PROBES = 11
# rounds a run of 20 seconds measures (a run of S seconds measures S / 20
# times as many): on a 2-core x86-64 VM with Python 3.11 each such run takes
# 15-30 s with its gates, calibrations and set-up probes
ROUNDS_AT_20_S = {"sandwich_corpus": 18, "candidate_checks": 4, "mersenne_perfect": 3, "deep_precision": 5}
MIN_ROUNDS = 2
CLI_PROBES = 5


def _env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run_worker(spec: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {spec['workload']} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fresh_interpreter_s(args: list[str], expect: str = "") -> float:
    """Wall time of one fresh interpreter running ``args`` to its exit."""
    started = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=60)
    elapsed = perf_counter() - started
    if proc.returncode != 0 or expect not in proc.stdout:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"probe {args} failed")
    return elapsed


def setup_probes(workload: str, count: int) -> list[float]:
    """Times from a fresh interpreter to ``import abundancy`` plus the
    workload's warm-up request, at the reference machine speed."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; import abundancy, workloads; "
        f"w = workloads.WARM_UP[{workload!r}]; workloads.execute(w); print('ok')"
    )
    out = []
    for _ in range(count):
        before = speed.kernel_s()
        elapsed = fresh_interpreter_s(["-c", code], "ok")
        out.append(elapsed * speed.KERNEL_REF_S / ((before + speed.kernel_s()) / 2))
    return out


def cli_cold_start_s() -> float:
    return statistics.median(
        fresh_interpreter_s(["-m", "abundancy", "sigma", "45"], "78") for _ in range(CLI_PROBES)
    )


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(ROUNDS_AT_20_S[workload] * seconds / 20))


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    # set-up probes on both sides of the measured pass, so that their median
    # does not hang on the machine's speed in one short window
    setup = setup_probes(workload, SETUP_PROBES // 2)
    run = run_worker({"workload": workload, "seed": seed, "rounds": rounds_for(workload, seconds),
                      "trace": False}, timeout=150)
    setup += setup_probes(workload, SETUP_PROBES - len(setup))
    summary = run["summary"]
    metrics = {
        "throughput_ops_s": _metric(summary["completed"] / summary["wall_s"], "1/s"),
        "latency_p50_ms": _metric(1000 * summary["p50_s"], "ms"),
        "latency_tail_ms": _metric(1000 * summary["tail_s"], "ms"),
        "cpu_ms_per_op": _metric(1000 * summary["cpu_s"] / summary["requests"], "ms"),
        "completed_frac": _metric(1 - run["failed"] / run["attempted"], "fraction"),
        "certified_frac": _metric(run["certified"] / run["attempted"], "fraction"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
    }
    details = {
        "rounds": run["rounds"],
        "samples": run["attempted"],
        "tail_percentile": summary["tail_pct"],
        "failed_frac": run["failed"] / run["attempted"],
        "errors": run["errors"],
        "prime_power_reuse_share": run["reuse_share"],
        "precision_mix": run["precision_mix"],
        "decided_at": run["decided_at"],
        "measured_s": run["measured_s"],
        "calibrations": run["calibrations"],
        "kernel_median_s": run["kernel_median_s"],
    }
    return metrics, details, run


def per_layer(workload: str, seed: int) -> tuple[dict, dict, dict]:
    spec = {"workload": workload, "seed": seed, "rounds": 1}
    plain = run_worker(dict(spec, trace=False), timeout=75)
    BENCH.joinpath("out").mkdir(exist_ok=True)
    trace_path = BENCH / "out" / f"trace-{workload}.jsonl"
    traced = run_worker(dict(spec, trace=True, trace_path=str(trace_path)), timeout=75)
    counters = dict(traced["counters"])
    counters["trace.overhead_frac"] = traced["summary"]["wall_s"] / plain["summary"]["wall_s"] - 1
    counters["cli.cold_start_s"] = cli_cold_start_s()
    metrics = {name: _metric(value, unit_of(name)) for name, value in counters.items()}
    details = {
        "samples": traced["attempted"],
        "untraced_s": plain["measured_s"],
        "traced_s": traced["measured_s"],
        "errors": traced["errors"],
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, details, traced


def unit_of(name: str) -> str:
    if name.endswith("_s") or "self_s" in name:
        return "s"
    if name.endswith(("_frac", "_ratio", "_share")):
        return "fraction"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "abundancy" / "__init__.py").is_file():
        raise SystemExit(f"library source not found under {SRC}")

    if args.trace:
        metrics, details, run = per_layer(args.workload, args.seed)
    else:
        metrics, details, run = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **details}))
    print(json.dumps({
        "correct": True,  # a wrong answer aborts the worker before this point
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
