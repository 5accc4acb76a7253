"""One measurement pass in a fresh interpreter.

    python3 bench/worker.py '{"workload": ..., "seed": ..., "rounds": ..., "trace": false}'

Imports the library from ``src/`` next to this directory (and refuses any
other copy), runs the workload's warm-up request, then the first ``rounds``
rounds of the seeded stream. Each request's wall and CPU time are taken
alone and scaled to a reference machine speed by ``speed.Clock``; the
requests of a round run back to back, with the cyclic garbage collector
off, and their correctness gates run after the round. A library exception
marks the request failed; a wrong answer aborts the pass. Prints one JSON
object.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

import speed

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WALL_CAP_S = 120.0  # stop after the round that passes this, gates included
CALIBRATE_EVERY_S = 0.03  # request time between two machine-speed calibrations

# traced function -> reported layer; functions not listed keep their own name
LAYER = {
    "interval.ln_ratio": "interval.ln",
    "interval.ln_interval": "interval.ln",
    "interval.exp_ratio": "interval.exp",
    "interval.exp_interval": "interval.exp",
    "interval.sqrt_ratio": "interval.sqrt",
    "index.abundancy_exponent": "index.exponent",
    "index.prime_power_exponent": "index.exponent",
    "arith.Factorization.__post_init__": "arith.Factorization",
}
KERNELS = ("interval.ln", "interval.exp", "interval.sqrt")
RUNGS = (256, 512, 1024, 2048, 4096)


def import_library():
    sys.path.insert(0, str(SRC))
    import abundancy

    if Path(abundancy.__file__).resolve().parent != SRC / "abundancy":
        raise SystemExit(f"abundancy imported from {abundancy.__file__}, not from {SRC}")
    return abundancy


def layer_counters(tracer) -> dict[str, float]:
    """Per-layer calls and self times from the spans of a traced pass."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    extra: Counter = Counter()
    kernel_by_request: dict[int, list[tuple[int, float]]] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, request, _, label, _, _, error = span
        layer = LAYER.get(name, name)
        if name.startswith("interval.IntervalReal."):
            layer = "interval.ring"
        calls[layer] += 1
        self_s[layer] += own
        if layer in ("interval.ln", "interval.exp"):
            calls[f"{layer}.b{label}"] += 1
            self_s[f"{layer}.b{label}"] += own
        if layer in KERNELS:
            kernel_by_request.setdefault(request, []).append((label, own))
        if name.startswith("interval."):
            extra["interval.calls"] += 1
        if name == "arith.is_prime" and label:
            extra["arith.is_prime.big_calls"] += 1
        if name == "arith.factorize" and error == "FactorizationBudgetError":
            extra["arith.factorize.budget_errors"] += 1
    kernel_total = sum(own for spans in kernel_by_request.values() for _, own in spans)
    wasted = 0.0
    for spans in kernel_by_request.values():
        final = max(bits for bits, _ in spans)
        wasted += sum(own for bits, own in spans if bits < final)
    out = {
        "arith.is_prime.calls": calls["arith.is_prime"],
        "arith.is_prime.self_s": self_s["arith.is_prime"],
        "arith.is_prime.big_calls": extra["arith.is_prime.big_calls"],
        "arith.Factorization.validations": calls["arith.Factorization"],
        "arith.Factorization.self_s": self_s["arith.Factorization"],
        "arith.factorize.calls": calls["arith.factorize"],
        "arith.factorize.self_s": self_s["arith.factorize"],
        "arith.factorize.budget_errors": extra["arith.factorize.budget_errors"],
        "arith.sigma.calls": calls["arith.sigma"],
        "arith.sigma.self_s": self_s["arith.sigma"],
    }
    for kernel in ("interval.ln", "interval.exp"):
        for bits in RUNGS:
            out[f"{kernel}.calls.b{bits}"] = calls[f"{kernel}.b{bits}"]
            out[f"{kernel}.self_s.b{bits}"] = self_s[f"{kernel}.b{bits}"]
    out.update({
        "interval.sqrt.calls": calls["interval.sqrt"],
        "interval.sqrt.self_s": self_s["interval.sqrt"],
        "interval.ring.calls": calls["interval.ring"],
        "interval.ring.self_s": self_s["interval.ring"],
        "interval.calls": extra["interval.calls"],
        "interval.escalation_waste_frac": wasted / kernel_total if kernel_total else 0.0,
        "index.sandwich_check.self_s": self_s["index.sandwich_check"],
        "index.exponent.self_s": self_s["index.exponent"],
        "index.index_lower_bound.self_s": self_s["index.index_lower_bound"],
        "opn.validate_eulerian.self_s": self_s["opn.validate_eulerian"],
        "opn.order_predicates.self_s": self_s["opn.order_predicates"],
        "opn.euler_sum_bound.self_s": self_s["opn.euler_sum_bound"],
        "mersenne.lucas_lehmer.calls": calls["mersenne.lucas_lehmer"],
        "mersenne.lucas_lehmer.self_s": self_s["mersenne.lucas_lehmer"],
        "mersenne.even_perfect_from_exponent.self_s": self_s["mersenne.even_perfect_from_exponent"],
    })
    return out


def run_pass(workload: str, seed: int, rounds: int, trace: bool, trace_path: str | None = None) -> dict:
    # these import abundancy, so only after import_library() has chosen src/
    import gates
    import stats
    import tracing
    import workloads
    from abundancy import index

    warm = workloads.WARM_UP[workload]
    gates.check(warm, workloads.execute(warm))

    stream = workloads.make_rounds(workload, random.Random(f"{workload}/{seed}"), rounds)
    tracer = tracing.Tracer() if trace else None
    cache = getattr(index.reciprocal_exponent, "cache_info", None)
    cache_before = cache() if cache else None
    started = perf_counter()
    errors, decided_at, precision_mix = Counter(), Counter(), Counter()
    clock = speed.Clock(CALIBRATE_EVERY_S)
    attempted = completed = failed = certified = exhausted = reused = prime_power_total = done = 0
    seen: set = set()
    if tracer:
        tracer.install()
    try:
        for done, requests in enumerate(stream, 1):
            # A round's requests run back to back and are gated after it:
            # with a gate between two requests, the sandwich tail was 15-40 %
            # higher, by an amount that varied with the seed. The cyclic
            # collector is off while a request runs: it is set off by
            # allocation counts, and in one sandwich pass its 20 gen-1 and 2
            # gen-2 collections (up to 1.5 and 15 ms) landed on 22 of 18000
            # requests and set the tail, which then moved 20 % from seed to
            # seed. Refcounting still frees what a request drops; only
            # garbage in reference cycles waits for the next, untimed,
            # collection.
            answers = []
            for request in requests:
                attempted += 1
                if tracer:
                    tracer.request = attempted
                gc.disable()
                t0, c0 = perf_counter(), process_time()
                try:
                    answers.append((workloads.execute(request), None))
                except Exception as exc:  # a library failure is a measured outcome
                    answers.append((None, type(exc).__name__))
                t1, c1 = perf_counter(), process_time()
                gc.enable()  # a collection now due runs here, untimed
                if tracer:
                    tracer.request = None
                clock.record(t1 - t0, c1 - c0)
            for request, (result, error) in zip(requests, answers):
                for power in workloads.prime_powers(request):
                    reused += power in seen
                    seen.add(power)
                    prime_power_total += 1
                precision_mix[str(workloads.requested_bits(request))] += 1
                if error is not None:
                    failed += 1
                    errors[error] += 1
                    exhausted += error == "ArithmeticError"  # exponent ladder ran out
                    continue
                gates.check(request, result)
                completed += 1
                undecided, bits, top = workloads.outcome(request, result)
                certified += undecided == 0
                exhausted += top
                decided_at.update(bits)
            if perf_counter() - started >= WALL_CAP_S:
                break
    finally:
        if tracer:
            tracer.uninstall()

    raw_wall_s = sum(times[0] for times in clock.times)
    scaled = clock.scaled()
    summary = stats.summary([cpu for _, cpu in scaled], completed, sum(wall for wall, _ in scaled))
    out = {
        "rounds": done,
        "summary": summary,
        "attempted": attempted,
        "failed": failed,
        "certified": certified,
        "errors": dict(errors),
        "measured_s": raw_wall_s,
        "calibrations": len(clock.points),
        "kernel_median_s": statistics.median(kernel for _, kernel in clock.points),
        "reuse_share": reused / prime_power_total,
        "precision_mix": {k: v / attempted for k, v in sorted(precision_mix.items())},
        "decided_at": {str(k): v for k, v in sorted(decided_at.items())},
        "ladder_exhausted": exhausted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        counters = layer_counters(tracer)
        for bits in RUNGS:
            counters[f"index.decided_at.b{bits}"] = decided_at[bits]
        counters["index.ladder_exhausted"] = exhausted
        if cache:
            after = cache()
            hits, misses = after.hits - cache_before.hits, after.misses - cache_before.misses
            counters["index.reciprocal_exponent.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        else:
            counters["index.reciprocal_exponent.hit_ratio"] = 0.0
        counters["workload.prime_power_reuse_share"] = out["reuse_share"]
        out["counters"] = counters
        if trace_path:
            tracer.write(trace_path)
    return out


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    import_library()
    result = run_pass(spec["workload"], spec["seed"], spec["rounds"], spec["trace"], spec.get("trace_path"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
