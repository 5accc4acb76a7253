"""Tests of the benchmark itself: seeded inputs, the percentile rule, the
machine-speed scaling, the tracer's wrappers and counters, and the
correctness gate."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_library()

import gates  # noqa: E402
import make_q_pool  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_workload_has_a_generator():
    assert set(run.WORKLOADS) == set(workloads.ROUNDS) == set(workloads.WARM_UP)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_repeat_for_a_seed(workload):
    first = workloads.make_rounds(workload, random.Random(f"{workload}/7"), 2)
    again = workloads.make_rounds(workload, random.Random(f"{workload}/7"), 2)
    other = workloads.make_rounds(workload, random.Random(f"{workload}/8"), 2)
    assert first == again
    assert first != other
    assert len(first) == 2 and all(first)


def test_round_count_depends_on_seconds_only():
    for workload in run.WORKLOADS:
        assert run.rounds_for(workload, 20) == run.rounds_for(workload, 20) >= run.MIN_ROUNDS
        assert run.rounds_for(workload, 60) >= run.rounds_for(workload, 20)


def test_large_candidates_follow_the_pool():
    pool = workloads._q_pool()
    size = sum(len(kind) for kind in pool.values())
    per_round = sum(workloads.LARGE_PER_ROUND.values())
    for kind, count in workloads.LARGE_PER_ROUND.items():
        # the round's share of each kind of q is the pool's, to within one q
        assert abs(len(pool[kind]) / size * per_round - count) < 1, kind
    rounds = workloads.make_rounds("candidate_checks", random.Random("candidate_checks/7"), 3)
    large = [r[1] for rnd in rounds for r in rnd if r[1] > 10**19]
    assert len(large) == len(set(large)) == 3 * per_round  # no q twice in a run
    for q, factors in ((r[1], r[4]) for rnd in rounds for r in rnd):
        assert workloads._value(factors) == q and q % 4 == 1


def test_large_q_are_dealt_one_per_effort_stratum():
    ordered = list(range(100))
    deck = workloads._deal(random.Random(1), ordered, 10)
    assert sorted(q // 10 for q in deck) == list(range(10))
    assert deck == workloads._deal(random.Random(1), ordered, 10)
    data = json.loads((BENCH / "data" / "random_q.json").read_text())
    effort = {tuple(map(tuple, f)): e for f, e in zip(data["factorizations"], data["rho_effort"])}
    for kind, ordered in workloads._q_pool().items():
        assert ordered == sorted(ordered, key=lambda f: (effort[f], workloads._value(f))), kind


def test_rho_effort_counts_only_rho_iterations():
    assert make_q_pool.rho_effort([(3, 2), (65537, 1)]) == 0  # one prime left after trial division
    assert 0 < make_q_pool.rho_effort([(1000003, 1), (1000033, 1)]) < make_q_pool.BUDGET


def test_clock_scales_each_request_by_the_kernel_runs_around_it(monkeypatch):
    kernel_runs = iter([0.002, 0.004, 0.006])
    monkeypatch.setattr(speed, "kernel_s", lambda: next(kernel_runs))
    clock = speed.Clock(every_s=0.01)
    clock.record(0.006, 0.005)  # calibrates first
    clock.record(0.006, 0.006)  # 0.012 s since: calibrates after it
    clock.record(0.001, 0.001)
    scaled = clock.scaled()  # calibrates at the end
    ref = speed.KERNEL_REF_S
    assert scaled[0] == pytest.approx((0.006 * ref / 0.003, 0.005 * ref / 0.003))
    assert scaled[1] == pytest.approx((0.006 * ref / 0.003, 0.006 * ref / 0.003))
    assert scaled[2] == pytest.approx((0.001 * ref / 0.005, 0.001 * ref / 0.005))
    assert clock.scaled() == scaled and len(clock.points) == 3


@pytest.mark.parametrize(
    "n, pct",
    [(20, 50), (99, 75), (100, 90), (120, 90), (199, 90), (200, 95), (367, 95), (999, 98), (1000, 99)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    values = list(range(n))
    beyond = sum(v > stats.nearest_rank(values, pct) for v in values)
    assert beyond >= 10


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_nearest_rank():
    values = list(range(1, 1001))
    assert stats.nearest_rank(values, 50) == 500
    assert stats.nearest_rank(values, 99) == 990
    assert stats.nearest_rank(values, 99.9) == 999


def _bindings():
    from abundancy import arith, interval

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "abundancy" or name.startswith("abundancy."):
            out.update({(name, attr): value for attr, value in vars(module).items()})
    for cls in (arith.Factorization, interval.IntervalReal):
        out.update({(cls.__name__, attr): value for attr, value in vars(cls).items()})
    return out


def test_wrappers_reach_by_name_imports_and_are_restored():
    from abundancy import arith, index, opn

    tracer = tracing.Tracer()
    tracer.install()  # imports abundancy.cli too, so snapshot after a first install
    tracer.uninstall()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert index.ln_ratio is not before[("abundancy.index", "ln_ratio")]
        assert opn.pow_interval is not before[("abundancy.opn", "pow_interval")]
        for request in (
            workloads.WARM_UP["sandwich_corpus"],
            workloads.WARM_UP["candidate_checks"],
            ("euler_sum_bound", 13, 5, 512),
        ):
            workloads.execute(request)
        arith.Factorization(((7, 1),))
    finally:
        tracer.uninstall()
    assert _bindings() == before
    names = [span[0] for span in tracer.spans]
    assert "interval.ln_ratio" in names  # called through index's own binding
    assert "interval.pow_interval" in names  # called through opn's own binding
    parents = {tracer.spans[s[2]][0] for s in tracer.spans if s[0] == "arith.is_prime" and s[2] is not None}
    assert "arith.Factorization.__post_init__" in parents
    assert all(own >= -1e-6 for own in tracer.self_times())


def _traced_round(workload: str, seed: int) -> dict:
    spec = {"workload": workload, "seed": seed, "rounds": 1, "trace": True}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counters_repeat_and_match_benchmark_json():
    first, again = (_traced_round("sandwich_corpus", 3) for _ in range(2))
    counts = {k: v for k, v in first["counters"].items() if "self_s" not in k and "waste" not in k}
    assert counts == {k: again["counters"][k] for k in counts}
    # the sandwich corpus never factors and never exponentiates
    assert first["counters"]["arith.factorize.calls"] == 0
    assert all(v == 0 for k, v in first["counters"].items() if k.startswith("interval.exp.calls"))
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(per_layer) == set(first["counters"]) | {"trace.overhead_frac", "cli.cold_start_s"}
    assert all(run.unit_of(name) == unit for name, unit in per_layer.items())


def test_gate_rejects_a_wrong_enclosure():
    from abundancy import interval

    request = ("exponent", ((3, 5),))
    result = workloads.execute(request)
    gates.check(request, result)
    value = result.value
    shifted = interval.IntervalReal(value.lo + Fraction(1, 2**200), value.hi + Fraction(1, 2**200), value.bits)
    with pytest.raises(gates.WrongAnswer, match="misses"):
        gates.check(request, type(result)(shifted, result.of))


def test_gate_rejects_an_enclosure_looser_than_its_precision():
    from abundancy import interval

    request = ("exponent", ((3, 5),))
    result = workloads.execute(request)
    value = result.value
    widened = interval.IntervalReal(value.lo - Fraction(1, 2**100), value.hi, value.bits)
    with pytest.raises(gates.WrongAnswer, match="looser"):
        gates.check(request, type(result)(widened, result.of))


def test_gate_rejects_a_mislabelled_precision():
    from abundancy import interval, opn

    request = ("euler_sum_bound", 13, 5, 1024)
    gates.check(request, workloads.execute(request))
    cheap = opn.euler_sum_bound(13, 5, interval.PrecisionConfig(256, 256))
    with pytest.raises(gates.WrongAnswer, match="looser"):
        gates.check(request, interval.IntervalReal(cheap.lo, cheap.hi, 1024))


def test_gate_rejects_an_exponent_not_certified_inside_one_and_two():
    from abundancy import interval

    request = ("exponent", ((3, 5),))
    result = workloads.execute(request)
    value = result.value
    touching = interval.IntervalReal(Fraction(1), value.hi, value.bits)
    with pytest.raises(gates.WrongAnswer, match="1 < x < 2"):
        gates.check(request, type(result)(touching, result.of))


def test_gate_rejects_holds_without_separated_enclosures():
    request = workloads.WARM_UP["sandwich_corpus"]
    result = workloads.execute(request)
    gates.check(request, result)
    # every enclosure still holds its value, but x(ab) is not certified between
    overlapping = type(result)(result.status, result.x_a, result.x_b, result.x_a)
    with pytest.raises(gates.WrongAnswer, match="separated"):
        gates.check(request, overlapping)


def test_gate_rejects_a_wrong_verdict():
    request = ("mersenne", 11)  # 2^11 - 1 = 23 * 89
    with pytest.raises(gates.WrongAnswer):
        gates.check(request, (True, None))
    gates.check(request, workloads.execute(request))


def test_summary_pools_every_request():
    summary = stats.summary([0.003, 0.001, 0.002] * 10, 29, 0.07)
    assert summary["requests"] == 30 and summary["completed"] == 29
    assert summary["cpu_s"] == pytest.approx(0.06) and summary["wall_s"] == 0.07
    assert summary["p50_s"] == 0.002 and summary["tail_pct"] == 50 and summary["tail_s"] == 0.002
