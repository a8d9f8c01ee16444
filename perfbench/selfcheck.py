#!/usr/bin/env python3
"""Checks on the benchmark itself; runs in a few seconds.

Usage: python3 perfbench/selfcheck.py

Covers the span arithmetic, the restoring of patched names, the phase clock's
reference samples, the seeded input generator, that BENCHMARK.json names
exactly the metrics run.py reports, and the fixed round count its
run_seconds gives.
Exits 0 when every check holds.
"""

import json
import signal
import sys
import types
from pathlib import Path
from time import sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, patched  # noqa: E402


def check_spans() -> None:
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sleep(0.02))

    def body():
        inner()
        inner()
        sleep(0.02)

    tracer.wrap("outer", body, lambda args, result: tracer.count("outer_calls", 1))()
    totals = tracer.totals()
    assert tracer.names == ["outer", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert totals["inner"]["calls"] == 2 and tracer.counters == {"outer_calls": 1}
    outer = totals["outer"]
    assert abs(outer["self"] - (outer["total"] - totals["inner"]["total"])) < 1e-9
    assert 0.015 < outer["self"] < outer["total"]


def check_patched() -> None:
    module = types.ModuleType("perfbench_selfcheck_target")
    module.f = lambda x: x + 1
    sys.modules[module.__name__] = module
    original = module.f
    tracer = Tracer()
    try:
        with patched([(module.__name__, "f", lambda fn: tracer.wrap("f", fn))]):
            assert module.f(1) == 2 and tracer.names == ["f"]
            raise KeyError("body fails")
    except KeyError:
        pass
    assert module.f is original


def check_inputs() -> None:
    a, b = workloads.make_inputs("checks", 1), workloads.make_inputs("checks", 2)
    assert a == workloads.make_inputs("checks", 1), "same seed, different inputs"
    assert a != b, "the seed changes nothing"
    width = workloads.ABCDE_K_MAX // workloads.ABCDE_SAMPLE
    for sample in (a["abcde"], b["abcde"]):
        assert [(k - 1) // width for k, _, _ in sample] == list(range(workloads.ABCDE_SAMPLE))
    for box in (a["box"], b["box"]):
        assert [hi - lo + 1 for lo, hi in box] == [workloads.EXPORT_SIDE] * 2
    assert workloads.make_inputs("desk_scan", 1) == workloads.make_inputs("desk_scan", 2) == {}


def check_phase_clock() -> None:
    clock = worker.PhaseClock(sample=True)
    for _ in range(3):
        sleep(0.4)
        clock.mark()
    clock.close()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    phases, refs = clock.phases(), clock.refs()
    assert len(phases) == len(refs) == 4
    first, last = clock.bounds[0], clock.bounds[-1]
    starts = [t for t, _ in clock.samples]
    assert starts[0] < first and starts[-1] > last and len(starts) >= 4
    inside = sum(d for t, d in clock.samples if first <= t < last)
    assert inside > 0 and abs(sum(phases) + inside - (last - first)) < 1e-9
    durations = [d for _, d in clock.samples]
    assert all(min(durations) <= r <= max(durations) for r in refs)


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.BODIES)
    assert all(workloads.BODIES[w] is workloads.scan_body for w in run.POOLED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {**workloads.PER_LAYER_UNITS, **run.TRACE_EXTRA_UNITS}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    empty = workloads.layer_metrics(Tracer())
    assert set(empty) == set(workloads.PER_LAYER_UNITS)
    assert all(v == 0 for v in empty.values())


def check_rounds() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rounds = run.round_count(types.SimpleNamespace(seconds=spec["run_seconds"]))
    assert rounds == 2, rounds


def main() -> int:
    for check in (check_spans, check_patched, check_phase_clock, check_inputs,
                  check_benchmark_json, check_rounds):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
