"""The library surface the benchmark drives.

perfbench/workloads.py is imported as it stands, never edited: every name
it reads from an abelsplit module must exist, whichever branch reads it,
every name its traced run patches must exist, its desk scan body must pass
its own gate, cutting one benchmark phase per scan record, its checks
body must pass its gate and write the pinned bytes, and perfbench/selfcheck.py
must pass.
"""

import ast
import hashlib
import importlib
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from helpers import CHECKS_SHA256, DESK_SCAN_SHA256

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def _abelsplit_reads(source: str) -> set[tuple[str, str]]:
    """(module, name) for every attribute read on a module-level alias that
    source binds with importlib.import_module("abelsplit...")."""
    tree = ast.parse(source)
    aliases = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) == "importlib.import_module"):
            module = ast.literal_eval(node.value.args[0])
            if module.startswith("abelsplit."):
                aliases.update((target.id, module) for target in node.targets)
    return {(aliases[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}


def test_every_library_name_the_workloads_read_exists():
    # a name read only on a rare branch (the s87 budget's BudgetExceeded)
    # is missed by running the bodies, so the source is read instead
    reads = _abelsplit_reads((PERFBENCH / "workloads.py").read_text())
    assert len({module for module, _ in reads}) == 7 and len(reads) >= 30
    missing = sorted(f"{module}.{name}" for module, name in reads
                     if not hasattr(importlib.import_module(module), name))
    assert missing == []


def test_benchmark_selfcheck_passes():
    result = subprocess.run([sys.executable, str(PERFBENCH / "selfcheck.py")],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"ok check_{name}" for name in (
        "spans", "patched", "phase_clock", "inputs", "benchmark_json", "rounds")]


def test_tracing_finds_and_restores_every_patched_name(workloads):
    modules = [importlib.import_module(f"abelsplit.{name}") for name in (
        "certio", "counting", "scan", "search", "splitting", "tiling")] + [workloads]
    before = [dict(vars(module)) for module in modules]
    with workloads.traced(workloads.Tracer()):
        swapped = sum(
            vars(module)[name] is not value
            for module, names in zip(modules, before) for name, value in names.items()
        )
    assert swapped > 0
    for module, names in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in names.items())


def test_desk_scan_body_passes_its_gate_with_a_phase_per_record(workloads, tmp_path):
    gate, marks = workloads.Gate(), []
    inputs = workloads.make_inputs("desk_scan", 2)
    tracer = workloads.Tracer()
    (tmp_path / "traced").mkdir()
    with workloads.traced(tracer):
        workloads.scan_body("desk_scan", inputs, 1, tmp_path / "traced", gate, lambda: None)
    metrics = workloads.layer_metrics(tracer)
    assert metrics["scan.records"] == metrics["certio.checkpoint_writes"] == 210

    (tmp_path / "plain").mkdir()
    result = workloads.scan_body(
        "desk_scan", inputs, 1, tmp_path / "plain", gate, lambda: marks.append(None))
    assert gate.failures == [] and gate.attempted > 2 * 210
    assert len(marks) == workloads.DESK_RECORDS == 210
    report = (tmp_path / "plain" / "scan_k1-30.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == DESK_SCAN_SHA256
    assert result["digest"] == hashlib.sha256(b"scan_k1-30.json\0" + report).hexdigest()


@pytest.mark.parametrize("seed", sorted(CHECKS_SHA256))
def test_checks_body_passes_its_gate_with_pinned_bytes(workloads, tmp_path, seed):
    gate, marks = workloads.Gate(), []
    inputs = workloads.make_inputs("checks", seed)
    result = workloads.checks_body(
        "checks", inputs, 1, tmp_path, gate, lambda: marks.append(None))
    assert gate.failures == []
    assert len(marks) == 9  # the four s87 sizes of N = 27, then five checks
    assert result["digest"] == CHECKS_SHA256[seed]


def test_check_export_peak_follows_the_anchors(workloads, tmp_path):
    # the 250 x 250 export of seed 2 holds 5,039 translates of 13 cells;
    # the export and the reader keep their anchors, not one tuple per cell
    box = workloads.make_inputs("checks", 2)["box"]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        name, rows, counts = workloads.check_export(workloads.EXPORT_K, box, tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert name == "export" and all(row["pass"] for row in rows)
    assert counts == {"export_cells": 5_039 * 13}
    assert peak < 12_000_000
