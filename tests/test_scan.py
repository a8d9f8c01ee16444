import dataclasses
import gc
import importlib
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from helpers import candidates_by_trial_division

from abelsplit import certio
from abelsplit.groups import FiniteAbelianGroup
from abelsplit.record import replace
from abelsplit.scan import (
    CONSISTENT,
    COUNTING,
    SEARCH,
    TRIVIAL_EXPECTED,
    VIOLATION,
    CandidateOrder,
    ScanRecord,
    ScanReport,
    check_k_ge_n,
    check_k_le_n_minus_2,
    check_scan_range,
    make_record,
    overall_verdict,
    largest_prime_factors,
    purely_singular_candidates,
    scan,
    scan_candidates,
)
from abelsplit.search import (
    EXHAUSTED,
    FOUND,
    SearchConfig,
    SearchOutcome,
    SearchStats,
    search_splitter,
)
from abelsplit.splitting import MultiplierSet

scanlib = importlib.import_module("abelsplit.scan")  # the package re-exports scan()


def test_candidates_k8():
    cands = purely_singular_candidates(8, 13)
    assert [c.order for c in cands] == [9, 25, 49, 81, 105]
    assert [c.n for c in cands] == [1, 3, 6, 10, 13]
    witness = dict(cands[-1].smoothness_witness)
    assert witness == {3: 1, 5: 1, 7: 1}


def test_candidate_order_is_a_frozen_slotted_dataclass():
    built = CandidateOrder(5, 3, 16, ((2, 4),))
    named = CandidateOrder(k=5, n=3, order=16, smoothness_witness=((2, 4),))
    assert built == named == scan_candidates(5, 5)[1] and hash(built) == hash(named)
    assert built != CandidateOrder(5, 3, 16, ((2, 3),)) and built != (5, 3, 16, ((2, 4),))
    assert repr(built) == "CandidateOrder(k=5, n=3, order=16, smoothness_witness=((2, 4),))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.k = 6
    assert built.k == 5 and not hasattr(built, "__dict__")
    assert pickle.loads(pickle.dumps(built)) == built  # pool workers receive candidates
    assert replace(built, n=1, order=6, smoothness_witness=((2, 1), (3, 1))) == (
        scan_candidates(5, 5)[0]
    )


def test_scan_record_is_a_frozen_slotted_dataclass():
    records = scan(1, 8).records
    routes = {(r.route, r.certificate is not None) for r in records}
    assert {(COUNTING, False), (SEARCH, True), (SEARCH, False)} <= routes
    for record in records:
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.verdict = VIOLATION
        assert pickle.loads(pickle.dumps(record)) == record  # pool workers return records
    counted = next(r for r in records if r.route == COUNTING)
    # decide marks a counting verdict through replace
    searched = replace(counted, witness=None)
    assert searched.route == SEARCH and searched.candidate is counted.candidate
    assert replace(searched, witness=counted.witness) == counted


def test_candidates_small_k_empty():
    assert purely_singular_candidates(1, 5) == []
    assert purely_singular_candidates(2, 5) == []


def test_candidates_rejects_bad_args():
    with pytest.raises(ValueError):
        purely_singular_candidates(0, 5)
    with pytest.raises(ValueError):
        purely_singular_candidates(3, 0)


def test_candidate_completeness_oracle():
    # brute filter: keep N = n*k + 1 whose largest prime factor is <= k
    for k in range(1, 51):
        expected = []
        for n in range(1, 101):
            order = n * k + 1
            if max(sympy.factorint(order)) <= k:
                expected.append(order)
        assert [c.order for c in purely_singular_candidates(k, 100)] == expected


def test_largest_prime_factor_table():
    lpf = largest_prime_factors(10_000)
    assert len(lpf) == 10_001 and lpf[0] == lpf[1] == 0
    assert all(lpf[x] == max(sympy.factorint(x)) for x in range(2, 10_001))
    assert list(largest_prime_factors(1)) == [0, 0]


def test_scan_candidates_agree_with_trial_division():
    # the default bound n <= 2k for every k <= 300: 21,040 candidates
    expected = [c for k in range(1, 301) for c in candidates_by_trial_division(k, 2 * k)]
    assert len(expected) == 21_040
    assert scan_candidates(1, 300) == expected
    assert scan_candidates(171, 300) == [c for c in expected if c.k >= 171]
    for k in range(1, 41):
        for n_max in (1, 13, 3 * k):
            assert purely_singular_candidates(k, n_max) == candidates_by_trial_division(k, n_max)
    for n_max in (1, 13, 120):
        assert scan_candidates(1, 40, n_max) == [
            c for k in range(1, 41) for c in candidates_by_trial_division(k, n_max)]


def test_scan_candidates_restores_the_collector_state(monkeypatch):
    # the collector is paused while the list grows, then left as found,
    # after a return and after an error alike
    factor, during = scanlib._factor_by_table, []

    def observed(x, lpf):
        during.append(gc.isenabled())
        return factor(x, lpf)

    def fail(x, lpf):
        raise RuntimeError("factoring failed")

    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with monkeypatch.context() as m:
                m.setattr(scanlib, "_factor_by_table", observed)
                assert len(scan_candidates(1, 30)) == 210
            assert len(during) == 210 and not any(during)
            during.clear()
            assert gc.isenabled() is enabled
            with monkeypatch.context() as m:
                m.setattr(scanlib, "_factor_by_table", fail)
                with pytest.raises(RuntimeError, match="^factoring failed$"):
                    scan_candidates(1, 30)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_scan_candidates_rejects_bad_ranges():
    for bad in ((0, 5, None), (6, 5, None), (1, 5, 0)):
        with pytest.raises(ValueError):
            scan_candidates(*bad)


def test_scan_k8():
    report = scan(8, 8, n_max=13)
    by_order = {r.candidate.order: r for r in report.records}
    assert set(by_order) == {9, 25, 49, 81, 105}
    assert by_order[9].verdict == TRIVIAL_EXPECTED
    assert by_order[9].outcome.splitters == (1,)
    for order in (25, 49, 81, 105):
        assert by_order[order].verdict == CONSISTENT
        assert by_order[order].outcome.result == EXHAUSTED
    assert overall_verdict(report.totals) == "consistent"
    assert report.totals["found"] == 1


def test_scan_k24_n1():
    report = scan(24, 24, n_max=1)
    (record,) = report.records
    assert record.candidate.order == 25
    assert record.outcome.splitters == (1,)
    assert record.verdict == TRIVIAL_EXPECTED
    assert record.certificate is not None


def test_scan_k3():
    report = scan(3, 3, n_max=3)
    orders = [r.candidate.order for r in report.records]
    assert orders == [4]  # 7 is prime, 10 has the factor 5 > 3
    assert report.records[0].verdict == TRIVIAL_EXPECTED


def test_scan_rejects_bad_range():
    with pytest.raises(ValueError):
        scan(5, 3)
    for jobs in (0, -4):
        with pytest.raises(ValueError, match="jobs"):
            scan(5, 6, jobs=jobs)


def test_found_at_trivial_orders():
    report = scan(1, 10)
    for record in report.records:
        k, order = record.candidate.k, record.candidate.order
        if order in (k + 1, 2 * k + 1):
            assert record.outcome.result == FOUND
            assert record.verdict == TRIVIAL_EXPECTED


def test_counting_records_are_exhausted_by_the_search(desk_scan):
    # the sieve's refutations of scan(1, 30), re-decided by plain search
    counted = [r for r in desk_scan.records if r.route == COUNTING]
    searched = [r for r in desk_scan.records if r.route == SEARCH]
    assert (len(counted), len(searched)) == (155, 55)
    assert sum(1 for r in searched if r.outcome.result == FOUND) == 32
    nodes = 0
    for record in counted:
        k, order = record.candidate.k, record.candidate.order
        assert record.witness is not None and record.verdict == CONSISTENT
        assert record.outcome.stats.nodes == record.outcome.stats.max_depth == 0
        outcome = search_splitter(FiniteAbelianGroup.cyclic(order), MultiplierSet.interval(k))
        assert outcome.result == EXHAUSTED, (k, order)
        nodes += outcome.stats.nodes
    assert nodes == 26_098


def _synthetic_found(k, n, verdict=VIOLATION):
    order = n * k + 1
    outcome = SearchOutcome(FOUND, (1,), SearchStats(1, 1, 0.0))
    return ScanRecord(CandidateOrder(k, n, order, ()), outcome, verdict)


def _report_with(records):
    return ScanReport(1, 1, None, SearchConfig(), tuple(records))


def test_check_k_le_n_minus_2():
    assert check_k_le_n_minus_2(_report_with([])) is True
    good = scan(8, 8)
    assert check_k_le_n_minus_2(good) is True
    bad = _report_with([_synthetic_found(k=5, n=3)])
    assert check_k_le_n_minus_2(bad) is False


def test_check_k_ge_n():
    assert check_k_ge_n(_report_with([])) is True
    report = scan(8, 8)
    assert check_k_ge_n(report) is True
    found_ns = [r.candidate.n for r in report.records if r.outcome.result == FOUND]
    assert found_ns == [1]
    bad = _report_with([_synthetic_found(k=2, n=5)])
    assert check_k_ge_n(bad) is False


def test_combined_checks_force_n_at_most_2():
    report = scan(1, 12)
    assert check_k_ge_n(report) and check_k_le_n_minus_2(report)
    for record in report.records:
        if record.outcome.result == FOUND:
            assert record.candidate.n <= 2


def test_parallel_equals_serial():
    serial = scan(1, 10)
    parallel = scan(1, 10, jobs=4)
    strip = lambda rep: [(r.candidate, r.outcome.result, r.outcome.splitters,
                          r.outcome.stats.nodes, r.verdict) for r in rep.records]
    assert strip(serial) == strip(parallel)


@pytest.mark.parametrize("params, error", [
    ((0, 3, None), ValueError), ((5, 4, None), ValueError), ((1, 3, 0), ValueError),
    # a report writes its bounds as JSON ints, so a bool (written true) or a
    # float bound is refused before anything is written
    ((True, 3, None), TypeError), ((1, 3.0, None), TypeError), ((1, 3, True), TypeError),
], ids=["k_min_zero", "k_min_above_k_max", "n_max_zero", "k_min_bool", "k_max_float",
        "n_max_bool"])
def test_scan_report_checks_its_range(params, error):
    # a report is a validated description of its scan: the one range check
    # of scan(), the report and journal readers and the CLI
    with pytest.raises(error) as raised:
        check_scan_range(*params)
    with pytest.raises(error) as built:
        ScanReport(*params, SearchConfig(), ())
    with pytest.raises(error) as scanned:
        scan(*params)
    assert str(built.value) == str(scanned.value) == str(raised.value)


def test_scan_report_refuses_records_out_of_order():
    # the k 5..6 records: n = 1, 3 and 7 for k = 5, then n = 4 for k = 6
    records = scan(5, 6).records

    def report(held):
        return ScanReport(5, 6, None, SearchConfig(), tuple(held))

    with pytest.raises(ValueError, match="^record k=5 n=7 comes after k=6 n=4$"):
        report(records[::-1])
    with pytest.raises(ValueError, match="^record k=5 n=3 comes after k=5 n=7$"):
        report((records[0], records[2], records[1], records[3]))
    with pytest.raises(ValueError, match="^scan report holds a record twice: k=5 n=3$"):
        report(records[:2] + records[1:])
    with pytest.raises(ValueError, match="^scan report holds a record twice: k=6 n=4$"):
        report(records + records[-1:])
    assert report(()).records == ()
    assert report(records[1:2]).records == records[1:2]
    assert report(records).records == records


def test_resume_skips_completed_records():
    full = scan(5, 9)
    half = ScanReport(
        full.k_min, full.k_max, full.n_max, full.config, full.records[: len(full.records) // 2],
    )
    resumed = scan(5, 9, resume=half)
    strip = lambda rep: [(r.candidate, r.outcome.result, r.outcome.splitters, r.verdict)
                         for r in rep.records]
    assert strip(resumed) == strip(full)


def test_resume_rejects_mismatched_parameters():
    full = scan(5, 6)
    with pytest.raises(ValueError):
        scan(5, 7, resume=full)
    with pytest.raises(ValueError):
        scan(5, 6, config=SearchConfig(node_limit=123), resume=full)


def test_resume_rejects_records_outside_the_task_set():
    full = scan(5, 6)

    def resume_with(records):
        return ScanReport(full.k_min, full.k_max, full.n_max, full.config, tuple(records))

    foreign = scan(8, 8, n_max=1).records[0]  # k = 8 lies outside 5..6
    with pytest.raises(ValueError, match="not a scan candidate"):
        scan(5, 6, resume=resume_with(full.records + (foreign,)))
    first = full.records[0]
    misfactored = replace(
        first, candidate=replace(first.candidate, smoothness_witness=((2, 3),))
    )
    with pytest.raises(ValueError, match="not a scan candidate"):
        scan(5, 6, resume=resume_with((misfactored,) + full.records[1:]))
    # a resume cannot repeat a record: its ScanReport refuses one, naming it
    with pytest.raises(ValueError, match="^scan report holds a record twice: k=5 n=3$"):
        resume_with(full.records[:2] + full.records[1:])


def test_make_record_rules():
    z6, z16 = CandidateOrder(5, 1, 6, ((2, 1), (3, 1))), CandidateOrder(5, 3, 16, ((2, 4),))
    stats = SearchStats(1, 1, 0.0)
    found = make_record(z6, SearchOutcome(FOUND, (1,), stats))
    assert found.verdict == TRIVIAL_EXPECTED and found.certificate.splitters == ((1,),)
    exhausted = SearchOutcome(EXHAUSTED, None, stats)
    assert make_record(z16, exhausted).verdict == CONSISTENT
    with pytest.raises(RuntimeError):  # a splitting always exists at N = k + 1
        make_record(z6, exhausted)
    with pytest.raises(ValueError):  # {1..5} does not split Z6 through {2}
        make_record(z6, SearchOutcome(FOUND, (2,), stats))
    with pytest.raises(ValueError):
        make_record(z16, SearchOutcome("bogus", None, stats))


def test_pool_is_no_larger_than_the_pending_work(monkeypatch):
    sizes = []

    class SerialPool:  # records its size and maps in this process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    doc = lambda report: certio.dumps_document(certio.scan_report_to_doc(report))
    serial = scan(5, 6, jobs=1)
    assert len(serial.records) == 4 and sizes == []
    assert doc(scan(5, 6, jobs=64)) == doc(serial)
    assert sizes == [4]
    first = replace(serial, records=serial.records[:1])
    assert doc(scan(5, 6, jobs=64, resume=first)) == doc(serial)
    assert sizes == [4, 3]


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # scan() imports the pool on its parallel path only
    code = "import sys, abelsplit.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    env = {**os.environ, "PYTHONPATH": str(Path(scanlib.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_checkpoint_called_per_record(jobs):
    seen = []
    report = scan(8, 8, jobs=jobs, checkpoint=seen.append)
    assert [len(one.records) for one in seen] == [1, 1, 1, 1, 1]
    params = lambda rep: (rep.k_min, rep.k_max, rep.n_max, rep.config)
    assert all(params(one) == params(report) for one in seen)
    in_order = lambda r: (r.candidate.k, r.candidate.order)
    assert sorted((r for one in seen for r in one.records), key=in_order) == list(report.records)
    # a resumed scan checkpoints only the records it decides
    seen.clear()
    resumed = scan(8, 8, jobs=jobs, checkpoint=seen.append,
                   resume=replace(report, records=report.records[:2]))
    assert [len(one.records) for one in seen] == [1, 1, 1]
    assert sorted(r.candidate.order for one in seen for r in one.records) == [
        r.candidate.order for r in resumed.records[2:]
    ]


def test_inconclusive_on_budget():
    report = scan(8, 8, n_max=13, config=SearchConfig(node_limit=5))
    assert overall_verdict(report.totals) == "inconclusive"
    assert report.totals["inconclusive"] >= 1
    assert check_k_ge_n(report)  # resource-limited records are not "found"


def test_totals_consistent_with_records():
    report = scan(1, 10)
    totals = report.totals
    assert totals["records"] == len(report.records)
    assert totals[TRIVIAL_EXPECTED] + totals[CONSISTENT] + totals[VIOLATION] + totals[
        "inconclusive"
    ] == len(report.records)
