import ast
import dataclasses
import importlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
import sympy
from helpers import candidate_order, candidates_by_trial_division, counting_witness_by_fractions
from hypothesis import given, settings
from hypothesis import strategies as st

from abelsplit import certio
from abelsplit.counting import counting_witness
from abelsplit.groups import FiniteAbelianGroup, factorize
from abelsplit.record import replace
from abelsplit.scan import (
    CLOSED_FORM,
    CONSISTENT,
    COUNTING,
    INCONCLUSIVE,
    PROPAGATION,
    SEARCH,
    TRIVIAL_EXPECTED,
    VIOLATION,
    CandidateOrder,
    ClosedForm,
    Propagation,
    ScanRecord,
    ScanReport,
    check_k_ge_n,
    check_k_le_n_minus_2,
    check_scan_range,
    decide,
    make_record,
    overall_verdict,
    largest_prime_factors,
    purely_singular_candidates,
    scan,
    sieve,
)
from abelsplit.search import (
    EXHAUSTED,
    FOUND,
    SearchConfig,
    SearchOutcome,
    SearchStats,
    propagate,
    search_splitter,
)
from abelsplit.splitting import (
    ORDER_2K_PLUS_1, ORDER_K_PLUS_1, MultiplierSet, NotASplitting, trivial_certificate,
)

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
    assert built == named == list(scanlib.iter_candidates(5, 5))[1] and hash(built) == hash(named)
    assert built != CandidateOrder(5, 3, 16, ((2, 3),)) and built != (5, 3, 16, ((2, 4),))
    assert repr(built) == "CandidateOrder(k=5, n=3, order=16, smoothness_witness=((2, 4),))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.k = 6
    assert built.k == 5 and not hasattr(built, "__dict__")
    assert pickle.loads(pickle.dumps(built)) == built  # pool workers receive candidates
    assert replace(built, n=1, order=6, smoothness_witness=((2, 1), (3, 1))) == next(
        scanlib.iter_candidates(5, 5))


def test_scan_record_is_a_frozen_slotted_dataclass():
    # k = 24, n <= 26 holds a record of each route but the sieve's, which
    # keeps none, and a closed form's with its certificate
    report = scan(24, 24, n_max=26)
    records = report.records
    routes = {(r.route, r.certificate is not None) for r in records}
    assert routes == {(CLOSED_FORM, True), (PROPAGATION, False), (SEARCH, False)}
    assert report.sieved == report.routes[COUNTING] == 4
    for record in records:
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.verdict = VIOLATION
        assert pickle.loads(pickle.dumps(record)) == record  # pool workers return records


def _as_written(record):
    """record as a document keeps it: a search's stats without its time,
    and every other decision whole."""
    if record.route != SEARCH:
        return record
    stats = replace(record.outcome.stats, elapsed_s=None)
    return replace(record, outcome=replace(record.outcome, stats=stats))


def test_a_record_of_every_route_round_trips(tmp_path):
    # a closed form's, a propagation and a searched record, through the
    # report document, the journal and pickle; the sieve's refutations are
    # counted alike by both readers
    report = scan(24, 24, n_max=26)
    journal = tmp_path / "scan.jsonl"
    journal.write_text("".join(certio.journal_chunks(report)))
    read = (certio.scan_report_from_doc(certio.scan_report_to_doc(report)).records,
            certio.read_journal(journal).records)
    first = {}
    for i, record in enumerate(report.records):
        first.setdefault((record.route, record.outcome.result), i)
    assert set(first) == {(CLOSED_FORM, FOUND), (PROPAGATION, EXHAUSTED), (SEARCH, EXHAUSTED)}
    for i in first.values():
        record = report.records[i]
        pairs = [(pickle.loads(pickle.dumps(record)), record)]
        pairs += [(records[i], _as_written(record)) for records in read]
        for back, expected in pairs:
            assert back == expected and hash(back) == hash(expected)
            assert repr(back) == repr(expected)
    searched = report.records[first[SEARCH, EXHAUSTED]].outcome.stats
    assert (searched.nodes, searched.rows) == (2, 6) and read[0][-1].outcome.stats.rows == 6
    # the routes before the search decide their records without it
    for key, i in first.items():
        record = report.records[i]
        if key[0] != SEARCH:
            assert decide(record.candidate, SearchConfig(),
                          lambda left: pytest.fail("decided before the search")) == record
    refuted = [c for c in scanlib.iter_candidates(24, 24, 26) if not c.trivial
               and counting_witness(c.k, c.order, c.smoothness_witness) is not None]
    assert len(refuted) == report.sieved == 4
    assert not set(refuted) & {r.candidate for r in report.records}
    assert certio.scan_report_from_doc(certio.scan_report_to_doc(report)).sieved == 4
    assert certio.read_journal(journal).sieved == 4
    closed = report.records[first[CLOSED_FORM, FOUND]]
    assert closed.outcome == ClosedForm((1,)) and closed.certificate == trivial_certificate(24)


def test_a_refuted_trivial_order_names_its_route(monkeypatch):
    # decide gives a trivial order its closed form and asks no other route;
    # a route that refuted one would be unsound, and make_record says which
    z7 = CandidateOrder(3, 2, 7, ((7, 1),))
    doc = certio.scan_report_to_doc(scan(3, 3, n_max=1))
    monkeypatch.setattr(scanlib, "counting_witness", lambda *args: pytest.fail("sieve asked"))
    monkeypatch.setattr(scanlib, "propagate", lambda *args: pytest.fail("prover asked"))
    record = decide(z7, SearchConfig(), lambda left: pytest.fail("search asked"))
    assert record.outcome == ClosedForm((1, 6)) and record.verdict == TRIVIAL_EXPECTED
    assert record.certificate == trivial_certificate(3, ORDER_2K_PLUS_1)
    monkeypatch.undo()
    refutations = [(SEARCH, SearchOutcome(EXHAUSTED, None, SearchStats(1, 1, 0.0))),
                   (PROPAGATION, Propagation((), 4))]
    for route, outcome in refutations:
        with pytest.raises(RuntimeError, match=(
                f"^the {route} route refutes trivial order 7 for k=3$")):
            make_record(z7, outcome)
    # the sieve never refutes one, and a report claiming it did, of N = 4
    # for k = 3, is refused
    assert not sieve(z7)
    (record,) = doc["records"]
    del record["splitters"]
    record.update(verdict=CONSISTENT, route=COUNTING, counting={"p": 2, "stratum": 1})
    with pytest.raises(certio.DocumentError, match=(
            "^record k=3 n=1 differs from what abelsplit writes in counting, route, "
            "splitters, verdict$")):
        certio.scan_report_from_doc(doc)


def test_no_route_but_the_closed_form_refutes_a_trivial_order():
    # the sieve and the prover, called directly, at both trivial orders of
    # every k <= 300: the prover forces S = {1, -1} at 2k + 1 and proves
    # nothing
    config = SearchConfig(time_limit_s=None)
    for k in range(1, 301):
        assert counting_witness(k, k + 1, factorize(k + 1)) is None
        assert counting_witness(k, 2 * k + 1, factorize(2 * k + 1)) is None
        assert propagate(k + 1, k, config, 0.0) == ((), None)
        assert propagate(2 * k + 1, k, config, 0.0) == (((2 * k, 2 * k),), None)


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


def test_iter_candidates_agree_with_trial_division():
    # the default bound n <= 2k for every k <= 300: 21,040 candidates
    expected = [c for k in range(1, 301) for c in candidates_by_trial_division(k, 2 * k)]
    assert len(expected) == 21_040
    assert list(scanlib.iter_candidates(1, 300)) == expected
    assert list(scanlib.iter_candidates(171, 300)) == [c for c in expected if c.k >= 171]
    for k in range(1, 41):
        for n_max in (1, 13, 3 * k):
            assert purely_singular_candidates(k, n_max) == candidates_by_trial_division(k, n_max)
    for n_max in (1, 13, 120):
        assert list(scanlib.iter_candidates(1, 40, n_max)) == [
            c for k in range(1, 41) for c in candidates_by_trial_division(k, n_max)]


def test_the_range_rule_holds_at_its_edge():
    # k = 32767 at the default bound reaches 2,147,352,579, below 2**31;
    # the table is never built here, only the rule is asked
    check_scan_range(1, 32767, None)
    check_scan_range(1, 1, 2**31 - 2)
    with pytest.raises(ValueError, match=r"^the scan k=1\.\.1 n=1\.\.2147483647 reaches the order "
                                         r"2147483648; its candidate table holds orders below "
                                         r"2\*\*31$"):
        check_scan_range(1, 1, 2**31 - 1)


def test_the_enumeration_builds_its_table_as_far_as_it_walks(monkeypatch):
    # the table is doubled when a k needs more of it, never past the
    # range's largest order; a walk stopped early built only what it passed
    sizes = []
    build = scanlib.largest_prime_factors

    def counted(limit):
        sizes.append(limit)
        return build(limit)

    expected = list(scanlib.iter_candidates(1, 300))
    monkeypatch.setattr(scanlib, "largest_prime_factors", counted)
    assert list(scanlib.iter_candidates(1, 300)) == expected
    assert sizes[-1] == 2 * 300**2 + 1 and sorted(sizes) == sizes
    assert all(b >= 2 * (a + 1) or b == sizes[-1] for a, b in zip(sizes, sizes[1:]))
    sizes.clear()
    walk = scanlib.iter_candidates(5, 10**9)
    assert [(c.k, c.n) for c in islice(walk, 5)] == [(5, 1), (5, 3), (5, 7), (6, 4), (7, 1)]
    assert max(sizes) < 2 * 7 * 14 + 1  # no more than twice the order 99 of k = 7
    # a range whose orders pass the table's reach is refused at the first k
    # that needs them, before its table is built
    sizes.clear()
    with pytest.raises(ValueError, match=r"^the scan k=3\.\.3 n=1\.\.1000000000000 reaches"):
        next(scanlib.iter_candidates(3, 3, 10**12))
    assert sizes == []


def test_scan_and_candidates_reject_bad_ranges():
    for bad in ((0, 5, None), (6, 5, None), (1, 5, 0)):
        with pytest.raises(ValueError):
            scan(*bad)
    for k, n_max in ((0, 5), (1, 0)):  # a single k cannot lie above itself
        with pytest.raises(ValueError):
            purely_singular_candidates(k, n_max)


def test_scan_k8():
    report = scan(8, 8, n_max=13)
    by_order = {r.candidate.order: r for r in report.records}
    # the sieve refutes 25 and 105, which keep no record
    assert set(by_order) == {9, 49, 81} and report.sieved == 2
    assert by_order[9].verdict == TRIVIAL_EXPECTED
    assert by_order[9].outcome.splitters == (1,)
    for order in (49, 81):
        assert by_order[order].verdict == CONSISTENT
        assert by_order[order].outcome.result == EXHAUSTED
    assert overall_verdict(report.totals) == "consistent"
    assert report.totals["found"] == 1 and report.totals[CONSISTENT] == 4


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
    # every trivial order up to k = 300 takes its closed form, whose
    # certificate is trivial_certificate's: none is refuted
    trivial = [c for c in scanlib.iter_candidates(1, 300) if c.trivial]
    # k + 1 and 2k + 1 are k-smooth unless prime
    assert len(trivial) == sum(not sympy.isprime(k * n + 1) for k in range(1, 301) for n in (1, 2))
    for c in trivial:
        record = decide(c, SearchConfig(), lambda left: pytest.fail("search asked"))
        form = ORDER_K_PLUS_1 if c.n == 1 else ORDER_2K_PLUS_1
        assert record.route == CLOSED_FORM and record.verdict == TRIVIAL_EXPECTED
        assert record.certificate == trivial_certificate(c.k, form)
        assert record.outcome.splitters == ((1,) if c.n == 1 else (1, 2 * c.k))


def test_counting_records_are_exhausted_by_the_search(desk_scan):
    # the sieve's refutations of scan(1, 30), which keep no record, found
    # again by a walk of the range and re-decided by plain search; the 32
    # trivial orders take their closed form, and propagation leaves the
    # search one record, (625, 24)
    assert desk_scan.routes == {COUNTING: 155, CLOSED_FORM: 32, PROPAGATION: 22, SEARCH: 1}
    assert desk_scan.sieved == 155 and len(desk_scan.records) == 55
    assert all(r.outcome.result == FOUND for r in desk_scan.records if r.route == CLOSED_FORM)
    (searched,) = [r for r in desk_scan.records if r.route == SEARCH]
    assert (searched.candidate.order, searched.candidate.k) == (625, 24)
    assert searched.outcome.stats.nodes == 2
    counted = [c for c in scanlib.iter_candidates(1, 30) if sieve(c)]
    assert len(counted) == 155
    assert not set(counted) & {r.candidate for r in desk_scan.records}
    nodes = 0
    for c in counted:
        outcome = search_splitter(FiniteAbelianGroup.cyclic(c.order), MultiplierSet.interval(c.k))
        assert outcome.result == EXHAUSTED, (c.k, c.order)
        nodes += outcome.stats.nodes
    assert nodes == 26_098


def _synthetic_found(k, n):
    order = n * k + 1
    outcome = SearchOutcome(FOUND, (1,), SearchStats(1, 1, 0.0))
    return ScanRecord(CandidateOrder(k, n, order, ()), outcome)


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
    assert list(map(_as_written, serial.records)) == list(map(_as_written, parallel.records))


@pytest.mark.parametrize("params, error", [
    ((0, 3, None), ValueError), ((5, 4, None), ValueError), ((1, 3, 0), ValueError),
    # the largest order, k_max*n_limit(k_max) + 1, must lie below 2**31,
    # which the array("i") table holds: 32767 * 65534 + 1 does, and
    # 32768 * 65536 + 1 does not
    ((32768, 32768, None), ValueError), ((3, 3, 10**12), ValueError),
    # a report writes its bounds as JSON ints, so a bool (written true) or a
    # float bound is refused before anything is written
    ((True, 3, None), TypeError), ((1, 3.0, None), TypeError), ((1, 3, True), TypeError),
], ids=["k_min_zero", "k_min_above_k_max", "n_max_zero", "order_past_table",
        "n_max_past_table", "k_min_bool", "k_max_float", "n_max_bool"])
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
    # the k 5..7 records: n = 1 for k = 5, n = 4 for k = 6, then n = 1, 2
    # and 9 for k = 7
    records = scan(5, 7).records

    def report(held):
        return ScanReport(5, 7, None, SearchConfig(), tuple(held))

    with pytest.raises(ValueError, match="^record k=7 n=2 comes after k=7 n=9$"):
        report(records[::-1])
    with pytest.raises(ValueError, match="^record k=6 n=4 comes after k=7 n=1$"):
        report((records[0], records[2], records[1], records[3]))
    with pytest.raises(ValueError, match="^scan report holds a record twice: k=6 n=4$"):
        report(records[:2] + records[1:])
    with pytest.raises(ValueError, match="^scan report holds a record twice: k=7 n=9$"):
        report(records + records[-1:])
    assert report(()).records == ()
    assert report(records[1:2]).records == records[1:2]
    assert report(records).records == records


def test_scan_report_refuses_a_bad_sieved_count():
    # routes and totals add sieved to what the records count, so a count
    # that is no int >= 0 would write a report no scan makes
    records = scan(5, 6).records
    for bad in (-3, 2.5, True, None):
        with pytest.raises(ValueError, match=f"^sieved must be an int >= 0, got {bad!r}$"):
            ScanReport(5, 6, None, SearchConfig(), records, bad)
    assert ScanReport(5, 6, None, SearchConfig(), records, 2).totals["records"] == 4


def test_resume_skips_completed_records():
    full = scan(5, 9)
    half = ScanReport(
        full.k_min, full.k_max, full.n_max, full.config, full.records[: len(full.records) // 2],
    )
    resumed = scan(5, 9, resume=half)
    assert list(map(_as_written, resumed.records)) == list(map(_as_written, full.records))


@pytest.mark.parametrize("kept", [
    lambda records: records[::2],
    lambda records: [r for r in records if r.route != CLOSED_FORM],
    lambda records: records[:len(records) // 2],
], ids=["every_other", "refutations", "first_half"])
def test_resumed_from_a_subset_writes_the_same_report(kept):
    full = scan(5, 8)
    subset = replace(full, records=tuple(kept(list(full.records))))
    assert 0 < len(subset.records) < len(full.records)
    written = certio.dumps_document(certio.scan_report_to_doc(full))
    resumed = scan(5, 8, resume=subset)
    assert certio.dumps_document(certio.scan_report_to_doc(resumed)) == written


def test_resume_rejects_mismatched_parameters():
    full = scan(5, 6)
    with pytest.raises(ValueError):
        scan(5, 7, resume=full)
    with pytest.raises(ValueError):
        scan(5, 6, config=SearchConfig(node_limit=123), resume=full)


def test_resume_rejects_records_outside_the_task_set(monkeypatch):
    full = scan(5, 6)

    def resume_with(records):
        return ScanReport(full.k_min, full.k_max, full.n_max, full.config, tuple(records))

    foreign = scan(8, 8, n_max=1).records[0]  # k = 8 lies outside 5..6
    # every refusal comes before any candidate is decided
    monkeypatch.setattr(scanlib, "_scan_one", lambda task: pytest.fail("a candidate was decided"))
    with pytest.raises(ValueError, match="not a scan candidate"):
        scan(5, 6, resume=resume_with(full.records + (foreign,)))
    first = full.records[0]
    misfactored = replace(
        first, candidate=replace(first.candidate, smoothness_witness=((2, 3),))
    )
    with pytest.raises(ValueError, match="not a scan candidate"):
        scan(5, 6, resume=resume_with((misfactored,) + full.records[1:]))
    # the sieve refutes N = 16 for k = 5, so no record of it is resumed,
    # whatever its route
    z16 = CandidateOrder(5, 3, 16, ((2, 4),))
    searched = make_record(z16, SearchOutcome(EXHAUSTED, None, SearchStats(1, 1, 0.0)))
    with pytest.raises(ValueError, match="^resumed record k=5 n=3 is not a scan candidate "
                                         "the sieve leaves$"):
        scan(5, 6, resume=resume_with(full.records[:1] + (searched,) + full.records[1:]))
    # a resume cannot repeat a record: its ScanReport refuses one, naming it
    with pytest.raises(ValueError, match="^scan report holds a record twice: k=6 n=4$"):
        resume_with(full.records + full.records[1:])


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
    # the sieve refutes 6 of scan(5, 8)'s 14 candidates, which never reach
    # the pool
    serial = scan(5, 8, jobs=1)
    assert len(serial.records) == 8 and serial.sieved == 6 and sizes == []
    assert doc(scan(5, 8, jobs=64)) == doc(serial)
    assert sizes == [8]
    first = replace(serial, records=serial.records[:1])
    assert doc(scan(5, 8, jobs=64, resume=first)) == doc(serial)
    assert sizes == [8, 7]


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # scan() imports the pool on its parallel path only
    code = "import sys, abelsplit.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    env = {**os.environ, "PYTHONPATH": str(Path(scanlib.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_checkpoint_called_per_record(jobs):
    # k = 8 has five candidates; the sieve refutes two, which are not
    # checkpointed
    seen = []
    report = scan(8, 8, jobs=jobs, checkpoint=seen.append)
    assert report.sieved == 2 and all(one.sieved == 0 for one in seen)
    assert [len(one.records) for one in seen] == [1, 1, 1]
    params = lambda rep: (rep.k_min, rep.k_max, rep.n_max, rep.config)
    assert all(params(one) == params(report) for one in seen)
    in_order = lambda r: (r.candidate.k, r.candidate.order)
    assert sorted((r for one in seen for r in one.records), key=in_order) == list(report.records)
    # a resumed scan checkpoints only the records it decides
    seen.clear()
    resumed = scan(8, 8, jobs=jobs, checkpoint=seen.append,
                   resume=replace(report, records=report.records[:2]))
    assert [len(one.records) for one in seen] == [1]
    assert sorted(r.candidate.order for one in seen for r in one.records) == [
        r.candidate.order for r in resumed.records[2:]
    ]


def test_inconclusive_on_budget():
    # (625, 24) is the one record of k = 24 that reaches the search, which
    # exhausts it in 2 nodes
    report = scan(24, 24, n_max=26, config=SearchConfig(node_limit=2))
    assert overall_verdict(report.totals) == "inconclusive"
    assert report.totals["inconclusive"] >= 1
    (limited,) = [r for r in report.records if r.verdict == INCONCLUSIVE]
    assert limited.candidate.order == 625 and limited.outcome.stats.reason == "node_limit"
    assert check_k_ge_n(report)  # resource-limited records are not "found"


def test_a_budget_limited_record_keeps_its_reason(tmp_path):
    # the report and the journal write the budget that ended (625, 24), and
    # both readers give it back
    report = scan(24, 24, n_max=26, config=SearchConfig(node_limit=2))
    doc = certio.scan_report_to_doc(report)
    (written,) = [r for r in doc["records"] if r["verdict"] == INCONCLUSIVE]
    assert (written["n"], written["result"], written["reason"]) == (26, "resource_limit",
                                                                    "node_limit")
    assert all("reason" not in r for r in doc["records"] if r is not written)
    journal = tmp_path / "scan.jsonl"
    journal.write_text("".join(certio.journal_chunks(report)))
    for back in (certio.scan_report_from_doc(doc), certio.read_journal(journal)):
        (limited,) = [r for r in back.records if r.verdict == INCONCLUSIVE]
        assert limited.outcome.stats.reason == "node_limit"
        assert list(map(_as_written, back.records)) == list(map(_as_written, report.records))
        assert certio.scan_report_to_doc(back) == doc
    # the readers check it against the written form: it must name a budget,
    # and only a resource_limit result has one
    for damage, message in [
        (lambda r: r.update(reason="time_limit"), "differs from what abelsplit writes in reason"),
        (lambda r: r.update(reason="patience"), "ValueError: no budget is named 'patience'"),
        (lambda r: r.pop("reason"), "KeyError: 'reason'"),
    ]:
        damaged = json.loads(json.dumps(doc))
        damage(damaged["records"][-1])
        if "differs" in message:  # time_limit is a budget, but not the one the record met
            assert certio.scan_report_from_doc(damaged).records[-1].outcome.stats.reason == (
                "time_limit")
            continue
        with pytest.raises(certio.DocumentError, match=message):
            certio.scan_report_from_doc(damaged)
    searched = json.loads(json.dumps(certio.scan_report_to_doc(scan(24, 24, n_max=26))))
    searched["records"][-1]["reason"] = "node_limit"
    with pytest.raises(certio.DocumentError,
                       match="^record k=24 n=26 differs from what abelsplit writes in reason$"):
        certio.scan_report_from_doc(searched)


def test_totals_consistent_with_records():
    # every candidate counts once: the 13 records and the 10 the sieve refutes
    report = scan(1, 10)
    totals = report.totals
    assert (len(report.records), report.sieved) == (13, 10)
    assert totals["records"] == len(report.records) + report.sieved == 23
    assert totals[TRIVIAL_EXPECTED] + totals[CONSISTENT] + totals[VIOLATION] + totals[
        "inconclusive"
    ] == totals["records"]
    assert totals[CONSISTENT] == report.sieved + sum(
        r.verdict == CONSISTENT for r in report.records)


def test_the_scan_decides_only_the_candidates_the_sieve_leaves(monkeypatch):
    # scan(1, 30) hands decide the 55 of its 210 candidates that the sieve
    # leaves, trivial orders included, and counts the 155 it refutes
    decided = []
    scan_one = scanlib._scan_one
    monkeypatch.setattr(scanlib, "_scan_one",
                        lambda task: decided.append(task[0]) or scan_one(task))
    report = scan(1, 30)
    assert len(decided) == 55
    assert len(report.records) == 55 and report.sieved == 155
    assert report.totals["records"] == 210
    assert not any(sieve(c) for c in decided)


def _held(fn, *args):
    """fn(*args) and the bytes allocated in the call that are still held
    once it returns: what its result keeps."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_report_holds_only_the_records_it_lists():
    # scan(1, 100) has 2,294 candidates: the sieve refutes 2,063, which keep
    # no record, so the report and its read-back copy hold 231 records,
    # about 0.14 MB each; one record per candidate held about 1.1 MB
    report, held = _held(scan, 1, 100)
    assert held < 500_000
    doc = certio.scan_report_to_doc(report)
    back, held = _held(certio.scan_report_from_doc, doc)
    assert held < 500_000
    assert (len(report.records), report.sieved) == (231, 2_063)
    assert certio.scan_report_to_doc(back) == doc and back.sieved == 2_063


def test_a_record_keeps_its_splitters_not_its_certificate():
    # the 163 trivial orders of k = 900..1000: each record keeps its
    # candidate and its closed form's splitters, about 250 bytes, and builds
    # its certificate when read; one that kept the certificate held
    # {1..k} as a tuple of k ints, about 30 kB, 4.97 MB in all
    trivial = [c for c in scanlib.iter_candidates(900, 1000) if c.trivial]
    assert len(trivial) == 163

    def decide_all():
        return [decide(c, SearchConfig(), lambda left: pytest.fail("search asked"))
                for c in trivial]

    records, held = _held(decide_all)
    assert held < 500_000
    for c, record in zip(trivial, records):
        form = ORDER_K_PLUS_1 if c.n == 1 else ORDER_2K_PLUS_1
        assert record.certificate == trivial_certificate(c.k, form)
    # the record is built only from splitters make_record verified
    order_2k_plus_1 = next(c for c in trivial if c.n == 2)
    with pytest.raises(NotASplitting):
        make_record(order_2k_plus_1, ClosedForm((1, 2)))


@settings(max_examples=25)
@given(k_min=st.integers(1, 40), width=st.integers(0, 39), n_max=st.none() | st.integers(1, 80))
def test_the_sieve_counts_what_the_oracle_refutes(k_min, width, n_max):
    # the oracle: every N = n*k + 1 of the range factored by trial division
    # (candidate_order), refuted when the strata system solved in Fractions
    # has no nonnegative integer solution (counting_witness_by_fractions);
    # the walk, the table, sieve() and counting_witness take no part in it
    k_max = min(40, k_min + width)
    candidates = [c for k in range(k_min, k_max + 1)
                  for n in range(1, (2 * k if n_max is None else n_max) + 1)
                  if (c := candidate_order(k, n)) is not None]
    refuted = [c for c in candidates if not c.trivial
               and counting_witness_by_fractions(c.k, c.order) is not None]
    serial = scan(k_min, k_max, n_max)
    assert serial.routes[COUNTING] == serial.sieved == len(refuted)
    assert serial.totals["records"] == len(candidates)
    assert [r.candidate for r in serial.records] == [c for c in candidates if c not in refuted]
    parallel = scan(k_min, k_max, n_max, jobs=2)
    assert replace(parallel, records=tuple(map(_as_written, parallel.records))) == replace(
        serial, records=tuple(map(_as_written, serial.records)))


def _scan_record_calls(path: Path) -> list[str]:
    """A "<file>: <owner>" line per ScanRecord(...) call in the module at
    path, the owner being the top-level def or class around the call, or
    <module> outside them."""
    calls = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "ScanRecord":
                    calls.append(f"{path.name}: {owner}")
    return calls


def test_only_make_record_builds_a_scan_record():
    # every record, fresh or read back, passes make_record's checks: the
    # re-verified certificate of a found splitter set and the refusal of a
    # refuted trivial order
    package = Path(__file__).resolve().parents[1] / "src" / "abelsplit"
    calls = [call for path in sorted(package.glob("*.py")) for call in _scan_record_calls(path)]
    assert calls and set(calls) == {"scan.py: make_record"}
