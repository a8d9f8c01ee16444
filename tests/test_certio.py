import errno
import hashlib
import importlib
import io
import json
import os
import pickle
import re
import time
import tracemalloc
from collections import Counter
from itertools import groupby

import pytest
from helpers import (
    DEEP_TEXT, DESK_SCAN_SHA256, LONG_INT_TEXT, canonical_json, live_rows_by_orbits,
    parse_tiling_export_by_lines, propagation_refutes_by_orbits, record_document_by_hand,
)
from hypothesis import example, given
from hypothesis import strategies as st

from abelsplit import certio
from abelsplit.groups import FiniteAbelianGroup
from abelsplit.record import replace
from abelsplit.scan import VIOLATION, CandidateOrder, Propagation, ScanReport, make_record, scan
from abelsplit.search import FOUND, SearchConfig, search_splitter
from abelsplit.splitting import (
    MultiplierSet, NotASplitting, make_certificate, trivial_certificate,
)
from abelsplit.tiling import TranslateView, export_translates, lattice_from_splitting, semi_cross

Z = FiniteAbelianGroup.cyclic
scanlib = importlib.import_module("abelsplit.scan")  # the package re-exports scan()

_AWKWARD_TEXT = ["", '"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\t\r", "é€😀", "\u2028\ud800"]
_AWKWARD_NUMBERS = [
    0, -1, -(2**100), 10**400, 0.1, 1e300, -1e-300, 1e16, -0.0,
    float("nan"), float("inf"), float("-inf"),
]
_keys = st.text() | st.sampled_from(_AWKWARD_TEXT)
_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(_AWKWARD_TEXT + _AWKWARD_NUMBERS)
)
_trees = st.recursive(
    _scalars | st.sampled_from([{}, [], ()]),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_keys, children, max_size=4)
    ),
    max_leaves=25,
)


@given(_trees)
def test_dumps_document_matches_json_dumps(tree):
    assert certio.dumps_document(tree) == canonical_json(tree)


def test_dumps_document_awkward_values():
    values = _AWKWARD_TEXT + _AWKWARD_NUMBERS + [True, False, None]
    keys = _AWKWARD_TEXT * 3
    tree = {
        key + str(i): [value, {key: value}, (value, [], {}), [[{}]]]
        for i, (key, value) in enumerate(zip(keys, values))
    }
    tree["nested"] = {"empty": [{}, [], (), {"a": []}], "flags": (True, False, None)}
    assert certio.dumps_document(tree) == canonical_json(tree)


@pytest.mark.parametrize("doc, type_name", [
    ({"a": 1, 2: "b"}, "int"),
    ({(1, 2): "a"}, "tuple"),
    ({"a": {1, 2}}, "set"),
    ({"a": [object()]}, "object"),
    ({"a": b"x"}, "bytes"),
])
def test_dumps_document_rejects_non_json_types(doc, type_name):
    with pytest.raises(TypeError, match=type_name):
        certio.dumps_document(doc)


def test_dumps_document_is_narrower_than_json_dumps():
    # json.dumps coerces an int key to its text; the writer refuses it
    assert canonical_json({1: "a"}) == '{\n  "1": "a"\n}\n'
    with pytest.raises(TypeError, match="int"):
        certio.dumps_document({1: "a"})


def test_record_documents_agree_with_the_hand_built_oracle():
    # the desk scan holds records of the four routes and found ones; {1, 2}
    # splitting Z_9 is a violation, which embeds the certificate document
    candidate = CandidateOrder(2, 4, 9, ((3, 2),))
    violation = make_record(candidate, search_splitter(Z(9), MultiplierSet.interval(2)))
    desk = scan(1, 30)
    assert len(desk.records) == 210
    assert {r.route for r in desk.records} == {"closed_form", "counting", "propagation", "search"}
    assert any(r.outcome.result == FOUND for r in desk.records)
    for report in (desk, ScanReport(2, 2, 4, SearchConfig(), (violation,))):
        doc = certio.scan_report_to_doc(report)
        plain = dict(doc, records=[record_document_by_hand(r) for r in report.records
                                   if r.route != "counting"])
        assert json.dumps(doc, sort_keys=True) == json.dumps(plain, sort_keys=True)
        assert certio.dumps_document(doc) == canonical_json(plain)
        # each document is built fresh: changing one changes no later one
        doc["records"][0]["splitters"].append(7)
        doc["records"][0].clear()
        assert certio.scan_report_to_doc(report)["records"] == plain["records"]


def test_desk_records_carry_only_their_routes_keys():
    # the sieve's 155 records are counted, not listed
    doc = certio.scan_report_to_doc(scan(1, 30))
    keys = {"closed_form": {"k", "n", "verdict", "route", "splitters"},
            "propagation": {"k", "n", "verdict", "route", "propagation"},
            "search": {"k", "n", "verdict", "route", "result", "nodes", "max_depth", "rows",
                       "splitters"}}
    routes = Counter(record["route"] for record in doc["records"])
    assert set(routes) == set(keys) and routes.total() == 55
    assert doc["routes"] == dict(routes, counting=155)
    for record in doc["records"]:
        assert set(record) == keys[record["route"]], record


# (729, 26): -29 forces the row 28, then -31 the row 379, and -32 is dead
_PROOF_729 = ((700, 28), (698, 379)), 697


@pytest.mark.parametrize("steps, dead", [
    _PROOF_729,
    (_PROOF_729[0], 600),  # another dead residue, past the probes
], ids=["proved", "other_dead"])
def test_propagation_checker_accepts_a_refutation(steps, dead):
    certio.check_propagation(26, 729, Propagation(steps, dead))
    assert propagation_refutes_by_orbits(26, 729, steps, dead)


@pytest.mark.parametrize("steps, dead, message", [
    # -1 has 18 live rows at first, so none is forced
    (((728, 28),) + _PROOF_729[0], 697,
     r"step \(728, 28\): the live rows of 728 are \[28, 52, 56, 91, .*, 656, 728\]$"),
    # 1's orbit is covered, so the row 1 is live for nothing
    (((700, 1), (698, 379)), 697,
     r"step \(700, 1\): the live rows of 700 are \[28\]$"),
    # before 379 is forced, 698 has that one live row
    (_PROOF_729[0][:1], 698, r"dead residue 698 has the live rows \[379\]$"),
    # forced first, 379 is not the one live row of 698
    (_PROOF_729[0][::-1], 697,
     r"step \(698, 379\): the live rows of 698 are \[379, 577\]$"),
    (_PROOF_729[0], 28, "probes 28, which is zero, covered or no residue of Z_729$"),
    (_PROOF_729[0], 0, "probes 0, which is zero"),
    (_PROOF_729[0], 729 + 697, "probes 1426, which is zero"),
], ids=["two_live_rows", "forced_row_not_live", "dead_has_live_row", "forced_too_early",
        "dead_covered", "dead_zero", "dead_out_of_range"])
def test_propagation_checker_rejects_a_mutated_refutation(steps, dead, message):
    with pytest.raises(certio.DocumentError, match=message):
        certio.check_propagation(26, 729, Propagation(steps, dead))
    assert not propagation_refutes_by_orbits(26, 729, steps, dead)


def test_propagation_mutations_probe_what_they_claim():
    # the oracle's live rows behind the mutations above
    assert len(live_rows_by_orbits(26, 729, [], 728)) == 18
    assert live_rows_by_orbits(26, 729, [], 700) == [28]
    assert live_rows_by_orbits(26, 729, [28], 698) == [379]
    assert live_rows_by_orbits(26, 729, [], 698) == [379, 577]


def test_checkpoints_render_each_record_once(tmp_path, monkeypatch):
    rendered = Counter()  # record documents built, by (k, N)
    record_doc = certio._record_doc

    def counted(record):
        rendered[record.candidate.k, record.candidate.order] += 1
        return record_doc(record)

    monkeypatch.setattr(certio, "_record_doc", counted)
    path = tmp_path / "scan.jsonl"
    path.write_text("".join(certio.journal_chunks(_no_records(1, 8))))

    def append(one):
        with open(path, "a") as journal:
            journal.writelines(certio.journal_lines(one))

    report = scan(1, 8, checkpoint=append)
    assert len(report.records) == 17  # so 17 checkpoints, of one record each
    # a sieve record is rendered by none: its checkpoint appends nothing
    each_once = Counter((r.candidate.k, r.candidate.order) for r in report.records
                        if r.route != "counting")
    assert len(each_once) == 11 and rendered == each_once
    # the final report renders each record once more
    text = certio.dumps_document(certio.scan_report_to_doc(report))
    assert rendered == each_once + each_once
    assert certio.dumps_document(certio.scan_report_to_doc(certio.read_journal(path))) == text


def _no_records(k_min, k_max):
    """The report of no records of scan(k_min, k_max), whose journal is its
    header alone."""
    return ScanReport(k_min, k_max, None, SearchConfig(), ())


def test_last_checkpoint_of_the_desk_scan_is_pinned(tmp_path):
    # the journal as the last checkpoint leaves it, serial and parallel: its
    # header once, then one line per record but the sieve's, in the order
    # they finished
    head = json.dumps({"config": {"k_max": 30, "k_min": 1, "n_max": None,
                                  "node_limit": 10**8, "time_limit_s": 60.0},
                       "format_version": 6, "kind": "scan_journal"}, sort_keys=True) + "\n"
    for jobs in (1, 2):
        path = tmp_path / f"scan_{jobs}.jsonl"
        finished = []

        def checkpoint(one):
            finished.extend(r for r in one.records if r.route != "counting")
            journal.writelines(certio.journal_lines(one))

        with open(path, "w") as journal:
            journal.writelines(certio.journal_chunks(_no_records(1, 30)))
            report = scan(1, 30, jobs=jobs, checkpoint=checkpoint)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[0] == head and head not in lines[1:]
        assert len(lines[1:]) == len(finished) == 55 and len(report.records) == 210
        assert lines[1:] == [
            json.dumps(certio._record_doc(r), sort_keys=True) + "\n" for r in finished]
        merged = certio.dumps_document(certio.scan_report_to_doc(certio.read_journal(path)))
        assert hashlib.sha256(merged.encode()).hexdigest() == DESK_SCAN_SHA256


def test_violation_record_document_matches_json_dumps():
    # {1, 2} splits Z_9, an order that is neither k + 1 nor 2k + 1
    candidate = CandidateOrder(2, 4, 9, ((3, 2),))
    record = make_record(candidate, search_splitter(Z(9), MultiplierSet.interval(2)))
    assert record.verdict == VIOLATION
    doc = certio.scan_report_to_doc(ScanReport(2, 2, 4, SearchConfig(), (record,)))
    assert doc["overall"] == "violation" and "certificate" in doc["records"][0]
    assert certio.dumps_document(doc) == canonical_json(doc)


def test_streamed_report_is_the_document_text(tmp_path):
    # the desk report, one with no records, an n_max report and one whose
    # violation record embeds its certificate
    candidate = CandidateOrder(2, 4, 9, ((3, 2),))
    violation = make_record(candidate, search_splitter(Z(9), MultiplierSet.interval(2)))
    reports = [scan(1, 30), ScanReport(3, 7, None, SearchConfig(), ()), scan(8, 8, n_max=13),
               ScanReport(2, 2, 4, SearchConfig(), (violation,))]
    for i, report in enumerate(reports):
        doc = certio.scan_report_to_doc(report)
        certio.write_document(tmp_path / f"{i}.json", doc)
        assert (tmp_path / f"{i}.json").read_bytes() == certio.dumps_document(doc).encode()
    desk = (tmp_path / "0.json").read_bytes()
    assert hashlib.sha256(desk).hexdigest() == DESK_SCAN_SHA256
    assert '"records": []' in (tmp_path / "1.json").read_text()
    assert '"n_max": 13' in (tmp_path / "2.json").read_text()
    assert '"certificate": {' in (tmp_path / "3.json").read_text()


def test_certificate_round_trip():
    certs = [
        trivial_certificate(8),
        trivial_certificate(12, "order_2k_plus_1"),
        make_certificate(Z(9), MultiplierSet((1, 2)), [(1,), (3,), (4,), (7,)]),
        make_certificate(FiniteAbelianGroup((2, 3)), MultiplierSet.interval(5), [(1, 1)]),
    ]
    for cert in certs:
        doc = certio.certificate_to_doc(cert)
        text = certio.dumps_document(doc)
        back = certio.certificate_from_doc(certio.loads_document(text))
        assert back == cert
        assert certio.dumps_document(certio.certificate_to_doc(back)) == text


def test_equal_certificates_serialize_identically():
    a = make_certificate(Z(5), MultiplierSet.interval(2), [(4,), (1,)])
    b = make_certificate(Z(5), MultiplierSet.interval(2), [(1,), (4,)])
    assert certio.dumps_document(certio.certificate_to_doc(a)) == certio.dumps_document(
        certio.certificate_to_doc(b)
    )


def _valid_doc():
    return certio.certificate_to_doc(trivial_certificate(8))


def test_malformed_documents_rejected():
    with pytest.raises(certio.DocumentError):
        certio.loads_document("")
    with pytest.raises(certio.DocumentError):
        certio.loads_document("[1, 2]")
    with pytest.raises(certio.DocumentError):
        certio.loads_document('{"kind": "splitting_certificate"}')  # no version
    with pytest.raises(certio.DocumentError, match="no kind"):
        certio.loads_document(f'{{"format_version": {certio.FORMAT_VERSION}}}')
    with pytest.raises(certio.DocumentError, match="recursion"):  # deeper than the stack
        certio.loads_document('{"a": ' + "[" * 10_000 + "]" * 10_000 + "}")
    with pytest.raises(certio.DocumentError, match="4300 digits"):  # over the int digit limit
        certio.loads_document('{"n": ' + "1" * 5_000 + "}")

    doc = _valid_doc()
    doc["format_version"] = 99
    with pytest.raises(certio.DocumentError):
        certio.loads_document(certio.dumps_document(doc))

    doc = _valid_doc()
    doc["splitters"] = [[8], [1]]  # not sorted
    with pytest.raises(certio.DocumentError):
        certio.certificate_from_doc(doc)

    doc = _valid_doc()
    doc["splitters"] = [[10]]  # not reduced
    with pytest.raises(certio.DocumentError):
        certio.certificate_from_doc(doc)

    doc = _valid_doc()
    doc["splitters"] = [[True]]  # reduces to [1], but not what abelsplit writes
    with pytest.raises(certio.DocumentError):
        certio.certificate_from_doc(doc)

    doc = _valid_doc()
    doc["splitters"] = [[1, 2]]  # two coordinates for one factor
    with pytest.raises(certio.DocumentError):
        certio.certificate_from_doc(doc)

    doc = _valid_doc()
    doc["classification"]["tag"] = "nonsingular"  # contradicts group and multipliers
    with pytest.raises(certio.DocumentError):
        certio.certificate_from_doc(doc)

    doc = _valid_doc()
    doc["multipliers"]["k"] = 9  # interval tag inconsistent with values
    with pytest.raises(certio.DocumentError):
        certio.certificate_from_doc(doc)

    doc = _valid_doc()
    doc["note"] = "extra key"
    with pytest.raises(certio.DocumentError):
        certio.certificate_from_doc(doc)

    doc = _valid_doc()
    doc["group_factors"] = [float("inf")]  # what JSON makes of 1e999
    with pytest.raises(certio.DocumentError):
        certio.certificate_from_doc(doc)

    doc = certio.certificate_to_doc(trivial_certificate(24))
    doc["group_factors"] = [25.0]  # equal to 25 in Python, but not what abelsplit writes
    with pytest.raises(certio.DocumentError):
        certio.certificate_from_doc(doc)


def test_tampered_splitters_still_parse():
    # a tampered but well-formed certificate parses, and then fails as a
    # non-splitting, not as a DocumentError, so the CLI reports it invalid
    # rather than malformed
    doc = _valid_doc()
    doc["splitters"] = [[3]]
    with pytest.raises(NotASplitting) as info:
        certio.certificate_from_doc(doc)
    assert not isinstance(info.value, certio.DocumentError)
    assert info.value.report.kind == "zero_hit"  # 3 * 3 = 0 in Z_9


def test_scan_report_round_trip_and_determinism():
    report = scan(5, 9)
    doc = certio.scan_report_to_doc(report)
    text = certio.dumps_document(doc)
    back = certio.scan_report_from_doc(certio.loads_document(text))
    assert certio.dumps_document(certio.scan_report_to_doc(back)) == text
    assert [r.candidate for r in back.records] == [r.candidate for r in report.records]
    assert [r.verdict for r in back.records] == [r.verdict for r in report.records]
    decisions = lambda rep: [r.outcome if r.route != "search" else r.outcome.stats.nodes
                             for r in rep.records]
    assert decisions(back) == decisions(report)
    found = [r.certificate for r in report.records if r.outcome.result == FOUND]
    assert found and all(found)
    assert [r.certificate for r in back.records] == [r.certificate for r in report.records]


def test_scan_report_doc_counts_totals_once(monkeypatch):
    calls = []
    totals = ScanReport.totals.fget
    monkeypatch.setattr(ScanReport, "totals", property(lambda r: calls.append(r) or totals(r)))
    doc = certio.scan_report_to_doc(scan(5, 6))
    assert len(calls) == 1
    assert doc["overall"] == "consistent" and doc["totals"]["records"] == 4


def test_scan_report_doc_excludes_timing():
    report = scan(8, 8)
    text = certio.dumps_document(certio.scan_report_to_doc(report))
    assert "elapsed" not in text and "wall_clock" not in text and "millis" not in text


def test_scan_report_rejects_inconsistent_totals():
    doc = certio.scan_report_to_doc(scan(8, 8))
    doc["totals"]["found"] += 1
    with pytest.raises(certio.DocumentError):
        certio.scan_report_from_doc(doc)


@given(
    k_min=st.integers(1, 5) | st.booleans(),
    n_max=st.none() | st.integers(1, 12) | st.booleans(),
    node_limit=st.integers(1, 10**20) | st.booleans(),
    time_limit_s=(st.none() | st.floats(min_value=0.0) | st.just(-0.0) | st.integers(0, 10**9)
                  | st.booleans()),
)
@example(k_min=5, n_max=None, node_limit=True, time_limit_s=60.0)
@example(k_min=5, n_max=None, node_limit=10**8, time_limit_s=True)
@example(k_min=True, n_max=None, node_limit=10**8, time_limit_s=60.0)
@example(k_min=5, n_max=True, node_limit=10**8, time_limit_s=60.0)
def test_every_scan_config_the_types_accept_reads_back(k_min, n_max, node_limit, time_limit_s):
    # Python takes a bool for an int, but a report would write it as true,
    # which reads back as no int, so the types refuse it; whatever they
    # accept, the report reader takes back as written
    if bool in {type(k_min), type(n_max), type(node_limit), type(time_limit_s)}:
        with pytest.raises(TypeError):
            scan(k_min, 6, n_max, SearchConfig(node_limit, time_limit_s))
        return
    report = scan(k_min, 6, n_max, SearchConfig(node_limit, time_limit_s))
    doc = certio.scan_report_to_doc(report)
    back = certio.scan_report_from_doc(doc)
    assert replace(back, records=()) == replace(report, records=())
    assert certio.dumps_document(certio.scan_report_to_doc(back)) == certio.dumps_document(doc)


def test_scan_report_rejects_an_infinite_time_limit():
    # SearchConfig stores +inf as None, so abelsplit writes null, never Infinity
    doc = certio.scan_report_to_doc(scan(8, 8, config=SearchConfig(time_limit_s=float("inf"))))
    assert doc["config"]["time_limit_s"] is None
    doc["config"]["time_limit_s"] = float("inf")
    with pytest.raises(certio.DocumentError, match="config"):
        certio.scan_report_from_doc(doc)


# The k 5..6 range holds four candidates: n = 1, N = 6 (closed form), and
# n = 3 and 7, N = 16 and 36 (refuted by the counting sieve) for k = 5, and
# n = 4, N = 25 (refuted by propagation) for k = 6. Its report lists the
# first and the last, and counts the sieve's two in routes.

_COUNTED_5_3 = {"k": 5, "n": 3, "verdict": "conjecture_consistent", "route": "counting",
                "counting": {"p": 2, "stratum": 4}}
_SEARCHED_5_7 = {"k": 5, "n": 7, "verdict": "conjecture_consistent", "route": "search",
                 "result": "exhausted_no_solution", "nodes": 0, "max_depth": 0, "rows": 0,
                 "splitters": None}


@pytest.mark.parametrize("damage, message", [
    # a searched record's nodes are read from it, but a closed form has none
    (lambda records: records[0].update(nodes=0),
     "record k=5 n=1 differs from what abelsplit writes in nodes"),
    (lambda records: records[1].update(note="extra key"),
     "record k=6 n=4 differs from what abelsplit writes in note"),
    (lambda records: records[1].update(N=25),
     "record k=6 n=4 differs from what abelsplit writes in N"),
    (lambda records: records[0].update(verdict="conjecture_consistent"),
     "record k=5 n=1 differs from what abelsplit writes in verdict"),
    # the reader names the first record out of (k, N) order
    (lambda records: records.reverse(),
     "malformed scan_report: ValueError: record k=5 n=1 comes after k=6 n=4"),
    (lambda records: records.insert(2, records[1]),
     "malformed scan_report: ValueError: scan report holds a record twice: k=6 n=4"),
    # the walk of the range beside the records: a candidate the sieve
    # leaves must be listed, and one it refutes must not, on any route
    (lambda records: records.pop(1), "scan_report lacks the candidate k=6 n=4"),
    (lambda records: records.insert(1, _COUNTED_5_3),
     "record k=5 n=3 is a candidate the counting sieve refutes, which abelsplit does not list"),
    (lambda records: records.insert(1, _SEARCHED_5_7),
     "record k=5 n=7 is a candidate the counting sieve refutes, which abelsplit does not list"),
], ids=["nodes", "extra_key", "N", "verdict", "order", "repeated", "propagation_dropped",
        "counting_added", "sieved_listed"])
def test_scan_report_names_the_record_that_differs(damage, message):
    doc = certio.scan_report_to_doc(scan(5, 6))
    assert [(r["k"], r["n"]) for r in doc["records"]] == [(5, 1), (6, 4)]
    assert doc["routes"] == {"closed_form": 1, "counting": 2, "propagation": 1, "search": 0}
    damage(doc["records"])
    with pytest.raises(certio.DocumentError, match=f"^{message}$"):
        certio.scan_report_from_doc(doc)


def test_scan_report_rejects_a_repeated_record():
    # scan() never writes one and ScanReport refuses one, so the record
    # k=6 n=4 is repeated in the document, with routes and totals that
    # count it twice, as the writer would: only the records can tell
    doc = certio.scan_report_to_doc(scan(5, 6))
    doc["records"].insert(2, doc["records"][1])
    doc["routes"]["propagation"] += 1
    doc["totals"]["records"] += 1
    doc["totals"]["conjecture_consistent"] += 1
    assert [(r["k"], r["n"]) for r in doc["records"]] == [(5, 1), (6, 4), (6, 4)]
    with pytest.raises(certio.DocumentError, match="^malformed scan_report: ValueError: "
                                                   "scan report holds a record twice: k=6 n=4$"):
        certio.scan_report_from_doc(doc)


@pytest.mark.parametrize("dropped", [0, 1, 6, -1])
def test_scan_report_names_the_first_candidate_it_lacks(dropped):
    # routes and totals are written from the records, so only the walk of
    # the range beside the records can tell that one is missing; the index
    # is among the eight records the report lists
    report = scan(5, 8)
    listed = [r for r in report.records if r.route != "counting"]
    assert len(listed) == 8
    gone = listed[dropped].candidate
    records = tuple(r for r in report.records if r.candidate != gone)
    doc = certio.scan_report_to_doc(replace(report, records=records))
    with pytest.raises(certio.DocumentError,
                       match=f"^scan_report lacks the candidate k={gone.k} n={gone.n}$"):
        certio.scan_report_from_doc(doc)


def test_scan_report_cut_short_fails_within_one_k():
    # every k >= 3 has the candidate (k - 1)**2 at n = k - 2
    report = scan(5, 9)
    cut = tuple(r for r in report.records if r.candidate.k <= 7)
    doc = certio.scan_report_to_doc(replace(report, records=cut))
    with pytest.raises(certio.DocumentError, match="^scan_report lacks the candidate k=8 n=1$"):
        certio.scan_report_from_doc(doc)


def test_scan_report_cut_short_fails_within_two_k():
    # with n_max = 1 the candidate (k - 1)**2 at n = k - 2 lies outside the
    # range from k = 4 on; N = k + 1 is a candidate when composite, which
    # 11 is not, so the walk passes k = 10 and names k = 11
    report = scan(3, 40, n_max=1)
    cut = tuple(r for r in report.records if r.candidate.k <= 9)
    doc = certio.scan_report_to_doc(replace(report, records=cut))
    with pytest.raises(certio.DocumentError, match="^scan_report lacks the candidate k=11 n=1$"):
        certio.scan_report_from_doc(doc)


def _empty_range(doc):
    # k_min above k_max, with no records and totals to match
    doc["config"]["k_min"] = 7
    doc["records"] = []
    doc["totals"] = dict.fromkeys(doc["totals"], 0)


@pytest.mark.parametrize("damage, message", [
    (lambda doc: doc.update(records=5), "malformed scan_report: TypeError"),
    (lambda doc: doc.update(note="extra key"), "scan_report differs .* in note$"),
    (lambda doc: doc["records"].reverse(),
     "malformed scan_report: ValueError: record k=5 n=1 comes after k=6 n=4$"),
    # the sieve refutes two candidates of the range, not three
    (lambda doc: doc["routes"].update(counting=3),
     "scan_report differs from what abelsplit writes in routes$"),
    (slice(0, 400), "not a JSON document"),
    (b"\xff\xfe", "not UTF-8 text"),
    (DEEP_TEXT, "not a JSON document: maximum recursion depth"),
    (LONG_INT_TEXT, "not a JSON document: Exceeds the limit"),
    (_empty_range, r"malformed scan_report: ValueError: bad k range \[7, 6\]$"),
], ids=["records_not_list", "extra_key", "records_reversed", "routes_counting", "truncated",
        "non_utf8", "nested", "long_int", "k_min_above_k_max"])
def test_scan_report_rejects_a_damaged_envelope(tmp_path, damage, message):
    # the report's own keys and text; a journal holds its records one a line
    # under a header, which test_cli damages through --resume. A function
    # damages the document, bytes go in front of the text, a slice cuts it
    # and a str replaces it.
    doc = certio.scan_report_to_doc(scan(5, 6))
    text = certio.dumps_document(doc).encode()
    if isinstance(damage, slice):
        text = text[damage]
    elif isinstance(damage, bytes):
        text = damage + text
    elif isinstance(damage, str):
        text = damage.encode()
    else:
        damage(doc)
        text = certio.dumps_document(doc).encode()
    path = tmp_path / "scan.json"
    path.write_bytes(text)
    with pytest.raises(certio.DocumentError, match=f"^{message}"):
        certio.scan_report_from_doc(certio.read_document(path))


def _unsorted(line):
    """The journal line with its keys in reverse order: the same JSON."""
    doc = json.loads(line)
    return json.dumps(dict(reversed(doc.items()))) + "\n"


def test_journal_names_the_line_and_record_that_differ(tmp_path):
    lines = list(certio.journal_chunks(scan(5, 6)))
    assert len(lines) == 3  # the header, then n = 1 for k = 5 and n = 4 for k = 6
    lines[2] = lines[2].replace('"route": "propagation"', '"nodes": 0, "route": "propagation"')
    path = tmp_path / "scan.jsonl"
    path.write_text("".join(lines))
    message = "line 3: record k=6 n=4 differs from what abelsplit writes in nodes"
    with pytest.raises(certio.DocumentError, match=f"^{message}$"):
        certio.read_journal(path)


def test_journal_lines_read_back_in_any_order(tmp_path):
    # records finish in any order under --jobs, and the reader looks each
    # line's record up by its (k, n), so reversed lines read the same report
    report = scan(5, 8)
    head, *lines = certio.journal_chunks(report)
    assert len(lines) == 8
    written, reversed_ = tmp_path / "written.jsonl", tmp_path / "reversed.jsonl"
    written.write_text(head + "".join(lines))
    reversed_.write_text(head + "".join(reversed(lines)))
    read = certio.read_journal(reversed_)
    assert read == certio.read_journal(written)
    assert certio.scan_report_to_doc(read) == certio.scan_report_to_doc(report)


@pytest.mark.parametrize("index, damage, message", [
    (1, _unsorted, "line 2: record k=5 n=1 is not written as abelsplit writes it"),
    (0, lambda line: line.replace('"kind"', '"note": 1, "kind"'),
     "line 1: scan_journal differs from what abelsplit writes in note"),
    (0, _unsorted, "line 1: scan_journal is not written as abelsplit writes it"),
], ids=["record_text", "header_key", "header_text"])
def test_journal_lines_are_byte_for_byte_what_abelsplit_writes(tmp_path, index, damage, message):
    # a line holding the same JSON in other text is refused too
    lines = list(certio.journal_chunks(scan(5, 6)))
    lines[index] = damage(lines[index])
    path = tmp_path / "scan.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(certio.DocumentError, match=f"^{message}$"):
        certio.read_journal(path)


def test_scan_report_is_compared_once(monkeypatch):
    compared = []
    require = certio._require_written_form
    monkeypatch.setattr(certio, "_require_written_form",
                        lambda rebuilt, doc, what: compared.append(what) or require(
                            rebuilt, doc, what))
    # each listed record as the walk rebuilds it, then the envelope
    doc = certio.scan_report_to_doc(scan(5, 9))
    assert len(doc["records"]) > 1
    certio.scan_report_from_doc(doc)
    assert compared == [f"record k={r['k']} n={r['n']}" for r in doc["records"]] + ["scan_report"]


_SCAN_5_8 = scan(5, 8)  # 8 listed records: closed_form at 0, 2, 3, 5, propagation at 1, 4, 6, 7


def _set_step(r):
    r["propagation"]["steps"][1][1] = 54  # [53, 53] becomes [53, 54]


@pytest.mark.parametrize("index, damage, message", [
    (0, lambda r: r.update(verdict=VIOLATION),
     "record k=5 n=1 differs from what abelsplit writes in verdict"),
    (1, lambda r: r.update(note=1), "record k=6 n=4 differs from what abelsplit writes in note"),
    (3, lambda r: r.update(nodes=0), "record k=7 n=2 differs from what abelsplit writes in nodes"),
    (4, _set_step, "propagation step (53, 54): the live rows of 53 are [53]"),
], ids=["verdict", "extra_key", "closed_form_nodes", "propagation_step"])
def test_report_and_journal_readers_refuse_a_record_alike(tmp_path, index, damage, message):
    # one rule for a listed record: the report reader names it as the
    # journal reader does, less the journal's line
    doc = certio.scan_report_to_doc(_SCAN_5_8)
    damage(doc["records"][index])
    head, *lines = certio.journal_chunks(_SCAN_5_8)
    lines[index] = json.dumps(doc["records"][index], sort_keys=True) + "\n"
    path = tmp_path / "scan.jsonl"
    path.write_text(head + "".join(lines))
    with pytest.raises(certio.DocumentError, match=f"^{re.escape(message)}$"):
        certio.scan_report_from_doc(doc)
    with pytest.raises(certio.DocumentError,
                       match=f"^line {index + 2}: {re.escape(message)}$"):
        certio.read_journal(path)


def test_report_reader_names_a_damaged_record_before_a_missing_candidate():
    # the record is compared as the walk rebuilds it, so a record that
    # differs is named before a candidate the report lacks after it
    doc = certio.scan_report_to_doc(_SCAN_5_8)
    doc["records"][0]["verdict"] = VIOLATION
    del doc["records"][2]  # k=7 n=1
    message = "record k=5 n=1 differs from what abelsplit writes in verdict"
    with pytest.raises(certio.DocumentError, match=f"^{message}$"):
        certio.scan_report_from_doc(doc)
    doc = certio.scan_report_to_doc(_SCAN_5_8)
    del doc["records"][2]
    with pytest.raises(certio.DocumentError,
                       match="^scan_report lacks the candidate k=7 n=1$"):
        certio.scan_report_from_doc(doc)


def test_scan_report_table_shape():
    report = scan(24, 24, n_max=26)
    table = certio.scan_report_table(report)
    lines = table.strip().splitlines()
    assert lines[0] == "k,n,N,factorization,verdict,route,nodes,millis"
    assert len(lines) == 1 + len(report.records) == 10
    # only the search searches: it shows its nodes and its time, every
    # other route 0 and 0
    assert lines[1] == "24,1,25,5^2,trivial_expected,closed_form,0,0"
    assert lines[3] == "24,5,121,11^2,conjecture_consistent,propagation,0,0"
    assert lines[4] == "24,7,169,13^2,conjecture_consistent,counting,0,0"
    assert lines[7].split(",")[:4] == ["24", "16", "385", "5*7*11"]
    searched, millis = lines[-1].rsplit(",", 1)
    assert searched == "24,26,625,5^4,conjecture_consistent,search,2" and millis.isdigit()


def test_attestation_and_partial_docs():
    m = MultiplierSet.interval(3)
    outcome = search_splitter(Z(10), m)
    doc = certio.search_result_doc(10, m, outcome)
    assert doc["kind"] == "nonexistence_attestation"
    assert doc["result"] == "exhausted_no_solution"
    assert doc["nodes"] == outcome.stats.nodes

    limited = search_splitter(Z(5), MultiplierSet.interval(2), SearchConfig(node_limit=1))
    doc = certio.search_result_doc(5, MultiplierSet.interval(2), limited)
    assert doc["kind"] == "search_partial" and doc["result"] == "resource_limit"

    found = search_splitter(Z(5), MultiplierSet.interval(2))
    with pytest.raises(ValueError):
        certio.search_result_doc(5, MultiplierSet.interval(2), found)


def test_check_report_doc():
    rows = [{"name": "x", "expected": 1, "actual": 1, "pass": True}]
    doc = certio.check_report_doc("abcde", {"k": 8}, rows)
    assert doc["verdict"] == "pass"
    rows.append({"name": "y", "expected": 1, "actual": 2, "pass": False})
    assert certio.check_report_doc("abcde", {}, rows)["verdict"] == "fail"
    with pytest.raises(ValueError):
        certio.check_report_doc("abcde", {}, [{"name": "z"}])


def test_tiling_export_round_trip():
    cert = make_certificate(Z(5), MultiplierSet.interval(2), [(1,), (4,)])
    hom, lattice = lattice_from_splitting(cert)
    shape = semi_cross(2, 2)
    translates = export_translates(lattice, shape, [(0, 4), (0, 4)])
    text = certio.tiling_export_text(shape, lattice, hom, translates)
    header, rows = certio.parse_tiling_export(text)
    assert header["modulus"] == 5 and header["weights"] == [1, 4]
    assert header["basis"] == [[5, 1], [0, 1]]
    assert header["translates"] == len(translates)
    expected_rows = [
        (anchor, cell) for anchor, cells in translates for cell in cells
    ]
    assert list(rows) == expected_rows
    header_line, columns, first, *rest = text.splitlines(keepends=True)
    no_dimension = header_line.replace('"dimension": 2, ', "")
    anchor = first.rsplit(",", 2)[0]
    anchors_only = "".join(line.rsplit(",", 2)[0] + "\n" for line in [first, *rest])
    for bad in (
        "no header\n1,2\n",
        no_dimension + columns + first + "".join(rest),  # header lacks dimension
        "# [1]\n" + columns + first,  # header is not an object
        header_line + columns + anchor + ",x,0\n" + "".join(rest),  # non-integer cell
        header_line + columns + anchor + ",7,7\n" + "".join(rest),  # tampered cell
        header_line + columns + anchors_only,  # rows hold only their anchor columns
        header_line + columns + "0\n" + first + "".join(rest),  # a row shorter than an anchor
        certio.tiling_export_text(  # a whole translate off the lattice
            shape, lattice, hom, TranslateView(shape, sorted([*translates.anchors, (0, 1)]))
        ),
    ):
        with pytest.raises(certio.DocumentError):
            certio.parse_tiling_export(bad)


def _export(cert, k: int, box) -> tuple:
    """The arguments of tiling_export_text for cert's semi-cross over box."""
    hom, lattice = lattice_from_splitting(cert)
    shape = semi_cross(len(cert.splitters), k)
    return shape, lattice, hom, export_translates(lattice, shape, box)


def test_every_written_semi_cross_export_reads_back():
    for k in range(1, 7):
        for form, box in [("order_k_plus_1", [(-7, 20)]), ("order_2k_plus_1", [(-3, 9), (5, 14)])]:
            shape, lattice, hom, translates = _export(trivial_certificate(k, form), k, box)
            assert shape == semi_cross(len(box), k)
            text = certio.tiling_export_text(shape, lattice, hom, translates)
            header, rows = certio.parse_tiling_export(text)
            assert (header["dimension"], header["k_plus"]) == (len(box), k)
            assert header["translates"] == len(translates)
            assert list(rows) == [(anchor, cell) for anchor, cells in translates for cell in cells]


_WRITTEN_EXPORTS = [
    certio.tiling_export_text(*_export(cert, k, box))
    for cert, k, box in [
        (make_certificate(Z(5), MultiplierSet.interval(2), [(1,), (4,)]), 2, [(0, 4), (0, 4)]),
        (trivial_certificate(3), 3, [(0, 7)]),
        (trivial_certificate(3), 3, [(3, 2)]),  # an empty box
    ]
]


def _read_with(reader, text):
    """What reader makes of text: its header and a list of its rows, or None
    if it rejects it."""
    try:
        header, rows = reader(text)
    except certio.DocumentError:
        return None
    return header, list(rows)


@st.composite
def _mutated_exports(draw):
    """A written export with one row, block, character or header value
    changed, trailing text, or no final newline."""
    text = draw(st.sampled_from(_WRITTEN_EXPORTS))
    head, columns, *rows = text.splitlines(keepends=True)
    row = st.integers(0, max(len(rows) - 1, 0))
    kind = draw(st.sampled_from(
        ["drop", "duplicate", "swap rows", "swap blocks", "edit", "count", "trailing", "newline"]
    ))
    if kind == "edit" or not rows and kind in ("drop", "duplicate", "swap rows", "swap blocks"):
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + draw(st.sampled_from('0123456789,-\n #:"{}a')) + text[at + 1:]
    if kind == "trailing":
        return text + draw(st.text(alphabet="0123456789,-\n", min_size=1, max_size=12))
    if kind == "newline":
        return text[:-1]
    if kind == "count":
        count = re.search(r'"translates": (\d+)', head)[1]
        value = draw(st.sampled_from([f'"{count}"', "true", f"{count}.0"]))
        head = head.replace(f'"translates": {count}', f'"translates": {value}')
    elif kind == "swap blocks":
        n = (columns.count(",") + 1) // 2
        rows = ["".join(block) for _, block in groupby(rows, lambda r: r.split(",")[:n])]
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    else:
        i, j = draw(row), draw(row)
        if kind == "drop":
            del rows[i]
        elif kind == "duplicate":
            rows.insert(i, rows[i])
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return "".join([head, columns, *rows])


def test_tiling_export_readers_accept_written_exports():
    for text in _WRITTEN_EXPORTS:
        header, rows = certio.parse_tiling_export(text)
        rows = list(rows)
        assert parse_tiling_export_by_lines(text) == (header, rows)
        assert len(rows) == text.count("\n") - 2


@given(_mutated_exports())
@example(_WRITTEN_EXPORTS[0] + "0\n")  # a row shorter than an anchor
def test_tiling_export_reader_agrees_with_line_reader(text):
    expected = _read_with(parse_tiling_export_by_lines, text)
    assert _read_with(certio.parse_tiling_export, text) == expected


def _traced_peak(fn, *args):
    """fn(*args) and the bytes it allocated at its peak, beyond what was
    allocated before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_report_reader_cost_follows_its_records():
    # k_max = 10**9 breaks the range rule and is refused before any walk.
    # k_max = 30,000 passes it (its largest order is 1.8 * 10**9), and a
    # reader that built a table of it would ask for about 7.2 GB; the walk
    # of the range stops at the first candidate the records lack, N = 8 at
    # k = 7
    for k_max, message in [
        (10**9, "malformed scan_report: ValueError: the scan k=5..1000000000 n=1..2k reaches "
                "the order 2000000000000000001; its candidate table holds orders below 2**31"),
        (30_000, "scan_report lacks the candidate k=7 n=1"),
    ]:
        doc = certio.scan_report_to_doc(scan(5, 6))
        doc["config"]["k_max"] = k_max

        def read():
            with pytest.raises(certio.DocumentError, match=f"^{re.escape(message)}$"):
                certio.scan_report_from_doc(doc)

        _, peak = _traced_peak(read)
        assert peak < 1_000_000


def test_a_range_past_the_table_is_refused_before_any_table(tmp_path, monkeypatch):
    # the candidates of k = 3 are the orders 4**a; n_max = (4**8 - 1) // 3
    # holds eight of them. Rewritten to n_max = 10**12, the report and the
    # journal claim the order 3*10**12 + 1, past what an array("i") table
    # holds, and are refused at once, naming the config, with no table built
    report = scan(3, 3, n_max=(4**8 - 1) // 3)
    assert [r.candidate.order for r in report.records] == [4**a for a in range(1, 9)]
    doc = certio.scan_report_to_doc(report)
    doc["config"]["n_max"] = 10**12
    head, *lines = certio.journal_chunks(report)
    journal = tmp_path / "scan.jsonl"
    journal.write_text("".join([head.replace('"n_max": 21845', '"n_max": 1000000000000'),
                                *lines]))
    monkeypatch.setattr(scanlib, "largest_prime_factors",
                        lambda limit: pytest.fail(f"a table up to {limit} is built"))
    with pytest.raises(ValueError) as raised:
        scan(3, 3, n_max=10**12)
    message = str(raised.value)
    assert message == ("the scan k=3..3 n=1..1000000000000 reaches the order 3000000000001; "
                       "its candidate table holds orders below 2**31")
    for read, refusal in [
        (lambda: certio.scan_report_from_doc(doc), "malformed scan_report: ValueError: "),
        (lambda: certio.read_journal(journal), "line 1: malformed scan_journal: ValueError: "),
    ]:
        def refused():
            with pytest.raises(certio.DocumentError) as error:
                read()
            return str(error.value)

        start = time.perf_counter()
        text, peak = _traced_peak(refused)
        assert time.perf_counter() - start < 0.1
        assert text == refusal + message and peak < 1_000_000


@pytest.fixture(scope="module")
def report_45():
    """scan(1, 45): 467 records, 94 of them listed in an 18,987-byte
    report."""
    return scan(1, 45)


def test_report_reader_builds_no_second_document(report_45):
    # the records are compared with their written form as they are rebuilt,
    # a few at a time, so no document tree or text of the whole report is
    # built beside them. The reader returns every record, the sieve's 373
    # among them, which the text does not hold, so the peak is bounded by
    # what those records take alone (a copy of them, unpickled) and three
    # times the text: about 0.20 MB, against a bound of 0.19 + 0.06 MB
    doc = certio.scan_report_to_doc(report_45)
    text = certio.dumps_document(doc)
    read, peak = _traced_peak(certio.scan_report_from_doc, doc)
    assert certio.dumps_document(certio.scan_report_to_doc(read)) == text
    _, records = _traced_peak(pickle.loads, pickle.dumps(report_45.records))
    assert peak <= records + 3 * len(text)


@pytest.mark.parametrize("index", [16, -1])  # a record amid the report, the last
def test_report_reader_names_a_later_record_that_differs(report_45, index):
    doc = certio.scan_report_to_doc(report_45)
    record = doc["records"][index]
    record["verdict"] = VIOLATION
    message = f"record k={record['k']} n={record['n']} differs from what abelsplit writes"
    with pytest.raises(certio.DocumentError, match=f"^{message} in verdict$"):
        certio.scan_report_from_doc(doc)


_BOX_250 = [(0, 249), (0, 249)]


@pytest.fixture(scope="module")
def export_250():
    """The 250 x 250 box under the order-13 certificate with k = 6: 5,038
    translates, 65,494 rows."""
    return _export(trivial_certificate(6, "order_2k_plus_1"), 6, _BOX_250)


def _round_trip(shape, lattice, hom, box):
    """export_translates, tiling_export_text and parse_tiling_export in turn."""
    translates = export_translates(lattice, shape, box)
    text = certio.tiling_export_text(shape, lattice, hom, translates)
    return translates, text, certio.parse_tiling_export(text)


def test_tiling_export_round_trip_peak_is_within_3x_its_text(export_250):
    # the export and the reader hold one anchor per translate, so the text
    # and the writer's blocks set the peak; a cell tuple per row would not fit
    shape, lattice, hom, _ = export_250
    (translates, text, (header, rows)), peak = _traced_peak(
        _round_trip, shape, lattice, hom, _BOX_250)
    assert header["translates"] == len(translates) == 5_038
    assert sum(1 for _ in rows) == 65_494
    assert peak <= 3 * len(text)


def test_tiling_export_writer_peak_is_within_3x_its_text(export_250):
    text, peak = _traced_peak(certio.tiling_export_text, *export_250)
    assert text.count("\n") == 65_494 + 2
    assert peak <= 3 * len(text)


def test_tiling_export_reader_holds_no_second_copy(export_250):
    text = certio.tiling_export_text(*export_250)
    (header, rows), peak = _traced_peak(certio.parse_tiling_export, text)
    oracle, oracle_peak = _traced_peak(parse_tiling_export_by_lines, text)
    assert (header, list(rows)) == oracle
    assert peak <= 0.7 * oracle_peak


def test_streamed_export_holds_one_block_beside_the_buffer(export_250, tmp_path):
    # the 930,537-byte export, block by block: the file object's buffer and
    # one block
    path = tmp_path / "tiles.txt"
    _, peak = _traced_peak(certio.write_chunks, path, certio.tiling_export_chunks(*export_250))
    assert path.read_text() == certio.tiling_export_text(*export_250)
    assert peak <= 32 * 1024


def test_export_views_share_one_int_per_coordinate_value():
    # coordinates far beyond CPython's small-int cache; all cells stay alive,
    # so distinct ids are distinct objects
    box = [(10**4, 10**4 + 59), (-(10**4), -(10**4) + 59)]
    shape, lattice, hom, translates = _export(trivial_certificate(6, "order_2k_plus_1"), 6, box)
    _, rows = certio.parse_tiling_export(certio.tiling_export_text(shape, lattice, hom, translates))
    read = [cell for _, cell in rows]
    built = [cell for _, cs in translates for cell in cs]
    assert read == built and len(read) > 60 * 60
    for cells in (read, built):
        values = [c for cell in cells for c in cell]
        assert len(set(map(id, values))) == len(set(values))


def test_tiling_export_reader_builds_no_shape_for_an_empty_export():
    # an export without translates is valid for any k_plus; neither reading
    # it nor its rows may build the semi-cross its header names
    text = _WRITTEN_EXPORTS[2].replace('"k_plus": 3', '"k_plus": 10000000')
    (header, rows), peak = _traced_peak(_read_with, certio.parse_tiling_export, text)
    assert header["k_plus"] == 10**7 and header["translates"] == 0
    assert rows == []
    assert peak < 1_000_000


def test_tiling_export_reader_checks_header_sizes_before_building():
    text = _WRITTEN_EXPORTS[0]
    claims = [("dimension", 4000), ("dimension", 2000), ("k_plus", 10**7), ("dimension", "1e999"),
              ("dimension", 0), ("k_plus", 0)]
    for claim, size in claims:
        bad = re.sub(f'"{claim}": \\d+', f'"{claim}": {size}', text)
        assert len(bad) < 1000
        tracemalloc.start()
        try:
            with pytest.raises(certio.DocumentError):
                certio.parse_tiling_export(bad)
            assert tracemalloc.get_traced_memory()[1] < 1_000_000
        finally:
            tracemalloc.stop()


class _FullDisk(io.FileIO):
    """A file on a disk that fills up: a write takes half of the bytes
    given, then fails with ENOSPC."""

    def write(self, data):
        super().write(bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")


def test_interrupted_write_keeps_old_document(tmp_path, monkeypatch):
    path = tmp_path / "cert.json"
    old = certio.certificate_to_doc(trivial_certificate(8))
    certio.write_document(path, old)

    def full_disk_open(file, mode):
        assert mode == "wb"
        return io.BufferedWriter(_FullDisk(file, "w"))

    with monkeypatch.context() as m:
        m.setattr(certio, "open", full_disk_open, raising=False)
        with pytest.raises(OSError) as info:
            certio.write_document(path, certio.certificate_to_doc(trivial_certificate(12)))
    assert info.value.errno == errno.ENOSPC and info.value.filename == str(path)
    assert certio.read_document(path) == old
    assert [p.name for p in tmp_path.iterdir()] == ["cert.json"]


def test_write_chunks_keeps_the_old_file_when_its_chunks_fail(tmp_path):
    path = tmp_path / "report.json"
    certio.write_chunks(path, ["old\n"])

    def chunks():
        yield "x" * (1 << 14)  # above the file buffer, so a write reaches the temp file
        raise RuntimeError("renderer failed")

    with pytest.raises(RuntimeError, match="^renderer failed$"):
        certio.write_chunks(path, chunks())
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_write_chunks_round_trips_long_non_ascii_text(tmp_path):
    # characters of one to four bytes, in pieces whose encodings cross the
    # file buffer's boundaries
    text = "aé€😀\n" * (1 << 12)
    assert len(text.encode()) > 8192
    path = tmp_path / "text.txt"
    certio.write_chunks(path, [text])
    assert path.read_bytes() == text.encode()
    certio.write_chunks(path, [text[:3], "", text[3:], "tail"])
    assert path.read_bytes() == (text + "tail").encode()
    certio.write_chunks(path, (text[i:i + 7] for i in range(0, len(text), 7)))
    assert path.read_bytes() == text.encode()


def test_write_chunks_mode_follows_the_umask(tmp_path):
    path = tmp_path / "report.json"
    previous = os.umask(0o022)
    try:
        certio.write_chunks(path, ["old\n"])
        path.chmod(0o600)  # a replaced file takes the temp file's mode, not its own
        certio.write_chunks(path, ["é€😀\n"])
    finally:
        os.umask(previous)
    assert path.stat().st_mode & 0o777 == 0o644
    assert path.read_bytes() == "é€😀\n".encode()
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
