import argparse
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from helpers import (
    DEEP_TEXT, DESK_SCAN_SHA256, LONG_INT_TEXT, CommandRunner, canonical_json, tw_passed,
)

from abelsplit import certio, cli, counting
from abelsplit import search as searchlib
from abelsplit.cli import main
from abelsplit.record import replace
from abelsplit.groups import FiniteAbelianGroup, factorize
from abelsplit.scan import ScanReport, overall_verdict, scan
from abelsplit.splitting import MultiplierSet, make_certificate, trivial_certificate


@pytest.fixture
def runner():
    return CommandRunner()


def _write_cert(path, cert):
    certio.write_document(path, certio.certificate_to_doc(cert))


def _summary(result):
    return result.output.strip().splitlines()[-1]


def test_verify_valid(runner, tmp_path):
    path = tmp_path / "z9.json"
    _write_cert(path, trivial_certificate(8))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 0
    assert _summary(result).startswith("verdict=valid")
    assert "classification=purely_singular" in _summary(result)


def test_verify_tampered(runner, tmp_path):
    doc = certio.certificate_to_doc(trivial_certificate(8))
    doc["splitters"] = [[3]]
    path = tmp_path / "bad.json"
    certio.write_document(path, doc)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 1
    assert "verdict=invalid" in result.output


@pytest.mark.parametrize("splitters, lines", [
    (((1,), (4,), (7,)), ["element (2,) reached by both (2, (1,)) and (3, (4,))",
                          "verdict=invalid failure=collision"]),
    (((1,), (5,), (7,)), ["product 2 * (5,) is the identity",
                          "verdict=invalid failure=zero_hit"]),
    (((1,), (4,)), ["count mismatch: |M| * |S| != |G| - 1",
                    "verdict=invalid failure=count_mismatch"]),
])
def test_verify_failure_lines(runner, tmp_path, splitters, lines):
    doc = {
        "format_version": 4,
        "kind": "splitting_certificate",
        "group_factors": [10],
        "multipliers": {"k": 3, "kind": "interval", "values": [1, 2, 3]},
        "splitters": [list(s) for s in splitters],
        "classification": {"tag": "mixed_singular", "witnesses": [[2, 2], [5, None]]},
    }
    path = tmp_path / "bad.json"
    certio.write_document(path, doc)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 1
    assert result.output.splitlines() == lines


def test_verify_empty_file(runner, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2


def test_verify_missing_file(runner, tmp_path):
    result = runner.invoke(main, ["verify", str(tmp_path / "nope.json")])
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["verify"],
    ["tile", "--box", "0:1", "--cert"],
    ["check", "tw", "--cert"],
])
def test_unfactorable_order_is_bad_document(runner, tmp_path, args):
    # 1000033**2: after trial division up to 10**6 the cofactor is composite
    doc = certio.certificate_to_doc(trivial_certificate(8))
    doc["group_factors"] = [1000066001089]
    doc["classification"] = {"tag": "nonsingular", "witnesses": [[1000033, None]]}
    path = tmp_path / "big.json"
    certio.write_document(path, doc)
    result = runner.invoke(main, args + [str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error: bad certificate document" in result.output
    assert "cannot factor 1000066001089" in result.output


@pytest.mark.parametrize("args", [
    ["verify"],
    ["tile", "--box", "0:1", "--cert"],
    ["check", "tw", "--cert"],
])
def test_non_utf8_certificate_is_bad_document(runner, tmp_path, args):
    path = tmp_path / "z9.json"
    _write_cert(path, trivial_certificate(8))
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    result = runner.invoke(main, args + [str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error: bad certificate document: not UTF-8 text" in result.output


@pytest.mark.parametrize("text", [DEEP_TEXT, LONG_INT_TEXT], ids=["nested", "long_int"])
def test_unparsable_certificate_is_bad_document(runner, tmp_path, text):
    path = tmp_path / "cert.json"
    path.write_text(text)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: bad certificate document: not a JSON document")


def test_check_s87_unfactorable_order_is_usage_error(runner):
    result = runner.invoke(main, ["check", "s87", "-N", "1000066001089"])
    assert result.exit_code == 2
    assert "error: cannot factor 1000066001089" in result.output


def test_search_found_writes_certificate(runner, tmp_path):
    out = tmp_path / "z5.json"
    result = runner.invoke(main, ["search", "-N", "5", "--k", "2", "--out", str(out)])
    assert result.exit_code == 0
    assert "result=found" in _summary(result)
    cert = certio.certificate_from_doc(certio.read_document(out))
    assert cert.splitters == ((1,), (4,))


def test_search_nonexistence(runner, tmp_path):
    out = tmp_path / "att.json"
    result = runner.invoke(main, ["search", "-N", "105", "--k", "8", "--out", str(out)])
    assert result.exit_code == 1
    assert "result=exhausted_no_solution" in _summary(result)
    doc = certio.read_document(out)
    assert doc["kind"] == "nonexistence_attestation"
    assert doc["nodes"] > 0


def test_search_precondition(runner):
    result = runner.invoke(main, ["search", "-N", "10", "--k", "4"])
    assert result.exit_code == 2


def test_search_budget_exit_code(runner, tmp_path):
    out = tmp_path / "partial.json"
    result = runner.invoke(
        main, ["search", "-N", "5", "--k", "2", "--node-limit", "1", "--out", str(out)]
    )
    assert result.exit_code == 3
    assert "result=resource_limit" in _summary(result)
    assert certio.read_document(out)["kind"] == "search_partial"


@pytest.mark.parametrize("args", [
    ["--node-limit", "0"],
    ["--node-limit", "-5"],
    ["--time-limit", "-1"],
    ["--time-limit", "nan"],
])
def test_budgets_out_of_range_are_usage_errors(runner, tmp_path, args):
    commands = (
        ["scan", "--k-min", "1", "--k-max", "4", "--out-dir", str(tmp_path / "scan")],
        ["search", "-N", "5", "--k", "2"],
        ["check", "s87", "-N", "9"],
    )
    flag, value = args
    message = (f"node_limit must be >= 1, got {int(value)}" if flag == "--node-limit"
               else f"time_limit_s must be >= 0 or None, got {float(value)}")
    for command in commands:
        result = runner.invoke(main, command + args)
        assert result.exit_code == 2, (command, result.output)
        assert result.stderr == f"error: {message}\n"
    assert not (tmp_path / "scan").exists()


def test_budget_bounds_are_accepted(runner):
    result = runner.invoke(main, ["search", "-N", "5", "--k", "2", "--time-limit", "0"])
    assert result.exit_code == 0


@pytest.mark.parametrize("budget, tail", [
    (["--node-limit", "1"], "nodes=1 rows=1 reason=node_limit"),
    (["--time-limit", "0"], "nodes=0 rows=0 reason=time_limit"),
])
def test_search_summary_names_budget(runner, tmp_path, budget, tail):
    # Z_17956's bit table is more than _TIME_STRIDE units of work, so the
    # clock is read before the first node; under --node-limit 1 the root row
    # s = 1 is built and placed
    result = runner.invoke(
        main, ["search", "-N", "17956", "--k", "95", "--out", str(tmp_path / "p.json"), *budget]
    )
    assert result.exit_code == 3
    assert _summary(result) == f"result=resource_limit order=17956 k=95 {tail}"


def test_check_s87_names_time_budget(runner):
    # the enumeration's work passes _TIME_STRIDE within its first subsets
    result = runner.invoke(main, ["check", "s87", "-N", "27", "--time-limit", "0"])
    assert result.exit_code == 3
    assert _summary(result) == "result=resource_limit reason=time_limit"


def test_scan_writes_reports(runner, tmp_path):
    result = runner.invoke(
        main,
        ["scan", "--k-min", "1", "--k-max", "8", "--jobs", "2", "--out-dir", str(tmp_path)],
    )
    assert result.exit_code == 0
    summary = _summary(result)
    assert summary.startswith("overall=consistent")
    report = certio.scan_report_from_doc(certio.read_document(tmp_path / "scan_k1-8.json"))
    assert overall_verdict(report.totals) == "consistent"
    table = (tmp_path / "scan_k1-8.csv").read_text()
    assert table.startswith("k,n,N,factorization,verdict,route,nodes,millis\n")


@pytest.mark.parametrize("bound, region", [
    ([], "k=5..6 n=1..2k"),
    (["--n-max", "4"], "k=5..6 n=1..4"),
], ids=["default", "n_max"])
def test_scan_summary_names_its_region(runner, tmp_path, bound, region):
    result = runner.invoke(
        main, ["scan", "--k-min", "5", "--k-max", "6", "--jobs", "1", "--out-dir", str(tmp_path),
               *bound])
    assert result.exit_code == 0, result.output
    assert _summary(result).endswith(f" inconclusive=0 {region}")


def test_scan_resume_matches_uninterrupted(runner, tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    r1 = runner.invoke(main, ["scan", "--k-min", "5", "--k-max", "9", "--out-dir", str(a_dir)])
    assert r1.exit_code == 0
    full = certio.scan_report_from_doc(certio.read_document(a_dir / "scan_k5-9.json"))

    # fabricate an interrupted run: a journal of only the first records, resume
    partial = ScanReport(full.k_min, full.k_max, full.n_max, full.config, full.records[:3])
    b_dir.mkdir()
    (b_dir / "scan_k5-9.jsonl").write_text("".join(certio.journal_chunks(partial)))
    r2 = runner.invoke(
        main, ["scan", "--k-min", "5", "--k-max", "9", "--out-dir", str(b_dir), "--resume"]
    )
    assert r2.exit_code == 0
    assert (b_dir / "scan_k5-9.json").read_text() == (a_dir / "scan_k5-9.json").read_text()
    assert not list(b_dir.glob(".*"))  # no temp file left behind


def test_scan_without_a_time_limit_writes_json(runner, tmp_path):
    # --time-limit inf is no limit, written as null: JSON has no Infinity
    def not_json(constant):
        raise ValueError(f"{constant} is not JSON")

    args = ["scan", "--k-min", "1", "--k-max", "3", "--time-limit", "inf", "--out-dir", str(tmp_path)]
    assert runner.invoke(main, args).exit_code == 0
    report = json.loads((tmp_path / "scan_k1-3.json").read_text(), parse_constant=not_json)
    assert report["config"]["time_limit_s"] is None
    head, *lines = (tmp_path / "scan_k1-3.jsonl").read_text().splitlines()
    assert len(lines) == len(report["records"]) > 0
    assert json.loads(head, parse_constant=not_json)["config"]["time_limit_s"] is None
    assert runner.invoke(main, args + ["--resume"]).exit_code == 0


class Killed(Exception):
    pass


def _kill_at_checkpoint(monkeypatch, call, torn=False):
    """Make the scan's journal append die at checkpoint number call, before
    it writes anything; with torn, the checkpoint before it writes only the
    first half of its line. The header, written with no records, passes."""
    journal_lines = certio.journal_lines
    calls = []

    def dying(report):
        if not report.records:
            return journal_lines(report)
        calls.append(report)
        if len(calls) == call:
            raise Killed
        text = "".join(journal_lines(report))
        return [text[:len(text) // 2] if torn and len(calls) == call - 1 else text]

    monkeypatch.setattr(certio, "journal_lines", dying)


def test_scan_killed_after_checkpoint_resumes_to_identical_report(runner, tmp_path, monkeypatch):
    args = ["scan", "--k-min", "1", "--k-max", "8", "--jobs", "1", "--out-dir"]
    whole = runner.invoke(main, args + [str(tmp_path / "whole")])
    assert whole.exit_code == 0
    expected = (tmp_path / "whole" / "scan_k1-8.json").read_bytes()
    expected_journal = (tmp_path / "whole" / "scan_k1-8.jsonl").read_text()

    # the run dies inside its fifth checkpoint: the header and four whole
    # lines, then a cut one
    with monkeypatch.context() as patch:
        _kill_at_checkpoint(patch, 6, torn=True)
        cut = runner.invoke(main, args + [str(tmp_path / "cut")])
    assert cut.exit_code == 2
    assert cut.stderr.splitlines()[-1] == "error: internal error: Killed"
    journal = tmp_path / "cut" / "scan_k1-8.jsonl"
    lines = journal.read_text().split("\n")
    assert len(lines) == 6 and lines[:5] == expected_journal.split("\n")[:5]
    assert 0 < len(lines[5]) < len(expected_journal.split("\n")[5])
    assert not (tmp_path / "cut" / "scan_k1-8.json").exists()

    resumed = runner.invoke(main, args + [str(tmp_path / "cut"), "--resume"])
    assert resumed.exit_code == 0
    assert (tmp_path / "cut" / "scan_k1-8.json").read_bytes() == expected
    assert journal.read_text() == expected_journal
    assert not list((tmp_path / "cut").glob(".*"))  # no temp file left behind


@pytest.mark.parametrize("cut", [1, 105, 209])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_killed_after_a_record_resumes_to_the_pinned_report(
        runner, tmp_path, monkeypatch, jobs, cut):
    args = ["scan", "--k-min", "1", "--k-max", "30", "--jobs", jobs, "--out-dir", str(tmp_path)]
    with monkeypatch.context() as patch:
        _kill_at_checkpoint(patch, cut + 1)
        killed = runner.invoke(main, args)
    assert killed.exit_code == 2
    journal = tmp_path / "scan_k1-30.jsonl"
    assert len(journal.read_text().splitlines()) == 1 + cut

    resumed = runner.invoke(main, args + ["--resume"])
    assert resumed.exit_code == 0
    assert hashlib.sha256((tmp_path / "scan_k1-30.json").read_bytes()).hexdigest() == (
        DESK_SCAN_SHA256)
    merged = certio.dumps_document(certio.scan_report_to_doc(certio.read_journal(journal)))
    assert hashlib.sha256(merged.encode()).hexdigest() == DESK_SCAN_SHA256


def test_scan_resume_of_a_complete_journal_rewrites_identical_bytes(runner, tmp_path):
    args = ["scan", "--k-min", "1", "--k-max", "30", "--jobs", "1", "--out-dir", str(tmp_path)]
    assert runner.invoke(main, args).exit_code == 0
    files = {path.name: path.read_bytes() for path in tmp_path.glob("*.json*")}
    assert hashlib.sha256(files["scan_k1-30.json"]).hexdigest() == DESK_SCAN_SHA256
    resumed = runner.invoke(main, args + ["--resume"])
    assert resumed.exit_code == 0
    assert {path.name: path.read_bytes() for path in tmp_path.glob("*.json*")} == files


def test_scan_resume_from_an_empty_or_cut_journal_starts_over(runner, tmp_path):
    args = ["scan", "--k-min", "5", "--k-max", "6", "--out-dir", str(tmp_path)]
    assert runner.invoke(main, args).exit_code == 0
    report = (tmp_path / "scan_k5-6.json").read_bytes()
    journal = tmp_path / "scan_k5-6.jsonl"
    head = journal.read_text().split("\n")[0]
    for text in ("", head[:100]):  # killed before its header, or inside it
        journal.write_text(text)
        assert runner.invoke(main, args + ["--resume"]).exit_code == 0
        assert (tmp_path / "scan_k5-6.json").read_bytes() == report
        assert journal.read_text().split("\n")[0] == head
        assert len(journal.read_text().splitlines()) == 1 + 4


def test_fresh_scan_truncates_an_old_journal(runner, tmp_path):
    journal = tmp_path / "scan_k5-6.jsonl"
    journal.write_text("not a journal line\n" * 3)
    result = runner.invoke(
        main, ["scan", "--k-min", "5", "--k-max", "6", "--out-dir", str(tmp_path)]
    )
    assert result.exit_code == 0
    assert len(journal.read_text().splitlines()) == 1 + 4
    assert len(certio.read_journal(journal).records) == 4


def _journal_lines(runner, out_dir, k_max=6, options=()):
    result = runner.invoke(main, ["scan", "--k-min", "5", "--k-max", str(k_max), "--jobs", "1",
                                  "--out-dir", str(out_dir), *options])
    assert result.exit_code == 0
    return (out_dir / f"scan_k5-{k_max}.jsonl").read_text().splitlines(keepends=True)


# line 1 of the k 5..6 journal is its header, and lines 2 to 5 hold its
# records in (k, N) order, as a serial scan finishes them

@pytest.mark.parametrize("damage, message", [
    (lambda lines, other: lines.__setitem__(2, lines[2].replace('"stratum": 4', '"stratum": 5')),
     "line 3: record k=5 n=3 differs from what abelsplit writes in counting"),
    (lambda lines, other: lines.__setitem__(1, "{}\n"), "line 2: malformed scan record"),
    (lambda lines, other: lines.__setitem__(2, other["range"][-1]),
     "line 3: record k=7 n=9 is not a scan candidate"),
    # a second header, of another budget, where a record belongs
    (lambda lines, other: lines.__setitem__(2, other["budget"][0]),
     "line 3: malformed scan record"),
    (lambda lines, other: lines.append(lines[1]), "holds a record twice: k=5 n=1"),
], ids=["bad_record", "bad_document", "other_range", "other_budget", "duplicate"])
def test_scan_resume_bad_journal_line_is_usage_error(runner, tmp_path, damage, message):
    lines = _journal_lines(runner, tmp_path / "scan")
    other = {
        "range": _journal_lines(runner, tmp_path / "range", k_max=7),
        "budget": _journal_lines(runner, tmp_path / "budget", options=["--node-limit", "1000"]),
    }
    damage(lines, other)
    lines.append(lines[0][:50])  # a cut last line is dropped, whatever it holds
    (tmp_path / "scan" / "scan_k5-6.jsonl").write_text("".join(lines))
    result = runner.invoke(main, ["scan", "--k-min", "5", "--k-max", "6", "--jobs", "1",
                                  "--out-dir", str(tmp_path / "scan"), "--resume"])
    assert result.exit_code == 2
    assert message in result.output


def _flip_found_verdict(doc):
    # records[0] of the k 5..6 report is the found record at N = 6; keep the
    # totals in step so that only the record itself is wrong
    doc["records"][0]["verdict"] = "conjecture_consistent"
    doc["totals"]["trivial_expected"] -= 1
    doc["totals"]["conjecture_consistent"] += 1


def _add_record_n2(doc):
    # the n = 3 counting record copied to n = 2, where N = 11 is prime and
    # above k, so that only its candidacy is wrong
    doc["records"].insert(1, dict(doc["records"][1], n=2))
    doc["totals"]["conjecture_consistent"] += 1
    doc["totals"]["records"] += 1


# The k 5..6 report holds four records: n = 1, N = 6 (found), and n = 3 and 7,
# N = 16 and 36 (refuted by the counting sieve) for k = 5, and n = 4, N = 25
# (exhausted by the search) for k = 6.

def _search_record_claims_counting(doc):
    record = doc["records"][3]
    assert (record["n"], record["route"]) == (4, "search")
    for key in ("result", "nodes", "max_depth", "splitters"):
        del record[key]
    record.update(route="counting", counting={"p": 5, "stratum": 2})


def _counting_record_claims_search(doc):
    record = doc["records"][1]
    assert record.pop("counting") == {"p": 2, "stratum": 4}
    record.update(route="search", result="exhausted_no_solution", nodes=0, max_depth=0,
                  splitters=None)


def _counting_witness(p, stratum):
    def damage(doc):
        record = doc["records"][2]
        assert (record["n"], record["counting"]) == (7, {"p": 3, "stratum": 1})
        record["counting"] = {"p": p, "stratum": stratum}

    return damage


def _counting_record_with_nodes(doc):
    # what format_version 3 wrote for a search the sieve made needless
    record = doc["records"][1]
    assert record["route"] == "counting"
    record["nodes"] = 0


def _v3_report(doc):
    # what format_version 3 wrote: each record with its N and factorization,
    # and a sieve record with a search of no nodes
    doc["format_version"] = 3
    for record in doc["records"]:
        order = record["k"] * record["n"] + 1
        record.update(N=order, factorization=[list(pe) for pe in factorize(order)])
        if record["route"] == "counting":
            record.update(result="exhausted_no_solution", nodes=0, max_depth=0, splitters=None)


def _add_record(k, n_max, at):
    """Put the record at index at of scan(k, k, n_max) into the k 5..6 report,
    totals kept in step, so that only where it lies is wrong."""
    def damage(doc):
        extra = certio.scan_report_to_doc(scan(k, k, n_max))["records"][at]
        doc["records"] = sorted(doc["records"] + [extra], key=lambda r: (r["k"], r["n"]))
        doc["totals"][extra["verdict"]] += 1
        doc["totals"]["records"] += 1
        doc["totals"]["found"] += int(extra.get("result") == "found")

    return damage


def _empty_range(doc):
    # k_min above k_max, with no records and totals to match
    doc["config"]["k_min"] = 7
    doc["records"] = []
    doc["totals"] = dict.fromkeys(doc["totals"], 0)


def _damaged_resume(runner, tmp_path, damage):
    """Resume the k 5..6 scan from its journal, damaged. A function damages
    the report's document, and the journal is then written from it: the
    header from its keys but records, totals and overall, then a line per
    record. So each record damage meets the journal's record reader, and
    each config damage its header reader. Bytes go in front of the first
    record line, a slice cuts that line, and a str replaces it."""
    r1 = runner.invoke(main, ["scan", "--k-min", "5", "--k-max", "6", "--out-dir", str(tmp_path)])
    assert r1.exit_code == 0
    doc = certio.read_document(tmp_path / "scan_k5-6.json")
    if callable(damage):
        assert [r["n"] for r in doc["records"][:2]] == [1, 3]
        damage(doc)
    head = {key: value for key, value in doc.items()
            if key not in ("records", "totals", "overall")}
    lines = [json.dumps(d, sort_keys=True).encode()
             for d in [dict(head, kind="scan_journal"), *doc["records"]]]
    if isinstance(damage, slice):  # cut the line itself
        lines[1] = lines[1][damage]
    elif isinstance(damage, bytes):  # put bytes in front of the line
        lines[1] = damage + lines[1]
    elif isinstance(damage, str):  # replace the line
        lines[1] = damage.encode()
    (tmp_path / "scan_k5-6.jsonl").write_bytes(b"".join(line + b"\n" for line in lines))
    return runner.invoke(
        main,
        ["scan", "--k-min", "5", "--k-max", "6", "--out-dir", str(tmp_path), "--resume"],
    )


@pytest.mark.parametrize("damage", [
    lambda doc: doc["config"].pop("n_max"),
    lambda doc: doc["records"][0].pop("verdict"),
    lambda doc: doc["records"][0].update(verdict="bogus"),
    lambda doc: doc["records"][0].update(splitters=5),
    lambda doc: doc["records"][0].update(splitters=[2]),
    lambda doc: doc["records"][0].update(splitters=[7]),
    _flip_found_verdict,
    lambda doc: doc["records"][1].update(splitters=[1]),
    lambda doc: doc["records"][1].update(result="bogus"),
    lambda doc: doc.update(note="extra key"),
    lambda doc: doc["records"][1].update(nodes=True),
    lambda doc: doc["records"][1].update(k=5.0),
    slice(0, 40),
    b"\xff\xfe",
    DEEP_TEXT,
    LONG_INT_TEXT,
    _search_record_claims_counting,
    _counting_record_claims_search,
    _counting_witness(2, 1),
    _counting_witness(3, 2),
    _counting_record_with_nodes,
    lambda doc: doc["records"][1].update(N=16),
    _add_record(8, 1, 0),
    _add_record(5, 16, -1),
    lambda doc: doc["config"].update(time_limit_s="60"),
    lambda doc: doc["config"].update(time_limit_s=[1]),
    lambda doc: doc["config"].update(time_limit_s={"a": 1}),
    lambda doc: doc["config"].update(time_limit_s=-5.0),
    lambda doc: doc["config"].update(time_limit_s=True),
    lambda doc: doc["config"].update(node_limit=0),
    _empty_range,
], ids=["config_key", "record_key", "record_verdict",
        "record_splitters", "found_not_a_splitting", "found_not_reduced",
        "verdict_flipped",
        "exhausted_with_splitters", "record_result", "extra_key",
        "nodes_bool", "k_float", "truncated", "non_utf8",
        "nested", "long_int", "search_claims_counting", "counting_claims_search",
        "witness_wrong_p", "witness_wrong_stratum", "counting_with_nodes", "record_with_N",
        "k_outside_range", "n_past_bound",
        "time_limit_str", "time_limit_list", "time_limit_dict", "time_limit_negative",
        "time_limit_bool", "node_limit_zero", "k_min_above_k_max"])
def test_scan_resume_malformed_report_is_usage_error(runner, tmp_path, damage):
    # the envelope of a report, which a journal does not have, is damaged in
    # test_certio's test_scan_report_rejects_a_damaged_envelope
    r2 = _damaged_resume(runner, tmp_path, damage)
    assert r2.exit_code == 2
    assert "bad resume report" in r2.output


@pytest.mark.parametrize("damage", [_add_record_n2], ids=["not_a_candidate"])
def test_scan_resume_foreign_record_is_usage_error(runner, tmp_path, damage):
    r2 = _damaged_resume(runner, tmp_path, damage)
    assert r2.exit_code == 2
    assert "record k=5 n=2 is not a scan candidate" in r2.output


def test_scan_resume_rejects_a_version_3_report(runner, tmp_path):
    r2 = _damaged_resume(runner, tmp_path, _v3_report)
    assert r2.exit_code == 2
    assert "bad resume report" in r2.output and "line 1: unsupported format_version 3" in r2.output


def test_scan_resume_rejects_a_journal_of_one_record_reports(runner, tmp_path):
    # what format_version 4 wrote before journals had a header: each line
    # the compact document of the report that holds one record alone
    report = scan(5, 6)
    journal = tmp_path / "scan_k5-6.jsonl"
    journal.write_text("".join(
        json.dumps(certio.scan_report_to_doc(replace(report, records=(r,))), sort_keys=True) + "\n"
        for r in report.records))
    r2 = runner.invoke(
        main, ["scan", "--k-min", "5", "--k-max", "6", "--out-dir", str(tmp_path), "--resume"])
    assert r2.exit_code == 2
    assert "bad resume report" in r2.output
    assert "line 1: kind is 'scan_report', not 'scan_journal'" in r2.output


def test_scan_resume_mismatch_is_usage_error(runner, tmp_path):
    r1 = runner.invoke(main, ["scan", "--k-min", "5", "--k-max", "6", "--out-dir", str(tmp_path)])
    assert r1.exit_code == 0
    (tmp_path / "scan_k5-7.jsonl").write_text((tmp_path / "scan_k5-6.jsonl").read_text())
    r2 = runner.invoke(
        main,
        ["scan", "--k-min", "5", "--k-max", "7", "--out-dir", str(tmp_path), "--resume"],
    )
    assert r2.exit_code == 2


def test_scan_resume_without_report(runner, tmp_path):
    result = runner.invoke(
        main, ["scan", "--k-min", "5", "--k-max", "6", "--out-dir", str(tmp_path), "--resume"]
    )
    assert result.exit_code == 2
    assert "No such file or directory" in result.output and "scan_k5-6.jsonl" in result.output


def test_scan_bad_range(runner, tmp_path):
    result = runner.invoke(
        main, ["scan", "--k-min", "5", "--k-max", "3", "--out-dir", str(tmp_path)]
    )
    assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["--jobs", "0"],
    ["--jobs", "-4"],
])
def test_scan_bad_counts_are_usage_errors(runner, tmp_path, args):
    out_dir = tmp_path / "scan"
    result = runner.invoke(
        main, ["scan", "--k-min", "1", "--k-max", "3", "--out-dir", str(out_dir)] + args
    )
    assert result.exit_code == 2, result.output
    assert f"error: {args[0]} must be >= 1" in result.output
    assert not out_dir.exists()


@pytest.mark.parametrize("args, params", [
    (["--k-min", "0", "--k-max", "3"], (0, 3, None)),
    (["--k-min", "5", "--k-max", "4"], (5, 4, None)),
    (["--k-min", "1", "--k-max", "3", "--n-max", "0"], (1, 3, 0)),
], ids=["k_min_zero", "k_min_above_k_max", "n_max_zero"])
def test_scan_bad_range_is_the_librarys_usage_error(runner, tmp_path, args, params):
    # the CLI builds its ScanReport, which checks the range, before it makes the directory
    with pytest.raises(ValueError) as raised:
        ScanReport(*params, searchlib.SearchConfig(), ())
    out_dir = tmp_path / "scan"
    result = runner.invoke(main, ["scan", *args, "--out-dir", str(out_dir)])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {raised.value}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("args", [
    ["search", "-N", "105", "--k", "8", "--out", "F/a.json"],
    ["check", "abcde", "--k", "8", "--p", "3", "--out", "F/r.json"],
    ["tile", "--cert", "z5.json", "--box", "0:1,0:1", "--out", "F/t.txt"],
    ["scan", "--k-min", "5", "--k-max", "6", "--out-dir", "F/sub"],
], ids=["search", "check", "tile", "scan"])
def test_file_error_is_usage_error(runner, tmp_path, args):
    # every output path runs through F, a regular file
    (tmp_path / "F").write_text("not a directory\n")
    _write_cert(tmp_path / "z5.json", trivial_certificate(2, "order_2k_plus_1"))
    args = [str(tmp_path / a) if a.startswith("F/") or a == "z5.json" else a for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert "Not a directory" in result.stderr


@pytest.mark.parametrize("args, module, name", [
    (["search", "-N", "5", "--k", "2"], searchlib, "search_splitter"),
    (["scan", "--k-min", "1", "--k-max", "2", "--jobs", "1", "--out-dir", "OUT"], cli, "run_scan"),
    (["check", "s87", "-N", "9"], searchlib, "enumerate_all_splittings"),
], ids=["search", "scan", "check_s87"])
@pytest.mark.parametrize("exc, code, line", [
    (MemoryError(), 2, "error: out of memory"),
    (KeyboardInterrupt(), 3, "result=interrupted"),
    (RuntimeError("boom"), 2, "error: internal error: RuntimeError: boom"),
    (ValueError("bad"), 2, "error: bad"),
    (RuntimeError(), 2, "error: internal error: RuntimeError"),
    (ValueError(), 2, "error: ValueError"),
    (OSError(), 2, "error: OSError"),
], ids=["memory", "interrupt", "internal", "value", "internal_no_message",
        "value_no_message", "os_no_message"])
def test_every_exception_ends_through_one_table(
    runner, tmp_path, monkeypatch, args, module, name, exc, code, line
):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(module, name, fail)
    result = runner.invoke(main, [str(tmp_path) if a == "OUT" else a for a in args])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines()[-1] == line
    assert ("Traceback" in result.stderr) == isinstance(exc, RuntimeError)


def test_usage_endings_pass_through_the_table(runner):
    for args in (["--help"], ["search", "--help"]):
        assert runner.invoke(main, args).exit_code == 0
    result = runner.invoke(main, ["check", "abcde", "--k", "x"])
    assert result.exit_code == 2
    assert "invalid int value" in result.stderr


def test_write_error_names_the_given_path(runner, tmp_path):
    (tmp_path / "F").write_text("not a directory\n")
    out = str(tmp_path / "F" / "a.json")
    result = runner.invoke(main, ["search", "-N", "105", "--k", "8", "--out", out])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: [Errno 20] Not a directory: {out!r}\n"


def test_tile_export(runner, tmp_path):
    cases = [  # order, box, anchors, cells, sha256 of the export
        ("5", "0:9,0:9", 28, 100,
         "f1ef9a14bc6928a08df4b9dbda130f836c535bef5ddb6295965206004a69d937"),
        ("9", "0:4,0:4,0:4,0:4", 179, 625,  # S = {1, 3, 4, 7}
         "5a21b0f775b72124f437e08dd5ad10db32fde8b4eb883b8748b55438151ae39b"),
    ]
    for order, box, anchors, cells, digest in cases:
        cert_path = tmp_path / f"z{order}.json"
        out_path = tmp_path / f"tiles{order}.txt"
        runner.invoke(main, ["search", "-N", order, "--k", "2", "--out", str(cert_path)])
        result = runner.invoke(
            main, ["tile", "--cert", str(cert_path), "--box", box, "--out", str(out_path)]
        )
        assert result.exit_code == 0
        assert _summary(result) == f"verdict=true order={order} anchors={anchors} cells={cells}"
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
        header, rows = certio.parse_tiling_export(out_path.read_text())
        assert header["translates"] == anchors


def test_tile_output_is_pinned(runner, tmp_path):
    # the order-13 certificate with k = 6 over a box whose second axis lies
    # beyond CPython's small-int cache; sha256 of the export and summary line
    cert_path = tmp_path / "z13.json"
    _write_cert(cert_path, trivial_certificate(6, "order_2k_plus_1"))
    result = runner.invoke(main, ["tile", "--cert", str(cert_path), "--box", "-60:59,990:1079"])
    assert result.exit_code == 0
    assert _summary(result) == "verdict=true order=13 anchors=926 cells=10800"
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "c390e5904360d6d1f470ef02c9e727588dd7be4da305c21f8f346147d5bd0ce5"
    )


def test_tile_1dim(runner, tmp_path):
    cert_path = tmp_path / "z4.json"
    _write_cert(cert_path, trivial_certificate(3))
    result = runner.invoke(main, ["tile", "--cert", str(cert_path), "--box", "0:7"])
    assert result.exit_code == 0
    assert "anchors=2" in _summary(result)


def test_tile_invalid_certificate(runner, tmp_path):
    doc = certio.certificate_to_doc(trivial_certificate(8))
    doc["splitters"] = [[3]]
    path = tmp_path / "bad.json"
    certio.write_document(path, doc)
    result = runner.invoke(main, ["tile", "--cert", str(path), "--box", "0:8"])
    assert result.exit_code == 1


@pytest.mark.parametrize("args", [
    ["verify"],
    ["tile", "--box", "0:1,0:1", "--cert"],
    ["check", "strata", "--p", "7", "--cert"],
    ["check", "tw", "--cert"],
])
def test_invalid_certificate_ends_every_command(runner, tmp_path, args):
    # well formed, but 3 = 3 * 1 = 1 * 3 in Z_49 with M = {1..24}
    doc = certio.certificate_to_doc(trivial_certificate(24, "order_2k_plus_1"))
    doc["splitters"] = [[1], [3]]
    path = tmp_path / "z49.json"
    certio.write_document(path, doc)
    result = runner.invoke(main, args + [str(path)])
    assert result.exit_code == 1, result.output
    assert _summary(result) == "verdict=invalid failure=collision"


@pytest.mark.parametrize("args, message", [
    (["search", "-N", "0", "--k", "2"], "order and k must be >= 1"),
    (["tile", "--box", "0:1,0:1", "--cert", "z5.json"],
     "tiling export needs interval multipliers {1..k}"),
    (["check", "strata", "--cert", "z5.json"], "check strata needs --cert and --p"),
])
def test_usage_branches(runner, tmp_path, args, message):
    # z5.json is the splitting of Z_5 by the explicit multipliers {1, 2}
    cert = make_certificate(FiniteAbelianGroup.cyclic(5), MultiplierSet((1, 2)),
                            [(1,), (4,)])
    _write_cert(tmp_path / "z5.json", cert)
    args = [str(tmp_path / a) if a == "z5.json" else a for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {message}\n"


def test_tile_non_cyclic_is_usage_error(runner, tmp_path):
    from abelsplit.groups import FiniteAbelianGroup
    from abelsplit.splitting import MultiplierSet, make_certificate

    cert = make_certificate(
        FiniteAbelianGroup((2, 3)), MultiplierSet.interval(5), [(1, 1)]
    )
    path = tmp_path / "prod.json"
    _write_cert(path, cert)
    result = runner.invoke(main, ["tile", "--cert", str(path), "--box", "0:5,0:5"])
    assert result.exit_code == 2
    z1 = tmp_path / "z1.json"  # the trivial group: no splitters, no prime divisor
    assert runner.invoke(main, ["search", "-N", "1", "--k", "1", "--out", str(z1)]).exit_code == 0
    for args in (["tile", "--cert", str(z1), "--box", "0:3"], ["check", "tw", "--cert", str(z1)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: ")


def test_tile_bad_box(runner, tmp_path):
    path = tmp_path / "z4.json"
    _write_cert(path, trivial_certificate(3))
    result = runner.invoke(main, ["tile", "--cert", str(path), "--box", "0:7,0:7"])
    assert result.exit_code == 2
    path = tmp_path / "z5.json"  # two splitters, so a box has two axes
    _write_cert(path, trivial_certificate(2, "order_2k_plus_1"))
    for box in ("5:0,5:0", "5:0,0:3"):
        result = runner.invoke(main, ["tile", "--cert", str(path), "--box", box])
        assert result.exit_code == 2, box


def test_check_abcde(runner):
    result = runner.invoke(main, ["check", "abcde", "--k", "8", "--p", "3"])
    assert result.exit_code == 0
    assert _summary(result) == "check=abcde checks=4 failures=0 verdict=pass"


def test_check_abcde_failing_parameters(runner):
    result = runner.invoke(
        main, ["check", "abcde", "--k", "20", "--p", "3", "--primes", "5:1:1"]
    )
    assert result.exit_code == 1
    assert "verdict=fail" in _summary(result)


def test_check_abcde_many_primes(runner):
    # Thirty primes above p: the count must not walk all 2**31 prime subsets.
    primes = [q for q in range(3, 128) if all(q % d for d in range(2, q))]
    assert len(primes) == 30
    result = runner.invoke(
        main, ["check", "abcde", "--k", "1000", "--p", "2",
               "--primes", ",".join(f"{q}:1:1" for q in primes)],
    )
    assert result.exit_code == 1
    assert _summary(result) == "check=abcde checks=4 failures=4 verdict=fail"


@pytest.mark.parametrize("primes, part", [
    ("5:1", "5:1"),
    ("5:1:1:1", "5:1:1:1"),
    ("5:x:1", "5:x:1"),
    ("5:1:1,7:1", "7:1"),
    ("5:1:1,", ""),
])
def test_check_abcde_bad_primes_names_the_flag(runner, primes, part):
    result = runner.invoke(main, ["check", "abcde", "--k", "8", "--p", "3", "--primes", primes])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: bad --primes {part!r}: expected q:alpha:beta\n"


@pytest.mark.parametrize("primes, message", [
    ("3:1:1", "primes must be strictly increasing and exceed p"),
    ("5:1:1,5:1:1", "primes must be strictly increasing and exceed p"),
    ("4:1:1", "4 is not prime"),
    ("5:1:2", "need 1 <= alpha and 0 <= beta <= alpha for prime 5"),
    ("5:0:0", "need 1 <= alpha and 0 <= beta <= alpha for prime 5"),
], ids=["not_above_p", "out_of_order", "not_prime", "beta_above_alpha", "alpha_zero"])
def test_check_abcde_bad_prime_row_names_the_flag(runner, primes, message):
    result = runner.invoke(main, ["check", "abcde", "--k", "8", "--p", "3", "--primes", primes])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: bad --primes {primes!r}: {message}\n"


@pytest.mark.parametrize("k, p, message", [
    ("0", "3", "k must be >= 1, got 0"),
    ("8", "4", "4 is not prime"),
])
def test_check_abcde_bad_k_or_p_is_not_blamed_on_primes(runner, k, p, message):
    # with p = 4 the row 3:1:1 is out of order too, but --p is reported first
    result = runner.invoke(main, ["check", "abcde", "--k", k, "--p", p, "--primes", "3:1:1"])
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("args, flags", [
    (["--k", "8", "--k-max", "20", "--p-max", "7"], "--k or --k-max"),
    (["--k-max", "20", "--p", "3", "--p-max", "7"], "--p or --p-max"),
    (["--k", "8", "--p", "3", "--k-max", "20", "--p-max", "7"], "--k or --k-max"),
], ids=["k_and_k_max", "p_and_p_max", "both_pairs"])
def test_check_digits_rejects_a_value_next_to_its_bound(runner, args, flags):
    result = runner.invoke(main, ["check", "digits"] + args)
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: check digits takes {flags}, not both\n"
    assert "verdict=" not in result.output


def test_check_digits_single_and_sweep(runner):
    result = runner.invoke(main, ["check", "digits", "--k", "8", "--p", "3"])
    assert result.exit_code == 0
    result = runner.invoke(
        main, ["check", "digits", "--k-max", "300", "--p-max", "20"]
    )
    assert result.exit_code == 0
    assert "failures=0" in _summary(result)
    # --k with --p-max, and --k-max with --p: each value is the sweep bound
    for args, inputs in [(["--k", "8", "--p-max", "7"], {"k_max": 8, "p_max": 7}),
                         (["--k-max", "20", "--p", "5"], {"k_max": 20, "p_max": 5})]:
        result = runner.invoke(main, ["check", "digits"] + args)
        assert result.exit_code == 0, result.output
        report = json.loads(result.stdout.rsplit("check=", 1)[0])  # the text before the summary
        assert report["inputs"] == inputs


@pytest.mark.parametrize("args, flag", [
    (["--k-max", "0", "--p-max", "1"], "--k-max"),
    (["--k-max", "-5"], "--k-max"),
    (["--k-max", "10", "--p", "1"], "--p"),
    (["--k", "-3", "--p-max", "20"], "--k"),
    (["--k", "0", "--p-max", "20"], "--k"),
    (["--k-max", "10", "--p-max", "1"], "--p-max"),
])
def test_check_digits_empty_sweep_is_usage_error(runner, args, flag):
    result = runner.invoke(main, ["check", "digits"] + args)
    assert result.exit_code == 2, result.output
    assert f"error: {flag} must be >= " in result.output
    assert "verdict=" not in result.output


def test_check_strata(runner, tmp_path):
    path = tmp_path / "z25.json"
    _write_cert(path, trivial_certificate(24))
    result = runner.invoke(main, ["check", "strata", "--cert", str(path), "--p", "5"])
    assert result.exit_code == 0
    assert "checks=2 failures=0" in _summary(result)


def test_check_strata_stratifies_once(runner, tmp_path, monkeypatch):
    # Z_27 and p = 3: alpha = 3 identities from one stratification
    path = tmp_path / "z27.json"
    _write_cert(path, trivial_certificate(13, "order_2k_plus_1"))
    real, calls = counting.stratify, []

    def stratify(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(counting, "stratify", stratify)
    result = runner.invoke(main, ["check", "strata", "--cert", str(path), "--p", "3"])
    assert result.exit_code == 0, result.output
    assert "checks=3 failures=0" in _summary(result)
    assert len(calls) == 1


def test_check_tw(runner, tmp_path):
    path = tmp_path / "z25.json"
    _write_cert(path, trivial_certificate(24))
    result = runner.invoke(main, ["check", "tw", "--cert", str(path)])
    assert result.exit_code == 0
    assert "verdict=pass" in _summary(result)


def test_check_tw_verdict_is_report_passed(runner, tmp_path, monkeypatch):
    # a report whose only fault is |TW_i| != d * |w_i| must fail the check
    genuine = counting.tw_disjointness_check

    def scaled(cert):
        report = genuine(cert)
        return replace(report, decomposition=replace(report.decomposition,
                                                     d=report.decomposition.d + 1))

    monkeypatch.setattr(counting, "tw_disjointness_check", scaled)
    path, out = tmp_path / "z25.json", tmp_path / "tw.json"
    _write_cert(path, trivial_certificate(24))
    assert not tw_passed(scaled(trivial_certificate(24)))
    result = runner.invoke(main, ["check", "tw", "--cert", str(path), "--out", str(out)])
    assert result.exit_code == 1
    assert _summary(result) == "check=tw checks=6 failures=1 verdict=fail"
    failed = [row for row in json.loads(out.read_text())["checks"] if not row["pass"]]
    assert [row["name"] for row in failed] == ["scaling_consistent"]


def test_check_s87(runner):
    result = runner.invoke(main, ["check", "s87", "-N", "9"])
    assert result.exit_code == 0
    assert _summary(result) == "check=s87 checks=4 failures=0 verdict=pass"


def test_check_s87_frees_each_size_before_the_next(runner, monkeypatch):
    class Certificates(list):  # a list that a weak reference can watch
        pass

    enumerate_all = searchlib.enumerate_all_splittings
    lists, alive_at_call = [], []

    def enumerate_watched(order, size, config=None):
        alive_at_call.append([ref() is not None for ref in lists])
        certs = Certificates(enumerate_all(order, size, config))
        lists.append(weakref.ref(certs))
        return certs

    monkeypatch.setattr(searchlib, "enumerate_all_splittings", enumerate_watched)
    result = runner.invoke(main, ["check", "s87", "-N", "9"])
    assert result.exit_code == 0, result.output
    assert alive_at_call == [[], [False], [False, False], [False, False, False]]


def test_check_s87_rejects_non_prime_power(runner):
    result = runner.invoke(main, ["check", "s87", "-N", "15"])
    assert result.exit_code == 2


def test_check_unknown_name(runner):
    result = runner.invoke(main, ["check", "frobnicate"])
    assert result.exit_code == 2
    assert "invalid choice: 'frobnicate'" in result.stderr
    listed = runner.invoke(main, ["check", "--help"])
    assert listed.exit_code == 0
    # under the choices line, each name is indented 4, a wrapped help line more
    commands = listed.output.split("commands:\n")[1].splitlines()[1:]
    names = [line.split()[0] for line in commands if line[4] != " "]
    assert names == ["abcde", "digits", "s87", "strata", "tw"]


def test_check_missing_parameters(runner, tmp_path):
    assert runner.invoke(main, ["check", "abcde"]).exit_code == 2
    assert runner.invoke(main, ["check", "tw"]).exit_code == 2
    assert runner.invoke(main, ["check", "s87"]).exit_code == 2
    assert runner.invoke(main, ["check", "digits"]).exit_code == 2
    assert runner.invoke(main, ["check", "digits", "--k", "8"]).exit_code == 2
    assert runner.invoke(main, ["check", "strata", "--p", "5"]).exit_code == 2


@pytest.mark.parametrize("args", [
    ["tw", "--cert", "z25.json", "--p", "7"],
    ["abcde", "--k", "8", "--p", "3", "--node-limit", "10"],
    ["strata", "--cert", "z25.json", "--p", "5", "--order", "9"],
    ["digits", "--k", "8", "--p", "3", "--cert", "z25.json"],
], ids=["tw", "abcde", "strata", "digits"])
def test_check_rejects_options_it_does_not_read(runner, tmp_path, args):
    # each command line is valid but for its last option, which another check reads
    _write_cert(tmp_path / "z25.json", trivial_certificate(24))
    args = [str(tmp_path / a) if a == "z25.json" else a for a in args]
    result = runner.invoke(main, ["check"] + args)
    assert result.exit_code == 2, result.output
    assert f"unrecognized arguments: {args[-2]}" in result.stderr
    assert "verdict=" not in result.output


# Every leaf command and the options it takes, each mapped to whether it is required.
_BUDGETS = {"--node-limit": False, "--time-limit": False}
_OPTION_SURFACE = {
    "verify": {},
    "search": {"--order": True, "--k": True, "--out": False, **_BUDGETS},
    "scan": {"--k-min": True, "--k-max": True, "--n-max": False, "--jobs": False,
             "--out-dir": False, "--resume": False, **_BUDGETS},
    "tile": {"--cert": True, "--box": True, "--out": False},
    "check abcde": {"--k": True, "--p": True, "--primes": False, "--out": False},
    "check digits": {"--k": False, "--p": False, "--k-max": False, "--p-max": False,
                     "--out": False},
    "check strata": {"--cert": False, "--p": False, "--out": False},
    "check tw": {"--cert": True, "--out": False},
    "check s87": {"--order": True, "--out": False, **_BUDGETS},
}


def test_every_command_takes_exactly_its_options():
    def leaves(parser, path):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    yield from leaves(sub, path + [name])
                return
        yield " ".join(path), parser

    surface = {
        path: {max(action.option_strings, key=len): action.required
               for action in parser._actions
               if action.option_strings and not isinstance(action, argparse._HelpAction)}
        for path, parser in leaves(cli.build_parser(), [])
    }
    assert surface == _OPTION_SURFACE
    assert sum(len(options) for path, options in surface.items() if path.startswith("check")) == 18


@pytest.mark.parametrize("path", list(_OPTION_SURFACE))
def test_every_command_prints_its_help(runner, path):
    result = runner.invoke(main, path.split() + ["--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith(f"usage: abelsplit {path} [--help]")


@pytest.mark.parametrize("args", [
    ["scan", "--k-m", "1", "--k-max", "2"],
    ["search", "-N", "5", "--k", "2", "--node", "9"],
], ids=["scan", "search"])
def test_abbreviated_options_are_usage_errors(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith(f"usage: abelsplit {args[0]} ")
    assert "result=" not in result.output and "overall=" not in result.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["search", "--k", "2"], ["check", "s87"]])
def test_order_takes_its_short_name(runner, command):
    summaries = {_summary(runner.invoke(main, command + [flag, "9"])) for flag in ("-N", "--order")}
    assert len(summaries) == 1
    assert summaries.pop().startswith(("result=found order=9", "check=s87"))


def test_tile_box_may_start_with_a_minus(runner, tmp_path):
    cert_path = tmp_path / "z5.json"
    _write_cert(cert_path, trivial_certificate(2, "order_2k_plus_1"))
    out = tmp_path / "tiles.txt"
    result = runner.invoke(
        main, ["tile", "--cert", str(cert_path), "--box", "-3:3,-3:3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert _summary(result).endswith(" cells=49")
    header, _ = certio.parse_tiling_export(out.read_text())
    assert header["translates"] == int(_summary(result).split("anchors=")[1].split()[0])


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_time_limit_rejects_nan_and_minus_infinity(runner, tmp_path, value):
    commands = (
        ["scan", "--k-min", "1", "--k-max", "4", "--out-dir", str(tmp_path / "scan")],
        ["search", "-N", "5", "--k", "2"],
        ["check", "s87", "-N", "9"],
    )
    for command in commands:
        result = runner.invoke(main, command + ["--time-limit", value])
        assert result.exit_code == 2, (command, result.output)
        assert result.stderr == f"error: time_limit_s must be >= 0 or None, got {value}\n"
    assert not (tmp_path / "scan").exists()


def test_importing_the_cli_loads_only_the_standard_library():
    code = ("import sys; before = set(sys.modules); import abelsplit.cli; "
            "print(*set(sys.modules) - before)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    loaded = {name.partition(".")[0] for name in out.stdout.split()}
    assert "abelsplit" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"abelsplit"}
    # the records are built without dataclasses, which would load inspect, ast and dis
    assert not {"dataclasses", "inspect"} & loaded
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(cli.__file__).parents[2] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["dependencies"] == []


def test_scan_table_is_the_reports_table(runner, tmp_path, monkeypatch):
    reports = []

    def recording(*args, **kwargs):
        reports.append(cli_scan(*args, **kwargs))
        return reports[-1]

    cli_scan = cli.run_scan
    monkeypatch.setattr(cli, "run_scan", recording)
    args = ["scan", "--k-min", "1", "--k-max", "12", "--jobs", "1", "--out-dir", str(tmp_path)]
    assert runner.invoke(main, args).exit_code == 0
    table = tmp_path / "scan_k1-12.csv"
    assert table.read_bytes() == certio.scan_report_table(reports[-1]).encode()

    journal = tmp_path / "scan_k1-12.jsonl"
    journal.write_text("".join(journal.read_text().splitlines(keepends=True)[:1 + 7]))
    assert runner.invoke(main, args + ["--resume"]).exit_code == 0
    assert len(reports) == 2 and len(reports[1].records) == len(reports[0].records)
    assert table.read_bytes() == certio.scan_report_table(reports[1]).encode()


def test_resumed_scan_table_leaves_restored_search_millis_empty(runner, tmp_path):
    # a report keeps no time, so a restored search record has none to show,
    # while the sieve spends none, restored or not
    args = ["scan", "--k-min", "20", "--k-max", "30", "--jobs", "1", "--out-dir", str(tmp_path)]
    assert runner.invoke(main, args).exit_code == 0
    journal = tmp_path / "scan_k20-30.jsonl"
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text("".join(lines[:-3]))
    rerun = {(r["k"], r["n"]) for r in map(json.loads, lines[-3:])}
    assert runner.invoke(main, args + ["--resume"]).exit_code == 0
    rows = (tmp_path / "scan_k20-30.csv").read_text().splitlines()[1:]
    restored = {"search": set(), "counting": set()}
    for row in rows:
        k, n, _, _, _, route, _, millis = row.split(",")
        if (int(k), int(n)) in rerun:
            assert millis.isdigit(), row
        else:
            restored[route].add(millis)
    assert len(rows) == 121 and len(rerun) == 3
    assert restored == {"search": {""}, "counting": {"0"}}


def test_check_writes_report(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main, ["check", "abcde", "--k", "8", "--p", "3", "--out", str(out)]
    )
    assert result.exit_code == 0
    doc = certio.read_document(out)
    assert doc["kind"] == "check_report" and doc["verdict"] == "pass"


def test_every_written_document_matches_json_dumps(runner, tmp_path, monkeypatch):
    z25 = tmp_path / "z25.json"
    _write_cert(z25, trivial_certificate(24))
    written = []
    writer = certio.dumps_document

    def recording(doc):
        written.append(doc)
        return writer(doc)

    monkeypatch.setattr(certio, "dumps_document", recording)
    commands = (
        (["search", "-N", "5", "--k", "2"], 0),
        (["search", "-N", "105", "--k", "8"], 1),
        (["search", "-N", "5", "--k", "2", "--node-limit", "1"], 3),
        (["scan", "--k-min", "5", "--k-max", "7", "--out-dir", str(tmp_path)], 0),
        (["check", "abcde", "--k", "20", "--p", "3", "--primes", "5:1:1"], 1),
        (["check", "digits", "--k", "8", "--p", "3"], 0),
        (["check", "digits", "--k-max", "20", "--p-max", "7"], 0),
        (["check", "strata", "--cert", str(z25), "--p", "5"], 0),
        (["check", "tw", "--cert", str(z25)], 0),
        (["check", "s87", "-N", "9"], 0),
    )
    for args, code in commands:
        assert runner.invoke(main, args).exit_code == code, args
    assert {doc["kind"] for doc in written} == {
        "splitting_certificate", "nonexistence_attestation", "search_partial",
        "scan_report", "check_report",
    }
    for doc in written:
        assert writer(doc) == canonical_json(doc)


def test_summary_lines_are_key_value(runner, tmp_path):
    path = tmp_path / "z9.json"
    _write_cert(path, trivial_certificate(8))
    cases = (
        (["verify", str(path)], 0),
        (["check", "abcde", "--k", "8", "--p", "3"], 0),
        (["check", "s87", "-N", "27", "--node-limit", "10"], 3),
    )
    for args, code in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == code
        for token in _summary(result).split():
            assert "=" in token
    assert _summary(result) == "result=resource_limit reason=node_limit"
