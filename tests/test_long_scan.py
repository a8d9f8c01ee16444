"""Smoke test of scripts/long_scan.py: two runs over the same output
directory, the second resuming from the reports the first one left."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

from abelsplit import certio
from abelsplit.scan import scan

ROOT = Path(__file__).resolve().parents[1]


def _long_scan(out_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "long_scan.py"),
         "--k-max", "4", "--chunk", "2", "--jobs", "1", "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_long_scan_resumes_to_identical_reports(tmp_path):
    first = _long_scan(tmp_path)
    assert first.returncode == 0, first.stderr
    reports = sorted(tmp_path.glob("scan_k*.json"))
    assert [p.name for p in reports] == ["scan_k1-2.json", "scan_k3-4.json"]
    before = {p.name: p.read_bytes() for p in reports}

    # Cut the second chunk back to a checkpoint holding only its first record.
    path = tmp_path / "scan_k3-4.json"
    report = certio.scan_report_from_doc(certio.read_document(path))
    assert len(report.records) > 1
    partial = dataclasses.replace(report, records=report.records[:1])
    certio.write_document(path, certio.scan_report_to_doc(partial))

    second = _long_scan(tmp_path)
    assert second.returncode == 0, second.stderr
    assert {p.name: p.read_bytes() for p in sorted(tmp_path.glob("scan_k*.json"))} == before
    assert not list(tmp_path.glob(".*"))


def test_long_scan_rejects_unreadable_report(tmp_path):
    text = certio.dumps_document(certio.scan_report_to_doc(scan(1, 2)))
    (tmp_path / "scan_k1-2.json").write_text(text[: len(text) // 2])  # a truncated report
    result = _long_scan(tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
