"""Structured documents: certificates, scan reports, attestations, check
reports, and tiling exports.

Every document is canonical JSON (sorted keys, two-space indent, trailing
newline), so equal objects serialize to identical bytes. Scan report
documents deliberately exclude wall-clock data; timing appears only in the
tabular export's millis column, which is diagnostic and carries 0 for
records restored through a resume. Every file abelsplit writes goes through
write_text, which replaces the target atomically.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .groups import FiniteAbelianGroup
from .scan import (
    CONSISTENT,
    INCONCLUSIVE,
    TRIVIAL_EXPECTED,
    VIOLATION,
    CandidateOrder,
    ScanRecord,
    ScanReport,
)
from .search import EXHAUSTED, FOUND, SearchOutcome, SearchStats
from .splitting import (
    EXPLICIT,
    INTERVAL,
    MultiplierSet,
    SplittingCertificate,
    classify_multipliers,
)
from .tiling import ErrorBallShape, IntegerLattice, LatticeHom

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """Malformed or internally inconsistent document."""


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {doc.get('format_version')!r}")
    if "kind" not in doc:
        raise DocumentError("document has no kind")
    return doc


def write_text(path, text: str) -> None:
    """Replace the file at path with text, atomically.

    The text goes to a temp file beside the target, which os.replace then
    moves over it, so a process killed mid-write leaves the old file whole.
    The temp file is made by open, not tempfile, so its mode follows the
    umask, and it is removed if the write fails. There is no fsync: this
    guards against a killed process, not against a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_document(path, doc: dict) -> None:
    write_text(path, dumps_document(doc))


def read_document(path) -> dict:
    return loads_document(Path(path).read_text())


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise DocumentError(message)


# -- splitting certificates --------------------------------------------------

def multipliers_to_doc(m: MultiplierSet) -> dict:
    doc = {"kind": m.kind, "values": list(m.values)}
    if m.kind == INTERVAL:
        doc["k"] = len(m)
    return doc


def multipliers_from_doc(doc) -> MultiplierSet:
    _expect(isinstance(doc, dict), "multipliers must be an object")
    kind = doc.get("kind")
    values = doc.get("values")
    _expect(isinstance(values, list) and all(isinstance(v, int) for v in values),
            "multiplier values must be integers")
    try:
        if kind == INTERVAL:
            m = MultiplierSet.interval(len(values))
            _expect(list(m.values) == values, "interval values must be exactly 1..k")
            _expect(doc.get("k") == len(values), "interval k does not match values")
            return m
        if kind == EXPLICIT:
            return MultiplierSet(tuple(values), kind=EXPLICIT)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    raise DocumentError(f"unknown multiplier kind {kind!r}")


def certificate_to_doc(cert: SplittingCertificate) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "splitting_certificate",
        "group_factors": list(cert.group.factors),
        "multipliers": multipliers_to_doc(cert.multipliers),
        "splitters": [list(s) for s in cert.splitters],
        "classification": {
            "tag": cert.classification.tag,
            "witnesses": [[p, m] for p, m in cert.classification.witnesses],
        },
    }


def certificate_from_doc(doc: dict) -> SplittingCertificate:
    """Parse a certificate document; structure only, no splitting verification.

    The stored classification must match the one recomputed from the group
    and multipliers; splitters must be reduced, strictly sorted coordinate
    tuples. Verifying that the certificate is an actual splitting is the
    caller's job.
    """
    _expect(doc.get("kind") == "splitting_certificate", "not a splitting_certificate")
    factors = doc.get("group_factors")
    _expect(isinstance(factors, list) and factors, "group_factors must be a nonempty list")
    try:
        group = FiniteAbelianGroup(tuple(factors))
    except (TypeError, ValueError) as exc:
        raise DocumentError(str(exc)) from exc
    multipliers = multipliers_from_doc(doc.get("multipliers"))
    raw = doc.get("splitters")
    _expect(isinstance(raw, list), "splitters must be a list")
    splitters = []
    for entry in raw:
        _expect(isinstance(entry, list) and all(isinstance(c, int) for c in entry),
                "each splitter must be a list of integers")
        _expect(len(entry) == len(group.factors), "splitter arity does not match group")
        _expect(all(0 <= c < d for c, d in zip(entry, group.factors)),
                "splitter coordinates must be reduced")
        splitters.append(tuple(entry))
    _expect(splitters == sorted(set(splitters)), "splitters must be strictly sorted")
    classification = classify_multipliers(group, multipliers)
    stored = doc.get("classification")
    _expect(isinstance(stored, dict), "classification must be an object")
    recomputed = {
        "tag": classification.tag,
        "witnesses": [[p, m] for p, m in classification.witnesses],
    }
    _expect(stored == recomputed, "classification does not match group and multipliers")
    return SplittingCertificate(group, multipliers, tuple(splitters), classification)


# -- search documents --------------------------------------------------------

def search_result_doc(order: int, multipliers: MultiplierSet, outcome: SearchOutcome) -> dict:
    """Document for a search that found nothing.

    An exhausted tree gives a nonexistence attestation, a proof that no
    splitter set exists; a budget-limited search gives a search_partial
    document, which records how far the search got and proves nothing. A
    FOUND outcome is written as a certificate instead and raises ValueError.
    """
    if outcome.result == FOUND:
        raise ValueError("a found splitter set is written as a splitting certificate")
    return {
        "format_version": FORMAT_VERSION,
        "kind": "nonexistence_attestation" if outcome.result == EXHAUSTED else "search_partial",
        "group_factors": [order],
        "multipliers": multipliers_to_doc(multipliers),
        "result": outcome.result,
        "nodes": outcome.stats.nodes,
        "max_depth": outcome.stats.max_depth,
    }


# -- scan reports ------------------------------------------------------------

def _record_to_doc(record: ScanRecord) -> dict:
    doc = {
        "k": record.candidate.k,
        "n": record.candidate.n,
        "N": record.candidate.order,
        "factorization": [[p, e] for p, e in record.candidate.smoothness_witness],
        "verdict": record.verdict,
        "result": record.outcome.result,
        "nodes": record.outcome.stats.nodes,
        "max_depth": record.outcome.stats.max_depth,
        "splitters": list(record.outcome.splitters) if record.outcome.splitters is not None else None,
    }
    if record.verdict == "CONJECTURE_VIOLATION" and record.certificate is not None:
        doc["certificate"] = certificate_to_doc(record.certificate)
    return doc


def _record_from_doc(doc) -> ScanRecord:
    _expect(isinstance(doc, dict), "record must be an object")
    for key in ("k", "n", "N", "factorization", "verdict", "result", "nodes", "max_depth"):
        _expect(key in doc, f"record missing {key}")
    _expect(isinstance(doc["factorization"], list)
            and all(isinstance(f, list) and len(f) == 2 for f in doc["factorization"]),
            "record factorization must be a list of [p, e] pairs")
    _expect(doc["verdict"] in (TRIVIAL_EXPECTED, CONSISTENT, VIOLATION, INCONCLUSIVE),
            f"unknown record verdict {doc['verdict']!r}")
    splitters = doc.get("splitters")
    _expect(splitters is None
            or isinstance(splitters, list) and all(isinstance(s, int) for s in splitters),
            "record splitters must be null or a list of integers")
    candidate = CandidateOrder(
        doc["k"], doc["n"], doc["N"], tuple((p, e) for p, e in doc["factorization"])
    )
    outcome = SearchOutcome(
        doc["result"],
        tuple(splitters) if splitters is not None else None,
        SearchStats(doc["nodes"], doc["max_depth"], 0.0),
    )
    certificate = None
    if "certificate" in doc:
        certificate = certificate_from_doc(doc["certificate"])
    return ScanRecord(candidate, outcome, doc["verdict"], certificate)


def scan_report_to_doc(report: ScanReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "scan_report",
        "config": {
            "k_min": report.k_min,
            "k_max": report.k_max,
            "n_max": report.n_max,
            "node_limit": report.node_limit,
            "time_limit_s": report.time_limit_s,
        },
        "records": [_record_to_doc(r) for r in report.records],
        "totals": report.totals,
        "overall": report.overall,
    }


def scan_report_from_doc(doc: dict) -> ScanReport:
    _expect(doc.get("kind") == "scan_report", "not a scan_report")
    config = doc.get("config")
    _expect(isinstance(config, dict), "scan_report missing config")
    for key in ("k_min", "k_max", "n_max", "node_limit", "time_limit_s"):
        _expect(key in config, f"scan_report config missing {key}")
    raw_records = doc.get("records", [])
    _expect(isinstance(raw_records, list), "scan_report records must be a list")
    records = tuple(_record_from_doc(r) for r in raw_records)
    report = ScanReport(
        config["k_min"], config["k_max"], config["n_max"],
        config["node_limit"], config["time_limit_s"], records,
    )
    _expect(doc.get("totals") == report.totals, "stored totals do not match records")
    _expect(doc.get("overall") == report.overall, "stored overall does not match records")
    return report


def scan_report_table(report: ScanReport) -> str:
    """Flat tabular export. millis is wall-clock per record and diagnostic;
    it is the one column not covered by the byte-identity guarantee."""
    lines = ["k,n,N,factorization,verdict,nodes,millis"]
    for r in report.records:
        fac = "*".join(
            f"{p}^{e}" if e > 1 else f"{p}" for p, e in r.candidate.smoothness_witness
        ) or "1"
        millis = round(r.outcome.stats.elapsed_s * 1000)
        lines.append(
            f"{r.candidate.k},{r.candidate.n},{r.candidate.order},"
            f"{fac},{r.verdict},{r.outcome.stats.nodes},{millis}"
        )
    return "\n".join(lines) + "\n"


# -- check reports -----------------------------------------------------------

def check_report_doc(check_name: str, inputs: dict, checks: list[dict]) -> dict:
    """Envelope shared by all named checks; one row per asserted fact."""
    for row in checks:
        for key in ("name", "expected", "actual", "pass"):
            if key not in row:
                raise ValueError(f"check row missing {key}")
    return {
        "format_version": FORMAT_VERSION,
        "kind": "check_report",
        "check_name": check_name,
        "inputs": inputs,
        "checks": checks,
        "verdict": "pass" if all(row["pass"] for row in checks) else "fail",
    }


# -- tiling exports ----------------------------------------------------------

def tiling_export_text(
    shape: ErrorBallShape,
    lattice: IntegerLattice,
    hom: LatticeHom | None,
    translates: list,
) -> str:
    """Header line (JSON after '# ') plus one CSV row per translate cell."""
    n = lattice.dimension
    header = {
        "kind": "tiling_export",
        "format_version": FORMAT_VERSION,
        "dimension": n,
        "weight_limit": shape.weight_limit,
        "k_plus": shape.k_plus,
        "k_minus": shape.k_minus,
        "modulus": hom.modulus if hom is not None else None,
        "weights": list(hom.weights) if hom is not None else None,
        "basis": [list(row) for row in lattice.basis],
        "index": lattice.index,
        "translates": len(translates),
    }
    columns = [f"anchor_{i}" for i in range(n)] + [f"cell_{i}" for i in range(n)]
    lines = ["# " + json.dumps(header, sort_keys=True), ",".join(columns)]
    for anchor, cells in translates:
        prefix = ",".join(str(a) for a in anchor)
        for cell in cells:
            lines.append(prefix + "," + ",".join(str(c) for c in cell))
    return "\n".join(lines) + "\n"


def parse_tiling_export(text: str) -> tuple[dict, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Inverse of tiling_export_text: (header, [(anchor, cell), ...])."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise DocumentError("missing tiling export header")
    try:
        header = json.loads(lines[0][2:])
    except json.JSONDecodeError as exc:
        raise DocumentError(f"bad tiling header: {exc}") from exc
    if header.get("kind") != "tiling_export":
        raise DocumentError("not a tiling_export")
    n = header["dimension"]
    rows = []
    for line in lines[2:]:
        parts = [int(v) for v in line.split(",")]
        if len(parts) != 2 * n:
            raise DocumentError(f"bad row width {len(parts)}, expected {2 * n}")
        rows.append((tuple(parts[:n]), tuple(parts[n:])))
    return header, rows
