"""Structured documents: certificates, scan reports and journals,
attestations, check reports, and tiling exports.

Every document is canonical JSON (sorted keys, two-space indent, trailing
newline), so equal objects serialize to identical bytes. dumps_document
writes exactly json.dumps(doc, sort_keys=True, indent=2) plus the newline.
It is written by hand because json.dumps runs without its C encoder
whenever indent is set; it accepts str keys and exact JSON types only.
A scan journal is a scan's checkpoint: a header line with the scan's
config, then one line per finished record, the compact JSON of its record
document, so a checkpoint costs one record whatever the size of the scan.
Scan report documents
deliberately exclude wall-clock data; timing appears only in the tabular
export's millis column, which is diagnostic: it is empty for a searched
record restored through a resume, and 0 for a record the counting sieve
decided.
Every file abelsplit writes goes through write_chunks, which replaces the
target atomically through a temp file, except the lines appended to a scan
journal. It takes the text as an iterable of str, which the file object
buffers and encodes, so a large document is written from a stream: a scan
report record by record (scan_report_chunks), a journal line by line, a
tiling export block by block (tiling_export_chunks), each byte-identical
to the joined text.

The writers define what a valid document is. Each reader rebuilds its
object with the library's own constructors and accepts the document only
if writing that object back gives exactly the same document; the scan
report and journal readers (scan_report_from_doc, read_journal) say how
they check a document of many records without building a second one;
which records a report may hold is ScanReport's rule.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, suppress
from functools import cache
from pathlib import Path

from .groups import FiniteAbelianGroup
from .record import replace
from .scan import VIOLATION, ScanRecord, ScanReport, decide, overall_verdict, scan_order
from .search import EXHAUSTED, FOUND, SearchConfig, SearchOutcome, SearchStats
from .splitting import (
    INTERVAL,
    MultiplierSet,
    SplittingCertificate,
    canonical_splitters,
    classify_multipliers,
)
from .tiling import (
    ErrorBallShape,
    IntegerLattice,
    LatticeHom,
    TranslateView,
    Vector,
    kernel_lattice,
    semi_cross,
)

FORMAT_VERSION = 4


class DocumentError(ValueError):
    """Malformed or internally inconsistent document."""


_escape = json.encoder.encode_basestring_ascii  # the C function json.dumps uses


@cache
def _punctuation(depth: int) -> tuple[str, str, str, str, str]:
    """Dict open, item separator, dict close, list open and list close for
    a container at depth."""
    outer = "\n" + "  " * depth
    inner = outer + "  "
    return "{" + inner, "," + inner, outer + "}", "[" + inner, outer + "]"


def _write(o, depth: int, append) -> None:
    t = type(o)
    if t is int:
        append(int.__repr__(o))
    elif t is str:
        append(_escape(o))
    elif t is dict:
        if not o:
            append("{}")
            return
        sep, item_sep, close, _, _ = _punctuation(depth)
        for key in sorted(o):  # keys of mixed types fail here, naming them
            if type(key) is not str:
                raise TypeError(f"document key must be str, not {type(key).__name__}")
            append(sep)
            append(_escape(key))
            append(": ")
            _write(o[key], depth + 1, append)
            sep = item_sep
        append(close)
    elif t is list or t is tuple:
        if not o:
            append("[]")
            return
        _, item_sep, _, sep, close = _punctuation(depth)
        for item in o:
            append(sep)
            if type(item) is dict:  # one string per item, not its many parts
                parts: list[str] = []
                _write(item, depth + 1, parts.append)
                append("".join(parts))
            else:
                _write(item, depth + 1, append)
            sep = item_sep
        append(close)
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    elif t is float:
        append(json.dumps(o))  # json's float rule: NaN, Infinity, -0.0
    else:
        raise TypeError(f"{t.__name__} is not a document type")


def dumps_document(doc: dict) -> str:
    """The canonical text of doc: json.dumps(doc, sort_keys=True, indent=2)
    plus a newline.

    A dict key that is not a str, or a value whose type is not exactly
    dict, list, tuple, str, int, float, bool or None, raises TypeError
    naming its type.
    """
    parts: list[str] = []
    _write(doc, 0, parts.append)
    parts.append("\n")
    return "".join(parts)


def _loads(text):
    """json.loads(text); DocumentError when text is not JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # too deep, or an int over the digit limit
        raise DocumentError(f"not a JSON document: {exc}") from exc


def loads_document(text: str) -> dict:
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {doc.get('format_version')!r}")
    if "kind" not in doc:
        raise DocumentError("document has no kind")
    return doc


def write_chunks(path, chunks: Iterable[str]) -> None:
    """Replace the file at path with the text of chunks, joined, as UTF-8,
    atomically.

    The text goes through open() to a temp file beside the target, which
    os.replace then moves over it, so a process killed mid-write leaves the
    old file whole. open() makes the temp file with mode 0o666, so its mode
    follows the umask; beside chunks, only its buffer and the encoding of
    the chunk in hand are held. The temp file is removed if the write fails,
    also when the error comes from chunks, and an OSError names path, the
    file asked for, not the temp file. There is no fsync: this guards
    against a killed process, not against a power loss.
    """
    target = os.fspath(path)
    folder, name = os.path.split(target)
    tmp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp, target)
    except BaseException as exc:
        with suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, target) from None
        raise


def write_text(path, text: str) -> None:
    """Replace the file at path with text, as UTF-8, atomically: write_chunks."""
    write_chunks(path, (text,))


def write_document(path, doc: dict) -> None:
    write_text(path, dumps_document(doc))


def read_document(path) -> dict:
    """The document in the file at path; DocumentError unless it is UTF-8
    text that loads_document accepts."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not UTF-8 text: {exc}") from exc
    return loads_document(text)


@contextmanager
def _parsing(what: str):
    """Turn the errors that the constructors and make_record raise on bad
    input into DocumentError. OverflowError is among them: JSON reads 1e999
    as infinity, which int() cannot convert."""
    try:
        yield
    except DocumentError:
        raise
    except (KeyError, TypeError, ValueError, RuntimeError, OverflowError) as exc:
        raise DocumentError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


def _text(value) -> str:
    """The compact JSON text of a journal line, and by which a rebuilt value
    is compared with the one read: True == 1 and 5.0 == 5 in Python, but
    not in the file."""
    return json.dumps(value, sort_keys=True)


def _require_written_form(rebuilt: dict, doc: dict, what: str) -> None:
    """Accept doc only if it is what abelsplit writes for the object rebuilt
    from it, comparing values as JSON text (_text)."""
    if _text(rebuilt) != _text(doc):
        keys = sorted(
            key for key in rebuilt.keys() | doc.keys()
            if key not in rebuilt or key not in doc or _text(rebuilt[key]) != _text(doc[key])
        )
        raise DocumentError(f"{what} differs from what abelsplit writes in {', '.join(keys)}")


def _require_line(line: bytes, rebuilt: dict, doc, what: str) -> None:
    """Accept the journal line read as doc only if it is byte for byte the
    line abelsplit writes for rebuilt, its compact JSON (_text) and a
    newline; else DocumentError naming the keys that differ
    (_require_written_form), or saying that the text does."""
    if (_text(rebuilt) + "\n").encode() != line:
        _require_written_form(rebuilt, doc, what)
        raise DocumentError(f"{what} is not written as abelsplit writes it")


# -- splitting certificates --------------------------------------------------

def multipliers_to_doc(m: MultiplierSet) -> dict:
    doc = {"kind": m.kind, "values": list(m.values)}
    if m.kind == INTERVAL:
        doc["k"] = len(m)
    return doc


def _certificate_doc(group: FiniteAbelianGroup, multipliers: MultiplierSet, splitters) -> dict:
    classification = classify_multipliers(group, multipliers)
    return {
        "format_version": FORMAT_VERSION,
        "kind": "splitting_certificate",
        "group_factors": list(group.factors),
        "multipliers": multipliers_to_doc(multipliers),
        "splitters": [list(s) for s in splitters],
        "classification": {
            "tag": classification.tag,
            "witnesses": [[p, m] for p, m in classification.witnesses],
        },
    }


def certificate_to_doc(cert: SplittingCertificate) -> dict:
    return _certificate_doc(cert.group, cert.multipliers, cert.splitters)


def certificate_from_doc(doc: dict) -> SplittingCertificate:
    """Parse and verify a certificate document: DocumentError unless it is
    exactly what abelsplit writes for the group, multipliers and canonical
    splitters read from it, then NotASplitting if they are not a splitting."""
    with _parsing("splitting_certificate"):
        group = FiniteAbelianGroup(tuple(doc["group_factors"]))
        multipliers = MultiplierSet(tuple(doc["multipliers"]["values"]), doc["multipliers"]["kind"])
        splitters = canonical_splitters(group, doc["splitters"])
        rebuilt = _certificate_doc(group, multipliers, splitters)
    _require_written_form(rebuilt, doc, "splitting_certificate")
    return SplittingCertificate(group, multipliers, splitters)


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

def _record_doc(record: ScanRecord) -> dict:
    """k, n, verdict and route, then the route's keys: the sieve's counting
    witness, or the search's result, nodes, max_depth and splitters; a
    violation also embeds its certificate."""
    doc = {"k": record.candidate.k, "n": record.candidate.n, "verdict": record.verdict,
           "route": record.route}
    if record.witness is not None:
        doc["counting"] = {"p": record.witness[0], "stratum": record.witness[1]}
        return doc
    outcome = record.outcome
    doc["result"] = outcome.result
    doc["nodes"] = outcome.stats.nodes
    doc["max_depth"] = outcome.stats.max_depth
    doc["splitters"] = None if outcome.splitters is None else list(outcome.splitters)
    if record.verdict == VIOLATION:
        doc["certificate"] = certificate_to_doc(record.certificate)
    return doc


def _record_from_doc(doc, config: ScanReport) -> ScanRecord:
    """Rebuild a record the way the scan makes it: its candidate from k and
    n (config.candidate), then decide runs the counting sieve again, and a
    candidate it does not refute gets the search outcome read from doc,
    whose found splitters make_record re-verifies; a document keeps no
    time, so that outcome's elapsed_s is None. The caller checks the record
    against doc, as part of the report or journal that holds it."""
    def read_outcome() -> SearchOutcome:
        splitters = tuple(doc["splitters"]) if doc["result"] == FOUND else None
        return SearchOutcome(
            doc["result"], splitters, SearchStats(int(doc["nodes"]), int(doc["max_depth"]), None)
        )

    with _parsing("scan record"):
        candidate = config.candidate(int(doc["k"]), int(doc["n"]))
        if candidate is None:
            raise DocumentError(f"record k={doc['k']} n={doc['n']} is not a scan candidate")
        return decide(candidate, read_outcome)


def _config_doc(report: ScanReport) -> dict:
    """report's range, and its SearchConfig as flat keys."""
    return {
        "k_min": report.k_min,
        "k_max": report.k_max,
        "n_max": report.n_max,
        "node_limit": report.config.node_limit,
        "time_limit_s": report.config.time_limit_s,
    }


def _config_from_doc(doc) -> ScanReport:
    """The report of no records of the config doc, checked by ScanReport and
    SearchConfig; the caller's _parsing makes errors DocumentError."""
    return ScanReport(doc["k_min"], doc["k_max"], doc["n_max"],
                      SearchConfig(doc["node_limit"], doc["time_limit_s"]), ())


def _scan_report_doc(report: ScanReport, records) -> dict:
    """The document of report, with records standing for its records."""
    totals = report.totals
    return {
        "format_version": FORMAT_VERSION,
        "kind": "scan_report",
        "config": _config_doc(report),
        "records": records,
        "totals": totals,
        "overall": overall_verdict(totals),
    }


def scan_report_to_doc(report: ScanReport) -> dict:
    return _scan_report_doc(report, [_record_doc(r) for r in report.records])


_BATCH = 16  # records the report reader compares with their written form at once
_RECORDS = "\0records"  # the one item of the records list while the envelope is rendered


def scan_report_chunks(report: ScanReport) -> Iterator[str]:
    """dumps_document(scan_report_to_doc(report)) in pieces, one record's
    document alive at a time: the text before and after the records, cut
    from the document rendered with the one item _RECORDS in their place,
    and between them each record's text as _write renders it there."""
    if not report.records:
        yield dumps_document(scan_report_to_doc(report))
        return
    head, tail = dumps_document(_scan_report_doc(report, [_RECORDS])).split(_escape(_RECORDS))
    item_sep = _punctuation(1)[1]  # the records list sits at depth 1
    yield head
    sep = ""
    for record in report.records:
        parts = [sep]
        _write(_record_doc(record), 2, parts.append)
        yield "".join(parts)
        sep = item_sep
    yield tail


def scan_report_from_doc(doc: dict) -> ScanReport:
    """Parse a scan report: DocumentError unless its config makes a
    ScanReport and a SearchConfig, each record is a candidate of that
    range, abelsplit writes exactly doc for the records rebuilt from it,
    and they are every candidate of the range.

    Each record's candidate, route, sieve witness and verdict are derived
    again, and found splitters are re-verified; a sieve record carries no
    search keys. A searched record's nodes, max_depth and exhausted or
    resource_limit result are taken as written: only running its search
    again could check them, which would undo the point of resuming.

    The records are read in one pass, _BATCH at a time, so no document of
    the whole report is built: each batch is rebuilt and compared with its
    written form, and a batch that differs is compared record by record,
    so that the error names the first record that differs, and its keys.
    ScanReport refuses records out of (k, N) order, naming the first, so
    the report's own keys are compared once, with None for its records.
    Last, the report walks its range beside the records (first_missing),
    and the error names the first candidate it lacks."""
    with _parsing("scan_report"):
        config = _config_from_doc(doc["config"])
        given, records = doc["records"], []
        for start in range(0, len(given), _BATCH):
            batch = given[start:start + _BATCH]
            read = [_record_from_doc(r, config) for r in batch]
            if _text([_record_doc(record) for record in read]) != _text(batch):
                for record, r in zip(read, batch):
                    _require_written_form(_record_doc(record), r, f"record k={r['k']} n={r['n']}")
            records += read
        report = replace(config, records=tuple(records))
        # a JSON list never reads as null
        _require_written_form(_scan_report_doc(report, None), {**doc, "records": None},
                              "scan_report")
        missing = report.first_missing()
    if missing is not None:
        raise DocumentError(f"scan_report lacks the candidate k={missing[0]} n={missing[1]}")
    return report


def _journal_head_doc(report: ScanReport) -> dict:
    return {"config": _config_doc(report), "format_version": FORMAT_VERSION,
            "kind": "scan_journal"}


def journal_lines(report: ScanReport) -> Iterator[str]:
    """A journal line per record of report, in its order: the compact JSON
    (sort_keys=True) of the record's document."""
    for r in report.records:
        yield _text(_record_doc(r)) + "\n"


def journal_chunks(report: ScanReport) -> Iterator[str]:
    """The journal of report: the header line, the compact JSON of its
    config with kind scan_journal, then journal_lines(report)."""
    yield _text(_journal_head_doc(report)) + "\n"
    yield from journal_lines(report)


def read_journal(path) -> ScanReport | None:
    """The header's config with the record of every other line, in (k, N)
    order, or None for a journal whose header line is not whole. A last
    line without its newline was cut short by a kill and is dropped.

    DocumentError, naming the line, unless each line is byte for byte what
    journal_chunks writes for what it holds (_require_line): the header a
    config that scan_report_from_doc accepts, each other line (json decodes
    its bytes) a record of that config, rebuilt as the report reader
    rebuilds it. DocumentError too when ScanReport finds a repeated
    record. A journal is partial by design, so its range is not walked."""
    records: list[ScanRecord] = []
    with open(path, "rb") as handle:
        number, line = 1, handle.readline()
        if not line.endswith(b"\n"):
            return None
        try:
            doc = loads_document(line)
            if doc["kind"] != "scan_journal":
                raise DocumentError(f"kind is {doc['kind']!r}, not 'scan_journal'")
            with _parsing("scan_journal"):
                config = _config_from_doc(doc["config"])
            _require_line(line, _journal_head_doc(config), doc, "scan_journal")
            for number, line in enumerate(handle, 2):
                if not line.endswith(b"\n"):
                    break
                doc = _loads(line)
                record = _record_from_doc(doc, config)
                _require_line(line, _record_doc(record), doc, f"record k={doc['k']} n={doc['n']}")
                records.append(record)
        except DocumentError as exc:
            raise DocumentError(f"line {number}: {exc}") from exc
    with _parsing("scan_journal"):
        return replace(config, records=tuple(sorted(records, key=scan_order)))


def scan_report_table_lines(report: ScanReport) -> Iterator[str]:
    """Flat tabular export, one CSV line at a time. millis is wall-clock per
    record and diagnostic; it is the one column not covered by the
    byte-identity guarantee, and it is empty for a searched record read back
    from a document, which keeps no time."""
    yield "k,n,N,factorization,verdict,route,nodes,millis\n"
    for r in report.records:
        fac = "*".join(
            f"{p}^{e}" if e > 1 else f"{p}" for p, e in r.candidate.smoothness_witness
        ) or "1"
        elapsed_s = r.outcome.stats.elapsed_s
        millis = "" if elapsed_s is None else round(elapsed_s * 1000)
        yield (f"{r.candidate.k},{r.candidate.n},{r.candidate.order},"
               f"{fac},{r.verdict},{r.route},{r.outcome.stats.nodes},{millis}\n")


def scan_report_table(report: ScanReport) -> str:
    return "".join(scan_report_table_lines(report))


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

def _export_head(k_plus: int, lattice: IntegerLattice, hom: LatticeHom, translates: int) -> str:
    """The header line (JSON after '# ') and the CSV column line."""
    n = lattice.dimension
    header = {
        "kind": "tiling_export",
        "format_version": FORMAT_VERSION,
        "dimension": n,
        "weight_limit": 1,  # the semi-cross is the error ball of weight 1
        "k_plus": k_plus,
        "k_minus": 0,  # with no negative entries
        "modulus": hom.modulus,
        "weights": list(hom.weights),
        "basis": [list(row) for row in lattice.basis],
        "index": lattice.index,
        "translates": translates,
    }
    columns = [f"anchor_{i}" for i in range(n)] + [f"cell_{i}" for i in range(n)]
    return "# " + json.dumps(header, sort_keys=True) + "\n" + ",".join(columns) + "\n"


def _block_template(shape: ErrorBallShape) -> tuple[str, list[tuple[int, int]]]:
    """One translate's block as a str.format template, and its fields.

    The block has a row per point p of the shape: the anchor's coordinates,
    then the cell's, anchor + p. Field j of the template is the string of
    anchor[i] + o for the j-th distinct (axis i, offset o) of the rows, so
    a block costs one str() per distinct coordinate, not one per entry.
    """
    fields: dict[tuple[int, int], int] = {}
    rows = []
    for p in shape.points:
        keys = [(i, 0) for i in range(len(p))] + list(enumerate(p))
        rows.append(",".join(f"{{{fields.setdefault(key, len(fields))}}}" for key in keys) + "\n")
    return "".join(rows), list(fields)


def _translate_rows(template: str, fields: list[tuple[int, int]], anchor) -> str:
    """The block of the translate anchored at anchor, from _block_template."""
    return template.format(*[str(anchor[i] + o) for i, o in fields])


def tiling_export_chunks(
    shape: ErrorBallShape,
    lattice: IntegerLattice,
    hom: LatticeHom,
    translates: TranslateView,
) -> Iterator[str]:
    """The export, block by block: the header line (JSON after '# ') and a
    CSV column line, then one block of rows per translate, in the order
    given: a row per cell, anchor coordinates followed by cell coordinates.

    The translates are export_translates' view, and only its anchors are
    read: each block is written from its anchor through the shape's one
    template, so no cell is built. An anchor of another dimension than the
    shape's raises ValueError before the header is yielded."""
    anchors = translates.anchors
    for anchor in anchors:
        if len(anchor) != shape.dimension:
            raise ValueError(f"anchor {tuple(anchor)} does not have dimension {shape.dimension}")
    template, fields = _block_template(shape)
    yield _export_head(shape.k_plus, lattice, hom, len(anchors))
    for anchor in anchors:
        yield _translate_rows(template, fields, anchor)


def tiling_export_text(
    shape: ErrorBallShape,
    lattice: IntegerLattice,
    hom: LatticeHom,
    translates: TranslateView,
) -> str:
    """The blocks of tiling_export_chunks joined into one str, which holds
    them and the text at once; abelsplit tile streams the blocks instead."""
    return "".join(tiling_export_chunks(shape, lattice, hom, translates))


def parse_tiling_export(text: str) -> tuple[dict, Iterator[tuple[Vector, Vector]]]:
    """Inverse of tiling_export_text: (header, rows), the rows a one-pass
    generator of (anchor, cell) pairs, one per row of the text, over a
    TranslateView of the anchors read.

    The header fixes the semi-cross and the weight map, and so the kernel
    lattice; each translate's cells follow from its anchor, which must lie
    in the lattice, that is, have weight 0 under the weight map. The text
    is accepted only if writing those objects back gives it exactly.

    The check runs block by block, in place: each translate's anchor is
    read from the first row of its block, the anchors must ascend strictly,
    and the block written for that anchor must stand at that point of the
    text. The header, rebuilt with the block count, is compared last. No
    line list or second text is built, and the header's sizes are checked
    against the text before the shape and lattice it names are built. The
    reader keeps one tuple per translate, its anchor, whose coordinates it
    interns as it parses them, so equal values share one int; the rows
    build each translate's cells as they reach it, from the view's one
    coordinate table, so the cells share those ints too. An export without
    translates builds no shape: it may name one far too large to build.
    """
    header_end = text.find("\n")
    body = text.find("\n", header_end + 1) + 1
    if not text.startswith("# ") or header_end < 0 or body == 0:
        raise DocumentError("missing tiling export header")
    if not text.endswith("\n"):
        raise DocumentError("tiling_export lacks its final newline")
    anchors: list[tuple[int, ...]] = []
    intern = {}.setdefault
    with _parsing("tiling_export"):
        header = json.loads(text[2:header_end])
        n, k = int(header["dimension"]), int(header["k_plus"])
        weights, basis = header["weights"], header["basis"]
        if n < 1 or k < 1:
            raise DocumentError("tiling_export needs dimension and k_plus of at least 1")
        if len(weights) != n or len(basis) != n or any(len(row) != n for row in basis):
            raise DocumentError("tiling_export header sizes disagree with its dimension")
        # a row holds 2n fields of at least one digit, the commas between
        # them and a newline; one translate has n*k + 1 rows
        if body < len(text) and (n * k + 1) * 4 * n > len(text) - body:
            raise DocumentError("tiling_export is too short to hold one translate")
        hom = LatticeHom(int(header["modulus"]), weights)
        lattice = kernel_lattice(hom)
        shape = semi_cross(n, k) if body < len(text) else None
        template, fields = _block_template(shape) if shape else ("", [])
        pos, last = body, ()
        while pos < len(text):
            anchor = tuple([intern(c, c) for c in map(
                int, text[pos:text.find("\n", pos)].split(",", n)[:n])])
            if len(anchor) != n:
                raise DocumentError("tiling_export has a row shorter than an anchor")
            if anchor <= last:
                raise DocumentError("tiling_export anchors do not ascend strictly")
            if hom.apply(anchor):
                raise DocumentError("tiling_export has an anchor outside the lattice")
            block = _translate_rows(template, fields, anchor)
            if not text.startswith(block, pos):
                raise DocumentError("tiling_export differs from what abelsplit writes")
            anchors.append(anchor)
            pos, last = pos + len(block), anchor
        if _export_head(k, lattice, hom, len(anchors)) != text[:body]:
            raise DocumentError("tiling_export header differs from what abelsplit writes")
    # shape is None only when there are no anchors, and then nothing is built
    translates = TranslateView(shape, anchors)
    return header, ((anchor, cell) for anchor, cells in translates for cell in cells)
