"""Structured documents: certificates, scan reports and journals,
attestations, check reports, and tiling exports.

Every document is canonical JSON (sorted keys, two-space indent, trailing
newline), so equal objects serialize to identical bytes. dumps_document
writes exactly json.dumps(doc, sort_keys=True, indent=2) plus the newline.
It is written by hand because json.dumps runs without its C encoder
whenever indent is set; it accepts str keys and exact JSON types only.
Every document carries FORMAT_VERSION, 6 since a scan's documents list
only the records the counting sieve leaves. A scan report lists the
records of the closed_form, propagation and search routes and counts
every route in routes, counting included; a reader enumerates the range
and counts the sieve's refutations again. A listed record's document holds
k, n, verdict and route, then the keys of its route only: a closed_form
record its splitters, a propagation record propagation {steps: [[x, s],
...], dead: x}, and a search record result, nodes, max_depth, rows and
splitters, and the reason of a resource_limit result.
A scan journal is a scan's checkpoint: a header line with the scan's
config, then one line per finished record, the compact JSON of its record
document, so a checkpoint costs one record whatever the size of the scan.
Scan report documents deliberately exclude wall-clock data; timing appears
only in the tabular export's millis column, which is diagnostic: it is
empty for a searched record restored through a resume, and 0 for a record
that no search decided. The tabular export has a line per candidate.
Every file abelsplit writes goes through write_chunks, which replaces the
target atomically through a temp file, except the lines appended to a scan
journal. It takes the text as an iterable of str and encodes each chunk
into a buffered binary file, so a file whose size follows the candidates,
the journal or the box is written from a stream: the tabular export and a
journal line by line, a tiling export block by block
(tiling_export_chunks), each byte-identical to the joined text. A
document, a scan report included, is written whole by write_document: a
report lists only the records the sieve leaves, and its reader loads it
whole.

The writers define what a valid document is. Each reader rebuilds its
object with the library's own constructors and accepts the document only
if writing that object back gives exactly the same document; the scan
report and journal readers (scan_report_from_doc, read_journal) say how
they check a document of many records without building a second one. Both
read the config first, then walk its range once (_range_records), look up,
by (k, n), the record listed at each candidate, and compare it with its
written form as they rebuild it.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from functools import cache
from math import gcd
from pathlib import Path

from .groups import FiniteAbelianGroup
from .record import replace
from .scan import (
    CLOSED_FORM,
    CONSISTENT,
    COUNTING,
    PROPAGATION,
    SEARCH,
    VIOLATION,
    CandidateOrder,
    Propagation,
    ScanRecord,
    ScanReport,
    check_ascending,
    decide,
    iter_candidates,
    make_record,
    order_error,
    overall_verdict,
    sieve,
)
from .search import (
    BUDGETS, EXHAUSTED, FOUND, RESOURCE_LIMIT, SearchConfig, SearchOutcome, SearchStats,
)
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

FORMAT_VERSION = 6


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

    Each chunk is encoded and written through a binary open() to a temp
    file beside the target, which os.replace then moves over it, so a
    process killed mid-write leaves the old file whole. open() makes the
    temp file with mode 0o666, so its mode follows the umask; beside
    chunks, only its buffer and the encoding of the chunk in hand are held.
    The temp file is removed if the write fails, also when the error comes
    from chunks, and an OSError names path, the file asked for, not the
    temp file. There is no fsync: this guards against a killed process,
    not against a power loss.
    """
    target = os.fspath(path)
    folder, name = os.path.split(target)
    tmp = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.writelines(map(str.encode, chunks))
        os.replace(tmp, target)
    except BaseException as exc:
        with suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, target) from None
        raise


def write_document(path, doc: dict) -> None:
    write_chunks(path, (dumps_document(doc),))


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
    """The document of a record the report and journal list: k, n, verdict
    and route, then the keys of the route's decision: a ClosedForm's
    splitters, a Propagation as propagation {steps, dead}, or the search's
    result, nodes, max_depth, rows and splitters, and the reason of a
    resource_limit result; a violation also embeds its certificate."""
    outcome, route = record.outcome, record.route
    doc = {"k": record.candidate.k, "n": record.candidate.n, "verdict": record.verdict,
           "route": route}
    if route == CLOSED_FORM:
        doc["splitters"] = list(outcome.splitters)
    elif route == PROPAGATION:
        doc["propagation"] = {"steps": [list(step) for step in outcome.steps],
                              "dead": outcome.dead}
    else:
        doc["result"] = outcome.result
        doc["nodes"] = outcome.stats.nodes
        doc["max_depth"] = outcome.stats.max_depth
        doc["rows"] = outcome.stats.rows
        doc["splitters"] = None if outcome.splitters is None else list(outcome.splitters)
        if outcome.result == RESOURCE_LIMIT:
            doc["reason"] = outcome.stats.reason
        if record.verdict == VIOLATION:
            doc["certificate"] = certificate_to_doc(record.certificate)
    return doc


def check_propagation(k: int, order: int, proof: Propagation) -> None:
    """DocumentError unless proof refutes every splitting of Z_order by
    {1..k}, recounted from (k, order) alone: this checker shares no code
    with search.propagate, the prover, and never calls it.

    Residues 1..k start covered (1 in S). Each step (x, s) must name a
    nonzero residue x not yet covered whose one live row is s; s's orbit is
    then covered. The dead residue must be nonzero, not covered, and have
    no live row. The rows holding x are the solutions s of m*s = x (mod
    order) for m = 1..k, and a row is live when its k products are k
    distinct nonzero residues, none of them covered.
    """
    covered = bytearray(order)
    covered[1:k + 1] = b"\1" * k
    # per multiplier m: g = gcd(m, order), the period order/g of the
    # solutions of m*s = x, and (m/g)^-1 modulo it
    solvers = []
    for m in range(1, k + 1):
        g = gcd(m, order)
        solvers.append((g, order // g, pow(m // g, -1, order // g)))

    def live_rows(x) -> list[int]:
        """The live rows of x, by m, then by s."""
        if not (type(x) is int and 0 < x < order) or covered[x]:
            raise DocumentError(f"propagation probes {x!r}, which is zero, covered or no "
                                f"residue of Z_{order}")
        holding = [s for g, period, inv in solvers if x % g == 0
                   for s in range(x // g * inv % period, order, period)]
        live = []
        for s in holding:
            # the products m*s for m = 1..k: none covered, then k distinct
            # nonzero residues
            for y in range(s, k * s + 1, s):
                if covered[y % order]:
                    break
            else:
                if len({y % order for y in range(s, k * s + 1, s)} - {0}) == k:
                    live.append(s)
        return live

    for x, s in proof.steps:
        live = live_rows(x)
        if live != [s]:
            raise DocumentError(f"propagation step ({x}, {s}): the live rows of {x} are "
                                f"{sorted(live)}")
        for y in range(s, k * s + 1, s):
            covered[y % order] = 1
    live = live_rows(proof.dead)
    if live:
        raise DocumentError(
            f"propagation dead residue {proof.dead} has the live rows {sorted(live)}")


def _record_from_doc(doc, candidate: CandidateOrder | None, config: SearchConfig) -> ScanRecord:
    """Rebuild the record of doc the way the scan makes it, on candidate,
    which the walk of the range found at doc's k and n. DocumentError when
    candidate is None, as the range has none there, or when the sieve
    refutes it, which abelsplit never lists. On a nontrivial candidate, a
    record of route propagation becomes the Propagation read from doc once
    check_propagation accepts it. Any other record goes through decide,
    with the search outcome read from doc, whose found splitters
    make_record re-verifies; a document keeps no time, so that outcome's
    elapsed_s is None, and the reason of a resource_limit result must name
    one of the budgets. The caller checks the record against doc, as part
    of the report or journal that holds it, so a record whose route,
    decision keys or verdict differ from the rebuilt decision's is refused:
    a searched record that propagation refutes among them."""
    def read_outcome(left: SearchConfig) -> SearchOutcome:
        result = doc["result"]
        splitters = tuple(doc["splitters"]) if result == FOUND else None
        reason = doc["reason"] if result == RESOURCE_LIMIT else None
        if reason is not None and reason not in BUDGETS:
            raise ValueError(f"no budget is named {reason!r}")
        stats = SearchStats(int(doc["nodes"]), int(doc["max_depth"]), None, int(doc["rows"]),
                            reason)
        return SearchOutcome(result, splitters, stats)

    if candidate is None:
        raise DocumentError(f"record k={doc['k']} n={doc['n']} is not a scan candidate")
    if sieve(candidate):
        raise DocumentError(f"record k={candidate.k} n={candidate.n} is a candidate the counting "
                            f"sieve refutes, which abelsplit does not list")
    with _parsing("scan record"):
        if doc.get("route") == PROPAGATION and not candidate.trivial:
            proof = doc["propagation"]
            decision = Propagation(tuple(map(tuple, proof["steps"])), proof["dead"])
            check_propagation(candidate.k, candidate.order, decision)
            return make_record(candidate, decision)
        return decide(candidate, config, read_outcome)


def _range_records(config: ScanReport, listed: dict,
                   read: Callable[[CandidateOrder | None, object], ScanRecord],
                   complete: bool) -> ScanReport:
    """config, the report of no records that _config_from_doc read, with
    the records of its range, in (k, N) order, from one walk of its
    candidates (iter_candidates). listed maps the (k, n) of each record a
    document lists to an item of it; the walk pops the item at each
    candidate and takes read(candidate, item), which rebuilds the record
    and checks it against its item, and counts a candidate with none that
    the sieve refutes as sieved. One with none that the sieve leaves is a
    record the document lacks: a complete document, a
    report, is refused with DocumentError naming the first, and a partial
    one, a journal, passes over it, for a resumed scan to decide. Last, the
    first key the walk left, which no candidate has, gets read(None, item),
    which refuses it. The table of largest prime factors is built only as
    far as the walk gets."""
    records, sieved = [], 0
    for candidate in iter_candidates(config.k_min, config.k_max, config.n_max):
        item = listed.pop((candidate.k, candidate.n), None)
        if item is not None:
            records.append(read(candidate, item))
        elif sieve(candidate):
            sieved += 1
        elif complete:
            raise DocumentError(f"scan_report lacks the candidate k={candidate.k} n={candidate.n}")
    if listed:
        read(None, listed[min(listed)])
    return replace(config, records=tuple(records), sieved=sieved)


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
    """The document of report, with records standing for the records it
    lists."""
    totals = report.totals
    return {
        "format_version": FORMAT_VERSION,
        "kind": "scan_report",
        "config": _config_doc(report),
        "records": records,
        "routes": report.routes,
        "totals": totals,
        "overall": overall_verdict(totals),
    }


def scan_report_to_doc(report: ScanReport) -> dict:
    return _scan_report_doc(report, [_record_doc(r) for r in report.records])


def scan_report_from_doc(doc: dict) -> ScanReport:
    """Parse a scan report: DocumentError unless its config makes a
    ScanReport and a SearchConfig, its records are exactly the candidates
    of that range the sieve leaves, ascending, and abelsplit writes exactly
    doc for the records rebuilt from them and the rest of the range sieved.

    The config is read first (_config_from_doc), so a range that breaks
    check_scan_range is refused before any walk, as a journal's is. The
    listed records must then ascend strictly by (k, n) (check_ascending),
    so the error names the first out of place. The range is walked once
    (_range_records), in (k, N) order: each listed record is rebuilt on the
    candidate the walk finds at its (k, n) and compared with its written
    form at once, the rule read_journal applies to each line, and the sieve
    runs again on every candidate the report does not list. So the error
    names the first fault the walk meets: a record that differs, and its
    keys, a record the sieve refutes, or a candidate the sieve leaves that
    the report lacks. A listed record that is no candidate is named only
    once the whole range is walked, so a fault anywhere in the range, after
    it too, is named first. The walk builds its table of largest prime
    factors only as far as it gets, so a report cut short is refused at its
    first missing candidate, whatever k_max the range rule lets it claim.

    Each listed record's route, closed form and verdict are derived again,
    a Propagation is recounted by check_propagation, found splitters are
    re-verified, and a searched record is one that propagation does not
    refute (_record_from_doc). A searched record's nodes, max_depth, rows
    and exhausted or resource_limit result are taken as written: only
    running its search again could check them, which would undo the point
    of resuming.

    No document of the whole report is built: each record is compared
    alone, and the report's own keys once, last, with None for its
    records, so stale routes or totals are refused there."""
    with _parsing("scan_report"):
        config, given = _config_from_doc(doc["config"]), doc["records"]
        keys = [(int(r["k"]), int(r["n"])) for r in given]
        check_ascending(keys)

        def read(candidate: CandidateOrder | None, r) -> ScanRecord:
            record = _record_from_doc(r, candidate, config.config)
            _require_written_form(_record_doc(record), r, f"record k={r['k']} n={r['n']}")
            return record

        report = _range_records(config, dict(zip(keys, given)), read, complete=True)
        # a JSON list never reads as null
        _require_written_form(_scan_report_doc(report, None), {**doc, "records": None},
                              "scan_report")
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
    order, and the count of the range's candidates the sieve refutes as
    sieved, or None for a journal whose header line is not whole. A last
    line without its newline was cut short by a kill and is dropped.

    DocumentError, naming the line, unless each line is byte for byte what
    journal_chunks writes for what it holds (_require_line): the header a
    config that ScanReport accepts, each other line (json decodes its
    bytes) a record of that config. A (k, n) already read is refused at
    the line that repeats it. The lines may come in any order: one walk of
    the range (_range_records) takes each line's record at its candidate,
    rebuilt as the report reader rebuilds it, so a record the sieve
    refutes and one that is no candidate are refused. A journal is partial
    by design, so a candidate the sieve leaves may have no line: a resumed
    scan decides it."""
    entries = {}
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
                with _parsing("scan record"):
                    key = int(doc["k"]), int(doc["n"])
                with _parsing("scan_journal"):
                    if key in entries:
                        raise order_error(key, key)
                entries[key] = number, line, doc
        except DocumentError as exc:
            raise DocumentError(f"line {number}: {exc}") from exc

    def read(candidate: CandidateOrder | None, entry) -> ScanRecord:
        number, line, doc = entry
        try:
            record = _record_from_doc(doc, candidate, config.config)
            _require_line(line, _record_doc(record), doc, f"record k={doc['k']} n={doc['n']}")
        except DocumentError as exc:
            raise DocumentError(f"line {number}: {exc}") from exc
        return record

    return _range_records(config, entries, read, complete=False)


def scan_report_table_lines(report: ScanReport) -> Iterator[str]:
    """Flat tabular export, one CSV line at a time, from one walk of the
    range that looks up, by (k, n), the record at each candidate and writes
    the sieve's line for one with none. ValueError once those outnumber
    report.sieved, as in a journal cut short, whose pending candidates the
    sieve did not refute, or after the walk for a record of no candidate.
    millis is wall-clock per record and diagnostic; it is the one column not
    covered by the byte-identity guarantee, and it is empty for a searched
    record read back from a document, which keeps no time. Only the search
    route searches, so every other line shows 0 nodes and 0 millis."""
    yield "k,n,N,factorization,verdict,route,nodes,millis\n"
    listed, unlisted = {(r.candidate.k, r.candidate.n): r for r in report.records}, 0
    for c in iter_candidates(report.k_min, report.k_max, report.n_max):
        fac = "*".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in c.smoothness_witness) or "1"
        r = listed.pop((c.k, c.n), None)
        verdict, route, nodes, millis = CONSISTENT, COUNTING, 0, 0
        if r is None:
            unlisted += 1
            if unlisted > report.sieved:
                raise ValueError(f"scan report lacks the candidate k={c.k} n={c.n}: it counts "
                                 f"{report.sieved} sieved, fewer than the candidates it lacks")
        else:
            verdict, route = r.verdict, r.route
            if route == SEARCH:
                nodes, elapsed_s = r.outcome.stats.nodes, r.outcome.stats.elapsed_s
                millis = "" if elapsed_s is None else round(elapsed_s * 1000)
        yield f"{c.k},{c.n},{c.order},{fac},{verdict},{route},{nodes},{millis}\n"
    if listed:
        k, n = min(listed)
        raise ValueError(f"record k={k} n={n} is not a scan candidate")


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
