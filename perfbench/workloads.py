"""Workload bodies of the abelsplit benchmark.

Each body runs inside its own fresh worker process (see worker.py), drives
the library only through the public calls that `abelsplit scan`,
`abelsplit check` and scripts/run_desk_scan.py make, and checks every output
through a Gate. Library functions are always looked up as module attributes
at call time, so that a traced run can swap them for span-recording
wrappers (see traced() below) without editing the library.
"""

from __future__ import annotations

import hashlib
import importlib
import random
from collections.abc import Callable
from math import gcd
from pathlib import Path

from tracer import Tracer, patched

certio = importlib.import_module("abelsplit.certio")
counting = importlib.import_module("abelsplit.counting")
groups = importlib.import_module("abelsplit.groups")
scanlib = importlib.import_module("abelsplit.scan")
search = importlib.import_module("abelsplit.search")
splitting = importlib.import_module("abelsplit.splitting")
tiling = importlib.import_module("abelsplit.tiling")

# desk_scan is the paper's headline experiment with default budgets. Its
# range is fixed: the seed must never change a workload's cost profile.
DESK_K_MIN, DESK_K_MAX = 1, 30
DESK_RECORDS, DESK_FOUND = 210, 32

S87_ORDER = 27
S87_CERTIFICATES = 152_964  # all (M, S) splittings of Z_27, every |M| dividing 26
ABCDE_K_MAX, ABCDE_P_MAX, ABCDE_EXP_MAX = 10**4, 97, 3  # the acceptance sweep's grid
ABCDE_SAMPLE = 100  # one instance per k-stratum of width K_MAX / SAMPLE
DIGITS_K_MAX, DIGITS_P_MAX = 3_000, 100
STRATA_K_MAX = 200
TW_K_MAX = 300
EXPORT_K, EXPORT_SIDE, EXPORT_RANGE = 6, 250, 10**4
TRIVIAL_FORMS = ("order_k_plus_1", "order_2k_plus_1")


class Gate:
    """Tally of output checks; every failed check is one failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- inputs -------------------------------------------------------------------

def _small_factors(n: int) -> tuple[tuple[int, int], ...]:
    """Trial division for the input generator, kept apart from the library so
    that generating inputs leaves its caches cold."""
    out, f = [], 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _abcde_grid_factors(k: int, p: int):
    """Cofactor primes of (k, p) when it lies on the acceptance sweep's grid."""
    t = k - k // p
    beta = 0
    while t % p**(beta + 1) == 0:
        beta += 1
    fac = _small_factors(t // (p**beta * gcd(t, p - 1)))
    if len(fac) > 2 or any(q <= p or q > ABCDE_P_MAX or b > ABCDE_EXP_MAX for q, b in fac):
        return None
    return fac


def make_inputs(workload: str, seed: int) -> dict:
    """Everything a body needs, generated from the seed alone.

    The seed picks the A..E sample (one grid instance per k-stratum, so the
    sample's cost does not depend on the seed) and the offset of the tiling
    export box (its size is fixed). The scans take no seeded input.
    """
    if workload == "desk_scan":
        return {}
    rng = random.Random(seed)
    primes = [p for p in range(2, ABCDE_P_MAX + 1) if _small_factors(p) == ((p, 1),)]
    width = ABCDE_K_MAX // ABCDE_SAMPLE
    sample = []
    for j in range(ABCDE_SAMPLE):
        for _ in range(100_000):
            k, p = rng.randint(j * width + 1, (j + 1) * width), rng.choice(primes)
            fac = _abcde_grid_factors(k, p)
            if fac is not None:
                sample.append((k, p, tuple((q, b, b) for q, b in fac)))
                break
        else:
            raise RuntimeError(f"no A..E grid instance found in stratum {j}")
    x0, y0 = rng.randint(-EXPORT_RANGE, EXPORT_RANGE), rng.randint(-EXPORT_RANGE, EXPORT_RANGE)
    box = [(x0, x0 + EXPORT_SIDE - 1), (y0, y0 + EXPORT_SIDE - 1)]
    return {"abcde": sample, "box": box}


# -- scans --------------------------------------------------------------------

def write_checkpoint(path: Path, partial) -> None:
    """The CLI's checkpoint: rewrite the whole report after every record."""
    certio.write_document(path, certio.scan_report_to_doc(partial))


def write_scan_report(report, report_path: Path, table_path: Path) -> None:
    certio.write_document(report_path, certio.scan_report_to_doc(report))
    table_path.write_text(certio.scan_report_table(report))


def load_scan_report(path: Path):
    return certio.scan_report_from_doc(certio.read_document(path))


def _check_scan(report, gate: Gate) -> None:
    totals = report.totals
    gate.check(totals["records"] == DESK_RECORDS,
               f"{totals['records']} records, expected {DESK_RECORDS}")
    gate.check(totals[scanlib.VIOLATION] == 0, f"{totals[scanlib.VIOLATION]} violations")
    gate.check(totals["found"] == DESK_FOUND, f"{totals['found']} found, expected {DESK_FOUND}")
    gate.check(totals[scanlib.INCONCLUSIVE] == 0,
               f"{totals[scanlib.INCONCLUSIVE]} inconclusive records")
    for r in report.records:
        k, order = r.candidate.k, r.candidate.order
        expected = search.FOUND if order in (k + 1, 2 * k + 1) else search.EXHAUSTED
        gate.check(r.outcome.result == expected, f"k={k} N={order} is {r.outcome.result}")
    gate.check(scanlib.check_k_ge_n(report) and scanlib.check_k_le_n_minus_2(report),
               "found records break the k >= n or k <= n - 2 inequality")


def _check_found(record, gate: Gate) -> None:
    """Re-verify a found certificate and run its tiling round trip."""
    cert, k = record.certificate, record.candidate.k
    where = f"k={k} N={record.candidate.order}"
    report = splitting.verify_splitting(cert.group, cert.multipliers, cert.splitters)
    gate.check(report.is_valid, f"{where}: certificate does not re-verify")
    n = len(cert.splitters)
    hom, lattice = tiling.lattice_from_splitting(cert)
    gate.check(lattice.index == n * k + 1, f"{where}: lattice index {lattice.index}")
    gate.check(tiling.verify_lattice_tiling(tiling.semi_cross(n, k), hom).verdict,
               f"{where}: semi-cross tiling fails")


def scan_body(name: str, inputs: dict, jobs: int, out_dir: Path, gate: Gate,
              mark: Callable[[], None]) -> dict:
    """`abelsplit scan` with a checkpoint per record, then (serial run only)
    the resume round trip and the re-verification of every found record.

    Each checkpoint ends a phase by calling `mark`.
    """
    k_min, k_max = DESK_K_MIN, DESK_K_MAX
    config = search.SearchConfig()
    report_path = out_dir / f"scan_k{k_min}-{k_max}.json"
    table_path = out_dir / f"scan_k{k_min}-{k_max}.csv"

    def checkpoint(partial):
        mark()
        write_checkpoint(report_path, partial)

    report = scanlib.scan(k_min, k_max, config=config, jobs=jobs, checkpoint=checkpoint)
    write_scan_report(report, report_path, table_path)
    _check_scan(report, gate)
    if jobs == 1:
        resumed = scanlib.scan(k_min, k_max, config=config, resume=load_scan_report(report_path))
        gate.check(certio.dumps_document(certio.scan_report_to_doc(resumed))
                   == report_path.read_text(), "resuming the complete report changed it")
        for record in report.records:
            if record.outcome.result == search.FOUND:
                _check_found(record, gate)
    return {"digest": _digest([report_path])}


# -- checks -------------------------------------------------------------------
# Each check returns (check name, rows, counts); rows are the check_report
# rows `abelsplit check` writes for the same inputs.

def check_s87(order: int, size: int):
    try:
        certs = search.enumerate_all_splittings(order, size)
    except search.BudgetExceeded:
        row = {"name": f"multiplier_size_{size}", "expected": "decided",
               "actual": "resource_limit", "pass": False}
        return "s87", [row], {}
    holds = sum(1 for c in certs if splitting.s87_property_check(c))
    row = {"name": f"multiplier_size_{size}", "expected": len(certs),
           "actual": holds, "pass": holds == len(certs)}
    return "s87", [row], {"s87_certificates": len(certs)}


def check_abcde(instances):
    rows = []
    for k, p, primes in instances:
        profile = counting.abcde_profile(k, p, primes)
        tag = f"k{k}_p{p}"
        rows += [
            {"name": f"{tag}_hypothesis_met", "expected": True,
             "actual": profile.hypothesis_met, "pass": profile.hypothesis_met},
            {"name": f"{tag}_card_a_equals_b_plus_c", "expected": profile.card_b + profile.card_c,
             "actual": profile.card_a, "pass": profile.identity_ab_c},
            {"name": f"{tag}_card_d_equals_c", "expected": profile.card_c,
             "actual": profile.card_d, "pass": profile.identity_d_c},
            {"name": f"{tag}_card_d_closed_form", "expected": profile.closed_form_d,
             "actual": profile.card_d, "pass": profile.closed_form_matches},
        ]
    return "abcde", rows, {"abcde_instances": len(instances)}


def check_digits(k_max: int, p_max: int):
    failures = 0
    for q in range(2, p_max + 1):
        if not groups.is_prime(q):
            continue
        for k in range(1, k_max + 1):
            if not counting.digit_pattern_check(counting.decompose_k(k, q, 1)):
                failures += 1
    row = {"name": "digit_pattern_failures", "expected": 0, "actual": failures,
           "pass": failures == 0}
    return "digits", [row], {}


def _trivial_certificates(k_max: int):
    for k in range(1, k_max + 1):
        for which in TRIVIAL_FORMS:
            yield splitting.trivial_certificate(k, which)


def check_strata_one(cert, p: int) -> list[dict]:
    profile = counting.stratify(cert, p)
    rows = []
    for i in range(1, profile.alpha + 1):
        ok = counting.check_counting_identity(cert, p, i)
        rows.append({"name": f"N{cert.group.order}_p{p}_stratum_{i}_identity",
                     "expected": True, "actual": ok, "pass": ok})
    return rows


def check_strata(k_max: int):
    rows = []
    for cert in _trivial_certificates(k_max):
        for p, _ in cert.group.order_factorization:
            rows += check_strata_one(cert, p)
    return "strata", rows, {}


def check_tw(k_max: int):
    rows = []
    for cert in _trivial_certificates(k_max):
        if gcd(cert.group.order, 6) != 1 or cert.classification.tag != splitting.PURELY_SINGULAR:
            continue
        r = counting.tw_disjointness_check(cert)
        tag = f"N{cert.group.order}"
        rows += [
            {"name": f"{tag}_hypothesis", "expected": True, "actual": r.hypothesis_ok,
             "pass": r.hypothesis_ok},
            {"name": f"{tag}_pairwise_disjoint", "expected": True,
             "actual": r.pairwise_disjoint, "pass": r.pairwise_disjoint},
            {"name": f"{tag}_within_units", "expected": True, "actual": r.within_units,
             "pass": r.within_units},
            {"name": f"{tag}_w_sizes_match_formula", "expected": r.w_size_formula,
             "actual": list(r.w_sizes), "pass": r.formula_consistent},
            {"name": f"{tag}_equality_chain", "expected": [r.card_d, r.card_e, r.unit_count],
             "actual": [list(r.tw_sizes), r.r], "pass": r.equality_chain},
        ]
    return "tw", rows, {}


def write_tiling_export(path: Path, shape, lattice, hom, translates) -> str:
    text = certio.tiling_export_text(shape, lattice, hom, translates)
    path.write_text(text)
    return text


def check_export(k: int, box, out_dir: Path):
    """`abelsplit tile` on the order-(2k+1) certificate, read back and checked."""
    cert = splitting.trivial_certificate(k, "order_2k_plus_1")
    shape = tiling.semi_cross(2, k)
    hom, lattice = tiling.lattice_from_splitting(cert)
    verdict = tiling.verify_lattice_tiling(shape, hom).verdict
    translates = tiling.export_translates(lattice, shape, box)
    text = write_tiling_export(out_dir / "tiles.txt", shape, lattice, hom, translates)
    header, rows = certio.parse_tiling_export(text)
    (x0, x1), (y0, y1) = box
    inside = [cell for _, cell in rows if x0 <= cell[0] <= x1 and y0 <= cell[1] <= y1]
    cells = (x1 - x0 + 1) * (y1 - y0 + 1)
    once = len(inside) == len(set(inside)) == cells
    rows_out = [
        {"name": "tiling_verdict", "expected": True, "actual": verdict, "pass": verdict},
        {"name": "box_cells_covered_once", "expected": cells, "actual": len(set(inside)),
         "pass": once},
        {"name": "header_translates", "expected": len(translates),
         "actual": header["translates"], "pass": header["translates"] == len(translates)},
    ]
    return "export", rows_out, {"export_cells": sum(len(c) for _, c in translates)}


def write_check_report(path: Path, name: str, inputs: dict, rows: list[dict]) -> dict:
    doc = certio.check_report_doc(name, inputs, rows)
    certio.write_document(path, doc)
    return doc


def checks_body(name: str, inputs: dict, jobs: int, out_dir: Path, gate: Gate,
                mark: Callable[[], None]) -> dict:
    """The `abelsplit check` list, one check report per check; each check
    ends a phase by calling `mark`. jobs is unused: `abelsplit check` has no pool."""
    sizes = [d for d in range(1, S87_ORDER) if (S87_ORDER - 1) % d == 0]
    calls = [(check_s87, (S87_ORDER, size)) for size in sizes] + [
        (check_abcde, (inputs["abcde"],)),
        (check_digits, (DIGITS_K_MAX, DIGITS_P_MAX)),
        (check_strata, (STRATA_K_MAX,)),
        (check_tw, (TW_K_MAX,)),
        (check_export, (EXPORT_K, inputs["box"], out_dir)),
    ]
    results = []
    for check, args in calls:
        results.append(check(*args))
        mark()
    reports: dict[str, list[dict]] = {}
    counts: dict[str, int] = {}
    for check, rows, task_counts in results:
        reports.setdefault(check, []).extend(rows)
        for key, value in task_counts.items():
            counts[key] = counts.get(key, 0) + value
    check_inputs = {
        "s87": {"order": S87_ORDER, "sizes": sizes},
        "abcde": {"instances": [[k, p, [list(q) for q in qs]] for k, p, qs in inputs["abcde"]]},
        "digits": {"k_max": DIGITS_K_MAX, "p_max": DIGITS_P_MAX},
        "strata": {"trivial_k_max": STRATA_K_MAX},
        "tw": {"trivial_k_max": TW_K_MAX},
        "export": {"k": EXPORT_K, "box": [list(axis) for axis in inputs["box"]]},
    }
    paths = [out_dir / "tiles.txt"]
    for check, rows in reports.items():
        path = out_dir / f"check_{check}.json"
        doc = write_check_report(path, check, check_inputs[check], rows)
        paths.append(path)
        for row in rows:
            gate.check(row["pass"], f"check {check}: row {row['name']} failed")
        gate.check(doc["verdict"] == "pass", f"check {check}: verdict {doc['verdict']}")
    gate.check(counts.get("s87_certificates") == S87_CERTIFICATES,
               f"s87 on N={S87_ORDER}: {counts.get('s87_certificates')} certificates, "
               f"expected {S87_CERTIFICATES}")
    gate.check(counts.get("abcde_instances") == ABCDE_SAMPLE, "A..E sample size")
    return {"digest": _digest(paths)}


BODIES = {"desk_scan": scan_body, "checks": checks_body}


# -- tracing ------------------------------------------------------------------

def _span(tracer: Tracer, name: str, after=None):
    return lambda fn: tracer.wrap(name, fn, after)


def traced(tracer: Tracer):
    """Context in which every layer boundary below records spans.

    search_splitter is replaced by a probe plus the real call: the probe,
    search_splitter(..., SearchConfig(node_limit=1, time_limit_s=None)),
    costs the row and index setup and one node, so the real call's duration
    minus the probe's is the cover loop.
    """
    def count(name, value):
        return lambda args, result: tracer.count(name, value(args, result))

    def probed(original):
        probe = tracer.wrap("search.setup_probe", original)
        full = tracer.wrap("search.search_splitter", original,
                           count("search.nodes", lambda a, r: r.stats.nodes))
        unbounded = search.SearchConfig(node_limit=1, time_limit_s=None)

        def search_splitter(G, M, config=search.SearchConfig()):
            probe(G, M, unbounded)
            return full(G, M, config)
        return search_splitter

    here = __name__
    make_cert = _span(tracer, "splitting.make_certificate")
    return patched([
        ("abelsplit.scan", "scan", _span(tracer, "scan.scan")),
        ("abelsplit.scan", "purely_singular_candidates", _span(tracer, "scan.candidates")),
        ("abelsplit.scan", "factorize", _span(tracer, "groups.factorize")),
        ("abelsplit.scan", "search_splitter", probed),
        ("abelsplit.scan", "make_certificate", make_cert),
        ("abelsplit.search", "make_certificate", make_cert),
        ("abelsplit.splitting", "make_certificate", make_cert),
        ("abelsplit.splitting", "verify_splitting", _span(tracer, "splitting.verify_splitting")),
        ("abelsplit.search", "enumerate_all_splittings", _span(
            tracer, "search.enumerate_all_splittings",
            count("search.enumerate_solutions", lambda a, r: len(r)))),
        ("abelsplit.counting", "abcde_profile", _span(tracer, "counting.abcde_profile")),
        ("abelsplit.counting", "tw_disjointness_check", _span(tracer, "counting.tw")),
        ("abelsplit.tiling", "lattice_from_splitting", _span(tracer, "tiling.lattice")),
        ("abelsplit.tiling", "verify_lattice_tiling", _span(tracer, "tiling.lattice")),
        ("abelsplit.tiling", "export_translates", _span(
            tracer, "tiling.export_translates",
            count("tiling.export_cells", lambda a, r: sum(len(c) for _, c in r)))),
        ("abelsplit.certio", "read_document", _span(tracer, "certio.read_document")),
        ("abelsplit.certio", "write_document", _span(tracer, "certio.write_document")),
        ("abelsplit.certio", "parse_tiling_export", _span(tracer, "certio.parse_tiling_export")),
        (here, "write_checkpoint", _span(
            tracer, "certio.checkpoint",
            count("certio.checkpoint_bytes", lambda a, r: a[0].stat().st_size))),
        (here, "write_scan_report", _span(tracer, "certio.report_write")),
        (here, "write_check_report", _span(tracer, "certio.report_write")),
        (here, "write_tiling_export", _span(tracer, "certio.report_write")),
        (here, "load_scan_report", _span(tracer, "certio.resume_load")),
        (here, "check_s87", _span(tracer, "splitting.s87")),
        (here, "check_digits", _span(tracer, "counting.digits")),
        (here, "check_strata_one", _span(tracer, "counting.strata")),
    ])


PER_LAYER_UNITS = {
    "search.setup_s": "s", "search.loop_s": "s", "search.nodes": "count",
    "search.nodes_per_s": "1/s", "search.enumerate_s": "s", "search.enumerate_solutions": "count",
    "scan.max_record_s": "s", "scan.candidates_s": "s", "scan.records": "count",
    "groups.factorize_s": "s", "groups.factorize_calls": "count",
    "certio.checkpoint_s": "s", "certio.checkpoint_writes": "count",
    "certio.checkpoint_bytes": "bytes", "certio.report_write_s": "s",
    "certio.resume_load_s": "s",
    "splitting.verify_s": "s", "splitting.verify_calls": "count", "splitting.s87_s": "s",
    "counting.abcde_s": "s", "counting.abcde_instances": "count", "counting.digits_s": "s",
    "counting.strata_s": "s", "counting.tw_s": "s",
    "tiling.lattice_s": "s", "tiling.export_s": "s", "tiling.export_cells": "count",
}


def _record_times(tracer: Tracer) -> list[float]:
    """Per scan record: the time of its factorize, search and certificate
    spans, which sit between two checkpoint spans under the scan span."""
    out = []
    for i, name in enumerate(tracer.names):
        if name != "scan.scan":
            continue
        acc = 0.0
        for j in tracer.children(i):
            child = tracer.names[j]
            if child == "certio.checkpoint":
                out.append(acc)
                acc = 0.0
            elif child in ("groups.factorize", "search.search_splitter",
                           "splitting.make_certificate"):
                acc += tracer.duration(j)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced body; a layer it never calls reads 0."""
    totals = tracer.totals()

    def total(name):
        return totals.get(name, {}).get("total", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    splitting_spans = ("splitting.make_certificate", "splitting.verify_splitting")
    verify_s = sum(
        tracer.duration(i) for i, name in enumerate(tracer.names)
        if name in splitting_spans
        and (tracer.parent[i] < 0 or tracer.names[tracer.parent[i]] not in splitting_spans)
    )
    records = _record_times(tracer)
    setup_s = total("search.setup_probe")
    loop_s = total("search.search_splitter") - setup_s
    nodes = tracer.counters.get("search.nodes", 0)
    return {
        "search.setup_s": setup_s,
        "search.loop_s": loop_s,
        "search.nodes": nodes,
        "search.nodes_per_s": nodes / loop_s if loop_s > 0 else 0.0,
        "search.enumerate_s": totals.get("search.enumerate_all_splittings", {}).get("self", 0.0),
        "search.enumerate_solutions": tracer.counters.get("search.enumerate_solutions", 0),
        "scan.max_record_s": max(records, default=0.0),
        "scan.candidates_s": total("scan.candidates"),
        "scan.records": len(records),
        "groups.factorize_s": total("groups.factorize"),
        "groups.factorize_calls": calls("groups.factorize"),
        "certio.checkpoint_s": total("certio.checkpoint"),
        "certio.checkpoint_writes": calls("certio.checkpoint"),
        "certio.checkpoint_bytes": tracer.counters.get("certio.checkpoint_bytes", 0),
        "certio.report_write_s": total("certio.report_write"),
        "certio.resume_load_s": total("certio.resume_load"),
        "splitting.verify_s": verify_s,
        "splitting.verify_calls": calls("splitting.verify_splitting"),
        "splitting.s87_s": total("splitting.s87"),
        "counting.abcde_s": total("counting.abcde_profile"),
        "counting.abcde_instances": calls("counting.abcde_profile"),
        "counting.digits_s": total("counting.digits"),
        "counting.strata_s": total("counting.strata"),
        "counting.tw_s": total("counting.tw"),
        "tiling.lattice_s": total("tiling.lattice"),
        "tiling.export_s": total("tiling.export_translates"),
        "tiling.export_cells": tracer.counters.get("tiling.export_cells", 0),
    }
