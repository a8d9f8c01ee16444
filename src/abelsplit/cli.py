"""Command-line front end: verify, search, scan, tile, check.

Exit codes are uniform across subcommands: 0 for an affirmative result,
1 for a well-formed negative (invalid certificate, proven nonexistence,
violation, failed check), 2 for usage or input errors, and 3 when a node
or time budget ran out before an answer was reached. Every command ends
with one machine-parseable key=value summary line that is stable across
runs, printed by _finish, which also writes the command's document; exit 1
only ever follows such a verdict line. main ends the rest: a bad command
line exits 2 with argparse's usage and error lines; a file error, bad
input or running out of memory exits 2 with an error: line, as does an
internal error, after its traceback on stderr; an interrupt exits 3 with
result=interrupted, and an interrupted scan resumes from its journal. Only
search, scan and check s87 take budgets: --node-limit and --time-limit
(SearchConfig's). Each check is its own subcommand and takes only the
options it reads. Besides this package, only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from math import prod
from pathlib import Path
from typing import NoReturn

from . import certio, counting, search as searchlib, splitting, tiling
from .groups import FiniteAbelianGroup, is_prime
from .scan import (
    INCONCLUSIVE, VIOLATION, ScanReport, overall_verdict, scan as run_scan,
)
from .splitting import INTERVAL, MultiplierSet

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _fail_usage(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(EXIT_USAGE)


def _finish(code: int, summary: str, chunks: Iterable[str] | None = None,
            out: str | None = None) -> NoReturn:
    """End a command: write chunks, the pieces of its document's text, to
    out through certio.write_chunks, or to stdout when out is None, then
    print the key=value summary line and exit with code."""
    if chunks is not None:
        if out is None:
            sys.stdout.writelines(chunks)
        else:
            certio.write_chunks(out, chunks)
    print(summary, flush=True)
    sys.exit(code)


def _load_certificate(path) -> splitting.SplittingCertificate:
    try:
        return certio.certificate_from_doc(certio.read_document(path))
    except certio.DocumentError as exc:
        _fail_usage(f"bad certificate document: {exc}")
    except splitting.NotASplitting as exc:
        report = exc.report
        _finish(EXIT_NEGATIVE, f"verdict=invalid failure={report.kind}",
                [report.describe() + "\n"])


def verify(certificate: str) -> None:
    """Verify a splitting certificate document."""
    cert = _load_certificate(certificate)
    _finish(EXIT_OK, f"verdict=valid group={cert.group} multipliers={len(cert.multipliers)} "
            f"splitters={len(cert.splitters)} classification={cert.classification.tag}")


def search(order, k, out, node_limit, time_limit_s) -> None:
    """Search for a splitter set for (Z_N, {1..k})."""
    if order < 1 or k < 1:
        _fail_usage("order and k must be >= 1")
    group = FiniteAbelianGroup.cyclic(order)
    multipliers = MultiplierSet.interval(k)
    config = searchlib.SearchConfig(node_limit, time_limit_s)
    outcome = searchlib.search_splitter(group, multipliers, config)
    stats = outcome.stats
    if outcome.result == searchlib.FOUND:
        cert = splitting.make_certificate(group, multipliers, [(s,) for s in outcome.splitters])
        _finish(EXIT_OK, f"result=found order={order} k={k} splitters={len(outcome.splitters)} "
                f"classification={cert.classification.tag} nodes={stats.nodes} rows={stats.rows}",
                [certio.dumps_document(certio.certificate_to_doc(cert))], out)
    summary = f"result={outcome.result} order={order} k={k} nodes={stats.nodes} rows={stats.rows}"
    if outcome.result == searchlib.RESOURCE_LIMIT:
        summary += f" reason={stats.reason}"
    _finish(EXIT_NEGATIVE if outcome.result == searchlib.EXHAUSTED else EXIT_RESOURCE, summary,
            [certio.dumps_document(certio.search_result_doc(order, multipliers, outcome))], out)


def scan(k_min, k_max, n_max, jobs, out_dir, resume, node_limit, time_limit_s) -> None:
    """Scan candidate orders for every k in [k-min, k-max], journaling each
    record as it finishes, the sieve's refutations having none; --resume
    continues from the journal (.jsonl)."""
    base = ScanReport(k_min, k_max, n_max, searchlib.SearchConfig(node_limit, time_limit_s), ())
    if jobs is not None and jobs < 1:  # checked here, as jobs or os.cpu_count() would hide a 0
        _fail_usage(f"--jobs must be >= 1, got {jobs}")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    stem = out_path / f"scan_k{k_min}-{k_max}"
    report_path, table_path, journal_path = map(stem.with_suffix, (".json", ".csv", ".jsonl"))
    resume_report = None
    if resume:
        try:
            resume_report = certio.read_journal(journal_path)
        except certio.DocumentError as exc:
            _fail_usage(f"bad resume report {journal_path}: {exc}")
    # a fresh journal is its header; a resumed one is rewritten with the records it
    # accepted, so that no append follows a line cut short by a kill
    certio.write_chunks(journal_path, certio.journal_chunks(resume_report or base))

    with open(journal_path, "a", encoding="utf-8", newline="") as journal:
        def checkpoint(one):
            journal.writelines(certio.journal_lines(one))
            journal.flush()

        report = run_scan(k_min, k_max, n_max, config=base.config, jobs=jobs or os.cpu_count() or 1,
                          resume=resume_report, checkpoint=checkpoint)
    certio.write_document(report_path, certio.scan_report_to_doc(report))
    certio.write_chunks(table_path, certio.scan_report_table_lines(report))
    totals = report.totals
    overall = overall_verdict(totals)
    _finish({"consistent": EXIT_OK, "violation": EXIT_NEGATIVE}.get(overall, EXIT_RESOURCE),
            f"overall={overall} records={totals['records']} found={totals['found']} "
            f"violations={totals[VIOLATION]} inconclusive={totals[INCONCLUSIVE]} "
            f"k={k_min}..{k_max} n=1..{'2k' if n_max is None else n_max}",
            [f"report={report_path}\ntable={table_path}\n"])


def _parse_box(spec: str, dimension: int) -> list[tuple[int, int]]:
    box = []
    for part in spec.split(","):
        lo, _, hi = part.partition(":")
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(f"axis range {part} is empty")
        box.append((lo, hi))
    if len(box) != dimension:
        raise ValueError(f"box has {len(box)} axes, certificate needs {dimension}")
    return box


def tile(cert_path, box_spec, out) -> None:
    """Export the semi-cross lattice tiling induced by a cyclic certificate."""
    cert = _load_certificate(cert_path)
    if not cert.group.is_cyclic:
        _fail_usage("tiling export needs a certificate over a cyclic group")
    if cert.multipliers.kind != INTERVAL:
        _fail_usage("tiling export needs interval multipliers {1..k}")
    if not cert.splitters:
        _fail_usage("tiling export needs at least one splitter; the trivial group has none")
    n = len(cert.splitters)
    shape = tiling.semi_cross(n, len(cert.multipliers))
    hom, lattice = tiling.lattice_from_splitting(cert)
    if not tiling.verify_lattice_tiling(shape, hom).verdict:
        _finish(EXIT_NEGATIVE, "verdict=false")
    try:
        box = _parse_box(box_spec, n)
    except ValueError as exc:
        _fail_usage(f"bad box {box_spec!r}: {exc}")
    translates = tiling.export_translates(lattice, shape, box)
    cells = prod(hi - lo + 1 for lo, hi in box)
    _finish(EXIT_OK, f"verdict=true order={hom.modulus} anchors={len(translates)} cells={cells}",
            certio.tiling_export_chunks(shape, lattice, hom, translates), out)


def _row(name, expected, actual, passed) -> dict:
    """One row of a check report."""
    return {"name": name, "expected": expected, "actual": actual, "pass": passed}


def _report(name, inputs, rows, out) -> NoReturn:
    """End a check: write its report and exit 1 if any row failed."""
    doc = certio.check_report_doc(name, inputs, rows)
    failures = sum(1 for row in rows if not row["pass"])
    _finish(EXIT_OK if failures == 0 else EXIT_NEGATIVE,
            f"check={name} checks={len(rows)} failures={failures} verdict={doc['verdict']}",
            [certio.dumps_document(doc)], out)


def abcde(k, p, primes, out) -> None:
    """The interval cardinalities A..E for k and p."""
    prime_rows = []
    for part in primes.split(",") if primes else ():
        try:
            q, a, b = (int(v) for v in part.split(":"))
        except ValueError:
            _fail_usage(f"bad --primes {part!r}: expected q:alpha:beta")
        prime_rows.append((q, a, b))
    counting.decompose_k(k, p, 1)  # a bad --k or --p fails here, as itself
    try:
        profile = counting.abcde_profile(k, p, tuple(prime_rows))
    except ValueError as exc:  # so this one is a prime row's
        _fail_usage(f"bad --primes {primes!r}: {exc}")
    inputs = {"k": k, "p": p, "primes": [list(row) for row in prime_rows]}
    _report("abcde", inputs, [
        _row("hypothesis_met", True, profile.hypothesis_met, profile.hypothesis_met),
        _row("card_a_equals_b_plus_c", profile.card_b + profile.card_c, profile.card_a,
             profile.identity_ab_c),
        _row("card_d_equals_c", profile.card_c, profile.card_d, profile.identity_d_c),
        _row("card_d_closed_form", profile.closed_form_d, profile.card_d,
             profile.closed_form_matches),
    ], out)


def digits(k, p, k_max, p_max, out) -> None:
    """The base-p digit pattern of k, or of every k and p up to bounds."""
    pairs = (("--k", k, "--k-max", k_max), ("--p", p, "--p-max", p_max))
    for flag, value, bound_flag, bound in pairs:
        if value is not None and bound is not None:
            _fail_usage(f"check digits takes {flag} or {bound_flag}, not both")
    if k_max is None and (k is None or p is None and p_max is None):
        _fail_usage("check digits needs --k and --p, or --k-max/--p-max")
    if k_max is None and p_max is None:
        result = counting.digit_pattern_check(counting.decompose_k(k, p, 1))
        _report("digits", {"k": k, "p": p}, [_row("digit_pattern", True, result, result)], out)
    k_flag, k_hi = ("--k-max", k_max) if k_max is not None else ("--k", k)
    p_flag, p_hi = ("--p-max", p_max) if p_max is not None else ("--p", 2 if p is None else p)
    if k_hi < 1:
        _fail_usage(f"{k_flag} must be >= 1, got {k_hi}")
    if p_hi < 2:
        _fail_usage(f"{p_flag} must be >= 2, got {p_hi}")
    failures = sum(not counting.digit_pattern_check(counting.decompose_k(kk, q, 1))
                   for q in range(2, p_hi + 1) if is_prime(q) for kk in range(1, k_hi + 1))
    _report("digits", {"k_max": k_hi, "p_max": p_hi},
            [_row("digit_pattern_failures", 0, failures, failures == 0)], out)


def strata(cert_path, p, out) -> None:
    """The counting identity of each p-stratum of a certificate."""
    if cert_path is None or p is None:
        _fail_usage("check strata needs --cert and --p")
    cert = _load_certificate(cert_path)
    profile, holds = counting.counting_identities(cert, p)
    checks = [_row(f"stratum_{i}_identity", True, ok, ok) for i, ok in enumerate(holds, 1)]
    inputs = {
        "group_factors": list(cert.group.factors), "p": p,
        "g_counts": list(profile.g_counts), "s_counts": list(profile.s_counts),
    }
    _report("strata", inputs, checks, out)


def tw(cert_path, out) -> None:
    """The packing of scaled unit-splitter cosets in the units."""
    cert = _load_certificate(cert_path)
    report = counting.tw_disjointness_check(cert)
    inputs = {"group_factors": list(cert.group.factors), "k": report.k, "p": report.p}
    _report("tw", inputs, [
        _row("hypothesis", True, report.hypothesis_ok, report.hypothesis_ok),
        _row("pairwise_disjoint", True, report.pairwise_disjoint, report.pairwise_disjoint),
        _row("within_units", True, report.within_units, report.within_units),
        _row("scaling_consistent", [report.decomposition.d * w for w in report.w_sizes],
             list(report.tw_sizes), report.scaling_consistent),
        _row("w_sizes_match_formula", report.w_size_formula, list(report.w_sizes),
             report.formula_consistent),
        _row("equality_chain", [report.card_d, report.card_e, report.unit_count],
             [list(report.tw_sizes), report.r], report.equality_chain),
    ], out)


def s87(order, out, node_limit, time_limit_s) -> None:
    """The s87 property of every splitting of Z_N."""
    config = searchlib.SearchConfig(node_limit, time_limit_s)
    fac = FiniteAbelianGroup.cyclic(order).order_factorization
    if len(fac) != 1 or fac[0][0] == 2:
        _fail_usage(f"order {order} is not an odd prime power")
    sizes = [d for d in range(1, order) if (order - 1) % d == 0]
    _report("s87", {"order": order, "sizes": sizes},
            [_s87_row(order, size, config) for size in sizes], out)


def _s87_row(order: int, size: int, config: searchlib.SearchConfig) -> dict:
    """The row of |M| = size: how many splittings of Z_order have it, and
    how many of them the s87 property. The enumeration certifies every pair
    before it returns its view, whose len was counted when it was made; the
    check iterates the view once, building each certificate as it is
    reached, so one certificate is alive at a time. The view dies on
    return, so the next size's enumeration does not run while it is held."""
    certs = searchlib.enumerate_all_splittings(order, size, config)
    count, holds = len(certs), sum(map(splitting.s87_property_check, certs))
    return _row(f"multiplier_size_{size}", count, holds, holds == count)


class _Parser(argparse.ArgumentParser):
    """A parser that takes --help (no -h) and no abbreviated option, and reads
    the word after an option that takes a value as that value even when it
    starts with '-' (`tile --box -3:3,-3:3`, `--time-limit -inf`)."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="show this message and exit")

    def parse_known_args(self, args=None, namespace=None):
        valued = {name for a in self._actions if a.nargs is None for name in a.option_strings}
        words, glued = iter(sys.argv[1:] if args is None else args), []
        for word in words:
            value = next(words, None) if word in valued else None
            glued.append(word if value is None else f"{word}={value}")
        return super().parse_known_args(glued, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The command line; each leaf parser sets run, its command, and leaf, itself."""
    about = "Splittings of finite abelian groups and semi-cross lattice tilings."
    main_parser = _Parser(prog="abelsplit", description=about)
    commands = main_parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    defaults = searchlib.SearchConfig()

    def command(group, run, out=True, budgets=False):
        leaf = group.add_parser(run.__name__, help=run.__doc__, description=run.__doc__)
        leaf.set_defaults(run=run, leaf=leaf)
        if out:
            leaf.add_argument("--out", help="write the document here instead of stdout")
        if budgets:
            leaf.add_argument("--node-limit", type=int, default=defaults.node_limit,
                              help="search node budget (default: %(default)s)")
            leaf.add_argument("--time-limit", dest="time_limit_s", metavar="SECONDS", type=float,
                              default=defaults.time_limit_s,
                              help="per-instance time budget in seconds (default: %(default)s)")
        return leaf

    command(commands, verify, out=False).add_argument("certificate")
    leaf = command(commands, search, budgets=True)
    leaf.add_argument("--order", "-N", type=int, required=True, help="cyclic group order N")
    leaf.add_argument("--k", type=int, required=True, help="multiplier interval bound: M = {1..k}")
    leaf = command(commands, scan, out=False, budgets=True)
    leaf.add_argument("--k-min", type=int, required=True)
    leaf.add_argument("--k-max", type=int, required=True)
    leaf.add_argument("--n-max", type=int, help="candidate bound n <= n-max (default: 2k per k)")
    leaf.add_argument("--jobs", type=int, help="worker processes (default: all cores)")
    leaf.add_argument("--out-dir", default=".")
    leaf.add_argument("--resume", action="store_true",
                      help="continue from the journal file in out-dir")
    leaf = command(commands, tile)
    leaf.add_argument("--cert", dest="cert_path", required=True)
    leaf.add_argument("--box", dest="box_spec", required=True,
                      help="inclusive ranges lo:hi per axis, comma separated, e.g. 0:9,0:9")

    about = "Run an arithmetic check of the nonexistence argument and write its report."
    checks = commands.add_parser("check", help=about, description=about).add_subparsers(
        title="commands", metavar="COMMAND", required=True)

    leaf = command(checks, abcde)
    leaf.add_argument("--k", type=int, required=True)
    leaf.add_argument("--p", type=int, required=True)
    leaf.add_argument("--primes", default="", help="q:alpha:beta triples, comma separated")
    leaf = command(checks, digits)
    leaf.add_argument("--k", type=int)
    leaf.add_argument("--p", type=int)
    leaf.add_argument("--k-max", type=int, help="sweep bound")
    leaf.add_argument("--p-max", type=int, help="sweep bound")
    leaf = command(checks, s87, budgets=True)
    leaf.add_argument("--order", "-N", type=int, required=True, help="odd prime power N")
    leaf = command(checks, strata)
    leaf.add_argument("--cert", dest="cert_path")
    leaf.add_argument("--p", type=int)
    command(checks, tw).add_argument("--cert", dest="cert_path", required=True)
    return main_parser


def main(argv: list[str] | None = None) -> NoReturn:
    """Run the command line argv (sys.argv[1:] when None) and exit. This is
    the one table from an exception that ends a command to an exit code;
    commands catch only to name bad input."""
    namespace, extra = build_parser().parse_known_args(argv)
    options = vars(namespace)
    run, leaf = options.pop("run"), options.pop("leaf")
    if extra:
        leaf.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        run(**options)
    except searchlib.BudgetExceeded as exc:
        _finish(EXIT_RESOURCE, f"result=resource_limit reason={exc}")
    except KeyboardInterrupt:
        _finish(EXIT_RESOURCE, "result=interrupted")
    except MemoryError as exc:
        _fail_usage(str(exc) or "out of memory")
    except (OSError, ValueError) as exc:
        _fail_usage(str(exc) or type(exc).__name__)
    except Exception as exc:
        import traceback  # only here, so importing the CLI stays cheap
        traceback.print_exc()
        message = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        _fail_usage(f"internal error: {message}")


if __name__ == "__main__":
    main()
