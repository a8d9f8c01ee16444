"""Candidate-order enumeration and the desk-scale splitting scan.

For M = {1..k} a purely singular splitting can only live in a group whose
order is k-smooth: every prime divisor p of |G| must divide some m <= k,
which for an interval just means p <= k. Candidate orders are therefore
N = n*k + 1 with all prime factors <= k. The scan decides every candidate
by one of two proof routes, and its record holds that route's decision.
The counting sieve (counting.counting_witness) refutes a candidate whose
stratum identities have no nonnegative integer solution, with no search,
and its decision is a Counting(p, stratum); every other candidate goes to
the exact-cover search, whose decision is its SearchOutcome. Both answer
result, a Counting always EXHAUSTED, so the one verdict rule and every
reader of results read either route alike. The scan expects splittings
exactly at the trivial orders k+1 and 2k+1; a splitting found anywhere else
is a violation, kept with a re-verified certificate.

A scan enumerates its candidates from one table of largest prime factors,
built once up to its largest order k_max*n_max + 1 (n_max = 2*k_max by
default): an order is a candidate when its entry is at most k, and it
factors by dividing out entries. The table costs 4 bytes per integer up to
that order, 8 MB at k_max = 1000 and 72 MB at k_max = 3000, and building it
3 bytes more for a moment. candidate_order factors a single order by trial
division instead, for ScanReport.candidate, by which the readers rebuild
one record at a time, and ScanReport.first_missing, which walks a range
and stops at the first candidate missing: the readers' cost follows the
records they read, the walk's the range it passes over, and a table's the
config's k_max: about 8*10^18 bytes for a document claiming k_max = 10^9.
"""

from __future__ import annotations

import gc
from array import array
from itertools import compress, count
from math import isqrt
from operator import ge
from typing import Callable

from .counting import counting_witness
from .groups import FiniteAbelianGroup, PrimePower, factorize
from .record import Record, replace
from .search import (
    EXHAUSTED,
    FOUND,
    RESOURCE_LIMIT,
    SearchConfig,
    SearchOutcome,
    search_splitter,
)
from .splitting import MultiplierSet, SplittingCertificate, make_certificate

TRIVIAL_EXPECTED = "trivial_expected"
CONSISTENT = "conjecture_consistent"
VIOLATION = "CONJECTURE_VIOLATION"
INCONCLUSIVE = "inconclusive"

COUNTING = "counting"
SEARCH = "search"


class CandidateOrder(Record):
    """An order N = n*k + 1 whose prime divisors all lie at or below k."""

    __slots__ = ("k", "n", "order", "smoothness_witness")

    @property
    def trivial(self) -> bool:
        """Whether N is k + 1 or 2k + 1, where a splitting always exists."""
        return self.order in (self.k + 1, 2 * self.k + 1)


def candidate_order(k: int, n: int) -> CandidateOrder | None:
    """The candidate order N = n*k + 1, or None when a prime factor of N exceeds k."""
    order = n * k + 1
    fac = factorize(order)
    return CandidateOrder(k, n, order, fac) if all(p <= k for p, _ in fac) else None


def largest_prime_factors(limit: int) -> array:
    """The table lpf with lpf[x] the largest prime factor of x, for
    2 <= x <= limit, and lpf[0] = lpf[1] = 0.

    The primes come from a bytearray sieve; each prime p, ascending, is
    written over every multiple of p by one slice assignment, so the last
    prime written to an entry is its largest.
    """
    prime = bytearray([1]) * (limit + 1)
    prime[:2] = b"\0\0"
    for p in range(2, isqrt(limit) + 1):
        if prime[p]:
            prime[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    lpf = array("i", [0]) * (limit + 1)
    for p in compress(range(limit + 1), prime):
        lpf[p::p] = array("i", [p]) * len(range(p, limit + 1, p))
    return lpf


def _factor_by_table(x: int, lpf: array) -> tuple[PrimePower, ...]:
    """factorize(x) for x in the table: divide out the largest prime factor
    p, whose multiples are exactly the entries left that still read p."""
    fac = []
    while x > 1:
        p = lpf[x]
        x //= p
        e = 1
        while lpf[x] == p:
            x //= p
            e += 1
        fac.append((p, e))
    fac.reverse()
    return tuple(fac)


def check_scan_range(k_min: int, k_max: int, n_max: int | None) -> None:
    """The parameter rule of a scan: 1 <= k_min <= k_max, and n_max >= 1 or
    None. A bound that is not an int, a bool included, raises TypeError."""
    if not all(type(bound) is int for bound in (k_min, k_max, 1 if n_max is None else n_max)):
        raise TypeError(f"scan bounds must be ints, got {k_min!r}, {k_max!r}, {n_max!r}")
    if k_min < 1 or k_min > k_max:
        raise ValueError(f"bad k range [{k_min}, {k_max}]")
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")


def n_limit(k: int, n_max: int | None) -> int:
    """The largest n of a scan's candidates N = n*k + 1 at k: n_max, or 2k
    when n_max is None."""
    return 2 * k if n_max is None else n_max


def scan_candidates(k_min: int, k_max: int, n_max: int | None = None) -> list[CandidateOrder]:
    """Every candidate of a scan, in (k, N) order, from one table of largest
    prime factors; n_max of None means 2k for each k. Parameters that break
    check_scan_range raise ValueError.

    The cyclic garbage collector is paused while the list grows, since each
    of its older-generation passes would walk every candidate held so far
    (close to half of scan_candidates(1, 1000) went to them), and the
    caller's collector state is restored on the way out, also on an error.
    """
    check_scan_range(k_min, k_max, n_max)
    lpf = largest_prime_factors(k_max * n_limit(k_max, n_max) + 1)
    out = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for k in range(k_min, k_max + 1):
            smooth = compress(count(1), map(k.__ge__, lpf[k + 1:n_limit(k, n_max) * k + 2:k]))
            out += [CandidateOrder(k, n, n * k + 1, _factor_by_table(n * k + 1, lpf))
                    for n in smooth]
    finally:
        if collecting:
            gc.enable()
    return out


def purely_singular_candidates(k: int, n_max: int) -> list[CandidateOrder]:
    """All candidate orders N = n*k + 1 with 1 <= n <= n_max, ascending:
    scan_candidates(k, k, n_max)."""
    return scan_candidates(k, k, n_max)


class Counting(Record):
    """The counting sieve's decision: the identity of stratum `stratum` at
    the prime p has no nonnegative integer solution, which proves that no
    splitter set exists. Its result is therefore EXHAUSTED, as a search's
    that walked its whole tree."""

    __slots__ = ("p", "stratum")

    result = EXHAUSTED


class ScanRecord(Record):
    """One candidate, the decision of the route that decided it, and the
    certificate of a found splitter set (None otherwise). The decision is
    the sieve's Counting or the search's SearchOutcome. Both answer result,
    so the verdict below, ScanReport.totals, the inequality checks and the
    benchmark's gate read either route alike. route and verdict are read
    off the decision, so no record can hold a verdict its decision
    contradicts; a scan builds its records through make_record."""

    __slots__ = ("candidate", "outcome", "certificate")

    def __init__(self, candidate: CandidateOrder, outcome: Counting | SearchOutcome,
                 certificate: SplittingCertificate | None = None) -> None:
        self._fill(candidate, outcome, certificate)

    @property
    def route(self) -> str:
        """The proof route of the decision: counting or search."""
        return COUNTING if type(self.outcome) is Counting else SEARCH

    @property
    def verdict(self) -> str:
        """The one verdict rule: a found splitting is expected at a trivial
        order and a violation elsewhere; a proof that none exists is
        consistent, and a search cut short by its budget inconclusive."""
        result = self.outcome.result
        if result == FOUND:
            return TRIVIAL_EXPECTED if self.candidate.trivial else VIOLATION
        return CONSISTENT if result == EXHAUSTED else INCONCLUSIVE


def scan_order(record: ScanRecord) -> tuple[int, int]:
    """The key of the order a scan's records are listed in: (k, N)."""
    return record.candidate.k, record.candidate.order


def make_record(candidate: CandidateOrder, outcome: Counting | SearchOutcome) -> ScanRecord:
    """The record of candidate's decision, for fresh and resumed records
    alike, on either route, through the result both answer.

    A found splitter set is re-verified into a certificate, and the record
    keeps the certificate's canonical splitters. A proof of nonexistence at
    a trivial order raises RuntimeError naming its route: a splitting always
    exists there, so either that route or the claim is unsound. An unknown
    result raises ValueError.
    """
    k, order = candidate.k, candidate.order
    if outcome.result == FOUND:
        certificate = make_certificate(
            FiniteAbelianGroup.cyclic(order), MultiplierSet.interval(k),
            [(s,) for s in outcome.splitters],
        )
        outcome = replace(outcome, splitters=tuple(s for (s,) in certificate.splitters))
        return ScanRecord(candidate, outcome, certificate)
    if outcome.result not in (EXHAUSTED, RESOURCE_LIMIT):
        raise ValueError(f"unknown search result {outcome.result!r}")
    if outcome.result == EXHAUSTED and candidate.trivial:
        if type(outcome) is Counting:
            raise RuntimeError(f"the counting sieve refutes trivial order {order} for k={k} "
                               f"by p={outcome.p}, stratum {outcome.stratum}")
        raise RuntimeError(f"the search found no splitting at trivial order {order} for k={k}")
    return ScanRecord(candidate, outcome)


def decide(candidate: CandidateOrder, search: Callable[[], SearchOutcome]) -> ScanRecord:
    """A candidate's record from the first proof route that decides it: the
    Counting of the sieve when counting_witness refutes the candidate, else
    the outcome of search(), through make_record."""
    witness = counting_witness(candidate.k, candidate.order, candidate.smoothness_witness)
    return make_record(candidate, search() if witness is None else Counting(*witness))


def _scan_one(task: tuple[CandidateOrder, SearchConfig]) -> ScanRecord:
    candidate, config = task
    return decide(candidate, lambda: search_splitter(
        FiniteAbelianGroup.cyclic(candidate.order), MultiplierSet.interval(candidate.k), config))


class ScanReport(Record):
    """A scan's range, the SearchConfig of its searches and its records,
    which must ascend strictly by (k, N), else ValueError names the first
    out of place; a report of no records is its scan's configuration. A
    range that breaks check_scan_range raises its error. n_max of None
    means the per-k default bound of 2k, which already over-covers the
    range where purely singular splittings can exist."""

    __slots__ = ("k_min", "k_max", "n_max", "config", "records")

    def __init__(self, k_min: int, k_max: int, n_max: int | None, config: SearchConfig,
                 records: tuple[ScanRecord, ...]) -> None:
        check_scan_range(k_min, k_max, n_max)
        keys = list(map(scan_order, records))
        i = next(compress(count(), map(ge, keys, keys[1:])), None)
        if i is not None:
            a, b = records[i].candidate, records[i + 1].candidate
            if keys[i] == keys[i + 1]:
                raise ValueError(f"scan report holds a record twice: k={a.k} n={a.n}")
            raise ValueError(f"record k={b.k} n={b.n} comes after k={a.k} n={a.n}")
        self._fill(k_min, k_max, n_max, config, records)

    def candidate(self, k: int, n: int) -> CandidateOrder | None:
        """candidate_order(k, n) when (k, n) lies in the range, else None."""
        in_range = self.k_min <= k <= self.k_max and 1 <= n <= n_limit(k, self.n_max)
        return candidate_order(k, n) if in_range else None

    def first_missing(self) -> tuple[int, int] | None:
        """The first (k, n) of the range, in scan order, whose order is a
        candidate that the records do not hold; None when they hold every
        one. Each order passed over is factored by trial division
        (candidate_order), with no table, so the walk's cost follows the
        range it passes, not the records: on 2 vCPUs, 9.8 s for a complete
        k <= 1000 report, seconds for a k = 3 one claiming n_max = 10**12.
        It stops at the first candidate missing: n = 1 is in every range,
        N = k + 1 is a candidate when composite, and one of two consecutive
        k >= 3 has k + 1 even, so a report cut short fails within two k of
        its last record."""
        held = iter(self.records)
        record = next(held, None)
        for k in range(self.k_min, self.k_max + 1):
            for n in range(1, n_limit(k, self.n_max) + 1):
                if record is not None and (record.candidate.k, record.candidate.n) == (k, n):
                    record = next(held, None)
                elif candidate_order(k, n) is not None:
                    return k, n
        return None

    @property
    def totals(self) -> dict[str, int]:
        counts = {TRIVIAL_EXPECTED: 0, CONSISTENT: 0, VIOLATION: 0, INCONCLUSIVE: 0}
        for record in self.records:
            counts[record.verdict] += 1
        counts["records"] = len(self.records)
        # a found splitting gets exactly one of these two verdicts
        counts["found"] = counts[TRIVIAL_EXPECTED] + counts[VIOLATION]
        return counts


def overall_verdict(totals: dict[str, int]) -> str:
    """A scan's verdict from its totals: any violation decides it, then any
    inconclusive record."""
    if totals[VIOLATION]:
        return "violation"
    if totals[INCONCLUSIVE]:
        return "inconclusive"
    return "consistent"


def scan(
    k_min: int,
    k_max: int,
    n_max: int | None = None,
    config: SearchConfig = SearchConfig(),
    jobs: int = 1,
    resume: ScanReport | None = None,
    checkpoint: Callable[[ScanReport], None] | None = None,
) -> ScanReport:
    """Decide every candidate order for every k in [k_min, k_max]: by the
    counting sieve when it refutes the candidate, else by the search.

    Records are independent tasks; with jobs > 1 they run in a process pool
    of at most one worker per pending record. The scan first builds base,
    its report of no records, so a bad range raises ValueError, as does
    jobs < 1. Each finished record fills its candidate's slot, and the
    report lists the filled slots in (k, N) order, so parallel and serial
    runs produce the same report. resume takes a previously written
    (possibly partial) report of base's range and config and skips its
    completed records, which ScanReport keeps distinct; each must be a
    candidate of this scan, else ValueError. checkpoint, when given, is
    called once per finished record, in the order records finish, with base
    holding that record alone; the resumed records and those reports make
    up the result.
    """
    base = ScanReport(k_min, k_max, n_max, config, ())
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    candidates = scan_candidates(k_min, k_max, n_max)

    slot_of = {(c.k, c.n): i for i, c in enumerate(candidates)}
    slots: list[ScanRecord | None] = [None] * len(candidates)
    if resume is not None:
        theirs = replace(resume, records=())
        if theirs != base:
            raise ValueError(f"resume parameters {theirs} do not match scan parameters {base}")
        for record in resume.records:
            c = record.candidate
            i = slot_of.get((c.k, c.n))
            if i is None or candidates[i] != c:
                raise ValueError(f"resumed record k={c.k} N={c.order} is not a scan candidate")
            slots[i] = record
    pending = [(c, config) for c, record in zip(candidates, slots) if record is None]

    def take(record: ScanRecord) -> None:
        slots[slot_of[record.candidate.k, record.candidate.n]] = record
        if checkpoint is not None:
            checkpoint(replace(base, records=(record,)))

    if jobs > 1 and len(pending) > 1:
        from multiprocessing import Pool  # here, so importing abelsplit does not load it

        with Pool(processes=min(jobs, len(pending))) as pool:
            for record in pool.imap_unordered(_scan_one, pending):
                take(record)
    else:
        for task in pending:
            take(_scan_one(task))
    return replace(base, records=tuple(r for r in slots if r is not None))


def check_k_le_n_minus_2(report: ScanReport) -> bool:
    """No found record may have n >= 3 together with k > n - 2."""
    return not any(
        r.outcome.result == FOUND and r.candidate.n >= 3 and r.candidate.k > r.candidate.n - 2
        for r in report.records
    )


def check_k_ge_n(report: ScanReport) -> bool:
    """Every found record must have k >= n."""
    return all(
        r.candidate.k >= r.candidate.n for r in report.records if r.outcome.result == FOUND
    )
