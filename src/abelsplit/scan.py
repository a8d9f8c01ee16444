"""Candidate-order enumeration and the desk-scale splitting scan.

For M = {1..k} a purely singular splitting can only live in a group whose
order is k-smooth: every prime divisor p of |G| must divide some m <= k,
which for an interval just means p <= k. Candidate orders are therefore
N = n*k + 1 with all prime factors <= k. The scan decides every candidate
by the first of four proof routes that decides it, and its record holds
that route's decision:

1. closed_form: a trivial order, N = k + 1 or 2k + 1, splits by S = {1} or
   S = {1, N - 1}, with no sieve and no search; its decision is a
   ClosedForm of those splitters, which make_record verifies into the
   certificate of splitting.trivial_certificate.
2. counting: the counting sieve (counting.counting_witness) refutes a
   candidate whose stratum identities have no nonnegative integer
   solution; its decision is a Counting(p, stratum).
3. propagation: forced rows and a dead residue near -1 (search.propagate)
   refute the candidate; its decision is a Propagation(steps, dead).
4. search: the exact-cover search decides the rest; its decision is its
   SearchOutcome.

Every decision answers result, a ClosedForm always FOUND and a Counting or
Propagation always EXHAUSTED, so the one verdict rule and every reader of
results read each route alike. The scan expects splittings exactly at the
trivial orders; a splitting the search finds anywhere else is a violation,
kept with a re-verified certificate.

A scan enumerates its candidates with iter_candidates, in (k, N) order,
from a table of largest prime factors: an order is a candidate when its
entry is at most k, and it factors by dividing out entries. The table is
doubled only when a k needs more of it, up to the range's largest order
k_max*n_limit(k_max) + 1, and check_scan_range refuses a range whose
largest order is not below 2**31, which the array("i") table cannot hold.
The table costs 4 bytes per integer up to the order it reaches, 8 MB at
k_max = 1000 and 72 MB at k_max = 3000, and building it 3 bytes more for a
moment. scan() and the report and journal readers each walk it once and
look up, by (k, n), the record resumed or listed at each candidate, so a
reader that stops at the first candidate missing has built only the table
up to it.
"""

from __future__ import annotations

import time
from array import array
from itertools import compress, count
from math import isqrt
from operator import ge
from typing import Callable, Iterator

from .counting import counting_witness
# factorize is unused here, but perfbench traces it under this module
from .groups import FiniteAbelianGroup, PrimePower, factorize  # noqa: F401
from .record import Record, replace
from .search import (
    EXHAUSTED,
    FOUND,
    RESOURCE_LIMIT,
    BudgetExceeded,
    SearchConfig,
    SearchOutcome,
    SearchStats,
    propagate,
    search_splitter,
)
from .splitting import MultiplierSet, SplittingCertificate, make_certificate

TRIVIAL_EXPECTED = "trivial_expected"
CONSISTENT = "conjecture_consistent"
VIOLATION = "CONJECTURE_VIOLATION"
INCONCLUSIVE = "inconclusive"

CLOSED_FORM = "closed_form"
COUNTING = "counting"
PROPAGATION = "propagation"
SEARCH = "search"


class CandidateOrder(Record):
    """An order N = n*k + 1 whose prime divisors all lie at or below k."""

    __slots__ = ("k", "n", "order", "smoothness_witness")

    @property
    def trivial(self) -> bool:
        """Whether N is k + 1 or 2k + 1, where a splitting always exists."""
        return self.order in (self.k + 1, 2 * self.k + 1)


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


ORDER_BOUND = 2**31  # the orders an array("i") table of largest prime factors holds


def check_scan_range(k_min: int, k_max: int, n_max: int | None) -> None:
    """The parameter rule of a scan: 1 <= k_min <= k_max, n_max >= 1 or
    None, and the largest order of the range, k_max*n_limit(k_max) + 1,
    below ORDER_BOUND. A bound that is not an int, a bool included, raises
    TypeError; the rest raise ValueError, the last naming the range and
    that order."""
    if not all(type(bound) is int for bound in (k_min, k_max, 1 if n_max is None else n_max)):
        raise TypeError(f"scan bounds must be ints, got {k_min!r}, {k_max!r}, {n_max!r}")
    if k_min < 1 or k_min > k_max:
        raise ValueError(f"bad k range [{k_min}, {k_max}]")
    if n_max is not None and n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    top = k_max * n_limit(k_max, n_max) + 1
    if top >= ORDER_BOUND:
        raise ValueError(f"the scan k={k_min}..{k_max} n=1..{'2k' if n_max is None else n_max} "
                         f"reaches the order {top}; its candidate table holds orders below 2**31")


def n_limit(k: int, n_max: int | None) -> int:
    """The largest n of a scan's candidates N = n*k + 1 at k: n_max, or 2k
    when n_max is None."""
    return 2 * k if n_max is None else n_max


def iter_candidates(k_min: int, k_max: int, n_max: int | None = None) -> Iterator[CandidateOrder]:
    """Every candidate of a scan, in (k, N) order; n_max of None means 2k
    for each k.

    The table of largest prime factors starts empty and, when a k needs
    orders past it, is built again at twice its size or the k's largest
    order, whichever is more, but never past the range's largest order.
    Before each build the range up to that k must pass check_scan_range,
    so a range whose orders grow past the table's reach is refused at the
    first k that needs them, before its table is built, and a reader that
    stops early builds only the table up to where it stopped."""
    lpf = array("i")
    for k in range(k_min, k_max + 1):
        top = n_limit(k, n_max) * k + 1
        if top >= len(lpf):
            check_scan_range(k_min, k, n_max)
            lpf = largest_prime_factors(
                min(max(top, 2 * len(lpf)), k_max * n_limit(k_max, n_max) + 1))
        for n in compress(count(1), map(k.__ge__, lpf[k + 1:top + 1:k])):
            yield CandidateOrder(k, n, n * k + 1, _factor_by_table(n * k + 1, lpf))


def purely_singular_candidates(k: int, n_max: int) -> list[CandidateOrder]:
    """All candidate orders N = n*k + 1 with 1 <= n <= n_max, ascending.
    Parameters that break check_scan_range raise its error."""
    check_scan_range(k, k, n_max)
    return list(iter_candidates(k, k, n_max))


class ClosedForm(Record):
    """The closed-form decision of a trivial order: the splitters of
    splitting.trivial_certificate, S = {1} at N = k + 1 and S = {1, N - 1}
    at N = 2k + 1. Its result is therefore FOUND, as a search's that found
    a splitter set, and make_record verifies it alike."""

    __slots__ = ("splitters",)

    result = FOUND


class Counting(Record):
    """The counting sieve's decision: the identity of stratum `stratum` at
    the prime p has no nonnegative integer solution, which proves that no
    splitter set exists. Its result is therefore EXHAUSTED, as a search's
    that walked its whole tree."""

    __slots__ = ("p", "stratum")

    result = EXHAUSTED


class Propagation(Record):
    """The propagation decision of search.propagate: steps are the (residue,
    forced row) pairs in the order they were forced, and no live row holds
    the residue dead once they are covered, which proves that no splitter
    set exists. Its result is therefore EXHAUSTED."""

    __slots__ = ("steps", "dead")

    result = EXHAUSTED


_ROUTES = {ClosedForm: CLOSED_FORM, Counting: COUNTING, Propagation: PROPAGATION}


class ScanRecord(Record):
    """One candidate, the decision of the route that decided it, and the
    certificate of a found splitter set (None otherwise). The decision is a
    ClosedForm, a Counting, a Propagation or the search's SearchOutcome.
    Each answers result, so the verdict below, ScanReport.totals, the
    inequality checks and the benchmark's gate read every route alike.
    route and verdict are read off the decision, so no record can hold a
    verdict its decision contradicts; every record, fresh or read back, is
    built by make_record."""

    __slots__ = ("candidate", "outcome", "certificate")

    def __init__(self, candidate: CandidateOrder,
                 outcome: ClosedForm | Counting | Propagation | SearchOutcome,
                 certificate: SplittingCertificate | None = None) -> None:
        self._fill(candidate, outcome, certificate)

    @property
    def route(self) -> str:
        """The proof route of the decision: closed_form, counting,
        propagation or search."""
        return _ROUTES.get(type(self.outcome), SEARCH)

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


def make_record(candidate: CandidateOrder,
                outcome: ClosedForm | Counting | Propagation | SearchOutcome) -> ScanRecord:
    """The record of candidate decided by outcome, any route's decision,
    for fresh and resumed records alike, through the result each answers.

    A found splitter set, a closed form's or a search's, is re-verified
    into a certificate, and the record keeps the certificate's canonical
    splitters. A proof of nonexistence at a trivial order raises
    RuntimeError naming its route: a splitting always exists there, so
    either that route or the claim is unsound. An unknown result raises
    ValueError.
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
    record = ScanRecord(candidate, outcome)
    if outcome.result == EXHAUSTED and candidate.trivial:
        raise RuntimeError(f"the {record.route} route refutes trivial order {order} for k={k}")
    return record


def sieve(candidate: CandidateOrder) -> Counting | None:
    """The counting sieve's decision on candidate: the Counting of
    counting_witness when it refutes the candidate, None when it does not
    or when the order is trivial, which the closed form decides first. The
    scan lists the candidates it leaves; the readers run it again on the
    rest of the range."""
    if candidate.trivial:
        return None
    witness = counting_witness(candidate.k, candidate.order, candidate.smoothness_witness)
    return None if witness is None else Counting(*witness)


def decide(candidate: CandidateOrder, config: SearchConfig,
           search: Callable[[SearchConfig], SearchOutcome]) -> ScanRecord:
    """A candidate's record from the first proof route that decides it.

    A trivial order gets its ClosedForm, with no sieve and no search.
    Otherwise the sieve's Counting decides a candidate it refutes, then the
    Propagation of search.propagate, whose work config's budget pays for; a
    candidate neither refutes gets search(left), left being config with the
    time that propagation left. Every decision goes through make_record. When
    propagation runs out of time, the record is a resource_limit search
    outcome of no nodes, its stats' reason time_limit.
    """
    k, order = candidate.k, candidate.order
    if candidate.trivial:
        return make_record(candidate, ClosedForm((1,) if candidate.n == 1 else (1, 2 * k)))
    counting = sieve(candidate)
    if counting is not None:
        return make_record(candidate, counting)
    start = time.monotonic()
    try:
        steps, dead = propagate(order, k, config, start)
    except BudgetExceeded as exc:
        stats = SearchStats(0, 0, time.monotonic() - start, 0, str(exc))
        return make_record(candidate, SearchOutcome(RESOURCE_LIMIT, None, stats))
    if dead is not None:
        return make_record(candidate, Propagation(steps, dead))
    limit = config.time_limit_s
    left = None if limit is None else max(0.0, start + limit - time.monotonic())
    return make_record(candidate, search(replace(config, time_limit_s=left)))


def _scan_one(task: tuple[CandidateOrder, SearchConfig]) -> ScanRecord:
    candidate, config = task
    return decide(candidate, config, lambda left: search_splitter(
        FiniteAbelianGroup.cyclic(candidate.order), MultiplierSet.interval(candidate.k), left))


def order_error(before: tuple[int, int], after: tuple[int, int]) -> ValueError:
    """The error of a record (k, n) listed after the record before, at or
    past it in (k, N) order: a record held twice, or one out of place."""
    if before == after:
        return ValueError(f"scan report holds a record twice: k={after[0]} n={after[1]}")
    return ValueError(f"record k={after[0]} n={after[1]} comes after k={before[0]} n={before[1]}")


def check_ascending(keys: list[tuple[int, int]]) -> None:
    """The order_error of the first (k, n) of keys that does not come
    strictly after the one before it; (k, n) order is (k, N) order."""
    i = next(compress(count(), map(ge, keys, keys[1:])), None)
    if i is not None:
        raise order_error(keys[i], keys[i + 1])


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
        check_ascending([(r.candidate.k, r.candidate.n) for r in records])
        self._fill(k_min, k_max, n_max, config, records)

    @property
    def routes(self) -> dict[str, int]:
        """The number of records of each proof route, every route named."""
        counts = dict.fromkeys((CLOSED_FORM, COUNTING, PROPAGATION, SEARCH), 0)
        for record in self.records:
            counts[record.route] += 1
        return counts

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
    """Decide every candidate order for every k in [k_min, k_max], each by
    the first proof route that decides it (decide).

    Records are independent tasks; with jobs > 1 they run in a process pool
    of at most one worker per pending record. The scan first builds base,
    its report of no records, so a bad range raises ValueError, as does
    jobs < 1. resume takes a previously written (possibly partial) report
    of base's range and config, whose completed records are skipped. One
    walk of the range (iter_candidates) takes each candidate's resumed
    record by (k, n) and queues every other candidate; a resumed record
    that is no candidate of this scan, or whose candidate differs from the
    one the walk found, raises ValueError before any candidate is decided.
    checkpoint, when given, is called once per finished record, in the
    order records finish, with base holding that record alone. The result
    holds the resumed and the finished records sorted by scan_order, so
    parallel and serial runs produce the same report.
    """
    base = ScanReport(k_min, k_max, n_max, config, ())
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    resumed: dict[tuple[int, int], ScanRecord] = {}
    if resume is not None:
        theirs = replace(resume, records=())
        if theirs != base:
            raise ValueError(f"resume parameters {theirs} do not match scan parameters {base}")
        resumed = {(r.candidate.k, r.candidate.n): r for r in resume.records}
    records, pending = [], []
    for c in iter_candidates(k_min, k_max, n_max):
        record = resumed.get((c.k, c.n))
        if record is None or record.candidate != c:
            pending.append((c, config))
        else:
            records.append(resumed.pop((c.k, c.n)))
    if resumed:  # what the walk left: records of no candidate, or misfactored
        c = resumed[min(resumed)].candidate
        raise ValueError(f"resumed record k={c.k} N={c.order} is not a scan candidate")

    def take(record: ScanRecord) -> None:
        records.append(record)
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
    return replace(base, records=tuple(sorted(records, key=scan_order)))


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
