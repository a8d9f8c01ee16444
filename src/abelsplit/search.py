"""Exact-cover search for splitter sets over cyclic groups.

Existence of a splitter set for (Z_N, M) is an exact cover problem: the
universe is the nonzero residues 1..N-1 and the rows are the product orbits
{m*s mod N : m in M} of candidate splitters s. Orbits are bitmasks over the
universe, laid out by an order of the residues, one bit each. One row
source, _row_source, and one engine, _exact_covers, serve both the
first-solution search and the all-solutions enumeration. The engine branches
on the lowest uncovered bit and tries candidates in the given row order, so
every outcome is deterministic. It asks for a bit's rows the first time it
branches on that bit. The source looks only at the splitters whose orbit
holds that bit's residue, keeps each one's lowest bit, and builds a mask
only for a row it yields. propagate, which the scan runs before a search,
finds the rows holding a residue the same way (_rows_holding) but builds no
mask: it refutes by forced rows and a dead residue, or gives up.

search_splitter lays the bits out in branch order: the root residue first,
which is the first multiplier's (residue 1 for M = {1..k}), then the others
by descending gcd(x, N), ties by ascending x. A residue with a large gcd
lies in few clean orbits, so the most constrained residues are decided
first, the way the counting argument works through the p-strata top-down.

It also fixes 1 in S. If S is a splitter set, residue 1 = m*s for some m
in M and s in S, so s is a unit and s^-1 * S = m*S is again a splitter set,
now holding 1. The cover may therefore be taken to hold the row of s = 1,
the orbit M itself, and that row alone may cover the root residue. A found
solution is the first cover in this search order (rows by ascending s); an
exhausted tree is a proof that no splitter set exists.
"""

from __future__ import annotations

import time
from functools import partial
from itertools import chain, combinations, islice
from math import comb, gcd, inf
from typing import Callable, Iterable, Iterator, Sequence

from .groups import FiniteAbelianGroup
from .record import Record
# make_certificate is unused here, but perfbench traces it under this module
from .splitting import (  # noqa: F401
    CertificateView, MultiplierSet, SplittingCertificate, make_certificate)

FOUND = "found"
EXHAUSTED = "exhausted_no_solution"
RESOURCE_LIMIT = "resource_limit"
BUDGETS = ("node_limit", "time_limit")  # the reasons a search ends short, BudgetExceeded's

# The clock is read each time a search's work passes a multiple of this; a unit
# of work is a bit-table entry, an orbit element, a row to test or a node.
_TIME_STRIDE = 4096


class BudgetExceeded(RuntimeError):
    """Raised by enumeration when the node or time budget runs out.

    The message names the budget: "node_limit" or "time_limit".
    """


class SearchConfig(Record):
    """A search budget: node_limit >= 1, and time_limit_s >= 0 or None for no
    limit. +inf is stored as None, as JSON, and so a report, has no Infinity.
    A node_limit that is no int, or a time_limit_s that is no int or float (a
    bool is neither), raises TypeError: a report could not write it back."""

    __slots__ = ("node_limit", "time_limit_s")

    def __init__(self, node_limit: int = 100_000_000, time_limit_s: float | None = 60.0) -> None:
        if type(node_limit) is not int or type(time_limit_s) not in (int, float, type(None)):
            raise TypeError(f"node_limit must be an int and time_limit_s an int, float or "
                            f"None, got {node_limit!r}, {time_limit_s!r}")
        if not node_limit >= 1:
            raise ValueError(f"node_limit must be >= 1, got {node_limit}")
        if time_limit_s is not None and not time_limit_s >= 0:  # also rejects nan
            raise ValueError(f"time_limit_s must be >= 0 or None, got {time_limit_s}")
        self._fill(node_limit, None if time_limit_s == inf else time_limit_s)


class SearchStats(Record):
    """A search's nodes and max_depth, and the rows it built. elapsed_s is
    None for a search read back from a document; reason is the budget that
    ended the search: node_limit | time_limit."""

    __slots__ = ("nodes", "max_depth", "elapsed_s", "rows", "reason")

    def __init__(self, nodes: int, max_depth: int, elapsed_s: float | None, rows: int = 0,
                 reason: str | None = None) -> None:
        self._fill(nodes, max_depth, elapsed_s, rows, reason)


class SearchOutcome(Record):
    """result is found | exhausted_no_solution | resource_limit."""

    __slots__ = ("result", "splitters", "stats")


def _rows_holding(n: int, residues: Iterable[int]) -> Callable[[int], Iterator[range]]:
    """holding(x) yields, per multiplier m, the splitters s with m*s = x
    (mod n), as a range: for g = gcd(m, n) < n and g | x, those are the g
    solutions s = (x/g)*(m/g)^-1 (mod n/g). So the rows whose orbit holds
    x are the union of the ranges, found without building any orbit."""
    steps = []  # (g, n/g, (m/g)^-1 mod n/g) per multiplier with g < n
    for m in residues:
        g = gcd(m, n)
        if g < n:
            steps.append((g, n // g, pow(m // g, -1, n // g)))

    def holding(x: int) -> Iterator[range]:
        for g, q, inv in steps:
            if x % g == 0:
                yield range(x // g * inv % q, n, q)

    return holding


def _row_source(
    n: int, residues: Sequence[int], order: Sequence[int], budget: _Budget
) -> Callable[[int], Iterator[tuple[int, int]]]:
    """rows_at(b) yields the clean orbit rows (s, mask) whose lowest bit is b, ascending s.

    order[i] is the residue at bit i, with order[0] = 0. The mask of s is
    the OR of the bits of m*s mod n over m in residues. A splitter whose
    orbit hits 0 (bit 0) or repeats a residue (fewer bits than residues)
    can never appear in a splitting and gets no row. Only the splitters
    whose orbit holds x = order[b] are looked at, those of _rows_holding(x)
    bar s = 0. The source keeps the lowest bit of each splitter it has
    looked at, 0 for a dirty one, and skips a splitter whose lowest bit is
    not b, so the bits may be asked in any order. It builds a mask only for
    a row it yields, in a bytearray of n // 8 + 1 bytes read as one int, so
    in O(k + n/8). Each table entry and orbit element looked at is one unit
    of work; the clock is read each time the work passes a multiple of
    _TIME_STRIDE.
    """
    pos = [0] * n  # the bit table: residue order[i] is at bit i
    for i in range(1, n):
        pos[order[i]] = i
    budget.spend(n)
    holding = _rows_holding(n, residues)
    k = len(residues)
    lowest: dict[int, int] = {}  # splitter -> its orbit's lowest bit, 0 when dirty

    def rows_at(b: int) -> Iterator[tuple[int, int]]:
        splitters: set[int] = set()
        for solutions in holding(order[b]):
            splitters.update(solutions)
        splitters.discard(0)
        for s in sorted(splitters):
            if lowest.get(s, b) != b:  # its row, if it is clean, is at another bit
                continue
            bits = {pos[m * s % n] for m in residues}
            low = lowest[s] = min(bits) if len(bits) == k else 0
            budget.spend(k)
            if low == b:
                buf = bytearray(n // 8 + 1)
                for i in bits:
                    buf[i >> 3] |= 1 << (i & 7)
                yield s, int.from_bytes(buf, "little")

    return rows_at


def _candidate_rows(
    n: int, residues: Sequence[int], budget: _Budget
) -> Callable[[int], Iterator[tuple[int, int]]]:
    """The rows of search_splitter: _row_source in branch-order bits.

    Bit 1 is the root residue, the first multiplier's (1 for {1..k}), and
    bits 2..n-1 are the other residues by descending gcd(x, n), ties by
    ascending x. Rows are deduplicated by orbit: distinct splitters with
    identical orbits are interchangeable as cover rows, and the least one
    represents the class. Equal orbits share their lowest bit, so each bit
    is deduplicated on its own. Only s = 1 may cover the root residue (WLOG
    1 in S, see the module docstring).
    """
    root = residues[0] or 1  # a multiplier 0 leaves no clean row at all
    rest = sorted(range(1, n), key=partial(gcd, n), reverse=True)  # stable: ties ascend
    if rest:  # Z_1 has no residue but 0
        rest.remove(root)
    source = _row_source(n, residues, [0, root] + rest, budget)

    def rows_at(b: int) -> Iterator[tuple[int, int]]:
        if b == 1:  # s = 1 holds the root residue, so it comes first if clean
            yield from (row for row in islice(source(1), 1) if row[0] == 1)
            return
        seen: set[int] = set()
        for s, mask in source(b):
            if mask not in seen:
                seen.add(mask)
                yield s, mask

    return rows_at


class _Budget:
    """Node and time budget of one search, with the nodes and depth it used.

    A node is one row placement, or one enumerated subset in
    enumerate_all_splittings. Every phase spends its work, and spend reads
    the clock each time the total passes a multiple of _TIME_STRIDE (work
    keeps the remainder). rows counts the rows built.
    """

    __slots__ = ("node_limit", "deadline", "nodes", "max_depth", "rows", "work")

    def __init__(self, config: SearchConfig, start: float):
        self.node_limit = config.node_limit
        self.deadline = None if config.time_limit_s is None else start + config.time_limit_s
        self.nodes = 0
        self.max_depth = 0
        self.rows = 0
        self.work = 0

    def spend(self, work: int) -> None:
        self.work += work
        if self.work >= _TIME_STRIDE:
            self.work %= _TIME_STRIDE
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise BudgetExceeded("time_limit")

    def charge(self) -> None:
        self.nodes += 1
        if self.nodes >= self.node_limit:
            raise BudgetExceeded("node_limit")
        self.spend(1)


def _exact_covers(
    n: int, rows_at: Callable[[int], Iterable[tuple[int, int]]], budget: _Budget
) -> Iterator[tuple[int, ...]]:
    """Yield the sorted labels of every exact cover of 1..n-1 by (label, mask) rows.

    rows_at(b) gives the rows whose lowest bit is b; their masks are
    nonempty. The search branches on the lowest uncovered bit (the smallest
    uncovered residue when bit x is residue x). Every lower bit is covered,
    so only the rows whose lowest bit it is can be placed; they are fetched
    the first time the search branches on that bit, and tried in the given
    order. Rows with equal masks but different labels give distinct covers.
    Each row placement is one node, and pushing a bit's rows spends their
    count plus one; BudgetExceeded is raised when the budget runs out.
    """
    full = (1 << n) - 2
    if full == 0:  # Z_1: the empty cover
        yield ()
        return
    cands: list[list[tuple[int, int]] | None] = [None] * n
    node_limit = budget.node_limit
    # The counters live in locals in the loop: an attribute or method call per
    # node is slow. nodes and max_depth go back to the budget on every yield
    # and on exit; work, the work not yet spent, is spent once it reaches
    # _TIME_STRIDE, and the rest goes back on exit.
    nodes, max_depth, work = budget.nodes, budget.max_depth, 0
    covered = 0
    path: list[tuple[int, int]] = []
    try:
        rows = list(rows_at(1))  # bit 1 is the first uncovered one, branched on at the root only
        budget.rows += len(rows)
        work = len(rows)
        stack = [iter(rows)]
        while stack:
            for row in stack[-1]:
                mask = row[1]
                if covered & mask:
                    continue
                covered |= mask
                path.append(row)
                nodes += 1
                if len(path) > max_depth:
                    max_depth = len(path)
                if nodes >= node_limit:
                    raise BudgetExceeded("node_limit")
                if covered == full:
                    budget.nodes, budget.max_depth = nodes, max_depth
                    yield tuple(sorted([label for label, _ in path]))
                    path.pop()
                    covered ^= mask
                    continue
                missing = ~covered & full
                b = (missing & -missing).bit_length() - 1
                rows = cands[b]
                if rows is None:
                    rows = cands[b] = list(rows_at(b))
                    budget.rows += len(rows)
                work += len(rows) + 1
                if work >= _TIME_STRIDE:
                    budget.spend(work)
                    work = 0
                stack.append(iter(rows))
                break
            else:
                stack.pop()
                if path:
                    covered ^= path.pop()[1]
    finally:
        budget.nodes, budget.max_depth = nodes, max_depth
        budget.work += work


_LIVE, _DEAD = 1, 2  # what propagate knows of a row
_LIVE_BYTE = bytes([_LIVE])


def propagate(
    n: int, k: int, config: SearchConfig, start: float
) -> tuple[tuple[tuple[int, int], ...], int | None]:
    """(steps, dead): a refutation of every splitting of Z_n by {1..k} by
    forced rows and a dead residue near -1, or dead = None when propagation
    proves nothing.

    With 1 in S (see the module docstring), the orbit of 1 covers the
    residues 1..k. A row s is live for residue x when x is in its orbit
    {m*s : m in 1..k}, the orbit is clean (n // gcd(s, n) > k: no product
    is 0 and none repeats) and it misses every covered residue. Some row of
    S holds each uncovered x, and only a live one can. A pass probes
    x = -1, -2, ..., -(2k+1), the nonzero ones not yet covered, and counts
    the live rows among _rows_holding(x), up to two: none refutes, with
    dead = x; exactly one is forced, so its orbit is covered and (x, s)
    appended to steps. Passes repeat until one forces nothing.

    A row found dead stays dead, since covered residues stay covered, and
    one found live is tested again only after the next force. The work, k
    units per row tested and one per probe, is spent from config's budget,
    whose clock started at start; BudgetExceeded("time_limit") ends it.
    """
    budget = _Budget(config, start)
    covered = bytearray(n)
    covered[1:k + 1] = b"\1" * min(k, n - 1)
    # per row: 0 not yet tested, _DEAD dirty or meeting a covered residue,
    # which stays so as more is covered, _LIVE live until the next force
    state = bytearray(n)
    holding = _rows_holding(n, range(1, k + 1))
    steps = []
    forced = True
    while forced:
        forced = False
        for x in range(n - 1, max(n - 2 * k - 2, 0), -1):
            if covered[x]:
                continue
            live = []
            tested = 0
            for s in chain.from_iterable(holding(x)):
                known = state[s]
                if not known:
                    tested += 1
                    known = _DEAD
                    if n // gcd(s, n) > k:
                        known = _LIVE
                        # the orbit, m*s mod n for m = 1..k, read until a residue is covered
                        for y in range(s, k * s + 1, s):
                            if covered[y % n]:
                                known = _DEAD
                                break
                    state[s] = known
                if known == _LIVE:
                    live.append(s)
                    if len(live) == 2:
                        break
            budget.spend(k * tested + 1)
            if not live:
                return tuple(steps), x
            if len(live) == 1:
                s = live[0]
                for y in range(s, k * s + 1, s):
                    covered[y % n] = 1
                state = state.replace(_LIVE_BYTE, b"\0")
                steps.append((x, s))
                forced = True
    return tuple(steps), None


def search_splitter(
    G: FiniteAbelianGroup, M: MultiplierSet, config: SearchConfig = SearchConfig()
) -> SearchOutcome:
    """Find a splitter set S with M*S = Z_N minus 0, or prove there is none.

    Requires the cyclic form and |M| dividing N-1. FOUND outcomes carry S as
    ascending residues; EXHAUSTED means the tree was fully explored; budget
    breaches end the search with RESOURCE_LIMIT instead.
    """
    n = G.modulus
    if n > 1 and (n - 1) % len(M) != 0:
        raise ValueError(f"|M| = {len(M)} does not divide |G| - 1 = {n - 1}")
    start = time.monotonic()
    budget = _Budget(config, start)
    try:
        rows_at = _candidate_rows(n, M.residues(n), budget)
        found = next(_exact_covers(n, rows_at, budget), None)
        result, reason = (EXHAUSTED if found is None else FOUND), None
    except BudgetExceeded as exc:
        found, result, reason = None, RESOURCE_LIMIT, str(exc)
    stats = SearchStats(
        budget.nodes, budget.max_depth, time.monotonic() - start, budget.rows, reason
    )
    return SearchOutcome(result, found, stats)


def enumerate_all_splittings(
    n: int, size_of_m: int, config: SearchConfig = SearchConfig()
) -> CertificateView:
    """All pairs (M, S) with |M| = size_of_m splitting Z_n, sorted by (M, S),
    as an iterable with len of verified certificates.

    M ranges over subsets of the canonical residues 1..n-1. Subsets are
    enumerated on whichever side (multiplier or splitter) has the smaller
    binomial count and the other side is solved as exact cover, which keeps
    orders like 27 with |M| = 13 tractable. The covers of a fixed side F are
    those of u*F for every unit u, since (u*M)*S = u*(M*S) and multiplying
    by u permutes the nonzero residues. So the engine runs once per unit
    orbit, on its least member, which combinations() meets first, and every
    other member reuses that list of covers. Raises BudgetExceeded when the
    node or time budget runs out; a node is one enumerated subset or one row
    placement for an orbit's least member. Each fixed tuple goes to
    SplittingCertificate.batch with its orbit's list of covers, and the
    batch certifies all of them in one bitset pass, each from M and S
    alone; each certificate spends |M|*|S| = n-1 units of work as the batch
    takes its item. Every pair is certified before this returns, and the
    result is the batch's CertificateView: one row per multiplier set, in
    ascending order, grouped by M while certifying when the splitters are
    the fixed side, a certificate built per pair as it is iterated and its
    len counted when it is made. The rows share one element tuple per
    residue, one MultiplierSet per multiplier set and one splitters tuple
    per splitter set. For Z_27 the view of |M| = 2 holds 1.6 MB and that of
    |M| = 13 4.0 MB (tracemalloc); `check s87 -N 27` peaks at 20.5 MB of RSS.
    """
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    if size_of_m < 1 or (n - 1) % size_of_m != 0:
        raise ValueError(f"|M| = {size_of_m} must divide {n - 1}")
    group = FiniteAbelianGroup.cyclic(n)
    n_splitters = (n - 1) // size_of_m
    fix_multipliers = comb(n - 1, size_of_m) <= comb(n - 1, n_splitters)
    budget = _Budget(config, time.monotonic())
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    fixed_covers: list[tuple[tuple[int, ...], list[tuple[int, ...]]]] = []
    # The covers of each orbit member not yet enumerated; members are popped
    # as they come, so the dict holds only the orbits under way.
    pending: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for fixed in combinations(range(1, n), size_of_m if fix_multipliers else n_splitters):
        budget.charge()
        covers = pending.pop(fixed, None)
        if covers is None:  # the least member of a new orbit
            # The orbit of x is {f*x : f in fixed}, symmetric in the two
            # sides, so the same rows serve whichever side is enumerated.
            rows_at = _row_source(n, fixed, range(n), budget)  # bit x is residue x
            covers = sorted(_exact_covers(n, rows_at, budget))
            budget.spend(len(units) * len(fixed))
            for u in units:
                pending[tuple(sorted([u * f % n for f in fixed]))] = covers
            del pending[fixed]
        fixed_covers.append((fixed, covers))

    def spending(items):
        for fixed, covers in items:
            budget.spend(len(covers) * (n - 1))  # n-1 products per certificate
            yield fixed, covers

    return SplittingCertificate.batch(group, fix_multipliers, spending(fixed_covers))
