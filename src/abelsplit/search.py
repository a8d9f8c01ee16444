"""Exact-cover search for splitter sets over cyclic groups.

Existence of a splitter set for (Z_N, M) is an exact cover problem: the
universe is the nonzero residues 1..N-1 and the rows are the product orbits
{m*s mod N : m in M} of candidate splitters s. Orbits are bitmasks over the
universe, laid out by a table of one bit per residue. One row builder,
_orbit_rows, and one engine, _exact_covers, serve both the first-solution
search and the all-solutions enumeration. The engine branches on the lowest
uncovered bit and tries candidates in the given row order, so every outcome
is deterministic.

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
from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from typing import Iterator, Sequence

from .groups import FiniteAbelianGroup
from .splitting import MultiplierSet, SplittingCertificate, classify_multipliers, make_certificate

FOUND = "found"
EXHAUSTED = "exhausted_no_solution"
RESOURCE_LIMIT = "resource_limit"

_TIME_STRIDE = 4096  # nodes between monotonic-clock reads


class BudgetExceeded(RuntimeError):
    """Raised by enumeration when the node or time budget runs out.

    The message names the budget: "node_limit" or "time_limit".
    """


@dataclass(frozen=True)
class SearchConfig:
    node_limit: int = 100_000_000
    time_limit_s: float | None = 60.0


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    max_depth: int
    elapsed_s: float


@dataclass(frozen=True)
class SearchOutcome:
    result: str  # found | exhausted_no_solution | resource_limit
    splitters: tuple[int, ...] | None
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.result == FOUND


def _orbit_rows(
    n: int, residues: Sequence[int], bit: Sequence[int], budget: _Budget
) -> list[tuple[int, int]]:
    """Clean orbit rows (s, mask) for s = 1..n-1, ascending s.

    The mask of s is the OR of bit[m*s mod n] over m in residues, so the
    table bit fixes the layout; bit[0] must be 0. A splitter whose orbit hits
    0 or repeats a residue can never appear in a splitting and gets no row.
    The clock is read about every _TIME_STRIDE orbit elements.
    """
    stride = max(1, _TIME_STRIDE // len(residues))
    rows = []
    for s in range(1, n):
        if s % stride == 0:
            budget.check_clock()
        mask = 0
        for m in residues:
            b = bit[m * s % n]
            if not b or mask & b:  # the orbit hits 0, or repeats
                break
            mask |= b
        else:
            rows.append((s, mask))
    return rows


def _candidate_rows(
    n: int, residues: Sequence[int], budget: _Budget
) -> list[tuple[int, int]]:
    """The rows of search_splitter: _orbit_rows in branch-order bits.

    Bit 1 is the root residue, the first multiplier's (1 for {1..k}), and
    bits 2..n-1 are the other residues by descending gcd(x, n), ties by
    ascending x. Rows are deduplicated by orbit: distinct splitters with
    identical orbits are interchangeable as cover rows, and the least one
    represents the class. Only s = 1 may cover the root residue (WLOG 1 in S,
    see the module docstring).
    """
    if n < 2:
        return []
    root = residues[0] or 1  # a multiplier 0 leaves no clean row at all
    order = sorted((x for x in range(1, n) if x != root), key=lambda x: (-gcd(x, n), x))
    bit = [0] * n
    for i, x in enumerate([root] + order, start=1):
        bit[x] = 1 << i
    seen: set[int] = set()
    rows = []
    for s, mask in _orbit_rows(n, residues, bit, budget):
        if mask not in seen and (s == 1 or not mask & 2):
            seen.add(mask)
            rows.append((s, mask))
    return rows


class _Budget:
    """Node and time budget of one search, with the nodes and depth it used.

    A node is one row placement, or one enumerated subset in
    enumerate_all_splittings. The clock is read every _TIME_STRIDE nodes, and
    during setup about every _TIME_STRIDE orbit elements.
    """

    __slots__ = ("node_limit", "deadline", "nodes", "max_depth")

    def __init__(self, config: SearchConfig, start: float):
        self.node_limit = config.node_limit
        self.deadline = None if config.time_limit_s is None else start + config.time_limit_s
        self.nodes = 0
        self.max_depth = 0

    def check(self, nodes: int) -> None:
        if nodes >= self.node_limit:
            raise BudgetExceeded("node_limit")
        if nodes % _TIME_STRIDE == 0:
            self.check_clock()

    def check_clock(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("time_limit")

    def charge(self) -> None:
        self.nodes += 1
        self.check(self.nodes)


def _exact_covers(
    n: int, rows: Sequence[tuple[int, int]], budget: _Budget
) -> Iterator[tuple[int, ...]]:
    """Yield the sorted labels of every exact cover of 1..n-1 by (label, mask) rows.

    Masks are nonempty: every caller passes orbits of a nonempty set. The
    search branches on the lowest uncovered bit (the smallest uncovered
    residue when bit x is residue x). Every lower bit is covered, so only the
    rows whose lowest bit it is can be placed: each row is filed once, under
    its lowest bit, and tried in the given order. Rows with equal masks but
    different labels give distinct covers. Each row placement is one node;
    BudgetExceeded is raised when the budget runs out, also while indexing.
    """
    cands: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    stride = max(1, _TIME_STRIDE // rows[0][1].bit_count()) if rows else 1
    for i, row in enumerate(rows, start=1):
        if i % stride == 0:
            budget.check_clock()
        mask = row[1]
        cands[(mask & -mask).bit_length() - 1].append(row)
    full = (1 << n) - 2
    if full == 0:  # Z_1: the empty cover
        yield ()
        return
    node_limit = budget.node_limit
    # The counters live in locals in the loop and go back to the budget on
    # every yield and on exit: an attribute or method call per node is slow.
    nodes, max_depth = budget.nodes, budget.max_depth
    covered = 0
    path: list[tuple[int, int]] = []
    stack = [iter(cands[1])]  # bit 1 is the first uncovered one
    try:
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
                if nodes >= node_limit or nodes % _TIME_STRIDE == 0:
                    budget.check(nodes)
                if covered == full:
                    budget.nodes, budget.max_depth = nodes, max_depth
                    yield tuple(sorted(label for label, _ in path))
                    path.pop()
                    covered ^= mask
                    continue
                missing = ~covered & full
                stack.append(iter(cands[(missing & -missing).bit_length() - 1]))
                break
            else:
                stack.pop()
                if path:
                    covered ^= path.pop()[1]
    finally:
        budget.nodes, budget.max_depth = nodes, max_depth


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
        rows = _candidate_rows(n, M.residues(n), budget)
        found = next(_exact_covers(n, rows, budget), None)
        result = EXHAUSTED if found is None else FOUND
    except BudgetExceeded:
        found, result = None, RESOURCE_LIMIT
    stats = SearchStats(budget.nodes, budget.max_depth, time.monotonic() - start)
    return SearchOutcome(result, found, stats)


def enumerate_all_splittings(
    n: int, size_of_m: int, config: SearchConfig = SearchConfig()
) -> list[SplittingCertificate]:
    """All pairs (M, S) with |M| = size_of_m splitting Z_n, sorted by (M, S).

    M ranges over subsets of the canonical residues 1..n-1. Subsets are
    enumerated on whichever side (multiplier or splitter) has the smaller
    binomial count and the other side is solved as exact cover, which keeps
    orders like 27 with |M| = 13 tractable. Raises BudgetExceeded when the
    node or time budget runs out; a node is one enumerated subset or one row
    placement. Every returned certificate is re-verified.
    """
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    if size_of_m < 1 or (n - 1) % size_of_m != 0:
        raise ValueError(f"|M| = {size_of_m} must divide {n - 1}")
    group = FiniteAbelianGroup.cyclic(n)
    n_splitters = (n - 1) // size_of_m
    fix_multipliers = comb(n - 1, size_of_m) <= comb(n - 1, n_splitters)
    budget = _Budget(config, time.monotonic())
    out: list[SplittingCertificate] = []
    bit = [0] + [1 << x for x in range(1, n)]  # bit x is residue x
    # The orbit of x is {f*x : f in fixed}, symmetric in the two sides, so
    # the same rows serve whichever side is enumerated.
    for fixed in combinations(range(1, n), size_of_m if fix_multipliers else n_splitters):
        budget.charge()
        rows = _orbit_rows(n, fixed, bit, budget)
        # The covers of one multiplier subset share its MultiplierSet and its
        # classification. In the peak memory of `check s87 -N 27`, one
        # MultiplierSet per certificate would add about 10%, and one
        # classification per certificate about 17% (106 MB against 91 MB).
        if fix_multipliers:
            mult = MultiplierSet.explicit(fixed)
            classification = classify_multipliers(group, mult)
        for labels in _exact_covers(n, rows, budget):
            if fix_multipliers:
                s_vals = labels
            else:
                mult, classification, s_vals = MultiplierSet.explicit(labels), None, fixed
            out.append(make_certificate(group, mult, [(s,) for s in s_vals], classification))
    out.sort(key=lambda c: (c.multipliers.values, c.splitters))
    return out
