"""Exact-cover search for splitter sets over cyclic groups.

Existence of a splitter set for (Z_N, M) is an exact cover problem: the
universe is the nonzero residues 1..N-1 and the rows are the product orbits
{m*s mod N : m in M} of candidate splitters s. Orbits are bitmasks over the
universe, and one engine, _exact_covers, serves both the first-solution
search and the all-solutions enumeration. It always branches on the smallest
uncovered residue and tries candidates in ascending splitter order, so every
outcome is deterministic and a found solution is the first cover in that
search order. An exhausted tree is a proof that no splitter set exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from .groups import FiniteAbelianGroup
from .splitting import MultiplierSet, SplittingCertificate, make_certificate

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


def orbit_mask(residues: Sequence[int], s: int, n: int) -> int | None:
    """Bitmask of {m*s mod n}; None when the orbit hits 0 or repeats a value.

    Splitters with such dirty orbits can never appear in a valid splitting,
    so they are dropped at candidate generation.
    """
    mask = 0
    for m in residues:
        x = m * s % n
        if x == 0:
            return None
        bit = 1 << x
        if mask & bit:
            return None
        mask |= bit
    return mask


def _candidate_rows(n: int, residues: Sequence[int]) -> list[tuple[int, int]]:
    """Clean orbit rows (s, mask), ascending s, deduplicated by orbit mask.

    Distinct splitters with identical orbits are interchangeable as cover
    rows; the least one represents the class.
    """
    seen: set[int] = set()
    rows = []
    for s in range(1, n):
        mask = orbit_mask(residues, s, n)
        if mask is not None and mask not in seen:
            seen.add(mask)
            rows.append((s, mask))
    return rows


class _Budget:
    """Node and time budget of one search, with the nodes and depth it used.

    A node is one row placement, or one enumerated subset in
    enumerate_all_splittings. The clock is read every _TIME_STRIDE nodes.
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
        if (
            self.deadline is not None
            and nodes % _TIME_STRIDE == 0
            and time.monotonic() > self.deadline
        ):
            raise BudgetExceeded("time_limit")

    def charge(self) -> None:
        self.nodes += 1
        self.check(self.nodes)


def _exact_covers(
    n: int, rows: Sequence[tuple[int, int]], budget: _Budget
) -> Iterator[tuple[int, ...]]:
    """Yield the sorted labels of every exact cover of 1..n-1 by (label, mask) rows.

    The search branches on the smallest uncovered residue and tries the rows
    holding it in the given order, so covers come out in a fixed order. Rows
    with equal masks but different labels give distinct covers. Each row
    placement is one node; BudgetExceeded is raised when the budget runs out.
    """
    cands: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for row in rows:
        m = row[1]
        while m:
            low = m & -m
            cands[low.bit_length() - 1].append(row)
            m ^= low
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
    stack = [iter(cands[1])]  # residue 1 is the first uncovered one
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
        found = next(_exact_covers(n, _candidate_rows(n, M.residues(n)), budget), None)
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
    # orbit_mask(fixed, x, n) is {f*x : f in fixed}, symmetric in the two
    # sides, so the same rows serve whichever side is enumerated.
    for fixed in combinations(range(1, n), size_of_m if fix_multipliers else n_splitters):
        budget.charge()
        rows = []
        for x in range(1, n):
            mask = orbit_mask(fixed, x, n)
            if mask is not None:
                rows.append((x, mask))
        # The covers of one multiplier subset share its MultiplierSet: one
        # object per certificate would add about 10% to the peak memory of
        # `check s87 -N 27`.
        shared = MultiplierSet.explicit(fixed) if fix_multipliers else None
        for labels in _exact_covers(n, rows, budget):
            if shared is None:
                mult, s_vals = MultiplierSet.explicit(labels), fixed
            else:
                mult, s_vals = shared, labels
            out.append(make_certificate(group, mult, [(s,) for s in s_vals]))
    out.sort(key=lambda c: (c.multipliers.values, c.splitters))
    return out
