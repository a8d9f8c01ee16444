"""Splitting verification, classification, and certificate construction.

A splitting of a finite abelian group G is a set M of nonzero integers (the
multipliers) together with a subset S of G (the splitters) such that every
nonzero element of G equals m*s for exactly one pair (m, s). A
SplittingCertificate is verified when it is made, so it always holds one.
Both of its constructors verify: SplittingCertificate(...) checks one
certificate's products, and SplittingCertificate.batch checks, for each
fixed tuple of one cyclic group, all the covers it pairs with in one bitset
pass. The batch certifies every pair before it returns a CertificateView,
an iterable with len that holds the pairs as one row of splitters tuples
per multiplier set and builds each certificate as it is iterated. Neither
constructor yields a certificate for a pair that is not a splitting.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import itemgetter, lt
from typing import Iterable, Iterator

from .groups import Element, FiniteAbelianGroup
from .record import Record

INTERVAL = "interval"
EXPLICIT = "explicit"

NONSINGULAR = "nonsingular"
PURELY_SINGULAR = "purely_singular"
MIXED_SINGULAR = "mixed_singular"

VALID = "valid"
INVALID = "invalid"

ORDER_K_PLUS_1 = "order_k_plus_1"
ORDER_2K_PLUS_1 = "order_2k_plus_1"


class MultiplierSet(Record):
    """Strictly increasing nonzero integers, optionally tagged as {1..k}.

    Its fields live in slots, so an instance carries no dict: an
    enumeration holds one per multiplier set.
    """

    __slots__ = ("values", "kind")

    def __init__(self, values: tuple[int, ...], kind: str = EXPLICIT) -> None:
        if type(values) is not tuple or not all(type(v) is int for v in values):
            values = tuple(map(int, values))
        if not values:
            raise ValueError("multiplier set must be nonempty")
        if 0 in values:
            raise ValueError("0 is not a valid multiplier")
        if not all(map(lt, values, values[1:])):
            raise ValueError("multiplier values must be strictly increasing")
        if kind == INTERVAL:
            if values != tuple(range(1, len(values) + 1)):
                raise ValueError("interval multiplier set must be exactly {1..k}")
        elif kind != EXPLICIT:
            raise ValueError(f"unknown multiplier kind {kind!r}")
        self._fill(values, kind)

    @classmethod
    def interval(cls, k: int) -> "MultiplierSet":
        """The multiplier interval {1, 2, ..., k}."""
        if k < 1:
            raise ValueError(f"interval bound must be >= 1, got {k}")
        return cls(tuple(range(1, k + 1)), kind=INTERVAL)

    def residues(self, modulus: int) -> tuple[int, ...]:
        """Values reduced mod the group order, in value order (may repeat):
        the values tuple itself when they all lie in 1..modulus-1."""
        values = self.values
        if 0 < values[0] and values[-1] < modulus:  # the values increase
            return values
        return tuple(v % modulus for v in values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


class SingularityClass(Record):
    """Which prime divisors of |G| divide some multiplier.

    witnesses pairs each prime divisor of |G| with the least multiplier it
    divides, or None when no multiplier works.
    """

    __slots__ = ("tag", "witnesses")


def classify_multipliers(G: FiniteAbelianGroup, M: MultiplierSet) -> SingularityClass:
    """nonsingular / purely_singular / mixed_singular for (|G|, M).

    Only residues of M mod |G| matter, so translating multipliers by
    multiples of the order never changes the class. The trivial group has
    no prime divisors and comes out purely_singular (vacuously).
    """
    n = G.order
    witnesses = []
    for p, _ in G.order_factorization:
        hit = next((v for v in M if (v % n) % p == 0), None)
        witnesses.append((p, hit))
    if all(m is not None for _, m in witnesses):
        tag = PURELY_SINGULAR
    elif all(m is None for _, m in witnesses):
        tag = NONSINGULAR
    else:
        tag = MIXED_SINGULAR
    return SingularityClass(tag, tuple(witnesses))


class VerificationFailure(Record):
    """kind is count_mismatch | zero_hit | collision."""

    __slots__ = ("kind", "element", "first", "second")

    def __init__(self, kind: str, element: Element | None = None,
                 first: tuple[int, Element] | None = None,
                 second: tuple[int, Element] | None = None) -> None:
        self._fill(kind, element, first, second)

    def describe(self) -> str:
        if self.kind == "count_mismatch":
            return "count mismatch: |M| * |S| != |G| - 1"
        if self.kind == "zero_hit":
            m, s = self.first
            return f"product {m} * {s} is the identity"
        return f"element {self.element} reached by both {self.first} and {self.second}"


class VerificationReport(Record):
    __slots__ = ("verdict", "failure")

    def __init__(self, verdict: str, failure: VerificationFailure | None = None) -> None:
        self._fill(verdict, failure)

    @property
    def is_valid(self) -> bool:
        return self.verdict == VALID


_VALID = VerificationReport(VALID)


def canonical_splitters(G: FiniteAbelianGroup, elements: Iterable) -> tuple[Element, ...]:
    """Reduce, sort, and reject duplicate splitters."""
    elems = [G.element(e) for e in elements]
    out = tuple(sorted(set(elems)))
    if len(out) != len(elems):
        raise ValueError("duplicate splitters")
    return out


def verify_splitting(
    G: FiniteAbelianGroup, M: MultiplierSet, splitters: Iterable
) -> VerificationReport:
    """Check that the products m*s cover every nonzero element exactly once.

    The splitters are canonicalized once. A size mismatch |M|*|S| != |G|-1
    short-circuits. Otherwise all |M|*|S| products are computed in one pass,
    on the int residue for a cyclic group, and accepted when none is zero
    and all are distinct: once the count matches, |G|-1 distinct nonzero
    products are every nonzero element, so coverage needs no separate pass.
    For a rejected set, the first product of that pass (splitter-major,
    multiplier-minor, both ascending) that is zero or repeats is reported,
    so failure reports are reproducible.
    """
    return _check_products(G, M, canonical_splitters(G, splitters))


def _check_products(
    G: FiniteAbelianGroup, M: MultiplierSet, S: tuple[Element, ...]
) -> VerificationReport:
    """verify_splitting on splitters S that are already canonical."""
    if len(M) * len(S) != G.order - 1:
        return VerificationReport(INVALID, VerificationFailure("count_mismatch"))
    cyclic = G.is_cyclic
    if cyclic:
        n = G.factors[0]
        distinct = {m * s % n for (s,) in S for m in M.values}
        if len(distinct) == n - 1 and 0 not in distinct:
            return _VALID
        xs = [m * s % n for (s,) in S for m in M.values]
        zero = 0
    else:
        xs = [G.scalar_mul(m, s) for s in S for m in M.values]
        zero = G.identity()
        distinct = set(xs)
        if len(distinct) == len(xs) and zero not in distinct:
            return _VALID
    # A rejected set has a zero or a repeated product, so this walk returns.
    seen: dict = {}  # product -> its first (m, s)
    for x, (s, m) in zip(xs, product(S, M.values)):
        element = (x,) if cyclic else x
        if x == zero:
            return VerificationReport(INVALID, VerificationFailure("zero_hit", element, (m, s)))
        if x in seen:
            return VerificationReport(INVALID, VerificationFailure("collision", element, seen[x], (m, s)))
        seen[x] = (m, s)


class NotASplitting(ValueError):
    """A certificate was made from a non-splitting; report says why."""

    def __init__(self, G: FiniteAbelianGroup, report: VerificationReport):
        super().__init__(f"not a splitting of {G}: {report.failure.describe()}")
        self.report = report


class SplittingCertificate(Record):
    """A splitting, the portable proof object: the splitters must be canonical,
    are stored as given, and are verified here (NotASplitting if they fail)."""

    __slots__ = ("group", "multipliers", "splitters")

    def __init__(self, group: FiniteAbelianGroup, multipliers: MultiplierSet,
                 splitters: tuple[Element, ...]) -> None:
        report = _check_products(group, multipliers, splitters)
        if not report.is_valid:
            raise NotASplitting(group, report)
        self._fill(group, multipliers, splitters)

    @property
    def classification(self) -> SingularityClass:
        """classify_multipliers(group, multipliers), computed on every read."""
        return classify_multipliers(self.group, self.multipliers)

    @classmethod
    def batch(
        cls,
        group: FiniteAbelianGroup,
        fix_multipliers: bool,
        fixed_covers: Iterable[tuple[tuple[int, ...], list[tuple[int, ...]]]],
    ) -> CertificateView:
        """The certificates of the (fixed tuple, cover list) items of a cyclic
        group, every pair certified before this returns.

        Each fixed tuple F pairs with every cover C in its list: F is the M
        values and C the S residues when fix_multipliers, the other way
        round otherwise. M values are what MultiplierSet takes (strictly
        increasing, nonzero) and S residues lie in 0..n-1. The result is a
        CertificateView with one row per multiplier set, by ascending M
        values, each row's splitters in item order, then cover order. The
        rows share one MultiplierSet per M, one splitters tuple per S and
        one element tuple per residue; with M fixed, the fixed tuples that
        share a cover list share one list of its splitters tuples.

        All covers of one F are checked at once. For each distinct list
        object, col[x] has bit j set when residue x is in cover j; it is
        built once, so the fixed tuples that share a list share its col.
        acc[f*x mod n] gathers col[x] for every f in F and every x, so bit j
        of acc[r] says that r is a product of F and C_j. C_j is accepted
        exactly when |F|*|C_j| = n-1 and bit j is set in acc[r] for every
        nonzero r: n-1 products that reach all n-1 nonzero residues reach
        each once and never 0, so this accepts exactly the pairs the
        SplittingCertificate constructor accepts. The first rejected pair raises
        NotASplitting with the report that constructor gives, and no
        certificate of the batch is handed out.
        """
        n = group.modulus
        elements = [(x,) for x in range(n)]
        fields: tuple[dict, dict] = ({}, {})  # values -> (field, residues), S side then M side

        def field(values: tuple[int, ...], multipliers: bool):
            known = fields[multipliers].get(values)
            if known is None:
                if multipliers:
                    M = MultiplierSet(values)
                    known = M, M.residues(n)
                elif all(0 <= s < n for s in values):
                    known = tuple([elements[s] for s in values]), values
                else:
                    raise ValueError(f"splitter residues must lie in 0..{n - 1}, got {values}")
                fields[multipliers][values] = known
            return known

        # id(cover list) -> (the list, its fields, col, the mask of covers per size);
        # holding the list keeps its id from being reused while the batch runs
        tables: dict[int, tuple] = {}
        # id(M) -> (M, the list of its splitters tuples); field makes one M per values
        rows: dict[int, tuple] = {}
        for fixed, covers in fixed_covers:
            table = tables.get(id(covers))
            if table is None:
                cover_fields, col, by_size = [], [0] * n, {}
                for j, cover in enumerate(covers):
                    value, residues = field(cover, not fix_multipliers)
                    cover_fields.append(value)
                    bit = 1 << j
                    for x in residues:
                        col[x] |= bit
                    by_size[len(cover)] = by_size.get(len(cover), 0) | bit
                table = tables[id(covers)] = covers, cover_fields, col, by_size
            _, cover_fields, col, by_size = table
            value, residues = field(fixed, fix_multipliers)
            acc = [0] * n
            for f in residues:
                for x, c in enumerate(col):
                    acc[f * x % n] |= c
            accepted = sum(mask for size, mask in by_size.items() if len(fixed) * size == n - 1)
            for r in range(1, n):
                accepted &= acc[r]
            if accepted != (1 << len(covers)) - 1:
                # the lowest clear bit of accepted
                other = cover_fields[((accepted + 1) & ~accepted).bit_length() - 1]
                M, S = (value, other) if fix_multipliers else (other, value)
                raise NotASplitting(group, _check_products(group, M, S))
            if not fix_multipliers:
                for M in cover_fields:
                    row = rows.get(id(M))
                    if row is None:
                        row = rows[id(M)] = M, []
                    row[1].append(value)
            elif cover_fields:
                row = rows.get(id(value))
                rows[id(value)] = value, cover_fields if row is None else row[1] + cover_fields
        return CertificateView(group, sorted(rows.values(), key=lambda row: row[0].values))


def _certificate(group: FiniteAbelianGroup, M: MultiplierSet, S: tuple[Element, ...]):
    """A SplittingCertificate of a pair already certified, made by _fill,
    without __init__, which would check the products again."""
    cert = _new(SplittingCertificate)
    cert._fill(group, M, S)
    return cert


_new = SplittingCertificate.__new__


class CertificateView:
    """SplittingCertificate.batch's result: an iterable with len of a
    certificate per certified (M, S) pair, each built by _fill as it is
    iterated.

    rows holds one (M, list of splitters tuples) row per multiplier set, and
    the view lists the pairs row by row; the rows and their lists are read
    only. Every certificate the view hands out is one the batch certified,
    so only SplittingCertificate.batch makes a view.
    """

    __slots__ = ("group", "rows", "_len")

    def __init__(self, group: FiniteAbelianGroup, rows: list[tuple]) -> None:
        self.group, self.rows = group, tuple(rows)
        self._len = sum(len(splitters) for _, splitters in self.rows)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[SplittingCertificate]:
        group = self.group
        for M, splitters in self.rows:
            for S in splitters:
                yield _certificate(group, M, S)


def make_certificate(
    G: FiniteAbelianGroup, M: MultiplierSet, splitters: Iterable
) -> SplittingCertificate:
    """Canonicalize the splitters, then verify them; NotASplitting if they fail."""
    return SplittingCertificate(G, M, canonical_splitters(G, splitters))


def trivial_certificate(k: int, which: str = ORDER_K_PLUS_1) -> SplittingCertificate:
    """The two canonical splittings by {1..k}.

    order_k_plus_1 is (Z_{k+1}, {1..k}, {1}); order_2k_plus_1 is
    (Z_{2k+1}, {1..k}, {1, 2k}), whose second splitter covers k+1..2k
    through negation. Both are verified before being returned.
    """
    M = MultiplierSet.interval(k)
    if which == ORDER_K_PLUS_1:
        G = FiniteAbelianGroup.cyclic(k + 1)
        splitters = [(1,)]
    elif which == ORDER_2K_PLUS_1:
        G = FiniteAbelianGroup.cyclic(2 * k + 1)
        splitters = [(1,), (2 * k,)]
    else:
        raise ValueError(f"unknown trivial form {which!r}")
    return make_certificate(G, M, splitters)


def s87_property_check(cert: SplittingCertificate) -> bool:
    """For cyclic groups of odd prime-power order p^t: true iff all multiplier
    residues are coprime to p or all splitters are coprime to p.

    Groups not in cyclic form, and those whose order is not an odd prime
    power, are rejected.
    """
    G = cert.group
    if len(G.factors) != 1:
        raise ValueError(f"{G} is not in cyclic form")
    fac = G.order_factorization
    if len(fac) != 1 or fac[0][0] == 2:
        raise ValueError(f"group order {G.factors[0]} is not an odd prime power")
    # p divides n, so v mod p is the residue of v mod n, mod p; and a prime
    # divides a product exactly when it divides one of its factors
    p = fac[0][0]
    return bool(prod(cert.multipliers.values) % p or prod(map(itemgetter(0), cert.splitters)) % p)
