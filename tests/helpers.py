"""Independent oracles shared across test modules.

These deliberately avoid the library's bitset search and closed forms:
the splitting oracle works on plain frozensets with no deduplication or
statistics, the coprime counter and the stratification walk every element
where the library counts in closed form, the counting sieve's oracle solves
the whole strata system in Fractions from those walked counts where the
library solves it top down in ints, and the SNF tiling check
diagonalizes a lattice basis where the library evaluates a weight map.
The element-wise verifier reduces, sorts and checks splitters one tuple
product at a time, the way verification worked before it accepted a
splitting in one pass over all products.
The eager row builder builds every splitter's orbit up front, where the
library builds only the orbits that hold the residue it branches on.
The all-splittings oracle tries every multiplier set against every
splitter set with plain sets, where the library solves one side as exact
cover once per unit orbit of the other.
The one exception, the natural-order search, runs the library's row
source and engine on purpose: it checks the branch order and the rule
fixing 1 in S, so it lays bit x out for residue x, keeps its own
deduplication by orbit, and drops those two.
The document oracle is the json.dumps call that certio's hand-written
writer replaces, the record document oracle builds a scan record's
document from its fields as README describes it and classifies a
violation's certificate by trial division where certio calls the library's
classifier, and the tiling export oracle is the reader that splits
the text into lines and compares it with a second, rebuilt text, where
certio checks it block by block in place.
The k = 2 oracle walks the cycles of doubling on Z_N, where the library
searches for a splitter set.
The candidate oracle tries every N = n*k + 1 by trial division, where the
library reads one table of largest prime factors built for the whole scan.
The digit-pattern oracle reads k's digit tuple where the library tests
two congruences; the counting-identity oracle takes one valuation per
residue and stratum where the library tallies gcds once; the s87 oracle
tests every residue where the library reduces two products; and the
export oracle bounds-checks every cell of every translate into a set where
the library marks whole interior translates at precomputed offsets. The
list-building export builds every translate's cells and keeps them in a
list of pairs, where the library keeps only anchors behind a view.
Agreement between the two routes is the point.

Apart from the oracles, CommandRunner runs a command line function in this
process and records what it wrote and how it exited, and tw_passed reads
a coset-packing report's checks as one verdict.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import prod

from abelsplit.certio import DocumentError, tiling_export_text
from abelsplit.counting import KDecomposition, StratificationProfile, TwReport
from abelsplit.groups import FiniteAbelianGroup, is_prime, p_adic_valuation
from abelsplit.scan import CandidateOrder, Counting, candidate_order
from abelsplit.search import SearchConfig, _Budget, _exact_covers, _row_source
from abelsplit.splitting import MultiplierSet, SplittingCertificate, VerificationReport
from abelsplit.tiling import (
    ErrorBallShape,
    IntegerLattice,
    LatticeHom,
    Matrix,
    TilingCertificate,
    TranslateView,
    _xgcd,
    kernel_lattice,
    semi_cross,
)


# sha256 of the canonical scan(1, 30) report text
DESK_SCAN_SHA256 = "e4d9423a4f853b6069f053ee9204429ff8066b62299c1c3582163b8ea38b402d"

# JSON texts that json.loads itself rejects with something other than a
# JSONDecodeError: a RecursionError, and a ValueError from the int digit limit
DEEP_TEXT = '{"a": ' + "[" * 10_000 + "]" * 10_000 + "}"
LONG_INT_TEXT = '{"format_version": 4, "group_factors": [' + "7" * 5_000 + "]}"

# sha256 digest of the benchmark's `checks` body output (tiles.txt and its
# check reports), by the seed of its inputs
CHECKS_SHA256 = {
    1: "48023a674e19aa6e2b9c27c949615c6baf61af1c98f2a5e0fc426361dd2bded9",
    2: "2d4d9af7c429219d22321b1a334c82c3a816323622ea821f2b1230697e85452a",
}


class _Copying(io.StringIO):
    """A captured stream that also writes each piece to copy, so that the
    pieces of stdout and stderr interleave there in write order."""

    def __init__(self, copy: io.StringIO):
        super().__init__()
        self.copy = copy

    def write(self, text: str) -> int:
        self.copy.write(text)
        return super().write(text)


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in write order
    exception: SystemExit | None  # the SystemExit of a nonzero exit


class CommandRunner:
    def invoke(self, main, args) -> CommandResult:
        """Run main(args) with stdout and stderr captured."""
        output = io.StringIO()
        stdout, stderr = _Copying(output), _Copying(output)
        code, exception = 0, None
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                main(args)
            except SystemExit as exc:
                code = exc.code or 0
                exception = exc if code else None
        return CommandResult(code, stdout.getvalue(), stderr.getvalue(), output.getvalue(),
                             exception)


def tw_passed(report: TwReport) -> bool:
    """Whether every check of a tw_disjointness_check report holds."""
    return (
        report.hypothesis_ok
        and report.pairwise_disjoint
        and report.within_units
        and report.scaling_consistent
        and report.formula_consistent
        and report.equality_chain
    )


def canonical_json(doc) -> str:
    """The canonical document text, from json.dumps itself."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def naive_splitting_exists(n: int, k: int) -> bool:
    """Brute-force existence of S with {1..k} * S = Z_n minus 0.

    Recursive set cover over candidate splitters: for the smallest missing
    residue, try every candidate orbit containing it, splitters ascending.
    """
    universe = frozenset(range(1, n))
    orbits = {}
    for s in range(1, n):
        products = [m * s % n for m in range(1, k + 1)]
        pts = frozenset(products)
        if 0 in pts or len(pts) != k:
            continue
        orbits[s] = pts

    def extend(covered: frozenset) -> bool:
        if covered == universe:
            return True
        target = min(universe - covered)
        for s in sorted(orbits):
            pts = orbits[s]
            if target in pts and not pts & covered:
                if extend(covered | pts):
                    return True
        return False

    return extend(frozenset())


def splits_by_doubling_cycles(n: int) -> bool:
    """Whether {1, 2} splits Z_n, with no search: exactly when n is odd and
    every cycle of x -> 2x on the nonzero residues has even length, so that
    every other residue of each cycle is a splitter."""
    if n % 2 == 0:
        return False
    seen = set()
    for x in range(1, n):
        y, length = x, 0
        while y not in seen:
            seen.add(y)
            y, length = 2 * y % n, length + 1
        if length % 2:
            return False
    return True


def all_splittings_by_subsets(n: int, size: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (M, S) with |M| = size and M*S = Z_n minus 0, sorted by (M, S).

    M and S range over all subsets of 1..n-1 of sizes size and (n-1)/size;
    a pair splits when its products are exactly the nonzero residues, which
    with |M|*|S| = n-1 products means each one once.
    """
    nonzero = set(range(1, n))
    return [
        (M, S)
        for M in combinations(range(1, n), size)
        for S in combinations(range(1, n), (n - 1) // size)
        if {m * s % n for m in M for s in S} == nonzero
    ]


def eager_orbit_rows(n: int, residues, bit) -> list[tuple[int, int]]:
    """Every clean orbit row (s, mask) for s = 1..n-1, ascending s.

    The mask of s is the OR of bit[m*s mod n] over m in residues; bit[0]
    must be 0. A splitter whose orbit hits 0 or repeats a residue gets no
    row.
    """
    rows = []
    for s in range(1, n):
        mask = 0
        for m in residues:
            b = bit[m * s % n]
            if not b or mask & b:  # the orbit hits 0, or repeats
                break
            mask |= b
        else:
            rows.append((s, mask))
    return rows


def rows_by_lowest_bit(rows):
    """rows_at for the engine over a fixed row list: rows_at(b) is the rows
    whose lowest bit is b, in list order."""
    return lambda b: [row for row in rows if (row[1] & -row[1]) >> b == 1]


def natural_order_search(n: int, k: int) -> tuple[int, ...] | None:
    """The first splitter set for {1..k} in natural order, or None when the
    tree is exhausted.

    Bit x is residue x, so the engine branches on the smallest uncovered
    residue, and every clean orbit class is a row: no rule fixes 1 in S.
    """
    residues = [m % n for m in range(1, k + 1)]
    budget = _Budget(SearchConfig(time_limit_s=None), 0.0)
    source = _row_source(n, residues, range(n), budget)

    def rows_at(b):
        seen, rows = set(), []
        for s, mask in source(b):
            if mask not in seen:
                seen.add(mask)
                rows.append((s, mask))
        return rows

    return next(_exact_covers(n, rows_at, budget), None)


def verify_splitting_by_elements(
    G: FiniteAbelianGroup, M: MultiplierSet, splitters
) -> VerificationReport:
    """verify_splitting, one element tuple at a time.

    Splitters are reduced coordinate-wise (ValueError on a wrong coordinate
    count or on duplicates after reduction) and sorted; then every product
    m*s is built through G.scalar_mul, splitter-major, multiplier-minor,
    and the first zero or repeated product is reported.
    """
    elems = []
    for e in splitters:
        coords = tuple(int(c) for c in e)
        if len(coords) != len(G.factors):
            raise ValueError(f"expected {len(G.factors)} coordinates, got {len(coords)}")
        elems.append(tuple(c % d for c, d in zip(coords, G.factors)))
    S = tuple(sorted(set(elems)))
    if len(S) != len(elems):
        raise ValueError("duplicate splitters")
    if len(M) * len(S) != G.order - 1:
        return VerificationReport("count_mismatch")
    zero = G.identity()
    seen = {}
    for s in S:
        for m in M:
            x = G.scalar_mul(m, s)
            if x == zero:
                return VerificationReport("zero_hit", element=x, first=(m, s))
            prev = seen.get(x)
            if prev is not None:
                return VerificationReport("collision", element=x, first=prev, second=(m, s))
            seen[x] = (m, s)
    return VerificationReport()


def coprime_count_by_enumeration(limit: int, primes: list[int]) -> int:
    """#{x in [1, limit] : no q in primes divides x}, by walking the interval."""
    return sum(1 for x in range(1, limit + 1) if all(x % q for q in primes))


def element_strata_by_enumeration(G: FiniteAbelianGroup, p: int) -> tuple[int, ...]:
    """Element counts by p-valuation of element order, by walking every
    element of the group."""
    alpha = p_adic_valuation(G.order, p)
    g_counts = [0] * (alpha + 1)
    for g in product(*(range(d) for d in G.factors)):
        g_counts[p_adic_valuation(G.element_order(g), p)] += 1
    return tuple(g_counts)


def stratify_by_enumeration(cert: SplittingCertificate, p: int) -> StratificationProfile:
    """Element and splitter counts by p-valuation of element order, by
    walking every element of the group."""
    G = cert.group
    g_counts = element_strata_by_enumeration(G, p)
    s_counts = [0] * len(g_counts)
    for s in cert.splitters:
        s_counts[p_adic_valuation(G.element_order(s), p)] += 1
    return StratificationProfile(p, len(g_counts) - 1, g_counts, tuple(s_counts))


def base_p_digits(k: int, p: int) -> tuple[int, ...]:
    """Little-endian base-p digits; empty for zero, no trailing zero digit."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    digits = []
    while k:
        k, b = divmod(k, p)
        digits.append(b)
    return tuple(digits)


def digit_pattern_by_digits(dec: KDecomposition) -> bool:
    """The digit pattern of dec.k read from its digit tuple: digits
    b_0..b_beta that k has all agree, and digit beta + 1, when k has it,
    differs from digit beta."""
    digits = base_p_digits(dec.k, dec.p)
    beta = dec.beta
    if any(b != digits[0] for b in digits[1 : beta + 1]):
        return False
    if len(digits) > beta + 1 and digits[beta + 1] == digits[beta]:
        return False
    return True


def counting_identity_by_valuations(cert: SplittingCertificate, p: int, i: int) -> bool:
    """The stratum-i counting identity, counting for each stratum j >= i
    the multiplier residues of p-valuation j - i one valuation at a time."""
    n = cert.group.modulus
    profile = stratify_by_enumeration(cert, p)
    residues = cert.multipliers.residues(n)
    lhs = 0
    for j in range(i, profile.alpha + 1):
        count = sum(1 for r in residues if p_adic_valuation(r, p) == j - i)
        lhs += count * profile.s_counts[j]
    return lhs == profile.g_counts[i]


def s87_by_residues(cert: SplittingCertificate) -> bool:
    """The s87 property of a certificate of Z_(p**t), p the group order's
    one prime: every multiplier, or every splitter, is prime to p."""
    (p, _), = cert.group.order_factorization
    return all(v % p for v in cert.multipliers.values) or all(s % p for (s,) in cert.splitters)


def _solve_by_fractions(a: list[list[int]], b: list[int]) -> list[Fraction]:
    """x with a x = b for a square nonsingular a, by Gauss-Jordan
    elimination in Fractions."""
    n = len(a)
    rows = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def counting_witness_by_fractions(k: int, order: int) -> tuple[int, int] | None:
    """counting_witness, from the whole strata system solved in Fractions.

    Element counts come from walking Z_order, and multiplier counts from
    walking 1..k. For each prime p of order, ascending, the unknowns are
    |S_0|..|S_alpha|: stratum i >= 1 gives the row
    #{r : v_p(r) = j - i} for each j >= i, with |G_i| on the right, and the
    nonzero elements of stratum 0 the row #{r : v_p(r) >= j} for every j,
    with |G_0| - 1. The first (p, j), strata from the top, whose solution
    is negative or not an integer is returned.
    """
    G = FiniteAbelianGroup.cyclic(order)
    for p in sorted(q for q in range(2, order + 1) if order % q == 0 and is_prime(q)):
        g_counts = element_strata_by_enumeration(G, p)
        alpha = len(g_counts) - 1
        vals = [p_adic_valuation(r, p) for r in range(1, k + 1)]
        a = [[sum(1 for v in vals if v >= j) for j in range(alpha + 1)]]
        b = [g_counts[0] - 1]
        for i in range(1, alpha + 1):
            a.append([sum(1 for v in vals if v == j - i) if j >= i else 0
                      for j in range(alpha + 1)])
            b.append(g_counts[i])
        x = _solve_by_fractions(a, b)
        for j in range(alpha, -1, -1):
            if x[j] < 0 or x[j].denominator != 1:
                return p, j
    return None


def candidates_by_trial_division(k: int, n_max: int) -> list[CandidateOrder]:
    """The candidate orders N = n*k + 1, n <= n_max, each factored by
    trial division on its own."""
    return [c for n in range(1, n_max + 1) if (c := candidate_order(k, n)) is not None]


def smallest_prime_factor_sieve(limit: int) -> list[int]:
    spf = list(range(limit + 1))
    i = 2
    while i * i <= limit:
        if spf[i] == i:
            for j in range(i * i, limit + 1, i):
                if spf[j] == j:
                    spf[j] = i
        i += 1
    return spf


def factor_with_sieve(n: int, spf: list[int]) -> list[tuple[int, int]]:
    out = []
    while n > 1:
        q = spf[n]
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        out.append((q, e))
    return out


def _diagonalize(matrix: Matrix) -> tuple[list[list[int]], list[int]]:
    """U*A*V = diag for unimodular U, V; returns (U, positive diagonal).

    V is not tracked: column operations do not change the column lattice,
    and only U is needed to map points into the quotient.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(n):
        while True:
            piv = next(
                ((i, j) for i in range(t, n) for j in range(t, n) if a[i][j]), None
            )
            if piv is None:
                break
            i0, j0 = piv
            if i0 != t:
                a[t], a[i0] = a[i0], a[t]
                u[t], u[i0] = u[i0], u[t]
            if j0 != t:
                for row in a:
                    row[t], row[j0] = row[j0], row[t]
            for i in range(t + 1, n):
                if a[i][t]:
                    g, x, y = _xgcd(a[t][t], a[i][t])
                    p_, q_ = a[t][t] // g, a[i][t] // g
                    for c in range(n):
                        at, ai = a[t][c], a[i][c]
                        a[t][c] = x * at + y * ai
                        a[i][c] = -q_ * at + p_ * ai
                    for c in range(n):
                        ut, ui = u[t][c], u[i][c]
                        u[t][c] = x * ut + y * ui
                        u[i][c] = -q_ * ut + p_ * ui
            for j in range(t + 1, n):
                if a[t][j]:
                    g, x, y = _xgcd(a[t][t], a[t][j])
                    p_, q_ = a[t][t] // g, a[t][j] // g
                    for r in range(n):
                        rt, rj = a[r][t], a[r][j]
                        a[r][t] = x * rt + y * rj
                        a[r][j] = -q_ * rt + p_ * rj
            if all(a[i][t] == 0 for i in range(t + 1, n)) and all(
                a[t][j] == 0 for j in range(t + 1, n)
            ):
                break
    diag = [abs(a[i][i]) for i in range(n)]
    if any(d == 0 for d in diag):
        raise ValueError("basis is singular")
    return u, diag


def verify_tiling_by_basis(
    shape: ErrorBallShape, lattice: IntegerLattice
) -> TilingCertificate:
    """Tiling check for a lattice given only by a basis (no weight map).

    Diagonalizes the basis (Smith-style) to realize the quotient group as a
    product of cyclic factors, maps each shape point through it, and demands
    a bijection onto the whole quotient.
    """
    n = lattice.dimension
    if shape.dimension != n:
        raise ValueError(f"shape dimension {shape.dimension} != lattice dimension {n}")
    u, diag = _diagonalize(lattice.basis)
    seen = set()
    for point in shape.points:
        image = tuple(
            sum(u[i][j] * point[j] for j in range(n)) % diag[i] for i in range(n)
        )
        seen.add(image)
    verdict = len(seen) == len(shape.points) == lattice.index
    return TilingCertificate(verdict)


def semi_cross_by_sorting(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The points of the semi-cross: the origin plus every j*e_i, 1 <= j <= k,
    sorted lexicographically."""
    origin = (0,) * n
    arms = [origin[:i] + (j,) + origin[i + 1:] for i in range(n) for j in range(1, k + 1)]
    return tuple(sorted([origin] + arms))


def cells_by_coordinates(shape: ErrorBallShape, anchor) -> tuple[tuple[int, ...], ...]:
    """The cells of the translate at anchor, one coordinate sum at a time;
    a zero offset keeps the anchor's int."""
    return tuple(tuple(a + o if o else a for a, o in zip(anchor, p)) for p in shape.points)


def export_translates_by_cells(lattice: IntegerLattice, shape: ErrorBallShape, box):
    """export_translates with every cell of every translate bounds-checked
    against the box, anchor by anchor in ascending order, and with the same
    errors: the first cell covered a second time, then any uncovered cell."""
    if any(lo > hi for lo, hi in box):
        return []
    ranges = [
        range(lo - max(p[i] for p in shape.points), hi - min(p[i] for p in shape.points) + 1)
        for i, (lo, hi) in enumerate(box)
    ]
    covered, out = set(), []
    for anchor in lattice.points_in(ranges):
        cells = cells_by_coordinates(shape, anchor)
        inside = [c for c in cells if all(lo <= x <= hi for x, (lo, hi) in zip(c, box))]
        for cell in inside:
            if cell in covered:
                raise ValueError(f"not a tiling: cell {cell} covered twice")
            covered.add(cell)
        if inside:
            out.append((anchor, cells))
    if len(covered) != prod(hi - lo + 1 for lo, hi in box):
        raise ValueError("not a tiling: box has uncovered cells")
    return out


def translates_by_cells(lattice: IntegerLattice, shape: ErrorBallShape, box):
    """export_translates as a list of (anchor, cells) pairs, every translate
    built: the same pass over one coverage byte per box cell, interior
    translates marked at fixed offsets, but each translate's cells made
    through shape.at and kept."""
    n = lattice.dimension
    if shape.dimension != n or len(box) != n:
        raise ValueError("box, shape, and lattice dimensions must agree")
    if any(lo > hi for lo, hi in box):
        return []
    k = shape.k_plus
    ranges = [range(lo - k, hi + 1) for lo, hi in box]
    covered = bytearray(prod(hi - lo + 1 for lo, hi in box))
    stride, bounds = len(covered), []
    for lo, hi in box:
        stride //= hi - lo + 1
        bounds.append((lo, hi, stride))
    linear = [sum(c * s for c, (_, _, s) in zip(p, bounds)) for p in shape.points]
    out = []
    for anchor in lattice.points_in(ranges):
        cells = shape.at(anchor)
        base = 0
        for a, (lo, hi, stride) in zip(anchor, bounds):
            if not lo <= a <= hi - k:
                break
            base += (a - lo) * stride
        else:
            for cell, offset in zip(cells, linear):
                if covered[base + offset]:
                    raise ValueError(f"not a tiling: cell {cell} covered twice")
                covered[base + offset] = 1
            out.append((anchor, cells))
            continue
        meets = False
        for cell in cells:
            index = 0
            for c, (lo, hi, stride) in zip(cell, bounds):
                if not lo <= c <= hi:
                    break
                index += (c - lo) * stride
            else:
                if covered[index]:
                    raise ValueError(f"not a tiling: cell {cell} covered twice")
                covered[index] = 1
                meets = True
        if meets:
            out.append((anchor, cells))
    if 0 in covered:
        raise ValueError("not a tiling: box has uncovered cells")
    return out


def parse_tiling_export_by_lines(text: str):
    """The tiling export reader by whole texts: (header, [(anchor, cell), ...]).

    Splits the text into lines, collects the anchors of every row, rebuilds
    each translate (cutting coordinates to the shorter of anchor and point,
    as zip does) and the whole text, and accepts the text only if the two
    are equal. It trusts the header's sizes, so it is for small texts only.
    """
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise DocumentError("missing tiling export header")
    try:
        header = json.loads(lines[0][2:])
        n = int(header["dimension"])
        shape = semi_cross(n, int(header["k_plus"]))
        hom = LatticeHom(int(header["modulus"]), header["weights"])
        lattice = kernel_lattice(hom)
        anchors = sorted({tuple(int(v) for v in line.split(",")[:n]) for line in lines[2:]})
        if any(hom.apply(anchor) for anchor in anchors):
            raise DocumentError("tiling_export has an anchor outside the lattice")
        translates = [
            (anchor, tuple(tuple(a + o for a, o in zip(anchor, p)) for p in shape.points))
            for anchor in anchors
        ]
        rebuilt = tiling_export_text(shape, lattice, hom, TranslateView(shape, anchors))
    except (KeyError, TypeError, ValueError, RuntimeError) as exc:
        raise DocumentError(f"malformed tiling_export: {exc}") from exc
    if rebuilt != text:
        raise DocumentError("tiling_export differs from what abelsplit writes")
    return header, [(anchor, cell) for anchor, cells in translates for cell in cells]


def record_document_by_hand(record) -> dict:
    """A scan record's document, built from the record's candidate and
    decision as README's File formats section describes it. The verdict
    follows from the decision's result, a found splitting being expected
    at n = 1 and 2 (N = k + 1 and 2k + 1). A violation record embeds its
    certificate, whose classification is worked out here by trial division:
    for each prime p of |G|, the first multiplier that p divides, if any."""
    outcome, n = record.outcome, record.candidate.n
    verdict = {"found": "trivial_expected" if n <= 2 else "CONJECTURE_VIOLATION",
               "exhausted_no_solution": "conjecture_consistent",
               "resource_limit": "inconclusive"}[outcome.result]
    doc = {"k": record.candidate.k, "n": n, "verdict": verdict}
    if isinstance(outcome, Counting):
        doc["route"] = "counting"
        doc["counting"] = {"p": outcome.p, "stratum": outcome.stratum}
    else:
        doc["route"] = "search"
        doc["result"] = outcome.result
        doc["nodes"] = outcome.stats.nodes
        doc["max_depth"] = outcome.stats.max_depth
        doc["splitters"] = None if outcome.splitters is None else list(outcome.splitters)
    if verdict == "CONJECTURE_VIOLATION":
        cert = record.certificate
        order, values = cert.group.order, list(cert.multipliers.values)
        witnesses = [
            [p, next((v for v in values if v % order % p == 0), None)]
            for p in range(2, order + 1) if order % p == 0 and is_prime(p)
        ]
        hits = [m is not None for _, m in witnesses]
        tag = "purely_singular" if all(hits) else "mixed_singular" if any(hits) else "nonsingular"
        multipliers = {"kind": cert.multipliers.kind, "values": values}
        if cert.multipliers.kind == "interval":
            multipliers["k"] = len(values)
        doc["certificate"] = {
            "format_version": 4,
            "kind": "splitting_certificate",
            "group_factors": list(cert.group.factors),
            "multipliers": multipliers,
            "splitters": [list(s) for s in cert.splitters],
            "classification": {"tag": tag, "witnesses": witnesses},
        }
    return doc
