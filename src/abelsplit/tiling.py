"""Limited-magnitude error balls, kernel lattices of splittings, and
verification of the induced lattice tilings of Z^n.

A splitting of Z_N by {1..k} with splitters s_1..s_n induces the lattice
L = {x in Z^n : sum x_i s_i = 0 mod N}, and L tiles Z^n by the semi-cross
with arm length k exactly when the weight map is a bijection from the shape
onto Z_N. Bases are kept in a fixed column Hermite normal form so equal
lattices serialize identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod
from typing import Sequence

from .splitting import SplittingCertificate

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]  # row-major; basis vectors are the columns


@dataclass(frozen=True)
class ErrorBallShape:
    """Integer vectors with entries in [-k_minus, k_plus] and bounded support."""

    dimension: int
    weight_limit: int
    k_plus: int
    k_minus: int
    points: tuple[Vector, ...]


def error_ball(n: int, t: int, k_plus: int, k_minus: int) -> ErrorBallShape:
    """The shape of all length-n vectors with entries in [-k_minus, k_plus]
    and at most t nonzero coordinates, sorted lexicographically."""
    if not n >= t >= 1:
        raise ValueError(f"need n >= t >= 1, got n={n}, t={t}")
    if not k_plus >= k_minus >= 0:
        raise ValueError(f"need k_plus >= k_minus >= 0, got {k_plus}, {k_minus}")
    values = [v for v in range(-k_minus, k_plus + 1) if v != 0]
    points = []
    for weight in range(t + 1):
        for support in combinations(range(n), weight):
            for assign in product(values, repeat=weight):
                vec = [0] * n
                for i, v in zip(support, assign):
                    vec[i] = v
                points.append(tuple(vec))
    points.sort()
    expected = sum(comb(n, j) * (k_plus + k_minus) ** j for j in range(t + 1))
    assert len(points) == expected
    return ErrorBallShape(n, t, k_plus, k_minus, tuple(points))


def semi_cross(n: int, k: int) -> ErrorBallShape:
    """Origin plus arms 1..k along each positive axis; n*k + 1 cells.

    n = 1 gives the degenerate segment {0..k}, the shape matching a
    one-splitter certificate.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    return error_ball(n, 1, k, 0)


@dataclass(frozen=True)
class LatticeHom:
    """The weight map x -> sum(x_i * w_i) mod N from Z^n onto Z_N."""

    modulus: int
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))

    def apply(self, point: Sequence[int]) -> int:
        return sum(c * w for c, w in zip(point, self.weights)) % self.modulus


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with g = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def column_hnf(columns: Sequence[Sequence[int]]) -> Matrix:
    """Hermite normal form (column style) of the lattice the columns span.

    The result is upper triangular with positive diagonal, and each entry
    right of the diagonal is reduced modulo the diagonal entry of its row.
    Requires the columns to span a full-rank lattice.
    """
    if not columns:
        raise ValueError("no columns")
    n = len(columns[0])
    cols = [list(c) for c in columns]
    if any(len(c) != n for c in cols):
        raise ValueError("ragged columns")

    pivots: list[list[int]] = []
    work = cols
    for row in range(n - 1, -1, -1):
        piv = None
        rest = []
        for col in work:
            if col[row] == 0:
                rest.append(col)
            elif piv is None:
                piv = col
            else:
                g, x, y = _xgcd(piv[row], col[row])
                a, b = piv[row] // g, col[row] // g
                for r in range(n):
                    pr, cr = piv[r], col[r]
                    piv[r] = x * pr + y * cr
                    col[r] = -b * pr + a * cr
                rest.append(col)
        if piv is None:
            raise ValueError("columns do not span a full-rank lattice")
        if piv[row] < 0:
            piv = [-v for v in piv]
        pivots.append(piv)
        work = rest
    pivots.reverse()  # pivots[i] now has its last nonzero entry in row i

    for j in range(n):
        for i in range(j - 1, -1, -1):
            q = pivots[j][i] // pivots[i][i]
            if q:
                for r in range(i + 1):
                    pivots[j][r] -= q * pivots[i][r]
    return tuple(tuple(pivots[j][r] for j in range(n)) for r in range(n))


@dataclass(frozen=True)
class IntegerLattice:
    """Full-rank sublattice of Z^n held as a column-HNF basis matrix."""

    basis: Matrix

    def __post_init__(self) -> None:
        basis = tuple(tuple(int(v) for v in row) for row in self.basis)
        n = len(basis)
        if any(len(row) != n for row in basis):
            raise ValueError("basis must be square")
        for i in range(n):
            if basis[i][i] <= 0:
                raise ValueError("diagonal entries must be positive")
            for j in range(n):
                if j < i and basis[i][j] != 0:
                    raise ValueError("basis must be upper triangular")
                if j > i and not 0 <= basis[i][j] < basis[i][i]:
                    raise ValueError("entries right of the diagonal must be reduced")
        object.__setattr__(self, "basis", basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def index(self) -> int:
        return prod(self.basis[i][i] for i in range(self.dimension))

    def contains(self, vector: Sequence[int]) -> bool:
        """Membership by reducing against the triangular basis."""
        v = list(vector)
        if len(v) != self.dimension:
            raise ValueError("dimension mismatch")
        for i in range(self.dimension - 1, -1, -1):
            d = self.basis[i][i]
            if v[i] % d:
                return False
            q = v[i] // d
            if q:
                for r in range(i + 1):
                    v[r] -= q * self.basis[r][i]
        return not any(v)


def kernel_lattice(hom: LatticeHom) -> IntegerLattice:
    """HNF basis of {x in Z^n : sum x_i w_i = 0 mod N}.

    Appends the modulus as an auxiliary coordinate, computes the integer
    kernel of the single relation row with unimodular column operations,
    and drops the auxiliary coordinate; the projection is injective on the
    kernel, so the n resulting columns generate the lattice exactly.
    """
    n = len(hom.weights)
    m = n + 1
    vals = list(hom.weights) + [hom.modulus]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for j in range(1, m):
        if vals[j] == 0:
            continue
        g, x, y = _xgcd(vals[0], vals[j])
        a, b = vals[0] // g, vals[j] // g
        for r in range(m):
            u0, uj = u[r][0], u[r][j]
            u[r][0] = x * u0 + y * uj
            u[r][j] = -b * u0 + a * uj
        vals[0], vals[j] = g, 0
    kernel_cols = [[u[r][j] for r in range(n)] for j in range(1, m)]
    return IntegerLattice(column_hnf(kernel_cols))


def lattice_from_splitting(cert: SplittingCertificate) -> tuple[LatticeHom, IntegerLattice]:
    """Weight map and kernel lattice of a cyclic certificate.

    The splitters become the weights, in ascending order. For a verified
    splitting the map is onto, so the kernel has index N; that is checked
    via the determinant rather than assumed.
    """
    n_order = cert.group.modulus
    weights = tuple(s[0] for s in cert.splitters)
    hom = LatticeHom(n_order, weights)
    lattice = kernel_lattice(hom)
    if lattice.index != n_order:
        raise ArithmeticError(
            f"kernel lattice has index {lattice.index}, expected {n_order}; "
            "the weight map is not onto"
        )
    return hom, lattice


@dataclass(frozen=True)
class TilingCertificate:
    shape: ErrorBallShape
    hom: LatticeHom | None
    verdict: bool


def verify_lattice_tiling(shape: ErrorBallShape, hom: LatticeHom) -> TilingCertificate:
    """Tiling criterion for a kernel lattice given by its weight map.

    The translates of the shape by ker(hom) tile Z^n exactly when hom maps
    the shape's points bijectively onto Z_N, which costs one evaluation per
    point.
    """
    if shape.dimension != len(hom.weights):
        raise ValueError(
            f"shape dimension {shape.dimension} != weight count {len(hom.weights)}"
        )
    images = {hom.apply(p) for p in shape.points}
    verdict = len(images) == len(shape.points) == hom.modulus
    return TilingCertificate(shape, hom, verdict)


def export_translates(
    lattice: IntegerLattice,
    shape: ErrorBallShape,
    box: Sequence[tuple[int, int]],
) -> list[tuple[Vector, tuple[Vector, ...]]]:
    """Lattice translates of the shape that meet an inclusive integer box.

    Returns (anchor, cells) pairs in ascending anchor order, each translate
    carrying its full cell set. Every cell of the box must be covered by
    exactly one translate; double cover or a gap raises ValueError, so a
    successful export doubles as a finite tiling check over the box.
    """
    n = lattice.dimension
    if shape.dimension != n or len(box) != n:
        raise ValueError("box, shape, and lattice dimensions must agree")
    if any(lo > hi for lo, hi in box):
        return []
    offset_min = [min(p[i] for p in shape.points) for i in range(n)]
    offset_max = [max(p[i] for p in shape.points) for i in range(n)]
    ranges = [
        range(box[i][0] - offset_max[i], box[i][1] - offset_min[i] + 1) for i in range(n)
    ]
    out = []
    covered: dict[Vector, Vector] = {}
    for anchor in product(*ranges):
        if not lattice.contains(anchor):
            continue
        cells = tuple(tuple(a + o for a, o in zip(anchor, p)) for p in shape.points)
        inside = [
            c for c in cells if all(lo <= ci <= hi for ci, (lo, hi) in zip(c, box))
        ]
        if not inside:
            continue
        out.append((anchor, cells))
        for cell in inside:
            if cell in covered:
                raise ValueError(f"not a tiling: cell {cell} covered twice")
            covered[cell] = anchor
    if len(covered) != prod(hi - lo + 1 for lo, hi in box):
        raise ValueError("not a tiling: box has uncovered cells")
    return out
