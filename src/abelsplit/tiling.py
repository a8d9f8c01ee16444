"""The semi-cross, kernel lattices of splittings, and verification of the
induced lattice tilings of Z^n.

A splitting of Z_N by {1..k} with splitters s_1..s_n induces the lattice
L = {x in Z^n : sum x_i s_i = 0 mod N}, and L tiles Z^n by the semi-cross
with arm length k exactly when the weight map is a bijection from the shape
onto Z_N. The semi-cross is the one shape: ErrorBallShape(n, k) is built
from its dimension and arm length alone, and semi_cross(n, k) is the same
shape under the paper's name. Bases are kept in column Hermite normal
form, which is unique, so equal lattices serialize identically.

A tiling export over a box keeps one tuple per translate, its anchor:
export_translates returns a TranslateView, an iterable with len that
builds each translate's cells from its anchor as it is iterated, so its
memory follows the anchor count; the export reader's rows are one pass
over such a view. It also keeps one int per coordinate value: the anchors
take their coordinates from one list of ints per axis (or, read back, from
the reader's interning table), and a view takes the arm coordinates of the
cells it builds from one table, keyed by value, so it grows with the
distinct values met, never with a span the input controls.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import prod

from .record import Record
from .splitting import SplittingCertificate

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]  # row-major; basis vectors are the columns


class ErrorBallShape(Record):
    """The semi-cross of arm k_plus in Z^dimension: the origin plus j*e_i
    for 1 <= j <= k_plus along each axis i, dimension*k_plus + 1 points,
    sorted lexicographically. Both parameters must be at least 1.

    dimension = 1 gives the degenerate segment {0..k_plus}, the shape
    matching a one-splitter certificate. _arms holds, per point, (axis,
    offset) of its one nonzero coordinate, and (0, 0) for the origin.
    """

    __slots__ = ("dimension", "k_plus", "points", "_arms")

    def __init__(self, dimension: int, k_plus: int) -> None:
        n, k = dimension, k_plus
        if n < 1 or k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
        # the origin, then each axis's arm from the last axis down, sorts the points
        arms = ((0, 0),) + tuple((i, o) for i in range(n - 1, -1, -1) for o in range(1, k + 1))
        origin = (0,) * n
        self._fill(n, k, tuple(origin[:i] + (o,) + origin[i + 1:] for i, o in arms), arms)

    def at(self, anchor: Sequence[int], coords: dict[int, int] | None = None) -> tuple[Vector, ...]:
        """The cells of the translate anchored at anchor.

        A cell on an arm is the anchor with one coordinate replaced, and
        the origin's cell is the anchor tuple itself, so every other
        coordinate reuses the anchor's int rather than a new sum. The
        replaced coordinate is taken from coords, a table of ints keyed by
        value, and added to it when new: a TranslateView passes its one
        table, so the cells of all its translates share one int per
        coordinate value, even beyond CPython's small-int cache. Without a
        table the cells of this one translate share theirs.
        """
        if len(anchor) != self.dimension:
            raise ValueError(f"anchor {tuple(anchor)} does not have dimension {self.dimension}")
        anchor = tuple(anchor)
        share = ({} if coords is None else coords).setdefault
        cells = []
        for i, o in self._arms:
            if o:
                c = anchor[i] + o
                cells.append(anchor[:i] + (share(c, c),) + anchor[i + 1:])
            else:
                cells.append(anchor)
        return tuple(cells)


def semi_cross(n: int, k: int) -> ErrorBallShape:
    """The semi-cross of arm k in Z^n under the paper's name: ErrorBallShape(n, k)."""
    return ErrorBallShape(n, k)


class LatticeHom(Record):
    """The weight map x -> sum(x_i * w_i) mod N from Z^n onto Z_N."""

    __slots__ = ("modulus", "weights")

    def __init__(self, modulus: int, weights: tuple[int, ...]) -> None:
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        self._fill(modulus, tuple(int(w) for w in weights))

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


class IntegerLattice(Record):
    """Full-rank sublattice of Z^n held as a column-HNF basis matrix."""

    __slots__ = ("basis",)

    def __init__(self, basis: Matrix) -> None:
        basis = tuple(tuple(int(v) for v in row) for row in basis)
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
        self._fill(basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def index(self) -> int:
        return prod(self.basis[i][i] for i in range(self.dimension))

    def points_in(self, ranges: Sequence[range]) -> list[Vector]:
        """Lattice points of a box given as one unit-step range per axis, ascending.

        The basis is upper triangular, so the coefficients of the columns
        after i fix every coordinate after i, and coordinate i then runs
        through one residue class modulo the diagonal entry d_i: only
        lattice points are visited. Coordinate i is read from one list of
        the axis's ints, as a slice of that class, so the points share one
        int per coordinate value.
        """
        basis, out = self.basis, []
        axes = [list(r) for r in ranges]

        def walk(i: int, v: list[int]) -> None:
            if i < 0:
                out.append(tuple(v))
                return
            d = basis[i][i]
            for x in axes[i][(v[i] - ranges[i].start) % d::d]:
                q = (x - v[i]) // d
                walk(i - 1, [v[j] + q * basis[j][i] for j in range(i)] + [x] + v[i + 1:])

        walk(self.dimension - 1, [0] * self.dimension)
        out.sort()
        return out


def kernel_lattice(hom: LatticeHom) -> IntegerLattice:
    """HNF basis of {x in Z^n : sum x_i w_i = 0 mod N}, built in one pass.

    With g_j = gcd(N, w_0..w_j) and g_{-1} = N, column j is a kernel vector
    supported on coordinates 0..j with the least positive last entry, its
    diagonal entry g_{j-1} / g_j. The pass keeps coefficients coef with
    g_{j-1} = sum coef_i w_i (mod N), so -(w_j / g_j) * coef fills the
    entries above the diagonal, which are then reduced against the earlier
    columns.
    """
    n, modulus = len(hom.weights), hom.modulus
    cols: list[list[int]] = []
    g, coef = modulus, [0] * n
    for j, w in enumerate(hom.weights):
        h, x, y = _xgcd(g, w)
        col = [-(w // h) * c for c in coef[:j]] + [g // h] + [0] * (n - j - 1)
        for i in range(j - 1, -1, -1):
            q = col[i] // cols[i][i]
            if q:
                for r in range(i + 1):
                    col[r] -= q * cols[i][r]
        cols.append(col)
        coef = [x * c % modulus for c in coef]
        coef[j] = y % modulus
        g = h
    return IntegerLattice(tuple(tuple(col[r] for col in cols) for r in range(n)))


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


class TilingCertificate(Record):
    __slots__ = ("verdict",)


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
    return TilingCertificate(verdict)


class TranslateView:
    """export_translates' result: an iterable with len of a pair
    (anchor, shape.at(anchor)) per anchor, in the order of anchors; the
    cells are built as it is iterated, their coordinates taken from the
    view's one table, made on first use from the anchors' values."""

    __slots__ = ("shape", "anchors", "_coords")

    def __init__(self, shape: ErrorBallShape, anchors: Sequence[Vector]) -> None:
        self.shape, self.anchors = shape, tuple(anchors)
        self._coords: dict[int, int] | None = None

    def __len__(self) -> int:
        return len(self.anchors)

    def __iter__(self) -> Iterator[tuple[Vector, tuple[Vector, ...]]]:
        if self._coords is None:
            self._coords = {c: c for anchor in self.anchors for c in anchor}
        for anchor in self.anchors:
            yield anchor, self.shape.at(anchor, self._coords)


def export_translates(
    lattice: IntegerLattice,
    shape: ErrorBallShape,
    box: Sequence[tuple[int, int]],
) -> TranslateView:
    """Lattice translates of the shape that meet an inclusive integer box.

    Returns a view of (anchor, cells) pairs in ascending anchor order, with
    cells = shape.at(anchor); it holds the anchors alone and builds each
    translate's cells as it is iterated. Every cell of the box must be covered by
    exactly one translate; double cover or a gap raises ValueError, so a
    successful export doubles as a finite tiling check over the box.
    Coverage is one byte per box cell, indexed row-major. A translate
    inside the box is marked through the shape's fixed offsets from its
    anchor's index without building its cells; only a translate that
    crosses the box boundary, and the cell named in a double-cover error,
    are built as tuples.
    """
    n = lattice.dimension
    if shape.dimension != n or len(box) != n:
        raise ValueError("box, shape, and lattice dimensions must agree")
    if any(lo > hi for lo, hi in box):
        return TranslateView(shape, ())
    k = shape.k_plus  # each axis's extent runs from 0 to k_plus
    ranges = [range(lo - k, hi + 1) for lo, hi in box]
    covered = bytearray(prod(hi - lo + 1 for lo, hi in box))
    stride, bounds = len(covered), []
    for lo, hi in box:
        stride //= hi - lo + 1
        bounds.append((lo, hi, stride))
    linear = [sum(c * s for c, (_, _, s) in zip(p, bounds)) for p in shape.points]
    anchors = []
    for anchor in lattice.points_in(ranges):
        # an anchor in the box shrunk by the shape's extent has its whole
        # translate inside, so its cells sit at fixed offsets from its index
        base = 0
        for a, (lo, hi, stride) in zip(anchor, bounds):
            if not lo <= a <= hi - k:
                break
            base += (a - lo) * stride
        else:
            for point, offset in enumerate(linear):
                if covered[base + offset]:
                    raise ValueError(f"not a tiling: cell {shape.at(anchor)[point]} covered twice")
                covered[base + offset] = 1
            anchors.append(anchor)
            continue
        meets = False
        for cell in shape.at(anchor):
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
            anchors.append(anchor)
    if 0 in covered:
        raise ValueError("not a tiling: box has uncovered cells")
    return TranslateView(shape, anchors)
