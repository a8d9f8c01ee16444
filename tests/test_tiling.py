import re
from itertools import product
from math import gcd

import pytest
from helpers import (
    cells_by_coordinates, export_translates_by_cells,
    parse_tiling_export_by_lines, semi_cross_by_sorting, translates_by_cells,
    verify_tiling_by_basis,
)
from hypothesis import given
from hypothesis import strategies as st

from abelsplit.certio import parse_tiling_export, tiling_export_text
from abelsplit.groups import FiniteAbelianGroup
from abelsplit.splitting import (
    MultiplierSet, make_certificate, trivial_certificate)
from abelsplit.tiling import (
    ErrorBallShape,
    IntegerLattice,
    LatticeHom,
    export_translates,
    kernel_lattice,
    lattice_from_splitting,
    semi_cross,
    verify_lattice_tiling,
)

Z = FiniteAbelianGroup.cyclic


def test_error_ball_examples():
    shape = semi_cross(2, 2)
    assert shape.points == ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0))
    assert shape.k_plus == 2
    assert set(semi_cross(3, 1).points) == {
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)
    }
    for n in range(1, 5):
        for k in range(1, 6):
            shape, points = ErrorBallShape(n, k), semi_cross_by_sorting(n, k)
            assert len(set(points)) == len(points) == n * k + 1
            assert shape.points == points
            assert shape == semi_cross(n, k) != ErrorBallShape(n, k + 1)
            assert hash(shape) == hash(semi_cross(n, k)) == hash((n, k, points))
            assert repr(shape) == f"ErrorBallShape(dimension={n}, k_plus={k}, points={points!r})"


def test_error_ball_rejects_bad_parameters():
    for n, k in [(0, 1), (1, 0), (-1, 2), (2, -1)]:
        for build in (ErrorBallShape, semi_cross):
            with pytest.raises(ValueError, match="need n >= 1 and k >= 1"):
                build(n, k)


def test_semi_cross_sizes():
    assert len(semi_cross(2, 2).points) == 5
    assert len(semi_cross(4, 1).points) == 5
    assert len(semi_cross(3, 4).points) == 13
    assert len(semi_cross(1, 3).points) == 4  # degenerate segment


def test_lattice_from_splitting_z5():
    cert = make_certificate(Z(5), MultiplierSet.interval(2), [(1,), (4,)])
    hom, lattice = lattice_from_splitting(cert)
    assert hom == LatticeHom(5, (1, 4))
    assert lattice.basis == ((5, 1), (0, 1))
    assert lattice.index == 5


def test_lattice_from_splitting_1dim():
    cert = trivial_certificate(3)
    hom, lattice = lattice_from_splitting(cert)
    assert lattice.basis == ((4,),)
    assert lattice.index == 4


def test_lattice_from_splitting_rejects_non_cyclic():
    g = FiniteAbelianGroup((2, 3))
    cert = make_certificate(g, MultiplierSet.interval(5), [(1, 1)])
    with pytest.raises(ValueError):
        lattice_from_splitting(cert)


def test_integer_lattice_validation():
    with pytest.raises(ValueError):
        IntegerLattice(((5, 7), (0, 1)))  # 7 not reduced mod 5
    with pytest.raises(ValueError):
        IntegerLattice(((5, 1), (1, 1)))  # not upper triangular
    with pytest.raises(ValueError):
        IntegerLattice(((0, 1), (0, 1)))  # nonpositive diagonal
    with pytest.raises(ValueError, match="square"):
        IntegerLattice(((1, 0),))
    with pytest.raises(ValueError, match="modulus"):
        LatticeHom(0, (1,))


@given(st.integers(1, 10**6), st.integers(1, 6), st.data())
def test_column_hnf_matches_kernel(n, dim, data):
    """The kernel basis is the column HNF of the kernel.

    Its columns lie in the kernel and span a sublattice of index
    N / gcd(N, w), which is the kernel's own index, so they span the kernel;
    IntegerLattice accepts only the HNF shape, and the HNF of a lattice is
    unique.
    """
    weights = tuple(data.draw(st.integers(-3 * n, 3 * n)) for _ in range(dim))
    hom = LatticeHom(n, weights)
    lattice = kernel_lattice(hom)
    assert IntegerLattice(lattice.basis) == lattice
    for j in range(dim):
        assert hom.apply([row[j] for row in lattice.basis]) == 0
    assert lattice.index == n // gcd(n, *weights)


@given(st.integers(1, 60), st.integers(1, 4), st.data())
def test_points_in_matches_membership(n, dim, data):
    """Stepping the triangular basis visits exactly the lattice points of the
    box, in ascending order."""
    weights = tuple(data.draw(st.integers(-3 * n, 3 * n)) for _ in range(dim))
    hom = LatticeHom(n, weights)
    lattice = kernel_lattice(hom)
    ranges = []
    for _ in range(dim):
        lo = data.draw(st.integers(-30, 30))
        ranges.append(range(lo, lo + data.draw(st.integers(0, 12 if dim < 4 else 5))))
    assert lattice.points_in(ranges) == [p for p in product(*ranges) if hom.apply(p) == 0]


def test_verify_lattice_tiling_examples():
    shape = semi_cross(2, 2)
    assert verify_lattice_tiling(shape, LatticeHom(5, (1, 4))).verdict is True
    assert verify_lattice_tiling(shape, LatticeHom(5, (1, 2))).verdict is False
    with pytest.raises(ValueError):
        verify_lattice_tiling(shape, LatticeHom(5, (1, 2, 3)))


def test_verify_tiling_round_trip_for_certificates():
    for k, which in [(2, "order_2k_plus_1"), (3, "order_k_plus_1"), (12, "order_2k_plus_1")]:
        cert = trivial_certificate(k, which)
        hom, lattice = lattice_from_splitting(cert)
        shape = semi_cross(len(cert.splitters), k)
        assert verify_lattice_tiling(shape, hom).verdict is True
        assert verify_tiling_by_basis(shape, lattice).verdict is True


def test_snf_route_agrees_with_hom_route():
    shape = semi_cross(2, 2)
    for weights in [(1, 4), (1, 2), (2, 3), (1, 3)]:
        hom = LatticeHom(5, weights)
        direct = verify_lattice_tiling(shape, hom).verdict
        lattice = kernel_lattice(hom)
        if lattice.index == 5:
            assert verify_tiling_by_basis(shape, lattice).verdict == direct


def test_verify_tiling_by_basis_wrong_index():
    # index 4 lattice cannot tile with a 5-point shape
    lattice = IntegerLattice(((2, 0), (0, 2)))
    assert verify_tiling_by_basis(semi_cross(2, 2), lattice).verdict is False


def _brute_anchor_census(hom, shape, box):
    """Assign every box cell to the unique kernel translate covering it."""
    anchors = set()
    cells = []

    def walk(prefix):
        if len(prefix) == len(box):
            cells.append(tuple(prefix))
            return
        lo, hi = box[len(prefix)]
        for v in range(lo, hi + 1):
            walk(prefix + [v])

    walk([])
    for cell in cells:
        owners = [
            tuple(c - o for c, o in zip(cell, point))
            for point in shape.points
            if hom.apply(tuple(c - o for c, o in zip(cell, point))) == 0
        ]
        assert len(owners) == 1, (cell, owners)
        anchors.add(owners[0])
    return cells, anchors


def test_export_translates_z5_box():
    cert = make_certificate(Z(5), MultiplierSet.interval(2), [(1,), (4,)])
    hom, lattice = lattice_from_splitting(cert)
    shape = semi_cross(2, 2)
    box = [(0, 9), (0, 9)]
    translates = export_translates(lattice, shape, box)
    cells, anchors = _brute_anchor_census(hom, shape, box)
    assert len(cells) == 100
    assert {a for a, _ in translates} == anchors
    assert len(translates) == len(anchors) == 28
    assert [a for a, _ in translates] == sorted(a for a, _ in translates)


def test_export_translates_1dim():
    cert = trivial_certificate(3)
    _, lattice = lattice_from_splitting(cert)
    translates = export_translates(lattice, semi_cross(1, 3), [(0, 7)])
    assert [a for a, _ in translates] == [(0,), (4,)]
    covered = {c for _, cells in translates for c in cells}
    assert covered == {(i,) for i in range(8)}


def test_export_translates_empty_box():
    cert = trivial_certificate(3)
    _, lattice = lattice_from_splitting(cert)
    assert list(export_translates(lattice, semi_cross(1, 3), [(3, 2)])) == []


def test_export_translates_rejects_non_tiling():
    lattice = IntegerLattice(((3,),))  # period 3 cannot carry a 4-cell segment
    with pytest.raises(ValueError):
        export_translates(lattice, semi_cross(1, 3), [(0, 5)])
    with pytest.raises(ValueError, match="dimensions must agree"):
        export_translates(lattice, semi_cross(2, 1), [(0, 5)])


def test_export_translates_names_a_double_cover():
    lattice = IntegerLattice(((4, 1), (0, 1)))  # index 4 under a 5-cell shape
    shape = semi_cross(2, 2)
    with pytest.raises(ValueError, match="covered twice") as info:
        export_translates(lattice, shape, [(0, 5), (0, 5)])
    cell = tuple(int(v) for v in re.search(r"cell \((.*)\)", str(info.value))[1].split(","))
    anchors = [tuple(c - o for c, o in zip(cell, p)) for p in shape.points]
    owners = [a for a in anchors if lattice.points_in([range(x, x + 1) for x in a])]
    assert all(0 <= c <= 5 for c in cell) and len(owners) >= 2


def test_export_translates_rejects_a_gap():
    lattice = IntegerLattice(((5,),))  # period 5 under a 4-cell segment
    with pytest.raises(ValueError, match="uncovered"):
        export_translates(lattice, semi_cross(1, 3), [(0, 9)])
    lattice = IntegerLattice(((2, 0), (0, 2)))  # misses the cells with both coordinates odd
    with pytest.raises(ValueError, match="uncovered"):
        export_translates(lattice, semi_cross(2, 1), [(0, 5), (0, 5)])


def test_translate_cells_check_the_anchor_length():
    shape = semi_cross(3, 2)
    for anchor in [(0, 0, 0), (10**20, -(10**20), 3), [5, 7, -(10**20)]]:
        cells = shape.at(anchor)
        assert cells == cells_by_coordinates(shape, anchor)
        assert cells[0] == tuple(anchor)
        assert shape.at(list(anchor)) == cells
    assert "_arms" not in repr(shape)
    with pytest.raises(ValueError):
        shape.at((0, 0))


def _export_or_error(export, lattice, shape, box):
    """The export's (anchor, cells) pairs as a list, or its error message."""
    try:
        return list(export(lattice, shape, box))
    except ValueError as exc:
        return str(exc)


def _interior(anchor, shape, box):
    """Whether the whole translate at anchor lies inside the box."""
    return all(
        lo - min(p[i] for p in shape.points) <= a <= hi - max(p[i] for p in shape.points)
        for i, (a, (lo, hi)) in enumerate(zip(anchor, box))
    )


def test_export_of_a_box_smaller_than_the_shape_has_no_interior_anchor():
    _, lattice = lattice_from_splitting(trivial_certificate(6, "order_2k_plus_1"))
    shape, box = semi_cross(2, 6), [(3, 6), (-2, 1)]
    translates = export_translates(lattice, shape, box)
    assert list(translates) == export_translates_by_cells(lattice, shape, box)
    assert translates and not any(_interior(a, shape, box) for a, _ in translates)


def test_export_where_every_anchor_is_interior():
    lattice, shape, box = IntegerLattice(((4,),)), semi_cross(1, 3), [(-8, 11)]
    translates = export_translates(lattice, shape, box)
    assert list(translates) == export_translates_by_cells(lattice, shape, box)
    anchors = lattice.points_in([range(-11, 12)])
    assert [a for a, _ in translates] == anchors == [(-8,), (-4,), (0,), (4,), (8,)]
    assert all(_interior(a, shape, box) for a in anchors)
    lattice = IntegerLattice(((5,),))  # a gap after every translate
    assert "uncovered" in _export_or_error(export_translates, lattice, shape, box)
    assert _export_or_error(export_translates_by_cells, lattice, shape, box) == (
        "not a tiling: box has uncovered cells"
    )


def test_export_names_a_double_cover_at_an_interior_anchor():
    lattice = IntegerLattice(((4, 1), (0, 1)))  # index 4 under a 5-cell shape
    shape, box = semi_cross(2, 2), [(-4, 5), (-4, 5)]
    error = _export_or_error(export_translates, lattice, shape, box)
    assert error == _export_or_error(export_translates_by_cells, lattice, shape, box)
    cell = tuple(int(v) for v in re.search(r"cell \((.*)\) covered twice", error)[1].split(","))
    # anchors are visited in ascending order, so the second owner of the
    # cell is the anchor whose translate found it covered
    owners = sorted(
        a for a in (tuple(c - o for c, o in zip(cell, p)) for p in shape.points)
        if lattice.points_in([range(x, x + 1) for x in a])
    )
    assert _interior(owners[1], shape, box)


@st.composite
def export_cases(draw):
    """A 2-dimensional upper-triangular lattice, a semi-cross and a box,
    which may be smaller than the shape. Half the lattices have the shape's
    index 2k + 1, and the kernel of the weights (1, -1) among them tiles."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        d0, d1 = 2 * k + 1, 1
    else:
        d0, d1 = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    lattice = IntegerLattice(((d0, draw(st.integers(0, d0 - 1))), (0, d1)))
    lo = draw(st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
    size = draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    return lattice, semi_cross(2, k), [(a, a + s - 1) for a, s in zip(lo, size)]


@given(export_cases())
def test_export_agrees_with_the_per_cell_loop(case):
    expected = _export_or_error(export_translates_by_cells, *case)
    assert _export_or_error(export_translates, *case) == expected
    assert _export_or_error(translates_by_cells, *case) == expected


def _lattice(cert):
    return lattice_from_splitting(cert)[1]


_Z5 = make_certificate(Z(5), MultiplierSet.interval(2), [(1,), (4,)])

# (lattice, shape, box) of every export above, tilings and failures alike,
# then the semi-cross exports of both trivial certificates for k <= 6
_EXPORT_CASES = [
    (_lattice(_Z5), semi_cross(2, 2), [(0, 9), (0, 9)]),
    (_lattice(_Z5), semi_cross(2, 2), [(0, 19), (0, 19)]),
    (_lattice(trivial_certificate(3)), semi_cross(1, 3), [(0, 7)]),
    (_lattice(trivial_certificate(3)), semi_cross(1, 3), [(3, 2)]),
    (IntegerLattice(((3,),)), semi_cross(1, 3), [(0, 5)]),
    (IntegerLattice(((4, 1), (0, 1))), semi_cross(2, 2), [(0, 5), (0, 5)]),
    (IntegerLattice(((4, 1), (0, 1))), semi_cross(2, 2), [(-4, 5), (-4, 5)]),
    (IntegerLattice(((5,),)), semi_cross(1, 3), [(0, 9)]),
    (IntegerLattice(((2, 0), (0, 2))), semi_cross(2, 1), [(0, 5), (0, 5)]),
    (_lattice(trivial_certificate(6, "order_2k_plus_1")), semi_cross(2, 6), [(3, 6), (-2, 1)]),
    (IntegerLattice(((4,),)), semi_cross(1, 3), [(-8, 11)]),
    (IntegerLattice(((5,),)), semi_cross(1, 3), [(-8, 11)]),
] + [
    (_lattice(trivial_certificate(k, form)), semi_cross(len(box), k), box)
    for k in range(1, 7)
    for form, box in [("order_k_plus_1", [(-7, 20)]), ("order_2k_plus_1", [(-3, 9), (5, 14)]),
                      ("order_2k_plus_1", [(-300, -251), (1000, 1030)])]
]


@pytest.mark.parametrize("case", _EXPORT_CASES)
def test_export_view_equals_the_list_building_export(case):
    expected = _export_or_error(translates_by_cells, *case)
    assert _export_or_error(export_translates, *case) == expected
    if not isinstance(expected, str):
        assert export_translates(*case).anchors == tuple(anchor for anchor, _ in expected)


def test_translate_view_reads_like_a_list():
    # a list's len and iteration, no more: each iteration builds the
    # translates again, equal to the last, and the view does not index
    lattice, shape, box = _lattice(_Z5), semi_cross(2, 2), [(0, 9), (0, 9)]
    view = export_translates(lattice, shape, box)
    listed = translates_by_cells(lattice, shape, box)
    assert list(view) == list(view) == listed and len(view) == len(listed) == 28
    assert view.anchors == tuple(anchor for anchor, _ in listed)
    with pytest.raises(TypeError):
        view[0]
    for empty in ([(3, 2), (0, 1)], [(0, 1), (5, 4)]):
        nothing = export_translates(lattice, shape, empty)
        assert len(nothing) == 0 and list(nothing) == [] and nothing.anchors == ()


def test_cell_row_view_reads_like_a_list():
    # the parsed rows are one pass over the cells the line-reader oracle reads
    lattice, shape, box = _lattice(_Z5), semi_cross(2, 2), [(0, 9), (0, 9)]
    hom = lattice_from_splitting(_Z5)[0]
    text = tiling_export_text(shape, lattice, hom, export_translates(lattice, shape, box))
    header, rows = parse_tiling_export(text)
    with pytest.raises(TypeError):
        rows[0]
    read = list(rows)
    assert (header, read) == parse_tiling_export_by_lines(text)
    assert read == [(anchor, cell) for anchor, cells in translates_by_cells(lattice, shape, box)
                    for cell in cells]
    assert len(read) == 28 * 5 == text.count("\n") - 2 and list(rows) == []
    nothing = export_translates(lattice, shape, [(0, -1), (0, 0)])
    header, empty = parse_tiling_export(tiling_export_text(shape, lattice, hom, nothing))
    assert header["translates"] == 0 and list(empty) == []
