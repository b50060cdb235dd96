"""Every library entry point reads its integer inputs through one gate,
`ybcore._integer` / `_integers`: a float (1.0 included), a boolean or a
string raises ValueError instead of being truncated or cast, and a numpy
integer behaves exactly like the Python int of the same value."""

import numpy as np
import pytest

from ybknots import (
    BraidGenerator,
    BraidWord,
    CochainTable,
    CubeEdge,
    GroupRingElement,
    IntegerMatrix,
    LinearForm,
    NotAUnit,
    ProductNotZero,
    apply_word,
    boundary,
    coboundary_matrix,
    cocycle_space,
    cohomology_group,
    color_cube,
    extend,
    face_tuple,
    kernel_mod,
    make_affine,
    make_block,
    make_omega,
    parse_braid,
    solve_mod,
    swap_set,
)
from ybknots.reference import z3_cocycle

X = make_affine(3, 1, 2, 2)
A = IntegerMatrix([[1, 2], [3, 4]])
WORD = parse_braid("s1")
CUBE = color_cube(X, (0, 1, 2))

# One row per gated entry point: the call with v in one integer slot.
# Where 1 is a valid value for that slot the call succeeds with it.
ROWS = {
    "IntegerMatrix rows": lambda v: IntegerMatrix([[1, v], [0, 1]]),
    "IntegerMatrix array": lambda v: IntegerMatrix(np.array([[v]])),
    "GroupRingElement modulus": lambda v: GroupRingElement(v, [0]),
    "GroupRingElement coefficients": lambda v: GroupRingElement(2, [0, v]),
    "GroupRingElement.term": lambda v: GroupRingElement.term(1, v, 2),
    "GroupRingElement scalar": lambda v: GroupRingElement(2, [1, -2]) * v,
    "LinearForm q": lambda v: LinearForm(v, 1, ((0, 0), (0, 0))),
    "LinearForm d": lambda v: LinearForm(2, v, ((1, 0), (0, 1))),
    "LinearForm entries": lambda v: LinearForm(2, 1, ((v, 0), (0, 1))),
    "make_affine q": lambda v: make_affine(v, 1, 3),
    "make_affine t": lambda v: make_affine(4, 1, v),
    "make_block q": lambda v: make_block(v, 1, 1),
    "make_block s": lambda v: make_block(3, v, 1),
    "make_omega q": lambda v: make_omega(v, 1, 1),
    "make_omega h": lambda v: make_omega(2, v, 1),
    "swap_set": lambda v: swap_set(v),
    "extend": lambda v: extend(X, v, CochainTable.zero(2, 3, 3)),
    "CochainTable": lambda v: CochainTable(1, 2, 2, [0, v]),
    "CochainTable.from_function": lambda v: CochainTable.from_function(
        1, 2, 2, lambda x: v),
    "CochainTable lookup": lambda v: z3_cocycle(1, 0, 0)(0, v),
    "boundary": lambda v: boundary(X, (0, v)),
    "color_cube": lambda v: color_cube(X, [0, v]),
    "CubeColoring.color": lambda v: CUBE.color(v, 0),
    "CubeEdge direction": lambda v: CubeEdge(v, 0),
    "CubeEdge corner": lambda v: CubeEdge(1, v),
    "face_tuple axis": lambda v: face_tuple(CUBE, v, 0),
    "face_tuple side": lambda v: face_tuple(CUBE, 1, v),
    "apply_word": lambda v: apply_word(X, WORD, (0, v)),
    "BraidGenerator": lambda v: BraidGenerator("positive", v),
    "BraidWord": lambda v: BraidWord(v, ()),
    "parse_braid": lambda v: parse_braid("s1", v),
    "kernel_mod": lambda v: kernel_mod(A, v),
    "solve_mod modulus": lambda v: solve_mod(A, [0, 1], v),
    "solve_mod right-hand side": lambda v: solve_mod(A, [0, v], 3),
    "coboundary_matrix": lambda v: coboundary_matrix(X, v),
    "cocycle_space arity": lambda v: cocycle_space(X, v, 3),
    "cocycle_space modulus": lambda v: cocycle_space(X, 2, v),
    "cohomology_group arity": lambda v: cohomology_group(X, v, 3),
    "cohomology_group modulus": lambda v: cohomology_group(X, 1, v),
    "cohomology_group max_cells": lambda v: cohomology_group(
        X, 1, 3, max_cells=v),
}


def _outcome(call, value):
    """call(value), or the type and text of what it raised."""
    try:
        return call(value)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ROWS)
def test_entry_points_refuse_non_integers(name):
    call = ROWS[name]
    for bad in (1.0, True, "1", np.float64(1)):
        with pytest.raises(ValueError, match="must be (an )?integers?"):
            call(bad)
    want = _outcome(call, 1)
    for good in (np.int64(1), np.int32(1), np.uint8(1)):
        assert _outcome(call, good) == want


def test_integers_past_int64_stay_exact():
    M = IntegerMatrix([[2 ** 70, np.int64(2 ** 62)], [np.int32(-1), 0]])
    assert M.entries == [[2 ** 70, 2 ** 62], [-1, 0]]
    assert all(type(e) is int for row in M.entries for e in row)
    # numpy ints held next to Python ints would wrap in the product
    assert (M @ IntegerMatrix([[0], [4]])).entries == [[2 ** 64], [0]]
    big = np.array([[2 ** 64 - 1, 1]], dtype=np.uint64)
    assert IntegerMatrix(big).entries == [[2 ** 64 - 1, 1]]
    g = GroupRingElement(np.int64(2), [2 ** 70, np.int64(-1)])
    assert g.coefficients == (2 ** 70, -1)
    assert all(type(c) is int for c in (g.modulus, *g.coefficients))
    assert solve_mod(IntegerMatrix([[1]]), [np.int64(5)], 3 ** 50) == [5]


def test_gate_keeps_shapes_and_family_conditions():
    for ragged in ([[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError):
            IntegerMatrix(ragged)
    empty = IntegerMatrix([[], [], []])
    assert (empty.rows, empty.cols) == (3, 0)
    with pytest.raises(ValueError, match="2-d"):
        IntegerMatrix([[[1]]])
    with pytest.raises(ValueError, match="length mismatch"):
        solve_mod(A, [[0], [1]], 3)
    for args in ((4, 2, 1), (4, 1, 3, 2), (6, 1, 2)):
        with pytest.raises(NotAUnit):
            make_affine(*args)
    with pytest.raises(ProductNotZero):
        make_affine(5, 2, 3)
