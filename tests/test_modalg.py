"""Exact integer linear algebra and group-ring arithmetic."""

import random
from math import gcd, prod

import numpy as np
import pytest

from ybknots import (
    GroupRingElement,
    IntegerMatrix,
    kernel_mod,
    smith_normal_form,
    solve_mod,
)

from ybknots.errors import ModulusMismatch

import smith_oracle as oracle


def _det(entries):
    # fraction-free elimination; exact for integer matrices
    n = len(entries)
    m = [row[:] for row in entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _is_diagonal(mat):
    return all(v == 0
               for i, row in enumerate(mat.entries)
               for j, v in enumerate(row) if i != j)


def test_smith_frozen_example():
    A = IntegerMatrix([[2, 4], [6, 8]])
    sf = smith_normal_form(A)
    assert sf.invariant_factors == (2, 4)
    assert (sf.U @ A @ sf.V).entries == sf.D.entries
    assert abs(_det(sf.U.entries)) == 1
    assert abs(_det(sf.V.entries)) == 1


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (2, 3), (3, 2),
                                       (3, 3), (4, 3), (4, 4), (5, 4)])
def test_smith_properties(rows, cols):
    rng = random.Random(1000 * rows + cols)
    for _ in range(8):
        entries = [[rng.randint(-9, 9) for _ in range(cols)]
                   for _ in range(rows)]
        A = IntegerMatrix(entries)
        sf = smith_normal_form(A)
        assert (sf.U @ A @ sf.V).entries == sf.D.entries
        assert abs(_det(sf.U.entries)) == 1
        assert abs(_det(sf.V.entries)) == 1
        assert _is_diagonal(sf.D)
        diag = [sf.D.entries[i][i] for i in range(min(rows, cols))]
        assert all(v >= 0 for v in diag)
        nonzero = [v for v in diag if v]
        assert all(nonzero[i + 1] % nonzero[i] == 0
                   for i in range(len(nonzero) - 1))
        assert sf.invariant_factors == tuple(nonzero)
        # factors are invariant under transposition
        assert smith_normal_form(IntegerMatrix(
            A.array.T.copy())).invariant_factors == sf.invariant_factors


# Exact transforms, pinned so that the sequence of row and column
# operations cannot drift; diag(2, 3) needs the divisibility fix-up.
SMITH_PINNED = [
    ([[2, 0], [0, 3]],
     [[-1, 1], [-3, 2]], [[1, 0], [0, 6]], [[1, -3], [1, -2]]),
    ([[4, 6], [6, 9]],
     [[-1, 1], [3, -2]], [[1, 0], [0, 0]], [[-1, 3], [1, -2]]),
    ([[6, 10, 15]],
     [[1]], [[1, 0, 0]], [[-14, -5, 30], [7, 3, -15], [1, 0, -2]]),
    ([[0, 2, 4], [3, 0, 6], [1, 1, 1]],
     [[0, 0, 1], [2, 1, -3], [3, 2, -6]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 18]],
     [[1, -1, 10], [0, 1, -11], [0, 0, 1]]),
]


@pytest.mark.parametrize("a,U,D,V", SMITH_PINNED)
def test_smith_pinned_transforms(a, U, D, V):
    sf = smith_normal_form(IntegerMatrix(a))
    assert (sf.U.entries, sf.D.entries, sf.V.entries) == (U, D, V)


def test_smith_zero_and_identity():
    Z = IntegerMatrix.zeros(2, 3)
    assert smith_normal_form(Z).invariant_factors == ()
    empty = smith_normal_form(IntegerMatrix.zeros(0, 3))
    assert empty.invariant_factors == ()
    assert empty.V == IntegerMatrix(np.eye(3, dtype=np.int64))
    I = IntegerMatrix(np.eye(4, dtype=np.int64))
    assert smith_normal_form(I).invariant_factors == (1, 1, 1, 1)


def test_matrix_ops():
    A = IntegerMatrix([[1, 2], [3, 4]])
    B = IntegerMatrix([[0, 1], [1, 0]])
    assert (A @ B).entries == [[2, 1], [4, 3]]
    # entries lists are fresh: changing them leaves A alone
    A.entries[1][0] = 9
    assert A.entries == [[1, 2], [3, 4]]
    # past int64 the product and the entries stay exact
    assert (IntegerMatrix([[2 ** 40, 1]]) @ IntegerMatrix([[2 ** 40], [1]])
            ).entries == [[2 ** 80 + 1]]
    big = [[2 ** 70, -3, 0], [5, 7, -2 ** 70]]
    B = IntegerMatrix(big)
    assert B.entries == big
    assert B == IntegerMatrix([row[:] for row in big])
    assert B != IntegerMatrix([[2 ** 70 + 1, -3, 0], [5, 7, -2 ** 70]])
    assert B[1, 2] == -2 ** 70
    # a matrix with no rows or no columns keeps both sizes
    Z = IntegerMatrix.zeros(0, 3)
    for M, shape in ((Z, (0, 3)),
                     (Z @ IntegerMatrix.zeros(3, 2), (0, 2)),
                     (IntegerMatrix(Z.array.T.copy()), (3, 0)),
                     (IntegerMatrix([[], [], []]), (3, 0))):
        assert (M.rows, M.cols) == shape
    assert IntegerMatrix.zeros(2, 0) @ Z == IntegerMatrix.zeros(2, 3)
    assert Z != IntegerMatrix.zeros(0, 5)
    with pytest.raises(ValueError, match="shape mismatch"):
        A @ IntegerMatrix.zeros(3, 2)
    assert repr(B) == "IntegerMatrix(2x3)"


def test_kernel_frozen_examples():
    assert kernel_mod(IntegerMatrix([[2]]), 4) == [[2]]
    assert kernel_mod(IntegerMatrix(np.eye(3, dtype=np.int64)), 5) == []
    for rows in (0, 2):
        assert kernel_mod(IntegerMatrix.zeros(rows, 3), 5) == [
            [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # no unknowns: the kernel is the zero space, with no generators
    assert kernel_mod(IntegerMatrix.zeros(2, 0), 5) == []


def _span(gens, m, width):
    points = {(0,) * width}
    frontier = [(0,) * width]
    while frontier:
        base = frontier.pop()
        for g in gens:
            nxt = tuple((b + v) % m for b, v in zip(base, g))
            if nxt not in points:
                points.add(nxt)
                frontier.append(nxt)
    return points


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 9])
def test_kernel_matches_brute_force(m):
    rng = random.Random(m)
    for _ in range(10):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        A = IntegerMatrix([[rng.randint(-6, 6) for _ in range(cols)]
                           for _ in range(rows)])
        gens = kernel_mod(A, m)
        brute = set()
        for flat in range(m ** cols):
            x = [(flat // m ** j) % m for j in range(cols)]
            if all(sum(A.entries[i][j] * x[j] for j in range(cols)) % m == 0
                   for i in range(rows)):
                brute.add(tuple(x))
        assert _span(gens, m, cols) == brute


def test_solve_frozen_examples():
    assert solve_mod(IntegerMatrix([[2]]), [2], 4) == [1]
    assert solve_mod(IntegerMatrix([[2]]), [1], 4) is None


def test_solve_pinned_solutions():
    # the particular solution V @ y, pinned for composite moduli
    cases = [
        ([[2, 3], [4, 1]], [1, 5], 6, [2, 3]),
        ([[6, 4, 2], [3, 0, 9]], [2, 3], 12, [0, 0, 7]),
        ([[2, 0], [0, 3]], [4, 3], 12, [8, 9]),
        ([[3, 6], [9, 3]], [6, 3], 12, [0, 1]),
        ([[4, 2, 2], [2, 2, 0], [0, 2, 6]], [2, 4, 6], 8, [3, 3, 0]),
        ([[2, 4]], [3], 8, None),
    ]
    for a, b, m, x in cases:
        assert solve_mod(IntegerMatrix(a), b, m) == x


@pytest.mark.parametrize("m", [2, 3, 4, 6, 9])
def test_solve_round_trip(m):
    rng = random.Random(50 + m)
    for _ in range(10):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = IntegerMatrix([[rng.randint(-6, 6) for _ in range(cols)]
                           for _ in range(rows)])
        x0 = [rng.randrange(m) for _ in range(cols)]
        b = [sum(A.entries[i][j] * x0[j] for j in range(cols)) % m
             for i in range(rows)]
        x = solve_mod(A, b, m)
        assert x is not None
        assert all(
            sum(A.entries[i][j] * x[j] for j in range(cols)) % m == b[i]
            for i in range(rows))


# The list core's quotient of two spans is the oracle that H^n is
# checked against (test_eliminations); these tests hold it to frozen
# values and to brute force.

def test_quotient_frozen_examples():
    units = [[1, 0], [0, 1]]
    assert oracle.quotient(units, [[2, 0]], 4) == (2, 4)
    assert oracle.quotient(units, [], 2) == (2, 2)
    assert oracle.quotient(units, units, 6) == ()
    with pytest.raises(oracle.ImageNotContained):
        oracle.quotient([[2, 0]], [[1, 0]], 4)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9, 12])
def test_quotient_matches_brute_force(m):
    # For a quotient Q = span K / span I with invariant factors a_i, the
    # t-torsion {x in span K : t*x in span I} / span I has order
    # prod gcd(t, a_i) for every t dividing m; t = m gives |Q|.
    rng = random.Random(700 + m)
    divisors = [t for t in range(1, m + 1) if m % t == 0]
    outside = 0
    for trial in range(16):
        c = rng.randint(1, 3)
        K = [[rng.randrange(m) for _ in range(c)]
             for _ in range(rng.randint(0, 3))]
        if trial % 4 == 3:
            I = [[rng.randrange(m) for _ in range(c)]
                 for _ in range(rng.randint(1, 2))]
        else:
            I = [[sum(rng.randint(-2, 2) * g[j] for g in K) % m
                  for j in range(c)] for _ in range(rng.randint(0, 3))]
        span_k, span_i = _span(K, m, c), _span(I, m, c)
        if not span_i <= span_k:
            outside += 1
            with pytest.raises(oracle.ImageNotContained):
                oracle.quotient(K, I, m)
            continue
        factors = oracle.quotient(K, I, m)
        assert all(f > 1 and m % f == 0 for f in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        for t in divisors:
            torsion = sum(tuple(t * v % m for v in x) in span_i
                          for x in span_k)
            assert torsion == len(span_i) * prod(gcd(t, a) for a in factors)
    assert outside


def _random_ring_element(rng, m):
    return GroupRingElement(m, tuple(rng.randint(-5, 5) for _ in range(m)))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_group_ring_laws(m):
    rng = random.Random(m * 7)
    one = GroupRingElement.term(1, 0, m)
    for _ in range(12):
        f = _random_ring_element(rng, m)
        g = _random_ring_element(rng, m)
        h = _random_ring_element(rng, m)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * one == f
        assert f - f == GroupRingElement.zero(m)
        assert (f * g).coefficient_sum() == (
            f.coefficient_sum() * g.coefficient_sum())
        assert 3 * f == f + f + f
        assert -f == GroupRingElement.zero(m) - f and -(-f) == f
        assert hash(f + g) == hash(g + f)
        assert bool(f) == any(f.coefficients) and not f - f
    with pytest.raises(TypeError, match="^cannot combine with int$"):
        one + 1
    with pytest.raises(ModulusMismatch,
                       match=f"^moduli differ: {m} vs {m + 1}$"):
        one + GroupRingElement.term(1, 0, m + 1)


def test_group_ring_scalars_pass_the_integer_gate():
    g = GroupRingElement(3, (1, -2, 0))
    for scalar in (np.int64(2), np.int32(2), np.uint8(2)):
        assert g * scalar == scalar * g == g * 2 == g + g
    assert (g * 2 ** 70).coefficients == (2 ** 70, -2 ** 71, 0)
    assert all(type(c) is int for c in (g * np.int64(2)).coefficients)
    for bad in (True, False, 2.0, np.float64(2), "2"):
        with pytest.raises(ValueError, match="scalar must be an integer"):
            g * bad


def test_group_ring_exponent_wrap():
    x3 = GroupRingElement.term(1, 3, 4)
    x2 = GroupRingElement.term(1, 2, 4)
    assert x3 * x2 == GroupRingElement.term(1, 1, 4)


def test_group_ring_render():
    assert GroupRingElement(4, (8, 0, 0, 8)).render() == "8 + 8*x^3"
    assert GroupRingElement.zero(4).render() == "0"
    assert GroupRingElement.term(1, 2, 4).render() == "1*x^2"
    assert GroupRingElement.term(3, 1, 4).render() == "3*x"
    assert GroupRingElement(4, (2, -1, 0, 0)).render() == "2 - 1*x"
    assert GroupRingElement(4, (5, 0, 0, 0)).render() == "5"
    assert repr(GroupRingElement(4, (2, -1, 0, 0))) == \
        "GroupRingElement(mod 4: 2 - 1*x)"


def test_group_ring_json_round_trip():
    g = GroupRingElement(4, (16, 0, 48, 0))
    assert g.to_json() == {"modulus": 4, "coefficients": [16, 0, 48, 0]}
    assert GroupRingElement.from_json(g.to_json()) == g


@pytest.mark.parametrize("data", [
    {"modulus": 4.5, "coefficients": [1, 0, 0, 0]},
    {"modulus": 4.0, "coefficients": [1, 0, 0, 0]},
    {"modulus": True, "coefficients": [1]},
    {"modulus": "4", "coefficients": [1, 0, 0, 0]},
    {"modulus": 4, "coefficients": [1.7, True, "3", 0]},
    {"modulus": 4, "coefficients": [1.0, 0, 0, 0]},
    {"modulus": 4, "coefficients": [0, 0, 0, False]},
    {"modulus": 4, "coefficients": "1234"},
    {"modulus": 4, "coefficients": 5},
    {"modulus": 4, "coefficients": [[1, 0], [0, 0]]},
    {"modulus": 4, "coefficients": [1, 0, 0]},
    {"modulus": 4},
    {"coefficients": [1, 0, 0, 0]},
    [4, [1, 0, 0, 0]],
    None,
])
def test_group_ring_from_json_refuses_non_integers(data):
    # a float, boolean or string is refused, not cast; a missing or
    # mistyped field is a ValueError like any malformed input
    with pytest.raises(ValueError):
        GroupRingElement.from_json(data)


def test_group_ring_from_json_keeps_integers_exact():
    g = GroupRingElement.from_json(
        {"modulus": np.int64(3), "coefficients": [2 ** 70, np.int32(-1), 0]})
    assert g.modulus == 3 and type(g.modulus) is int
    assert g.coefficients == (2 ** 70, -1, 0)
    assert all(type(c) is int for c in g.coefficients)
    assert GroupRingElement.from_json(g.to_json()) == g
