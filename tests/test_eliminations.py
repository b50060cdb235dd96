"""The numpy Smith core and the Z/m elimination against the list oracle.

`smith_oracle` holds the list Smith elimination over Z that the library
used before.  The numpy core keeps its pivot rule and order of
operations, so transforms and generators must agree entry for entry.
The list elimination over Z/m (`modalg._eliminate`) returns no basis
anyone pins, so its kernels are compared as sets or, where listing is
too large, by order.  H^n, which `cohomology_group` reads off the
kernels of delta^n and delta^(n-1), is compared with the list core's
quotient of the cocycle span by the coboundary span.
"""

import json
import random
from itertools import product
from math import gcd, prod

import numpy as np
import pytest

from ybknots import (
    FiniteYBSet,
    IntegerMatrix,
    coboundary_matrix,
    cocycle_space,
    cohomology_group,
    kernel_mod,
    make_affine,
    make_block,
    make_omega,
    smith_normal_form,
    solve_mod,
    swap_set,
)
from ybknots import modalg, ybhomology

import smith_oracle as oracle

MODULI = (4, 6, 8, 9, 12, 36)


def _random_matrix(rng, rows, cols, m):
    """Entries in -m..m, a third of them zero, with repeated rows, rows
    equal mod m only, and zero rows mixed in."""
    out = [[rng.randint(-m, m) if rng.random() < 2 / 3 else 0
            for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(0, 2)):
        row = rng.choice(out)
        out.insert(rng.randrange(len(out) + 1),
                   [x + m * rng.randint(-1, 1) for x in row])
    if rng.random() < 0.3:
        out.insert(rng.randrange(len(out) + 1), [0] * cols)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_smith_transforms_match_the_list_core(seed):
    rng = random.Random(seed)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        entries = _random_matrix(rng, rows, cols, rng.choice(MODULI))
        sf = smith_normal_form(IntegerMatrix(entries))
        U, D, V, factors = oracle.smith(entries)
        assert (sf.U.entries, sf.D.entries, sf.V.entries) == (U, D, V)
        assert sf.invariant_factors == factors


@pytest.mark.parametrize("m", MODULI)
def test_kernel_and_solve_match_the_list_core(m):
    rng = random.Random(100 + m)
    for _ in range(30):
        rows, cols = rng.randint(1, 9), rng.randint(1, 7)
        entries = _random_matrix(rng, rows, cols, m)
        A = IntegerMatrix(entries)
        assert kernel_mod(A, m) == oracle.kernel(entries, A.cols, m)
        x0 = [rng.randrange(m) for _ in range(A.cols)]
        b = [sum(e * x for e, x in zip(row, x0)) for row in entries]
        if rng.random() < 0.3:
            b[rng.randrange(len(b))] += rng.randint(1, m - 1)
        assert solve_mod(A, b, m) == oracle.solve(entries, A.cols, b, m)


@pytest.mark.parametrize("m", MODULI + (4 * (2 ** 61 - 1),))
def test_kernel_orders_are_the_gcds_of_the_smith_factors(m):
    # V mod m is invertible, so each kernel_mod generator's order
    # m // gcd(m, *g) is gcd(d_i, m) for the factor d_i of the Smith run
    # of A stacked over m*I that built it, in the same order
    rng = random.Random(f"orders/{m}")
    for _ in range(30):
        rows, cols = rng.randint(1, 9), rng.randint(1, 7)
        A = IntegerMatrix(_random_matrix(rng, rows, cols, m))
        factors = modalg._stacked_smith(A, m).factors
        assert modalg._orders(kernel_mod(A, m), m) == [
            gcd(d, m) for d in factors if gcd(d, m) > 1]
    assert kernel_mod(IntegerMatrix.zeros(3, 0), m) == []


@pytest.mark.parametrize("X,n,m", [
    (make_affine(4, 1, 3), 2, 4),
    (make_affine(6, 5, 1), 2, 6),
    (make_affine(6, 5, 1), 2, 12),
    (make_block(2, 1, 1), 3, 4),
    (make_affine(9, 4, 7), 1, 9),
], ids=lambda v: getattr(v, "label", str(v)))
def test_coboundary_kernels_match_the_list_core(X, n, m):
    matrix = coboundary_matrix(X, n)
    assert kernel_mod(matrix, m) == oracle.kernel(matrix.entries,
                                                  matrix.cols, m)


def test_guard_moves_the_arrays_to_python_ints(monkeypatch):
    # with the guard at 2^12 the entries start under it and grow past it,
    # so the core moves a to dtype=object part way and carries on
    monkeypatch.setattr(modalg, "_INT64_GUARD", 2 ** 12)
    widened = []
    original = modalg._Smith._fit

    def spy(self, bound):
        dtype = self.a.dtype
        original(self, bound)
        if self.a.dtype != dtype:
            widened.append(dtype)

    monkeypatch.setattr(modalg._Smith, "_fit", spy)
    rng = random.Random(7)
    for _ in range(12):
        entries = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
        sf = smith_normal_form(IntegerMatrix(entries))
        U, D, V, factors = oracle.smith(entries)
        assert (sf.U.entries, sf.D.entries, sf.V.entries) == (U, D, V)
        assert sf.invariant_factors == factors
        for m in (12, 36):
            A = IntegerMatrix(entries + [[3 * e for e in entries[0]]])
            assert kernel_mod(A, m) == oracle.kernel(A.entries, 6, m)
            b = [rng.randrange(m) for _ in range(A.rows)]
            assert solve_mod(A, b, m) == oracle.solve(A.entries, 6, b, m)
    assert widened and all(dtype == np.int64 for dtype in widened)
    assert max(abs(e) for row in U + V for e in row) >= 2 ** 12


# The pivot search takes the first unit when the trailing block holds a
# +-1 and falls back to the first least entry when it holds none; a pivot
# of +-1 reduces with no division.  Each family below reaches one of these
# paths in a way a slip in it would show against the list core.
SEARCH_CASES = {
    # no +-1 anywhere, ever: every search takes the fallback
    "no unit": [[4, 6, 0], [-2, 8, 6], [6, 0, -4]],
    "bare m*I": [[6 * (i == j) for j in range(4)] for i in range(4)],
    "m*I stack": [[4, -6, 2], [6, 0, 4]] +
                 [[6 * (i == j) for j in range(3)] for i in range(3)],
    # the first unit is -1, ahead of a later +1
    "first unit -1": [[5, 3, 0, -1], [2, 1, 7, -3], [1, -1, 4, 2]],
    "only -1": [[3, -1, 2], [-1, 4, 5], [2, 6, -1]],
    # the first unit follows larger entries in row-major order
    "unit after larger": [[7, 4, 1], [1, 2, 3]],
    "unit in last row": [[9, 6, 4], [8, 5, 7], [3, 2, 1]],
    # no unit until a reduction leaves one
    "late unit": [[2, 3], [4, 5]],
    "late unit wide": [[4, 6, 9], [6, 10, 15], [10, 14, 21]],
    # the trailing block turns all zero after a pivot, or starts so
    "rank one": [[2, 4], [4, 8], [0, 0]],
    "rank one unit": [[-1, 2, 3], [2, -4, -6]],
    "zero matrix": [[0, 0], [0, 0]],
    "zero past a pivot": [[0, 0, 0], [0, 6, 0]],
}


def _search_family(rng, family):
    """A random matrix of one family: no unit ("even"), one to three
    units of either sign among larger entries ("units"), or units only
    after a reduction ("late")."""
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    if family == "even":
        return [[rng.choice((0, 2, -2, 4, -4, 6, -6)) for _ in range(cols)]
                for _ in range(rows)]
    if family == "late":
        return [[rng.choice((0, 2, -2, 3, -3, 5, -5)) for _ in range(cols)]
                for _ in range(rows)]
    out = [[rng.choice((0, 2, -3, 4, 5, -7)) for _ in range(cols)]
           for _ in range(rows)]
    for _ in range(rng.randint(1, 3)):
        out[rng.randrange(rows)][rng.randrange(cols)] = rng.choice((1, -1))
    return out


def _assert_matches_the_list_core(entries, moduli=(2, 4, 6, 9)):
    sf = smith_normal_form(IntegerMatrix(entries))
    U, D, V, factors = oracle.smith(entries)
    assert (sf.U.entries, sf.D.entries, sf.V.entries) == (U, D, V)
    assert sf.invariant_factors == factors
    A, cols = IntegerMatrix(entries), len(entries[0])
    for m in moduli:
        assert kernel_mod(A, m) == oracle.kernel(entries, cols, m)
        for b in ([1] * A.rows, list(range(A.rows))):
            assert solve_mod(A, b, m) == oracle.solve(entries, cols, b, m)


def _spy_search(monkeypatch):
    """A list that gets, for each pivot search, whether the pivot found is
    a unit (the unit branch) or not (the fallback), and whether mag is
    dtype=object."""
    seen = []
    original = modalg._Smith._first_least

    def spy(mag, top):
        flat = original(mag, top)
        seen.append((bool(mag.flat[flat] == 1), mag.dtype == object))
        return flat

    monkeypatch.setattr(modalg._Smith, "_first_least", staticmethod(spy))
    return seen


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_pivot_search_cases_match_the_list_core(name):
    _assert_matches_the_list_core(SEARCH_CASES[name])


@pytest.mark.parametrize("family", ["even", "units", "late"])
def test_pivot_search_families_match_the_list_core(family):
    rng = random.Random(family)
    for _ in range(30):
        _assert_matches_the_list_core(_search_family(rng, family))


def test_both_search_branches_run(monkeypatch):
    seen = _spy_search(monkeypatch)
    # delta^2 of block(3,1,1) over 3*I: the largest entry is 3 at every
    # pivot, and the first least is a unit at most of them
    matrix = coboundary_matrix(make_block(3, 1, 1), 2)
    assert kernel_mod(matrix, 3) == oracle.kernel(matrix.entries,
                                                  matrix.cols, 3)
    assert any(unit for unit, _ in seen)
    seen.clear()
    _assert_matches_the_list_core(SEARCH_CASES["no unit"], moduli=(4,))
    assert seen and not any(unit for unit, _ in seen)


def test_both_search_branches_run_on_python_ints(monkeypatch):
    # with the guard at 2^12 these entries start past it, so the arrays
    # searched are dtype=object on both branches
    monkeypatch.setattr(modalg, "_INT64_GUARD", 2 ** 12)
    seen = _spy_search(monkeypatch)
    big = 2 ** 13
    for entries in ([[2 * big, 6, 4], [10, 2 * big + 2, 8], [4, 6, 14]],
                    [[big, 4, -6], [2, 0, 8], [6, -2, 2 * big]],
                    [[big + 1, -1, 3], [5, big, 1], [-1, 7, 2]],
                    [[big, 3, 2], [5, 7, big + 3]]):
        _assert_matches_the_list_core(entries, moduli=(4, 6))
    rng = random.Random(13)
    for family in ("even", "units", "late"):
        for _ in range(5):
            entries = _search_family(rng, family)
            entries[0][0] += big
            _assert_matches_the_list_core(entries, moduli=(6,))
    assert {(True, True), (False, True)} <= set(seen)


def test_entries_past_int64_start_on_python_ints():
    big = 2 ** 70
    for entries in ([[big + 3, 2 * big], [6, big - 1]],
                    [[big, 4, 6], [2, 0, 8], [1, 3, 5]]):
        sf = smith_normal_form(IntegerMatrix(entries))
        U, D, V, factors = oracle.smith(entries)
        assert (sf.U.entries, sf.D.entries, sf.V.entries) == (U, D, V)
        assert sf.invariant_factors == factors
        cols = len(entries[0])
        b = list(range(1, len(entries) + 1))
        for m in (12, 3 ** 50):
            assert kernel_mod(IntegerMatrix(entries), m) == \
                oracle.kernel(entries, cols, m)
            assert solve_mod(IntegerMatrix(entries), b, m) == \
                oracle.solve(entries, cols, b, m)


@pytest.mark.parametrize("m", [2 ** 40 + 15, 3 ** 50, 2 ** 63 - 25])
def test_int64_matrices_under_moduli_past_the_guard(m):
    # the matrices are int64, the modulus is not (or 2 m^2 is not): the
    # eliminated array must be read exactly under m, and the transforms
    # kept mod m must start on Python ints
    rng = random.Random(m % 1000)
    cases = [[[2, 4], [6, 8]]]
    cases += [_random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5), 36)
              for _ in range(20)]
    for entries in cases:
        A = IntegerMatrix(entries)
        assert A.array.dtype == np.int64
        assert kernel_mod(A, m) == oracle.kernel(entries, A.cols, m)
        x0 = [rng.randrange(m) for _ in range(A.cols)]
        b = [sum(e * x for e, x in zip(row, x0)) for row in entries]
        if rng.random() < 0.3:
            b[rng.randrange(len(b))] += rng.randrange(1, m)
        assert solve_mod(A, b, m) == oracle.solve(entries, A.cols, b, m)


def test_smith_transforms_come_back_in_int64_under_the_guard():
    # U and V run on Python ints, but every entry here stays small, so the
    # returned matrices hold int64 like any other small IntegerMatrix
    rng = random.Random(11)
    for _ in range(10):
        entries = _random_matrix(rng, 5, 4, 12)
        sf = smith_normal_form(IntegerMatrix(entries))
        assert sf.U.array.dtype == np.int64
        assert sf.V.array.dtype == np.int64
        assert sf.D.array.dtype == np.int64
        U, D, V, _ = oracle.smith(entries)
        assert (sf.U.entries, sf.D.entries, sf.V.entries) == (U, D, V)


# An upper bidiagonal matrix whose next unit pivot always sits in the
# row just reduced: its entries grow as B, B^2, ..., B^5 = 2^65, so one
# Smith run crosses 2^14, 2^30 and 2^62 in turn
B = 2 ** 13
LADDER = [[1, B] + [0] * 5] + [[0] * i + [B, 1] + [0] * (5 - i)
                               for i in range(1, 6)]
RUNGS = [np.dtype(t) for t in (np.int16, np.int32, np.int64, object)]


def test_the_eliminated_array_climbs_every_rung(monkeypatch):
    # at the real guards, a starts on int16 and each move is one rung up
    moves = []
    original = modalg._Smith._fit

    def spy(self, bound):
        dtype = self.a.dtype
        original(self, bound)
        if self.a.dtype != dtype:
            moves.append((dtype, self.a.dtype))

    monkeypatch.setattr(modalg._Smith, "_fit", spy)
    sf = smith_normal_form(IntegerMatrix(LADDER))
    U, D, V, factors = oracle.smith(LADDER)
    assert (sf.U.entries, sf.D.entries, sf.V.entries) == (U, D, V)
    assert sf.invariant_factors == factors
    assert moves == list(zip(RUNGS, RUNGS[1:]))
    assert max(abs(e) for row in U + V for e in row) >= 2 ** 62
    cols, b = len(LADDER[0]), list(range(1, len(LADDER) + 1))
    for m in (12, 2 ** 40 + 15, 3 ** 50):
        A = IntegerMatrix(LADDER)
        assert kernel_mod(A, m) == oracle.kernel(LADDER, cols, m)
        assert solve_mod(A, b, m) == oracle.solve(LADDER, cols, b, m)


@pytest.mark.parametrize("m,rung", [(5, np.int16), (100, np.int32),
                                    (1000, np.int32),
                                    (2 ** 20, np.int64),
                                    (2 ** 40 + 15, object)])
def test_transforms_kept_mod_m_start_on_the_rung_of_2m2(monkeypatch, m, rung):
    # V in kernel_mod, and the right-hand side and V in solve_mod, start on
    # the narrowest rung whose guard exceeds 2 m^2; exact transforms on
    # Python ints; at m = 100, 2 m^2 passes 2^14 where m^2 does not
    started = []
    original = modalg._Smith._run

    def spy(self):
        started.append(tuple(None if x is None else x.dtype
                             for x in (self.u, self.v)))
        return original(self)

    monkeypatch.setattr(modalg._Smith, "_run", spy)
    rng = random.Random(f"transforms/{m}")
    for _ in range(10):
        entries = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 5),
                                 36)
        A = IntegerMatrix(entries)
        b = [rng.randrange(m) for _ in range(A.rows)]
        started.clear()
        assert kernel_mod(A, m) == oracle.kernel(entries, A.cols, m)
        assert solve_mod(A, b, m) == oracle.solve(entries, A.cols, b, m)
        smith_normal_form(A)
        rung = np.dtype(rung)
        assert started == [(None, rung), (rung, rung),
                           (np.dtype(object), np.dtype(object))]


def test_stacked_runs_start_on_the_rung_a_scan_would_pick(monkeypatch):
    # `_stacked_smith` gives the Smith core m as the stack's peak instead
    # of a scan of the stack; each run must still start on the rung and
    # guard of _rung(max(largest entry, m)), the rule a scan applies, on
    # the matrices of the cohomology workload's sets and on random ones
    started = []
    original = modalg._Smith._run

    def spy(self):
        dtype, guard = modalg._rung(max(modalg._peak(self.a), self.m or 0))
        started.append((self.a.dtype, self.guard) == (np.dtype(dtype), guard))
        return original(self)

    monkeypatch.setattr(modalg._Smith, "_run", spy)
    rng = random.Random("stacked rungs")
    cases = [(make_block(3, 1, 1), 2, 3), (make_affine(3, 1, 2, 2), 2, 3),
             (make_affine(4, 1, 3, 3), 2, 4)]
    for q in (3, 4, 5, 5):
        units = [v for v in range(1, q) if gcd(v, q) == 1]
        s, t = rng.choice([(s, t) for s in units for t in units
                           if (1 - s) * (1 - t) % q == 0 and (s, t) != (1, 1)])
        X = make_affine(q, s, t, rng.choice(units))
        cases += [(X, 1, q), (X, 2, q)]
    for X, n, m in cases:
        cohomology_group(X, n, m)
        cocycle_space(X, n, m, type_one=n == 2)
    for _ in range(200):
        m = rng.choice(MODULI + (2, 15, 2 ** 13 + 1, 2 ** 40 + 15, 3 ** 50))
        entries = [[rng.randint(-3 * m, 3 * m) for _ in range(rng.randint(1, 5))]
                   for _ in range(rng.randint(1, 5))]
        width = max(map(len, entries))
        entries = [row + [0] * (width - len(row)) for row in entries]
        assert kernel_mod(IntegerMatrix(entries), m) == \
            oracle.kernel(entries, width, m)
    assert len(started) > 200 and all(started)


def _outputs(entries, m, b) -> str:
    """smith_normal_form (with the dtypes of U, D and V), kernel_mod and
    solve_mod of entries as JSON text, which a numpy scalar would fail."""
    A = IntegerMatrix(entries)
    sf = smith_normal_form(A)
    return json.dumps([[(str(M.array.dtype), M.entries)
                        for M in (sf.U, sf.D, sf.V)],
                       sf.invariant_factors, kernel_mod(A, m),
                       solve_mod(A, b, m)])


def _cohomology_outputs(m) -> str:
    return json.dumps([
        (H.invariant_factors, H.cocycle_order, H.coboundary_order,
         [g.values.tolist() for g in H.generators])
        for H in (cohomology_group(X, n, m) for X, n in (
            (make_affine(3, 1, 2, 2), 2), (make_affine(4, 1, -1, -1), 2),
            (make_block(2, 1, 1), 2), (make_affine(6, 5, 1), 1),
            (make_affine(5, 2, 1), 2)))])


@pytest.mark.parametrize("m", (4, 6, 12, 36, 2 ** 40 + 15, 3 ** 50))
def test_narrow_rungs_change_no_output(monkeypatch, m):
    # the same runs with the int16 and int32 rungs taken away; past int16,
    # a must not start on int16 just because its entries are small
    rng = random.Random(f"rungs/{m}")
    cases = [LADDER] + [
        _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7),
                       rng.choice((6, 36, m)))
        for _ in range(30)]
    runs = {}
    for narrow in (True, False):
        with monkeypatch.context() as patch:
            if not narrow:
                patch.setattr(modalg, "_NARROW", ())
            rng = random.Random(m)
            runs[narrow] = [_outputs(entries, m,
                                     [rng.randrange(m) for _ in entries])
                            for entries in cases]
            # cochain values are int64, so H^n takes m below 2^63
            if m < 2 ** 63:
                runs[narrow].append(_cohomology_outputs(m))
    assert runs[True] == runs[False]


def _dict_of_bytes_rows(a, m):
    """`_reduced_rows` as it ran on int64: one dict lookup per live row,
    keyed on the row's bytes (on tuples when a is dtype=object)."""
    a = modalg._array(a, m) % m
    a[a > m // 2] -= m
    key = tuple if a.dtype == object else bytes
    first = {}
    for i in np.flatnonzero(a.any(axis=1)):
        first.setdefault(key(a[i]), i)
    return a[list(first.values())]


@pytest.mark.parametrize("m", (2, 3, 12, 40000, 2 ** 31 + 11,
                               2 ** 40 + 15, 3 ** 50))
def test_reduced_rows_match_the_dict_of_bytes_loop(m):
    rng = random.Random(f"reduced/{m}")
    cases = [np.zeros((0, 4), np.int64), np.zeros((3, 0), np.int64),
             np.zeros((4, 3), np.int64), np.zeros((2, 3), object),
             np.array([[1, 2, 3], [1 + m, 2 - m, 3], [0, 0, 0], [1, 2, 3],
                       [3, 2, 1]], dtype=object),
             np.array([[2 ** 70, 1], [0, 0], [2 ** 70 + m, 1 - m]],
                      dtype=object)]
    for _ in range(30):
        entries = _random_matrix(rng, rng.randint(1, 9), rng.randint(1, 6),
                                 rng.choice((6, m)))
        if rng.random() < 0.3:
            entries[0][0] += 2 ** 64
        cases.append(IntegerMatrix(entries).array)
    assert {a.dtype for a in cases} == {np.dtype(np.int64), np.dtype(object)}
    for a in cases:
        before = a.copy()
        got, want = modalg._reduced_rows(a, m), _dict_of_bytes_rows(a, m)
        assert got.shape == want.shape and got.tolist() == want.tolist()
        assert np.array_equal(a, before)


def _oracle_cohomology(X, n, m):
    """(invariant factors, cocycle order, kernel) of H^n mod m from the
    list core: its kernel, and its quotient by the columns of delta^(n-1)."""
    kernel = oracle.kernel(coboundary_matrix(X, n).entries, X.size ** n, m)
    image = [col for col in
             (coboundary_matrix(X, n - 1).array.T % m).tolist() if any(col)]
    return (oracle.quotient(kernel, image, m), prod(_orders(kernel, m)),
            kernel)


def _cohomology_sets():
    z3, z4 = make_affine(3, 1, 2, 2), make_affine(4, 1, -1, -1)
    return [z3, z4, FiniteYBSet(z3.r1, z3.r2), FiniteYBSet(z4.r1, z4.r2),
            swap_set(2), swap_set(3), make_affine(3, 2, 1),
            make_affine(4, 1, 3), make_affine(5, 2, 1), make_affine(6, 5, 1),
            make_affine(6, 1, 5, 5), make_affine(9, 4, 7),
            make_block(2, 1, 1), make_omega(2, 2, 2)]


COHOMOLOGY_MODULI = (2, 3, 4, 5, 6, 8, 9, 12, 25, 27, 30, 36, 72)
# every (set, arity) with |X|^(n+1) <= 1000; the list core takes up to
# 0.5 s a modulus past 100 cells, so each such case runs under one
# modulus, the moduli taken in turn
COHOMOLOGY_CASES = [(X, n) for X in _cohomology_sets() for n in range(1, 5)
                    if X.size ** (n + 1) <= 1000]
LARGE_CASES = [(X, n) for X, n in COHOMOLOGY_CASES if X.size ** (n + 1) > 100]


@pytest.mark.parametrize("m", COHOMOLOGY_MODULI)
def test_quotient_matches_the_list_core(m):
    # H^n by universal coefficients against the quotient of the spans
    turn = COHOMOLOGY_MODULI.index(m)
    cases = [(X, n) for X, n in COHOMOLOGY_CASES
             if X.size ** (n + 1) <= 100] + \
        LARGE_CASES[turn::len(COHOMOLOGY_MODULI)]
    for X, n in cases:
        H = cohomology_group(X, n, m)
        factors, cocycle_order, kernel = _oracle_cohomology(X, n, m)
        assert H.invariant_factors == factors, (X.label, n)
        assert H.cocycle_order == cocycle_order
        assert H.coboundary_order * H.order == cocycle_order
        assert [g.values.tolist() for g in H.generators] == kernel


def test_quotient_of_cohomology_spans_matches_the_list_core():
    X = make_affine(6, 5, 1)
    for m in (4, 6, 12):
        assert cohomology_group(X, 2, m).invariant_factors == \
            _oracle_cohomology(X, 2, m)[0]


# cases at n = 1-3 past the small ones that every modulus takes, on sets
# whose size shares a prime with 6, 12 and 36 or not
COMPOSITE_CASES = [
    (make_affine(6, 5, 1), 1), (make_affine(6, 1, 5, 5), 1),
    (make_affine(9, 4, 7), 1), (make_affine(6, 5, 1), 2),
    (make_affine(4, 1, 3), 2), (make_block(2, 1, 1), 2),
    (make_affine(3, 2, 1), 3), (make_affine(4, 1, 3), 3),
    (make_block(2, 1, 1), 3)]


@pytest.mark.parametrize("m", (6, 12, 36))
def test_two_kernels_match_the_list_core_on_composite_moduli(m):
    # H^n from the kernels of delta^n and delta^(n-1) against the list
    # core's quotient of spans, where Z_m has more than one prime part
    for X, n in COMPOSITE_CASES:
        H = cohomology_group(X, n, m)
        factors, cocycle_order, kernel = _oracle_cohomology(X, n, m)
        assert H.invariant_factors == factors, (X.label, n)
        assert H.cocycle_order == cocycle_order
        assert H.coboundary_order * H.order == cocycle_order
        assert [g.values.tolist() for g in H.generators] == kernel


def test_cohomology_takes_two_kernels_and_keeps_v_in_every_run(monkeypatch):
    # H^n reads kernel_mod of delta^n, then of delta^(n-1), and nothing
    # else eliminates; each Smith run keeps its V, one column per column
    # of the stack
    kernels, runs = [], []
    original_kernel = ybhomology.kernel_mod
    original_run = modalg._Smith._run

    def kernel_spy(A, m):
        kernels.append((A.rows, A.cols, m))
        return original_kernel(A, m)

    def run_spy(self):
        cols = self.a.shape[1]
        runs.append(isinstance(self.v, np.ndarray)
                    and self.v.shape == (cols, cols))
        return original_run(self)

    monkeypatch.setattr(ybhomology, "kernel_mod", kernel_spy)
    monkeypatch.setattr(modalg._Smith, "_run", run_spy)
    for X, n, m in ((make_affine(3, 1, 2, 2), 2, 6),
                    (make_block(2, 1, 1), 1, 4),
                    (make_affine(6, 5, 1), 2, 12), (swap_set(2), 3, 8)):
        kernels.clear()
        runs.clear()
        cohomology_group(X, n, m)
        q = X.size
        assert kernels == [(q ** (n + 1), q ** n, m),
                           (q ** n, q ** (n - 1), m)]
        assert runs == [True, True]


def test_moduli_with_large_prime_factors_are_not_factored():
    # H^n reads gcds of Smith factors with m, so a modulus with a 61-bit
    # prime factor costs no factoring; 4p is just under 2^63
    p = 2 ** 61 - 1
    for m in (p, 2 * p, 4 * p):
        for X, n in ((make_affine(3, 1, 2, 2), 2),
                     (make_affine(4, 1, -1, -1), 2),
                     (make_block(2, 1, 1), 2), (make_affine(6, 5, 1), 1)):
            H = cohomology_group(X, n, m)
            factors, cocycle_order, _ = _oracle_cohomology(X, n, m)
            assert H.invariant_factors == factors
            assert H.cocycle_order == cocycle_order


@pytest.mark.parametrize("m", (4096, 2 ** 61 - 1, 4 * (2 ** 61 - 1), 486))
def test_cyclic_kernel_orders_on_large_moduli(m):
    # too many elements to list: the orders multiply to the oracle's
    # kernel order, and each generator lies in the kernel with its order
    rng = random.Random(m)
    divisors = [d for d in (1, 2, 3, 4, 8, 64, 2 ** 61 - 1) if m % d == 0]
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = [[rng.randrange(m) * rng.choice(divisors)
                    if rng.random() < 0.7 else 0 for _ in range(cols)]
                   for _ in range(rows)]
        gens, orders = modalg._cyclic_kernel(entries, m)
        assert prod(orders) == prod(_orders(oracle.kernel(entries, cols, m),
                                            m))
        assert _orders(gens, m) == orders
        for g in gens:
            assert all(sum(e * x for e, x in zip(row, g)) % m == 0
                       for row in entries)


def _elements(gens, orders, m, width):
    return [tuple(sum(c * g[j] for c, g in zip(coefficients, gens)) % m
                  for j in range(width))
            for coefficients in product(*(range(o) for o in orders))]


def _orders(gens, m):
    return [m // gcd(m, *g) for g in gens]


@pytest.mark.parametrize("m", MODULI + (5, 15))
def test_cyclic_kernel_lists_each_kernel_element_once(m):
    rng = random.Random(900 + m)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 3)
        entries = [[rng.randint(-m, m) for _ in range(cols)]
                   for _ in range(rows)]
        gens, orders = modalg._cyclic_kernel(entries, m)
        assert all(o > 1 for o in orders)
        found = _elements(gens, orders, m, cols)
        assert len(set(found)) == len(found) == prod(orders)
        listed = oracle.kernel(entries, cols, m)
        assert set(found) == set(_elements(listed, _orders(listed, m),
                                           m, cols))
