"""Cubical (co)homology: boundaries, cocycle spaces, obstructions."""

import itertools
import json
import math
import random
import re
import time
from math import gcd, prod

import numpy as np
import pytest

from ybknots import (
    CochainTable,
    CubeEdge,
    FiniteYBSet,
    FormalChain,
    IntegerMatrix,
    boundary,
    coboundary,
    coboundary_matrix,
    cocycle_space,
    cohomology_group,
    color_cube,
    face_tuple,
    is_coboundary,
    is_cocycle,
    make_affine,
    make_block,
    make_omega,
    obstruction_cocycle,
    solve_mod,
    swap_set,
    errors,
    ybcore,
    ybhomology,
)
from ybknots.errors import (
    ArityMismatch,
    ColoringInconsistent,
    NotACocycle,
    ResourceBound,
)
from ybknots.reference import z3_biquandle, z3_cocycle, z4_biquandle, z4_cocycle

from test_modalg import _span

SMALL_SETS = [
    ("z3", z3_biquandle, 3),
    ("z4", z4_biquandle, 4),
    ("block2", lambda: make_block(2, 1, 1), 2),
    ("omega212", lambda: make_omega(2, 1, 2), 2),
    ("affine5", lambda: make_affine(5, 1, 4, 2), 5),
    ("swap5", lambda: swap_set(5), 5),
]

MEDIUM_SETS = SMALL_SETS + [
    ("affine6", lambda: make_affine(6, 1, 5, 5), 6),
    ("swap6", lambda: swap_set(6), 6),
]


def _d2_terms(X, x, y):
    r1, r2 = X.r(x, y)
    return [(1, (x,)), (1, (y,)), (-1, (r1,)), (-1, (r2,))]


def _d3_terms(X, x, y, z):
    a1, a2 = X.r(x, y)
    b1, _ = X.r(a2, z)
    c1, c2 = X.r(y, z)
    _, d2 = X.r(x, c1)
    return [
        (1, (x, y)), (1, (a2, z)), (1, (a1, b1)),
        (-1, (y, z)), (-1, (x, c1)), (-1, (d2, c2)),
    ]


def _d4_terms(X, x1, x2, x3, x4):
    r23_1, r23_2 = X.r(x2, x3)
    r12_1, r12_2 = X.r(x1, x2)
    r34_1, r34_2 = X.r(x3, x4)
    mid = X.r(r12_2, x3)
    chain2 = X.r(x2, r34_1)
    return [
        (1, (x1, x2, x3)),
        (1, (X.r(x1, r23_1)[1], r23_2, x4)),
        (1, (x1, r23_1, X.r(r23_2, x4)[0])),
        (1, (x2, x3, x4)),
        (-1, (r12_1, mid[0], X.r(mid[1], x4)[0])),
        (-1, (r12_2, x3, x4)),
        (-1, (x1, x2, r34_1)),
        (-1, (X.r(x1, chain2[0])[1], chain2[1], r34_2)),
    ]


def _collect(terms):
    acc = {}
    for coef, tup in terms:
        acc[tup] = acc.get(tup, 0) + coef
    return {t: c for t, c in acc.items() if c}


@pytest.mark.parametrize("name,maker,mod", SMALL_SETS,
                         ids=[s[0] for s in SMALL_SETS])
def test_boundary_matches_closed_forms(name, maker, mod):
    X = maker()
    n = X.size
    for x, y in itertools.product(range(n), repeat=2):
        assert boundary(X, (x, y)).terms == _collect(_d2_terms(X, x, y))
    for x, y, z in itertools.product(range(n), repeat=3):
        assert boundary(X, (x, y, z)).terms == _collect(_d3_terms(X, x, y, z))
    for tup in itertools.product(range(n), repeat=4):
        assert boundary(X, tup).terms == _collect(_d4_terms(X, *tup))
    # the matrix shares the facet table with boundary: check it on its own
    for arity, terms in ((1, _d2_terms), (2, _d3_terms), (3, _d4_terms)):
        rows = coboundary_matrix(X, arity).entries
        cubes = itertools.product(range(n), repeat=arity + 1)
        for row, tup in zip(rows, cubes, strict=True):
            faces = itertools.product(range(n), repeat=arity)
            assert {t: c for t, c in zip(faces, row, strict=True) if c} == \
                _collect(terms(X, *tup))


def test_boundary_of_singleton_vanishes():
    X = z4_biquandle()
    for x in range(4):
        ch = boundary(X, (x,))
        assert ch.arity == 0 and ch.is_zero()
    for call in (boundary, color_cube):
        with pytest.raises(ValueError, match="tuple entry 4 outside 0..3"):
            call(X, (0, 4))


def _boundary_of_chain(X, chain):
    acc = {}
    for tup, coef in chain.terms.items():
        for sub, c2 in boundary(X, tup).terms.items():
            acc[sub] = acc.get(sub, 0) + coef * c2
    return FormalChain(chain.arity - 1,
                       {t: c for t, c in acc.items() if c})


@pytest.mark.parametrize("name,maker,mod", SMALL_SETS,
                         ids=[s[0] for s in SMALL_SETS])
def test_boundary_squares_to_zero(name, maker, mod):
    X = maker()
    n = X.size
    for length in (2, 3, 4):
        for tup in itertools.product(range(n), repeat=length):
            assert _boundary_of_chain(X, boundary(X, tup)).is_zero()
    rng = random.Random(hash(name) & 0xFFFF)
    if n ** 5 <= 300:
        five = list(itertools.product(range(n), repeat=5))
    else:
        five = [tuple(rng.randrange(n) for _ in range(5)) for _ in range(60)]
    for tup in five:
        assert _boundary_of_chain(X, boundary(X, tup)).is_zero()


@pytest.mark.parametrize("name,maker,mod", MEDIUM_SETS,
                         ids=[s[0] for s in MEDIUM_SETS])
def test_coboundary_matrices_compose_to_zero(name, maker, mod):
    X = maker()
    m1 = np.array(coboundary_matrix(X, 1).entries)
    m2 = np.array(coboundary_matrix(X, 2).entries)
    m3 = np.array(coboundary_matrix(X, 3).entries)
    assert not (m2 @ m1).any()
    assert not (m3 @ m2).any()


def test_coboundary_is_composition_with_boundary():
    X = z4_biquandle()
    rng = random.Random(7)
    for arity in (1, 2):
        for _ in range(5):
            f = CochainTable(
                arity, 4, 4,
                [rng.randrange(4) for _ in range(4 ** arity)])
            df = coboundary(X, f)
            assert df.arity == arity + 1
            for tup in itertools.product(range(4), repeat=arity + 1):
                expect = sum(c * f(*t)
                             for t, c in boundary(X, tup).terms.items()) % 4
                assert df(*tup) == expect


def test_square_coloring_frozen():
    X = z4_biquandle()
    col = color_cube(X, (0, 1))
    assert col.dimension == 2
    assert col.initial_path() == (0, 1)
    # R(0, 1) = (3, 2): bottom/left edges carry inputs, top/right outputs
    assert col.color(1, 0) == 0
    assert col.color(2, 1) == 1
    assert col.color(2, 0) == 3
    assert col.color(1, 2) == 2
    assert face_tuple(col, 1, 0) == (3,)
    assert face_tuple(col, 1, 1) == (1,)
    assert face_tuple(col, 2, 0) == (0,)
    assert face_tuple(col, 2, 1) == (2,)
    with pytest.raises(ValueError, match="not an edge of the 2-cube"):
        col.color(3, 0)
    with pytest.raises(ValueError,
                       match="^axis 3 out of range for dimension 2$"):
        face_tuple(col, 3, 0)
    with pytest.raises(ValueError, match="^side must be 0 or 1$"):
        face_tuple(col, 1, 2)


def test_cube_coloring_consistency_check():
    bad = FiniteYBSet([[(x + y) % 3 for y in range(3)] for x in range(3)],
                      [[x for _ in range(3)] for x in range(3)])
    edge = CubeEdge(direction=3, corner=0)
    message = "conflicting colors at edge CubeEdge(direction=3, corner=0)"
    for attempt in (lambda: color_cube(bad, (1, 0, 0)),
                    lambda: coboundary_matrix(bad, 2)):
        with pytest.raises(ColoringInconsistent) as caught:
            attempt()
        assert caught.value.edge == edge and str(caught.value) == message
    # two-dimensional cubes never see the failing overlap
    col = color_cube(bad, (1, 0))
    assert col.dimension == 2


def _first_conflict(X, n):
    for tup in itertools.product(range(X.size), repeat=n):
        try:
            color_cube(X, tup)
        except ColoringInconsistent as exc:
            return exc.edge
    return None


@pytest.mark.parametrize("slab", [None, 1], ids=["default-slab", "cube-slab"])
def test_slabs_keep_outputs_and_first_conflict(monkeypatch, slab):
    z4 = z4_biquandle()
    f = CochainTable.from_function(2, 4, 4, lambda x, y: (3 * x + y) % 4)
    expect = (coboundary_matrix(z4, 2), coboundary(z4, f))
    if slab is not None:
        monkeypatch.setattr(ybcore, "SLAB_ENTRIES", slab)
    assert (coboundary_matrix(z4, 2), coboundary(z4, f)) == expect
    rng = random.Random(3)
    conflicts = set()
    for _ in range(40):
        bad = FiniteYBSet(
            [[rng.randrange(3) for _ in range(3)] for _ in range(3)],
            [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
        # cube by cube, the first tuple whose cube conflicts decides
        first = _first_conflict(bad, 3)
        if first is None:
            continue
        conflicts.add(first)
        g = CochainTable.zero(2, 3, 3)
        for attempt in (lambda: coboundary_matrix(bad, 2),
                        lambda: coboundary(bad, g)):
            with pytest.raises(ColoringInconsistent) as caught:
                attempt()
            assert caught.value.edge == first
    assert len(conflicts) > 1


def test_formal_chain_render_and_json():
    X = z4_biquandle()
    ch = boundary(X, (0, 1))
    assert ch.render() == "+1·(0) +1·(1) -1·(2) -1·(3)"
    assert boundary(X, (1, 2)).render() == "0"
    assert boundary(X, (0, 1, 2)).render() == \
        "-1·(0,2) -1·(1,2) +1·(2,2) +1·(3,2)"
    data = ch.to_json()
    json.dumps(data)
    assert data["arity"] == 1
    assert {"coefficient": 1, "tuple": [0]} in data["terms"]
    assert boundary(X, (1, 2)).to_json() == {"arity": 1, "terms": []}
    assert (ch - ch).is_zero()
    with pytest.raises(ArityMismatch, match="^chain arities differ: 1 vs 2$"):
        ch + boundary(X, (0, 1, 2))


def test_printed_cocycles_are_cocycles():
    z4 = z4_biquandle()
    assert is_cocycle(z4, z4_cocycle())
    z3 = z3_biquandle()
    for q1, q2, q3 in itertools.product(range(-1, 2), repeat=3):
        assert is_cocycle(z3, z3_cocycle(q1, q2, q3))


def test_indicator_is_not_a_cocycle():
    X = z4_biquandle()
    f = CochainTable.from_function(
        2, 4, 4, lambda x, y: 1 if (x, y) == (0, 1) else 0)
    assert not is_cocycle(X, f)


def _in_span(gens, target, m):
    if not gens:
        return all(v % m == 0 for v in target.values)
    cols = [[int(v) for v in g.values] for g in gens]
    matrix = IntegerMatrix([[col[i] for col in cols]
                            for i in range(len(cols[0]))])
    return solve_mod(matrix, [int(v) for v in target.values], m) is not None


def test_type_one_cocycle_spaces():
    z3 = z3_biquandle()
    space3 = cocycle_space(z3, 2, 3, type_one=True)
    assert len(space3) == 3
    w3 = z3.biquandle_witness()
    for g in space3:
        assert is_cocycle(z3, g)
        for a in range(3):
            assert g(w3.x_of[a], a) == 0
            assert g(a, w3.y_of[a]) == 0
    for params in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 1)):
        assert _in_span(space3, z3_cocycle(*params), 3)

    z4 = z4_biquandle()
    space4 = cocycle_space(z4, 2, 4, type_one=True)
    assert len(space4) == 7
    assert _in_span(space4, z4_cocycle(), 4)
    w4 = z4.biquandle_witness()
    for g in space4:
        assert is_cocycle(z4, g)
        for a in range(4):
            assert g(w4.x_of[a], a) == 0
            assert g(a, w4.y_of[a]) == 0


def test_arity_one_cocycle_spaces_frozen():
    z4 = z4_biquandle()
    gens4 = [list(map(int, g.values)) for g in cocycle_space(z4, 1, 4)]
    assert gens4 == [[2, 2, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    z3 = z3_biquandle()
    gens3 = [list(map(int, g.values)) for g in cocycle_space(z3, 1, 3)]
    assert gens3 == [[2, 1, 0], [0, 2, 1]]


def test_type_one_requires_arity_two():
    with pytest.raises(ValueError):
        cocycle_space(z4_biquandle(), 1, 4, type_one=True)


def test_is_coboundary_round_trip():
    X = z4_biquandle()
    rng = random.Random(11)
    for _ in range(5):
        g = CochainTable(1, 4, 4, [rng.randrange(4) for _ in range(4)])
        dg = coboundary(X, g)
        h = is_coboundary(X, dg)
        assert h is not None
        assert np.array_equal(coboundary(X, h).values, dg.values)
    with pytest.raises(ValueError):
        is_coboundary(X, CochainTable.zero(1, 4, 4))


def test_block_second_coordinate_cocycle_is_not_a_coboundary():
    B = make_block(3, 1, 1)
    psi = CochainTable.from_function(2, 9, 3, lambda x, y: y % 3 - x % 3)
    assert is_cocycle(B, psi)
    assert is_coboundary(B, psi) is None


def test_cohomology_frozen_values():
    z4 = z4_biquandle()
    H = cohomology_group(z4, 2, 4)
    assert H.invariant_factors == (2, 2, 2, 2, 4, 4, 4, 4)
    assert H.cocycle_order == 32768 and H.coboundary_order == 8
    assert H.order == 4096

    z3 = z3_biquandle()
    H3 = cohomology_group(z3, 2, 3)
    assert H3.invariant_factors == (3, 3, 3)
    assert H3.cocycle_order == 81 and H3.coboundary_order == 3
    assert H3.order == 27

    H1 = cohomology_group(z4, 1, 4)
    assert H1.invariant_factors == (2, 4, 4)
    assert H1.order == 32
    assert cohomology_group(z3, 1, 3).invariant_factors == (3, 3)

    B2 = cohomology_group(make_block(2, 1, 1), 2, 2)
    assert B2.invariant_factors == (2,) * 8
    assert B2.cocycle_order == 512 and B2.coboundary_order == 2

    data = H3.to_json()
    json.dumps(data)
    assert data["invariant_factors"] == [3, 3, 3]
    assert data["order"] == 27


@pytest.mark.parametrize("maker,m", [(z3_biquandle, 3), (z4_biquandle, 4),
                                     (z4_biquandle, 2), (z3_biquandle, 6)])
def test_cohomology_orders_match_spans(maker, m):
    # the orders and factors are read off Smith runs; count both spans
    # instead.  z3 mod 6 has an Ext part: H^2 is Z3 x Z3 x Z6.
    X = maker()
    H = cohomology_group(X, 2, m)
    width = X.size ** 2
    cocycles = _span([g.values.tolist() for g in H.generators], m, width)
    image = (np.array(coboundary_matrix(X, 1).entries).T % m).tolist()
    coboundaries = _span(image, m, width)
    assert coboundaries <= cocycles
    assert H.cocycle_order == len(cocycles)
    assert H.coboundary_order == len(coboundaries)
    assert H.order == len(cocycles) // len(coboundaries)
    # the t-torsion of H^n, {x : t x a coboundary} over the coboundaries,
    # has order prod gcd(t, a_i) for each t dividing m
    assert all(b % a == 0 for a, b in zip(H.invariant_factors,
                                          H.invariant_factors[1:]))
    for t in (t for t in range(1, m + 1) if m % t == 0):
        torsion = sum(tuple(t * v % m for v in x) in coboundaries
                      for x in cocycles)
        assert torsion == len(coboundaries) * prod(
            gcd(t, a) for a in H.invariant_factors)


def test_cohomology_generators_are_cocycles():
    z3 = z3_biquandle()
    H = cohomology_group(z3, 2, 3)
    assert len(H.generators) > 0
    for g in H.generators:
        assert is_cocycle(z3, g)


def test_cohomology_guards():
    with pytest.raises(ResourceBound,
                       match=r"cohomology_group: \|X\|\^\(n\+1\) = "
                       f"{25 ** 4} exceeds the cap 200000"):
        cohomology_group(swap_set(25), 3, 2)
    with pytest.raises(ResourceBound, match="cohomology_group: "):
        cohomology_group(z3_biquandle(), 1, 3, max_cells=5)
    # a cap below 1 would refuse every input
    for cap in (0, -5):
        with pytest.raises(ValueError,
                           match=f"^max_cells must be at least 1, got {cap}$"):
            cohomology_group(z3_biquandle(), 1, 3, max_cells=cap)
    with pytest.raises(ValueError):
        cohomology_group(z3_biquandle(), 0, 3)
    with pytest.raises(ValueError, match="^arity must be non-negative$"):
        coboundary_matrix(z3_biquandle(), -1)


def test_absurd_arities_are_refused_without_the_power(monkeypatch):
    # 3^(10^7) takes about a second to compute and 3^(2*10^7 + 1) several:
    # the refusal reads the size off the exponent before any power
    def no_power(*args):
        raise AssertionError("computed the power")

    # built first: its LinearForm sizes q^d through check_cap too
    X = make_affine(3, 2, 1)
    monkeypatch.setattr(errors, "check_cap", no_power)
    cases = [
        (lambda: CochainTable.zero(10 ** 7, 3, 2),
         r"CochainTable.zero: set_size\^arity = 2\^15849625 or more "
         rf"exceeds the cap {2 ** 24}"),
        (lambda: coboundary_matrix(X, 10 ** 7),
         r"coboundary_matrix: \|X\|\^\(n\+1\) x \|X\|\^n = "
         rf"2\^31699251 or more exceeds the cap {2 ** 24}"),
        (lambda: cohomology_group(X, 10 ** 7, 3),
         r"cohomology_group: \|X\|\^\(n\+1\) = 2\^15849626 or more "
         r"exceeds the cap 200000"),
        # no exponent is too large to read
        (lambda: cohomology_group(X, 10 ** 400, 3),
         r"cohomology_group: \|X\|\^\(n\+1\) = 2\^\d{401} or more")]
    for call, message in cases:
        start = time.perf_counter()
        with pytest.raises(ResourceBound, match=message):
            call()
        assert time.perf_counter() - start < 1


def test_a_cap_too_long_to_print_is_shown_as_a_power_of_two():
    # a cap of 10^30000 has more than 4300 digits: the refusal names it by
    # its power of two, as it does the count, on both routes of the check
    X = make_affine(3, 2, 1)
    for n, count, cap, shown in (
            (10 ** 5, 158497, 10 ** 30000, 99657),
            # 3^10001 has 15852 bits, so it is computed before the compare
            (10 ** 4, 15851, 10 ** 4400, 14616)):
        with pytest.raises(ResourceBound,
                           match=rf"^cohomology_group: \|X\|\^\(n\+1\) = "
                           rf"2\^{count} or more exceeds the cap "
                           rf"2\^{shown} or more$"):
            cohomology_group(X, n, 3, max_cells=cap)
    with pytest.raises(ResourceBound, match=r"^stage: what = 2\^257 or more "
                       r"exceeds the cap 2\^256 or more$"):
        errors.check_cap("stage", "what", 2 ** 258 - 1, 2 ** 256)
    # below 2^256 both print exactly
    with pytest.raises(ResourceBound, match=rf"^stage: what = {2 ** 255} "
                       rf"exceeds the cap {2 ** 255 - 1}$"):
        errors.check_cap("stage", "what", 2 ** 255, 2 ** 255 - 1)


def test_power_cap_reads_a_lower_bound_of_the_exact_power():
    # past 2^16 bits the power is refused as 2^k or more with k at most
    # its exact floor(log2) and at least one below it; up to 2^16 bits it
    # is computed, so the message is the exact one
    rng = random.Random(11)
    for _ in range(200):
        base = rng.choice([2, 3, 15, 4096, rng.randrange(2, 10 ** 6)])
        bits = rng.randrange(2 ** 16 - 40, 2 ** 16 + 400)
        exponent = max(1, round(bits / math.log2(base)))
        exact = (base ** exponent).bit_length() - 1
        with pytest.raises(ResourceBound) as raised:
            errors.check_power_cap("stage", "what", base, exponent, 2 ** 24)
        k = int(re.fullmatch(r"stage: what = 2\^(\d+) or more exceeds the "
                             rf"cap {2 ** 24}", str(raised.value)).group(1))
        assert exact - 1 <= k <= exact, (base, exponent)
        if exact < 2 ** 16:
            assert k == exact, (base, exponent)
    # within the cap, or a cap as large as the power, nothing is refused
    errors.check_power_cap("stage", "what", 2, 24, 2 ** 24)
    errors.check_power_cap("stage", "what", 3, 10 ** 5, 3 ** 10 ** 5)
    errors.check_power_cap("stage", "what", 1, 10 ** 9, 1)


def test_moduli_past_int64_are_refused_before_the_matrix(monkeypatch):
    # cochain values are int64, so a modulus past 2^63 - 1 is refused as
    # a ValueError before any coboundary matrix is built
    def refuse(*args):
        raise AssertionError("built a matrix")

    monkeypatch.setattr(ybhomology, "coboundary_matrix", refuse)
    for call in (lambda: cohomology_group(make_affine(3, 1, 2, 2), 1, 2 ** 70),
                 lambda: cocycle_space(make_affine(3, 1, 2, 2), 1, 2 ** 70),
                 lambda: cohomology_group(make_block(3, 1, 1), 2, 2 ** 64),
                 lambda: CochainTable(1, 3, 2 ** 63, [0, 1, 2])):
        with pytest.raises(ValueError, match="at most 2"):
            call()
    for bad in (1, 2 ** 63):
        with pytest.raises(ValueError):
            ybcore.check_modulus(bad)
    ybcore.check_modulus(2 ** 63 - 1)
    # values past int64 are reduced, not refused or wrapped
    assert CochainTable(1, 3, 7, [2 ** 70, -2 ** 80, 5]).values.tolist() == \
        [2 ** 70 % 7, -2 ** 80 % 7, 5]
    assert CochainTable(1, 2, 5, np.array([2 ** 63, 1], dtype=np.uint64)
                        ).values.tolist() == [2 ** 63 % 5, 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coboundary_is_exact_for_moduli_near_int64(n):
    # 2(n+1) residues near 2^63 sum past int64; int64 sums would wrap
    X = make_block(2, 1, 1)
    rng = random.Random(n)
    matrix = coboundary_matrix(X, n).entries
    for m in (2 ** 63 - 25, 2 ** 62 + 1):
        values = [rng.randrange(m) for _ in range(X.size ** n)]
        delta = coboundary(X, CochainTable(n, X.size, m, values))
        assert delta.values.tolist() == [
            sum(a * v for a, v in zip(row, values)) % m for row in matrix]


def test_coboundary_matrix_checks_its_cap_first(monkeypatch):
    def no_slabs(*args):
        raise AssertionError("a slab was colored")

    monkeypatch.setattr(ybhomology, "_facet_slabs", no_slabs)
    X = make_affine(15, 4, 11, 2)
    message = (r"coboundary_matrix: \|X\|\^\(n\+1\) x \|X\|\^n = "
               f"{15 ** 7} exceeds the cap {2 ** 24}")
    for call in (lambda: coboundary_matrix(X, 3),
                 lambda: cocycle_space(X, 3, 15),
                 lambda: is_coboundary(X, CochainTable.zero(4, 15, 15)),
                 # past the row cap, the matrix cap still refuses
                 lambda: cohomology_group(X, 3, 15, max_cells=15 ** 4)):
        with pytest.raises(ResourceBound, match=message):
            call()


def test_cube_dimension_cap_raises_before_the_schedule(monkeypatch):
    # every arity the matrix cap admits for |X| >= 2 stays within the cap
    n = 0
    while 2 ** (n + 2) * 2 ** (n + 1) <= ybcore.MAX_ENTRIES:
        n += 1
    assert n + 1 <= ybhomology.MAX_CUBE_DIMENSION

    def no_schedule(n):
        raise AssertionError("a schedule was built")

    monkeypatch.setattr(ybhomology, "_schedule", no_schedule)
    X = make_affine(3, 2, 1)
    cap = ybhomology.MAX_CUBE_DIMENSION
    for call, stage, n in (
            (lambda: boundary(X, [0] * 40), "boundary", 40),
            (lambda: color_cube(X, [0] * 13), "color_cube", 13),
            (lambda: coboundary(swap_set(1), CochainTable.zero(40, 1, 2)),
             "coboundary", 41),
            (lambda: coboundary_matrix(swap_set(1), 40),
             "coboundary_matrix", 41),
            (lambda: obstruction_cocycle(swap_set(1),
                                         CochainTable.zero(12, 1, 3)),
             "coboundary", 13),
            # a hand-built coloring reaches the schedule without color_cube
            (lambda: face_tuple(ybhomology.CubeColoring(13, ()), 1, 0),
             "face_tuple", 13),
            (lambda: ybhomology.CubeColoring(13, ()).color(1, 0),
             "CubeColoring.color", 13)):
        with pytest.raises(ResourceBound, match=rf"{stage}: cube dimension "
                           rf"= {n} exceeds the cap {cap}"):
            call()
    # the same gate refuses a cube with no edges, before the schedule
    for call, stage in (
            (lambda: color_cube(X, []), "color_cube"),
            (lambda: boundary(X, []), "boundary"),
            (lambda: ybhomology.CubeColoring(0, ()).color(1, 0),
             "CubeColoring.color")):
        with pytest.raises(ValueError, match=rf"{stage}: cube dimension "
                           "must be at least 1, got 0"):
            call()


def test_schedule_slots_are_the_edges_of_the_cube():
    for n in range(1, ybhomology.MAX_CUBE_DIMENSION + 1):
        sched = ybhomology._schedule(n)
        slots = sched.slots
        assert len(slots) == n << (n - 1)
        assert set(slots) == {(d, c) for d in range(1, n + 1)
                              for c in range(1 << n) if not c >> (d - 1) & 1}
        assert sorted(slots.values()) == list(range(len(slots)))
        assert all(sched.edges[slot] == edge for edge, slot in slots.items())
        # every face fires once and colors each edge off the initial path,
        # whatever X is, so no dimension the gate admits is incomplete
        assert sorted(out for out, *_ in sched.assign) == \
            list(range(n, len(slots)))
        assert len(sched.assign) + sched.compare.shape[1] == \
            n * (n - 1) * 2 ** n // 4
        # a coloring whose colors are the slot numbers reads each edge's
        # slot, whether or not the corner names the edge's own bit
        coloring = ybhomology.CubeColoring(n, tuple(range(len(slots))))
        for (d, c), slot in slots.items():
            assert coloring.color(d, c) == slot
            assert coloring.color(d, c | 1 << (d - 1)) == slot


def test_obstruction_frozen_values():
    z4 = z4_biquandle()
    f4 = CochainTable.from_function(1, 4, 4, lambda x: x)
    psi4 = obstruction_cocycle(z4, f4)
    assert psi4.arity == 2 and psi4.modulus == 4
    assert list(map(int, psi4.values)) == [
        0, 3, 0, 0, 0, 3, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1]
    assert is_cocycle(z4, psi4)

    z3 = z3_biquandle()
    f3 = CochainTable.from_function(1, 3, 3, lambda x: x)
    psi3 = obstruction_cocycle(z3, f3)
    assert list(map(int, psi3.values)) == [0, 2, 0, 0, 0, 0, 0, 0, 1]
    assert is_cocycle(z3, psi3)


def test_obstruction_colors_each_cube_once(monkeypatch):
    z4 = z4_biquandle()
    f = CochainTable.from_function(2, 4, 4,
                                   lambda x, y: int((x, y) == (0, 1)))
    calls = []
    real = ybhomology._edge_table

    def counting(X, tuples):
        calls.append(len(tuples))
        return real(X, tuples)

    monkeypatch.setattr(ybhomology, "_edge_table", counting)
    coboundary(z4, f)
    one_pass = list(calls)
    calls.clear()
    with pytest.raises(NotACocycle):
        obstruction_cocycle(z4, f)
    assert calls == one_pass
    calls.clear()
    obstruction_cocycle(z4, z4_cocycle())
    assert calls == one_pass


def test_obstruction_validation():
    z4 = z4_biquandle()
    bad = CochainTable.from_function(1, 4, 4, lambda x: 1 if x == 0 else 0)
    assert not is_cocycle(z4, bad)
    with pytest.raises(NotACocycle):
        obstruction_cocycle(z4, bad)
    X6 = make_affine(6, 1, 5, 5)
    with pytest.raises(ValueError):
        obstruction_cocycle(X6, CochainTable.zero(1, 6, 6))


def test_obstruction_refuses_a_lift_past_int64_before_factoring(monkeypatch):
    # the lift to p^2 would not fit a CochainTable; p = 2^61 - 1 is refused
    # before its primality is tested by trial division
    def refuse(p):
        raise AssertionError("factored the modulus")

    monkeypatch.setattr(ybhomology, "_is_prime_power", refuse)
    p = 2 ** 61 - 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"p\^2 must be .* got {p * p}"):
        obstruction_cocycle(make_affine(3, 1, 2, 2),
                            CochainTable.zero(1, 9, p))
    assert time.perf_counter() - start < 1
