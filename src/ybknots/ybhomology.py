"""Cubical homology of a Yang-Baxter set.

An n-tuple of colors on the initial path of the n-cube propagates to
every edge through the square faces.  Which edges a face can color never
depends on the colors, so `_schedule` replays the propagation once per n
as steps over dense edge slots, with the slots and signs of the 2n
facets.  Array gathers apply it to many cubes at once, in fixed-size
slabs, giving a facet table: the readings of each cube's facets.  Their
signed sum is the boundary; the same table gives the coboundary of
Z_m-valued cochains (a signed gather-sum), the coboundary matrix (a
signed scatter-add), cocycle spaces, cohomology groups, and the
obstruction cocycle measuring the failure of a mod-p cocycle to lift to
Z_{p^2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, prod
from typing import NamedTuple

import numpy as np

from .errors import (
    ArityMismatch,
    ColoringIncomplete,
    ColoringInconsistent,
    NotACocycle,
    check_cap,
)
from . import ybcore
from .modalg import (IntegerMatrix, _invariant_form, _orders, _stacked_smith,
                     kernel_mod, solve_mod)
from .ybcore import (_INT64_MAX, MAX_TABLE_ENTRIES, CochainTable, FiniteYBSet,
                     _check_colors, _decode, _encode, _integer,
                     check_modulus)

DEFAULT_MAX_CELLS = 200000
# Largest cube dimension n: the schedule's faces and edges grow as 4^n,
# and n = 12 is the largest arity + 1 the matrix cap admits for |X| >= 2.
MAX_CUBE_DIMENSION = 12


@dataclass(frozen=True, slots=True)
class CubeEdge:
    """Edge of the n-cube along `direction` (1-based); `corner` holds the
    fixed coordinates as bits (bit i-1 for direction i, own bit zeroed)."""

    direction: int
    corner: int

    def __post_init__(self):
        if self.direction < 1:
            raise ValueError("direction is 1-based")
        object.__setattr__(self, "corner",
                           self.corner & ~(1 << (self.direction - 1)))


@dataclass(frozen=True, slots=True)
class CubeColoring:
    """Colors of the n * 2^(n-1) edges of the n-cube, by schedule slot."""

    dimension: int
    colors: tuple

    def color(self, direction: int, corner: int) -> int:
        check_cap("CubeColoring.color", "cube dimension", self.dimension,
                  MAX_CUBE_DIMENSION)
        edge = CubeEdge(_integer(direction, "direction"),
                        _integer(corner, "corner"))
        slot = _schedule(self.dimension).slots.get(edge)
        if slot is None:
            raise ValueError(f"{edge} is not an edge of the "
                             f"{self.dimension}-cube")
        return self.colors[slot]

    def initial_path(self) -> tuple[int, ...]:
        return self.colors[:self.dimension]


class _Schedule(NamedTuple):
    edges: tuple            # CubeEdge of each slot: initial path, assigns
    slots: dict             # slot of each CubeEdge
    assign: tuple           # (out, in1, in2, part): out = R_part(in1, in2)
    compare: np.ndarray     # 4 x k: out, in1, in2, part; out must match
    facets: np.ndarray      # 2n x (n-1): slots read by facet 2(axis-1)+side
    signs: np.ndarray       # 2n: sign of facet 2(axis-1)+side


@lru_cache(maxsize=None)
def _schedule(n: int) -> _Schedule:
    """Steps and facets of the n-cube.

    The edge in direction i on the initial path (earlier coordinates 1,
    later ones 0) holds the i-th color.  On the square face (i, j, base),
    i < j, the input edges are (i, base) and (j, base + 2^(i-1)) and the
    outputs are (j, base) = R1 and (i, base + 2^(j-1)) = R2 of the input
    pair.  The faces are swept in order until none is left that can fire;
    a face fires once both inputs are colored, assigning each uncolored
    output and comparing each colored one.  Sweeping again only repeats
    a fired face's steps on the same colors, so each face fires once.
    """
    index = {CubeEdge(i, (1 << (i - 1)) - 1): i - 1 for i in range(1, n + 1)}
    pending = [(i, j, base) for i in range(1, n + 1)
               for j in range(i + 1, n + 1) for base in range(1 << n)
               if not base & (1 << (i - 1) | 1 << (j - 1))]
    assign, compare = [], []
    while pending:
        waiting = []
        for i, j, base in pending:
            in1 = index.get(CubeEdge(i, base))
            in2 = index.get(CubeEdge(j, base | 1 << (i - 1)))
            if in1 is None or in2 is None:
                waiting.append((i, j, base))
                continue
            for part, edge in enumerate((CubeEdge(j, base),
                                         CubeEdge(i, base | 1 << (j - 1)))):
                if edge in index:
                    compare.append((index[edge], in1, in2, part))
                else:
                    index[edge] = len(index)
                    assign.append((index[edge], in1, in2, part))
        if len(waiting) == len(pending):
            break
        pending = waiting
    if len(index) < n << (n - 1):
        raise ColoringIncomplete(f"{len(index)} of {n << (n - 1)} edges colored")
    # the edges that face_tuple reads
    facets = [[index[CubeEdge(d, (1 << (d - 1)) - 1 & ~(1 << (axis - 1))
                              | side << (axis - 1))]
               for d in range(1, n + 1) if d != axis]
              for axis in range(1, n + 1) for side in (0, 1)]
    signs = [(-1) ** (n - axis + side)
             for axis in range(1, n + 1) for side in (0, 1)]
    return _Schedule(tuple(index), index, tuple(assign),
                     np.array(compare, dtype=np.intp).reshape(-1, 4).T,
                     np.array(facets, dtype=np.intp).reshape(2 * n, n - 1),
                     np.array(signs, dtype=np.int64))


def _edge_table(X: FiniteYBSet, tuples: np.ndarray) -> np.ndarray:
    """Edge colors (columns) of the cubes colored by the rows of `tuples`.
    A conflict raises ColoringInconsistent for the first conflicting row
    at its first failing compare, as a cube-by-cube sweep would."""
    sched = _schedule(tuples.shape[1])
    tables = np.stack((X.r1, X.r2))
    # column-major: every step reads and writes whole columns
    table = np.empty((len(tuples), len(sched.edges)), np.int64, order="F")
    table[:, :tuples.shape[1]] = tuples
    for out, in1, in2, part in sched.assign:
        table[:, out] = tables[part][table[:, in1], table[:, in2]]
    out, in1, in2, part = sched.compare
    bad = tables[part, table[:, in1], table[:, in2]] != table[:, out]
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        raise ColoringInconsistent(sched.edges[out[np.argmax(bad[row])]])
    return table


def _facet_slabs(X: FiniteYBSet, n: int):
    """Yield (rows, columns) over the cubes colored by X^n, in order:
    columns[r] holds the index in X^(n-1) (lexicographic) of each facet
    reading of the cube of tuple number rows[r]."""
    sched = _schedule(n)
    total = X.size ** n
    step = max(1, ybcore.SLAB_ENTRIES // len(sched.edges))
    for start in range(0, total, step):
        rows = np.arange(start, min(start + step, total))
        table = _edge_table(X, _decode(rows, X.size, n))
        yield rows, _encode(table[:, sched.facets], X.size)


def color_cube(X: FiniteYBSet, initial) -> CubeColoring:
    """Propagate the initial-path colors over the whole n-cube.  Raises
    ColoringInconsistent on a conflict and ColoringIncomplete if edges
    stay uncolored; neither happens when X satisfies the Yang-Baxter
    equation."""
    initial = _check_colors(X.size, initial)
    check_cap("color_cube", "cube dimension", len(initial),
              MAX_CUBE_DIMENSION)
    row = _edge_table(X, np.array([initial], dtype=np.int64).reshape(1, -1))
    return CubeColoring(len(initial), tuple(row[0].tolist()))


def face_tuple(coloring: CubeColoring, axis: int, side: int) -> tuple[int, ...]:
    """Colors along the initial path of the facet where coordinate `axis`
    is frozen at `side`: the j-th entry is the edge in the j-th remaining
    direction, earlier remaining coordinates at 1, later ones at 0."""
    n = coloring.dimension
    axis, side = _integer(axis, "axis"), _integer(side, "side")
    if not 1 <= axis <= n:
        raise ValueError(f"axis {axis} out of range for dimension {n}")
    if side not in (0, 1):
        raise ValueError("side must be 0 or 1")
    check_cap("face_tuple", "cube dimension", n, MAX_CUBE_DIMENSION)
    return tuple(coloring.colors[slot]
                 for slot in _schedule(n).facets[2 * (axis - 1) + side])


@dataclass(frozen=True)
class FormalChain:
    """Integer combination of arity-`arity` tuples."""

    arity: int
    terms: dict

    def __add__(self, other: "FormalChain") -> "FormalChain":
        if self.arity != other.arity:
            raise ArityMismatch(
                f"chain arities differ: {self.arity} vs {other.arity}")
        merged = dict(self.terms)
        for t, c in other.terms.items():
            merged[t] = merged.get(t, 0) + c
        return FormalChain(self.arity,
                           {t: c for t, c in merged.items() if c})

    def __sub__(self, other: "FormalChain") -> "FormalChain":
        return self + FormalChain(other.arity,
                                  {t: -c for t, c in other.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def render(self) -> str:
        """Text like '+1·(0,1) -2·(2,0)', terms in lexicographic order."""
        if not self.terms:
            return "0"
        parts = []
        for t in sorted(self.terms):
            c = self.terms[t]
            body = ",".join(str(x) for x in t)
            parts.append(f"{'+' if c > 0 else '-'}{abs(c)}·({body})")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"arity": self.arity,
                "terms": [{"coefficient": c, "tuple": list(t)}
                          for t, c in sorted(self.terms.items())]}


def boundary(X: FiniteYBSet, tup) -> FormalChain:
    """Signed sum of the 2n facet readings of the cube colored by `tup`;
    the facet at coordinate k, side d carries sign (-1)^(n-k+d)."""
    tup = _check_colors(X.size, tup)
    n = len(tup)
    if n < 1:
        raise ValueError("boundary needs at least a 1-tuple")
    check_cap("boundary", "cube dimension", n, MAX_CUBE_DIMENSION)
    sched = _schedule(n)
    row = _edge_table(X, np.array([tup], dtype=np.int64))[0]
    terms: dict = {}
    for facet, sign in zip(row[sched.facets].tolist(), sched.signs.tolist()):
        face = tuple(facet)
        terms[face] = terms.get(face, 0) + sign
    return FormalChain(n - 1, {t: c for t, c in terms.items() if c})


def _check_cochain(X: FiniteYBSet, f: CochainTable):
    if f.set_size != X.size:
        raise ArityMismatch(
            f"cochain lives on a set of size {f.set_size}, X has {X.size}")


def coboundary(X: FiniteYBSet, f: CochainTable) -> CochainTable:
    """(delta f)(w) = sum of sign * f(facet reading) over the facets of
    the cube colored by w, as a table on X^(arity+1)."""
    _check_cochain(X, f)
    check_cap("coboundary", "cube dimension", f.arity + 1,
              MAX_CUBE_DIMENSION)
    signs = _schedule(f.arity + 1).signs
    values = f.values
    # each sum has len(signs) terms below the modulus; past int64 it
    # takes Python ints
    if len(signs) * f.modulus > _INT64_MAX:
        values = values.astype(object)
    return CochainTable(f.arity + 1, X.size, f.modulus, np.concatenate(
        [values[columns] @ signs
         for _, columns in _facet_slabs(X, f.arity + 1)]))


def coboundary_matrix(X: FiniteYBSet, n: int) -> IntegerMatrix:
    """Integer matrix of delta from arity-n to arity-(n+1) cochains: rows
    indexed by X^(n+1), columns by X^n (lexicographic, first coordinate
    most significant), entry = signed multiplicity of the column tuple
    among the facet readings of the row tuple's cube."""
    n = _integer(n, "arity")
    if n < 0:
        raise ValueError("arity must be non-negative")
    shape = (X.size ** (n + 1), X.size ** n)
    # the matrix is one int64 array: 2^24 entries are 128 MB
    check_cap("coboundary_matrix", "|X|^(n+1) x |X|^n", shape[0] * shape[1],
              MAX_TABLE_ENTRIES)
    check_cap("coboundary_matrix", "cube dimension", n + 1,
              MAX_CUBE_DIMENSION)
    signs = _schedule(n + 1).signs
    out = np.zeros(shape, dtype=np.int64)
    for rows, columns in _facet_slabs(X, n + 1):
        np.add.at(out, (rows.reshape(-1, 1), columns), signs)
    return IntegerMatrix(out)


def is_cocycle(X: FiniteYBSet, f: CochainTable) -> bool:
    """True when delta f vanishes identically mod f.modulus."""
    return coboundary(X, f).is_zero()


def is_coboundary(X: FiniteYBSet, f: CochainTable):
    """A cochain g with delta g = f, or None if f is not a coboundary.

    Solves the linear system over Z_m exactly; requires arity >= 2 (the
    coboundary of arity-0 cochains is identically zero, so only the zero
    arity-1 cochain is a coboundary).
    """
    _check_cochain(X, f)
    if f.arity < 2:
        raise ValueError("is_coboundary needs a cochain of arity >= 2")
    matrix = coboundary_matrix(X, f.arity - 1)
    solution = solve_mod(matrix, f.values, f.modulus)
    if solution is None:
        return None
    return CochainTable(f.arity - 1, X.size, f.modulus, solution)


def cocycle_space(X: FiniteYBSet, n: int, m: int,
                  type_one: bool = False) -> list[CochainTable]:
    """Generators of the arity-n cocycles mod m.

    With type_one (arity 2 only) the rows forcing f to vanish on the
    fixed pairs (x_of[a], a) and (a, y_of[a]) are appended before taking
    the kernel, which carves out the cocycles usable as state-sum weights.
    A modulus no CochainTable can hold raises ValueError first.
    """
    m = check_modulus(m)
    matrix = coboundary_matrix(X, n)
    if type_one:
        if n != 2:
            raise ValueError("the type-one condition applies to arity 2")
        witness = X.biquandle_witness()
        a = np.arange(X.size)
        fixed = np.zeros((2 * X.size, matrix.cols), dtype=np.int64)
        fixed[2 * a, _encode(np.stack((witness.x_of, a), 1), X.size)] = 1
        fixed[2 * a + 1, _encode(np.stack((a, witness.y_of), 1), X.size)] = 1
        matrix = IntegerMatrix(np.concatenate((matrix.array, fixed)))
    return [CochainTable(n, X.size, m, g) for g in kernel_mod(matrix, m)]


@dataclass(frozen=True)
class CohomologyReport:
    """Cocycles modulo coboundaries in one arity."""

    arity: int
    modulus: int
    invariant_factors: tuple[int, ...]
    cocycle_order: int
    coboundary_order: int
    generators: tuple[CochainTable, ...]

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def to_json(self) -> dict:
        return {"arity": self.arity, "modulus": self.modulus,
                "invariant_factors": list(self.invariant_factors),
                "order": self.order,
                "cocycle_order": self.cocycle_order,
                "coboundary_order": self.coboundary_order,
                "cocycle_generators": [g.to_json() for g in self.generators]}


def cohomology_group(X: FiniteYBSet, n: int, m: int,
                     max_cells: int | None = None) -> CohomologyReport:
    """Invariant factors of ker(delta^n) / im(delta^(n-1)) over Z_m.

    By the universal coefficient theorem H^n(X; Z_m) is
    Hom(H_n, Z_m) + Ext(H_(n-1), Z_m), so no quotient of spans is
    taken.  The cocycles are Hom(H_n, Z_m) + Z_m^r, r the rank of
    delta^(n-1), so the orders of `kernel_mod`'s generators, in chain
    order, end in at least r copies of m.  Each invariant factor d of
    delta^(n-1) adds Z_gcd(d, m) to Ext(H_(n-1), Z_m) and bounds one of
    those Z_m; the Smith run of delta^(n-1) stacked over m*I has one
    factor gcd(d, m) for each d and m for each column past the rank, so
    its factors below m are the summands that replace a Z_m.

    Assembling delta^n enumerates |X|^(n+1) cube colorings; max_cells
    (default 200000) caps that count and ResourceBound reports overruns.
    A modulus no CochainTable can hold raises ValueError before any
    matrix is built.
    """
    n = _integer(n, "arity")
    check_cap("cohomology_group", "|X|^(n+1)", X.size ** (n + 1),
              DEFAULT_MAX_CELLS if max_cells is None
              else _integer(max_cells, "max_cells"))
    if n < 1:
        raise ValueError("arity must be at least 1")
    m = check_modulus(m)
    kernel = kernel_mod(coboundary_matrix(X, n), m)
    orders = _orders(kernel, m)
    traded = [f for f in _stacked_smith(coboundary_matrix(X, n - 1), m).factors
              if f < m]
    kept = len(orders) - len(traded)
    if orders[kept:] != [m] * len(traded):
        raise RuntimeError(
            f"cohomology_group: the cocycles of arity {n} mod {m} lack the "
            f"{len(traded)} summands Z_{m} that delta^{n - 1} bounds")
    return CohomologyReport(
        arity=n,
        modulus=m,
        invariant_factors=_invariant_form(orders[:kept] + traded),
        cocycle_order=prod(orders),
        coboundary_order=prod(m // f for f in traded),
        generators=tuple(CochainTable(n, X.size, m, g) for g in kernel),
    )


def _is_prime_power(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, isqrt(p) + 1):
        if p % d == 0:
            while p % d == 0:
                p //= d
            return p == 1
    return True


def obstruction_cocycle(X: FiniteYBSet, f: CochainTable) -> CochainTable:
    """Carry cochain of lifting f through Z_p -> Z_{p^2} -> Z_p.

    f must be a cocycle with prime-power modulus p.  Lifting the canonical
    representatives s(a) = a to Z_{p^2} and applying the integer coboundary
    gives values divisible by p; dividing by p yields a cocycle one arity
    up whose class obstructs lifting f to a mod-p^2 cocycle.
    """
    p = f.modulus
    # the lift is a cochain mod p^2; checked before p is factored
    check_modulus(p * p, "the lift's modulus p^2")
    if not _is_prime_power(p):
        raise ValueError(f"modulus {p} is not a prime power")
    # delta of the lift s(a) = a, taken mod p^2; mod p it is delta f
    lifted = coboundary(X, CochainTable(f.arity, f.set_size, p * p,
                                        f.values)).values
    if (lifted % p).any():
        raise NotACocycle(
            f"input of arity {f.arity} is not a cocycle mod {p}")
    return CochainTable(f.arity + 1, X.size, p, lifted // p)
