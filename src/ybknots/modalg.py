"""Exact modular and integer linear algebra.

Dense integer matrices, Smith normal form with transform matrices,
kernels and solutions of linear systems over Z_m, and the group ring
Z[Z_m] used to value state sums.  Everything here is exact: arrays hold
int64 only while a bound shows no entry can overflow, and Python ints
past it; never floats.  In the Smith core only the eliminated matrix
can move to Python ints part way; each transform's dtype is fixed when
the elimination starts.

An `IntegerMatrix` is one such 2-d array, int64 while every entry is
below 2^62 and dtype=object past it; the coboundary matrices arrive in
it and the Smith core starts from a copy of it.  Its `entries` is a
fresh list of lists, so changing that list leaves the matrix alone.

Both eliminations follow one Smith rule: the pivot is the first entry
of least absolute value in the trailing block, and the entries below and
right of it are reduced by Euclidean remainders, the first remainder
becoming the new pivot.  `_Smith` runs it over Z on numpy arrays, so the
bases it yields (the transforms of `smith_normal_form`, the generators of
`kernel_mod`, the solution of `solve_mod`) are a deterministic function
of the input.  `_eliminate` runs it over Z/m itself on lists of residues
in the symmetric range, with no factoring of m; it serves the braid
kernel (`_cyclic_kernel`), whose element set is pinned but no basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import ModulusMismatch
from .ybcore import _integer, _integers


class IntegerMatrix:
    """Dense matrix over Z with exact arithmetic, held as the 2-d `array`
    that the Smith core eliminates on: int64 while every entry is below
    the guard, dtype=object (Python ints) past it.  An int64 array given
    to the constructor is held as it is, not copied."""

    __slots__ = ("array",)

    def __init__(self, entries):
        entries = _integers(entries, "matrix entries")
        if entries.ndim != 2:
            raise ValueError("an integer matrix is 2-d")
        self.array = _array(entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls(np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    @property
    def entries(self) -> list[list[int]]:
        """A fresh list of lists of Python ints."""
        return self.array.tolist()

    def __getitem__(self, key):
        i, j = key
        return int(self.array[i, j])

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerMatrix)
                and np.array_equal(self.array, other.array))

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        # int64 matmul would wrap around silently
        return IntegerMatrix(self.array.astype(object)
                             @ other.array.astype(object))

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(self.array.T.copy())

    def copy(self) -> "IntegerMatrix":
        return IntegerMatrix(self.array.copy())

    def __repr__(self) -> str:
        return f"IntegerMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class SmithForm:
    """Factorization U @ A @ V == D with U, V unimodular and D diagonal,
    each diagonal entry non-negative and dividing the next."""

    U: IntegerMatrix
    D: IntegerMatrix
    V: IntegerMatrix
    invariant_factors: tuple[int, ...]


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


# int64 entries stay below this in absolute value: a step whose result
# could reach it first moves the eliminated array to Python ints
_INT64_GUARD = 2 ** 62


def _peak(x) -> int:
    """Largest absolute entry of the array x, 0 when it is empty."""
    return int(np.abs(x).max()) if x.size else 0


def _array(x: np.ndarray, top: int = 0) -> np.ndarray:
    """The 2-d array x in int64, x itself when it is int64 already, or in
    dtype=object when an entry or `top` reaches the guard."""
    if top < _INT64_GUARD:
        try:
            out = x.astype(np.int64, copy=False)
        except OverflowError:
            pass
        else:
            if not out.size or (-_INT64_GUARD < out.min()
                                and out.max() < _INT64_GUARD):
                return out
    return x.astype(object, copy=False)


class _Smith:
    """One Smith elimination over Z of the 2-d array a, run on creation.

    Every row operation is also applied to u (as many rows as a) and every
    column operation to v (as many columns as a): if U @ a @ V is the
    diagonal form, u becomes U @ u and v becomes v @ V.  With a modulus m,
    u and v are kept mod m, which every operation commutes with.
    `factors` is the non-zero diagonal.

    Pivot rule: smallest non-zero absolute value in the trailing block,
    first such entry in row-major order.  The rows below the pivot are
    reduced in order, and the first one left with a remainder is swapped
    in as the new pivot row; then the columns right of it, the same way;
    until neither leaves a remainder.  The reductions before a swap do not
    depend on each other, so each is one rank-1 update of the rows (or
    columns) it reaches; a pivot of +-1 leaves no remainder and takes one
    of each.  The order of operations, and so every transform, is a
    deterministic function of the input.

    Only a changes dtype during a run: each step first bounds the entries
    it will write in a, and when a bound reaches the guard, a moves to
    dtype=object for this and all later steps.  Each transform's dtype is
    fixed on creation: Python ints when it is exact (no m) or when 2 m^2
    reaches the guard, int64 residues otherwise.
    """

    def __init__(self, a, u=None, v=None, m=None):
        self.a, self.m = a, m
        # u and v kept mod m stay in [0, m) and their multipliers are
        # reduced mod m, so every step on them stays under 2 m^2
        wide = m is None or 2 * m * m >= _INT64_GUARD
        dtype = object if wide else np.int64
        self.u = None if u is None else u.astype(dtype, copy=False)
        self.v = None if v is None else v.astype(dtype, copy=False)
        self.factors = self._run()

    def _fit(self, bound: int):
        """Move a to Python ints when an entry may reach the guard."""
        if bound >= _INT64_GUARD and self.a.dtype != object:
            self.a = self.a.astype(object)

    def _mod(self, x):
        return x if self.m is None else x % self.m

    def _rows(self, t: int, sel, q):
        """rows sel -= q * row t, in a (from column t on) and in u; the
        caller has bounded a."""
        self.a[sel, t:] -= q[:, None] * self.a[t, t:]
        if self.u is not None:
            self.u[sel] = self._mod(
                self.u[sel] - self._mod(q)[:, None] * self.u[t])

    def _cols(self, t: int, sel, q, rem):
        """cols sel -= q * col t, in a and in v.  Column t of a holds only
        the pivot by now, so in a just row t changes, to the remainders."""
        self.a[t, sel] = rem
        if self.v is not None:
            self.v[:, sel] = self._mod(
                self.v[:, sel] - self.v[:, t, None] * self._mod(q))

    def _swap_rows(self, i: int, j: int):
        for x in (self.a, self.u):
            if x is not None:
                row = x[i].copy()
                x[i] = x[j]
                x[j] = row

    def _swap_cols(self, i: int, j: int):
        for x in (self.a, self.v):
            if x is not None:
                col = x[:, i].copy()
                x[:, i] = x[:, j]
                x[:, j] = col

    def _reduce(self, t: int, line, below: bool):
        """Reduce `line`, the entries below (or right of) the pivot, in
        order up to its first remainder; return that offset or None."""
        p = self.a[t, t]
        q = line // p
        rem = line - q * p
        hits = rem.nonzero()[0]
        stop = hits[0] + 1 if hits.size else len(line)
        moved = q[:stop].nonzero()[0]
        if moved.size:
            sel, q = moved + (t + 1), q[moved]
            if below:
                self.bound += _peak(q) * _peak(self.a[t, t:])
                self._fit(self.bound)
                self._rows(t, sel, q)
            else:
                self._cols(t, sel, q, rem[moved])
        return int(hits[0]) if hits.size else None

    def _run(self) -> tuple[int, ...]:
        rows, cols = self.a.shape
        t = 0
        while t < min(rows, cols):
            mag = np.abs(self.a[t:, t:])
            top = int(mag.max())
            if top == 0:
                break
            # the first entry of least magnitude; when the largest is 1,
            # that is the first largest
            flat = mag.argmax() if top == 1 else \
                np.where(mag, mag, top + 1).argmin()
            pi, pj = divmod(int(flat), cols - t)
            if pi:
                self._swap_rows(t, t + pi)
            if pj:
                self._swap_cols(t, t + pj)
            # bounds every live entry of a; each row step raises it
            self.bound = top
            while True:
                hit = self._reduce(t, self.a[t + 1:, t], True)
                if hit is not None:
                    self._swap_rows(t, t + 1 + hit)
                    continue
                hit = self._reduce(t, self.a[t, t + 1:], False)
                if hit is None:
                    break
                self._swap_cols(t, t + 1 + hit)
            if self.a[t, t] < 0:
                self.a[t] = -self.a[t]
                if self.u is not None:
                    self.u[t] = self._mod(-self.u[t])
            t += 1
        self._chain(t)
        return tuple(int(self.a[i, i]) for i in range(t))

    def _chain(self, t: int):
        """Enforce the divisibility chain with local 2x2 Bezout steps."""
        changed = True
        while changed:
            changed = False
            for i in range(t - 1):
                di, dj = int(self.a[i, i]), int(self.a[i + 1, i + 1])
                if dj % di == 0:
                    continue
                changed = True
                g, x, y = _egcd(di, dj)
                self._col_axpy(i, i + 1, -1)
                self._combine(i, x, y, -dj // g, di // g)
                self._col_axpy(i + 1, i, int(self.a[i, i + 1]) // g)

    def _col_axpy(self, i: int, j: int, q: int):
        """col i -= q * col j, in a and v."""
        self._fit(_peak(self.a[:, i]) + abs(q) * _peak(self.a[:, j]))
        self.a[:, i] -= q * self.a[:, j]
        if self.v is not None:
            self.v[:, i] = self._mod(
                self.v[:, i] - self._mod(q) * self.v[:, j])

    def _combine(self, i: int, x: int, y: int, z: int, w: int):
        """Rows i and i + 1 become x ri + y rj and z ri + w rj, in a and u."""
        big = max(abs(x) + abs(y), abs(z) + abs(w))
        self._fit(big * _peak(self.a[i:i + 2]))
        ri, rj = self.a[i].copy(), self.a[i + 1].copy()
        self.a[i], self.a[i + 1] = x * ri + y * rj, z * ri + w * rj
        if self.u is not None:
            x, y, z, w = (self._mod(c) for c in (x, y, z, w))
            ri, rj = self.u[i].copy(), self.u[i + 1].copy()
            self.u[i] = self._mod(x * ri + y * rj)
            self.u[i + 1] = self._mod(z * ri + w * rj)


def smith_normal_form(A: IntegerMatrix) -> SmithForm:
    """Smith normal form with both transform matrices.

    The pivot rule (smallest surviving absolute value, row-major tie break)
    makes the output a deterministic function of the input, so every basis
    derived from it is reproducible.
    """
    run = _Smith(A.array.copy(), np.eye(A.rows, dtype=object),
                 np.eye(A.cols, dtype=object))
    return SmithForm(U=IntegerMatrix(run.u), D=IntegerMatrix(run.a),
                     V=IntegerMatrix(run.v), invariant_factors=run.factors)


def _reduced_rows(a: np.ndarray, m: int) -> np.ndarray:
    """Rows of a reduced to the symmetric range mod m, with zero and
    repeated rows dropped; the solution set mod m is unchanged.  The rows
    kept stay in first-occurrence order, which the pivot tie-break sees."""
    a = a % m
    a[a > m // 2] -= m
    key = tuple if a.dtype == object else bytes
    first: dict = {}
    for i in np.flatnonzero(a.any(axis=1)):
        first.setdefault(key(a[i]), i)
    return a[list(first.values())]


def _stacked_smith(A: IntegerMatrix, m: int, v: bool = False) -> _Smith:
    """The Smith run of A's rows reduced mod m stacked over m*I, with V
    kept mod m when v is set.  The stack has full column rank, and its
    factors are gcd(d_i, m) for the invariant factors d_i of A, then m
    for each column past A's rank."""
    c = A.cols
    work = _reduced_rows(_array(A.array, m), m)
    work = np.concatenate([work, m * np.eye(c, dtype=work.dtype)])
    return _Smith(work, v=np.eye(c, dtype=np.int64) if v else None, m=m)


def kernel_mod(A: IntegerMatrix, m: int) -> list[list[int]]:
    """Generators of {x in Z_m^cols : A @ x == 0 mod m}.

    Lifts the problem to Z by stacking m*I below A; if U @ B @ V == D for
    the stack B, then x = V @ w solves the system exactly when each
    d_i * w_i vanishes mod m, so column i of V scaled by m / gcd(d_i, m)
    generates the kernel.  Exact for composite m, where plain row
    reduction over a field is unavailable.  Only V mod m is needed, so V
    is kept mod m.

    Because V is unimodular, the generators span a direct sum of cyclic
    groups, so the order of the kernel is the product of the generators'
    orders (`_orders`), which run in the chain order of the factors.
    """
    m = _integer(m, "modulus", 2)
    if A.cols == 0:
        return []
    run = _stacked_smith(A, m, v=True)
    gens = []
    for i, d in enumerate(run.factors):
        mult = m // gcd(d, m)
        if mult % m:
            gens.append([x * mult % m for x in run.v[:, i].tolist()])
    return gens


def _orders(gens, m: int) -> list[int]:
    """The order m // gcd(m, *g) of each generator g of kernel_mod."""
    return [m // gcd(m, *g) for g in gens]


def solve_mod(A: IntegerMatrix, b, m: int):
    """One solution of A @ x == b (mod m), or None if there is none."""
    m = _integer(m, "modulus", 2)
    b = _integers(b, "right-hand side")
    if b.shape != (A.rows,):
        raise ValueError("right-hand side length mismatch")
    # residues of Python ints: m may pass int64
    b = [e % m for e in b.tolist()]
    # U @ A @ V == D; row i of D @ y == U @ b reads d_i * y_i == (U @ b)_i,
    # and U @ b is only read mod m
    run = _Smith(_array(A.array, m) % m,
                 np.array(b, dtype=object).reshape(-1, 1),
                 np.eye(A.cols, dtype=np.int64), m)
    y = [0] * A.cols
    for i, ci in enumerate(run.u[:, 0].tolist()):
        d = run.factors[i] if i < len(run.factors) else 0
        g = gcd(d, m)
        if ci % g:
            return None
        sub = m // g
        if sub > 1:
            y[i] = ci // g * pow(d // g % sub, -1, sub) % sub
    return [sum(ve * ye for ve, ye in zip(row, y)) % m
            for row in run.v.tolist()]


def _eliminate(a: list, m: int, companion: list) -> list[int]:
    """Row-reduce a over Z/m in place; return the pivots.

    The Smith rule over Z/m: entries are held as residues in the
    symmetric range mod m, each pivot is the first entry of least
    absolute value in the trailing block, and the entries below it are
    reduced by Euclidean remainders, the first remainder swapped in as
    the new pivot; then the entries right of it, the same way.  Column t
    is clear below the pivot by then, so a column step rewrites only row
    t, to its remainder.  Pivot t ends at a[t][t] = p_t with every entry
    below it zero and every entry right of it a multiple of p_t, and the
    rows past the pivots zero: the column operations that would clear
    each pivot row change nothing else and are not made.  So a is
    equivalent to diag(p_t), and its row space is the sum of the
    p_t (Z/m), each of order m / gcd(p_t, m).  Row operations are
    mirrored mod m in companion (as many rows as a); the kernel of
    `_cyclic_kernel` is read off it.
    """
    half = m // 2
    rows = len(a)
    cols = len(a[0]) if rows else 0
    for i in range(rows):
        a[i] = [(x + half) % m - half for x in a[i]]
    pivots = []
    for t in range(min(rows, cols)):
        best = 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = abs(row[j])
                if x and (not best or x < best):
                    best, pi, pj = x, i, j
                    if x == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        while True:
            a[t], a[pi] = a[pi], a[t]
            companion[t], companion[pi] = companion[pi], companion[t]
            if pj != t:
                for row in a[t:]:
                    row[t], row[pj] = row[pj], row[t]
            pivot, lead = a[t], companion[t]
            p = pivot[t]
            # the row, then the column, whose remainder is the next pivot
            pi = pj = t
            for i in range(t + 1, rows):
                row = a[i]
                if row[t]:
                    f = row[t] // p
                    if f:
                        row[t:] = [(x - f * y + half) % m - half
                                   for x, y in zip(row[t:], pivot[t:])]
                        companion[i] = [(x - f * y) % m
                                        for x, y in zip(companion[i], lead)]
                    if row[t]:
                        pi = i
                        break
            if pi != t:
                continue
            for j in range(t + 1, cols):
                if pivot[j]:
                    pivot[j] %= p
                    if pivot[j]:
                        pj = j
                        break
            if pj == t:
                break
        pivots.append(a[t][t])
    return pivots


def _cyclic_kernel(a: list, m: int) -> tuple[list, list]:
    """Generators of {x in Z_m^cols : a @ x == 0 mod m} and their orders;
    the kernel is the direct sum of the cyclic groups they generate, so
    its elements are the sums of c_i g_i with 0 <= c_i < order_i.  Only
    the element set and its order are pinned, not the generators."""
    cols = len(a[0]) if a else 0
    # column operations on a are row operations on its transpose: if
    # P @ a.T is reduced to pivots p_t, then x = P.T @ y and the kernel
    # is p_t y_t == 0, so row t of P times m / gcd(p_t, m) generates it
    at = [list(col) for col in zip(*a)]
    basis = [[int(i == j) for j in range(cols)] for i in range(cols)]
    pivots = _eliminate(at, m, basis)
    pivots += [0] * (cols - len(pivots))
    gens, orders = [], []
    for row, p in zip(basis, pivots):
        order = gcd(p, m)
        if order > 1:
            gens.append([x * (m // order) % m for x in row])
            orders.append(order)
    return gens, orders


def _invariant_form(orders) -> tuple[int, ...]:
    """The invariant factors (> 1) of the sum of cyclic groups of the
    given orders: a pair of orders (a, b) is also (gcd, lcm), and after
    slot i has met every later slot, it divides them all."""
    orders = list(orders)
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            g = gcd(orders[i], orders[j])
            orders[i], orders[j] = g, orders[i] // g * orders[j]
    return tuple(o for o in orders if o > 1)


class GroupRingElement:
    """Element of Z[Z_m]: integer coefficients on powers of a generator x
    of the cyclic group of order m.  Multiplication is cyclic convolution."""

    __slots__ = ("modulus", "coefficients")

    def __init__(self, modulus: int, coefficients):
        modulus = _integer(modulus, "modulus", 2)
        coefficients = tuple([_integer(e, "coefficient")
                              for e in coefficients])
        if len(coefficients) != modulus:
            raise ValueError(
                f"need {modulus} coefficients, got {len(coefficients)}")
        self.modulus = modulus
        self.coefficients = coefficients

    @classmethod
    def zero(cls, modulus: int) -> "GroupRingElement":
        return cls.term(0, 0, modulus)

    @classmethod
    def term(cls, coefficient: int, exponent: int, modulus: int) -> "GroupRingElement":
        """coefficient * x^exponent with the exponent reduced mod m."""
        modulus = _integer(modulus, "modulus", 2)
        coeffs = [0] * modulus
        coeffs[_integer(exponent, "exponent") % modulus] = coefficient
        return cls(modulus, coeffs)

    def _check(self, other):
        if not isinstance(other, GroupRingElement):
            raise TypeError(f"cannot combine with {type(other).__name__}")
        if other.modulus != self.modulus:
            raise ModulusMismatch(
                f"moduli differ: {self.modulus} vs {other.modulus}")

    def __add__(self, other) -> "GroupRingElement":
        self._check(other)
        return GroupRingElement(
            self.modulus,
            [a + b for a, b in zip(self.coefficients, other.coefficients)])

    def __sub__(self, other) -> "GroupRingElement":
        self._check(other)
        return GroupRingElement(
            self.modulus,
            [a - b for a, b in zip(self.coefficients, other.coefficients)])

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.modulus, [-a for a in self.coefficients])

    def __mul__(self, other) -> "GroupRingElement":
        if isinstance(other, int):
            return GroupRingElement(
                self.modulus, [other * a for a in self.coefficients])
        self._check(other)
        m = self.modulus
        out = [0] * m
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    if b:
                        out[(i + j) % m] += a * b
        return GroupRingElement(m, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupRingElement)
                and self.modulus == other.modulus
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash((self.modulus, self.coefficients))

    def __bool__(self) -> bool:
        return any(self.coefficients)

    def coefficient_sum(self) -> int:
        """Image under the augmentation map x -> 1."""
        return sum(self.coefficients)

    def render(self) -> str:
        """Human-readable polynomial, e.g. '8 + 8*x^3'; '0' when zero."""
        parts = []
        for j, c in enumerate(self.coefficients):
            if not c:
                continue
            if j == 0:
                body = str(abs(c))
            elif j == 1:
                body = f"{abs(c)}*x"
            else:
                body = f"{abs(c)}*x^{j}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"GroupRingElement(mod {self.modulus}: {self.render()})"

    def to_json(self) -> dict:
        return {"modulus": self.modulus,
                "coefficients": list(self.coefficients)}

    @classmethod
    def from_json(cls, data: dict) -> "GroupRingElement":
        try:
            return cls(data["modulus"], data["coefficients"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed group-ring data: {exc}") from exc
