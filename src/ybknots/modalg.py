"""Exact modular and integer linear algebra.

Dense integer matrices, Smith normal form with transform matrices,
kernels and quotients of finitely generated modules over Z_m, and the
group ring Z[Z_m] used to value state sums.  Everything here is exact:
matrix entries are Python ints, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ImageNotContained, ModulusMismatch


class IntegerMatrix:
    """Dense matrix over Z with exact arithmetic."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [[int(e) for e in row] for row in entries]
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntegerMatrix":
        return cls._wrap([[0] * cols for _ in range(rows)], cols)

    @classmethod
    def _wrap(cls, entries: list, cols: int) -> "IntegerMatrix":
        # Trusted fast path: entries must already be rectangular lists of
        # ints, `cols` wide; with no rows they cannot carry the width.
        made = cls.__new__(cls)
        made.rows = len(entries)
        made.cols = cols
        made.entries = entries
        return made

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls._wrap(_identity(n), n)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntegerMatrix)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.entries == other.entries)

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose().entries
        return self._wrap(
            [[sum(a * b for a, b in zip(row, col)) for col in ot]
             for row in self.entries], other.cols)

    def transpose(self) -> "IntegerMatrix":
        return self._wrap([[row[j] for row in self.entries]
                           for j in range(self.cols)], self.rows)

    def copy(self) -> "IntegerMatrix":
        return self._wrap([row[:] for row in self.entries], self.cols)

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


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


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


def _snf_core(a: list[list[int]], u=None, v=None) -> tuple[int, ...]:
    """Diagonalize a in place and return its non-zero diagonal.

    Every row operation is also applied to u (any matrix with as many rows
    as a) and every column operation to v (as many columns as a), in
    place: if U @ a @ V is the diagonal form, u becomes U @ u and v
    becomes v @ V.  Pivot rule: smallest non-zero absolute value in the
    trailing submatrix, first such entry in row-major order.
    Deterministic by construction.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    row_mats = (a,) if u is None else (a, u)
    col_mats = (a,) if v is None else (a, v)

    def swap_rows(i, j):
        for m in row_mats:
            m[i], m[j] = m[j], m[i]

    def row_axpy(i, j, q):
        # row i -= q * row j
        for m in row_mats:
            m[i] = [x - q * y for x, y in zip(m[i], m[j])]

    def swap_cols(i, j):
        for m in col_mats:
            for row in m:
                row[i], row[j] = row[j], row[i]

    def col_axpy(i, j, q):
        # col i -= q * col j
        for m in col_mats:
            for row in m:
                row[i] -= q * row[j]

    limit = min(rows, cols)
    t = 0
    while t < limit:
        # Locate pivot: smallest |entry| != 0, row-major tie break.
        best = None
        pi = pj = -1
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                e = row[j]
                if e and (best is None or abs(e) < best):
                    best = abs(e)
                    pi, pj = i, j
        if best is None:
            break
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            restart = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        row_axpy(i, t, q)
                    if a[i][t]:
                        # remainder is strictly smaller; promote it
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        col_axpy(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if not restart:
                break
        if a[t][t] < 0:
            for m in row_mats:
                m[t] = [-x for x in m[t]]
        t += 1

    # Enforce the divisibility chain with local 2x2 Bezout steps.
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            di, dj = a[i][i], a[i + 1][i + 1]
            if dj % di == 0:
                continue
            changed = True
            g, x, y = _egcd(di, dj)
            col_axpy(i, i + 1, -1)
            for m in row_mats:
                ri, rj = m[i], m[i + 1]
                m[i] = [x * p + y * q for p, q in zip(ri, rj)]
                m[i + 1] = [(-dj // g) * p + (di // g) * q
                            for p, q in zip(ri, rj)]
            col_axpy(i + 1, i, a[i][i + 1] // g)

    return tuple(a[i][i] for i in range(t))


def smith_normal_form(A: IntegerMatrix) -> SmithForm:
    """Smith normal form with both transform matrices.

    The pivot rule (smallest surviving absolute value, row-major tie break)
    makes the output a deterministic function of the input, so every basis
    derived from it is reproducible.
    """
    work = [row[:] for row in A.entries]
    u, v = _identity(A.rows), _identity(A.cols)
    factors = _snf_core(work, u, v)
    return SmithForm(
        U=IntegerMatrix._wrap(u, A.rows),
        D=IntegerMatrix._wrap(work, A.cols),
        V=IntegerMatrix._wrap(v, A.cols),
        invariant_factors=factors,
    )


def _reduced_rows(A: IntegerMatrix, m: int):
    """Rows of A reduced to the symmetric range mod m, with zero and
    repeated rows dropped.  The solution set mod m is unchanged."""
    half = m // 2
    seen = set()
    out = []
    for row in A.entries:
        red = tuple((e % m) - m if (e % m) > half else (e % m) for e in row)
        if not any(red) or red in seen:
            continue
        seen.add(red)
        out.append(list(red))
    return out


def kernel_mod(A: IntegerMatrix, m: int) -> list[list[int]]:
    """Generators of {x in Z_m^cols : A @ x == 0 mod m}.

    Lifts the problem to Z by stacking m*I below A; if U @ B @ V == D for
    the stack B, then x = V @ w solves the system exactly when each
    d_i * w_i vanishes mod m, so column i of V scaled by m / gcd(d_i, m)
    generates the kernel.  Exact for composite m, where plain row
    reduction over a field is unavailable.

    Because V is unimodular, the generators span a direct sum of cyclic
    groups, so the order of the kernel is the product of the generators'
    orders (`_orders`).
    """
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {m}")
    c = A.cols
    if c == 0:
        return []
    work = _reduced_rows(A, m)
    work += [[m if i == j else 0 for j in range(c)] for i in range(c)]
    v = _identity(c)
    factors = _snf_core(work, v=v)
    gens = []
    for i, d in enumerate(factors):
        mult = m // gcd(d, m)
        if mult % m == 0:
            continue
        gens.append([(v[j][i] * mult) % m for j in range(c)])
    return gens


def _orders(gens, m: int) -> list[int]:
    """The order m // gcd(m, *g) of each generator g of kernel_mod."""
    return [m // gcd(m, *g) for g in gens]


def solve_mod(A: IntegerMatrix, b, m: int):
    """One solution of A @ x == b (mod m), or None if there is none."""
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {m}")
    b = [int(e) % m for e in b]
    if len(b) != A.rows:
        raise ValueError("right-hand side length mismatch")
    work = [[e % m for e in row] for row in A.entries]
    # U @ A @ V == D; row i of D @ y == U @ b reads d_i * y_i == (U @ b)_i
    ub = [[e] for e in b]
    v = _identity(A.cols)
    factors = _snf_core(work, ub, v)
    y = [0] * A.cols
    for i, (ci,) in enumerate(ub):
        d = factors[i] if i < len(factors) else 0
        g = gcd(d, m)
        if ci % g:
            return None
        sub = m // g
        if sub > 1:
            y[i] = ci // g * pow(d // g % sub, -1, sub) % sub
    return [sum(ve * ye for ve, ye in zip(row, y)) % m for row in v]


def quotient_invariant_factors(kernel_gens, image_gens, m: int) -> tuple[int, ...]:
    """Invariant factors (> 1) of span(kernel_gens) / span(image_gens) in Z_m^c.

    Both spans are lifted to integer lattices containing m*Z^c; the image
    must be contained in the kernel span or ImageNotContained is raised.
    Returns () for the trivial quotient.
    """
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {m}")
    kernel_gens = [list(map(int, g)) for g in kernel_gens]
    image_gens = [list(map(int, g)) for g in image_gens]
    if not kernel_gens and not image_gens:
        return ()
    c = len(kernel_gens[0]) if kernel_gens else len(image_gens[0])
    if any(len(g) != c for g in kernel_gens + image_gens):
        raise ValueError("generator length mismatch")

    # If U @ K @ V is diagonal with d_1, d_2, ..., then U maps the kernel
    # lattice K Z^k + m Z^c onto the sum of the e_i Z, e_i = gcd(d_i, m)
    # (e_i = m past the rank).  A vector x lies in it exactly when each
    # (U @ x)_i is divisible by e_i, and the quotients are its coordinates.
    # The image lattice contains m Z^c, whose coordinates are the
    # (m / e_i) Z, so image coordinates are read mod m / e_i.
    kernel = [[g[i] for g in kernel_gens] for i in range(c)]
    image = [[g[i] for g in image_gens] for i in range(c)]
    diagonal = _snf_core(kernel, image)
    relations = []
    for i, row in enumerate(image):
        e = gcd(diagonal[i], m) if i < len(diagonal) else m
        if any(x % e for x in row):
            raise ImageNotContained(
                "image generator outside the span of the kernel generators")
        relations.append([x // e % (m // e) for x in row]
                         + [m // e * int(i == j) for j in range(c)])
    return tuple(f for f in _snf_core(relations) if f != 1)


class GroupRingElement:
    """Element of Z[Z_m]: integer coefficients on powers of a generator x
    of the cyclic group of order m.  Multiplication is cyclic convolution."""

    __slots__ = ("modulus", "coefficients")

    def __init__(self, modulus: int, coefficients):
        if modulus < 2:
            raise ValueError(f"modulus must be at least 2, got {modulus}")
        coefficients = tuple(int(e) for e in coefficients)
        if len(coefficients) != modulus:
            raise ValueError(
                f"need {modulus} coefficients, got {len(coefficients)}")
        self.modulus = modulus
        self.coefficients = coefficients

    @classmethod
    def zero(cls, modulus: int) -> "GroupRingElement":
        return cls(modulus, (0,) * modulus)

    @classmethod
    def term(cls, coefficient: int, exponent: int, modulus: int) -> "GroupRingElement":
        """coefficient * x^exponent with the exponent reduced mod m."""
        coeffs = [0] * modulus
        coeffs[exponent % modulus] = int(coefficient)
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
        return cls(int(data["modulus"]), data["coefficients"])
