"""The list Smith elimination over Z, kept as the tests' oracle.

This is the elimination the library ran before its numpy and Z/p^k
eliminations: Python ints in lists of lists, one row or column operation
at a time, with the pivot rule and restart order that the numpy core
keeps.  The functions after `_snf_core` are the library's earlier
`smith_normal_form`, `kernel_mod` and `solve_mod` on it, and `quotient`,
the invariant factors of a quotient of two spans (once the library's
H^n route), returning plain lists and tuples.
"""

from math import gcd


class ImageNotContained(Exception):
    """`quotient` was given an image outside the span of the kernel."""


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _egcd(a, b):
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


def smith(entries):
    """(U, D, V, invariant factors) of the integer matrix `entries`."""
    cols = len(entries[0]) if entries else 0
    work = [list(map(int, row)) for row in entries]
    u, v = _identity(len(work)), _identity(cols)
    factors = _snf_core(work, u, v)
    return u, work, v, factors


def _reduced_rows(entries, m):
    half = m // 2
    seen = set()
    out = []
    for row in entries:
        red = tuple((e % m) - m if (e % m) > half else (e % m) for e in row)
        if not any(red) or red in seen:
            continue
        seen.add(red)
        out.append(list(red))
    return out


def kernel(entries, cols, m):
    """Generators of {x in Z_m^cols : entries @ x == 0 mod m}."""
    if cols == 0:
        return []
    work = _reduced_rows(entries, m)
    work += [[m if i == j else 0 for j in range(cols)] for i in range(cols)]
    v = _identity(cols)
    factors = _snf_core(work, v=v)
    gens = []
    for i, d in enumerate(factors):
        mult = m // gcd(d, m)
        if mult % m == 0:
            continue
        gens.append([(v[j][i] * mult) % m for j in range(cols)])
    return gens


def solve(entries, cols, b, m):
    """One solution of entries @ x == b (mod m), or None."""
    b = [int(e) % m for e in b]
    work = [[e % m for e in row] for row in entries]
    ub = [[e] for e in b]
    v = _identity(cols)
    factors = _snf_core(work, ub, v)
    y = [0] * cols
    for i, (ci,) in enumerate(ub):
        d = factors[i] if i < len(factors) else 0
        g = gcd(d, m)
        if ci % g:
            return None
        sub = m // g
        if sub > 1:
            y[i] = ci // g * pow(d // g % sub, -1, sub) % sub
    return [sum(ve * ye for ve, ye in zip(row, y)) % m for row in v]


def quotient(kernel_gens, image_gens, m):
    """Invariant factors (> 1) of span(kernel_gens) / span(image_gens)."""
    kernel_gens = [list(map(int, g)) for g in kernel_gens]
    image_gens = [list(map(int, g)) for g in image_gens]
    if not kernel_gens and not image_gens:
        return ()
    c = len(kernel_gens[0]) if kernel_gens else len(image_gens[0])
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
