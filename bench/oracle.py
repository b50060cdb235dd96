"""Independent oracles for the benchmark, in pure Python.

Nothing here imports numpy or ybknots.  The solutions the benchmark uses
are built from their closed-form formulas, braid colorings of a linear
solution come from the kernel of (W - I) over Z_q, and coboundaries come
from the closed-form d2/d3 boundary of the cube complex.  The brute-force
enumerators at the end are slow and serve the benchmark's own tests as
the reference for the kernel path.
"""

from __future__ import annotations

import itertools
import re
from math import gcd

_TOKEN = re.compile(r"([sv])(\d+)(\^-1)?\Z")


def parse_word(text: str) -> list[tuple[str, int]]:
    """Letters of a word written with s<i>, s<i>^-1 and v<i> only, as
    ('+' | '-' | 'v', 0-based index)."""
    out = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"oracle cannot read token {token!r}")
        kind = "v" if m.group(1) == "v" else ("-" if m.group(3) else "+")
        out.append((kind, int(m.group(2)) - 1))
    return out


# ---------------------------------------------------------------- solutions

def affine_matrix(q: int, s: int, t: int, u: int = 1) -> list[list[int]]:
    """R(x, y) = M (x, y) for the affine solution on Z_q."""
    u_inv = pow(u % q, -1, q)
    return [[(1 - s) % q, u * s % q], [u_inv * t % q, (1 - t) % q]]


def affine_tables(q, s, t, u=1):
    (a, b), (c, d) = affine_matrix(q, s, t, u)
    r1 = [[(a * x + b * y) % q for y in range(q)] for x in range(q)]
    r2 = [[(c * x + d * y) % q for y in range(q)] for x in range(q)]
    return r1, r2


def block_tables(q, s, t):
    """make_block's R on pairs x1*q + x2, restated from its docstring."""
    n = q * q
    r1 = [[0] * n for _ in range(n)]
    r2 = [[0] * n for _ in range(n)]
    for x in range(n):
        x1, x2 = divmod(x, q)
        for y in range(n):
            y1, y2 = divmod(y, q)
            r1[x][y] = ((y1 + s * (y2 - x2)) % q) * q + y2
            r2[x][y] = ((x1 + t * (x2 - y2)) % q) * q + x2
    return r1, r2


def inverse_tables(r1, r2):
    n = len(r1)
    b1 = [[0] * n for _ in range(n)]
    b2 = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            b1[r1[x][y]][r2[x][y]] = x
            b2[r1[x][y]][r2[x][y]] = y
    return b1, b2


def fixed_pairs(r1, r2):
    """All (x, y) with R(x, y) = (x, y)."""
    n = len(r1)
    return [(x, y) for x in range(n) for y in range(n)
            if r1[x][y] == x and r2[x][y] == y]


# ------------------------------------------------------ integer linear algebra

def smith_transform(a: list[list[int]]):
    """(diagonal, V) with U A V = diag for some unimodular U; A is k x k."""
    a = [row[:] for row in a]
    k = len(a)
    v = [[int(i == j) for j in range(k)] for i in range(k)]
    diag = []
    for t in range(k):
        while True:
            cells = [(abs(a[i][j]), i, j) for i in range(t, k)
                     for j in range(t, k) if a[i][j]]
            if not cells:
                return diag + [0] * (k - t), v
            _, pi, pj = min(cells)
            a[t], a[pi] = a[pi], a[t]
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
            p = a[t][t]
            clean = True
            for i in range(t + 1, k):
                qt = a[i][t] // p
                if qt:
                    a[i] = [x - qt * y for x, y in zip(a[i], a[t])]
                clean &= a[i][t] == 0
            for j in range(t + 1, k):
                qt = a[t][j] // p
                if qt:
                    for row in a:
                        row[j] -= qt * row[t]
                    for row in v:
                        row[j] -= qt * row[t]
                clean &= a[t][j] == 0
            if clean:
                # the diagonal need not divide onward; only the kernel is used
                diag.append(abs(p))
                break
    return diag, v


def _prime_powers(m: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def kernel_order_mod(rows: list[list[int]], cols: int, m: int) -> int:
    """|{x in Z_m^cols : A x = 0 mod m}|, by elimination over each Z/p^e
    with the pivot of least p-valuation, so no coefficient grows."""
    total = 1
    for p, e in _prime_powers(m):
        pe = p ** e
        a = [[x % pe for x in row] for row in rows]
        a = [row for row in a if any(row)]
        free = cols
        count = 1
        col_ids = list(range(cols))
        while a:
            best = None
            for i, row in enumerate(a):
                for j in col_ids:
                    x = row[j]
                    if x:
                        val = 0
                        while x % p == 0:
                            x //= p
                            val += 1
                        if best is None or val < best[0]:
                            best = (val, i, j)
                            if val == 0:
                                break
                if best is not None and best[0] == 0:
                    break
            if best is None:
                break
            val, pi, pj = best
            prow = a.pop(pi)
            unit = prow[pj] // p ** val
            inv = pow(unit, -1, pe)
            prow = [x * inv % pe for x in prow]  # pivot entry is now p^val
            step = p ** val
            rest = []
            for row in a:
                f = row[pj] // step
                if f:
                    row = [(x - f * y) % pe for x, y in zip(row, prow)]
                if any(row):
                    rest.append(row)
            a = rest
            col_ids.remove(pj)
            free -= 1
            count *= step
        total *= count * pe ** free
    return total


# ------------------------------------------------------------ braid colorings

def word_matrix(M, q: int, k: int, letters) -> list[list[int]]:
    """Matrix W over Z_q with W c = (image of the strand colors c)."""
    (a, b), (c, d) = M
    det_inv = pow((a * d - b * c) % q, -1, q)
    inv = [[d * det_inv % q, -b * det_inv % q],
           [-c * det_inv % q, a * det_inv % q]]
    w = [[int(i == j) for j in range(k)] for i in range(k)]
    for kind, i in letters:
        ri, rj = w[i], w[i + 1]
        if kind == "v":
            w[i], w[i + 1] = rj, ri
            continue
        (e, f), (g, h) = M if kind == "+" else inv
        w[i] = [(e * x + f * y) % q for x, y in zip(ri, rj)]
        w[i + 1] = [(g * x + h * y) % q for x, y in zip(ri, rj)]
    return w


def kernel_elements(a: list[list[int]], q: int):
    """Every x in Z_q^k with A x = 0 mod q, each exactly once."""
    k = len(a)
    diag, v = smith_transform(a)
    choices = []
    for d in diag:
        g = gcd(d, q)
        choices.append([j * (q // g) for j in range(g)])
    for y in itertools.product(*choices):
        yield tuple(sum(v[i][j] * y[j] for j in range(k)) % q
                    for i in range(k))


def linear_colorings(M, q: int, k: int, text: str):
    """Colorings of the closed braid over the linear solution with matrix M:
    the kernel of W - I."""
    w = word_matrix(M, q, k, parse_word(text))
    a = [[w[i][j] - int(i == j) for j in range(k)] for i in range(k)]
    return kernel_elements(a, q)


def weight(r1, r2, b1, b2, psi, letters, colors, m: int) -> int:
    """Total cocycle weight of one coloring, by the state_sum convention."""
    cur = list(colors)
    total = 0
    for kind, i in letters:
        x, y = cur[i], cur[i + 1]
        if kind == "+":
            total += psi[x][y]
            cur[i], cur[i + 1] = r1[x][y], r2[x][y]
        elif kind == "-":
            x, y = b1[x][y], b2[x][y]
            total -= psi[x][y]
            cur[i], cur[i + 1] = x, y
        else:
            cur[i], cur[i + 1] = y, x
    return total % m


def state_sum_linear(params, psi, m: int, k: int, text: str):
    """(colorings, group-ring coefficients) of an affine solution, tracing
    only the kernel elements."""
    q = params[0]
    r1, r2 = affine_tables(*params)
    b1, b2 = inverse_tables(r1, r2)
    letters = parse_word(text)
    coeffs = [0] * m
    for colors in linear_colorings(affine_matrix(*params), q, k, text):
        coeffs[weight(r1, r2, b1, b2, psi, letters, colors, m)] += 1
    return sum(coeffs), coeffs


def state_sum_brute(r1, r2, psi, m: int, k: int, text: str):
    """Reference for the kernel path: every tuple of X^k is traced."""
    b1, b2 = inverse_tables(r1, r2)
    letters = parse_word(text)
    coeffs = [0] * m
    for colors in itertools.product(range(len(r1)), repeat=k):
        cur = list(colors)
        for kind, i in letters:
            x, y = cur[i], cur[i + 1]
            if kind == "+":
                cur[i], cur[i + 1] = r1[x][y], r2[x][y]
            elif kind == "-":
                cur[i], cur[i + 1] = b1[x][y], b2[x][y]
            else:
                cur[i], cur[i + 1] = y, x
        if cur == list(colors):
            coeffs[weight(r1, r2, b1, b2, psi, letters, colors, m)] += 1
    return sum(coeffs), coeffs


# ------------------------------------------------------------- cube complex

def d2_terms(r1, r2, x, y):
    """Closed-form boundary of the 2-cube colored by (x, y)."""
    return [(1, (x,)), (1, (y,)), (-1, (r1[x][y],)), (-1, (r2[x][y],))]


def d3_terms(r1, r2, x, y, z):
    """Closed-form boundary of the 3-cube colored by (x, y, z)."""
    a1, a2 = r1[x][y], r2[x][y]
    b1 = r1[a2][z]
    c1, c2 = r1[y][z], r2[y][z]
    d2 = r2[x][c1]
    return [(1, (x, y)), (1, (a2, z)), (1, (a1, b1)),
            (-1, (y, z)), (-1, (x, c1)), (-1, (d2, c2))]


def _terms(r1, r2, tup):
    if len(tup) == 2:
        return d2_terms(r1, r2, *tup)
    if len(tup) == 3:
        return d3_terms(r1, r2, *tup)
    raise ValueError("closed forms exist here for arity 1 and 2 only")


def _index(tup, n):
    idx = 0
    for x in tup:
        idx = idx * n + x
    return idx


def integer_coboundary(r1, r2, values, arity: int) -> list[int]:
    """(delta f)(w) over Z for f given by canonical representatives,
    w running over X^(arity+1) lexicographically."""
    n = len(r1)
    return [sum(c * values[_index(t, n)] for c, t in _terms(r1, r2, w))
            for w in itertools.product(range(n), repeat=arity + 1)]


def is_cocycle(r1, r2, values, arity: int, m: int) -> bool:
    return all(v % m == 0 for v in integer_coboundary(r1, r2, values, arity))


def obstruction(r1, r2, values, arity: int, p: int) -> list[int]:
    """Carry of lifting f to Z_{p^2}: (delta f mod p^2) / p."""
    return [(v % (p * p)) // p
            for v in integer_coboundary(r1, r2, values, arity)]


def coboundary_matrix(r1, r2, arity: int) -> list[list[int]]:
    n = len(r1)
    rows = []
    for w in itertools.product(range(n), repeat=arity + 1):
        row = [0] * n ** arity
        for c, t in _terms(r1, r2, w):
            row[_index(t, n)] += c
        rows.append(row)
    return rows


def cohomology_orders(r1, r2, arity: int, m: int) -> tuple[int, int]:
    """(|cocycles|, |coboundaries|) in arity 1 or 2 over Z_m."""
    n = len(r1)
    cocycles = kernel_order_mod(coboundary_matrix(r1, r2, arity),
                                n ** arity, m)
    if arity == 1:
        return cocycles, 1
    # im(delta^1) = Z_m^n / ker(delta^1)
    closed = kernel_order_mod(coboundary_matrix(r1, r2, 1), n, m)
    return cocycles, m ** n // closed
