"""Finite set-theoretic Yang-Baxter solutions.

A solution is a finite set X = {0, ..., n-1} with a map
R(x, y) = (R1(x, y), R2(x, y)) stored as two n x n lookup tables.  The
Yang-Baxter equation compares the two ways of sliding a triple through
three crossings:

    (R x 1)(1 x R)(R x 1) == (1 x R)(R x 1)(1 x R).

Constructors cover the affine one-dimensional family, the two-block
upper-triangular family on Z_q^2, truncated polynomial rings with two
nilpotent generators, and twisted abelian extensions of any base set.
The first three are Z_q-linear and declare that form (`LinearForm`) on
the solution they build; their tables are computed from it.  So does an
extension of a linear base over its own Z_q by cochains linear in the
digits.  A declared form also lets the Yang-Baxter equation be checked
on its matrix rather than on all |X|^3 triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd

import numpy as np

from .errors import (
    ArityMismatch,
    ModulusMismatch,
    NotAUnit,
    NotBiquandle,
    ProductNotZero,
    check_cap,
)

_UNSET = object()

# Largest n*n a solution constructor builds: one int64 table of this
# many entries takes 128 MB.
MAX_TABLE_ENTRIES = 2 ** 24


# Largest index a digit layout may reach, and largest cochain modulus:
# indices and cochain values are int64.
_INT64_MAX = int(np.iinfo(np.int64).max)


def check_modulus(modulus, what: str = "modulus") -> int:
    """modulus as a Python int, through `_integer`.  Raise ValueError
    unless 2 <= modulus <= 2^63 - 1, the moduli whose residues a
    CochainTable holds in int64."""
    modulus = _integer(modulus, what)
    if not 2 <= modulus <= _INT64_MAX:
        raise ValueError(f"{what} must be at least 2 and at most 2^63 - 1 "
                         f"(cochain values are int64), got {modulus}")
    return modulus


def _integer(value, what: str, least: int | None = None) -> int:
    """value as a Python int: the package's one integer gate, with
    `_integers` for arrays.  A float (1.0 included), a boolean or a
    string raises ValueError rather than being cast, as does a value
    below `least`."""
    if type(value) is not int:  # a plain int, the common case, is kept
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{what} must be an integer, got {value!r}")
        value = int(value)
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    return value


def _integers(data, what: str) -> np.ndarray:
    """data (an array or nested lists) as an integer array, each entry
    checked as `_integer` checks one.  An integer array other than uint64
    is kept; else int64, or past int64 dtype=object of Python ints."""
    if isinstance(data, np.ndarray) and data.dtype.kind in "iu" and \
            data.dtype != np.uint64:
        return data
    data = np.array(data, dtype=object)
    for kind in set(map(type, data.flat)):
        if issubclass(kind, bool) or not issubclass(kind, (int, np.integer)):
            raise ValueError(f"{what} must be integers, got {kind.__name__}")
    try:
        return data.astype(np.int64)
    except OverflowError:
        return np.asarray(np.frompyfunc(int, 1, 1)(data), dtype=object)


# Most entries one slab of a vectorized check or cube coloring holds at
# once; ybe_failure and the cube complex both read it.
SLAB_ENTRIES = 500000


@lru_cache(maxsize=256)
def _places(base: int, length: int) -> np.ndarray:
    """The place values base^(length-1), ..., base, 1 of the codec below:
    the first digit is the most significant.  Read-only, as it is shared."""
    places = base ** np.arange(length - 1, -1, -1, dtype=np.int64)
    places.setflags(write=False)
    return places


def _encode(digits, base: int) -> np.ndarray:
    """The index of each digit vector on the last axis; no digits read as
    0.  This layout numbers the elements of a linear form and the tuples
    of X^k."""
    digits = np.asarray(digits, dtype=np.int64)
    return digits @ _places(base, digits.shape[-1])


def _decode(index, base: int, length: int) -> np.ndarray:
    """The `length` digits of each index on a new last axis; inverts
    `_encode`."""
    index = np.asarray(index, dtype=np.int64)
    return index[..., None] // _places(base, length) % base


@dataclass(frozen=True)
class LinearForm:
    """A solution on (Z_q)^d given by one 2d x 2d matrix over Z_q.

    An element's index reads its d base-q digits, most significant first;
    `digits` and `index` convert between the two through the module's
    codec.  `matrix` maps the 2d digits of (x, y), x's first, to the 2d
    digits of (R1(x, y), R2(x, y)); it is stored as a tuple of rows with
    entries in 0..q-1.
    """

    q: int
    d: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q, d = _integer(self.q, "q"), _integer(self.d, "d")
        if q < 2 or d < 1:
            raise ValueError(f"need q >= 2 and d >= 1, got q = {q}, d = {d}")
        check_cap("LinearForm", "q^d", q ** d, _INT64_MAX)
        matrix = tuple(tuple([_integer(e, "matrix entry") % q for e in row])
                       for row in self.matrix)
        if len(matrix) != 2 * d or any(len(row) != 2 * d for row in matrix):
            raise ValueError(f"need a {2 * d} x {2 * d} matrix")
        for name, value in (("q", q), ("d", d), ("matrix", matrix)):
            object.__setattr__(self, name, value)

    @property
    def weights(self) -> np.ndarray:
        """The place value of each digit: q^(d-1), ..., q, 1; weights[j]
        is also the index of the element whose only nonzero digit is a 1
        in digit j."""
        return _places(self.q, self.d)

    def digits(self, index) -> np.ndarray:
        """The d digits of each index, on a new last axis."""
        return _decode(index, self.q, self.d)

    def index(self, digits) -> np.ndarray:
        """The index of each digit vector (digits in 0..q-1 on the last
        axis); inverts `digits`."""
        return _encode(digits, self.q)


def _linear_tables(form: LinearForm) -> tuple[np.ndarray, np.ndarray]:
    """R1 and R2 of a linear form as n x n int64 index tables, built one
    output digit at a time so only (n, n) arrays are formed."""
    q, d = form.q, form.d
    # every value below fits in int32 (n <= 2^12 under the table cap),
    # which halves the traffic of the (n, n) steps
    digits = form.digits(np.arange(q ** d)).astype(np.int32)
    matrix = np.array(form.matrix, dtype=np.int32)
    # column r: output digit r's part in x, and its part in y
    in_x = digits @ matrix[:, :d].T % q
    in_y = digits @ matrix[:, d:].T % q

    def table(rows):
        out = (in_x[:, rows[0], None] + in_y[:, rows[0]]) % q
        for r in rows[1:]:
            out = out * q + (in_x[:, r, None] + in_y[:, r]) % q
        return out.astype(np.int64)

    return table(range(d)), table(range(d, 2 * d))


def _linear_ybe_failure(form: LinearForm):
    """The first failing triple of a linear solution, read off one
    3d x 3d matrix identity over Z_q.

    On the 3d digits of (x, y, z), R x 1 acts as L = A (+) 1 and 1 x R as
    M = 1 (+) A, so the equation holds at (x, y, z) exactly when D = LML -
    MLM mod q kills that digit vector.  Triples in lexicographic order are
    the digit vectors in numeric order, x's digits most significant.  Let
    p be the last nonzero column of D and e_p the vector with a 1 in
    digit p.  Every vector below e_p is zero in digits 0..p, so it is
    supported after p and lies in ker D; D e_p is column p, which is not
    zero.  So e_p is the first failure: its block p // d holds
    q^(d-1-p%d), the other two blocks 0.  With D = 0 there is none.
    """
    q, d = form.q, form.d
    a = np.array(form.matrix, dtype=np.int64)
    L = np.eye(3 * d, dtype=np.int64)
    L[:2 * d, :2 * d] = a
    M = np.eye(3 * d, dtype=np.int64)
    M[d:, d:] = a
    # entries stay below q and every product is reduced, so each sum of
    # 3d products is exact in int64 for any q whose n x n tables fit in
    # memory
    D = ((L @ M % q) @ L - (M @ L % q) @ M) % q
    nonzero = np.flatnonzero(D.any(axis=0))
    if nonzero.size == 0:
        return None
    p = int(nonzero[-1])
    triple = [0, 0, 0]
    triple[p // d] = int(form.weights[p % d])
    return tuple(triple)


def _frozen(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class BirackReport:
    """Invertibility summary for a YB set."""

    invertible: bool
    left_invertible: bool
    right_invertible: bool


@dataclass(frozen=True)
class BiquandleWitness:
    """For each a, the unique partners with R(x_of[a], a) = (x_of[a], a)
    and R(a, y_of[a]) = (a, y_of[a])."""

    x_of: tuple[int, ...]
    y_of: tuple[int, ...]


class FiniteYBSet:
    """Lookup-table map R on {0..n-1}^2 with cached verification results.

    The tables are frozen at construction; verification methods cache
    their answers and, when R is invertible, populate the inverse tables
    used for negative crossings.  `linear` is the Z_q-linear form the
    solution was built from, or None for a solution given by its tables.
    """

    def __init__(self, r1, r2, label: str | None = None):
        r1 = _integers(r1, "table entries")
        r2 = _integers(r2, "table entries")
        if r1.ndim != 2 or r1.shape[0] != r1.shape[1] or r1.shape != r2.shape:
            raise ValueError("component tables must be square and same shape")
        n = r1.shape[0]
        if n == 0:
            raise ValueError("empty carrier")
        for t in (r1, r2):
            if t.min() < 0 or t.max() >= n:
                raise ValueError("table entries must lie in 0..n-1")
        # in range, so the int64 copies are exact
        self._adopt(np.array(r1, dtype=np.int64),
                    np.array(r2, dtype=np.int64), label, None)

    @classmethod
    def _built(cls, r1: np.ndarray, r2: np.ndarray, label: str,
               linear: LinearForm | None) -> "FiniteYBSet":
        """A solution on tables a constructor has just computed: int64,
        owned by nobody else and in 0..n-1 by construction, so they need
        neither the copy nor the range scan of __init__."""
        made = cls.__new__(cls)
        made._adopt(r1, r2, label, linear)
        return made

    @classmethod
    def _from_linear(cls, form: LinearForm, label: str) -> "FiniteYBSet":
        # the tables read digits mod q as indices
        return cls._built(*_linear_tables(form), label, form)

    def _adopt(self, r1: np.ndarray, r2: np.ndarray, label: str | None,
               linear: LinearForm | None):
        """Take ownership of two valid int64 tables."""
        r1.setflags(write=False)
        r2.setflags(write=False)
        n = r1.shape[0]
        self.size = int(n)
        self.r1 = r1
        self.r2 = r2
        self.label = label if label is not None else f"table(n={n})"
        self._ybe_failure = _UNSET
        self._birack = None
        self._rbar1 = None
        self._rbar2 = None
        self._left_inverse = None
        self._right_inverse = None
        self._witness = None
        self._linear = linear

    @property
    def linear(self) -> LinearForm | None:
        return self._linear

    def r(self, x: int, y: int) -> tuple[int, int]:
        return int(self.r1[x, y]), int(self.r2[x, y])

    def ybe_failure(self):
        """First triple (x, y, z) in lexicographic order where the two
        crossing orders disagree, or None when R satisfies the equation.

        A solution with a declared form is checked on its matrix
        (`_linear_ybe_failure`).  Tables are checked triple by triple, in
        slabs of first coordinates so memory stays bounded for large
        carriers and failing tables exit early.
        """
        if self._ybe_failure is _UNSET and self._linear is not None:
            self._ybe_failure = _linear_ybe_failure(self._linear)
        if self._ybe_failure is _UNSET:
            n = self.size
            # int32 is plenty for any table that fits in memory and halves
            # the traffic of the n^3 gathers below.
            r1 = self.r1.astype(np.int32)
            r2 = self.r2.astype(np.int32)
            step = max(1, SLAB_ENTRIES // (n * n))
            y = np.arange(n).reshape(1, n, 1)
            z = np.arange(n).reshape(1, 1, n)
            d1 = r1[y, z]
            d2 = r2[y, z]
            self._ybe_failure = None
            for start in range(0, n, step):
                x = np.arange(start, min(start + step, n)).reshape(-1, 1, 1)
                blk = (x.shape[0], n, n)
                a1 = np.broadcast_to(r1[x, y], blk)
                a2 = np.broadcast_to(r2[x, y], blk)
                b1 = r1[a2, z]
                b2 = r2[a2, z]
                lhs1 = r1[a1, b1]
                lhs2 = r2[a1, b1]
                e1 = r1[x, d1]
                e2 = r2[x, d1]
                f1 = r1[e2, np.broadcast_to(d2, blk)]
                f2 = r2[e2, np.broadcast_to(d2, blk)]
                ok = (lhs1 == e1) & (lhs2 == f1) & (b2 == f2)
                if not ok.all():
                    flat = int(np.argmax(~ok))
                    i, j, k = np.unravel_index(flat, blk)
                    self._ybe_failure = (start + int(i), int(j), int(k))
                    break
        return self._ybe_failure

    def verify_ybe(self) -> bool:
        return self.ybe_failure() is None

    def verify_birack(self) -> BirackReport:
        """Check invertibility of R and of its two one-sided component maps;
        each map that is invertible gets its inverse table: `rbar1` and
        `rbar2` for negative crossings, `left_inverse` and
        `right_inverse` for the sideways maps."""
        if self._birack is None:
            n = self.size
            elements = np.arange(n)
            packed = (self.r1 * n + self.r2).reshape(-1)
            invertible = bool(np.array_equal(np.sort(packed),
                                             np.arange(n * n)))
            rows_perm = np.sort(self.r1, axis=1)
            left = bool((rows_perm == elements).all())
            cols_perm = np.sort(self.r2, axis=0)
            right = bool((cols_perm == elements.reshape(n, 1)).all())
            if invertible:
                inv = np.empty(n * n, dtype=np.int64)
                inv[packed] = np.arange(n * n)
                self._rbar1 = _frozen((inv // n).reshape(n, n))
                self._rbar2 = _frozen((inv % n).reshape(n, n))
            if left:
                # left_inverse[a, R1(a, b)] = b
                table = np.empty((n, n), dtype=np.int64)
                table[elements[:, None], self.r1] = elements
                self._left_inverse = _frozen(table)
            if right:
                # right_inverse[b, R2(a, b)] = a
                table = np.empty((n, n), dtype=np.int64)
                table[elements, self.r2] = elements[:, None]
                self._right_inverse = _frozen(table)
            self._birack = BirackReport(invertible, left, right)
        return self._birack

    @property
    def rbar1(self) -> np.ndarray:
        """First component of the inverse map: R(rbar1[a,b], rbar2[a,b]) == (a, b)."""
        if self._rbar1 is None and not self.verify_birack().invertible:
            raise ValueError(f"{self.label}: R is not invertible")
        return self._rbar1

    @property
    def rbar2(self) -> np.ndarray:
        if self._rbar2 is None and not self.verify_birack().invertible:
            raise ValueError(f"{self.label}: R is not invertible")
        return self._rbar2

    def rbar(self, a: int, b: int) -> tuple[int, int]:
        return int(self.rbar1[a, b]), int(self.rbar2[a, b])

    @property
    def left_inverse(self) -> np.ndarray:
        """Inverse of b -> R1(a, b) for each a:
        left_inverse[a, R1(a, b)] == b."""
        if self._left_inverse is None and \
                not self.verify_birack().left_invertible:
            raise ValueError(f"{self.label}: R is not left invertible")
        return self._left_inverse

    @property
    def right_inverse(self) -> np.ndarray:
        """Inverse of a -> R2(a, b) for each b:
        right_inverse[b, R2(a, b)] == a."""
        if self._right_inverse is None and \
                not self.verify_birack().right_invertible:
            raise ValueError(f"{self.label}: R is not right invertible")
        return self._right_inverse

    def biquandle_witness(self) -> BiquandleWitness:
        """Unique-fixed-pair maps, raising NotBiquandle at the first element
        whose row or column does not contain exactly one fixed pair."""
        if self._witness is None:
            n = self.size
            grid_x = np.arange(n).reshape(n, 1)
            grid_y = np.arange(n).reshape(1, n)
            fixed = (self.r1 == grid_x) & (self.r2 == grid_y)
            col_counts = fixed.sum(axis=0)
            for a in range(n):
                if col_counts[a] != 1:
                    raise NotBiquandle(
                        a, f"{int(col_counts[a])} fixed pairs (*, {a})")
            row_counts = fixed.sum(axis=1)
            for a in range(n):
                if row_counts[a] != 1:
                    raise NotBiquandle(
                        a, f"{int(row_counts[a])} fixed pairs ({a}, *)")
            x_of = tuple(int(v) for v in fixed.argmax(axis=0))
            y_of = tuple(int(v) for v in fixed.argmax(axis=1))
            self._witness = BiquandleWitness(x_of, y_of)
        return self._witness

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteYBSet)
                and np.array_equal(self.r1, other.r1)
                and np.array_equal(self.r2, other.r2))

    def __repr__(self) -> str:
        return f"FiniteYBSet({self.label})"

    def to_json(self) -> dict:
        return {"size": self.size,
                "R1": self.r1.tolist(),
                "R2": self.r2.tolist()}

    @classmethod
    def from_json(cls, data: dict, label: str | None = None) -> "FiniteYBSet":
        try:
            size = _integer(data["size"], "size")
            r1 = data["R1"]
            r2 = data["R2"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed YB-set data: {exc}") from exc
        made = cls(r1, r2, label=label)
        if made.size != size:
            raise ValueError(
                f"declared size {size} does not match tables of size {made.size}")
        return made


def make_affine(q: int, s: int, t: int, u: int = 1) -> FiniteYBSet:
    """Affine solution R(x, y) = ((1-s)x + u*s*y, t/u*x + (1-t)y) on Z_q.

    q is an integer of at least 2 and s, t, u are integers (ValueError
    otherwise), read mod q.  s, t and u must be units mod q (NotAUnit)
    and (1-s)(1-t) must vanish mod q (ProductNotZero): exactly the
    conditions for R to satisfy the Yang-Baxter equation and be
    invertible.
    """
    q = _integer(q, "q", 2)
    s, t, u = _integer(s, "s") % q, _integer(t, "t") % q, _integer(u, "u") % q
    for value in (s, t, u):
        if gcd(value, q) != 1:
            raise NotAUnit(value, q)
    if (1 - s) * (1 - t) % q:
        raise ProductNotZero(
            f"(1-s)(1-t) = {(1 - s) * (1 - t) % q} != 0 mod {q}")
    check_cap("make_affine", "n^2", q * q, MAX_TABLE_ENTRIES)
    form = LinearForm(q, 1, ((1 - s, u * s), (pow(u, -1, q) * t, 1 - t)))
    return FiniteYBSet._from_linear(form, f"affine(q={q},s={s},t={t},u={u})")


def make_block(q: int, s: int, t: int) -> FiniteYBSet:
    """Solution on pairs Z_q^2 from commuting unipotent blocks.

    With Y = [[1, s], [0, 1]] and Z = [[1, t], [0, 1]] the map is
    R(x, y) = ((E-Y)x + Yy, Zx + (E-Z)y); pairs are indexed as
    x1*q + x2 with the first coordinate most significant.
    """
    q = _integer(q, "q", 2)
    s, t = _integer(s, "s") % q, _integer(t, "t") % q
    check_cap("make_block", "n^2", q ** 4, MAX_TABLE_ENTRIES)
    # columns x1 x2 y1 y2; rows R1 = (y1 + s(y2 - x2), y2),
    # R2 = (x1 + t(x2 - y2), x2)
    form = LinearForm(q, 2, ((0, -s, 1, s),
                             (0, 0, 0, 1),
                             (1, t, 0, -t),
                             (0, 1, 0, 0)))
    return FiniteYBSet._from_linear(form, f"block(q={q},s={s},t={t})")


def make_omega(q: int, h: int, k: int) -> FiniteYBSet:
    """Solution on the truncated ring Z_q[a, b]/(ab, a^h, b^k): with
    a = 1-s and b = 1-t nilpotent, R(x, y) = (y + a*(x - y), x + b*(y - x)).

    An element is its h + k - 1 coefficients: the constant, then
    a, ..., a^(h-1), then b, ..., b^(k-1); they are the digits of its
    index in the declared form.
    """
    q, h, k = _integer(q, "q"), _integer(h, "h"), _integer(k, "k")
    if q < 2 or h < 1 or k < 1:
        raise ValueError("need q >= 2 and h, k >= 1")
    d = h + k - 1
    check_cap("make_omega", "n^2", q ** (2 * d), MAX_TABLE_ENTRIES)
    # digit positions of 1, a, ..., a^(h-1) and of 1, b, ..., b^(k-1)
    a_chain, b_chain = list(range(h)), [0, *range(h, d)]
    # multiplying by a or b shifts the digits one step along its chain
    times_a = np.zeros((d, d), dtype=np.int64)
    times_a[a_chain[1:], a_chain[:-1]] = 1
    times_b = np.zeros((d, d), dtype=np.int64)
    times_b[b_chain[1:], b_chain[:-1]] = 1
    one = np.eye(d, dtype=np.int64)
    # R1 = a*x + (y - a*y), R2 = (x - b*x) + b*y
    form = LinearForm(q, d, np.block([[times_a, one - times_a],
                                      [one - times_b, times_b]]).tolist())
    return FiniteYBSet._from_linear(form, f"omega(q={q},h={h},k={k})")


def _check_colors(size: int, colors) -> tuple[int, ...]:
    """colors as a tuple of Python ints, each through `_integer`.  Refuse
    an entry outside 0..size-1, which would read another tuple's entry of
    a table rather than fail."""
    colors = tuple([_integer(v, "tuple entry") for v in colors])
    for v in colors:
        if not 0 <= v < size:
            raise ValueError(f"tuple entry {v} outside 0..{size - 1}")
    return colors


class CochainTable:
    """Z_m-valued function on X^arity.

    Values are stored densely in lexicographic order of the argument
    tuple, first coordinate most significant, as canonical residues.
    """

    __slots__ = ("arity", "set_size", "modulus", "values")

    def __init__(self, arity: int, set_size: int, modulus: int, values):
        arity = _integer(arity, "arity")
        set_size = _integer(set_size, "set_size")
        modulus = check_modulus(modulus)
        if arity < 0 or set_size < 1:
            raise ValueError("need arity >= 0, set_size >= 1")
        values = _integers(values, "cochain values")
        if values.dtype == object:
            # values past int64 are Python ints; their residues fit
            values = values % modulus
        values = values.astype(np.int64, copy=False).reshape(-1) % modulus
        if values.shape[0] != set_size ** arity:
            raise ValueError(
                f"need {set_size ** arity} values, got {values.shape[0]}")
        values.setflags(write=False)
        self.arity = arity
        self.set_size = set_size
        self.modulus = modulus
        self.values = values

    @classmethod
    def from_function(cls, arity: int, set_size: int, modulus: int,
                      fn) -> "CochainTable":
        """The table of fn over X^arity, tuples in lexicographic order;
        the values are checked once, by the constructor."""
        arity = _integer(arity, "arity")
        values = [fn(*xs) for xs in product(
            range(_integer(set_size, "set_size")), repeat=arity)]
        return cls(arity, set_size, modulus, values)

    @classmethod
    def zero(cls, arity: int, set_size: int, modulus: int) -> "CochainTable":
        return cls(arity, set_size, modulus,
                   np.zeros(set_size ** arity, dtype=np.int64))

    def index(self, xs) -> int:
        if len(xs) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(xs)}")
        idx = 0
        for x in _check_colors(self.set_size, xs):
            idx = idx * self.set_size + x
        return idx

    def __call__(self, *xs) -> int:
        return int(self.values[self.index(xs)])

    def as_array(self) -> np.ndarray:
        return self.values.reshape((self.set_size,) * self.arity)

    def is_zero(self) -> bool:
        return not self.values.any()

    def __eq__(self, other) -> bool:
        return (isinstance(other, CochainTable)
                and self.arity == other.arity
                and self.set_size == other.set_size
                and self.modulus == other.modulus
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        return (f"CochainTable(arity={self.arity}, set_size={self.set_size}, "
                f"modulus={self.modulus})")

    def to_json(self) -> dict:
        return {"arity": self.arity, "set_size": self.set_size,
                "modulus": self.modulus, "values": self.values.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "CochainTable":
        try:
            return cls(data["arity"], data["set_size"], data["modulus"],
                       data["values"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed cochain data: {exc}") from exc


def _check_extension_cochain(psi: CochainTable, base: FiniteYBSet, m: int,
                             name: str):
    if psi.arity != 2:
        raise ArityMismatch(f"{name} must have arity 2, got {psi.arity}")
    if psi.set_size != base.size:
        raise ArityMismatch(
            f"{name} is defined on a set of size {psi.set_size}, "
            f"base has size {base.size}")
    if psi.modulus != m:
        raise ModulusMismatch(
            f"{name} has modulus {psi.modulus}, extension uses {m}")


def _extension_form(base: LinearForm | None, m: int, psi1: CochainTable,
                    psi2: CochainTable) -> LinearForm | None:
    """The form of the extension of a linear base over Z_m by psi1, psi2,
    or None unless m is the base's q and both cochains are linear in the
    digits.

    The pair (a, x), indexed a * q^d + x, has the d + 1 digits a, x, so
    the form maps (a1, x1, a2, x2) to (c1, y1, c2, y2) with
    c1 = a2 + psi1(x1, x2), c2 = a1 + psi2(x1, x2) and the base's matrix
    taking the x digits to the y digits.
    """
    if base is None or base.q != m:
        return None
    q, d = base.q, base.d
    units = base.weights
    digits = base.digits(np.arange(q ** d))
    # both tables are fitted in one pass: the coefficients are each psi's
    # values on the unit pairs (e_j, 0) and (0, e_j), and the fit must
    # then reproduce the whole table, its 0 at (0, 0) included
    tables = np.array([psi1.as_array(), psi2.as_array()])
    in_x, in_y = tables[:, units, 0], tables[:, 0, units]
    fitted = (in_x @ digits.T)[:, :, None] + (in_y @ digits.T)[:, None, :]
    if not np.array_equal(fitted % q, tables):
        return None
    fits = np.concatenate([in_x, in_y], axis=1).tolist()

    def row(a1, a2, on_x):
        # on_x holds the coefficients of the digits of x1, then x2
        return [a1, *on_x[:d], a2, *on_x[d:]]

    A = base.matrix
    return LinearForm(q, d + 1, [
        row(0, 1, fits[0]), *(row(0, 0, r) for r in A[:d]),
        row(1, 0, fits[1]), *(row(0, 0, r) for r in A[d:])])


def extend(X: FiniteYBSet, m: int, psi1: CochainTable,
           psi2: CochainTable | None = None) -> FiniteYBSet:
    """Twisted product on Z_m x X:

        S((a1, x1), (a2, x2)) = ((a2 + psi1(x1, x2), R1(x1, x2)),
                                 (a1 + psi2(x1, x2), R2(x1, x2))).

    Pairs are indexed as a * |X| + x.  The result is returned unverified;
    it satisfies the Yang-Baxter equation exactly when the cochain pair
    does, so callers should run verify_ybe on it.  psi2 defaults to psi1.

    When X declares a form over Z_m and both cochains are linear in the
    digits, the extension declares one too (`_extension_form`).  The
    tables are the same either way: the form was fitted to psi's whole
    tables, and X's tables come from its own form.
    """
    m = _integer(m, "modulus", 2)
    if psi2 is None:
        psi2 = psi1
    _check_extension_cochain(psi1, X, m, "psi1")
    _check_extension_cochain(psi2, X, m, "psi2")
    n = X.size
    big = m * n
    check_cap("extend", "n^2", big * big, MAX_TABLE_ENTRIES)
    a1 = np.arange(m, dtype=np.int64).reshape(m, 1, 1, 1)
    x1 = np.arange(n, dtype=np.int64).reshape(1, n, 1, 1)
    a2 = np.arange(m, dtype=np.int64).reshape(1, 1, m, 1)
    x2 = np.arange(n, dtype=np.int64).reshape(1, 1, 1, n)
    p1 = psi1.as_array()[x1, x2]
    p2 = psi2.as_array()[x1, x2]
    s1 = ((a2 + p1) % m) * n + X.r1[x1, x2]
    s2 = ((a1 + p2) % m) * n + X.r2[x1, x2]
    shape = (m, n, m, n)
    # the tables share memory with no other array, and each entry is a
    # residue mod m times n plus an entry of X, so in 0..big-1
    s1 = np.broadcast_to(s1, shape).reshape(big, big)
    s2 = np.broadcast_to(s2, shape).reshape(big, big)
    return FiniteYBSet._built(s1, s2, f"extend(m={m}, base={X.label})",
                              _extension_form(X.linear, m, psi1, psi2))


def omega_extension_check(q: int, h: int, k: int) -> bool:
    """Confirm that raising both truncation degrees realizes the predicted
    twisted product.

    The ring with degrees (h+1, k+1) maps onto the (h, k) ring by dropping
    top coefficients; the dropped pair lives in Z_q x Z_q and the big
    solution must equal the extension of the small one by the cochain pair

        psi1(x, y) = (x_a(h-1) - y_a(h-1), 0),
        psi2(x, y) = (0, y_b(k-1) - x_b(k-1)),

    where x_a(d), x_b(d) are the degree-d coefficients (degree 0 meaning
    the constant).  Returns True when every pair matches.
    """
    big = make_omega(q, h + 1, k + 1)
    small = make_omega(q, h, k)
    # digit positions in the big ring: a^(h-1) and a^h are h-1 and h, b^k
    # is the last, h+k, and b^(k-1) the one before it or the constant
    low_a, a_top = h - 1, h
    low_b, b_top = h + k - 1 if k > 1 else 0, h + k
    digit = big.linear.digits(np.arange(big.size)).T
    bar = small.linear.index(np.delete(digit, [a_top, b_top], 0).T)
    # the elements whose two top coefficients vanish, in index order, are
    # the small ring in its own order
    lift = np.flatnonzero((digit[a_top] == 0) & (digit[b_top] == 0))
    x = np.arange(big.size).reshape(-1, 1)
    y = x.reshape(1, -1)
    psi1 = (digit[low_a][x] - digit[low_a][y]) % q
    psi2 = (digit[low_b][y] - digit[low_b][x]) % q
    w = big.linear.weights
    want1 = (lift[small.r1[bar[x], bar[y]]]
             + (digit[a_top][y] + psi1) % q * w[a_top]
             + digit[b_top][y] * w[b_top])
    want2 = (lift[small.r2[bar[x], bar[y]]]
             + digit[a_top][x] * w[a_top]
             + (digit[b_top][x] + psi2) % q * w[b_top])
    return bool(np.array_equal(big.r1, want1)
                and np.array_equal(big.r2, want2))


def swap_set(n: int) -> FiniteYBSet:
    """The trivial solution R(x, y) = (y, x) on n elements."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("need at least one element")
    check_cap("swap_set", "n^2", n * n, MAX_TABLE_ENTRIES)
    i = np.arange(n, dtype=np.int64)
    r1 = np.broadcast_to(i.reshape(1, n), (n, n))
    r2 = np.broadcast_to(i.reshape(n, 1), (n, n))
    return FiniteYBSet(r1, r2, label=f"swap(n={n})")
