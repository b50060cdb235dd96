"""Finite Yang-Baxter sets: constructors, inverses, extensions."""

import itertools
import json
import random
import time
from math import gcd

import numpy as np
import pytest

from ybknots import (
    CochainTable,
    FiniteYBSet,
    LinearForm,
    coboundary,
    extend,
    is_coboundary,
    make_affine,
    make_block,
    make_omega,
    obstruction_cocycle,
    omega_extension_check,
    parse_braid,
    state_sum,
    swap_set,
    ybcore,
)
from ybknots.errors import (
    ArityMismatch,
    ModulusMismatch,
    NotAUnit,
    NotBiquandle,
    ProductNotZero,
    ResourceBound,
)
from ybknots.reference import z3_biquandle, z4_biquandle


def _units(q):
    return [v for v in range(1, q) if gcd(v, q) == 1]


def _affine_params(q_max):
    for q in range(2, q_max + 1):
        for s, t in itertools.product(_units(q), repeat=2):
            if (1 - s) * (1 - t) % q == 0:
                for u in _units(q):
                    yield q, s, t, u


def test_affine_validation():
    with pytest.raises(NotAUnit):
        make_affine(4, 2, 1)
    with pytest.raises(NotAUnit):
        make_affine(4, 1, 2)
    with pytest.raises(NotAUnit):
        make_affine(4, 1, 3, u=2)
    with pytest.raises(ProductNotZero):
        make_affine(5, 2, 2)


def test_affine_family_is_yang_baxter():
    count = 0
    for q, s, t, u in _affine_params(8):
        X = make_affine(q, s, t, u)
        assert X.verify_ybe(), (q, s, t, u)
        report = X.verify_birack()
        assert report.invertible and report.left_invertible \
            and report.right_invertible
        count += 1
    assert count > 50


def test_affine_witness_closed_form():
    # fixed pairs of the affine map sit at x_a = u*a and y_a = u^-1*a
    for q, s, t, u in _affine_params(8):
        X = make_affine(q, s, t, u)
        w = X.biquandle_witness()
        uinv = pow(u, -1, q)
        assert w.x_of == tuple(u * a % q for a in range(q))
        assert w.y_of == tuple(uinv * a % q for a in range(q))


def test_z4_biquandle_frozen_tables():
    X = z4_biquandle()
    for x, y in itertools.product(range(4), repeat=2):
        assert X.r(x, y) == (3 * y % 4, (x + 2 * y) % 4)
        assert X.rbar(x, y) == ((2 * x + y) % 4, 3 * x % 4)
    assert X.biquandle_witness().x_of == (0, 3, 2, 1)
    assert X.biquandle_witness().y_of == (0, 3, 2, 1)


@pytest.mark.parametrize("maker", [
    lambda: z4_biquandle(),
    lambda: z3_biquandle(),
    lambda: make_affine(15, 4, 11, 2),
    lambda: make_block(3, 1, 1),
    lambda: make_omega(2, 2, 2),
    lambda: swap_set(5),
])
def test_rbar_inverts_r(maker):
    X = maker()
    for x, y in itertools.product(range(X.size), repeat=2):
        a, b = X.r(x, y)
        assert X.rbar(a, b) == (x, y)
        c, d = X.rbar(x, y)
        assert X.r(c, d) == (x, y)
        # the sideways maps: (x, R1(x, y)) gives y, (y, R2(x, y)) gives x
        assert X.left_inverse[x, a] == y
        assert X.right_inverse[y, b] == x


def test_block_family_is_yang_baxter():
    # the two-block shear solves the equation for every s, t mod q
    for q in range(2, 6):
        for s, t in itertools.product(range(q), repeat=2):
            X = make_block(q, s, t)
            assert X.size == q * q
            assert X.verify_ybe(), (q, s, t)
            assert X.verify_birack().invertible
            w = X.biquandle_witness()
            assert w.x_of == tuple(range(q * q))
            assert w.y_of == tuple(range(q * q))


def test_block_tables_closed_form():
    q, s, t = 4, 3, 2
    X = make_block(q, s, t)
    for x1, x2, y1, y2 in itertools.product(range(q), repeat=4):
        out1, out2 = X.r(x1 * q + x2, y1 * q + y2)
        assert out1 == (y1 + s * (y2 - x2)) % q * q + y2
        assert out2 == (x1 + t * (x2 - y2)) % q * q + x2


def _omega_digits(q, h, k, index):
    """Coefficients (constant, a^1.., b^1..) of the element with this
    index, constant most significant."""
    digits = []
    for _ in range(h + k - 1):
        index, d = divmod(index, q)
        digits.append(d)
    return tuple(reversed(digits))


def _omega_mul(q, h, x, y):
    """Product in Z_q[a, b]/(ab, a^h, b^k) of coefficient tuples: the a-
    and b-series are truncated convolutions that share the constant."""
    def conv(u, v):
        return [sum(u[i] * v[d - i] for i in range(d + 1)) % q
                for d in range(len(u))]
    a_part = conv(x[:h], y[:h])
    b_part = conv(x[:1] + x[h:], y[:1] + y[h:])
    return tuple(a_part) + tuple(b_part[1:])


def _omega_add(q, x, y, sign=1):
    return tuple((u + sign * v) % q for u, v in zip(x, y))


@pytest.mark.parametrize("q,h,k", [(2, 1, 1), (2, 1, 2), (2, 2, 1),
                                   (2, 2, 2), (3, 1, 1), (3, 2, 1),
                                   (3, 1, 2), (3, 2, 2)])
def test_omega_family(q, h, k):
    X = make_omega(q, h, k)
    assert X.size == q ** (h + k - 1)
    assert X.verify_ybe()
    assert X.verify_birack().invertible
    zero = (0,) * (h + k - 1)
    a = tuple(int(h > 1 and i == 1) for i in range(h + k - 1))
    b = tuple(int(k > 1 and i == h) for i in range(h + k - 1))
    assert _omega_mul(q, h, a, b) == zero
    pa = a
    for _ in range(h - 1):
        pa = _omega_mul(q, h, pa, a)
    assert pa == zero  # a^h = 0
    pb = b
    for _ in range(k - 1):
        pb = _omega_mul(q, h, pb, b)
    assert pb == zero  # b^k = 0
    # the declared form's codec reads an index as the coefficients
    index = np.arange(X.size)
    digits = X.linear.digits(index)
    assert [tuple(row) for row in digits.tolist()] == [
        _omega_digits(q, h, k, i) for i in range(X.size)]
    assert np.array_equal(X.linear.index(digits), index)
    # R(alpha, beta) = (beta + a(alpha-beta), alpha + b(beta-alpha))
    for i, j in itertools.product(range(X.size), repeat=2):
        alpha, beta = _omega_digits(q, h, k, i), _omega_digits(q, h, k, j)
        o1, o2 = X.r(i, j)
        assert _omega_digits(q, h, k, o1) == _omega_add(
            q, beta, _omega_mul(q, h, a, _omega_add(q, alpha, beta, -1)))
        assert _omega_digits(q, h, k, o2) == _omega_add(
            q, alpha, _omega_mul(q, h, b, _omega_add(q, beta, alpha, -1)))


def test_omega_extension_tower_smoke(monkeypatch):
    # every tower with q in 2..5, h, k in 1..3 and at most 2^22 table
    # entries; the prediction is two `extend`s on declared forms, so no
    # table is built
    def refuse(form):
        raise AssertionError("omega_extension_check built a table")

    monkeypatch.setattr(ybcore, "_linear_tables", refuse)
    towers = [(q, h, k) for q in range(2, 6) for h in range(1, 4)
              for k in range(1, 4) if q ** (2 * (h + k + 1)) <= 2 ** 22]
    assert len(towers) == 26
    assert all(omega_extension_check(q, h, k) for q, h, k in towers)


@pytest.mark.parametrize("q,h,k", [(3, 1, 1), (3, 2, 1)])
def test_omega_extension_check_catches_flipped_psi1(monkeypatch, q, h, k):
    # the (h+1, k+1) table with psi1 negated in its top a-coefficient
    real = ybcore.make_omega

    def flipped(q_, h_, k_):
        X = real(q_, h_, k_)
        if (h_, k_) != (h + 1, k + 1):
            return X
        form = X.linear
        digits = form.digits(X.r1)
        # a^h, the top a-coefficient, is digit h
        y_top = form.digits(np.arange(X.size))[:, h]
        # r1's top a-coefficient is y_top + psi1; make it y_top - psi1
        digits[..., h] = (2 * y_top - digits[..., h]) % q_
        # psi1 = x_a(h-1) - y_a(h-1) is linear in the digits, so this
        # negates two entries of the form's row for digit h
        A = np.array(form.matrix)
        A[h, [h - 1, form.d + h - 1]] *= -1
        made = FiniteYBSet._from_linear(LinearForm(q_, form.d, A.tolist()),
                                        "flipped")
        assert np.array_equal(made.r1, form.index(digits))
        assert np.array_equal(made.r2, X.r2)
        return made

    assert omega_extension_check(q, h, k)
    monkeypatch.setattr(ybcore, "make_omega", flipped)
    assert not omega_extension_check(q, h, k)


def test_constructors_cap_table_size():
    with pytest.raises(ResourceBound, match="make_affine"):
        make_affine(4097, 1, 1)
    with pytest.raises(ResourceBound, match=r"^make_block: n\^2 = 17850625 "
                       rf"exceeds the cap {ybcore.MAX_ENTRIES}$"):
        make_block(65, 1, 1)
    with pytest.raises(ResourceBound, match="make_omega"):
        make_omega(2, 40, 40)
    with pytest.raises(ResourceBound, match="extend"):
        extend(swap_set(64), 65, CochainTable.zero(2, 64, 65))
    with pytest.raises(ResourceBound, match="swap_set"):
        swap_set(4097)
    with pytest.raises(ValueError, match="^need at least one element$"):
        swap_set(0)
    assert swap_set(4096).size == 4096
    with pytest.raises(ResourceBound, match=r"^LinearForm: q\^d = "
                       rf"{2 ** 63} exceeds the cap {2 ** 63 - 1}$"):
        LinearForm(2, 63, ())
    # q^(2*10^7) and 3^(10^7) would take seconds to compute; each power
    # is refused from exponent * log2(q) instead
    start = time.perf_counter()
    for make, want in (
            (lambda: make_omega(3, 10 ** 7, 1),
             r"make_omega: n\^2 = 2\^31699250 or more exceeds the cap "
             rf"{ybcore.MAX_ENTRIES}"),
            (lambda: LinearForm(3, 10 ** 7, ()),
             r"LinearForm: q\^d = 2\^15849625 or more exceeds the cap "
             rf"{2 ** 63 - 1}"),
            (lambda: make_block(2 ** 20000, 1, 1),
             r"make_block: n\^2 = 2\^79999 or more exceeds the cap "
             rf"{ybcore.MAX_ENTRIES}")):
        with pytest.raises(ResourceBound, match=rf"^{want}$"):
            make()
    assert time.perf_counter() - start < 1


def test_linear_form_refuses_bad_parameters():
    # q = 0 would divide by zero and d = 0 would build tables with no
    # digits to read
    for q, d, matrix in ((0, 1, ((0, 0), (0, 0))), (1, 1, ((0, 0), (0, 0))),
                         (2, 0, ())):
        with pytest.raises(ValueError, match="need q >= 2 and d >= 1"):
            LinearForm(q, d, matrix)
    with pytest.raises(ValueError, match="^need a 2 x 2 matrix$"):
        LinearForm(3, 1, ((1, 0, 0), (0, 1, 0)))


def test_linear_form_codec_stays_in_int64():
    # 2^62 elements: the largest power of two an int64 index reaches
    form = LinearForm(2, 62, np.eye(124, dtype=np.int64).tolist())
    assert form.weights[0] == 2 ** 61
    index = np.array([5, 2 ** 62 - 1])
    digits = form.digits(index)
    assert digits.shape == (2, 62)
    assert digits[1].tolist() == [1] * 62
    assert digits[0].tolist() == [0] * 59 + [1, 0, 1]
    assert np.array_equal(form.index(digits), index)
    for d in (63, 79):
        with pytest.raises(ResourceBound,
                           match=rf"LinearForm: q\^d = {2 ** d} exceeds"):
            LinearForm(2, d, np.eye(2 * d, dtype=np.int64).tolist())
    # the constructors refuse first, on their table cap or their input
    with pytest.raises(ResourceBound, match="make_omega"):
        make_omega(2, 32, 32)
    with pytest.raises(ValueError):
        make_omega(1, 40, 40)


def test_codec_round_trips():
    rng = np.random.default_rng(4)
    for base, length in ((1, 3), (2, 62), (3, 0), (7, 1), (15, 5)):
        total = min(base ** length, 2 ** 62)
        index = np.unique(np.concatenate(
            [[0, total - 1], rng.integers(0, total, 50)]))
        digits = ybcore._decode(index, base, length)
        assert digits.shape == (len(index), length)
        assert ((0 <= digits) & (digits < base)).all()
        assert np.array_equal(ybcore._encode(digits, base), index)
    # base 1 has only the zero tuple, and no digits read as index 0
    assert ybcore._decode([0], 1, 4).tolist() == [[0, 0, 0, 0]]
    assert ybcore._encode(np.zeros((3, 0), dtype=np.int64), 5).tolist() == \
        [0, 0, 0]
    assert ybcore._decode(np.arange(3), 5, 0).shape == (3, 0)
    # lexicographic order, first digit most significant
    assert ybcore._decode(np.arange(4), 2, 2).tolist() == \
        [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_ybe_failure_slabs_keep_the_first_failure(monkeypatch):
    # R is the swap on pairs that mix 0..a-1 with a..n-1, and a solution
    # or a random table on each part.  Every triple touching the first
    # part then passes, so a random second part fails first at some
    # x >= a, past the first slab of one first coordinate.
    rng = np.random.default_rng(11)
    tables = []
    for n in (4, 7, 12):
        for a in range(n):
            r1 = np.tile(np.arange(n), (n, 1))
            r2 = r1.T.copy()
            first = make_affine(a, 1, a - 1) if a > 1 else swap_set(max(a, 1))
            r1[:a, :a], r2[:a, :a] = first.r1[:a, :a], first.r2[:a, :a]
            r1[a:, a:], r2[a:, a:] = rng.integers(a, n, (2, n - a, n - a))
            tables.append((r1, r2))
    expect = [FiniteYBSet(r1, r2).ybe_failure() for r1, r2 in tables]
    assert len({f[0] for f in expect if f is not None}) >= 8
    # one first coordinate per slab
    monkeypatch.setattr(ybcore, "SLAB_ENTRIES", 1)
    assert [FiniteYBSet(r1, r2).ybe_failure() for r1, r2 in tables] == \
        expect


@pytest.mark.parametrize("X", [
    make_affine(15, 4, 11, 2), make_affine(12, 5, 1, 5), make_affine(8, 3, 1),
    make_affine(9, 4, 1, 2), make_block(3, 1, 2), make_block(4, 3, 2),
    make_omega(2, 2, 2), make_omega(3, 2, 1), make_omega(2, 3, 2),
    make_omega(3, 2, 2),
    extend(make_block(3, 1, 2), 3,
           CochainTable.from_function(2, 9, 3, lambda x, y: x - 2 * y),
           CochainTable.from_function(2, 9, 3, lambda x, y: x // 3 + y % 3)),
], ids=lambda X: X.label)
def test_constructors_declare_linear_form(X):
    form = X.linear
    assert isinstance(form, LinearForm)
    assert form.q ** form.d == X.size
    with pytest.raises(AttributeError):
        X.linear = None
    for table in (X.r1, X.r2):
        assert table.dtype == np.int64 and not table.flags.writeable

    def digits(i):
        # d base-q digits, most significant first
        return [i // form.q ** (form.d - 1 - j) % form.q
                for j in range(form.d)]

    A = np.array(form.matrix)
    assert A.shape == (2 * form.d, 2 * form.d)
    for x, y in itertools.product(range(X.size), repeat=2):
        r1, r2 = X.r(x, y)
        assert (A @ (digits(x) + digits(y)) % form.q).tolist() == \
            digits(r1) + digits(r2)
    # the form's check and brute force on the same tables agree
    assert X.ybe_failure() == FiniteYBSet(X.r1, X.r2).ybe_failure()


def test_table_loaded_sets_declare_no_form():
    X = make_affine(5, 2, 1)
    assert FiniteYBSet(X.r1, X.r2).linear is None
    assert FiniteYBSet.from_json(X.to_json()).linear is None
    V = extend(X, 2, CochainTable.zero(2, 5, 2))
    assert V.linear is None
    for table in (V.r1, V.r2):
        assert table.dtype == np.int64 and not table.flags.writeable
    assert swap_set(3).linear is None


def _psi(q, m, fn):
    return CochainTable.from_function(2, q, m, fn)


def _criterion9_extensions(q_max):
    """The extensions of criterion 9: the affine base (q, s, t) twisted by
    u1(y - x) and u2(y - x) over Z_q."""
    for q in range(2, q_max + 1):
        for s, t in itertools.product(_units(q), repeat=2):
            if (1 - s) * (1 - t) % q:
                continue
            X = make_affine(q, s, t)
            for u1, u2 in itertools.product(range(q), repeat=2):
                yield extend(X, q, _psi(q, q, lambda x, y: u1 * (y - x)),
                             _psi(q, q, lambda x, y: u2 * (y - x)))


def _brute_force(X):
    return FiniteYBSet(X.r1, X.r2).ybe_failure()


def test_linear_ybe_failure_matches_brute_force_on_extensions():
    count = 0
    for V in _criterion9_extensions(7):
        assert V.linear is not None
        assert V.ybe_failure() == _brute_force(V), V.label
        count += 1
    assert count == 917


def _random_form(rng, q, d):
    """A random matrix, sparse enough at times that failures land at
    varied digits.  One draw in eight is a solution instead: an affine one,
    or for d = 2 a block one relabelled by an invertible digit map P."""
    if rng.random() < 0.125:
        if d == 1:
            params = [p for p in _affine_params(q) if p[0] == q]
            return make_affine(*params[rng.integers(len(params))]).linear
        while True:
            (a, b), (c, e) = P = rng.integers(0, q, (2, 2))
            if gcd(int(a * e - b * c), q) == 1:
                break
        P_inv = np.array([[e, -b], [-c, a]]) * pow(int(a * e - b * c), -1, q)
        A = np.array(make_block(q, 1, 1).linear.matrix)
        relabel = np.kron(np.eye(2, dtype=np.int64), P)
        back = np.kron(np.eye(2, dtype=np.int64), P_inv % q)
        return LinearForm(q, 2, (relabel @ A @ back % q).tolist())
    matrix = rng.integers(0, q, (2 * d, 2 * d))
    matrix *= rng.random((2 * d, 2 * d)) < rng.choice([0.6, 1.0])
    return LinearForm(q, d, matrix.tolist())


def test_linear_ybe_failure_matches_brute_force_on_random_forms():
    rng = np.random.default_rng(20)
    failures = set()
    solutions = 0
    for i in range(240):
        q, d = int(rng.integers(2, 7)), int(rng.integers(1, 3))
        X = FiniteYBSet._from_linear(_random_form(rng, q, d), f"random{i}")
        got = X.ybe_failure()
        assert got == _brute_force(X), (X.linear, got)
        if got is None:
            solutions += 1
        else:
            failures.add(got)
    # mostly non-solutions, failing at many different first triples
    assert 20 <= solutions < 120
    assert len(failures) >= 8


def test_linear_ybe_failure_reports_the_last_nonzero_column():
    # R(x, y) = (2x, y) on Z_3: LML - MLM = diag(2, 1, 0) mod 3, so both
    # (1, 0, 0) and (0, 1, 0) fail, and the last nonzero column gives the
    # one that comes first
    X = FiniteYBSet._from_linear(LinearForm(3, 1, ((2, 0), (0, 1))), "scale")
    assert X.ybe_failure() == (0, 1, 0) == _brute_force(X)
    assert not X.verify_ybe()


def _det(rows):
    """The determinant over Z, by expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:]
                                               for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def test_form_inverse_matches_the_determinant_and_the_tables():
    # A^-1 over Z_q against two oracles: A is invertible mod q exactly
    # when its determinant is a unit, and then column j of A^-1 is the
    # digits of Rbar at the pair whose only nonzero digit is a 1 in digit
    # j.  verify_birack builds the n x n tables, 2 s at n = 4096, so the
    # tables are read for the sets of at most 1000 elements
    rng = random.Random("form inverse")
    moduli = (2, 4, 6, 8, 9, 12, 15, 16)
    kinds = {True: 0, False: 0}
    for case in range(300):
        q, d = moduli[case % 8], case // 8 % 3 + 1
        size = 2 * d
        if rng.random() < 0.5:
            A = np.array([[rng.randrange(q) for _ in range(size)]
                          for _ in range(size)])
        else:
            # row operations from I, and one row scaled by any residue
            A = np.eye(size, dtype=np.int64)
            for _ in range(3 * size):
                i, j = rng.sample(range(size), 2)
                A[i] += rng.randrange(q) * A[j]
            A[rng.randrange(size)] *= rng.randrange(1, q)
            A %= q
        X = FiniteYBSet._from_linear(LinearForm(q, d, A.tolist()), "random")
        inverse = X._form_inverse
        invertible = gcd(_det(A.tolist()), q) == 1
        kinds[invertible] += 1
        assert (inverse is not None) == invertible, (q, A.tolist())
        if invertible:
            assert not inverse.flags.writeable
            assert np.array_equal(A @ inverse % q, np.eye(size))
            assert np.array_equal(inverse @ A % q, np.eye(size))
        if q ** d > 1000:
            continue
        assert X.verify_birack().invertible == invertible
        if invertible:
            units = q ** np.arange(d - 1, -1, -1)
            pairs = [(u, 0) for u in units] + [(0, u) for u in units]
            rbar = X.linear.digits(np.array([X.rbar(x, y) for x, y in pairs]))
            assert np.array_equal(rbar.reshape(size, size).T, inverse)
    assert min(kinds.values()) >= 60


@pytest.mark.parametrize("base", [
    make_affine(4, 1, 3), make_affine(5, 2, 1), make_block(3, 1, 2),
    make_omega(2, 2, 2)], ids=lambda X: X.label)
def test_extend_declares_form_only_for_linear_cochains(base):
    q, n = base.linear.q, base.size
    # y // q drops the last digit, so mod q it is the digit before it
    linear = [_psi(n, q, lambda x, y: 0), _psi(n, q, lambda x, y: y - x),
              _psi(n, q, lambda x, y: 2 * x + y // q)]
    not_linear = [
        _psi(n, q, lambda x, y: 1 + y - x),       # psi(0, 0) != 0
        _psi(n, q, lambda x, y: x * y),           # not linear
        # agrees with the zero fit on every unit pair and at (0, 0)
        _psi(n, q, lambda x, y: int(x == y == n - 1)),
    ]
    copy = FiniteYBSet(base.r1, base.r2)
    for psi1, psi2, has_form in (
            [(p, linear[1], True) for p in linear]
            + [(p, linear[1], False) for p in not_linear]
            + [(linear[1], p, False) for p in not_linear]):
        V = extend(base, q, psi1, psi2)
        assert (V.linear is not None) == has_form, (psi1.values, psi2.values)
        assert V.label == f"extend(m={q}, base={base.label})"
        W = extend(copy, q, psi1, psi2)
        assert W.linear is None
        if has_form:
            # V is defined by its form: it holds no table until the
            # comparison below reads one
            assert not {"r1", "r2"} & vars(V).keys()
        assert np.array_equal(V.r1, W.r1) and np.array_equal(V.r2, W.r2)
        if has_form:
            # the declared form reproduces the tables it was fitted to
            r1, r2 = ybcore._linear_tables(V.linear)
            assert np.array_equal(r1, V.r1) and np.array_equal(r2, V.r2)
    # over another modulus the extension keeps the table path
    m = q + 1
    V = extend(base, m, _psi(n, m, lambda x, y: y - x))
    assert V.linear is None
    W = extend(copy, m, _psi(n, m, lambda x, y: y - x))
    assert np.array_equal(V.r1, W.r1) and np.array_equal(V.r2, W.r2)


@pytest.fixture
def table_builds(monkeypatch):
    """The forms `ybcore._linear_tables` is called on, in call order."""
    calls = []
    real = ybcore._linear_tables
    monkeypatch.setattr(ybcore, "_linear_tables",
                        lambda form: calls.append(form) or real(form))
    return calls


_DECLARED = [
    lambda: make_affine(4, 1, -1, -1), lambda: make_block(3, 1, 2),
    lambda: make_omega(2, 2, 2),
    lambda: extend(make_affine(5, 2, 1), 5, _psi(5, 5, lambda x, y: y - x))]


@pytest.mark.parametrize("make", _DECLARED)
def test_declared_forms_are_checked_without_tables(make, table_builds):
    X = make()
    assert X.linear is not None and X.size == X.linear.q ** X.linear.d
    assert X.label and X.verify_ybe() == (X.ybe_failure() is None)
    assert table_builds == []


@pytest.mark.parametrize("read", [
    lambda X: X.r1, lambda X: X.r2, FiniteYBSet.to_json,
    FiniteYBSet.verify_birack,
    lambda X: coboundary(X, CochainTable.zero(1, X.size, 3))],
    ids=["r1", "r2", "to_json", "verify_birack", "coboundary"])
@pytest.mark.parametrize("make", _DECLARED)
def test_first_table_read_builds_both_tables_once(make, read, table_builds):
    X = make()
    read(X)
    assert table_builds == [X.linear]
    r1, r2 = X.r1, X.r2
    for table in (r1, r2):
        assert table.dtype == np.int64 and not table.flags.writeable
    X.to_json()
    X.verify_birack()
    coboundary(X, CochainTable.zero(1, X.size, 3))
    assert X.r1 is r1 and X.r2 is r2
    assert table_builds == [X.linear]


def test_extend_reads_a_declared_base_tables_on_demand(table_builds):
    # R(x, y) = (-x + 2y, x) on Z_5, twisted by a cochain with no form
    X = make_affine(5, 2, 1)
    psi = _psi(5, 5, lambda x, y: x * y)
    assert table_builds == []
    V = extend(X, 5, psi)
    assert V.linear is None and table_builds == [X.linear]
    for (a1, x1), (a2, x2) in itertools.product(
            itertools.product(range(5), repeat=2), repeat=2):
        assert V.r(a1 * 5 + x1, a2 * 5 + x2) == (
            (a2 + x1 * x2) % 5 * 5 + (2 * x2 - x1) % 5,
            (a1 + x1 * x2) % 5 * 5 + x1)
    assert table_builds == [X.linear]


@pytest.mark.parametrize("make", [
    lambda: make_affine(15, 4, 11, 2), lambda: make_block(4, 3, 2),
    lambda: make_omega(3, 2, 1), lambda: swap_set(5),
    lambda: extend(make_affine(5, 2, 1), 5, _psi(5, 5, lambda x, y: y - x)),
    lambda: extend(make_affine(5, 2, 1), 5, _psi(5, 5, lambda x, y: x * y)),
    lambda: FiniteYBSet([[1, 0], [0, 1]], [[0, 1], [1, 0]]),
    lambda: FiniteYBSet.from_json(make_block(3, 1, 1).to_json())])
def test_tables_are_frozen_int64_indices(make):
    X = make()
    for table in (X.r1, X.r2):
        assert table.dtype == np.int64
        assert table.shape == (X.size, X.size)
        assert not table.flags.writeable
        assert 0 <= table.min() and table.max() < X.size


def test_swap_set():
    X = swap_set(6)
    assert X.verify_ybe()
    for x, y in itertools.product(range(6), repeat=2):
        assert X.r(x, y) == (y, x)
    w = X.biquandle_witness()
    assert w.x_of == tuple(range(6))


def test_degenerate_projection_set():
    # R(x, y) = (y, y) solves the equation but only one side inverts
    table = [[y for y in range(3)] for _ in range(3)]
    X = FiniteYBSet(table, table)
    assert X.verify_ybe()
    report = X.verify_birack()
    assert not report.invertible
    assert report.left_invertible
    assert not report.right_invertible
    with pytest.raises(ValueError):
        X.rbar1
    assert X.left_inverse.tolist() == table
    with pytest.raises(ValueError, match="not right invertible"):
        X.right_inverse


def test_identity_map_has_no_witness():
    X = FiniteYBSet([[x for _ in range(3)] for x in range(3)],
                    [[y for y in range(3)] for _ in range(3)])
    assert X.verify_ybe()
    with pytest.raises(NotBiquandle):
        X.biquandle_witness()
    # every column has one fixed pair, but row 0 has two
    Y = FiniteYBSet([[0, 0], [0, 0]], [[0, 1], [0, 0]])
    with pytest.raises(NotBiquandle, match=r"\(2 fixed pairs \(0, \*\)\)"):
        Y.biquandle_witness()


def test_derived_values_are_computed_once(monkeypatch):
    calls = []
    real = ybcore._linear_ybe_failure
    monkeypatch.setattr(ybcore, "_linear_ybe_failure",
                        lambda form: calls.append(form) or real(form))
    X = make_affine(4, 1, -1, -1)
    assert X.verify_ybe() and X.ybe_failure() is None
    assert len(calls) == 1
    table = FiniteYBSet(X.r1, X.r2)
    assert table.verify_birack() is table.verify_birack()
    assert table.biquandle_witness() is table.biquandle_witness()
    for name in ("rbar1", "rbar2", "left_inverse", "right_inverse"):
        assert getattr(table, name) is getattr(table, name)
        with pytest.raises(ValueError):
            getattr(table, name)[0, 0] = 1
    # a table failure is kept too: the answer no longer reads the tables
    bad = FiniteYBSet([[(x + y) % 3 for y in range(3)] for x in range(3)],
                      [[x for _ in range(3)] for x in range(3)])
    assert bad.ybe_failure() == (1, 0, 0)
    bad.r1 = bad.r2 = swap_set(3).r1
    assert bad.ybe_failure() == (1, 0, 0)
    # a failed witness is not kept: each call raises again
    identity = FiniteYBSet([[x] * 3 for x in range(3)], [list(range(3))] * 3)
    for _ in range(2):
        with pytest.raises(NotBiquandle):
            identity.biquandle_witness()


def test_ybe_failure_location():
    bad = FiniteYBSet([[(x + y) % 3 for y in range(3)] for x in range(3)],
                      [[x for _ in range(3)] for x in range(3)])
    assert bad.ybe_failure() == (1, 0, 0)
    assert not bad.verify_ybe()


def test_table_validation():
    with pytest.raises(ValueError):
        FiniteYBSet([[0, 1]], [[0, 0]])
    with pytest.raises(ValueError):
        FiniteYBSet([[0, 5], [0, 0]], [[0, 0], [0, 0]])


@pytest.mark.parametrize("entry", [0.9, 1.0, True, np.float64(1), "1"],
                         ids=["fraction", "float", "bool", "numpy-float",
                              "string"])
def test_tables_refuse_non_integer_entries(entry):
    # floats (whole ones too), booleans and strings are refused rather
    # than truncated or read as 0/1
    data = make_affine(4, 1, 3, 3).to_json()
    data["R1"][0][1] = entry
    with pytest.raises(ValueError, match="table entries must be integers"):
        FiniteYBSet.from_json(data)
    for bad in (np.array([[0.0, 1.0], [1.0, 0.0]]),
                np.array([[False, True], [True, False]])):
        with pytest.raises(ValueError, match="table entries must be integers"):
            FiniteYBSet(bad, [[0, 1], [1, 0]])
    data = make_affine(4, 1, 3, 3).to_json()
    data["size"] = entry
    with pytest.raises(ValueError, match="size must be an integer"):
        FiniteYBSet.from_json(data)


def test_tables_accept_integer_types_and_refuse_huge_entries():
    r1 = [[np.int32(1), 0], [1, np.uint8(0)]]
    X = FiniteYBSet(r1, np.array([[0, 1], [0, 1]], dtype=np.uint16))
    assert X.r1.dtype == np.int64 and X.r2.dtype == np.int64
    assert X.r1.tolist() == [[1, 0], [1, 0]]
    with pytest.raises(ValueError, match="must lie in 0..n-1"):
        FiniteYBSet([[2 ** 70, 0], [0, 0]], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="^empty carrier$"):
        FiniteYBSet(np.zeros((0, 0), dtype=np.int64),
                    np.zeros((0, 0), dtype=np.int64))


@pytest.mark.parametrize("value", [0.6, 2.0, False, "1", None])
def test_cochains_refuse_non_integer_values(value):
    data = CochainTable.from_function(1, 3, 3, lambda x: x).to_json()
    data["values"][1] = value
    with pytest.raises(ValueError, match="cochain values must be integers"):
        CochainTable.from_json(data)
    with pytest.raises(ValueError, match="cochain values must be integers"):
        CochainTable(1, 2, 3, np.array([0.0, 1.0]))


@pytest.mark.parametrize("key", ["arity", "set_size", "modulus"])
@pytest.mark.parametrize("value", [3.5, 3.0, True, "3"])
def test_cochain_headers_refuse_non_integers(key, value):
    # a modulus of 3.5 used to be read as 3
    data = CochainTable.zero(1, 3, 3).to_json()
    data[key] = value
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        CochainTable.from_json(data)


def test_cochains_keep_integer_types_and_big_values():
    f = CochainTable(1, 3, 7, [np.int64(9), 2 ** 70, np.uint64(2 ** 63)])
    assert f.values.dtype == np.int64
    assert f.values.tolist() == [2, 2 ** 70 % 7, 2 ** 63 % 7]
    g = CochainTable(np.int64(1), np.int32(3), np.int64(7), [0, 1, 2])
    assert (g.arity, g.set_size, g.modulus) == (1, 3, 7)
    assert all(type(x) is int for x in (g.arity, g.set_size, g.modulus))


def test_set_json_round_trip():
    X = make_affine(15, 4, 11, 2)
    data = X.to_json()
    assert sorted(data) == ["R1", "R2", "size"]
    json.dumps(data)  # must be plain serializable types
    Y = FiniteYBSet.from_json(data)
    assert np.array_equal(X.r1, Y.r1)
    assert np.array_equal(X.r2, Y.r2)
    with pytest.raises(ValueError, match="^malformed YB-set data: 'R1'$"):
        FiniteYBSet.from_json({"size": 2})
    with pytest.raises(ValueError, match="^declared size 3 does not match "
                       "tables of size 2$"):
        FiniteYBSet.from_json({**swap_set(2).to_json(), "size": 3})


def test_cochain_table_basics():
    f = CochainTable.from_function(2, 3, 3, lambda x, y: x - y)
    assert f.arity == 2 and f.set_size == 3 and f.modulus == 3
    assert f(1, 0) == 1
    assert f(0, 1) == 2  # reduced mod 3
    assert f.index((1, 2)) == 5  # lexicographic flattening
    assert list(f.as_array().shape) == [3, 3]
    with pytest.raises(ArityMismatch):
        f(1, 2, 3)
    # entries past either end would read another tuple's value
    for bad in (5, 3, -1):
        with pytest.raises(ValueError,
                           match=f"tuple entry {bad} outside 0..2"):
            f(0, bad)
    with pytest.raises(ValueError):
        f.as_array()[0, 0] = 1  # read-only view
    assert CochainTable.zero(2, 3, 3).is_zero()
    assert not f.is_zero()
    assert repr(f) == "CochainTable(arity=2, set_size=3, modulus=3)"
    data = f.to_json()
    assert sorted(data) == ["arity", "modulus", "set_size", "values"]
    assert np.array_equal(CochainTable.from_json(data).values, f.values)
    with pytest.raises(ValueError, match="^malformed cochain data: "
                       "'set_size'$"):
        CochainTable.from_json({"arity": 1})


def test_extend_with_zero_cochains_is_product():
    X = z3_biquandle()
    m = 3
    zero = CochainTable.zero(2, 3, m)
    V = extend(X, m, zero, zero)
    assert V.size == m * X.size
    for a1, x1, a2, x2 in itertools.product(range(m), range(3), repeat=2):
        o1, o2 = V.r(a1 * 3 + x1, a2 * 3 + x2)
        r1, r2 = X.r(x1, x2)
        assert (o1, o2) == (a2 * 3 + r1, a1 * 3 + r2)


def test_extend_twists_first_coordinates():
    X = z3_biquandle()
    psi1 = CochainTable.from_function(2, 3, 3, lambda x, y: 2 * (y - x))
    psi2 = CochainTable.from_function(2, 3, 3, lambda x, y: y - x)
    V = extend(X, 3, psi1, psi2)
    for a1, x1, a2, x2 in itertools.product(range(3), repeat=4):
        o1, o2 = V.r(a1 * 3 + x1, a2 * 3 + x2)
        r1, r2 = X.r(x1, x2)
        assert o1 == ((a2 + psi1(x1, x2)) % 3) * 3 + r1
        assert o2 == ((a1 + psi2(x1, x2)) % 3) * 3 + r2


def test_extend_default_second_cochain_is_first():
    X = z3_biquandle()
    psi1 = CochainTable.from_function(2, 3, 3, lambda x, y: y - x)
    V = extend(X, 3, psi1)
    W = extend(X, 3, psi1, psi1)
    assert np.array_equal(V.r1, W.r1) and np.array_equal(V.r2, W.r2)


def test_extend_validation():
    X = z3_biquandle()
    with pytest.raises(ModulusMismatch):
        extend(X, 3, CochainTable.zero(2, 3, 2))
    with pytest.raises(ArityMismatch):
        extend(X, 3, CochainTable.zero(1, 3, 3))
    with pytest.raises(ArityMismatch):
        extend(X, 3, CochainTable.zero(2, 4, 3))


# One row per entry point that takes a cochain on X (|X| = 3) and per
# rule it holds the cochain to: (call, cochain, error, message).  The set
# size is checked everywhere, by CochainTable.check_on; the arity and the
# modulus where the caller requires them.
_Z3 = z3_biquandle()
_GOOD = CochainTable.zero(2, 3, 3)
COCHAIN_MISMATCHES = {
    "state_sum set size": (
        lambda f: state_sum(_Z3, f, parse_braid("s1")),
        CochainTable.zero(2, 4, 3), ArityMismatch,
        "state_sum: cochain set size 4 does not match |X| = 3"),
    "state_sum arity": (
        lambda f: state_sum(_Z3, f, parse_braid("s1")),
        CochainTable.zero(1, 3, 3), ArityMismatch,
        "state_sum: cochain arity 1 does not match arity 2"),
    "coboundary set size": (
        lambda f: coboundary(_Z3, f), CochainTable.zero(2, 4, 3),
        ArityMismatch,
        "coboundary: cochain set size 4 does not match |X| = 3"),
    "is_coboundary set size": (
        lambda f: is_coboundary(_Z3, f), CochainTable.zero(2, 4, 3),
        ArityMismatch,
        "is_coboundary: cochain set size 4 does not match |X| = 3"),
    "is_coboundary arity": (
        lambda f: is_coboundary(_Z3, f), CochainTable.zero(1, 3, 3),
        ValueError, "is_coboundary needs a cochain of arity >= 2"),
    # the obstruction is refused by the coboundary it takes
    "obstruction_cocycle set size": (
        lambda f: obstruction_cocycle(_Z3, f), CochainTable.zero(1, 4, 3),
        ArityMismatch,
        "coboundary: cochain set size 4 does not match |X| = 3"),
    "obstruction_cocycle modulus": (
        lambda f: obstruction_cocycle(_Z3, f), CochainTable.zero(1, 3, 6),
        ValueError, "modulus 6 is not a prime power"),
    **{f"extend {name} {what}": (
        call, bad, error,
        f"extend: {name} {what} {have} does not match {expected}")
       for name, call in (("psi1", lambda f: extend(_Z3, 3, f, _GOOD)),
                          ("psi2", lambda f: extend(_Z3, 3, _GOOD, f)))
       for what, bad, error, have, expected in (
           ("set size", CochainTable.zero(2, 4, 3), ArityMismatch, 4,
            "|X| = 3"),
           ("arity", CochainTable.zero(1, 3, 3), ArityMismatch, 1,
            "arity 2"),
           ("modulus", CochainTable.zero(2, 3, 2), ModulusMismatch, 2,
            "m = 3"))},
}


@pytest.mark.parametrize("call,bad,error,message",
                         COCHAIN_MISMATCHES.values(),
                         ids=COCHAIN_MISMATCHES.keys())
def test_a_cochain_off_x_is_refused_with_one_message(call, bad, error,
                                                      message):
    with pytest.raises(error) as caught:
        call(bad)
    assert str(caught.value) == message


def test_cochain_tables_past_the_entries_cap_are_refused_first():
    with pytest.raises(ResourceBound,
                       match=r"CochainTable.zero: set_size\^arity = 27000000 "
                       rf"exceeds the cap {ybcore.MAX_ENTRIES}"):
        CochainTable.zero(3, 300, 2)

    def never(*xs):
        raise AssertionError("fn ran past the cap")

    with pytest.raises(ResourceBound,
                       match=r"CochainTable.from_function: set_size\^arity = "
                       rf"{2 ** 25} exceeds the cap"):
        CochainTable.from_function(25, 2, 3, never)
    # a count too long to print is given by its power of two
    with pytest.raises(ResourceBound,
                       match=r"CochainTable.zero: set_size\^arity = "
                       r"2\^15849 or more exceeds the cap"):
        CochainTable.zero(10 ** 4, 3, 2)


def test_cochain_length_mismatch_is_refused_from_the_bit_length():
    # 3^(10^7) values would take seconds to count and do not print; the
    # length check reads the power's size off its bit length instead
    start = time.perf_counter()
    for arity, want in ((10 ** 4, r"2\^15849 or more"),
                        (10 ** 7, r"2\^15849625 or more"), (3, "27")):
        with pytest.raises(ValueError,
                           match=rf"^need {want} values, got 1$"):
            CochainTable(arity, 3, 2, [0])
    assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match=r"^need 1 values, got 2$"):
        CochainTable(10 ** 9, 1, 2, [0, 1])
    with pytest.raises(ValueError, match=r"^need 4 values, got 0$"):
        CochainTable(2, 2, 2, [])
    with pytest.raises(ValueError, match="^need arity >= 0, set_size >= 1$"):
        CochainTable(-1, 3, 2, [0])
    # a power of two is its own length, not refused by the bound
    assert CochainTable(3, 4, 2, [1] * 64).values.shape == (64,)
    assert list(CochainTable(10 ** 9, 1, 2, [3]).values) == [1]


def test_extension_yang_baxter_condition_small_sweep():
    # V is a solution exactly when u2(1-s) = 0 = u1(1-t) mod q
    for q in range(2, 7):
        for s, t in itertools.product(_units(q), repeat=2):
            if (1 - s) * (1 - t) % q != 0:
                continue
            X = make_affine(q, s, t)
            for u1, u2 in itertools.product(range(q), repeat=2):
                psi1 = CochainTable.from_function(
                    2, q, q, lambda x, y: u1 * (y - x))
                psi2 = CochainTable.from_function(
                    2, q, q, lambda x, y: u2 * (y - x))
                V = extend(X, q, psi1, psi2)
                predicted = (u2 * (1 - s)) % q == 0 \
                    and (u1 * (1 - t)) % q == 0
                assert V.verify_ybe() == predicted, (q, s, t, u1, u2)
