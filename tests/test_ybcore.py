"""Finite Yang-Baxter sets: constructors, inverses, extensions."""

import itertools
import json
from math import gcd

import numpy as np
import pytest

from ybknots import (
    CochainTable,
    FiniteYBSet,
    LinearForm,
    extend,
    make_affine,
    make_block,
    make_omega,
    omega_extension_check,
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


def test_omega_extension_tower_smoke():
    assert omega_extension_check(2, 1, 1)


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
    with pytest.raises(ResourceBound, match="make_block"):
        make_block(65, 1, 1)
    with pytest.raises(ResourceBound, match="make_omega"):
        make_omega(2, 40, 40)
    with pytest.raises(ResourceBound, match="extend"):
        extend(swap_set(64), 65, CochainTable.zero(2, 64, 65))
    with pytest.raises(ResourceBound, match="swap_set"):
        swap_set(4097)
    assert swap_set(4096).size == 4096


def test_linear_form_refuses_bad_parameters():
    # q = 0 would divide by zero and d = 0 would build tables with no
    # digits to read
    for q, d, matrix in ((0, 1, ((0, 0), (0, 0))), (1, 1, ((0, 0), (0, 0))),
                         (2, 0, ())):
        with pytest.raises(ValueError, match="need q >= 2 and d >= 1"):
            LinearForm(q, d, matrix)


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


def test_set_json_round_trip():
    X = make_affine(15, 4, 11, 2)
    data = X.to_json()
    assert sorted(data) == ["R1", "R2", "size"]
    json.dumps(data)  # must be plain serializable types
    Y = FiniteYBSet.from_json(data)
    assert np.array_equal(X.r1, Y.r1)
    assert np.array_equal(X.r2, Y.r2)


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
    data = f.to_json()
    assert sorted(data) == ["arity", "modulus", "set_size", "values"]
    assert np.array_equal(CochainTable.from_json(data).values, f.values)


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
