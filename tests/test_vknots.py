"""Braid words, colorings, and the cocycle state-sum invariant."""

import itertools
import random
import time

import numpy as np
import pytest

from ybknots import (
    BraidGenerator,
    BraidWord,
    CochainTable,
    FiniteYBSet,
    GroupRingElement,
    LinearForm,
    apply_word,
    cocycle_space,
    ColoringSet,
    colorings,
    count_colorings,
    equivalent_words,
    extend,
    make_affine,
    make_block,
    make_omega,
    parse_braid,
    state_sum,
    swap_set,
    vknots,
)
from ybknots.errors import (
    ArityMismatch,
    BraidSyntaxError,
    IndexOutOfRange,
    ResourceBound,
)
from ybknots.reference import (
    BORROMEAN_VALUE,
    BORROMEAN_WORD,
    KISHINO_WORDS,
    KNOT_NAMES,
    MIRROR_TORUS_4_VALUE,
    TABLE1_COUNTS,
    torus_value,
    twisted_torus_value,
    word_corpus,
    z3_biquandle,
    z3_cocycle,
    z3_family_value,
    z4_biquandle,
    z4_cocycle,
)


def test_parse_kishino_word():
    w = parse_braid(KISHINO_WORDS["K1"])
    assert w.strands == 3
    assert len(w) == 8
    assert w.text() == "s1 v1 s1^-1 s2 s1 v1 s1^-1 s2^-1"


def test_parse_exponents_and_normalization():
    assert parse_braid("s1^3").text() == "s1 s1 s1"
    assert parse_braid("s2^-2").text() == "s2^-1 s2^-1"
    assert parse_braid("v1^2").text() == "v1 v1"
    assert parse_braid("v1^-1").text() == "v1"
    assert parse_braid("s1^0").text() == ""
    assert parse_braid("  s1   v1 ").text() == "s1 v1"


def test_parse_strands_inference():
    assert parse_braid("v2").strands == 3
    assert parse_braid("", strands=2).strands == 2
    assert parse_braid("").strands == 1
    assert parse_braid("s1", strands=5).strands == 5


def test_parse_errors():
    with pytest.raises(BraidSyntaxError) as err:
        parse_braid("x2")
    assert err.value.position == 0
    with pytest.raises(BraidSyntaxError):
        parse_braid("s1 q3 s2")
    with pytest.raises(BraidSyntaxError):
        parse_braid("s0")
    with pytest.raises(IndexOutOfRange):
        parse_braid("s3", strands=3)


def test_generator_and_word_objects():
    g = BraidGenerator("positive", 2)
    assert g.token() == "s2"
    assert g.inverse().token() == "s2^-1"
    v = BraidGenerator("virtual", 1)
    assert v.inverse() == v
    with pytest.raises(IndexOutOfRange):
        BraidWord(2, (BraidGenerator("positive", 2),))
    w = parse_braid("s1 v1")
    assert parse_braid(w.text()).generators == w.generators


def test_apply_word_fixed_pair():
    X = z4_biquandle()
    # (1, 3) is a fixed pair of R, so the positive crossing keeps it
    assert apply_word(X, parse_braid("s1"), (1, 3)) == (1, 3)
    assert apply_word(X, parse_braid("v1"), (1, 3)) == (3, 1)
    for bad in ((-1, 0), (0, 4)):
        with pytest.raises(ValueError, match="outside 0..3"):
            apply_word(X, parse_braid("s1"), bad)


def test_apply_word_inverse_cancels():
    X = make_affine(15, 4, 11, 2)
    rng = random.Random(3)
    for text in ("s1 s1^-1", "s1^-1 s1", "s2 s2^-1 v1 v1"):
        w = parse_braid(text, strands=3)
        for _ in range(20):
            colors = tuple(rng.randrange(15) for _ in range(3))
            assert apply_word(X, w, colors) == colors


def test_apply_word_concatenation():
    X = z4_biquandle()
    rng = random.Random(5)
    wa = parse_braid("s1 v2", strands=3)
    wb = parse_braid("s2^-1 s1", strands=3)
    both = parse_braid("s1 v2 s2^-1 s1", strands=3)
    for _ in range(20):
        colors = tuple(rng.randrange(4) for _ in range(3))
        assert apply_word(X, both, colors) == \
            apply_word(X, wb, apply_word(X, wa, colors))


def _word_permutation(word):
    perm = list(range(word.strands))
    for g in word.generators:
        i = g.index - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def _cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def test_swap_set_counts_follow_permutation_cycles():
    # every crossing kind permutes colors on the swap solution, so the
    # coloring count is n^(number of closure cycles)
    X = swap_set(3)
    for text in ("s1", "s1 s2", "v1 s2^-1 v2", "s1 s1", BORROMEAN_WORD):
        w = parse_braid(text, strands=3)
        expected = 3 ** _cycle_count(_word_permutation(w))
        assert count_colorings(X, w) == expected


def test_kishino_counts_at_u_2():
    X = make_affine(15, 4, 11, 2)
    got = tuple(count_colorings(X, parse_braid(KISHINO_WORDS[name]))
                for name in KNOT_NAMES)
    assert got == TABLE1_COUNTS[2] == (225, 15, 75, 15, 15, 45)


def test_coloring_set_frozen():
    X = z4_biquandle()
    w = parse_braid("s1 s1")
    cs = colorings(X, w)
    assert isinstance(cs, ColoringSet)
    assert cs.count == 8
    assert cs.tuples == ((0, 0), (0, 2), (1, 1), (1, 3),
                         (2, 0), (2, 2), (3, 1), (3, 3))
    assert count_colorings(X, w) == 8


def test_unknot_colorings():
    X = z4_biquandle()
    assert count_colorings(X, parse_braid("")) == 4
    assert count_colorings(X, parse_braid("", strands=2)) == 16


@pytest.mark.parametrize("n", range(1, 9))
def test_torus_family_values(n):
    X = z4_biquandle()
    psi = z4_cocycle()
    value = state_sum(X, psi, parse_braid(" ".join(["s1"] * n)))
    assert value.value == torus_value(n)


def test_torus_chirality():
    X = z4_biquandle()
    psi = z4_cocycle()
    plus = state_sum(X, psi, parse_braid("s1^4"))
    minus = state_sum(X, psi, parse_braid("s1^-4"))
    assert plus.value == GroupRingElement(4, (8, 0, 0, 8))
    assert minus.value == MIRROR_TORUS_4_VALUE
    assert minus.value == GroupRingElement(4, (8, 8, 0, 0))
    assert plus.value != minus.value


@pytest.mark.parametrize("n", range(1, 9))
def test_twisted_family_values(n):
    X = z4_biquandle()
    psi = z4_cocycle()
    value = state_sum(X, psi, parse_braid(" ".join(["s1 v1"] * n)))
    assert value.value == twisted_torus_value(n)


@pytest.mark.parametrize("n", range(0, 7))
def test_z3_family_values(n):
    X = z3_biquandle()
    psi = z3_cocycle(1, 0, 0)
    word = parse_braid(" ".join(["s1"] * n + ["v1"]))
    assert state_sum(X, psi, word).value == z3_family_value(n)


def test_borromean_value():
    X = z4_biquandle()
    value = state_sum(X, z4_cocycle(), parse_braid(BORROMEAN_WORD))
    assert value.value == BORROMEAN_VALUE
    assert value.value == GroupRingElement(4, (16, 0, 48, 0))


def test_state_sum_on_trivial_word():
    X = z4_biquandle()
    value = state_sum(X, z4_cocycle(), parse_braid(""))
    assert value.value == GroupRingElement(4, (4, 0, 0, 0))


def test_invariant_value_interface():
    X = z4_biquandle()
    value = state_sum(X, z4_cocycle(), parse_braid("s1^4"))
    assert value.render() == "8 + 8*x^3"
    assert value.colorings == 16
    assert value.to_json() == {
        "colorings": 16,
        "value": {"modulus": 4, "coefficients": [8, 0, 0, 8]}}


def test_coefficient_sum_counts_colorings():
    X = z4_biquandle()
    psi = z4_cocycle()
    for _, text in word_corpus():
        w = parse_braid(text)
        value = state_sum(X, psi, w)
        assert value.value.coefficient_sum() == count_colorings(X, w)
        assert value.colorings == count_colorings(X, w)


def test_equivalent_words_frozen_moves():
    eq = [w.text() for w in equivalent_words(parse_braid("s1 s2 s1"))]
    assert len(eq) == 24
    assert "s2 s1 s2" in eq
    assert "s1 s2 s1" not in eq

    eq2 = [w.text() for w in equivalent_words(parse_braid("v1 v1"))]
    assert len(eq2) == 12
    assert "" in eq2

    eq3 = [w.text() for w in equivalent_words(parse_braid("s1"))]
    assert eq3 == ["s1 s1^-1 s1", "s1^-1 s1 s1", "s1 s1 s1^-1",
                   "v1 s1 v1", "s1 s2", "s1 s2^-1"]


def test_equivalent_words_are_well_formed():
    for _, text in word_corpus():
        base = parse_braid(text)
        for w in equivalent_words(base):
            assert isinstance(w, BraidWord)
            assert parse_braid(w.text(), strands=w.strands).generators == \
                w.generators


def test_invariance_spot_checks():
    z4 = z4_biquandle()
    psi = z4_cocycle()
    for text in ("s1^4", "s1 v1 s1 v1", BORROMEAN_WORD):
        base = parse_braid(text)
        reference_value = state_sum(z4, psi, base).value
        reference_count = count_colorings(z4, base)
        for w in equivalent_words(base):
            assert count_colorings(z4, w) == reference_count, w.text()
            assert state_sum(z4, psi, w).value == reference_value, w.text()


def test_stabilization_breaks_without_type_one():
    # a cocycle that does not vanish on the fixed pairs fails move
    # invariance, which is what the type-one condition rules out
    z4 = z4_biquandle()
    witness = z4.biquandle_witness()
    g = next(gen for gen in cocycle_space(z4, 2, 4)
             if any(gen(witness.x_of[a], a) for a in range(4)))
    assert list(map(int, g.values)) == [
        1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0]
    plain = state_sum(z4, g, parse_braid("s1"))
    stabilized = state_sum(z4, g, parse_braid("s1 s2"))
    assert plain.value == GroupRingElement(4, (2, 2, 0, 0))
    assert stabilized.value == GroupRingElement(4, (2, 0, 2, 0))
    assert plain.value != stabilized.value


def _random_word(rng, strands, letters):
    kinds = ("positive", "negative", "virtual")
    gens = [BraidGenerator(rng.choice(kinds), rng.randint(1, strands - 1))
            for _ in range(letters if strands > 1 else 0)]
    return BraidWord(strands, tuple(gens))


@pytest.mark.parametrize("X", [
    make_affine(15, 4, 11, 2), make_affine(12, 5, 1, 5),
    make_block(2, 1, 1), make_block(3, 1, 2),
    make_omega(2, 2, 2), make_omega(3, 2, 1),
    # extensions by linear cochains declare a form too
    extend(make_block(2, 1, 1), 2,
           CochainTable.from_function(2, 4, 2, lambda x, y: y - x)),
    extend(make_affine(4, 1, 3), 4,
           CochainTable.from_function(2, 4, 4, lambda x, y: 2 * (y - x)),
           CochainTable.from_function(2, 4, 4, lambda x, y: 2 * x))],
    ids=lambda X: X.label)
def test_linear_path_matches_brute_force(X):
    # the same tables without a declared form take the search
    table = FiniteYBSet(X.r1, X.r2)
    assert X.linear is not None and table.linear is None
    q, d = X.linear.q, X.linear.d
    units = q ** np.arange(d - 1, -1, -1)

    def digits(rows):
        return (rows[:, :, None] // units % q).reshape(len(rows), -1)

    # A on the digits of a pair; A^-1 has column j the digits of Rbar of
    # the pair whose only nonzero digit is a 1 in digit j
    forward = np.array(X.linear.matrix)
    backward = None
    if X.verify_birack().invertible:
        pairs = [(u, 0) for u in units] + [(0, u) for u in units]
        backward = digits(np.array([X.rbar(x, y) for x, y in pairs])).T

    def word_matrix(word):
        W = np.eye(d * word.strands, dtype=np.int64)
        for g in word.generators:
            pair = slice((g.index - 1) * d, (g.index + 1) * d)
            if g.kind == "virtual":
                W[pair] = np.roll(W[pair], d, axis=0)
            else:
                M = forward if g.kind == "positive" else backward
                W[pair] = M @ W[pair] % q
        return W

    rng = random.Random(X.label)
    # tuples have their own stream, so rng draws the same words and
    # cochains with or without them
    tuple_rng = random.Random(X.size)
    for _ in range(20):
        strands = rng.randint(1, 4 if X.size > 9 else 5)
        word = _random_word(rng, strands, rng.randint(0, 12))
        # apply_word and the traced W against a W built from A and A^-1
        W = word_matrix(word)
        assert np.array_equal(vknots._word_matrix(X, word), W), word
        starts = np.array([[tuple_rng.randrange(X.size)
                            for _ in range(strands)] for _ in range(8)])
        ends = np.array([apply_word(X, word, t) for t in starts])
        assert np.array_equal(digits(ends), digits(starts) @ W.T % q), word
        m = rng.randint(2, 5)
        psi = CochainTable(2, X.size, m,
                           [rng.randrange(m) for _ in range(X.size ** 2)])
        found = colorings(X, word).tuples
        assert found == colorings(table, word).tuples, word
        assert count_colorings(X, word) == len(found)
        assert count_colorings(table, word) == len(found)
        assert state_sum(X, psi, word).value == \
            state_sum(table, psi, word).value, word


def test_linear_path_five_strands_on_fifteen_elements():
    X = make_affine(15, 4, 11, 2)
    table = FiniteYBSet(X.r1, X.r2)
    psi = CochainTable(2, 15, 3, [(x * y + x) % 3 for x in range(15)
                                  for y in range(15)])
    word = parse_braid("s1 s2^-1 v3 s4 s1^-1 s3 v2 s4^-1 s2", strands=5)
    found = colorings(X, word).tuples
    assert found == colorings(table, word).tuples
    assert count_colorings(X, word) == len(found)
    assert state_sum(X, psi, word).value == state_sum(table, psi, word).value


def _oracle(X, word, psi):
    """Colorings and state-sum coefficients of the closed word by tracing
    every tuple of X^k in plain Python through X.r and X.rbar."""
    found = []
    coefficients = [0] * psi.modulus
    for start in itertools.product(range(X.size), repeat=word.strands):
        colors, weight = list(start), 0
        for g in word.generators:
            i = g.index - 1
            pair = colors[i], colors[i + 1]
            if g.kind == "positive":
                weight += psi(*pair)
                colors[i], colors[i + 1] = X.r(*pair)
            elif g.kind == "negative":
                colors[i], colors[i + 1] = X.rbar(*pair)
                weight -= psi(colors[i], colors[i + 1])
            else:
                colors[i], colors[i + 1] = pair[1], pair[0]
        if tuple(colors) == start:
            found.append(start)
            coefficients[weight % psi.modulus] += 1
    return tuple(found), coefficients


def _relabelled(X, rng):
    """X's tables carried along a random relabelling, with no form."""
    p = np.array(rng.sample(range(X.size), X.size))
    r1 = np.empty_like(X.r1)
    r2 = np.empty_like(X.r2)
    r1[p[:, None], p[None, :]] = p[X.r1]
    r2[p[:, None], p[None, :]] = p[X.r2]
    return FiniteYBSet(r1, r2)


def _assert_matches_oracle(X, word, psi):
    found, coefficients = _oracle(X, word, psi)
    assert colorings(X, word).tuples == found, word
    assert count_colorings(X, word) == len(found), word
    assert list(state_sum(X, psi, word).value.coefficients) == \
        coefficients, word


@pytest.mark.parametrize("X", [
    make_affine(15, 4, 11, 2), make_affine(12, 5, 1, 5),
    make_block(2, 1, 1), make_block(3, 1, 2),
    make_omega(2, 2, 2), make_omega(3, 2, 1),
    extend(make_block(2, 1, 1), 2,
           CochainTable.from_function(2, 4, 2, lambda x, y: y - x))],
    ids=lambda X: X.label)
def test_search_matches_oracle_on_relabelled_solutions(X):
    rng = random.Random(X.label)
    for _ in range(6):
        table = _relabelled(X, rng)
        # X^k stays small enough for the plain-Python oracle
        strands = rng.randint(1, 3 if X.size > 9 else 4)
        word = _random_word(rng, strands, rng.randint(0, 10))
        m = rng.randint(2, 5)
        psi = CochainTable(2, X.size, m,
                           [rng.randrange(m) for _ in range(X.size ** 2)])
        _assert_matches_oracle(table, word, psi)


def test_search_matches_oracle_on_random_tables():
    # arbitrary maps (rarely invertible, rarely solutions) and random
    # bijections of X^2 (invertible, rarely sideways invertible or
    # biquandles); the search uses only the rules each table allows
    rng = random.Random(11)
    kinds = set()
    for trial in range(120):
        n = rng.randint(1, 4)
        if trial % 2:
            pairs = rng.sample(range(n * n), n * n)
            r1 = [[pairs[x * n + y] // n for y in range(n)] for x in range(n)]
            r2 = [[pairs[x * n + y] % n for y in range(n)] for x in range(n)]
        else:
            r1 = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            r2 = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        X = FiniteYBSet(r1, r2)
        report = X.verify_birack()
        kinds.add((n == 1, report.invertible, report.left_invertible,
                   report.right_invertible))
        m = rng.randint(2, 4)
        psi = CochainTable(2, n, m, [rng.randrange(m) for _ in range(n * n)])
        for _ in range(3):
            word = _random_word(rng, rng.randint(1, 4), rng.randint(0, 8))
            if report.invertible or not any(
                    g.kind == "negative" for g in word.generators):
                _assert_matches_oracle(X, word, psi)
    assert (True, True, True, True) in kinds
    assert (False, True, False, False) in kinds
    assert (False, False, False, False) in kinds
    assert (False, False, True, False) in kinds


def test_search_on_degenerate_closures():
    rng = random.Random(4)
    projection = FiniteYBSet([[y for y in range(3)] for _ in range(3)],
                             [[y for y in range(3)] for _ in range(3)])
    for X in (_relabelled(z4_biquandle(), rng), projection,
              FiniteYBSet([[0]], [[0]])):
        psi = CochainTable(2, X.size, 3,
                           [rng.randrange(3) for _ in range(X.size ** 2)])
        # s1 on two strands is the relation R(a, b) = (a, b); a strand no
        # real crossing touches joins two top arcs; virtual crossings alone
        # only permute the strands
        for text, strands in (("s1", 2), ("s1", 3), ("s1 v2", 3),
                              ("s2 s2", 4), ("", 3), ("v1 v2", 3),
                              ("v1 v1", 2), ("v2 v1 v3", 4)):
            _assert_matches_oracle(X, parse_braid(text, strands), psi)


def test_search_order_matches_oracle_under_relabelling():
    # the rows come out of the search in branch order; the listed
    # colorings must still be lexicographic in whatever labels X has
    base = make_block(2, 1, 1)
    word = parse_braid("s1 v2 s3^-1 s2 s1", strands=4)
    rng = random.Random(9)
    for _ in range(4):
        X = _relabelled(base, rng)
        psi = CochainTable(2, 4, 3, [rng.randrange(3) for _ in range(16)])
        found = colorings(X, word).tuples
        assert list(found) == sorted(found)
        _assert_matches_oracle(X, word, psi)


def test_linear_path_reaches_past_brute_force():
    X = make_affine(15, 4, 11, 2)
    unknots = parse_braid("", strands=13)
    assert count_colorings(X, unknots) == 15 ** 13
    with pytest.raises(ResourceBound, match="state_sum: colorings = "
                       f"{15 ** 13}"):
        state_sum(X, CochainTable.zero(2, 15, 2), unknots)
    with pytest.raises(ResourceBound, match="colorings: colorings = "):
        colorings(X, unknots)


def test_search_cap_raises_before_allocating(monkeypatch):
    X = make_affine(15, 4, 11, 2)
    table = FiniteYBSet(X.r1, X.r2)
    # an unknot on three strands beside four unlinked strands: the search
    # holds at most 15^5 rows, within the cap, where |X|^k = 15^7 is not
    assert count_colorings(table, parse_braid("s1 s2", strands=7)) == \
        count_colorings(X, parse_braid("s1 s2", strands=7)) == 15 ** 5
    # seven unlinked strands: one branch would make 15^7 rows
    unknots = parse_braid("", strands=7)

    def refuse(*args):
        raise AssertionError("allocated past the cap")

    monkeypatch.setattr(vknots, "_decode", refuse)
    for call, name in ((lambda: count_colorings(table, unknots),
                        "count_colorings"),
                       (lambda: colorings(table, unknots), "colorings"),
                       (lambda: state_sum(table, CochainTable.zero(2, 15, 2),
                                          unknots), "state_sum")):
        with pytest.raises(ResourceBound,
                           match=rf"{name}: search rows = {15 ** 7} "
                           rf"exceeds the cap {vknots.MAX_TUPLES}"):
            call()


def test_word_caps_raise_before_the_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("started the work past the cap")

    monkeypatch.setattr(vknots, "_word_matrix", refuse)
    monkeypatch.setattr(vknots, "_plan", refuse)
    X = make_affine(15, 4, 11, 2)
    table = FiniteYBSet(X.r1, X.r2)
    unknots = parse_braid("", strands=10 ** 5)
    # block(3) has two digits, so half the cap's strands and one more
    half = vknots.MAX_KERNEL_DIGITS // 2 + 1
    for call, message in (
            (lambda: parse_braid("s1^1000000000"),
             rf"parse_braid: letters = {10 ** 9} exceeds the cap "
             rf"{vknots.MAX_LETTERS}"),
            (lambda: parse_braid("s1 " * vknots.MAX_LETTERS + "v1"),
             rf"parse_braid: letters = {vknots.MAX_LETTERS + 1} exceeds"),
            (lambda: count_colorings(X, unknots),
             rf"count_colorings: kernel digits d\*k = {10 ** 5} exceeds "
             rf"the cap {vknots.MAX_KERNEL_DIGITS}"),
            (lambda: count_colorings(table, unknots),
             rf"count_colorings: top arcs = {10 ** 5} exceeds the cap "
             rf"{vknots.MAX_TOP_ARCS}"),
            (lambda: state_sum(make_block(3, 1, 2), CochainTable.zero(2, 9, 2),
                               parse_braid("s1", strands=half)),
             rf"state_sum: kernel digits d\*k = {2 * half} exceeds")):
        start = time.perf_counter()
        with pytest.raises(ResourceBound, match=message):
            call()
        assert time.perf_counter() - start < 1
    # the largest word the letter cap admits still parses
    assert len(parse_braid(f"s1^{vknots.MAX_LETTERS}")) == vknots.MAX_LETTERS


def test_words_within_the_caps_still_run():
    X = make_affine(3, 2, 1)
    table = FiniteYBSet(X.r1, X.r2)
    word = parse_braid("s1^16")
    fixed = sum(apply_word(X, word, t) == t
                for t in itertools.product(range(3), repeat=2))
    assert count_colorings(X, word) == count_colorings(table, word) == fixed
    # the kernel path takes as many strands as its cap admits
    cap = vknots.MAX_KERNEL_DIGITS
    assert count_colorings(X, parse_braid("", strands=cap)) == 3 ** cap


def test_state_sum_refuses_a_cochain_on_another_set():
    with pytest.raises(ArityMismatch, match="cochain set size 4 does not "
                       "match"):
        state_sum(make_affine(5, 2, 1), CochainTable.zero(2, 4, 5),
                  parse_braid("s1"))


def test_linear_path_needs_invertible_r_for_negative_crossings():
    # R(x, y) = (x + y, x + y) on Z_3 is linear but not invertible
    X = FiniteYBSet._from_linear(LinearForm(3, 1, ((1, 1), (1, 1))), "flat")
    table = FiniteYBSet(X.r1, X.r2)
    assert count_colorings(X, parse_braid("s1")) == \
        count_colorings(table, parse_braid("s1"))
    for Y in (X, table):
        with pytest.raises(ValueError, match="not invertible"):
            count_colorings(Y, parse_braid("s1^-1"))


def test_unfixed_kernel_row_is_an_error(monkeypatch):
    X = make_affine(5, 2, 1)
    monkeypatch.setattr(vknots, "_kernel_rows",
                        lambda stage, X, word: np.array([[0, 1]]))
    with pytest.raises(RuntimeError, match="not fixed"):
        colorings(X, parse_braid("s1"))


def test_unfixed_searched_row_is_an_error(monkeypatch):
    X = make_affine(5, 2, 1)
    table = FiniteYBSet(X.r1, X.r2)
    monkeypatch.setattr(vknots, "_searched_rows",
                        lambda stage, X, word: np.array([[0, 1]]))
    with pytest.raises(RuntimeError,
                       match="colorings: a searched coloring is not fixed"):
        colorings(table, parse_braid("s1"))
