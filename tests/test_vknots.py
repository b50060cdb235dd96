"""Braid words, colorings, and the cocycle state-sum invariant."""

import gc
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import time
import weakref

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
    cli,
    cocycle_space,
    ColoringSet,
    coboundary,
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
    YBKError,
)
from ybknots.reference import (
    BORROMEAN_VALUE,
    BORROMEAN_WORD,
    KISHINO_WORDS,
    KNOT_NAMES,
    MIRROR_TORUS_4_VALUE,
    TABLE1_COUNTS,
    TABLE1_PARAMS,
    TABLE1_U_VALUES,
    torus_value,
    twisted_torus_value,
    word_corpus,
    z3_biquandle,
    z3_cocycle,
    z3_family_value,
    z4_biquandle,
    z4_cocycle,
)

import parse_oracle
import plan_oracle


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
    # a token past the first is placed by its offset in the text
    with pytest.raises(BraidSyntaxError,
                       match=r"^bad token 'q3' \(at position 3\)$") as err:
        parse_braid("s1 q3 s2")
    assert err.value.position == 3
    with pytest.raises(BraidSyntaxError):
        parse_braid("s0")
    with pytest.raises(BraidSyntaxError,
                       match=r"^index must be at least 1 in 's0'") as err:
        parse_braid("s1  s0")
    assert err.value.position == 4
    with pytest.raises(IndexOutOfRange):
        parse_braid("s3", strands=3)
    # index and exponent take ASCII digits only: another Unicode decimal
    # digit, which int() would read as its value, makes a bad token
    for token in ("s\u0661", "s\uff11", "s1^-\u0661", "v\u0967^2",
                  "s1\u0660"):
        with pytest.raises(BraidSyntaxError) as err:
            parse_braid(f"s1 {token} s2")
        assert str(err.value) == f"bad token {token!r} (at position 3)"
        assert err.value.position == 3


def _parsed(parse, text, strands=None):
    """The word `parse` makes of text, or its error as (type, message,
    position)."""
    try:
        return parse(text, strands)
    except (YBKError, ValueError) as err:
        return type(err), str(err), getattr(err, "position", None)


def test_parse_splits_on_every_whitespace_the_oracle_does():
    spaced = _parsed(parse_braid, "s1 v2^-3 s1^2")
    for sep in ("\t", "\n", "\u00a0", "\u2003", "\x1c", "\r\n", " \t "):
        text = sep + sep.join(["s1", "v2^-3", "s1^2"]) + sep
        assert _parsed(parse_braid, text) == \
            _parsed(parse_oracle.parse_braid, text) == spaced, repr(sep)
        # a separator never hides a bad token's offset
        bad = sep.join(["s1", "q3", "s2"])
        assert _parsed(parse_braid, bad) == \
            _parsed(parse_oracle.parse_braid, bad)
        assert _parsed(parse_braid, bad)[2] == 2 + len(sep)


def _parse_cases():
    """(text, strands) pairs: exponents, tokens repeated after an error or
    past the letter cap (each distinct token is matched once, the cap
    checked at every token), and strand counts the word does not fit."""
    cap = vknots.MAX_LETTERS
    cases = [(text, strands) for strands in (None, 4, 11) for text in (
        "s1^0", "v2^-3", "s10^2", "s1^+2", "s1^-0", "v1^0 s3^0", "s1^",
        "s^2", "S1", "s1^2^3", "s01^-02", "v2^-3 v2^3", "s1 s1^-1 s1^2 s1^-2",
        "s1 q3 s2 q3", "s1 s2 s0 s1 s0", "v1  s1^x s1^x")]
    cases += [(text, None) for text in (
        f"s1^{cap}", f"s1^{cap + 1}", f"s1^{cap - 1} v1 s1",
        f"s1^{cap} s1^0 s1^0", f"s1^{cap} s1 q3",
        f"s1^{cap // 2} s1^{cap // 2} s1^{cap // 2}",
        f"v1^-{cap // 2} s2 v1^-{cap // 2}",
        " ".join(["s1 v1"] * (cap // 2)) + " s1^0 s1",
        f"s1^{10 ** 30} q3", f"s0 s1^{cap + 1}")]
    cases += [("s3", 3), ("s5^0", 3), ("", 0), ("s1", 0), ("s1", -2),
              ("s1", "2"), ("s1", 2.0), ("s1", True), ("v1 s4^-1", 4),
              ("", 1), ("s2", np.int64(3))]
    rng = random.Random(29)
    pieces = ("s1", "s2", "v1", "v3", "s1^-1", "s2^3", "v2^-2", "s1^0",
              "s12", "q3", "s0", "s1^+2", "v", "s1^99")
    seps = (" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c")
    for _ in range(600):
        tokens = [rng.choice(pieces) for _ in range(rng.randint(0, 12))]
        cases.append(("".join(rng.choice(seps) + t for t in tokens),
                      rng.choice((None, None, 3, 14))))
    return cases


def test_parse_matches_the_oracle():
    cap = vknots.MAX_LETTERS
    for text, strands in _parse_cases():
        assert _parsed(parse_braid, text, strands) == \
            _parsed(parse_oracle.parse_braid, text, strands), \
            (text[:40], strands)
    assert parse_braid("s10^2").text() == "s10 s10"
    assert parse_braid("s1^0").strands == 2
    assert _parsed(parse_braid, "s1^+2")[:2] == (
        BraidSyntaxError, "bad token 's1^+2' (at position 0)")
    assert _parsed(parse_braid, f"s1^{cap // 2} " * 3) == (
        ResourceBound,
        f"parse_braid: letters = {3 * (cap // 2)} exceeds the cap {cap}", None)
    assert _parsed(parse_braid, "s5^0", 3)[:2] == (
        IndexOutOfRange, "word uses index 5, needs 6 strands, got 3")


def _cold():
    """Empty the token table and the letter table."""
    vknots._token.cache_clear()
    vknots._letter.cache_clear()


def test_token_table_gives_the_same_words_cold_and_warm():
    cases = _parse_cases()
    cold = []
    for text, strands in cases:
        _cold()
        cold.append(_parsed(parse_braid, text, strands))
    # every token of the corpus is in the table now, unless evicted
    warm = [_parsed(parse_braid, text, strands) for text, strands in cases]
    assert cold == warm
    assert vknots._token.cache_info().hits > 0
    # both tables are bounded
    for table in (vknots._token, vknots._letter):
        assert table.cache_info().maxsize == vknots._TABLE_SIZE


def test_a_tabled_bad_token_takes_this_calls_offset():
    _cold()
    for first, then, at in (("q3", "s1 s2  q3", 7), ("s0", "v1\ts0", 3),
                            ("s1^x", "s1^x", 0), ("s\u0661", " s\u0661", 1)):
        with pytest.raises(BraidSyntaxError) as err:
            parse_braid(first)
        assert err.value.position == 0
        with pytest.raises(BraidSyntaxError) as err:
            parse_braid(then)
        assert err.value.position == at, then
        assert str(err.value).endswith(f"(at position {at})")


def test_calls_share_their_letters():
    _cold()
    first = parse_braid("s1 v2 s1^-1 s3")
    again = parse_braid("s1^2 v2^-1 s01 s1^-3 s3^0 s3")
    letters = {g: g for g in first.generators}
    for g in again.generators:
        assert letters[g] is g
    # a token of no copies still sets the default strand count
    word = parse_braid("s1 s5^0")
    assert word.strands == 6 and word.generators[0] is first.generators[0]


def test_generator_and_word_objects():
    g = BraidGenerator("positive", 2)
    assert g.token() == "s2"
    assert g.inverse().token() == "s2^-1"
    v = BraidGenerator("virtual", 1)
    assert v.inverse() == v
    with pytest.raises(IndexOutOfRange):
        BraidWord(2, (BraidGenerator("positive", 2),))
    with pytest.raises(ValueError, match="^unknown generator kind 'x'$"):
        BraidGenerator("x", 1)
    with pytest.raises(ValueError, match="^generator index is 1-based$"):
        BraidGenerator("positive", 0)
    with pytest.raises(ValueError, match="^need at least one strand$"):
        BraidWord(0, ())
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
    with pytest.raises(ArityMismatch, match="^2 strands but 1 colors$"):
        apply_word(X, parse_braid("s1"), (0,))


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
    # the corpus has at most 3 strands, so these 4-strand words are the
    # ones that give far commutation, both mixed relations and the
    # cancellation of s_i s_i^-1; each word maps to the move it shows
    z15 = make_affine(15, 4, 11, 2)
    z4_table = FiniteYBSet(z4.r1, z4.r2)
    for text, moved in (("s1 s3 s2", "s3 s1 s2"),
                        ("s1 v2 v1", "v2 v1 s2"),
                        ("v2 v1 s2", "s1 v2 v1"),
                        ("s1 s1^-1 s2", "s2")):
        base = parse_braid(text, 4)
        variants = equivalent_words(base)
        assert moved in [w.text() for w in variants], text
        reference_count = count_colorings(z15, base)
        reference_value = state_sum(z4, psi, base).value
        for w in variants:
            assert count_colorings(z15, w) == reference_count, w.text()
            for Y in (z4, z4_table):
                assert state_sum(Y, psi, w).value == reference_value, \
                    w.text()


def test_state_sums_ignore_an_added_coboundary():
    # psi and psi + delta(phi) are cohomologous, so every closed braid has
    # one state sum under both, on the declared form and on its table copy
    words = [parse_braid(text) for _, text in word_corpus()]
    moved_any = False
    for X, psi in ((z4_biquandle(), z4_cocycle()),
                   (z3_biquandle(), z3_cocycle(1, 0, 0)),
                   (z3_biquandle(), z3_cocycle(2, 1, 1))):
        n, m = X.size, psi.modulus
        rng = random.Random(f"coboundary/{psi.values.tolist()}")
        for _ in range(10):
            phi = CochainTable(1, n, m, [rng.randrange(m) for _ in range(n)])
            moved = CochainTable(2, n, m,
                                 psi.values + coboundary(X, phi).values)
            moved_any |= moved != psi
            for Y in (X, FiniteYBSet(X.r1, X.r2)):
                for w in words:
                    assert state_sum(Y, moved, w) == state_sum(Y, psi, w), \
                        (Y.label, phi.values.tolist(), w.text())
    assert moved_any


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


# the table-route twin of each extension `_extension` builds, by id of
# the extension (the sets live as long as the parameter lists holding them)
_TWINS = {}


def _extension(base, m, psi1, psi2=None):
    """extend(base, m, psi1, psi2), which declares a form when base does and
    the cochains are linear.  Its twin is the same extension of a
    table-given copy of base, whose tables `extend` broadcasts from base's
    and the cochains', so it is an oracle independent of the form."""
    V = extend(base, m, psi1, psi2)
    _TWINS[id(V)] = extend(FiniteYBSet(base.r1, base.r2), m, psi1, psi2)
    return V


def _table_twin(X):
    """X's tables with no form: an extension's twin, else a copy."""
    return _TWINS.get(id(X)) or FiniteYBSet(X.r1, X.r2)


# sets the makers declare a form for
FORMS = [
    make_affine(15, 4, 11, 2), make_affine(12, 5, 1, 5),
    make_block(2, 1, 1), make_block(3, 1, 2),
    make_omega(2, 2, 2), make_omega(3, 2, 1),
    # extensions by linear cochains declare a form too
    _extension(make_block(2, 1, 1), 2,
               CochainTable.from_function(2, 4, 2, lambda x, y: y - x)),
    _extension(make_affine(4, 1, 3), 4,
               CochainTable.from_function(2, 4, 4, lambda x, y: 2 * (y - x)),
               CochainTable.from_function(2, 4, 4, lambda x, y: 2 * x))]


@pytest.mark.parametrize("X", FORMS, ids=lambda X: X.label)
def test_linear_path_matches_brute_force(X):
    # the same tables without a declared form take the search; an
    # extension's are broadcast from its base's tables instead
    table = _table_twin(X)
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
        assert np.array_equal(vknots._word_matrix(X, word)[0], W), word
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


def _trace_by_hand(X, word, rows, psi):
    """Each row traced alone in plain Python through X.r, X.rbar and the
    swaps: (end rows, weights as unbounded ints, or None without psi).  A
    positive crossing adds psi at its incoming pair, a negative one
    subtracts psi at the pair Rbar pulls the incoming pair back to."""
    ends, weights = [], []
    for row in rows:
        colors, weight = list(row), 0
        for g in word.generators:
            i = g.index - 1
            pair = colors[i], colors[i + 1]
            if g.kind == "positive":
                if psi is not None:
                    weight += int(psi[pair])
                colors[i], colors[i + 1] = X.r(*pair)
            elif g.kind == "negative":
                colors[i], colors[i + 1] = X.rbar(*pair)
                if psi is not None:
                    weight -= int(psi[colors[i], colors[i + 1]])
            else:
                colors[i], colors[i + 1] = pair[1], pair[0]
        ends.append(colors)
        weights.append(weight)
    return ends, None if psi is None else weights


def _oracle(X, word, psi):
    """Colorings and state-sum coefficients of the closed word by tracing
    every tuple of X^k in plain Python through X.r and X.rbar."""
    starts = list(itertools.product(range(X.size), repeat=word.strands))
    ends, weights = _trace_by_hand(X, word, starts, psi.as_array())
    found = []
    coefficients = [0] * psi.modulus
    for start, end, weight in zip(starts, ends, weights):
        if tuple(end) == start:
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


def _assert_matches_oracle(X, word, psi, oracle_set=None):
    """X's colorings and state sum against `_oracle` on oracle_set, by
    default X itself."""
    found, coefficients = _oracle(oracle_set or X, word, psi)
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


def _searched_words():
    """The words of the two tests above, drawn in the same order from the
    same seed, so every plan they search is checked below."""
    rng = random.Random(11)
    for trial in range(120):
        n = rng.randint(1, 4)
        if trial % 2:
            rng.sample(range(n * n), n * n)
        else:
            for _ in range(2 * n * n):
                rng.randrange(n)
        m = rng.randint(2, 4)
        for _ in range(n * n):
            rng.randrange(m)
        for _ in range(3):
            yield _random_word(rng, rng.randint(1, 4), rng.randint(0, 8))
    for text, strands in (("s1", 2), ("s1", 3), ("s1 v2", 3), ("s2 s2", 4),
                          ("", 3), ("v1 v2", 3), ("v1 v1", 2),
                          ("v2 v1 v3", 4)):
        yield parse_braid(text, strands)


def test_plans_match_the_planner_oracle():
    # the planner's trial closures only count, and its scan of candidates
    # stops early; its plans must be byte for byte the oracle's
    rng = random.Random(29)
    words = list(_searched_words()) + [
        _random_word(rng, rng.randint(1, 9), rng.randint(0, 20))
        for _ in range(400)]
    for word in words:
        arcs = vknots._arcs(word)
        negative = any(g.kind == "negative" for g in word.generators)
        for backward, left, right in itertools.product((0, 1), repeat=3):
            if negative and not backward:
                continue
            rules = tuple(r for r, on in enumerate((1, backward, left, right))
                          if on)
            assert vknots._plan(*arcs, rules) == \
                plan_oracle.plan(*arcs, rules), (word, rules)


def test_plan_numbers_arcs_in_the_order_they_become_known():
    # the search holds the known arcs as the first rows of its array, so
    # each branch arc and each write must take the next id, and a step
    # may read only ids already known
    words = list(_searched_words())
    assert len(words) == 368
    for word in words:
        negative = any(g.kind == "negative" for g in word.generators)
        for backward, left, right in itertools.product((0, 1), repeat=3):
            if negative and not backward:
                continue
            rules = tuple(r for r, on in enumerate((1, backward, left, right))
                          if on)
            n_arcs, top, steps = vknots._compiled(word, rules)
            known = 0
            for step in steps:
                if step[0] == "branch":
                    assert step[1] == tuple(range(known, known + len(step[1])))
                    known += len(step[1])
                    continue
                _, rule, arcs, writes, checks = step
                assert rule in rules
                assert all(arcs[slot] < known for slot in vknots._PAIRS[rule])
                assert [arcs[slot] for slot in writes] == \
                    list(range(known, known + len(writes)))
                known += len(writes)
                assert all(arcs[slot] < known for slot in checks)
                assert sorted(vknots._PAIRS[rule] + writes + checks) == \
                    [0, 1, 2, 3]
            assert known == n_arcs, (word, rules)
            assert all(0 <= a < n_arcs for a in top)
            assert len(top) == word.strands
            # a search never branches more times than the closure has top
            # arcs, so its rows stay within |X|^(top arcs)
            assert sum(len(step[1]) for step in steps
                       if step[0] == "branch") <= len(set(top)), word


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


@pytest.mark.parametrize("X", [
    make_affine(12, 5, 1, 5), make_affine(15, 4, 11, 2), make_affine(4, 1, 3),
    make_affine(9, 4, 7), make_block(2, 1, 1), make_omega(2, 2, 2),
    _extension(make_affine(4, 1, 3), 4,
               CochainTable.from_function(2, 4, 4, lambda x, y: 2 * (y - x)),
               CochainTable.from_function(2, 4, 4, lambda x, y: 2 * x))],
    ids=lambda X: X.label)
def test_kernel_path_matches_oracle(X):
    # the kernel of W - I, eliminated over Z_q, lists the same colorings
    # as tracing every tuple (of an extension's broadcast twin)
    assert X.linear is not None
    oracle_set = _table_twin(X)
    rng = random.Random(X.label)
    for _ in range(8):
        strands = rng.randint(1, 3 if X.size > 9 else 4)
        word = _random_word(rng, strands, rng.randint(0, 10))
        m = rng.randint(2, 5)
        psi = CochainTable(2, X.size, m,
                           [rng.randrange(m) for _ in range(X.size ** 2)])
        _assert_matches_oracle(X, word, psi, oracle_set)


def test_long_word_count_matches_the_list_oracle():
    # a random 240-letter word on 24 strands of affine(15): the list Smith
    # form over Z, which never reduces mod 15, counts it in well under 1 s
    from smith_oracle import kernel

    X = make_affine(15, 4, 11, 2)
    word = _random_word(random.Random(0), 24, 240)
    W = vknots._word_matrix(X, word)[0] - np.eye(24, dtype=np.int64)
    gens = kernel(W.tolist(), 24, 15)
    count = 1
    for g in gens:
        count *= 15 // np.gcd.reduce([15] + g)
    assert count_colorings(X, word) == count == 27
    found = colorings(X, word).tuples
    assert len(found) == count
    assert all(tuple(apply_word(X, word, t)) == t for t in found)


def test_kernel_listing_cap_counts_entries():
    # 2^24 colorings, but their 24 digits each would take 3 GiB of int64;
    # the entries are refused before any is allocated
    X = make_affine(2, 1, 1)
    unknots = parse_braid("", strands=24)
    assert count_colorings(X, unknots) == 2 ** 24
    start = time.perf_counter()
    with pytest.raises(ResourceBound, match=rf"colorings: kernel entries "
                       rf"colorings\*d\*k = {24 * 2 ** 24} exceeds the cap "
                       rf"{vknots.MAX_ENTRIES}"):
        colorings(X, unknots)
    assert time.perf_counter() - start < 1


def test_linear_path_reaches_past_brute_force():
    X = make_affine(15, 4, 11, 2)
    unknots = parse_braid("", strands=13)
    assert count_colorings(X, unknots) == 15 ** 13
    # listing them would take d*k int64 entries per coloring
    entries = 13 * X.linear.d * 15 ** 13
    with pytest.raises(ResourceBound, match=r"state_sum: kernel entries "
                       rf"colorings\*d\*k = {entries} exceeds the cap "
                       rf"{vknots.MAX_ENTRIES}"):
        state_sum(X, CochainTable.zero(2, 15, 2), unknots)
    with pytest.raises(ResourceBound, match=r"colorings: kernel entries "):
        colorings(X, unknots)


def test_search_cap_raises_before_allocating(monkeypatch):
    X = make_affine(15, 4, 11, 2)
    table = FiniteYBSet(X.r1, X.r2)
    # an unknot on three strands beside four unlinked strands: the search
    # holds at most 15^5 rows, within the cap, where |X|^k = 15^7 is not
    assert count_colorings(table, parse_braid("s1 s2", strands=7)) == \
        count_colorings(X, parse_braid("s1 s2", strands=7)) == 15 ** 5
    # seven unlinked strands: one branch would make 15^7 rows of 7 arcs
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
                           match=rf"{name}: search entries arcs\*rows = "
                           rf"{7 * 15 ** 7} exceeds the cap "
                           rf"{vknots.MAX_ENTRIES}"):
            call()


def test_search_cap_counts_entries(monkeypatch):
    # s1 s2 on 7 strands has 8 arcs, and its last branch colors the four
    # unlinked strands at once: 15^5 rows of 8 arcs each.  With the
    # entries cap just below that, the branch is refused before it decodes
    # its colors.
    X = make_affine(15, 4, 11, 2)
    table = FiniteYBSet(X.r1, X.r2)
    cap = 8 * 15 ** 5 - 1
    monkeypatch.setattr(vknots, "MAX_ENTRIES", cap)
    decoded = []
    decode = vknots._decode

    def spy(values, base, k):
        decoded.append(k)
        return decode(values, base, k)

    monkeypatch.setattr(vknots, "_decode", spy)
    with pytest.raises(ResourceBound,
                       match=rf"count_colorings: search entries arcs\*rows "
                       rf"= {8 * 15 ** 5} exceeds the cap {cap}"):
        count_colorings(table, parse_braid("s1 s2", strands=7))
    # only the first branch, one arc, was decoded
    assert decoded == [1]


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


def test_untouched_strands_refuse_a_word_before_its_arcs(monkeypatch):
    # each position no letter touches is a top arc of its own, so a word
    # whose untouched positions alone pass the cap is refused before
    # `_arcs` walks its strands; one within that count is counted exactly
    built = []
    original = vknots._arcs

    def spy(word):
        built.append(word.strands)
        return original(word)

    monkeypatch.setattr(vknots, "_arcs", spy)
    X = make_affine(15, 4, 11, 2)
    table = FiniteYBSet(X.r1, X.r2)
    psi = CochainTable.zero(2, 15, 3)
    cap = vknots.MAX_TOP_ARCS
    for stage, call in (
            ("count_colorings", lambda w: count_colorings(table, w)),
            ("colorings", lambda w: colorings(table, w)),
            ("state_sum", lambda w: state_sum(table, psi, w))):
        start = time.perf_counter()
        with pytest.raises(ResourceBound,
                           match=rf"^{stage}: top arcs = {10 ** 7 - 2} "
                           rf"exceeds the cap {cap}$"):
            call(parse_braid("s1", strands=10 ** 7))
        assert time.perf_counter() - start < 1
        assert built == []
        # 10 touched positions leave the cap's 320 untouched; s1 s3 .. s9
        # keeps the 10 top arcs apart, so the exact count is 330
        with pytest.raises(ResourceBound,
                           match=rf"^{stage}: top arcs = {cap + 10} "
                           rf"exceeds the cap {cap}$"):
            call(parse_braid("s1 s3 s5 s7 s9", strands=cap + 10))
        assert built == [cap + 10]
        built.clear()


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


@pytest.mark.parametrize("make", [
    lambda: make_affine(15, 4, 11, 2), lambda: make_block(3, 1, 2),
    lambda: make_omega(3, 2, 2),
    lambda: extend(make_affine(4, 1, 3), 4,
                   CochainTable.from_function(2, 4, 4, lambda x, y: y - x))],
    ids=["affine", "block", "omega", "extend"])
def test_form_path_builds_no_table(make):
    # every letter kind runs on the form's A and A^-1: a table or an
    # inverse table would sit in the set's __dict__ once built
    X = make()
    assert X.linear is not None
    word = parse_braid("s1 s2^-1 v1 s2 v2 s1^-1 s1")
    psi = CochainTable(2, X.size, 3, [(x + 2 * y) % 3 for x in range(X.size)
                                      for y in range(X.size)])
    colors = tuple(range(3))
    for call in (lambda: state_sum(X, psi, word),
                 lambda: count_colorings(X, word),
                 lambda: colorings(X, word),
                 lambda: apply_word(X, word, colors)):
        call()
        assert not {"r1", "r2", "_form_tables", "_birack"} & set(X.__dict__)
    moved = apply_word(X, word, colors)
    table = _table_twin(X)
    assert moved == apply_word(table, word, colors)
    assert colorings(X, word) == colorings(table, word)
    assert state_sum(X, psi, word).value == state_sum(table, psi, word).value


@pytest.mark.parametrize("X", FORMS, ids=lambda X: X.label)
def test_apply_word_on_a_form_matches_the_table_twin(X):
    # the form moves digits through A, A^-1 and swaps; the twin traces
    # the same tuples through R and Rbar's tables
    rng = random.Random(f"apply/{X.label}")
    table = _table_twin(X)
    kinds = set()
    for _, text in word_corpus():
        word = parse_braid(text)
        kinds.update(g.kind for g in word.generators)
        for _ in range(4):
            colors = tuple(rng.randrange(X.size) for _ in range(word.strands))
            assert apply_word(X, word, colors) == \
                apply_word(table, word, colors), text
    assert kinds == {"positive", "negative", "virtual"}


def test_apply_word_on_a_form_needs_invertible_r_for_negative_crossings():
    # R(x, y) = (x + y, x + y) on Z_3 is linear but not invertible
    X = FiniteYBSet._from_linear(LinearForm(3, 1, ((1, 1), (1, 1))), "flat")
    assert apply_word(X, parse_braid("s1 v1"), (1, 2)) == (0, 0)
    with pytest.raises(ValueError, match="^flat: R is not invertible$"):
        apply_word(X, parse_braid("s1 s1^-1"), (1, 2))
    assert not {"r1", "r2", "_form_tables", "_birack"} & set(X.__dict__)
    table = FiniteYBSet(X.r1, X.r2)
    assert apply_word(table, parse_braid("s1 v1"), (1, 2)) == (0, 0)


def test_apply_word_on_a_large_affine_set_at_once():
    # 4096 elements: the tables and inverse tables a trace would read
    # take about 1 GB and over a second to build
    start = time.perf_counter()
    X = make_affine(4096, 1, 4095)
    assert apply_word(X, parse_braid("s1 s2^-1 v1 s2"), (1, 2, 3)) == (3, 3, 4)
    assert time.perf_counter() - start < 1
    assert not {"r1", "r2", "_form_tables", "_birack"} & set(X.__dict__)


def test_form_path_counts_a_large_affine_set_at_once():
    # 4096 elements: its n x n tables and inverse tables would take about
    # 1 GB and over a second to build; the form needs neither
    start = time.perf_counter()
    X = make_affine(4096, 1, 4095)
    assert count_colorings(X, parse_braid("s1 s2^-1 v1 s2")) == 4096
    assert time.perf_counter() - start < 1
    assert not {"r1", "r2", "_form_tables", "_birack"} & set(X.__dict__)


@pytest.mark.parametrize("X", [make_affine(15, 4, 11, 2), make_block(3, 1, 2)],
                         ids=lambda X: X.label)
def test_weights_gathered_in_slabs_match_the_oracle(monkeypatch, X):
    # with MAX_ENTRIES at the kernel listing's rows*dk, a slab holds
    # k // 2 = 1 crossing of rows*2d pair digits, so each of the word's
    # real crossings is its own slab
    word = parse_braid("s1 s2^-1 v1 s2 s1 v2 s2^-1 s1^-1", strands=3)
    rng = random.Random(X.label)
    psi = CochainTable(2, X.size, 5, [rng.randrange(5)
                                      for _ in range(X.size ** 2)])
    want = state_sum(_table_twin(X), psi, word).value
    found, coefficients = _oracle(X, word, psi)
    assert list(want.coefficients) == coefficients
    monkeypatch.setattr(vknots, "MAX_ENTRIES",
                        len(found) * X.linear.d * word.strands)
    slabs = _spy(monkeypatch, "_encode")
    assert state_sum(X, psi, word).value == want
    assert len(slabs) == 6


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
                        lambda stage, X, word: (2, np.array([[0, 1]])))
    with pytest.raises(RuntimeError,
                       match="colorings: a searched coloring is not fixed"):
        colorings(table, parse_braid("s1"))


def test_state_sum_refuses_a_dense_group_ring_past_the_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("searched or traced past the cap")

    monkeypatch.setattr(vknots, "_fixed_rows", refuse)
    X = make_block(3, 1, 1)
    for Y in (X, FiniteYBSet(X.r1, X.r2)):
        for m in (vknots.MAX_ENTRIES + 1, 2 ** 40):
            start = time.perf_counter()
            with pytest.raises(ResourceBound,
                               match=rf"state_sum: group-ring modulus m = "
                               rf"{m} exceeds the cap {vknots.MAX_ENTRIES}"):
                state_sum(Y, CochainTable.zero(2, 9, m), parse_braid("s1"))
            assert time.perf_counter() - start < 1


def _forget():
    """Empty the plan cache and let the closure memo go."""
    vknots._compiled.cache_clear()
    vknots._hold(None)


def _spy(monkeypatch, name):
    """Empty both memos and record the arguments of every call of
    vknots.<name>."""
    _forget()
    calls = []
    real = getattr(vknots, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vknots, name, spy)
    return calls


def test_count_then_state_sum_plans_the_word_once(monkeypatch):
    planned = _spy(monkeypatch, "_plan")
    X = _relabelled(make_affine(15, 4, 11, 2), random.Random(2))
    psi = CochainTable(2, 15, 3, [(x * y + x) % 3 for x in range(15)
                                  for y in range(15)])
    word = parse_braid(KISHINO_WORDS["K1"])
    found, coefficients = _oracle(X, word, psi)
    assert count_colorings(X, word) == len(found)
    assert list(state_sum(X, psi, word).value.coefficients) == coefficients
    # a word parsed again is equal, so it finds the same plan
    assert colorings(X, parse_braid(word.text())).tuples == found
    assert len(planned) == 1


def test_rule_sets_never_share_a_plan(monkeypatch):
    planned = _spy(monkeypatch, "_plan")
    biquandle = FiniteYBSet(z3_biquandle().r1, z3_biquandle().r2)
    # R = 1 is invertible, but neither y -> R1(x, y) = x nor
    # x -> R2(x, y) = y is, so it has no sideways inverse
    identity = FiniteYBSet([[x] * 3 for x in range(3)], [list(range(3))] * 3)
    report = identity.verify_birack()
    assert report.invertible
    assert not report.left_invertible and not report.right_invertible
    assert biquandle.verify_birack().left_invertible
    word = parse_braid("s1 s2^-1 v1 s2 s1^-1", strands=3)
    psi = CochainTable(2, 3, 4, [(2 * x + y) % 4 for x in range(3)
                                 for y in range(3)])
    for X in (biquandle, identity, biquandle, identity):
        _assert_matches_oracle(X, word, psi)
    rules = [args[3] for args in planned]
    assert rules == [(0, 1, 2, 3), (0, 1)]
    assert vknots._compiled.cache_info().currsize == 2
    # the plan a set runs fires only the rules its tables have; reading
    # it back is a hit, not a new plan
    _, _, steps = vknots._compiled(word, (0, 1))
    assert {step[1] for step in steps if step[0] == "cross"} <= {0, 1}
    assert len(planned) == 2


def test_relabelled_tables_share_a_plan_and_keep_their_rows(monkeypatch):
    planned = _spy(monkeypatch, "_plan")
    base = make_block(2, 1, 1)
    word = parse_braid("s1 v2 s3^-1 s2 s1", strands=4)
    rng = random.Random(5)
    psi = CochainTable(2, 4, 3, [rng.randrange(3) for _ in range(16)])
    found = set()
    for _ in range(3):
        X = _relabelled(base, rng)
        _assert_matches_oracle(X, word, psi)
        found.add(colorings(X, word).tuples)
    assert len(planned) == 1
    # one plan, but each set's rows come from its own tables
    assert len(found) > 1


def test_state_sum_then_count_traces_the_kernel_once(monkeypatch):
    eliminated = _spy(monkeypatch, "_cyclic_kernel")
    composed = _spy(monkeypatch, "_word_matrix")
    word = parse_braid(KISHINO_WORDS["K3"])
    X, Y = make_affine(15, 4, 11, 2), make_affine(15, 4, 11, 2)
    assert X is not Y and X.linear == Y.linear
    psi = CochainTable.zero(2, 15, 2)
    assert state_sum(X, psi, word).colorings == TABLE1_COUNTS[2][2]
    # the state sum composes W once, for its kernel and its weights
    assert len(composed) == 1
    assert count_colorings(X, word) == TABLE1_COUNTS[2][2]
    assert len(composed) == 1
    # a listing checks the held kernel's elements fixed by W again
    assert colorings(X, word).count == TABLE1_COUNTS[2][2]
    assert len(composed) == 2
    assert len(eliminated) == 1
    # the memo is keyed on the set, so an equal form is traced afresh
    assert count_colorings(Y, word) == TABLE1_COUNTS[2][2]
    assert len(eliminated) == 2
    assert count_colorings(make_affine(15, 4, 11, 4), word) == \
        TABLE1_COUNTS[4][2]
    assert len(eliminated) == 3


def test_caps_are_checked_on_cached_words(monkeypatch):
    X = make_affine(15, 4, 11, 2)
    table = FiniteYBSet(X.r1, X.r2)
    word = parse_braid("s1 s2^-1 s1", strands=3)
    count_colorings(X, word)
    count_colorings(table, word)
    monkeypatch.setattr(vknots, "MAX_KERNEL_DIGITS", 2)
    with pytest.raises(ResourceBound, match=r"kernel digits d\*k = 3 "):
        count_colorings(X, word)
    monkeypatch.setattr(vknots, "MAX_TOP_ARCS", 2)
    with pytest.raises(ResourceBound, match=r"top arcs = 3 "):
        count_colorings(table, word)
    monkeypatch.setattr(vknots, "MAX_TOP_ARCS", 3)
    monkeypatch.setattr(vknots, "MAX_ENTRIES", 2)
    with pytest.raises(ResourceBound, match=r"search entries arcs\*rows"):
        count_colorings(table, word)


def _only_tuples(value):
    if isinstance(value, tuple):
        return all(map(_only_tuples, value))
    return isinstance(value, (int, str))


def test_caches_hold_only_tuples():
    _forget()
    X = make_affine(15, 4, 11, 2)
    table = FiniteYBSet(X.r1, X.r2)
    word = parse_braid(KISHINO_WORDS["K2"])
    psi = CochainTable.zero(2, 15, 3)
    for Y in (X, table):
        state_sum(Y, psi, word)
        colorings(Y, word)
    plans = vknots._compiled.cache_info()
    assert plans.currsize == 1
    assert _only_tuples(vknots._compiled(word, vknots._rules(table, word)))
    assert vknots._compiled.cache_info().misses == plans.misses
    # the memo holds table's rows, read-only, with their arc count
    n_arcs, rows = vknots._held(table, word)
    assert isinstance(n_arcs, int) and not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 1
    # a kernel is held as tuples
    count_colorings(X, word)
    gens, orders = vknots._held(X, word)
    assert _only_tuples((gens, orders))
    with pytest.raises(TypeError):
        gens[0][0] = 1
    with pytest.raises(TypeError):
        orders[0] = 1
    # the plan cache keeps its fixed size
    for n in range(1, 2 * vknots._CACHE_SIZE):
        count_colorings(X, parse_braid(f"s1^{n}"))
        count_colorings(table, parse_braid(f"s1^{n}"))
    info = vknots._compiled.cache_info()
    assert info.currsize == info.maxsize == vknots._CACHE_SIZE


@pytest.mark.parametrize("X", [
    make_affine(15, 4, 11, 2), z4_biquandle()], ids=lambda X: X.label)
def test_compiled_braids_match_oracle_cold_and_warm(X):
    rng = random.Random(f"compiled/{X.label}")
    psi = CochainTable(2, X.size, 4,
                       [rng.randrange(4) for _ in range(X.size ** 2)])
    words = [_random_word(rng, rng.randint(1, 3 if X.size > 9 else 4),
                          rng.randint(0, 10)) for _ in range(6)]
    for Y in (X, FiniteYBSet(X.r1, X.r2)):
        for word in words:
            found, coefficients = _oracle(Y, word, psi)
            calls = (lambda: colorings(Y, word).tuples,
                     lambda: count_colorings(Y, word),
                     lambda: list(state_sum(Y, psi, word).value.coefficients))
            want = (found, len(found), coefficients)
            for call, value in zip(calls, want):
                _forget()
                assert call() == value, word
            for call, value in zip(calls + calls, want + want):
                assert call() == value, word


def test_extension_counts_match_state_sums():
    # On Z_m x X with S((a1, x1), (a2, x2)) = ((a2 + psi(x1, x2), R1),
    # (a1, R2)), the Z_m label of a one-component closure gains the
    # crossing weights along the strand, so it closes up exactly when the
    # total is 0: the count on the extension (a table search, as T has
    # no form) is m times the x^0 coefficient of the state sum on X.
    # With psi on both outputs each crossing is passed twice, so the
    # label closes up when twice the total is 0.
    cases = [(z4_biquandle(), z4_cocycle())] + [
        (z3_biquandle(), z3_cocycle(*q))
        for q in itertools.product(range(3), repeat=3)]
    checked = 0
    for X, psi in cases:
        m = psi.modulus
        table = FiniteYBSet(X.r1, X.r2)
        for _, text in word_corpus():
            word = parse_braid(text)
            if _cycle_count(_word_permutation(word)) != 1:
                continue
            value = state_sum(X, psi, word).value.coefficients
            E = extend(table, m, psi, CochainTable.zero(2, X.size, m))
            assert E.linear is None
            assert count_colorings(E, word) == m * value[0], text
            E = extend(table, m, psi, psi)
            assert count_colorings(E, word) == m * sum(
                c for e, c in enumerate(value) if 2 * e % m == 0), text
            checked += 1
    assert checked == 28 * 12
    # each component closes up on its own, so a link breaks the identity
    X, psi = z4_biquandle(), z4_cocycle()
    E = extend(FiniteYBSet(X.r1, X.r2), 4, psi, CochainTable.zero(2, 4, 4))
    for text in ("s1^4", BORROMEAN_WORD):
        word = parse_braid(text)
        assert count_colorings(E, word) != \
            4 * state_sum(X, psi, word).value.coefficients[0], text


def _sharing_case():
    X = _relabelled(make_block(2, 1, 1), random.Random(7))
    psi = CochainTable(2, 4, 3, [(x * y + 2 * y) % 3 for x in range(4)
                                 for y in range(4)])
    return X, psi, parse_braid("s1 v2 s3^-1 s2 s1 s3", strands=4)


def test_count_and_state_sum_share_one_search(monkeypatch):
    searched = _spy(monkeypatch, "_searched_rows")
    X, psi, word = _sharing_case()
    found, coefficients = _oracle(X, word, psi)
    want = (len(found), coefficients, found)
    calls = (lambda Y: count_colorings(Y, word),
             lambda Y: list(state_sum(Y, psi, word).value.coefficients),
             lambda Y: colorings(Y, word).tuples)
    # each call on a set of its own searches
    assert [call(FiniteYBSet(X.r1, X.r2)) for call in calls] == list(want)
    for order in ((0, 1, 2), (2, 1, 0), (1, 0, 2)):
        Y = FiniteYBSet(X.r1, X.r2)
        searched.clear()
        for i in order:
            assert calls[i](Y) == want[i], order
        # the first call searched Y; the others read what it held
        assert sum(args[1] is Y for args in searched) == 1, order


def test_a_fresh_search_reads_its_rules_and_plan_once(monkeypatch):
    # _compiled is spied second: emptying the memos clears its cache
    rules = _spy(monkeypatch, "_rules")
    plans = _spy(monkeypatch, "_compiled")
    X, psi, word = _sharing_case()
    count_colorings(X, word)
    assert len(rules) == len(plans) == 1
    # the memo holds the arc count with the rows, so the calls that read
    # them plan nothing
    state_sum(X, psi, word)
    colorings(X, word)
    assert len(rules) == len(plans) == 1


def test_held_rows_follow_the_last_word(monkeypatch):
    searched = _spy(monkeypatch, "_searched_rows")
    X, psi, word = _sharing_case()
    other = parse_braid("s1 s2^-1 v1 s2", strands=4)
    for w in (word, other, word):
        found, coefficients = _oracle(X, w, psi)
        assert list(state_sum(X, psi, w).value.coefficients) == coefficients
        assert colorings(X, w).tuples == found
        assert vknots._closure[1] == w
    # each change of word searches afresh; a repeat of it does not
    assert [args[2] for args in searched] == [word, other, word]
    # a word parsed again is equal, so it reads the held rows
    assert count_colorings(X, parse_braid(word.text(), 4)) == \
        len(_oracle(X, word, psi)[0])
    assert len(searched) == 3


def test_sets_with_equal_tables_share_no_rows(monkeypatch):
    searched = _spy(monkeypatch, "_searched_rows")
    X, psi, word = _sharing_case()
    Y = FiniteYBSet(X.r1, X.r2)
    assert X == Y
    assert count_colorings(X, word) == count_colorings(Y, word)
    assert [id(args[1]) for args in searched] == [id(X), id(Y)]
    # the memo holds Y's rows only, read-only, so no caller can change them
    assert vknots._held(X, word) is None
    _, rows = vknots._held(Y, word)
    with pytest.raises(ValueError):
        rows[0, 0] = 1
    # a set with a declared form holds its kernel, not rows
    Z = make_block(2, 1, 1)
    colorings(Z, word)
    assert vknots._held(Y, word) is None
    assert _only_tuples(vknots._held(Z, word))


def test_the_memo_frees_rows_and_keeps_no_set_alive(monkeypatch):
    searched = _spy(monkeypatch, "_searched_rows")
    X, psi, word = _sharing_case()
    Y = FiniteYBSet(X.r1, X.r2)
    count_colorings(X, word)
    rows = weakref.ref(vknots._held(X, word)[1])
    count_colorings(Y, word)
    gc.collect()
    # a search on another set let X's rows go, though X is alive
    assert rows() is None
    assert [args[1] for args in searched] == [X, Y]
    searched.clear()
    # the memo holds Y weakly, so Y goes with its last reference, and
    # Y's rows go with Y
    held, rows = weakref.ref(Y), weakref.ref(vknots._held(Y, word)[1])
    del Y
    gc.collect()
    assert held() is None and rows() is None and vknots._closure is None
    # and a set made after it is not taken for the held one
    assert count_colorings(FiniteYBSet(X.r1, X.r2), word) == \
        count_colorings(X, word)
    assert len(searched) == 2


def test_held_rows_are_let_go_before_a_search(monkeypatch):
    _forget()
    held = []
    real = vknots._searched_rows

    def spy(stage, X, word):
        held.append(vknots._closure)
        return real(stage, X, word)

    monkeypatch.setattr(vknots, "_searched_rows", spy)
    X, psi, word = _sharing_case()
    other = parse_braid("s1 s2^-1 v1 s2", strands=4)
    count_colorings(X, word)
    count_colorings(X, other)
    count_colorings(FiniteYBSet(X.r1, X.r2), other)
    # no search allocates while another closure's rows are held
    assert held == [None, None, None]


def test_parse_makes_each_letter_once():
    word = parse_braid("s1 s2^-1 s1^2 v1 s2^-1 v1^-1")
    first = {}
    for g in word.generators:
        assert first.setdefault(g, g) is g
    assert len(first) == 3
    # the hash is the one the fields give, taken once, and an equal word
    # from another parse keys the same cache entry
    again = parse_braid(word.text())
    assert again == word and hash(again) == hash(word) == \
        hash((word.strands, word.generators))
    assert {word: 1}[again] == 1


def test_an_unpickled_word_hashes_afresh():
    # string hashes differ between processes, so a hash taken where the
    # word was pickled would miss its equal words here
    text = "s1 v1 s2^-1 s1"
    code = ("import pickle, sys; from ybknots import parse_braid; "
            f"sys.stdout.buffer.write(pickle.dumps(parse_braid({text!r})))")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(vknots.__file__)))
    data = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, check=True).stdout
    word = pickle.loads(data)
    assert hash(word) == hash(parse_braid(text))
    assert {parse_braid(text): 1}[word] == 1
    # and the other way: a word pickled here is rebuilt and hashed afresh
    # in a process with another hash seed
    code = ("import pickle, sys; from ybknots import parse_braid; "
            "word = pickle.loads(sys.stdin.buffer.read()); "
            f"fresh = parse_braid({text!r}); "
            "assert word == fresh and hash(word) == hash(fresh) == "
            "hash((word.strands, word.generators)); print('ok')")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(env, PYTHONHASHSEED="2"),
                          input=pickle.dumps(parse_braid(text)),
                          capture_output=True, check=True)
    assert done.stdout == b"ok\n"


def _assert_trace_matches(X, word, rows, psi=None, m=None):
    start = np.array(rows, dtype=np.int64).reshape(len(rows), word.strands)
    end, weights = vknots._trace_word(X, word, start, psi, m)
    want, want_weights = _trace_by_hand(X, word, rows, psi)
    # one 1-D array per strand position, one entry per row
    assert len(end) == word.strands, word
    assert all(strand.shape == (len(rows),) for strand in end), word
    assert np.stack(end, axis=1).tolist() == [list(r) for r in want], word
    if psi is None:
        assert weights is None
    else:
        assert weights.tolist() == [w % m for w in want_weights], word


@pytest.mark.parametrize("X", [
    make_affine(15, 4, 11, 2), make_block(2, 1, 1), make_omega(2, 2, 2),
    _relabelled(make_affine(12, 5, 1, 5), random.Random(4)),
    _relabelled(make_block(3, 1, 2), random.Random(5))],
    ids=lambda X: X.label)
def test_trace_matches_a_per_tuple_oracle(X):
    # declared forms and table-given sets, words of all three letter kinds,
    # 0, 1 and many rows, with and without a cochain
    rng = random.Random(f"trace/{X.label}")
    kinds = set()
    for _ in range(12):
        strands = rng.randint(1, 5)
        word = _random_word(rng, strands, rng.randint(0, 16))
        kinds.update(g.kind for g in word.generators)
        m = rng.randint(2, 9)
        psi = np.array([[rng.randrange(m) for _ in range(X.size)]
                        for _ in range(X.size)], dtype=np.int64)
        for n_rows in (0, 1, rng.randint(2, 40)):
            rows = [[rng.randrange(X.size) for _ in range(strands)]
                    for _ in range(n_rows)]
            _assert_trace_matches(X, word, rows)
            _assert_trace_matches(X, word, rows, psi, m)
    assert kinds == {"positive", "negative", "virtual"}


def test_trace_reduces_the_weights_once_or_at_every_letter():
    X = make_affine(5, 2, 1, 3)
    rng = random.Random(7)
    word = parse_braid("s1 s2 s1^-1 s2 v1 s1 s2^-1 s1 s1 s2")
    rows = [[rng.randrange(5) for _ in range(3)] for _ in range(20)]
    # m = 5: 10 letters times m is far below 2^62, one reduction at the end
    psi = np.array([[rng.randrange(5) for _ in range(5)] for _ in range(5)])
    _assert_trace_matches(X, word, rows, psi, 5)


def test_table1_relabelled_sets_plan_each_word_once(monkeypatch):
    # seven relabelled Table 1 sets share one rule set, so each Kishino
    # word, parsed afresh for every set, is planned once
    planned = _spy(monkeypatch, "_plan")
    q, s, t = TABLE1_PARAMS
    rng = random.Random(12)
    for u in TABLE1_U_VALUES:
        X = _relabelled(make_affine(q, s, t, u), rng)
        assert tuple(count_colorings(X, parse_braid(KISHINO_WORDS[name]))
                     for name in KNOT_NAMES) == TABLE1_COUNTS[u]
    assert len(planned) == len(KNOT_NAMES) == 6
    info = vknots._compiled.cache_info()
    assert (info.misses, info.hits) == (6, 36)


def test_reproduce_table1_parses_each_word_once(monkeypatch, capsys):
    parsed = _spy(monkeypatch, "parse_braid")
    assert cli.main(["reproduce", "table1", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(parsed) == len(KNOT_NAMES) == 6
    assert len(rows) == 7 and all(row["ok"] for row in rows)
