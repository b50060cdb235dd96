"""Virtual links as closed braids: parsing, colorings, state sums.

A braid word on k strands acts on color tuples in X^k: a positive
crossing s_i maps the pair at positions (i, i+1) through R, a negative
crossing through the inverse map, and a virtual crossing v_i transposes
the positions.  Colorings of the closure are the fixed tuples of that
action; the cocycle state sum weights each coloring by the crossings it
passes through and collects the total in the group ring Z[Z_m].

A solution with a declared linear form (`FiniteYBSet.linear`) has the
word act as one matrix W on the stacked digit vectors of the strands,
so its colorings are ker(W - I) over Z_q: they are counted from the
kernel's generators and listed from them, never searched for.

A solution given by its tables is searched over the arcs of the closed
diagram.  Each real crossing is a relation R(x, y) = (z, w) on four
arcs; virtual crossings and the closure only identify arcs.  The inputs
fix a crossing through R, and when the tables allow it the outputs fix
it through Rbar, (x, z) through the left inverse of y -> R1(x, y), and
(y, w) through the right inverse of x -> R2(x, y); a biquandle has all
four.  Which arcs a rule fixes depends only on which arcs are known, so
the search is planned over arc ids (branch on an arc, derive arcs,
check arcs already known) and then run on an array holding one partial
coloring per row: a branch repeats every row once per color, a derived
arc is a column gather, and a check drops the rows it fails.

Either way the rows found are traced through the word, which checks
that each is fixed and gives the state-sum weights.

A closed braid is compiled once and reused: its arcs and search plan
once per (word, rule set), since they depend on nothing else, and the
generators and orders of ker(W - I) once per (form, word), since the
constructors build a form's tables, and so W, from the form alone.  Each
cache keeps the last `_CACHE_SIZE` = 16 keys and holds only tuples,
never an array or a row.  The caps are checked on every call, outside
the caches: MAX_TOP_ARCS and MAX_KERNEL_DIGITS before a cache is read,
MAX_ENTRIES before each array is allocated.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, BraidSyntaxError, IndexOutOfRange, check_cap
from .modalg import GroupRingElement, _cyclic_kernel
from .ybcore import (CochainTable, FiniteYBSet, _check_colors, _decode,
                     _integer)

# Most letters a parsed word expands to: the trace, the arcs and the
# search plan all walk every letter.
MAX_LETTERS = 4000

# Most digits d*k, the side of W, that the kernel path eliminates: the
# elimination of W - I takes cubic time in it, about 1.3 s at 224 for a
# dense random W over Z_4096 and 0.9 s over Z_15 (see README).
MAX_KERNEL_DIGITS = 224

# Most int64 entries of one listing array: colorings times d*k for the
# digits that list a kernel, arcs times rows for the search; each holds a
# few arrays of this size at once.  d*k and the arcs are at least 1, so
# this bounds the rows (colorings, partial colorings) of a call too.
MAX_ENTRIES = 2 ** 24

# Most top arcs the search plans over: planning tries each candidate
# arc at each branch, which grows as the cube of the top arcs.
MAX_TOP_ARCS = 320

# Most keys each compile cache keeps.  A word is reused within a few
# calls (a count and a state sum, one word over Table 1's sets).  At the
# word caps an entry takes about 1 MB (the plan of 4000 letters) or 2 MB
# (224 generators of 224 entries), so a full cache stays within 32 MB.
_CACHE_SIZE = 16

# (word, rules) -> (arcs, top arcs, plan steps) and (form, word) ->
# (kernel generators, orders); a dict keeps its keys in the order they
# were last put in.  The tuples are built from lists, not generators:
# CPython sizes a tuple(generator) by a guess and resizes it, so as the
# entries churned, freed tuples kept filling its per-size free lists and
# peak RSS climbed for the whole run (+1.6 MB over 25 s on braids_table).
_plans: dict = {}
_kernels: dict = {}


def _cached(cache: dict, key, make):
    """cache[key], made by make() the first time; past `_CACHE_SIZE` keys
    the least recently used one is dropped."""
    value = cache.pop(key, None)
    if value is None:
        value = make()
    cache[key] = value
    if len(cache) > _CACHE_SIZE:
        del cache[next(iter(cache))]
    return value


POSITIVE = "positive"
NEGATIVE = "negative"
VIRTUAL = "virtual"
_KINDS = (POSITIVE, NEGATIVE, VIRTUAL)


@dataclass(frozen=True, slots=True)
class BraidGenerator:
    """One letter of a braid word: s_i, s_i^-1, or v_i (1-based index)."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        object.__setattr__(self, "index", _integer(self.index, "index"))
        if self.index < 1:
            raise ValueError("generator index is 1-based")

    def inverse(self) -> "BraidGenerator":
        if self.kind == POSITIVE:
            return BraidGenerator(NEGATIVE, self.index)
        if self.kind == NEGATIVE:
            return BraidGenerator(POSITIVE, self.index)
        return self

    def token(self) -> str:
        if self.kind == POSITIVE:
            return f"s{self.index}"
        if self.kind == NEGATIVE:
            return f"s{self.index}^-1"
        return f"v{self.index}"


@dataclass(frozen=True)
class BraidWord:
    """A strand count and a generator sequence; indices stay below the
    strand count so every generator has two strands to act on."""

    strands: int
    generators: tuple[BraidGenerator, ...]

    def __post_init__(self):
        object.__setattr__(self, "strands", _integer(self.strands, "strands"))
        if self.strands < 1:
            raise ValueError("need at least one strand")
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.index >= self.strands:
                raise IndexOutOfRange(
                    f"generator {g.token()} needs {g.index + 1} strands, "
                    f"word has {self.strands}")

    def __len__(self) -> int:
        return len(self.generators)

    def text(self) -> str:
        return " ".join(g.token() for g in self.generators)

    def __repr__(self) -> str:
        return f"BraidWord({self.strands}, {self.text()!r})"


_TOKEN = re.compile(r"([sv])(\d+)(?:\^(-?\d+))?\Z")


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated tokens ('s'|'v') INDEX ('^' EXPONENT)?.

    `s1^-1` is the inverse crossing and `s1^3` expands to three copies;
    virtual crossings are self-inverse, so an exponent on `v` means
    |exponent| copies.  The strand count defaults to one more than the
    largest index used.
    """
    generators: list[BraidGenerator] = []
    max_index = 0
    for match in re.finditer(r"\S+", text):
        token = match.group()
        parsed = _TOKEN.match(token)
        if parsed is None:
            raise BraidSyntaxError(f"bad token {token!r}", match.start())
        kind_char, index_text, exp_text = parsed.groups()
        index = int(index_text)
        if index < 1:
            raise BraidSyntaxError(
                f"index must be at least 1 in {token!r}", match.start())
        exponent = 1 if exp_text is None else int(exp_text)
        check_cap("parse_braid", "letters", len(generators) + abs(exponent),
                  MAX_LETTERS)
        max_index = max(max_index, index)
        if kind_char == "v":
            generators.extend([BraidGenerator(VIRTUAL, index)] * abs(exponent))
        elif exponent >= 0:
            generators.extend([BraidGenerator(POSITIVE, index)] * exponent)
        else:
            generators.extend([BraidGenerator(NEGATIVE, index)] * -exponent)
    needed = max_index + 1 if max_index else 1
    strands = needed if strands is None else _integer(strands, "strands")
    if strands < needed:
        raise IndexOutOfRange(
            f"word uses index {max_index}, needs {needed} strands, "
            f"got {strands}")
    return BraidWord(strands, tuple(generators))


def _needs_inverse(word: BraidWord) -> bool:
    return any(g.kind == NEGATIVE for g in word.generators)


def apply_word(X: FiniteYBSet, word: BraidWord, colors) -> tuple[int, ...]:
    """Image of one strand coloring under the braid action, left to right."""
    if len(colors) != word.strands:
        raise ArityMismatch(
            f"{word.strands} strands but {len(colors)} colors")
    colors = _check_colors(X.size, colors)
    end, _ = _trace_word(X, word, np.array([colors], dtype=np.int64),
                         None, None)
    return tuple(end[0].tolist())


def _trace_word(X: FiniteYBSet, word: BraidWord, start, psi_array, modulus):
    """Run the rows of `start` through the word at once; returns (end,
    accumulated weights or None)."""
    current = start.copy()
    weights = None if psi_array is None else np.zeros(len(start),
                                                     dtype=np.int64)
    r1, r2 = X.r1, X.r2
    if _needs_inverse(word):
        rbar1, rbar2 = X.rbar1, X.rbar2
    for g in word.generators:
        i = g.index - 1
        a = current[:, i]
        b = current[:, i + 1]
        if g.kind == POSITIVE:
            if weights is not None:
                weights = (weights + psi_array[a, b]) % modulus
            na, nb = r1[a, b], r2[a, b]
            current[:, i] = na
            current[:, i + 1] = nb
        elif g.kind == NEGATIVE:
            na, nb = rbar1[a, b], rbar2[a, b]
            if weights is not None:
                weights = (weights - psi_array[na, nb]) % modulus
            current[:, i] = na
            current[:, i + 1] = nb
        else:
            current[:, [i, i + 1]] = current[:, [i + 1, i]]
    return current, weights


def _word_matrix(X: FiniteYBSet, word: BraidWord) -> np.ndarray:
    """W over Z_q: the word's action on the k strands' digit vectors,
    stacked strand by strand.  R is linear, so column j of W is the
    digits of the traced tuple whose digit vector is e_j."""
    form = X.linear
    units = np.eye(form.d * word.strands, dtype=np.int64)
    end, _ = _trace_word(
        X, word, form.index(units.reshape(len(units), word.strands, form.d)),
        None, None)
    return form.digits(end).reshape(len(units), -1).T


def _kernel(stage: str, X: FiniteYBSet, word: BraidWord) -> tuple[tuple, tuple]:
    """Generators of ker(W - I) over Z_q and their orders, as tuples.
    They span a direct sum, so each coloring is one combination
    sum c_i g_i with 0 <= c_i < order_i."""
    form = X.linear
    side = form.d * word.strands
    check_cap(stage, "kernel digits d*k", side, MAX_KERNEL_DIGITS)

    def make():
        W = _word_matrix(X, word) - np.eye(side, dtype=np.int64)
        gens, orders = _cyclic_kernel(W.tolist(), form.q)
        return tuple([tuple(g) for g in gens]), tuple(orders)

    return _cached(_kernels, (form, word), make)


def _kernel_rows(stage: str, X: FiniteYBSet, word: BraidWord) -> np.ndarray:
    """Every element of ker(W - I) as a strand tuple."""
    q, d = X.linear.q, X.linear.d
    gens, orders = _kernel(stage, X, word)
    total = math.prod(orders)
    check_cap(stage, "kernel entries colorings*d*k", total * d * word.strands,
              MAX_ENTRIES)
    index = np.arange(total, dtype=np.int64)
    vectors = np.zeros((total, d * word.strands), dtype=np.int64)
    # mixed radix over the generator orders, the last generator fastest
    for g, order in zip(gens[::-1], orders[::-1]):
        vectors = (vectors + np.outer(index % order, g)) % q
        index //= order
    return X.linear.index(vectors.reshape(total, word.strands, d))


# The rules of a crossing R(x, y) = (z, w), whose arcs are slots 0..3
# in the order x, y, z, w: each names the pair of slots that fixes the
# other two.
_FORWARD, _BACKWARD, _LEFT, _RIGHT = range(4)
_PAIRS = ((0, 1), (2, 3), (0, 2), (1, 3))


def _arcs(word: BraidWord):
    """The arcs of the closed word: (number of arcs, the arc at each top
    position, the arcs (x, y, z, w) of each real crossing's relation
    R(x, y) = (z, w)).

    The positions start on the top arcs.  A real crossing puts two new
    arcs on its positions and a virtual crossing swaps them.  A negative
    crossing pulls its upper pair back through Rbar, so its relation
    reads from the lower pair to the upper one.  The closure joins each
    bottom arc to the top arc of its position, so a strand no real
    crossing touches joins two top arcs.
    """
    k = word.strands
    position = list(range(k))
    parent = list(range(k))
    crossings = []
    for g in word.generators:
        i = g.index - 1
        upper = (position[i], position[i + 1])
        if g.kind == VIRTUAL:
            position[i], position[i + 1] = upper[1], upper[0]
            continue
        lower = (len(parent), len(parent) + 1)
        parent.extend(lower)
        position[i], position[i + 1] = lower
        crossings.append(upper + lower if g.kind == POSITIVE
                         else lower + upper)

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for top, bottom in enumerate(position):
        a, b = root(top), root(bottom)
        parent[max(a, b)] = min(a, b)
    number: dict[int, int] = {}
    arc = [number.setdefault(root(a), len(number))
           for a in range(len(parent))]
    return (len(number), tuple([arc[a] for a in range(k)]),
            tuple([tuple([arc[a] for a in c]) for c in crossings]))


def _plan(n_arcs: int, top, crossings, rules) -> list[tuple]:
    """The search as steps over arc ids.  ("branch", arcs) gives the arcs
    every combination of colors.  ("cross", rule, arcs, writes, checks)
    fixes a crossing from the pair of `rule`: it writes the slots whose
    arcs were unknown and checks the others, so every crossing's whole
    relation is enforced once, also where two of its slots are one arc.

    A branch takes the arc after which propagation knows the most arcs,
    among those that complete a pair of some open crossing: that keeps
    the rows few.  The top arcs fix every arc (through R, and Rbar where
    a crossing is negative, which `rules` then holds), so a branch on
    each unknown top arc would end the search.  An arc is taken only if
    that many more branches would still keep the total within one per
    top arc, and so the rows within |X|^(top arcs); failing that, the
    best unknown top arc is taken.
    """
    touching: list[list[int]] = [[] for _ in range(n_arcs)]
    for c, arcs in enumerate(crossings):
        for a in set(arcs):
            touching[a].append(c)
    # each crossing's rules as (rule, the two arcs of its pair)
    pairs = [[(r, arcs[_PAIRS[r][0]], arcs[_PAIRS[r][1]]) for r in rules]
             for arcs in crossings]

    def propagate(known, done, fresh, steps=None) -> int:
        """Fire every crossing a known pair fixes, to a fixpoint; the
        number of arcs that became known."""
        gained = 0
        while fresh:
            for c in touching[fresh.pop()]:
                if done[c]:
                    continue
                for rule, first, second in pairs[c]:
                    if known[first] and known[second]:
                        break
                else:
                    continue
                done[c] = True
                arcs = crossings[c]
                writes, checks = [], []
                for slot, a in enumerate(arcs):
                    if slot in _PAIRS[rule]:
                        continue
                    if known[a]:
                        checks.append(slot)
                    else:
                        known[a] = True
                        writes.append(slot)
                        fresh.append(a)
                        gained += 1
                if steps is not None:
                    steps.append(("cross", rule, arcs, tuple(writes),
                                  tuple(checks)))
        return gained

    def best(candidates):
        chosen, most = None, -1
        for arc in candidates:
            trial = known.copy()
            trial[arc] = True
            gained = propagate(trial, done.copy(), [arc])
            left = sum(not trial[a] for a in tops)
            if gained > most and branches + 1 + left <= len(tops):
                chosen, most = arc, gained
        return chosen

    tops = sorted(set(top))
    known = [False] * n_arcs
    done = [False] * len(crossings)
    steps: list[tuple] = []
    branches = 0
    while not all(known):
        arc = best(sorted({
            b if known[a] else a for c in range(len(crossings))
            if not done[c] for _, a, b in pairs[c] if known[a] != known[b]}))
        if arc is None:
            arc = best([a for a in tops if not known[a]])
        branches += 1
        if steps and steps[-1][0] == "branch":
            steps[-1] = ("branch", steps[-1][1] + (arc,))
        else:
            steps.append(("branch", (arc,)))
        known[arc] = True
        propagate(known, done, [arc], steps)
    return steps


def _compiled(word: BraidWord, rules: tuple[int, ...]) -> tuple:
    """(number of arcs, top arcs, `_plan`'s steps) of the closed word
    under one rule set: everything of the search but the tables."""

    def make():
        n_arcs, top, crossings = _arcs(word)
        return n_arcs, top, tuple(_plan(n_arcs, top, crossings, rules))

    return _cached(_plans, (word, rules), make)


def _searched_rows(stage: str, X: FiniteYBSet, word: BraidWord) -> np.ndarray:
    """The colorings of the closed word on a table-given solution, as
    strand tuples, found by running `_plan` on an (arcs, rows) array.
    Consecutive branches are one step, so the entries cap is checked on
    the array that would hold the rows they make before any is
    allocated."""
    # a strand has one top arc at most, so only a word with more strands
    # than the cap needs its arcs counted before the plan is read
    if word.strands > MAX_TOP_ARCS:
        check_cap(stage, "top arcs", len(set(_arcs(word)[1])), MAX_TOP_ARCS)
    report = X.verify_birack()
    r1, r2 = X.r1, X.r2
    rules = [_FORWARD]
    # a word with a negative crossing needs Rbar, and X.rbar1 raises
    # ValueError when R has none
    if report.invertible or _needs_inverse(word):
        rules.append(_BACKWARD)
        rbar1, rbar2 = X.rbar1, X.rbar2
    if report.left_invertible:
        rules.append(_LEFT)
        left = X.left_inverse
    if report.right_invertible:
        rules.append(_RIGHT)
        right = X.right_inverse
    n_arcs, top, steps = _compiled(word, tuple(rules))
    n = X.size
    cols = np.zeros((n_arcs, 1), dtype=np.int64)
    for step in steps:
        n_rows = cols.shape[1]
        if n_rows == 0:
            break
        if step[0] == "branch":
            arcs = list(step[1])
            combos = n ** len(arcs)
            check_cap(stage, "search entries arcs*rows",
                      n_arcs * n_rows * combos, MAX_ENTRIES)
            colors = _decode(np.arange(combos), n, len(arcs)).T
            cols = np.repeat(cols, combos, axis=1)
            cols[arcs] = np.tile(colors, n_rows)
            continue
        _, rule, arcs, writes, checks = step
        v = [cols[a] for a in arcs]
        if rule == _FORWARD:
            v[2], v[3] = r1[v[0], v[1]], r2[v[0], v[1]]
        elif rule == _BACKWARD:
            v[0], v[1] = rbar1[v[2], v[3]], rbar2[v[2], v[3]]
        elif rule == _LEFT:
            v[1] = left[v[0], v[2]]
            v[3] = r2[v[0], v[1]]
        else:
            v[0] = right[v[1], v[3]]
            v[2] = r1[v[0], v[1]]
        for slot in writes:
            cols[arcs[slot]] = v[slot]
        if checks:
            keep = np.logical_and.reduce(
                [v[slot] == cols[arcs[slot]] for slot in checks])
            cols = cols[:, keep]
    return cols[list(top)].T


def _fixed_rows(stage: str, X: FiniteYBSet, word: BraidWord,
                psi_array=None, modulus=None):
    """The colorings of the closed word as rows, in no set order, with
    their accumulated weights (None without a cochain)."""
    if X.linear is not None:
        start = _kernel_rows(stage, X, word)
        found = "a kernel element of W - I"
    else:
        start = _searched_rows(stage, X, word)
        found = "a searched coloring"
    end, weights = _trace_word(X, word, start, psi_array, modulus)
    if not np.array_equal(end, start):
        raise RuntimeError(
            f"{stage}: {found} is not fixed by {word!r} on {X.label}")
    return start, weights


@dataclass(frozen=True)
class ColoringSet:
    """All tuples fixed by a braid word's action, lexicographically
    sorted."""

    word: BraidWord
    tuples: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.tuples)


def colorings(X: FiniteYBSet, word: BraidWord) -> ColoringSet:
    """Colorings of the closed braid: tuples with apply_word(t) == t."""
    rows, _ = _fixed_rows("colorings", X, word)
    rows = rows[np.lexsort(rows.T[::-1])]
    return ColoringSet(word, tuple(map(tuple, rows.tolist())))


def count_colorings(X: FiniteYBSet, word: BraidWord) -> int:
    """Number of colorings; with a linear form, the order of ker(W - I),
    which enumerates nothing and so is not capped by MAX_ENTRIES."""
    if X.linear is not None:
        return math.prod(_kernel("count_colorings", X, word)[1])
    return len(_fixed_rows("count_colorings", X, word)[0])


@dataclass(frozen=True)
class InvariantValue:
    """State-sum value in Z[Z_m]; the coefficient sum is the number of
    colorings."""

    value: GroupRingElement

    @property
    def colorings(self) -> int:
        return self.value.coefficient_sum()

    def render(self) -> str:
        return self.value.render()

    def to_json(self) -> dict:
        return {"colorings": self.colorings, "value": self.value.to_json()}


def state_sum(X: FiniteYBSet, psi: CochainTable, word: BraidWord) -> InvariantValue:
    """Cocycle state sum of the closed braid.

    Each coloring accumulates weights crossing by crossing: a positive
    crossing with incoming pair (x, y) adds psi(x, y) and maps the pair
    through R; a negative crossing pulls the incoming pair back to
    (x', y') = Rbar(x, y), subtracts psi(x', y'), and the pair becomes
    (x', y'); virtual crossings only transpose.  The coloring contributes
    xi^total and the sum over colorings lands in Z[Z_m].

    This assignment of weights to crossings is pinned by the bundled
    reference values: weighting the R-image pair at positive crossings
    breaks the Borromean value, skipping the Rbar pullback at negative
    crossings breaks it too, and flipping the overall sign swaps the
    torus closure with its mirror.
    """
    if psi.arity != 2:
        raise ArityMismatch(f"state sum needs a 2-cochain, got arity {psi.arity}")
    if psi.set_size != X.size:
        raise ArityMismatch(
            f"cochain set size {psi.set_size} does not match |X| = {X.size}")
    m = psi.modulus
    # the value is dense in Z[Z_m], one coefficient per residue
    check_cap("state_sum", "group-ring modulus m", m, MAX_ENTRIES)
    _, weights = _fixed_rows("state_sum", X, word, psi.as_array(), m)
    coefficients = np.bincount(weights, minlength=m)
    return InvariantValue(GroupRingElement(m, coefficients.tolist()))


def _splice(word: BraidWord, at: int, drop: int, pieces) -> BraidWord:
    gens = word.generators[:at] + tuple(pieces) + word.generators[at + drop:]
    return BraidWord(word.strands, gens)


def equivalent_words(word: BraidWord) -> list[BraidWord]:
    """Single applications of closure-preserving moves, deterministically
    ordered: far commutation, the braid relation, virtual involution,
    the virtual braid relation, the mixed relation, cancellation and
    insertion of s_i s_i^-1, cyclic rotation, conjugation by one
    generator, and stabilization to one more strand.

    This is a bounded test corpus around the word, not an equivalence
    class search.  Conjugation stays inside the word's own strand count;
    widening the braid group first would add a split unknot component to
    the closure until a destabilization removes it.
    """
    gens = word.generators
    length = len(gens)
    out: list[BraidWord] = []

    for p in range(length - 1):
        g, h = gens[p], gens[p + 1]
        if abs(g.index - h.index) >= 2:
            out.append(_splice(word, p, 2, (h, g)))

    sigma = (POSITIVE, NEGATIVE)
    for p in range(length - 2):
        g, h, f = gens[p], gens[p + 1], gens[p + 2]
        same_kind = g.kind == h.kind == f.kind
        braid_shape = (g.index == f.index and abs(g.index - h.index) == 1)
        if same_kind and braid_shape:
            swapped = (BraidGenerator(g.kind, h.index),
                       BraidGenerator(g.kind, g.index),
                       BraidGenerator(g.kind, h.index))
            out.append(_splice(word, p, 3, swapped))

    for p in range(length - 1):
        g, h = gens[p], gens[p + 1]
        if g.kind == VIRTUAL and h.kind == VIRTUAL and g.index == h.index:
            out.append(_splice(word, p, 2, ()))

    for p in range(length - 2):
        g, h, f = gens[p], gens[p + 1], gens[p + 2]
        if (g.kind in sigma and h.kind == VIRTUAL and f.kind == VIRTUAL
                and h.index == g.index + 1 and f.index == g.index):
            out.append(_splice(word, p, 3, (
                BraidGenerator(VIRTUAL, g.index + 1),
                BraidGenerator(VIRTUAL, g.index),
                BraidGenerator(g.kind, g.index + 1))))
        if (g.kind == VIRTUAL and h.kind == VIRTUAL and f.kind in sigma
                and g.index == h.index + 1 and f.index == g.index):
            out.append(_splice(word, p, 3, (
                BraidGenerator(f.kind, h.index),
                BraidGenerator(VIRTUAL, h.index + 1),
                BraidGenerator(VIRTUAL, h.index))))

    for p in range(length - 1):
        g, h = gens[p], gens[p + 1]
        if (g.kind in sigma and h.kind in sigma and g.index == h.index
                and g.kind != h.kind):
            out.append(_splice(word, p, 2, ()))

    for at in range(length + 1):
        for index in range(1, word.strands):
            pos = BraidGenerator(POSITIVE, index)
            neg = BraidGenerator(NEGATIVE, index)
            out.append(_splice(word, at, 0, (pos, neg)))
            out.append(_splice(word, at, 0, (neg, pos)))

    if length >= 2:
        out.append(BraidWord(word.strands, gens[1:] + gens[:1]))
        out.append(BraidWord(word.strands, gens[-1:] + gens[:-1]))

    for index in range(1, word.strands):
        for kind in (POSITIVE, NEGATIVE, VIRTUAL):
            g = BraidGenerator(kind, index)
            out.append(BraidWord(word.strands,
                                 (g,) + gens + (g.inverse(),)))

    for kind in (POSITIVE, NEGATIVE):
        out.append(BraidWord(word.strands + 1,
                             gens + (BraidGenerator(kind, word.strands),)))

    unique: list[BraidWord] = []
    seen = {(word.strands, gens)}
    for candidate in out:
        key = (candidate.strands, candidate.generators)
        if key not in seen:
            seen.add(key)
            unique.append(candidate)
    return unique
