"""Virtual links as closed braids: parsing, colorings, state sums.

A braid word on k strands acts on color tuples in X^k: a positive
crossing s_i maps the pair at positions (i, i+1) through R, a negative
crossing through the inverse map, and a virtual crossing v_i transposes
the positions.  Colorings of the closure are the fixed tuples of that
action; the cocycle state sum weights each coloring by the crossings it
passes through and collects the total in the group ring Z[Z_m].  A word
is written as whitespace-separated tokens ('s'|'v') INDEX ('^'
EXPONENT)?, where INDEX is ASCII digits and EXPONENT is ASCII digits
after an optional '-' (`parse_braid`).

A solution with a declared linear form (`FiniteYBSet.linear`) has the
word act as one matrix W on the stacked digit vectors of the strands,
so its colorings are ker(W - I) over Z_q: they are counted from the
kernel's generators and listed from them, never searched for.  W is
composed from the form's 2d x 2d matrix A and its inverse over Z_q
alone (`_word_matrix`), which also records the map from the top digits
to the pair each real crossing weighs.  The kernel's elements, as digit
vectors, are checked fixed by W in one product, and their state-sum
weights are one gather from the cochain per slab of crossings.  No table
of the set is read or built, so nothing of |X|^2 entries is allocated.

A solution given by its tables is searched over the arcs of the closed
diagram.  Each real crossing is a relation R(x, y) = (z, w) on four
arcs; virtual crossings and the closure only identify arcs.  The inputs
fix a crossing through R, and when the tables allow it the outputs fix
it through Rbar, (x, z) through the left inverse of y -> R1(x, y), and
(y, w) through the right inverse of x -> R2(x, y); a biquandle has all
four.  Which arcs a rule fixes depends only on which arcs are known, so
the search is planned over arc ids (branch on an arc, derive arcs,
check arcs already known) and then run on an (arcs, rows) array, one
partial coloring per row.  The plan gives each arc its id as it makes
the arc known, so after each step the known arcs are a prefix of the
arc axis, and a step reads and copies only that prefix: a branch
repeats each row's known arcs once per color and gives its new arcs
every color; a derived arc is a gather from the flattened tables at the
pair's flat index a*n + b; a check keeps the rows it passes, copying
only their known arcs.  The entries of arcs not yet known are allocated
but never read.

The rows a search found are traced through the word, which checks that
each is fixed and gives the state-sum weights.  The trace holds one 1-D
array per strand position, with every row's color there: a real letter
gathers its pair's two new colors (and the weight term) from the
flattened tables, and a virtual letter only swaps two arrays.  Either
way the weights are summed exactly in int64 and reduced mod m once, at
the end (see `_trace_word` and `_form_rows`).

Three memos reuse what a closed braid needs.  The token table `_token`
keeps, for the last `_TABLE_SIZE` tokens any call met, each one's letter
and copy count or its syntax error's message, and `_letter` keeps one
letter per (kind, index).  So a parse matches only the tokens new to the
process: warm, an 11-letter word parses in about 6.5 us, against 20 us
when every call matched its own tokens, and cold, the first parse in a
fresh process costs no more than it did (63-77 us here, against 66-92
us).  A word's arcs and search plan depend only on the word and the rule
set, so `_compiled` keeps them in an LRU cache of `_CACHE_SIZE` = 16
tuples, shared by every set.  Over one braids_table pass 37 of its 108
lookups hit, 36 of them Table 1's words on its relabelled sets; a word
job looks its plan up once, since the count after its state sum reads
the closure memo.  A miss plans in 35 us on average over that pass,
against 51 us when each trial worked on copies of the planner's state
and the chosen branch was propagated again to build its steps (see
`_plan`).  What the tables give, the colorings, is kept for one closure
only: the last (set, word) any call found, with the generators and
orders of ker(W - I) on a set with a form, or the read-only rows the
trace checked fixed, with their arc count, on a table-given set.  The
memo holds the set by a weak reference, lets the rows go before another
search and goes with the set, so live sets hold one closure's rows
between them.  A count of that closure then neither searches nor
composes, a listing of a table-given set's closure neither searches nor
traces, and a state sum traces the held rows only for its weights.  On a
form a listing or a state sum composes W again, for the check and the
weights, but eliminates nothing.  A word hashes itself once, when it is
built, so a lookup does not walk its letters.

The caps are checked on every call, outside the plan cache and the
closure memo: MAX_TOP_ARCS and MAX_KERNEL_DIGITS before a memo is read,
MAX_ENTRIES before each array is allocated and on held rows as arcs
times rows.
"""

from __future__ import annotations

import itertools
import math
import re
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ArityMismatch, BraidSyntaxError, IndexOutOfRange, check_cap
from .modalg import GroupRingElement, _cyclic_kernel
from .ybcore import (MAX_ENTRIES, CochainTable, FiniteYBSet, _check_colors,
                     _decode, _encode, _integer)

# Most letters a parsed word expands to: the trace, the arcs and the
# search plan all walk every letter.
MAX_LETTERS = 4000

# Most digits d*k, the side of W, that the kernel path eliminates: the
# elimination of W - I takes cubic time in it, about 1.3 s at 224 for a
# dense random W over Z_4096 and 0.9 s over Z_15 (see README).
MAX_KERNEL_DIGITS = 224

# Most top arcs the search plans over: planning tries each candidate
# arc at each branch, which grows as the cube of the top arcs.
MAX_TOP_ARCS = 320

# Most plans `_compiled` keeps.  Over one braids_table pass (seed 0,
# after a warm pass, cache cleared first) 37 of 108 lookups hit: 36 are
# Table 1's words on its relabelled sets, which share a rule set.  A word
# job looks its plan up once; the count that follows its state sum on the
# same set reads the closure memo instead.  At the word caps a plan of
# 4000 letters takes about 1 MB, so a full cache stays within 16 MB.
_CACHE_SIZE = 16

# The last closure any call found: (weak reference to the set, word,
# kernel generators and orders) on a set with a form, (..., (arc count,
# rows)) on a table-given set; None once it was let go or its set died.
_closure = None


def _held(X: FiniteYBSet, word: BraidWord):
    """What the memo holds for X's closure of word, or None."""
    held = _closure
    if held is None or held[0]() is not X or held[1] != word:
        return None
    return held[2]


def _hold(X: FiniteYBSet | None, word=None, value=None):
    """Keep value as X's closure of word until X goes; with no X, let
    the memo go."""
    global _closure
    _closure = None if X is None else (weakref.ref(X, _release), word, value)


def _release(ref):
    """Let the memo go with its set, so a dead set's rows are freed."""
    global _closure
    if _closure is not None and _closure[0] is ref:
        _closure = None


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
        # a word keys the compile caches, so it is hashed once, not letter
        # by letter on every lookup
        object.__setattr__(self, "_hash",
                           hash((self.strands, self.generators)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes, so an unpickled word
        # hashes itself afresh
        return BraidWord, (self.strands, self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def text(self) -> str:
        return " ".join(g.token() for g in self.generators)

    def __repr__(self) -> str:
        return f"BraidWord({self.strands}, {self.text()!r})"


# A token's index and exponent are ASCII digits only: `\d` would also take
# any Unicode decimal digit, which int() reads as its value.
_TOKEN = re.compile(r"([sv])([0-9]+)(?:\^(-?[0-9]+))?\Z")

# Most entries the token table and the letter table each keep.  One
# braids_table pass (seed 0) reads 877 tokens, 39 of them distinct, and
# 22 distinct letters.  A token's entry takes about 200 bytes, so the two
# tables stay within 0.5 MB together.
_TABLE_SIZE = 1024

# The one letter of each (kind, index) while the table holds it, so equal
# letters are one object whichever tokens or calls spell them.
_letter = lru_cache(maxsize=_TABLE_SIZE)(BraidGenerator)


@lru_cache(maxsize=_TABLE_SIZE)
def _token(token: str) -> tuple[BraidGenerator, int] | str:
    """One token's letter and copy count, or its syntax error's message
    (the caller adds the position, which differs between texts)."""
    match = _TOKEN.match(token)
    if match is None:
        return f"bad token {token!r}"
    kind_char, index_text, exp_text = match.groups()
    index = int(index_text)
    if index < 1:
        return f"index must be at least 1 in {token!r}"
    exponent = 1 if exp_text is None else int(exp_text)
    if kind_char == "v":
        kind = VIRTUAL
    else:
        kind = POSITIVE if exponent >= 0 else NEGATIVE
    return _letter(kind, index), abs(exponent)


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated tokens ('s'|'v') INDEX ('^' EXPONENT)?,
    where INDEX is ASCII digits and EXPONENT is ASCII digits with an
    optional leading '-'.

    `s1^-1` is the inverse crossing and `s1^3` expands to three copies;
    virtual crossings are self-inverse, so an exponent on `v` means
    |exponent| copies.  The strand count defaults to one more than the
    largest index used, also by a token of no copies (`s5^0`).

    The text is split once, and each token is read from the token table
    `_token`, which matches a token the first time any call meets it.
    An error gives the offset of its token in this text.
    """
    generators: list[BraidGenerator] = []
    size = max_index = 0
    tokens = text.split()
    for token in tokens:
        entry = _token(token)
        if entry.__class__ is str:
            # an earlier token spelled the same would have raised already
            raise BraidSyntaxError(entry, _offset(text, tokens.index(token)))
        letter, copies = entry
        size += copies
        if size > MAX_LETTERS:
            check_cap("parse_braid", "letters", size, MAX_LETTERS)
        if copies == 1:
            generators.append(letter)
        else:
            generators += [letter] * copies
        if letter.index > max_index:
            max_index = letter.index
    needed = max_index + 1
    strands = needed if strands is None else _integer(strands, "strands")
    if strands < needed:
        raise IndexOutOfRange(
            f"word uses index {max_index}, needs {needed} strands, "
            f"got {strands}")
    return BraidWord(strands, tuple(generators))


def _offset(text: str, at: int) -> int:
    """Where token `at` of text.split() starts in text: the runs of
    non-whitespace are the same tokens."""
    return next(itertools.islice(re.finditer(r"\S+", text), at, None)).start()


def _needs_inverse(word: BraidWord) -> bool:
    return any(g.kind == NEGATIVE for g in word.generators)


def apply_word(X: FiniteYBSet, word: BraidWord, colors) -> tuple[int, ...]:
    """Image of one strand coloring under the braid action, left to right."""
    if len(colors) != word.strands:
        raise ArityMismatch(
            f"{word.strands} strands but {len(colors)} colors")
    colors = _check_colors(X.size, colors)
    if X.linear is not None:
        digits = X.linear.digits(colors)
        end = _word_matrix(X, word, digits.reshape(-1, 1))[0]
        return tuple(X.linear.index(end.reshape(digits.shape)).tolist())
    end, _ = _trace_word(X, word, np.array([colors], dtype=np.int64),
                         None, None)
    return tuple([int(strand[0]) for strand in end])


def _trace_word(X: FiniteYBSet, word: BraidWord, start, psi_array, modulus):
    """Run the rows of `start` through the word on a table-given set, at
    once; returns (end, weights mod `modulus`, or None without `psi_array`).

    `end` is the strand positions as a list of 1-D arrays, one per
    position, each holding that position's color in every row.  A real
    letter reads its pair's flat index a*n + b once and gathers the two
    new colors (and the weight term) from the flattened tables; a
    virtual letter only swaps two list entries.  No entry is written in
    place, so a position no letter touched is still a view of `start`.

    Each weight term lies in (-m, m), so the int64 sum of a word of L
    letters stays exact while L*m < 2^62 and is reduced mod m once,
    after the last letter.  The one caller with a cochain, `state_sum`,
    refuses m > 2^24 before any trace, and no word of 2^38 letters fits
    in memory.
    """
    n = X.size
    strands = list(start.T)
    weights = None
    if psi_array is not None:
        weights = np.zeros(len(start), dtype=np.int64)
        psi = psi_array.reshape(-1)
    r1, r2 = X.r1.reshape(-1), X.r2.reshape(-1)
    if _needs_inverse(word):
        rbar1, rbar2 = X.rbar1.reshape(-1), X.rbar2.reshape(-1)
    for g in word.generators:
        i = g.index - 1
        if g.kind == VIRTUAL:
            strands[i], strands[i + 1] = strands[i + 1], strands[i]
            continue
        pair = strands[i] * n + strands[i + 1]
        if g.kind == POSITIVE:
            if weights is not None:
                weights += psi[pair]
            strands[i], strands[i + 1] = r1[pair], r2[pair]
        else:
            strands[i], strands[i + 1] = rbar1[pair], rbar2[pair]
            if weights is not None:
                weights -= psi[strands[i] * n + strands[i + 1]]
    if weights is not None:
        weights %= modulus
    return strands, weights


def _word_matrix(X: FiniteYBSet, word: BraidWord, start=None):
    """(W, pairs, signs) over Z_q, composed from the form's A and A^-1.

    W is the word's action on the k strands' digit vectors, stacked
    strand by strand, applied to `start`: by default the identity, or one
    tuple's digits as a column, which end as its image's.  Its d rows of
    position p are that position's digits as a function of the top
    digits: a positive letter maps its pair's 2d rows through A in
    place, a negative one through A^-1, and a virtual letter swaps the
    pair's two blocks.  Real crossing c weighs the pair whose digits are
    P_c @ top digits, with sign_c: the incoming pair, +1, at s_i and the
    pair Rbar pulls it back to, -1, at s_i^-1.  `pairs` lists the 2d x dk
    maps P_c, at most MAX_LETTERS * 2d * dk entries in all, and `signs`
    holds the signs.  ValueError when a negative letter meets an A with
    no inverse mod q.
    """
    form = X.linear
    q, d = form.q, form.d
    forward = np.array(form.matrix, dtype=np.int64)
    if _needs_inverse(word):
        backward = X._form_inverse
        if backward is None:
            raise ValueError(f"{X.label}: R is not invertible")
    W = np.eye(d * word.strands, dtype=np.int64) if start is None else start
    pairs, signs = [], []
    for g in word.generators:
        pair = W[(g.index - 1) * d:(g.index + 1) * d]
        if g.kind == VIRTUAL:
            pair[:] = np.concatenate((pair[d:], pair[:d]))
        elif g.kind == POSITIVE:
            pairs.append(pair.copy())
            signs.append(1)
            np.remainder(forward @ pair, q, out=pair)
        else:
            pair[:] = backward @ pair % q
            pairs.append(pair.copy())
            signs.append(-1)
    return W, pairs, np.array(signs, dtype=np.int64)


def _kernel(stage: str, X: FiniteYBSet, word: BraidWord):
    """(kernel, composed): the generators of ker(W - I) over Z_q and
    their orders, as tuples, and `_word_matrix`'s result when this call
    composed W to eliminate it, else None (the memo held the kernel).
    The generators span a direct sum, so each coloring is one
    combination sum c_i g_i with 0 <= c_i < order_i."""
    form = X.linear
    side = form.d * word.strands
    check_cap(stage, "kernel digits d*k", side, MAX_KERNEL_DIGITS)
    kernel, composed = _held(X, word), None
    if kernel is None:
        composed = _word_matrix(X, word)
        W = composed[0] - np.eye(side, dtype=np.int64)
        gens, orders = _cyclic_kernel(W.tolist(), form.q)
        kernel = tuple([tuple(g) for g in gens]), tuple(orders)
        _hold(X, word, kernel)
    return kernel, composed


def _kernel_rows(stage: str, X: FiniteYBSet, word: BraidWord) -> np.ndarray:
    """Every element of ker(W - I), as one row of d*k digits each."""
    q, d = X.linear.q, X.linear.d
    gens, orders = _kernel(stage, X, word)[0]
    total = math.prod(orders)
    check_cap(stage, "kernel entries colorings*d*k", total * d * word.strands,
              MAX_ENTRIES)
    index = np.arange(total, dtype=np.int64)
    vectors = np.zeros((total, d * word.strands), dtype=np.int64)
    # mixed radix over the generator orders, the last generator fastest
    for g, order in zip(gens[::-1], orders[::-1]):
        vectors = (vectors + np.outer(index % order, g)) % q
        index //= order
    return vectors


def _form_rows(stage: str, X: FiniteYBSet, word: BraidWord, psi_array,
               modulus):
    """The kernel's elements as strand tuples, checked fixed by W, with
    their weights mod `modulus` (None without `psi_array`).

    Every entry below is a residue, so a product of dk terms stays under
    dk*q^2 < 2^62: the word caps hold dk to 224 and every maker caps n^2,
    so q <= 4096.  The weight of a row is sum_c sign_c psi(P_c @ digits),
    gathered for a slab of crossings at once: the slab's maps are one
    array, their pair digits one product, their indices one encoding and
    their psi values one gather.  A slab holds as many crossings as keep
    its maps, 2d*dk entries each, and its pair digits, rows*2d each,
    within MAX_ENTRIES.  One crossing's 2d*dk is at most dk^2, and its
    rows*2d at most the listing's rows*dk, which the kernel-entries cap
    has bounded, so the slabs refuse nothing."""
    form = X.linear
    q, d = form.q, form.d
    # W is composed once a call: by `_kernel` when it eliminates, else here
    W, pairs, signs = _kernel(stage, X, word)[1] or _word_matrix(X, word)
    digits = _kernel_rows(stage, X, word)
    if not np.array_equal(digits @ W.T % q, digits):
        raise RuntimeError(f"{stage}: a kernel element of W - I is not "
                           f"fixed by {word!r} on {X.label}")
    weights = None
    if psi_array is not None:
        psi = psi_array.reshape(-1)
        rows, width = len(digits), 2 * d
        weights = np.zeros(rows, dtype=np.int64)
        slab = max(1, MAX_ENTRIES // (width * max(rows, d * word.strands)))
        for c in range(0, len(signs), slab):
            maps = np.concatenate(pairs[c:c + slab])
            at = _encode((digits @ maps.T % q).reshape(rows, -1, width), q)
            weights += psi[at] @ signs[c:c + slab]
        weights %= modulus
    return form.index(digits.reshape(len(digits), word.strands, d)), weights


# The rules of a crossing R(x, y) = (z, w), whose arcs are slots 0..3
# in the order x, y, z, w: each names the pair of slots that fixes the
# other two.
_FORWARD, _BACKWARD, _LEFT, _RIGHT = range(4)
_PAIRS = ((0, 1), (2, 3), (0, 2), (1, 3))
# the slots each rule fixes, in slot order
_OTHERS = ((2, 3), (0, 1), (1, 3), (0, 2))


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
        left, right = position[i], position[i + 1]
        if g.kind == VIRTUAL:
            position[i], position[i + 1] = right, left
            continue
        lower = len(parent)
        parent += (lower, lower + 1)
        position[i], position[i + 1] = lower, lower + 1
        crossings.append((left, right, lower, lower + 1)
                         if g.kind == POSITIVE
                         else (lower, lower + 1, left, right))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for top, bottom in enumerate(position):
        a, b = root(top), root(bottom)
        parent[max(a, b)] = min(a, b)
    # a parent is never above its arc, so one pass in arc order numbers
    # every arc by its root, the roots in the order they come
    arc: list[int] = []
    roots = 0
    for a, p in enumerate(parent):
        if p == a:
            arc.append(roots)
            roots += 1
        else:
            arc.append(arc[p])
    return (roots, tuple(arc[:k]),
            tuple([(arc[x], arc[y], arc[z], arc[w])
                   for x, y, z, w in crossings]))


def _plan(n_arcs: int, top, crossings, rules) -> tuple:
    """(number of arcs, top arcs, steps): the search as steps over arc
    ids.  ("branch", arcs) gives the arcs every combination of colors.
    ("cross", rule, arcs, writes, checks) fixes a crossing from the pair
    of `rule`: it writes the slots whose arcs were unknown and checks the
    others, so every crossing's whole relation is enforced once, also
    where two of its slots are one arc.

    An arc takes its id when it becomes known: a branch arc when it is
    chosen, a cross step's writes in slot order.  After every step the
    known arcs are then ids 0..known-1, so the search holds them as a
    prefix of its array.

    A branch takes the arc after which propagation knows the most arcs,
    among those that complete a pair of some open crossing: that keeps
    the rows few.  The top arcs fix every arc (through R, and Rbar where
    a crossing is negative, which `rules` then holds), so a branch on
    each unknown top arc would end the search.  An arc is taken only if
    that many more branches would still keep the total within one per
    top arc, and so the rows within |X|^(top arcs); failing that, the
    best unknown top arc is taken.  The scan of candidates stops at the
    first one allowed that makes every unknown arc known, since the
    earliest best candidate wins.

    A candidate is tried by `trial`, which fires crossings on the plan's
    own `known` and `done`, records each with its rule, and then unmarks
    what it marked, so a trial costs what it reaches, not a copy of the
    state.  It fires in the order propagation from the chosen arc would,
    so the chosen trial's record is replayed into the cross steps and no
    crossing is searched for twice.  Before the first branch no arc is
    known, so a top arc fires a crossing only if it fills both slots of
    one of the crossing's pairs.  When no crossing has one arc in two
    slots of any of the four pairs, every top arc would gain nothing, and
    the first is taken untried.

    The tuples are built from lists or displays, not generators: CPython
    sizes a tuple(generator) by a guess and resizes it, so as entries
    churned, freed tuples kept filling its per-size free lists and peak
    RSS climbed for the whole run (+1.6 MB over 25 s on braids_table).
    """
    # each arc's crossings, one entry per slot the arc holds: a crossing
    # met again is done, or has no more known pairs than the first time
    touching: list[list[int]] = [[] for _ in range(n_arcs)]
    for c, arcs in enumerate(crossings):
        for a in arcs:
            touching[a].append(c)
    # each rule with the two slots of its pair
    slots = [(r,) + _PAIRS[r] for r in rules]

    def trial(arc):
        """(the arcs a branch on arc makes known, arc first; the crossings
        it fires as (crossing, rule), in firing order), found by firing
        every crossing a known pair fixes, to a fixpoint."""
        known[arc] = True
        made, fresh, fired = [arc], [arc], []
        while fresh:
            for c in touching[fresh.pop()]:
                if done[c]:
                    continue
                arcs = crossings[c]
                for rule, i, j in slots:
                    if known[arcs[i]] and known[arcs[j]]:
                        break
                else:
                    continue
                done[c] = True
                fired.append((c, rule))
                # the pair's arcs are known, so only the others are new
                for a in arcs:
                    if not known[a]:
                        known[a] = True
                        made.append(a)
                        fresh.append(a)
        for a in made:
            known[a] = False
        for c, _ in fired:
            done[c] = False
        return made, fired

    def best(candidates):
        # every candidate is unknown; one that makes every other unknown
        # arc known can be beaten by no later one under the strict >
        chosen, most = None, -1
        for arc in candidates:
            made, fired = trial(arc)
            gained = len(made) - 1
            if gained <= most:
                continue
            left = unknown_tops - sum([is_top[a] for a in made])
            if branches + 1 + left <= len(tops):
                chosen, most = (arc, made, fired), gained
                if gained == unknown - 1:
                    break
        return chosen

    tops = sorted(set(top))
    is_top = [False] * n_arcs
    for a in tops:
        is_top[a] = True
    known = [False] * n_arcs
    done = [False] * len(crossings)
    steps: list[tuple] = []
    # each known arc's id, in the order it became known
    order: dict[int, int] = {}
    branches = 0
    unknown, unknown_tops = n_arcs, len(tops)
    while unknown:
        if branches:
            chosen = best(sorted({
                arcs[j] if known[arcs[i]] else arcs[i]
                for c, arcs in enumerate(crossings) if not done[c]
                for _, i, j in slots if known[arcs[i]] != known[arcs[j]]}))
        elif any([x == y or z == w or x == z or y == w
                  for x, y, z, w in crossings]):
            chosen = None
        else:
            chosen = tops[0], [tops[0]], []
        if chosen is None:
            chosen = best([a for a in tops if not known[a]])
        arc, made, fired = chosen
        branches += 1
        unknown -= len(made)
        unknown_tops -= sum([is_top[a] for a in made])
        order[arc] = len(order)
        if steps and steps[-1][0] == "branch":
            steps[-1] = ("branch", steps[-1][1] + (order[arc],))
        else:
            steps.append(("branch", (order[arc],)))
        known[arc] = True
        for c, rule in fired:
            done[c] = True
            arcs = crossings[c]
            writes, checks = [], []
            for slot in _OTHERS[rule]:
                a = arcs[slot]
                if known[a]:
                    checks.append(slot)
                else:
                    known[a] = True
                    writes.append(slot)
                    order[a] = len(order)
            x, y, z, w = arcs
            steps.append(("cross", rule,
                          (order[x], order[y], order[z], order[w]),
                          tuple(writes), tuple(checks)))
    return n_arcs, tuple([order[a] for a in top]), tuple(steps)


@lru_cache(maxsize=_CACHE_SIZE)
def _compiled(word: BraidWord, rules: tuple[int, ...]) -> tuple:
    """The closed word's plan under one rule set, from the plan cache."""
    return _plan(*_arcs(word), rules)


def _check_top_arcs(stage: str, word: BraidWord):
    # at most one top arc per strand, and one on each position no letter
    # touches: both bound the count before `_arcs` walks every strand
    if word.strands > MAX_TOP_ARCS:
        touched = {p for g in word.generators for p in (g.index, g.index + 1)}
        check_cap(stage, "top arcs", word.strands - len(touched),
                  MAX_TOP_ARCS)
        check_cap(stage, "top arcs", len(set(_arcs(word)[1])), MAX_TOP_ARCS)


def _rules(X: FiniteYBSet, word: BraidWord) -> tuple[int, ...]:
    """The rules the search fires on X's tables: R always, Rbar when R
    is invertible or the word has a negative crossing (X.rbar1 then
    raises ValueError when R has none), and each sideways inverse R has."""
    report = X.verify_birack()
    rules = [_FORWARD]
    if report.invertible or _needs_inverse(word):
        rules.append(_BACKWARD)
    if report.left_invertible:
        rules.append(_LEFT)
    if report.right_invertible:
        rules.append(_RIGHT)
    return tuple(rules)


def _searched_rows(stage: str, X: FiniteYBSet, word: BraidWord):
    """(number of arcs, the colorings of the closed word as strand tuples)
    on a table-given solution, found by running `_compiled`'s plan on an
    (arcs, rows) array.  Its arcs are numbered in plan order, so the
    first `known` arcs are the known ones: a step reads and copies only
    those.  Consecutive branches are one step, so the entries cap is
    checked on the array that would hold the rows they make before any
    is allocated."""
    rules = _rules(X, word)
    r1, r2 = X.r1.reshape(-1), X.r2.reshape(-1)
    if _BACKWARD in rules:
        rbar1, rbar2 = X.rbar1.reshape(-1), X.rbar2.reshape(-1)
    if _LEFT in rules:
        left = X.left_inverse.reshape(-1)
    if _RIGHT in rules:
        right = X.right_inverse.reshape(-1)
    n_arcs, top, steps = _compiled(word, rules)
    n = X.size
    cols = np.empty((n_arcs, 1), dtype=np.int64)
    known = 0
    for step in steps:
        n_rows = cols.shape[1]
        if n_rows == 0:
            break
        if step[0] == "branch":
            width = len(step[1])
            combos = n ** width
            check_cap(stage, "search entries arcs*rows",
                      n_arcs * n_rows * combos, MAX_ENTRIES)
            colors = _decode(np.arange(combos), n, width).T
            grown = np.empty((n_arcs, n_rows, combos), dtype=np.int64)
            # row r*combos + c extends row r by the c-th color combination
            grown[:known] = cols[:known, :, None]
            grown[known:known + width] = colors[:, None, :]
            cols = grown.reshape(n_arcs, n_rows * combos)
            known += width
            continue
        _, rule, arcs, writes, checks = step
        v = [cols[a] for a in arcs]
        if rule == _FORWARD:
            pair = v[0] * n + v[1]
            v[2], v[3] = r1[pair], r2[pair]
        elif rule == _BACKWARD:
            pair = v[2] * n + v[3]
            v[0], v[1] = rbar1[pair], rbar2[pair]
        elif rule == _LEFT:
            v[1] = left[v[0] * n + v[2]]
            v[3] = r2[v[0] * n + v[1]]
        else:
            v[0] = right[v[1] * n + v[3]]
            v[2] = r1[v[0] * n + v[1]]
        for slot in writes:
            cols[arcs[slot]] = v[slot]
        known += len(writes)
        if checks:
            keep = v[checks[0]] == cols[arcs[checks[0]]]
            for slot in checks[1:]:
                keep &= v[slot] == cols[arcs[slot]]
            rows = keep.nonzero()[0]
            kept = np.empty((n_arcs, len(rows)), dtype=np.int64)
            # in "clip" mode take writes straight into `out`; by default,
            # as compress does, it fills a buffer and copies that
            cols[:known].take(rows, axis=1, out=kept[:known], mode="clip")
            cols = kept
    return n_arcs, cols[list(top)].T


def _fixed_rows(stage: str, X: FiniteYBSet, word: BraidWord,
                psi_array=None, modulus=None):
    """The colorings of the closed word as rows, in no set order, with
    their accumulated weights (None without a cochain).

    On a set with a form they are the elements of ker(W - I), found and
    weighed on the form (`_form_rows`).  On a table-given set the memo
    holds the rows of the last closure
    searched, with their arc count, once the trace has checked them
    fixed, so a later call on that closure skips the search, and traces
    them again only for weights.  Held rows meet the caps as a search's
    would."""
    if X.linear is not None:
        return _form_rows(stage, X, word, psi_array, modulus)
    _check_top_arcs(stage, word)
    held = _held(X, word)
    if held is not None:
        n_arcs, start = held
        check_cap(stage, "search entries arcs*rows",
                  n_arcs * len(start), MAX_ENTRIES)
        if psi_array is None:
            return start, None
        return start, _trace_word(X, word, start, psi_array, modulus)[1]
    # another closure's rows are let go before the search allocates
    _hold(None)
    n_arcs, start = _searched_rows(stage, X, word)
    end, weights = _trace_word(X, word, start, psi_array, modulus)
    if not np.array_equal(end, start.T):
        raise RuntimeError(f"{stage}: a searched coloring is not fixed by "
                           f"{word!r} on {X.label}")
    start.setflags(write=False)
    _hold(X, word, (n_arcs, start))
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
        return math.prod(_kernel("count_colorings", X, word)[0][1])
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
    psi.check_on(X, "state_sum", arity=2)
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
