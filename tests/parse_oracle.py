"""The braid-word parser as it was before it split its text in one pass,
kept as the tests' oracle.

`parse_braid` is the library's earlier `vknots.parse_braid`, body
unchanged: it walks the regex matches of the runs of non-whitespace in
the text, matches every token with `_TOKEN` and takes its position from
the match.  It builds the library's own letters and words, so the two
parsers' results compare with `==` and their errors by type, message
and position.

`_TOKEN` is the earlier pattern too, whose digit class takes any Unicode
decimal digit.  The library's takes ASCII digits only, so the two differ
on a token such as 's' followed by ARABIC-INDIC DIGIT ONE, which only the
oracle reads as 's1'.
"""

import re

from ybknots.errors import BraidSyntaxError, IndexOutOfRange, check_cap
from ybknots.vknots import (MAX_LETTERS, NEGATIVE, POSITIVE, VIRTUAL,
                            BraidGenerator, BraidWord)
from ybknots.ybcore import _integer

_TOKEN = re.compile(r"([sv])(\d+)(?:\^(-?\d+))?\Z")


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated tokens ('s'|'v') INDEX ('^' EXPONENT)?.

    `s1^-1` is the inverse crossing and `s1^3` expands to three copies;
    virtual crossings are self-inverse, so an exponent on `v` means
    |exponent| copies.  The strand count defaults to one more than the
    largest index used.
    """
    generators: list[BraidGenerator] = []
    # one generator per distinct letter, so equal letters are one object
    letters: dict[tuple[str, int], BraidGenerator] = {}
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
            kind = VIRTUAL
        else:
            kind = POSITIVE if exponent >= 0 else NEGATIVE
        letter = letters.get((kind, index))
        if letter is None:
            letter = letters[kind, index] = BraidGenerator(kind, index)
        generators.extend([letter] * abs(exponent))
    needed = max_index + 1 if max_index else 1
    strands = needed if strands is None else _integer(strands, "strands")
    if strands < needed:
        raise IndexOutOfRange(
            f"word uses index {max_index}, needs {needed} strands, "
            f"got {strands}")
    return BraidWord(strands, tuple(generators))
