"""The arc-search planner as it was before its trial closures only
counted, kept as the tests' oracle.

`plan` is the library's earlier `vknots._plan`, body unchanged: each
candidate branch arc is tried by running the full `propagate`, the one
that numbers arcs and emits steps, on copies of the known arcs and the
closed crossings, and the unknown top arcs are counted afresh after each
trial.  The library's planner must return the same tuples.
"""

# The pair of slots each rule reads, in the slot order x, y, z, w of a
# crossing R(x, y) = (z, w): forward, backward, left, right.
_PAIRS = ((0, 1), (2, 3), (0, 2), (1, 3))


def plan(n_arcs: int, top, crossings, rules) -> tuple:
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
    best unknown top arc is taken.

    The tuples are built from lists, not generators: CPython sizes a
    tuple(generator) by a guess and resizes it, so as entries churned,
    freed tuples kept filling its per-size free lists and peak RSS
    climbed for the whole run (+1.6 MB over 25 s on braids_table).
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
                    for slot in writes:
                        order[arcs[slot]] = len(order)
                    steps.append(("cross", rule,
                                  tuple([order[a] for a in arcs]),
                                  tuple(writes), tuple(checks)))
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
    # each known arc's id, in the order it became known
    order: dict[int, int] = {}
    branches = 0
    while not all(known):
        arc = best(sorted({
            b if known[a] else a for c in range(len(crossings))
            if not done[c] for _, a, b in pairs[c] if known[a] != known[b]}))
        if arc is None:
            arc = best([a for a in tops if not known[a]])
        branches += 1
        order[arc] = len(order)
        if steps and steps[-1][0] == "branch":
            steps[-1] = ("branch", steps[-1][1] + (order[arc],))
        else:
            steps.append(("branch", (order[arc],)))
        known[arc] = True
        propagate(known, done, [arc], steps)
    return n_arcs, tuple([order[a] for a in top]), tuple(steps)
