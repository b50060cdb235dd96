"""Seeded job lists of the four workloads, as plain data.

A job spec is a JSON-able dict with an `id`, a `kind` and its inputs.
`fixed` jobs do not depend on the seed; their outputs are compared with
the frozen outputs on every seed.  Every seeded slot has a fixed size
(|X|, strand count, word length, q), so the work of a pass does not
depend on the seed, only which inputs fill the slots.

The generator is pure Python: the parent process builds the same list
without importing numpy or the program.
"""

from __future__ import annotations

import random
from math import gcd

from oracle import affine_tables, integer_coboundary

WORKLOADS = ("braids_affine", "braids_table", "cohomology", "extension_sweep")
DEFAULT_SEED = 0

# The 15-element set of criterion 11, carrying the mod-3 family cocycle
# (1, 0, 0) pulled back along reduction mod 3.
Z15 = (15, 4, 11, 2)
Z4 = (4, 1, 3, 3)      # reference.z4_biquandle(): make_affine(4, 1, -1, -1)
Z3 = (3, 1, 2, 2)      # reference.z3_biquandle()
BLOCK = (3, 1, 1)

# (strands, word length) of each random-word slot; a closure with one
# component needs a length of the parity of strands - 1.  The median and
# the tail job of a pass fall in the 6-strand and 4-strand groups, so
# each of those has one length: a boundary between two sizes there would
# make the percentile jump from pass to pass.
WORDS_15 = [(3, 6 + 2 * (i % 3)) for i in range(12)] + [(4, 9)] * 8 + \
    [(5, 10), (5, 12)]
WORDS_4 = [(6, 11)] * 4 + [(7, 12 + 2 * (i % 2)) for i in range(4)] + \
    [(8, 15), (8, 17), (9, 16)]
# shares of positive, negative and virtual crossings in every word; each
# word has exactly these counts (rounded), so its cost does not depend on
# the seed
CROSSING_MIX = {"s": 0.4, "s^-1": 0.4, "v": 0.2}

COHOMOLOGY_Q = (3, 4, 5, 5)

EXHAUSTIVE_Q = range(2, 6)    # every (s, t, u1, u2)
SAMPLED_Q = range(6, 13)      # seeded draws per q, passing and failing
SAMPLED_PASS = 2
SAMPLED_FAIL = 4
OMEGA_TOWERS = ((2, 1, 1), (3, 1, 1), (2, 2, 2), (3, 2, 1))


def _random_knot_word(rng: random.Random, k: int, length: int) -> str:
    """A word whose closure has one component, so every strand is used."""
    virtual = round(CROSSING_MIX["v"] * length)
    negative = round(CROSSING_MIX["s^-1"] * length)
    kinds = ["v"] * virtual + ["s^-1"] * negative + \
        ["s"] * (length - virtual - negative)
    while True:
        rng.shuffle(kinds)
        letters = [(kind, rng.randrange(1, k)) for kind in kinds]
        perm = list(range(k))
        for _, i in letters:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        seen, j = 1, perm[0]
        while j != 0:
            seen += 1
            j = perm[j]
        if seen == k:
            return " ".join(f"v{i}" if kind == "v" else
                            f"s{i}^-1" if kind == "s^-1" else f"s{i}"
                            for kind, i in letters)


def braid_jobs(seed: int) -> list[dict]:
    """Job list shared by braids_affine and braids_table."""
    rng = random.Random(f"braids/{seed}")
    jobs = [{"id": f"reproduce/{what}", "kind": what, "fixed": True}
            for what in ("table1", "torus", "z3")]
    for n in range(1, 9):
        jobs.append({"id": f"twisted/{n}", "kind": "twisted", "n": n,
                     "fixed": True})
    jobs.append({"id": "borromean", "kind": "borromean", "fixed": True})
    for i, (k, length) in enumerate(WORDS_15):
        jobs.append({"id": f"z15/{i}", "kind": "word", "set": "z15",
                     "strands": k, "word": _random_knot_word(rng, k, length),
                     "fixed": False})
    for i, (k, length) in enumerate(WORDS_4):
        jobs.append({"id": f"z4/{i}", "kind": "word", "set": "z4",
                     "strands": k, "word": _random_knot_word(rng, k, length),
                     "fixed": False})
    return jobs


def valid_affine(q: int) -> list[tuple[int, int]]:
    units = [v for v in range(1, q) if gcd(v, q) == 1]
    return [(s, t) for s in units for t in units if (1 - s) * (1 - t) % q == 0]


def _arity1_cocycles(params, m):
    """Every arity-1 cocycle mod m, by exhaustion (criterion 10's cochains)."""
    r1, r2 = affine_tables(*params)
    q = params[0]
    out = []
    for code in range(m ** q):
        f = [(code // m ** i) % m for i in range(q)]
        if all(v % m == 0 for v in integer_coboundary(r1, r2, f, 1)):
            out.append(f)
    return out


def cohomology_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"cohomology/{seed}")
    jobs = [{"id": "cli/cohomology-block", "kind": "cli_cohomology",
             "argv": ["cohomology", "--block", "3,1,1", "--arity", "2",
                      "--modulus", "3", "--json"], "fixed": True}]
    # criterion 8: the coordinate difference y2 - x2 bounds nothing
    jobs.append({"id": "block/is-coboundary", "kind": "is_coboundary",
                 "set": {"block": BLOCK}, "arity": 2, "modulus": 3,
                 "values": [(y % 3 - x % 3) % 3 for x in range(9)
                            for y in range(9)], "bounds": False,
                 "fixed": True})
    jobs.append({"id": "block/type-one", "kind": "cocycle_space",
                 "set": {"block": BLOCK}, "arity": 2, "modulus": 3,
                 "type_one": True, "fixed": True})
    for name, params, m in (("z3", Z3, 3), ("z4", Z4, 4)):
        s = {"affine": params}
        jobs.append({"id": f"{name}/h2", "kind": "cohomology", "set": s,
                     "arity": 2, "modulus": m, "fixed": True})
        jobs.append({"id": f"{name}/type-one", "kind": "cocycle_space",
                     "set": s, "arity": 2, "modulus": m, "type_one": True,
                     "fixed": True})
        jobs.append({"id": f"{name}/reference-cocycle", "kind": "is_cocycle",
                     "set": s, "cochain": name, "fixed": True})
        for j, f in enumerate(_arity1_cocycles(params, m)):
            jobs.append({"id": f"{name}/obstruction/{j}",
                         "kind": "obstruction", "set": s, "arity": 1,
                         "modulus": m, "values": f, "fixed": True})
    z15 = {"affine": Z15}
    jobs.append({"id": "z15/is-cocycle", "kind": "is_cocycle", "set": z15,
                 "cochain": "pull3", "fixed": True})
    jobs.append({"id": "z15/obstruction", "kind": "obstruction", "set": z15,
                 "cochain": "pull3", "fixed": True})
    for i, q in enumerate(COHOMOLOGY_Q):
        s, t = rng.choice([p for p in valid_affine(q) if p != (1, 1)])
        u = rng.choice([v for v in range(1, q) if gcd(v, q) == 1])
        params = (q, s, t, u)
        sset = {"affine": params}
        jobs.append({"id": f"affine{i}/h2", "kind": "cohomology", "set": sset,
                     "arity": 2, "modulus": q, "fixed": False})
        jobs.append({"id": f"affine{i}/cocycles", "kind": "cocycle_space",
                     "set": sset, "arity": 1, "modulus": q,
                     "type_one": False, "fixed": False})
        jobs.append({"id": f"affine{i}/type-one", "kind": "cocycle_space",
                     "set": sset, "arity": 2, "modulus": q, "type_one": True,
                     "fixed": False})
        r1, r2 = affine_tables(*params)
        g = [rng.randrange(q) for _ in range(q)]
        f = [v % q for v in integer_coboundary(r1, r2, g, 1)]
        jobs.append({"id": f"affine{i}/is-coboundary", "kind": "is_coboundary",
                     "set": sset, "arity": 2, "modulus": q, "values": f,
                     "bounds": True, "fixed": False})
    return jobs


def extension_predicate(q, s, t, u1, u2) -> bool:
    """Criterion 9: the extension by u1(y-x), u2(y-x) satisfies YBE."""
    return (u2 * (1 - s)) % q == 0 and (u1 * (1 - t)) % q == 0


def extension_jobs(seed: int) -> list[dict]:
    rng = random.Random(f"extension/{seed}")

    def job(q, s, t, u1, u2, fixed):
        return {"id": f"extend/{q}/{s}/{t}/{u1}/{u2}", "kind": "extend",
                "q": q, "s": s, "t": t, "u1": u1, "u2": u2, "fixed": fixed}

    jobs = []
    for q in EXHAUSTIVE_Q:
        for s, t in valid_affine(q):
            for u1 in range(q):
                for u2 in range(q):
                    jobs.append(job(q, s, t, u1, u2, True))
    for q in SAMPLED_Q:
        cases = [(s, t, u1, u2) for s, t in valid_affine(q)
                 for u1 in range(q) for u2 in range(q)]
        passing = [c for c in cases if extension_predicate(q, *c)]
        failing = [c for c in cases if not extension_predicate(q, *c)]
        for c in rng.sample(passing, SAMPLED_PASS) + \
                rng.sample(failing, SAMPLED_FAIL):
            jobs.append(job(q, *c, False))
    for h in OMEGA_TOWERS:
        jobs.append({"id": "omega/{}/{}/{}".format(*h), "kind": "omega",
                     "args": list(h), "fixed": True})
    return jobs


def jobs_for(workload: str, seed: int) -> list[dict]:
    if workload in ("braids_affine", "braids_table"):
        return braid_jobs(seed)
    if workload == "cohomology":
        return cohomology_jobs(seed)
    if workload == "extension_sweep":
        return extension_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_jobs(workload: str) -> list[dict]:
    """Small jobs run once before timing: every code path of the workload
    on a tiny input, which also fills the program's cube-face cache."""
    if workload in ("braids_affine", "braids_table"):
        return [{"id": "warm/z3", "kind": "z3", "fixed": True},
                {"id": "warm/word", "kind": "word", "set": "z4",
                 "strands": 3, "word": "s1 s2^-1 v1 s2", "fixed": True}]
    if workload == "cohomology":
        z3 = {"affine": Z3}
        return [{"id": "warm/cli", "kind": "cli_cohomology",
                 "argv": ["cohomology", "--affine", "3,1,2,2", "--arity", "2",
                          "--modulus", "3", "--json"], "fixed": True},
                {"id": "warm/type-one", "kind": "cocycle_space", "set": z3,
                 "arity": 2, "modulus": 3, "type_one": True, "fixed": True},
                {"id": "warm/is-coboundary", "kind": "is_coboundary",
                 "set": z3, "arity": 2, "modulus": 3, "values": [0] * 9,
                 "bounds": True, "fixed": True},
                {"id": "warm/obstruction", "kind": "obstruction", "set": z3,
                 "cochain": "z3", "fixed": True}]
    if workload == "extension_sweep":
        return [{"id": "warm/extend", "kind": "extend", "q": 3, "s": 1,
                 "t": 2, "u1": 0, "u2": 0, "fixed": True},
                {"id": "warm/omega", "kind": "omega", "args": [2, 1, 1],
                 "fixed": True}]
    raise ValueError(f"unknown workload {workload!r}")


def dimensions(workload: str, jobs: list[dict]) -> dict:
    """Traffic dimensions of a job list, for the run record."""
    if workload in ("braids_affine", "braids_table"):
        words = [j for j in jobs if j["kind"] == "word"]
        letters = [tok for j in words for tok in j["word"].split()]
        mix = {"s": sum(1 for t in letters if t[0] == "s" and "^" not in t),
               "s^-1": sum(1 for t in letters if t.endswith("^-1")),
               "v": sum(1 for t in letters if t[0] == "v")}
        return {"set_sizes": [15, 4, 3],
                "strands": [min(j["strands"] for j in words),
                            max(j["strands"] for j in words)],
                "word_length": [min(len(j["word"].split()) for j in words),
                                max(len(j["word"].split()) for j in words)],
                "crossing_mix": {k: round(v / len(letters), 3)
                                 for k, v in mix.items()},
                "arity": 2, "modulus": [3, 4],
                "route": "make_affine" if workload == "braids_affine"
                else "FiniteYBSet.from_json"}
    if workload == "cohomology":
        sizes = sorted({set_size(j["set"]) for j in jobs if "set" in j})
        return {"set_sizes": sizes, "arity": [1, 2, 3],
                "modulus": sorted({j.get("modulus", 3) for j in jobs}),
                "matrix_jobs": sum(j["kind"] in ("cohomology", "cocycle_space",
                                                 "is_coboundary",
                                                 "cli_cohomology")
                                   for j in jobs),
                "cube_only_jobs": sum(j["kind"] in ("is_cocycle", "obstruction")
                                      for j in jobs)}
    ext = [j for j in jobs if j["kind"] == "extend"]
    passing = sum(extension_predicate(j["q"], j["s"], j["t"], j["u1"], j["u2"])
                  for j in ext)
    return {"set_sizes": [min(j["q"] for j in ext) ** 2,
                          max(j["q"] for j in ext) ** 2],
            "modulus": [min(j["q"] for j in ext), max(j["q"] for j in ext)],
            "extensions": len(ext), "pass_fraction": round(passing / len(ext), 3),
            "omega_towers": len(OMEGA_TOWERS)}


def set_size(sset) -> int:
    """|X| of a cohomology job's solution."""
    if "block" in sset:
        return sset["block"][0] ** 2
    return sset["affine"][0]

