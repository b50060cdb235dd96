"""Command-line surface.

Subcommands build a Yang-Baxter set from flags or a file, then verify
axioms, enumerate colorings, evaluate state sums, compute boundaries,
cocycle spaces, cohomology, obstructions, and extensions.  The
`reproduce` subcommands recompute the bundled reference tables and exit
non-zero when any value drifts, making the tool self-auditing.

Exit codes: 0 success, 1 mathematical verification failure, 2 usage or
format error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from . import reference, vknots, ybcore, ybhomology
from .errors import NotACocycle, NotBiquandle, YBKError


def _parse_ints(text: str, counts, flag: str) -> list[int]:
    parts = [p.strip() for p in text.split(",")]
    if counts is not None and len(parts) not in counts:
        wanted = " or ".join(str(c) for c in counts)
        raise ValueError(f"{flag} needs {wanted} comma-separated integers")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"{flag}: {text!r} is not a comma-separated "
                         "integer list") from None


def _add_set_source(parser: argparse.ArgumentParser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--affine", metavar="Q,S,T[,U]",
                       help="affine solution on Z_Q")
    group.add_argument("--block", metavar="Q,S,T",
                       help="two-block solution on pairs over Z_Q")
    group.add_argument("--omega", metavar="Q,H,K",
                       help="truncated-ring solution")
    group.add_argument("--table", metavar="FILE",
                       help="YB-set JSON file")


def _load_set(args) -> ybcore.FiniteYBSet:
    if args.affine:
        return ybcore.make_affine(*_parse_ints(args.affine, (3, 4), "--affine"))
    if args.block:
        return ybcore.make_block(*_parse_ints(args.block, (3,), "--block"))
    if args.omega:
        return ybcore.make_omega(*_parse_ints(args.omega, (3,), "--omega"))
    with open(args.table) as handle:
        return ybcore.FiniteYBSet.from_json(json.load(handle),
                                            label=args.table)


def _load_cochain(path: str) -> ybcore.CochainTable:
    with open(path) as handle:
        return ybcore.CochainTable.from_json(json.load(handle))


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _cmd_verify(args) -> int:
    X = _load_set(args)
    ybe = X.verify_ybe()
    report = X.verify_birack()
    try:
        X.biquandle_witness()
        # a biquandle is an invertible solution with the fixed-pair witness
        biquandle = report.invertible
    except NotBiquandle:
        biquandle = False
    if args.json:
        out = {"label": X.label, "size": X.size, "ybe": ybe,
               "invertible": report.invertible,
               "left_invertible": report.left_invertible,
               "right_invertible": report.right_invertible,
               "biquandle": biquandle}
        if not ybe:
            out["first_failure"] = list(X.ybe_failure())
        print(json.dumps(out))
    else:
        print(f"set: {X.label} (size {X.size})")
        if ybe:
            print("yang-baxter: pass")
        else:
            print(f"yang-baxter: FAIL at {X.ybe_failure()}")
        print(f"invertible: {_yn(report.invertible)}")
        print(f"left-invertible: {_yn(report.left_invertible)}")
        print(f"right-invertible: {_yn(report.right_invertible)}")
        print(f"biquandle: {_yn(biquandle)}")
    return 0 if ybe else 1


def _cmd_witness(args) -> int:
    X = _load_set(args)
    try:
        witness = X.biquandle_witness()
    except NotBiquandle as exc:
        print(f"not a biquandle: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"x_of": list(witness.x_of),
                          "y_of": list(witness.y_of)}))
    else:
        print("x_of:", " ".join(str(v) for v in witness.x_of))
        print("y_of:", " ".join(str(v) for v in witness.y_of))
    return 0


def _cmd_color(args) -> int:
    X = _load_set(args)
    word = vknots.parse_braid(args.word, args.strands)
    if args.json:
        found = vknots.colorings(X, word)
        print(json.dumps({"colorings": found.count,
                          "tuples": [list(t) for t in found.tuples]}))
    else:
        print(vknots.count_colorings(X, word))
    return 0


def _cmd_invariant(args) -> int:
    X = _load_set(args)
    psi = _load_cochain(args.cocycle)
    word = vknots.parse_braid(args.word, args.strands)
    value = vknots.state_sum(X, psi, word)
    print(json.dumps(value.to_json()) if args.json else value.render())
    return 0


def _cmd_boundary(args) -> int:
    X = _load_set(args)
    chain = ybhomology.boundary(X, _parse_ints(args.tuple, None, "--tuple"))
    print(json.dumps(chain.to_json()) if args.json else chain.render())
    return 0


def _cmd_cocycles(args) -> int:
    X = _load_set(args)
    generators = ybhomology.cocycle_space(X, args.arity, args.modulus,
                                          type_one=args.type_one)
    if args.json:
        print(json.dumps({"count": len(generators),
                          "generators": [g.to_json() for g in generators]}))
    else:
        kind = "type-one cocycle" if args.type_one else "cocycle"
        print(f"{len(generators)} {kind} generator(s), arity {args.arity}, "
              f"mod {args.modulus}")
        for g in generators:
            print(" ".join(str(int(v)) for v in g.values))
    return 0


def _cmd_cohomology(args) -> int:
    cap, source = args.max_cells, "--max-cells"
    if cap is None and "YBK_MAX_CELLS" in os.environ:
        text, source = os.environ["YBK_MAX_CELLS"], "YBK_MAX_CELLS"
        try:
            cap = int(text)
        except ValueError:
            raise ValueError(f"YBK_MAX_CELLS must be an integer cell cap, "
                             f"got {text!r}") from None
    if cap is not None and cap < 1:
        raise ValueError(f"{source} must be at least 1, got {cap}")
    X = _load_set(args)
    report = ybhomology.cohomology_group(X, args.arity, args.modulus,
                                         max_cells=cap)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        if report.invariant_factors:
            shape = " x ".join(f"Z{f}" for f in report.invariant_factors)
        else:
            shape = "trivial"
        print(f"H^{args.arity} mod {args.modulus}: {shape} "
              f"(order {report.order})")
        print(f"cocycles: order {report.cocycle_order}; "
              f"coboundaries: order {report.coboundary_order}")
    return 0


def _cmd_obstruct(args) -> int:
    X = _load_set(args)
    cocycle = _load_cochain(args.cocycle)
    try:
        psi = ybhomology.obstruction_cocycle(X, cocycle)
    except NotACocycle as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(psi.to_json()))
    else:
        print(" ".join(str(int(v)) for v in psi.values))
    return 0


def _cmd_extend(args) -> int:
    X = _load_set(args)
    psi1 = _load_cochain(args.psi1)
    psi2 = _load_cochain(args.psi2) if args.psi2 else None
    extension = ybcore.extend(X, args.modulus, psi1, psi2)
    ok = extension.verify_ybe()
    if args.json:
        out = extension.to_json()
        out["ybe"] = ok
        print(json.dumps(out))
    else:
        print(f"extension of size {extension.size}; "
              f"yang-baxter: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def _report(args, rows, lines, noun: str, **header) -> int:
    """Print the reference rows as JSON, or as `lines` and a status line;
    exit status 1 when any row is off."""
    failures = sum(not row["ok"] for row in rows)
    if args.json:
        print(json.dumps({**header, "rows": rows, "ok": failures == 0}))
    else:
        for line in lines:
            print(line)
        print("status:", "ok" if failures == 0 else f"{failures} {noun} off")
    return 1 if failures else 0


def _mismatch(row, expected) -> str:
    return "" if row["ok"] else f"   MISMATCH expected {expected}"


def _reproduce_table1(args) -> int:
    q, s, t = reference.TABLE1_PARAMS
    words = [vknots.parse_braid(reference.KISHINO_WORDS[name])
             for name in reference.KNOT_NAMES]
    rows = []
    for u in reference.TABLE1_U_VALUES:
        X = ybcore.make_affine(q, s, t, u)
        counts = tuple(vknots.count_colorings(X, word) for word in words)
        expected = reference.TABLE1_COUNTS[u]
        rows.append({"u": u, "counts": list(counts),
                     "expected": list(expected), "ok": counts == expected})
    lines = ["coloring counts, affine q=15 s=4 t=11",
             "u    " + "".join(f"{name:>6}" for name in reference.KNOT_NAMES)]
    lines += [f"{row['u']:<5}" + "".join(f"{c:>6}" for c in row["counts"])
              + _mismatch(row, tuple(row["expected"])) for row in rows]
    return _report(args, rows, lines, "row(s)", q=q, s=s, t=t)


def _reproduce_values(args, X, psi, cases, width: int) -> int:
    """State sums of the (word, expected value) cases against X and psi."""
    rows = []
    for word, expected in cases:
        value = vknots.state_sum(X, psi, vknots.parse_braid(word))
        rows.append({"word": word, "value": value.value.to_json(),
                     "rendered": value.render(),
                     "expected": expected.render(),
                     "ok": value.value == expected})
    lines = [f"{row['word']:<{width}} {row['rendered']}"
             + _mismatch(row, row["expected"]) for row in rows]
    return _report(args, rows, lines, "value(s)")


def _cmd_reproduce(args) -> int:
    if args.what == "table1":
        return _reproduce_table1(args)
    if args.what == "torus":
        top = 16 if args.max_n is None else args.max_n
        cases = [(f"s1^{n}", reference.torus_value(n))
                 for n in range(1, top + 1)]
        cases.append(("s1^-4", reference.MIRROR_TORUS_4_VALUE))
        return _reproduce_values(args, reference.z4_biquandle(),
                                 reference.z4_cocycle(), cases, 8)
    top = 6 if args.max_n is None else args.max_n
    cases = [((" ".join(["s1"] * n) + " v1").strip(),
              reference.z3_family_value(n)) for n in range(0, top + 1)]
    return _reproduce_values(args, reference.z3_biquandle(),
                             reference.z3_cocycle(1, 0, 0), cases, 24)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybk",
        description="Finite Yang-Baxter sets, their cubical cohomology, "
                    "and cocycle invariants of virtual closed braids.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, set_source=True):
        p = sub.add_parser(name, help=help_text)
        if set_source:
            _add_set_source(p)
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
        p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="accepted for compatibility; computations are "
                            "vectorized and output does not depend on it")
        p.set_defaults(func=func)
        return p

    add("verify", _cmd_verify,
        "check the Yang-Baxter equation, invertibility, and the "
        "biquandle condition")
    add("witness", _cmd_witness,
        "print the fixed-pair witness maps of a biquandle")

    p = add("color", _cmd_color, "count closed-braid colorings")
    p.add_argument("--word", required=True, help="braid word")
    p.add_argument("--strands", type=int, help="strand count override")

    p = add("invariant", _cmd_invariant, "cocycle state-sum invariant")
    p.add_argument("--word", required=True, help="braid word")
    p.add_argument("--strands", type=int, help="strand count override")
    p.add_argument("--cocycle", required=True, metavar="FILE",
                   help="2-cochain JSON file")

    p = add("boundary", _cmd_boundary, "boundary chain of a colored cube")
    p.add_argument("--tuple", required=True, metavar="X1,...,XN",
                   help="initial-path colors")

    p = add("cocycles", _cmd_cocycles, "generators of the cocycle space")
    p.add_argument("--arity", required=True, type=int)
    p.add_argument("--modulus", required=True, type=int)
    p.add_argument("--type-one", action="store_true",
                   help="restrict to cocycles vanishing on fixed pairs")

    p = add("cohomology", _cmd_cohomology, "cohomology group invariants")
    p.add_argument("--arity", required=True, type=int)
    p.add_argument("--modulus", required=True, type=int)
    p.add_argument("--max-cells", type=int, default=None,
                   help="cube-coloring cap (default 200000; "
                        "YBK_MAX_CELLS also honored)")

    p = add("obstruct", _cmd_obstruct,
            "obstruction cocycle of a mod-p cocycle")
    p.add_argument("--cocycle", required=True, metavar="FILE")

    p = add("extend", _cmd_extend, "twisted product on Z_m x X")
    p.add_argument("--modulus", required=True, type=int)
    p.add_argument("--psi1", required=True, metavar="FILE")
    p.add_argument("--psi2", metavar="FILE",
                   help="defaults to the psi1 table")

    p = add("reproduce", _cmd_reproduce,
            "recompute bundled reference values and compare",
            set_source=False)
    p.add_argument("what", choices=("table1", "torus", "z3"))
    p.add_argument("--max-n", type=int, default=None,
                   help="largest n for the torus/z3 families")

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: parsing leaves it
    as it was, and YBK_MAX_CELLS is read when a command runs."""
    return build_parser()


def _silence_stdout():
    """Point stdout's file descriptor at the null device, so that the
    interpreter's flush at exit finds no closed pipe.  A stdout with no
    descriptor (an in-process caller's StringIO) is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`ybk ... | head -n 1`): it has
        # read all it wanted, which is not an error
        _silence_stdout()
        return 0
    except YBKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # an elimination whose entry growth no cap bounds can still run
        # out of memory: the input is refused, with no traceback
        print(f"error: out of memory in ybk {args.command}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
