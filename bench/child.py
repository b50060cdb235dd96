"""One workload in one fresh process: set up, run timed passes, check.

Started by run.py, which passes the clock reading taken just before the
process was spawned, so `setup_s` covers interpreter start, the import
of ybknots, input generation and warm-up.  With `--mode setup` the
process stops after warm-up.  With `--mode measure` it runs the job list
in a closed loop (one caller, the next job starts when the previous one
has returned) until `--seconds` have passed, then checks the first
pass's outputs against the oracles and prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import ybknots
from ybknots import cli, reference

import oracle
import workloads
from spans import LAYERS, Tracer
from speed import PROBE_REF_S, SpeedSampler, normalize_pass

MIN_PASSES = 3


class JobFailed(Exception):
    """A job's own check failed (for example a nonzero CLI exit code)."""


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise JobFailed(f"ybk {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def _coefficients(invariant) -> list[int]:
    return list(invariant.value.coefficients)


def _permuted(table, perm):
    """R transported along the relabelling x -> perm[x]."""
    n = len(perm)
    p = np.asarray(perm)
    r1 = np.empty((n, n), dtype=np.int64)
    r2 = np.empty((n, n), dtype=np.int64)
    r1[p[:, None], p[None, :]] = p[table.r1]
    r2[p[:, None], p[None, :]] = p[table.r2]
    return {"size": n, "R1": r1.tolist(), "R2": r2.tolist()}


def _permuted_cochain(psi, perm):
    p = np.asarray(perm)
    values = np.empty_like(psi.as_array())
    values[p[:, None], p[None, :]] = psi.as_array()
    return {"arity": 2, "set_size": len(perm), "modulus": psi.modulus,
            "values": values.reshape(-1).tolist()}


def pulled_back_z3():
    base = reference.z3_cocycle(1, 0, 0)
    return ybknots.CochainTable.from_function(
        2, 15, 3, lambda x, y: base(x % 3, y % 3))


class Braids:
    """braids_affine (route 'affine') and braids_table (route 'table')."""

    def __init__(self, route: str, seed: int):
        self.route = route
        self.rng = random.Random(f"relabel/{seed}")
        self.cocycles = {"z15": pulled_back_z3(), "z4": reference.z4_cocycle(),
                         "z3": reference.z3_cocycle(1, 0, 0)}
        self.params = {"z15": workloads.Z15, "z4": workloads.Z4,
                       "z3": workloads.Z3}

    def _table_route(self, name, params=None):
        """(solution JSON, cocycle JSON) under a fresh seeded relabelling."""
        base = ybknots.make_affine(*(params or self.params[name]))
        perm = list(range(base.size))
        self.rng.shuffle(perm)
        psi = self.cocycles.get(name)
        return (_permuted(base, perm),
                None if psi is None else _permuted_cochain(psi, perm))

    def build(self, spec):
        kind = spec["kind"]
        if kind == "word":
            return self._word(spec["set"], spec["word"], spec["strands"])
        if kind == "twisted":
            return self._word("z4", "s1 v1 " * spec["n"], None, count=False)
        if kind == "borromean":
            return self._word("z4", reference.BORROMEAN_WORD, None, count=False)
        if self.route == "affine":
            argv = ["reproduce", kind, "--json"]
            pick = (lambda row: row["counts"]) if kind == "table1" else \
                (lambda row: row["value"]["coefficients"])
            return lambda: [pick(row) for row in _cli(argv)["rows"]]
        if kind == "table1":
            q, s, t = reference.TABLE1_PARAMS
            tables = [self._table_route(None, (q, s, t, u))[0]
                      for u in reference.TABLE1_U_VALUES]
            words = [reference.KISHINO_WORDS[k] for k in reference.KNOT_NAMES]

            def table1():
                rows = []
                for data in tables:
                    X = ybknots.FiniteYBSet.from_json(data)
                    rows.append([ybknots.count_colorings(
                        X, ybknots.parse_braid(w)) for w in words])
                return rows
            return table1
        name, texts = ("z4", [f"s1^{n}" for n in range(1, 17)] + ["s1^-4"]) \
            if kind == "torus" else \
            ("z3", [(" ".join(["s1"] * n) + " v1").strip() for n in range(7)])
        data, cdata = self._table_route(name)

        def family():
            X = ybknots.FiniteYBSet.from_json(data)
            psi = ybknots.CochainTable.from_json(cdata)
            return [_coefficients(ybknots.state_sum(
                X, psi, ybknots.parse_braid(t))) for t in texts]
        return family

    def _word(self, name, text, strands, count=True):
        if self.route == "affine":
            params = self.params[name]
            psi = self.cocycles[name]

            def load():
                return ybknots.make_affine(*params), psi
        else:
            data, cdata = self._table_route(name)

            def load():
                return (ybknots.FiniteYBSet.from_json(data),
                        ybknots.CochainTable.from_json(cdata))

        def job():
            X, psi = load()
            word = ybknots.parse_braid(text, strands)
            value = _coefficients(ybknots.state_sum(X, psi, word))
            if not count:
                return value
            return {"count": ybknots.count_colorings(X, word), "value": value}
        return job

    def check(self, spec, answer):
        kind = spec["kind"]
        if kind == "table1":
            want = [list(reference.TABLE1_COUNTS[u])
                    for u in reference.TABLE1_U_VALUES]
        elif kind == "torus":
            want = [list(reference.torus_value(n).coefficients)
                    for n in range(1, 17)]
            want.append(list(reference.MIRROR_TORUS_4_VALUE.coefficients))
        elif kind == "z3":
            want = [list(reference.z3_family_value(n).coefficients)
                    for n in range(7)]
        elif kind == "twisted":
            want = list(reference.twisted_torus_value(spec["n"]).coefficients)
        elif kind == "borromean":
            want = list(reference.BORROMEAN_VALUE.coefficients)
        else:
            params = self.params[spec["set"]]
            psi = self.cocycles[spec["set"]]
            count, coeffs = oracle.state_sum_linear(
                params, psi.as_array().tolist(), psi.modulus,
                spec["strands"], spec["word"])
            want = {"count": count, "value": coeffs}
        return None if answer == want else f"expected {want}"


def _values(cochain) -> list[int]:
    return cochain.values.tolist()


class Cohomology:
    """cohomology: matrix jobs and cube-only jobs of ybhomology."""

    def __init__(self):
        self.cochains = {"pull3": pulled_back_z3(), "z4": reference.z4_cocycle(),
                         "z3": reference.z3_cocycle(1, 0, 0)}

    @staticmethod
    def _maker(sset):
        if "block" in sset:
            args = sset["block"]
            return lambda: ybknots.make_block(*args)
        args = sset["affine"]
        return lambda: ybknots.make_affine(*args)

    @staticmethod
    def _tables(sset):
        if "block" in sset:
            return oracle.block_tables(*sset["block"])
        return oracle.affine_tables(*sset["affine"])

    def build(self, spec):
        kind = spec["kind"]
        if kind == "cli_cohomology":
            return lambda: _cli(spec["argv"])
        make = self._maker(spec["set"])
        if kind == "cohomology":
            n, m = spec["arity"], spec["modulus"]

            def cohomology():
                X = make()
                H = ybknots.cohomology_group(X, n, m)
                return {"invariant_factors": list(H.invariant_factors),
                        "cocycle_order": H.cocycle_order,
                        "coboundary_order": H.coboundary_order,
                        "generators": [_values(g) for g in H.generators],
                        "generators_are_cocycles": all(
                            ybknots.is_cocycle(X, g) for g in H.generators),
                        "order_is_quotient": H.order * H.coboundary_order
                        == H.cocycle_order}
            return cohomology
        if kind == "cocycle_space":
            n, m, one = spec["arity"], spec["modulus"], spec["type_one"]
            return lambda: [_values(g) for g in ybknots.cocycle_space(
                make(), n, m, type_one=one)]
        if kind == "is_coboundary":
            f = self._cochain(spec)

            def is_coboundary():
                g = ybknots.is_coboundary(make(), f)
                return None if g is None else _values(g)
            return is_coboundary
        f = self._cochain(spec)
        if kind == "is_cocycle":
            return lambda: ybknots.is_cocycle(make(), f)
        if kind == "obstruction":
            return lambda: _values(ybknots.obstruction_cocycle(make(), f))
        raise ValueError(f"unknown job kind {kind!r}")

    def _cochain(self, spec):
        if "cochain" in spec:
            return self.cochains[spec["cochain"]]
        return ybknots.CochainTable(spec["arity"],
                                    workloads.set_size(spec["set"]),
                                    spec["modulus"], spec["values"])

    def check(self, spec, answer):
        kind = spec["kind"]
        if kind == "cli_cohomology":
            # criterion 8: H^2 of block(3,1,1) mod 3 is (Z_3)^13
            if answer["invariant_factors"] != [3] * 13:
                return "H^2 of block(3,1,1) mod 3 is not (Z_3)^13"
            if answer["order"] * answer["coboundary_order"] != \
                    answer["cocycle_order"]:
                return "order != cocycle_order / coboundary_order"
            r1, r2 = oracle.block_tables(*workloads.BLOCK)
            for g in answer["cocycle_generators"]:
                if not oracle.is_cocycle(r1, r2, g["values"], 2, 3):
                    return "a generator is not a cocycle"
            return None
        r1, r2 = self._tables(spec["set"])
        if kind == "cohomology":
            n, m = spec["arity"], spec["modulus"]
            orders = oracle.cohomology_orders(r1, r2, n, m)
            if (answer["cocycle_order"], answer["coboundary_order"]) != orders:
                return f"(cocycle, coboundary) orders should be {orders}"
            if not (answer["generators_are_cocycles"]
                    and answer["order_is_quotient"]):
                return "sanity check failed"
            for g in answer["generators"]:
                if not oracle.is_cocycle(r1, r2, g, n, m):
                    return "a generator is not a cocycle"
            return None
        if kind == "cocycle_space":
            n, m = spec["arity"], spec["modulus"]
            fixed = oracle.fixed_pairs(r1, r2)
            size = len(r1)
            for g in answer:
                if not oracle.is_cocycle(r1, r2, g, n, m):
                    return "a generator is not a cocycle"
                if spec["type_one"] and any(g[x * size + y] for x, y in fixed):
                    return "a generator does not vanish on fixed pairs"
            return None
        if kind == "is_coboundary":
            if not spec["bounds"]:
                return None if answer is None else "criterion 8 cochain bounds"
            if answer is None:
                return "a coboundary was not recognized"
            m = spec["modulus"]
            got = [v % m for v in oracle.integer_coboundary(r1, r2, answer, 1)]
            return None if got == spec["values"] else "delta g != f"
        if kind == "is_cocycle":
            return None if answer is True else "reference cocycle rejected"
        f = self._cochain(spec)
        want = oracle.obstruction(r1, r2, _values(f), f.arity, f.modulus)
        return None if answer == want else "obstruction differs from d2/d3"


class Extensions:
    """extension_sweep: criterion-9 extensions and the omega towers."""

    def build(self, spec):
        if spec["kind"] == "omega":
            args = spec["args"]
            return lambda: ybknots.omega_extension_check(*args)
        q, s, t, u1, u2 = (spec[k] for k in ("q", "s", "t", "u1", "u2"))

        def extend():
            X = ybknots.make_affine(q, s, t)
            psi1 = ybknots.CochainTable.from_function(
                2, q, q, lambda x, y: u1 * (y - x))
            psi2 = ybknots.CochainTable.from_function(
                2, q, q, lambda x, y: u2 * (y - x))
            V = ybknots.extend(X, q, psi1, psi2)
            if V.verify_ybe():
                return None
            return list(V.ybe_failure())
        return extend

    def check(self, spec, answer):
        if spec["kind"] == "omega":
            return None if answer is True else "omega tower check failed"
        want = workloads.extension_predicate(
            *(spec[k] for k in ("q", "s", "t", "u1", "u2")))
        return None if (answer is None) == want else \
            f"verify_ybe should be {want}"


def make_runner(workload: str, seed: int):
    if workload == "braids_affine":
        return Braids("affine", seed)
    if workload == "braids_table":
        return Braids("table", seed)
    if workload == "cohomology":
        return Cohomology()
    if workload == "extension_sweep":
        return Extensions()
    raise ValueError(f"unknown workload {workload!r}")


def digest(answer) -> str:
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(jobs, sampler, tracer=None):
    """One pass over the job list, a probe before each job: (CPU seconds,
    answers, errors, (start, end) of the pass, (start, end) of each job)."""
    answers, errors, intervals = [], [], []
    clock = time.perf_counter
    wall0, cpu0 = clock(), time.process_time()
    for index, (spec, job) in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        sampler.sample()
        start = clock()
        try:
            answer = job()
            error = None
        except Exception as exc:  # a raising job is a failed job
            answer, error = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        intervals.append((start, end))
        answers.append(answer)
        errors.append(error)
    sampler.sample()
    return (time.process_time() - cpu0, answers, errors, (wall0, clock()),
            intervals)


def layer_metrics(tracer: Tracer, sampler: SpeedSampler, span) -> dict:
    """Per-layer metrics of one traced pass.  `harness.self_s` is the pass
    time outside every span, less the probes that ran there."""
    by_layer, by_name = tracer.self_times()
    top = tracer.top_level()
    probes = sampler.window(*span)[0] - sum(sampler.window(*t)[0] for t in top)
    harness = span[1] - span[0] - sum(end - start for start, end in top) - \
        probes
    c = tracer.counts
    out = {f"{layer}.self_s": by_layer.get(layer, 0.0) for layer in LAYERS}
    out.update({
        "cli.self_s": by_layer.get("cli", 0.0),
        "reference.self_s": by_layer.get("reference", 0.0),
        "harness.self_s": harness,
        "ybcore.ybe_failure.self_s": by_name.get("ybcore.ybe_failure", 0.0),
        "ybcore.ybe_failure.calls": c["ybe_failure.calls"],
        "ybcore.triples_checked": c["triples_checked"],
        "ybcore.ybe_pass_frac": c["ybe.passed"] / c["ybe.evaluated"]
        if c["ybe.evaluated"] else 0.0,
        "ybcore.extend.self_s": by_name.get("ybcore.extend", 0.0),
        "ybcore.omega.self_s": by_name.get("ybcore.make_omega", 0.0)
        + by_name.get("ybcore.omega_extension_check", 0.0),
        "ybhomology.coboundary_matrix.self_s":
            by_name.get("ybhomology.coboundary_matrix", 0.0),
        "ybhomology.coboundary.self_s":
            by_name.get("ybhomology.coboundary", 0.0)
            + by_name.get("ybhomology.is_cocycle", 0.0),
        "ybhomology.obstruction_cocycle.self_s":
            by_name.get("ybhomology.obstruction_cocycle", 0.0),
        "ybhomology.cubes_colored": c["cubes_colored"],
        "ybhomology.matrix_entries": c["matrix_entries"],
        "modalg.kernel_mod.self_s": by_name.get("modalg.kernel_mod", 0.0),
        "modalg.quotient_invariant_factors.self_s":
            by_name.get("modalg.quotient_invariant_factors", 0.0),
        "modalg.solve_mod.self_s": by_name.get("modalg.solve_mod", 0.0),
        "modalg.kernel_rows": c["kernel_rows"],
        "modalg.kernel_generators": c["kernel_generators"],
        "vknots.count_colorings.self_s":
            by_name.get("vknots.count_colorings", 0.0),
        "vknots.state_sum.self_s": by_name.get("vknots.state_sum", 0.0),
        "vknots.tuples_enumerated": c["tuples_enumerated"],
        "vknots.colorings_found": c["colorings_found"],
        "vknots.hit_ratio": c["colorings_found"] / c["tuples_enumerated"]
        if c["tuples_enumerated"] else 0.0,
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading before the spawn")
    args = parser.parse_args(argv)

    with SpeedSampler(0.005) as sampler:
        specs = workloads.jobs_for(args.workload, args.seed)
        runner = make_runner(args.workload, args.seed)
        jobs = [(spec, runner.build(spec)) for spec in specs]
        for spec in workloads.warmup_jobs(args.workload):
            runner.build(spec)()
        now = time.perf_counter()
        setup_raw = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    spent, mean = sampler.window(sampler.starts[0], now)
    record = {"setup_s": (setup_raw - spent) * PROBE_REF_S / mean,
              "raw_setup_s": setup_raw}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    tracer = Tracer(ybknots) if args.trace else None
    passes = []
    first = None
    failed = attempted = 0
    failures: list = []
    began = time.perf_counter()
    with SpeedSampler(0.02) as sampler:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                cpu, answers, errors, span, intervals = run_pass(
                    jobs, sampler, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            entry = normalize_pass(sampler, cpu, span, intervals)
            entry["traced"] = traced
            if traced:
                entry["layers"] = layer_metrics(tracer, sampler, span)
            passes.append(entry)
            digests = [None if e else digest(a)
                       for a, e in zip(answers, errors)]
            if first is None:
                first = (answers, digests)
            for (spec, _), d, e, d0 in zip(jobs, digests, errors, first[1]):
                attempted += 1
                if e is not None or d != d0:
                    failed += 1
                    failures.append(f"{spec['id']}: {e or 'output changed'}")
            elapsed = time.perf_counter() - began
            typical = statistics.median(p["raw_wall_s"] for p in passes)
            need = MIN_PASSES + (1 if tracer is not None else 0)
            if len(passes) >= need and elapsed + typical > args.seconds:
                break

    # the first pass's outputs against the oracles; later passes were
    # required above to reproduce them exactly
    for (spec, _), answer, d in zip(jobs, first[0], first[1]):
        if d is None:
            continue
        try:
            problem = runner.check(spec, answer)
        except Exception:
            problem = "oracle raised: " + traceback.format_exc(limit=2)
        if problem:
            failed += 1
            failures.append(f"{spec['id']}: {problem}")

    record.update({
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "jobs": [spec["id"] for spec, _ in jobs],
        "digests": first[1],
        "answers": first[0] if args.workload.startswith("braids") else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__,
                     "ybknots": ybknots.__version__},
        "dimensions": workloads.dimensions(args.workload, specs),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
