"""Benchmark of ybknots: four workloads over the exact pipeline.

One run of one workload:

    python3 bench/run.py --workload cohomology --seed 3 --seconds 25 --trace 0

spawns the workload in fresh processes (see child.py): six that only set
up, then one that sets up and measures for `--seconds`.  It prints a run
record, then as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
It exits 1 when any job raised or differed from its oracle or from the
frozen outputs, and 2 when the program cannot be found.

Every workload, untraced and traced, with the per-layer table and the
job-for-job comparison of the two braid workloads:

    python3 bench/run.py --all [--seed N] [--seconds S]

Comparing two sets of results written with `--out FILE`:

    python3 bench/run.py --compare PARENT_FILES... --against CHANGE_FILES...

Rewriting the frozen outputs from the current program (only when the
outputs are meant to change):

    python3 bench/run.py --freeze
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FROZEN = os.path.join(HERE, "data", "frozen.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (pure Python, no numpy)

SETUP_ONLY = 6          # extra processes that only set up, for setup_s
CHILD_TIMEOUT = 150     # seconds; the run as a whole must end within 180
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run: no program, or a child process died."""


def _child(workload, seed, mode, seconds=0.0, trace=0) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in THREAD_ENV:
        env[name] = "1"
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds), "--trace", str(trace),
           "--spawned-at", repr(spawned)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} process timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"{workload} {mode} process exited "
                         f"{done.returncode}:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _tail(latencies):
    """(value, percentile, job count): the latency with exactly ten jobs
    beyond it, or the maximum when a pass has ten jobs or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = max(n - 11, 0) if n > 10 else n - 1
    return ordered[i], 100.0 * (i + 1) / n, n


def _frozen_problems(workload, seed, ids, digests) -> list[str]:
    with open(FROZEN) as handle:
        frozen = json.load(handle)
    fixed = {spec["id"] for spec in workloads.jobs_for(workload, seed)
             if spec["fixed"]}
    problems = []
    for job_id, d in zip(ids, digests):
        if job_id in fixed:
            want = frozen["fixed"][workload].get(job_id)
        elif seed == frozen["seed"]:
            want = frozen["seeded"][workload].get(job_id)
        else:
            continue
        if d is not None and d != want:
            problems.append(f"{job_id}: output differs from the frozen "
                            f"output {want}")
    return problems


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    """Run one workload; the result holds the contract's JSON fields plus
    the run record."""
    if not os.path.isfile(os.path.join(SRC, "ybknots", "__init__.py")):
        raise BenchError(f"no program at {SRC}/ybknots: run from a checkout")
    setups = [] if trace else [_child(workload, seed, "setup")
                               for _ in range(SETUP_ONLY)]
    out = _child(workload, seed, "measure", seconds, trace)
    setups.append(out)
    problems = list(out["failures"])
    frozen = _frozen_problems(workload, seed, out["jobs"], out["digests"])
    problems += frozen
    failed = out["failed"] + len(frozen)
    plain = [p for p in out["passes"] if not p["traced"]]
    traced = [p for p in out["passes"] if p["traced"]]
    tails = [_tail(p["latencies_ms"]) for p in plain]
    wall = statistics.median(p["wall_s"] for p in plain)
    if trace:
        names = traced[0]["layers"].keys()
        metrics = {name: statistics.median(p["layers"][name] for p in traced)
                   for name in names}
        metrics["trace.overhead_frac"] = statistics.median(
            p["wall_s"] for p in traced) / wall - 1.0
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": wall,
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "job_p50_ms": statistics.median(
                statistics.median(p["latencies_ms"]) for p in plain),
            "job_tail_ms": statistics.median(t[0] for t in tails),
            "peak_rss_mb": out["peak_rss_mb"],
        }
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": failed == 0, "attempted": out["attempted"],
        "failed": failed, "metrics": metrics, "problems": problems[:20],
        "record": {
            "commit": _commit(), "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            **out["versions"], "threads": out["threads"],
            "passes": len(plain), "traced_passes": len(traced),
            "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups),
            "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
            "probe_mean_s": statistics.median(p["probe_mean_s"]
                                              for p in plain),
            "job_tail": {"percentile": round(tails[0][1], 2),
                         "jobs_per_pass": tails[0][2]},
            "dimensions": out["dimensions"],
        },
        "jobs": out["jobs"], "digests": out["digests"],
        "answers": out["answers"],
    }


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as handle:
            return handle.read().strip()
    return ref[5:]


def _units() -> dict:
    with open(SPEC) as handle:
        spec = json.load(handle)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def contract_line(result: dict) -> str:
    units = _units()
    metrics = {name: {"value": value, "unit": units[name]["unit"]}
               for name, value in result["metrics"].items() if name in units}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def cmd_run(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("# record " + json.dumps(result["record"]))
    for problem in result["problems"]:
        print("# FAILED " + problem)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({k: result[k] for k in (
                "workload", "seed", "trace", "correct", "attempted", "failed",
                "metrics", "record")}) + "\n")
    print(contract_line(result))
    return 0 if result["correct"] else 1


END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("job_p50_ms", "ms"), ("job_tail_ms", "ms"),
              ("peak_rss_mb", "MB"), ("failed_frac", "fraction"))


def cmd_all(args) -> int:
    ok = True
    results = {}
    for name in workloads.WORKLOADS:
        plain = run_workload(name, args.seed, args.seconds, 0)
        traced = run_workload(name, args.seed, args.seconds, 1)
        results[name] = plain
        ok &= plain["correct"] and traced["correct"]
        m = dict(plain["metrics"])
        m["failed_frac"] = plain["failed"] / plain["attempted"]
        tail = plain["record"]["job_tail"]
        print(f"== {name} (seed {args.seed}, {plain['record']['passes']} "
              f"passes, {plain['attempted']} jobs attempted)")
        for metric, unit in END_TO_END:
            note = ""
            if metric == "job_tail_ms":
                note = (f"   p{tail['percentile']} of "
                        f"{tail['jobs_per_pass']} jobs per pass")
            print(f"  {metric:<14} {m[metric]:>12.4f} {unit}{note}")
        layers = traced["metrics"]
        selfs = {k[:-len(".self_s")]: v for k, v in layers.items()
                 if k.endswith(".self_s") and k.count(".") == 1}
        total = sum(selfs.values())
        print("  self time share: " + ", ".join(
            f"{k} {v / total:.0%}" for k, v in
            sorted(selfs.items(), key=lambda kv: -kv[1])))
        for metric, value in layers.items():
            print(f"    {metric:<42} {value:.6g}")
        for problem in plain["problems"] + traced["problems"]:
            print("  FAILED " + problem)
    a, b = results["braids_affine"], results["braids_table"]
    same = a["jobs"] == b["jobs"] and a["answers"] == b["answers"]
    differ = [j for j, x, y in zip(a["jobs"], a["answers"], b["answers"])
              if x != y]
    print(f"== braids_table answers equal braids_affine answers job for job: "
          f"{'yes' if same else 'NO: ' + ', '.join(differ[:10])}")
    return 0 if ok and same else 1


def cmd_freeze(args) -> int:
    frozen = {"seed": workloads.DEFAULT_SEED, "fixed": {}, "seeded": {}}
    for name in workloads.WORKLOADS:
        specs = workloads.jobs_for(name, workloads.DEFAULT_SEED)
        out = _child(name, workloads.DEFAULT_SEED, "measure", 0.0, 0)
        if out["failed"]:
            print("\n".join(out["failures"]), file=sys.stderr)
            return 1
        frozen["fixed"][name] = {s["id"]: d for s, d in
                                 zip(specs, out["digests"]) if s["fixed"]}
        frozen["seeded"][name] = {s["id"]: d for s, d in
                                  zip(specs, out["digests"]) if not s["fixed"]}
    with open(FROZEN, "w") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def _load_results(paths) -> dict:
    out: dict = {}
    for path in paths:
        with open(path) as handle:
            for line in handle:
                if line.strip():
                    rec = json.loads(line)
                    if not rec["trace"]:
                        out[(rec["workload"], rec["seed"])] = rec["metrics"]
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    """One row per workload and end-to-end metric.  A gain needs nine
    tenths of the paired runs (same seed) won and a median difference
    beyond the parent's quartile spread; a regression is a median worse
    by more than the bound; a metric whose spread exceeds its bound is
    unresolved unless every change run beats every parent run."""
    rows = []
    workloads_seen = sorted({w for w, _ in parent} & {w for w, _ in change})
    for workload in workloads_seen:
        seeds = sorted(s for w, s in parent if w == workload
                       and (w, s) in change)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            p = [parent[(workload, s)][name] for s in seeds]
            c = [change[(workload, s)][name] for s in seeds]
            if not p:
                continue
            pq, cq = _quartiles(p), _quartiles(c)
            wins = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
            spread = max((pq[2] - pq[0]) / pq[1], (cq[2] - cq[0]) / cq[1])
            worse = sign * (cq[1] - pq[1]) / pq[1]
            beats_all = all(sign * (b - a) < 0 for a in p for b in c)
            if spread > bound and not beats_all:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regression"
            elif wins >= 0.9 * len(seeds) and \
                    abs(cq[1] - pq[1]) > pq[2] - pq[0] and worse < 0:
                verdict = "gain"
            else:
                verdict = "within bound"
            rows.append({"workload": workload, "metric": name,
                         "parent": pq, "change": cq, "pairs": len(seeds),
                         "win_frac": wins / len(seeds), "change_frac": worse,
                         "bound": bound, "verdict": verdict})
    return rows


def cmd_compare(args) -> int:
    with open(SPEC) as handle:
        spec = json.load(handle)
    rows = compare(_load_results(args.compare), _load_results(args.against),
                   spec)
    print(f"{'workload':<16} {'metric':<12} {'parent q1/med/q3':<30} "
          f"{'change q1/med/q3':<30} {'pairs':>5} {'wins':>5} "
          f"{'worse':>7} {'bound':>5}  verdict")
    for r in rows:
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{r['workload']:<16} {r['metric']:<12} "
              f"{fmt.format(*r['parent']):<30} {fmt.format(*r['change']):<30} "
              f"{r['pairs']:>5} {r['win_frac']:>5.0%} "
              f"{r['change_frac']:>+7.1%} {r['bound']:>5.0%}  {r['verdict']}")
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="append this run's metrics and record as a "
                             "JSON line, for --compare")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--freeze", action="store_true")
    parser.add_argument("--compare", nargs="+", metavar="FILE")
    parser.add_argument("--against", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            if not args.against:
                parser.error("--compare needs --against")
            return cmd_compare(args)
        if args.freeze:
            return cmd_freeze(args)
        if args.all:
            return cmd_all(args)
        if not args.workload:
            parser.error("give --workload, --all, --freeze or --compare")
        return cmd_run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
