"""Tests of the benchmark itself: its oracles against brute force, its
frozen outputs against independent computations, and its verdict rules.

    python3 -m pytest bench/tests -q

The oracle tests are pure Python and import neither numpy nor ybknots.
The last test runs the benchmark on a copy of the checkout whose frozen
outputs were altered, and needs numpy.
"""

import hashlib
import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(BENCH, "data", "frozen.json")) as _handle:
    FROZEN = json.load(_handle)

# the mod-3 family cocycle (1, 0, 0) of reference.z3_cocycle, restated
Z3_COCYCLE = [[0, 2, 1], [1, 0, 0], [2, 0, 0]]
Z4_COCYCLE = [[0, 1, 2, 0], [3, 1, 1, 0], [0, 3, 0, 0], [3, 0, 3, 1]]
PULL3 = [[Z3_COCYCLE[x % 3][y % 3] for y in range(15)] for x in range(15)]
COCYCLES = {"z15": (workloads.Z15, PULL3, 3), "z4": (workloads.Z4, Z4_COCYCLE, 4)}


def _digest(answer):
    text = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _small_braid_jobs(seed):
    """The seeded braid jobs small enough for brute force."""
    return [j for j in workloads.braid_jobs(seed) if j["kind"] == "word"
            and (j["set"], j["strands"]) in (("z15", 3), ("z4", 6))]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_oracle_matches_brute_force(seed):
    jobs = _small_braid_jobs(seed)[::3]
    assert jobs
    for job in jobs:
        params, psi, m = COCYCLES[job["set"]]
        r1, r2 = oracle.affine_tables(*params)
        brute = oracle.state_sum_brute(r1, r2, psi, m, job["strands"],
                                       job["word"])
        kernel = oracle.state_sum_linear(params, psi, m, job["strands"],
                                         job["word"])
        assert kernel == brute, job["id"]


def test_frozen_braid_outputs_match_brute_force():
    for job in _small_braid_jobs(FROZEN["seed"]):
        params, psi, m = COCYCLES[job["set"]]
        r1, r2 = oracle.affine_tables(*params)
        count, coeffs = oracle.state_sum_brute(r1, r2, psi, m, job["strands"],
                                               job["word"])
        want = _digest({"count": count, "value": coeffs})
        for workload in ("braids_affine", "braids_table"):
            assert FROZEN["seeded"][workload][job["id"]] == want, job["id"]


def test_frozen_cube_outputs_match_closed_form_d2():
    """The obstructions of the arity-1 cocycles (criterion 10's cochains)
    equal the carries read off the closed-form boundary of the 2-cube."""
    jobs = workloads.cohomology_jobs(FROZEN["seed"])
    checked = 0
    for job in jobs:
        if job["kind"] == "obstruction" and job.get("arity") == 1:
            r1, r2 = oracle.affine_tables(*job["set"]["affine"])
            m = job["modulus"]
            want = []
            for x, y in itertools.product(range(len(r1)), repeat=2):
                total = sum(c * job["values"][t[0]]
                            for c, t in oracle.d2_terms(r1, r2, x, y))
                want.append((total % (m * m)) // m)
            assert FROZEN["fixed"]["cohomology"][job["id"]] == _digest(want)
            checked += 1
    assert checked >= 10


def _brute_kernel_order(rows, cols, m):
    return sum(1 for x in itertools.product(range(m), repeat=cols)
               if all(sum(a * b for a, b in zip(row, x)) % m == 0
                      for row in rows))


@pytest.mark.parametrize("m", [2, 4, 6, 8, 9, 12])
def test_kernel_order_matches_brute_force(m):
    rng = random.Random(m)
    for _ in range(20):
        rows = [[rng.randrange(-3, 4) for _ in range(4)]
                for _ in range(rng.randrange(1, 5))]
        assert oracle.kernel_order_mod(rows, 4, m) == \
            _brute_kernel_order(rows, 4, m)


def test_kernel_elements_are_the_kernel():
    rng = random.Random(5)
    for q in (4, 6, 15):
        for _ in range(10):
            a = [[rng.randrange(q) for _ in range(3)] for _ in range(3)]
            got = sorted(oracle.kernel_elements(a, q))
            want = sorted(x for x in itertools.product(range(q), repeat=3)
                          if all(sum(r * v for r, v in zip(row, x)) % q == 0
                                 for row in a))
            assert got == want


def test_job_lists_depend_on_seed_only_in_seeded_jobs():
    for name in workloads.WORKLOADS:
        a, b = workloads.jobs_for(name, 1), workloads.jobs_for(name, 2)
        assert len(a) == len(b)
        assert [j for j in a if j["fixed"]] == [j for j in b if j["fixed"]]
        assert workloads.jobs_for(name, 1) == a
        assert any(x != y for x, y in zip(a, b))


def _rows(values):
    return {("w", seed): {"wall_s": v} for seed, v in enumerate(values)}


SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.1}]}


@pytest.mark.parametrize("parent, change, verdict", [
    ([1.0, 1.01, 0.99, 1.0, 1.02], [0.5, 0.51, 0.49, 0.5, 0.52], "gain"),
    ([1.0, 1.01, 0.99, 1.0, 1.02], [1.5, 1.51, 1.49, 1.5, 1.52], "regression"),
    ([1.0, 1.01, 0.99, 1.0, 1.02], [1.01, 1.0, 1.0, 1.02, 0.99],
     "within bound"),
    ([1.0, 2.0, 0.5, 1.5, 1.0], [1.0, 1.9, 0.6, 1.4, 1.1], "unresolved"),
])
def test_compare_verdicts(parent, change, verdict):
    (row,) = run.compare(_rows(parent), _rows(change), SPEC)
    assert row["verdict"] == verdict


def test_wrong_expected_value_fails_the_run(tmp_path):
    """A frozen output that disagrees with the program makes the command
    print `"correct": false` and exit nonzero."""
    pytest.importorskip("numpy")
    root = os.path.dirname(BENCH)
    copy = tmp_path / "checkout"
    shutil.copytree(os.path.join(root, "src"), copy / "src")
    shutil.copytree(BENCH, copy / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), copy)
    frozen = json.loads((copy / "bench" / "data" / "frozen.json").read_text())
    frozen["fixed"]["extension_sweep"]["omega/2/1/1"] = "0" * 16
    (copy / "bench" / "data" / "frozen.json").write_text(json.dumps(frozen))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "extension_sweep",
         "--seed", "3", "--seconds", "0.1"],
        cwd=copy, capture_output=True, text=True, timeout=170)
    assert done.returncode == 1, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1


def test_tracer_times_calls_across_modules_and_restores_them():
    pytest.importorskip("numpy")
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    import ybknots
    from spans import Tracer

    original = ybknots.ybhomology.kernel_mod
    tracer = Tracer(ybknots)
    tracer.install()
    try:
        X = ybknots.make_affine(3, 1, 2, 2)
        ybknots.cohomology_group(X, 2, 3)
        X.verify_ybe()
    finally:
        tracer.uninstall()
    assert ybknots.ybhomology.kernel_mod is original
    names = {span[0] for span in tracer.spans}
    assert {"modalg.kernel_mod", "ybhomology.coboundary_matrix",
            "ybhomology.cohomology_group", "ybcore.ybe_failure"} <= names
    assert tracer.counts["triples_checked"] == 27
    assert tracer.counts["matrix_entries"] == 27 * 9 + 9 * 3
    by_layer, _ = tracer.self_times()
    assert by_layer["modalg"] > 0 and by_layer["ybhomology"] > 0
