"""Command-line interface: subcommands, formats, exit codes."""

import json

import pytest

from ybknots import CochainTable, FiniteYBSet, cli
from ybknots.reference import z4_cocycle


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def z4_cocycle_file(tmp_path):
    path = tmp_path / "z4_cocycle.json"
    path.write_text(json.dumps(z4_cocycle().to_json()))
    return str(path)


def test_verify_affine(capsys):
    rc, out, _ = run(capsys, "verify", "--affine", "4,1,-1,-1")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "set: affine(q=4,s=1,t=3,u=3) (size 4)"
    assert "yang-baxter: pass" in lines
    assert "invertible: yes" in lines
    assert "biquandle: yes" in lines


def test_verify_json(capsys):
    rc, out, _ = run(capsys, "verify", "--affine", "4,1,-1,-1", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["ybe"] is True
    assert data["size"] == 4
    assert data["invertible"] is True
    assert data["biquandle"] is True


def test_verify_rejects_non_unit(capsys):
    rc, _, err = run(capsys, "verify", "--affine", "4,2,1,1")
    assert rc == 2
    assert "error: 2 is not a unit modulo 4" in err


def test_verify_rejects_oversized_omega(capsys):
    rc, _, err = run(capsys, "verify", "--omega", "2,40,40")
    assert rc == 2
    assert err.startswith("error: make_omega: n^2 = ")


def test_verify_reports_equation_failure(capsys, tmp_path):
    bad = FiniteYBSet([[(x + y) % 3 for y in range(3)] for x in range(3)],
                      [[x for _ in range(3)] for x in range(3)])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    rc, out, _ = run(capsys, "verify", "--table", str(path))
    assert rc == 1
    assert "yang-baxter: FAIL at (1, 0, 0)" in out


def test_verify_non_invertible_is_not_biquandle(capsys, tmp_path):
    table = [[y for y in range(3)] for _ in range(3)]
    deg = FiniteYBSet(table, table)
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(deg.to_json()))
    rc, out, _ = run(capsys, "verify", "--table", str(path))
    assert rc == 0  # the equation itself holds
    assert "invertible: no" in out
    assert "biquandle: no" in out


def test_witness(capsys):
    rc, out, _ = run(capsys, "witness", "--affine", "4,1,-1,-1")
    assert rc == 0
    assert "x_of: 0 3 2 1" in out
    assert "y_of: 0 3 2 1" in out


def test_witness_failure(capsys, tmp_path):
    X = FiniteYBSet([[x for _ in range(3)] for x in range(3)],
                    [[y for y in range(3)] for _ in range(3)])
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(X.to_json()))
    rc, _, err = run(capsys, "witness", "--table", str(path))
    assert rc == 1
    assert "not a biquandle" in err


def test_color_text_prints_bare_count(capsys):
    rc, out, _ = run(capsys, "color", "--affine", "15,4,11,2",
                     "--word", "s1 v1 s1^-1 s2 s1 v1 s1^-1 s2^-1")
    assert rc == 0
    assert out == "225\n"


def test_color_json(capsys):
    rc, out, _ = run(capsys, "color", "--affine", "4,1,-1,-1",
                     "--word", "s1 s1", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["colorings"] == 8
    assert data["tuples"] == [[0, 0], [0, 2], [1, 1], [1, 3],
                              [2, 0], [2, 2], [3, 1], [3, 3]]


def test_color_bad_word(capsys):
    rc, _, err = run(capsys, "color", "--affine", "4,1,-1,-1",
                     "--word", "x1")
    assert rc == 2
    assert "error:" in err


def test_invariant_text(capsys, z4_cocycle_file):
    rc, out, _ = run(capsys, "invariant", "--affine", "4,1,-1,-1",
                     "--word", "s1^4", "--cocycle", z4_cocycle_file)
    assert rc == 0
    assert out == "8 + 8*x^3\n"


def test_invariant_json(capsys, z4_cocycle_file):
    rc, out, _ = run(capsys, "invariant", "--affine", "4,1,-1,-1",
                     "--word", "s1^-4", "--cocycle", z4_cocycle_file,
                     "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["colorings"] == 16
    assert data["value"] == {"modulus": 4, "coefficients": [8, 8, 0, 0]}


def test_invariant_missing_cocycle_file(capsys, tmp_path):
    rc, _, err = run(capsys, "invariant", "--affine", "4,1,-1,-1",
                     "--word", "s1", "--cocycle", str(tmp_path / "no.json"))
    assert rc == 2
    assert "error:" in err


def test_boundary(capsys):
    rc, out, _ = run(capsys, "boundary", "--affine", "4,1,-1,-1",
                     "--tuple", "0,1")
    assert rc == 0
    assert out == "+1·(0) +1·(1) -1·(2) -1·(3)\n"
    rc, _, err = run(capsys, "boundary", "--affine", "4,1,-1,-1",
                     "--tuple", "0,4")
    assert rc == 2
    assert err == "error: tuple entry 4 outside 0..3\n"


@pytest.mark.parametrize("argv", [
    ("color", "--affine", "3,1,2,2", "--word", "s1", "--strands", "100000"),
    ("color", "--affine", "3,1,2,2", "--word", "s1^1000000000"),
    ("boundary", "--affine", "3,1,2,2", "--tuple", ",".join(["0"] * 40))],
    ids=["strands", "letters", "cube"])
def test_oversized_inputs_exit_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert "exceeds the cap" in err


def test_invariant_cochain_on_another_set_exits_2(capsys, tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(CochainTable.zero(2, 3, 4).to_json()))
    rc, _, err = run(capsys, "invariant", "--affine", "4,1,-1,-1",
                     "--word", "s1", "--cocycle", str(path))
    assert rc == 2
    assert "cochain set size 3 does not match" in err


def test_boundary_json(capsys):
    rc, out, _ = run(capsys, "boundary", "--affine", "4,1,-1,-1",
                     "--tuple", "1,2", "--json")
    assert rc == 0
    assert json.loads(out) == {"arity": 1, "terms": []}


def test_cocycles(capsys):
    rc, out, _ = run(capsys, "cocycles", "--affine", "3,1,2,2",
                     "--arity", "2", "--modulus", "3", "--type-one")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "3 type-one cocycle generator(s), arity 2, mod 3"
    assert len(lines) == 4


def test_cocycles_json(capsys):
    rc, out, _ = run(capsys, "cocycles", "--affine", "4,1,-1,-1",
                     "--arity", "1", "--modulus", "4", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["count"] == 3
    assert [g["values"] for g in data["generators"]] == [
        [2, 2, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0]]
    CochainTable.from_json(data["generators"][0])


def test_cohomology(capsys):
    rc, out, _ = run(capsys, "cohomology", "--block", "3,1,1",
                     "--arity", "2", "--modulus", "3")
    assert rc == 0
    assert "H^2 mod 3:" in out
    assert "(order 1594323)" in out


def test_cohomology_json(capsys):
    rc, out, _ = run(capsys, "cohomology", "--affine", "3,1,2,2",
                     "--arity", "2", "--modulus", "3", "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["invariant_factors"] == [3, 3, 3]
    assert data["order"] == 27


def test_cohomology_cell_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("YBK_MAX_CELLS", "5")
    rc, _, err = run(capsys, "cohomology", "--affine", "3,1,2,2",
                     "--arity", "2", "--modulus", "3")
    assert rc == 2
    assert "cap" in err


def test_obstruct_text(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(
        CochainTable.from_function(1, 4, 4, lambda x: x).to_json()))
    rc, out, _ = run(capsys, "obstruct", "--affine", "4,1,-1,-1",
                     "--cocycle", str(path))
    assert rc == 0
    assert out.strip() == "0 3 0 0 0 3 0 0 0 0 0 1 0 0 0 1"


def test_obstruct_json_feeds_invariant(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(
        CochainTable.from_function(1, 4, 4, lambda x: x).to_json()))
    rc, out, _ = run(capsys, "obstruct", "--affine", "4,1,-1,-1",
                     "--cocycle", str(path), "--json")
    assert rc == 0
    psi_path = tmp_path / "psi.json"
    psi_path.write_text(out)
    rc, out, _ = run(capsys, "invariant", "--affine", "4,1,-1,-1",
                     "--word", "s1^2", "--cocycle", str(psi_path))
    assert rc == 0
    assert out == "8\n"  # obstruction weights close to a positive integer


def test_obstruct_rejects_non_cocycle(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(
        CochainTable.from_function(
            1, 4, 4, lambda x: 1 if x == 0 else 0).to_json()))
    rc, _, err = run(capsys, "obstruct", "--affine", "4,1,-1,-1",
                     "--cocycle", str(path))
    assert rc == 1
    assert "cocycle" in err


def test_extend_pass(capsys, tmp_path):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(CochainTable.zero(2, 3, 3).to_json()))
    rc, out, _ = run(capsys, "extend", "--affine", "3,1,2,2",
                     "--modulus", "3", "--psi1", str(path))
    assert rc == 0
    assert out == "extension of size 9; yang-baxter: pass\n"


def test_extend_fail(capsys, tmp_path):
    # over the untwisted base, u1 = 1 violates u1(1-t) = 0 mod 4
    path1 = tmp_path / "psi1.json"
    path1.write_text(json.dumps(CochainTable.from_function(
        2, 4, 4, lambda x, y: y - x).to_json()))
    path2 = tmp_path / "psi2.json"
    path2.write_text(json.dumps(CochainTable.zero(2, 4, 4).to_json()))
    rc, out, _ = run(capsys, "extend", "--affine", "4,1,3",
                     "--modulus", "4", "--psi1", str(path1),
                     "--psi2", str(path2))
    assert rc == 1
    assert "yang-baxter: FAIL" in out


def test_extend_json(capsys, tmp_path):
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(CochainTable.zero(2, 3, 3).to_json()))
    rc, out, _ = run(capsys, "extend", "--affine", "3,1,2,2",
                     "--modulus", "3", "--psi1", str(path), "--json")
    assert rc == 0
    data = json.loads(out)
    assert data["size"] == 9
    assert data["ybe"] is True
    FiniteYBSet.from_json({k: data[k] for k in ("size", "R1", "R2")})


def test_extend_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "extend", "--affine", "3,1,2,2",
                     "--modulus", "3", "--psi1", str(tmp_path / "no.json"))
    assert rc == 2
    assert "error:" in err


def test_table_round_trip(capsys, tmp_path):
    from ybknots import make_block
    X = make_block(2, 1, 1)
    path = tmp_path / "set.json"
    path.write_text(json.dumps(X.to_json()))
    rc, out, _ = run(capsys, "verify", "--table", str(path))
    assert rc == 0
    assert "yang-baxter: pass" in out


@pytest.mark.parametrize("target", ["table1", "torus", "z3"])
def test_reproduce_self_audits(capsys, target):
    rc, out, _ = run(capsys, "reproduce", target)
    assert rc == 0
    assert out.strip().endswith("status: ok")


@pytest.mark.parametrize("target", ["table1", "torus", "z3"])
def test_reproduce_json(capsys, target):
    rc, out, _ = run(capsys, "reproduce", target, "--json")
    assert rc == 0
    data = json.loads(out)
    rows = data["rows"]
    assert rows and all(row["ok"] for row in rows)


def test_reproduce_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit):
        cli.main(["reproduce", "bogus"])
    capsys.readouterr()


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2
    capsys.readouterr()


def test_threads_flag_accepted(capsys):
    rc, out, _ = run(capsys, "color", "--affine", "4,1,-1,-1",
                     "--word", "s1 s1", "--threads", "4")
    assert rc == 0
    assert out == "8\n"
