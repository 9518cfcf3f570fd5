import json
from pathlib import Path

import pytest

from edgeideal import cli, verify
from edgeideal.cli import main
from edgeideal.groebner import DegenerateInputError
from edgeideal.polyalg import DimensionError, FieldMismatchError
from edgeideal.verify import VerificationReport
from test_homcomplex import LARGE_PRIME


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pd_cycle6(capsys):
    code, out, _ = run(capsys, "pd", "--graph", "cycle:6")
    assert code == 0
    assert json.loads(out) == {"pd_formula": 4, "case": "n≡0", "pd_homology": 4}


def test_pd_union_has_no_formula(capsys):
    code, out, _ = run(capsys, "pd", "--graph", "union:cycle:4+line:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["pd_formula"] is None and doc["pd_homology"] == 4


def test_stci_cycle5(capsys):
    code, out, _ = run(capsys, "stci", "--graph", "cycle:5")
    assert code == 0
    assert json.loads(out) == {"stci": True, "height": 3, "ara": 3}


def test_stci_cycle6_false(capsys):
    code, out, _ = run(capsys, "stci", "--graph", "cycle:6")
    assert code == 0
    assert json.loads(out) == {"stci": False, "height": 3, "ara": 4}


def test_stci_cycle25_at_the_cover_limit(capsys):
    code, out, _ = run(capsys, "stci", "--graph", "cycle:25")
    assert code == 0
    assert json.loads(out) == {"stci": False, "height": 13, "ara": 17}


def test_stci_rejects_non_cycles(capsys):
    code, _, err = run(capsys, "stci", "--graph", "line:4")
    assert code == 2 and "cycle" in err


def test_stci_height_mismatch_raises(capsys, monkeypatch):
    monkeypatch.setattr(cli, "min_vertex_cover_size", lambda g: 2)
    code, out, err = run(capsys, "stci", "--graph", "cycle:5")
    assert code == 4 and out == ""
    assert "internal error: RuntimeError" in err and "cycle height is 3" in err


def test_pd_large_prime(capsys):
    code, out, _ = run(capsys, "pd", "--graph", "cycle:5", "--field", "1099511627791",
                       "--format", "text")
    assert code == 0
    assert "pd_homology: 3" in out.splitlines()


def test_sequence_json(capsys):
    code, out, _ = run(capsys, "sequence", "--graph", "cycle:6")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"] == "cycle:6" and doc["length"] == 4
    assert len(doc["polys"]) == 4
    assert doc["polys"][0]["terms"] == [{"c": 1, "e": [1, 1, 0, 0, 0, 0]}]


def test_betti_csv(capsys):
    code, out, _ = run(capsys, "betti", "--graph", "cycle:3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["i,d,dim", "1,2,3", "2,3,2"]


def test_betti_json(capsys):
    code, out, _ = run(capsys, "betti", "--graph", "line:2")
    assert code == 0
    assert json.loads(out)["entries"] == [{"i": 1, "d": 2, "dim": 1}]


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--graph", "dumbbell:3,1,3",
                       "--fields", "2,32003")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass" and doc["length"] == 5


def test_verify_with_a_40_bit_field(capsys):
    # one run per edge over Z/(2*p), p about 2^40, serves both fields: the
    # same edges as each field alone, and the S-pairs of both
    large = str(LARGE_PRIME)
    docs = {}
    for fields in ("2", large, f"2,{large}"):
        code, out, _ = run(capsys, "verify", "--graph", "bicyclic:3,4", "--fields", fields)
        assert code == 0
        docs[fields] = json.loads(out)
    joint = docs[f"2,{large}"]
    assert joint["verdict"] == "pass" and joint["fields"] == [2, LARGE_PRIME]
    assert docs["2"]["reverse"] == docs[large]["reverse"] == joint["reverse"]
    assert joint["stats"]["s_pairs"] == sum(docs[p]["stats"]["s_pairs"] for p in ("2", large))


def test_verify_fail_exit_one(capsys, monkeypatch):
    failing = VerificationReport(
        graph_spec="cycle:4", fields=(2,), forward=(True,), reverse=(),
        sequence_length=2, pd_formula=3, pd_homology=3, verdict="fail")
    monkeypatch.setattr("edgeideal.cli.certify", lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify", "--graph", "cycle:4")
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_verify_resource_exit_three(capsys):
    code, _, err = run(capsys, "verify", "--graph", "cycle:8",
                       "--spair-budget", "2")
    assert code == 3 and "resource" in err.lower()


def test_spair_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("EDGEIDEAL_SPAIR_BUDGET", "2")
    code, _, err = run(capsys, "verify", "--graph", "cycle:8")
    assert code == 3


@pytest.mark.parametrize("value", ["-1", "abc"])
def test_bad_spair_budget_option_exit_two(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--graph", "cycle:4", f"--spair-budget={value}"])
    assert exc.value.code == 2
    assert "--spair-budget" in capsys.readouterr().err


@pytest.mark.parametrize("value, argv", [
    ("-1", ["verify", "--graph", "cycle:4"]),
    ("abc", ["verify", "--graph", "cycle:4"]),
    ("abc", ["matrix", "--families", "line,bicyclic", "--max-vertices", "5"]),
    ("abc", ["verify", "--graph", "line:4"]),
])
def test_bad_spair_budget_env_exit_two(capsys, monkeypatch, value, argv):
    monkeypatch.setenv("EDGEIDEAL_SPAIR_BUDGET", value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "EDGEIDEAL_SPAIR_BUDGET" in err


def test_verify_line_is_homology_only(capsys):
    code, out, _ = run(capsys, "verify", "--graph", "line:5")
    assert code == 0
    doc = json.loads(out)
    assert doc["pd_homology"] == 3 and doc["length"] is None
    assert doc["forward"] == [] and doc["reverse"] == []


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("module, name, exc, argv", [
    (cli, "projective_dimension", ArithmeticError("negative homology dimension"),
     ["pd", "--graph", "cycle:5"]),
    (cli, "betti_table", FieldMismatchError("GF(2) vs GF(3)"), ["betti", "--graph", "cycle:5"]),
    (verify, "radical_membership", DegenerateInputError("empty generator list"),
     ["verify", "--graph", "cycle:5"]),
    (verify, "verify_forward", DimensionError("monomials of ambient dimension 5 vs 6"),
     ["verify", "--graph", "cycle:5"]),
    (cli, "sequence_for", ValueError("claimed_length must equal the number of polynomials"),
     ["sequence", "--graph", "cycle:5"]),
], ids=["arithmetic", "field-mismatch", "degenerate", "dimension", "value"])
def test_internal_error_exit_four(capsys, monkeypatch, module, name, exc, argv):
    # an exception from inside the program is a defect, not a usage error
    # (exit 2) and not a verification failure (exit 1)
    monkeypatch.setattr(module, name, _raising(exc))
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert f"internal error: {type(exc).__name__}: {exc}" in err
    assert "usage:" not in err


@pytest.mark.parametrize("argv", [
    ["pd", "--graph", "line:1"],                           # outside the formula's range
    ["sequence", "--graph", "line:3"],                     # family without a sequence
    ["verify", "--graph", "union:cycle:4+line:2"],         # no closed form to certify
    ["matrix", "--families", "cycle,tree", "--max-vertices", "4"],
])
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "usage:" in err


@pytest.mark.parametrize("argv", [
    ["matrix", "--max-vertices", "-1"],
    ["matrix", "--max-vertices", "x"],
    ["matrix", "--homology-limit", "-5"],
    ["pd", "--graph", "cycle:5", "--homology-limit", "-5"],
    ["verify", "--graph", "cycle:5", "--homology-limit", "-5"],
])
def test_negative_sizes_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_parse_error_exit_two(capsys):
    code, _, err = run(capsys, "pd", "--graph", "heptagon:7")
    assert code == 2 and "usage" in err


def test_bad_fields_exit_two(capsys):
    code, _, _ = run(capsys, "verify", "--graph", "cycle:4", "--fields", "2,x")
    assert code == 2


def test_composite_modulus_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--graph", "cycle:4", "--fields", "2,4")
    assert code == 2 and "prime" in err


@pytest.mark.parametrize("command", ["verify", "matrix"])
def test_fractional_field_exit_two(capsys, command):
    argv = ["--graph", "cycle:5"] if command == "verify" else ["--max-vertices", "5"]
    code, out, err = run(capsys, command, *argv, "--fields", "2,2.5")
    assert code == 2 and out == "" and "bad field list" in err


@pytest.mark.parametrize("command", ["pd", "betti"])
@pytest.mark.parametrize("value", ["4", "1", "x", "2.5"])
def test_bad_field_exit_two_before_any_work(capsys, monkeypatch, command, value):
    # cycle:30 is over the homology limit, so `pd` would otherwise never
    # reach the field
    monkeypatch.setattr(cli, "betti_table", None)
    monkeypatch.setattr(cli, "projective_dimension", None)
    with pytest.raises(SystemExit) as exc:
        main([command, "--graph", "cycle:30", "--field", value])
    assert exc.value.code == 2
    assert "--field" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "matrix"])
def test_repeated_field_exit_two(capsys, monkeypatch, command):
    monkeypatch.setattr(verify, "verify_reverse", None)  # calling it would raise TypeError
    argv = ["--graph", "cycle:5"] if command == "verify" else ["--max-vertices", "5"]
    code, out, err = run(capsys, command, *argv, "--fields", "2,2")
    assert code == 2 and out == "" and "repeated field" in err


def test_matrix_rows_and_determinism(capsys):
    code, out1, _ = run(capsys, "matrix", "--families", "cycle,line",
                        "--max-vertices", "5", "--fields", "2,3")
    assert code == 0
    rows = [json.loads(line) for line in out1.splitlines()]
    assert [r["graph"] for r in rows] == ["cycle:3", "cycle:4", "cycle:5",
                                          "line:2", "line:3", "line:4", "line:5"]
    assert all(r["verdict"] == "pass" for r in rows)
    assert all(set(r) == {"graph", "case", "pd_formula", "pd_homology",
                          "length", "verdict"} for r in rows)
    code, out2, _ = run(capsys, "matrix", "--families", "cycle,line",
                        "--max-vertices", "5", "--fields", "2,3")
    assert out1 == out2  # byte-identical, no timing fields


def test_matrix_includes_bicyclic_and_dumbbell(capsys):
    code, out, _ = run(capsys, "matrix", "--families", "bicyclic,dumbbell",
                       "--max-vertices", "7", "--fields", "2")
    assert code == 0
    graphs = [json.loads(line)["graph"] for line in out.splitlines()]
    assert "bicyclic:3,3" in graphs and "dumbbell:3,0,3" in graphs
    assert "dumbbell:3,1,3" in graphs


def test_matrix_homology_limit_spares_lines(capsys):
    code, out, _ = run(capsys, "matrix", "--families", "cycle,line",
                       "--max-vertices", "5", "--homology-limit", "3")
    assert code == 0
    pd = {r["graph"]: r["pd_homology"] for r in map(json.loads, out.splitlines())}
    assert pd == {"cycle:3": 2, "cycle:4": None, "cycle:5": None,
                  "line:2": 1, "line:3": 2, "line:4": 2, "line:5": 3}


def test_matrix10_matches_the_committed_golden(capsys):
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "golden_matrix10.jsonl"
    code, out, _ = run(capsys, "matrix", "--max-vertices", "10")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")
