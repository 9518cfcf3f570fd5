import gc
import json
from pathlib import Path

import pytest

from edgeideal import groebner, homcomplex, verify
from edgeideal.errors import ResourceLimitError, UsageError
from edgeideal.graphs import build, build_from_string, enumerate_specs, parse_spec, ring_of
from edgeideal.groebner import GroebnerStats, Rabinowitsch
from edgeideal.sequences import GeneratorSequence, cycle_sequence
from edgeideal.verify import (
    _verdict,
    certify,
    verify_forward,
    verify_reverse,
)
from mutations import drop_generator, drop_term


def fake_sequence(graph_spec, monomial_lists, modulus=32003):
    """Hand-rolled sequence whose polynomials are sums of the given label pairs."""
    spec = parse_spec(graph_spec)
    g = build_from_string(graph_spec)
    R = ring_of(g, modulus)
    polys = tuple(
        R.poly({R.monomial(u, v): 1 for u, v in pairs}) for pairs in monomial_lists
    )
    return GeneratorSequence(g, spec, "handmade", polys, len(polys))


# -- forward inclusion -----------------------------------------------------------

def test_forward_cycle5_all_true():
    assert verify_forward(cycle_sequence(5)) == [True, True, True]


def test_forward_rejects_chord():
    seq = fake_sequence("cycle:4", [[("x1", "x3")]])
    assert verify_forward(seq) == [False]


def test_forward_triangle_binomial():
    seq = fake_sequence("cycle:3", [[("x1", "x2"), ("x1", "x3")]])
    assert verify_forward(seq) == [True]


# -- reverse inclusion ------------------------------------------------------------

def test_reverse_cycle6_gf2_all_true():
    seq = cycle_sequence(6, modulus=2)
    assert verify_reverse(seq, modulus=2) == [True] * 6


def test_reverse_detects_missing_generator():
    seq = drop_generator(cycle_sequence(5), 2)
    bits = verify_reverse(seq, modulus=2)
    edges = seq.graph.edges
    assert bits[edges.index(("x3", "x4"))] is False


def test_reverse_bicyclic33_gf3_all_true():
    from edgeideal.sequences import bicyclic_vertex_sequence
    s = bicyclic_vertex_sequence(3, 3, modulus=3)
    assert verify_reverse(s, modulus=3) == [True] * 6


def test_reverse_propagates_budget_with_edge_context():
    seq = cycle_sequence(8, modulus=2)
    with pytest.raises(ResourceLimitError) as err:
        verify_reverse(seq, modulus=2, spair_budget=2)
    assert err.value.detail["modulus"] == 2
    assert "edge" in err.value.detail


def test_budget_error_keeps_how_far_the_run_got():
    with pytest.raises(ResourceLimitError) as err:
        certify("bicyclic:8,10", spair_budget=50)
    detail = err.value.detail
    assert detail["edge"] == ("x1", "x2") and detail["modulus"] == 2
    assert (detail["spairs"], detail["basis"], detail["queued"]) == (51, 24, 225)


# -- verdict logic ------------------------------------------------------------------

def test_verdict_requires_every_bit_and_every_field():
    assert _verdict([True], [True], 3, 3, 3, True) == "pass"
    assert _verdict([True, False], [True], 3, 3, 3, True) == "fail"
    assert _verdict([True], [False], 3, 3, 3, True) == "fail"
    assert _verdict([True], [True], 2, 3, 3, True) == "fail"     # short sequence
    assert _verdict([True], [True], 3, 3, 4, True) == "fail"     # homology disagrees
    assert _verdict([True], [True], 3, 3, None, True) == "pass"  # formula-only
    assert _verdict([True], [True], 3, 3, None, False) == "fail" # field mismatch
    assert _verdict([], [], None, 3, 3, True) == "pass"          # line: homology only
    assert _verdict([], [], None, 3, 2, True) == "fail"
    assert _verdict([], [], None, 3, None, False) == "fail"


# -- certify ----------------------------------------------------------------------------

def test_certify_cycle5():
    report = certify("cycle:5", (2, 32003))
    assert report.passed
    assert report.sequence_length == 3 == report.pd_formula == report.pd_homology
    assert report.stats["homology"] == "computed"


def test_certify_dumbbell_bridge():
    report = certify("dumbbell:3,0,3", (2, 3))
    assert report.passed and report.sequence_length == 4


def test_certify_rejects_sequence_free_families():
    with pytest.raises(ValueError):
        certify("union:cycle:3+line:2", (2,))


def test_certify_line_is_homology_only():
    report = certify("line:5", (2, 3), homology_max_vertices=0)
    assert report.passed
    assert report.forward == () and report.reverse == ()
    assert report.sequence_length is None
    assert report.pd_homology == 3 == report.pd_formula
    assert report.stats["case"] == "n≡2" and report.stats["homology"] == "computed"


def test_certify_line_fails_when_homology_disagrees(monkeypatch):
    monkeypatch.setattr(verify, "projective_dimension", lambda g, p, setup: 2)
    assert certify("line:5", (2,)).verdict == "fail"


def test_certify_checks_fields_before_any_work(monkeypatch):
    monkeypatch.setattr(verify, "verify_reverse", None)  # calling it would raise TypeError
    with pytest.raises(ValueError, match="field"):
        certify("cycle:4", ())
    with pytest.raises(ValueError, match="prime"):
        certify("cycle:4", (2, 4))
    with pytest.raises(ValueError, match="repeated field"):
        certify("cycle:5", (2, 2))
    for budget in (-1, True, 2.5):
        with pytest.raises(UsageError, match="S-pair budget"):
            certify("cycle:5", spair_budget=budget)
    for limit in (None, "16", 2.5, True):
        with pytest.raises(UsageError, match="homology limit"):
            certify("cycle:5", homology_max_vertices=limit)


@pytest.mark.parametrize("spec", ["cycle:7", "bicyclic:3,4"])
def test_certify_keeps_the_call_contract_the_tracer_reads(spec, monkeypatch):
    # perfbench/tracing.py patches these names and reads their arguments:
    # verify_reverse gets an int modulus, radical_membership gets the edge
    # polynomial first, once per edge and field, and each of its runs is
    # one groebner.buchberger call on a list whose first element has the
    # field; projective_dimension and betti_table get the graph and an int
    # field, once per field in the order of the moduli
    calls = {"verify_reverse": [], "radical_membership": [], "buchberger": [],
             "projective_dimension": [], "betti_table": []}

    def recorded(module, name, result_of):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[name].append(result_of(args, out))
            return out
        monkeypatch.setattr(module, name, wrapper)

    recorded(verify, "verify_reverse", lambda args, out: args[2])
    recorded(verify, "radical_membership", lambda args, out: args[0])
    recorded(groebner, "buchberger",
             lambda args, out: (args[0][0].ring.modulus, out.spairs_processed))
    recorded(verify, "projective_dimension", lambda args, out: args[1])
    recorded(homcomplex, "betti_table", lambda args, out: args[1])
    report = certify(spec, (2, 32003))
    assert report.passed
    graph = build_from_string(spec)
    assert calls["verify_reverse"] == [2, 32003]
    assert all(type(p) is int for p in calls["verify_reverse"])
    per_edge = [(p, ((ring_of(graph, p).monomial(u, v), 1),))
                for p in (2, 32003) for u, v in graph.edges]
    assert [(f.ring.modulus, f.terms) for f in calls["radical_membership"]] == per_edge
    assert [p for p, _ in calls["buchberger"]] == [p for p, _ in per_edge]
    assert len(calls["buchberger"]) == report.stats["groebner_runs"]
    assert sum(n for _, n in calls["buchberger"]) == report.stats["s_pairs"]
    assert calls["projective_dimension"] == calls["betti_table"] == [2, 32003]
    assert all(type(p) is int for p in calls["projective_dimension"] + calls["betti_table"])


def test_certify_over_three_fields_matches_the_one_field_tables():
    fields = (2, 3, 32003)
    for spec in enumerate_specs(("cycle", "line", "bicyclic", "dumbbell"), 10):
        graph = build(spec)
        report = certify(spec, fields)
        assert report.stats["pd_homology_by_field"] == {
            str(p): homcomplex.betti_table(graph, p).max_index for p in fields}, str(spec)


class _Index:
    """An integer type that is not int: only __index__ says what it is."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_certify_refuses_non_integer_fields_and_reports_ints(monkeypatch):
    monkeypatch.setattr(verify, "verify_reverse", None)  # calling it would raise TypeError
    for fields in ((2.5,), ("3",), (2, 3.0), (True,)):
        with pytest.raises(UsageError, match="prime"):
            certify("cycle:5", fields)
    monkeypatch.undo()
    report = certify("cycle:5", (_Index(3),))
    assert report.fields == (3,) and type(report.fields[0]) is int
    assert report.passed and report.to_json_dict()["stats"]["pd_homology_by_field"] == {"3": 3}


GOLDEN_CERTIFY = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "golden_certify.jsonl"


@pytest.mark.parametrize("spec", ["bicyclic:8,10", "bicyclic:9,11", "dumbbell:8,1,8", "cycle:40"])
def test_groebner_stage_matches_the_benchmark_golden(spec):
    # the benchmark's Groebner-bound instances: S-pair counts, run counts and
    # reverse bits are pinned to the reports captured by the benchmark
    golden = [doc for doc in map(json.loads, GOLDEN_CERTIFY.read_text(encoding="utf-8").splitlines())
              if doc["graph"] == spec]
    doc = certify(spec, homology_max_vertices=0).to_json_dict()
    doc["stats"].pop("wall_time_s")
    assert golden == [doc]
    assert doc["stats"]["homology"] == "formula-only"


def test_certify_formula_only_when_oversized():
    report = certify("cycle:7", (2,), homology_max_vertices=5)
    assert report.pd_homology is None
    assert report.stats["homology"] == "formula-only"
    assert report.passed  # inclusions and length still certified


def test_certify_deterministic_modulo_timing():
    a = certify("cycle:6", (2, 32003)).to_json_dict()
    b = certify("cycle:6", (2, 32003)).to_json_dict()
    a["stats"].pop("wall_time_s")
    b["stats"].pop("wall_time_s")
    assert a == b


def test_report_json_schema():
    doc = certify("cycle:4", (2,)).to_json_dict()
    assert set(doc) == {"graph", "fields", "forward", "reverse", "length",
                        "pd_formula", "pd_homology", "verdict", "stats"}
    assert doc["verdict"] in ("pass", "fail")
    assert all(set(rc) == {"edge", "ok"} for rc in doc["reverse"])


# -- mutation spot checks (the full property sweep lives in the acceptance suite) --------

def test_dropping_a_generator_breaks_the_certificate():
    seq = cycle_sequence(4, modulus=2)
    mutated = drop_generator(seq, 1)
    assert False in verify_reverse(mutated, modulus=2)


def test_dropping_a_term_breaks_the_certificate():
    seq = cycle_sequence(5, modulus=2)
    mutated = drop_term(seq, 2, 0)
    assert False in verify_reverse(mutated, modulus=2)


def test_certify_over_three_fields_agrees_with_each_field():
    # one run per edge over Z/(2*3*32003) against a certification per field:
    # the same edges and verdict, and the S-pairs of all three
    for spec in enumerate_specs(("cycle", "bicyclic", "dumbbell", "line"), 10):
        joint = certify(spec, (2, 3, 32003))
        alone = [certify(spec, (p,)) for p in (2, 3, 32003)]
        assert all(r.reverse == joint.reverse and r.verdict == joint.verdict for r in alone)
        assert joint.stats["s_pairs"] == sum(r.stats["s_pairs"] for r in alone)
        assert joint.stats["groebner_runs"] == sum(r.stats["groebner_runs"] for r in alone)


def test_one_set_up_serves_the_fields_in_any_order_and_again():
    # one set-up sent through verify_reverse in reversed moduli order, and
    # then again: every call's answers and S-pair counts are those of a
    # one-field set-up, and each edge ran once over Z/N for all of them
    moduli = (2, 3, 32003)
    for seq in (cycle_sequence(5), drop_term(cycle_sequence(5), 2, 0)):
        setup = Rabinowitsch(seq.polys, moduli)
        for _ in range(2):
            for p in reversed(moduli):
                shared, alone = GroebnerStats(), GroebnerStats()
                got = verify_reverse(seq, modulus=p, stats=shared, setup=setup)
                assert got == verify_reverse(seq, modulus=p, stats=alone)
                assert shared == alone
        assert len(setup.runs) == 5 and None not in setup.runs.values()
    assert False in got


@pytest.mark.parametrize("spec", ["cycle:6", "bicyclic:4,5", "dumbbell:3,1,4", "line:6"])
def test_certify_leaves_no_reference_cycles(spec):
    # everything a certification builds (set-ups, shared runs, homology
    # memos) is freed by reference counting when it returns, not left for
    # the cyclic garbage collector
    gc.collect()
    gc.disable()
    try:
        assert certify(spec).passed
        assert gc.collect() == 0
    finally:
        gc.enable()
