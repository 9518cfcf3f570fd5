import json
from pathlib import Path

import pytest

from edgeideal.formulas import pd_for_spec
from edgeideal.graphs import edge_ideal, enumerate_specs, parse_spec
from edgeideal.polyalg import mono_divides
from edgeideal.sequences import (
    GeneratorSequence,
    SVPartition,
    bicyclic_vertex_sequence,
    cycle_sequence,
    cycle_sv_partition,
    dumbbell_sequence,
    sequence_for,
    sv_check,
    sv_sums,
)


def mono_sets(seq):
    """Each polynomial as the set of its monomials, named by vertex labels."""
    labels = seq.graph.labels
    out = []
    for poly in seq.polys:
        out.append({frozenset(labels[i] for i, e in enumerate(m) if e)
                    for m in poly.monomials()})
    return out


def fs(*labs):
    return frozenset(labs)


# -- cycle sequences ------------------------------------------------------------

def test_cycle6_sequence():
    assert mono_sets(cycle_sequence(6)) == [
        {fs("x1", "x2")},
        {fs("x1", "x6"), fs("x2", "x3")},
        {fs("x4", "x5")},
        {fs("x3", "x4"), fs("x5", "x6")},
    ]


def test_cycle4_sequence():
    assert mono_sets(cycle_sequence(4)) == [
        {fs("x1", "x2")},
        {fs("x1", "x4"), fs("x2", "x3")},
        {fs("x3", "x4")},
    ]


def test_cycle5_sequence():
    assert mono_sets(cycle_sequence(5)) == [
        {fs("x1", "x2")},
        {fs("x2", "x3"), fs("x4", "x5")},
        {fs("x1", "x5"), fs("x3", "x4")},
    ]


def test_cycle3_sequence():
    assert mono_sets(cycle_sequence(3)) == [
        {fs("x1", "x2")},
        {fs("x1", "x3"), fs("x2", "x3")},
    ]


def test_cycle8_sequence():
    assert mono_sets(cycle_sequence(8)) == [
        {fs("x1", "x2")},
        {fs("x2", "x3"), fs("x4", "x5")},
        {fs("x3", "x4"), fs("x5", "x6")},
        {fs("x5", "x6"), fs("x7", "x8")},
        {fs("x1", "x8"), fs("x6", "x7")},
    ]


def test_cycle_sequence_rejects_small():
    with pytest.raises(Exception):
        cycle_sequence(2)


# -- bicyclic sequences ------------------------------------------------------------

def test_bicyclic_3_3_explicit_four_elements():
    assert mono_sets(bicyclic_vertex_sequence(3, 3)) == [
        {fs("x1", "x2")},
        {fs("x2", "x3"), fs("x1", "x3")},
        {fs("x1", "y2")},
        {fs("x1", "y3"), fs("y2", "y3")},
    ]


def test_bicyclic_5_3_concatenates_cycle_sequences():
    seq = bicyclic_vertex_sequence(5, 3)
    assert seq.claimed_length == 5
    got = mono_sets(seq)
    # the length-5 cycle block over x, then the triangle block over y (y1 = x1)
    assert got[:3] == mono_sets(cycle_sequence(5))
    assert got[3:] == [{fs("x1", "y2")}, {fs("x1", "y3"), fs("y2", "y3")}]


def test_bicyclic_4_4_merges_across_the_hub():
    seq = bicyclic_vertex_sequence(4, 4)
    assert seq.claimed_length == 5
    assert mono_sets(seq)[2] == {fs("x3", "x4"), fs("x1", "y2")}


def test_bicyclic_swapped_roles_cover_all_edges():
    # (3, 5) must reuse the (5, 3) row with the cycle roles exchanged
    seq = bicyclic_vertex_sequence(3, 5)
    assert "swapped" in seq.case_tag
    assert seq.claimed_length == pd_for_spec(seq.spec).value


# -- dumbbell sequences --------------------------------------------------------------

def test_dumbbell_bridge_3_0_3():
    assert mono_sets(dumbbell_sequence(3, 0, 3)) == [
        {fs("x1", "y1")},
        {fs("x1", "x2"), fs("y1", "y2")},
        {fs("x1", "x3"), fs("x2", "x3")},
        {fs("y1", "y3"), fs("y2", "y3")},
    ]


def test_dumbbell_3_3_3_long_path():
    seq = dumbbell_sequence(3, 3, 3)
    assert seq.claimed_length == 6
    got = mono_sets(seq)
    assert got[0] == {fs("x1", "z1")}
    assert got[1] == {fs("z1", "z2"), fs("x1", "x2")}


def test_dumbbell_5_0_5():
    seq = dumbbell_sequence(5, 0, 5)
    assert seq.claimed_length == 6
    got = mono_sets(seq)
    assert got[0] == {fs("x1", "y1")}
    assert got[1] == {fs("x1", "x2"), fs("y1", "y2")}


@pytest.mark.parametrize("m,k,n", [(3, 1, 3), (3, 2, 3), (4, 1, 3), (3, 1, 4),
                                   (5, 2, 3), (3, 2, 5), (4, 3, 4), (4, 0, 5)])
def test_dumbbell_small_k_instantiations(m, k, n):
    seq = dumbbell_sequence(m, k, n)
    assert seq.claimed_length == pd_for_spec(seq.spec).value


# -- sequence-level invariants ----------------------------------------------------------

ALL_SPECS = (
    [f"cycle:{n}" for n in range(3, 13)]
    + [f"bicyclic:{m},{n}" for m in range(3, 9) for n in range(3, 9) if m + n - 1 <= 11]
    + [f"dumbbell:{m},{k},{n}" for m in (3, 4, 5) for n in (3, 4, 5)
       for k in range(4) if m + n + k <= 11]
)


@pytest.mark.parametrize("spec_text", ALL_SPECS)
def test_length_matches_formula_and_terms_are_edges(spec_text):
    spec = parse_spec(spec_text)
    seq = sequence_for(spec)
    assert seq.claimed_length == len(seq.polys) == pd_for_spec(spec).value
    gens = edge_ideal(seq.graph)
    for poly in seq.polys:
        for m in poly.monomials():
            assert any(mono_divides(e, m) for e in gens)


GOLDEN_SEQUENCES = Path(__file__).resolve().parent / "data" / "sequences16.jsonl"


def test_sequences_match_the_golden():
    # every cycle, bicyclic and dumbbell instance up to 16 vertices, one line
    # [spec, case tag, generators] each, captured before the case tables
    # moved from JSON data into sequences.py
    got = []
    for spec in enumerate_specs(["cycle", "bicyclic", "dumbbell"], 16):
        seq = sequence_for(spec)
        got.append(json.dumps([str(spec), seq.case_tag, [str(q) for q in seq.polys]],
                              ensure_ascii=False))
    assert got == GOLDEN_SEQUENCES.read_text(encoding="utf-8").splitlines()


def test_sequence_json_schema():
    doc = cycle_sequence(6).to_json_dict()
    assert set(doc) == {"graph", "case", "length", "polys"}
    assert doc["graph"] == "cycle:6" and doc["length"] == 4
    assert all(set(p) == {"terms"} for p in doc["polys"])


def test_sequence_for_rejects_lines_and_unions():
    with pytest.raises(ValueError):
        sequence_for(parse_spec("line:4"))
    with pytest.raises(ValueError):
        sequence_for(parse_spec("union:cycle:3+line:2"))


def test_claimed_length_invariant():
    seq = cycle_sequence(5)
    with pytest.raises(ValueError):
        GeneratorSequence(seq.graph, seq.spec, seq.case_tag, seq.polys, 7)


# -- Schmitt-Vogel checker ---------------------------------------------------------------

def c6_partition():
    seq = cycle_sequence(6)
    R = seq.ring
    e = R.monomial
    parts = (
        (e("x1", "x2"),),
        (e("x4", "x5"),),
        (e("x1", "x6"), e("x2", "x3")),
        (e("x3", "x4"), e("x5", "x6")),
    )
    target = frozenset(e(u, v) for u, v in seq.graph.edges)
    return SVPartition(R, parts, target)


def test_sv_check_cycle6_partition():
    assert sv_check(c6_partition())


def test_sv_check_singleton():
    part = c6_partition()
    single = SVPartition(part.ring, (part.parts[0],), frozenset(part.parts[0]))
    assert sv_check(single)


def test_sv_check_rejects_uncovered_pair():
    R = cycle_sequence(6).ring
    e = R.monomial
    bad = SVPartition(
        R,
        ((e("x1", "x2"),), (e("x3", "x4"), e("x5", "x6"))),
        frozenset({e("x1", "x2"), e("x3", "x4"), e("x5", "x6")}),
    )
    result = sv_check(bad)
    assert not result
    assert any("(iii)" in v for v in result.violations)


def test_sv_check_rejects_fat_first_part():
    part = c6_partition()
    bad = SVPartition(part.ring, (part.parts[2],) + part.parts[:2] + (part.parts[3],),
                      part.target)
    result = sv_check(bad)
    assert not result and any("(ii)" in v for v in result.violations)


def test_sv_sums_cycle6():
    sums = sv_sums(c6_partition())
    seq = cycle_sequence(6)
    assert sums == [seq.polys[0], seq.polys[2], seq.polys[1], seq.polys[3]]


def test_sv_sums_exponent_two():
    R = cycle_sequence(6).ring
    m = R.monomial("x1", "x2")
    part = SVPartition(R, ((m,),), frozenset({m}), exponents={m: 2})
    assert sv_sums(part) == [R.term(1, R.monomial(x1=2, x2=2))]


def test_sv_sums_requires_valid_partition():
    part = c6_partition()
    bad = SVPartition(part.ring, part.parts[:2], part.target)
    with pytest.raises(ValueError):
        sv_sums(bad)


@pytest.mark.parametrize("n", [3, 4, 6, 7, 9, 10])
def test_documented_cycle_partitions_pass(n):
    part = cycle_sv_partition(n)
    assert sv_check(part)
    sums = sv_sums(part)
    assert sorted(map(str, sums)) == sorted(map(str, cycle_sequence(n).polys))


def test_no_partition_for_residue_two():
    with pytest.raises(ValueError):
        cycle_sv_partition(5)


def test_sums_with_exponents_still_generate_up_to_radical():
    # arbitrary exponents e(p) >= 1 keep the radical certificate valid
    from edgeideal.groebner import radical_membership

    part = cycle_sv_partition(6, modulus=2)
    e = part.ring.monomial
    skewed = SVPartition(part.ring, part.parts, part.target,
                         exponents={e("x1", "x2"): 3, e("x2", "x3"): 2})
    assert sv_check(skewed)
    sums = sv_sums(skewed)
    assert sums[0] == part.ring.term(1, e(x1=3, x2=3))
    for mono in sorted(skewed.target):
        assert radical_membership(part.ring.term(1, mono), sums)
