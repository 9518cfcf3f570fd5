"""Coverage of the bicyclic case tables, and long-path and large-cycle
instances that run path-join layouts with nonempty chain blocks (one to
three emitted pairs), beyond the small grid the acceptance suite sweeps.

Radical certificates run over GF(2); instances small enough for the Betti
computation also cross-check the homology projective dimension.
"""

import pytest

from edgeideal.formulas import pd_for_spec
from edgeideal.graphs import build, enumerate_specs, parse_spec
from edgeideal.homcomplex import projective_dimension
from edgeideal.sequences import _PATH_JOIN, _VERTEX_JOIN, sequence_for
from edgeideal.verify import certify

CASE_TABLES = {"vertex join": _VERTEX_JOIN,
               **{f"path join {key}": table for key, table in _PATH_JOIN.items()}}


@pytest.mark.parametrize("name", CASE_TABLES)
def test_every_residue_pair_resolves_to_a_row(name):
    table = CASE_TABLES[name]
    for a in range(3):
        for b in range(3):
            assert (a, b) in table or (b, a) in table, (a, b)


def test_every_case_row_is_selected_up_to_16_vertices():
    rows = {case for table in CASE_TABLES.values() for case, _ in table.values()}
    assert len(rows) == 30
    selected = {sequence_for(spec).case_tag.removesuffix(", roles swapped")
                for spec in enumerate_specs(["bicyclic", "dumbbell"], 16)}
    assert selected == rows

# (spec, residues and chain sizes the row exercises)
LONG_PATH_SPECS = [
    "dumbbell:4,5,4",   # k≡2, m≡n≡1, one chain pair
    "dumbbell:3,5,4",   # k≡2, m≡0 n≡1, one chain pair
    "dumbbell:5,5,4",   # k≡2, m≡2 n≡1, one chain pair
    "dumbbell:5,2,5",   # k≡2, m≡n≡2, one chain pair
    "dumbbell:3,5,3",   # k≡2, m≡n≡0, two chain pairs
    "dumbbell:3,8,3",   # k≡2, m≡n≡0, three chain pairs
    "dumbbell:4,8,4",   # k≡2, m≡n≡1, two chain pairs
    "dumbbell:5,3,4",   # k≡0, m≡2 n≡1, one chain pair
    "dumbbell:3,6,5",   # k≡0, m≡0 n≡2, one chain pair
    "dumbbell:5,6,5",   # k≡0, m≡n≡2, one chain pair
    "dumbbell:3,6,3",   # k≡0, m≡n≡0, one chain pair
    "dumbbell:4,6,4",   # k≡0, m≡n≡1, two chain pairs
    "dumbbell:3,4,4",   # k≡1, m≡0 n≡1, one chain pair
    "dumbbell:5,4,4",   # k≡1, m≡2 n≡1, one chain pair
    "dumbbell:4,4,4",   # k≡1, m≡n≡1, one chain pair
    "dumbbell:5,4,3",   # k≡1, m≡2 n≡0, one chain pair
    "dumbbell:5,4,5",   # k≡1, m≡n≡2, one chain pair
    "dumbbell:3,4,3",   # k≡1, m≡n≡0, one chain pair
    "dumbbell:3,7,3",   # k≡1, m≡n≡0, two chain pairs
    "dumbbell:4,7,4",   # k≡1, m≡n≡1, two chain pairs
]


@pytest.mark.parametrize("spec_text", LONG_PATH_SPECS)
def test_long_path_instance_certifies(spec_text):
    report = certify(spec_text, (2,), homology_max_vertices=0)
    assert report.passed, report.to_json_dict()


@pytest.mark.parametrize("spec_text", [
    "dumbbell:3,5,4", "dumbbell:5,2,5", "dumbbell:5,3,4", "dumbbell:3,6,3",
    "dumbbell:4,4,4", "dumbbell:5,4,3", "dumbbell:3,4,3", "dumbbell:3,5,3",
])
def test_long_path_pd_matches_homology(spec_text):
    spec = parse_spec(spec_text)
    assert pd_for_spec(spec).value == projective_dimension(build(spec), 2)


@pytest.mark.parametrize("spec_text", ["bicyclic:6,8", "bicyclic:7,7", "bicyclic:8,8"])
def test_larger_vertex_joins_certify(spec_text):
    report = certify(spec_text, (2,), homology_max_vertices=14)
    assert report.passed, report.to_json_dict()
