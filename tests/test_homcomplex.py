import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from edgeideal import homcomplex
from edgeideal.errors import ResourceLimitError
from edgeideal.graphs import build, build_from_string, enumerate_specs
from edgeideal.homcomplex import (
    DomainError,
    SimplicialComplex,
    betti_table,
    epsilon_complex,
    projective_dimension,
    reduced_homology_dims,
)
from oracles import profile_euler_sum, reduced_euler_characteristic, shifted_profile

MODULI = (2, 3, 32003)
LARGE_PRIME = 1099511627791  # about 2^40: a product of two residues overflows int64


def fs(*labels):
    return frozenset(labels)


# -- complexes -------------------------------------------------------------------

def test_epsilon_single_edge_is_empty_facet_complex():
    c = epsilon_complex(build_from_string("line:2"))
    assert c.facets == (fs(),)
    assert not c.is_void


def test_epsilon_cycle3_is_three_points():
    c = epsilon_complex(build_from_string("cycle:3"))
    assert set(c.facets) == {fs("x1"), fs("x2"), fs("x3")}


def test_epsilon_cycle4_facets():
    c = epsilon_complex(build_from_string("cycle:4"))
    assert set(c.facets) == {fs("x3", "x4"), fs("x1", "x4"), fs("x1", "x2"), fs("x2", "x3")}


def test_epsilon_requires_edges():
    with pytest.raises(DomainError):
        epsilon_complex(build_from_string("line:1"))


def test_complex_normalization_keeps_maximal_facets():
    c = SimplicialComplex(("a", "b", "c"), (fs("a"), fs("a", "b"), fs("a", "b"), fs("c")))
    assert set(c.facets) == {fs("a", "b"), fs("c")}


def test_void_versus_empty_facet():
    void = SimplicialComplex((), ())
    point_of_nothing = SimplicialComplex((), (fs(),))
    assert void.is_void and not point_of_nothing.is_void
    assert reduced_homology_dims(void, 2) == {}
    assert reduced_homology_dims(point_of_nothing, 2) == {-1: 1}


# -- reduced homology -------------------------------------------------------------

def test_full_simplex_is_acyclic():
    c = SimplicialComplex(("u", "v"), (fs("u", "v"),))
    assert reduced_homology_dims(c, 2) == {}


@pytest.mark.parametrize("p", MODULI)
def test_three_points(p):
    c = epsilon_complex(build_from_string("cycle:3"))
    assert reduced_homology_dims(c, p) == {0: 2}


@pytest.mark.parametrize("p", MODULI)
def test_epsilon_cycle4_is_a_circle(p):
    c = epsilon_complex(build_from_string("cycle:4"))
    assert reduced_homology_dims(c, p) == {1: 1}


# the 6-vertex real projective plane: H_1 = Z/2, so GF(2) sees H~_1 and H~_2,
# and odd characteristic sees nothing
RP2_FACETS = ("123", "134", "145", "156", "162", "235", "346", "452", "563", "624")


def test_rp2_homology_depends_on_characteristic():
    c = SimplicialComplex(tuple("123456"), tuple(frozenset(f) for f in RP2_FACETS))
    assert reduced_homology_dims(c, 2) == {1: 1, 2: 1}
    assert reduced_homology_dims(c, 3) == {}
    assert reduced_homology_dims(c, 32003) == {}


def test_negative_homology_dimension_raises(monkeypatch):
    # one pivot row more than the map has columns
    monkeypatch.setattr(homcomplex, "_pivot_rows",
                        lambda columns, p: set(range(len(list(columns)) + 1)))
    with pytest.raises(ArithmeticError, match="negative homology dimension"):
        reduced_homology_dims(epsilon_complex(build_from_string("cycle:4")), 3)
    with pytest.raises(ArithmeticError, match="negative homology dimension"):
        betti_table(build_from_string("cycle:4"), 3)


# -- folding and the mask walk -------------------------------------------------------

def neighbour_masks(n, edges):
    nbr = [0] * n
    for i, j in edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return nbr


def random_neighbour_masks(rng, max_vertices):
    """A random graph on 1..max_vertices vertices, as neighbour masks; sparse
    draws leave isolated vertices and several components."""
    n = rng.randint(1, max_vertices)
    density = rng.choice((0.1, 0.25, 0.4, 0.6, 0.8))
    return neighbour_masks(n, [(i, j) for i, j in itertools.combinations(range(n), 2)
                               if rng.random() < density])


def rp2_flag_neighbour_masks():
    """A graph whose independence complex is homotopy equivalent to the
    6-vertex RP^2.  One vertex per face of RP^2, adjacent when neither face
    contains the other, so independent sets are chains of faces and Ind is
    the barycentric subdivision, which does not fold.  Each of the six
    vertices of RP^2 also gets a twin with the same neighbours, which folds
    away."""
    faces = sorted({frozenset(sub) for f in RP2_FACETS
                    for k in (1, 2, 3) for sub in itertools.combinations(f, k)},
                   key=lambda f: (len(f), sorted(f)))
    nbr = neighbour_masks(len(faces), [
        (i, j) for (i, a), (j, b) in itertools.combinations(enumerate(faces), 2)
        if not (a <= b or b <= a)])
    for v in range(6):
        twin = len(nbr)
        nbr.append(nbr[v])
        for w in range(twin):
            if nbr[v] >> w & 1:
                nbr[w] |= 1 << twin
    return nbr


@pytest.mark.parametrize("p", (2, 3))
def test_folding_keeps_independence_homology(p):
    rng = random.Random(f"fold/{p}")
    partly_folded = 0
    for _ in range(300):
        nbr = random_neighbour_masks(rng, 10)
        full = (1 << len(nbr)) - 1
        partly_folded += homcomplex._fold(full, nbr) not in (0, full)
        for mask in (full, rng.randrange(1, full + 1)):
            assert homcomplex._independence_homology(mask, nbr, p) == \
                homcomplex._independence_homology_unfolded(mask, nbr, p), (nbr, mask)
    assert partly_folded > 50


def test_folding_keeps_the_rp2_characteristic_dependence():
    nbr = rp2_flag_neighbour_masks()
    full = (1 << len(nbr)) - 1
    assert homcomplex._fold(full, nbr).bit_count() == len(nbr) - 6
    for p, expected in ((2, {1: 1, 2: 1}), (3, {}), (32003, {})):
        assert homcomplex._independence_homology_unfolded(full, nbr, p) == expected
        assert homcomplex._independence_homology(full, nbr, p) == expected


def masks_by_filter(nbr):
    """Every nonempty mask whose vertices all have a neighbour in it, by
    testing each of the 2^n masks."""
    return [mask for mask in range(1, 1 << len(nbr))
            if all(nbr[v] & mask for v in range(len(nbr)) if mask >> v & 1)]


def test_mask_walk_matches_the_filter():
    graphs = []
    for spec in enumerate_specs(("cycle", "line", "bicyclic", "dumbbell"), 12):
        g = build(spec)
        graphs.append(neighbour_masks(
            g.nvertices, [(g.index(u), g.index(v)) for u, v in g.edges]))
    rng = random.Random("walk")
    graphs += [random_neighbour_masks(rng, 11) for _ in range(200)]
    # isolated vertices and several components with edges are covered
    assert any(0 in nbr for nbr in graphs)
    assert any(sum(c & (c - 1) > 0 for c in homcomplex._components((1 << len(nbr)) - 1, nbr))
               > 1 for nbr in graphs)
    for nbr in graphs:
        walked = list(homcomplex._masks_without_isolated_vertex(nbr))
        assert len(walked) == len(set(walked))
        assert sorted(walked) == masks_by_filter(nbr), nbr


def test_vertex_count_limit():
    c = SimplicialComplex(tuple(f"v{i}" for i in range(23)),
                          (frozenset(f"v{i}" for i in range(23)),))
    with pytest.raises(ResourceLimitError):
        reduced_homology_dims(c, 2)


@pytest.mark.parametrize("spec", [
    "cycle:3", "cycle:5", "cycle:6", "line:4", "bicyclic:3,3",
    "dumbbell:3,0,3", "union:cycle:4+line:2",
])
@pytest.mark.parametrize("p", MODULI)
def test_euler_characteristic_consistency(spec, p):
    c = epsilon_complex(build_from_string(spec))
    profile = reduced_homology_dims(c, p)
    assert profile_euler_sum(profile) == reduced_euler_characteristic(c.facets)


# -- disjoint union shifts ----------------------------------------------------------

def union_profile(spec, p=2):
    return reduced_homology_dims(epsilon_complex(build_from_string(spec)), p)


def edge_profile(p=2):
    return reduced_homology_dims(epsilon_complex(build_from_string("line:2")), p)


@pytest.mark.parametrize("n,shift", [(4, 3), (5, 3), (7, 5), (8, 5)])
def test_cycle_union_shift(n, shift):
    # joining a cycle (length not divisible by three) shifts the profile
    assert union_profile(f"union:cycle:{n}+line:2") == shifted_profile(edge_profile(), shift)


@pytest.mark.parametrize("n,shift", [(3, 2), (5, 3), (6, 4), (8, 5)])
def test_line_union_shift(n, shift):
    assert union_profile(f"union:line:{n}+line:2") == shifted_profile(edge_profile(), shift)


@pytest.mark.parametrize("n", [4, 7])
def test_line_union_vanishes(n):
    assert union_profile(f"union:line:{n}+line:2") == {}


def has_pendant_vanishing_pattern(g):
    """Degree-one vertex v on u such that another neighbor of u has its own
    pendant neighbor (away from u)."""
    for v in g.labels:
        if g.degree(v) != 1:
            continue
        (u,) = g.neighbors(v)
        for w in g.neighbors(u):
            if w == v:
                continue
            for x in g.neighbors(w):
                if x != u and g.degree(x) == 1:
                    return True
    return False


@pytest.mark.parametrize("spec", ["line:4", "union:line:4+line:2",
                                  "union:line:4+cycle:3", "union:line:4+line:4"])
def test_pendant_pattern_forces_zero_homology(spec):
    g = build_from_string(spec)
    assert has_pendant_vanishing_pattern(g)
    assert reduced_homology_dims(epsilon_complex(g), 2) == {}


def test_pendant_pattern_negative_control():
    # two disjoint edges do not match the pattern and have homology
    g = build_from_string("union:line:2+line:2")
    assert not has_pendant_vanishing_pattern(g)
    assert reduced_homology_dims(epsilon_complex(g), 2) == {0: 1}


# -- Betti tables ---------------------------------------------------------------------

def test_betti_cycle3():
    t = betti_table(build_from_string("cycle:3"), 2)
    assert t.entries == {(1, 2): 3, (2, 3): 2}


def test_betti_single_edge():
    t = betti_table(build_from_string("line:2"), 2)
    assert t.entries == {(1, 2): 1}


def test_betti_cycle5_top_entry():
    t = betti_table(build_from_string("cycle:5"), 2)
    assert t.get(3, 5) == 1


@pytest.mark.parametrize("spec", ["cycle:5", "line:6", "bicyclic:3,3", "dumbbell:3,0,3"])
def test_edge_count_entry(spec):
    g = build_from_string(spec)
    assert betti_table(g, 2).get(1, 2) == g.nedges


def test_betti_csv_rows():
    t = betti_table(build_from_string("cycle:3"), 2)
    assert t.csv_rows() == ["i,d,dim", "1,2,3", "2,3,2"]


@pytest.mark.parametrize("spec", ["cycle:5", "bicyclic:6,8"])
def test_large_prime_gives_the_gf2_table(spec):
    g = build_from_string(spec)
    assert betti_table(g, LARGE_PRIME).entries == betti_table(g, 2).entries


GOLDEN_BETTI = Path(__file__).resolve().parent / "data" / "betti12.jsonl"


def test_betti_tables_match_the_golden():
    # every enumerate_specs instance up to 12 vertices over three fields, one
    # line [spec, p, csv rows] each, captured before independence complexes
    # were folded
    got = []
    for spec in enumerate_specs(("cycle", "line", "bicyclic", "dumbbell"), 12):
        g = build(spec)
        for p in MODULI:
            got.append(json.dumps([str(spec), p, betti_table(g, p).csv_rows()]))
    assert got == GOLDEN_BETTI.read_text(encoding="utf-8").splitlines()


def test_characteristic_independence_small_instances():
    specs = enumerate_specs(("cycle", "line", "bicyclic", "dumbbell"), 10)
    assert len(specs) > 40
    for spec in specs:
        g = build(spec)
        tables = [betti_table(g, p).entries for p in MODULI]
        assert tables[0] == tables[1] == tables[2], str(spec)


# -- projective dimension ----------------------------------------------------------------

def test_pd_spot_values():
    assert projective_dimension(build_from_string("cycle:3"), 2) == 2
    assert projective_dimension(build_from_string("cycle:4"), 2) == 3
    assert projective_dimension(build_from_string("line:4"), 2) == 2


def test_pd_requires_edges():
    with pytest.raises(DomainError):
        projective_dimension(build_from_string("line:1"), 2)


def test_betti_vertex_limit():
    with pytest.raises(ResourceLimitError):
        betti_table(build_from_string("line:21"), 2)


def test_import_does_not_load_numpy():
    code = "import sys, edgeideal; print('numpy' in sys.modules)"
    src = str(Path(homcomplex.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
