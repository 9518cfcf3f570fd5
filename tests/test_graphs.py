import random

import pytest

from edgeideal.errors import ResourceLimitError
from edgeideal.graphs import (
    ConstructionError,
    FamilySpec,
    Graph,
    SpecParseError,
    build,
    build_from_string,
    disjoint_union,
    edge_ideal,
    enumerate_specs,
    induced_subgraph,
    min_vertex_cover_size,
    parse_spec,
)
from edgeideal.polyalg import mono_degree, mono_is_squarefree
from oracles import vertex_cover_bruteforce


def edge_set(g):
    return {frozenset(e) for e in g.edges}


# -- construction -----------------------------------------------------------------

def test_cycle4():
    g = build_from_string("cycle:4")
    assert g.labels == ("x1", "x2", "x3", "x4")
    assert edge_set(g) == {frozenset(e) for e in
                           [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x1", "x4")]}


def test_bicyclic_3_3_shares_hub():
    g = build_from_string("bicyclic:3,3")
    assert g.nvertices == 5 and g.nedges == 6
    assert g.degree("x1") == 4


def test_dumbbell_bridge():
    g = build_from_string("dumbbell:3,0,3")
    assert g.nvertices == 6 and g.nedges == 7
    assert g.has_edge("x1", "y1")


@pytest.mark.parametrize("query", [
    lambda g: g.has_edge("x1", "q9"),
    lambda g: g.has_edge("q9", "x1"),
    lambda g: g.neighbors("q9"),
    lambda g: g.degree("q9"),
])
def test_unknown_vertex_labels_are_refused(query):
    g = build_from_string("cycle:4")
    with pytest.raises(ConstructionError, match="unknown vertex 'q9'"):
        query(g)
    assert g.neighbors("x1") == ("x2", "x4") and g.degree("x1") == 2
    assert g.has_edge("x4", "x1") and not g.has_edge("x1", "x3")


@pytest.mark.parametrize("m,k,n", [(3, 0, 3), (3, 2, 4), (5, 1, 4), (4, 3, 3)])
def test_dumbbell_counts(m, k, n):
    g = build(FamilySpec("dumbbell", (m, k, n)))
    assert g.nvertices == m + n + k
    assert g.nedges == m + n + k + 1


def test_parameter_bounds():
    for bad in ("cycle:2", "bicyclic:2,4", "dumbbell:3,-1,3", "line:0"):
        with pytest.raises(ConstructionError):
            build_from_string(bad)


def test_graph_rejects_loops_and_duplicates():
    with pytest.raises(ConstructionError):
        Graph(("a", "b"), (("a", "a"),))
    with pytest.raises(ConstructionError):
        Graph(("a", "b"), (("a", "b"), ("b", "a")))


def test_union_relabels_second_block():
    g = build_from_string("union:cycle:4+line:2")
    assert g.nvertices == 6 and g.nedges == 5
    assert {lab for lab in g.labels if lab.startswith("u")} == {"u1", "u2"}
    assert g.has_edge("u1", "u2")


def test_union_of_unions_picks_fresh_prefix():
    a = build_from_string("union:line:2+line:2")
    b = disjoint_union(a, build_from_string("cycle:3"))
    assert b.nvertices == 7 and b.nedges == 5


# -- spec mini-language ---------------------------------------------------------------

def test_parse_roundtrip():
    for text in ("cycle:7", "line:5", "bicyclic:4,5", "dumbbell:3,1,4",
                 "union:cycle:4+line:2"):
        assert str(parse_spec(text)) == text


def test_parse_errors():
    for bad in ("cycle", "cycle:a", "bicyclic:4", "union:cycle:3",
                "pentagon:5", "dumbbell:1,2"):
        with pytest.raises(SpecParseError):
            parse_spec(bad)


def test_enumerate_specs_order():
    specs = [str(s) for s in enumerate_specs(["dumbbell", "line", "cycle", "bicyclic"], 7)]
    assert specs == ["cycle:3", "cycle:4", "cycle:5", "cycle:6", "cycle:7",
                     "line:2", "line:3", "line:4", "line:5", "line:6", "line:7",
                     "bicyclic:3,3", "bicyclic:3,4", "bicyclic:3,5", "bicyclic:4,4",
                     "dumbbell:3,0,3", "dumbbell:3,1,3", "dumbbell:3,0,4"]


def test_enumerate_specs_rejects_unknown_family():
    with pytest.raises(SpecParseError, match="pentagon"):
        enumerate_specs(["cycle", "pentagon"], 5)


# -- edge ideal ------------------------------------------------------------------------

def test_edge_ideal_cycle4():
    g = build_from_string("cycle:4")
    monos = edge_ideal(g)
    want = {(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)}
    assert set(monos) == want


def test_edge_ideal_edgeless():
    assert edge_ideal(build_from_string("line:1")) == []


def test_edge_ideal_bicyclic33():
    g = build_from_string("bicyclic:3,3")
    monos = edge_ideal(g)
    assert len(monos) == g.nedges == 6
    names = []
    for m in monos:
        names.append({g.labels[i] for i, e in enumerate(m) if e})
    want = [{"x1", "x2"}, {"x2", "x3"}, {"x1", "x3"},
            {"x1", "y2"}, {"y2", "y3"}, {"x1", "y3"}]
    assert sorted(map(sorted, names)) == sorted(map(sorted, want))


@pytest.mark.parametrize("spec", ["cycle:6", "line:5", "bicyclic:3,4", "dumbbell:3,1,3"])
def test_edge_ideal_shape(spec):
    g = build_from_string(spec)
    monos = edge_ideal(g)
    assert len(monos) == g.nedges
    assert all(mono_degree(m) == 2 and mono_is_squarefree(m) for m in monos)


# -- induced subgraphs --------------------------------------------------------------------

def test_induced_path_in_cycle():
    g = build_from_string("cycle:5")
    h = induced_subgraph(g, ["x1", "x2", "x3"])
    assert edge_set(h) == {frozenset(("x1", "x2")), frozenset(("x2", "x3"))}


def test_induced_full_vertex_set_is_identity():
    g = build_from_string("dumbbell:3,1,3")
    assert induced_subgraph(g, g.labels) == g


def test_induced_removing_hub_splits_bicyclic():
    g = build_from_string("bicyclic:3,4")
    keep = [lab for lab in g.labels if lab != "x1"]
    h = induced_subgraph(g, keep)
    # brute-force filtering oracle
    want = {frozenset(e) for e in g.edges if "x1" not in e}
    assert edge_set(h) == want
    # one edge (the rest of the triangle) plus a path on three vertices
    degs = sorted(h.degree(lab) for lab in h.labels)
    assert degs == [1, 1, 1, 1, 2]
    assert h.nedges == 3


def test_induced_unknown_label():
    g = build_from_string("cycle:4")
    with pytest.raises(ConstructionError):
        induced_subgraph(g, ["x1", "nope"])


def test_induced_subgraph_composes():
    rng = random.Random(5)
    g = build_from_string("dumbbell:4,2,3")
    labels = list(g.labels)
    for _ in range(20):
        w1 = set(rng.sample(labels, rng.randint(0, len(labels))))
        w2 = set(rng.sample(labels, rng.randint(0, len(labels))))
        both = w1 & w2
        assert induced_subgraph(g, both) == induced_subgraph(induced_subgraph(g, w1), both)


# -- vertex cover -----------------------------------------------------------------------

def test_cover_spot_values():
    assert min_vertex_cover_size(build_from_string("cycle:5")) == 3
    assert min_vertex_cover_size(build_from_string("cycle:6")) == 3
    assert min_vertex_cover_size(build_from_string("line:2")) == 1
    assert min_vertex_cover_size(build_from_string("line:1")) == 0


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_cover_is_ceil_half(n):
    assert min_vertex_cover_size(build_from_string(f"cycle:{n}")) == (n + 1) // 2


@pytest.mark.parametrize("spec", ["bicyclic:3,4", "dumbbell:3,1,3", "union:cycle:4+line:3"])
def test_cover_matches_bruteforce(spec):
    g = build_from_string(spec)
    assert min_vertex_cover_size(g) == vertex_cover_bruteforce(g.labels, g.edges)


def test_cover_matches_bruteforce_on_every_family_instance():
    specs = enumerate_specs(("cycle", "line", "bicyclic", "dumbbell"), 13)
    assert len(specs) > 100
    for spec in specs:
        g = build(spec)
        assert min_vertex_cover_size(g) == vertex_cover_bruteforce(g.labels, g.edges), spec


def test_cover_matches_bruteforce_on_random_graphs():
    rng = random.Random(11)
    for _ in range(300):
        labels = tuple(f"v{i}" for i in range(rng.randint(1, 11)))
        pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
        edges = tuple(rng.sample(pairs, rng.randint(0, len(pairs))))
        g = Graph(labels, edges)
        assert min_vertex_cover_size(g) == vertex_cover_bruteforce(labels, edges), edges


def test_cover_at_the_size_limit():
    # 25 vertices, the largest graphs the search takes
    assert min_vertex_cover_size(build_from_string("cycle:25")) == 13
    assert min_vertex_cover_size(build_from_string("bicyclic:12,13")) == 12


def test_cover_size_limit():
    g = build(FamilySpec("line", (26,)))
    with pytest.raises(ResourceLimitError):
        min_vertex_cover_size(g)
