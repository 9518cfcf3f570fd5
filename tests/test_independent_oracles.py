"""Cross-checks of the algebraic engines against routes that share no code
with them.

* Radical membership vs. rational points: if f lies in the radical of an
  ideal over the algebraic closure, f must vanish at every GF(p)-rational
  common zero of the generators.  A rational point where the generators
  vanish but f does not therefore refutes membership outright.  Exhaustive
  point enumeration over GF(2) is feasible for every small instance.
* Homology vs. suspension: suspending any complex (two fresh apexes joined
  to every facet) shifts reduced homology up by one degree.  The suspended
  complex has no vertex common to all facets, so this exercises the full
  boundary-matrix path.
* Sparse GF(p) rank reducer vs. a list-based row reduction written here from
  scratch.
* Betti tables (Hochster's formula on independence complexes) vs. the
  edge-complement route, which sums the reduced homology of the complex of
  every induced subgraph without an isolated vertex.
* Betti tables of cycles vs. Jacques' closed forms.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideal.graphs import (
    Graph,
    build,
    build_from_string,
    enumerate_specs,
    induced_subgraph,
    ring_of,
)
from edgeideal.groebner import radical_membership
from edgeideal.homcomplex import (
    SimplicialComplex,
    _pivot_rows,
    betti_table,
    epsilon_complex,
    reduced_homology_dims,
)
from edgeideal.sequences import cycle_sequence, dumbbell_sequence
from mutations import all_mutations
from oracles import jacques_cycle_betti


def evaluate(poly, point, p):
    total = 0
    for mono, coeff in poly.terms:
        term = coeff
        for x, e in zip(point, mono):
            if e:
                term = term * pow(x, e, p) % p
        total = (total + term) % p
    return total


def common_zeros(polys, nvars, p):
    for point in itertools.product(range(p), repeat=nvars):
        if all(evaluate(q, point, p) == 0 for q in polys):
            yield point


@pytest.mark.parametrize("spec,p", [("cycle:5", 2), ("cycle:6", 2), ("cycle:7", 2),
                                    ("cycle:5", 3), ("dumbbell:3,0,3", 2)])
def test_radical_equality_vanishing_on_rational_points(spec, p):
    if spec.startswith("cycle"):
        seq = cycle_sequence(int(spec.split(":")[1]), modulus=p)
    else:
        seq = dumbbell_sequence(3, 0, 3, modulus=p)
    g = seq.graph
    ring = ring_of(g, p)
    edges = [ring.term(1, ring.monomial(u, v)) for u, v in g.edges]
    gens = [ring.convert(q) for q in seq.polys]
    for point in common_zeros(gens, ring.nvars, p):
        assert all(evaluate(e, point, p) == 0 for e in edges), point


@pytest.mark.parametrize("n", [4, 5, 6])
def test_engine_membership_never_contradicts_a_witness_point(n):
    # for every mutation and every edge: a rational point where the mutated
    # generators vanish but the edge monomial does not forces the engine to
    # have answered False for that edge
    p = 2
    seq = cycle_sequence(n, modulus=p)
    ring = seq.ring
    refuted = 0
    for _, mutated, _ in all_mutations(seq):
        gens = [q for q in mutated.polys if not q.is_zero]
        zeros = list(common_zeros(gens, ring.nvars, p))
        for u, v in mutated.graph.edges:
            target = ring.term(1, ring.monomial(u, v))
            witness = next((pt for pt in zeros if evaluate(target, pt, p) != 0), None)
            if witness is not None:
                assert not radical_membership(target, gens), (n, (u, v), witness)
                refuted += 1
    assert refuted > 0


def _facet_strategy():
    facet = st.frozensets(st.sampled_from("abcde"), min_size=1, max_size=4)
    return st.lists(facet, min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(facets=_facet_strategy(), p=st.sampled_from([2, 3, 32003]))
def test_suspension_shifts_homology(facets, p):
    base = SimplicialComplex(("a", "b", "c", "d", "e"), tuple(facets))
    apex_faces = tuple(f | {"N"} for f in base.facets) + tuple(f | {"S"} for f in base.facets)
    susp = SimplicialComplex(base.vertices + ("N", "S"), apex_faces)
    got = reduced_homology_dims(susp, p)
    want = {i + 1: d for i, d in reduced_homology_dims(base, p).items()}
    assert got == want


def rank_oracle(matrix, p):
    """Row reduction over GF(p) on plain Python lists."""
    rows = [list(map(lambda x: x % p, row)) for row in matrix]
    rank, col, ncols = 0, 0, len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


@pytest.mark.parametrize("p", [2, 3, 32003, 1099511627791])
def test_dense_rank_against_oracle(p):
    rng = random.Random(p)
    for _ in range(25):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        matrix = [[rng.randint(-1, 1) for _ in range(nc)] for _ in range(nr)]
        want = rank_oracle(matrix, p)
        columns = [{r: matrix[r][c] for r in range(nr) if matrix[r][c]} for c in range(nc)]
        pivots = _pivot_rows(columns, p)
        assert len(pivots) == want
        assert pivots <= set(range(nr))


def edge_complement_betti(g, p):
    """Betti table summed over W of H~(epsilon_complex(G[W])), shifted by two."""
    table = {}
    for size in range(2, g.nvertices + 1):
        for w in itertools.combinations(g.labels, size):
            h = induced_subgraph(g, w)
            if any(h.degree(v) == 0 for v in h.labels):
                continue
            for k, dim in reduced_homology_dims(epsilon_complex(h), p).items():
                table[(k + 2, size)] = table.get((k + 2, size), 0) + dim
    return table


def random_graph(rng):
    """Random graph on at most 8 vertices: half of the draws are one random
    block, the other half two random blocks with no edge between them."""
    if rng.random() < 0.5:
        n = cut = rng.randint(2, 8)
    else:
        cut = rng.randint(2, 5)
        n = cut + rng.randint(2, 3)
    density = rng.choice([0.4, 0.6, 0.8])
    edges = tuple((f"v{i}", f"v{j}") for i, j in itertools.combinations(range(n), 2)
                  if (i < cut) == (j < cut) and rng.random() < density)
    return Graph(tuple(f"v{i}" for i in range(n)), edges)


def components_with_edges(g):
    seen, count = set(), 0
    for start in g.labels:
        if start in seen or g.degree(start) == 0:
            continue
        count += 1
        stack = [start]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(g.neighbors(v))
    return count


@pytest.mark.parametrize("p", [2, 3])
def test_betti_matches_edge_complement_route_on_random_graphs(p):
    rng = random.Random(f"duality/{p}")
    joins = 0
    for _ in range(60):
        g = random_graph(rng)
        joins += components_with_edges(g) > 1
        assert betti_table(g, p).entries == edge_complement_betti(g, p), g.edges
    assert joins >= 10


@pytest.mark.parametrize("p", [2, 3])
def test_betti_matches_edge_complement_route_on_families(p):
    for spec in enumerate_specs(("cycle", "line", "bicyclic", "dumbbell"), 9):
        g = build(spec)
        assert betti_table(g, p).entries == edge_complement_betti(g, p), str(spec)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_cycle_betti_matches_jacques(p):
    for n in range(3, 21):
        assert betti_table(build_from_string(f"cycle:{n}"), p).entries \
            == jacques_cycle_betti(n), n
