"""Edge-complement and independence complexes, exact reduced simplicial
homology over GF(p), and graded Betti tables of edge ideals.

For a graph H with edges e_1..e_s on vertex set V, the edge-complement
complex has one facet V \\ e_i per edge.  Its Alexander dual is the
independence complex Ind(H), whose faces are the independent vertex sets.
Hochster's formula (Miller-Sturmfels, Combinatorial Commutative Algebra,
Cor. 5.12) gives the graded Betti numbers of the edge ideal of G as

    beta_{j,d} = sum over d-subsets W of dim H~_{d-j-1}(Ind(G[W])),

so the Betti table, whose top homological index is the projective dimension,
is computed from the small independence complexes of connected induced
subgraphs, combined across components by the Kuenneth rule for joins.  The
subsets W are walked directly: only those that leave no vertex of G[W]
isolated, as the others give cones.  Each subgraph is first folded
(Engstrom's lemma: a vertex whose neighbourhood contains another vertex's
neighbourhood can be deleted without changing the homotopy type of Ind), and
faces are built only for what cannot fold further.

Homology is computed from boundary-matrix ranks over the chosen prime field:
one sparse exact reducer for every prime, reduced top-down with clearing.
Reduced conventions: the complex {emptyset} has one dimension of homology in
degree -1; the void complex has none anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import ResourceLimitError
from .graphs import Graph
from .polyalg import PrimeField

MAX_HOMOLOGY_VERTICES = 22
MAX_BETTI_VERTICES = 20


class DomainError(ValueError):
    """The requested object is undefined for this input (e.g. edgeless graph)."""


def _modulus(fld) -> int:
    if isinstance(fld, PrimeField):
        return fld.p
    return PrimeField(int(fld)).p


# -- simplicial complexes ------------------------------------------------------

@dataclass(frozen=True)
class SimplicialComplex:
    """Facet-list simplicial complex.

    Facets are stored inclusion-maximal and deduplicated.  The complex with a
    single empty facet (written {emptyset}) is representable and distinct from
    the void complex, which has no facets at all.
    """

    vertices: tuple[str, ...]
    facets: tuple[frozenset, ...]

    def __post_init__(self):
        known = set(self.vertices)
        for f in self.facets:
            if not f <= known:
                raise ValueError(f"facet {sorted(f)} uses undeclared vertices")
        maximal = []
        for f in self.facets:
            if any(f < g for g in self.facets):
                continue
            if f not in maximal:
                maximal.append(f)
        order = {v: i for i, v in enumerate(self.vertices)}
        maximal.sort(key=lambda f: (len(f), sorted(order[v] for v in f)))
        object.__setattr__(self, "facets", tuple(maximal))

    @property
    def is_void(self) -> bool:
        return not self.facets

    def facet_masks(self) -> tuple[list[int], int]:
        """Facets as bitmasks over the vertex order; returns (masks, nbits)."""
        order = {v: i for i, v in enumerate(self.vertices)}
        masks = []
        for f in self.facets:
            m = 0
            for v in f:
                m |= 1 << order[v]
            masks.append(m)
        return masks, len(self.vertices)


def epsilon_complex(h: Graph) -> SimplicialComplex:
    """Complex on V(h) whose facets are the complements of the edges of h."""
    if h.nedges == 0:
        raise DomainError("edge-complement complex of an edgeless graph is undefined")
    verts = set(h.labels)
    facets = tuple(frozenset(verts - {u, v}) for u, v in h.edges)
    return SimplicialComplex(h.labels, facets)


# -- rank computations ---------------------------------------------------------

def _pivot_rows(columns: Iterable[dict[int, int]], p: int) -> set[int]:
    """Pivot rows of a matrix over GF(p) given as sparse columns {row: entry};
    their number is the rank.

    Each column is reduced against the stored pivot columns, keyed by their
    largest row, in exact Python integer arithmetic, so any prime is safe.
    """
    pivots: dict[int, dict[int, int]] = {}
    for entries in columns:
        col = {r: x % p for r, x in entries.items() if x % p}
        while col:
            top = max(col)
            piv = pivots.get(top)
            if piv is None:
                inv = pow(col[top], -1, p)
                pivots[top] = col if inv == 1 else {r: x * inv % p for r, x in col.items()}
                break
            f = col[top]
            for r, x in piv.items():
                y = (col.get(r, 0) - f * x) % p
                if y:
                    col[r] = y
                else:
                    del col[r]
    return set(pivots)


def _boundary_columns(upper: list[int], lower: list[int],
                      cleared: set[int]) -> Iterator[dict[int, int]]:
    """Sparse columns of the boundary map from faces `upper` to the sorted
    layer `lower` one below, skipping the faces whose index is in `cleared`."""
    index = {f: i for i, f in enumerate(lower)}
    for j, face in enumerate(upper):
        if j in cleared:
            continue
        col, sign, m = {}, 1, face
        while m:
            v = m & -m
            col[index[face ^ v]] = sign
            sign, m = -sign, m ^ v
        yield col


def _homology_from_faces(faces, p: int) -> dict[int, int]:
    """Reduced homology dimensions of the complex whose faces (bitmasks,
    closed under subsets, the empty face included) are given.

    The boundary maps are reduced from the top degree down, with clearing:
    a face that is a pivot row of the map from the layer above is the
    largest face of a reduced column there, which is a cycle, so the face's
    own column is a combination of earlier columns and is skipped.
    """
    layers: dict[int, list[int]] = {}
    for f in faces:
        layers.setdefault(f.bit_count(), []).append(f)
    for layer in layers.values():
        layer.sort()
    top = max(layers)

    ranks = {0: 0, top + 1: 0}
    cleared: set[int] = set()
    for s in range(top, 0, -1):
        cleared = _pivot_rows(
            _boundary_columns(layers[s], layers[s - 1], cleared), p)
        ranks[s] = len(cleared)

    profile = {}
    for s in range(0, top + 1):
        h = len(layers.get(s, ())) - ranks[s] - ranks[s + 1]
        if h < 0:
            raise ArithmeticError(
                f"negative homology dimension {h} in degree {s - 1} over GF({p})")
        if h:
            profile[s - 1] = h
    return profile


def _profile_from_facet_masks(facets: list[int], p: int) -> dict[int, int]:
    """Reduced homology dimensions of the complex with the given facet masks."""
    facets = sorted(set(facets))
    if not facets:
        return {}
    if facets == [0]:
        return {-1: 1}
    common = facets[0]
    for f in facets[1:]:
        common &= f
    if common:
        return {}  # cone with apex any common vertex: contractible

    faces: set[int] = set()
    for fm in facets:
        sub = fm
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & fm
    return _homology_from_faces(faces, p)


def reduced_homology_dims(c: SimplicialComplex, fld) -> dict[int, int]:
    """Map degree i >= -1 to dim of the i-th reduced homology over GF(p).

    Only degrees with nonzero homology appear in the result.
    """
    p = _modulus(fld)
    if len(c.vertices) > MAX_HOMOLOGY_VERTICES:
        raise ResourceLimitError(
            f"homology limited to {MAX_HOMOLOGY_VERTICES} vertices, got {len(c.vertices)}",
            stage="homology")
    masks, _ = c.facet_masks()
    return _profile_from_facet_masks(masks, p)


# -- Betti tables ---------------------------------------------------------------

@dataclass
class BettiTable:
    """Graded Betti numbers: (homological index, degree) -> dimension > 0."""

    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def get(self, i: int, d: int) -> int:
        return self.entries.get((i, d), 0)

    @property
    def max_index(self) -> int:
        if not self.entries:
            raise DomainError("empty Betti table has no top index")
        return max(i for i, _ in self.entries)

    def csv_rows(self) -> list[str]:
        rows = ["i,d,dim"]
        for (i, d) in sorted(self.entries):
            rows.append(f"{i},{d},{self.entries[(i, d)]}")
        return rows

    def json_entries(self) -> list[dict]:
        return [{"i": i, "d": d, "dim": self.entries[(i, d)]}
                for (i, d) in sorted(self.entries)]


def _components(mask: int, nbr: list[int]) -> Iterator[int]:
    """Vertex masks of the connected components of G[mask]."""
    while mask:
        comp, frontier = 0, mask & -mask
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            comp |= 1 << v
            frontier = (frontier | nbr[v] & mask) & ~comp
        mask &= ~comp
        yield comp


def _fold(mask: int, nbr: list[int]) -> int:
    """Vertices left of G[mask] once no vertex can fold, or 0 when one is
    left without a neighbour.

    If N(u) lies inside N(w) for distinct vertices u and w, then Ind(G) and
    Ind(G - w) are homotopy equivalent (Engstrom, Independence complexes of
    claw-free graphs, Eur. J. Combin. 29 (2008), Lemma 3.2).  Every such w
    is a neighbour of all of N(u) and not adjacent to u, so all of them go
    at once.  A vertex with no neighbour makes Ind(G) a cone.
    """
    folded = True
    while folded:
        folded = False
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            if not low & mask:
                continue  # folded away earlier in this pass
            around = nbr[low.bit_length() - 1] & mask
            if not around:
                return 0
            dominated = mask ^ low
            while around and dominated:
                x = around & -around
                dominated &= nbr[x.bit_length() - 1]
                around ^= x
            if dominated:
                mask ^= dominated
                folded = True
    return mask


def _independence_homology_unfolded(mask: int, nbr: list[int], p: int) -> dict[int, int]:
    """Reduced homology of Ind(G[mask]) from all of its faces."""
    faces = [0]
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        faces += [f | 1 << v for f in faces if not f & nbr[v]]
        m &= m - 1
    return _homology_from_faces(faces, p)


def _independence_homology(mask: int, nbr: list[int], p: int,
                           known: dict[int, dict[int, int]] | None = None) -> dict[int, int]:
    """Reduced homology of Ind(G[mask]), the complex of independent sets.

    G[mask] is folded first, which keeps the homotopy type and so the
    homology over every field; faces are built only for the components of
    what is left, and their homology is joined.  `known` maps connected
    vertex masks to their homology; it is read and filled.
    """
    if known is None:
        known = {}
    core = _fold(mask, nbr)
    if not core:
        return {}
    profile = {-1: 1}
    for comp in _components(core, nbr):
        part = known.get(comp)
        if part is None:
            part = known[comp] = _independence_homology_unfolded(comp, nbr, p)
        profile = _join(profile, part)
    return profile


def _masks_without_isolated_vertex(nbr: list[int]) -> Iterator[int]:
    """Every nonempty vertex mask of the graph in which each vertex has a
    neighbour, each once.

    Vertices are decided in BFS order, left out or taken in.  A vertex is
    checked as soon as it and all of its neighbours are decided, so a branch
    ends at its first isolated vertex.  Every branch still open can be
    completed by taking in the undecided neighbours of its vertices, so the
    walk visits at most n nodes per mask it yields.
    """
    n = len(nbr)
    order: list[int] = []
    seen = 0
    for root in range(n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        order.append(root)
        i = len(order) - 1
        while i < len(order):
            new = nbr[order[i]] & ~seen
            seen |= new
            while new:
                order.append((new & -new).bit_length() - 1)
                new &= new - 1
            i += 1
    # checks[i]: (bit, neighbours) of each vertex whose neighbourhood is
    # fully decided once order[i] is
    position = {v: i for i, v in enumerate(order)}
    checks: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for v in range(n):
        last = max([position[v]] + [position[w] for w in range(n) if nbr[v] >> w & 1])
        checks[last].append((1 << v, nbr[v]))

    stack = [(0, 0)]
    while stack:
        i, mask = stack.pop()
        if i == n:
            if mask:
                yield mask
            continue
        bit = 1 << order[i]
        for m in (mask, mask | bit):
            for v, around in checks[i]:
                if m & v and not m & around:
                    break
            else:
                stack.append((i + 1, m))


def _join(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Reduced homology of a join over a field:
    H~_{i+j+1}(A*B) = sum of H~_i(A) (x) H~_j(B); {-1: 1} is the unit."""
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j + 1] = out.get(i + j + 1, 0) + x * y
    return out


def betti_table(g: Graph, fld) -> BettiTable:
    """Exact graded Betti table of the edge ideal of g over GF(p).

    Hochster's formula, read on the Alexander dual of each edge-complement
    complex (the independence complex): beta_{j,d} is the sum over d-subsets
    W of dim H~_{d-j-1}(Ind(G[W])).  Subsets leaving a vertex isolated give
    cones and are never visited: a backtracking walk yields only the others.
    Ind of a disjoint union is the join of the parts' Ind complexes, so only
    connected induced subgraphs are reduced, each once per call, after
    folding away every dominated vertex.
    """
    p = _modulus(fld)
    n = g.nvertices
    if n > MAX_BETTI_VERTICES:
        raise ResourceLimitError(
            f"Betti table limited to {MAX_BETTI_VERTICES} vertices, got {n}",
            stage="betti_table")
    nbr = [0] * n
    for u, v in g.edges:
        i, j = g.index(u), g.index(v)
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i

    component_homology: dict[int, dict[int, int]] = {}
    entries: dict[tuple[int, int], int] = {}
    for mask in _masks_without_isolated_vertex(nbr):
        profile = {-1: 1}
        for comp in _components(mask, nbr):
            part = component_homology.get(comp)
            if part is None:
                part = component_homology[comp] = _independence_homology(
                    comp, nbr, p, component_homology)
            profile = _join(profile, part)
            if not profile:
                break
        d = mask.bit_count()
        for k, dim in profile.items():
            key = (d - k - 1, d)
            entries[key] = entries.get(key, 0) + dim

    table = BettiTable(entries)
    if g.nedges and table.get(1, 2) != g.nedges:
        raise AssertionError(
            f"Betti sanity check failed: entry (1,2)={table.get(1, 2)} != |E|={g.nedges}")
    return table


def projective_dimension(g: Graph, fld) -> int:
    """Top homological index of the Betti table of the edge ideal of g."""
    if g.nedges == 0:
        raise DomainError("projective dimension of an edgeless graph is undefined")
    return betti_table(g, fld).max_index
