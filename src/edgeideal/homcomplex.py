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
subsets W are never listed one by one: a recursion on vertex sets, memoized
within one table, splits off the connected set of G[W] that holds the lowest
vertex and recurses on what lies outside its closed neighbourhood, so a
W that leaves a vertex isolated (a cone) never arises, and a connected set
whose Ind is contractible ends its branch.  Each connected set is first
folded (Engstrom's lemma: a vertex whose neighbourhood contains another
vertex's neighbourhood can be deleted without changing the homotopy type of
Ind), then every induced chain of three degree-2 vertices is contracted to
one edge, which lowers the homology of Ind by one degree (Csorba, Subdivision
yields Alexander duality on independence complexes, Electron. J. Combin.
16(2) (2009)), and faces are built only for what neither step can shrink.
Only that last step depends on the field, so `betti_tables` computes the
tables of several fields in one pass, each core's faces reduced over each
field, and runs once per field only when two fields give some core
different homology; `betti_table` is its one-field case, and a `Hochster`
set-up hands the tables of one pass to one call per field.

Homology is computed from boundary-matrix ranks over the chosen prime field:
one sparse exact reducer for every prime, reduced top-down with clearing.
Reduced conventions: the complex {emptyset} has one dimension of homology in
degree -1; the void complex has none anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import ResourceLimitError
from .graphs import Graph
from .polyalg import prime_modulus
from .records import FrozenRecord, Record

MAX_HOMOLOGY_VERTICES = 22
MAX_BETTI_VERTICES = 20


class DomainError(ValueError):
    """The requested object is undefined for this input (e.g. edgeless graph)."""


# -- simplicial complexes ------------------------------------------------------

class SimplicialComplex(FrozenRecord):
    """Facet-list simplicial complex.

    Facets are stored inclusion-maximal and deduplicated.  The complex with a
    single empty facet (written {emptyset}) is representable and distinct from
    the void complex, which has no facets at all.
    """

    __slots__ = ("vertices", "facets")

    def __init__(self, vertices: tuple[str, ...], facets: tuple[frozenset, ...]):
        known = set(vertices)
        for f in facets:
            if not f <= known:
                raise ValueError(f"facet {sorted(f)} uses undeclared vertices")
        maximal = []
        for f in facets:
            if any(f < g for g in facets):
                continue
            if f not in maximal:
                maximal.append(f)
        order = {v: i for i, v in enumerate(vertices)}
        maximal.sort(key=lambda f: (len(f), sorted(order[v] for v in f)))
        object.__setattr__(self, "vertices", vertices)
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
    p = prime_modulus(fld)
    if len(c.vertices) > MAX_HOMOLOGY_VERTICES:
        raise ResourceLimitError(
            f"homology limited to {MAX_HOMOLOGY_VERTICES} vertices, got {len(c.vertices)}",
            stage="homology")
    masks, _ = c.facet_masks()
    return _profile_from_facet_masks(masks, p)


# -- Betti tables ---------------------------------------------------------------

class BettiTable(Record):
    """Graded Betti numbers: (homological index, degree) -> dimension > 0."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict[tuple[int, int], int] | None = None):
        self.entries = {} if entries is None else entries

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


class _FieldsDiffer(Exception):
    """Two of the requested fields give a core different homology."""


def _independence_homology_unfolded(mask: int, nbr: list[int],
                                    moduli: tuple[int, ...]) -> dict[int, int]:
    """Reduced homology of Ind(G[mask]) from all of its faces, built once
    and reduced over each GF(p) with p in `moduli`; raises _FieldsDiffer
    unless every field gives the same."""
    faces = [0]
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        faces += [f | 1 << v for f in faces if not f & nbr[v]]
        m &= m - 1
    profile = _homology_from_faces(faces, moduli[0])
    for p in moduli[1:]:
        if _homology_from_faces(faces, p) != profile:
            raise _FieldsDiffer
    return profile


def _independence_homology(mask: int, nbr: list[int], moduli: tuple[int, ...],
                           known: dict[int, dict[int, int]] | None = None) -> dict[int, int]:
    """Reduced homology of Ind(G[mask]), the complex of independent sets,
    over every GF(p) with p in `moduli`, or _FieldsDiffer where two differ.

    G[mask] is folded first, and each component of what is left has its
    induced chains contracted (Csorba's subdivision lemma, see
    `_contracted_homology`) before faces are built; both steps keep the
    homotopy type up to suspension, so the homology is exact over every
    field.  The components' homology is joined.  `known` maps connected
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
            part = known[comp] = _contracted_homology(comp, nbr, moduli)
        profile = _join(profile, part)
    return profile


def _contracted_homology(mask: int, nbr: list[int],
                        moduli: tuple[int, ...]) -> dict[int, int]:
    """Reduced homology of Ind(G[mask]) for a folded, connected G[mask].

    If u-a-b-c-w is a path whose inner vertices a, b, c have degree 2, with
    a and c not adjacent and u != w, then G is G' with its edge uw replaced
    by that path, and Ind(G) is homotopy equivalent to the suspension of
    Ind(G') (Csorba, Electron. J. Combin. 16(2) (2009)).  G' may have had
    the edge uw already; Ind does not see a parallel edge.  One pass
    contracts every such chain on a copy of the neighbour masks, and what
    is left is folded and reduced again, its homology one degree higher per
    contraction; with no chain left, faces are built.
    """
    nbr = list(nbr)
    shift = 0
    rest = mask
    while rest:
        b = rest & -rest
        rest ^= b
        ends = nbr[b.bit_length() - 1] & mask
        if not b & mask or ends.bit_count() != 2:
            continue
        a = ends & -ends
        c = ends ^ a
        ia, ic = a.bit_length() - 1, c.bit_length() - 1
        u = nbr[ia] & mask ^ b
        w = nbr[ic] & mask ^ b
        if u.bit_count() != 1 or w.bit_count() != 1 or u == w or nbr[ia] & c:
            continue
        mask ^= a | b | c
        nbr[u.bit_length() - 1] |= w
        nbr[w.bit_length() - 1] |= u
        shift += 1
    if not shift:
        return _independence_homology_unfolded(mask, nbr, moduli)
    return {d + shift: x for d, x in _independence_homology(mask, nbr, moduli).items()}


def _join(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Reduced homology of a join over a field:
    H~_{i+j+1}(A*B) = sum of H~_i(A) (x) H~_j(B); {-1: 1} is the unit."""
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j + 1] = out.get(i + j + 1, 0) + x * y
    return out


def _bfs_neighbour_masks(g: Graph) -> list[int]:
    """Neighbour masks of g, its vertices relabelled in BFS order."""
    position: dict[str, int] = {}
    for root in g.labels:
        if root in position:
            continue
        position[root] = len(position)
        queue = [root]
        for u in queue:
            for w in g.neighbors(u):
                if w not in position:
                    position[w] = len(position)
                    queue.append(w)
    nbr = [0] * g.nvertices
    for u, v in g.edges:
        i, j = position[u], position[v]
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return nbr


def _connected_sets(v: int, mask: int, nbr: list[int]) -> Iterator[tuple[int, int]]:
    """(C, N[C]) for every connected vertex set C of G[mask] that contains
    v, each once, with N[C] its closed neighbourhood in G.

    Each branch takes in or leaves out the lowest vertex adjacent to C that
    is not yet decided, so every branch ends in a set of its own.
    """
    low = 1 << v
    stack = [(low, nbr[v] & mask, low | nbr[v] & mask, low | nbr[v])]
    while stack:
        comp, ext, seen, closed = stack.pop()
        if not ext:
            yield comp, closed
            continue
        u = ext & -ext
        ext ^= u
        around = nbr[u.bit_length() - 1]
        new = around & mask & ~seen
        stack.append((comp, ext, seen, closed))
        stack.append((comp | u, ext | new, seen | new, closed | around))


def _hochster_series(nbr: list[int], moduli: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """(|W|, degree) -> sum of dim H~_degree(Ind(G[W])) over every vertex
    set W that leaves no vertex isolated, W empty included, over every
    GF(p) with p in `moduli`; raises _FieldsDiffer where two fields give a
    core different homology.  See `betti_tables` for the recursion."""
    # series[A]: the same sum over the W inside the vertex set A
    component_homology: dict[int, dict[int, int]] = {}
    series: dict[int, dict[tuple[int, int], int]] = {0: {(0, -1): 1}}

    def sums(mask: int) -> dict[tuple[int, int], int]:
        out = series.get(mask)
        if out is not None:
            return out
        low = mask & -mask
        out = dict(sums(mask ^ low))
        for comp, closed in _connected_sets(low.bit_length() - 1, mask, nbr):
            if comp == low:
                continue
            part = component_homology.get(comp)
            if part is None:
                part = component_homology[comp] = _independence_homology(
                    comp, nbr, moduli, component_homology)
            if not part:
                continue
            size = comp.bit_count()
            for (d, k), x in sums(mask & ~closed).items():
                for i, y in part.items():
                    key = (d + size, k + i + 1)
                    out[key] = out.get(key, 0) + x * y
        series[mask] = out
        return out

    try:
        return sums((1 << len(nbr)) - 1)
    finally:
        del sums  # the closure refers to itself: let the memos go with the call


def betti_tables(g: Graph, fields) -> tuple[BettiTable, ...]:
    """Exact graded Betti tables of the edge ideal of g, one over each
    GF(p) with p in `fields`, in that order.

    Hochster's formula, read on the Alexander dual of each edge-complement
    complex (the independence complex): beta_{j,d} is the sum over d-subsets
    W of dim H~_{d-j-1}(Ind(G[W])), where W leaving a vertex isolated gives
    a cone and adds nothing.  Ind of a disjoint union is the join of the
    parts' Ind complexes, so the sum is taken by a recursion on vertex sets
    A, memoized within the call.  With v the lowest vertex of A, either v
    is not in W, or v lies in a component C of G[W] with at least two
    vertices and the rest of W lies inside A - N[C]; Ind(G[W]) is then
    Ind(G[C]) joined with Ind of the rest.  Every connected C is reduced
    once per call, after folding away every dominated vertex, and a C whose
    Ind is contractible adds nothing, so its A - N[C] is never visited.
    Vertices are relabelled in BFS order, so v's neighbours come soon after
    it; on `dumbbell:4,4,4` and `dumbbell:3,4,5` that meets 40-55% fewer
    connected sets than the label order does.

    None of that depends on the field but the homology of the cores whose
    faces are built, so one pass serves every field: each core's faces are
    reduced over each field, and while they all agree the series is the
    same for every field.  The first core where two fields differ (torsion,
    as in a flag RP^2) stops the pass, and the recursion runs once per
    field instead.
    """
    moduli = tuple(map(prime_modulus, fields))
    if not moduli:
        raise ValueError("Betti tables need at least one field")
    n = g.nvertices
    if n > MAX_BETTI_VERTICES:
        raise ResourceLimitError(
            f"Betti table limited to {MAX_BETTI_VERTICES} vertices, got {n}",
            stage="betti_table")
    nbr = _bfs_neighbour_masks(g)
    try:
        roots = [_hochster_series(nbr, moduli)] * len(moduli)
    except _FieldsDiffer:
        roots = [_hochster_series(nbr, (p,)) for p in moduli]

    tables = []
    for root in roots:
        table = BettiTable({(d - k - 1, d): dim for (d, k), dim in root.items() if d})
        if g.nedges and table.get(1, 2) != g.nedges:
            raise AssertionError(
                f"Betti sanity check failed: entry (1,2)={table.get(1, 2)} != |E|={g.nedges}")
        tables.append(table)
    return tuple(tables)


class Hochster:
    """The Betti tables of the edge ideal of `graph` over each GF(p) with p
    in `moduli`, for `betti_table(graph, p, setup=...)` to hand out: the
    first call computes every table in one `betti_tables` pass, and each
    call takes its field's table out, so the last leaves nothing behind."""

    __slots__ = ("graph", "moduli", "tables")

    def __init__(self, graph: Graph, moduli: tuple[int, ...]):
        self.graph = graph
        self.moduli = moduli
        self.tables: dict[int, BettiTable] | None = None  # None until the pass

    def take(self, g: Graph, p: int) -> BettiTable:
        """The table over GF(p) of g, which must be the set-up's graph."""
        if g != self.graph:
            raise ValueError("the set-up was built for another graph")
        if self.tables is None:
            self.tables = dict(zip(self.moduli, betti_tables(self.graph, self.moduli)))
        table = self.tables.pop(p, None)
        if table is None:
            raise ValueError(f"no table over GF({p}) is left among {list(self.moduli)}")
        return table


def betti_table(g: Graph, fld, *, setup: Hochster | None = None) -> BettiTable:
    """Exact graded Betti table of the edge ideal of g over GF(p): the
    one-field case of `betti_tables`.  `setup`, if given, is the `Hochster`
    set-up of g for the fields of one certification, and the table is taken
    from it."""
    p = prime_modulus(fld)
    if setup is None:
        return betti_tables(g, (p,))[0]
    return setup.take(g, p)


def projective_dimension(g: Graph, fld, *, setup: Hochster | None = None) -> int:
    """Top homological index of the Betti table of the edge ideal of g."""
    if g.nedges == 0:
        raise DomainError("projective dimension of an edgeless graph is undefined")
    return betti_table(g, fld, setup=setup).max_index
