"""Graph families whose edge ideals this toolkit studies.

Families: cycles (vertices x1..xn), lines, two cycles glued at a vertex
(x-cycle and y-cycle sharing x1), two cycles joined by a path (z1..zk
internal path vertices; k = 0 is a bridge edge), and disjoint unions.
Vertex labels map to ring variables in a fixed block order (x-block,
y-block, z-block) so downstream computations are reproducible.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import ResourceLimitError, UsageError
from .polyalg import Mono, PolyRing
from .records import FrozenRecord

MAX_COVER_VERTICES = 25


class ConstructionError(UsageError):
    """Family parameters out of range, or malformed graph data."""


class SpecParseError(UsageError):
    """A graph spec string does not match the mini-language grammar."""


class Graph(FrozenRecord):
    """Labeled undirected simple graph.

    `labels` fixes the vertex (and ring variable) order; `edges` holds each
    edge with endpoints in label order, the edge list sorted edge-lex.
    """

    __slots__ = ("labels", "edges", "_index")

    def __init__(self, labels: tuple[str, ...], edges: tuple[tuple[str, str], ...]):
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ConstructionError("duplicate vertex labels")
        seen = set()
        canon = []
        for u, v in edges:
            if u not in index or v not in index:
                raise ConstructionError(f"edge endpoint not declared: {(u, v)}")
            if u == v:
                raise ConstructionError(f"loop at {u}")
            a, b = sorted((u, v), key=index.__getitem__)
            if (a, b) in seen:
                raise ConstructionError(f"duplicate edge {(a, b)}")
            seen.add((a, b))
            canon.append((a, b))
        canon.sort(key=lambda e: (index[e[0]], index[e[1]]))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "_index", index)

    @property
    def nvertices(self) -> int:
        return len(self.labels)

    @property
    def nedges(self) -> int:
        return len(self.edges)

    def index(self, label: str) -> int:
        return self._index[label]

    def _known(self, *labels: str):
        for label in labels:
            if label not in self._index:
                raise ConstructionError(f"unknown vertex {label!r}")

    def has_edge(self, u: str, v: str) -> bool:
        self._known(u, v)
        a, b = sorted((u, v), key=self._index.__getitem__)
        return (a, b) in set(self.edges)

    def neighbors(self, label: str) -> tuple[str, ...]:
        self._known(label)
        out = []
        for u, v in self.edges:
            if u == label:
                out.append(v)
            elif v == label:
                out.append(u)
        return tuple(out)

    def degree(self, label: str) -> int:
        return len(self.neighbors(label))


class FamilySpec(NamedTuple):
    """Parsed family spec: kind plus integer parameters (or two union parts)."""

    kind: str
    params: tuple[int, ...] = ()
    parts: tuple["FamilySpec", ...] = ()

    def __str__(self):
        if self.kind == "union":
            return "union:" + "+".join(str(p) for p in self.parts)
        return f"{self.kind}:" + ",".join(map(str, self.params))


_ARITY = {"cycle": 1, "line": 1, "bicyclic": 2, "dumbbell": 3}


def parse_spec(text: str) -> FamilySpec:
    """Parse the mini-language: `cycle:7`, `line:5`, `bicyclic:4,5`,
    `dumbbell:3,1,4`, `union:cycle:4+line:2`."""
    text = text.strip()
    kind, sep, rest = text.partition(":")
    if kind == "union" and sep:
        halves = rest.split("+")
        if len(halves) != 2:
            raise SpecParseError(f"union takes exactly two operands: {text!r}")
        return FamilySpec("union", parts=tuple(parse_spec(h) for h in halves))
    if not sep or kind not in _ARITY:
        raise SpecParseError(f"unknown graph spec {text!r}")
    try:
        params = tuple(map(int, rest.split(",")))
    except ValueError:
        raise SpecParseError(f"non-integer parameter in {text!r}") from None
    if len(params) != _ARITY[kind]:
        raise SpecParseError(f"{kind} takes {_ARITY[kind]} parameter(s): {text!r}")
    return FamilySpec(kind, params)


def enumerate_specs(families: Iterable[str], max_vertices: int) -> list[FamilySpec]:
    """Every instance of the named families with at most `max_vertices`
    vertices: cycles, then lines, bicyclic and dumbbell graphs, each by
    increasing parameters (m <= n for the two cycle lengths)."""
    families = set(families)
    unknown = families - set(_ARITY)
    if unknown:
        raise SpecParseError(f"unknown families {sorted(unknown)}")
    out = []
    if "cycle" in families:
        out += [FamilySpec("cycle", (n,)) for n in range(3, max_vertices + 1)]
    if "line" in families:
        out += [FamilySpec("line", (n,)) for n in range(2, max_vertices + 1)]
    if "bicyclic" in families:
        out += [FamilySpec("bicyclic", (m, n))
                for m in range(3, max_vertices + 1)
                for n in range(m, max_vertices + 2 - m)]
    if "dumbbell" in families:
        out += [FamilySpec("dumbbell", (m, k, n))
                for m in range(3, max_vertices + 1)
                for n in range(m, max_vertices + 1)
                for k in range(0, max_vertices - m - n + 1)]
    return out


def _cycle_edges(labels):
    n = len(labels)
    edges = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    edges.append((labels[0], labels[n - 1]))
    return edges


def build(spec: FamilySpec) -> Graph:
    """Construct the labeled graph for a family spec."""
    if spec.kind == "cycle":
        (n,) = spec.params
        if n < 3:
            raise ConstructionError(f"cycle needs n >= 3, got {n}")
        labels = tuple(f"x{i}" for i in range(1, n + 1))
        return Graph(labels, tuple(_cycle_edges(labels)))

    if spec.kind == "line":
        (n,) = spec.params
        if n < 1:
            raise ConstructionError(f"line needs n >= 1, got {n}")
        labels = tuple(f"x{i}" for i in range(1, n + 1))
        edges = tuple((labels[i], labels[i + 1]) for i in range(n - 1))
        return Graph(labels, edges)

    if spec.kind == "bicyclic":
        m, n = spec.params
        if m < 3 or n < 3:
            raise ConstructionError(f"bicyclic needs m, n >= 3, got {(m, n)}")
        xs = tuple(f"x{i}" for i in range(1, m + 1))
        ys = ("x1",) + tuple(f"y{j}" for j in range(2, n + 1))  # y1 is x1
        labels = xs + ys[1:]
        edges = _cycle_edges(xs) + _cycle_edges(ys)
        return Graph(labels, tuple(edges))

    if spec.kind == "dumbbell":
        m, k, n = spec.params
        if m < 3 or n < 3 or k < 0:
            raise ConstructionError(f"dumbbell needs m, n >= 3 and k >= 0, got {(m, k, n)}")
        xs = tuple(f"x{i}" for i in range(1, m + 1))
        ys = tuple(f"y{j}" for j in range(1, n + 1))
        zs = tuple(f"z{h}" for h in range(1, k + 1))
        path = ("x1",) + zs + ("y1",)
        edges = (_cycle_edges(xs) + _cycle_edges(ys)
                 + [(path[i], path[i + 1]) for i in range(len(path) - 1)])
        return Graph(xs + ys + zs, tuple(edges))

    if spec.kind == "union":
        return disjoint_union(build(spec.parts[0]), build(spec.parts[1]))

    raise ConstructionError(f"unknown family kind {spec.kind!r}")


def build_from_string(text: str) -> Graph:
    return build(parse_spec(text))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; the second operand is relabeled into a fresh block."""
    used = {lab[0] for lab in g1.labels}
    prefix = next(ch for ch in "uvwpqrs" if ch not in used)
    rename = {lab: f"{prefix}{i + 1}" for i, lab in enumerate(g2.labels)}
    labels = g1.labels + tuple(rename[lab] for lab in g2.labels)
    edges = g1.edges + tuple((rename[u], rename[v]) for u, v in g2.edges)
    return Graph(labels, edges)


def edge_ideal(g: Graph) -> list[Mono]:
    """Squarefree quadratic monomial generators, one per edge, in edge-lex order."""
    nv = g.nvertices
    out = []
    for u, v in g.edges:
        e = [0] * nv
        e[g.index(u)] = 1
        e[g.index(v)] = 1
        out.append(tuple(e))
    return out


def ring_of(g: Graph, modulus: int) -> PolyRing:
    """Polynomial ring GF(modulus)[vertex labels] in block order."""
    return PolyRing(modulus, g.labels)


def induced_subgraph(g: Graph, W: Iterable[str]) -> Graph:
    keep = set(W)
    unknown = keep - set(g.labels)
    if unknown:
        raise ConstructionError(f"unknown labels {sorted(unknown)}")
    labels = tuple(lab for lab in g.labels if lab in keep)
    edges = tuple((u, v) for u, v in g.edges if u in keep and v in keep)
    return Graph(labels, edges)


def min_vertex_cover_size(g: Graph) -> int:
    """Exact minimum vertex cover size by branching: the first edge a
    partial cover misses needs one of its two ends, so both are tried, and
    a branch that cannot beat the smallest cover found so far is cut."""
    n = g.nvertices
    if n > MAX_COVER_VERTICES:
        raise ResourceLimitError(
            f"vertex cover search limited to {MAX_COVER_VERTICES} vertices, got {n}",
            stage="min_vertex_cover")
    edge_masks = [(1 << g.index(u)) | (1 << g.index(v)) for u, v in g.edges]
    best = n
    stack = [(0, 0)]  # (partial cover, its size)
    while stack:
        cover, size = stack.pop()
        missed = next((em for em in edge_masks if not cover & em), 0)
        if not missed:
            best = min(best, size)
        elif size + 1 < best:
            low = missed & -missed
            stack += ((cover | low, size + 1), (cover | missed ^ low, size + 1))
    return best
