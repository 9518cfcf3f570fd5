"""Radical generator sequences and the Schmitt-Vogel partition checker.

Each graph family gets an explicit ordered polynomial sequence of length
equal to the projective dimension of its edge ideal; the sequence generates
the edge ideal up to radical, witnessing the arithmetical-rank upper bound.

Cycle sequences are emitted directly.  The two bicyclic families are driven
by case tables below, one row per congruence pattern of the cycle lengths
(and of the path length k).  A row's layout is a function of

    A, B    the generator lists of the m-role and n-role cycle sequences
    P(i)    the path edge z_i z_{i+1}, as a one-edge generator; z_0 and
            z_{k+1} are the hubs of the m-role and n-role cycles
    k       the number of internal path vertices

and a generator is a list of edges, so `X + Y` merges two generators.  An
input whose residues match no row is served by the row for the swapped
residues, with the two cycle roles exchanged and the path reversed.

Every emitted sequence is checked at build time: its terms must cover the
edge set exactly and its length must match the closed-form value.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import UsageError
from .formulas import pd_cycle, pd_for_spec
from .graphs import FamilySpec, Graph, build, ring_of
from .polyalg import Mono, Polynomial, PolyRing, mono_divides, poly_to_json
from .records import FrozenRecord, Record

DEFAULT_SEQUENCE_MODULUS = 32003

Edge = tuple[str, str]
FormalPoly = list[Edge]
# a case-table row's layout: the generator sequence from A, B, P and k
Layout = Callable[[list[FormalPoly], list[FormalPoly], Callable[[int], FormalPoly], int],
                  list[FormalPoly]]


class TemplateError(RuntimeError):
    """A case-table layout failed its build-time checks."""


class GeneratorSequence(Record):
    """Ordered radical generators for the edge ideal of `graph`."""

    __slots__ = ("graph", "spec", "case_tag", "polys", "claimed_length")

    def __init__(self, graph: Graph, spec: FamilySpec, case_tag: str,
                 polys: tuple[Polynomial, ...], claimed_length: int):
        if claimed_length != len(polys):
            raise ValueError("claimed_length must equal the number of polynomials")
        self.graph = graph
        self.spec = spec
        self.case_tag = case_tag
        self.polys = polys
        self.claimed_length = claimed_length

    @property
    def ring(self) -> PolyRing:
        return self.polys[0].ring

    def to_json_dict(self) -> dict:
        return {
            "graph": str(self.spec),
            "case": self.case_tag,
            "length": self.claimed_length,
            "polys": [poly_to_json(q) for q in self.polys],
        }


# -- cycle sequences -----------------------------------------------------------

def _cycle_formal_polys(n: int, v) -> list[FormalPoly]:
    """Radical generators of the n-cycle ideal as lists of edges; `v` maps a
    1-based cycle position to its vertex label."""
    m, r = divmod(n, 3)
    qs: list[FormalPoly] = []
    if r == 0:
        qs.append([(v(1), v(2))])
        qs.append([(v(1), v(3 * m)), (v(2), v(3))])
        for i in range(1, m):
            qs.append([(v(3 * i + 1), v(3 * i + 2))])
            qs.append([(v(3 * i), v(3 * i + 1)), (v(3 * i + 2), v(3 * i + 3))])
    elif r == 1:
        qs.append([(v(1), v(2))])
        qs.append([(v(1), v(3 * m + 1)), (v(2), v(3))])
        for i in range(1, m):
            qs.append([(v(3 * i + 1), v(3 * i + 2))])
            qs.append([(v(3 * i), v(3 * i + 1)), (v(3 * i + 2), v(3 * i + 3))])
        qs.append([(v(3 * m), v(3 * m + 1))])
    else:
        qs.append([(v(1), v(2))])
        qs.append([(v(2), v(3)), (v(4), v(5))])
        for i in range(1, m):
            qs.append([(v(3 * i), v(3 * i + 1)), (v(3 * i + 2), v(3 * i + 3))])
            qs.append([(v(3 * i + 2), v(3 * i + 3)), (v(3 * i + 4), v(3 * i + 5))])
        qs.append([(v(1), v(3 * m + 2)), (v(3 * m), v(3 * m + 1))])
    return qs


def _edge_poly(ring: PolyRing, edges: FormalPoly) -> Polynomial:
    acc: dict[Mono, int] = {}
    for u, v in edges:
        mono = ring.monomial(u, v)
        acc[mono] = acc.get(mono, 0) + 1
    return ring.poly(acc)


def _finish(spec: FamilySpec, graph: Graph, case_tag: str,
            formal: list[FormalPoly], modulus: int) -> GeneratorSequence:
    """Materialize formal polynomials over GF(modulus) and run build checks."""
    expected = pd_for_spec(spec)
    used = {frozenset(e) for q in formal for e in q}
    have = {frozenset(e) for e in graph.edges}
    if used != have:
        raise TemplateError(
            f"{case_tag}: sequence terms cover {sorted(map(sorted, used))} "
            f"instead of the edge set of {spec}")
    if expected is not None and len(formal) != expected.value:
        raise TemplateError(
            f"{case_tag}: sequence length {len(formal)} != closed-form value "
            f"{expected.value} for {spec}")
    ring = ring_of(graph, modulus)
    polys = tuple(_edge_poly(ring, q) for q in formal)
    return GeneratorSequence(graph, spec, case_tag, polys, len(polys))


def cycle_sequence(n: int, modulus: int = DEFAULT_SEQUENCE_MODULUS) -> GeneratorSequence:
    """The explicit radical generators of the n-cycle edge ideal."""
    spec = FamilySpec("cycle", (n,))
    graph = build(spec)
    case = f"cycle {pd_cycle(n).case_tag}"
    formal = _cycle_formal_polys(n, lambda j: f"x{j}")
    return _finish(spec, graph, case, formal, modulus)


# -- bicyclic case tables ----------------------------------------------------------

def _fold(X: list[FormalPoly], extra: FormalPoly) -> list[FormalPoly]:
    """X with `extra` merged into its last generator, which moves third."""
    return [X[0], X[1], X[-1] + extra, *X[2:-1]]


def _hang(X: list[FormalPoly], end: FormalPoly, inner: FormalPoly) -> list[FormalPoly]:
    """The path edge `end` at X's hub, then the next path edge `inner`
    merged into X's first generator."""
    return [end, inner + X[0], *X[1:]]


def _chain(P: Callable[[int], FormalPoly], a: int, j: int) -> list[FormalPoly]:
    """j pairs P(a+3t), P(a+3t-1) + P(a+3t+1) covering a run of path edges;
    j = 0 emits nothing, which instantiates a layout at small k."""
    out = []
    for t in range(j):
        b = a + 3 * t
        out += [P(b), P(b - 1) + P(b + 1)]
    return out


# two cycles sharing a vertex: (m % 3, n % 3) -> (case tag, layout)
_VERTEX_JOIN: dict[tuple[int, int], tuple[str, Layout]] = {
    (2, 0): ("vertex-join |V|≡1, m≡2, n≡0", lambda A, B, P, k: A + B),
    (1, 1): ("vertex-join |V|≡1, m≡1, n≡1, merged", lambda A, B, P, k: _fold(A, B[0]) + B[1:]),
    (2, 2): ("vertex-join |V|≡0, m≡2, n≡2", lambda A, B, P, k: A + B),
    (1, 0): ("vertex-join |V|≡0, m≡1, n≡0, merged", lambda A, B, P, k: _fold(A, B[0]) + B[1:]),
    (0, 0): ("vertex-join |V|≡2, m≡0, n≡0", lambda A, B, P, k: A + B),
    (1, 2): ("vertex-join |V|≡2, m≡1, n≡2, merged", lambda A, B, P, k: _fold(A, B[0]) + B[1:]),
}

# two cycles joined by a path with k internal vertices: keyed by "bridge"
# (k = 0) or k % 3, then (m % 3, n % 3) -> (case tag, layout)
_PATH_JOIN: dict[int | str, dict[tuple[int, int], tuple[str, Layout]]] = {
    2: {
        (1, 1): ("path-join k≡2, m≡1, n≡1", lambda A, B, P, k:
                 _fold(A, P(0)) + _hang(B, P(k), P(k - 1)) + _chain(P, 2, (k - 2) // 3)),
        (0, 1): ("path-join k≡2, m≡0, n≡1", lambda A, B, P, k:
                 _fold(B, P(k)) + _hang(A, P(0), P(1)) + _chain(P, 3, (k - 2) // 3)),
        (2, 1): ("path-join k≡2, m≡2, n≡1", lambda A, B, P, k:
                 _hang(A, P(0), P(1)) + _chain(P, 3, (k - 2) // 3) + _fold(B, P(k))),
        (0, 2): ("path-join k≡2, m≡0, n≡2", lambda A, B, P, k:
                 B + A + _chain(P, 1, (k + 1) // 3)),
        (2, 2): ("path-join k≡2, m≡2, n≡2", lambda A, B, P, k:
                 A + B + _chain(P, 1, (k + 1) // 3)),
        (0, 0): ("path-join k≡2, m≡0, n≡0", lambda A, B, P, k:
                 B + A + _chain(P, 1, (k + 1) // 3)),
    },
    "bridge": {
        (1, 1): ("path-join bridge, m≡1, n≡1", lambda A, B, P, k: _fold(A, P(0)) + B),
        (2, 1): ("path-join bridge, m≡2, n≡1", lambda A, B, P, k: _fold(B, P(0)) + A),
        (0, 1): ("path-join bridge, m≡0, n≡1", lambda A, B, P, k: _fold(B, P(0)) + A),
        (0, 2): ("path-join bridge, m≡0, n≡2", lambda A, B, P, k:
                 [P(0), A[0] + B[0], *A[1:], *B[1:]]),
        (2, 2): ("path-join bridge, m≡2, n≡2", lambda A, B, P, k:
                 [P(0), A[0] + B[0], *A[1:], *B[1:]]),
        (0, 0): ("path-join bridge, m≡0, n≡0", lambda A, B, P, k:
                 [P(0), A[0] + B[0], *A[1:], *B[1:]]),
    },
    0: {
        (1, 1): ("path-join k≡0, m≡1, n≡1", lambda A, B, P, k:
                 _fold(A, P(0)) + _chain(P, 2, k // 3) + B),
        (2, 1): ("path-join k≡0, m≡2, n≡1", lambda A, B, P, k:
                 _fold(B, P(k)) + _chain(P, 1, k // 3) + A),
        (0, 1): ("path-join k≡0, m≡0, n≡1", lambda A, B, P, k:
                 _fold(B, P(k)) + _chain(P, 1, k // 3) + A),
        (0, 2): ("path-join k≡0, m≡0, n≡2", lambda A, B, P, k:
                 _hang(A, P(0), P(1)) + _chain(P, 3, (k - 3) // 3) + _hang(B, P(k), P(k - 1))),
        (2, 2): ("path-join k≡0, m≡2, n≡2", lambda A, B, P, k:
                 _hang(B, P(k), P(k - 1)) + _hang(A, P(0), P(1)) + _chain(P, 3, (k - 3) // 3)),
        (0, 0): ("path-join k≡0, m≡0, n≡0", lambda A, B, P, k:
                 _hang(A, P(0), P(1)) + _chain(P, 3, (k - 3) // 3) + _hang(B, P(k), P(k - 1))),
    },
    1: {
        (0, 1): ("path-join k≡1, m≡0, n≡1", lambda A, B, P, k:
                 B + _hang(A, P(0), P(1)) + _chain(P, 3, (k - 1) // 3)),
        (2, 1): ("path-join k≡1, m≡2, n≡1", lambda A, B, P, k:
                 _hang(A, P(0), P(1)) + _chain(P, 3, (k - 1) // 3) + B),
        (1, 1): ("path-join k≡1, m≡1, n≡1", lambda A, B, P, k:
                 _fold(A, P(0)) + _fold(B, P(k)) + _chain(P, 2, (k - 1) // 3)),
        (2, 0): ("path-join k≡1, m≡2, n≡0", lambda A, B, P, k:
                 _hang(A, P(0), P(1)) + _chain(P, 3, (k - 1) // 3) + B),
        (2, 2): ("path-join k≡1, m≡2, n≡2", lambda A, B, P, k:
                 A + _hang(B, P(k), P(k - 1)) + _chain(P, 1, (k - 1) // 3)),
        (0, 0): ("path-join k≡1, m≡0, n≡0", lambda A, B, P, k:
                 _hang(A, P(0), P(1)) + _chain(P, 3, (k - 1) // 3) + B),
    },
}


# -- bicyclic sequences ----------------------------------------------------------

def _joined_sequence(spec: FamilySpec, table: dict[tuple[int, int], tuple[str, Layout]],
                     k: int, y1: str, modulus: int) -> GeneratorSequence:
    """Cycles x1..xm and y1..yn (y1 labelled `y1`: x1 when they share a
    vertex) joined through z1..zk, laid out by `table`'s row for
    (m % 3, n % 3), else by the row for (n % 3, m % 3) with the two cycle
    roles exchanged and the path reversed."""
    graph = build(spec)
    m, n = spec.params[0], spec.params[-1]
    swapped = (m % 3, n % 3) not in table
    case, layout = table[(n % 3, m % 3) if swapped else (m % 3, n % 3)]
    qx = _cycle_formal_polys(m, lambda j: f"x{j}")
    qy = _cycle_formal_polys(n, lambda j: y1 if j == 1 else f"y{j}")

    def vertex(i):
        return "x1" if i == 0 else y1 if i == k + 1 else f"z{i}"

    def P(i: int) -> FormalPoly:
        if not 0 <= i <= k:
            raise TemplateError(f"path edge index {i} out of range 0..{k}")
        if swapped:
            i = k - i
        return [(vertex(i), vertex(i + 1))]

    A, B = (qy, qx) if swapped else (qx, qy)
    case += ", roles swapped" if swapped else ""
    return _finish(spec, graph, case, layout(A, B, P, k), modulus)


def bicyclic_vertex_sequence(m: int, n: int,
                             modulus: int = DEFAULT_SEQUENCE_MODULUS) -> GeneratorSequence:
    """Radical generators for two cycles (lengths m, n) sharing the vertex x1."""
    return _joined_sequence(FamilySpec("bicyclic", (m, n)), _VERTEX_JOIN, 0, "x1", modulus)


def dumbbell_sequence(m: int, k: int, n: int,
                      modulus: int = DEFAULT_SEQUENCE_MODULUS) -> GeneratorSequence:
    """Radical generators for two cycles (lengths m, n) joined by a path with
    k internal vertices (k = 0 is the bridge edge x1 y1)."""
    table = _PATH_JOIN["bridge" if k == 0 else k % 3]
    return _joined_sequence(FamilySpec("dumbbell", (m, k, n)), table, k, "y1", modulus)


def sequence_for(spec: FamilySpec, modulus: int = DEFAULT_SEQUENCE_MODULUS) -> GeneratorSequence:
    """Dispatch over the families that carry explicit sequences."""
    if spec.kind == "cycle":
        return cycle_sequence(spec.params[0], modulus)
    if spec.kind == "bicyclic":
        return bicyclic_vertex_sequence(*spec.params, modulus=modulus)
    if spec.kind == "dumbbell":
        return dumbbell_sequence(*spec.params, modulus=modulus)
    raise UsageError(f"no generator sequence is defined for family {spec.kind!r}")


# -- Schmitt-Vogel partitions ------------------------------------------------------

class SVPartition(Record):
    """Ordered parts P_0..P_r of monomials with per-monomial exponents.

    The part sums generate the target monomial set up to radical whenever the
    checker accepts: the parts cover the target, P_0 is a singleton, and any
    two distinct members of a later part have their product divisible by a
    member of an earlier part.
    """

    __slots__ = ("ring", "parts", "target", "exponents")

    def __init__(self, ring: PolyRing, parts: tuple[tuple[Mono, ...], ...],
                 target: frozenset, exponents: dict | None = None):
        self.ring = ring
        self.parts = parts
        self.target = target
        self.exponents = {} if exponents is None else exponents

    def exponent(self, mono: Mono) -> int:
        return self.exponents.get(mono, 1)


class SVCheckResult(FrozenRecord):
    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[str, ...] = ()):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "violations", violations)

    def __bool__(self):
        return self.ok


def sv_check(partition: SVPartition) -> SVCheckResult:
    """Validate the three partition conditions; collects every violation."""
    problems = []
    parts = partition.parts
    if not parts:
        return SVCheckResult(False, ("partition has no parts",))

    union = {m for part in parts for m in part}
    if union != set(partition.target):
        missing = set(partition.target) - union
        extra = union - set(partition.target)
        if missing:
            problems.append(f"(i) parts miss target monomials: {sorted(missing)}")
        if extra:
            problems.append(f"(i) parts contain non-target monomials: {sorted(extra)}")

    if len(parts[0]) != 1:
        problems.append(f"(ii) first part has {len(parts[0])} elements instead of 1")

    for i in range(1, len(parts)):
        earlier = [q for part in parts[:i] for q in part]
        members = parts[i]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                prod = tuple(x + y for x, y in zip(members[a], members[b]))
                if not any(mono_divides(q, prod) for q in earlier):
                    problems.append(
                        f"(iii) no earlier element divides the product of pair "
                        f"{(members[a], members[b])} in part {i}")

    for mono, e in partition.exponents.items():
        if e < 1:
            problems.append(f"exponent {e} < 1 on {mono}")

    return SVCheckResult(not problems, tuple(problems))


def sv_sums(partition: SVPartition) -> list[Polynomial]:
    """Part sums q_i = sum of m^e(m) over each part; these generate the target
    monomial ideal up to radical once sv_check accepts."""
    result = sv_check(partition)
    if not result:
        raise ValueError("partition fails the checker: " + "; ".join(result.violations))
    ring = partition.ring
    out = []
    for part in partition.parts:
        acc: dict[Mono, int] = {}
        for mono in part:
            e = partition.exponent(mono)
            powered = tuple(x * e for x in mono)
            acc[powered] = acc.get(powered, 0) + 1
        out.append(ring.poly(acc))
    return out


def cycle_sv_partition(n: int, modulus: int = DEFAULT_SEQUENCE_MODULUS) -> SVPartition:
    """The documented partition behind the n-cycle sequence, for n ≡ 0 or
    1 mod 3: the single-monomial generators come first (each a singleton
    part), then each binomial contributes its pair of summands as one part."""
    if n % 3 == 2:
        raise ValueError(
            "the n≡2 sequences are not produced by a single partition; "
            "their certificate is checked directly via radical membership")
    seq = cycle_sequence(n, modulus)
    ring = seq.ring
    singles: list[tuple[Mono, ...]] = []
    pairs: list[tuple[Mono, ...]] = []
    for q in seq.polys:
        monos = q.monomials()
        if len(monos) == 1:
            singles.append(monos)
        else:
            pairs.append(monos)
    target = frozenset(ring.monomial(u, v) for u, v in seq.graph.edges)
    return SVPartition(ring, tuple(singles + pairs), target)
