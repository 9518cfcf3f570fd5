"""Radical generator sequences and the Schmitt-Vogel partition checker.

Each graph family gets an explicit ordered polynomial sequence of length
equal to the projective dimension of its edge ideal; the sequence generates
the edge ideal up to radical, witnessing the arithmetical-rank upper bound.

Cycle sequences are emitted directly.  The two bicyclic families are driven
by case tables shipped as JSON data (one row per congruence pattern), each
row a layout in a tiny DSL:

    A[i], B[i]      one generator of the m-role / n-role cycle sequence
    A[i..j]         the inclusive slice (empty when i > j); r and s denote
                    the last indices of A and B
    P[i]            the path edge z_i z_{i+1}; z_0 and z_{k+1} are the hubs
    X+Y             the sum of two entries, merged into one generator
    chain(a, j)     j pairs P[a+3t], P[a+3t-1]+P[a+3t+1] covering a run of
                    path edges; j = 0 instantiates the template at small k

Every emitted sequence is checked at build time: its terms must cover the
edge set exactly and its length must match the closed-form value.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from .errors import UsageError
from .formulas import pd_cycle, pd_for_spec
from .graphs import FamilySpec, Graph, build, ring_of
from .polyalg import Mono, Polynomial, PolyRing, mono_divides

DEFAULT_SEQUENCE_MODULUS = 32003

Edge = tuple[str, str]
FormalPoly = list[Edge]


class TemplateError(RuntimeError):
    """A case-table layout failed its build-time checks."""


@dataclass
class GeneratorSequence:
    """Ordered radical generators for the edge ideal of `graph`."""

    graph: Graph
    spec: FamilySpec
    case_tag: str
    polys: tuple[Polynomial, ...]
    claimed_length: int

    def __post_init__(self):
        if self.claimed_length != len(self.polys):
            raise ValueError("claimed_length must equal the number of polynomials")

    @property
    def ring(self) -> PolyRing:
        return self.polys[0].ring

    def to_json_dict(self) -> dict:
        from .polyalg import poly_to_json
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


# -- layout DSL ----------------------------------------------------------------

_ATOM_RE = re.compile(r"^([ABP])\[([^\]]+)\]$")
_RANGE_RE = re.compile(r"^([AB])\[([^.\]]+)\.\.([^.\]]+)\]$")
_CHAIN_RE = re.compile(r"^chain\((.+)\)$")


def _eval_index(text: str, env: dict[str, int]) -> int:
    """Evaluate an integer index expression over the names r, s, k."""
    def ev(node):
        if isinstance(node, ast.BinOp):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                q, rem = divmod(a, b)
                if rem:
                    raise TemplateError(f"inexact division in index {text!r}")
                return q
            raise TemplateError(f"unsupported operator in {text!r}")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value
        if isinstance(node, ast.Name) and node.id in env:
            return env[node.id]
        raise TemplateError(f"unsupported index expression {text!r}")
    return ev(ast.parse(text, mode="eval").body)


def _split_top(text: str, sep: str) -> list[str]:
    """Split on `sep` outside brackets and parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _expand_layout(layout: list[str], qa: list[FormalPoly], qb: list[FormalPoly],
                   path_edge, k: int) -> list[FormalPoly]:
    env = {"r": len(qa) - 1, "s": len(qb) - 1, "k": k}

    def pedge(i: int) -> Edge:
        if not 0 <= i <= k:
            raise TemplateError(f"path edge index {i} out of range 0..{k}")
        return path_edge(i)

    def atom(text: str) -> FormalPoly:
        m = _ATOM_RE.match(text)
        if not m:
            raise TemplateError(f"bad atom {text!r}")
        kind, expr = m.groups()
        i = _eval_index(expr, env)
        if kind == "P":
            return [pedge(i)]
        seq = qa if kind == "A" else qb
        if not 0 <= i < len(seq):
            raise TemplateError(f"{kind}[{i}] out of range")
        return list(seq[i])

    out: list[FormalPoly] = []
    for item in layout:
        item = item.strip()
        m = _CHAIN_RE.match(item)
        if m:
            args = _split_top(m.group(1), ",")
            if len(args) != 2:
                raise TemplateError(f"chain takes two arguments: {item!r}")
            a = _eval_index(args[0], env)
            npairs = _eval_index(args[1], env)
            if npairs < 0:
                raise TemplateError(f"negative chain length in {item!r}")
            for t in range(npairs):
                base = a + 3 * t
                out.append([pedge(base)])
                out.append([pedge(base - 1), pedge(base + 1)])
            continue
        m = _RANGE_RE.match(item)
        if m:
            kind, lo, hi = m.groups()
            seq = qa if kind == "A" else qb
            start, stop = _eval_index(lo, env), _eval_index(hi, env)
            if start < 0 or stop >= len(seq):
                raise TemplateError(f"range {item!r} outside 0..{len(seq) - 1}")
            for i in range(start, stop + 1):
                out.append(list(seq[i]))
            continue
        pieces = _split_top(item, "+")
        merged: FormalPoly = []
        for piece in pieces:
            merged.extend(atom(piece))
        out.append(merged)
    return out


@lru_cache(maxsize=None)
def _case_rows(name: str) -> tuple[dict, ...]:
    raw = resources.files("edgeideal.data").joinpath(name).read_text()
    return tuple(json.loads(raw)["rows"])


def _pick_row(rows, want_m: int, want_n: int, extra=None) -> tuple[dict, bool]:
    """Row matching the residues directly, else the role-swapped row."""
    def ok(row, mm, nn):
        if row["m_mod"] != mm or row["n_mod"] != nn:
            return False
        return extra is None or extra(row)
    for row in rows:
        if ok(row, want_m, want_n):
            return row, False
    for row in rows:
        if ok(row, want_n, want_m):
            return row, True
    raise TemplateError(f"no case row for residues ({want_m}, {want_n})")


# -- bicyclic sequences ----------------------------------------------------------

def bicyclic_vertex_sequence(m: int, n: int,
                             modulus: int = DEFAULT_SEQUENCE_MODULUS) -> GeneratorSequence:
    """Radical generators for two cycles (lengths m, n) sharing the vertex x1."""
    spec = FamilySpec("bicyclic", (m, n))
    graph = build(spec)
    row, swapped = _pick_row(_case_rows("vertex_join_cases.json"), m % 3, n % 3)

    def x_vertex(j):
        return f"x{j}"

    def y_vertex(j):
        return "x1" if j == 1 else f"y{j}"

    if not swapped:
        qa = _cycle_formal_polys(m, x_vertex)
        qb = _cycle_formal_polys(n, y_vertex)
    else:
        qa = _cycle_formal_polys(n, y_vertex)
        qb = _cycle_formal_polys(m, x_vertex)

    formal = _expand_layout(row["layout"], qa, qb, _no_path_edges, 0)
    case = row["case"] + (", roles swapped" if swapped else "")
    return _finish(spec, graph, case, formal, modulus)


def _no_path_edges(i: int) -> Edge:
    raise TemplateError("vertex-join layouts have no path edges")


def dumbbell_sequence(m: int, k: int, n: int,
                      modulus: int = DEFAULT_SEQUENCE_MODULUS) -> GeneratorSequence:
    """Radical generators for two cycles (lengths m, n) joined by a path with
    k internal vertices (k = 0 is the bridge edge x1 y1)."""
    spec = FamilySpec("dumbbell", (m, k, n))
    graph = build(spec)

    def extra(row):
        if row["k_bridge"] is None:
            return True
        return row["k_bridge"] == (k == 0)

    rows = [row for row in _case_rows("path_join_cases.json") if row["k_mod"] == k % 3]
    row, swapped = _pick_row(rows, m % 3, n % 3, extra)

    def path_vertex(i):
        if i == 0:
            return "x1"
        if i == k + 1:
            return "y1"
        return f"z{i}"

    if not swapped:
        qa = _cycle_formal_polys(m, lambda j: f"x{j}")
        qb = _cycle_formal_polys(n, lambda j: f"y{j}")

        def path_edge(i):
            return (path_vertex(i), path_vertex(i + 1))
    else:
        qa = _cycle_formal_polys(n, lambda j: f"y{j}")
        qb = _cycle_formal_polys(m, lambda j: f"x{j}")

        def path_edge(i):
            return (path_vertex(k + 1 - i), path_vertex(k - i))

    formal = _expand_layout(row["layout"], qa, qb, path_edge, k)
    case = row["case"] + (", roles swapped" if swapped else "")
    return _finish(spec, graph, case, formal, modulus)


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

@dataclass
class SVPartition:
    """Ordered parts P_0..P_r of monomials with per-monomial exponents.

    The part sums generate the target monomial set up to radical whenever the
    checker accepts: the parts cover the target, P_0 is a singleton, and any
    two distinct members of a later part have their product divisible by a
    member of an earlier part.
    """

    ring: PolyRing
    parts: tuple[tuple[Mono, ...], ...]
    target: frozenset
    exponents: dict = field(default_factory=dict)

    def exponent(self, mono: Mono) -> int:
        return self.exponents.get(mono, 1)


@dataclass(frozen=True)
class SVCheckResult:
    ok: bool
    violations: tuple[str, ...] = ()

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
