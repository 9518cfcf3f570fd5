"""End-to-end certification that a generator sequence generates the edge
ideal up to radical and that its length equals the projective dimension.

The forward inclusion (every term of every generator lies in the edge ideal)
is a termwise divisibility check.  The reverse inclusion is certified one
edge monomial at a time via radical membership over each requested prime
field, so a failure is isolated to a specific edge and field.  `certify`
hands every field one `groebner.Rabinowitsch` set-up of the sequence, a
cache that lives as long as the `certify` call: the first field's call of
`verify_reverse` adds the sequence to it once for all of them and runs
each edge's test once, over Z/N with N the product of the primes, and
every later field's call reads its own counts and answers from those runs.
Homology goes the same way: one `homcomplex.Hochster` set-up of the graph,
whose first `projective_dimension` call computes the Betti tables of every
field in one pass, each call reading its own.
"""

from __future__ import annotations

import time

from .errors import ResourceLimitError, UsageError
from .formulas import pd_for_spec
from .graphs import FamilySpec, Graph, build, edge_ideal, parse_spec, ring_of
from .groebner import (
    GroebnerStats,
    Rabinowitsch,
    radical_membership,
    spair_budget_default,
)
from .homcomplex import Hochster, projective_dimension
from .polyalg import mono_divides, prime_modulus
from .records import Record
from .sequences import GeneratorSequence, sequence_for

DEFAULT_FIELDS = (2, 32003)
DEFAULT_HOMOLOGY_MAX_VERTICES = 16


class VerificationReport(Record):
    """Full certification record for one graph instance.

    verdict is "pass" exactly when every inclusion bit is true over every
    requested field and sequence length, closed-form value and (when
    computed) homology value all agree.  `reverse` holds (edge, ok) per
    edge monomial, the edge written "u*v".  A line carries no sequence, so
    its `forward` and `reverse` are empty and `sequence_length` is None.
    """

    __slots__ = ("graph_spec", "fields", "forward", "reverse", "sequence_length",
                 "pd_formula", "pd_homology", "verdict", "stats")

    def __init__(self, graph_spec: str, fields: tuple[int, ...], forward: tuple[bool, ...],
                 reverse: tuple[tuple[str, bool], ...], sequence_length: int | None,
                 pd_formula: int, pd_homology: int | None, verdict: str,
                 stats: dict | None = None):
        self.graph_spec = graph_spec
        self.fields = fields
        self.forward = forward
        self.reverse = reverse
        self.sequence_length = sequence_length
        self.pd_formula = pd_formula
        self.pd_homology = pd_homology
        self.verdict = verdict
        self.stats = {} if stats is None else stats

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_spec,
            "fields": list(self.fields),
            "forward": list(self.forward),
            "reverse": [{"edge": edge, "ok": ok} for edge, ok in self.reverse],
            "length": self.sequence_length,
            "pd_formula": self.pd_formula,
            "pd_homology": self.pd_homology,
            "verdict": self.verdict,
            "stats": dict(self.stats),
        }


def verify_forward(seq: GeneratorSequence, g: Graph | None = None) -> list[bool]:
    """Per-polynomial check that every term is divisible by an edge monomial
    of g (membership in a monomial ideal is termwise divisibility)."""
    g = g or seq.graph
    gens = edge_ideal(g)
    out = []
    for poly in seq.polys:
        out.append(all(any(mono_divides(e, m) for e in gens)
                       for m in poly.monomials()))
    return out


def verify_reverse(seq: GeneratorSequence, g: Graph | None = None,
                   modulus: int = 2, *, spair_budget: int | None = None,
                   stats: GroebnerStats | None = None,
                   setup: Rabinowitsch | None = None) -> list[bool]:
    """Per-edge radical membership of each edge monomial of g in the ideal
    generated by the sequence, over GF(modulus).

    `setup`, if given, is the `Rabinowitsch` set-up of the sequence for the
    fields of one certification, called for any of its moduli in any order
    and as often as needed: the first call builds its state and runs each
    edge once for all the fields, and every later call reads its results
    from it.  By default the call builds a set-up for GF(modulus) alone."""
    g = g or seq.graph
    ring = ring_of(g, modulus)
    if setup is None:
        setup = Rabinowitsch(seq.polys, (ring.modulus,))
    out = []
    for u, v in g.edges:
        target = ring.term(1, ring.monomial(u, v))
        try:
            out.append(radical_membership(target, setup, spair_budget, stats))
        except ResourceLimitError as exc:
            # keep how far the run got (buchberger's S-pair count and queue)
            raise ResourceLimitError(
                f"radical membership of edge {u}*{v} over GF({modulus}): {exc}",
                stage="verify_reverse",
                detail={**(exc.detail or {}), "edge": (u, v), "modulus": modulus}) from exc
    return out


def _verdict(forward, reverse_ok, length, pd_formula, pd_homology,
             homology_consistent) -> str:
    ok = ((length is not None or pd_homology is not None)
          and length in (None, pd_formula) and pd_homology in (None, pd_formula)
          and all(forward) and all(reverse_ok) and homology_consistent)
    return "pass" if ok else "fail"


def certify(spec: FamilySpec | str, fields: tuple[int, ...] = DEFAULT_FIELDS, *,
            spair_budget: int | None = None,
            homology_max_vertices: int = DEFAULT_HOMOLOGY_MAX_VERTICES) -> VerificationReport:
    """Certify one instance over every field in `fields`.

    A pass needs: forward and reverse inclusions over every field, sequence
    length equal to the closed-form projective dimension, and (when the
    instance is small enough to compute) the homology projective dimension
    over every field equal to the closed-form value.  Oversized instances
    skip the homology stage and are marked formula-only in the stats.

    A line has no generator sequence: its report has no inclusion checks and
    no length, and homology, its only evidence, is computed at every size.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    name = str(spec)
    formula = pd_for_spec(spec)
    if formula is None:
        raise UsageError(f"no closed-form projective dimension for {name}")
    if not fields:
        raise UsageError("certify needs at least one field")
    # a bad or repeated modulus, a bad S-pair budget (the argument, else
    # $EDGEIDEAL_SPAIR_BUDGET) or a non-int homology limit fails before any
    # field's work; only the validated ints are passed on and reported
    try:
        moduli = tuple(map(prime_modulus, fields))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if len(set(moduli)) != len(moduli):
        raise UsageError(f"repeated field in {list(fields)}")
    if spair_budget is None:
        spair_budget = spair_budget_default()
    if type(spair_budget) is not int or spair_budget < 0:
        raise UsageError(f"S-pair budget must be a non-negative integer, got {spair_budget!r}")
    if type(homology_max_vertices) is not int:
        raise UsageError(f"homology limit must be an integer, got {homology_max_vertices!r}")

    stats = GroebnerStats()
    started = time.perf_counter_ns()

    if spec.kind == "line":
        graph = build(spec)
        forward, reverse, reverse_ok, length, case = (), (), [], None, formula.case_tag
    else:
        # One sequence serves every field: the set-up lifts it into each
        # field's ring, and its coefficients are small integers, exact in
        # the default GF(32003).  It carries the graph of `spec`.
        seq = sequence_for(spec)
        graph = seq.graph
        forward = tuple(verify_forward(seq, graph))
        setup = Rabinowitsch(seq.polys, moduli)
        reverse_by_field = []
        for p in moduli:
            reverse_by_field.append(
                verify_reverse(seq, graph, p, spair_budget=spair_budget, stats=stats,
                               setup=setup))
        reverse_ok = list(map(all, zip(*reverse_by_field)))
        reverse = tuple(zip(map("*".join, graph.edges), reverse_ok))
        length, case = seq.claimed_length, seq.case_tag

    # homology over every field, unless the instance is over the limit;
    # its value counts only when every field gives the same one
    pd_by_field: dict[str, int] = {}
    if length is None or graph.nvertices <= homology_max_vertices:
        # the first field's call runs one Hochster pass for every field,
        # and each call reads its own table from the set-up
        hochster = Hochster(graph, moduli)
        for p in moduli:
            pd_by_field[str(p)] = projective_dimension(graph, p, setup=hochster)
    values = set(pd_by_field.values())
    pd_homology = values.pop() if len(values) == 1 else None
    verdict = _verdict(forward, reverse_ok, length, formula.value, pd_homology, len(values) < 2)

    return VerificationReport(
        graph_spec=name,
        fields=moduli,
        forward=forward,
        reverse=reverse,
        sequence_length=length,
        pd_formula=formula.value,
        pd_homology=pd_homology,
        verdict=verdict,
        stats={
            "case": case,
            "s_pairs": stats.spairs,
            "groebner_runs": stats.runs,
            "homology": "computed" if pd_by_field else "formula-only",
            "pd_homology_by_field": pd_by_field,
            # whole microseconds by integer arithmetic: the first
            # round(x, 6) of a process costs several times a later one
            "wall_time_s": (time.perf_counter_ns() - started + 500) // 1000 / 1e6,
        },
    )
