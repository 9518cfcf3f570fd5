"""End-to-end certification that a generator sequence generates the edge
ideal up to radical and that its length equals the projective dimension.

The forward inclusion (every term of every generator lies in the edge ideal)
is a termwise divisibility check.  The reverse inclusion is certified one
edge monomial at a time via radical membership over each requested prime
field, so a failure is isolated to a specific edge and field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ResourceLimitError, UsageError
from .formulas import pd_for_spec
from .graphs import FamilySpec, Graph, build, edge_ideal, parse_spec, ring_of
from .groebner import GroebnerStats, radical_membership, spair_budget_default
from .homcomplex import projective_dimension
from .polyalg import PrimeField, mono_divides
from .sequences import GeneratorSequence, sequence_for

DEFAULT_FIELDS = (2, 32003)
DEFAULT_HOMOLOGY_MAX_VERTICES = 16


class ReverseCheck(NamedTuple):
    edge: str
    ok: bool


@dataclass
class VerificationReport:
    """Full certification record for one graph instance.

    verdict is "pass" exactly when every inclusion bit is true over every
    requested field and sequence length, closed-form value and (when
    computed) homology value all agree.  A line carries no sequence, so its
    `forward` and `reverse` are empty and `sequence_length` is None.
    """

    graph_spec: str
    fields: tuple[int, ...]
    forward: tuple[bool, ...]
    reverse: tuple[ReverseCheck, ...]
    sequence_length: int | None
    pd_formula: int
    pd_homology: int | None
    verdict: str
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_spec,
            "fields": list(self.fields),
            "forward": list(self.forward),
            "reverse": [{"edge": rc.edge, "ok": rc.ok} for rc in self.reverse],
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
                   stats: GroebnerStats | None = None) -> list[bool]:
    """Per-edge radical membership of each edge monomial of g in the ideal
    generated by the sequence, over GF(modulus)."""
    g = g or seq.graph
    ring = ring_of(g, modulus)
    gens = [ring.convert(q) for q in seq.polys]
    out = []
    for u, v in g.edges:
        target = ring.term(1, ring.monomial(u, v))
        try:
            out.append(radical_membership(target, gens, spair_budget, stats))
        except ResourceLimitError as exc:
            # keep how far the run got (buchberger's S-pair count and queue)
            raise ResourceLimitError(
                f"radical membership of edge {u}*{v} over GF({modulus}): {exc}",
                stage="verify_reverse",
                detail={**(exc.detail or {}), "edge": (u, v), "modulus": modulus}) from exc
    return out


def _verdict(forward, reverse_ok, length, pd_formula, pd_homology,
             homology_consistent) -> str:
    measured = [v for v in (length, pd_homology) if v is not None]
    ok = (measured and all(v == pd_formula for v in measured)
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
    formula = pd_for_spec(spec)
    if formula is None:
        raise UsageError(f"no closed-form projective dimension for {spec}")
    if not fields:
        raise UsageError("certify needs at least one field")
    # a bad or repeated modulus, or a bad S-pair budget (the argument, else
    # $EDGEIDEAL_SPAIR_BUDGET), fails before any field's work
    try:
        moduli = [PrimeField(int(p)).p for p in fields]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if len(set(moduli)) != len(moduli):
        raise UsageError(f"repeated field in {list(fields)}")
    if spair_budget is None:
        spair_budget = spair_budget_default()
    if not isinstance(spair_budget, int) or spair_budget < 0:
        raise UsageError(f"S-pair budget must be a non-negative integer, got {spair_budget!r}")

    stats = GroebnerStats()
    started = time.perf_counter_ns()

    if spec.kind == "line":
        graph = build(spec)
        forward, reverse, reverse_ok, length, case = (), (), [], None, formula.case_tag
    else:
        # One sequence serves every field: verify_reverse reads it into each
        # field's ring, and its coefficients are small integers, exact in
        # the default GF(32003).  It carries the graph of `spec`.
        seq = sequence_for(spec)
        graph = seq.graph
        forward = tuple(verify_forward(seq, graph))
        reverse_by_field = [
            verify_reverse(seq, graph, p, spair_budget=spair_budget, stats=stats)
            for p in fields
        ]
        reverse_ok = [all(oks) for oks in zip(*reverse_by_field)]
        reverse = tuple(ReverseCheck(f"{u}*{v}", ok)
                        for (u, v), ok in zip(graph.edges, reverse_ok))
        length, case = seq.claimed_length, seq.case_tag

    pd_homology = None
    homology_consistent = True
    homology_stage = "formula-only"
    pd_by_field: dict[str, int] = {}
    if length is None or graph.nvertices <= homology_max_vertices:
        homology_stage = "computed"
        for p in fields:
            pd_by_field[str(p)] = projective_dimension(graph, p)
        values = set(pd_by_field.values())
        if len(values) == 1:
            pd_homology = values.pop()
        else:
            homology_consistent = False

    verdict = _verdict(forward, reverse_ok, length,
                       formula.value, pd_homology, homology_consistent)

    return VerificationReport(
        graph_spec=str(spec),
        fields=tuple(fields),
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
            "homology": homology_stage,
            "pd_homology_by_field": pd_by_field,
            # whole microseconds by integer arithmetic: the first
            # round(x, 6) of a process costs several times a later one
            "wall_time_s": (time.perf_counter_ns() - started + 500) // 1000 / 1e6,
        },
    )
