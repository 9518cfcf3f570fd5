"""Exact computational toolkit for edge ideals of cycle and bicyclic graphs:
projective dimension from simplicial homology, explicit radical generator
sequences, and machine certification that arithmetical rank equals projective
dimension on every instance it can enumerate."""

from .formulas import (
    FormulaResult,
    is_stci_cycle,
    pd_bicyclic_vertex,
    pd_cycle,
    pd_dumbbell,
    pd_line,
)
from .graphs import FamilySpec, Graph, build, build_from_string, enumerate_specs, parse_spec
from .homcomplex import (
    BettiTable,
    SimplicialComplex,
    betti_table,
    betti_tables,
    epsilon_complex,
    projective_dimension,
    reduced_homology_dims,
)
from .polyalg import Polynomial, PolyRing, PrimeField
from .sequences import (
    GeneratorSequence,
    SVPartition,
    bicyclic_vertex_sequence,
    cycle_sequence,
    cycle_sv_partition,
    dumbbell_sequence,
    sequence_for,
    sv_check,
    sv_sums,
)
from .verify import VerificationReport, certify, verify_forward, verify_reverse

__all__ = [
    "BettiTable",
    "FamilySpec",
    "FormulaResult",
    "GeneratorSequence",
    "Graph",
    "Polynomial",
    "PolyRing",
    "PrimeField",
    "SVPartition",
    "SimplicialComplex",
    "VerificationReport",
    "betti_table",
    "betti_tables",
    "bicyclic_vertex_sequence",
    "build",
    "build_from_string",
    "certify",
    "cycle_sequence",
    "cycle_sv_partition",
    "dumbbell_sequence",
    "enumerate_specs",
    "epsilon_complex",
    "is_stci_cycle",
    "parse_spec",
    "pd_bicyclic_vertex",
    "pd_cycle",
    "pd_dumbbell",
    "pd_line",
    "projective_dimension",
    "reduced_homology_dims",
    "sequence_for",
    "sv_check",
    "sv_sums",
    "verify_forward",
    "verify_reverse",
]
