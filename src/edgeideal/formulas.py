"""Closed-form projective dimension / arithmetical rank values for the graph
families, keyed by congruence class mod 3, and the set-theoretic
complete-intersection predicate for cycles.

Each result carries a case tag naming the congruence branch that fired, so
reports stay auditable.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import ConstructionError, FamilySpec


class FormulaResult(NamedTuple):
    value: int
    case_tag: str


def pd_cycle(n: int) -> FormulaResult:
    """Projective dimension (= arithmetical rank) of the n-cycle edge ideal."""
    if n < 3:
        raise ConstructionError(f"cycle needs n >= 3, got {n}")
    r = n % 3
    if r == 0:
        return FormulaResult(2 * n // 3, "n≡0")
    if r == 1:
        return FormulaResult((2 * n + 1) // 3, "n≡1")
    return FormulaResult((2 * n - 1) // 3, "n≡2")


def pd_line(n: int) -> FormulaResult:
    """Projective dimension of the n-vertex line edge ideal."""
    if n < 2:
        raise ConstructionError(f"line needs n >= 2, got {n}")
    r = n % 3
    if r == 0:
        return FormulaResult(2 * n // 3, "n≡0")
    if r == 1:
        return FormulaResult((2 * n - 2) // 3, "n≡1")
    return FormulaResult((2 * n - 1) // 3, "n≡2")


def pd_bicyclic_vertex(m: int, n: int) -> FormulaResult:
    """Two cycles of lengths m and n sharing one vertex; |V| = m + n - 1."""
    if m < 3 or n < 3:
        raise ConstructionError(f"cycle lengths must be >= 3, got {(m, n)}")
    v = m + n - 1
    r = v % 3
    if r == 1:
        return FormulaResult((2 * v + 1) // 3, "|V|≡1")
    if r == 0:
        return FormulaResult(2 * v // 3, "|V|≡0")
    # |V|≡2 forces m+n≡0 (mod 3): either both cycles ≡0 or they split 1/2
    if m % 3 == 0 or n % 3 == 0:
        return FormulaResult((2 * v + 2) // 3, "|V|≡2, a cycle ≡0")
    return FormulaResult((2 * v - 1) // 3, "|V|≡2, otherwise")


def pd_dumbbell(m: int, k: int, n: int) -> FormulaResult:
    """Two cycles of lengths m and n joined by a path with k internal
    vertices (k = 0 is a bridge edge); |V| = m + n + k."""
    if m < 3 or n < 3:
        raise ConstructionError(f"cycle lengths must be >= 3, got {(m, n)}")
    if k < 0:
        raise ConstructionError(f"path parameter must be >= 0, got {k}")
    v = m + n + k
    r = v % 3
    if r == 1:
        if m % 3 == 2 and n % 3 == 2:
            return FormulaResult((2 * v - 2) // 3, "|V|≡1, m≡n≡2")
        return FormulaResult((2 * v + 1) // 3, "|V|≡1, otherwise")
    if r == 0:
        return FormulaResult(2 * v // 3, "|V|≡0")
    if m % 3 in (0, 1) and n % 3 in (0, 1):
        return FormulaResult((2 * v + 2) // 3, "|V|≡2, m,n≡0 or 1")
    return FormulaResult((2 * v - 1) // 3, "|V|≡2, otherwise")


def cycle_height(n: int) -> int:
    """Height of the n-cycle edge ideal = minimum vertex cover size = ceil(n/2)."""
    if n < 3:
        raise ConstructionError(f"cycle needs n >= 3, got {n}")
    return (n + 1) // 2


def is_stci_cycle(n: int) -> bool:
    """True iff the n-cycle edge ideal is a set-theoretic complete
    intersection, i.e. its arithmetical rank equals its height."""
    return pd_cycle(n).value == cycle_height(n)


def pd_for_spec(spec: FamilySpec) -> FormulaResult | None:
    """Formula dispatch over the mini-language; None when no closed form
    applies (disjoint unions)."""
    if spec.kind == "cycle":
        return pd_cycle(spec.params[0])
    if spec.kind == "line":
        return pd_line(spec.params[0])
    if spec.kind == "bicyclic":
        return pd_bicyclic_vertex(*spec.params)
    if spec.kind == "dumbbell":
        return pd_dumbbell(*spec.params)
    return None
