"""Buchberger's algorithm, normal form and radical-membership tests.

The engine is deliberately small: normal pair selection (smallest lcm degree
first) with the coprimality criterion, full tail reduction, and a hard budget
on processed S-pairs.  Exceeding the budget raises ResourceLimitError rather
than ever returning a wrong answer.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ResourceLimitError
from .polyalg import (
    Mono,
    Polynomial,
    grevlex_key,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_SPAIR_BUDGET = 200_000
SPAIR_BUDGET_ENV = "EDGEIDEAL_SPAIR_BUDGET"


class DegenerateInputError(ValueError):
    """An operation received a zero polynomial or an empty generator list."""


def spair_budget_default() -> int:
    """Budget on processed S-pairs; overridden by $EDGEIDEAL_SPAIR_BUDGET."""
    raw = os.environ.get(SPAIR_BUDGET_ENV)
    if not raw:
        return DEFAULT_SPAIR_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise ValueError(f"{SPAIR_BUDGET_ENV} must be a non-negative integer, got {raw!r}")
    return budget


@dataclass
class GroebnerStats:
    """Mutable accumulator threaded through verification pipelines."""

    spairs: int = 0
    runs: int = 0

    def absorb(self, basis: "GroebnerBasis"):
        self.spairs += basis.spairs_processed
        self.runs += 1


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic generators, no leading monomial divides
    another, every S-polynomial reduces to zero."""

    generators: tuple[Polynomial, ...]
    spairs_processed: int = 0

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    @property
    def is_unit_ideal(self) -> bool:
        return any(g and g.degree() == 0 for g in self.generators)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """(lcm/lt(f))*f - (lcm/lt(g))*g for the lcm of the leading monomials."""
    if f.is_zero or g.is_zero:
        raise DegenerateInputError("s_polynomial of a zero polynomial")
    f._check_ring(g)
    lmf, lcf = f.leading_term()
    lmg, lcg = g.leading_term()
    lcm = mono_lcm(lmf, lmg)
    fld = f.ring.field
    left = f.mul_term(fld.inv(lcf), mono_div(lcm, lmf))
    right = g.mul_term(fld.inv(lcg), mono_div(lcm, lmg))
    return left - right


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Normal form r of f modulo `basis`: f - r lies in the ideal of `basis`,
    and no term of r is divisible by any lt(b).  Only r is built."""
    if not basis:
        return f
    ring = f.ring
    p = ring.modulus
    divisors = []
    for b in basis:
        if b.is_zero:
            raise DegenerateInputError("zero polynomial in normal-form basis")
        f._check_ring(b)
        divisors.append((b.leading_monomial(), ring.field.inv(b.leading_coeff()), b.terms[1:]))

    work = dict(f.terms)
    remainder: dict[Mono, int] = {}
    while work:
        mono = max(work, key=grevlex_key)
        coeff = work.pop(mono)
        for lm, lc_inv, tail in divisors:
            if mono_divides(lm, mono):
                qm = mono_div(mono, lm)
                qc = coeff * lc_inv % p
                # the leading term of qc*qm*b cancels `mono` exactly
                for bm, bc in tail:
                    mm = mono_mul(qm, bm)
                    nv = (work.get(mm, 0) - qc * bc) % p
                    if nv:
                        work[mm] = nv
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[mono] = coeff
    return ring.poly(remainder)


def buchberger(generators: Sequence[Polynomial], spair_budget: int | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `generators`.

    Raises ResourceLimitError once more than `spair_budget` S-pairs have been
    processed (default from spair_budget_default()).
    """
    if not generators:
        raise DegenerateInputError("empty generator list")
    budget = spair_budget if spair_budget is not None else spair_budget_default()
    ring = generators[0].ring
    for g in generators[1:]:
        generators[0]._check_ring(g)

    basis: list[Polynomial] = []
    pairs: list[tuple[int, int, int]] = []

    def push(poly: Polynomial) -> bool:
        """Add a monic polynomial; True means a unit was found."""
        if poly.degree() == 0:
            return True
        basis.append(poly)
        j = len(basis) - 1
        lmj = poly.leading_monomial()
        for i in range(j):
            lcm = mono_lcm(basis[i].leading_monomial(), lmj)
            heapq.heappush(pairs, (mono_degree(lcm), i, j))
        return False

    processed = 0
    unit = False
    for g in generators:
        if g.is_zero:
            continue
        r = normal_form(g, basis)
        if r and push(r.monic()):
            unit = True
            break

    while pairs and not unit:
        _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > budget:
            raise ResourceLimitError(
                f"S-pair budget of {budget} exceeded",
                stage="buchberger", detail={"spairs": processed})
        fi, fj = basis[i], basis[j]
        lmi, lmj = fi.leading_monomial(), fj.leading_monomial()
        if mono_lcm(lmi, lmj) == mono_mul(lmi, lmj):
            continue  # coprime leading monomials: S-pair reduces to zero
        r = normal_form(s_polynomial(fi, fj), basis)
        if r:
            unit = push(r.monic())

    if unit:
        return GroebnerBasis((ring.one(),), processed)
    if not basis:
        return GroebnerBasis((), processed)

    return GroebnerBasis(tuple(_reduce_basis(basis)), processed)


def _reduce_basis(basis: list[Polynomial]) -> list[Polynomial]:
    """Minimalize then tail-reduce; output sorted descending by leading monomial."""
    by_lm = sorted(basis, key=lambda g: grevlex_key(g.leading_monomial()))
    minimal: list[Polynomial] = []
    for g in by_lm:
        lm = g.leading_monomial()
        if not any(mono_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others) if others else g
        reduced.append(r.monic())
    reduced.sort(key=lambda g: grevlex_key(g.leading_monomial()), reverse=True)
    return reduced


def ideal_contains_one(generators: Sequence[Polynomial],
                       spair_budget: int | None = None,
                       stats: GroebnerStats | None = None) -> bool:
    """True iff the reduced Groebner basis of the ideal is {1}."""
    gb = buchberger(generators, spair_budget)
    if stats is not None:
        stats.absorb(gb)
    return gb.is_unit_ideal


def radical_membership(f: Polynomial, generators: Sequence[Polynomial],
                       spair_budget: int | None = None,
                       stats: GroebnerStats | None = None) -> bool:
    """True iff f lies in the radical of the ideal generated by `generators`.

    Uses the Rabinowitsch trick: extend the ring by one auxiliary variable t
    (appended last, hence lowest priority) and test 1 in (generators, 1 - t*f).
    The certificate is valid over the algebraic closure of the coefficient
    field.
    """
    if f.is_zero:
        raise DegenerateInputError("radical membership of the zero polynomial")
    ext = f.ring.extend()
    t = ext.variable(ext.nvars - 1)
    lifted = [ext.lift(g) for g in generators if not g.is_zero]
    if not lifted:
        raise DegenerateInputError("empty generator list")
    return ideal_contains_one(lifted + [ext.one() - t * ext.lift(f)],
                              spair_budget, stats)
