"""Buchberger's algorithm, normal form and radical-membership tests.

The engine is deliberately small: normal pair selection (smallest lcm degree
first) with the coprimality criterion, full tail reduction, and a hard budget
on processed S-pairs.  Exceeding the budget raises ResourceLimitError rather
than ever returning a wrong answer.

Each basis element is kept monic, with its divisor data computed once when
it is added: leading monomial, degree, support bitmask, mask of the
variables it holds with exponent 2 or more, and tail.  Bitmasks answer the
frequent questions without touching exponents (after Bachmann and
Schoenemann, Monomial representations for Groebner bases computations,
ISSAC 1998): disjoint supports mean coprime leading monomials, a divisor
whose support is not inside a term's support cannot divide it, and the lcm
degree of a pair is a popcount whenever the shared variables are
squarefree in both.  One private reducer serves `buchberger`, the final
basis reduction and `normal_form`.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from operator import add, le, sub
from typing import Sequence

from .errors import ResourceLimitError, UsageError
from .polyalg import (
    Mono,
    Polynomial,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
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
        raise UsageError(f"{SPAIR_BUDGET_ENV} must be a non-negative integer, got {raw!r}")
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


def _masks(mono: Mono) -> tuple[int, int]:
    """Bitmasks of the variables that occur in `mono`, and of those that
    occur with exponent 2 or more."""
    support = high = 0
    for i, e in enumerate(mono):
        if e:
            support |= 1 << i
            if e > 1:
                high |= 1 << i
    return support, high


def _reduce(work: dict[Mono, int], divisors: Sequence[tuple], p: int) -> dict[Mono, int]:
    """Full reduction of the terms in `work` (consumed) by monic divisors.

    The largest grevlex term is reduced first, by the first divisor whose
    leading monomial divides it.  The remainder is returned with its terms
    in descending order, so its first key is its leading monomial."""
    # min-heap on (-degree, reversed exponents) pops the largest grevlex
    # term first; an entry whose term has cancelled since is skipped
    heap = [(-sum(m), m[::-1], m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Mono, int] = {}
    while heap:
        mono = heapq.heappop(heap)[2]
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        mmask = _masks(mono)[0]
        for lm, _, lmask, high, tail in divisors:
            # a support subset is divisibility unless lm has a square
            if lmask & ~mmask or high and not all(map(le, lm, mono)):
                continue
            qm = tuple(map(sub, mono, lm))
            # the leading term of coeff*qm*divisor cancels `mono` exactly
            for bm, bc in tail:
                mm = tuple(map(add, qm, bm))
                old = work.get(mm)
                if old is None:
                    work[mm] = -coeff * bc % p
                    heapq.heappush(heap, (-sum(mm), mm[::-1], mm))
                else:
                    nv = (old - coeff * bc) % p
                    if nv:
                        work[mm] = nv
                    else:
                        del work[mm]
            break
        else:
            remainder[mono] = coeff
    return remainder


def _monic_divisor(terms: dict[Mono, int], p: int) -> tuple:
    """Divisor data of the monic multiple of a nonzero polynomial whose terms
    are in descending order: (leading monomial, degree, support mask, high
    mask, tail)."""
    items = iter(terms.items())
    lm, lc = next(items)
    inv = pow(lc, p - 2, p)
    return (lm, sum(lm), *_masks(lm), tuple((m, c * inv % p) for m, c in items))


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
        divisors.append(_monic_divisor(dict(b.terms), p))
    return ring.poly(_reduce(dict(f.terms), divisors, p))


def buchberger(generators: Sequence[Polynomial], spair_budget: int | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `generators`.

    Each basis element is kept as its divisor data, computed once when it
    is added.  Pairs are processed in (lcm degree, i, j) order, and a pair
    whose leading monomials are coprime (disjoint support masks) is counted
    and skipped.  Raises ResourceLimitError once more than `spair_budget`
    S-pairs have been processed (default from spair_budget_default()).
    """
    if not generators:
        raise DegenerateInputError("empty generator list")
    budget = spair_budget if spair_budget is not None else spair_budget_default()
    ring = generators[0].ring
    p = ring.modulus
    for g in generators[1:]:
        generators[0]._check_ring(g)

    basis: list[tuple] = []
    pairs: list[tuple[int, int, int]] = []

    def push(remainder: dict[Mono, int]) -> bool:
        """Add the monic multiple of a nonzero remainder; True means a unit
        was found."""
        new = _monic_divisor(remainder, p)
        lm, deg, mask, high, _ = new
        if not deg:
            return True
        j = len(basis)
        for i, (lmi, degi, maski, highi, _) in enumerate(basis):
            shared = mask & maski
            if shared & (high | highi):
                degree = sum(map(max, lm, lmi))
            else:  # the gcd is squarefree: its degree is the shared support
                degree = deg + degi - shared.bit_count()
            heapq.heappush(pairs, (degree, i, j))
        basis.append(new)
        return False

    processed = 0
    unit = False
    for g in generators:
        if g.is_zero:
            continue
        r = _reduce(dict(g.terms), basis, p)
        if r and push(r):
            unit = True
            break

    while pairs and not unit:
        _, i, j = heapq.heappop(pairs)
        processed += 1
        if processed > budget:
            raise ResourceLimitError(
                f"S-pair budget of {budget} exceeded",
                stage="buchberger",
                detail={"spairs": processed, "basis": len(basis), "queued": len(pairs)})
        lmi, _, maski, _, taili = basis[i]
        lmj, _, maskj, _, tailj = basis[j]
        if not maski & maskj:
            continue  # coprime leading monomials: S-pair reduces to zero
        # S-polynomial of two monic elements: their leading terms cancel
        lcm = tuple(map(max, lmi, lmj))
        qi = tuple(map(sub, lcm, lmi))
        qj = tuple(map(sub, lcm, lmj))
        work = {tuple(map(add, m, qi)): c for m, c in taili}
        for m, c in tailj:
            mm = tuple(map(add, m, qj))
            nv = (work.get(mm, 0) - c) % p
            if nv:
                work[mm] = nv
            else:
                work.pop(mm, None)
        r = _reduce(work, basis, p)
        if r:
            unit = push(r)

    if unit:
        return GroebnerBasis((ring.one(),), processed)
    if not basis:
        return GroebnerBasis((), processed)

    return GroebnerBasis(tuple(ring.poly(g) for g in _reduce_basis(basis, p)), processed)


def _reduce_basis(basis: list[tuple], p: int) -> list[dict[Mono, int]]:
    """Minimalize then tail-reduce monic divisors; output the terms of each
    element, sorted descending by leading monomial."""
    by_lm = sorted(basis, key=lambda d: grevlex_key(d[0]))
    minimal: list[tuple] = []
    for d in by_lm:
        lm = d[0]
        if not any(mono_divides(h[0], lm) for h in minimal):
            minimal.append(d)
    reduced = []
    for i, (lm, *_, tail) in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = _reduce({lm: 1, **dict(tail)}, others, p)
        # lm is divisible by no other leading monomial, so r stays monic
        reduced.append(r)
    reduced.sort(key=lambda r: grevlex_key(next(iter(r))), reverse=True)
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
