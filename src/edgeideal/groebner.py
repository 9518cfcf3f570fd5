"""Buchberger's algorithm, normal form and radical-membership tests.

The engine is deliberately small: normal pair selection (smallest lcm degree
first, then (i, j)) with the coprimality criterion, full tail reduction, and
a hard budget on processed S-pairs.  Exceeding the budget raises
ResourceLimitError rather than ever returning a wrong answer.

Inside the kernel a monomial is one Python int, a packed exponent vector
(Bachmann and Schoenemann, Monomial representations for Groebner bases
computations, ISSAC 1998; Monagan and Pearce, J. Symb. Comput. 46 (2011)).
With W-bit fields in n variables, x^e packs to
K = deg << n*W - sum(e_i << i*W):

- K adds under multiplication, and the integer order of K is grevlex, so
  the reducer takes max() of a dict of terms;
- the top bit of each field is a guard bit that no exponent reaches, so a
  divides b exactly when (K_a + G - K_b) & G == G, G being the guard bits,
  and the gcd of two monomials is a fieldwise (SWAR) minimum;
- the support of a monomial is one add and one mask of its packed
  exponents, as bits on the guard positions, and their degree is their
  value mod 2^W - 1.

Every exponent stays below the guard bit 2^(W-1).  In grevlex no term met
while a pair is processed has a degree above the pair's lcm degree, so the
input degrees and each processed pair's degree are checked against that
limit; a degree that reaches it re-packs the basis with wider fields.
Monomials are packed when `buchberger` or `normal_form` is entered, and
only results are unpacked.  One reducer serves `buchberger`, the final
basis reduction and `normal_form`.

The pair queue holds groups of pairs with one j.  A heap entry is
(degree, lowest i, j, bitset of the queued i, exact); popping an exact
group processes its lowest pair and clears that bit.  When element j is
added, per-variable bitsets of basis indices split the i into those whose
leading monomials share a variable with j's and the coprime rest.  A
coprime pair has lcm degree deg_i + deg_j, so the coprime i are grouped by
deg_i with no per-pair work.  The sharing i are grouped by deg_i too, under
a lower bound of their lcm degree; when such a group comes up, its pairs get
exact lcm degrees and are requeued.  A group's key never exceeds the key of
any pair in it, so pairs are processed in exactly (lcm degree, i, j) order,
and most queued pairs, which lie above the degree where a unit turns up,
are never looked at one by one.

A run's state is one object (`_Run`): the packing, the divisors and leads,
the per-variable and per-degree bitsets and the pair heap.  `buchberger`
starts a fresh state, adds each input and processes the pairs.  Adding an
input queues its pairs but processes none, so a state saved after some
inputs is the same for every run that begins with them.  The radical tests
of one generator list J share J: a `Rabinowitsch` set-up extends the ring
by t, lifts J and saves the state after J's inputs once, and the run for
each f copies that state, adds 1 - t*f and processes the pairs.  It
processes the same pairs, in the same order, as a run from scratch.

One set-up serves several fields GF(p) at once, its lanes: its runs take
coefficients mod N, the product of the primes, and each f's run is stored
with its count and basis for every field to read.  By the Chinese remainder
theorem, Z/N is the product of the fields, and reducing mod p is a ring map
to lane p.  The control flow of a run reads only monomials, zero tests and
inverses.  A coefficient that is 0 mod p but not mod N is a term lane p
does not have: reducing it adds 0 to that lane, and keeping it keeps a zero
term, so lane p's projection of every step, and so its count and budget
cut-off, are those of the run over GF(p).  Lanes can part only where a
remainder's leading coefficient is 0 in some lane, and that is exactly
where its inverse mod N does not exist.  (A product of two nonzero
coefficients can be 0 mod N: it is a term no lane has.)  So `_monic`
inverts with pow(lc, -1, N) and raises `_Split` when it cannot, and only
then does a field run on its own.  A basis is projected to GF(p) by
reducing every coefficient mod p and dropping the terms that become 0.
This is Traverso's trace idea (Groebner trace algorithms, ISSAC 1988) and
Arnold's lucky primes (J. Symb. Comput. 35 (2003)) the other way round:
every step is checked, so no prime has to be trusted to be lucky.
"""

from __future__ import annotations

import heapq
import math
import os
from typing import Sequence

from .errors import ResourceLimitError, UsageError
from .polyalg import FieldMismatchError, Mono, Polynomial, PolyRing, mono_one
from .records import FrozenRecord, Record

DEFAULT_SPAIR_BUDGET = 200_000
SPAIR_BUDGET_ENV = "EDGEIDEAL_SPAIR_BUDGET"
FIELD_BITS = 8  # width of a packed exponent field, guard bit included, before any widening


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


class GroebnerStats(Record):
    """Mutable accumulator threaded through verification pipelines."""

    __slots__ = ("spairs", "runs")

    def __init__(self, spairs: int = 0, runs: int = 0):
        self.spairs = spairs
        self.runs = runs

    def absorb(self, basis: "GroebnerBasis"):
        self.spairs += basis.spairs_processed
        self.runs += 1


class GroebnerBasis(FrozenRecord):
    """Reduced Groebner basis: monic generators, no leading monomial divides
    another, every S-polynomial reduces to zero."""

    __slots__ = ("generators", "spairs_processed")

    def __init__(self, generators: tuple[Polynomial, ...], spairs_processed: int = 0):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "spairs_processed", spairs_processed)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    @property
    def is_unit_ideal(self) -> bool:
        return any(g and g.degree() == 0 for g in self.generators)


class _Packing:
    """Monomials in `nvars` variables packed into ints, in fields of `width`
    bits: every exponent of a degree below `limit` fits under the guard bit.
    The fields are the narrowest of FIELD_BITS, doubled as often as needed,
    that take monomials of degree `degree`."""

    __slots__ = ("nvars", "width", "top", "limit", "ones", "guards", "fold")

    def __init__(self, nvars: int, degree: int):
        width = FIELD_BITS
        while degree >= 1 << (width - 1):
            width *= 2
        self.nvars = nvars
        self.width = width
        self.top = nvars * width
        self.limit = 1 << (width - 1)
        self.ones = ((1 << self.top) - 1) // ((1 << width) - 1)  # a 1 in every field
        self.guards = self.ones << (width - 1)
        # 2^W = 1 mod fold, so packed exponents mod fold are their sum,
        # which is a degree below limit, hence below fold
        self.fold = (1 << width) - 1

    def pack(self, mono: Mono) -> int:
        tail = 0
        for i, e in enumerate(mono):
            if e:
                tail |= e << i * self.width
        return (sum(mono) << self.top) - tail

    def unpack(self, key: int) -> Mono:
        tail = -key & ((1 << self.top) - 1)
        mask = self.limit - 1
        return tuple(tail >> i * self.width & mask for i in range(self.nvars))

    def pack_terms(self, terms) -> dict[int, int]:
        pack = self.pack
        return {pack(m): c for m, c in terms}

    def poly(self, ring: PolyRing, terms: dict[int, int]) -> Polynomial:
        unpack = self.unpack
        return ring.poly({unpack(k): c for k, c in terms.items()})


def _reduce(work: dict[int, int], divisors: Sequence[tuple], guards: int,
            p: int) -> dict[int, int]:
    """Full reduction of the packed terms in `work` (consumed) by monic
    divisors (leading monomial plus guard bits, leading monomial, tail).

    The largest term is reduced first, by the first divisor whose leading
    monomial divides it.  The remainder is returned with its terms in
    descending order, so its first key is its leading monomial."""
    remainder: dict[int, int] = {}
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        for lmg, lm, tail in divisors:
            if (lmg - mono) & guards != guards:
                continue
            qm = mono - lm
            # the leading term of coeff*qm*divisor cancels `mono` exactly
            for bm, bc in tail:
                mm = qm + bm
                old = work.get(mm)
                if old is None:
                    work[mm] = -coeff * bc % p
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


class _Split(Exception):
    """A leading coefficient of a run over Z/N is 0 modulo a prime factor of
    N: that prime's lane parts from the others there."""


def _monic(terms: dict[int, int], guards: int, n: int) -> tuple[int, int, tuple]:
    """Divisor of the monic multiple of nonzero packed terms in descending
    order: (leading monomial plus guard bits, leading monomial, tail).
    Raises _Split when the leading coefficient has no inverse mod n."""
    items = iter(terms.items())
    lm, lc = next(items)
    try:
        inv = pow(lc, -1, n)
    except ValueError:  # lc is 0 modulo a prime factor of n
        raise _Split from None
    return lm + guards, lm, tuple((m, c * inv % n) for m, c in items)


def _gcd(a: int, b: int, pk: _Packing) -> int:
    """Fieldwise minimum of two packed exponent vectors."""
    ge = ((a | pk.guards) - b) & pk.guards  # guard bits of the fields where a >= b
    ge -= ge >> (pk.width - 1)  # ... widened to the whole field below the guard
    return a ^ (a ^ b) & ge


def _lead(lm: int, pk: _Packing) -> tuple[int, int]:
    """Degree and packed exponent vector of a packed leading monomial."""
    degree = -(-lm >> pk.top)
    return degree, (degree << pk.top) - lm


def _input_degree(inputs: Sequence[tuple]) -> int:
    """The largest degree of a term of the inputs, each a tuple of terms."""
    return max((sum(m) for terms in inputs for m, _ in terms), default=0)


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Normal form r of f modulo `basis`: f - r lies in the ideal of `basis`,
    and no term of r is divisible by any lt(b).  Only r is built."""
    if not basis:
        return f
    ring = f.ring
    p = ring.modulus
    for b in basis:
        if b.is_zero:
            raise DegenerateInputError("zero polynomial in normal-form basis")
        f._check_ring(b)
    # every term of the reduction has a degree at most that of a term of f
    pk = _Packing(ring.nvars, _input_degree([f.terms, *(b.terms for b in basis)]))
    divisors = [_monic(pk.pack_terms(b.terms), pk.guards, p) for b in basis]
    return pk.poly(ring, _reduce(pk.pack_terms(f.terms), divisors, pk.guards, p))


class _Run:
    """The state of one Buchberger run: the packing, the monic divisors and
    leading-monomial data of the basis so far, the per-variable and
    per-degree bitsets of basis indices and the pair heap.

    Adding an input (a tuple of terms) reduces it and queues its pairs but
    processes no S-pair, so a state saved after some inputs is the same for
    every run that starts with them; `then` lets each such run resume from
    it.  `ring` gives the variables; the coefficients are taken mod
    `modulus`, by default the ring's prime, else a product of distinct
    primes, one lane each."""

    __slots__ = ("ring", "modulus", "pk", "divisors", "leads", "holders", "by_degree", "heap",
                 "unit")

    def __init__(self, ring: PolyRing, degree: int, modulus: int | None = None):
        self.ring = ring
        self.modulus = ring.modulus if modulus is None else modulus
        self.pk = _Packing(ring.nvars, degree)  # fields for monomials up to `degree`
        self.divisors: list[tuple] = []  # (lm + guards, lm, tail) of each basis element
        self.leads: list[tuple[int, int]] = []  # _lead of each basis element
        self.holders = [0] * ring.nvars  # per variable: bitset of the i whose lm_i has it
        self.by_degree: dict[int, int] = {}  # per degree: bitset of the i of that lm degree
        # (lcm degree or a lower bound of it, lowest i, j, bitset of the i, exact?)
        self.heap: list[tuple[int, int, int, int, bool]] = []
        self.unit = False  # a unit was found: the ideal is the whole ring

    @classmethod
    def saved(cls, ring: PolyRing, inputs: Sequence[tuple],
              modulus: int | None = None) -> "_Run":
        """The state after adding each of `inputs`."""
        run = cls(ring, _input_degree(inputs), modulus)
        for terms in inputs:
            run.add(terms)
        return run

    def then(self, terms: tuple) -> "_Run":
        """A copy of this state that has added one more input, its fields
        widened first if they do not take the input's degree."""
        new = object.__new__(_Run)
        new.ring, new.modulus, new.pk, new.unit = self.ring, self.modulus, self.pk, self.unit
        new.divisors, new.leads, new.holders = self.divisors[:], self.leads[:], self.holders[:]
        new.by_degree, new.heap = self.by_degree.copy(), self.heap[:]
        degree = _input_degree((terms,))
        if degree >= new.pk.limit:
            new.widen(degree)
        new.add(terms)
        return new

    def add(self, terms: tuple):
        """Reduce an input, whose degree the packing takes, by the basis so
        far and add the remainder.  Once a unit is found, inputs are
        ignored."""
        if self.unit or not terms:
            return
        pk = self.pk
        r = _reduce(pk.pack_terms(terms), self.divisors, pk.guards, self.modulus)
        if r:
            self.unit = self._push(r)

    def widen(self, degree: int):
        """Re-pack the basis into fields that take monomials of `degree`."""
        old, pk = self.pk, _Packing(self.ring.nvars, degree)
        self.pk = pk
        self.divisors[:] = [
            _monic(pk.pack_terms((old.unpack(m), c) for m, c in ((lm, 1), *tail)), pk.guards,
                   self.modulus)
            for _, lm, tail in self.divisors]
        self.leads[:] = [_lead(lm, pk) for _, lm, _ in self.divisors]

    def _push(self, remainder: dict[int, int]) -> bool:
        """Add the monic multiple of nonzero packed terms and queue its
        pairs; True means a unit was found."""
        pk = self.pk
        new = _monic(remainder, pk.guards, self.modulus)
        lead = _lead(new[1], pk)
        degree, tail = lead
        if not degree:
            return True
        holders, by_degree, heap = self.holders, self.by_degree, self.heap
        j = len(self.divisors)
        bit = 1 << j
        shared = 0
        rest = (tail + pk.guards - pk.ones) & pk.guards  # the support, on the guard bits
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() // pk.width - 1
            shared |= holders[v]
            holders[v] |= bit
        # one or two groups per degree of lm_i: the coprime pairs, of lcm
        # degree deg_i + deg_j, and the pairs sharing a variable, under the
        # lower bound max(deg_i, deg_j + 1) of their lcm degree (lm_i does
        # not divide the reduced lm_j) until that bound comes up
        coprime = (bit - 1) ^ shared
        for deg_i, members in by_degree.items():
            group = members & coprime
            if group:
                heapq.heappush(heap, (degree + deg_i, (group & -group).bit_length() - 1, j,
                                      group, True))
            group = members & shared
            if group:
                heapq.heappush(heap, (max(deg_i, degree + 1), (group & -group).bit_length() - 1,
                                      j, group, False))
        by_degree[degree] = by_degree.get(degree, 0) | bit
        self.divisors.append(new)
        self.leads.append(lead)
        return False

    def finish(self, budget: int) -> tuple[int, _Packing, list[dict[int, int]] | None]:
        """Process the queued pairs in (lcm degree, i, j) order.  Returns the
        number processed, the packing and the packed reduced basis, None for
        the unit ideal.  Raises ResourceLimitError once more than `budget`
        S-pairs have been processed."""
        p, pk = self.modulus, self.pk
        guards = pk.guards
        divisors, leads, heap = self.divisors, self.leads, self.heap
        processed = 0
        unit = self.unit
        while heap and not unit:
            d, i, j, members, exact = heap[0]
            if not exact:
                # a lower bound came up: requeue its pairs by exact lcm degree
                heapq.heappop(heap)
                deg_j, tail_j = leads[j]
                groups: dict[int, int] = {}
                while members:
                    low = members & -members
                    members ^= low
                    deg_i, tail_i = leads[low.bit_length() - 1]
                    d = deg_i + deg_j - _gcd(tail_i, tail_j, pk) % pk.fold
                    groups[d] = groups.get(d, 0) | low
                for d, group in groups.items():
                    heapq.heappush(heap, (d, (group & -group).bit_length() - 1, j, group, True))
                continue
            members &= members - 1
            if members:
                heapq.heapreplace(heap, (d, (members & -members).bit_length() - 1, j, members,
                                         True))
            else:
                heapq.heappop(heap)
            processed += 1
            if processed > budget:
                raise ResourceLimitError(
                    f"S-pair budget of {budget} exceeded",
                    stage="buchberger",
                    detail={"spairs": processed, "basis": len(divisors),
                            "queued": sum(e[3].bit_count() for e in heap)})
            deg_i, tail_i = leads[i]
            deg_j, tail_j = leads[j]
            gcd_degree = deg_i + deg_j - d
            if not gcd_degree:
                continue  # coprime leading monomials: S-pair reduces to zero
            if d >= pk.limit:
                # every term of this pair's reduction has degree at most d
                self.widen(d)
                pk = self.pk
                guards = pk.guards
                (deg_i, tail_i), (deg_j, tail_j) = leads[i], leads[j]
            _, lmi, taili = divisors[i]
            _, lmj, tailj = divisors[j]
            gcd = (gcd_degree << pk.top) - _gcd(tail_i, tail_j, pk)
            # S-polynomial of two monic elements: their leading terms cancel;
            # lcm/lm_i = lm_j/gcd and lcm/lm_j = lm_i/gcd
            qi = lmj - gcd
            qj = lmi - gcd
            work = {m + qi: c for m, c in taili}
            for m, c in tailj:
                mm = m + qj
                nv = (work.get(mm, 0) - c) % p
                if nv:
                    work[mm] = nv
                else:
                    work.pop(mm, None)
            r = _reduce(work, divisors, guards, p)
            if r:
                unit = self._push(r)
        self.unit = unit
        return processed, pk, None if unit else _reduce_basis(divisors, guards, p)


def _basis(ring: PolyRing, outcome: tuple[int, _Packing, list | None]) -> GroebnerBasis:
    """The reduced basis over `ring` of a run's outcome, whose modulus the
    ring's prime divides: that lane's projection, as `Polynomial` reduces
    each coefficient mod p and drops the terms that become 0."""
    processed, pk, reduced = outcome
    if reduced is None:
        return GroebnerBasis((ring.one(),), processed)
    return GroebnerBasis(tuple(pk.poly(ring, g) for g in reduced), processed)


def buchberger(generators: Sequence[Polynomial], spair_budget: int | None = None, *,
               resume: Rabinowitsch | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `generators`.

    Each basis element is kept monic and packed, with its leading-monomial
    data computed once when it is added.  Pairs are processed in
    (lcm degree, i, j) order, and a pair whose leading monomials are coprime
    (disjoint supports) is counted and skipped.  Raises ResourceLimitError
    once more than `spair_budget` S-pairs have been processed (default from
    spair_budget_default()).

    `resume`, if given, is a `Rabinowitsch` set-up whose generators, lifted
    into the field of `generators`, are exactly `generators[:-1]` (checked,
    not trusted); the run resumes from its state and adds only the last
    generator.  Its pairs, basis, count and budget cut-off are those of a
    run from scratch.
    """
    if not generators:
        raise DegenerateInputError("empty generator list")
    budget = spair_budget if spair_budget is not None else spair_budget_default()
    ring = generators[0].ring
    for g in generators[1:]:
        generators[0]._check_ring(g)
    if resume is None:
        return _basis(ring, _Run.saved(ring, [g.terms for g in generators]).finish(budget))
    return resume.resume(generators, budget)


def _reduce_basis(divisors: list[tuple], guards: int, p: int) -> list[dict[int, int]]:
    """Minimalize then tail-reduce monic divisors; output the packed terms
    of each element, sorted descending by leading monomial."""
    minimal: list[tuple] = []
    for d in sorted(divisors, key=lambda d: d[1]):
        if not any((h[0] - d[1]) & guards == guards for h in minimal):
            minimal.append(d)
    reduced = []
    for i, (_, lm, tail) in enumerate(minimal):
        # lm is divisible by no other leading monomial, so the result stays monic
        reduced.append(_reduce({lm: 1, **dict(tail)}, minimal[:i] + minimal[i + 1:], guards, p))
    reduced.sort(key=lambda r: next(iter(r)), reverse=True)
    return reduced


class Rabinowitsch:
    """The part of the Rabinowitsch test that depends only on `generators`,
    for each field GF(p) with p in `moduli` (by default the generators' own
    field): the field's ring extended by one auxiliary variable t (appended
    last, hence lowest priority), the generators lifted into it, their
    coefficients read mod p, and the runs that `buchberger` resumes.

    A field's lifts are built the first time it asks.  The state after the
    generators lifted mod N, N the product of the moduli, is built the first
    time a run is asked for, and each f's run from it is stored with its
    count and basis for every field to read.  A field runs on its own, from
    its own state, only where that run split, or once the state over Z/N is
    gone.  `done(p)` lets field p's lifts and own state go, and after the
    last of `moduli` the state over Z/N and the stored runs too."""

    __slots__ = ("generators", "moduli", "lifts", "alone", "start", "runs", "built")

    def __init__(self, generators: Sequence[Polynomial], moduli: Sequence[int] | None = None):
        if not generators:
            raise DegenerateInputError("empty generator list")
        self.generators = generators
        self.moduli = (generators[0].ring.modulus,) if moduli is None else moduli
        self.lifts: dict[int, tuple[PolyRing, list[Polynomial]]] = {}  # p: (ring, lifts)
        self.alone: dict[int, _Run] = {}  # p: the field's own state after its lifts
        self.runs: dict[tuple, tuple | None] | None = None  # None until `start` is built
        self.built: tuple | None = None  # the last input `system` built, and its lift mod N

    def _lifted(self, n: int) -> list[tuple]:
        """The terms of each generator that is nonzero mod n, times t^0,
        its coefficients read mod n."""
        first, out = self.generators[0], []
        for g in self.generators:
            first._check_ring(g)
            terms = tuple((m + (0,), c % n) for m, c in g.terms if c % n)
            if terms:
                out.append(terms)
        if not out:
            raise DegenerateInputError("empty generator list")
        return out

    def _field(self, p: int) -> tuple[PolyRing, list[Polynomial]]:
        """GF(p)'s ring and the generators lifted into its extension by t."""
        if p not in self.lifts:
            if p not in self.moduli:
                raise FieldMismatchError(f"GF({p}) vs the moduli {list(self.moduli)}")
            ring = PolyRing(p, self.generators[0].ring.names)
            ext = ring.extend()
            self.lifts[p] = ring, [Polynomial.from_sorted(ext, terms) for terms in self._lifted(p)]
        return self.lifts[p]

    def system(self, f: Polynomial) -> list[Polynomial]:
        """The generators lifted into the field of f, then 1 - t*f.  That is
        built from the terms of f: t*m for each term m, then the constant 1.
        Multiplying by t keeps the descending grevlex order and gives every
        term a positive degree, so the terms are in order as built.  Its run
        over Z/N adds 1 - t*F, F being f with its coefficients read as
        integers in [1, p), so every field whose f has the same integers
        reads the same run."""
        p = f.ring.modulus
        ring, lifted = self._field(p)
        ext = lifted[0].ring
        n = math.prod(self.moduli)
        shift = ring.padding(f.ring) + (1,)
        tf = tuple((m + shift, c) for m, c in f.terms)
        one = ((mono_one(ext.nvars), 1),)
        last = Polynomial.from_sorted(ext, tuple((m, p - c) for m, c in tf) + one)
        self.built = last, tuple((m, n - c) for m, c in tf) + one
        return [*lifted, last]

    def resume(self, generators: Sequence[Polynomial], budget: int) -> GroebnerBasis:
        """The reduced basis of the run that adds the last of `generators`,
        the others being the generators lifted into its field.  A last
        input that `system` did not build is read mod N as it stands."""
        ext, last = generators[0].ring, generators[-1]
        p = ext.modulus
        if p not in self.moduli or list(generators[:-1]) != self._field(p)[1]:
            raise ValueError("the saved run state was not built from generators[:-1]")
        outcome = self._run(self.built[1] if self.built and self.built[0] is last else last.terms,
                            budget)
        if outcome is None:
            if p not in self.alone:
                self.alone[p] = _Run.saved(ext, [g.terms for g in generators[:-1]])
            outcome = self.alone[p].then(last.terms).finish(budget)
        return _basis(ext, outcome)

    def _run(self, terms: tuple, budget: int) -> tuple | None:
        """The outcome of the run over Z/N that adds `terms`: stored, or run
        now under `budget`, which raises ResourceLimitError at that budget's
        cut-off; None where it split or the state is gone."""
        if self.runs is None:
            self.runs = {}
            n = math.prod(self.moduli)
            try:
                self.start = _Run.saved(self.generators[0].ring.extend(), self._lifted(n), n)
            except _Split:
                self.start = None
        outcome = self.runs.get(terms)
        if self.start is not None and (terms not in self.runs or outcome and outcome[0] > budget):
            # not run yet, or stored with more pairs than `budget`: run it
            # under `budget`, which stops at that budget's cut-off
            try:
                outcome = self.start.then(terms).finish(budget)
            except _Split:
                outcome = None
            self.runs[terms] = outcome
        return outcome

    def done(self, p: int):
        """Field p has run every test it needs: its lifts and own state go,
        and after the last of `moduli` the state over Z/N and the stored runs
        too, inside that field's work.  A field asking later runs on its
        own."""
        self.lifts.pop(p, None)
        self.alone.pop(p, None)
        self.built = None
        if p == self.moduli[-1]:
            self.start, self.runs = None, {}


def radical_membership(f: Polynomial, generators: Sequence[Polynomial] | Rabinowitsch,
                       spair_budget: int | None = None,
                       stats: GroebnerStats | None = None) -> bool:
    """True iff f lies in the radical of the ideal generated by `generators`.

    Uses the Rabinowitsch trick: extend the ring by one auxiliary variable t
    (appended last, hence lowest priority) and test 1 in (generators, 1 - t*f)
    with one Buchberger run.  The certificate is valid over the algebraic
    closure of the coefficient field.  `generators` is a sequence of
    polynomials, or the Rabinowitsch set-up of one, built once and shared by
    every f tested against it, over every field it serves; the run resumes
    from the state saved after the generators were added, with the same
    pairs, basis and count.
    """
    if f.is_zero:
        raise DegenerateInputError("radical membership of the zero polynomial")
    setup = generators if isinstance(generators, Rabinowitsch) else Rabinowitsch(generators)
    gb = buchberger(setup.system(f), spair_budget, resume=setup)
    if stats is not None:
        stats.absorb(gb)
    return gb.is_unit_ideal
