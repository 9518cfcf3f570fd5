"""Exact multivariate polynomial arithmetic over prime fields.

A monomial is a dense exponent tuple relative to a fixed ring; a polynomial
stores its terms sorted in strictly descending graded-reverse-lexicographic
order.  Every value is immutable and every operation is pure, so all types
here are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import operator
from typing import Iterable, Mapping

from .records import FrozenRecord

Mono = tuple[int, ...]


class DimensionError(ValueError):
    """Operands have different ambient variable counts."""


class FieldMismatchError(ValueError):
    """Operands live over different prime moduli."""


# -- prime fields ------------------------------------------------------------

# Miller-Rabin with the witnesses of the first bound above n is exact
# (Pomerance, Selfridge and Wagstaff 1980; Jaeschke 1993)
_MR_WITNESSES = ((1_373_653, (2, 3)), (3_215_031_751, (2, 3, 5, 7)),
                 (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all machine-word sized inputs."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for bound, witnesses in _MR_WITNESSES:
        if n < bound:
            break
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_modulus(value) -> int:
    """The prime p of GF(p) named by `value`: a PrimeField, or an integer (an
    int or any type with __index__) that is a machine-word sized prime.
    Nothing is truncated: 2.5, 3.0 and "3" are refused with ValueError, like
    a composite."""
    if isinstance(value, PrimeField):
        return value.p
    try:
        p = operator.index(value)
    except TypeError:
        p = 0  # not an integer: refused below
    if p >= 1 << 62 or not is_prime(p):
        raise ValueError(f"modulus must be a machine-word sized prime, got {value!r}")
    return p


class PrimeField(FrozenRecord):
    """GF(p) for a machine-word sized prime p; elements are ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        object.__setattr__(self, "p", prime_modulus(p))

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)


# -- monomials ---------------------------------------------------------------

def mono_one(nvars: int) -> Mono:
    return (0,) * nvars


def _check_dims(a: Mono, b: Mono):
    if len(a) != len(b):
        raise DimensionError(f"monomials of ambient dimension {len(a)} vs {len(b)}")


def mono_mul(a: Mono, b: Mono) -> Mono:
    _check_dims(a, b)
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    _check_dims(a, b)
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    """a / b; requires b | a."""
    _check_dims(a, b)
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        raise ValueError(f"{b} does not divide {a}")
    return out


def mono_lcm(a: Mono, b: Mono) -> Mono:
    _check_dims(a, b)
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(a: Mono) -> int:
    return sum(a)


def mono_is_squarefree(a: Mono) -> bool:
    return all(e <= 1 for e in a)


# -- term order --------------------------------------------------------------

def grevlex_key(mono: Mono):
    """Sort key of the graded reverse lexicographic order, with variables
    prioritised in declaration order: a larger key is a larger monomial.
    The order refines total degree and is compatible with multiplication."""
    return (sum(mono), tuple(-x for x in reversed(mono)))


# -- rings and polynomials ---------------------------------------------------

class PolyRing:
    """GF(p)[names...] under the grevlex term order.

    Variable declaration order doubles as the grevlex priority, so callers
    fix priorities by choosing the name order (x-block before y-block before
    z-block before any auxiliary variable).  Two rings are equal when their
    fields and names are.
    """

    __slots__ = ("field", "names", "_index")

    def __init__(self, modulus, names: Iterable[str]):
        fld = modulus if isinstance(modulus, PrimeField) else PrimeField(modulus)
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.field = fld
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}

    @property
    def modulus(self) -> int:
        return self.field.p

    @property
    def nvars(self) -> int:
        return len(self.names)

    def __eq__(self, other):
        return (isinstance(other, PolyRing)
                and self.field == other.field
                and self.names == other.names)

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"PolyRing(GF({self.modulus}), {'.'.join(self.names)})"

    def index(self, name: str) -> int:
        return self._index[name]

    def monomial(self, *names: str, **powers: int) -> Mono:
        """Monomial from variable names; repeated names multiply."""
        e = [0] * self.nvars
        for nm in names:
            e[self._index[nm]] += 1
        for nm, k in powers.items():
            if type(k) is not int or k < 0:
                raise ValueError(f"exponents must be non-negative integers, got {nm}={k!r}")
            e[self._index[nm]] += k
        return tuple(e)

    def poly(self, terms: Mapping[Mono, int]) -> "Polynomial":
        return Polynomial(self, terms)

    def term(self, coeff: int, mono: Mono) -> "Polynomial":
        return Polynomial(self, {mono: coeff})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        return Polynomial(self, {mono_one(self.nvars): c})

    def variable(self, which) -> "Polynomial":
        i = which if isinstance(which, int) else self._index[which]
        e = [0] * self.nvars
        e[i] = 1
        return self.term(1, tuple(e))

    def extend(self, name: str | None = None) -> "PolyRing":
        """Ring with one fresh variable appended (lowest grevlex priority)."""
        if name is None:
            name = "t"
            k = 0
            while name in self._index:
                k += 1
                name = f"t{k}"
        elif name in self._index:
            raise ValueError(f"variable {name!r} already present")
        return PolyRing(self.field, self.names + (name,))

    def lift(self, poly: "Polynomial") -> "Polynomial":
        """Re-embed a polynomial whose ring's names are a prefix of this ring's."""
        # trailing zero exponents change neither grevlex comparisons nor the
        # reduced coefficients, so the terms stay valid as they are padded
        pad = self.padding(poly.ring)
        return Polynomial.from_sorted(self, tuple((m + pad, c) for m, c in poly.terms))

    def padding(self, src: "PolyRing") -> Mono:
        """The zero exponents that embed a monomial of `src` in this ring;
        `src` must have a prefix of this ring's names and the same field."""
        if src.names != self.names[: src.nvars]:
            raise DimensionError("source ring is not a prefix of the target ring")
        if src.modulus != self.modulus:
            raise FieldMismatchError(f"GF({src.modulus}) vs GF({self.modulus})")
        return (0,) * (self.nvars - src.nvars)

    def convert(self, poly: "Polynomial") -> "Polynomial":
        """Reinterpret a polynomial over the same variables in this ring's field."""
        if poly.ring.names != self.names:
            raise DimensionError("variable names differ")
        return Polynomial(self, dict(poly.terms))


def _coefficient(c) -> int:
    """A coefficient read with operator.index, as `prime_modulus` reads a
    field: 2.5, "3" and True are refused with ValueError, not truncated."""
    if not isinstance(c, bool):
        try:
            return operator.index(c)
        except TypeError:
            pass
    raise ValueError(f"coefficients must be integers, got {c!r}")


class Polynomial:
    """Immutable polynomial over a PolyRing.

    Terms are (monomial, coefficient) pairs, coefficients nonzero in [1, p),
    sorted strictly descending in grevlex order; the zero polynomial is the
    empty term tuple.  Coefficients are given as integers (see
    `_coefficient`) and read mod p.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: Mapping[Mono, int]):
        p = ring.modulus
        nv = ring.nvars
        clean = {}
        for m, c in terms.items():
            if len(m) != nv:
                raise DimensionError(f"monomial {m} in {nv}-variable ring")
            if not all(type(e) is int for e in m) or min(m, default=0) < 0:
                raise ValueError(f"exponents must be non-negative integers, got {m}")
            if type(c) is not int:
                c = _coefficient(c)
            c %= p
            if c:
                clean[m] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms",
                           tuple(sorted(clean.items(), key=lambda t: grevlex_key(t[0]),
                                        reverse=True)))

    @classmethod
    def from_sorted(cls, ring: PolyRing, terms: tuple) -> "Polynomial":
        """Polynomial of terms that are already valid for `ring`: exponent
        tuples of its length, coefficients in [1, p), strictly descending in
        grevlex order.  Nothing is checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- structure

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def leading_term(self) -> tuple[Mono, int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self) -> Mono:
        return self.leading_term()[0]

    def leading_coeff(self) -> int:
        return self.leading_term()[1]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m, _ in self.terms)

    def monomials(self) -> tuple[Mono, ...]:
        return tuple(m for m, _ in self.terms)

    def __eq__(self, other):
        return (isinstance(other, Polynomial)
                and self.ring == other.ring and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.terms))

    # -- arithmetic

    def _check_ring(self, other: "Polynomial"):
        if self.ring.names != other.ring.names:
            raise DimensionError("polynomials from different rings")
        if self.ring.modulus != other.ring.modulus:
            raise FieldMismatchError(
                f"GF({self.ring.modulus}) vs GF({other.ring.modulus})")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + c
        return Polynomial(self.ring, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) - c
        return Polynomial(self.ring, acc)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        acc: dict[Mono, int] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(self.ring, acc)

    def mul_term(self, coeff: int, mono: Mono) -> "Polynomial":
        coeff = _coefficient(coeff)
        return Polynomial(self.ring,
                          {mono_mul(m, mono): c * coeff for m, c in self.terms})

    def scale(self, coeff: int) -> "Polynomial":
        coeff = _coefficient(coeff)
        return Polynomial(self.ring, {m: c * coeff for m, c in self.terms})

    # -- rendering

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for m, c in self.terms:
            factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                       for i, e in enumerate(m) if e]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self} over GF({self.ring.modulus}))"


# -- JSON wire format --------------------------------------------------------

def poly_to_json(poly: Polynomial) -> dict:
    """`{"terms":[{"c": coeff, "e": exponents}, ...]}` in descending term order."""
    return {"terms": [{"c": c, "e": list(m)} for m, c in poly.terms]}


def poly_from_json(ring: PolyRing, obj: Mapping) -> Polynomial:
    """The polynomial of `poly_to_json`'s format; two terms with one exponent
    vector are refused, not summed or overwritten."""
    terms = {}
    for t in obj["terms"]:
        mono = tuple(t["e"])
        if mono in terms:
            raise ValueError(f"two terms with exponents {list(mono)}")
        terms[mono] = t["c"]
    return ring.poly(terms)
