"""Independent reference implementations used to check the engine.

Everything here recomputes results from definitions, bypassing the package's
own code paths, so a test comparing the two sides is a genuine cross-check.
The shared pieces are the boundary-rank reducer behind `hochster_betti`,
which `test_independent_oracles.py` checks against a row reduction of its own,
and `ideal_contains_one`, which reads the package's `buchberger`.
"""

import heapq
from itertools import combinations
from math import comb

from edgeideal.groebner import DegenerateInputError, buchberger
from edgeideal.homcomplex import _homology_from_faces
from edgeideal.polyalg import mono_div, mono_lcm


def convolve(f_terms: dict, g_terms: dict, p: int) -> dict:
    """Naive polynomial product on {exponent-tuple: coeff} dicts mod p."""
    out = {}
    for ma, ca in f_terms.items():
        for mb, cb in g_terms.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = (out.get(m, 0) + ca * cb) % p
    return {m: c for m, c in out.items() if c}


def grevlex_greater(a: tuple, b: tuple) -> bool:
    """Definitional graded-reverse-lex: higher total degree wins; within a
    degree, the last nonzero entry of a - b must be negative."""
    da, db = sum(a), sum(b)
    if da != db:
        return da > db
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x < y
    return False


def s_polynomial(f, g):
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


def ideal_contains_one(generators, spair_budget=None, stats=None) -> bool:
    """True iff the reduced Groebner basis of the ideal is {1}."""
    gb = buchberger(generators, spair_budget)
    if stats is not None:
        stats.absorb(gb)
    return gb.is_unit_ideal


def monomial_ideal_contains(mono: tuple, generators: list) -> bool:
    """Membership of a monomial in a monomial ideal is plain divisibility."""
    return any(all(g <= m for g, m in zip(gen, mono)) for gen in generators)


def all_faces(facets) -> set:
    """Every face of a facet list, the empty face included."""
    faces = set()
    for facet in facets:
        elems = sorted(facet)
        for size in range(len(elems) + 1):
            for combo in combinations(elems, size):
                faces.add(frozenset(combo))
    return faces


def reduced_euler_characteristic(facets) -> int:
    """Sum of (-1)^dim over all faces, the empty face contributing at dim -1."""
    if not facets:
        return 0
    return sum((-1) ** (len(face) - 1) for face in all_faces(facets))


def profile_euler_sum(profile: dict) -> int:
    """Alternating sum of reduced homology dimensions."""
    return sum((-1) ** i * dim for i, dim in profile.items())


def shifted_profile(profile: dict, shift: int) -> dict:
    return {i + shift: dim for i, dim in profile.items()}


def vertex_cover_bruteforce(labels, edges) -> int:
    """Minimum vertex cover by subset enumeration, independent bit layout."""
    labs = list(labels)
    if not edges:
        return 0
    for size in range(1, len(labs) + 1):
        for combo in combinations(labs, size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    raise AssertionError("unreachable")


def jacques_cycle_betti(n: int) -> dict:
    """Graded Betti numbers {(i, d): dim} of the edge ideal of the n-cycle,
    from the closed forms of S. Jacques, Betti numbers of graph ideals
    (thesis, 2004, arXiv:math/0410107)."""
    table = {}
    for d in range(2, n):
        for i in range((d + 1) // 2, d):
            b = d - i
            if n - 2 * b <= 0:
                continue
            num = n * comb(b, 2 * i - d) * comb(n - 2 * b, b)
            if num:
                assert num % (n - 2 * b) == 0
                table[(i, d)] = num // (n - 2 * b)
    # top degree: one entry, set by n mod 3
    top = {0: (2 * n // 3, 2), 1: ((2 * n + 1) // 3, 1), 2: ((2 * n - 1) // 3, 1)}
    i, dim = top[n % 3]
    table[(i, n)] = dim
    return table


def kozlov_cycle_homology(n: int) -> dict:
    """Reduced homology {degree: dim} of the independence complex of the
    n-cycle, n >= 3, over any field.  Ind(C_n) is homotopy equivalent to a
    wedge of two (k-1)-spheres for n = 3k, to one (k-1)-sphere for n = 3k+1
    and to one k-sphere for n = 3k+2 (D. N. Kozlov, Complexes of directed
    trees, J. Combin. Theory Ser. A 88 (1999))."""
    k, r = divmod(n, 3)
    return {0: {k - 1: 2}, 1: {k - 1: 1}, 2: {k: 1}}[r]


def hochster_betti(nbr: list, p: int) -> dict:
    """Graded Betti numbers {(i, d): dim} over GF(p) of the edge ideal of the
    graph with neighbour masks `nbr`, by Hochster's formula taken literally:
    every nonempty vertex subset W, its independence complex listed face by
    face as the independent sets of G inside W.  No cone is skipped, no
    vertex folded and no component split; only the ranks come from the
    package's reducer."""
    n = len(nbr)
    independent = [s for s in range(1 << n)
                   if all(not nbr[v] & s for v in range(n) if s >> v & 1)]
    table = {}
    for w in range(1, 1 << n):
        faces = [s for s in independent if not s & ~w]
        d = w.bit_count()
        for k, dim in _homology_from_faces(faces, p).items():
            table[(d - k - 1, d)] = table.get((d - k - 1, d), 0) + dim
    return table


# -- Buchberger, the textbook loop ----------------------------------------------

def _grevlex(mono: tuple):
    """Sort key: a larger key is a larger monomial in graded reverse lex."""
    return (sum(mono), tuple(-x for x in reversed(mono)))


def _reference_normal_form(f: dict, basis: list, p: int) -> dict:
    """Full reduction of f, largest term first, each term by the first basis
    element whose leading monomial divides it.  The divisor list is rebuilt
    from the basis on every call."""
    divisors = []
    for b in basis:
        lm = max(b, key=_grevlex)
        divisors.append((lm, pow(b[lm], p - 2, p), b))
    work = dict(f)
    remainder = {}
    while work:
        mono = max(work, key=_grevlex)
        coeff = work.pop(mono)
        for lm, lc_inv, b in divisors:
            if all(x <= y for x, y in zip(lm, mono)):
                qm = tuple(y - x for x, y in zip(lm, mono))
                qc = coeff * lc_inv % p
                for bm, bc in b.items():
                    if bm == lm:
                        continue
                    mm = tuple(x + y for x, y in zip(qm, bm))
                    nv = (work.get(mm, 0) - qc * bc) % p
                    if nv:
                        work[mm] = nv
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[mono] = coeff
    return remainder


def _monic(f: dict, p: int) -> dict:
    inv = pow(f[max(f, key=_grevlex)], p - 2, p)
    return {m: c * inv % p for m, c in f.items()}


class ReferenceBudgetExceeded(Exception):
    """The textbook loop processed more S-pairs than its budget; `detail`
    says how far it got: pairs processed, basis length and pairs queued."""

    def __init__(self, detail: dict):
        super().__init__(detail)
        self.detail = detail


def reference_buchberger(generators: list, p: int, budget: int | None = None) -> tuple:
    """Reduced Groebner basis of the ideal of `generators` ({exponent-tuple:
    coeff} dicts over GF(p)) by the textbook loop: pairs in (lcm degree, i, j)
    order, coprime pairs counted and skipped, each S-polynomial built from
    its definition.  Returns (basis as term tuples in descending order,
    pairs processed).  Raises ReferenceBudgetExceeded when the pair that
    would be processed is the one past `budget`."""
    basis, pairs = [], []

    def push(f):
        lm = max(f, key=_grevlex)
        if not any(lm):
            return True
        basis.append(f)
        j = len(basis) - 1
        for i in range(j):
            lmi = max(basis[i], key=_grevlex)
            heapq.heappush(pairs, (sum(map(max, lmi, lm)), i, j))
        return False

    processed, unit = 0, False
    for g in generators:
        if not g:
            continue
        r = _reference_normal_form(g, basis, p)
        if r and push(_monic(r, p)):
            unit = True
            break
    while pairs and not unit:
        _, i, j = heapq.heappop(pairs)
        processed += 1
        if budget is not None and processed > budget:
            raise ReferenceBudgetExceeded(
                {"spairs": processed, "basis": len(basis), "queued": len(pairs)})
        fi, fj = basis[i], basis[j]
        lmi, lmj = max(fi, key=_grevlex), max(fj, key=_grevlex)
        lcm = tuple(map(max, lmi, lmj))
        if lcm == tuple(x + y for x, y in zip(lmi, lmj)):
            continue
        s = {}
        for f, lm, sign in ((fi, lmi, 1), (fj, lmj, -1)):
            q = tuple(x - y for x, y in zip(lcm, lm))
            for m, c in f.items():
                mm = tuple(x + y for x, y in zip(m, q))
                s[mm] = (s.get(mm, 0) + sign * c) % p
        r = _reference_normal_form({m: c for m, c in s.items() if c}, basis, p)
        if r:
            unit = push(_monic(r, p))

    def terms(f):
        return tuple(sorted(f.items(), key=lambda t: _grevlex(t[0]), reverse=True))

    if unit:
        nvars = len(next(m for g in generators for m in g))
        return ((((0,) * nvars, 1),),), processed
    minimal = []
    for f in sorted(basis, key=lambda f: _grevlex(max(f, key=_grevlex))):
        lm = max(f, key=_grevlex)
        if not any(all(x <= y for x, y in zip(max(h, key=_grevlex), lm)) for h in minimal):
            minimal.append(f)
    reduced = [_monic(_reference_normal_form(f, minimal[:i] + minimal[i + 1:], p), p)
               for i, f in enumerate(minimal)]
    reduced.sort(key=lambda f: _grevlex(max(f, key=_grevlex)), reverse=True)
    return tuple(terms(f) for f in reduced), processed
