"""Independent reference implementations used to check the engine.

Everything here recomputes results from definitions, bypassing the package's
own code paths, so a test comparing the two sides is a genuine cross-check.
"""

from itertools import combinations
from math import comb


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
