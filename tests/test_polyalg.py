import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideal.polyalg import (
    DimensionError,
    FieldMismatchError,
    PolyRing,
    PrimeField,
    grevlex_key,
    is_prime,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_one,
    poly_from_json,
    poly_to_json,
    prime_modulus,
)
from oracles import convolve, grevlex_greater

MODULI = (2, 3, 32003)


def ring(p=32003, n=6):
    return PolyRing(p, [f"x{i}" for i in range(1, n + 1)])


# -- prime fields ---------------------------------------------------------------

def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 15, 32004):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_ring_fields_must_be_integers():
    # PolyRing(3.7, ...) once gave GF(3); a PrimeField or an integer type passes
    for bad in (3.7, 3.0, "3", None):
        with pytest.raises(ValueError, match="prime"):
            PolyRing(bad, ["x"])
    assert PolyRing(PrimeField(3), ["x"]) == PolyRing(3, ["x"])
    assert prime_modulus(PrimeField(5)) == prime_modulus(5) == PrimeField(5).p == 5


@pytest.mark.parametrize("p", MODULI)
def test_inverse_roundtrip(p):
    fld = PrimeField(p)
    for a in range(1, min(p, 50)):
        assert a * fld.inv(a) % p == 1


def test_is_prime_spot_values():
    assert is_prime(2) and is_prime(3) and is_prime(32003)
    assert not is_prime(32001) and not is_prime(1)


def test_is_prime_against_trial_division_and_strong_pseudoprimes():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert all(is_prime(n) == trial(n) for n in range(20_000))
    # the least strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; 2, 3, 5, 7
    # and 2, 3, 5, 7, 11: the first four witnesses do not settle the last two
    for n in (2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747):
        assert not is_prime(n)
    assert is_prime(4_294_967_291) and is_prime(1_099_511_627_791)


# -- monomial operations ----------------------------------------------------------

def test_monomial_ops_product_divides_lcm():
    a = (1, 1, 0, 0, 0, 0)  # x1*x2
    b = (0, 1, 1, 0, 0, 0)  # x2*x3
    assert mono_mul(a, b) == (1, 2, 1, 0, 0, 0)
    assert not mono_divides(a, b)
    assert mono_lcm(a, b) == (1, 1, 1, 0, 0, 0)


def test_identity_monomial():
    one = mono_one(6)
    m = (0, 1, 0, 2, 0, 1)
    assert mono_mul(one, m) == m
    assert mono_divides(one, m)
    assert mono_lcm(one, m) == m


def test_edge_divides_product_of_edges():
    # x1*x2 divides x1*x2*x3*x6
    a = (1, 1, 0, 0, 0, 0)
    b = (1, 1, 1, 0, 0, 1)
    assert mono_divides(a, b)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        mono_mul((1, 0), (1, 0, 0))


@given(st.lists(st.tuples(*[st.integers(0, 4)] * 5), min_size=2, max_size=2))
def test_divides_iff_lcm_is_b(ms):
    a, b = ms
    assert mono_divides(a, b) == (mono_lcm(a, b) == b)


# -- term order --------------------------------------------------------------------

def cmp(a, b) -> int:
    """-1, 0 or 1 as a <, =, > b under grevlex, read from the sort keys."""
    ka, kb = grevlex_key(a), grevlex_key(b)
    return (ka > kb) - (ka < kb)


def test_compare_pure_power_beats_mixed():
    assert cmp((2, 0), (1, 1)) == 1  # x1^2 > x1*x2


def test_compare_reflexive():
    assert cmp((1, 0, 0), (1, 0, 0)) == 0


def test_compare_grevlex_prefers_early_support():
    # degree-2 tie: smaller exponent on the least variable wins
    assert cmp((0, 1, 1, 0), (1, 0, 0, 1)) == 1  # x2*x3 > x1*x4


def test_compare_matches_bruteforce_on_all_degree2_monomials():
    monos = [tuple(1 if k in (i, j) else (2 if i == j and k == i else 0)
                   for k in range(4))
             for i in range(4) for j in range(i, 4)]
    for a in monos:
        for b in monos:
            got = cmp(a, b)
            want = 1 if grevlex_greater(a, b) else (-1 if grevlex_greater(b, a) else 0)
            assert got == want, (a, b)


@given(st.tuples(*[st.integers(0, 3)] * 4), st.tuples(*[st.integers(0, 3)] * 4),
       st.tuples(*[st.integers(0, 3)] * 4))
def test_compare_is_multiplicative_and_degree_refining(a, b, c):
    assert cmp(mono_mul(a, c), mono_mul(b, c)) == cmp(a, b)
    if sum(a) > sum(b):
        assert cmp(a, b) == 1


@given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), min_size=3, max_size=8, unique=True))
def test_compare_is_strict_total_order(sample):
    for a in sample:
        for b in sample:
            cab, cba = cmp(a, b), cmp(b, a)
            assert cab == -cba
            assert (cab == 0) == (a == b)
    for a in sample:
        for b in sample:
            for c in sample:
                if cmp(a, b) > 0 and cmp(b, c) > 0:
                    assert cmp(a, c) > 0


# -- polynomial arithmetic ----------------------------------------------------------

def test_additive_identity():
    R = ring()
    f = R.poly({R.monomial("x1", "x6"): 1, R.monomial("x2", "x3"): 2})
    assert f + R.zero() == f


def test_self_cancellation():
    R = ring()
    f = R.poly({R.monomial("x1", "x6"): 1, R.monomial("x2", "x3"): 1})
    assert (f - f).is_zero


def test_product_over_gf3_against_convolution_oracle():
    R = ring(p=3)
    a, b = R.monomial("x1", "x6"), R.monomial("x2", "x3")
    f = R.poly({a: 1, b: 1})
    g = R.poly({a: 1, b: -1})
    product = f * g
    # hand value: x1^2*x6^2 + 2*x2^2*x3^2 mod 3
    assert dict(product.terms) == {
        R.monomial(x1=2, x6=2): 1,
        R.monomial(x2=2, x3=2): 2,
    }
    assert dict(product.terms) == convolve(dict(f.terms), dict(g.terms), 3)


def test_terms_sorted_descending_and_nonzero():
    R = ring(p=3)
    f = R.poly({R.monomial("x1"): 2, R.monomial(x2=3): 1, R.monomial(): 3})
    # the constant 3 vanishes mod 3; x2^3 has higher degree than x1
    assert [m for m, _ in f.terms] == [R.monomial(x2=3), R.monomial("x1")]
    assert all(grevlex_key(f.terms[i][0]) > grevlex_key(f.terms[i + 1][0])
               for i in range(len(f.terms) - 1))


@pytest.mark.parametrize("mono", [(-1, 1), (0, -2), (1.5, 0), (1.0, 0), ("1", 0), (None, 1),
                                  (True, 0)])
def test_exponents_must_be_non_negative_integers(mono):
    R = PolyRing(2, ["x", "y"])
    with pytest.raises(ValueError):
        R.poly({mono: 1, (0, 0): 1})
    with pytest.raises(ValueError):
        poly_from_json(R, {"terms": [{"c": 1, "e": list(mono)}]})


@pytest.mark.parametrize("power", [-1, 1.5, 1.0, "1", None, True])
def test_monomial_rejects_bad_powers(power):
    R = PolyRing(2, ["x", "y"])
    with pytest.raises(ValueError, match="non-negative integers"):
        R.monomial(x=power)
    with pytest.raises(ValueError, match="non-negative integers"):
        R.monomial("x", x=power)
    assert R.monomial("x", x=0, y=2) == (1, 2)


def test_field_mismatch_raises():
    a = ring(p=2).one()
    b = ring(p=3).one()
    with pytest.raises(FieldMismatchError):
        a + b


def _polys(p, nvars=4):
    monos = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(monos, st.integers(0, p - 1), max_size=5).map(
        lambda d: PolyRing(p, [f"x{i}" for i in range(nvars)]).poly(d))


@pytest.mark.parametrize("p", MODULI)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_axioms(p, data):
    f = data.draw(_polys(p))
    g = data.draw(_polys(p))
    h = data.draw(_polys(p))
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@pytest.mark.parametrize("p", MODULI)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), extra=st.integers(1, 2))
def test_lift_equals_the_sorted_construction(p, data, extra):
    f = data.draw(_polys(p))
    ext = f.ring
    for i in range(extra):
        ext = ext.extend(f"t{i}")
    pad = (0,) * extra
    lifted = ext.lift(f)
    assert lifted.ring == ext
    assert lifted.terms == ext.poly({m + pad: c for m, c in f.terms}).terms


def test_json_roundtrip_and_term_order():
    R = ring()
    f = R.poly({R.monomial("x1", "x2"): 1, R.monomial("x3", "x4"): 5})
    doc = poly_to_json(f)
    assert doc["terms"][0] == {"c": 1, "e": [1, 1, 0, 0, 0, 0]}  # grevlex-largest first
    assert doc["terms"][1] == {"c": 5, "e": [0, 0, 1, 1, 0, 0]}
    assert poly_from_json(R, doc) == f


@pytest.mark.parametrize("coeff", [2.5, 7.9, 2.0, "3", True, None])
def test_json_coefficients_must_be_integers(coeff):
    # nothing is truncated: over GF(5), 2.5 and 7.9 are not read as 2
    R = PolyRing(5, ["x"])
    with pytest.raises(ValueError, match="coefficients must be integers"):
        poly_from_json(R, {"terms": [{"c": coeff, "e": [1]}]})
    assert poly_from_json(R, {"terms": [{"c": 7, "e": [1]}]}) == R.term(2, (1,))


@pytest.mark.parametrize("coeff", [2.5, 7.9, 2.0, "3", True, False, None])
def test_polynomial_coefficients_must_be_integers(coeff):
    # every constructor reads coefficients as poly_from_json does: 2.5 is
    # not kept over GF(5), and True is not 1
    R = PolyRing(5, ["x"])
    x = R.term(1, (1,))
    for build in (lambda: R.poly({(1,): coeff}), lambda: R.term(coeff, (1,)),
                  lambda: R.constant(coeff), lambda: x.scale(coeff),
                  lambda: x.mul_term(coeff, (1,))):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            build()


def test_polynomial_coefficients_are_read_with_index():
    class Index:
        def __index__(self):
            return 7

    R = PolyRing(5, ["x"])
    f = R.poly({(1,): Index()})
    assert f == R.term(2, (1,)) and type(f.terms[0][1]) is int


def test_json_refuses_two_terms_with_one_exponent_vector():
    # [x, x] once read as x: the second term overwrote the first
    R = PolyRing(5, ["x"])
    with pytest.raises(ValueError, match=r"two terms with exponents \[1\]"):
        poly_from_json(R, {"terms": [{"c": 1, "e": [1]}, {"c": 1, "e": [1]}]})
    assert poly_from_json(R, {"terms": [{"c": 1, "e": [1]}, {"c": 1, "e": [0]}]}) == \
        R.term(1, (1,)) + R.one()
