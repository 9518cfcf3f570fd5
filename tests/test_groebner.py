import itertools
import json
import random
from pathlib import Path

import pytest

from edgeideal import groebner
from edgeideal.errors import ResourceLimitError
from edgeideal.graphs import build_from_string, edge_ideal, enumerate_specs, ring_of
from edgeideal.groebner import (
    FIELD_BITS,
    DegenerateInputError,
    GroebnerStats,
    Rabinowitsch,
    buchberger,
    normal_form,
    radical_membership,
)
from edgeideal.polyalg import (
    DimensionError,
    FieldMismatchError,
    PolyRing,
    mono_div,
    mono_divides,
    mono_lcm,
)
from edgeideal.sequences import bicyclic_vertex_sequence, cycle_sequence, sequence_for
from mutations import all_mutations
from oracles import (
    ReferenceBudgetExceeded,
    _reference_normal_form,
    ideal_contains_one,
    monomial_ideal_contains,
    reference_buchberger,
    s_polynomial,
)


def ring(p=32003, n=6):
    return PolyRing(p, [f"x{i}" for i in range(1, n + 1)])


def edge(R, u, v):
    return R.term(1, R.monomial(u, v))


# -- s_polynomial ------------------------------------------------------------------

def test_spoly_of_monomials_vanishes():
    R = ring()
    assert s_polynomial(edge(R, "x1", "x2"), edge(R, "x2", "x3")).is_zero


def test_spoly_of_identical_inputs_vanishes():
    R = ring()
    f = R.poly({R.monomial("x1", "x6"): 1, R.monomial("x2", "x3"): 1})
    assert s_polynomial(f, f).is_zero


def test_spoly_against_definition():
    R = ring()
    f = R.poly({R.monomial("x1", "x6"): 1, R.monomial("x2", "x3"): 1})
    g = R.poly({R.monomial("x2", "x3"): 1, R.monomial("x4", "x5"): 1})
    s = s_polynomial(f, g)
    # symbolic recomputation from the definition
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(lmf, lmg)
    want = (f.mul_term(R.field.inv(f.leading_coeff()), mono_div(lcm, lmf))
            - g.mul_term(R.field.inv(g.leading_coeff()), mono_div(lcm, lmg)))
    assert s == want
    # leading terms cancelled: a binomial of degree <= 4 remains
    assert len(s.terms) == 2 and s.degree() <= 4
    assert set(s.monomials()) == {R.monomial("x1", "x6"), R.monomial("x4", "x5")}


def test_spoly_rejects_zero():
    R = ring()
    with pytest.raises(DegenerateInputError):
        s_polynomial(R.zero(), R.one())


# -- normal form -------------------------------------------------------------------

def test_normal_form_divisible_monomial():
    R = ring()
    assert normal_form(R.term(1, R.monomial("x1", "x2", "x3")),
                       [edge(R, "x1", "x2")]).is_zero


def test_normal_form_irreducible():
    R = ring()
    f = edge(R, "x1", "x3")
    assert normal_form(f, [edge(R, "x1", "x2"), edge(R, "x2", "x3")]) == f


def _is_normal_form_of(r, f, basis):
    """No term of r is divisible by a leading monomial of `basis`, and f - r
    reduces to zero modulo a Groebner basis of the ideal of `basis`."""
    lms = [b.leading_monomial() for b in basis]
    return (all(not mono_divides(lm, m) for m in r.monomials() for lm in lms)
            and normal_form(f - r, buchberger(basis).generators).is_zero)


def test_normal_form_two_steps_with_reexpansion():
    R = ring()
    f = R.term(1, R.monomial(x2=2, x3=2))
    g = R.poly({R.monomial("x2", "x3"): 1, R.monomial("x4", "x5"): 1})
    r = normal_form(f, [g])
    assert r == R.term(1, R.monomial(x4=2, x5=2))
    assert _is_normal_form_of(r, f, [g])


def test_division_identity_random():
    rng = random.Random(7)
    R = ring(p=3, n=4)
    monos = [tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(30)]
    for _ in range(25):
        f = R.poly({rng.choice(monos): rng.randint(1, 2) for _ in range(4)})
        basis = [R.poly({rng.choice(monos): rng.randint(1, 2) for _ in range(2)})
                 for _ in range(2)]
        basis = [b for b in basis if not b.is_zero]
        if not basis:
            continue
        assert _is_normal_form_of(normal_form(f, basis), f, basis)


def test_normal_form_idempotent():
    R = ring()
    basis = [R.poly({R.monomial("x2", "x3"): 1, R.monomial("x4", "x5"): 1}),
             edge(R, "x1", "x2")]
    f = R.poly({R.monomial(x2=2, x3=2): 1, R.monomial("x1", "x2", "x3"): 4,
                R.monomial("x6"): 2})
    r = normal_form(f, basis)
    assert normal_form(r, basis) == r


# -- buchberger -----------------------------------------------------------------------

def test_principal_monomial_ideal():
    R = ring()
    gb = buchberger([edge(R, "x1", "x2")])
    assert [g for g in gb] == [edge(R, "x1", "x2")]


def test_unit_ideal():
    R = PolyRing(32003, ["x"])
    x = R.variable("x")
    gb = buchberger([x, R.one() - x])
    assert list(gb) == [R.one()]
    assert gb.is_unit_ideal


def test_cycle4_edge_ideal_is_self_groebner():
    g = build_from_string("cycle:4")
    R = ring_of(g, 32003)
    gens = [R.term(1, m) for m in edge_ideal(g)]
    gb = buchberger(gens)
    assert set(gb.generators) == set(gens)


def test_all_spairs_reduce_to_zero_and_basis_reduced():
    R = ring()
    gens = [R.poly({R.monomial("x1", "x2"): 1, R.monomial("x3", "x4"): 1}),
            R.poly({R.monomial("x2", "x3"): 1, R.monomial("x4", "x5"): 1}),
            R.poly({R.monomial("x1", "x5"): 1, R.monomial("x2", "x4"): 2})]
    gb = buchberger(gens)
    basis = list(gb)
    for f, g in itertools.combinations(basis, 2):
        assert normal_form(s_polynomial(f, g), basis).is_zero
    lms = [g.leading_monomial() for g in basis]
    for i, a in enumerate(lms):
        for j, b in enumerate(lms):
            if i != j:
                assert not mono_divides(a, b)


def test_reduced_basis_is_canonical():
    # the reduced basis of an ideal is unique, whatever the generator order
    seq = cycle_sequence(5, modulus=2)
    R = seq.ring
    ext = R.extend()
    t = ext.variable(ext.nvars - 1)
    gens = [ext.lift(q) for q in seq.polys]
    gens.append(ext.one() - t * ext.lift(R.term(1, R.monomial("x2", "x3"))))
    forward = buchberger(gens).generators
    backward = buchberger(list(reversed(gens))).generators
    assert forward == backward


def _random_system(rng, p):
    """Either a random ideal with squares in its leading monomials, or a
    Rabinowitsch system: random squarefree quadrics (or a cycle or bicyclic
    generator sequence) plus 1 - t*m for a random quadratic monomial m."""
    kind = rng.choice(["random", "random", "rabinowitsch", "sequence"])
    if kind == "random":
        R = PolyRing(p, [f"x{i}" for i in range(rng.randint(2, 4))])
        return [R.poly({tuple(rng.randint(0, 2) for _ in range(R.nvars)): rng.randrange(1, p)
                        for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(2, 4))]
    if kind == "sequence":
        seq = rng.choice([cycle_sequence(rng.randint(3, 6), modulus=p),
                          bicyclic_vertex_sequence(3, rng.randint(3, 4), modulus=p)])
        R, gens = seq.ring, list(seq.polys)
    else:
        R = PolyRing(p, [f"x{i}" for i in range(rng.randint(3, 6))])
        quadrics = [tuple(int(i in pair) for i in range(R.nvars))
                    for pair in itertools.combinations(range(R.nvars), 2)]
        gens = [R.poly({m: rng.randrange(1, p) for m in rng.sample(quadrics, rng.randint(1, 3))})
                for _ in range(rng.randint(2, 4))]
    ext = R.extend()
    t = ext.variable(ext.nvars - 1)
    u, v = rng.sample(range(R.nvars), 2)
    target = ext.lift(R.term(1, R.monomial(R.names[u], R.names[v])))
    return [ext.lift(g) for g in gens] + [ext.one() - t * target]


@pytest.mark.parametrize("p", [2, 32003])
def test_buchberger_matches_the_textbook_loop(p):
    # same reduced basis, same S-pair count and the same budget cut-off as
    # the reference, on seeded random ideals and Rabinowitsch systems
    rng, cuts = random.Random(p), random.Random(-p)
    for _ in range(60):
        gens = _random_system(rng, p)
        want_basis, want_pairs = reference_buchberger([dict(g.terms) for g in gens], p)
        gb = buchberger(gens)
        assert tuple(g.terms for g in gb) == want_basis
        assert gb.spairs_processed == want_pairs
        # the cut-off one pair short of the end and at a random earlier
        # budget: pairs processed, basis length and pairs still queued
        for budget in {want_pairs - 1, cuts.randrange(want_pairs)} if want_pairs else ():
            with pytest.raises(ReferenceBudgetExceeded) as want:
                reference_buchberger([dict(g.terms) for g in gens], p, budget)
            with pytest.raises(ResourceLimitError) as err:
                buchberger(gens, spair_budget=budget)
            assert err.value.detail == want.value.detail


# -- packed monomials at the edges of their range ----------------------------------------

def _sparse_system(rng, nvars, p):
    """Two or three generators of one to three terms in an `nvars`-variable
    ring, over the first, the last and a random variable."""
    R = PolyRing(p, [f"x{i}" for i in range(nvars)])
    pool = {0, nvars - 1, rng.randrange(nvars)}

    def mono():
        e = [0] * nvars
        for v in pool:
            e[v] = rng.randint(0, 2)
        return tuple(e)

    return [R.poly({mono(): rng.randrange(1, p) for _ in range(rng.randint(1, 3))})
            for _ in range(rng.randint(2, 3))]


def _matches_the_textbook_loop(gens, p, rng):
    """Same reduced basis and S-pair count as the reference, and the same
    normal form of a random polynomial modulo the generators."""
    want_basis, want_pairs = reference_buchberger([dict(g.terms) for g in gens], p)
    gb = buchberger(gens)
    R = gens[0].ring
    f = R.poly({tuple(rng.randint(0, 3) for _ in range(R.nvars)): rng.randrange(1, p)
                for _ in range(4)})
    want_nf = _reference_normal_form(dict(f.terms), [dict(g.terms) for g in gens], p)
    return ((tuple(g.terms for g in gb), gb.spairs_processed) == (want_basis, want_pairs)
            and normal_form(f, gens) == R.poly(want_nf))


@pytest.mark.parametrize("nvars", [1, 63, 64, 65, 130])
def test_packed_rings_match_the_textbook_loop(nvars):
    # fields of the first and last variables, at word boundaries and past them
    rng = random.Random(nvars)
    for p in (2, 32003):
        for _ in range(10):
            assert _matches_the_textbook_loop(_sparse_system(rng, nvars, p), p, rng)


@pytest.mark.parametrize("p", [2, 32003])
def test_narrow_fields_repack_and_match_the_textbook_loop(p, monkeypatch):
    # 2-bit fields hold only exponents below 2: nearly every run widens its
    # fields while pairs are processed, some more than once
    monkeypatch.setattr(groebner, "FIELD_BITS", 2)
    rng = random.Random(p + 1)
    for _ in range(40):
        assert _matches_the_textbook_loop(_random_system(rng, p), p, rng)


def test_degrees_at_and_past_the_field_limit(monkeypatch):
    widths = []

    class Recorded(groebner._Packing):
        def __init__(self, nvars, degree):
            super().__init__(nvars, degree)
            widths.append(self.width)

    monkeypatch.setattr(groebner, "_Packing", Recorded)
    limit = 1 << (FIELD_BITS - 1)
    R = PolyRing(32003, ["x", "y", "z", "w"])
    # inputs of degree limit - 1 fit the default fields; the pair of f and g
    # has lcm degree 2*limit - 3 and widens them.  Inputs of degree limit
    # start wider.
    for degree, want_widths in ((limit - 1, [FIELD_BITS, 2 * FIELD_BITS]),
                                (limit, [2 * FIELD_BITS])):
        f = R.poly({(degree - 1, 1, 0, 0): 1, (0, 0, 0, 1): 1})
        g = R.poly({(0, 1, degree - 1, 0): 1, (0, 0, 0, 1): 2})
        widths.clear()
        gb = buchberger([f, g])
        assert widths == want_widths
        assert ((tuple(h.terms for h in gb), gb.spairs_processed)
                == reference_buchberger([dict(f.terms), dict(g.terms)], 32003))
        h = R.poly({(2 * degree, 1, 1, 0): 3, (1, degree, 0, 1): 1, (0, 0, 0, 2): 5})
        assert normal_form(h, [f, g]) == R.poly(
            _reference_normal_form(dict(h.terms), [dict(f.terms), dict(g.terms)], 32003))


def test_budget_exceeded_is_surfaced():
    R = ring()
    gens = [R.poly({R.monomial("x1", "x2"): 1, R.monomial("x3", "x4"): 1}),
            R.poly({R.monomial("x2", "x3"): 1, R.monomial("x4", "x5"): 1}),
            R.poly({R.monomial("x1", "x5"): 1, R.monomial("x2", "x4"): 2})]
    with pytest.raises(ResourceLimitError):
        buchberger(gens, spair_budget=1)


# -- ideal_contains_one / radical membership ---------------------------------------------

def test_unit_from_difference():
    R = ring()
    x1 = R.variable("x1")
    assert ideal_contains_one([x1, x1 + R.one()])


def test_proper_monomial_ideal_has_no_unit():
    R = ring()
    assert not ideal_contains_one([edge(R, "x1", "x2")])


def test_cycle5_edge_monomial_in_radical_of_sequence():
    # x1*x5 lies in the radical of the three cycle generators
    seq = cycle_sequence(5)
    R = seq.ring
    assert radical_membership(R.term(1, R.monomial("x1", "x5")), list(seq.polys))
    # equivalent formulation through the extended ring, stats captured
    stats = GroebnerStats()
    ext = R.extend()
    t = ext.variable(ext.nvars - 1)
    gens = [ext.lift(q) for q in seq.polys]
    gens.append(ext.one() - t * ext.lift(R.term(1, R.monomial("x1", "x5"))))
    assert ideal_contains_one(gens, stats=stats)
    assert stats.spairs > 0 and stats.runs == 1


def test_self_membership():
    R = ring()
    f = R.poly({R.monomial("x1", "x6"): 1, R.monomial("x2", "x3"): 1})
    assert radical_membership(f, [f])


def test_chord_not_in_radical_of_cycle4_sequence():
    seq = cycle_sequence(4)
    R = seq.ring
    chord = R.monomial("x1", "x3")
    # oracle: the radical is the cycle's edge ideal, a squarefree monomial
    # ideal, and no edge monomial divides the chord
    g = build_from_string("cycle:4")
    assert not monomial_ideal_contains(chord, edge_ideal(g))
    assert not radical_membership(R.term(1, chord), list(seq.polys))


def test_monomial_ideal_membership_matches_divisibility_oracle():
    rng = random.Random(11)
    g = build_from_string("bicyclic:3,4")
    R = ring_of(g, 2)
    gens_m = edge_ideal(g)
    gens = [R.term(1, m) for m in gens_m]
    for _ in range(50):
        mono = tuple(rng.randint(0, 2) for _ in range(R.nvars))
        by_divisibility = monomial_ideal_contains(mono, gens_m)
        by_normal_form = normal_form(R.term(1, mono), gens).is_zero
        assert by_divisibility == by_normal_form


def test_radical_membership_invariance():
    rng = random.Random(3)
    seq = cycle_sequence(5)
    R = seq.ring
    gens = list(seq.polys)
    f = R.term(1, R.monomial("x3", "x4"))
    baseline = radical_membership(f, gens)
    assert baseline
    for _ in range(4):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        scale = rng.randint(1, 32002)
        assert radical_membership(f.scale(scale), shuffled) == baseline
    negative = R.term(1, R.monomial("x1", "x3"))
    assert not radical_membership(negative, gens)
    assert not radical_membership(negative.scale(17), list(reversed(gens)))


def test_radical_membership_rejects_zero():
    R = ring()
    with pytest.raises(DegenerateInputError):
        radical_membership(R.zero(), [R.one()])


def test_radical_membership_checks_with_a_set_up():
    # the same checks whether the generators come as a list or as a set-up,
    # for one field or several: a field outside the set-up's moduli, or a
    # ring with other names, is refused
    seq = cycle_sequence(5, modulus=2)
    R = seq.ring
    f = R.term(1, R.monomial("x3", "x4"))
    for gens in (list(seq.polys), Rabinowitsch(seq.polys), Rabinowitsch(seq.polys, (2, 5))):
        assert radical_membership(f, gens)
        with pytest.raises(DegenerateInputError):
            radical_membership(R.zero(), gens)
        with pytest.raises(FieldMismatchError):
            radical_membership(PolyRing(3, R.names).term(1, R.monomial("x3", "x4")), gens)
        with pytest.raises(DimensionError):
            other = PolyRing(2, ["y1", "y2"])
            radical_membership(other.term(1, other.monomial("y1", "y2")), gens)
    with pytest.raises(DegenerateInputError, match="empty generator list"):
        radical_membership(f, [R.zero()])
    with pytest.raises(DegenerateInputError, match="empty generator list"):
        Rabinowitsch([])


# -- runs resumed from a saved state -----------------------------------------------------

def _saved(gens):
    """The run state after adding every generator but the last."""
    return groebner._Run.saved(gens[0].ring, [g.terms for g in gens[:-1]])


def _resume(start, gens, budget=groebner.DEFAULT_SPAIR_BUDGET):
    """The reduced basis of the run from `start` that adds the last of `gens`."""
    return groebner._basis(gens[0].ring, start.then(gens[-1].terms).finish(budget))


def _resumes_like_a_fresh_run(gens, rng=None):
    """A run resumed from the saved state has the basis, count and, for
    every budget below the count, the cut-off of the run from scratch, and
    leaves the saved state as it was.  A run of more than 100 pairs, whose
    every budget would take seconds, gets 20 budgets drawn from `rng`."""
    start = _saved(gens)
    fresh = buchberger(gens)
    budgets = range(fresh.spairs_processed + 1)
    if fresh.spairs_processed > 100:
        budgets = [0, *rng.sample(budgets, 20), fresh.spairs_processed - 1]
    for budget in (groebner.DEFAULT_SPAIR_BUDGET, *budgets):
        if budget < fresh.spairs_processed:
            with pytest.raises(ResourceLimitError) as want:
                buchberger(gens, spair_budget=budget)
            with pytest.raises(ResourceLimitError) as got:
                _resume(start, gens, budget)
            assert got.value.detail == want.value.detail
        else:
            gb = _resume(start, gens, budget)
            assert (gb.generators, gb.spairs_processed) == (fresh.generators,
                                                            fresh.spairs_processed)
    return fresh


@pytest.mark.parametrize("p", [2, 32003])
def test_resumed_runs_match_fresh_runs(p):
    rng = random.Random(p + 2)
    for _ in range(40):
        _resumes_like_a_fresh_run(_random_system(rng, p), rng)
    R = PolyRing(p, ["x1", "x2", "x3", "t"])
    x1, x2, x3, t = (R.variable(i) for i in range(4))
    quadrics = [x1 * x2 + x3 * x3, x2 * x3 + x1 * x1]
    # a unit among the saved inputs, zero generators before and as the last
    # input, and a last input of a degree past the packed fields
    assert _resumes_like_a_fresh_run([x1 * x2, R.constant(5), x2 * x3,
                                      R.one() - t * x1]).is_unit_ideal
    assert not _resumes_like_a_fresh_run([R.zero(), x1 * x2, R.zero(), x2 * x3,
                                          R.one() - t * x1 * x3]).is_unit_ideal
    assert _resumes_like_a_fresh_run([*quadrics, R.zero()]).spairs_processed > 0
    big = R.term(1, (1 << (FIELD_BITS - 1), 0, 0, 0))
    assert _resumes_like_a_fresh_run([*quadrics, big * x1 - x2 * x3]).spairs_processed > 0


def test_a_resumed_run_widens_its_copy(monkeypatch):
    widths = []

    class Recorded(groebner._Packing):
        def __init__(self, nvars, degree):
            super().__init__(nvars, degree)
            widths.append(self.width)

    monkeypatch.setattr(groebner, "_Packing", Recorded)
    R = PolyRing(32003, ["x", "y", "t"])
    x, y, t = (R.variable(i) for i in range(3))
    gens = [x * y + y * y, R.one() - t * R.term(1, (1 << (FIELD_BITS - 1), 0, 0))]
    start = _saved(gens)
    assert _resume(start, gens) == buchberger(gens)
    # the saved state, the copy widened once, the run from scratch
    assert widths == [FIELD_BITS, 2 * FIELD_BITS, 2 * FIELD_BITS]
    assert start.pk.width == FIELD_BITS


def test_a_saved_state_must_match_the_inputs():
    # buchberger resumes from a set-up only when the other inputs are its
    # generators lifted into a field it serves, in order
    R = ring(2)
    gens = [edge(R, "x1", "x2"), edge(R, "x2", "x3"), edge(R, "x3", "x4")]
    setup = Rabinowitsch(gens, (2, 3))
    f = edge(R, "x1", "x4")
    system = setup.system(f)
    elsewhere = Rabinowitsch(gens, (5,)).system(edge(ring(5), "x1", "x4"))
    for bad in (system[1:], [system[1], system[0], *system[2:]], system[:1] + system[2:],
                Rabinowitsch(gens[:2]).system(f), elsewhere):
        with pytest.raises(ValueError, match="saved run state"):
            buchberger(bad, resume=setup)
    assert buchberger(list(system), resume=setup) == buchberger(system)
    assert list(setup.runs) == [setup.built[1]]  # read from the run over Z/6
    assert None not in setup.runs.values()


# -- pinned S-pair counts ----------------------------------------------------------------

GOLDEN_SPAIRS = Path(__file__).resolve().parent / "data" / "spairs12.jsonl"


def _scratch_system(R, polys, f):
    """The Rabinowitsch system of `polys` and f over R by polynomial
    arithmetic: the polynomials converted into R and lifted by t, the zero
    ones dropped, then 1 - t*f."""
    ext = R.extend()
    t = ext.variable(ext.nvars - 1)
    lifted = [ext.lift(R.convert(q)) for q in polys]
    return [g for g in lifted if not g.is_zero] + [ext.one() - t * ext.lift(f)]


def _edge_runs(spec, p):
    """(S-pairs processed, basis length) of the Rabinowitsch run of every
    edge of `spec` over GF(p), built by polynomial arithmetic and run from
    scratch.  The run resumed from the field's set-up, as verify_reverse
    makes it, must have the same inputs, basis and count."""
    seq = sequence_for(spec)
    R = ring_of(seq.graph, p)
    setup = Rabinowitsch(seq.polys, (p,))
    runs = []
    for u, v in seq.graph.edges:
        f = R.term(1, R.monomial(u, v))
        system = _scratch_system(R, seq.polys, f)
        gb = buchberger(system)
        assert setup.system(f) == system
        resumed = buchberger(setup.system(f), resume=setup)
        assert (resumed.generators, resumed.spairs_processed) == (gb.generators,
                                                                  gb.spairs_processed)
        runs.append([gb.spairs_processed, len(gb)])
    return runs


def test_spair_counts_match_the_golden():
    # one line [spec, p, per-edge [spairs, basis length]] per cycle, bicyclic
    # and dumbbell instance up to 12 vertices over GF(2) and GF(32003),
    # captured before monomials were packed into integers; the runs resumed
    # from each field's set-up give the same lines
    got = [json.dumps([str(spec), p, _edge_runs(spec, p)])
           for spec in enumerate_specs(("cycle", "bicyclic", "dumbbell"), 12)
           for p in (2, 32003)]
    assert got == GOLDEN_SPAIRS.read_text(encoding="utf-8").splitlines()


# -- one run for several fields, over Z/N ------------------------------------------------

def _joint_runs(polys, names, edges, moduli):
    """The set-up of `polys` for `moduli`, and per field the (basis, count)
    of each edge's run through it and from scratch."""
    setup, out = Rabinowitsch(polys, moduli), {}
    for p in moduli:
        R = PolyRing(p, names)
        for u, v in edges:
            f = R.term(1, R.monomial(u, v))
            via = buchberger(setup.system(f), resume=setup)
            alone = buchberger(_scratch_system(R, polys, f))
            out[p, u, v] = ((via.generators, via.spairs_processed),
                            (alone.generators, alone.spairs_processed))
    return setup, out


@pytest.mark.parametrize("moduli", [(2, 32003), (2, 3, 32003)])
def test_joint_runs_match_the_golden(moduli):
    # every edge of the golden file through one set-up over Z/N: each
    # field's count and answer are the golden line's (GF(3) has none: its
    # runs are compared with runs from scratch), and no run splits
    golden = {(spec, p): runs for spec, p, runs in map(
        json.loads, GOLDEN_SPAIRS.read_text(encoding="utf-8").splitlines())}
    for spec in enumerate_specs(("cycle", "bicyclic", "dumbbell"), 12):
        seq = sequence_for(spec)
        setup, runs = _joint_runs(seq.polys, seq.graph.labels, seq.graph.edges, moduli)
        # one run over Z/N per edge, none split, so every field read it
        assert len(setup.runs) == len(seq.graph.edges)
        assert None not in setup.runs.values()
        for p in moduli:
            got = [runs[p, u, v] for u, v in seq.graph.edges]
            assert all(via == alone for via, alone in got)
            if (str(spec), p) in golden:
                assert [[n, len(basis)] for (basis, n), _ in got] == golden[str(spec), p]


def _cutoff(system, budget, resume=None):
    """The detail of the budget error of a run that must stop short."""
    with pytest.raises(ResourceLimitError) as err:
        buchberger(system, spair_budget=budget, resume=resume)
    return err.value.detail


def _joint_cutoffs_match(seq, edge, moduli, rng):
    """Under every budget below the count (20 drawn from `rng` plus 0 and
    count - 1 once it passes 100), the first field's run through the set-up
    stops where its run from scratch does, with the same detail, and stores
    nothing; from the count on it gives the same basis.  Every later field
    reads that run, and under count - 1 and a random budget, which the
    stored run went past, runs from scratch and stops where that run
    does."""
    setup = Rabinowitsch(seq.polys, moduli)
    for k, p in enumerate(moduli):
        R = ring_of(seq.graph, p)
        f = R.term(1, R.monomial(*edge))
        scratch = _scratch_system(R, seq.polys, f)
        fresh = buchberger(scratch)
        budgets = range(fresh.spairs_processed)
        if k:
            budgets = [*rng.sample(budgets, min(1, len(budgets))), *budgets[-1:]]
        elif fresh.spairs_processed > 100:
            budgets = [0, *rng.sample(budgets, 20), fresh.spairs_processed - 1]
        for budget in budgets:
            assert _cutoff(setup.system(f), budget, setup) == _cutoff(scratch, budget)
        assert len(setup.runs or ()) == min(k, 1)  # a run cut short stores nothing
        gb = buchberger(setup.system(f), spair_budget=fresh.spairs_processed, resume=setup)
        assert (gb.generators, gb.spairs_processed) == (fresh.generators,
                                                        fresh.spairs_processed)
    assert len(setup.runs) == 1 and None not in setup.runs.values()  # none split


@pytest.mark.parametrize("moduli", [(2, 32003), (2, 3, 32003)])
def test_joint_runs_stop_where_single_field_runs_do(moduli):
    rng = random.Random(len(moduli))
    specs = enumerate_specs(("cycle", "bicyclic", "dumbbell"), 12)
    for spec in rng.sample(specs, 12):
        seq = sequence_for(spec)
        _joint_cutoffs_match(seq, rng.choice(seq.graph.edges), moduli, rng)


def test_a_leading_coefficient_zero_in_one_lane_splits_the_set_up():
    # 3x + y over Z/15: its leading coefficient is 0 mod 3, so every field
    # runs from scratch; GF(3) sees y and GF(5) sees 3x + y
    src = PolyRing(32003, ["x", "y", "z"])
    x, y, z = (src.variable(i) for i in range(3))
    polys = [x.scale(3) + y, y * z + x * x]
    setup, runs = _joint_runs(polys, src.names, [("x", "z"), ("y", "z"), ("x", "y")], (3, 5))
    assert setup.start is None and setup.runs == {}
    assert all(via == alone for via, alone in runs.values())
    assert runs[3, "y", "z"][0][0] != runs[5, "y", "z"][0][0]


def test_a_run_that_splits_midway_falls_back_to_each_field():
    # 2y^2 + 3yz and x^2y + 3xz add without a split over Z/15, but with
    # 1 - t*xz a remainder's leading coefficient is 0 mod 3 while pairs
    # are processed: each field then runs from scratch
    src = PolyRing(32003, ["x", "y", "z"])
    x, y, z = (src.variable(i) for i in range(3))
    polys = [(y * y).scale(2) + (y * z).scale(3), x * x * y + (x * z).scale(3)]
    setup, runs = _joint_runs(polys, src.names, [("x", "z")], (3, 5))
    assert setup.start is not None and list(setup.runs.values()) == [None]
    assert all(via == alone for via, alone in runs.values())
    assert runs[3, "x", "z"][0] != runs[5, "x", "z"][0]


def test_mutants_run_jointly_like_each_field():
    # damaged sequences have non-unit ideals: the bases projected from the
    # run over Z/N are each field's reduced basis
    nonunit = 0
    for spec in enumerate_specs(("cycle", "bicyclic", "dumbbell"), 8):
        for _, mutated, _ in all_mutations(sequence_for(spec)):
            _, runs = _joint_runs(mutated.polys, mutated.graph.labels, mutated.graph.edges,
                                  (2, 32003))
            assert all(via == alone for via, alone in runs.values())
            nonunit += sum(basis != (basis[0].ring.one(),) for (basis, _), _ in runs.values())
    assert nonunit > 100


def test_shared_serves_only_its_fields_and_generators():
    # a field's lifts are built when it first asks, the state over Z/N when
    # the first run is asked for; a field outside the moduli is refused, and
    # a last input that `system` did not build runs over Z/N as it stands
    seq = cycle_sequence(5)
    setup = Rabinowitsch(seq.polys, (2, 32003))
    assert not setup.lifts and setup.runs is None
    R = ring_of(seq.graph, 2)
    system = setup.system(R.term(1, R.monomial("x1", "x2")))
    assert list(setup.lifts) == [2] and setup.runs is None
    with pytest.raises(FieldMismatchError):
        setup.system(ring_of(seq.graph, 3).term(1, R.monomial("x1", "x2")))
    assert buchberger(system, resume=setup).is_unit_ideal
    assert len(setup.runs) == 1
    rebuilt = [*system[:-1], system[0].ring.poly(dict(system[-1].terms))]
    assert buchberger(rebuilt, resume=setup) == buchberger(system)
    assert len(setup.runs) == 2 and None not in setup.runs.values()


def test_random_systems_run_jointly_like_each_field():
    # small primes make splits common, at the set-up and mid-run; every
    # field's basis, count and budget cut-off equal its run from scratch
    rng = random.Random(7)
    seen = {"set-up splits": 0, "run splits": 0, "cut-offs": 0}
    for _ in range(120):
        moduli = rng.choice([(2, 3), (3, 5), (2, 3, 5, 7), (5, 7), (2, 32003)])
        names = [f"x{i}" for i in range(rng.randint(2, 4))]
        src = PolyRing(32003, names)
        monos = [tuple(rng.randint(0, 2) for _ in names) for _ in range(5)]
        polys = [src.poly({m: rng.randrange(1, 30) for m in rng.sample(monos, rng.randint(1, 3))})
                 for _ in range(rng.randint(1, 3))]
        edges = [rng.sample(names, 2) for _ in range(2)]
        budget = rng.choice([None, rng.randint(0, 30)])
        setup = Rabinowitsch(polys, moduli)
        for p in moduli:
            R = PolyRing(p, names)
            if all(R.convert(q).is_zero for q in polys):
                continue
            for u, v in edges:
                f = R.term(rng.randrange(1, p), R.monomial(u, v))
                runs = []
                for system, resume in ((setup.system(f), setup),
                                       (_scratch_system(R, polys, f), None)):
                    try:
                        gb = buchberger(system, budget, resume=resume)
                        runs.append((gb.generators, gb.spairs_processed))
                    except ResourceLimitError as exc:
                        runs.append(exc.detail)
                assert runs[0] == runs[1]
                seen["cut-offs"] += isinstance(runs[0], dict)
        if setup.runs is not None:
            seen["set-up splits"] += setup.start is None
            seen["run splits"] += list(setup.runs.values()).count(None)
    assert min(seen.values()) > 10, seen
