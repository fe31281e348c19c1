import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffrees import groebner
from diffrees.errors import (ContextMismatchError, ExponentOverflowError,
                             StepBudgetExceeded)
from diffrees.groebner import IdealHandle, StepCounter, step_budget
from diffrees.poly import DEGREVLEX, Polynomial, VariableContext

from conftest import (P, homogeneous_ideals, inhomogeneous_ideals,
                      random_homogeneous)
from oracles import (LEX, ReferenceOrder, brute_force_dimension,
                     elimination_saturation, ideal_quotient,
                     is_nonzerodivisor, naive_buchberger)


def test_monomial_ideal_is_its_own_basis(xyz):
    I = IdealHandle(xyz, [P(xyz, "X^2"), P(xyz, "X*Y")])
    assert [str(g) for g in I.groebner_basis()] == ["X*Y", "X^2"]


def test_exponent_overflow_raises_instead_of_carrying(xyz):
    """Polynomial arithmetic can build X^(2^31), and a reduction can make
    Y^(2^31) from valid terms; the packed kernel refuses both rather
    than let the exponent carry into the next variable's field."""
    big = xyz.monomial((2**30, 0, 0))
    with pytest.raises(ExponentOverflowError):
        IdealHandle(xyz, [big * big]).groebner_basis()
    X, Y, _ = xyz.gens()
    handle = IdealHandle(xyz, [X - xyz.monomial((0, 2**30, 0))])
    assert handle.normal_form(X, LEX) == xyz.monomial((0, 2**30, 0))
    with pytest.raises(ExponentOverflowError):
        handle.normal_form(X * X, LEX)


def test_exponent_overflow_raises_from_an_s_polynomial(xyz):
    """Under lex the leads X*Y and X*Z are both reduced, and their
    S-polynomial Z*(X*Y - Z^(2^31-1)) - Y*(X*Z - Y) holds Z^(2^31): the
    guard test of `_spoly` refuses it before any normal form runs."""
    g1 = P(xyz, "X*Y") - xyz.monomial((0, 0, 2**31 - 1))
    g2 = P(xyz, "X*Z - Y")
    with pytest.raises(ExponentOverflowError) as caught:
        IdealHandle(xyz, [g1, g2]).groebner_basis(LEX)
    assert caught.traceback[-1].name == "_spoly"


def test_zero_ideal(xyz):
    I = IdealHandle(xyz, [xyz.zero])
    assert I.groebner_basis() == ()
    assert I.contains(xyz.zero)
    assert not I.contains(xyz.gen(0))
    assert I.krull_dimension().dimension == 3


def test_twisted_cubic_elimination_matches_naive_oracle(xyz):
    X, Y, Z = xyz.gens()
    gens = [Y - X**2, Z - X**3]
    I = IdealHandle(xyz, gens)
    basis = I.groebner_basis(LEX)
    oracle = naive_buchberger(xyz, gens, LEX)
    assert basis == oracle
    assert P(xyz, "Y^3 - Z^2") in basis


def test_reduced_basis_matches_naive_oracle_on_small_corpus(xyz):
    rng = random.Random(11)
    checked = 0
    while checked < 25:
        n = rng.randint(2, 3)
        ctx = VariableContext(tuple("XYZW"[i] for i in range(n)))
        gens = []
        for _ in range(rng.randint(1, 3)):
            try:
                g = random_homogeneous(rng, ctx, rng.randint(1, 3),
                                       max_terms=3)
                if rng.random() < 0.3:  # mix in inhomogeneous inputs
                    g = g + random_homogeneous(rng, ctx, 1, max_terms=2)
                gens.append(g)
            except ValueError:
                pass
        if not gens:
            continue
        order = rng.choice([DEGREVLEX, LEX])
        handle = IdealHandle(ctx, gens)
        assert handle.groebner_basis(order) == naive_buchberger(ctx, gens,
                                                                order)
        checked += 1
    assert checked == 25


def test_reduced_basis_unique_under_generator_shuffle(xyz):
    X, Y, Z = xyz.gens()
    gens = [X * Y - Z**2, X**2 * Z - Y * Z**2 + Z**3, Y**3 - X * Z**2]
    rng = random.Random(7)
    reference = IdealHandle(xyz, gens).groebner_basis()
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert IdealHandle(xyz, shuffled).groebner_basis() == reference


def test_basis_mutual_membership(xyz):
    X, Y, Z = xyz.gens()
    I = IdealHandle(xyz, [X * Y - Z**2, Y**2 - X * Z])
    basis = I.groebner_basis()
    regen = IdealHandle(xyz, list(basis))
    assert all(regen.contains(g) for g in I.generators)
    assert all(I.contains(b) for b in basis)


def test_membership_examples(xyz):
    X = xyz.variable("X")
    I = IdealHandle(xyz, [X**2])
    assert I.contains(X**2 * xyz.variable("Y"))
    assert not I.contains(X)


def test_ideal_equality_change_of_generators(xyz):
    X, Y, _ = xyz.gens()
    assert IdealHandle(xyz, [X, Y]).equals(IdealHandle(xyz, [X + Y, Y]))
    assert not IdealHandle(xyz, [X]).equals(IdealHandle(xyz, [Y]))


def test_equal_generator_sets_build_no_basis(xyz):
    X, Y, Z = xyz.gens()
    first = IdealHandle(xyz, [X * Y - Z**2, X**2])
    second = IdealHandle(xyz, [X**2, X * Y - Z**2, X**2])
    assert first.equals(second) and second.equals(first)
    assert not first._cache and not second._cache


def test_nested_generator_sets_build_only_the_smaller_basis():
    """When one generator set holds the other, `equals` tests only the
    inclusion that is not given, so the larger ideal's basis is never
    built; the answer is that of comparing reduced bases, on seeded draws
    with extra generators inside the smaller ideal and outside it."""
    rng = random.Random(29)
    seen = set()
    for draw in range(40):
        n = rng.randint(2, 4)
        ctx = VariableContext(tuple(f"X{i}" for i in range(n)))
        small = [random_homogeneous(rng, ctx, rng.randint(1, 3), max_terms=3)
                 for _ in range(rng.randint(1, 3))]
        if draw % 2:
            extra = [sum((g * ctx.gen(rng.randrange(n)) * rng.randint(-2, 2)
                          for g in small), ctx.zero) + small[0]]
        else:
            extra = [random_homogeneous(rng, ctx, rng.randint(1, 3),
                                        max_terms=3)]
        expected = (IdealHandle(ctx, small).groebner_basis()
                    == IdealHandle(ctx, small + extra).groebner_basis())
        seen.add(expected)
        for larger_first in (True, False):
            larger = IdealHandle(ctx, small + extra)
            smaller = IdealHandle(ctx, small)
            pair = (larger, smaller) if larger_first else (smaller, larger)
            assert pair[0].equals(pair[1]) == expected
            assert not larger._cache
    assert seen == {True, False}


@pytest.mark.parametrize("order", [DEGREVLEX, LEX,
                                   ReferenceOrder.elimination((0,))],
                         ids=["degrevlex", "lex", "elimination"])
def test_one_monomial_table_per_basis_build(order, monkeypatch):
    """A basis build packs its generators once: `_build` makes one
    `_Monomials`, which `_buchberger`, `_interreduce` and the handle's
    cache share."""
    made = []

    class Counted(groebner._Monomials):
        __slots__ = ()

        def __init__(self, key, length):
            super().__init__(key, length)
            made.append(self)

    monkeypatch.setattr(groebner, "_Monomials", Counted)
    ctx = VariableContext(("X", "Y", "Z", "W"))
    gens = [P(ctx, "X^2 - Y*W + Z^2"), P(ctx, "X*Y - Z*W"),
            P(ctx, "Y^2 - X*Z + W^2")]
    assert len(IdealHandle(ctx, gens).groebner_basis(order)) > len(gens)
    assert len(made) == 1


@pytest.mark.parametrize("order", [DEGREVLEX, LEX,
                                   ReferenceOrder.elimination((0,))],
                         ids=["degrevlex", "lex", "elimination"])
def test_a_constant_generator_gives_the_unit_basis_at_once(order, xyz):
    """A nonzero constant among the generators makes the basis (1) in every
    order, with no reduction step spent, also when the build certifies."""
    X, Y, Z = xyz.gens()
    for gens in ([X**2 - Y * Z, xyz.constant(-3), Y**3 - Z],
                 [xyz.constant(Fraction(1, 2))]):
        counter = StepCounter(0)
        mons, lms, basis, _ = groebner._buchberger(
            [dict(g.terms) for g in gens],
            groebner._Monomials(order.key_for(xyz), xyz.arity), counter,
            certify=True)
        assert (lms, basis) == ([0], [{0: 1}])
        assert mons.unpack(0) == (0, 0, 0) and mons[0] == 0
        assert counter.remaining == 0
        with step_budget(0):
            assert IdealHandle(xyz, gens).groebner_basis(order) == (xyz.one,)


@pytest.mark.parametrize("site", [
    "init", "normal_form", "equals", "add", "intersection",
    "saturation_by_ideal"])
def test_context_mismatch_is_one_error(xyz, site):
    """Every handle operation given an operand of another ring raises
    ContextMismatchError, as `poly` and `matrix` do, which is also a
    ValueError."""
    other = VariableContext(("A", "B"))
    mine = IdealHandle(xyz, [xyz.gen(0)])
    theirs = IdealHandle(other, [other.gen(0)])
    calls = {
        "init": lambda: IdealHandle(xyz, [other.gen(0)]),
        "normal_form": lambda: mine.normal_form(other.gen(0)),
        "equals": lambda: mine.equals(theirs),
        "add": lambda: mine + theirs,
        "intersection": lambda: mine.intersection(theirs),
        "saturation_by_ideal": lambda: mine.saturation_by_ideal(theirs),
    }
    with pytest.raises(ContextMismatchError, match="context mismatch"):
        calls[site]()
    assert issubclass(ContextMismatchError, ValueError)


def test_saturation_examples(xyz):
    X, Y, _ = xyz.gens()
    sat = IdealHandle(xyz, [X**2 * Y]).saturation(X)
    assert sat.equals(IdealHandle(xyz, [Y]))
    coprime = IdealHandle(xyz, [X]).saturation(Y)
    assert coprime.equals(IdealHandle(xyz, [X]))


def test_saturation_vs_elimination_oracle():
    ctx = VariableContext(("X", "Y", "T1", "T2"))
    X, Y, T1, T2 = ctx.gens()
    I = IdealHandle(ctx, [X * Y, Y * T1 + X * T2])
    sat = I.saturation(X + Y)
    oracle = elimination_saturation(I, X + Y)
    assert sat.equals(oracle)
    expected = IdealHandle(ctx, [X * Y, X * T2, Y * T1, T1 * T2])
    assert sat.equals(expected)


def test_saturation_properties(xyz):
    X, Y, Z = xyz.gens()
    I = IdealHandle(xyz, [X**2 * Y, X * Z**2])
    sat = I.saturation(X)
    # contains the ideal, idempotent, and detects power multiples
    assert all(sat.contains(g) for g in I.generators)
    assert sat.saturation(X).equals(sat)
    h = Y * Z
    assert not I.contains(h)
    assert I.contains(X**2 * h) or I.contains(X**3 * h)
    assert sat.contains(h) == any(
        I.contains(X**k * h) for k in range(1, 5))


def test_quotient_examples(xyz):
    X, Y, _ = xyz.gens()
    assert ideal_quotient(IdealHandle(xyz, [X**2]), X).equals(
        IdealHandle(xyz, [X]))
    assert ideal_quotient(IdealHandle(xyz, [X * Y]), X).equals(
        IdealHandle(xyz, [Y]))
    flat = VariableContext(("X", "Y"))
    fx, fy = flat.gens()
    assert ideal_quotient(IdealHandle(flat, [fx]), fx + fy).equals(
        IdealHandle(flat, [fx]))


def test_krull_dimension_examples(xyz):
    X, Y, Z = xyz.gens()
    two_vars = VariableContext(("X", "Y"))
    a, b = two_vars.gens()
    assert IdealHandle(two_vars, [a * b]).krull_dimension().dimension == 1
    assert IdealHandle(xyz, []).krull_dimension().dimension == 3
    report = IdealHandle(xyz, [X, Y, Z]).krull_dimension()
    assert report.dimension == 0 and report.witness == ()
    unit = IdealHandle(xyz, [xyz.one])
    assert unit.krull_dimension().dimension == -1
    assert unit.krull_dimension().witness is None


def test_krull_dimension_matches_brute_force():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 6)
        ctx = VariableContext(tuple(f"X{i}" for i in range(n)))
        gens = []
        for _ in range(rng.randint(1, 4)):
            try:
                gens.append(random_homogeneous(rng, ctx, rng.randint(1, 3),
                                               max_terms=3))
            except ValueError:
                pass
        handle = IdealHandle(ctx, gens)
        report = handle.krull_dimension()
        assert report.dimension == brute_force_dimension(handle)
        if report.dimension >= 0:
            assert len(report.witness) == report.dimension


def test_zero_dimensional_certificate_examples(xyz):
    """`krull_dimension` stops the build and caches no basis exactly when
    the generators have no constant term and the quotient has dimension
    0; `is_unit` of an ideal inside the maximal ideal builds nothing."""
    weighted = VariableContext(("X", "Y"), (1, 2))
    plane = VariableContext(("X", "Y"))
    cases = [
        (xyz, ["X^2 + Y*Z", "Y^2 + X*Z", "Z^2 + X*Y"], 0, True),
        (xyz, ["X^2 - Y*Z", "Y^2 - X*Z", "Z^2 - X*Y"], 1, False),
        (xyz, ["X*Y - Z^2"], 2, False),
        (weighted, ["X^2 - Y", "Y^2"], 0, True),
        (plane, ["X + Y^2", "Y + X^2"], 0, True),      # not homogeneous
        # X and Y are pure-power leads, but X - 1 makes the unit ideal
        (plane, ["X", "Y", "X - 1"], -1, False),
        (plane, ["X - 1", "Y"], 0, False),              # proper, not in m
    ]
    for ctx, texts, dim, certified in cases:
        gens = [P(ctx, t) for t in texts]
        handle = IdealHandle(ctx, gens)
        report = handle.krull_dimension()
        assert report.dimension == dim, texts
        assert (DEGREVLEX not in handle._cache) == certified, texts
        built = IdealHandle(ctx, gens)
        built.groebner_basis()
        assert built.krull_dimension() == report
        assert brute_force_dimension(built) == dim
        fresh = IdealHandle(ctx, gens)
        assert fresh.is_unit() == (dim == -1)
        if all(any(e) for g in gens for e, _ in g.terms):
            assert not fresh._cache


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(homogeneous_ideals(weighted=False),
                 homogeneous_ideals(weighted=True), inhomogeneous_ideals()))
def test_zero_dimensional_certificate_matches_full_basis(drawn):
    """On standard graded, weighted and inhomogeneous draws (constants
    allowed), the certified dimension and `is_unit` agree with the
    full-basis answer and the brute-force oracle, and the certificate
    fires exactly for a zero-dimensional ideal without constant terms in
    its generators.  A build it does not stop returns the same basis for
    the same steps."""
    ctx, gens = drawn
    handle = IdealHandle(ctx, gens)
    report = handle.krull_dimension()
    built = IdealHandle(ctx, gens)
    built.groebner_basis()
    assert report == built.krull_dimension()
    assert report.dimension == brute_force_dimension(built)
    in_m = all(any(e) for g in handle.generators for e, _ in g.terms)
    certified = in_m and report.dimension == 0
    assert (DEGREVLEX not in handle._cache) == certified
    fresh = IdealHandle(ctx, gens)
    assert fresh.is_unit() == (report.dimension == -1) == built.is_unit()
    assert not (in_m and fresh._cache)
    generators = [dict(g.terms) for g in handle.generators]
    key = DEGREVLEX.key_for(ctx)
    stopped, full = groebner.StepCounter(), groebner.StepCounter()
    result = groebner._buchberger(generators,
                                  groebner._Monomials(key, ctx.arity),
                                  stopped, certify=True)
    assert result == (None if certified else groebner._buchberger(
        generators, groebner._Monomials(key, ctx.arity), full))
    if not certified:
        assert stopped.remaining == full.remaining


def _spent_on(call):
    """The result of `call()` and the reduction steps it spent."""
    with step_budget(None):
        counter = groebner._steps()
        result = call()
    return result, counter.limit - counter.remaining


@st.composite
def split_sums(draw):
    """(ctx, I, X): a drawn ideal split into a left summand I and the rest
    X, each with pure powers of a drawn set of variables added, so that
    I + X is m-primary on some draws and not on others, and I's leads
    cover some variables, all of them or none."""
    ctx, gens = draw(st.one_of(homogeneous_ideals(weighted=False),
                               homogeneous_ideals(weighted=True),
                               inhomogeneous_ideals()))
    cut = draw(st.integers(0, len(gens)))
    sides = []
    for part in (gens[:cut], gens[cut:]):
        powers = draw(st.dictionaries(st.integers(0, ctx.arity - 1),
                                      st.integers(1, 3), max_size=ctx.arity))
        sides.append(IdealHandle(ctx, part + [ctx.gen(i) ** a
                                              for i, a in powers.items()]))
    return ctx, *sides


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(split_sums())
def test_certificate_from_summand_leads_matches_a_fresh_build(drawn):
    """The dimension of I + X with I's degrevlex basis cached, whose
    certified build counts the pure powers among I's leads first, equals
    that of a fresh handle on the same generators with nothing cached and
    that read off the full basis, for no more steps than the fresh
    build; the two builds cache a basis exactly alike."""
    ctx, I, X = drawn
    I.groebner_basis()
    total = I + X
    assert total._summand is I
    fresh = IdealHandle(ctx, total.generators)
    summed, spent = _spent_on(total.krull_dimension)
    report, fresh_spent = _spent_on(fresh.krull_dimension)
    assert summed == report and spent <= fresh_spent
    assert (DEGREVLEX in total._cache) == (DEGREVLEX in fresh._cache)
    built = IdealHandle(ctx, total.generators)
    built.groebner_basis()
    assert summed == built.krull_dimension()


def test_summand_leads_alone_certify_dimension_zero(xyz):
    """When the leads of I hold a pure power of every variable, I + X has
    dimension 0 with no step spent and no basis built, although a fresh
    handle on the same generators needs reductions to see it."""
    X, Y, Z = xyz.gens()
    I = IdealHandle(xyz, [X**2 + Y**2, X**2 - Y**2, Z**3])
    assert I.groebner_basis() == (Y**2, X**2, Z**3)
    total = I + IdealHandle(xyz, [X * Y - Z**2])
    with step_budget(0):
        assert total.krull_dimension() == (0, ())
    assert not total._cache
    with pytest.raises(StepBudgetExceeded), step_budget(0):
        IdealHandle(xyz, total.generators).krull_dimension()


def test_witness_is_independent(xyz):
    X, Y, Z = xyz.gens()
    handle = IdealHandle(xyz, [X * Y, Y * Z])
    report = handle.krull_dimension()
    key = DEGREVLEX.key_for(xyz)
    supports = [frozenset(i for i, e in enumerate(
        max((e for e, _ in g.terms), key=key)) if e)
        for g in handle.groebner_basis()]
    chosen = {xyz.index(name) for name in report.witness}
    assert not any(s <= chosen for s in supports)


def test_nonzerodivisors(xyz, quadric_cone):
    flat = VariableContext(("X", "Y"))
    a, b = flat.gens()
    axes = IdealHandle(flat, [a * b])
    assert is_nonzerodivisor(axes, a + b)
    assert not is_nonzerodivisor(axes, a)
    # the cone is a domain: any nonzero element works
    assert is_nonzerodivisor(quadric_cone.defining_ideal, xyz.variable("X"))


def test_step_budget_is_a_resource_error(xyz):
    X, Y, Z = xyz.gens()
    gens = [X**3 - Y * Z**2 + X * Y * Z, Y**4 - X * Z**3, Z**5 - X**2 * Y**3]
    with step_budget(3), pytest.raises(StepBudgetExceeded):
        IdealHandle(xyz, gens).groebner_basis()


def test_step_budget_spans_every_basis_in_its_block(xyz):
    """One counter serves the whole block: two bases that each fit the
    budget alone exhaust it together."""
    X, Y, Z = xyz.gens()
    first = [X**2 - Y * Z, X * Y - Z**2, Y**3 - X * Z**2]
    second = [X**2 * Y - Z**3, Y**3 - X * Z**2, X**4 - Y * Z**3]

    def steps(gens):
        with step_budget(None):
            IdealHandle(xyz, gens).groebner_basis()
            counter = groebner._steps()
            return counter.limit - counter.remaining

    a, b = steps(first), steps(second)
    limit = max(a, b)
    assert min(a, b) > 0
    for gens in (first, second):
        with step_budget(limit):
            IdealHandle(xyz, gens).groebner_basis()
    with step_budget(limit), pytest.raises(StepBudgetExceeded):
        IdealHandle(xyz, first).groebner_basis()
        IdealHandle(xyz, second).groebner_basis()


def test_calls_outside_a_budget_are_capped_one_by_one():
    assert groebner._steps() is not groebner._steps()
    assert groebner._steps().limit == groebner.DEFAULT_STEP_BUDGET


def test_elimination_basis_spans_subring_part(xyz):
    # lex basis elements free of X generate the elimination ideal
    X, Y, Z = xyz.gens()
    I = IdealHandle(xyz, [Y - X**2, Z - X**3])
    basis = I.groebner_basis(LEX)
    free_of_x = [g for g in basis if all(e[0] == 0 for e, _ in g.terms)]
    assert free_of_x
    cubic = P(xyz, "Y^3 - Z^2")
    assert IdealHandle(xyz, free_of_x).contains(cubic)


def test_two_variable_block_elimination():
    """The elements of a block-order basis that avoid the front block
    generate the elimination ideal: Z^5 - W from X - Z^2, Y - Z^3 and
    X*Y - W."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    X, Y, Z, W = ctx.gens()
    basis = IdealHandle(ctx, [X - Z**2, Y - Z**3, X * Y - W]).groebner_basis(
        ReferenceOrder.elimination((0, 1)))
    small = VariableContext(("Z", "W"))
    survivors = [Polynomial.from_terms(small, ((e[2:], c) for e, c in g.terms))
                 for g in basis if not any(any(e[:2]) for e, _ in g.terms)]
    z, w = small.gens()
    assert IdealHandle(small, survivors).equals(
        IdealHandle(small, [z**5 - w]))


def test_queries_read_the_packed_basis(xyz, monkeypatch):
    """`krull_dimension` on a build that the certificate misses, and
    `contains`, read the cached packed basis: no basis element becomes a
    Polynomial, and `contains` makes only its normal form."""
    made = []
    polynomial = groebner._polynomial

    def recording(context, mons, ints, num=1, den=1):
        made.append(ints)
        return polynomial(context, mons, ints, num, den)

    monkeypatch.setattr(groebner, "_polynomial", recording)
    X, Y, Z = xyz.gens()
    handle = IdealHandle(xyz, [X * Y - Z**2, X**2 - Y * Z])
    assert handle.krull_dimension().dimension == 1
    assert DEGREVLEX in handle._cache and not made
    assert handle.contains(X * (X * Y - Z**2))
    assert not handle.contains(X * Y)
    assert len(made) == 2
    assert not any(ints in handle._cache[DEGREVLEX][2] for ints in made)


def test_the_zero_ideal_answers_queries(xyz):
    """The zero ideal builds an empty basis on the ring's arity: every
    polynomial is its own normal form, only zero is contained and the
    quotient has the dimension of the ring."""
    X, Y, Z = xyz.gens()
    for gens in ([], [xyz.zero]):
        handle = IdealHandle(xyz, gens)
        p = X**2 * Y - 3 * Z + 1
        assert handle.normal_form(p) == p
        assert not handle.contains(X) and handle.contains(xyz.zero)
        assert handle.krull_dimension() == (3, ("X", "Y", "Z"))
        assert not handle.is_unit()
        assert handle.groebner_basis() == ()
