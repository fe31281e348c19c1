"""Differential tests of the degrevlex engine against independent oracles.

Reduced Groebner bases are unique, so the engine must agree term by term
with the no-criteria oracle in `oracles.py` and, for standard gradings,
with sympy.  A wrong reducer choice in the first-divisor memo of `_nf`
would change a basis or a normal form and show here, against the fresh
scan of `oracles.max_scan_nf`.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from diffrees.groebner import (IdealHandle, StepCounter, _cleared,
                               _Monomials, _nf, _primitive)
from diffrees.poly import DEGREVLEX, MonomialOrder, Polynomial, VariableContext
from diffrees.sampler import monomials_of_degree

from conftest import (P, built_orders, homogeneous_ideals,
                      inhomogeneous_ideals)
from oracles import (elimination_intersection, elimination_saturation,
                     flat_key_for, max_scan_nf, naive_buchberger,
                     sympy_basis)


def _check_normal_forms(ctx, handle, basis, probes):
    """normal_form, called twice so the second call reads the memo that
    the first one filled, against `max_scan_nf` by the reduced basis."""
    key = flat_key_for(DEGREVLEX, ctx)
    lms = [max((e for e, _ in g.terms), key=key) for g in basis]
    reducers = [dict(g.terms) for g in basis]
    for p in probes:
        expected = Polynomial.from_terms(ctx, max_scan_nf(
            dict(p.terms), lms, reducers, key, StepCounter()).items())
        assert handle.normal_form(p) == expected
        assert handle.normal_form(p) == expected


_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(homogeneous_ideals(weighted=False))
def test_standard_graded_bases_match_oracles(drawn):
    ctx, gens = drawn
    handle = IdealHandle(ctx, gens)
    basis = handle.groebner_basis()
    assert basis == naive_buchberger(ctx, gens)
    assert {frozenset(g.terms) for g in basis} == sympy_basis(ctx, gens)
    _check_normal_forms(ctx, handle, basis, gens + [g * g for g in gens])


@_SETTINGS
@given(homogeneous_ideals(weighted=True))
def test_weighted_bases_match_naive_oracle(drawn):
    ctx, gens = drawn
    handle = IdealHandle(ctx, gens)
    basis = handle.groebner_basis()
    assert basis == naive_buchberger(ctx, gens)
    _check_normal_forms(ctx, handle, basis, gens + [g * g for g in gens])


def _element(ctx, data, degree):
    """A drawn nonzero homogeneous element of `degree`, of at most three
    terms; the drawn rings give X1 weight 1, so every degree has one."""
    pool = monomials_of_degree(ctx, degree)
    chosen = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=3, unique=True))
    coeffs = data.draw(st.lists(st.integers(-3, 3).filter(bool),
                                min_size=len(chosen), max_size=len(chosen)))
    return Polynomial.from_terms(ctx, zip(chosen, coeffs))


def _element_and_ideal(drawn, data):
    """The ring, a drawn homogeneous element g, linear or of degree 2 or
    3, that is not a variable times a constant, and the ideal."""
    ctx, gens = drawn
    g = _element(ctx, data, data.draw(st.integers(1, 3)))
    assume(len(g.terms) > 1 or sum(g.terms[0][0]) > 1)
    return ctx, g, IdealHandle(ctx, gens)


def _other_ideal(ctx, data):
    """A second drawn homogeneous ideal of `ctx`, of one to two
    generators of degree 1 to 3."""
    return IdealHandle(ctx, [_element(ctx, data, data.draw(st.integers(1, 3)))
                             for _ in range(data.draw(st.integers(1, 2)))])


def _assert_seeded(result, probes):
    """The reduced degrevlex basis that a saturation or an intersection
    seeds its result's cache with, still packed, is a fresh build from the
    result's generators, int for int: the same leads and content-free
    elements, every stored negated key that of the ring's degrevlex key,
    and the same normal forms; the generators are that basis, monic."""
    ctx = result.context
    key = DEGREVLEX.key_for(ctx)
    mons, lms, basis, _ = result._cache[DEGREVLEX]
    fresh = IdealHandle(ctx, result.generators)
    assert (lms, basis) == fresh._reduced()[1:3]
    assert result.generators == fresh.groebner_basis()
    assert {e for el in basis for e in el} <= mons.keys()
    assert all(k == -key(mons.unpack(e)) for e, k in mons.items())
    for p in probes:
        assert result.normal_form(p) == fresh.normal_form(p)


_DRAWS = st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w))


@_SETTINGS
@given(_DRAWS, st.data())
def test_saturation_starts_with_its_reduced_basis(drawn, data):
    """A saturation by a variable, by any other homogeneous element and
    an intersection each return an ideal whose generators and cache are
    its reduced degrevlex basis (`groebner._seeded`)."""
    ctx, g, handle = _element_and_ideal(drawn, data)
    probes = list(handle.generators) + [g * g]
    _assert_seeded(handle.saturation(ctx.gen(0)), probes)
    _assert_seeded(handle.saturation(g), probes)
    _assert_seeded(handle.intersection(_other_ideal(ctx, data)), probes)


@_SETTINGS
@given(_DRAWS, st.data())
def test_dimension_and_membership_read_any_cached_basis(drawn, data):
    """A handle whose one cached basis ranks X_j last answers its
    dimension and every membership test from that basis, building no
    other, as a handle with its degrevlex basis answers them.  Its
    witness is a set of as many variables as the dimension, independent
    modulo the leads of that basis."""
    ctx, gens = drawn
    order = MonomialOrder(data.draw(st.integers(0, ctx.arity - 1)))
    handle = IdealHandle(ctx, gens)
    handle.groebner_basis(order)
    reference = IdealHandle(ctx, gens)
    report = handle.krull_dimension()
    assert report.dimension == reference.krull_dimension().dimension
    elements = [_element(ctx, data, data.draw(st.integers(1, 3)))
                for _ in range(3)]
    probes = gens + [g * e for g in gens for e in elements] + elements
    probes += [g + e for g in gens for e in elements
               if e.weighted_degree == g.weighted_degree]
    assert ([handle.contains(p) for p in probes]
            == [reference.contains(p) for p in probes])
    assert list(handle._cache) == [order]
    if report.dimension < 0:
        assert report.witness is None
        return
    mons, lms, _, _ = handle._cache[order]
    independent = {ctx.index(name) for name in report.witness}
    assert len(independent) == report.dimension
    assert not any({i for i, e in enumerate(mons.unpack(lm)) if e}
                   <= independent for lm in lms)


@_SETTINGS
@given(_DRAWS, st.data())
def test_saturation_matches_elimination(drawn, data):
    """For homogeneous I and g, standard or weighted, g linear or of
    degree 2 or 3 and not a variable, the saturation builds degrevlex
    orders only (the ring with z adjoined, then the result's), and its
    generators and cached basis are the reduced degrevlex basis the
    elimination of y*g - 1 gives."""
    ctx, g, handle = _element_and_ideal(drawn, data)
    with built_orders() as orders:
        sat = handle.saturation(g)
    assert orders == [DEGREVLEX, DEGREVLEX]
    ref = elimination_saturation(IdealHandle(ctx, handle.generators), g)
    assert sat.generators == ref.generators
    assert sat._cache[DEGREVLEX][1:3] == ref._cache[DEGREVLEX][1:3]
    assert all(sat.contains(h) for h in handle.generators)


@_SETTINGS
@given(_DRAWS, st.data())
def test_intersection_matches_elimination(drawn, data):
    """For homogeneous I and J, standard or weighted, the intersection
    builds degrevlex orders only, and its generators and cached basis are
    the reduced degrevlex basis the elimination of u from
    u*I + (1 - u)*J gives."""
    ctx, gens = drawn
    handle, other = IdealHandle(ctx, gens), _other_ideal(ctx, data)
    with built_orders() as orders:
        meet = handle.intersection(other)
    assert orders == [DEGREVLEX, DEGREVLEX]
    ref = elimination_intersection(handle, other)
    assert meet.generators == ref.generators
    assert meet._cache[DEGREVLEX][1:3] == ref._cache[DEGREVLEX][1:3]
    for h in meet.generators:
        assert handle.contains(h) and other.contains(h)


def _variable_and_ideal(ctx, gens, data):
    """A drawn variable times a nonzero constant, and the ideal."""
    j = data.draw(st.integers(0, ctx.arity - 1))
    c = data.draw(st.integers(-3, 3).filter(bool))
    return ctx.gen(j) * c, IdealHandle(ctx, gens)


@_SETTINGS
@given(_DRAWS, st.data())
def test_variable_saturation_matches_elimination(drawn, data):
    """For a homogeneous ideal, standard or weighted, the saturation by a
    variable divides a basis with that variable ranked last and builds
    degrevlex orders only, and its generators and cached basis are the
    reduced degrevlex basis the elimination of y*x - 1 gives."""
    ctx, gens = drawn
    x, handle = _variable_and_ideal(ctx, gens, data)
    with built_orders() as orders:
        sat = handle.saturation(x)
    assert all(isinstance(order, MonomialOrder) for order in orders)
    ref = elimination_saturation(IdealHandle(ctx, gens), x)
    assert sat.generators == ref.generators
    assert sat._cache[DEGREVLEX][1:3] == ref._cache[DEGREVLEX][1:3]
    assert all(sat.contains(g) for g in gens)


@_SETTINGS
@given(inhomogeneous_ideals(), st.data())
def test_inhomogeneous_input_raises(drawn, data):
    """The division needs homogeneous input: an inhomogeneous ideal or
    element makes `saturation`, `intersection` and `saturation_by_ideal`
    raise ValueError before they build a basis."""
    ctx, gens = drawn
    assume(not all(g.weighted_degree_info()[0] for g in gens))
    x, handle = _variable_and_ideal(ctx, gens, data)
    plain = IdealHandle(ctx, [ctx.gen(0) ** 2])
    inhomogeneous = next(g for g in gens if not g.weighted_degree_info()[0])
    with built_orders() as orders:
        for call in (lambda: handle.saturation(x),
                     lambda: plain.saturation(inhomogeneous),
                     lambda: handle.intersection(plain),
                     lambda: plain.intersection(handle),
                     lambda: plain.saturation_by_ideal(handle)):
            with pytest.raises(ValueError, match="homogeneous"):
                call()
    assert not orders


def test_growing_basis_matches_oracles():
    """Buchberger appends several S-polynomial remainders here, so the
    memo's "no divisor yet" entries are revisited against longer lists."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    gens = [P(ctx, "X^2 - Y*W + Z^2"), P(ctx, "X*Y - Z*W"),
            P(ctx, "Y^2 - X*Z + W^2")]
    basis = IdealHandle(ctx, gens).groebner_basis()
    assert len(basis) > len(gens)
    assert basis == naive_buchberger(ctx, gens)
    assert {frozenset(g.terms) for g in basis} == sympy_basis(ctx, gens)


def test_memo_picks_the_linear_scan_reducer_after_appends(xyz):
    """`groebner._nf` with a memo filled against a shorter reducer list
    must give the reducers, steps and remainder of `max_scan_nf`, a fresh
    scan of the longer list."""
    mons = _Monomials(DEGREVLEX.key_for(xyz), 3)
    key = flat_key_for(DEGREVLEX, xyz)
    p = dict(P(xyz, "X^2*Y + X*Y*Z + Y^2*Z + Z^3").terms)
    scale, packed = _cleared(p.items(), mons.pack)
    reducers = [P(xyz, "X*Y - Z^2"), P(xyz, "Y*Z - X^2"), P(xyz, "X*Z")]
    lms, basis, plain_lms, plain = [], [], [], []
    memo = {}
    rescanned = []
    for g in reducers:
        lm, ints = _primitive({mons.pack(e): int(c) for e, c in g.terms},
                              mons)
        lms.append(lm)
        basis.append(ints)
        plain_lms.append(mons.unpack(lm))
        plain.append({mons.unpack(e): c for e, c in ints.items()})
        before = {m: list(divs) for m, divs in memo.items()}
        got_q, ref_q, got_c, ref_c = [], [], StepCounter(), StepCounter()
        got, (num, den) = _nf(packed, lms, basis, mons, got_c, memo, got_q)
        expected = max_scan_nf(p, plain_lms, plain, key, ref_c, ref_q)
        assert {mons.unpack(e): Fraction(v * den, num * scale)
                for e, v in got.items()} == expected
        assert [(k, mons.unpack(q), Fraction(a, b * scale))
                for k, q, a, b in got_q] == ref_q
        assert got_c.remaining == ref_c.remaining
        rescanned += [m for m, divs in before.items()
                      if len(divs) == 1 and len(memo[m]) > 1]
    # X*Z^2 had no divisor among X*Y and X^2 and is found by X*Z.
    assert rescanned
