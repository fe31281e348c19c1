"""Differential tests of the degrevlex engine against independent oracles.

Reduced Groebner bases are unique, so the engine must agree term by term
with the no-criteria oracle in `oracles.py` and, for standard gradings,
with sympy.  A wrong reducer choice in the first-divisor memo of `_nf`
would change a basis or a normal form and show here.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from diffrees.groebner import IdealHandle, StepCounter
from diffrees.poly import DEGREVLEX, VariableContext

from conftest import (P, built_orders, homogeneous_ideals,
                      inhomogeneous_ideals)
from oracles import (elimination_saturation, flat_key_for, memo_key,
                     naive_buchberger, naive_remainder_full, tuple_nf)


def _sympy_basis(ctx, gens):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(ctx.names)
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*(s**e for s, e in zip(syms, exps)))
                 for exps, c in g.terms) for g in gens]
    basis = sympy.groebner(exprs, *syms, order="grevlex", domain=sympy.QQ)
    return {frozenset((exps, Fraction(int(c.p), int(c.q)))
                      for exps, c in g.terms())
            for g in basis.polys}


def _check_normal_forms(ctx, handle, basis, probes):
    """normal_form, called twice so the second call reads the memo that
    the first one filled, against full division by the reduced basis."""
    key = DEGREVLEX.key_for(ctx)
    for p in probes:
        expected = naive_remainder_full(p, basis, key)
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
    assert {frozenset(g.terms) for g in basis} == _sympy_basis(ctx, gens)
    _check_normal_forms(ctx, handle, basis, gens + [g * g for g in gens])


@_SETTINGS
@given(homogeneous_ideals(weighted=True))
def test_weighted_bases_match_naive_oracle(drawn):
    ctx, gens = drawn
    handle = IdealHandle(ctx, gens)
    basis = handle.groebner_basis()
    assert basis == naive_buchberger(ctx, gens)
    _check_normal_forms(ctx, handle, basis, gens + [g * g for g in gens])


@_SETTINGS
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)),
       st.data())
def test_saturation_starts_with_its_reduced_basis(drawn, data):
    """The front-free part of the block basis that `saturation` and
    `intersection` seed their result's degrevlex cache with, still
    packed, is a fresh degrevlex build from the result's generators, int
    for int: the same leads and content-free elements, every stored
    negated key that of the ring's degrevlex key, and the same normal
    forms."""
    ctx, gens = drawn
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=ctx.arity,
                                max_size=ctx.arity).filter(any))
    g = sum((x * c for x, c in zip(ctx.gens(), coeffs) if c), ctx.zero)
    key = DEGREVLEX.key_for(ctx)
    for result in (IdealHandle(ctx, gens).saturation(g),
                   IdealHandle(ctx, gens).intersection(
                       IdealHandle(ctx, [g]))):
        mons, lms, basis, _ = result._cache[DEGREVLEX]
        fresh = IdealHandle(ctx, result.generators)
        assert (lms, basis) == fresh._reduced()[1:3]
        assert {e for el in basis for e in el} <= mons.keys()
        assert all(k == -key(mons.unpack(e)) for e, k in mons.items())
        for p in gens + [g * g]:
            assert result.normal_form(p) == fresh.normal_form(p)


def _variable_and_ideal(ctx, gens, data):
    """A drawn variable times a nonzero constant, and the ideal."""
    j = data.draw(st.integers(0, ctx.arity - 1))
    c = data.draw(st.integers(-3, 3).filter(bool))
    return ctx.gen(j) * c, IdealHandle(ctx, gens)


@_SETTINGS
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)),
       st.data())
def test_variable_saturation_matches_elimination(drawn, data):
    """For a homogeneous ideal, standard or weighted, the saturation by a
    variable divides a basis with that variable ranked last and builds no
    elimination order, and its generators and cached basis are the
    reduced degrevlex basis the elimination of y*x - 1 gives."""
    ctx, gens = drawn
    x, handle = _variable_and_ideal(ctx, gens, data)
    with built_orders() as orders:
        sat = handle.saturation(x)
    assert all(order.kind == "degrevlex" for order in orders)
    ref = elimination_saturation(IdealHandle(ctx, gens), x)
    assert sat.generators == ref.generators
    assert sat._cache[DEGREVLEX][1:3] == ref._cache[DEGREVLEX][1:3]
    assert all(sat.contains(g) for g in gens)


@_SETTINGS
@given(inhomogeneous_ideals(), st.data())
def test_inhomogeneous_saturation_takes_the_elimination(drawn, data):
    """An ideal with an inhomogeneous generator is saturated by a
    variable through the elimination, with its block order."""
    ctx, gens = drawn
    assume(not all(g.weighted_degree_info()[0] for g in gens))
    x, handle = _variable_and_ideal(ctx, gens, data)
    with built_orders() as orders:
        sat = handle.saturation(x)
    assert [order.kind for order in orders] == ["block"]
    assert sat.generators == elimination_saturation(
        IdealHandle(ctx, gens), x).generators


def test_growing_basis_matches_oracles():
    """Buchberger appends several S-polynomial remainders here, so the
    memo's "no divisor yet" entries are revisited against longer lists."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    gens = [P(ctx, "X^2 - Y*W + Z^2"), P(ctx, "X*Y - Z*W"),
            P(ctx, "Y^2 - X*Z + W^2")]
    basis = IdealHandle(ctx, gens).groebner_basis()
    assert len(basis) > len(gens)
    assert basis == naive_buchberger(ctx, gens)
    assert {frozenset(g.terms) for g in basis} == _sympy_basis(ctx, gens)


def test_memo_picks_the_linear_scan_reducer_after_appends(xyz):
    """A memo filled against a shorter reducer list must give the same
    reducers, steps and remainder as a fresh scan of the longer list."""
    key = memo_key(flat_key_for(DEGREVLEX, xyz))
    p = dict(P(xyz, "X^2*Y + X*Y*Z + Y^2*Z + Z^3").terms)
    reducers = [P(xyz, "X*Y - Z^2"), P(xyz, "Y*Z - X^2"), P(xyz, "X*Z")]
    lms, basis = [], []
    memo = {}
    rescanned = []
    for g in reducers:
        terms = dict(g.terms)
        lms.append(max(terms, key=key))
        basis.append({e: int(c) for e, c in terms.items()})
        before = dict(memo)
        shared, fresh = [], []
        steps_shared, steps_fresh = StepCounter(), StepCounter()
        r_shared, s_shared = tuple_nf(p, lms, basis, key, steps_shared,
                                      memo, shared)
        r_fresh, s_fresh = tuple_nf(p, lms, basis, key, steps_fresh, {},
                                    fresh)
        assert ({e: v / s_shared for e, v in r_shared.items()}
                == {e: v / s_fresh for e, v in r_fresh.items()})
        assert shared == fresh
        assert steps_shared.remaining == steps_fresh.remaining
        rescanned += [m for m, (_, idx) in before.items()
                      if idx is None and memo[m][1] is not None]
    # X*Z^2 had no divisor among X*Y and X^2 and is found by X*Z.
    assert rescanned
