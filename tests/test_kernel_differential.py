"""Differential tests of the heap-ordered kernels against the max-scan
kernels they replaced, which `oracles.py` keeps.

The heap pops the terms of the working polynomial in the order max()
found them, so every reducer choice is the same: remainders, the
(index, monomial, multiplier) quotient triples and the reduction steps
must agree call by call.  The one-pass interreductions must return the
bases the multi-pass ones did; the ring one also spends the same steps,
because the first of the old passes already was the one pass.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from diffrees import groebner, resolution
from diffrees.groebner import IdealHandle, StepCounter
from diffrees.poly import DEGREVLEX, LEX, MonomialOrder, VariableContext
from diffrees.resolution import (_mod_monic, _pot_key, _schreyer_key,
                                 free_resolution, presentation_of_ideal,
                                 syzygies)

from conftest import P, homogeneous_ideals

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _spent(counter):
    return counter.limit - counter.remaining


@contextmanager
def checked_kernels():
    """Route every kernel call of the library through the new and the old
    version, assert that they agree, and count the compared calls."""
    calls = dict.fromkeys(("nf", "interreduce", "mod_nf",
                           "interreduce_module"), 0)
    nf, interreduce = groebner._nf, groebner._interreduce
    mod_nf = resolution._mod_nf
    interreduce_module = resolution._interreduce_module

    def nf_checked(poly, lms, basis, key, counter, memo, quotients=None):
        ref_quotients, ref_counter = [], StepCounter()
        expected = oracles.max_scan_nf(poly, list(lms), list(basis), key,
                                       ref_counter, dict(memo),
                                       ref_quotients)
        got_quotients, before = [], counter.remaining
        got = nf(poly, lms, basis, key, counter, memo, got_quotients)
        assert list(got.items()) == list(expected.items())
        assert got_quotients == ref_quotients
        assert before - counter.remaining == _spent(ref_counter)
        if quotients is not None:
            quotients.extend(got_quotients)
        calls["nf"] += 1
        return got

    def interreduce_checked(basis, lms, key, counter):
        ref_counter = StepCounter()
        expected = oracles.multipass_interreduce(basis, lms, key,
                                                 ref_counter)
        before = counter.remaining
        got = interreduce(basis, lms, key, counter)
        assert got == expected
        assert before - counter.remaining == _spent(ref_counter)
        calls["interreduce"] += 1
        return got

    def mod_nf_checked(element, lms, gens, key, counter, quotients=None):
        ref_quotients, ref_counter = [], StepCounter()
        expected = oracles.max_scan_mod_nf(element, list(lms), list(gens),
                                           key, ref_counter, ref_quotients)
        got_quotients, before = [], counter.remaining
        got = mod_nf(element, lms, gens, key, counter, got_quotients)
        assert list(got.items()) == list(expected.items())
        assert got_quotients == ref_quotients
        assert before - counter.remaining == _spent(ref_counter)
        if quotients is not None:
            quotients.extend(got_quotients)
        calls["mod_nf"] += 1
        return got

    def interreduce_module_checked(gens, lms, key, counter):
        expected = oracles.multipass_interreduce_module(gens, lms, key,
                                                        StepCounter())
        got = interreduce_module(gens, lms, key, counter)
        assert got == expected
        calls["interreduce_module"] += 1
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_nf", nf_checked)
        mp.setattr(groebner, "_interreduce", interreduce_checked)
        mp.setattr(resolution, "_mod_nf", mod_nf_checked)
        mp.setattr(resolution, "_interreduce_module",
                   interreduce_module_checked)
        yield calls


@_SETTINGS
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)))
def test_ring_kernels_match_max_scan(drawn):
    ctx, gens = drawn
    with checked_kernels() as calls:
        for order in (DEGREVLEX, LEX, MonomialOrder.elimination((0,))):
            handle = IdealHandle(ctx, gens)
            handle.groebner_basis(order)
            for g in gens:
                handle.normal_form(g * g + g * ctx.gen(0), order)
    assert calls["interreduce"] == 3
    assert calls["nf"] > 0


def test_growing_basis_kernels_match_max_scan():
    """Buchberger appends S-polynomial remainders here, and the
    saturation adds an elimination order with a block key."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    gens = [P(ctx, "X^2 - Y*W + Z^2"), P(ctx, "X*Y - Z*W"),
            P(ctx, "Y^2 - X*Z + W^2")]
    with checked_kernels() as calls:
        handle = IdealHandle(ctx, gens)
        assert len(handle.groebner_basis()) > len(gens)
        handle.saturation(P(ctx, "X"))
    assert calls["interreduce"] == 2


@_SETTINGS
@given(homogeneous_ideals(weighted=False))
def test_module_kernels_match_max_scan(drawn):
    ctx, gens = drawn
    with checked_kernels() as calls:
        free_resolution(presentation_of_ideal(IdealHandle(ctx, gens)))
    assert calls["interreduce_module"] >= 1


def test_schreyer_stages_match_max_scan():
    """Four stages: the first reduces under the position-over-term key,
    the other three under iterated Schreyer keys."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    gens = [P(ctx, "X^2 - Y*W"), P(ctx, "X*Y - Z^2"),
            P(ctx, "Y^2 - X*Z + W^2"), P(ctx, "X*W")]
    with checked_kernels() as calls:
        res = free_resolution(presentation_of_ideal(IdealHandle(ctx, gens)))
    assert res.ranks == (1, 4, 6, 4, 1)
    assert calls["interreduce_module"] == 4
    assert calls["mod_nf"] > 100


def test_syzygies_match_max_scan():
    """The expression-tracking run and the tautological reductions of
    `syzygies`, which feed quotient triples into the relations.  One fixed
    ideal: `_minimal_generators` reruns a module Buchberger per candidate,
    so random draws can take seconds each."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    gens = [P(ctx, "X*Z - Y^2"), P(ctx, "X*W - Y*Z"), P(ctx, "Y*W - Z^2")]
    with checked_kernels() as calls:
        syz = syzygies(presentation_of_ideal(IdealHandle(ctx, gens)))
    assert syz.matrix.ncols == 2
    assert calls["mod_nf"] > 10


@st.composite
def module_reductions(draw):
    """Monic reducers and one element in a free module of rank 2 over 3
    variables, under a Schreyer key over a random previous stage."""
    ctx = VariableContext(("X", "Y", "Z"))
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    prev_lms = draw(st.lists(st.tuples(exps, st.integers(0, 1)),
                             min_size=2, max_size=2))
    key = _schreyer_key(_pot_key(DEGREVLEX.key_for(ctx)), prev_lms)
    coeffs = st.integers(-3, 3).filter(bool).map(Fraction)
    elements = st.dictionaries(st.tuples(exps, st.integers(0, 1)), coeffs,
                               min_size=1, max_size=4)
    lms, gens = [], []
    for el in draw(st.lists(elements, min_size=1, max_size=4)):
        lm, monic = _mod_monic(el, key)
        lms.append(lm)
        gens.append(monic)
    return key, lms, gens, draw(elements)


@_SETTINGS
@given(module_reductions())
def test_schreyer_key_normal_forms_match_max_scan(drawn):
    key, lms, gens, element = drawn
    got_q, ref_q, got_c, ref_c = [], [], StepCounter(), StepCounter()
    got = resolution._mod_nf(element, lms, gens, key, got_c, got_q)
    expected = oracles.max_scan_mod_nf(element, lms, gens, key, ref_c, ref_q)
    assert list(got.items()) == list(expected.items())
    assert got_q == ref_q
    assert _spent(got_c) == _spent(ref_c)


# ---------------------------------------------------------------------------
# flat keys

def _sign(a, b):
    return (a > b) - (a < b)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.tuples(*[st.integers(1, 3)] * n),
    st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=2,
             max_size=12))))
def test_flat_keys_order_like_nested_keys(drawn):
    weights, monomials = drawn
    n = len(weights)
    ctx = VariableContext(tuple(f"X{i + 1}" for i in range(n)), weights)
    orders = [LEX, DEGREVLEX]
    orders += [MonomialOrder.elimination(tuple(range(k)))
               for k in range(1, n + 1)]
    for order in orders:
        flat = order.key_for(ctx)
        nested = oracles.nested_key_for(order, ctx)
        assert len({len(flat(m)) for m in monomials}) == 1
        for a in monomials:
            for b in monomials:
                assert _sign(flat(a), flat(b)) == _sign(nested(a), nested(b))
    flat_pot = _pot_key(DEGREVLEX.key_for(ctx))
    nested_pot = oracles.nested_pot_key(
        oracles.nested_key_for(DEGREVLEX, ctx))
    prev_lms = [(m, k % 2) for k, m in enumerate(monomials)]
    flat_schreyer = _schreyer_key(flat_pot, prev_lms)
    nested_schreyer = oracles.nested_schreyer_key(nested_pot, prev_lms)
    terms = [(m, c) for c, m in enumerate(monomials)]
    for s in terms:
        for t in terms:
            assert (_sign(flat_schreyer(s), flat_schreyer(t))
                    == _sign(nested_schreyer(s), nested_schreyer(t)))
            s2, t2 = (s[0], s[1] % 2), (t[0], t[1] % 2)
            assert (_sign(flat_pot(s2), flat_pot(t2))
                    == _sign(nested_pot(s2), nested_pot(t2)))


def test_degrevlex_keys_are_flat(xyz):
    assert DEGREVLEX.key_for(xyz)((1, 2, 0)) == (3, 0, -2, -1)
