"""Differential tests of the packed heap-ordered kernels against the
max-scan kernels they replaced, which `oracles.py` keeps.

The heap pops the terms of the working polynomial in the order max()
found them, the guard-bit divisibility test and a fresh linear scan pick
the same first divisor, and the gcd-scaled cancellation changes only the
integer scale of the work, so every reducer choice is the same: the
exact remainders (the integer remainder over its scale, unpacked), the
(index, monomial, multiplier) quotient triples and the reduction steps
must agree call by call.  The one-pass interreduction must return the
bases the multi-pass one did and spend the same steps, because the first
of the old passes already was the one pass.  Resolutions run on the
same normal form with module terms in the flat encoding a + (c, r-1-c),
so they are checked call by call too, and a module normal form under a
Schreyer key must agree with the old module engine's.  A normal form
bounded by a signature must take the reducers a max scan under the same
bound takes.  The signature-based pair loop must give the reduced bases
that the Gebauer-Moeller engine it replaced and the no-criteria oracle
give.  Every int order key must hold the digits of the flat tuple key of
the oracles in base 2^64 and order like it, up to the bounds stated at
`EXPONENT_LIMIT`.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from diffrees import groebner
from diffrees.groebner import IdealHandle, StepCounter, _Monomials
from diffrees.poly import (DEGREVLEX, EXPONENT_LIMIT, KEY_DIGIT,
                           WEIGHT_SUM_LIMIT, MonomialOrder, Polynomial,
                           VariableContext)
from diffrees.resolution import _next_offsets, _stage_key, free_resolution
from diffrees.verifier import run_case
from oracles import LEX, ReferenceOrder, position_key

from conftest import P, homogeneous_ideals, inhomogeneous_ideals

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _spent(counter):
    return counter.limit - counter.remaining


def _signature_basis(generators, order, ctx, counter=None):
    """`groebner._buchberger` on term dicts of `ctx` under `order`, as
    `oracles.monic_basis` gives it."""
    return oracles.monic_basis(groebner._buchberger(
        generators, _Monomials(order.key_for(ctx), ctx.arity),
        counter or StepCounter()))


def _gm_basis(generators, order, ctx):
    """`oracles.gm_buchberger` likewise."""
    return oracles.monic_basis(oracles.gm_buchberger(
        generators, _Monomials(order.key_for(ctx), ctx.arity),
        ctx.weighted_degree, StepCounter()))


@contextmanager
def checked_kernels():
    """Route every kernel call of the library through the new and the old
    version, assert that they agree, and count the compared calls."""
    calls = dict.fromkeys(("nf", "bounded_nf", "interreduce"), 0)
    nf, interreduce = groebner._nf, groebner._interreduce

    def nf_checked(poly, lms, basis, mons, counter, memo, quotients=None,
                   bound=None):
        unpack = mons.unpack
        ref_quotients, ref_counter = [], StepCounter()
        expected = oracles.max_scan_nf(
            {unpack(e): c for e, c in poly.items()},
            [unpack(lm) for lm in lms],
            [{unpack(e): c for e, c in g.items()} for g in basis],
            mons.key, ref_counter, {}, ref_quotients, bound)
        got_quotients, before = [], counter.remaining
        got, scale = nf(poly, lms, basis, mons, counter, memo, got_quotients,
                        bound)
        num, den = scale
        assert ([(unpack(e), Fraction(v * den, num)) for e, v in got.items()]
                == list(expected.items()))
        assert ([(k, unpack(q), Fraction(n, d))
                 for k, q, n, d in got_quotients] == ref_quotients)
        assert before - counter.remaining == _spent(ref_counter)
        if quotients is not None:
            quotients.extend(got_quotients)
        calls["nf"] += 1
        calls["bounded_nf"] += bound is not None
        return got, scale

    def interreduce_checked(basis, lms, mons, counter):
        unpack = mons.unpack
        ref_counter = StepCounter()
        expected = oracles.multipass_interreduce(
            [{unpack(e): c for e, c in g.items()} for g in basis],
            [unpack(lm) for lm in lms], mons.key, ref_counter)
        before = counter.remaining
        got = interreduce(basis, lms, mons, counter)
        assert oracles.monic_basis(got) == expected
        assert before - counter.remaining == _spent(ref_counter)
        calls["interreduce"] += 1
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_nf", nf_checked)
        mp.setattr(groebner, "_interreduce", interreduce_checked)
        yield calls


@_SETTINGS
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)))
def test_ring_kernels_match_max_scan(drawn):
    ctx, gens = drawn
    with checked_kernels() as calls:
        for order in (DEGREVLEX, LEX, ReferenceOrder.elimination((0,))):
            handle = IdealHandle(ctx, gens)
            handle.groebner_basis(order)
            for g in gens:
                handle.normal_form(g * g + g * ctx.gen(0), order)
    assert calls["interreduce"] == 3
    assert calls["nf"] > 0


def test_growing_basis_kernels_match_max_scan():
    """Buchberger appends S-polynomial remainders here.  The saturation by
    X + Y adds a build in the ring with z adjoined, whose degrevlex key
    ranks z last, then a degrevlex build of the basis that z := X + Y
    maps it to; the one by X a degrevlex key with X ranked last, then a
    degrevlex build of the divided basis."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    gens = [P(ctx, "X^2 - Y*W + Z^2"), P(ctx, "X*Y - Z*W"),
            P(ctx, "Y^2 - X*Z + W^2")]
    with checked_kernels() as calls:
        handle = IdealHandle(ctx, gens)
        assert len(handle.groebner_basis()) > len(gens)
        handle.saturation(P(ctx, "X + Y"))
        assert calls["interreduce"] == 3
        handle.saturation(P(ctx, "X"))
    assert calls["interreduce"] == 5
    assert calls["bounded_nf"] > 0


@_SETTINGS
@given(homogeneous_ideals(weighted=False))
def test_module_kernels_match_max_scan(drawn):
    ctx, gens = drawn
    with checked_kernels() as calls:
        free_resolution(IdealHandle(ctx, gens))
    assert calls["interreduce"] >= 1


def test_schreyer_stages_match_max_scan():
    """Four stages: the first reduces under the position-over-term key,
    the other three under iterated Schreyer keys; only the first is
    interreduced."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    gens = [P(ctx, "X^2 - Y*W"), P(ctx, "X*Y - Z^2"),
            P(ctx, "Y^2 - X*Z + W^2"), P(ctx, "X*W")]
    with checked_kernels() as calls:
        res = free_resolution(IdealHandle(ctx, gens))
    assert res.betti == (1, 4, 6, 4, 1)
    assert calls["interreduce"] == 1
    # 66 when this was written: the stage-one basis and the records
    assert calls["nf"] > 60


@st.composite
def redundant_generators(draw, drawn):
    """The drawn generators followed by up to three redundant ones:
    duplicates, nonzero multiples and sums X1^k g_i + g_j, with k making
    the sum homogeneous when g_i and g_j are (X1 has weight 1)."""
    ctx, gens = drawn
    gens = list(gens)
    index = st.integers(0, len(gens) - 1)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("duplicate", "multiple", "sum")))
        g = gens[draw(index)]
        if kind == "duplicate":
            gens.append(g)
        elif kind == "multiple":
            gens.append(g * draw(st.integers(-3, 3).filter(bool)))
        else:
            h = gens[draw(index)]
            if g.weighted_degree > h.weighted_degree:
                g, h = h, g
            s = g * ctx.gen(0) ** (h.weighted_degree - g.weighted_degree) + h
            gens.append(s if s else g)
    return ctx, gens


_XYZW = VariableContext(("X", "Y", "Z", "W"))


@_SETTINGS
@given(st.one_of(homogeneous_ideals(weighted=False),
                 homogeneous_ideals(weighted=True), inhomogeneous_ideals())
       .flatmap(redundant_generators))
@example((_XYZW, [P(_XYZW, "X^2*Y - Z^3"), P(_XYZW, "X*Y^2 - W^3"),
                  P(_XYZW, "X*Y - Z*W")]))
def test_signature_engine_matches_old_engines(drawn):
    """The signature-based engine against the Gebauer-Moeller engine it
    replaced and the no-criteria oracle, in three ring orders, on
    homogeneous, weighted and inhomogeneous draws that repeat some
    generators or add combinations of them.  The explicit example is a
    chain-criterion case of the old engine: X*Y divides the lcm X^2*Y^2
    of the first two leads."""
    ctx, gens = drawn
    generators = [dict(g.terms) for g in gens]
    for order in (DEGREVLEX, LEX, ReferenceOrder.elimination((0,))):
        got = _signature_basis(generators, order, ctx)
        assert got == _gm_basis(generators, order, ctx)
        assert (tuple(Polynomial._make(ctx, d) for d in got[1])
                == oracles.naive_buchberger(ctx, gens, order))


def _assert_same_reduced_basis(generators, order, ctx):
    """The Gebauer-Moeller engine and the signature-based one give the
    reduced basis of the chain scan, which runs on the tuple keys."""
    ref_key = oracles.flat_key_for(order, ctx)
    ref = oracles.chain_scan_buchberger(generators, ref_key,
                                        ctx.weighted_degree, StepCounter())
    reduced = oracles.multipass_interreduce(*ref, ref_key, StepCounter())
    assert _gm_basis(generators, order, ctx) == reduced
    assert _signature_basis(generators, order, ctx) == reduced


@_SETTINGS
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w))
       .flatmap(redundant_generators))
def test_pair_update_matches_chain_scan(drawn):
    """The Gebauer-Moeller update of `oracles.gm_buchberger`, the
    reference of the differential tests above, and the signature-based
    engine against the chain scan, in three ring orders.  The draws repeat
    some generators or add combinations of them."""
    ctx, gens = drawn
    for order in (DEGREVLEX, LEX, ReferenceOrder.elimination((0,))):
        _assert_same_reduced_basis([dict(g.terms) for g in gens], order,
                                   ctx)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_pair_update_drops_a_pending_pair(order):
    """The third generator's lead X*Y divides the lcm X^2*Y^2 of the
    pending pair of the first two and differs from both new lcms, so the
    Gebauer-Moeller update deletes that pair before it is reduced; the
    basis is still the one of the chain scan."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    gens = [P(ctx, "X^2*Y - Z^3"), P(ctx, "X*Y^2 - W^3"),
            P(ctx, "X*Y - Z*W")]
    _assert_same_reduced_basis([dict(g.terms) for g in gens], order, ctx)


def test_every_workload_basis_matches_gm_buchberger(shipped_cases,
                                                    probe_cases, monkeypatch):
    """Every basis build of the shipped cases and of the first eight probe
    instances, run through `run_case`, gives in full the reduced basis of
    the Gebauer-Moeller engine; a build that stopped on the
    zero-dimensional certificate has a full basis whose leads hold a pure
    power of every variable."""
    builds = []
    build = IdealHandle._build

    def recording(handle, order, certify=False):
        basis = build(handle, order, certify)
        builds.append((handle.context, handle.generators, order,
                       basis is None))
        return basis

    monkeypatch.setattr(IdealHandle, "_build", recording)
    for case in shipped_cases + probe_cases:
        assert run_case(case).status == "ok", case.name
    assert len(builds) > 50
    assert any(certified for *_, certified in builds)
    for ctx, gens, order, certified in builds:
        generators = [dict(g.terms) for g in gens]
        full = _signature_basis(generators, order, ctx)
        assert full == _gm_basis(generators, order, ctx)
        if certified:
            pure = {i for lead in full[0] for i, e in enumerate(lead)
                    if e and lead.count(0) == len(lead) - 1}
            assert pure == set(range(ctx.arity))


def test_redundant_generators_are_reduced_away(monkeypatch):
    """A duplicate, a multiple and sums of two generators reduce to zero
    in the input pre-pass, so they form no pairs: the reduced basis is the
    one of the chain scan, which appends every generator, and of the
    no-criteria oracle, it is interreduced from fewer elements, and the
    basis and its interreduction cost fewer steps (10 against 22 when
    this was written)."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    f1, f2, f3 = (P(ctx, "X^2 - Y*W + Z^2"), P(ctx, "X*Y - Z*W"),
                  P(ctx, "Y^2 - X*Z + W^2"))
    gens = [f1 + f3, f2 * 3, f1, f2, f3, f1, f2 - f3]
    generators = [dict(g.terms) for g in gens]
    ref_key = oracles.flat_key_for(DEGREVLEX, ctx)
    found = []
    interreduce = groebner._interreduce

    def recording(basis, lms, mons, counter):
        found.append(len(basis))
        return interreduce(basis, lms, mons, counter)

    monkeypatch.setattr(groebner, "_interreduce", recording)
    got_c, ref_c = StepCounter(), StepCounter()
    reduced = _signature_basis(generators, DEGREVLEX, ctx, got_c)
    ref = oracles.chain_scan_buchberger(generators, ref_key,
                                        ctx.weighted_degree, ref_c)
    assert reduced == oracles.multipass_interreduce(*ref, ref_key, ref_c)
    assert (tuple(Polynomial._make(ctx, d) for d in reduced[1])
            == oracles.naive_buchberger(ctx, gens)
            == oracles.naive_buchberger(ctx, [f1, f2, f3]))
    assert found[0] < len(ref[0])
    assert _spent(got_c) < _spent(ref_c)


def _flat(term, rank):
    e, c = term
    return e + (c, rank - 1 - c)


def _pot_offsets(n, rank):
    """The stage-0 offsets of a position-over-term F_0 of rank `rank` over
    n variables: the position digit r-1-c above the n + 1 ring digits."""
    return [(rank - 1 - c) << (KEY_DIGIT * (n + 1)) for c in range(rank)]


def _schreyer_keys(ctx, rank, stages):
    """The int Schreyer key of the frame stage after `stages`, each a list
    of flat leads of the stage before, over a position-over-term F_0 of
    rank `rank`, and the oracle's tuple key whose digits it holds."""
    n = ctx.arity
    ring_key = DEGREVLEX.key_for(ctx)
    key = _stage_key(ring_key, _pot_offsets(n, rank), n, 0)
    chain = [(rank - 1 - c, (0,) * n, ()) for c in range(rank)]
    for stage, lms in enumerate(stages, 1):
        offsets = _next_offsets([-key(lm) for lm in lms])
        key = _stage_key(ring_key, offsets, n, stage)
        chain = oracles.next_chain(chain, lms, n)
    return key, oracles.induced_key(oracles.flat_key_for(DEGREVLEX, ctx),
                                    chain, n)


@st.composite
def module_reductions(draw):
    """Reducers and one element in a free module of rank 2 over 3
    variables, under a Schreyer key over a random previous stage of
    rank 2, as (exponents, component) terms."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    prev_lms = draw(st.lists(st.tuples(exps, st.integers(0, 1)),
                             min_size=2, max_size=2))
    coeffs = st.integers(-3, 3).filter(bool).map(Fraction)
    elements = st.dictionaries(st.tuples(exps, st.integers(0, 1)), coeffs,
                               min_size=1, max_size=4)
    return (prev_lms, draw(st.lists(elements, min_size=1, max_size=4)),
            draw(elements))


@_SETTINGS
@given(module_reductions())
def test_schreyer_key_normal_forms_match_max_scan(drawn):
    """The ring kernel on flat module terms against the old module
    engine's normal form on (exponents, component) terms."""
    prev_lms, reducers, element = drawn
    ctx = VariableContext(("X", "Y", "Z"))
    old_key = oracles.schreyer_key(
        oracles.pot_key(oracles.flat_key_for(DEGREVLEX, ctx)), prev_lms)
    key, _ = _schreyer_keys(ctx, 2, [[_flat(t, 2) for t in prev_lms]])
    mons = _Monomials(key, 5)

    def packed(el):
        return {mons.pack(_flat(t, 2)): c for t, c in el.items()}

    old_lms, old_gens, lms, basis = [], [], [], []
    for el in reducers:
        lm, monic = oracles.mod_monic(el, old_key)
        old_lms.append(lm)
        old_gens.append(monic)
        lm, ints = oracles.int_normalize(packed(el), mons)
        lms.append(lm)
        basis.append(ints)
    got_q, ref_q, got_c, ref_c = [], [], StepCounter(), StepCounter()
    got, (num, den) = groebner._nf(packed(element), lms, basis, mons, got_c,
                                   {}, got_q)
    expected = oracles.mod_nf(element, old_lms, old_gens, old_key, ref_c,
                              ref_q)
    assert [(mons.unpack(t), Fraction(v * den, num)) for t, v in got.items()] \
        == [(_flat(t, 2), c) for t, c in expected.items()]
    assert [(k, mons.unpack(q), Fraction(n, d)) for k, q, n, d in got_q] == [
        (k, q + (0, 0), c) for k, q, c in ref_q]
    assert _spent(got_c) == _spent(ref_c)


# ---------------------------------------------------------------------------
# flat tuple keys, the reference of the int keys

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
    orders += [ReferenceOrder.elimination(tuple(range(k)))
               for k in range(1, n + 1)]
    for order in orders:
        flat = oracles.flat_key_for(order, ctx)
        nested = oracles.nested_key_for(order, ctx)
        assert len({len(flat(m)) for m in monomials}) == 1
        for a in monomials:
            for b in monomials:
                assert _sign(flat(a), flat(b)) == _sign(nested(a), nested(b))
    rank = 2
    flat_pot = position_key(ctx)
    nested_pot = oracles.nested_pot_key(
        oracles.nested_key_for(DEGREVLEX, ctx))
    prev_lms = [(m, k % rank) for k, m in enumerate(monomials)]
    _, flat_schreyer = _schreyer_keys(
        ctx, rank, [[_flat(t, rank) for t in prev_lms]])
    nested_schreyer = oracles.nested_schreyer_key(nested_pot, prev_lms)
    terms = [(m, c) for c, m in enumerate(monomials)]
    for s in terms:
        for t in terms:
            fs, ft = _flat(s, len(terms)), _flat(t, len(terms))
            assert (_sign(flat_schreyer(fs), flat_schreyer(ft))
                    == _sign(nested_schreyer(s), nested_schreyer(t)))
            s2, t2 = (s[0], s[1] % rank), (t[0], t[1] % rank)
            assert (_sign(flat_pot(_flat(s2, rank)), flat_pot(_flat(t2, rank)))
                    == _sign(nested_pot(s2), nested_pot(t2)))


def test_degrevlex_keys_are_flat(xyz):
    """The tuple key is (deg, -z, -y, -x); the int key holds its digits."""
    assert oracles.flat_key_for(DEGREVLEX, xyz)((1, 2, 0)) == (3, 0, -2, -1)
    assert DEGREVLEX.key_for(xyz)((1, 2, 0)) == (
        (3 << 3 * KEY_DIGIT) - (2 << KEY_DIGIT) - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.integers(1, 3),
    st.lists(st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * n),
                                st.integers(0, 5)),
                      min_size=1, max_size=4), min_size=1, max_size=3),
    st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1,
             max_size=4))))
def test_induced_keys_are_the_nested_keys(drawn):
    """Over a chain of up to three stages from a position-over-term F_0,
    the int key of a term holds the digits of the tuple the
    stage-by-stage nested keys give."""
    rank, stages, exponents = drawn
    n = len(exponents[0])
    ctx = VariableContext(tuple(f"X{i + 1}" for i in range(n)))
    ring_key = DEGREVLEX.key_for(ctx)
    key = _stage_key(ring_key, _pot_offsets(n, rank), n, 0)
    nested = position_key(ctx)
    for stage, leads in enumerate(stages, 1):
        lms = [_flat((e, c % rank), rank) for e, c in leads]
        offsets = _next_offsets([-key(lm) for lm in lms])
        key = _stage_key(ring_key, offsets, n, stage)
        nested = oracles.nested_induced_key(nested, lms, n)
        rank = len(lms)
        for e in exponents:
            for c in range(rank):
                t = _flat((e, c), rank)
                assert key(t) == oracles.int_key(nested(t))


# ---------------------------------------------------------------------------
# int keys at the bounds

_EXPONENT = st.integers(0, EXPONENT_LIMIT - 1)
# a chain of three Schreyer leads sums to below 2^31, as an lcm of
# stage-one leads does
_X = (EXPONENT_LIMIT - 1) // 3
_CHAIN_EXPONENT = st.integers(0, _X)


def _weights_at_the_limit(n):
    """n positive weights summing to exactly WEIGHT_SUM_LIMIT."""
    cuts = st.lists(st.integers(1, WEIGHT_SUM_LIMIT - 1), min_size=n - 1,
                    max_size=n - 1, unique=True)
    return cuts.map(lambda c: tuple(
        b - a for a, b in zip([0, *sorted(c)],
                              [*sorted(c), WEIGHT_SUM_LIMIT])))


@st.composite
def keyed_terms(draw):
    """Weights 1-3 or weights summing to WEIGHT_SUM_LIMIT on 1-10
    variables; a rank 1-3, the leads of one Schreyer stage over a
    position-over-term F_0 of that rank, and those of three stages over
    one of rank 3 whose last stage has that rank; flat module terms with
    exponents up to 2^31 - 1 near one another; and a shift q with two
    terms that stay valid when multiplied by it."""
    n = draw(st.integers(1, 10))
    weights = draw(st.tuples(*[st.integers(1, 3)] * n)
                   | _weights_at_the_limit(n))
    rank = draw(st.integers(1, 3))
    component = st.integers(0, rank - 1)
    exps = st.tuples(*[_EXPONENT] * n)
    base = draw(exps)
    # near the base, so that high key coordinates tie or differ by one
    # while low ones differ by up to the bound
    near = st.tuples(*[st.sampled_from((x, x ^ 1)) | _EXPONENT
                       for x in base])
    terms = draw(st.lists(st.tuples(near, component), min_size=2,
                          max_size=6))
    leads = draw(st.lists(st.tuples(exps, component), min_size=rank,
                          max_size=rank))
    chain_exps = st.tuples(*[_CHAIN_EXPONENT] * n)
    stages, before = [], 3
    for size in (draw(st.integers(1, 3)), draw(st.integers(1, 3)), rank):
        stages.append([_flat((draw(chain_exps),
                              draw(st.integers(0, before - 1))), before)
                       for _ in range(size)])
        before = size
    q = draw(exps)
    below = st.tuples(*[st.integers(0, EXPONENT_LIMIT - 1 - x) for x in q])
    shifted = [(draw(below), draw(component)) for _ in range(2)]
    return weights, rank, terms, leads, stages, q, shifted


def _keys(ctx, rank, leads, stages):
    """The int keys the kernel runs on, each with the oracle's tuple key
    whose digits it holds and the map from (exponents, component) terms
    to the tuples it keys: lex, degrevlex, degrevlex with each variable
    ranked last and every block order on the exponents, and on flat terms
    of rank `rank` a one-stage Schreyer key over a position-over-term F_0
    of rank `rank` and a three-stage one over one of rank 3."""
    n = ctx.arity
    orders = [LEX, DEGREVLEX]
    orders += [ReferenceOrder.elimination(tuple(range(k)))
               for k in range(1, n + 1)]
    orders += [MonomialOrder(j) for j in range(n)]
    keys = [(order.key_for(ctx), oracles.flat_key_for(order, ctx),
             lambda t: t[0]) for order in orders]
    # each lead's F_0 image stays below 2^31, as an lcm of stage-one leads
    for key, ref in (_schreyer_keys(ctx, rank, [[_flat(t, rank)
                                                 for t in leads]]),
                     _schreyer_keys(ctx, 3, stages)):
        keys.append((key, ref, lambda t: _flat(t, rank)))
    return keys


@settings(max_examples=80, deadline=None)
@given(keyed_terms())
@example(((WEIGHT_SUM_LIMIT,), 2, [((0,), 0), ((EXPONENT_LIMIT - 1,), 1)],
          [((0,), 0), ((EXPONENT_LIMIT - 1,), 1)],
          [[(0, 0, 2), (_X, 2, 0)], [(0, 0, 1), (_X, 1, 0)],
           [(0, 0, 1), (_X, 1, 0)]], (0,), [((0,), 0)] * 2))
def test_int_keys_order_like_tuple_keys(drawn):
    """Every int key holds the digits of the oracle's tuple key and orders
    like it.  In the explicit example one variable has weight 2^31, and in
    both Schreyer keys the two terms differ in their position digit while
    their degree digits, right below it, are 0 and just below 2^63."""
    weights, rank, terms, leads, stages, q, shifted = drawn
    n = len(weights)
    ctx = VariableContext(tuple(f"X{i + 1}" for i in range(n)), weights)
    for key, ref, encode in _keys(ctx, rank, leads, stages):
        keyed = list(map(encode, terms))
        for a in keyed:
            assert type(key(a)) is int
            assert key(a) == oracles.int_key(ref(a))
            for b in keyed:
                assert _sign(key(a), key(b)) == _sign(ref(a), ref(b))


@settings(max_examples=80, deadline=None)
@given(keyed_terms())
def test_int_key_of_a_product_adds(drawn):
    """key(m + q) - key(m) is the same for every m in every component, and
    it is what `_nf` adds: packing m + q is adding the packed q."""
    weights, rank, _, leads, stages, q, shifted = drawn
    n = len(weights)
    ctx = VariableContext(tuple(f"X{i + 1}" for i in range(n)), weights)
    for key, _, encode in _keys(ctx, rank, leads, stages):
        shift = q + (0,) * (len(encode((q, 0))) - n)
        mons = _Monomials(key, len(shift))
        differences = set()
        for term in shifted:
            m = encode(term)
            product = tuple(a + b for a, b in zip(m, shift))
            assert mons.pack(product) == mons.pack(m) + mons.pack(shift)
            assert mons[mons.pack(product)] == -key(product)
            differences.add(key(product) - key(m))
        assert len(differences) == 1
