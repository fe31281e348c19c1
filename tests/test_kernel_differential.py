"""Differential tests of the packed heap-ordered kernels against the
max-scan references of `oracles.py`.

The heap pops the terms of the working polynomial in the order max()
found them, the guard-bit divisibility test and a fresh linear scan pick
the same first divisor, and the gcd-scaled cancellation changes only the
integer scale of the work, so every reducer choice is the same: the
exact remainders (the integer remainder over its scale, unpacked), the
(index, monomial, multiplier) quotient triples and the reduction steps
must agree call by call.  The one-pass interreduction must return the
bases the multi-pass one does and spend the same steps, because the
first of its passes already is the one pass.  Resolutions run on the
same normal form with module terms in the flat encoding a + (c, r-1-c),
so they are checked call by call too, also under a Schreyer key.  A
normal form bounded by a signature must take the reducers a max scan
under the same bound takes.  The signature-based pair loop must give the
reduced bases of the no-criteria oracle, and on the workloads those of
sympy.  Every int order key, Schreyer stage keys included, must hold the
digits of the flat tuple key of the oracles in base 2^64 and order like
it, up to the bounds stated at `EXPONENT_LIMIT`.
"""

import hashlib
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from diffrees import groebner
from diffrees.groebner import (IdealHandle, StepCounter, _Monomials,
                               _primitive)
from diffrees.poly import (DEGREVLEX, EXPONENT_LIMIT, KEY_DIGIT,
                           WEIGHT_SUM_LIMIT, MonomialOrder, Polynomial,
                           VariableContext)
from diffrees.resolution import _next_offsets, _stage_key, free_resolution
from diffrees.verifier import run_case
from oracles import LEX, ReferenceOrder, position_key

from conftest import (P, homogeneous_ideals, inhomogeneous_ideals,
                      probe_case_files)

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


@contextmanager
def checked_kernels():
    """Route every kernel call of the library through the library's
    kernel and the oracle's, assert that they agree, and count the
    compared calls."""
    calls = dict.fromkeys(("nf", "bounded_nf", "interreduce"), 0)
    nf, interreduce = groebner._nf, groebner._interreduce

    def nf_checked(poly, lms, basis, mons, counter, memo, quotients=None,
                   bound=None):
        # denominators are cleared before a polynomial reaches `_nf`
        assert all(type(c) is int for g in (poly, *basis) for c in g.values())
        unpack = mons.unpack
        ref_quotients, ref_counter = [], StepCounter()
        expected = oracles.max_scan_nf(
            {unpack(e): c for e, c in poly.items()},
            [unpack(lm) for lm in lms],
            [{unpack(e): c for e, c in g.items()} for g in basis],
            mons.key, ref_counter, ref_quotients, bound)
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
        expected = oracles.interreduce(
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
    """The signature-based engine against the no-criteria oracle, in three
    ring orders, on homogeneous, weighted and inhomogeneous draws that
    repeat some generators or add combinations of them.  The explicit
    example has a pair that a chain criterion would drop: X*Y divides the
    lcm X^2*Y^2 of the first two leads."""
    ctx, gens = drawn
    generators = [dict(g.terms) for g in gens]
    for order in (DEGREVLEX, LEX, ReferenceOrder.elimination((0,))):
        got = _signature_basis(generators, order, ctx)
        assert (tuple(Polynomial._make(ctx, d) for d in got[1])
                == oracles.naive_buchberger(ctx, gens, order))


def _workload_builds(cases):
    """Run `cases` through `run_case` and return every basis build it
    makes, as (context, generators, order, stopped on the certificate)."""
    builds = []
    build = IdealHandle._build

    def recording(handle, order, certify=False):
        basis = build(handle, order, certify)
        builds.append((handle.context, handle.generators, order,
                       basis is None))
        return basis

    IdealHandle._build = recording
    try:
        for case in cases:
            assert run_case(case).status == "ok", case.name
    finally:
        IdealHandle._build = build
    return builds


def _digest(*parts):
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _build_digest(ctx, gens, order):
    return _digest(ctx.names, ctx.weights, repr(order),
                   [sorted(g.terms) for g in gens])


def _basis_digest(basis):
    """The digest of a reduced basis given as `oracles.sympy_basis` gives
    it, a set of frozensets of terms."""
    return _digest(sorted(sorted(g) for g in basis))


# sympy's reduced bases, as `_basis_digest` reads them, for the basis
# builds of the two 6-variable probe instances among the first eight,
# keyed by `_build_digest`: sympy takes about 25 s on them, so they are
# stored.  `python tests/test_kernel_differential.py` recomputes the table
# with sympy.
_SYMPY_DIGESTS = {
    "84b1e540b338f6b7": "d24607caf83879b1",
    "bfe50a38215bd15d": "46f814aecc7812c4",
    "0d556e2eee3a46b7": "348addca0b1fdf28",
    "1f685d6515d31fda": "6aee5f84088fe22d",
    "b76e7faba7551aa0": "6c633f73fa6fbb77",
    "a1a75a041a93e3ad": "0a97f87a7929313d",
}


def test_every_workload_basis_matches_sympy(shipped_cases, probe_cases):
    """Every basis build of the shipped cases and of the first eight probe
    instances, run through `run_case`, gives in full the reduced basis
    sympy's `groebner` gives under the same order: computed here, and
    read from `_SYMPY_DIGESTS` for the 6-variable probe instances.  A
    build that stopped on the zero-dimensional certificate has a full
    basis whose leads hold a pure power of every variable."""
    six = [c for c in probe_cases if c.context.arity == 6]
    builds = [(b, False) for b in _workload_builds(
        shipped_cases + [c for c in probe_cases if c not in six])]
    builds += [(b, True) for b in _workload_builds(six)]
    assert len(builds) > 50
    assert any(certified for (*_, certified), _ in builds)
    stored = set()
    for (ctx, gens, order, certified), from_table in builds:
        generators = [dict(g.terms) for g in gens]
        full = _signature_basis(generators, order, ctx)
        got = {frozenset(g.items()) for g in full[1]}
        if from_table:
            key = _build_digest(ctx, gens, order)
            stored.add(key)
            assert _basis_digest(got) == _SYMPY_DIGESTS[key]
        else:
            assert got == oracles.sympy_basis(ctx, gens, order)
        if certified:
            pure = {i for lead in full[0] for i, e in enumerate(lead)
                    if e and lead.count(0) == len(lead) - 1}
            assert pure == set(range(ctx.arity))
    assert stored == set(_SYMPY_DIGESTS)


def test_redundant_generators_are_reduced_away(monkeypatch):
    """A duplicate, a multiple and sums of two generators reduce to zero
    in the input pre-pass, so they form no pairs: the basis is
    interreduced from as many elements as the build from the three
    generators alone makes, and it is the reduced basis of the
    no-criteria oracle."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    f1, f2, f3 = (P(ctx, "X^2 - Y*W + Z^2"), P(ctx, "X*Y - Z*W"),
                  P(ctx, "Y^2 - X*Z + W^2"))
    gens = [f1 + f3, f2 * 3, f1, f2, f3, f1, f2 - f3]
    found = []
    interreduce = groebner._interreduce

    def recording(basis, lms, mons, counter):
        found.append(len(basis))
        return interreduce(basis, lms, mons, counter)

    monkeypatch.setattr(groebner, "_interreduce", recording)
    reduced = _signature_basis([dict(g.terms) for g in gens], DEGREVLEX, ctx)
    assert reduced == _signature_basis([dict(g.terms) for g in (f1, f2, f3)],
                                       DEGREVLEX, ctx)
    assert found[0] == found[1] < len(gens)
    assert (tuple(Polynomial._make(ctx, d) for d in reduced[1])
            == oracles.naive_buchberger(ctx, gens)
            == oracles.naive_buchberger(ctx, [f1, f2, f3]))


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
    rank `rank`, and the oracle's tuple key whose digits it holds: the
    Schreyer keys of `oracles.schreyer_key` over `position_key`."""
    n = ctx.arity
    ring_key = DEGREVLEX.key_for(ctx)
    key = _stage_key(ring_key, _pot_offsets(n, rank), n, 0)
    ref = position_key(ctx)
    for stage, lms in enumerate(stages, 1):
        offsets = _next_offsets([-key(lm) for lm in lms])
        key = _stage_key(ring_key, offsets, n, stage)
        ref = oracles.schreyer_key(ref, lms, n)
    return key, ref


@st.composite
def module_reductions(draw):
    """Reducers and one element in a free module of rank 2 over 3
    variables, under a Schreyer key over a random previous stage of
    rank 2, as flat terms."""
    exps = st.tuples(*[st.integers(0, 2)] * 3)
    terms = st.tuples(exps, st.integers(0, 1)).map(lambda t: _flat(t, 2))
    prev_lms = draw(st.lists(terms, min_size=2, max_size=2))
    coeffs = st.integers(-3, 3).filter(bool).map(Fraction)
    elements = st.dictionaries(terms, coeffs, min_size=1, max_size=4)
    return (prev_lms, draw(st.lists(elements, min_size=1, max_size=4)),
            draw(elements))


@_SETTINGS
@given(module_reductions())
def test_schreyer_key_normal_forms_match_max_scan(drawn):
    """The ring kernel on flat module terms under a Schreyer key against
    the max scan under the oracle's Schreyer key."""
    prev_lms, reducers, element = drawn
    ctx = VariableContext(("X", "Y", "Z"))
    key, ref_key = _schreyer_keys(ctx, 2, [prev_lms])
    mons = _Monomials(key, 5)
    lms, basis = [], []
    for el in reducers:
        lm, ints = _primitive({mons.pack(t): int(c) for t, c in el.items()},
                              mons)
        lms.append(lm)
        basis.append(ints)
    got_q, ref_q, got_c, ref_c = [], [], StepCounter(), StepCounter()
    scale, packed = groebner._cleared(element.items(), mons.pack)
    got, (num, den) = groebner._nf(packed, lms, basis, mons, got_c, {}, got_q)
    expected = oracles.max_scan_nf(
        element, [mons.unpack(lm) for lm in lms],
        [{mons.unpack(t): c for t, c in g.items()} for g in basis],
        ref_key, ref_c, ref_q)
    assert [(mons.unpack(t), Fraction(v * den, num * scale))
            for t, v in got.items()] == list(expected.items())
    assert [(k, mons.unpack(q), Fraction(a, b * scale))
            for k, q, a, b in got_q] == ref_q
    assert _spent(got_c) == _spent(ref_c)


# ---------------------------------------------------------------------------
# flat tuple keys, the reference of the int keys

def _sign(a, b):
    return (a > b) - (a < b)


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
    stage-by-stage nested keys of `oracles.schreyer_key` give."""
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
        nested = oracles.schreyer_key(nested, lms, n)
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


if __name__ == "__main__":
    # Print `_SYMPY_DIGESTS`, computed by sympy (about 25 s).
    for ctx, gens, order, _ in _workload_builds(
            [c for c in probe_case_files() if c.context.arity == 6]):
        print(f'    "{_build_digest(ctx, gens, order)}": '
              f'"{_basis_digest(oracles.sympy_basis(ctx, gens, order))}",')
