"""Differential tests of `free_resolution` on the one Groebner engine
against the separate module engine it replaced and against the minimized
tower it built before, both of which `oracles.py` keeps.

The ring kernel runs module elements in the flat encoding a + (c, r-1-c),
reduces only the minimal pairs of each stage family and interreduces no
stage after the first.  The old engine works on (exponents, component)
terms with monic reducers, a record for every pair and reduced stage
families.  The leads of the records of the minimal pairs depend only on
the leads of the stage before, so both frames have the same leads at
every stage, hence the same ranks and shifts; the first families agree
term by term and each record of the first stage is one of the old ones.
The Betti numbers read off the frame must be the ranks of the minimized
tower.  The minimization on term dicts is also checked against the
`Polynomial` one it replaced on hand-built towers, and `syzygies`, which
prunes through it, against the pass that dropped one generator at a time
while the rest still spanned it.
"""

import dataclasses
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from diffrees import groebner, resolution
from diffrees.groebner import (IdealHandle, StepCounter, _buchberger,
                               _Monomials)
from diffrees.matrix import PolyMatrix
from diffrees.poly import DEGREVLEX, Polynomial, VariableContext
from diffrees.rees import rees_ideal
from diffrees.resolution import depth_and_cm, free_resolution
from diffrees.sampler import random_graded_ci
from oracles import ModulePresentation, presentation_of_ideal

from conftest import (P, REES_RANDOM_CI_SHAPES, column_span_checker,
                      homogeneous_ideals, shipped_algebras)

def _recorded_calls(handle):
    """`free_resolution` of `handle`, with the arguments and the result of
    each `_schreyer_records` call, as (lms, basis, mons, following,
    leads, records)."""
    calls = []
    schreyer_records = resolution._schreyer_records

    def recording(lms, basis, mons, following, counter):
        leads, records = schreyer_records(lms, basis, mons, following,
                                          counter)
        calls.append((lms, basis, mons, following, leads, records))
        return leads, records

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_schreyer_records", recording)
        res = free_resolution(handle)
    return res, calls


def _recorded_stages(handle):
    """`free_resolution` of `handle`, with each stage family, its key and
    its Schreyer records, the families and records as flat elements in
    monic coordinates."""
    res, calls = _recorded_calls(handle)
    return res, [(_monic(lms, basis, mons), mons.key,
                  _monic(leads, records, following))
                 for lms, basis, mons, following, leads, records in calls]


def _monic(lms, elements, mons):
    """Packed content-free elements with leads `lms`, each over its
    leading coefficient, as flat {term: Fraction} elements."""
    return [{mons.unpack(t): Fraction(c, el[lm]) for t, c in el.items()}
            for lm, el in zip(lms, elements)]


def _module_basis(pres, key):
    """The monic reduced basis `_buchberger` builds under `key` from the
    columns of `pres`, a presentation of rank one, as flat elements."""
    return oracles.monic_basis(_buchberger(
        oracles.columns_to_elements(pres, 1),
        _Monomials(key, pres.context.arity + 2), StepCounter()))[1]


def _flat(element, rank):
    """An old-engine element in the flat encoding of rank `rank`."""
    return {e + (c, rank - 1 - c): a for (e, c), a in element.items()}


def assert_matches_module_engine(handle):
    """Every stage of the frame leads like the old engine's, the first
    family is the old engine's and each record of its minimal pairs is one
    of the old engine's records; the frame's ranks and shifts are the old
    engine's before minimization and its Betti numbers the ranks after,
    where the moved minimization gives the old tower exactly."""
    pres = presentation_of_ideal(handle)
    ctx = pres.context
    n = ctx.arity
    res, stages = _recorded_stages(handle)
    old = oracles.module_resolution_stages(pres)
    assert len(stages) == len(old)
    rank = pres.target_rank
    shifts = [tuple(pres.shifts)]
    for (family, key, _), (old_family, _) in zip(stages, old):
        old_family = [_flat(el, rank) for el in old_family]
        assert ([max(el, key=key) for el in family]
                == [max(el, key=key) for el in old_family])
        shifts.append(tuple(ctx.weighted_degree(t) + shifts[-1][t[n]]
                            for t in map(next, map(iter, old_family))))
        rank = len(family)
    if stages:
        (family, _, records), (old_family, old_records) = stages[0], old[0]
        assert family == [_flat(el, pres.target_rank) for el in old_family]
        assert all({(t[:n], t[n]): c for t, c in rec.items()}
                   in old_records for rec in records)
    assert res.ranks == tuple(map(len, shifts))
    assert res.shifts == tuple(shifts)
    ranks, differentials, minimal_shifts = oracles.module_free_resolution(
        pres)
    assert res.betti == ranks
    minimized = oracles.minimized_free_resolution(pres)
    assert minimized.ranks == ranks
    assert minimized.shifts == minimal_shifts
    assert (tuple(m.entries for m in minimized.differentials)
            == differentials)
    return res


def assert_stage_one_is_the_module_basis(handle):
    """The cached reduced degrevlex basis, as stage one, is the reduced
    basis `_buchberger` builds from the generators under
    position-over-term, which lists it by increasing lead."""
    family = _module_basis(presentation_of_ideal(handle), oracles.int_keyed(
        oracles.position_key(handle.context)))
    _, stages = _recorded_stages(handle)
    assert (stages[0][0] if stages else []) == family[::-1]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)))
def test_resolutions_match_module_engine(drawn):
    ctx, gens = drawn
    handle = IdealHandle(ctx, gens)
    if handle.is_unit():
        return
    assert_matches_module_engine(handle)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)))
def test_betti_numbers_match_the_minimized_tower(drawn):
    """The Betti numbers and pd read off the frame, directly and through
    `depth_and_cm`, against the ranks of the minimized tower; every Betti
    number is >= 0 and beta_0 = 1 for a proper ideal."""
    ctx, gens = drawn
    handle = IdealHandle(ctx, gens)
    res = free_resolution(handle)
    minimized = oracles.minimized_free_resolution(
        presentation_of_ideal(handle))
    assert res.betti == minimized.ranks
    assert res.pd == minimized.pd
    assert min(res.betti) >= 0
    if handle.is_unit():
        return
    assert res.betti[0] == 1
    assert depth_and_cm(handle).projective_dimension == minimized.pd


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)))
def test_stage_one_from_the_cached_basis(drawn):
    ctx, gens = drawn
    handle = IdealHandle(ctx, gens)
    if not handle.is_unit():
        assert_stage_one_is_the_module_basis(handle)


def _negative_betti():
    resolution._betti_numbers([1, 1], [2])


def _beta_zero_of_two():
    ctx = VariableContext(("X", "Y"))
    X, Y = ctx.gens()
    real = resolution.free_resolution

    def doubled(handle):
        res = real(handle)
        return dataclasses.replace(res, betti=(2,) + res.betti[1:])

    resolution.free_resolution = doubled
    depth_and_cm(IdealHandle(ctx, [X * Y]))


@pytest.mark.parametrize("check,message", [
    ("_negative_betti", "negative Betti number in [-1, -1]"),
    ("_beta_zero_of_two", "a proper ideal has beta_0 = 1, got 2")],
    ids=["negative", "beta-0"])
def test_betti_checks_raise_under_O(check, message):
    """A frame whose constant ranks exceed its ranks, and a proper ideal
    whose beta_0 is not 1, raise explicitly, so with asserts stripped."""
    done = _run_under_O(f"t.{check}()\n")
    assert done.returncode == 1
    assert f"AssertionError: {message}" in done.stderr


def test_schreyer_example_matches_module_engine():
    """Four stages, three of them under iterated Schreyer keys."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    gens = [P(ctx, "X^2 - Y*W"), P(ctx, "X*Y - Z^2"),
            P(ctx, "Y^2 - X*Z + W^2"), P(ctx, "X*W")]
    res = assert_matches_module_engine(IdealHandle(ctx, gens))
    assert res.betti == (1, 4, 6, 4, 1)


def test_rees_resolutions_match_module_engine(cases_dir):
    """The resolutions behind every Cohen-Macaulay verdict of the shipped
    cases and of the random-ci draws that finish, each with the stage one
    that the saturation's cached basis gives."""
    deepest = 0
    algebras = shipped_algebras(cases_dir)
    assert len(algebras) == 7
    algebras += [random_graded_ci(random.Random(seed), n, d,
                                  max_degree=deg)
                 for n, d, deg, seed in REES_RANDOM_CI_SHAPES]
    for algebra in algebras:
        assert algebra.is_reduced()
        handle = rees_ideal(algebra).ideal
        assert_stage_one_is_the_module_basis(handle)
        res = assert_matches_module_engine(handle)
        deepest = max(deepest, res.pd)
    assert deepest == 6


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)))
def test_records_of_a_reduced_basis_match_module_engine(drawn):
    """The records of the minimal pairs of a reduced basis are syzygies of
    it, each one the old engine's record of the same pair."""
    ctx, gens = drawn
    n = ctx.arity
    pres = presentation_of_ideal(IdealHandle(ctx, gens))
    key = oracles.int_keyed(oracles.position_key(ctx))
    family = _module_basis(pres, key)
    records = oracles.schreyer_syzygies(family, key, StepCounter(), n)
    old_key = oracles.pot_key(oracles.flat_key_for(DEGREVLEX, ctx))
    columns = [{(t[:n], 0): c for t, c in el.items()} for el in family]
    _, _, old_records, added = oracles.module_buchberger(
        columns, old_key, ctx.weighted_degree, StepCounter())
    assert not added
    for rec in records:
        assert {(q[:n], q[n]): c for q, c in rec.items()} in old_records
        total = {}
        for q, c in rec.items():
            for t, a in family[q[n]].items():
                e = tuple(map(add, t[:n], q[:n]))
                total[e] = total.get(e, 0) + c * a
        assert not any(total.values())


def test_records_need_a_basis():
    """A family that is not a basis has a pair with a nonzero remainder:
    X^2 + Y^2 and X*Y leave Y^3."""
    ctx = VariableContext(("X", "Y"))
    mons = _Monomials(oracles.int_keyed(oracles.position_key(ctx)), 4)
    x2, y2, xy = map(mons.pack, [(2, 0, 0, 0), (0, 2, 0, 0), (1, 1, 0, 0)])
    with pytest.raises(AssertionError, match="already be a basis"):
        resolution._schreyer_records([x2, xy], [{x2: 1, y2: 1}, {xy: 1}],
                                     mons, _Monomials(None, 4),
                                     StepCounter())


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)))
def test_frame_stays_packed(drawn):
    """Stage one is the handle's packed basis two 32-bit fields up, with
    the ring's negated keys; every key the records write for the next
    stage is the negated `_stage_key` of the unpacked term, with offsets
    (key(lm_j) << 64) - j from the leads; every record is content-free
    and leads with q_i e_i, q_i = lcm(lm_i, lm_j) / lm_i for a later
    lm_j of its component, with a positive coefficient."""
    ctx, gens = drawn
    n = ctx.arity
    handle = IdealHandle(ctx, gens)
    _, calls = _recorded_calls(handle)
    ring, ring_lms, ring_basis, _ = handle._reduced()
    lms, basis, mons = calls[0][:3]
    assert list(lms) == [lm << 64 for lm in reversed(ring_lms)]
    assert list(basis) == [{m << 64: c for m, c in g.items()}
                           for g in reversed(ring_basis)]
    assert all(mons[m << 64] == ring[m] for g in ring_basis for m in g)
    ring_key = DEGREVLEX.key_for(ctx)
    for stage, (lms, _, mons, following, leads, records) in enumerate(
            calls, 1):
        offsets = [(mons.key(mons.unpack(lm)) << 64) - j
                   for j, lm in enumerate(lms)]
        key = resolution._stage_key(ring_key, offsets, n, stage)
        guard, field = mons.guard, groebner._FIELD
        for lead, record in zip(leads, records):
            assert all(following[t] == -key(following.unpack(t))
                       for t in record)
            assert math.gcd(*record.values()) == 1
            assert record[lead] > 0
            assert lead == min(record, key=following.__getitem__)
            i = (lead >> 32) & field
            assert lead & field == len(lms) - 1 - i
            q = (lead >> 64) << 64
            assert any(lms[j] & field == lms[i] & field
                       and groebner._lcm(lms[i], lms[j], guard)
                       == q + lms[i] for j in range(i + 1, len(lms)))


def assert_matches_minimal_generators(pres):
    """`syzygies` against the old minimal-generator pass over syzygy
    generators from the module engine: both annihilate the columns, have
    as many columns of each degree, and each lies in the other's span."""
    ctx, m = pres.context, pres.matrix.ncols
    syz = oracles.syzygies(pres)
    assert (pres.matrix @ syz.matrix).is_zero()
    minimal = oracles.minimal_generators(oracles.syzygy_generators(pres),
                                         ctx, m)
    ref = ModulePresentation(ctx, m, oracles.columns_to_matrix(
        ctx, oracles.elements_to_columns(minimal, ctx.arity), range(m)),
        shifts=syz.shifts)
    assert (Counter(oracles.column_degrees(syz))
            == Counter(oracles.column_degrees(ref)))
    for spanning, spanned in ((syz, ref), (ref, syz)):
        contains = column_span_checker(spanning.matrix, spanning.shifts)
        assert all(contains(oracles.column(spanned.matrix, j))
                   for j in range(spanned.matrix.ncols))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)))
def test_syzygies_match_minimal_generators(drawn):
    ctx, gens = drawn
    assert_matches_minimal_generators(
        presentation_of_ideal(IdealHandle(ctx, gens)))


# Presentations as rows of polynomial strings in X, Y, Z, W.
FIXED_PRESENTATIONS = {
    "twisted-cubic": [["X*Z - Y^2", "X*W - Y*Z", "Y*W - Z^2"]],
    "rank-2-catalecticant": [["X", "Y", "Z"], ["Y", "Z", "W"]],
    "zero-and-repeated-columns": [["X", "0", "X"], ["Y", "0", "Y"]],
}


@pytest.mark.parametrize("rows", FIXED_PRESENTATIONS.values(),
                         ids=FIXED_PRESENTATIONS)
def test_fixed_syzygies_match_minimal_generators(rows):
    """The twisted cubic's elimination basis has three elements with one
    constant relation among them, so only the cancellation makes it
    minimal."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    matrix = PolyMatrix(ctx, tuple(tuple(P(ctx, v) for v in row)
                                   for row in rows))
    assert_matches_minimal_generators(
        ModulePresentation(ctx, len(rows), matrix))


# Non-minimal towers for `oracles.minimize_columns`, as (differentials,
# shifts): each
# differential a list of rows of polynomial strings in X, Y.
#
# The generators X, Y, X + Y, X*Y of (X, Y) with all four of their
# relations: units cancel in stages 1 and 2, and F_3 splits off.
REDUNDANT = ([[["X", "Y", "X + Y", "X*Y"]],
              [["1", "Y", "0", "Y"],
               ["1", "0", "X", "-X"],
               ["-1", "0", "0", "0"],
               ["0", "-1", "-1", "0"]],
              [["0"], ["1"], ["-1"], ["-1"]]],
             [[0], [1, 1, 1, 2], [1, 2, 2, 2], [2]])
# The Koszul complex of X, Y plus the exact tail
# 0 -> R(-4) -> R(-3) + R(-4) -> R(-3): F_3 and F_4 split off whole.
SPLIT_TAIL = ([[["X", "Y"]],
               [["Y", "0"], ["-X", "0"]],
               [["0", "0"], ["1", "0"]],
               [["0"], ["1"]]],
              [[0], [1, 1], [2, 3], [3, 4], [4]])


def _tower(spec, flip=None):
    """The tower as oracle matrices (rows of Polynomials), shift lists and
    `minimize_columns` stages; `flip` = (stage, row, column) negates one
    entry."""
    ctx = VariableContext(("X", "Y"))
    mats = [[[P(ctx, text) for text in row] for row in m] for m in spec[0]]
    if flip is not None:
        k, r, c = flip
        mats[k][r][c] = -mats[k][r][c]
    stages = [{c: {r: dict(row[c].terms) for r, row in enumerate(m)
                   if not row[c].is_zero}
               for c in range(len(m[0]))} for m in mats]
    return ctx, mats, [list(s) for s in spec[1]], stages


def _corrupted_minimize(flip):
    _, _, shifts, stages = _tower(REDUNDANT, flip)
    oracles.minimize_columns(stages, [dict(enumerate(s)) for s in shifts])


@pytest.mark.parametrize("spec,ranks", [(REDUNDANT, (1, 2, 1)),
                                        (SPLIT_TAIL, (1, 2, 1))],
                         ids=["redundant-generators", "split-tail"])
def test_minimize_matches_the_oracle(spec, ranks):
    ctx, mats, shifts, stages = _tower(spec)
    table = [dict(enumerate(s)) for s in shifts]
    oracles.minimize_columns(stages, table)
    oracles.minimize_matrices(mats, shifts)
    got = [[[Polynomial._make(ctx, cols[c].get(r, {}))
             for c in table[k + 1]] for r in table[k]]
           for k, cols in enumerate(stages)]
    assert got == mats
    assert [list(s.values()) for s in table] == shifts
    assert tuple(len(s) for s in shifts) == ranks


@pytest.mark.parametrize("flip,message", [
    ((2, 1, 0), "cancelled row must vanish"),
    ((0, 0, 1), "cancelled column must vanish")], ids=["next", "previous"])
def test_minimize_rejects_a_corrupted_tower_under_O(flip, message):
    """One sign flipped next to the first unit breaks d^2 = 0; the check
    raises explicitly, so it holds with asserts stripped."""
    done = _run_under_O(f"t._corrupted_minimize({flip!r})\n")
    assert done.returncode == 1
    assert f"AssertionError: {message}" in done.stderr


def _run_under_O(call):
    """Run `call` on this module, imported as t, under `python -O`."""
    tests = Path(__file__).parent
    src = Path(resolution.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(tests), os.environ.get("PYTHONPATH", "")]))
    script = ("import sys, test_resolution_differential as t\n"
              "assert False, 'asserts must be stripped'\n" + call)
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
