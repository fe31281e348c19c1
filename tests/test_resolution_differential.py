"""Differential tests of `free_resolution` on the one Groebner engine
against the module engine of `oracles.py`.

The ring kernel runs module elements in the flat encoding a + (c, r-1-c),
reduces only the minimal pairs of each stage family and interreduces no
stage after the first.  It resolves the section: the reduced basis with
the trailing variables that divide no lead set to 0 (`oracles.section_of`),
which has the ideal's leads.  The module engine runs on the same flat
terms with monic reducers, a record for every pair and reduced stage
families.  The leads of the records of the minimal pairs depend only on
the leads of the stage before, so the frame has the engine's leads on
the ideal at every stage, hence its ranks and shifts; the first family
agrees term by term with the engine's on the section, and each record of
the first stage is one of the engine's records there.  The Betti numbers
read off the frame must be the ranks of the tower the engine minimizes
from the ideal.  The minimization is also checked on hand-built towers,
and the minimal syzygies of `oracles.syzygies` against the Betti numbers.
"""

import dataclasses
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from diffrees import groebner, resolution
from diffrees.algebra import GradedAlgebra
from diffrees.eagon_northcott import FreeComplex
from diffrees.groebner import (IdealHandle, StepCounter, _buchberger,
                               _Monomials)
from diffrees.matrix import PolyMatrix
from diffrees.poly import DEGREVLEX, VariableContext
from diffrees.rees import rees_ideal
from diffrees.resolution import depth_and_cm, free_resolution
from diffrees.sampler import random_graded_ci
from oracles import ModulePresentation, presentation_of_ideal

from conftest import (P, REES_RANDOM_CI_SHAPES, homogeneous_ideals,
                      shipped_algebras, shipped_case_files)

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


def _library_records(family, key, n):
    """`groebner._schreyer_records` of the flat monic `family`, a basis
    under the int key `key`, unpacked in monic coordinates."""
    mons, following = _Monomials(key, n + 2), _Monomials(None, n + 2)
    lms, basis = [], []
    for el in family:
        scale = math.lcm(*(c.denominator for c in el.values()))
        lm, ints = groebner._primitive({mons.pack(t): int(c * scale)
                                        for t, c in el.items()}, mons)
        lms.append(lm)
        basis.append(ints)
    return _monic(*groebner._schreyer_records(lms, basis, mons, following,
                                              StepCounter()), following)


def assert_matches_module_engine(handle):
    """Every stage of the frame leads like the module engine's on the
    ideal, the first family is the engine's on the section and each
    record of its minimal pairs is one of the engine's records there; the
    frame's ranks and shifts are the engine's on the ideal before
    minimization and its Betti numbers the ranks after.  With no variable
    cut the section is the ideal, so the first stage is compared in
    full."""
    pres = presentation_of_ideal(handle)
    ctx = pres.context
    n = ctx.arity
    res, stages = _recorded_stages(handle)
    old = oracles.module_resolution_stages(pres)
    assert len(stages) == len(old)
    shifts = [tuple(pres.shifts)]
    for (family, key, _), (old_family, _) in zip(stages, old):
        assert ([max(el, key=key) for el in family]
                == [max(el, key=key) for el in old_family])
        shifts.append(tuple(ctx.weighted_degree(t) + shifts[-1][t[n]]
                            for t in map(next, map(iter, old_family))))
    cut, section = oracles.section_of(handle)
    if stages:
        section_old = old if not cut else oracles.module_resolution_stages(
            presentation_of_ideal(section))
        (family, _, records), (old_family, old_records) = (stages[0],
                                                           section_old[0])
        assert family == old_family
        assert all(rec in old_records for rec in records)
    assert res.ranks == tuple(map(len, shifts))
    assert res.shifts == tuple(shifts)
    assert res.betti == oracles.minimized_free_resolution(pres).ranks
    return res


def assert_stage_one_is_the_module_basis(handle):
    """Stage one, the cached reduced degrevlex basis with the cut
    variables set to 0, is the reduced basis `_buchberger` builds from the
    section's generators under position-over-term, which lists it by
    increasing lead."""
    section = oracles.section_of(handle)[1]
    family = _module_basis(presentation_of_ideal(section), oracles.int_keyed(
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
    cuts = []
    for algebra in algebras:
        assert algebra.is_reduced()
        handle = rees_ideal(algebra).ideal
        assert_stage_one_is_the_module_basis(handle)
        res = assert_matches_module_engine(handle)
        deepest = max(deepest, res.pd)
        cuts.append(oracles.section_of(handle)[0])
    assert deepest == 6
    assert tuple(cuts[7:]) == RANDOM_CI_CUTS


def _frame_cut(handle):
    """`free_resolution` of `handle` and the number of trailing variables
    in no term of its stage one, the variables it set to 0; None when the
    frame has no stage."""
    res, calls = _recorded_calls(handle)
    if not calls:
        return res, None
    n = handle.context.arity
    _, basis, mons = calls[0][:3]
    terms = [mons.unpack(t)[:n] for g in basis for t in g]
    cut = 0
    while cut < n and not any(e[n - 1 - cut] for e in terms):
        cut += 1
    return res, cut


FIVE = ("X1", "X2", "X3", "X4", "X5")


@pytest.mark.parametrize("names,gens,cut,ranks,betti", [
    (FIVE, [], None, (1,), (1,)),
    (FIVE, ["1"], 5, (1, 1), (0,)),
    (FIVE, ["X1"], 4, (1, 1), (1, 1)),
    (("X", "Y", "Z"), ["X", "Y", "Z"], 0, (1, 3, 3, 1), (1, 3, 3, 1))],
    ids=["zero", "unit", "first-variable", "maximal"])
def test_section_edge_cases(names, gens, cut, ranks, betti):
    """The zero ideal has no stage to cut; no variable divides the unit
    ideal's lead 1, so all are cut; (X1) cuts X2 to X5; the maximal ideal
    has every variable as a lead, so nothing is cut.  The Betti numbers
    are the minimized tower's of the uncut ideal."""
    ctx = VariableContext(names)
    handle = IdealHandle(ctx, [P(ctx, g) for g in gens])
    res, frame_cut = _frame_cut(handle)
    assert frame_cut == cut
    assert oracles.section_of(handle)[0] == (len(names) if cut is None
                                             else cut)
    assert (res.ranks, res.betti) == (ranks, betti)
    assert res.betti == oracles.minimized_free_resolution(
        presentation_of_ideal(handle)).ranks


# Variables cut from the Rees ideal of each shipped case and of the
# random-ci draws of REES_RANDOM_CI_SHAPES, in that order.
SHIPPED_CUTS = {"coordinate-cross": 0, "curve-probe": 1,
                "diagonal-quadrics-curve": 1, "fermat-cubic": 2,
                "four-point-cone": 2, "quadric-cone": 2,
                "quadric-surface": 3}
RANDOM_CI_CUTS = (3, 3, 4, 4, 2, 2, 2, 3)


def test_section_cuts_of_shipped_cases(cases_dir):
    """The frame of each shipped Rees ideal cuts exactly the trailing
    variables that divide no lead, as `oracles.section_of` counts them."""
    cuts = {}
    for case in shipped_case_files(cases_dir):
        handle = rees_ideal(GradedAlgebra.validate(
            case.context, case.relations)).ideal
        cuts[case.name] = _frame_cut(handle)[1]
        assert cuts[case.name] == oracles.section_of(handle)[0]
    assert cuts == SHIPPED_CUTS


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)))
def test_records_of_a_reduced_basis_match_module_engine(drawn):
    """The records of the minimal pairs of a reduced basis are syzygies of
    it, each one the module engine's record of the same pair."""
    ctx, gens = drawn
    n = ctx.arity
    pres = presentation_of_ideal(IdealHandle(ctx, gens))
    key = oracles.position_key(ctx)
    family = _module_basis(pres, oracles.int_keyed(key))
    records = _library_records(family, oracles.int_keyed(key), n)
    _, _, old_records, added = oracles.module_buchberger(
        family, key, ctx.weighted_degree, StepCounter())
    assert not added
    for rec in records:
        assert rec in old_records
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
    """Stage one has the handle's packed leads and is the section's packed
    basis two 32-bit fields up, with the ring's negated keys, which with
    no variable cut is the handle's basis int for int; every key the
    records write for the next stage is the negated `_stage_key` of the
    unpacked term, with offsets (key(lm_j) << 64) - j from the leads;
    every record is content-free and leads with q_i e_i,
    q_i = lcm(lm_i, lm_j) / lm_i for a later lm_j of its component, with
    a positive coefficient."""
    ctx, gens = drawn
    n = ctx.arity
    handle = IdealHandle(ctx, gens)
    _, calls = _recorded_calls(handle)
    ring_lms = handle._reduced()[1]
    ring, section_lms, section_basis, _ = oracles.section_of(
        handle)[1]._reduced()
    lms, basis, mons = calls[0][:3]
    assert list(lms) == [lm << 64 for lm in reversed(ring_lms)]
    assert section_lms == ring_lms
    assert list(basis) == [{m << 64: c for m, c in g.items()}
                           for g in reversed(section_basis)]
    assert all(mons[m << 64] == ring[m] for g in section_basis for m in g)
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


def assert_minimal_syzygies(pres):
    """`oracles.syzygies` annihilates the columns, spans every syzygy
    generator, and none of its columns lies in the span of the others,
    so it generates minimally (graded Nakayama)."""
    ctx, m = pres.context, pres.matrix.ncols
    syz = oracles.syzygies(pres)
    assert (pres.matrix @ syz.matrix).is_zero()
    key, wdeg = oracles.position_key(ctx), ctx.weighted_degree
    found = oracles.columns_to_elements(syz, m)
    inside = oracles.spans(found, key, wdeg)
    assert all(map(inside, oracles.syzygy_generators(pres)))
    for j, element in enumerate(found):
        assert not oracles.spans(found[:j] + found[j + 1:], key, wdeg)(
            element)
    return syz


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)))
def test_syzygies_match_minimal_generators(drawn):
    """The minimal syzygies of k generators of a proper ideal I number
    k - beta_1 + beta_2 by the Betti numbers of S/I that the frame gives:
    the minimal ones, and one for each generator the others span."""
    ctx, gens = drawn
    handle = IdealHandle(ctx, gens)
    syz = assert_minimal_syzygies(presentation_of_ideal(handle))
    if not handle.is_unit():
        betti = free_resolution(handle).betti + (0, 0)
        assert syz.matrix.ncols == len(gens) - betti[1] + betti[2]


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
    assert_minimal_syzygies(ModulePresentation(ctx, len(rows), matrix))


# Non-minimal towers for `oracles.minimize_matrices`, as (differentials,
# shifts): each differential a list of rows of polynomial strings in X, Y.
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
    """The tower as matrices (rows of Polynomials) and shift lists;
    `flip` = (stage, row, column) negates one entry."""
    ctx = VariableContext(("X", "Y"))
    mats = [[[P(ctx, text) for text in row] for row in m] for m in spec[0]]
    if flip is not None:
        k, r, c = flip
        mats[k][r][c] = -mats[k][r][c]
    return ctx, mats, [list(s) for s in spec[1]]


def _corrupted_minimize(flip):
    _, mats, shifts = _tower(REDUNDANT, flip)
    oracles.minimize_matrices(mats, shifts)


@pytest.mark.parametrize("spec,ranks", [(REDUNDANT, (1, 2, 1)),
                                        (SPLIT_TAIL, (1, 2, 1))],
                         ids=["redundant-generators", "split-tail"])
def test_minimize_matches_the_oracle(spec, ranks):
    """The oracle's minimization cancels every unit of a hand-built
    tower: what is left is a complex of the expected ranks whose entries
    are nonconstant and homogeneous for its shifts."""
    ctx, mats, shifts = _tower(spec)
    oracles.minimize_matrices(mats, shifts)
    assert tuple(map(len, shifts)) == ranks
    assert FreeComplex(ranks, tuple(PolyMatrix(ctx, tuple(map(tuple, m)))
                                    for m in mats)).is_complex()
    for k, m in enumerate(mats):
        for r, row in enumerate(m):
            for c, p in enumerate(row):
                assert p.is_zero or p.weighted_degree_info() == (
                    True, shifts[k + 1][c] - shifts[k][r]) != (True, 0)


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
