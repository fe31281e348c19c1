"""Differential tests of `free_resolution` on the one Groebner engine
against the separate module engine it replaced, which `oracles.py` keeps.

The ring kernel runs module elements in the flat encoding a + (c, r-1-c)
and reduces only the minimal pairs of each stage family.  The old engine
works on (exponents, component) terms with monic reducers and a record
for every pair.  Both must give the same family at every stage, each new
record must be one of the old ones, and the minimized differentials,
shifts and ranks must agree.  `_minimize` on term dicts is also checked
against the `Polynomial` one it replaced on hand-built towers, and
`syzygies`, which prunes through it, against the pass that dropped one
generator at a time while the rest still spanned it.
"""

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
from diffrees import resolution
from diffrees.groebner import IdealHandle, StepCounter
from diffrees.matrix import PolyMatrix
from diffrees.poly import DEGREVLEX, Polynomial, VariableContext
from diffrees.rees import rees_ideal
from diffrees.resolution import (ModulePresentation, free_resolution,
                                 presentation_of_ideal, syzygies)
from diffrees.sampler import random_graded_ci

from conftest import (P, REES_RANDOM_CI_SHAPES, column_span_checker,
                      homogeneous_ideals, shipped_algebras)

def _recorded_stages(pres):
    """`free_resolution` of `pres`, with each stage family and its Schreyer
    records translated to (exponents, component) terms."""
    n = pres.context.arity
    stages = []
    schreyer_records = resolution._schreyer_records

    def recording(family, key, counter):
        records = schreyer_records(family, key, counter)
        stages.append(([{(t[:n], t[n]): c for t, c in el.items()}
                        for el in family],
                       [{(q[:n], k): c for (k, q), c in rec.items()}
                        for rec in records]))
        return records

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_schreyer_records", recording)
        res = free_resolution(pres)
    return res, stages


def assert_matches_module_engine(pres):
    """Every stage family is the old engine's, every record of a minimal
    pair is one of the old engine's records of that stage, and the
    minimized tower is the old engine's."""
    res, stages = _recorded_stages(pres)
    old = oracles.module_resolution_stages(pres)
    assert [family for family, _ in stages] == [family for family, _ in old]
    for (_, records), (_, old_records) in zip(stages, old):
        assert all(rec in old_records for rec in records)
    ranks, differentials, shifts = oracles.module_free_resolution(pres)
    assert res.ranks == ranks
    assert res.shifts == shifts
    assert tuple(m.entries for m in res.differentials) == differentials
    return res


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans().flatmap(lambda w: homogeneous_ideals(weighted=w)))
def test_resolutions_match_module_engine(drawn):
    ctx, gens = drawn
    handle = IdealHandle(ctx, gens)
    if handle.is_unit():
        return
    assert_matches_module_engine(presentation_of_ideal(handle))


def test_schreyer_example_matches_module_engine():
    """Four stages, three of them under iterated Schreyer keys."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    gens = [P(ctx, "X^2 - Y*W"), P(ctx, "X*Y - Z^2"),
            P(ctx, "Y^2 - X*Z + W^2"), P(ctx, "X*W")]
    pres = presentation_of_ideal(IdealHandle(ctx, gens))
    res = assert_matches_module_engine(pres)
    assert res.ranks == (1, 4, 6, 4, 1)


def test_rees_resolutions_match_module_engine(cases_dir):
    """The resolutions behind every Cohen-Macaulay verdict of the shipped
    cases and of the random-ci draws that finish."""
    deepest = 0
    algebras = shipped_algebras(cases_dir)
    assert len(algebras) == 7
    algebras += [random_graded_ci(random.Random(seed), n, d,
                                  max_degree=deg)
                 for n, d, deg, seed in REES_RANDOM_CI_SHAPES]
    for algebra in algebras:
        assert algebra.is_reduced()
        pres = presentation_of_ideal(rees_ideal(algebra).ideal)
        res = assert_matches_module_engine(pres)
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
    key = resolution._position_key(ctx)
    basis, lms = resolution._buchberger(
        resolution._columns_to_elements(pres, 1), key, ctx.weighted_degree,
        StepCounter(), 1)
    _, family = resolution._interreduce(basis, lms, key, StepCounter())
    records = resolution._schreyer_records(family, key, StepCounter())
    old_key = oracles.pot_key(DEGREVLEX.key_for(ctx))
    columns = [{(t[:n], 0): c for t, c in el.items()} for el in family]
    _, _, old_records, added = oracles.module_buchberger(
        columns, old_key, ctx.weighted_degree, StepCounter())
    assert not added
    for rec in records:
        assert {(q[:n], k): c for (k, q), c in rec.items()} in old_records
        total = {}
        for (k, q), c in rec.items():
            for t, a in family[k].items():
                e = tuple(map(add, t[:n], q[:n]))
                total[e] = total.get(e, 0) + c * a
        assert not any(total.values())


def test_records_need_a_basis():
    """A family that is not a basis has a pair with a nonzero remainder:
    X^2 + Y^2 and X*Y leave Y^3."""
    ctx = VariableContext(("X", "Y"))
    key = resolution._position_key(ctx)
    family = [{(2, 0, 0, 0): Fraction(1), (0, 2, 0, 0): Fraction(1)},
              {(1, 1, 0, 0): Fraction(1)}]
    with pytest.raises(AssertionError, match="already be a basis"):
        resolution._schreyer_records(family, key, StepCounter())


def assert_matches_minimal_generators(pres):
    """`syzygies` against the old minimal-generator pass over syzygy
    generators from the module engine: both annihilate the columns, have
    as many columns of each degree, and each lies in the other's span."""
    ctx, m = pres.context, pres.matrix.ncols
    syz = syzygies(pres)
    assert (pres.matrix @ syz.matrix).is_zero()
    minimal = oracles.minimal_generators(oracles.syzygy_generators(pres),
                                         ctx, m)
    ref = ModulePresentation(ctx, m, resolution._to_matrix(
        ctx, resolution._elements_to_columns(minimal, ctx.arity), range(m)),
        shifts=syz.shifts)
    assert Counter(syz.column_degrees()) == Counter(ref.column_degrees())
    for spanning, spanned in ((syz, ref), (ref, syz)):
        contains = column_span_checker(spanning.matrix, spanning.shifts)
        assert all(map(contains, spanned.matrix.columns()))


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


# Non-minimal towers for `_minimize`, as (differentials, shifts): each
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
    `_minimize` stages; `flip` = (stage, row, column) negates one entry."""
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
    resolution._minimize(stages, [dict(enumerate(s)) for s in shifts])


@pytest.mark.parametrize("spec,ranks", [(REDUNDANT, (1, 2, 1)),
                                        (SPLIT_TAIL, (1, 2, 1))],
                         ids=["redundant-generators", "split-tail"])
def test_minimize_matches_the_oracle(spec, ranks):
    ctx, mats, shifts, stages = _tower(spec)
    table = [dict(enumerate(s)) for s in shifts]
    resolution._minimize(stages, table)
    oracles._minimize(mats, shifts)
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
    tests = Path(__file__).parent
    src = Path(resolution.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(tests), os.environ.get("PYTHONPATH", "")]))
    script = ("import sys, test_resolution_differential as t\n"
              "assert False, 'asserts must be stripped'\n"
              f"t._corrupted_minimize({flip!r})\n")
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert f"AssertionError: {message}" in done.stderr
