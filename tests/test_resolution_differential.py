"""Differential tests of `free_resolution` on the one Groebner engine
against the separate module engine it replaced, which `oracles.py` keeps.

The ring kernel runs module elements in the flat encoding a + (c, r-1-c)
and takes its stage records from the same pair loop as ring bases.  The
old engine works on (exponents, component) terms with monic reducers.
Both must give the same family and the same reduction records at every
stage, and the same minimized differentials, shifts and ranks.
"""

import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from diffrees import resolution
from diffrees.groebner import IdealHandle, StepCounter
from diffrees.poly import DEGREVLEX, VariableContext
from diffrees.rees import rees_ideal
from diffrees.resolution import free_resolution, presentation_of_ideal
from diffrees.sampler import random_graded_ci

from conftest import (P, REES_RANDOM_CI_SHAPES, homogeneous_ideals,
                      shipped_algebras)

def _recorded_stages(pres):
    """`free_resolution` of `pres`, with each stage family and the records
    of its rerun translated to (exponents, component) terms."""
    n = pres.context.arity
    stages = []
    buchberger = resolution._buchberger

    def recording(generators, key, wdeg, counter, rank=1, records=None):
        out = buchberger(generators, key, wdeg, counter, rank, records)
        if records is not None:
            family = [{(t[:n], t[n]): c for t, c in el.items()}
                      for el in generators]
            syz = [{(q[:n], k): c for (k, q), c in rec.items()}
                   for rec in records if rec]
            stages.append((family, syz))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_buchberger", recording)
        res = free_resolution(pres)
    return res, stages


def assert_matches_module_engine(pres):
    res, stages = _recorded_stages(pres)
    assert stages == oracles.module_resolution_stages(pres)
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
def test_records_of_a_growing_basis_match_module_engine(drawn):
    """Generators that are not yet a basis: records that add a new element
    carry its coefficient, and every record is a syzygy of the basis."""
    ctx, gens = drawn
    n = ctx.arity
    pres = presentation_of_ideal(IdealHandle(ctx, gens))
    key = resolution._position_key(ctx)
    records = []
    basis, lms = resolution._buchberger(
        resolution._columns_to_elements(pres, 1), key, ctx.weighted_degree,
        StepCounter(), 1, records)
    old_key = oracles.pot_key(DEGREVLEX.key_for(ctx))
    columns = [{(e, 0): c for e, c in g.terms} for g in pres.matrix.row(0)]
    old_gens, _, old_records, _ = oracles.module_buchberger(
        columns, old_key, ctx.weighted_degree, StepCounter())
    assert len(basis) == len(old_gens)
    assert ([{(q[:n], k): c for (k, q), c in rec.items()} for rec in records]
            == old_records)
    monic = [{t[:n]: Fraction(c, g[lm]) for t, c in g.items()}
             for g, lm in zip(basis, lms)]
    for rec in records:
        total = {}
        for (k, q), c in rec.items():
            for e, a in monic[k].items():
                t = tuple(map(add, e, q[:n]))
                total[t] = total.get(t, 0) + c * a
        assert not any(total.values())
