import random

import pytest

from diffrees.algebra import GradedAlgebra
from diffrees.errors import NotReducedError
from diffrees.fitting import ft_condition
from diffrees.groebner import IdealHandle
from diffrees import verifier
from diffrees.poly import (DEGREVLEX, MonomialOrder, VariableContext,
                           parse_polynomial)
from diffrees.rees import (analytic_spread, extended_context,
                           find_test_element, is_linear_type, kills_torsion,
                           lift_to_extended, rees_ideal, saturating_variable,
                           symmetric_presentation)
from diffrees.resolution import depth_and_cm
from diffrees.sampler import random_graded_ci
from diffrees.verifier import run_case

from conftest import P, REES_RANDOM_CI_SHAPES, shipped_algebras
from oracles import elimination_saturation


def _finishing_algebras(cases_dir):
    """The shipped cases and the random-ci draws that finish, freshly
    validated, so no basis of theirs is cached yet."""
    return shipped_algebras(cases_dir) + [
        random_graded_ci(random.Random(seed), n, d, max_degree=deg)
        for n, d, deg, seed in REES_RANDOM_CI_SHAPES]


def test_symmetric_presentation_quadric_cone(quadric_cone):
    sym = symmetric_presentation(quadric_cone)
    big = sym.extended_context
    assert big.names == ("X", "Y", "Z", "T1", "T2", "T3")
    assert [str(g) for g in sym.ideal.generators] == [
        "X*Y - Z^2", "Y*T1 + X*T2 - 2*Z*T3"]
    assert sym.is_complete_intersection
    assert (big.arity - sym.ideal.krull_dimension().dimension
            == len(sym.ideal.generators) == 2)


def test_symmetric_presentation_cross(coordinate_cross):
    sym = symmetric_presentation(coordinate_cross)
    assert [str(g) for g in sym.ideal.generators] == [
        "X*Y", "Y*T1 + X*T2"]


def test_symmetric_presentation_free_module():
    ctx = VariableContext(("X", "Y"))
    free = GradedAlgebra.validate(ctx, [])
    sym = symmetric_presentation(free)
    assert not sym.ideal.generators
    assert sym.is_complete_intersection


def test_find_test_element_deterministic(quadric_cone):
    g1 = find_test_element(quadric_cone, seed=0)
    g2 = find_test_element(quadric_cone, seed=0)
    assert g1 == g2
    assert quadric_cone.nonzerodivisor_check(g1)


def test_find_test_element_cross(coordinate_cross):
    g = find_test_element(coordinate_cross, seed=0)
    assert coordinate_cross.nonzerodivisor_check(g)


def test_find_test_element_refuses_nonreduced():
    ctx = VariableContext(("X", "Y"))
    nonreduced = GradedAlgebra.validate(ctx, [P(ctx, "X^2")])
    with pytest.raises(NotReducedError):
        find_test_element(nonreduced)


def test_rees_ideal_quadric_cone(quadric_cone):
    rp = rees_ideal(quadric_cone)
    assert is_linear_type(rp)
    assert rp.torsion_generators == ()
    assert rp.ideal.equals(rp.symmetric.ideal)


def test_rees_ideal_cross_exact(coordinate_cross):
    rp = rees_ideal(coordinate_cross)
    big = rp.symmetric.extended_context
    expected = IdealHandle(big, [parse_polynomial(big, s) for s in
                                 ("X*Y", "X*T2", "Y*T1", "T1*T2")])
    assert rp.ideal.equals(expected)
    assert not is_linear_type(rp)
    witnesses = {str(t) for t in rp.torsion_generators}
    assert "X*T2" in witnesses


def test_rees_ideal_free_module():
    ctx = VariableContext(("X", "Y"))
    free = GradedAlgebra.validate(ctx, [])
    rp = rees_ideal(free)
    assert not rp.ideal.generators
    assert is_linear_type(rp)


def test_torsion_is_intrinsic(coordinate_cross):
    # different accepted test elements give the same Rees ideal
    first = rees_ideal(coordinate_cross, seed=0)
    second = rees_ideal(coordinate_cross, seed=1)
    if first.test_element == second.test_element:
        second = rees_ideal(coordinate_cross, seed=2)
    assert first.ideal.equals(second.ideal)


def test_linear_type_iff_f1_on_fixtures(quadric_cone, coordinate_cross,
                                        curve_cone, surface_cone):
    for algebra in (quadric_cone, coordinate_cross, curve_cone,
                    surface_cone):
        rp = rees_ideal(algebra)
        assert is_linear_type(rp) == ft_condition(algebra, 1).holds


def test_linear_type_is_equality_with_the_symmetric_ideal(cases_dir):
    """No torsion generator exactly when the Rees ideal equals the
    symmetric-algebra ideal, on the shipped cases and the random-ci draws
    that finish."""
    verdicts = []
    for algebra in _finishing_algebras(cases_dir):
        rp = rees_ideal(algebra)
        verdicts.append(is_linear_type(rp))
        assert verdicts[-1] == rp.ideal.equals(rp.symmetric.ideal)
    assert True in verdicts and False in verdicts


def test_f0_implies_symmetric_ci(quadric_cone, coordinate_cross,
                                 curve_cone, surface_cone):
    for algebra in (quadric_cone, coordinate_cross, curve_cone,
                    surface_cone):
        if ft_condition(algebra, 0).holds:
            assert symmetric_presentation(algebra).is_complete_intersection


def test_analytic_spread_quadric_cone(quadric_cone):
    sp = analytic_spread(rees_ideal(quadric_cone))
    assert sp.value == 3
    assert (sp.lower, sp.upper) == (2, 3)
    assert sp.bounds_ok
    assert sp.rees_dimension == 4


def test_analytic_spread_cross(coordinate_cross):
    sp = analytic_spread(rees_ideal(coordinate_cross))
    assert sp.value == 1
    assert (sp.lower, sp.upper) == (1, 1)
    assert sp.bounds_ok


def test_analytic_spread_free_module():
    ctx = VariableContext(("X", "Y"))
    free = GradedAlgebra.validate(ctx, [])
    sp = analytic_spread(rees_ideal(free))
    assert sp.value == 2 == free.dimension
    assert sp.bounds_ok


def test_rees_dimension_is_d_plus_e(curve_cone, surface_cone):
    for algebra in (curve_cone, surface_cone):
        sp = analytic_spread(rees_ideal(algebra))
        assert sp.rees_dimension == 2 * algebra.dimension


def test_extended_context_avoids_collisions():
    ctx = VariableContext(("T1", "X"))
    algebra = GradedAlgebra.validate(ctx, [P(ctx, "T1*X")])
    big = extended_context(algebra.context)
    assert len(set(big.names)) == 4
    assert big.names[:2] == ("T1", "X")


def test_surface_cone_full_chain(surface_cone):
    rp = rees_ideal(surface_cone)
    assert is_linear_type(rp)
    rep = depth_and_cm(rp.ideal)
    assert rep.cohen_macaulay
    assert rep.dimension == 6 and rep.depth == 6
    assert rep.projective_dimension == 2


def test_rees_ideal_by_a_variable_is_the_saturation_by_g(cases_dir):
    """On every finishing instance, the Rees ideal that the chosen
    variable gives equals J : g^inf for the reported test element g, by
    the elimination of y*g - 1.  Of the shipped cases (by name),
    coordinate-cross has no variable that qualifies (both are zero
    divisors), and four-point-cone skips X4."""
    chosen = []
    for algebra in _finishing_algebras(cases_dir):
        rp = rees_ideal(algebra)
        g = lift_to_extended(rp.test_element, rp.symmetric.extended_context)
        assert rp.ideal.equals(elimination_saturation(rp.symmetric.ideal, g))
        chosen.append(saturating_variable(algebra))
    assert chosen[:5] == [None, 3, 3, 2, 2]


def test_each_variable_that_kills_torsion_gives_the_rees_ideal(cases_dir):
    """For every base variable X_j of every finishing instance, J : X_j^inf
    by the Bayer-Stillman division is the elimination's, reduced basis for
    reduced basis.  It is the Rees ideal for every X_j that
    `kills_torsion`, and at most the Rees ideal for any X_j regular on R.
    On ci-n4-a and ci-n4-b (X1, X3) and four-point-cone (X4), a regular
    variable outside the radical of I + F_e gives a strictly smaller
    ideal, so the radical check cannot be dropped; on ci-n5-a X1 and X2
    fail it yet give the Rees ideal, so the check is sufficient, not
    necessary."""
    smaller = {}
    for algebra in _finishing_algebras(cases_dir):
        rp = rees_ideal(algebra)
        for j in range(algebra.arity):
            x = rp.symmetric.extended_context.gen(j)
            sat = rp.symmetric.ideal.saturation(x)
            assert sat.generators == elimination_saturation(
                rp.symmetric.ideal, x).generators
            if not algebra.nonzerodivisor_check(algebra.context.gen(j)):
                assert not kills_torsion(algebra, j)
                continue
            assert all(rp.ideal.contains(h) for h in sat.generators)
            if kills_torsion(algebra, j):
                assert sat.equals(rp.ideal)
            elif not sat.equals(rp.ideal):
                smaller.setdefault(algebra.relations, []).append(j)
    ci_n4_a = random_graded_ci(random.Random(0), 4, 2, max_degree=3)
    assert smaller[ci_n4_a.relations] == [0, 2]
    # four-point-cone, ci-n4-a and ci-n4-b
    assert list(smaller.values()) == [[3], [0, 2], [0, 2]]


def test_the_symmetric_ideal_is_built_once_per_case(shipped_cases,
                                                    cases_dir, monkeypatch):
    """J, the symmetric-algebra ideal, has one basis per pipeline case
    wherever a base variable X_j qualifies: the one with X_j ranked last
    that the Rees division builds also answers J's dimension, for the
    complete-intersection verdict read after the Rees stage, and the
    torsion membership tests.  On the z path, coordinate-cross only, J is
    built in degrevlex, once, for both."""
    expected = {}
    for case, algebra in zip(shipped_cases, shipped_algebras(cases_dir)):
        if case.mode != "prop31":
            j = saturating_variable(algebra)
            expected[case.name] = [DEGREVLEX if j is None
                                   else MonomialOrder(j)]
    built = []
    build = IdealHandle._build

    def recording(handle, order, certify=False):
        built.append((handle, order))
        return build(handle, order, certify)

    presented = []

    def presenting(algebra):
        presented.append(symmetric_presentation(algebra))
        return presented[-1]

    monkeypatch.setattr(IdealHandle, "_build", recording)
    monkeypatch.setattr(verifier, "symmetric_presentation", presenting)
    orders = {}
    for case in shipped_cases:
        if case.mode == "prop31":
            continue
        built.clear()
        presented.clear()
        assert run_case(case).status == "ok", case.name
        (sym,) = presented
        orders[case.name] = [order for handle, order in built
                             if handle is sym.ideal]
    assert orders == expected
    assert [name for name, (order,) in orders.items()
            if order == DEGREVLEX] == ["coordinate-cross"]


def test_every_build_of_a_corpus_run_is_degrevlex(shipped_cases,
                                                  monkeypatch):
    """Every basis build of a corpus run, each shipped case through
    `run_case`, is under a `MonomialOrder`, weighted degrevlex.  The Rees
    ideal adjoins z for the test element exactly where no base variable
    qualifies, on coordinate-cross only."""
    built = []
    build = IdealHandle._build

    def recording(handle, order, certify=False):
        built.append((handle.context.names, order))
        return build(handle, order, certify)

    monkeypatch.setattr(IdealHandle, "_build", recording)
    adjoined = []
    for case in shipped_cases:
        built.clear()
        assert run_case(case).status == "ok", case.name
        assert built
        assert all(isinstance(order, MonomialOrder) for _, order in built)
        if any("z1" in names for names, _ in built):
            adjoined.append(case.name)
    assert adjoined == ["coordinate-cross"]
