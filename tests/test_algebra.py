import random

import pytest

from diffrees.algebra import GradedAlgebra, validation_issues
from diffrees.errors import ValidationError
from diffrees.groebner import IdealHandle
from diffrees.poly import VariableContext
from diffrees.sampler import random_graded_ci

from conftest import P, REES_RANDOM_CI_SHAPES, shipped_algebras
from oracles import is_nonzerodivisor


def test_validate_quadric_cone(xyz, quadric_cone):
    assert quadric_cone.dimension == 2
    assert quadric_cone.codimension == 1
    assert quadric_cone.standard_graded
    assert quadric_cone.relation_degrees == (2,)


def test_validate_coordinate_cross(coordinate_cross):
    assert coordinate_cross.dimension == 1


def test_not_regular_sequence_reports_dimension():
    ctx = VariableContext(("X", "Y"))
    with pytest.raises(ValidationError) as exc:
        GradedAlgebra.validate(ctx, [P(ctx, "X^2"), P(ctx, "X*Y")])
    assert exc.value.issues[0].code == "not-regular-sequence"
    assert "dim P/I = 1" in str(exc.value)


def test_distinct_validation_errors():
    """One ValidationError, its message the first issue's, and the kind
    of each rejection in that issue's code."""
    ctx = VariableContext(("X", "Y"))
    weighted = VariableContext(("X", "Y"), weights=(2, 1))
    for context, relations, code in [
            (ctx, [P(ctx, "X + Y^2")], "inhomogeneous"),
            (ctx, [P(ctx, "X + Y")], "degree"),
            (ctx, [ctx.zero], "degree"),
            (ctx, [P(ctx, "X^2"), P(ctx, "Y^2")], "dimension"),
            (weighted, [P(weighted, "X + Y^2")], "linear-term")]:
        with pytest.raises(ValidationError) as exc:
            GradedAlgebra.validate(context, relations)
        assert exc.value.issues[0].code == code
        assert str(exc.value) == exc.value.issues[0].message


def test_rejections_are_total():
    ctx = VariableContext(("X", "Y"))
    issues = validation_issues(ctx, [P(ctx, "X + Y^2"), P(ctx, "X + Y")])
    codes = {i.code for i in issues}
    assert "inhomogeneous" in codes and "degree" in codes


def test_weighted_validation_accepted():
    ctx = VariableContext(("X", "Y", "Z"), weights=(1, 1, 2))
    algebra = GradedAlgebra.validate(ctx, [P(ctx, "Z^2 - X^2*Y^2")])
    assert algebra.dimension == 2
    assert not algebra.standard_graded
    assert algebra.relation_degrees == (4,)


def test_weighted_linear_term_rejected():
    ctx = VariableContext(("X", "Y", "Z"), weights=(1, 1, 2))
    with pytest.raises(ValidationError) as exc:
        GradedAlgebra.validate(ctx, [P(ctx, "Z - X*Y")])
    assert exc.value.issues[0].code == "linear-term"


def test_jacobian_presentation(quadric_cone, coordinate_cross):
    theta = quadric_cone.jacobian_presentation()
    col = [str(theta.entry(i, 0)) for i in range(3)]
    assert col == ["Y", "X", "-2*Z"]
    assert theta.shape == (3, 1)
    cross = coordinate_cross.jacobian_presentation()
    assert [str(cross.entry(i, 0)) for i in range(2)] == ["Y", "X"]


def test_jacobian_diagonal_quadrics(curve_cone):
    theta = curve_cone.jacobian_presentation()
    assert theta.shape == (4, 2)
    for i in range(4):
        assert theta.entry(i, 0) == curve_cone.context.gen(i) * 2
        assert theta.entry(i, 1) == curve_cone.context.gen(i) * (
            2 * (i + 1))


def test_euler_residuals_zero_on_fixtures(quadric_cone, coordinate_cross,
                                          curve_cone, surface_cone):
    for algebra in (quadric_cone, coordinate_cross, curve_cone,
                    surface_cone):
        assert all(r.is_zero for r in algebra.euler_residuals())


def test_euler_residuals_on_random_instances():
    rng = random.Random(17)
    seen = 0
    while seen < 100:
        n = rng.randint(2, 5)
        d = rng.randint(1, n - 1)
        algebra = random_graded_ci(rng, n, d, max_degree=4)
        assert all(r.is_zero for r in algebra.euler_residuals())
        theta = algebra.jacobian_presentation()
        assert theta.shape == (n, algebra.codimension)
        assert algebra.dimension == d
        seen += 1


def test_is_reduced(quadric_cone, coordinate_cross):
    assert quadric_cone.is_reduced()
    assert coordinate_cross.is_reduced()
    ctx = VariableContext(("X", "Y"))
    assert not GradedAlgebra.validate(ctx, [P(ctx, "X^2")]).is_reduced()


def test_reduced_fails_on_square_relation():
    # adding a square generator always breaks reducedness
    ctx = VariableContext(("X", "Y", "Z"))
    square = GradedAlgebra.validate(ctx, [P(ctx, "(X + Y)^2")])
    assert not square.is_reduced()
    mixed = GradedAlgebra.validate(
        ctx, [P(ctx, "X*Y - Z^2"), P(ctx, "(X + Z)^2")])
    assert not mixed.is_reduced()


def test_height_of_examples(xyz, quadric_cone, coordinate_cross):
    X, Y, Z = xyz.gens()
    assert quadric_cone.height_of(IdealHandle(xyz, [X, Y, Z])) == 2
    assert quadric_cone.height_of(IdealHandle(xyz, [xyz.one])) == float("inf")
    a, b = coordinate_cross.context.gens()
    assert coordinate_cross.height_of(
        IdealHandle(coordinate_cross.context, [a + b])) == 1


def test_irrelevant_local_data(quadric_cone, coordinate_cross,
                               surface_cone):
    cone = quadric_cone.irrelevant_local_data()
    assert (cone.edim, cone.dim) == (3, 2)
    assert cone.at_most_2d and cone.at_most_2d_minus_1
    cross = coordinate_cross.irrelevant_local_data()
    assert cross.at_most_2d and not cross.at_most_2d_minus_1
    surface = surface_cone.irrelevant_local_data()
    assert surface.edim == 4 and surface.at_most_2d


def test_nonzerodivisor_check_zero_element(coordinate_cross):
    """A bool; an element zero in the quotient is a zerodivisor."""
    ctx = coordinate_cross.context
    X, Y = ctx.gens()
    assert coordinate_cross.nonzerodivisor_check(X + Y) is True
    assert coordinate_cross.nonzerodivisor_check(X * Y) is False
    assert coordinate_cross.nonzerodivisor_check(ctx.zero) is False


def test_nonzerodivisor_check_matches_quotient(cases_dir, monkeypatch):
    """The dimension check against (I : g) == I on every test-element draw
    of the shipped cases and the random-ci draws."""
    from diffrees.rees import find_test_element
    check = GradedAlgebra.nonzerodivisor_check
    verdicts = []

    def compared(algebra, g):
        got = check(algebra, g)
        assert got == is_nonzerodivisor(algebra.defining_ideal, g)
        verdicts.append(got)
        return got

    monkeypatch.setattr(GradedAlgebra, "nonzerodivisor_check", compared)
    algebras = shipped_algebras(cases_dir)
    algebras += [random_graded_ci(random.Random(seed), n, d, max_degree=deg)
                 for n, d, deg, seed in REES_RANDOM_CI_SHAPES]
    for algebra in algebras:
        find_test_element(algebra)
    assert verdicts.count(True) == len(algebras) == 15


def test_nonzerodivisor_check_known_zerodivisors(coordinate_cross):
    """Zerodivisors and nonzerodivisors of k[X, Y]/(XY) and of the union
    of two planes, homogeneous or not."""
    X, Y = coordinate_cross.context.gens()
    planes_ctx = VariableContext(("X", "Y", "Z"))
    planes = GradedAlgebra.validate(planes_ctx, [P(planes_ctx, "X^2 - Y^2")])
    cases = [(coordinate_cross, X, False), (coordinate_cross, Y * Y, False),
             (coordinate_cross, X + X * X, False),
             (coordinate_cross, X + Y, True),
             (coordinate_cross, X + Y * Y, True),
             (coordinate_cross, X + coordinate_cross.context.one, True),
             (planes, P(planes_ctx, "X - Y"), False),
             (planes, P(planes_ctx, "X + Y + X*Z + Y*Z"), False),
             (planes, P(planes_ctx, "Z"), True),
             (planes, P(planes_ctx, "X"), True)]
    for algebra, g, expected in cases:
        assert algebra.nonzerodivisor_check(g) is expected, g
        assert is_nonzerodivisor(algebra.defining_ideal, g) is expected, g


def test_no_relations_is_polynomial_ring():
    ctx = VariableContext(("X", "Y"))
    free = GradedAlgebra.validate(ctx, [])
    assert free.dimension == 2 and free.codimension == 0
    assert free.is_reduced()
