import math
import random

import pytest

from diffrees.algebra import GradedAlgebra
from diffrees.fitting import (euler_minor_identity, fitting_ideal,
                              fitting_profile, ft_condition,
                              ft_condition_off_irrelevant, last_rows_probe,
                              last_rows_size, _random_invertible)
from diffrees.groebner import IdealHandle
from diffrees.matrix import PolyMatrix
from diffrees.poly import VariableContext
from diffrees.rees import find_test_element
from diffrees.sampler import probe_corpus, random_graded_ci
from diffrees.verifier import smooth_ci_shortcut

from conftest import P, random_homogeneous, shipped_algebras
from oracles import (saturated_height_off_irrelevant,
                     signed_row_sequence_minor)


def test_two_by_two_determinant():
    ctx = VariableContext(("A", "B", "C", "D"))
    a, b, c, d = ctx.gens()
    m = PolyMatrix(ctx, ((a, b), (c, d)))
    assert m.minor((0, 1), (0, 1)) == a * d - b * c


def test_one_by_one_minors_are_entries(quadric_cone):
    theta = quadric_cone.jacobian_presentation()
    assert [str(p) for p in theta.minors(1)] == ["Y", "X", "-2*Z"]


def test_catalecticant_minors():
    ctx = VariableContext(("X", "Y", "Z", "W"))
    X, Y, Z, W = ctx.gens()
    m = PolyMatrix(ctx, ((X, Y, Z), (Y, Z, W)))
    assert m.minors(2) == [X * Z - Y**2, X * W - Y * Z, Y * W - Z**2]


def minor_expanded_along(m, rows, cols, pivot_position):
    """The minor of `m` on `rows` and `cols`, expanded along the chosen row
    of the selection instead of the first."""
    i = rows[pivot_position]
    rest = rows[:pivot_position] + rows[pivot_position + 1:]
    acc = m.context.zero
    for k, j in enumerate(cols):
        term = m.entry(i, j) * m.minor(rest, cols[:k] + cols[k + 1:])
        acc = acc - term if (pivot_position + k) % 2 else acc + term
    return acc


def test_laplace_expansion_row_crosscheck():
    rng = random.Random(23)
    ctx = VariableContext(("X", "Y", "Z", "W"))
    for size in (2, 3, 4):
        entries = [[random_homogeneous(rng, ctx, 1, max_terms=2)
                    for _ in range(size)] for _ in range(size)]
        m = PolyMatrix(ctx, tuple(tuple(r) for r in entries))
        rows = tuple(range(size))
        reference = m.minor(rows, rows)
        pivot = rng.randrange(size)
        assert minor_expanded_along(m, rows, rows, pivot) == reference


def test_fitting_ideal_conventions(quadric_cone):
    assert fitting_ideal(quadric_cone, 3).is_unit()
    f2 = fitting_ideal(quadric_cone, 2)
    ctx = quadric_cone.context
    assert f2.equals(IdealHandle(ctx, list(ctx.gens())))
    assert not fitting_ideal(quadric_cone, 0).generators


def test_fitting_ideal_cross(coordinate_cross):
    ctx = coordinate_cross.context
    f1 = fitting_ideal(coordinate_cross, 1)
    assert f1.equals(IdealHandle(ctx, list(ctx.gens())))


def test_determinantal_inclusion(curve_cone):
    profile = fitting_profile(curve_cone)
    rows = profile.rows
    for smaller, larger in zip(rows, rows[1:]):
        ambient = curve_cone.defining_ideal
        larger_ideal = fitting_ideal(curve_cone, larger.index)
        assert all((ambient + larger_ideal).contains(g)
                   for g in fitting_ideal(curve_cone,
                                          smaller.index).generators)
    heights = [r.height for r in rows]
    assert heights == sorted(heights)


def test_ft_condition_quadric_cone(quadric_cone):
    assert ft_condition(quadric_cone, 1).holds
    assert ft_condition(quadric_cone, 0).holds


def test_ft_condition_cross(coordinate_cross):
    v1 = ft_condition(coordinate_cross, 1)
    assert not v1.holds
    assert v1.failing_index == 1 and v1.actual == 1 and v1.required == 2
    assert ft_condition(coordinate_cross, 0).holds


def test_ft_condition_curve_cone(curve_cone):
    v = ft_condition(curve_cone, 1)
    assert not v.holds and v.failing_index == 3
    assert v.actual == 2 and v.required == 3
    assert ft_condition(curve_cone, 0).holds


def test_ft_monotone_in_t(quadric_cone, coordinate_cross, curve_cone,
                          surface_cone):
    for algebra in (quadric_cone, coordinate_cross, curve_cone,
                    surface_cone):
        for t in (2, 1):
            if ft_condition(algebra, t).holds:
                assert ft_condition(algebra, t - 1).holds


def test_off_irrelevant_examples(coordinate_cross, curve_cone,
                                 quadric_cone):
    assert ft_condition_off_irrelevant(coordinate_cross, 0).holds
    assert ft_condition_off_irrelevant(curve_cone, 0).holds
    assert ft_condition_off_irrelevant(quadric_cone, 1).holds
    # the curve cone fails F_1 only through the vertex component
    assert not ft_condition(curve_cone, 1).holds
    assert ft_condition_off_irrelevant(curve_cone, 1).holds


def test_off_irrelevant_can_fail():
    # a cone singular along a line: X^2 in three variables
    ctx = VariableContext(("X", "Y", "Z"))
    algebra = GradedAlgebra.validate(ctx, [P(ctx, "X^2")])
    assert not ft_condition_off_irrelevant(algebra, 1).holds


# (variables, dimension, max relation degree, seed of random_graded_ci):
# the random complete intersections of the benchmark's random-ci
# workload.  The fitting stage finishes on all of them; its probe_corpus
# instance is left out, because the saturation below stalls on it.
RANDOM_CI_SHAPES = ((4, 3, 3, 0), (4, 3, 3, 1), (5, 4, 3, 0), (5, 4, 3, 1),
                    (4, 2, 3, 0), (4, 2, 3, 4), (4, 2, 3, 5), (5, 3, 3, 2),
                    (5, 3, 3, 4))


def test_off_irrelevant_dimension_check_matches_saturation(cases_dir):
    """The dimension check of fitting_profile against the saturation by
    the irrelevant ideal that it replaced."""
    algebras = shipped_algebras(cases_dir)
    algebras += [random_graded_ci(random.Random(seed), n, d, max_degree=deg)
                 for n, d, deg, seed in RANDOM_CI_SHAPES]
    assert len(algebras) == 16
    finite = 0
    for algebra in algebras:
        for row in fitting_profile(algebra).rows:
            expected = saturated_height_off_irrelevant(
                algebra, fitting_ideal(algebra, row.index))
            assert row.height_off_irrelevant == expected, (algebra, row.index)
            finite += expected != float("inf")
    assert finite


def test_euler_minor_identity_named_cases(curve_cone):
    assert euler_minor_identity(curve_cone).is_zero


def test_euler_minor_identity_degenerate_t1(curve_cone):
    # t = 1 reduces to the Euler relation for the first column
    probe = last_rows_probe(curve_cone)
    assert probe.t == 1
    assert euler_minor_identity(curve_cone).is_zero


def test_euler_minor_identity_shape_guard(quadric_cone):
    with pytest.raises(ValueError):
        euler_minor_identity(quadric_cone)


def _expanded_euler_residual(algebra):
    """The residual of the Euler identity from fresh minors of theta, each
    row sequence (i, 2d-1, ..., n-2) for every i < n expanded with its
    rows in that order (`oracles.signed_row_sequence_minor`)."""
    n, d = algebra.arity, algebra.dimension
    t = last_rows_size(algebra)
    ctx = algebra.context
    theta = algebra.jacobian_presentation()
    cols = tuple(range(t))
    middle = tuple(range(2 * d - 1, n - 1))
    lhs = (ctx.gen(n - 1) * theta.minor(middle + (n - 1,), cols)
           * ctx.weights[n - 1])
    rhs = ctx.zero
    for i in range(n - 1):
        rhs = rhs + (ctx.gen(i) * ctx.weights[i]
                     * signed_row_sequence_minor(theta, (i,) + middle, cols))
    return algebra.reduce(lhs - (-rhs if t % 2 else rhs))


def test_euler_identity_reads_the_cached_minors(curve_cone, monkeypatch):
    """The identity reads the algebra's t-minors, reduced modulo I, and
    expands none; its residual is the one of the expansion in row
    sequence order, since both are reduced modulo I.  Run on the curve,
    a t = 3 draw, a weighted algebra and probe instances."""
    ctx = VariableContext(("X1", "X2", "X3", "X4"), weights=(1, 1, 2, 2))
    weighted = GradedAlgebra.validate(ctx, [
        P(ctx, "X1^4 + X2^4 + X3^2 + X4^2"),
        P(ctx, "X1^4 + 2*X2^4 + 3*X3^2 + 4*X4^2")])
    algebras = [curve_cone, weighted,
                random_graded_ci(random.Random(5), 6, 2, max_degree=3,
                                 mixed_terms=0)]
    algebras += [a for _, a in probe_corpus(seed=3, count=4)]
    minors = PolyMatrix.minors
    expanded = []

    def recording(matrix, *args, **kwargs):
        expanded.append(args)
        return minors(matrix, *args, **kwargs)

    monkeypatch.setattr(PolyMatrix, "minors", recording)
    for algebra in algebras:
        algebra.jacobian_minors(last_rows_size(algebra))
        expanded.clear()
        residual = euler_minor_identity(algebra)
        assert expanded == []
        assert residual == _expanded_euler_residual(algebra)
        assert residual.is_zero


def _record_builds(monkeypatch):
    """A list that receives (handle, certified) for every basis build."""
    builds = []
    build = IdealHandle._build

    def recording(handle, order, certify=False):
        basis = build(handle, order, certify)
        builds.append((handle, basis is None))
        return basis

    monkeypatch.setattr(IdealHandle, "_build", recording)
    return builds


def test_is_reduced_shares_the_profile_basis_of_i_plus_f_e(monkeypatch):
    """Reducedness is the F_e row of the profile, so `is_reduced` and
    `fitting_profile` run one basis build per row between them, a build
    that stopped on the zero-dimensional certificate included."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    algebra = GradedAlgebra.validate(ctx, [
        P(ctx, "X^2 + Y^2 + Z^2 + W^2"), P(ctx, "X^3 + 2*Y^3 + 3*Z^3 + 4*W^3")])
    builds = _record_builds(monkeypatch)
    assert algebra.is_reduced()
    profile = fitting_profile(algebra)
    assert [handle for handle, _ in builds] == [
        algebra.ideal_sum(fitting_ideal(algebra, row.index))
        for row in profile.rows]


def test_verdicts_after_the_profile_build_no_basis(monkeypatch):
    """The F_t verdicts and the smooth-cone shortcut take no profile:
    they recompute it from the heights the algebra caches, so after one
    `fitting_profile` none of them starts a basis build."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    algebra = GradedAlgebra.validate(ctx, [
        P(ctx, "X^2 + Y^2 + Z^2 + W^2"), P(ctx, "X^3 + 2*Y^3 + 3*Z^3 + 4*W^3")])
    profile = fitting_profile(algebra)
    builds = _record_builds(monkeypatch)
    for t in (0, 1, 2):
        ft_condition(algebra, t)
        ft_condition_off_irrelevant(algebra, t)
    assert smooth_ci_shortcut(algebra)["applicable"]
    assert fitting_profile(algebra) == profile
    assert builds == []


def test_jacobian_minors_are_computed_once_per_size(monkeypatch):
    """`is_reduced`, `fitting_profile` and `find_test_element` read the
    algebra's minors: each size is expanded once, reduced modulo I, and
    each Fitting index has one handle.  `find_test_element` draws over
    the c-minors in the order of `PolyMatrix.minors`, zeros included."""
    ctx = VariableContext(("X", "Y", "Z", "W"))
    algebra = GradedAlgebra.validate(ctx, [
        P(ctx, "X^2 + Y^2 + Z^2 + W^2"), P(ctx, "X^3 + 2*Y^3 + 3*Z^3 + 4*W^3")])
    theta = algebra.jacobian_presentation()
    defining = algebra.defining_ideal
    expected = {size: tuple(theta.minors(size, modulo=defining))
                for size in (1, 2)}
    sizes = []
    minors = PolyMatrix.minors

    def recording(matrix, size, rows=None, cols=None, modulo=None):
        sizes.append((size, modulo))
        return minors(matrix, size, rows, cols, modulo)

    monkeypatch.setattr(PolyMatrix, "minors", recording)
    assert algebra.is_reduced()
    profile = fitting_profile(algebra)
    find_test_element(algebra)
    assert sorted(sizes, key=lambda s: s[0]) == [(1, defining),
                                                 (2, defining)]
    assert all(fitting_ideal(algebra, row.index)
               is algebra.jacobian_minors(algebra.arity - row.index)[1]
               for row in profile.rows)
    assert {size: algebra.jacobian_minors(size)[0]
            for size in (1, 2)} == expected


def test_euler_minor_identity_cubic_t3():
    rng = random.Random(5)
    from diffrees.sampler import random_graded_ci
    algebra = random_graded_ci(rng, 6, 2, max_degree=3, mixed_terms=0)
    assert euler_minor_identity(algebra).is_zero


def test_last_rows_minors_are_the_tail_of_the_full_list():
    """`last_rows_probe` takes the last-rows minors from the end of
    `minors(t)`: they are the minors over rows n-t..n-1, in order, on the
    20 probe instances and after one random row operation on each."""
    rng = random.Random(0)
    for _name, algebra in probe_corpus(seed=0, count=20):
        n, t = algebra.arity, last_rows_size(algebra)
        theta = algebra.jacobian_presentation()
        for matrix in (theta, _random_invertible(rng, algebra.context)
                       @ theta):
            full = [algebra.reduce(m) for m in matrix.minors(t)]
            last = [algebra.reduce(m)
                    for m in matrix.minors(t, rows=range(n - t, n))]
            assert full[len(full) - math.comb(matrix.ncols, t):] == last


def _probe_sums(algebra):
    """The handles of I + F and I + L that `last_rows_probe` compares, F
    the ideal of all t-minors of theta and L that of its last t rows."""
    theta = algebra.jacobian_presentation()
    t = last_rows_size(algebra)
    minors = [algebra.reduce(m) for m in theta.minors(t)]
    last = minors[len(minors) - math.comb(theta.ncols, t):]
    return (algebra.ideal_sum(IdealHandle(algebra.context, minors)),
            algebra.ideal_sum(IdealHandle(algebra.context, last)))


def test_probe_equality_builds_no_basis_of_i_plus_f(probe_cases,
                                                    monkeypatch):
    """The generators of I + L are among those of I + F, so `equals`
    tests only that I + F lies in I + L and never builds a basis of
    I + F; its answer is that of comparing reduced bases, and the one
    `last_rows_probe` reports."""
    builds = _record_builds(monkeypatch)
    for case in probe_cases:
        algebra = GradedAlgebra.validate(case.context, case.relations)
        full, last = _probe_sums(algebra)
        for first, second in ((full, last), (last, full)):
            equal = first.equals(second)
            assert all(handle is not full for handle, _ in builds)
            ctx = algebra.context
            assert equal == (IdealHandle(ctx, full.generators).groebner_basis()
                             == IdealHandle(ctx, last.generators)
                             .groebner_basis())
        assert last_rows_probe(algebra).ideals_equal == equal


def test_m_primary_probe_sums_build_no_basis_of_i_plus_f(probe_cases,
                                                        monkeypatch):
    """Where height_full == dim R, I + F is m-primary: `height_of` reads
    its dimension from the zero-dimensional certificate, and no full
    basis of I + F is built in the whole probe."""
    builds = _record_builds(monkeypatch)
    hits = 0
    for case in probe_cases:
        algebra = GradedAlgebra.validate(case.context, case.relations)
        builds.clear()
        probe = last_rows_probe(algebra)
        full, _ = _probe_sums(algebra)
        if probe.height_full == algebra.dimension:
            hits += 1
            assert [certified for handle, certified in builds
                    if handle is full] == [True], case.name
            assert not full._cache
    assert hits


def test_row_operation_trials_take_the_base_height(shipped_cases,
                                                   probe_cases):
    """A row-operation trial reports the base probe's height_full, which
    by Cauchy-Binet is the height of its own t-minors: checked by
    building I + I_t(U theta) for each trial of `curve-probe` (its case
    file asks for 2) and of the probe instances in at most five
    variables (2 each), U drawn as `last_rows_probe` draws it."""
    (curve,) = [case for case in shipped_cases if case.name == "curve-probe"]
    assert curve.rowops == 2
    runs = [(curve, curve.rowops, curve.seed_for(None))]
    runs += [(case, 2, 0) for case in probe_cases
             if case.context.arity <= 5]
    assert len(runs) > 5
    for case, rowops, seed in runs:
        algebra = GradedAlgebra.validate(case.context, case.relations)
        probe = last_rows_probe(algebra, rowops=rowops, seed=seed)
        assert len(probe.row_op_trials) == rowops
        theta = algebra.jacobian_presentation()
        rng = random.Random(seed)
        for trial in probe.row_op_trials:
            u = _random_invertible(rng, algebra.context)
            own = IdealHandle(algebra.context, (u @ theta).minors(
                probe.t, modulo=algebra.defining_ideal))
            assert (algebra.height_of(own) == trial.height_full
                    == probe.height_full), case.name


def test_probe_curve_cone(curve_cone):
    probe = last_rows_probe(curve_cone, rowops=3, seed=11)
    assert probe.t == 1
    assert probe.height_full == 2 == curve_cone.dimension
    assert not probe.ideals_equal
    assert probe.implication_holds
    assert len(probe.row_op_trials) == 3
    assert all(tr.implication_holds for tr in probe.row_op_trials)


def test_probe_corpus_no_violation():
    for _name, algebra in probe_corpus(seed=3, count=6):
        probe = last_rows_probe(algebra)
        assert probe.implication_holds
        if probe.height_full == algebra.dimension:
            assert not probe.ideals_equal
        assert euler_minor_identity(algebra).is_zero


def test_probe_and_identity_under_weighted_grading():
    # weighted variables exercise the delta-weighted Euler relations
    ctx = VariableContext(("X1", "X2", "X3", "X4"), weights=(1, 1, 2, 2))
    f1 = P(ctx, "X1^4 + X2^4 + X3^2 + X4^2")
    f2 = P(ctx, "X1^4 + 2*X2^4 + 3*X3^2 + 4*X4^2")
    algebra = GradedAlgebra.validate(ctx, [f1, f2])
    assert not algebra.standard_graded
    assert algebra.dimension == 2
    assert all(r.is_zero for r in algebra.euler_residuals())
    assert euler_minor_identity(algebra).is_zero
    probe = last_rows_probe(algebra, rowops=1, seed=3)
    assert probe.implication_holds


def test_minor_guards():
    ctx = VariableContext(("A", "B"))
    a, b = ctx.gens()
    m = PolyMatrix(ctx, ((a, b),))
    with pytest.raises(ValueError):
        m.minors(2)
    with pytest.raises(ValueError):
        m.minor((0,), (0, 1))
    assert m.minors(0) == [ctx.one]
    assert signed_row_sequence_minor(m, (0, 0), (0, 1)).is_zero
