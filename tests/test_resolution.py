import random

import pytest

from diffrees import groebner
from diffrees.errors import StepBudgetExceeded
from diffrees.groebner import IdealHandle, step_budget
from diffrees.matrix import PolyMatrix
from diffrees.poly import VariableContext
from diffrees.resolution import depth_and_cm, free_resolution

from conftest import P, column_span_checker
from oracles import (ModulePresentation, column, minimized_free_resolution,
                     presentation_of_ideal, syzygies)


@pytest.fixture(scope="module")
def ring4():
    return VariableContext(("X", "Y", "Z", "W"))


def test_koszul_syzygy():
    ctx = VariableContext(("X", "Y"))
    X, Y = ctx.gens()
    pres = ModulePresentation(ctx, 1, PolyMatrix(ctx, ((X, Y),)))
    syz = syzygies(pres)
    assert syz.matrix.shape == (2, 1)
    assert column(syz.matrix, 0) in ((Y, -X), (-Y, X))


def test_hilbert_burch_syzygies(ring4):
    X, Y, Z, W = ring4.gens()
    cat = PolyMatrix(ring4, ((X, Y, Z), (Y, Z, W)))
    minors = PolyMatrix(ring4, (tuple(cat.minors(2)),))
    syz = syzygies(ModulePresentation(ring4, 1, minors))
    assert syz.matrix.shape == (3, 2)
    assert (minors @ syz.matrix).is_zero()


def test_zero_matrix_full_syzygies(ring4):
    zero = PolyMatrix(ring4, ((ring4.zero, ring4.zero),))
    syz = syzygies(ModulePresentation(ring4, 1, zero))
    # both columns are zero, so both unit vectors are syzygies
    assert syz.matrix.shape == (2, 2)
    cols = {tuple(str(p) for p in column(syz.matrix, j)) for j in range(2)}
    assert cols == {("1", "0"), ("0", "1")}


def test_rank_two_syzygies(ring4):
    """The columns of the 2x3 catalecticant in a rank-2 target: its kernel
    is spanned by the signed 2x2 minors."""
    X, Y, Z, W = ring4.gens()
    cat = PolyMatrix(ring4, ((X, Y, Z), (Y, Z, W)))
    syz = syzygies(ModulePresentation(ring4, 2, cat))
    assert syz.matrix.nrows == 3 and syz.matrix.ncols >= 1
    assert (cat @ syz.matrix).is_zero()
    assert syz.shifts == (1, 1, 1)
    known = (Y * W - Z**2, Y * Z - X * W, X * Z - Y**2)
    assert (cat @ PolyMatrix(ring4, [(p,) for p in known])).is_zero()
    assert column_span_checker(syz.matrix)(known)


def test_zero_and_repeated_columns_give_trivial_syzygies(ring4):
    X, Y, _, _ = ring4.gens()
    zero = ring4.zero
    matrix = PolyMatrix(ring4, ((X, zero, X), (Y, zero, Y)))
    syz = syzygies(ModulePresentation(ring4, 2, matrix))
    assert (matrix @ syz.matrix).is_zero()
    cols = {tuple(str(p) for p in column(syz.matrix, j))
            for j in range(syz.matrix.ncols)}
    assert cols == {("0", "1", "0"), ("1", "0", "-1")}


def test_syzygies_shape_mismatch(ring4):
    X = ring4.gen(0)
    with pytest.raises(ValueError):
        ModulePresentation(ring4, 2, PolyMatrix(ring4, ((X,),)))


def test_inhomogeneous_column_rejected(ring4):
    X, Y, _, _ = ring4.gens()
    with pytest.raises(ValueError):
        ModulePresentation(ring4, 1, PolyMatrix(ring4, ((X + Y * Y,),)))


def test_hypersurface_resolution():
    ctx = VariableContext(("X", "Y"))
    X, Y = ctx.gens()
    rep = depth_and_cm(IdealHandle(ctx, [X * Y]))
    assert rep.projective_dimension == 1
    assert rep.depth == 1 == rep.dimension
    assert rep.cohen_macaulay


def test_quadric_cone_symmetric_ideal_resolution():
    ctx = VariableContext(("X", "Y", "Z", "T1", "T2", "T3"))
    gens = [P(ctx, "X*Y - Z^2"), P(ctx, "Y*T1 + X*T2 - 2*Z*T3")]
    handle = IdealHandle(ctx, gens)
    res = free_resolution(handle)
    assert res.pd == 2
    assert res.betti == (1, 2, 1)
    minimized = minimized_free_resolution(presentation_of_ideal(handle))
    assert minimized.ranks == res.betti
    assert minimized.complex.is_complex()


def test_disjoint_edges_resolution():
    ctx = VariableContext(("X", "Y", "T1", "T2"))
    X, Y, T1, T2 = ctx.gens()
    handle = IdealHandle(ctx, [X * Y, X * T2, Y * T1, T1 * T2])
    rep = depth_and_cm(handle)
    assert rep.projective_dimension == 3
    assert rep.depth == 1
    assert rep.dimension == 2
    assert not rep.cohen_macaulay
    res = free_resolution(handle)
    assert res.betti == (1, 4, 4, 1)


def test_resolution_validity(ring4):
    X, Y, Z, W = ring4.gens()
    handle = IdealHandle(ring4, [X * Z - Y**2, X * W - Y * Z, Y * W - Z**2])
    res = minimized_free_resolution(presentation_of_ideal(handle))
    assert res.complex.is_complex()
    # stage-1 columns generate the ideal exactly (mutual membership)
    stage1 = IdealHandle(ring4, list(res.differentials[0].row(0)))
    assert stage1.equals(handle)
    assert res.pd == 2
    assert free_resolution(handle).pd == 2


def test_pd_stable_under_generator_shuffle(ring4):
    X, Y, Z, W = ring4.gens()
    gens = [X * Z - Y**2, X * W - Y * Z, Y * W - Z**2]
    rng = random.Random(9)
    pds = set()
    for _ in range(4):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        handle = IdealHandle(ring4, shuffled)
        pds.add(free_resolution(handle).pd)
        assert minimized_free_resolution(
            presentation_of_ideal(handle)).complex.is_complex()
    assert pds == {2}


def test_koszul_complete_intersection_cm():
    ctx = VariableContext(("X", "Y", "Z", "W", "V"))
    X, Y, Z, W, V = ctx.gens()
    rep = depth_and_cm(IdealHandle(ctx, [X**2 - Y * Z, W**2 - X * V]))
    assert rep.projective_dimension == 2
    assert rep.depth == 3 == rep.dimension
    assert rep.cohen_macaulay


def test_en_length_crosscheck(ring4):
    # the minor ideal of the catalecticant resolves in m - t + 1 = 2 steps
    X, Y, Z, W = ring4.gens()
    cat = PolyMatrix(ring4, ((X, Y, Z), (Y, Z, W)))
    handle = IdealHandle(ring4, cat.minors(2))
    res = free_resolution(handle)
    assert res.pd == 2 == cat.ncols - cat.nrows + 1


def test_zero_ideal_resolution():
    ctx = VariableContext(("X", "Y"))
    res = free_resolution(IdealHandle(ctx, []))
    assert res.ranks == (1,) == res.betti
    assert res.pd == 0
    rep = depth_and_cm(IdealHandle(ctx, []))
    assert rep.cohen_macaulay and rep.depth == 2


def test_unit_ideal_rejected():
    ctx = VariableContext(("X", "Y"))
    with pytest.raises(ValueError):
        depth_and_cm(IdealHandle(ctx, [ctx.one]))


def test_maximal_ideal_koszul_ranks(xyz):
    handle = IdealHandle(xyz, list(xyz.gens()))
    res = free_resolution(handle)
    assert res.betti == (1, 3, 3, 1)
    rep = depth_and_cm(handle)
    assert rep.depth == 0 == rep.dimension


def test_budget_propagates(xyz, monkeypatch):
    """The open budget bounds the frame.  Z divides no lead of
    (X^3 - Y*Z^2, Y^4 - X*Z^3), so the frame resolves (X^3, Y^4) and
    spends one step, on its one pair; a budget of no step raises."""
    X, Y, Z = xyz.gens()
    handle = IdealHandle(xyz, [X**3 - Y * Z**2, Y**4 - X * Z**3])
    handle._reduced()
    steps = [0]
    spend = groebner.StepCounter.spend

    def counted(counter, n=1):
        steps[0] += n
        return spend(counter, n)

    with monkeypatch.context() as patch:
        patch.setattr(groebner.StepCounter, "spend", counted)
        with step_budget(1):
            free_resolution(handle)
    assert steps[0] == 1
    with step_budget(0), pytest.raises(StepBudgetExceeded):
        free_resolution(handle)


def test_shifts_are_consistent(ring4):
    X, Y, Z, W = ring4.gens()
    cat = PolyMatrix(ring4, ((X, Y, Z), (Y, Z, W)))
    handle = IdealHandle(ring4, cat.minors(2))
    frame = free_resolution(handle)
    res = minimized_free_resolution(presentation_of_ideal(handle))
    assert frame.shifts == res.shifts
    assert res.shifts[0] == (0,)
    assert res.shifts[1] == (2, 2, 2)
    assert res.shifts[2] == (3, 3)
    for stage, d in enumerate(res.differentials):
        for j in range(d.ncols):
            for i in range(d.nrows):
                p = d.entry(i, j)
                if not p.is_zero:
                    assert (p.weighted_degree_info()[1]
                            + res.shifts[stage][i]
                            == res.shifts[stage + 1][j])


def test_hilbert_series_crosscheck():
    # the graded Schreyer frame and the leading-term ideal must produce
    # the same Hilbert numerator: validates exactness, ranks, and shifts
    from oracles import (hilbert_numerator_from_leading_terms,
                         hilbert_numerator_from_resolution)
    ctx6 = VariableContext(("X", "Y", "Z", "T1", "T2", "T3"))
    cone_rees = IdealHandle(ctx6, [P(ctx6, "X*Y - Z^2"),
                                   P(ctx6, "Y*T1 + X*T2 - 2*Z*T3")])
    ctx4 = VariableContext(("X", "Y", "T1", "T2"))
    x, y, t1, t2 = ctx4.gens()
    cross_rees = IdealHandle(ctx4, [x * y, x * t2, y * t1, t1 * t2])
    ctxw = VariableContext(("X", "Y", "Z", "W"))
    X, Y, Z, W = ctxw.gens()
    cat = PolyMatrix(ctxw, ((X, Y, Z), (Y, Z, W)))
    catalecticant = IdealHandle(ctxw, cat.minors(2))
    for handle in (cone_rees, cross_rees, catalecticant):
        res = free_resolution(handle)
        assert (hilbert_numerator_from_resolution(res)
                == hilbert_numerator_from_leading_terms(handle))


def test_resolution_fuzz_invariants():
    from conftest import random_homogeneous
    from oracles import (hilbert_numerator_from_leading_terms,
                         hilbert_numerator_from_resolution)
    rng = random.Random(61)
    done = 0
    while done < 15:
        n = rng.randint(2, 4)
        ctx = VariableContext(tuple(f"X{i}" for i in range(n)))
        gens = []
        for _ in range(rng.randint(1, 3)):
            try:
                gens.append(random_homogeneous(rng, ctx, rng.randint(1, 3),
                                               max_terms=3))
            except ValueError:
                pass
        handle = IdealHandle(ctx, gens)
        if handle.is_unit() or not handle.generators:
            continue
        res = free_resolution(handle)
        assert minimized_free_resolution(
            presentation_of_ideal(handle)).complex.is_complex()
        assert res.pd <= n
        rep = depth_and_cm(handle)
        assert rep.depth + rep.projective_dimension == n
        assert 0 <= rep.depth <= rep.dimension
        assert (hilbert_numerator_from_resolution(res)
                == hilbert_numerator_from_leading_terms(handle))
        done += 1
