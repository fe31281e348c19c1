import random
from itertools import combinations
from math import comb

import pytest

from diffrees.eagon_northcott import (FreeComplex, build_en, en_acyclicity,
                                      koszul_complex)
from diffrees.groebner import IdealHandle
from diffrees.matrix import PolyMatrix
from diffrees.poly import VariableContext

from conftest import column_span_checker, random_homogeneous
from oracles import ModulePresentation, column, syzygies



@pytest.fixture(scope="module")
def ring4():
    return VariableContext(("X", "Y", "Z", "W"))


@pytest.fixture(scope="module")
def catalecticant(ring4):
    X, Y, Z, W = ring4.gens()
    return PolyMatrix(ring4, ((X, Y, Z), (Y, Z, W)))


def test_one_row_is_koszul(ring4):
    X, Y, Z, _ = ring4.gens()
    row = PolyMatrix(ring4, ((X, Y, Z),))
    en = build_en(row)
    kz = koszul_complex((X, Y, Z))
    assert en.ranks == kz.ranks
    assert en.differentials == kz.differentials


def test_one_row_koszul_random(ring4):
    rng = random.Random(31)
    for m in (2, 4, 5):
        entries = tuple(random_homogeneous(rng, ring4, rng.randint(1, 2),
                                           max_terms=2) for _ in range(m))
        en = build_en(PolyMatrix(ring4, (entries,)))
        kz = koszul_complex(entries)
        assert en.ranks == kz.ranks
        assert en.differentials == kz.differentials


def test_catalecticant_complex(catalecticant):
    en = build_en(catalecticant)
    assert en.ranks == (1, 3, 2)
    assert en.is_complex()
    d1 = en.differentials[0].row(0)
    minors = catalecticant.minors(2)
    # same entries up to the fixed sign convention
    assert [p if p in minors else -p for p in d1] == minors


def test_first_differential_is_one_minors_call(monkeypatch):
    """d_1 is the row of maximal minors by column subset in lex order,
    minor by minor, and `build_en` reads it off one `minors` call."""
    rng = random.Random(43)
    ctx = VariableContext(("X", "Y", "Z"))
    calls = []
    minors = PolyMatrix.minors

    def counted(matrix, *args, **kwargs):
        calls.append(args)
        return minors(matrix, *args, **kwargs)

    for t in (1, 2, 3):
        for m in range(t, 6):
            matrix = PolyMatrix(ctx, tuple(
                tuple(random_homogeneous(rng, ctx, 1, max_terms=2)
                      for _ in range(m)) for _ in range(t)))
            with monkeypatch.context() as patch:
                patch.setattr(PolyMatrix, "minors", counted)
                calls.clear()
                d1 = build_en(matrix).differentials[0]
                assert calls == [(t,)]
            assert list(d1.row(0)) == [matrix.minor(range(t), cols)
                                       for cols in combinations(range(m), t)]


def en_rank(m, t, i):
    """Independent counting formula for the stage-i rank of the complex of
    a t x m matrix: choose the exterior subset, then a symmetric exponent."""
    if i == 0:
        return 1
    return comb(m, t + i - 1) * comb(t + i - 2, t - 1)


def test_rank_formula_against_counting():
    ctx = VariableContext(("A", "B"))
    a, b = ctx.gens()
    rng = random.Random(7)
    for t in (1, 2, 3):
        for m in range(t, 6):
            entries = tuple(tuple(ctx.constant(rng.randint(1, 5)) * a
                                  for _ in range(m)) for _ in range(t))
            matrix = PolyMatrix(ctx, entries)
            en = build_en(matrix)
            assert len(en.ranks) == m - t + 2
            for i, rank in enumerate(en.ranks):
                assert rank == en_rank(m, t, i)


def test_t2_m4_ranks(ring4):
    X, Y, Z, W = ring4.gens()
    matrix = PolyMatrix(ring4, ((X, Y, Z, W), (Y, Z, W, X)))
    en = build_en(matrix)
    assert en.ranks == (1, 6, 8, 3)
    assert en.is_complex()


def test_complexes_up_to_3x5():
    rng = random.Random(41)
    ctx = VariableContext(("X", "Y", "Z"))
    for t in (1, 2, 3):
        for m in range(t, 6):
            entries = tuple(tuple(random_homogeneous(rng, ctx, 2,
                                                     max_terms=2)
                                  for _ in range(m)) for _ in range(t))
            en = build_en(PolyMatrix(ctx, entries))
            assert en.is_complex()


def test_corrupted_sign_fails(catalecticant):
    en = build_en(catalecticant)
    d2 = en.differentials[1]
    rows = [list(r) for r in d2.entries]
    rows[0][0] = -rows[0][0]
    bad = FreeComplex(en.ranks,
                      (en.differentials[0],
                       PolyMatrix(d2.context, tuple(tuple(r) for r in rows))),
                      en.basis_labels)
    assert not bad.is_complex()


def test_acyclicity_catalecticant(catalecticant):
    record = en_acyclicity(catalecticant)
    assert record.minor_height == 2
    assert record.bound == 2
    assert record.criterion_met


def test_acyclicity_negative_control():
    ctx = VariableContext(("X", "Y"))
    X, _ = ctx.gens()
    record = en_acyclicity(PolyMatrix(ctx, ((X, X),)))
    assert record.minor_height == 1
    assert record.bound == 2
    assert not record.criterion_met


def test_acyclicity_in_quotient(curve_cone):
    # last-rows block of the curve cone: bound m - t + 1 equals dim
    theta = curve_cone.jacobian_presentation()
    n, d = curve_cone.arity, curve_cone.dimension
    t = n - 2 * d + 1
    block = theta.submatrix(range(n - t, n), range(theta.ncols))
    record = en_acyclicity(block, curve_cone)
    assert record.bound == curve_cone.dimension


def test_d2_first_row_metadata(catalecticant):
    """Every entry of the d_2 row indexed by the leading column subset
    lies in the ideal of the entries of the columns from the third on."""
    en = build_en(catalecticant)
    tail = IdealHandle(catalecticant.context,
                       [catalecticant.entry(i, j)
                        for i in range(catalecticant.nrows)
                        for j in range(2, catalecticant.ncols)])
    assert all(tail.contains(p) for p in en.differentials[1].row(0))


def test_exactness_crosscheck_with_syzygies(catalecticant):
    # where the height criterion holds, every syzygy of d_1 lies in the
    # column span of d_2
    en = build_en(catalecticant)
    assert en_acyclicity(catalecticant).criterion_met
    ctx = catalecticant.context
    d1 = en.differentials[0]
    d2 = en.differentials[1]
    syz = syzygies(ModulePresentation(ctx, 1, d1))
    span = column_span_checker(d2)
    for j in range(syz.matrix.ncols):
        assert span(column(syz.matrix, j))


def test_exactness_crosscheck_on_last_rows_block():
    # a last-rows block whose minor ideal attains the bound in the
    # quotient: kernel elements of d_1 modulo the relations lie in the
    # span of d_2 plus the relation multiples
    from diffrees.poly import parse_polynomial
    ctx = VariableContext(("X1", "X2", "X3", "X4"))
    f1 = parse_polynomial(ctx, "X1^2 + X3^2 + X1*X4")
    f2 = parse_polynomial(ctx, "X2^2 + X4^2")
    from diffrees.algebra import GradedAlgebra
    algebra = GradedAlgebra.validate(ctx, [f1, f2])
    n, d = algebra.arity, algebra.dimension
    t = n - 2 * d + 1
    theta = algebra.jacobian_presentation()
    block = theta.submatrix(range(n - t, n), range(theta.ncols))
    record = en_acyclicity(block, algebra)
    assert record.criterion_met and record.minor_height == 2
    en = build_en(block)
    d1, d2 = en.differentials
    # kernel of d_1 over the quotient = syzygies of (minors | relations)
    augmented = PolyMatrix(ctx, (tuple(d1.row(0)) + (f1, f2),))
    syz = syzygies(ModulePresentation(ctx, 1, augmented))
    span_cols = [column(d2, j) for j in range(d2.ncols)]
    for f in (f1, f2):
        for i in range(d1.ncols):
            col = [ctx.zero] * d1.ncols
            col[i] = f
            span_cols.append(tuple(col))
    span = column_span_checker(PolyMatrix(ctx, tuple(zip(*span_cols))))
    for j in range(syz.matrix.ncols):
        kernel_vector = [syz.matrix.entry(i, j) for i in range(d1.ncols)]
        assert span(tuple(kernel_vector))
