"""The minors engine against the Laplace expansion it replaced.

`PolyMatrix.minors` expands on packed monomials with int coefficients,
each column scaled to integers, and with `modulo` hands each minor to the
normal form of the ideal's prepared reducers.  It must give the
`Polynomial` expansion of `oracles.laplace_minors` exactly, and modulo an
ideal the polynomial `normal_form` gives for each of those minors, for
the same steps.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from diffrees.errors import ExponentOverflowError
from diffrees.groebner import IdealHandle, _steps, step_budget
from diffrees.matrix import PolyMatrix
from diffrees.poly import EXPONENT_LIMIT, Polynomial, VariableContext

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _polynomials(ctx, max_terms):
    term = st.tuples(
        st.tuples(*[st.integers(0, 2)] * ctx.arity),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
    return st.lists(term, max_size=max_terms).map(
        lambda terms: Polynomial.from_terms(ctx, terms))


@st.composite
def minor_draws(draw):
    """(matrix, size, row pool, column pool, generators of an ideal):
    entries with Fraction coefficients, about a third of them zero, and
    pools that are subsets of the rows and columns in any order."""
    ctx = VariableContext(("X", "Y", "Z")[:draw(st.integers(1, 3))])
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.one_of(st.just(ctx.zero), _polynomials(ctx, 3),
                      _polynomials(ctx, 3))
    matrix = PolyMatrix(ctx, [[draw(entry) for _ in range(ncols)]
                              for _ in range(nrows)])
    rows = draw(st.permutations(range(nrows)))[:draw(st.integers(0, nrows))]
    cols = draw(st.permutations(range(ncols)))[:draw(st.integers(0, ncols))]
    size = draw(st.integers(0, min(len(rows), len(cols))))
    gens = draw(st.lists(_polynomials(ctx, 3), max_size=2))
    return matrix, size, tuple(rows), tuple(cols), gens


@_SETTINGS
@given(minor_draws())
def test_minors_match_the_laplace_oracle(draw):
    matrix, size, rows, cols, _ = draw
    expected = oracles.laplace_minors(matrix, size, rows, cols)
    assert matrix.minors(size, rows, cols) == expected
    if size:
        assert matrix.minor(rows[:size], cols[:size]) == expected[0]
        # the rows in sequence order are the rows of the determinant
        seq = tuple(reversed(rows[:size]))
        assert (oracles.signed_row_sequence_minor(matrix, seq, cols[:size])
                == oracles.laplace_minor(matrix, seq, cols[:size], {}))


def _spending(work):
    """The result of `work()` and the steps it spent."""
    with step_budget(None):
        counter = _steps()
        result = work()
        return result, counter.limit - counter.remaining


@_SETTINGS
@given(minor_draws())
def test_minors_modulo_match_normal_form(draw):
    """Each minor modulo I is the normal form of the oracle's minor, and
    the expansion spends the steps the separate normal forms spend; the
    basis of I is built before either is counted."""
    matrix, size, rows, cols, gens = draw
    expected = oracles.laplace_minors(matrix, size, rows, cols)
    reference = IdealHandle(matrix.context, gens)
    handle = IdealHandle(matrix.context, gens)
    reference.groebner_basis()
    handle.groebner_basis()
    forms, spent = _spending(
        lambda: [reference.normal_form(m) for m in expected])
    reduced, spent_here = _spending(
        lambda: matrix.minors(size, rows, cols, modulo=handle))
    assert reduced == forms
    assert spent_here == spent


def test_probe_jacobian_minors_match_the_oracle(probe_cases):
    """Every minor size of the Jacobian presentations of the probe
    instances, plain and modulo the defining ideal."""
    from diffrees.algebra import GradedAlgebra
    for case in probe_cases:
        algebra = GradedAlgebra.validate(case.context, case.relations)
        theta = algebra.jacobian_presentation()
        rows, cols = tuple(range(theta.nrows)), tuple(range(theta.ncols))
        for size in range(min(theta.shape) + 1):
            expected = oracles.laplace_minors(theta, size, rows, cols)
            assert theta.minors(size) == expected
            assert (theta.minors(size, modulo=algebra.defining_ideal)
                    == [algebra.reduce(m) for m in expected])


@pytest.mark.parametrize("variable", [0, 1, 2])
def test_a_product_exponent_reaching_2_31_raises(variable):
    """Entries with exponent 2^30 in one variable multiply to 2^31, which
    sets that field's guard bit, in the first, a middle and the last
    field.  Three diagonal entries with exponent 2^31 - 1 would carry out
    of the field at the third product, clearing the guard bit the second
    set, so the guard is tested at every product.  A product exponent of
    2^31 - 1 stays valid."""
    ctx = VariableContext(("X", "Y", "Z"))

    def power(exponent):
        e = [0, 0, 0]
        e[variable] = exponent
        return ctx.monomial(e)

    big = power(EXPONENT_LIMIT // 2)
    two = PolyMatrix(ctx, [[big, ctx.gen(0)], [ctx.zero, big]])
    top = power(EXPONENT_LIMIT - 1)
    three = PolyMatrix(ctx, [[top if i == j else ctx.zero for j in range(3)]
                             for i in range(3)])
    modulo = IdealHandle(ctx, [ctx.gen(1) ** 2])
    for matrix in (two, three):
        with pytest.raises(ExponentOverflowError):
            matrix.minors(matrix.nrows)
        with pytest.raises(ExponentOverflowError):
            matrix.minor(range(matrix.nrows), range(matrix.ncols))
        with pytest.raises(ExponentOverflowError):
            matrix.minors(matrix.nrows, modulo=modulo)
    fits = PolyMatrix(ctx, [[big, ctx.zero],
                            [ctx.zero, power(EXPONENT_LIMIT // 2 - 1)]])
    assert fits.minors(2) == [top]
