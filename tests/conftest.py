import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from diffrees.algebra import GradedAlgebra
from diffrees.casefile import CaseFile, load_case
from diffrees.poly import Polynomial, VariableContext, parse_polynomial
from diffrees.sampler import monomials_of_degree, probe_corpus


# (variables, dimension, max relation degree, seed of random_graded_ci):
# the random-ci draws of the benchmark that run to the end of the pipeline.
REES_RANDOM_CI_SHAPES = ((4, 3, 3, 0), (4, 3, 3, 1), (5, 4, 3, 0),
                         (5, 4, 3, 1), (4, 2, 3, 0), (4, 2, 3, 4),
                         (5, 3, 3, 2), (5, 3, 3, 4))


def P(ctx, text):
    return parse_polynomial(ctx, text)


def random_homogeneous(rng, context, degree, max_terms=None):
    """Random nonzero homogeneous polynomial of the given weighted degree."""
    pool = monomials_of_degree(context, degree)
    if not pool:
        raise ValueError(f"no monomials of weighted degree {degree}")
    count = rng.randint(1, len(pool) if max_terms is None
                        else min(max_terms, len(pool)))
    chosen = rng.sample(pool, count)
    terms = []
    for e in chosen:
        c = 0
        while c == 0:
            c = rng.randint(-4, 4)
        terms.append((e, c))
    return Polynomial.from_terms(context, terms)


def shipped_case_files(cases_dir):
    return [load_case(str(p)) for p in sorted(cases_dir.iterdir(),
                                              key=lambda p: p.name)
            if p.name.endswith(".case")]


def shipped_algebras(cases_dir):
    return [GradedAlgebra.validate(case.context, case.relations)
            for case in shipped_case_files(cases_dir)]


@contextmanager
def built_orders():
    """The orders of the basis builds inside the block, in order: every
    build starts in `IdealHandle._build`."""
    from diffrees.groebner import IdealHandle
    orders = []
    build = IdealHandle._build

    def recording(handle, order, certify=False):
        orders.append(order)
        return build(handle, order, certify)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IdealHandle, "_build", recording)
        yield orders


def column_span_checker(matrix, shifts=None):
    """Membership in the column span of `matrix`, by `oracles.spans` in
    the flat term encoding of `resolution`; `shifts` are row degrees
    making its columns homogeneous."""
    from oracles import (ModulePresentation, columns_to_elements,
                         position_key, spans)
    ctx = matrix.context
    rank = matrix.nrows
    pres = ModulePresentation(ctx, rank, matrix, shifts)
    inside = spans(columns_to_elements(pres, rank), position_key(ctx),
                   ctx.weighted_degree)
    return lambda column: inside({e + (i, rank - 1 - i): c
                                  for i, p in enumerate(column)
                                  for e, c in p.terms})


@st.composite
def homogeneous_ideals(draw, weighted):
    """A context of 2-3 variables and 1-3 homogeneous generators with at
    most three terms each; weighted draws keep X1 of weight 1."""
    n = draw(st.integers(2, 3))
    weights = (1,) + tuple(draw(st.integers(1, 2)) if weighted else 1
                           for _ in range(n - 1))
    ctx = VariableContext(tuple(f"X{i + 1}" for i in range(n)), weights)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        pool = monomials_of_degree(ctx, draw(st.integers(2, 3)))
        chosen = draw(st.lists(st.sampled_from(pool), min_size=1,
                               max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3).filter(bool),
                               min_size=len(chosen), max_size=len(chosen)))
        gens.append(Polynomial.from_terms(ctx, zip(chosen, coeffs)))
    return ctx, gens


@st.composite
def inhomogeneous_ideals(draw):
    """A context of 2-3 variables and 1-3 generators with at most three
    terms each, of total degree at most 3, constants allowed."""
    n = draw(st.integers(2, 3))
    ctx = VariableContext(tuple(f"X{i + 1}" for i in range(n)))
    pool = [e for d in range(4) for e in monomials_of_degree(ctx, d)]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(st.sampled_from(pool),
                                     st.integers(-3, 3).filter(bool),
                                     min_size=1, max_size=3))
        gens.append(Polynomial.from_terms(ctx, terms.items()))
    return ctx, gens


@pytest.fixture(scope="session")
def shipped_cases(cases_dir):
    return shipped_case_files(cases_dir)


def probe_case_files():
    """The first eight instances of `probe_corpus(0, ...)`, in prop31
    mode."""
    return [CaseFile(name, algebra.context, algebra.relations, mode="prop31")
            for name, algebra in probe_corpus(seed=0, count=8)]


@pytest.fixture(scope="session")
def probe_cases():
    return probe_case_files()


@pytest.fixture(scope="session")
def xyz():
    return VariableContext(("X", "Y", "Z"))


@pytest.fixture(scope="session")
def quadric_cone(xyz):
    return GradedAlgebra.validate(xyz, [P(xyz, "X*Y - Z^2")])


@pytest.fixture(scope="session")
def coordinate_cross():
    ctx = VariableContext(("X", "Y"))
    return GradedAlgebra.validate(ctx, [P(ctx, "X*Y")])


@pytest.fixture(scope="session")
def curve_cone():
    ctx = VariableContext(("X1", "X2", "X3", "X4"))
    return GradedAlgebra.validate(ctx, [
        P(ctx, "X1^2 + X2^2 + X3^2 + X4^2"),
        P(ctx, "X1^2 + 2*X2^2 + 3*X3^2 + 4*X4^2"),
    ])


@pytest.fixture(scope="session")
def surface_cone():
    ctx = VariableContext(("X", "Y", "Z", "W"))
    return GradedAlgebra.validate(ctx, [P(ctx, "X*W - Y*Z")])


@pytest.fixture(scope="session")
def cases_dir():
    from importlib import resources
    return resources.files("diffrees") / "cases"
