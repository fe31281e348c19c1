"""Seeded random instances: graded complete intersections for the
property suites and the benchmark."""

from __future__ import annotations

import random

from .algebra import GradedAlgebra
from .errors import ValidationError
from .poly import Polynomial, VariableContext


def monomials_of_degree(context, degree):
    """All exponent tuples of the given weighted degree."""
    out = []

    def rec(i, remaining, prefix):
        if i == context.arity - 1:
            w = context.weights[i]
            if remaining % w == 0:
                out.append(prefix + (remaining // w,))
            return
        w = context.weights[i]
        for e in range(remaining // w + 1):
            rec(i + 1, remaining - e * w, prefix + (e,))

    rec(0, degree, ())
    return out


def random_graded_ci(rng, n, d, max_degree=3, mixed_terms=1, attempts=200):
    """Random standard-graded complete intersection with n variables and
    dimension d.

    Relations are diagonal forms with a few optional mixed monomials; the
    draw is repeated until validation accepts a regular sequence.
    """
    ctx = VariableContext(tuple(f"X{i + 1}" for i in range(n)))
    c = n - d
    for _ in range(attempts):
        relations = []
        for _j in range(c):
            deg = rng.randint(2, max_degree)
            terms = []
            for i in range(n):
                a = 0
                while a == 0:
                    a = rng.randint(-4, 4)
                e = [0] * n
                e[i] = deg
                terms.append((tuple(e), a))
            for _extra in range(rng.randint(0, mixed_terms)):
                pool = monomials_of_degree(ctx, deg)
                e = rng.choice(pool)
                terms.append((e, rng.randint(-2, 2)))
            relations.append(Polynomial.from_terms(ctx, terms))
        try:
            return GradedAlgebra.validate(ctx, relations)
        except ValidationError:
            continue
    raise RuntimeError(f"no valid complete intersection drawn in "
                       f"{attempts} attempts")


def probe_corpus(seed=0, count=20):
    """Instances for the last-rows minor probe: dimension >= 2 and at
    least twice as many variables as the dimension, at most six variables.

    The shape mix keeps most cases small; the six-variable draws use pure
    diagonal relations so their minor ideals stay monomial-sized.
    """
    rng = random.Random(seed)
    shapes = []
    while len(shapes) < count:
        shapes.append((4, 2, 1))
        if len(shapes) < count:
            shapes.append((4, 2, 2))
        if len(shapes) < count:
            shapes.append((5, 2, 1))
        if len(shapes) < count:
            shapes.append((6, 2, 0))
    out = []
    for idx, (n, d, mixed) in enumerate(shapes[:count]):
        algebra = random_graded_ci(rng, n, d, mixed_terms=mixed)
        out.append((f"random-ci-{idx:02d}-n{n}d{d}", algebra))
    return out
