"""Symmetric and Rees algebras of the differential module.

The symmetric algebra is presented over the base ring extended by one
T-variable per module generator; the Rees algebra is the quotient by the
torsion.  The torsion is killed by a power of any element that is regular
on the base ring and lies in the radical of I + F_e, F_e the top Fitting
ideal (the module becomes free once it is inverted), so the Rees ideal is
the saturation by such an element.  Every saturation is a Bayer-Stillman
division of one degrevlex basis: at a base variable that qualifies, or,
when none does, at a variable z adjoined for the seeded random test
element g (drawn and reported in any case) and mapped back by z := g.
The pipeline's algebras are standard graded, so J and g are homogeneous.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NotReducedError, TestElementSearchError
from .fitting import fitting_ideal
from .groebner import IdealHandle
from .poly import Polynomial, VariableContext, lift_to_extended


@dataclass(frozen=True)
class SymmetricPresentation:
    """Defining data of the symmetric algebra over the extended ring."""

    algebra: object
    extended_context: VariableContext
    ideal: IdealHandle              # lifted relations + linear forms

    @property
    def is_complete_intersection(self):
        """Whether J's height is its generator count; read after the Rees
        stage, from the basis of J it cached (`krull_dimension`)."""
        dim = self.ideal.krull_dimension().dimension
        return self.extended_context.arity - dim == len(self.ideal.generators)


@dataclass(frozen=True)
class ReesPresentation:
    symmetric: SymmetricPresentation
    ideal: IdealHandle              # the saturated (Rees) ideal
    test_element: Polynomial        # in the base ring
    torsion_generators: tuple       # basis elements of the Rees ideal
    #   that do not lie in the symmetric-algebra ideal


def extended_context(ctx):
    """Base variables followed by T-variables, one per module generator
    dX_i, so one per base variable.

    T_i carries the weight of X_i, which keeps each linear form
    sum_i (df_j/dX_i) T_i homogeneous of the degree of f_j; under standard
    grading every T-weight is 1.
    """
    t_names = ctx.fresh_names("T", ctx.arity)
    return VariableContext(ctx.names + t_names, ctx.weights + ctx.weights)


def symmetric_presentation(algebra):
    """Present the symmetric algebra; whether its defining ideal is a
    complete intersection is read on request, and builds no basis here.

    The linear forms read the Jacobian entries reduced modulo I; they
    differ from the raw derivatives by elements of I*P[T], which the
    lifted relations generate, so the ideal is the same."""
    ctx = algebra.context
    big = extended_context(ctx)
    n = ctx.arity
    theta = algebra.jacobian_presentation()
    lifted = tuple(lift_to_extended(f, big) for f in algebra.relations)
    forms = []
    for j in range(theta.ncols):
        acc = big.zero
        for i in range(n):
            entry = theta.entry(i, j)
            if entry.is_zero:
                continue
            acc = acc + lift_to_extended(entry, big) * big.gen(n + i)
        forms.append(acc)
    return SymmetricPresentation(
        algebra=algebra, extended_context=big,
        ideal=IdealHandle(big, lifted + tuple(forms)))


TEST_ELEMENT_DRAWS = 64


def find_test_element(algebra, seed=0):
    """Random small-integer combination of the maximal minors of the
    Jacobian presentation, reduced modulo I as they are expanded, that is
    a nonzerodivisor on the base ring.

    The draw is seeded, so runs are reproducible; exhausting the retry
    bound signals either a non-reduced input or an unlucky seed.
    """
    if not algebra.is_reduced():
        raise NotReducedError(
            "torsion is only defined over a reduced base; refusing")
    c = algebra.codimension
    candidates = ([algebra.context.one] if c == 0 else
                  algebra.jacobian_minors(c)[0])
    rng = random.Random(seed)
    for _ in range(TEST_ELEMENT_DRAWS):
        coeffs = [rng.randint(-3, 3) for _ in candidates]
        g = algebra.context.zero
        for co, m in zip(coeffs, candidates):
            if co and not m.is_zero:
                g = g + m * co
        if g.is_zero:
            continue
        if algebra.nonzerodivisor_check(g):
            return g
    raise TestElementSearchError(
        f"no nonzerodivisor test element found in {TEST_ELEMENT_DRAWS} "
        "draws; try another --seed")


def kills_torsion(algebra, j):
    """Whether the base variable X_j (index j) is (a) regular on R and
    (b) in the radical of I + F_e, F_e = `fitting_ideal(algebra, e)`,
    e = dim R.  Off V(I + F_e) the differential module is free, so the
    torsion of its symmetric algebra is supported in V(I + F_e), which
    (b) puts inside V(X_j); by (a) every element that a power of X_j
    kills is torsion.  So J : X_j^inf is the Rees ideal, as J : g^inf is
    for the test element g.  (b) holds for every variable when
    dim P/(I + F_e) <= 0 (that dimension is cached by the Fitting
    profile), and is otherwise tested as (I + F_e) : X_j^inf = (1)."""
    x = algebra.context.gen(j)
    if not algebra.nonzerodivisor_check(x):
        return False
    fe = fitting_ideal(algebra, algebra.dimension)
    return (algebra.height_of(fe) >= algebra.dimension
            or algebra.ideal_sum(fe).saturation(x).is_unit())


def saturating_variable(algebra):
    """The index of the last base variable that `kills_torsion`, trying
    X_n down to X_1, or None when none does."""
    return next((j for j in reversed(range(algebra.arity))
                 if kills_torsion(algebra, j)), None)


def rees_ideal(algebra, seed=0, symmetric=None):
    """Saturate the symmetric-algebra ideal J by an element that kills
    its torsion; the extra basis elements generate the torsion.

    The test element g is drawn and reported in any case, which also
    refuses a non-reduced base.  When a base variable X_j qualifies
    (`saturating_variable`) the saturation is J : X_j^inf, read off one
    degrevlex basis of J with X_j ranked last; otherwise it is J : g^inf,
    read off one of J + (z - g) with z ranked last
    (`IdealHandle.saturation`).  The torsion tests read the first basis
    of J cached (`IdealHandle.contains`): at X_j, the divided one."""
    sym = symmetric or symmetric_presentation(algebra)
    g = find_test_element(algebra, seed=seed)
    j = saturating_variable(algebra)
    by = g if j is None else algebra.context.gen(j)
    saturated = sym.ideal.saturation(lift_to_extended(by,
                                                      sym.extended_context))
    torsion = tuple(h for h in saturated.groebner_basis()
                    if not sym.ideal.contains(h))
    return ReesPresentation(symmetric=sym, ideal=saturated, test_element=g,
                            torsion_generators=torsion)


def is_linear_type(rees):
    """True iff the symmetric algebra is already torsion-free.  J lies in
    J : g^inf, and `rees_ideal` tested every basis element of the
    saturation for membership in J, so the two are equal iff there are no
    torsion generators."""
    return not rees.torsion_generators


@dataclass(frozen=True)
class SpreadRecord:
    value: int
    lower: int                  # rank
    upper: int                  # dim R + rank - 1
    generator_bound: int        # mu = number of module generators
    bounds_ok: bool
    rees_dimension: int


def analytic_spread(rees):
    """Dimension of the special fiber (the Rees algebra modulo the base
    variables), with the inequality checks it must satisfy."""
    algebra = rees.symmetric.algebra
    big = rees.symmetric.extended_context
    n = algebra.arity
    d = algebra.dimension
    e = d
    fiber = rees.ideal + IdealHandle(big, [big.gen(i) for i in range(n)])
    value = fiber.krull_dimension().dimension
    rdim = rees.ideal.krull_dimension().dimension
    lower, upper = e, d + e - 1
    ok = (lower <= value <= upper) and value <= n and rdim == d + e
    return SpreadRecord(value=value, lower=lower, upper=upper,
                        generator_bound=n, bounds_ok=ok, rees_dimension=rdim)
