"""Validated graded complete intersections and their differential modules.

A GradedAlgebra is a quotient of a weighted polynomial ring over Q by a
homogeneous regular sequence with every relation inside the square of the
irrelevant maximal ideal.  Validation is total: every violated hypothesis
can be reported, not just the first one found.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError
from .fitting import fitting_ideal
from .groebner import IdealHandle
from .matrix import PolyMatrix


class ValidationIssue(NamedTuple):
    code: str
    message: str


class IrrelevantLocalData(NamedTuple):
    edim: int
    dim: int
    at_most_2d: bool       # edim <= 2*dim at the irrelevant maximal ideal
    at_most_2d_minus_1: bool


def validation_issues(context, relations):
    """All hypothesis violations for the would-be algebra, in a fixed order."""
    return _issues_and_ideal(context, relations)[0]


def _issues_and_ideal(context, relations):
    """The validation issues and the defining-ideal handle whose basis the
    regular-sequence check built (None when that check did not run)."""
    issues = []
    defining = None
    for idx, f in enumerate(relations):
        label = f"relation {idx + 1} ({f})"
        homogeneous, degree = f.weighted_degree_info()
        if f.is_zero:
            issues.append(ValidationIssue(
                "degree", f"{label}: zero relation is not allowed"))
            continue
        if not homogeneous:
            issues.append(ValidationIssue(
                "inhomogeneous", f"{label}: not homogeneous for weights "
                f"{context.weights}"))
            continue
        if degree < 2:
            issues.append(ValidationIssue(
                "degree", f"{label}: weighted degree {degree} < 2"))
        if f.min_total_degree is not None and f.min_total_degree < 2:
            issues.append(ValidationIssue(
                "linear-term", f"{label}: has a term of total degree < 2, "
                "so it escapes the square of the maximal ideal"))
    n = context.arity
    c = len(relations)
    if not any(i.code in ("inhomogeneous", "degree") for i in issues):
        defining = IdealHandle(context, relations)
        dim = defining.krull_dimension().dimension
        if dim != n - c:
            issues.append(ValidationIssue(
                "not-regular-sequence",
                f"relations are not a regular sequence: dim P/I = {dim}, "
                f"expected {n - c}"))
    if n - c < 1:
        issues.append(ValidationIssue(
            "dimension", f"quotient dimension would be {n - c} < 1"))
    return issues, defining


class GradedAlgebra:
    """A validated graded complete intersection R = Q[X]/(f_1..f_c)."""

    __slots__ = ("context", "relations", "defining_ideal", "dimension",
                 "codimension", "standard_graded", "relation_degrees",
                 "_presentation", "_minors", "_reduced", "_sums")

    def __init__(self, *_a, **_k):
        raise TypeError("use GradedAlgebra.validate(context, relations)")

    @classmethod
    def validate(cls, context, relations):
        """The validated algebra; raises a ValidationError with the first
        issue's message, carrying every issue as `.issues`."""
        relations = tuple(relations)
        issues, defining = _issues_and_ideal(context, relations)
        if issues:
            error = ValidationError(issues[0].message)
            error.issues = tuple(issues)
            raise error
        self = object.__new__(cls)
        self.context = context
        self.relations = relations
        self.defining_ideal = defining
        self.codimension = len(relations)
        self.dimension = context.arity - len(relations)
        self.standard_graded = context.is_standard_graded
        self.relation_degrees = tuple(f.weighted_degree_info()[1]
                                      for f in relations)
        self._presentation = None
        self._minors = {}
        self._reduced = None
        self._sums = {}
        return self

    @property
    def arity(self):
        return self.context.arity

    def reduce(self, p):
        """Normal form modulo the defining ideal (degrevlex)."""
        return self.defining_ideal.normal_form(p)

    # -- differential module -----------------------------------------------------

    def jacobian_presentation(self):
        """The presentation matrix theta of the differential module, the
        transposed Jacobian with entries reduced modulo the defining ideal:
        n rows, one per generator dX_i, and one column per relation.  The
        module has rank `dimension` whenever the rank hypotheses (reduced,
        equidimensional) hold."""
        if self._presentation is not None:
            return self._presentation
        ctx = self.context
        rows = [tuple(self.reduce(f.derivative(i)) for f in self.relations)
                for i in range(ctx.arity)]
        for row in rows:
            for p in row:
                if not p.is_zero and p.is_constant:
                    raise ArithmeticError(
                        "constant Jacobian entry contradicts relations in m^2")
        self._presentation = PolyMatrix(ctx, rows)
        return self._presentation

    def jacobian_minors(self, size):
        """The size x size minors of `theta` in `PolyMatrix.minors` order,
        reduced modulo the defining ideal as they are expanded, zeros
        included, and the handle of the ideal they generate: built once
        per size for the life of the algebra, so the Fitting ideals,
        reducedness and the test-element draws share them."""
        cached = self._minors.get(size)
        if cached is None:
            minors = tuple(self.jacobian_presentation().minors(
                size, modulo=self.defining_ideal))
            cached = self._minors[size] = (minors,
                                           IdealHandle(self.context, minors))
        return cached

    def euler_residuals(self):
        """For each relation f of weighted degree D the ambient polynomial
        sum_i w_i * X_i * df/dX_i - D*f; each residual must be zero."""
        ctx = self.context
        out = []
        for f, deg in zip(self.relations, self.relation_degrees):
            acc = ctx.zero
            for i in range(ctx.arity):
                acc = acc + ctx.gen(i) * f.derivative(i) * ctx.weights[i]
            residual = acc - f * deg
            if not residual.is_zero:
                raise ArithmeticError(
                    f"nonzero Euler residual for {f}: {residual}")
            out.append(residual)
        return tuple(out)

    def is_reduced(self):
        """Generic smoothness: the Jacobian ideal F_e, e = dim R, of
        c-minors must have height >= 1 in R; with the complete-intersection
        hypothesis this characterises reducedness in characteristic zero.
        F_e is the first row of the Fitting profile, so both share one
        handle of I + F_e."""
        if self._reduced is None:
            self._reduced = self.height_of(
                fitting_ideal(self, self.dimension)) >= 1
        return self._reduced

    def irrelevant_local_data(self):
        """Embedding dimension and dimension at the irrelevant maximal ideal,
        with the two inequality verdicts the pipeline reports."""
        n, d = self.arity, self.dimension
        return IrrelevantLocalData(edim=n, dim=d,
                                   at_most_2d=(n <= 2 * d),
                                   at_most_2d_minus_1=(n <= 2 * d - 1))

    # -- delegated ideal theory ----------------------------------------------------

    def ideal_sum(self, handle):
        """The ambient ideal I + J of an ideal J of P, one handle per
        distinct generator tuple of J for the life of the algebra, so each
        distinct sum has its bases built once."""
        total = self._sums.get(handle.generators)
        if total is None:
            total = self._sums[handle.generators] = \
                self.defining_ideal + handle
        return total

    def height_of(self, handle):
        """Height in R of an ideal given by ambient generators; the unit
        ideal has height +infinity.  A dimension difference is the height
        because R is a complete intersection, hence equidimensional and
        catenary.  dim P/(I + J) comes from `krull_dimension`, whose
        zero-dimensional certificate answers an m-primary sum, height
        dim R, without finishing its basis; a sum the certificate misses
        has its basis built once and cached."""
        dim = self.ideal_sum(handle).krull_dimension().dimension
        return float("inf") if dim < 0 else self.dimension - dim

    def nonzerodivisor_check(self, g):
        """Whether g is regular on R: it is iff it lies in no minimal prime
        of R, because
        R is a complete intersection, hence Cohen-Macaulay and unmixed; that
        is iff dim R/gR < dim R, i.e. iff g has height >= 1 in R.  No
        homogeneity of g is needed."""
        if g.is_zero or self.defining_ideal.contains(g):
            return False
        return self.height_of(IdealHandle(self.context, [g])) >= 1

    def __repr__(self):
        rels = ", ".join(str(f) for f in self.relations) or "0"
        return f"GradedAlgebra({'/'.join([repr(self.context), '(' + rels + ')'])})"

