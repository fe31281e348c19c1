"""Fitting ideals of the differential module and the height machinery.

Includes the F_t condition globally and off the irrelevant maximal ideal,
the Euler-relation expansion of the corner minor (an exact identity used
as a hard self-check), and the last-rows minor comparison probe: whenever
the full minor ideal equals the one built from the last rows alone, its
height must drop below the quotient dimension.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations, product

from .groebner import IdealHandle
from .matrix import PolyMatrix


def fitting_ideal(algebra, i):
    """The i-th Fitting ideal of the differential module, i.e. the ideal of
    (n - i)-minors of the Jacobian presentation, reduced modulo the
    defining ideal as they are expanded, as the algebra's one handle per
    index (`GradedAlgebra.jacobian_minors`).  F_i = (1) once n - i <= 0
    and (0) when the requested minors outsize the matrix."""
    theta = algebra.jacobian_presentation()
    size = algebra.arity - i
    if size <= 0:
        return IdealHandle(algebra.context, [algebra.context.one])
    if size > min(theta.nrows, theta.ncols):
        return IdealHandle(algebra.context, [])
    return algebra.jacobian_minors(size)[1]


@dataclass(frozen=True)
class FittingRow:
    index: int                  # the i of F_i
    height: float               # height in R, +inf for the unit ideal
    height_off_irrelevant: float  # +inf when dim R/F_i <= 0, else height

    def bound(self, t, rank):
        return self.index - rank + t + 1


@dataclass(frozen=True)
class FittingProfile:
    rank: int
    rows: tuple


def height_json(h):
    """A height as JSON: an int, or "inf" for the unit ideal."""
    return "inf" if h == float("inf") else h


@dataclass(frozen=True)
class FtVerdict:
    t: int
    holds: bool
    failing_index: int | None = None
    required: int | None = None
    actual: float | None = None

    def to_dict(self):
        """The report form: {t, holds}, plus a witness {i, required,
        actual} when the condition fails."""
        out = {"t": self.t, "holds": self.holds}
        if not self.holds:
            out["witness"] = {"i": self.failing_index,
                              "required": self.required,
                              "actual": height_json(self.actual)}
        return out


def fitting_profile(algebra):
    """Heights of F_i for i in [rank, n-1], plus the heights after removing
    the components supported on the irrelevant maximal ideal.

    The second height needs no saturation: for a homogeneous ideal J,
    (J : m^inf) is the unit ideal iff dim P/J <= 0, and otherwise it has
    the dimension of J.  So it is +inf when ht F_i >= dim R, which is
    dim P/(I + F_i) <= 0, and ht F_i otherwise."""
    n, e = algebra.arity, algebra.dimension
    rows = []
    for i in range(e, n):
        height = algebra.height_of(fitting_ideal(algebra, i))
        off = float("inf") if height >= algebra.dimension else height
        rows.append(FittingRow(i, height, off))
    heights = [r.height for r in rows]
    if heights != sorted(heights):
        raise AssertionError(f"Fitting heights must increase: {heights}")
    return FittingProfile(rank=e, rows=tuple(rows))


def ft_condition(algebra, t):
    """True iff ht F_i >= i - e + t + 1 for every i in [e, n-1]."""
    return _ft_verdict(algebra, t, off_irrelevant=False)


def ft_condition_off_irrelevant(algebra, t):
    """The F_t inequality checked away from the irrelevant maximal ideal,
    on the heights off it: a row also passes when dim R/F_i <= 0, where
    F_i cuts out at most the vertex, so every failing prime contains the
    irrelevant ideal (see `fitting_profile`)."""
    return _ft_verdict(algebra, t, off_irrelevant=True)


def _ft_verdict(algebra, t, off_irrelevant):
    """The verdict on the algebra's Fitting profile, whose heights the
    algebra caches, so recomputing the profile builds no basis."""
    profile = fitting_profile(algebra)
    for row in profile.rows:
        bound = row.bound(t, profile.rank)
        height = row.height_off_irrelevant if off_irrelevant else row.height
        if height < bound:
            return FtVerdict(t, False, failing_index=row.index,
                             required=bound, actual=height)
    return FtVerdict(t, True)


# ---------------------------------------------------------------------------

def last_rows_size(algebra):
    """The size t = n - 2d + 1 of the last-rows block of the Jacobian
    presentation, its last t rows; a ValueError unless d >= 2 and
    n >= 2d."""
    n, d = algebra.arity, algebra.dimension
    if not (d >= 2 and n >= 2 * d):
        raise ValueError(f"the last-rows block needs dimension >= 2 and "
                         f"n >= 2*dimension; got n = {n}, dimension {d}")
    return n - 2 * d + 1


def euler_minor_identity(algebra):
    """Residual of the Euler-relation expansion of the corner minor.

    With t = n - 2d + 1 and theta the Jacobian presentation, the weighted
    Euler relations turn the Laplace expansion of the minor on the last t
    rows (first t columns) into a combination of one-row-swapped minors:

        w_n x_n D[2d..n]  =  (-1)^t  sum_i w_i x_i D[i, 2d..n-1]

    over rows listed in sequence order.  The returned polynomial is the
    difference of the two sides reduced modulo the defining ideal and must
    be identically zero; the sign convention is fixed by our own expansion.

    A row i >= 2d - 1 repeats a row of D[2d..n-1], a zero minor; any other
    precedes them, so its rows are sorted.  The minors are the algebra's
    t-minors, reduced modulo I as the residual is, so it is unchanged.
    """
    n, d = algebra.arity, algebra.dimension
    t = last_rows_size(algebra)
    ctx = algebra.context
    theta = algebra.jacobian_presentation()
    cols = tuple(range(t))
    minor = dict(zip(product(combinations(range(n), t),
                             combinations(range(theta.ncols), t)),
                     algebra.jacobian_minors(t)[0]))
    middle = tuple(range(2 * d - 1, n - 1))
    lhs = ctx.gen(n - 1) * minor[middle + (n - 1,), cols] * ctx.weights[n - 1]
    rhs = ctx.zero
    for i in range(2 * d - 1):
        det = minor[(i,) + middle, cols]
        if det.is_zero:
            continue
        rhs = rhs + ctx.gen(i) * det * ctx.weights[i]
    if t % 2:
        rhs = -rhs
    return algebra.reduce(lhs - rhs)


@dataclass(frozen=True)
class RowOpTrial:
    ideals_equal: bool
    height_full: float
    implication_holds: bool


@dataclass(frozen=True)
class LastRowsProbe:
    t: int
    ideals_equal: bool
    height_full: float
    height_last_rows: float
    implication_holds: bool
    row_op_trials: tuple = field(default_factory=tuple)


def last_rows_probe(algebra, rowops=0, seed=0):
    """Compare the ideal of t x t minors of the Jacobian presentation with
    the one generated by its last t rows, t = n - 2d + 1.

    The probe asserts the implication "equal ideals => height < d" via its
    contrapositive and can repeat after random invertible integer row
    operations (entries in [-3, 3]).  A trial U reuses the base height:
    by Cauchy-Binet every t-minor of U theta is a Q-combination of those
    of theta and back, as U is invertible over Q, so I_t(U theta) =
    I_t(theta), and a trial builds only the basis of its last-rows sum.
    The minors of theta are the algebra's t-minors, which
    `euler_minor_identity` reads too.
    """
    d = algebra.dimension
    t = last_rows_size(algebra)
    theta = algebra.jacobian_presentation()
    ctx = algebra.context

    def compare(minors):
        # minors(t) runs over row sets in lexicographic order, so its last
        # C(ncols, t) entries are the minors of the last t rows
        full = IdealHandle(ctx, minors)
        last = IdealHandle(ctx,
                           minors[len(minors) - math.comb(theta.ncols, t):])
        equal = algebra.ideal_sum(full).equals(algebra.ideal_sum(last))
        return equal, full, last

    equal, full, last = compare(algebra.jacobian_minors(t)[0])
    height_full = algebra.height_of(full)
    height_last = algebra.height_of(last)
    trials = []
    rng = random.Random(seed)
    for _ in range(rowops):
        turned = _random_invertible(rng, ctx) @ theta
        eq_u = compare(turned.minors(t, modulo=algebra.defining_ideal))[0]
        trials.append(RowOpTrial(eq_u, height_full,
                                 (not eq_u) or height_full < d))
    return LastRowsProbe(t=t, ideals_equal=equal, height_full=height_full,
                         height_last_rows=height_last,
                         implication_holds=((not equal) or height_full < d)
                         and all(tr.implication_holds for tr in trials),
                         row_op_trials=tuple(trials))


def _random_invertible(rng, context):
    """A constant n x n matrix over `context`, n its arity, with entries
    drawn from [-3, 3] row by row until its determinant is nonzero."""
    n = context.arity
    while True:
        u = PolyMatrix(context, [[context.constant(rng.randint(-3, 3))
                                  for _ in range(n)] for _ in range(n)])
        if not u.minor(range(n), range(n)).is_zero:
            return u
