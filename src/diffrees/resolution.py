"""Graded free resolutions by syzygies, with depth and Cohen-Macaulay tests.

Module elements run on the ring kernel of `groebner`: the term x^a e_c of
a free module of rank r is the flat exponent tuple a + (c, r-1-c), kept in
{term: Fraction} dicts.  Module Groebner bases use the position-over-term
extension of the ring order; syzygy stages use induced Schreyer orders, so
iterated stages only ever reduce S-pairs of families that are already
bases.  The tower is then minimized by cancelling constant entries, which
suffices to read off the projective dimension, and depth follows by graded
Auslander-Buchsbaum at the irrelevant maximal ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .eagon_northcott import FreeComplex
from .errors import ResolutionLengthError
from .groebner import _buchberger, _interreduce, _nf, _steps
from .matrix import PolyMatrix
from .poly import DEGREVLEX, Polynomial


def _position_key(ctx):
    """Position-over-term over degrevlex: earlier components dominate."""
    ring_key = DEGREVLEX.key_for(ctx)
    n = ctx.arity
    return lambda t: (t[-1],) + ring_key(t[:n])


def _induced_key(prev_key, prev_lms, n):
    """Schreyer order induced by the previous stage: compare the images of
    the leading terms, break ties toward the earlier generator."""
    return lambda t: (prev_key(tuple(map(add, t[:n] + (0, 0),
                                         prev_lms[t[n]])))
                      + (-t[n],))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulePresentation:
    """Columns of `matrix` generate a submodule of a free module of rank
    `target_rank`; `shifts` are target degrees making columns homogeneous."""

    context: object
    target_rank: int
    matrix: PolyMatrix
    shifts: tuple = None

    def __post_init__(self):
        if self.matrix.nrows != self.target_rank:
            raise ValueError("matrix must have target_rank rows")
        shifts = self.shifts or (0,) * self.target_rank
        object.__setattr__(self, "shifts", tuple(shifts))
        for j in range(self.matrix.ncols):
            degs = set()
            for i in range(self.target_rank):
                p = self.matrix.entry(i, j)
                if p.is_zero:
                    continue
                homog, deg = p.weighted_degree_info()
                if not homog:
                    raise ValueError(f"column {j} is not homogeneous")
                degs.add(deg + self.shifts[i])
            if len(degs) > 1:
                raise ValueError(f"column {j} is not homogeneous for the "
                                 "declared shifts")

    def column_degrees(self):
        """Degrees of the columns; zero columns contribute shift 0."""
        out = []
        for j in range(self.matrix.ncols):
            deg = 0
            for i in range(self.target_rank):
                p = self.matrix.entry(i, j)
                if not p.is_zero:
                    deg = p.weighted_degree_info()[1] + self.shifts[i]
                    break
            out.append(deg)
        return tuple(out)


def presentation_of_ideal(handle):
    """Rank-one presentation whose columns are the ideal generators."""
    ctx = handle.context
    row = tuple(handle.generators)
    return ModulePresentation(ctx, 1, PolyMatrix(ctx, (row,)))


def _columns_to_elements(pres, rank):
    """The columns as elements of a free module of rank `rank`, which may
    exceed the target rank; their terms lie in the first components."""
    cols = []
    for j in range(pres.matrix.ncols):
        d = {}
        for i in range(pres.target_rank):
            tail = (i, rank - 1 - i)
            for e, c in pres.matrix.entry(i, j).terms:
                d[e + tail] = c
        cols.append(d)
    return cols


def _elements_to_matrix(ctx, elements, rank):
    n = ctx.arity
    cols = []
    for el in elements:
        per_comp = [dict() for _ in range(rank)]
        for t, c in el.items():
            per_comp[t[n]][t[:n]] = c
        cols.append(tuple(Polynomial._make(ctx, d) for d in per_comp))
    if not cols:
        return PolyMatrix(ctx, tuple(() for _ in range(rank)))
    return PolyMatrix.from_columns(ctx, cols)


# ---------------------------------------------------------------------------

def syzygies(pres):
    """Minimal generating set of the syzygy module of the presentation's
    columns, by eliminating components (Greuel-Pfister, A Singular
    Introduction to Commutative Algebra, 2.5).

    The columns c_j + e_{r+j} live in rank r + m.  Under position-over-term
    with the r target components first, the elements of their reduced
    basis whose lead lies in a component >= r lie there entirely and
    generate the syzygies once shifted down by r.  They are then pruned to
    a minimal generating set.
    """
    ctx = pres.context
    n = ctx.arity
    r, m = pres.target_rank, pres.matrix.ncols
    key = _position_key(ctx)
    counter = _steps()
    columns = _columns_to_elements(pres, r + m)
    unit = (0,) * n
    for j, col in enumerate(columns):
        col[unit + (r + j, m - 1 - j)] = Fraction(1)
    basis, lms = _buchberger(columns, key, ctx.weighted_degree, counter,
                             r + m)
    heads, reduced = _interreduce(basis, lms, key, counter)
    found = [{t[:n] + (t[n] - r, t[n + 1]): c for t, c in el.items()}
             for lm, el in zip(heads, reduced) if lm[n] >= r]
    minimal = _minimal_generators(found, ctx, m)
    matrix = _elements_to_matrix(ctx, minimal, m)
    return ModulePresentation(ctx, m, matrix, shifts=pres.column_degrees())


def _minimal_generators(elements, ctx, rank):
    """Drop any element lying in the submodule spanned by the rest."""
    key = _position_key(ctx)
    wdeg = ctx.weighted_degree

    def sort_key(el):
        items = tuple(sorted(el.items()))
        return (max(wdeg(t) for t, _ in items), items)

    current = sorted(elements, key=sort_key)
    counter = _steps()
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            others = current[:i] + current[i + 1:]
            if not others:
                continue
            basis, lms = _buchberger(others, key, wdeg, counter, rank)
            if not _nf(current[i], lms, basis, key, counter, {}):
                del current[i]
                changed = True
                break
    return current


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeResolution:
    complex: FreeComplex
    shifts: tuple          # per stage, degree shifts of the free module
    minimal: bool

    @property
    def ranks(self):
        return self.complex.ranks

    @property
    def differentials(self):
        return self.complex.differentials

    @property
    def pd(self):
        return len(self.complex.ranks) - 1


def free_resolution(pres, max_length=None):
    """Resolve the cokernel of the presentation by iterated syzygies.

    Stage one is a module Groebner basis of the columns; later stages are
    Schreyer syzygy bases, the records of a rerun of the stage family,
    interreduced between stages.  Families are kept in decreasing lead
    order.  The tower is then minimized by unit-entry cancellation and
    flagged minimal.
    """
    ctx = pres.context
    n = ctx.arity
    if max_length is None:
        max_length = 2 * n + 4
    key = _position_key(ctx)
    wdeg = ctx.weighted_degree
    stage_rank = pres.target_rank
    counter = _steps()

    basis, lms = _buchberger(_columns_to_elements(pres, stage_rank), key,
                             wdeg, counter, stage_rank)
    lms, family = _interreduce(basis, lms, key, counter)
    shifts = [list(pres.shifts)]
    matrices = []
    while family:
        family.reverse()
        lms.reverse()
        matrices.append(_elements_to_matrix(ctx, family, stage_rank))
        shifts.append(list(_stage_shifts(ctx, family, shifts[-1])))
        if len(matrices) > max_length:
            raise ResolutionLengthError(
                f"resolution exceeded maximum length {max_length}")
        records = []
        basis, _ = _buchberger(family, key, wdeg, counter, stage_rank,
                               records)
        if len(basis) > len(family):
            raise AssertionError("a stage family must already be a basis")
        stage_rank = len(family)
        syz = [{q[:n] + (k, stage_rank - 1 - k): c
                for (k, q), c in rec.items()} for rec in records if rec]
        if not syz:
            break
        key = _induced_key(key, lms, n)
        lms, family = _interreduce(syz, [max(s, key=key) for s in syz], key,
                                   counter)

    mats = [[list(r) for r in m.entries] for m in matrices]
    _minimize(mats, shifts)
    ranks = [len(shifts[0])]
    final = []
    for m in mats:
        final.append(PolyMatrix(ctx, tuple(tuple(r) for r in m)))
        ranks.append(len(m[0]))
    return FreeResolution(FreeComplex(tuple(ranks), tuple(final)),
                          tuple(tuple(s) for s in shifts[:len(mats) + 1]),
                          minimal=True)


def _stage_shifts(ctx, family, prev_shifts):
    n = ctx.arity
    out = []
    for el in family:
        t = next(iter(el))
        out.append(ctx.weighted_degree(t) + prev_shifts[t[n]])
    return tuple(out)


def _minimize(mats, shifts):
    """Cancel constant entries by row/column reduction, updating the two
    adjacent differentials and shift tables, until every entry lies in the
    maximal ideal.  Stages that become empty split off exactly, so the
    tower is truncated at the first zero stage."""
    while True:
        spot = None
        for k, m in enumerate(mats):
            for r, row in enumerate(m):
                for c, p in enumerate(row):
                    if not p.is_zero and p.is_constant:
                        spot = (k, r, c)
                        break
                if spot:
                    break
            if spot:
                break
        if spot is None:
            return
        k, r0, c0 = spot
        m = mats[k]
        u = m[r0][c0].constant_value()
        ncols = len(m[0])
        nrows = len(m)

        col_factors = {}
        for c in range(ncols):
            if c == c0 or m[r0][c].is_zero:
                continue
            lam = m[r0][c] / u
            col_factors[c] = lam
            for r in range(nrows):
                m[r][c] = m[r][c] - lam * m[r][c0]
        row_factors = {}
        for r in range(nrows):
            if r == r0 or m[r][c0].is_zero:
                continue
            mu = m[r][c0] / u
            row_factors[r] = mu
            for c in range(ncols):
                m[r][c] = m[r][c] - mu * m[r0][c]

        if k + 1 < len(mats):
            nxt = mats[k + 1]
            width = len(nxt[0]) if nxt else 0
            for c, lam in col_factors.items():
                for j in range(width):
                    nxt[c0][j] = nxt[c0][j] + lam * nxt[c][j]
            if not all(p.is_zero for p in nxt[c0]):
                raise AssertionError("cancelled row must vanish")
            del nxt[c0]
        if k > 0:
            prev = mats[k - 1]
            for r, mu in row_factors.items():
                for row in prev:
                    row[r0] = row[r0] + mu * row[r]
            if not all(row[r0].is_zero for row in prev):
                raise AssertionError("cancelled column must vanish")
            for row in prev:
                del row[r0]
        for row in m:
            del row[c0]
        del m[r0]
        del shifts[k][r0]
        del shifts[k + 1][c0]

        for idx, mat in enumerate(mats):
            if not mat or not mat[0]:
                # F at this boundary vanished; the exact tail splits off
                del mats[idx:]
                del shifts[idx + 1:]
                break


@dataclass(frozen=True)
class DepthReport:
    dimension: int
    depth: int
    projective_dimension: int
    cohen_macaulay: bool
    method: str = ("depth = ambient variables - projective dimension, "
                   "valid at the irrelevant maximal ideal for graded input")


def depth_and_cm(handle, max_length=None):
    """Depth, projective dimension and the Cohen-Macaulay verdict for the
    graded quotient by a proper homogeneous ideal."""
    if handle.is_unit():
        raise ValueError("the unit ideal has no quotient to measure")
    ctx = handle.context
    res = free_resolution(presentation_of_ideal(handle),
                          max_length=max_length)
    pd = res.pd
    depth = ctx.arity - pd
    dim = handle.krull_dimension().dimension
    return DepthReport(dimension=dim, depth=depth, projective_dimension=pd,
                       cohen_macaulay=depth == dim)
