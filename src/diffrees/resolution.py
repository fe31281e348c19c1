"""Graded free resolutions by syzygies, with depth and Cohen-Macaulay tests.

Module elements run on the ring kernel of `groebner`: the term x^a e_c of
a free module of rank r is the flat exponent tuple a + (c, r-1-c), kept in
{term: Fraction} dicts.  Module Groebner bases use the position-over-term
extension of the ring order; syzygy stages use induced Schreyer orders, so
iterated stages only reduce the minimal S-pairs of families that are
already bases (`groebner._schreyer_records`).  The tower is then
minimized by cancelling constant entries, on {row: {exponents: Fraction}}
columns, before any `PolyMatrix` is built; that suffices to read off the
projective dimension, and depth follows by graded Auslander-Buchsbaum at
the irrelevant maximal ideal.  `syzygies` reaches a minimal generating set
the same way, cancelling constant entries in the one stage of Schreyer
relations among its generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .eagon_northcott import FreeComplex
from .errors import ResolutionLengthError
from .groebner import (_buchberger, _interreduce, _schreyer_records,
                       _steps)
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


def _elements_to_columns(family, n):
    """Each element as a column {row: {exponents: coefficient}}."""
    cols = []
    for el in family:
        col = {}
        for t, c in el.items():
            col.setdefault(t[n], {})[t[:n]] = c
        cols.append(col)
    return cols


def _to_matrix(ctx, columns, rows):
    """The PolyMatrix of {row: {exponents: coefficient}} columns, with the
    given row ids top to bottom."""
    return PolyMatrix(ctx, tuple(
        tuple(Polynomial._make(ctx, col.get(r, {})) for col in columns)
        for r in rows))


# ---------------------------------------------------------------------------

def syzygies(pres):
    """Minimal generating set of the syzygy module of the presentation's
    columns, by eliminating components (Greuel-Pfister, A Singular
    Introduction to Commutative Algebra, 2.5).

    The columns c_j + e_{r+j} live in rank r + m.  Under position-over-term
    with the r target components first, the elements of their reduced
    basis whose lead lies in a component >= r lie there entirely and, once
    shifted down by r, form a reduced basis of the syzygies.  The records
    of its minimal pairs generate the relations among these generators
    (Schreyer), so `_minimize` on that one stage cancels every generator
    with a constant relation; the survivors have none, so they generate
    minimally by graded Nakayama.
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
    relations = _schreyer_syzygies(found, key, counter, n)
    degrees = pres.column_degrees()
    found_shifts = _stage_shifts(ctx, found, degrees)
    shifts = [dict(enumerate(found_shifts)),
              dict(enumerate(_stage_shifts(ctx, relations, found_shifts)))]
    _minimize([dict(enumerate(_elements_to_columns(relations, n)))], shifts)
    # the row ids left in shifts[0] are the generators no relation cancelled
    matrix = _to_matrix(ctx, _elements_to_columns(
        [found[i] for i in shifts[0]], n), range(m))
    return ModulePresentation(ctx, m, matrix, shifts=degrees)


def _schreyer_syzygies(family, key, counter, n):
    """The records of the minimal pairs of `family`, a basis under `key`,
    as flat elements of a free module of rank len(family)."""
    rank = len(family)
    return [{q[:n] + (k, rank - 1 - k): c for (k, q), c in rec.items()}
            for rec in _schreyer_records(family, key, counter)]


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


def free_resolution(pres):
    """Resolve the cokernel of the presentation by iterated syzygies.

    Stage one is a module Groebner basis of the columns; later stages are
    Schreyer syzygy bases, the records of the minimal pairs of the stage
    family, interreduced between stages.  Families are kept in decreasing
    lead order.  The tower is then minimized by unit-entry cancellation and
    flagged minimal.  A tower longer than 2n + 4 stages raises a
    ResolutionLengthError.
    """
    ctx = pres.context
    n = ctx.arity
    max_length = 2 * n + 4
    key = _position_key(ctx)
    wdeg = ctx.weighted_degree
    stage_rank = pres.target_rank
    counter = _steps()

    basis, lms = _buchberger(_columns_to_elements(pres, stage_rank), key,
                             wdeg, counter, stage_rank)
    lms, family = _interreduce(basis, lms, key, counter)
    shifts = [dict(enumerate(pres.shifts))]
    stages = []
    while family:
        family.reverse()
        lms.reverse()
        stages.append(dict(enumerate(_elements_to_columns(family, n))))
        shifts.append(dict(enumerate(_stage_shifts(ctx, family,
                                                   shifts[-1]))))
        if len(stages) > max_length:
            raise ResolutionLengthError(
                f"resolution exceeded maximum length {max_length}")
        syz = _schreyer_syzygies(family, key, counter, n)
        if not syz:
            break
        key = _induced_key(key, lms, n)
        lms, family = _interreduce(syz, [max(s, key=key) for s in syz], key,
                                   counter)

    _minimize(stages, shifts)
    final = tuple(_to_matrix(ctx, [cols[c] for c in shifts[k + 1]],
                             shifts[k]) for k, cols in enumerate(stages))
    return FreeResolution(FreeComplex(tuple(len(s) for s in shifts), final),
                          tuple(tuple(s.values()) for s in shifts),
                          minimal=True)


def _stage_shifts(ctx, family, prev_shifts):
    n = ctx.arity
    out = []
    for el in family:
        t = next(iter(el))
        out.append(ctx.weighted_degree(t) + prev_shifts[t[n]])
    return tuple(out)


def _add_product(acc, a, b, scale):
    """acc += scale * a * b on {exponents: Fraction} dicts, zeros dropped."""
    for e, c in a.items():
        cs = c * scale
        for f, d in b.items():
            t = tuple(map(add, e, f))
            v = acc.get(t, 0) + cs * d
            if v:
                acc[t] = v
            else:
                del acc[t]


def _minimize(stages, shifts):
    """Cancel constant entries by row/column reduction, updating the two
    adjacent differentials and shift tables, until every entry lies in the
    maximal ideal.  Stages that become empty split off exactly, so the
    tower is truncated at the first zero stage.

    `stages[k]` maps the columns of the k-th differential, the basis of
    F_{k+1}, to {row: polynomial dict} with zero entries absent, and
    `shifts[k]` maps the basis of F_k to its degrees.  Both keep the ids
    of the unminimized tower in increasing order, so cancelling a basis
    element only deletes its id.

    The entries are homogeneous and the weights positive, so a nonzero
    entry is a constant exactly where its row and column shifts agree;
    the pivot is the first such entry in (stage, row, column) order.  A
    cancellation deletes the column of the stage before and the row of
    the stage after, which creates no constant, so a stage once cleared
    stays clear.  The row operations that clear the pivot column change
    only the deleted row and column; they enter only the check that the
    cancelled column of the stage before vanishes.
    """
    k = 0
    while k < len(stages):
        cols, rows_at, cols_at = stages[k], shifts[k], shifts[k + 1]
        spot = min(((r, c) for c, col in cols.items()
                    for r in col if rows_at[r] == cols_at[c]), default=None)
        if spot is None:
            k += 1
            continue
        r0, c0 = spot
        pivot = cols.pop(c0)
        (u,) = pivot.pop(r0).values()
        inv = 1 / u

        # columns c: col_c -= (m[r0][c] / u) col_c0; row r0 goes
        factors = {}
        for c, col in cols.items():
            p = col.pop(r0, None)
            if p is None:
                continue
            factors[c] = p
            for r, q in pivot.items():
                acc = col.setdefault(r, {})
                _add_product(acc, p, q, -inv)
                if not acc:
                    del col[r]
        if k + 1 < len(stages):
            for col in stages[k + 1].values():
                acc = col.pop(c0, {})
                for c, p in factors.items():
                    if c in col:
                        _add_product(acc, p, col[c], inv)
                if acc:
                    raise AssertionError("cancelled row must vanish")
        if k > 0:
            prev = stages[k - 1]
            acc = prev.pop(r0)
            for r, q in pivot.items():
                for i, p in prev[r].items():
                    _add_product(acc.setdefault(i, {}), q, p, inv)
            if any(acc.values()):
                raise AssertionError("cancelled column must vanish")
        del rows_at[r0]
        del cols_at[c0]

        for idx in range(len(stages)):
            if not shifts[idx] or not shifts[idx + 1]:
                # F at this boundary vanished; the exact tail splits off
                del stages[idx:]
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


def depth_and_cm(handle):
    """Depth, projective dimension and the Cohen-Macaulay verdict for the
    graded quotient by a proper homogeneous ideal."""
    if handle.is_unit():
        raise ValueError("the unit ideal has no quotient to measure")
    ctx = handle.context
    res = free_resolution(presentation_of_ideal(handle))
    pd = res.pd
    depth = ctx.arity - pd
    dim = handle.krull_dimension().dimension
    return DepthReport(dimension=dim, depth=depth, projective_dimension=pd,
                       cohen_macaulay=depth == dim)
