"""Graded free resolutions by syzygies, with depth and Cohen-Macaulay tests.

Module Groebner bases use the position-over-term extension of the ring
order; syzygy stages use induced Schreyer orders, so iterated stages only
ever reduce S-pairs of families that are already bases.  The tower is then
minimized by cancelling constant entries, which suffices to read off the
projective dimension, and depth follows by graded Auslander-Buchsbaum at
the irrelevant maximal ideal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import add, ge, neg, sub

from .eagon_northcott import FreeComplex
from .errors import ResolutionLengthError
from .groebner import StepCounter
from .matrix import PolyMatrix
from .poly import DEGREVLEX, Polynomial, mono_divide, mono_lcm, mono_mul

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# module engine over {(exponents, component): Fraction} dicts

def _pot_key(ring_key):
    """Position-over-term: earlier components dominate.  Like the ring
    keys, module keys are flat tuples of one length per order."""
    return lambda t: (-t[1],) + ring_key(t[0])


def _schreyer_key(prev_key, prev_lms):
    """Order induced by the previous stage: compare images of the leading
    monomials, break ties toward the earlier generator."""
    def key(t):
        e, c = t
        mono, comp = prev_lms[c]
        return prev_key((tuple(map(add, e, mono)), comp)) + (-c,)
    return key


def _mod_monic(d, key):
    lm = max(d, key=key)
    lc = d[lm]
    if lc == 1:
        return lm, dict(d)
    inv = Fraction(1) / lc
    return lm, {t: c * inv for t, c in d.items()}


def _mod_nf(element, lms, gens, key, counter, quotients=None):
    """Full normal form in a free module against monic reducers.

    The working element is a dict next to a min-heap of (negated key,
    term), kept as in `groebner._nf`: terms are popped in descending
    order and a popped term never comes back."""
    work = dict(element)
    heap = [(tuple(map(neg, key(t))), t) for t in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        term = heapq.heappop(heap)[1]
        c = work.pop(term)
        if not c:
            continue
        e, comp = term
        for idx, (lmono, lcomp) in enumerate(lms):
            if lcomp != comp or not all(map(ge, e, lmono)):
                continue
            q = tuple(map(sub, e, lmono))
            counter.spend()
            for (e2, c2), a in gens[idx].items():
                if e2 == lmono and c2 == lcomp:
                    continue
                t2 = (tuple(map(add, e2, q)), c2)
                v = work.get(t2)
                if v is None:
                    work[t2] = -c * a
                    heapq.heappush(heap, (tuple(map(neg, key(t2))), t2))
                else:
                    work[t2] = v - c * a
            if quotients is not None:
                quotients.append((idx, q, c))
            break
        else:
            remainder[term] = c
    return remainder


class _EngineResult:
    __slots__ = ("gens", "lms", "syzygies", "expressions", "added")

    def __init__(self, gens, lms, syzygies, expressions, added):
        self.gens = gens
        self.lms = lms
        self.syzygies = syzygies
        self.expressions = expressions
        self.added = added


def _module_buchberger(columns, key, wdeg, counter, expressions=False):
    """Module Groebner basis with syzygy records.

    Every same-component S-pair of the final family is processed exactly
    once and its reduction equation is recorded, so the records generate
    the syzygy module of the returned family (and are a basis for the
    induced Schreyer order).
    """
    gens = []
    lms = []
    exprs = [] if expressions else None
    syzygies = []
    heap = []
    added = 0

    def push_pairs(k):
        mono_k, comp_k = lms[k]
        for i in range(k):
            mono_i, comp_i = lms[i]
            if comp_i != comp_k:
                continue
            lcm = mono_lcm(mono_i, mono_k)
            heapq.heappush(heap, (wdeg(lcm), key((lcm, comp_k)), i, k))

    for j, col in enumerate(columns):
        if not col:
            continue
        lm, monic = _mod_monic(col, key)
        gens.append(monic)
        lms.append(lm)
        if expressions:
            zero_e = tuple(0 for _ in lm[0])
            exprs.append({(zero_e, j): Fraction(1) / col[lm]})
        push_pairs(len(gens) - 1)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        (mi, comp), (mj, _) = lms[i], lms[j]
        lcm = mono_lcm(mi, mj)
        qi = mono_divide(lcm, mi)
        qj = mono_divide(lcm, mj)
        spair = {}
        for (e, c0), a in gens[i].items():
            spair[(mono_mul(e, qi), c0)] = a
        for (e, c0), a in gens[j].items():
            t = (mono_mul(e, qj), c0)
            v = spair.get(t, _ZERO) - a
            if v:
                spair[t] = v
            elif t in spair:
                del spair[t]
        counter.spend()
        quotients = []
        r = _mod_nf(spair, lms, gens, key, counter, quotients)
        syz = {(qi, i): Fraction(1)}
        t = (qj, j)
        syz[t] = syz.get(t, _ZERO) - 1
        for idx, q, c in quotients:
            t = (q, idx)
            v = syz.get(t, _ZERO) - c
            if v:
                syz[t] = v
            elif t in syz:
                del syz[t]
        if r:
            lm, monic = _mod_monic(r, key)
            lc = r[lm]
            gens.append(monic)
            lms.append(lm)
            added += 1
            new_index = len(gens) - 1
            zero_e = tuple(0 for _ in lm[0])
            syz[(zero_e, new_index)] = -lc
            if expressions:
                new_expr = {}
                for factor, src in ((Fraction(1), i), (Fraction(-1), j)):
                    q = qi if src == i else qj
                    for (e, col), c in exprs[src].items():
                        t = (mono_mul(e, q), col)
                        v = new_expr.get(t, _ZERO) + factor * c
                        if v:
                            new_expr[t] = v
                        elif t in new_expr:
                            del new_expr[t]
                for idx, q, c in quotients:
                    for (e, col), c2 in exprs[idx].items():
                        t = (mono_mul(e, q), col)
                        v = new_expr.get(t, _ZERO) - c * c2
                        if v:
                            new_expr[t] = v
                        elif t in new_expr:
                            del new_expr[t]
                exprs.append({t: c / lc for t, c in new_expr.items()})
            push_pairs(new_index)
        syzygies.append(syz)

    return _EngineResult(gens, lms, syzygies, exprs, added)


def _interreduce_module(gens, lms, key, counter):
    """Minimal, tail-reduced, monic family sorted by decreasing lead.

    One pass by increasing lead, so divisors are kept before their
    multiples: each kept element is reduced against the already reduced
    ones, since a larger lead divides no term of it."""
    polys = []
    heads = []
    for i in sorted(range(len(gens)), key=lambda i: key(lms[i])):
        mono_i, comp_i = lms[i]
        if any(comp_i == comp and all(map(ge, mono_i, mono))
               for mono, comp in heads):
            continue
        r = _mod_nf(gens[i], heads, polys, key, counter)
        polys.append(_mod_monic(r, key)[1])
        heads.append(lms[i])
    polys.reverse()
    heads.reverse()
    return polys, heads


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


def _columns_to_elements(pres):
    cols = []
    for j in range(pres.matrix.ncols):
        d = {}
        for i in range(pres.target_rank):
            for e, c in pres.matrix.entry(i, j).terms:
                d[(e, i)] = c
        cols.append(d)
    return cols


def _elements_to_matrix(ctx, elements, rank):
    cols = []
    for el in elements:
        per_comp = [dict() for _ in range(rank)]
        for (e, comp), c in el.items():
            per_comp[comp][e] = c
        cols.append(tuple(Polynomial._make(ctx, d) for d in per_comp))
    if not cols:
        return PolyMatrix(ctx, tuple(() for _ in range(rank)))
    return PolyMatrix.from_columns(ctx, cols)


# ---------------------------------------------------------------------------

def syzygies(pres, budget=None):
    """Generating set of the syzygy module of the presentation's columns.

    The S-pair relations of a module Groebner basis are pushed back to the
    original columns through the tracked basis expressions, completed by
    the tautological relations (column minus its division by the basis),
    and pruned to a minimal generating set.
    """
    ctx = pres.context
    key = _pot_key(DEGREVLEX.key_for(ctx))
    counter = StepCounter(budget)
    cols = _columns_to_elements(pres)
    run = _module_buchberger(cols, key, ctx.weighted_degree, counter,
                             expressions=True)
    zero_e = (0,) * ctx.arity

    raw = []
    for syz in run.syzygies:
        out = {}
        for (q, k), c in syz.items():
            for (e, col), c2 in run.expressions[k].items():
                t = (mono_mul(q, e), col)
                v = out.get(t, _ZERO) + c * c2
                if v:
                    out[t] = v
                elif t in out:
                    del out[t]
        if out:
            raw.append(out)
    for j, col in enumerate(cols):
        if not col:
            raw.append({(zero_e, j): Fraction(1)})
            continue
        quotients = []
        r = _mod_nf(col, run.lms, run.gens, key, counter, quotients)
        if r:
            raise AssertionError(
                "a column must reduce to zero against its own basis")
        taut = {(zero_e, j): Fraction(1)}
        for idx, q, c in quotients:
            for (e, col2), c2 in run.expressions[idx].items():
                t = (mono_mul(q, e), col2)
                v = taut.get(t, _ZERO) - c * c2
                if v:
                    taut[t] = v
                elif t in taut:
                    del taut[t]
        taut = {t: c for t, c in taut.items() if c}
        if taut:
            raw.append(taut)

    unique = []
    seen = set()
    for el in raw:
        sig = tuple(sorted(el.items()))
        if sig not in seen:
            seen.add(sig)
            unique.append(el)
    minimal = _minimal_generators(unique, ctx, budget)
    matrix = _elements_to_matrix(ctx, minimal, pres.matrix.ncols)
    return ModulePresentation(ctx, pres.matrix.ncols, matrix,
                              shifts=pres.column_degrees())


def _minimal_generators(elements, ctx, budget):
    """Drop any element lying in the submodule spanned by the rest."""
    key = _pot_key(DEGREVLEX.key_for(ctx))

    def sort_key(el):
        items = tuple(sorted(el.items()))
        return (max(ctx.weighted_degree(e) for (e, _c), _ in items), items)

    current = sorted(elements, key=sort_key)
    changed = True
    while changed:
        changed = False
        for i in range(len(current)):
            others = current[:i] + current[i + 1:]
            if not others:
                continue
            counter = StepCounter(budget)
            run = _module_buchberger(list(others), key, ctx.weighted_degree,
                                     counter)
            if not _mod_nf(current[i], run.lms, run.gens, key, counter):
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


def free_resolution(pres, max_length=None, budget=None):
    """Resolve the cokernel of the presentation by iterated syzygies.

    Stage one is a module Groebner basis of the columns; later stages are
    Schreyer syzygy bases, interreduced between stages.  The tower is then
    minimized by unit-entry cancellation and flagged minimal.
    """
    ctx = pres.context
    if max_length is None:
        max_length = 2 * ctx.arity + 4
    key = _pot_key(DEGREVLEX.key_for(ctx))
    wdeg = ctx.weighted_degree
    cols = _columns_to_elements(pres)

    run = _module_buchberger(cols, key, wdeg, StepCounter(budget))
    family, lms = _interreduce_module(run.gens, run.lms, key,
                                      StepCounter(budget))
    stage_rank = pres.target_rank
    shifts = [list(pres.shifts)]
    matrices = []
    while family:
        matrices.append(_elements_to_matrix(ctx, family, stage_rank))
        shifts.append(list(_stage_shifts(ctx, family, shifts[-1])))
        if len(matrices) > max_length:
            raise ResolutionLengthError(
                f"resolution exceeded maximum length {max_length}")
        rerun = _module_buchberger(family, key, wdeg, StepCounter(budget))
        if rerun.added:
            raise AssertionError("a stage family must already be a basis")
        records = [s for s in rerun.syzygies if s]
        if not records:
            break
        next_key = _schreyer_key(key, list(lms))
        family, lms = _interreduce_module(
            records, [max(s, key=next_key) for s in records], next_key,
            StepCounter(budget))
        key = next_key
        stage_rank = matrices[-1].ncols

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
    out = []
    for el in family:
        (e, comp), _ = next(iter(el.items()))
        out.append(ctx.weighted_degree(e) + prev_shifts[comp])
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


def depth_and_cm(handle, budget=None, max_length=None):
    """Depth, projective dimension and the Cohen-Macaulay verdict for the
    graded quotient by a proper homogeneous ideal."""
    if handle.is_unit(budget):
        raise ValueError("the unit ideal has no quotient to measure")
    ctx = handle.context
    res = free_resolution(presentation_of_ideal(handle),
                          max_length=max_length, budget=budget)
    pd = res.pd
    depth = ctx.arity - pd
    dim = handle.krull_dimension(budget).dimension
    return DepthReport(dimension=dim, depth=depth, projective_dimension=pd,
                       cohen_macaulay=depth == dim)
