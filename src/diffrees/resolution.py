"""Graded free resolutions of quotients by ideals, with depth and
Cohen-Macaulay tests.

Module elements run on the ring kernel of `groebner`: the term x^a e_c of
a free module of rank r is the flat exponent tuple a + (c, r-1-c), kept in
{term: Fraction} dicts.  Stage one is the ideal's cached reduced
degrevlex basis, in rank one a module Groebner basis under the
position-over-term extension of the ring order.  Every later stage is the
family of Schreyer records of the minimal pairs of the stage before: their
leads divide no one another and they form a Groebner basis of the
syzygies under the induced Schreyer order (Schreyer), so no stage is
interreduced (`groebner._schreyer_records`).

That Schreyer frame is a graded free resolution, in general not a minimal
one.  The minimal Betti numbers are the homology of F (x) k, so
beta_i = rank F_i - rank(d_i (x) k) - rank(d_{i+1} (x) k), where d (x) k
keeps the constant entries: the terms whose exponent block is zero.  Their
ranks are exact ranks over Q of sparse matrices, as Macaulay2's
`minimalBetti` reads Betti numbers off a non-minimal frame
(Erocal-Motsak-Schreyer-Steenpass, Refined algorithms to compute
syzygies, JSC 74, 2016).  The projective dimension is the last nonzero
Betti number's index, and depth follows by graded Auslander-Buchsbaum at
the irrelevant maximal ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ResolutionLengthError
from .groebner import _Monomials, _schreyer_records, _steps
from .poly import DEGREVLEX, KEY_DIGIT


def _stage_key(ring_key, offsets, n, stage):
    """The Schreyer order of frame stage `stage`, whose component j has
    the int offset `offsets[j]`: x^a e_j keys as
    (ring_key(a) << 64 stage) + offsets[j].

    The offsets of F_0, stage 0, are 0.  Generator j of the next stage,
    with lead lm_j, has the offset (key(lm_j) << 64) - j, so a key reads
    as the digits of the F_0 image x^(a + lead) of the term, lead the sum
    of the lead exponents along its chain, then one tie digit per stage,
    the negated generator index: a term compares as its F_0 image, ties
    broken toward the earlier generator at the first stage that differs,
    the order the stage-by-stage induced orders give.
    """
    shift = KEY_DIGIT * stage
    return lambda t: (ring_key(t[:n]) << shift) + offsets[t[n]]


def _next_offsets(key, lms):
    """The offsets of the stage whose generators lead with `lms`."""
    return [(key(lm) << KEY_DIGIT) - j for j, lm in enumerate(lms)]


# ---------------------------------------------------------------------------

def _schreyer_syzygies(family, key, counter, n):
    """The records of the minimal pairs of `family`, a basis under `key`,
    as flat elements of a free module of rank len(family), each with its
    lead first."""
    rank = len(family)
    return [{q[:n] + (k, rank - 1 - k): Fraction(*c)
             for (k, q), c in rec.items()}
            for rec in _schreyer_records(family, _Monomials(key, n + 2),
                                         counter)]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreeResolution:
    """A Schreyer frame of the quotient and the minimal Betti numbers read
    off it; the frame need not be minimal, the Betti numbers are."""

    ranks: tuple           # rank of each free module F_0, F_1, ... of the frame
    shifts: tuple          # per frame stage, the degree shifts of its basis
    betti: tuple           # minimal Betti numbers beta_0, ..., beta_pd

    @property
    def pd(self):
        return len(self.betti) - 1


def free_resolution(handle):
    """Resolve the quotient by the ideal of `handle` by a Schreyer frame
    and read its minimal Betti numbers off the frame.

    Stage one is the handle's cached reduced degrevlex basis, in rank one
    the reduced basis of the generators under position-over-term, which
    orders it the same way.  Later stages are the Schreyer records of the
    minimal pairs of the stage family.  Each family is sorted by
    decreasing lead.  A frame longer than 2n + 4 stages raises a
    ResolutionLengthError.
    """
    ctx = handle.context
    n = ctx.arity
    max_length = 2 * n + 4
    ring_key = DEGREVLEX.key_for(ctx)
    key = _stage_key(ring_key, [0], n, 0)
    counter = _steps()

    family = [{e + (0, 0): c for e, c in g.terms}
              for g in handle.groebner_basis()]
    leads = [max(el, key=key) for el in family]
    ranks = [1]
    shifts = [(0,)]
    constant_ranks = []
    while family:
        order = sorted(range(len(family)), key=lambda i: key(leads[i]),
                       reverse=True)
        family = [family[i] for i in order]
        leads = [leads[i] for i in order]
        ranks.append(len(family))
        shifts.append(_stage_shifts(ctx, family, shifts[-1]))
        constant_ranks.append(_constant_rank(family, n))
        if len(constant_ranks) > max_length:
            raise ResolutionLengthError(
                f"resolution exceeded maximum length {max_length}")
        family = _schreyer_syzygies(family, key, counter, n)
        key = _stage_key(ring_key, _next_offsets(key, leads), n,
                         len(constant_ranks))
        leads = [next(iter(el)) for el in family]

    return FreeResolution(tuple(ranks), tuple(shifts),
                          _betti_numbers(ranks, constant_ranks))


def _stage_shifts(ctx, family, prev_shifts):
    n = ctx.arity
    out = []
    for el in family:
        t = next(iter(el))
        out.append(ctx.weighted_degree(t) + prev_shifts[t[n]])
    return tuple(out)


def _constant_rank(family, n):
    """Rank over Q of d (x) k for the differential whose columns are
    `family`: the terms with a zero exponent block, by exact elimination
    on sparse {row: Fraction} columns."""
    pivots = {}
    for el in family:
        v = {t[n]: c for t, c in el.items() if not any(t[:n])}
        while v:
            p = min(v)
            w = pivots.get(p)
            if w is None:
                pivots[p] = v
                break
            f = v[p] / w[p]
            for i, c in w.items():
                x = v.get(i, 0) - f * c
                if x:
                    v[i] = x
                else:
                    del v[i]
    return len(pivots)


def _betti_numbers(ranks, constant_ranks):
    """beta_i = rank F_i - rank(d_i (x) k) - rank(d_{i+1} (x) k), with
    d_0 = 0 and zero past the frame, and the zeros after pd dropped."""
    c = [0, *constant_ranks, 0]
    betti = [r - c[i] - c[i + 1] for i, r in enumerate(ranks)]
    if min(betti) < 0:
        raise AssertionError(f"negative Betti number in {betti}")
    while len(betti) > 1 and not betti[-1]:
        betti.pop()
    return tuple(betti)


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
    res = free_resolution(handle)
    if res.betti[0] != 1:
        raise AssertionError(f"a proper ideal has beta_0 = 1, got "
                             f"{res.betti[0]}")
    pd = res.pd
    depth = handle.context.arity - pd
    dim = handle.krull_dimension().dimension
    return DepthReport(dimension=dim, depth=depth, projective_dimension=pd,
                       cohen_macaulay=depth == dim)
