"""Graded free resolutions of quotients by ideals, with depth and
Cohen-Macaulay tests.

Module elements run on the ring kernel of `groebner`: the term x^a e_c of
a free module of rank r is the flat exponent tuple a + (c, r-1-c), packed
into one int like a ring monomial, and an element is a content-free
{packed term: int} dict with positive leading coefficient.  Stage one is
the ideal's cached reduced degrevlex basis, packed as it is cached, in
rank one a module Groebner basis under the position-over-term extension
of the ring order.  Every later stage is the family of Schreyer records
of the minimal pairs of the stage before: their leads divide no one
another and they form a Groebner basis of the syzygies under the induced
Schreyer order (Schreyer), so no stage is interreduced
(`groebner._schreyer_records`).  The frame stays packed from the cached
basis to the last stage; the component of a packed term t is
(t >> 32) & _FIELD, and its exponent block is zero when t >> 64 is.

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
from .groebner import _FIELD, _Monomials, _schreyer_records, _steps
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


def _next_offsets(negated):
    """The offsets of the stage whose generators lead with monomials of
    negated keys `negated`, as `_Monomials` holds them."""
    return [(-k << KEY_DIGIT) - j for j, k in enumerate(negated)]


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
    orders it the same way: the packed monomial m of the ring is the term
    m e_0 = m + (0, 0), two fields up, and keeps its negated key.  Later
    stages are the Schreyer records of the minimal pairs of the stage
    family.  Each family is sorted by decreasing lead.  A frame longer
    than 2n + 4 stages raises a ResolutionLengthError.
    """
    ctx = handle.context
    n = ctx.arity
    max_length = 2 * n + 4
    ring_key = DEGREVLEX.key_for(ctx)
    counter = _steps()

    ring, leads, basis, _ = handle._reduced()
    mons = _Monomials(_stage_key(ring_key, [0], n, 0), n + 2)
    mons.update((m << 64, ring[m]) for g in basis for m in g)
    leads = [lm << 64 for lm in leads]
    family = [{m << 64: c for m, c in g.items()} for g in basis]
    ranks = [1]
    shifts = [(0,)]
    constant_ranks = []
    while family:
        leads, family = zip(*sorted(zip(leads, family),
                                    key=lambda pair: mons[pair[0]]))
        ranks.append(len(family))
        shifts.append(tuple(ctx.weighted_degree(mons.unpack(t))
                            + shifts[-1][(t >> 32) & _FIELD] for t in leads))
        constant_ranks.append(_constant_rank(family))
        if len(constant_ranks) > max_length:
            raise ResolutionLengthError(
                f"resolution exceeded maximum length {max_length}")
        following = _Monomials(_stage_key(
            ring_key, _next_offsets([mons[t] for t in leads]), n,
            len(constant_ranks)), n + 2)
        leads, family = _schreyer_records(leads, family, mons, following,
                                          counter)
        mons = following

    return FreeResolution(tuple(ranks), tuple(shifts),
                          _betti_numbers(ranks, constant_ranks))


def _constant_rank(family):
    """Rank over Q of d (x) k for the differential whose columns are
    `family`: the terms with a zero exponent block, by exact elimination
    on sparse {row: Fraction} columns."""
    pivots = {}
    for el in family:
        v = {(t >> 32) & _FIELD: Fraction(c) for t, c in el.items()
             if not t >> 64}
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
