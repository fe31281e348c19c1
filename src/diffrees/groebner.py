"""Buchberger engine and ideal-theoretic toolbox.

Everything downstream (Fitting heights, saturations, Rees ideals, free
resolutions) reduces to the operations in this module: reduced Groebner
bases with both classical pair criteria, normal forms, elimination,
quotients, saturation, Krull dimension by independent variable sets, and
heights in complete-intersection quotients.

All computations are exact over Q and deterministic: the pair queue is
ordered by weighted lcm degree with a fixed tie-break, so repeated runs
produce identical bases.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import StepBudgetExceeded
from .poly import (DEGREVLEX, MonomialOrder, Polynomial,
                   mono_divide, mono_lcm, mono_mul)

DEFAULT_STEP_BUDGET = 10_000_000


class StepCounter:
    """Counts leading-term cancellations against a hard budget."""

    __slots__ = ("remaining", "limit")

    def __init__(self, limit=None):
        self.limit = DEFAULT_STEP_BUDGET if limit is None else int(limit)
        self.remaining = self.limit

    def spend(self, n=1):
        self.remaining -= n
        if self.remaining < 0:
            raise StepBudgetExceeded(
                f"Groebner step budget of {self.limit} exceeded; "
                "rerun with a larger --budget")


# ---------------------------------------------------------------------------
# raw engine over {exponent tuple: int} dicts
#
# Reductions are fraction-free: basis elements are content-free integer
# polynomials with positive leading coefficient, and the working
# polynomial carries one global rational scale instead of per-coefficient
# denominators.  Monic output is produced once at the very end.

def _memo_key(key):
    """Memoize an order key; monomials repeat heavily within one run."""
    cache = {}

    def cached(e):
        v = cache.get(e)
        if v is None:
            v = cache[e] = key(e)
        return v

    return cached


def _content(d):
    return math.gcd(*d.values())


def _int_normalize(d, key):
    """Content-free integer form with positive leading coefficient; accepts
    int or Fraction coefficients.  Returns (lm, dict) or (None, {})."""
    d = {e: c for e, c in d.items() if c}
    if not d:
        return None, {}
    mult = math.lcm(*(c.denominator for c in d.values()))
    ints = {e: int(c * mult) for e, c in d.items()}
    g0 = _content(ints)
    if g0 > 1:
        ints = {e: v // g0 for e, v in ints.items()}
    lm = max(ints, key=key)
    if ints[lm] < 0:
        ints = {e: -v for e, v in ints.items()}
    return lm, ints


def _nf(poly, lms, basis, key, counter, memo, quotients=None):
    """Full normal form against content-free integer reducers.

    Returns the exact normal form as a {monomial: Fraction} dict.  When
    `quotients` is a list it receives (index, monomial, multiplier)
    triples, the multipliers taken against the monic reducers.

    `memo` maps a monomial to (checked_upto, first_divisor_index): the
    index of the first leading monomial dividing it, or None when none of
    lms[:checked_upto] does.  It stays valid, and the reducer choice stays
    that of a linear scan, as long as the caller only appends to `lms`;
    callers that change their reducer lists otherwise pass a fresh dict.
    """
    work = {e: c for e, c in poly.items() if c}
    mult = math.lcm(*(c.denominator for c in work.values()))
    scale = Fraction(mult)
    work = {e: int(c * mult) for e, c in work.items()}
    remainder = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        if not c:
            continue
        checked, idx = memo.get(m, (0, None))
        if idx is None and checked < len(lms):
            for k in range(checked, len(lms)):
                if mono_divide(m, lms[k]) is not None:
                    idx = k
                    break
            memo[m] = (len(lms), idx)
        if idx is None:
            remainder[m] = remainder.get(m, 0) + Fraction(c) / scale
            continue
        counter.spend()
        lm = lms[idx]
        q = mono_divide(m, lm)
        g = basis[idx]
        lead = g[lm]
        if quotients is not None:
            quotients.append((idx, q, Fraction(c) / scale))
        if lead != 1:
            for e in work:
                work[e] *= lead
            scale *= lead
        for e, a in g.items():
            if e == lm:
                continue
            t = mono_mul(e, q)
            v = work.get(t, 0) - c * a
            if v:
                work[t] = v
            elif t in work:
                del work[t]
        if work:
            g0 = _content(work)
            if g0 > 1:
                work = {e: v // g0 for e, v in work.items()}
                scale /= g0
    return {e: c for e, c in remainder.items() if c}


def _buchberger(generators, key, wdeg, counter):
    """Groebner basis of the ideal generated by the given term dicts.

    Pairs are processed in increasing (weighted lcm degree, lcm key, i, j)
    order; the coprime and chain criteria prune the queue.
    """
    basis = []
    lms = []
    memo = {}
    pending = set()
    heap = []

    def push_pairs(new_index):
        lm_new = lms[new_index]
        for i in range(new_index):
            lcm = mono_lcm(lms[i], lm_new)
            heapq.heappush(heap, (wdeg(lcm), key(lcm), i, new_index))
            pending.add((i, new_index))

    for g in generators:
        lm, ints = _int_normalize(g, key)
        if lm is None:
            continue
        basis.append(ints)
        lms.append(lm)
        push_pairs(len(basis) - 1)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]):
            continue  # coprime leading terms
        if any(k != i and k != j
               and mono_divide(lcm, lms[k]) is not None
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(basis))):
            continue  # chain criterion
        qi = mono_divide(lcm, lms[i])
        qj = mono_divide(lcm, lms[j])
        gi, gj = basis[i], basis[j]
        li, lj = gi[lms[i]], gj[lms[j]]
        spoly = {}
        for e, c in gi.items():
            spoly[mono_mul(e, qi)] = c * lj
        for e, c in gj.items():
            t = mono_mul(e, qj)
            v = spoly.get(t, 0) - c * li
            if v:
                spoly[t] = v
            elif t in spoly:
                del spoly[t]
        counter.spend()
        r = _nf(spoly, lms, basis, key, counter, memo)
        if r:
            lm, ints = _int_normalize(r, key)
            basis.append(ints)
            lms.append(lm)
            push_pairs(len(basis) - 1)

    return _interreduce(basis, lms, key, counter)


def _interreduce(basis, lms, key, counter):
    """Minimalize and tail-reduce, then return the unique monic reduced
    basis as {monomial: Fraction} dicts."""
    order = sorted(range(len(basis)), key=lambda i: key(lms[i]))
    kept = []
    for i in order:
        if not any(mono_divide(lms[i], lms[j]) is not None for j in kept):
            kept.append(i)
    polys = [basis[i] for i in kept]
    heads = [lms[i] for i in kept]
    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            other_lms = heads[:i] + heads[i + 1:]
            other_polys = polys[:i] + polys[i + 1:]
            r = _nf(polys[i], other_lms, other_polys, key, counter, {})
            if r != polys[i]:
                _, ints = _int_normalize(r, key)
                polys[i] = ints
                changed = True
    monic = []
    for lm, p in zip(heads, polys):
        lead = Fraction(p[lm])
        monic.append({e: c / lead for e, c in p.items()})
    return heads, monic


# ---------------------------------------------------------------------------

class DimensionReport(NamedTuple):
    dimension: int
    witness: tuple | None  # maximal independent variable subset (names)


class IdealHandle:
    """An ideal in a polynomial ring with cached reduced Groebner bases.

    Handles are immutable apart from the write-once per-order basis cache
    and the first-divisor memo of `normal_form`, whose entries are exact
    whenever written; concurrent reads are safe and duplicated basis
    computations agree by the determinism contract.
    """

    __slots__ = ("context", "generators", "_cache", "_prepared", "_dim")

    def __init__(self, context, generators):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be Polynomial values")
            if g.context != context:
                raise ValueError("generator context mismatch")
            if not g.is_zero:
                gens.append(g)
        self.context = context
        self.generators = tuple(gens)
        self._cache = {}
        self._prepared = {}
        self._dim = None

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"

    # -- bases ---------------------------------------------------------------

    def groebner_basis(self, order=DEGREVLEX, budget=None):
        """The unique reduced Groebner basis under `order`, cached."""
        cached = self._cache.get(order)
        if cached is not None:
            return cached
        ctx = self.context
        key = _memo_key(order.key_for(ctx))
        counter = StepCounter(budget)
        heads, polys = _buchberger([dict(g.terms) for g in self.generators],
                                   key, ctx.weighted_degree, counter)
        basis = tuple(Polynomial._make(ctx, d) for d in polys)
        self._cache[order] = basis
        return basis

    def normal_form(self, p, order=DEGREVLEX, budget=None):
        if p.context != self.context:
            raise ValueError("polynomial context mismatch")
        prepared = self._prepared.get(order)
        if prepared is None:
            basis = self.groebner_basis(order, budget)
            key = _memo_key(order.key_for(self.context))
            lms = []
            dicts = []
            for g in basis:
                lm, ints = _int_normalize(dict(g.terms), key)
                lms.append(lm)
                dicts.append(ints)
            prepared = (key, lms, dicts, {})
            self._prepared[order] = prepared
        key, lms, dicts, memo = prepared
        r = _nf(dict(p.terms), lms, dicts, key, StepCounter(budget), memo)
        return Polynomial._make(self.context, r)

    def contains(self, p, budget=None):
        return self.normal_form(p, budget=budget).is_zero

    def equals(self, other, budget=None):
        """Mutual inclusion of generators."""
        if self.context != other.context:
            raise ValueError("ideal context mismatch")
        return (all(other.contains(g, budget) for g in self.generators)
                and all(self.contains(g, budget) for g in other.generators))

    def is_zero_ideal(self):
        return not self.generators

    def is_unit(self, budget=None):
        gb = self.groebner_basis(budget=budget)
        return len(gb) == 1 and gb[0].is_constant

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, IdealHandle):
            if self.context != other.context:
                raise ValueError("ideal context mismatch")
            return IdealHandle(self.context, self.generators + other.generators)
        return NotImplemented

    def intersection(self, other, budget=None):
        """Computed with a tag variable: eliminate u from u*I + (1-u)*J."""
        if self.context != other.context:
            raise ValueError("ideal context mismatch")
        ctx = self.context
        (tag,) = ctx.fresh_names("u", 1)
        big = ctx.insert_front((tag,))
        u = big.gen(0)
        gens = [u * _lift(g, big, 1) for g in self.generators]
        gens += [(big.one - u) * _lift(g, big, 1) for g in other.generators]
        eliminated = _eliminate_front(big, gens, 1, budget)
        return IdealHandle(ctx, [_drop(g, ctx, 1) for g in eliminated])

    def quotient(self, g, budget=None):
        """The ideal quotient (I : g) for a nonzero polynomial g."""
        if g.is_zero:
            raise ValueError("quotient by zero is undefined")
        if g.is_constant:
            return IdealHandle(self.context, self.generators)
        meet = self.intersection(IdealHandle(self.context, [g]), budget)
        return IdealHandle(self.context,
                           [exact_divide(h, g) for h in meet.generators])

    def saturation(self, g, budget=None):
        """(I : g^inf) via one elimination: adjoin y, add y*g - 1, drop y."""
        if g.is_zero:
            raise ValueError("saturation by zero is undefined")
        if g.is_constant:
            return IdealHandle(self.context, self.generators)
        ctx = self.context
        (aux,) = ctx.fresh_names("y", 1)
        big = ctx.insert_front((aux,))
        y = big.gen(0)
        gens = [_lift(h, big, 1) for h in self.generators]
        gens.append(y * _lift(g, big, 1) - big.one)
        eliminated = _eliminate_front(big, gens, 1, budget)
        return IdealHandle(ctx, [_drop(h, ctx, 1) for h in eliminated])

    def saturation_by_ideal(self, other, budget=None):
        """(I : J^inf), the intersection of the per-generator saturations."""
        if self.context != other.context:
            raise ValueError("ideal context mismatch")
        if not other.generators:
            raise ValueError("saturation by the zero ideal is undefined")
        result = None
        for g in other.generators:
            sat = self.saturation(g, budget)
            result = sat if result is None else result.intersection(sat, budget)
        return result

    # -- dimension and height ---------------------------------------------------

    def krull_dimension(self, budget=None):
        """Dimension of context/I via independent sets modulo leading terms."""
        if self._dim is not None:
            return self._dim
        ctx = self.context
        gb = self.groebner_basis(budget=budget)
        if any(g.is_constant and not g.is_zero for g in gb):
            report = DimensionReport(-1, None)
        else:
            key = DEGREVLEX.key_for(ctx)
            supports = []
            for g in gb:
                lm = max((e for e, _ in g.terms), key=key)
                supports.append(frozenset(i for i, e in enumerate(lm) if e))
            hitting = _min_hitting_set(supports, ctx.arity)
            independent = tuple(sorted(set(range(ctx.arity)) - hitting))
            report = DimensionReport(
                len(independent),
                tuple(ctx.names[i] for i in independent))
        self._dim = report
        return report


def ideal(context, generators):
    return IdealHandle(context, generators)


def _min_hitting_set(supports, nvars):
    """Smallest set of variables meeting every support set (branch & bound)."""
    minimal = []
    for s in sorted(set(supports), key=len):
        if not any(t <= s for t in minimal):
            minimal.append(s)
    best = [set(range(nvars))]

    def search(idx, chosen):
        if len(chosen) >= len(best[0]):
            return
        while idx < len(minimal) and minimal[idx] & chosen:
            idx += 1
        if idx == len(minimal):
            best[0] = set(chosen)
            return
        for v in sorted(minimal[idx]):
            chosen.add(v)
            search(idx + 1, chosen)
            chosen.remove(v)

    search(0, set())
    return best[0]


# ---------------------------------------------------------------------------
# context plumbing for elimination

def _lift(p, big_context, shift):
    pad = (0,) * shift
    return Polynomial.from_terms(
        big_context, ((pad + e, c) for e, c in p.terms))


def _drop(p, small_context, shift):
    terms = []
    for e, c in p.terms:
        if any(e[:shift]):
            raise ValueError("polynomial still involves eliminated variables")
        terms.append((e[shift:], c))
    return Polynomial.from_terms(small_context, terms)


def _eliminate_front(big_context, generators, front_count, budget=None):
    """Basis elements of the ideal that avoid the first `front_count`
    variables; with a block order their span is the elimination ideal."""
    order = MonomialOrder.elimination(tuple(range(front_count)))
    handle = IdealHandle(big_context, generators)
    basis = handle.groebner_basis(order, budget)
    return [g for g in basis if all(not any(e[:front_count]) for e, _ in g.terms)]


def exact_divide(p, g):
    """p / g when g divides p exactly; raises otherwise."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    ctx = p.context
    key = _memo_key(DEGREVLEX.key_for(ctx))
    lm, ints = _int_normalize(dict(g.terms), key)
    lc = g.coefficient(lm)
    quotients = []
    r = _nf(dict(p.terms), [lm], [ints], key, StepCounter(), {}, quotients)
    if r:
        raise ValueError("polynomial is not divisible")
    acc = {}
    for _, q, c in quotients:
        acc[q] = acc.get(q, 0) + c
    quotient = Polynomial._make(ctx, acc)
    return quotient / lc


# ---------------------------------------------------------------------------
# top-level operation names

def reduced_groebner(handle, order=DEGREVLEX, budget=None):
    return handle.groebner_basis(order, budget)


def ideal_membership(p, handle, budget=None):
    return handle.contains(p, budget)


def ideal_equal(left, right, budget=None):
    return left.equals(right, budget)


def saturation(handle, g, budget=None):
    return handle.saturation(g, budget)


def ideal_quotient(handle, g, budget=None):
    return handle.quotient(g, budget)


def krull_dimension(handle, budget=None):
    return handle.krull_dimension(budget)


def height_in_quotient(defining_ideal, other, quotient_dim=None, budget=None):
    """Height of the image of `other` in P/defining_ideal.

    Computed as dim difference, which is the height precisely because the
    validated quotients are complete intersections, hence equidimensional
    and catenary; the unit ideal gets +infinity.
    """
    total = defining_ideal + other
    if total.is_unit(budget):
        return float("inf")
    if quotient_dim is None:
        quotient_dim = defining_ideal.krull_dimension(budget).dimension
    return quotient_dim - total.krull_dimension(budget).dimension


def is_nonzerodivisor(defining_ideal, g, budget=None):
    """True iff g is regular on P/defining_ideal, i.e. (I : g) = I."""
    if g.is_zero:
        raise ValueError("the zero polynomial is never a nonzerodivisor")
    return defining_ideal.quotient(g, budget).equals(defining_ideal, budget)
