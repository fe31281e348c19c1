"""Independent oracles the test suite checks the library against.

These deliberately avoid the library's engine: the Buchberger oracle uses
its own division loop and no pair criteria, the dimension oracle
enumerates every variable subset, and the saturation oracle iterates
ideal quotients instead of the one-shot elimination trick.

The second half keeps slow paths the library replaced by exact shortcuts,
so the shortcuts can be checked against them: the nested order keys, the
flat tuple keys that the int order keys read in base 2^64, the Schreyer
keys built from chains of such tuples, the ring kernel on exponent tuples
before monomials were packed into ints, the max-scan normal form (with or
without a signature bound), the chain-scan Buchberger and the multi-pass
interreduction of the ring kernel (these two build every module basis the
tests need, since the library's kernel builds only ring bases), the
Gebauer-Moeller engine that the signature-based pair loop replaced, the
separate module engine over (exponents, component) terms that resolutions
ran on before the ring kernel took the flat module encoding, with a
record for every pair (and syzygy generators by eliminating components on
it), the pass that pruned syzygies to minimal generators with one basis
per candidate, the minimization of a tower by `Polynomial` arithmetic
that rescans every entry for a unit, the ideal quotient and the
nonzerodivisor test by (I : g) == I, and the saturation that gave the
Fitting heights off the irrelevant ideal.  Last come the module
presentations (columns of a polynomial matrix) that `free_resolution`
resolved before it took only ideals, and the minimized tower it built
before it read Betti numbers off the Schreyer frame: stages interreduced
under nested Schreyer keys, then minimized by cancelling constant entries
on term dicts, and `syzygies`, pruned the same way; both take their
Schreyer records from the library's packed kernel through one tuple
adapter, `schreyer_syzygies`.  The very last is the
Laplace expansion of minors by `Polynomial` arithmetic that
`PolyMatrix.minors` ran before it expanded on packed int monomials.
"""

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add, ge, mul, neg, sub

from diffrees.eagon_northcott import FreeComplex
from diffrees.errors import ResolutionLengthError
from diffrees.matrix import PolyMatrix
from diffrees.poly import DEGREVLEX, Polynomial, mono_mul
from diffrees.groebner import (IdealHandle, StepCounter, _interreduce,
                               _lcm, _Monomials, _nf, _primitive,
                               _schreyer_records, _spoly, _steps)


def mono_divide(a, b):
    """a / b as an exponent tuple, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def coefficient(p, exponents):
    """The coefficient of the monomial `exponents` in `p`, 0 if absent."""
    return dict(p.terms).get(exponents, Fraction(0))


def _leading(p, key):
    return max((e for e, _ in p.terms), key=key)


def naive_remainder(p, basis, key):
    """Textbook multivariate division, leading terms only."""
    ctx = p.context
    remainder = ctx.zero
    while not p.is_zero:
        lm = _leading(p, key)
        lc = coefficient(p, lm)
        for g in basis:
            glm = _leading(g, key)
            q = mono_divide(lm, glm)
            if q is not None:
                p = p - g * ctx.monomial(q, lc / coefficient(g, glm))
                break
        else:
            t = ctx.monomial(lm, lc)
            remainder = remainder + t
            p = p - t
    return remainder


def naive_buchberger(context, generators, order=DEGREVLEX):
    """No-criteria Buchberger followed by minimalization and tail
    reduction; returns the monic reduced basis sorted by leading term."""
    key = flat_key_for(order, context)
    basis = [g for g in generators if not g.is_zero]
    if not basis:
        return ()
    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                f, g = basis[i], basis[j]
                lf, lg = _leading(f, key), _leading(g, key)
                lcm = tuple(max(a, b) for a, b in zip(lf, lg))
                s = (f * context.monomial(mono_divide(lcm, lf),
                                          1 / coefficient(f, lf))
                     - g * context.monomial(mono_divide(lcm, lg),
                                            1 / coefficient(g, lg)))
                r = naive_remainder(s, basis, key)
                if not r.is_zero:
                    basis.append(r)
                    changed = True
    minimal = []
    for f in sorted(basis, key=lambda g: key(_leading(g, key))):
        lf = _leading(f, key)
        if not any(mono_divide(lf, _leading(g, key)) is not None
                   for g in minimal):
            minimal.append(f)
    reduced = []
    for i, f in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = naive_remainder_full(f, others, key)
        reduced.append(r / coefficient(r, _leading(r, key)))
    reduced.sort(key=lambda g: key(_leading(g, key)))
    return tuple(reduced)


def naive_remainder_full(p, basis, key):
    """Division reducing every term, not just the leading one."""
    ctx = p.context
    remainder = ctx.zero
    while not p.is_zero:
        lm = _leading(p, key)
        lc = coefficient(p, lm)
        for g in basis:
            glm = _leading(g, key)
            q = mono_divide(lm, glm)
            if q is not None:
                p = p - g * ctx.monomial(q, lc / coefficient(g, glm))
                break
        else:
            remainder = remainder + ctx.monomial(lm, lc)
            p = p - ctx.monomial(lm, lc)
    return remainder


def brute_force_dimension(handle):
    """Largest variable subset missing the support of every leading term,
    found by enumerating all subsets; -1 for the unit ideal."""
    ctx = handle.context
    key = flat_key_for(DEGREVLEX, ctx)
    gb = handle.groebner_basis()
    if any(g.is_constant and not g.is_zero for g in gb):
        return -1
    supports = [frozenset(i for i, e in enumerate(_leading(g, key)) if e)
                for g in gb]
    n = ctx.arity
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            s = set(subset)
            if not any(sup <= s for sup in supports):
                return size
    return -1


def exact_divide(p, g):
    """p / g by textbook division; raises when g does not divide p."""
    ctx = p.context
    key = flat_key_for(DEGREVLEX, ctx)
    glm = _leading(g, key)
    quotient = ctx.zero
    while not p.is_zero:
        lm = _leading(p, key)
        q = mono_divide(lm, glm)
        if q is None:
            raise ValueError("polynomial is not divisible")
        t = ctx.monomial(q, coefficient(p, lm) / coefficient(g, glm))
        quotient = quotient + t
        p = p - t * g
    return quotient


def ideal_quotient(handle, g):
    """(I : g) for a nonzero g, as (I meet (g)) / g."""
    if g.is_zero:
        raise ValueError("quotient by zero is undefined")
    meet = handle.intersection(IdealHandle(handle.context, [g]))
    return IdealHandle(handle.context,
                       [exact_divide(h, g) for h in meet.generators])


def is_nonzerodivisor(defining_ideal, g):
    """True iff g is regular on P/defining_ideal, i.e. (I : g) = I."""
    if g.is_zero:
        raise ValueError("the zero polynomial is never a nonzerodivisor")
    return ideal_quotient(defining_ideal, g).equals(defining_ideal)


def iterated_quotient_saturation(handle, g, max_rounds=64):
    """(I : g^inf) by stabilizing (.. : g); the library instead uses one
    auxiliary-variable elimination."""
    current = handle
    for _ in range(max_rounds):
        nxt = ideal_quotient(current, g)
        if nxt.equals(current):
            return current
        current = nxt
    raise RuntimeError("saturation did not stabilize")


def dimension_via_library_free(context, generators):
    return brute_force_dimension(IdealHandle(context, generators))


def hilbert_numerator_from_leading_terms(handle):
    """Numerator of the Hilbert series of P/I over (1-t)^n, computed by
    inclusion-exclusion over the minimal generators of the leading-term
    ideal (standard graded only)."""
    from collections import Counter
    ctx = handle.context
    assert ctx.is_standard_graded
    key = flat_key_for(DEGREVLEX, ctx)
    lms = [_leading(g, key) for g in handle.groebner_basis()]
    out = Counter({0: 1})
    for r in range(1, len(lms) + 1):
        sign = -1 if r % 2 else 1
        for subset in combinations(lms, r):
            lcm = tuple(max(col) for col in zip(*subset))
            out[sum(lcm)] += sign
    return {d: c for d, c in out.items() if c}


def hilbert_numerator_from_resolution(resolution):
    """Alternating sum of t^shift over the stages of a graded resolution."""
    from collections import Counter
    out = Counter()
    for stage, shifts in enumerate(resolution.shifts):
        sign = -1 if stage % 2 else 1
        for s in shifts:
            out[s] += sign
    return {d: c for d, c in out.items() if c}


# ---------------------------------------------------------------------------
# replaced paths

def flat_key_for(order, context):
    """`MonomialOrder.key_for` before order keys were ints: a sort key
    function on exponent tuples, larger key meaning larger monomial.  Keys
    are flat integer tuples, all of one length for a given order and
    context."""
    weights = context.weights
    if order.kind == "lex":
        return lambda e: e
    if order.kind == "degrevlex":
        return _drl_key(weights)
    front = order.front
    if front and front[-1] >= context.arity:
        raise ValueError("front block index out of range")
    back = tuple(i for i in range(context.arity) if i not in set(front))
    fkey = _drl_key(tuple(weights[i] for i in front))
    bkey = _drl_key(tuple(weights[i] for i in back))
    return lambda e: (fkey(tuple(e[i] for i in front))
                      + bkey(tuple(e[i] for i in back)))


def _drl_key(weights):
    """Flat key (deg, -x_n, ..., -x_1).  Every key of one order has the
    same length, so keys of composite orders are plain concatenations and
    compare like the nested pairs they stand for."""
    def key(e):
        return ((sum(map(mul, weights, e)),)
                + tuple(map(neg, reversed(e))))
    return key


def induced_key(ring_key, chain, n):
    """The Schreyer order of a stage whose components carry `chain`, on
    flat tuple keys, as `resolution` built it before its keys were ints.

    `chain[j]` is (position, lead, tie) for component j: the position-
    over-term coordinate of the F_0 component its chain of leads ends in,
    the sum of the lead exponents along that chain, and the negated index
    of the generator at each stage.  A term x^a e_j then compares as its
    image x^(a + lead) in F_0, ties broken toward the earlier generator at
    the first stage that differs: the key the stage-by-stage induced
    orders give, in one ring-key call.
    """
    def key(t):
        position, lead, tie = chain[t[n]]
        return (position,) + ring_key(tuple(map(add, t[:n], lead))) + tie
    return key


def next_chain(chain, lms, n):
    """The chain of the stage whose generators lead with `lms`."""
    out = []
    for j, lm in enumerate(lms):
        position, lead, tie = chain[lm[n]]
        out.append((position, tuple(map(add, lead, lm[:n])), tie + (-j,)))
    return out


def nested_key_for(order, context):
    """The order keys before they were flattened: degrevlex keys were
    (deg, (-x_n, ..., -x_1)) and block keys a pair of those."""
    def drl(weights):
        def key(e):
            deg = sum(w * x for w, x in zip(weights, e))
            return (deg, tuple(-x for x in reversed(e)))
        return key

    weights = context.weights
    if order.kind == "lex":
        return lambda e: e
    if order.kind == "degrevlex":
        return drl(weights)
    front = order.front
    back = tuple(i for i in range(context.arity) if i not in set(front))
    fkey = drl(tuple(weights[i] for i in front))
    bkey = drl(tuple(weights[i] for i in back))
    return lambda e: (fkey(tuple(e[i] for i in front)),
                      bkey(tuple(e[i] for i in back)))


def nested_pot_key(ring_key):
    return lambda t: (-t[1], ring_key(t[0]))


def nested_schreyer_key(prev_key, prev_lms):
    def key(t):
        e, c = t
        mono, comp = prev_lms[c]
        return (prev_key((mono_mul(e, mono), comp)), -c)
    return key


# The ring kernel on exponent tuples, as it was before `groebner` packed
# its monomials into ints: the heap-ordered normal form, the S-polynomial
# and the order-key memo, on {exponent tuple: int} dicts.

def memo_key(key):
    """Memoize an order key; monomials repeat heavily within one run."""
    cache = {}

    def cached(e):
        v = cache.get(e)
        if v is None:
            v = cache[e] = key(e)
        return v

    return cached


def tuple_primitive(ints, key):
    """Content-free form of a nonzero integer dict with positive leading
    coefficient, as (lm, dict)."""
    g0 = math.gcd(*ints.values())
    if g0 > 1:
        ints = {e: v // g0 for e, v in ints.items()}
    lm = max(ints, key=key)
    if ints[lm] < 0:
        ints = {e: -v for e, v in ints.items()}
    return lm, ints


def tuple_int_normalize(d, key):
    """Content-free integer form with positive leading coefficient; accepts
    int or Fraction coefficients.  Returns (lm, dict) or (None, {})."""
    d = {e: c for e, c in d.items() if c}
    if not d:
        return None, {}
    mult = math.lcm(*(c.denominator for c in d.values()))
    return tuple_primitive({e: c.numerator * (mult // c.denominator)
                            for e, c in d.items()}, key)


def int_normalize(d, mons):
    """`tuple_int_normalize` of a packed dict whose negated keys `mons`
    holds, as the library's kernel takes it.  Returns (lm, dict) or
    (None, {})."""
    d = {e: c for e, c in d.items() if c}
    if not d:
        return None, {}
    mult = math.lcm(*(c.denominator for c in d.values()))
    return _primitive({e: c.numerator * (mult // c.denominator)
                       for e, c in d.items()}, mons)


def tuple_nf(poly, lms, basis, key, counter, memo, quotients=None):
    """Full normal form against content-free integer reducers.

    Returns (remainder, scale): an {monomial: int} dict and a rational
    such that remainder / scale is the exact normal form.  When
    `quotients` is a list it receives (index, monomial, multiplier)
    triples, the multipliers taken against the monic reducers.

    A term c x^m meets the reducer g with lead l x^lm by gcd-scaled
    cancellation: with h = gcd(c, l), the work and the remainder so far
    are multiplied by l // h and (c // h) x^q g is subtracted.  The
    content of work and remainder is removed only after a step whose
    factor l // h is not 1, which bounds the coefficients without a
    rebuild after every step.

    `memo` maps a monomial to (checked_upto, first_divisor_index): the
    index of the first leading monomial dividing it, or None when none of
    lms[:checked_upto] does.  It stays valid, and the reducer choice stays
    that of a linear scan, as long as the caller only appends to `lms`;
    callers that change their reducer lists otherwise pass a fresh dict.

    The working polynomial is a dict next to a min-heap of (negated key,
    monomial); a monomial is pushed when it enters the dict and cancelled
    terms stay there as zeros until popped.  Every term a reduction adds
    is smaller than the lead it cancels, so the heap pops the terms in
    descending order and a popped monomial never comes back.
    """
    work = {e: c for e, c in poly.items() if c}
    mult = math.lcm(*(c.denominator for c in work.values()))
    scale = Fraction(mult)
    work = {e: c.numerator * (mult // c.denominator) for e, c in work.items()}
    heap = [(tuple(map(neg, key(e))), e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        checked, idx = memo.get(m, (0, None))
        if idx is None and checked < len(lms):
            for k in range(checked, len(lms)):
                if all(map(ge, m, lms[k])):
                    idx = k
                    break
            memo[m] = (len(lms), idx)
        if idx is None:
            remainder[m] = c
            continue
        counter.spend()
        lm = lms[idx]
        q = tuple(map(sub, m, lm))
        g = basis[idx]
        lead = g[lm]
        if quotients is not None:
            quotients.append((idx, q, c / scale))
        h = math.gcd(c, lead)
        f = lead // h
        c //= h
        if f != 1:
            for e in work:
                work[e] *= f
            for e in remainder:
                remainder[e] *= f
            scale *= f
        for e, a in g.items():
            if e == lm:
                continue
            t = tuple(map(add, e, q))
            v = work.get(t)
            if v is None:
                work[t] = -c * a
                heapq.heappush(heap, (tuple(map(neg, key(t))), t))
            else:
                work[t] = v - c * a
        if f != 1:
            g0 = math.gcd(*work.values(), *remainder.values())
            if g0 > 1:
                work = {e: v // g0 for e, v in work.items()}
                remainder = {e: v // g0 for e, v in remainder.items()}
                scale /= g0
    return remainder, scale


def tuple_spoly(gi, lmi, gj, lmj):
    """The S-polynomial lc_j x^qi g_i - lc_i x^qj g_j of two content-free
    integer elements, with the quotients qi, qj of lcm(lm_i, lm_j) by
    their leads."""
    lcm = mono_lcm(lmi, lmj)
    qi = mono_divide(lcm, lmi)
    qj = mono_divide(lcm, lmj)
    li, lj = gi[lmi], gj[lmj]
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
    return spoly, qi, qj


def int_key(key_tuple):
    """A tuple order key read as one int, with a 64-bit digit per
    coordinate, most significant first: the int key of the library that
    holds the same digits."""
    return sum(c << (64 * (len(key_tuple) - 1 - i))
               for i, c in enumerate(key_tuple))


def int_keyed(key):
    """The tuple key `key` as an int key, the form the library's kernels
    take."""
    return lambda e: int_key(key(e))


def max_scan_nf(poly, lms, basis, key, counter, memo, quotients=None,
                bound=None):
    """`groebner._nf` as it was: the lead found by max() over the whole
    working polynomial at every step.  With `bound` = (sigs, limit), as
    `groebner._nf` takes it, `key` is an int key and a term m is reduced
    by the first reducer k, by a fresh scan of every lead, whose multiple
    has the signature (key of m + sigs[k][0], sigs[k][1]) below `limit`."""
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
        if bound is None:
            checked, idx = memo.get(m, (0, None))
            if idx is None and checked < len(lms):
                for k in range(checked, len(lms)):
                    if mono_divide(m, lms[k]) is not None:
                        idx = k
                        break
                memo[m] = (len(lms), idx)
        else:
            sigs, limit = bound
            at = key(m)
            idx = next((k for k in range(len(lms))
                        if mono_divide(m, lms[k]) is not None
                        and (at + sigs[k][0], sigs[k][1]) < limit), None)
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
            g0 = math.gcd(*work.values())
            if g0 > 1:
                work = {e: v // g0 for e, v in work.items()}
                scale /= g0
    return {e: c for e, c in remainder.items() if c}


def chain_scan_buchberger(generators, key, wdeg, counter, rank=1):
    """`groebner._buchberger` as it was: every generator appended to the
    basis unreduced, the coprime and chain criteria tested on every popped
    pair, the chain criterion by a scan of the whole basis against the
    pending pairs, all on the tuple kernel."""
    basis = []
    lms = []
    memo = {}
    pending = set()
    heap = []

    def push_pairs(new_index):
        lm_new = lms[new_index]
        for i in range(new_index):
            if rank > 1 and lms[i][-1] != lm_new[-1]:
                continue
            lcm = mono_lcm(lms[i], lm_new)
            heapq.heappush(heap, (wdeg(lcm), key(lcm), i, new_index))
            pending.add((i, new_index))

    for g in generators:
        lm, ints = tuple_int_normalize(g, key)
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
               and all(map(ge, lcm, lms[k]))
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(basis))):
            continue  # chain criterion
        spoly, _, _ = tuple_spoly(basis[i], lms[i], basis[j], lms[j])
        counter.spend()
        r, _ = tuple_nf(spoly, lms, basis, key, counter, memo)
        if r:
            lm, ints = tuple_int_normalize(r, key)
            basis.append(ints)
            lms.append(lm)
            push_pairs(len(basis) - 1)

    return basis, lms


def monic_basis(built):
    """A packed reduced basis as `groebner._buchberger` and
    `gm_buchberger` return it, as the leads and the monic
    {exponents: Fraction} dicts, on exponent tuples."""
    mons, lms, basis, _ = built
    unpack = mons.unpack
    return ([unpack(lm) for lm in lms],
            [{unpack(e): Fraction(c, g[lm]) for e, c in g.items()}
             for lm, g in zip(lms, basis)])


def gm_buchberger(generators, mons, wdeg, counter):
    """`groebner._buchberger` before its signature-based pair loop: the
    unique reduced Groebner basis of the ideal the given term dicts
    generate, packed into the fresh `_Monomials` `mons`, as `_interreduce`
    returns it.

    The generators are not taken in as they come.  Each waits in the pair
    queue at (weighted degree of its lead, int key of its lead, -1,
    index);
    when popped it is reduced against the basis found so far and enters
    only if its remainder is nonzero, so a generator that the others
    already generate costs one normal form and no pairs.  Pairs (i, j) are
    processed in increasing (weighted lcm degree, lcm int key, i, j) order and
    pruned when a new element t arrives, by the update of Gebauer and
    Moeller (JSC 6, 1988).  Among the new pairs (i, t) one is kept per
    lcm, none whose lcm another new lcm strictly divides, and no lcm class
    that holds a pair with coprime leads; a pending pair (i, j) goes when
    lm_t divides its lcm and that lcm differs from lcm(i, t) and lcm(j, t).
    """
    guard = mons.guard
    pack, unpack = mons.pack, mons.unpack
    generators = [{pack(e): c for e, c in g.items()} for g in generators]
    inputs = []
    basis = []
    lms = []
    memo = {}
    pending = {}
    heap = []

    def push_pairs(t):
        lm_new = lms[t]
        lcms = {}
        classes = {}
        coprime = set()
        for i in range(t):
            lcm = lcms[i] = _lcm(lms[i], lm_new, guard)
            classes.setdefault(lcm, i)
            if lcm == lms[i] + lm_new:
                coprime.add(lcm)
        for (i, j), lcm in list(pending.items()):
            if (((lcm | guard) - lm_new) & guard == guard
                    and lcm != lcms.get(i) and lcm != lcms.get(j)):
                del pending[(i, j)]
        for lcm, i in classes.items():
            if lcm in coprime:
                continue
            high = lcm | guard
            if any(other != lcm and (high - other) & guard == guard
                   for other in classes):
                continue
            pending[(i, t)] = lcm
            e = unpack(lcm)
            heapq.heappush(heap, (wdeg(e), mons.key(e), i, t))

    for g in generators:
        lm, ints = int_normalize(g, mons)
        if lm is None:
            continue
        heapq.heappush(heap, (wdeg(unpack(lm)), -mons[lm], -1, len(inputs)))
        inputs.append(ints)

    while heap:
        _, lcm_key, i, j = heapq.heappop(heap)
        if i < 0:
            r, _ = _nf(inputs[j], lms, basis, mons, counter, memo)
        else:
            lcm = pending.pop((i, j), None)
            if lcm is None:
                continue
            spoly, _, _ = _spoly(basis[i], lms[i], basis[j], lms[j], lcm,
                                 -lcm_key, mons)
            counter.spend()
            r, _ = _nf(spoly, lms, basis, mons, counter, memo)
        if r:
            lm, ints = _primitive(r, mons)
            basis.append(ints)
            lms.append(lm)
            push_pairs(len(basis) - 1)

    return _interreduce(basis, lms, mons, counter)


def multipass_interreduce(basis, lms, key, counter):
    """`groebner._interreduce` as it was: every kept element re-reduced
    against all the others until a pass changes nothing."""
    order = sorted(range(len(basis)), key=lambda i: key(lms[i]))
    kept = []
    for i in order:
        if not any(mono_divide(lms[i], lms[j]) is not None for j in kept):
            kept.append(i)
    polys = [tuple_int_normalize(basis[i], key)[1] for i in kept]
    heads = [lms[i] for i in kept]
    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            other_lms = heads[:i] + heads[i + 1:]
            other_polys = polys[:i] + polys[i + 1:]
            r = max_scan_nf(polys[i], other_lms, other_polys, key, counter,
                            {})
            if r != polys[i]:
                _, ints = tuple_int_normalize(r, key)
                polys[i] = ints
                changed = True
    monic = []
    for lm, p in zip(heads, polys):
        lead = Fraction(p[lm])
        monic.append({e: c / lead for e, c in p.items()})
    return heads, monic


# The module engine resolutions ran on before the ring kernel took the
# flat module encoding.  Terms are (exponents, component) pairs, elements
# {term: Fraction} dicts, reducers monic, and no pair criterion applies.

def pot_key(ring_key):
    """Position-over-term on (exponents, component) terms."""
    return lambda t: (-t[1],) + ring_key(t[0])


def schreyer_key(prev_key, prev_lms):
    """The order induced by the previous stage's leading terms."""
    def key(t):
        e, c = t
        mono, comp = prev_lms[c]
        return prev_key((tuple(map(add, e, mono)), comp)) + (-c,)
    return key


def mod_monic(d, key):
    lm = max(d, key=key)
    lc = d[lm]
    if lc == 1:
        return lm, dict(d)
    inv = Fraction(1) / lc
    return lm, {t: c * inv for t, c in d.items()}


def mod_nf(element, lms, gens, key, counter, quotients=None):
    """Full normal form in a free module against monic reducers, the
    working element kept next to a heap of negated keys."""
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


def module_buchberger(columns, key, wdeg, counter):
    """Module Groebner basis with a syzygy record for every same-component
    S-pair; returns (gens, lms, records, added)."""
    zero = Fraction(0)
    gens, lms, records, heap = [], [], [], []
    added = 0

    def push_pairs(k):
        mono_k, comp_k = lms[k]
        for i in range(k):
            mono_i, comp_i = lms[i]
            if comp_i != comp_k:
                continue
            lcm = mono_lcm(mono_i, mono_k)
            heapq.heappush(heap, (wdeg(lcm), key((lcm, comp_k)), i, k))

    for col in columns:
        if not col:
            continue
        lm, monic = mod_monic(col, key)
        gens.append(monic)
        lms.append(lm)
        push_pairs(len(gens) - 1)

    while heap:
        _, _, i, j = heapq.heappop(heap)
        (mi, _), (mj, _) = lms[i], lms[j]
        lcm = mono_lcm(mi, mj)
        qi = mono_divide(lcm, mi)
        qj = mono_divide(lcm, mj)
        spair = {}
        for (e, c0), a in gens[i].items():
            spair[(mono_mul(e, qi), c0)] = a
        for (e, c0), a in gens[j].items():
            t = (mono_mul(e, qj), c0)
            v = spair.get(t, zero) - a
            if v:
                spair[t] = v
            elif t in spair:
                del spair[t]
        counter.spend()
        quotients = []
        r = mod_nf(spair, lms, gens, key, counter, quotients)
        syz = {(qi, i): Fraction(1)}
        t = (qj, j)
        syz[t] = syz.get(t, zero) - 1
        for idx, q, c in quotients:
            t = (q, idx)
            v = syz.get(t, zero) - c
            if v:
                syz[t] = v
            elif t in syz:
                del syz[t]
        if r:
            lm, monic = mod_monic(r, key)
            gens.append(monic)
            lms.append(lm)
            added += 1
            syz[(tuple(0 for _ in lm[0]), len(gens) - 1)] = -r[lm]
            push_pairs(len(gens) - 1)
        records.append(syz)
    return gens, lms, records, added


def interreduce_module(gens, lms, key, counter):
    """Minimal, tail-reduced, monic family sorted by decreasing lead."""
    polys, heads = [], []
    for i in sorted(range(len(gens)), key=lambda i: key(lms[i])):
        mono_i, comp_i = lms[i]
        if any(comp_i == comp and all(map(ge, mono_i, mono))
               for mono, comp in heads):
            continue
        r = mod_nf(gens[i], heads, polys, key, counter)
        polys.append(mod_monic(r, key)[1])
        heads.append(lms[i])
    polys.reverse()
    heads.reverse()
    return polys, heads


def module_resolution_stages(pres):
    """The stages of `free_resolution` on the module engine above: per
    stage, the family (decreasing leads) and the records of its rerun."""
    ctx = pres.context
    key = pot_key(flat_key_for(DEGREVLEX, ctx))
    wdeg = ctx.weighted_degree
    columns = []
    for j in range(pres.matrix.ncols):
        columns.append({(e, i): c for i in range(pres.target_rank)
                        for e, c in pres.matrix.entry(i, j).terms})
    gens, lms, _, _ = module_buchberger(columns, key, wdeg, StepCounter())
    family, lms = interreduce_module(gens, lms, key, StepCounter())
    stages = []
    while family:
        _, _, records, added = module_buchberger(family, key, wdeg,
                                                 StepCounter())
        assert not added, "a stage family must already be a basis"
        records = [s for s in records if s]
        stages.append((family, records))
        if not records:
            break
        key = schreyer_key(key, list(lms))
        family, lms = interreduce_module(
            records, [max(s, key=key) for s in records], key, StepCounter())
    return stages


def syzygy_generators(pres):
    """Generators of the syzygies of the presentation's columns on the
    module engine above, as flat elements of rank m: the elements of a
    basis of the columns c_j + e_{r+j} whose leads lie in a component
    >= r, shifted down by r."""
    ctx = pres.context
    r, m = pres.target_rank, pres.matrix.ncols
    unit = (0,) * ctx.arity
    columns = []
    for j in range(m):
        col = {(e, i): c for i in range(r)
               for e, c in pres.matrix.entry(i, j).terms}
        col[(unit, r + j)] = Fraction(1)
        columns.append(col)
    key = pot_key(flat_key_for(DEGREVLEX, ctx))
    gens, lms, _, _ = module_buchberger(columns, key, ctx.weighted_degree,
                                       StepCounter())
    gens, lms = interreduce_module(gens, lms, key, StepCounter())
    return [{e + (c - r, m - 1 - c + r): a for (e, c), a in g.items()}
            for g, (_, comp) in zip(gens, lms) if comp >= r]


def minimal_generators(elements, ctx, rank):
    """Drop any element lying in the submodule spanned by the rest."""
    key = position_key(ctx)
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
            basis, lms = chain_scan_buchberger(others, key, wdeg, counter,
                                               rank)
            if not tuple_nf(current[i], lms, basis, key, counter, {})[0]:
                del current[i]
                changed = True
                break
    return current


def minimize_matrices(mats, shifts):
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


def module_free_resolution(pres):
    """(ranks, differentials, shifts) of `minimized_free_resolution`
    computed from `module_resolution_stages`, minimized by `minimize_matrices` above."""
    ctx = pres.context
    shifts = [list(pres.shifts)]
    mats = []
    rank = pres.target_rank
    for family, _ in module_resolution_stages(pres):
        rows = [[ctx.zero] * len(family) for _ in range(rank)]
        degrees = []
        for j, el in enumerate(family):
            per_comp = [{} for _ in range(rank)]
            for (e, comp), c in el.items():
                per_comp[comp][e] = c
            for i, d in enumerate(per_comp):
                rows[i][j] = Polynomial.from_terms(ctx, d.items())
            (e, comp), _ = next(iter(el.items()))
            degrees.append(ctx.weighted_degree(e) + shifts[-1][comp])
        mats.append(rows)
        shifts.append(degrees)
        rank = len(family)
    minimize_matrices(mats, shifts)
    ranks = (len(shifts[0]),) + tuple(len(m[0]) for m in mats)
    differentials = tuple(tuple(tuple(r) for r in m) for m in mats)
    return ranks, differentials, tuple(tuple(s) for s in
                                       shifts[:len(mats) + 1])


def saturated_height_off_irrelevant(algebra, fitting):
    """The height of I + F off the irrelevant ideal m as `fitting_profile`
    computed it before its dimension check: saturate by every variable,
    intersect, and measure; +inf when the saturation is the unit ideal."""
    ctx = algebra.context
    total = algebra.defining_ideal + fitting
    if total.is_unit():
        return float("inf")
    irrelevant = IdealHandle(ctx, list(ctx.gens()))
    sat = total.saturation_by_ideal(irrelevant)
    if sat.is_unit():
        return float("inf")
    return algebra.dimension - sat.krull_dimension().dimension


# ---------------------------------------------------------------------------
# module presentations, which `resolution` took before it resolved only
# quotients by ideals

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


def presentation_of_ideal(handle):
    """Rank-one presentation whose columns are the ideal generators."""
    ctx = handle.context
    row = tuple(handle.generators)
    return ModulePresentation(ctx, 1, PolyMatrix(ctx, (row,)))


def position_key(ctx):
    """Position-over-term over degrevlex on flat module terms: earlier
    components dominate."""
    ring_key = flat_key_for(DEGREVLEX, ctx)
    n = ctx.arity
    return lambda t: (t[-1],) + ring_key(t[:n])


def column(matrix, j):
    """Column j of a `PolyMatrix`, as a tuple."""
    return tuple(row[j] for row in matrix.entries)


def columns_to_elements(pres, rank):
    """The columns as flat elements of a free module of rank `rank`, which
    may exceed the target rank; their terms lie in the first components."""
    cols = []
    for j in range(pres.matrix.ncols):
        d = {}
        for i in range(pres.target_rank):
            tail = (i, rank - 1 - i)
            for e, c in pres.matrix.entry(i, j).terms:
                d[e + tail] = c
        cols.append(d)
    return cols


# ---------------------------------------------------------------------------
# the minimized tower

def nested_induced_key(prev_key, prev_lms, n):
    """Schreyer order induced by the previous stage: compare the images of
    the leading terms, break ties toward the earlier generator; stage k
    calls through k nested keys."""
    return lambda t: (prev_key(tuple(map(add, t[:n] + (0, 0),
                                         prev_lms[t[n]])))
                      + (-t[n],))


def column_degrees(pres):
    """Degrees of the presentation's columns; zero columns contribute
    shift 0."""
    out = []
    for j in range(pres.matrix.ncols):
        deg = 0
        for i in range(pres.target_rank):
            p = pres.matrix.entry(i, j)
            if not p.is_zero:
                deg = p.weighted_degree_info()[1] + pres.shifts[i]
                break
        out.append(deg)
    return tuple(out)


def elements_to_columns(family, n):
    """Each flat element as a column {row: {exponents: coefficient}}."""
    cols = []
    for el in family:
        col = {}
        for t, c in el.items():
            col.setdefault(t[n], {})[t[:n]] = c
        cols.append(col)
    return cols


def columns_to_matrix(ctx, columns, rows):
    """The PolyMatrix of {row: {exponents: coefficient}} columns, with the
    given row ids top to bottom."""
    return PolyMatrix(ctx, tuple(
        tuple(Polynomial._make(ctx, col.get(r, {})) for col in columns)
        for r in rows))


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


def minimize_columns(stages, shifts):
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
    cancelled column of the stage before vanishes, which raises
    explicitly, so it holds under `python -O`.
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
class MinimizedResolution:
    complex: FreeComplex
    shifts: tuple          # per stage, degree shifts of the free module

    @property
    def ranks(self):
        return self.complex.ranks

    @property
    def differentials(self):
        return self.complex.differentials

    @property
    def pd(self):
        return len(self.complex.ranks) - 1


def schreyer_syzygies(family, key, counter, n):
    """`groebner._schreyer_records` on flat {term: Fraction} elements: the
    records of the minimal pairs of `family`, a basis under the int key
    `key`, as flat elements of a free module of rank len(family) in monic
    coordinates, each with its lead first.  The family is packed and made
    content-free on entry, and the packed records are unpacked."""
    mons = _Monomials(key, n + 2)
    lms, basis = [], []
    for el in family:
        lm, ints = int_normalize({mons.pack(e): c for e, c in el.items()},
                                 mons)
        lms.append(lm)
        basis.append(ints)
    following = _Monomials(None, n + 2)
    leads, records = _schreyer_records(lms, basis, mons, following, counter)
    return [{following.unpack(t): Fraction(c, rec[lm])
             for t, c in rec.items()} for lm, rec in zip(leads, records)]


def stage_shifts(ctx, family, prev_shifts):
    """The degree shifts of a stage family of flat elements, each listing
    its lead first, over a stage whose shifts are `prev_shifts`."""
    n = ctx.arity
    return tuple(ctx.weighted_degree(t) + prev_shifts[t[n]]
                 for t in map(next, map(iter, family)))


def minimized_free_resolution(pres):
    """The minimal free resolution of the cokernel, as `free_resolution`
    built it before it read Betti numbers off the frame and took only
    ideals: stage one is a
    module Groebner basis of the columns, later stages the Schreyer
    records of the minimal pairs of the stage family, interreduced between
    stages under nested induced keys; families in decreasing lead order.
    The bases and interreductions run on `chain_scan_buchberger` and
    `multipass_interreduce`, because the library's kernel builds only
    ring bases.  The tower is then minimized by `minimize_columns`."""
    ctx = pres.context
    n = ctx.arity
    max_length = 2 * n + 4
    key = position_key(ctx)
    wdeg = ctx.weighted_degree
    stage_rank = pres.target_rank
    counter = _steps()

    basis, lms = chain_scan_buchberger(
        columns_to_elements(pres, stage_rank), key, wdeg, counter,
        stage_rank)
    lms, family = multipass_interreduce(basis, lms, key, counter)
    shifts = [dict(enumerate(pres.shifts))]
    stages = []
    while family:
        family.reverse()
        lms.reverse()
        stages.append(dict(enumerate(elements_to_columns(family, n))))
        shifts.append(dict(enumerate(stage_shifts(ctx, family,
                                                   shifts[-1]))))
        if len(stages) > max_length:
            raise ResolutionLengthError(
                f"resolution exceeded maximum length {max_length}")
        syz = schreyer_syzygies(family, int_keyed(key), counter, n)
        if not syz:
            break
        key = nested_induced_key(key, lms, n)
        lms, family = multipass_interreduce(
            syz, [max(s, key=key) for s in syz], key, counter)

    minimize_columns(stages, shifts)
    final = tuple(columns_to_matrix(ctx, [cols[c] for c in shifts[k + 1]],
                                    shifts[k])
                  for k, cols in enumerate(stages))
    return MinimizedResolution(
        FreeComplex(tuple(len(s) for s in shifts), final),
        tuple(tuple(s.values()) for s in shifts))


def syzygies(pres):
    """Minimal generating set of the syzygy module of the presentation's
    columns, by eliminating components (Greuel-Pfister, A Singular
    Introduction to Commutative Algebra, 2.5).

    The columns c_j + e_{r+j} live in rank r + m.  Under position-over-term
    with the r target components first, the elements of their reduced
    basis whose lead lies in a component >= r lie there entirely and, once
    shifted down by r, form a reduced basis of the syzygies.  The records
    of its minimal pairs generate the relations among these generators
    (Schreyer), so `minimize_columns` on that one stage cancels every
    generator with a constant relation; the survivors have none, so they
    generate minimally by graded Nakayama.
    """
    ctx = pres.context
    n = ctx.arity
    r, m = pres.target_rank, pres.matrix.ncols
    key = position_key(ctx)
    counter = _steps()
    columns = columns_to_elements(pres, r + m)
    unit = (0,) * n
    for j, col in enumerate(columns):
        col[unit + (r + j, m - 1 - j)] = Fraction(1)
    basis, lms = chain_scan_buchberger(columns, key, ctx.weighted_degree,
                                       counter, r + m)
    heads, reduced = multipass_interreduce(basis, lms, key, counter)
    found = [{t[:n] + (t[n] - r, t[n + 1]): c for t, c in el.items()}
             for lm, el in zip(heads, reduced) if lm[n] >= r]
    relations = schreyer_syzygies(found, int_keyed(key), counter, n)
    degrees = column_degrees(pres)
    found_shifts = stage_shifts(ctx, found, degrees)
    shifts = [dict(enumerate(found_shifts)),
              dict(enumerate(stage_shifts(ctx, relations, found_shifts)))]
    minimize_columns([dict(enumerate(elements_to_columns(relations, n)))],
                     shifts)
    # the row ids left in shifts[0] are the generators no relation cancelled
    matrix = columns_to_matrix(ctx, elements_to_columns(
        [found[i] for i in shifts[0]], n), range(m))
    return ModulePresentation(ctx, m, matrix, shifts=degrees)


def laplace_minor(matrix, rows, cols, cache):
    """Determinant of the rows x cols submatrix of a `PolyMatrix` by
    `Polynomial` arithmetic, expanded along its first row, every subminor
    memoised in `cache` by its (rows, cols)."""
    if not rows:
        return matrix.context.one
    key = (rows, cols)
    hit = cache.get(key)
    if hit is not None:
        return hit
    top, rest = rows[0], rows[1:]
    acc = matrix.context.zero
    for k, j in enumerate(cols):
        entry = matrix.entries[top][j]
        if entry.is_zero:
            continue
        sub = laplace_minor(matrix, rest, cols[:k] + cols[k + 1:], cache)
        if not sub.is_zero:
            acc = acc - entry * sub if k % 2 else acc + entry * sub
    cache[key] = acc
    return acc


def laplace_minors(matrix, size, rows, cols):
    """All size x size minors over the row and column pools, in the order
    of `PolyMatrix.minors`, by `laplace_minor` under one memo."""
    cache = {}
    return [laplace_minor(matrix, rs, cs, cache)
            for rs in combinations(rows, size)
            for cs in combinations(cols, size)]
