"""The one Buchberger engine and the ideal-theoretic toolbox.

Everything downstream (Fitting heights, saturations, Rees ideals, free
resolutions) reduces to the operations in this module: Groebner bases
by a signature-based Buchberger loop, normal forms by gcd-scaled integer
reductions, interreduction, elimination, intersection, saturation, and
Krull dimension by independent variable sets, with an early stop that
certifies dimension 0 (see `_buchberger`).  The same
kernel serves free modules: the term x^a e_c of a module of rank r is the
flat exponent tuple a + (c, r-1-c), and the Schreyer syzygy records of a
basis are reduced on the same normal form and stay packed from one stage
of a frame to the next (see `_schreyer_records`).

Inside the kernel every exponent tuple is packed into one int, each
exponent in a 32-bit field whose top bit is a guard bit: a product of
monomials is one addition and a divisibility test one subtraction and
mask (see `_Monomials`).  Every order key is one int, linear in the
exponents (`MonomialOrder.key_for`), so the key of a product is one
addition too.  `_buchberger` takes exponent-tuple dicts and packs them;
an exponent that reaches 2^31 raises `ExponentOverflowError` instead of
carrying into its neighbour.  A reduced basis stays packed in the cache
of its `IdealHandle`, and a Polynomial is made from packed ints only on
request, by `_polynomial`.

All computations are exact over Q and deterministic: the inputs are
taken in a fixed order and the pair queue is ordered by signature with a
fixed tie-break, so repeated runs produce identical bases.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import heapq
import math
import operator
import struct
from fractions import Fraction
from typing import NamedTuple

from .errors import StepBudgetExceeded
from .poly import (DEGREVLEX, EXPONENT_LIMIT, KEY_DIGIT, MonomialOrder,
                   Polynomial, exponent_overflow)

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


_budget = contextvars.ContextVar("step_budget", default=None)


@contextlib.contextmanager
def step_budget(limit):
    """One StepCounter for every Groebner computation inside the block:
    a case's whole chain of bases and normal forms shares one budget."""
    token = _budget.set(StepCounter(limit))
    try:
        yield
    finally:
        _budget.reset(token)


def _steps():
    """The counter of the open `step_budget`; with none open, a fresh
    default counter, so a direct library call is capped on its own."""
    counter = _budget.get()
    return StepCounter() if counter is None else counter


# ---------------------------------------------------------------------------
# raw engine over packed monomials
#
# Inside the kernel a monomial is one nonnegative int: exponent i of an
# exponent tuple of length L fills bits 32(L-1-i) to 32(L-1-i)+30, and bit
# 31 of every field is a guard bit that a valid monomial leaves clear, as
# with the packed exponent vectors of Monagan and Pearce (Polynomial
# division using dynamic arrays, heaps, and packed exponent vectors, CASC
# 2007).  A product of monomials is one addition e + q and the quotient by
# a divisor one subtraction m - lm.  With G the mask of all guard bits, lm
# divides m exactly when ((m | G) - lm) & G == G: the set guards keep each
# field's subtraction from borrowing out of it, and a guard survives where
# m_i >= lm_i.  Two valid exponents sum to less than 2^32, so an exponent
# that reaches 2^31 sets its own guard bit instead of carrying into its
# neighbour.  Every product that enters a working polynomial (in `_nf`
# and `_spoly`) has its guard bits tested, so no such monomial gets past.
#
# Every order key the kernel runs on is one int.  A ring key is linear in
# the exponents, sum_i K_i e_i (`MonomialOrder.key_for`), and a Schreyer
# key (`resolution`) is a shifted ring key of the exponent block plus an
# offset per module component.  So for q = m - lm, zero in the component
# coordinates since m and lm share a component, the key of e + q is
# key(e) + key(m) - key(lm) for every term e of a reducer: the kernel
# calls a key only where a monomial enters it (packing and S-pair lcms)
# and adds for every product.
#
# Reductions are fraction-free: basis elements are content-free integer
# polynomials with positive leading coefficient, and the working
# polynomial carries one rational scale, an int pair, instead of
# per-coefficient denominators.  Fractions are made only where a caller
# asks for a Polynomial (`_polynomial`): a basis element, a normal form
# or a minor.

_FIELD = (1 << 32) - 1     # the lowest field: the last exponent


class _Monomials(dict):
    """Packed monomials of one exponent length under one order key.

    Packs and unpacks exponent tuples, and maps every packed monomial the
    kernel has met to its negated int key: a min-heap of (negated key,
    monomial) pops the largest monomial first, and the lead of a
    polynomial is the monomial of least negated key.  `pack` calls the
    key of a monomial it has not met; products get theirs by addition
    from their factors' keys, written where they enter a polynomial that
    outlives a reduction step.
    """

    __slots__ = ("key", "length", "guard", "_struct")

    def __init__(self, key, length):
        super().__init__()
        self.key = key
        self.length = length
        self.guard = int.from_bytes(b"\x80\0\0\0" * length, "big")
        self._struct = struct.Struct(f">{length}I")

    def pack(self, e):
        if max(e) >= EXPONENT_LIMIT:
            raise exponent_overflow(e)
        m = int.from_bytes(self._struct.pack(*e), "big")
        if m not in self:
            self[m] = -self.key(e)
        return m

    def unpack(self, m):
        if m & self.guard:
            raise self.overflow(m)
        return self._struct.unpack(m.to_bytes(self._struct.size, "big"))

    def overflow(self, m):
        """The error for a packed monomial with a guard bit set."""
        return exponent_overflow(
            self._struct.unpack(m.to_bytes(self._struct.size, "big")))


def _lcm(a, b, guard):
    """lcm of two packed monomials: the guards that survive a - b mark
    the fields where a is not smaller, and fill a mask of those fields."""
    mask = ((((a | guard) - b) & guard) >> 31) * _FIELD
    return (a & mask) | (b & ~mask)


def _primitive(ints, mons):
    """Content-free form of a nonzero packed integer dict with positive
    leading coefficient, as (lm, dict)."""
    g0 = math.gcd(*ints.values())
    if g0 > 1:
        ints = {e: v // g0 for e, v in ints.items()}
    lm = min(ints, key=mons.__getitem__)
    if ints[lm] < 0:
        ints = {e: -v for e, v in ints.items()}
    return lm, ints


def _nf(poly, lms, basis, mons, counter, memo, quotients=None, bound=None):
    """Full normal form of a packed dict against content-free packed
    integer reducers, ordered by the negated keys of `mons`, which holds
    the keys of the terms of `poly` and of the reducers.

    Returns (remainder, (num, den)): a packed {monomial: int} dict and the
    scale num / den, in lowest terms, such that remainder * den / num is
    the exact normal form; the keys of the remainder's terms are written
    to `mons`.  When `quotients` is a list it receives (index, monomial,
    numerator, denominator) quadruples, the multipliers taken against
    the monic reducers, and the key of every monomial reduced is written
    to `mons` as well.

    A term c x^m meets the reducer g with lead l x^lm by gcd-scaled
    cancellation: with h = gcd(c, l), the work and the remainder so far
    are multiplied by l // h and (c // h) x^q g is subtracted, where
    q = m - lm is one subtraction, each product e + q one addition and
    its key the key of e plus key(m) - key(lm).  The content of work and
    remainder is removed only after a step whose factor l // h is not 1,
    which bounds the coefficients without a rebuild after every step.

    Without `bound` a term is reduced by the first reducer whose lead
    divides it.  With `bound` = (sigs, (key, index)) the reduction is
    regular (see `_buchberger`): sigs[k] = (drop, index) is the signature
    of reducer k less the int key of its lead, so x^q g_k has signature
    (int key of m + drop, index), and a term is reduced by the first
    reducer whose multiple has a signature below the bound.

    `memo` maps a monomial to its divisor list [scanned, k1, k2, ...]:
    the indices k1 < k2 < ... of the leading monomials among
    lms[:scanned] that divide it, by the guard-bit test.  A term reads the
    list first and scans on from `scanned` only when no listed divisor
    serves, appending each divisor it meets up to the one it takes.  The
    list stays valid, and the reducer choice stays that of a linear scan,
    as long as the caller only appends to `lms`; callers that change their
    reducer lists otherwise pass a fresh dict.

    The working polynomial is a dict next to a min-heap of (negated key,
    monomial); a monomial is pushed when it enters the dict and cancelled
    terms stay there as zeros until popped.  Every term a reduction adds
    is smaller than the lead it cancels, so the heap pops the terms in
    descending order and a popped monomial never comes back.
    """
    work = {e: c for e, c in poly.items() if c}
    num = math.lcm(*(c.denominator for c in work.values()))
    den = 1
    work = {e: c.numerator * (num // c.denominator) for e, c in work.items()}
    heap = [(mons[e], e) for e in work]
    heapq.heapify(heap)
    guard = mons.guard
    heappop, heappush, gcd = heapq.heappop, heapq.heappush, math.gcd
    if bound is not None:
        sigs, (sig_key, sig_index) = bound
    remainder = {}
    while heap:
        key, m = heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        divs = memo.get(m)
        if divs is None:
            divs = memo[m] = [0]
        idx = None
        if bound is None:
            if len(divs) > 1:
                idx = divs[1]
        else:
            # x^(m - lm_k) g_k is below the bound when sigs[k] is below this
            below = (sig_key + key, sig_index)
            for k in divs[1:]:
                if sigs[k] < below:
                    idx = k
                    break
        if idx is None and divs[0] < len(lms):
            mg = m | guard
            for k in range(divs[0], len(lms)):
                if (mg - lms[k]) & guard == guard:
                    divs.append(k)
                    if bound is None or sigs[k] < below:
                        idx = k
                        break
            divs[0] = len(lms) if idx is None else idx + 1
        if idx is None:
            remainder[m] = c
            mons[m] = key
            continue
        counter.spend()
        lm = lms[idx]
        q = m - lm
        shift = key - mons[lm]
        g = basis[idx]
        lead = g[lm]
        if quotients is not None:
            quotients.append((idx, q, c * den, num))
            mons[m] = key
        h = gcd(c, lead)
        f = lead // h
        c //= h
        if f != 1:
            for e in work:
                work[e] *= f
            for e in remainder:
                remainder[e] *= f
            h = gcd(f, den)
            num *= f // h
            den //= h
        for e, a in g.items():
            if e == lm:
                continue
            t = e + q
            v = work.get(t)
            if v is None:
                if t & guard:
                    raise mons.overflow(t)
                work[t] = -c * a
                heappush(heap, (mons[e] + shift, t))
            else:
                work[t] = v - c * a
        if f != 1:
            g0 = gcd(*work.values(), *remainder.values())
            if g0 > 1:
                work = {e: v // g0 for e, v in work.items()}
                remainder = {e: v // g0 for e, v in remainder.items()}
                h = gcd(num, g0)
                num //= h
                den *= g0 // h
    return remainder, (num, den)


def _spoly(gi, lmi, gj, lmj, lcm, key, mons):
    """The S-polynomial lc_j x^qi g_i - lc_i x^qj g_j of two content-free
    packed integer elements, with the quotients qi, qj of their leads'
    packed `lcm` by those leads; `key` is the negated int key of the lcm.
    The keys of the S-polynomial's terms are written to `mons`."""
    qi = lcm - lmi
    qj = lcm - lmj
    li, lj = gi[lmi], gj[lmj]
    shift = key - mons[lmi]
    spoly = {}
    for e, c in gi.items():
        t = e + qi
        spoly[t] = c * lj
        mons[t] = mons[e] + shift
    shift = key - mons[lmj]
    for e, c in gj.items():
        t = e + qj
        v = spoly.get(t)
        if v is None:
            spoly[t] = -c * li
            mons[t] = mons[e] + shift
        elif v == c * li:
            del spoly[t]
        else:
            spoly[t] = v - c * li
    high = functools.reduce(operator.or_, spoly, 0) & mons.guard
    if high:
        raise mons.overflow(next(t for t in spoly if t & high))
    return spoly, qi, qj


def _buchberger(generators, mons, counter, certify=False):
    """The unique reduced Groebner basis of the ideal the given term dicts
    generate, packed, as `_interreduce` returns it.  The terms are packed
    on entry into `mons`, a fresh `_Monomials` of the ring's exponent
    length under the order's key, and never unpacked: the result holds
    `mons` itself.

    With `certify`, the build may instead stop early and return None, a
    certificate that the quotient by the ideal J has dimension 0.  It
    stops when no generator has a constant term and the leads found so
    far hold a pure power x_i^a of every variable, checked after each
    input the pre-pass keeps and after each new element of the pair
    loop.  That is exact under any monomial order: the generators lie in
    the maximal ideal m of the origin, so J is inside m and proper, and
    the leads are leads of elements of J, so the standard monomials,
    which span P/J, are finite in number (Cox, Little and O'Shea, Ideals,
    Varieties, and Algorithms, Ch. 5 Section 3, the finiteness theorem).
    The check spends no reduction step, so a build whose certificate does
    not fire runs and returns exactly as without `certify`, and a miss
    costs no second build.

    A signature-based Buchberger loop (RB of Eder and Roune, Signature
    rewriting in Groebner basis computation, ISSAC 2013; survey by Eder
    and Faugere, JSC 80, 2017).  The generators are first taken by
    increasing lead and each is reduced against the ones kept before it,
    a zero dropped.  If that pass lowered some lead, one more pass takes
    the kept ones by their new leads, so that each is reduced against all
    whose leads now lie below its own.  (Repeating until no lead moves
    would autoreduce them, but in lex an inhomogeneous input can need
    many passes with coefficients that grow in each.)  The k-th input
    kept is f_k, with signature e_k.
    Every element g carries a signature u e_k, the largest term of a
    representation of g over the f_k, in the Schreyer order: u e_k is
    ranked by the int key of u lm(f_k), then by k.  The signature is kept
    as (key, k) and as the packed monomial u lm(f_k), whose divisibility
    is that of u within index k; the signature key never falls below the
    key of lm(g), and their difference, the drop, ranks the two sides of
    a pair, since multiplying both sides up to one lcm adds the same key.

    S-pairs are processed by increasing signature, that of their larger
    side; a pair whose sides have equal signatures is dropped.  Its
    S-polynomial is reduced only by multiples of smaller signature (`_nf`
    with a bound), so the remainder keeps the signature, and a zero
    remainder makes that signature a syzygy's.  Two criteria skip a pair
    with signature T before any reduction:
      - syzygy: the signature of a known syzygy divides T.  Besides the
        reductions to zero, each pair gives the Koszul syzygy of its two
        sides, with signature K = sig(larger) lm(other).  K is recorded
        when the pair is formed if the leads are coprime (then K is the
        pair's own signature: the coprime-lead criterion) or the pair is
        skipped there, and otherwise when the pair is popped, before its
        skip test.  No skip is lost: for leads that are not coprime, K
        lies strictly above the pair's own signature, pairs pop by
        increasing signature and the known signatures only grow, so K is
        recorded before any pair whose signature it divides is popped,
        and such a pair is skipped there if not already when formed.  The
        signatures are kept minimal per index k;
      - rewrite: an element later than the pair's larger side has a
        signature dividing T, so T is processed only through its latest
        such element.
    The pair heap is ordered by signature and then by the two indices, so
    repeated runs produce identical bases.
    """
    pack = mons.pack
    guard = mons.guard
    basis = [{pack(e): c for e, c in g.items()} for g in generators if g]
    # the fields (variables) without a pure-power lead yet; the packed
    # constant monomial is 0
    missing = (set(range(mons.length))
               if certify and all(0 not in g for g in basis) else None)
    for _ in range(2):
        inputs, basis, lms, memo = basis, [], [], {}
        lowered = False
        for g in sorted(inputs, key=lambda g: min(map(mons.__getitem__, g)),
                        reverse=True):
            r, _ = _nf(g, lms, basis, mons, counter, memo)
            if r:
                lm, ints = _primitive(r, mons)
                lowered = lowered or lm != min(g, key=mons.__getitem__)
                basis.append(ints)
                lms.append(lm)
                if missing is not None and _covers(lm, missing):
                    return None
        if not lowered:
            break
    sigs = [(0, k) for k in range(len(basis))]
    sig_mons = list(lms)
    by_index = [[k] for k in range(len(basis))]
    syzygies = [[] for _ in basis]
    heap = []

    def skipped(s, index, larger):
        """Whether a known syzygy signature divides signature s of index
        `index`, or an element later than `larger` has one dividing it."""
        high = s | guard
        for d in syzygies[index]:
            if (high - d) & guard == guard:
                return True
        for t in reversed(by_index[index]):
            if t <= larger:
                return False
            if (high - sig_mons[t]) & guard == guard:
                return True
        return False

    def add_syzygy(s, index):
        if s & guard:
            raise mons.overflow(s)
        found = syzygies[index]
        high = s | guard
        for d in found:
            if (high - d) & guard == guard:
                return
        found[:] = [d for d in found if ((d | guard) - s) & guard != guard]
        found.append(s)

    def add_pairs(t):
        sig_t = sigs[t]
        sides = []
        for j in range(t):
            sig_j = sigs[j]
            if sig_j == sig_t:
                continue
            larger, other = (t, j) if sig_t > sig_j else (j, t)
            lcm = _lcm(lms[larger], lms[other], guard)
            if lcm == lms[larger] + lms[other]:
                # coprime leads: the Koszul signature is the pair's own
                add_syzygy(sig_mons[larger] + lms[other], sigs[larger][1])
            else:
                sides.append((larger, other, lcm))
        for larger, other, lcm in sides:
            s = sig_mons[larger] + lcm - lms[larger]
            if s & guard:
                raise mons.overflow(s)
            drop, index = sigs[larger]
            if skipped(s, index, larger):
                add_syzygy(sig_mons[larger] + lms[other], index)
            else:
                heapq.heappush(heap, (mons.key(mons.unpack(lcm)) + drop,
                                      index, larger, other, lcm, s))

    for t in range(len(basis)):
        add_pairs(t)
    while heap:
        sig_key, index, larger, other, lcm, s = heapq.heappop(heap)
        add_syzygy(sig_mons[larger] + lms[other], index)
        if skipped(s, index, larger):
            continue
        drop = sigs[larger][0]
        spoly, _, _ = _spoly(basis[larger], lms[larger], basis[other],
                             lms[other], lcm, drop - sig_key, mons)
        counter.spend()
        r, _ = _nf(spoly, lms, basis, mons, counter, memo,
                   bound=(sigs, (sig_key, index)))
        if not r:
            add_syzygy(s, index)
            continue
        lm, ints = _primitive(r, mons)
        basis.append(ints)
        lms.append(lm)
        sigs.append((sig_key + mons[lm], index))
        sig_mons.append(s)
        by_index[index].append(len(basis) - 1)
        if missing is not None and _covers(lm, missing):
            return None
        add_pairs(len(basis) - 1)

    return _interreduce(basis, lms, mons, counter)


def _covers(lm, missing):
    """Drop from `missing` the field of a packed lead that is a pure
    power, one nonzero field; whether every field is now covered."""
    field = (lm.bit_length() - 1) >> 5
    if not lm & ((1 << (field << 5)) - 1):
        missing.discard(field)
    return not missing


def _schreyer_records(lms, basis, mons, following, counter):
    """The next frame stage of `lms` and `basis`, a packed family of
    content-free elements with positive leading coefficients that is
    already a Groebner basis under the key of `mons`, which holds the keys
    of their terms: the Schreyer syzygy records of its minimal pairs, as
    (leads, elements) in the same form.

    The record of a pair i < j in one component is its reduction equation
    in monic coordinates, q_i e_i - q_j e_j - sum_k c_k q_k e_k, scaled by
    the lcm of its denominators and divided by its content.  Under the
    order the family's leads induce, with ties broken toward the earlier
    index, its lead is q_i e_i, where q_i = lcm(lm_i, lm_j) / lm_i, with a
    positive coefficient: every quotient term maps below the lcm.  All
    records form a Groebner basis of the syzygies (Schreyer), so the
    records whose leads minimally generate the lead module already do:
    for each i only the j whose quotient no other quotient of i divides
    are reduced, the smallest j among equal quotients.

    In rank r = len(lms), x^q e_k packs as q + (k, r-1-k): q, a quotient
    within one component, is zero in both component fields.  Its key in
    the next stage, (key(x^q lm_k) << 64) - k (`resolution._stage_key`),
    is written negated to `following`, from the key of x^q lm_k that the
    S-polynomial or its reduction wrote to `mons`.
    """
    guard = mons.guard
    rank = len(lms)
    memo = {}
    leads = []
    records = []
    for i, lmi in enumerate(lms):
        component = lmi & _FIELD
        firsts = {}
        for j in range(i + 1, rank):
            if lms[j] & _FIELD == component:
                firsts.setdefault(_lcm(lmi, lms[j], guard) - lmi, j)
        for q, j in firsts.items():
            high = q | guard
            if any(p != q and (high - p) & guard == guard for p in firsts):
                continue
            lcm = q + lmi
            spoly, qi, qj = _spoly(basis[i], lmi, basis[j], lms[j], lcm,
                                   -mons.key(mons.unpack(lcm)), mons)
            counter.spend()
            quotients = []
            if _nf(spoly, lms, basis, mons, counter, memo, quotients)[0]:
                raise AssertionError("a stage family must already be a basis")
            # the S-polynomial is l_i l_j times the monic one, so each
            # coefficient is summed as an int pair in units of 1 / (l_i l_j)
            scale = basis[i][lmi] * basis[j][lms[j]]
            sums = {(i, qi): (scale, 1), (j, qj): (-scale, 1)}
            for k, qk, n, d in quotients:
                old = sums.get((k, qk))
                if old is None:
                    sums[(k, qk)] = (-n, d)
                elif old[1] == d:
                    sums[(k, qk)] = (old[0] - n, d)
                else:
                    sums[(k, qk)] = (old[0] * d - n * old[1], old[1] * d)
            mult = math.lcm(*(d for _, d in sums.values()))
            ints = {(k, qk): n * (mult // d)
                    for (k, qk), (n, d) in sums.items() if n}
            content = math.gcd(*ints.values())
            record = {}
            for (k, qk), v in ints.items():
                t = qk + (k << 32) + rank - 1 - k
                record[t] = v // content
                following[t] = (mons[qk + lms[k]] << KEY_DIGIT) + k
            leads.append(qi + (i << 32) + rank - 1 - i)
            records.append(record)
    return leads, records


def _interreduce(basis, lms, mons, counter):
    """Minimalize and tail-reduce a Groebner basis of content-free packed
    integer elements with leads `lms`, whose keys `mons` holds, and return
    the unique reduced basis still packed, as an `IdealHandle` caches it:
    (mons, leads, content-free integer elements with positive leading
    coefficient, an empty first-divisor memo for `_nf`), by increasing
    lead.  The monic basis is each element over its leading coefficient.

    One pass by increasing lead: an element whose lead a kept lead divides
    is dropped, and every other one is reduced against the already reduced
    elements before it.  That is the whole tail reduction, because a
    larger lead divides no term of the element.  The reducer lists are
    only appended to, so one first-divisor memo serves the whole pass.
    """
    guard = mons.guard
    heads = []
    polys = []
    memo = {}
    for i in sorted(range(len(basis)), key=lambda i: mons[lms[i]],
                    reverse=True):
        high = lms[i] | guard
        if any((high - h) & guard == guard for h in heads):
            continue
        r, _ = _nf(basis[i], heads, polys, mons, counter, memo)
        polys.append(_primitive(r, mons)[1])
        heads.append(lms[i])
    return mons, heads, polys, {}


def _polynomial(context, mons, ints, num=1, den=1):
    """The Polynomial ints * den / num of `context`, from a packed
    {monomial: int} dict whose monomials `mons` unpacks: the one place
    where the kernel's packed ints become Fractions and Polynomials."""
    unpack = mons.unpack
    return Polynomial._make(context, {unpack(e): Fraction(v * den, num)
                                      for e, v in ints.items()})


# ---------------------------------------------------------------------------

class DimensionReport(NamedTuple):
    dimension: int
    witness: tuple | None  # maximal independent variable subset (names)


class IdealHandle:
    """An ideal in a polynomial ring with cached reduced Groebner bases.

    `_cache` maps an order to the reduced basis `_buchberger` returns
    under it, packed: (`_Monomials`, leads, content-free integer
    elements, first-divisor memo).  It is the handle's only basis cache;
    `groebner_basis` makes the monic Polynomials from it on each call.
    Handles are immutable apart from that write-once cache and the memo
    and int-key map `normal_form` and `PolyMatrix.minors` fill, whose
    entries are exact whenever written; concurrent reads are safe and
    duplicated basis computations agree by the determinism contract.
    """

    __slots__ = ("context", "generators", "_cache", "_dim")

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
        self._dim = None

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"

    # -- bases ---------------------------------------------------------------

    def groebner_basis(self, order=DEGREVLEX):
        """The unique monic reduced Groebner basis under `order`, by
        increasing lead, made from the cached packed basis."""
        mons, lms, basis, _ = self._reduced(order)
        return tuple(_polynomial(self.context, mons, g, g[lm])
                     for lm, g in zip(lms, basis))

    def _reduced(self, order=DEGREVLEX):
        """The packed reduced basis under `order` (see `_cache`), built on
        the first request; `normal_form`, `is_unit`, `krull_dimension`
        and `PolyMatrix.minors` read it as it is."""
        cached = self._cache.get(order)
        return self._build(order) if cached is None else cached

    def _build(self, order, certify=False):
        """Run `_buchberger` on the generators under `order` and cache the
        packed reduced basis it returns; every basis build of a handle
        starts here.  With `certify` (see `_buchberger`) it returns None,
        and caches nothing, when the build stops on a certificate that the
        quotient has dimension 0."""
        ctx = self.context
        built = _buchberger([dict(g.terms) for g in self.generators],
                            _Monomials(order.key_for(ctx), ctx.arity),
                            _steps(), certify)
        if built is not None:
            self._cache[order] = built
        return built

    def normal_form(self, p, order=DEGREVLEX):
        if p.context != self.context:
            raise ValueError("polynomial context mismatch")
        mons, lms, basis, memo = self._reduced(order)
        r, (num, den) = _nf({mons.pack(e): c for e, c in p.terms}, lms,
                            basis, mons, _steps(), memo)
        return _polynomial(self.context, mons, r, num, den)

    def contains(self, p):
        return self.normal_form(p).is_zero

    def equals(self, other):
        """Mutual inclusion of generators, each side's generators tested
        only when the other side lacks them: equal generator sets need no
        basis, and when one set holds the other, only the basis of the
        smaller ideal is built."""
        if self.context != other.context:
            raise ValueError("ideal context mismatch")
        mine, theirs = set(self.generators), set(other.generators)
        return (all(other.contains(g) for g in self.generators
                    if g not in theirs)
                and all(self.contains(g) for g in other.generators
                        if g not in mine))

    def is_unit(self):
        """Whether the ideal is the whole ring.  When no generator has a
        constant term (the last, least term of a generator) the ideal lies
        in the maximal ideal of the origin, so it is proper and needs no
        basis; otherwise the reduced basis decides: it is (1), whose one
        lead is the constant monomial, packed as 0."""
        if all(any(g.terms[-1][0]) for g in self.generators):
            return False
        return self._reduced()[1] == [0]

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, IdealHandle):
            if self.context != other.context:
                raise ValueError("ideal context mismatch")
            return IdealHandle(self.context, self.generators + other.generators)
        return NotImplemented

    def intersection(self, other):
        """Computed with a tag variable: eliminate u from u*I + (1-u)*J."""
        if self.context != other.context:
            raise ValueError("ideal context mismatch")
        ctx = self.context
        (tag,) = ctx.fresh_names("u", 1)
        big = ctx.insert_front((tag,))
        u = big.gen(0)
        gens = [u * _lift(g, big) for g in self.generators]
        gens += [(big.one - u) * _lift(g, big) for g in other.generators]
        return _eliminate_front(ctx, big, gens)

    def saturation(self, g):
        """(I : g^inf) via one elimination: adjoin y, add y*g - 1, drop y."""
        if g.is_zero:
            raise ValueError("saturation by zero is undefined")
        if g.is_constant:
            return IdealHandle(self.context, self.generators)
        ctx = self.context
        (aux,) = ctx.fresh_names("y", 1)
        big = ctx.insert_front((aux,))
        y = big.gen(0)
        gens = [_lift(h, big) for h in self.generators]
        gens.append(y * _lift(g, big) - big.one)
        return _eliminate_front(ctx, big, gens)

    def saturation_by_ideal(self, other):
        """(I : J^inf), the intersection of the per-generator saturations."""
        if self.context != other.context:
            raise ValueError("ideal context mismatch")
        if not other.generators:
            raise ValueError("saturation by the zero ideal is undefined")
        result = None
        for g in other.generators:
            sat = self.saturation(g)
            result = sat if result is None else result.intersection(sat)
        return result

    # -- dimension and height ---------------------------------------------------

    def krull_dimension(self):
        """Dimension of context/I via independent sets modulo leading terms.

        Without a cached degrevlex basis, the build runs with the
        zero-dimensional certificate of `_buchberger`: an ideal without a
        constant term in its generators whose leads come to hold a pure
        power of every variable has dimension 0, reported with no witness
        variable and no basis cached.  A build whose certificate does not
        fire finishes and caches its basis, so a miss costs no second
        build.  The leads are read packed."""
        if self._dim is not None:
            return self._dim
        ctx = self.context
        built = (self._cache.get(DEGREVLEX)
                 or self._build(DEGREVLEX, certify=True))
        if built is None:
            report = DimensionReport(0, ())
        elif 0 in built[1]:
            report = DimensionReport(-1, None)
        else:
            mons, lms, _, _ = built
            supports = [frozenset(i for i, e in enumerate(mons.unpack(lm))
                                  if e) for lm in lms]
            hitting = _min_hitting_set(supports, ctx.arity)
            independent = tuple(sorted(set(range(ctx.arity)) - hitting))
            report = DimensionReport(
                len(independent),
                tuple(ctx.names[i] for i in independent))
        self._dim = report
        return report


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

def _lift(p, big_context):
    """`p` in `big_context`, its ring with one variable put in front."""
    return Polynomial.from_terms(
        big_context, (((0,) + e, c) for e, c in p.terms))


def _eliminate_front(context, big_context, generators):
    """The ideal of `context` that `generators`, polynomials of
    `big_context` (`context` with one variable put in front), generate
    once that variable is eliminated: the elements of their reduced
    block-order basis whose lead avoids it.  The result starts with those
    elements, still packed, as its reduced degrevlex basis, int for int:
    the front variable is the top packed field, so a monomial free of it
    packs to the same int in `context`, and its block key is its
    degrevlex key in `context` (the back block's key vector is
    `_drl_vector` of the weights of `context`), so the elements keep
    their ints, their negated keys and their order."""
    mons, lms, basis, _ = IdealHandle(big_context, generators)._reduced(
        MonomialOrder.elimination((0,)))
    small = _Monomials(DEGREVLEX.key_for(context), context.arity)
    front = 1 << (32 * context.arity)      # the lowest bit of the top field
    kept = [k for k, lm in enumerate(lms) if lm < front]
    for k in kept:
        for e in basis[k]:
            small[e] = mons[e]
    result = IdealHandle(context, [
        _polynomial(context, small, basis[k], basis[k][lms[k]])
        for k in kept])
    result._cache[DEGREVLEX] = (small, [lms[k] for k in kept],
                                [basis[k] for k in kept], {})
    return result
