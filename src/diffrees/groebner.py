"""The one Buchberger engine and the ideal-theoretic toolbox.

Everything downstream (Fitting heights, saturations, Rees ideals, free
resolutions) reduces to the operations in this module: Groebner bases
by a signature-based Buchberger loop, normal forms by gcd-scaled integer
reductions, interreduction, saturation and intersection of homogeneous
ideals by one Bayer-Stillman division in degrevlex (see
`IdealHandle._divided`), and Krull dimension by independent variable
sets, with an early stop that certifies dimension 0 (see `_buchberger`).
Every ring order is weighted degrevlex (`MonomialOrder`).  The same
kernel serves free modules: the term x^a e_c of a module of rank r is the
flat exponent tuple a + (c, r-1-c), and the Schreyer syzygy records of a
basis are reduced on the same normal form and stay packed from one stage
of a frame to the next (see `_schreyer_records`).

Inside the kernel every exponent tuple is packed into one int, each
exponent in a 32-bit field whose top bit is a guard bit: a product of
monomials is one addition and a divisibility test one subtraction and
mask (see `_Monomials`).  Every order key is one int, linear in the
exponents (`MonomialOrder.key_for`), so the key of a product is one
addition too.  `_buchberger` takes exponent-tuple dicts, clears their
denominators and packs them; an exponent that reaches 2^31 raises
`ExponentOverflowError` instead of carrying into its neighbour.  A
reduced basis stays packed in the cache of its `IdealHandle`, and a
Polynomial is made from packed ints only on request, by `_polynomial`.

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

from .errors import NotHomogeneousError, StepBudgetExceeded
from .poly import (DEGREVLEX, EXPONENT_LIMIT, KEY_DIGIT, MonomialOrder,
                   Polynomial, VariableContext, exponent_overflow,
                   lift_to_extended)

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
# per-coefficient denominators.  Denominators are cleared once, where a
# polynomial enters the kernel (`_cleared`), and Fractions are made only
# where a caller asks for a Polynomial (`_polynomial`): a basis element,
# a normal form or a minor.

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


def _cleared(terms, pack):
    """(scale, ints): a polynomial's (exponent tuple, rational) terms
    packed by `pack`, times the lcm `scale` of their denominators, as a
    {monomial: int} dict.  `_buchberger` clears its generators here and
    `IdealHandle.normal_form` its argument; `PolyMatrix.minors` clears
    each column of its matrix by the lcm of the column's denominators
    itself.  So `_nf` sees ints only."""
    scale = math.lcm(*(c.denominator for _, c in terms))
    return scale, {pack(e): c.numerator * (scale // c.denominator)
                   for e, c in terms}


def _nf(poly, lms, basis, mons, counter, memo, quotients=None, bound=None,
        components=None):
    """Full normal form of a packed {monomial: int} dict (see `_cleared`)
    against content-free packed integer reducers, ordered by the negated
    keys of `mons`, which holds the keys of the terms of `poly` and of the
    reducers.

    Returns (remainder, (num, den)): a packed {monomial: int} dict and the
    scale num / den, in lowest terms, such that remainder * den / num is
    the exact normal form of `poly`; the keys of the remainder's terms
    are written to `mons`.  `poly` is copied, never changed.  When
    `quotients` is a list it receives (index, monomial, numerator,
    denominator) quadruples, the multipliers taken against the monic
    reducers, and the key of every monomial reduced is written to `mons`
    as well.

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

    A term scans the leads of `lms` in index order.  With `components`,
    a module stage's map from the low field of a packed term (its
    component) to the (indices, leads) of the reducers in that component
    (see `_schreyer_records`), it scans only those of its own: a lead of
    another component never divides it, so the first divisor is the same.
    `memo` maps a monomial to its divisor list [scanned, k1, k2, ...]:
    the indices k1 < k2 < ... of the leading monomials among the first
    `scanned` of its scan that divide it, by the guard-bit test.  A term
    reads the list first and scans on from `scanned` only when no listed
    divisor serves, appending each divisor it meets up to the one it
    takes.  The list stays valid, and the reducer choice stays that of a
    linear scan, as long as the caller only appends to `lms`; callers that
    change their reducer lists otherwise pass a fresh dict.

    The working polynomial is a dict next to a min-heap of (negated key,
    monomial); a monomial is pushed when it enters the dict and cancelled
    terms stay there as zeros until popped.  Every term a reduction adds
    is smaller than the lead it cancels, so the heap pops the terms in
    descending order and a popped monomial never comes back.
    """
    work = dict(poly)
    num = den = 1
    heap = [(mons[e], e) for e in work]
    heapq.heapify(heap)
    guard = mons.guard
    heappop, heappush, gcd = heapq.heappop, heapq.heappush, math.gcd
    if bound is not None:
        sigs, (sig_key, sig_index) = bound
    everything = range(len(lms)), lms
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
        if idx is None:
            ks, leads = (everything if components is None
                         else components[m & _FIELD])
            if divs[0] < len(leads):
                mg = m | guard
                for at in range(divs[0], len(leads)):
                    if (mg - leads[at]) & guard == guard:
                        k = ks[at]
                        divs.append(k)
                        if bound is None or sigs[k] < below:
                            idx = k
                            break
                divs[0] = len(leads) if idx is None else at + 1
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


def _buchberger(generators, mons, counter, certify=False, known=()):
    """The unique reduced Groebner basis of the ideal the given term dicts
    generate, packed, as `_interreduce` returns it.  The terms are packed
    on entry into `mons`, a fresh `_Monomials` of the ring's exponent
    length under the order's key, and never unpacked: the result holds
    `mons` itself.  Each generator's denominators are cleared once there
    (`_cleared`), so every `_nf` call of the build runs on ints.  A
    nonzero constant among the generators makes it the unit basis (1) at
    once, with no step spent.

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
    costs no second build.  `known` may hold packed leads of elements of
    the ideal found before the build, such as the cached leads of a
    summand's basis under the same order (`IdealHandle._build`): their
    pure powers are counted before the pre-pass, and if they already
    cover every variable the build returns None at once, with no step
    spent.  Each is a lead the full build would also reach, up to a
    divisor that is again a pure power, so the answer is the same and
    only comes sooner.

    A signature-based Buchberger loop (RB of Eder and Roune, Signature
    rewriting in Groebner basis computation, ISSAC 2013; survey by Eder
    and Faugere, JSC 80, 2017).  The generators are first taken by
    increasing lead and each is reduced against the ones kept before it,
    a zero dropped.  If that pass lowered some lead, one more pass takes
    the kept ones by their new leads, so that each is reduced against all
    whose leads now lie below its own.  (Repeating until no lead moves
    would autoreduce them, but an inhomogeneous input can need many
    passes with coefficients that grow in each.)  The k-th input
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
    basis = [_cleared(g.items(), pack)[1] for g in generators if g]
    if any(len(g) == 1 and 0 in g for g in basis):
        return mons, [0], [{0: 1}], {}
    # the fields (variables) without a pure-power lead yet; the packed
    # constant monomial is 0
    missing = None
    if certify and all(0 not in g for g in basis):
        missing = set(range(mons.length))
        for lm in known:
            if _covers(lm, missing):
                return None
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
                key = mons.get(lcm)
                if key is None:
                    key = mons[lcm] = -mons.key(mons.unpack(lcm))
                heapq.heappush(heap, (drop - key, index, larger, other, lcm,
                                      s))

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
    are reduced, the smallest j among equal quotients.  The family is
    indexed by component once, as (indices, leads) per low field: the
    pairs of i are taken from its own component, and each S-polynomial
    is reduced against the leads of its terms' component only (`_nf`).

    In rank r = len(lms), x^q e_k packs as q + (k, r-1-k): q, a quotient
    within one component, is zero in both component fields.  Its key in
    the next stage, (key(x^q lm_k) << 64) - k (`resolution._stage_key`),
    is written negated to `following`, from the key of x^q lm_k that the
    S-polynomial or its reduction wrote to `mons`.
    """
    guard = mons.guard
    rank = len(lms)
    components = {}
    for k, lm in enumerate(lms):
        ks, same = components.setdefault(lm & _FIELD, ([], []))
        ks.append(k)
        same.append(lm)
    memo = {}
    leads = []
    records = []
    for i, lmi in enumerate(lms):
        ks, same = components[lmi & _FIELD]
        after = ks.index(i) + 1
        firsts = {}
        for j, lmj in zip(ks[after:], same[after:]):
            firsts.setdefault(_lcm(lmi, lmj, guard) - lmi, j)
        for q, j in firsts.items():
            high = q | guard
            if any(p != q and (high - p) & guard == guard for p in firsts):
                continue
            lcm = q + lmi
            spoly, qi, qj = _spoly(basis[i], lmi, basis[j], lms[j], lcm,
                                   -mons.key(mons.unpack(lcm)), mons)
            counter.spend()
            quotients = []
            if _nf(spoly, lms, basis, mons, counter, memo, quotients,
                   components=components)[0]:
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
    where the kernel's packed ints become Fractions and Polynomials.

    When `mons` runs on the context's canonical degrevlex key, the terms
    are put in canonical order by the negated keys it holds, and only a
    monomial it has not met is keyed, its key written to `mons`; under
    any other key `Polynomial._make` keys and sorts them."""
    unpack = mons.unpack
    if mons.key is not context._canon_key:
        return Polynomial._make(context, {unpack(e): Fraction(v * den, num)
                                          for e, v in ints.items()})
    for e in ints:
        if e not in mons:
            mons[e] = -mons.key(unpack(e))
    return Polynomial._ordered(context, tuple(
        (unpack(e), Fraction(ints[e] * den, num))
        for e in sorted(ints, key=mons.__getitem__) if ints[e]))


# ---------------------------------------------------------------------------

class DimensionReport(NamedTuple):
    """dim P/I, and a largest set of variables independent modulo the
    leads of the basis it was read from, the one cached first, under any
    order (`krull_dimension`); () for a certified 0, None for (1)."""
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

    __slots__ = ("context", "generators", "_cache", "_dim", "_summand")

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
        self._summand = None

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
        quotient has dimension 0; the certificate starts from the leads
        of the left summand's basis under `order` when a sum (`__add__`)
        has one cached."""
        ctx = self.context
        cached = (self._summand._cache.get(order)
                  if certify and self._summand is not None else None)
        key = ctx._canon_key if order == DEGREVLEX else order.key_for(ctx)
        built = _buchberger([dict(g.terms) for g in self.generators],
                            _Monomials(key, ctx.arity), _steps(), certify,
                            () if cached is None else cached[1])
        if built is not None:
            self._cache[order] = built
        return built

    def normal_form(self, p, order=DEGREVLEX):
        if p.context != self.context:
            raise ValueError("polynomial context mismatch")
        mons, lms, basis, memo = self._reduced(order)
        scale, ints = _cleared(p.terms, mons.pack)
        r, (num, den) = _nf(ints, lms, basis, mons, _steps(), memo)
        return _polynomial(self.context, mons, r, num * scale, den)

    def contains(self, p):
        """Whether p reduces to zero against the reduced basis cached
        first, under any order; with none cached, the degrevlex one."""
        return self.normal_form(p, next(iter(self._cache), DEGREVLEX)).is_zero

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
        """The sum I + J, generated by I's generators and then J's.  It
        records I, its left summand: every lead of a basis of I is a lead
        of an element of I + J, so a certified build of the sum (`_build`)
        counts the pure powers among the cached leads of I first."""
        if isinstance(other, IdealHandle):
            if self.context != other.context:
                raise ValueError("ideal context mismatch")
            total = IdealHandle(self.context,
                                self.generators + other.generators)
            total._summand = self
            return total
        return NotImplemented

    def intersection(self, other):
        """I meet J for homogeneous I and J: the elements free of t and u
        of (t*I + (u - t)*J) : u^inf, with t and u adjoined last at weight
        1, by the division of `_divided`.  Every f of both has u*f =
        t*f + (u - t)*f; conversely u^k f = t*a + (u - t)*b, a over I and
        b over J, puts f in J at t = 0, u = 1 and in I at t = u = 1.  The
        ideal is bigraded by the degree in t and u, so each divided
        element is bihomogeneous, and one whose lead avoids t and u
        avoids them in every term: these elements are a basis of the
        intersection.  The result is returned as `_seeded` makes it."""
        if self.context != other.context:
            raise ValueError("ideal context mismatch")
        _require_homogeneous(self.generators + other.generators)
        ctx = self.context
        n = ctx.arity
        big = VariableContext(ctx.names + ctx.fresh_names("t", 2),
                              ctx.weights + (1, 1))
        t, u = big.gen(n), big.gen(n + 1)
        gens = [t * lift_to_extended(h, big) for h in self.generators]
        gens += [(u - t) * lift_to_extended(h, big)
                 for h in other.generators]
        return _seeded(ctx, [
            Polynomial.from_terms(ctx, ((e[:n], c) for e, c in p.terms))
            for p in IdealHandle(big, gens)._divided(n + 1)
            if not any(any(e[n:]) for e, _ in p.terms)])

    def saturation(self, g):
        """(I : g^inf) for homogeneous I and g, by the division of
        `_divided`.  For g a variable x_j (times a constant) that is the
        divided basis of I with x_j ranked last.  Otherwise z is adjoined,
        of weight deg g and ranked last, and z := g maps the divided basis
        of (I + (z - g)) : z^inf onto I : g^inf: g^k f in I gives z^k f
        in I + (z - g), and z^k h in I + (z - g) gives g^k h(g) in I,
        since z -> g kills exactly (z - g).  The result is returned as
        `_seeded` makes it."""
        if g.is_zero:
            raise ValueError("saturation by zero is undefined")
        _require_homogeneous(self.generators + (g,))
        ctx = self.context
        if g.is_constant:
            return IdealHandle(ctx, self.generators)
        (e, _), *rest = g.terms
        if not rest and sum(e) == 1:
            return _seeded(ctx, self._divided(e.index(1)))
        n = ctx.arity
        big = VariableContext(ctx.names + ctx.fresh_names("z", 1),
                              ctx.weights + (g.weighted_degree,))
        gens = [lift_to_extended(h, big) for h in self.generators]
        gens.append(big.gen(n) - lift_to_extended(g, big))
        power = functools.cache(g.__pow__)
        substituted = []
        for p in IdealHandle(big, gens)._divided(n):
            parts = {}
            for e, c in p.terms:
                parts.setdefault(e[n], []).append((e[:n], c))
            substituted.append(sum((Polynomial.from_terms(ctx, terms)
                                    * power(k)
                                    for k, terms in parts.items()),
                                   ctx.zero))
        return _seeded(ctx, substituted)

    def _divided(self, j):
        """The divided basis of I : x_j^inf for I homogeneous, by Bayer and
        Stillman (A criterion for detecting m-regularity, Invent. Math. 87,
        1987; Eisenbud, Commutative Algebra, Prop. 15.12): in a degrevlex
        order with x_j ranked last, x_j divides a homogeneous polynomial
        exactly when it divides its lead, so the reduced basis of I, each
        element divided by the largest power of x_j that divides it, is a
        Groebner basis of the saturation in that order.  The division is
        one subtraction per packed term, of the least field j of the
        element; the monic quotients are returned as Polynomials."""
        ctx = self.context
        order = DEGREVLEX if j == ctx.arity - 1 else MonomialOrder(j)
        mons, lms, basis, _ = self._reduced(order)
        shift = 32 * (ctx.arity - 1 - j)
        divided = []
        for lm, g in zip(lms, basis):
            power = min((e >> shift) & _FIELD for e in g) << shift
            divided.append(_polynomial(ctx, mons, {e - power: c
                                                   for e, c in g.items()},
                                       g[lm]))
        return divided

    def saturation_by_ideal(self, other):
        """(I : J^inf), the intersection of the per-generator saturations."""
        if self.context != other.context:
            raise ValueError("ideal context mismatch")
        if not other.generators:
            raise ValueError("saturation by the zero ideal is undefined")
        _require_homogeneous(self.generators + other.generators)
        result = None
        for g in other.generators:
            sat = self.saturation(g)
            result = sat if result is None else result.intersection(sat)
        return result

    # -- dimension and height ---------------------------------------------------

    def krull_dimension(self):
        """Dimension of context/I via independent sets modulo leading terms.

        The leads are read packed from the reduced basis cached first,
        under any order, since dim P/I = dim P/in(I) for every monomial
        order.  With none cached, a degrevlex build runs with the zero-dimensional certificate of `_buchberger`:
        an ideal without a constant term in its generators whose leads
        come to hold a pure power of every variable has dimension 0,
        reported with no witness variable and no basis cached.  A build
        whose certificate does not fire finishes and caches its basis, so
        a miss costs no second build."""
        if self._dim is not None:
            return self._dim
        ctx = self.context
        built = (next(iter(self._cache.values()), None)
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


def _require_homogeneous(polynomials):
    """Raise unless every polynomial is homogeneous for its ring's
    weights, as the Bayer-Stillman division needs."""
    if not all(p.weighted_degree_info()[0] for p in polynomials):
        raise NotHomogeneousError("saturation and intersection need "
                                  "homogeneous ideals and elements")


def _seeded(context, generators):
    """The ideal of `generators` as every saturation and intersection
    returns it: its generators are its reduced degrevlex basis, which its
    cache holds."""
    handle = IdealHandle(context, generators)
    result = IdealHandle(context, handle.groebner_basis())
    result._cache[DEGREVLEX] = handle._cache[DEGREVLEX]
    return result


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
