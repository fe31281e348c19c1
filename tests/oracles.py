"""Independent oracles the test suite checks the library against.

These deliberately avoid the library's engine: the Buchberger oracle uses
its own division loop and no pair criteria, the dimension oracle
enumerates every variable subset, and the saturation oracle iterates
ideal quotients instead of the one-shot elimination trick.

The second half keeps slow paths the library replaced by exact shortcuts,
so the shortcuts can be checked against them: the nested order keys, the
max-scan normal forms and the multi-pass interreductions of both engines,
and the saturation that gave the Fitting heights off the irrelevant ideal.
"""

import math
from fractions import Fraction
from itertools import combinations

from diffrees.poly import DEGREVLEX, mono_divide, mono_mul
from diffrees.groebner import IdealHandle, _content, _int_normalize
from diffrees.resolution import _mod_monic


def _leading(p, key):
    return max((e for e, _ in p.terms), key=key)


def naive_remainder(p, basis, key):
    """Textbook multivariate division, leading terms only."""
    ctx = p.context
    remainder = ctx.zero
    while not p.is_zero:
        lm = _leading(p, key)
        lc = p.coefficient(lm)
        for g in basis:
            glm = _leading(g, key)
            q = mono_divide(lm, glm)
            if q is not None:
                p = p - g * ctx.monomial(q, lc / g.coefficient(glm))
                break
        else:
            t = ctx.monomial(lm, lc)
            remainder = remainder + t
            p = p - t
    return remainder


def naive_buchberger(context, generators, order=DEGREVLEX):
    """No-criteria Buchberger followed by minimalization and tail
    reduction; returns the monic reduced basis sorted by leading term."""
    key = order.key_for(context)
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
                                          1 / f.coefficient(lf))
                     - g * context.monomial(mono_divide(lcm, lg),
                                            1 / g.coefficient(lg)))
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
        reduced.append(r / r.coefficient(_leading(r, key)))
    reduced.sort(key=lambda g: key(_leading(g, key)))
    return tuple(reduced)


def naive_remainder_full(p, basis, key):
    """Division reducing every term, not just the leading one."""
    ctx = p.context
    remainder = ctx.zero
    while not p.is_zero:
        lm = _leading(p, key)
        lc = p.coefficient(lm)
        for g in basis:
            glm = _leading(g, key)
            q = mono_divide(lm, glm)
            if q is not None:
                p = p - g * ctx.monomial(q, lc / g.coefficient(glm))
                break
        else:
            remainder = remainder + ctx.monomial(lm, lc)
            p = p - ctx.monomial(lm, lc)
    return remainder


def brute_force_dimension(handle):
    """Largest variable subset missing the support of every leading term,
    found by enumerating all subsets; -1 for the unit ideal."""
    ctx = handle.context
    key = DEGREVLEX.key_for(ctx)
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


def iterated_quotient_saturation(handle, g, max_rounds=64):
    """(I : g^inf) by stabilizing (.. : g); the library instead uses one
    auxiliary-variable elimination."""
    current = handle
    for _ in range(max_rounds):
        nxt = current.quotient(g)
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
    key = DEGREVLEX.key_for(ctx)
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


def max_scan_nf(poly, lms, basis, key, counter, memo, quotients=None):
    """`groebner._nf` as it was: the lead found by max() over the whole
    working polynomial at every step."""
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


def multipass_interreduce(basis, lms, key, counter):
    """`groebner._interreduce` as it was: every kept element re-reduced
    against all the others until a pass changes nothing."""
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
            r = max_scan_nf(polys[i], other_lms, other_polys, key, counter,
                            {})
            if r != polys[i]:
                _, ints = _int_normalize(r, key)
                polys[i] = ints
                changed = True
    monic = []
    for lm, p in zip(heads, polys):
        lead = Fraction(p[lm])
        monic.append({e: c / lead for e, c in p.items()})
    return heads, monic


def max_scan_mod_nf(element, lms, gens, key, counter, quotients=None):
    """`resolution._mod_nf` as it was, max() over the working element."""
    zero = Fraction(0)
    work = dict(element)
    remainder = {}
    while work:
        term = max(work, key=key)
        c = work.pop(term)
        if not c:
            continue
        e, comp = term
        for idx, (lmono, lcomp) in enumerate(lms):
            if lcomp != comp:
                continue
            q = mono_divide(e, lmono)
            if q is None:
                continue
            counter.spend()
            for (e2, c2), a in gens[idx].items():
                if e2 == lmono and c2 == lcomp:
                    continue
                t2 = (mono_mul(e2, q), c2)
                v = work.get(t2, zero) - c * a
                if v:
                    work[t2] = v
                elif t2 in work:
                    del work[t2]
            if quotients is not None:
                quotients.append((idx, q, c))
            break
        else:
            remainder[term] = remainder.get(term, zero) + c
    return {t: c for t, c in remainder.items() if c}


def multipass_interreduce_module(gens, lms, key, counter):
    """`resolution._interreduce_module` as it was: passes in decreasing
    lead order until nothing changes."""
    order = sorted(range(len(gens)), key=lambda i: key(lms[i]))
    kept = []
    for i in order:
        mono_i, comp_i = lms[i]
        if not any(comp_i == lms[j][1]
                   and mono_divide(mono_i, lms[j][0]) is not None
                   for j in kept):
            kept.append(i)
    kept.sort(key=lambda i: key(lms[i]), reverse=True)
    polys = [dict(gens[i]) for i in kept]
    heads = [lms[i] for i in kept]
    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            r = max_scan_mod_nf(polys[i], heads[:i] + heads[i + 1:],
                                polys[:i] + polys[i + 1:], key, counter)
            if r != polys[i]:
                _, monic = _mod_monic(r, key)
                polys[i] = monic
                changed = True
    return polys, heads


def saturated_height_off_irrelevant(algebra, fitting, budget=None):
    """The height of I + F off the irrelevant ideal m as `fitting_profile`
    computed it before its dimension check: saturate by every variable,
    intersect, and measure; +inf when the saturation is the unit ideal."""
    ctx = algebra.context
    total = algebra.defining_ideal + fitting
    if total.is_unit(budget):
        return float("inf")
    irrelevant = IdealHandle(ctx, list(ctx.gens()))
    sat = total.saturation_by_ideal(irrelevant, budget)
    if sat.is_unit(budget):
        return float("inf")
    return algebra.dimension - sat.krull_dimension(budget).dimension
