"""References the test suite checks the library against, one for each
object.  The Groebner, normal-form and module engines here call nothing
in `diffrees.groebner` but its step counter: they run on exponent tuples
and Fractions, by max() scans and textbook loops, with no pair
criterion.  sympy's `groebner` is the external second check of reduced
bases.  The eliminations build their block-order bases with the
library's engine, which the kernel tests check under that order, and
the dimension, Hilbert and section references read the library's
reduced basis, which the differential tests check.

    object                           reference
    -------------------------------  -------------------------------------
    reduced Groebner basis           naive_buchberger; sympy_basis
    normal form, with the signature  max_scan_nf, on exponent tuples and
      bound and the quotient records   on flat module terms
    interreduction                   interreduce
    quotient by one element          exact_divide
    ring order keys                  flat_key_for
    lex and block orders             ReferenceOrder, LEX: int keys for the
                                       library's engine, held to
                                       flat_key_for
    module order keys                position_key; schreyer_key (frame
                                       stages)
    Krull dimension                  brute_force_dimension
    ideal quotient, nonzerodivisor   ideal_quotient, is_nonzerodivisor
    saturation, intersection         elimination_saturation,
                                       elimination_intersection
    Fitting height off m             saturated_height_off_irrelevant
    Hilbert numerator                hilbert_numerator_from_leading_terms
    section the frame resolves       section_of
    module basis, S-pair records     module_buchberger
    membership in a submodule        spans
    frame stages                     module_resolution_stages
    minimization, Betti numbers      minimized_free_resolution, by
                                       minimize_matrices
    syzygies of columns              syzygies
    minors                           laplace_minors
    minors with rows in sequence     signed_row_sequence_minor
      order (the Euler identity)

The rest adapt the library's forms to these: `int_key` reads a tuple key
as the int key the library runs on, `monic_basis` unpacks a packed
reduced basis, `hilbert_numerator_from_resolution` reads a resolution's
shifts, and the module presentations (`ModulePresentation`) are the
columns of a polynomial matrix.  A flat module term is a + (c, r-1-c),
the encoding of the library's frame: x^a e_c in a free module of rank r,
so that one term divides another exactly when it does so as a tuple.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add, ge, mul, neg

from diffrees.eagon_northcott import FreeComplex
from diffrees.matrix import PolyMatrix
from diffrees.poly import (DEGREVLEX, KEY_DIGIT, MonomialOrder, Polynomial,
                           VariableContext, _drl_vector, mono_mul)
from diffrees.groebner import (IdealHandle, StepCounter, _Monomials,
                               _polynomial)


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


def _monic(element, lm):
    lead = Fraction(element[lm])
    return {t: c / lead for t, c in element.items()}


# ---------------------------------------------------------------------------
# normal form, interreduction and the pair loop

def max_scan_nf(poly, lms, basis, key, counter, quotients=None, bound=None):
    """Full normal form of the term dict `poly` against the reducers
    `basis`, with leads `lms`, as a {term: Fraction} dict in decreasing
    order: at every step the largest term of the working polynomial,
    found by max(), is reduced by the first reducer whose lead divides
    it, for one step of `counter`.  When `quotients` is a list it
    receives (index, quotient, multiplier) triples, the multipliers taken
    against the monic reducers.  With `bound` = (sigs, limit), as
    `groebner._nf` takes it, `key` is an int key and a term m is reduced
    by the first reducer k whose multiple has the signature
    (key of m + sigs[k][0], sigs[k][1]) below `limit`."""
    work = {e: Fraction(c) for e, c in poly.items() if c}
    remainder = {}
    keys = {}

    def cached_key(t):
        if t not in keys:
            keys[t] = key(t)
        return keys[t]

    while work:
        m = max(work, key=cached_key)
        c = work.pop(m)
        divisors = (k for k in range(len(lms))
                    if all(map(ge, m, lms[k])))
        if bound is not None:
            sigs, limit = bound
            at = key(m)
            divisors = (k for k in divisors
                        if (at + sigs[k][0], sigs[k][1]) < limit)
        idx = next(divisors, None)
        if idx is None:
            remainder[m] = c
            continue
        counter.spend()
        lm, g = lms[idx], basis[idx]
        q = mono_divide(m, lm)
        if quotients is not None:
            quotients.append((idx, q, c))
        f = c / g[lm]
        for e, a in g.items():
            if e != lm:
                t = mono_mul(e, q)
                v = work.get(t, 0) - f * a
                if v:
                    work[t] = v
                else:
                    work.pop(t, None)
    return remainder


def interreduce(basis, lms, key, counter):
    """The reduced basis of the Groebner basis `basis` with leads `lms`:
    the elements whose lead no smaller kept lead divides, made monic and
    each reduced against all the others until a pass changes nothing.
    Returns (leads, monic elements) by increasing lead."""
    kept = []
    for i in sorted(range(len(basis)), key=lambda i: key(lms[i])):
        if all(mono_divide(lms[i], lms[j]) is None for j in kept):
            kept.append(i)
    heads = [lms[i] for i in kept]
    polys = [_monic(basis[i], lms[i]) for i in kept]
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(polys):
            r = max_scan_nf(p, heads[:i] + heads[i + 1:],
                            polys[:i] + polys[i + 1:], key, counter)
            if r != p:
                polys[i] = r
                changed = True
    return heads, polys


def module_buchberger(elements, key, wdeg, counter):
    """A Groebner basis of the flat module elements `elements` under
    `key`, by the pair loop without criteria: the S-pair of every two
    leads in one component, taken by increasing (weighted degree, key) of
    their lcm, is reduced by `max_scan_nf`, and a nonzero remainder joins
    the basis.  Returns (gens, lms, records, added): the monic basis and
    its leads; for every S-pair its syzygy, a flat element of rank
    len(gens) over the monic basis; and how many remainders joined."""
    gens, lms, pending, heap = [], [], [], []

    def append(element):
        lm = max(element, key=key)
        for i, other in enumerate(lms):
            if other[-2:] == lm[-2:]:
                lcm = mono_lcm(other, lm)
                heapq.heappush(heap, (wdeg(lcm), key(lcm), i, len(lms)))
        gens.append(_monic(element, lm))
        lms.append(lm)

    for element in elements:
        if element:
            append(element)
    added = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        lcm = mono_lcm(lms[i], lms[j])
        qi, qj = mono_divide(lcm, lms[i]), mono_divide(lcm, lms[j])
        spair = {mono_mul(e, qi): a for e, a in gens[i].items()}
        for e, a in gens[j].items():
            t = mono_mul(e, qj)
            spair[t] = spair.get(t, 0) - a
        counter.spend()
        quotients = []
        r = max_scan_nf(spair, lms, gens, key, counter, quotients)
        syz = {(qi, i): Fraction(1)}
        for k, q, c in [(j, qj, 1)] + quotients:
            syz[(q, k)] = syz.get((q, k), 0) - c
        if r:
            lm = max(r, key=key)
            syz[((0,) * len(lm), len(gens))] = -r[lm]
            append(r)
            added += 1
        pending.append(syz)
    rank = len(gens)
    records = [{q[:-2] + (k, rank - 1 - k): c for (q, k), c in syz.items()
                if c} for syz in pending]
    return gens, lms, records, added


def naive_buchberger(context, generators, order=DEGREVLEX):
    """The reduced Groebner basis of `generators` under `order`, monic and
    sorted by increasing lead: `module_buchberger` on the ring as a free
    module of rank one, then `interreduce`."""
    n = context.arity
    ring_key = flat_key_for(order, context)

    def key(t):
        return ring_key(t[:n])

    elements = [{e + (0, 0): c for e, c in g.terms} for g in generators]
    gens, lms, _, _ = module_buchberger(elements, key,
                                        context.weighted_degree,
                                        StepCounter())
    return tuple(Polynomial.from_terms(context, [(t[:n], c)
                                                 for t, c in p.items()])
                 for p in interreduce(gens, lms, key, StepCounter())[1])


def sympy_basis(context, generators, order=DEGREVLEX):
    """sympy's reduced Groebner basis of `generators` under `order`, as a
    set of frozensets of terms: under sympy's own grevlex for standard
    graded degrevlex, else under the key `flat_key_for` gives."""
    import sympy
    from sympy.polys.orderings import MonomialOrder as SympyOrder

    class Keyed(SympyOrder):
        alias = "keyed"
        is_global = True

        def __init__(self, key):
            self.key = key

        def __call__(self, monomial):
            return self.key(monomial)

        def __eq__(self, other):
            return isinstance(other, Keyed) and other.key is self.key

        def __hash__(self):
            return id(self.key)

    syms = sympy.symbols(context.names)
    exprs = [sum(sympy.Rational(c.numerator, c.denominator)
                 * sympy.Mul(*(s**e for s, e in zip(syms, exps)))
                 for exps, c in g.terms) for g in generators]
    standard = order == DEGREVLEX and context.is_standard_graded
    basis = sympy.groebner(exprs, *syms, domain=sympy.QQ, order=(
        "grevlex" if standard else Keyed(flat_key_for(order, context))))
    return {frozenset((exps, Fraction(int(c.p), int(c.q)))
                      for exps, c in g.terms())
            for g in basis.polys}


def monic_basis(built):
    """A packed reduced basis as `groebner._buchberger` returns it, as the
    leads and the monic {exponents: Fraction} dicts, on exponent tuples."""
    mons, lms, basis, _ = built
    unpack = mons.unpack
    return ([unpack(lm) for lm in lms],
            [{unpack(e): Fraction(c, g[lm]) for e, c in g.items()}
             for lm, g in zip(lms, basis)])


# ---------------------------------------------------------------------------
# dimension, quotients, saturation

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
    meet = elimination_intersection(handle, IdealHandle(handle.context, [g]))
    return IdealHandle(handle.context,
                       [exact_divide(h, g) for h in meet.generators])


def is_nonzerodivisor(defining_ideal, g):
    """True iff g is regular on P/defining_ideal, i.e. (I : g) = I."""
    if g.is_zero:
        raise ValueError("the zero polynomial is never a nonzerodivisor")
    return ideal_quotient(defining_ideal, g).equals(defining_ideal)


class ReferenceOrder:
    """The lex and block elimination orders that `MonomialOrder` offered
    before every ring order of the library became weighted degrevlex.
    The engine runs under any order with a linear int key, so the kernel
    tests build with these too, and the eliminations below need the block
    order."""

    __slots__ = ("kind", "front")

    def __init__(self, kind, front=()):
        self.kind = kind
        self.front = tuple(sorted(front))

    @classmethod
    def elimination(cls, front_indices):
        """Block order eliminating the given variable indices: the front
        block (degrevlex within it) compares before the rest."""
        return cls("block", front_indices)

    def key_for(self, context):
        """The int key sum_i K_i e_i, as `MonomialOrder.key_for`."""
        n, weights = context.arity, context.weights
        if self.kind == "lex":
            vector = [1 << (KEY_DIGIT * (n - 1 - i)) for i in range(n)]
        else:
            front = self.front
            if front and front[-1] >= n:
                raise ValueError("front block index out of range")
            back = [i for i in range(n) if i not in front]
            vector = [0] * n
            # the front block's digits sit above the back block's
            for block, shift in ((front, KEY_DIGIT * (len(back) + 1)),
                                 (back, 0)):
                for i, k in zip(block, _drl_vector([weights[i]
                                                    for i in block])):
                    vector[i] = k << shift
        return lambda e: sum(map(mul, vector, e))

    def __eq__(self, other):
        return (isinstance(other, ReferenceOrder)
                and (self.kind, self.front) == (other.kind, other.front))

    def __hash__(self):
        return hash((self.kind, self.front))

    def __repr__(self):
        return f"ReferenceOrder({self.kind!r}, {self.front})"


LEX = ReferenceOrder("lex")


def insert_front(context, names):
    """`context` with variables of weight 1 put in front."""
    names = tuple(names)
    return VariableContext(names + context.names,
                           (1,) * len(names) + context.weights)


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
        ReferenceOrder.elimination((0,)))
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


def elimination_saturation(handle, g):
    """(I : g^inf) by the elimination of y*g - 1 in a block order, the
    path `IdealHandle.saturation` took before it divided a degrevlex
    basis for every homogeneous g; it needs no homogeneity."""
    ctx = handle.context
    big = insert_front(ctx, ctx.fresh_names("y", 1))
    gens = [_lift(h, big) for h in handle.generators]
    gens.append(big.gen(0) * _lift(g, big) - big.one)
    return _eliminate_front(ctx, big, gens)


def elimination_intersection(handle, other):
    """I meet J by eliminating u from u*I + (1 - u)*J in a block order,
    the path `IdealHandle.intersection` took before it divided a
    degrevlex basis; it needs no homogeneity."""
    ctx = handle.context
    big = insert_front(ctx, ctx.fresh_names("u", 1))
    u = big.gen(0)
    gens = [u * _lift(g, big) for g in handle.generators]
    gens += [(big.one - u) * _lift(g, big) for g in other.generators]
    return _eliminate_front(ctx, big, gens)


def saturated_height_off_irrelevant(algebra, fitting):
    """The height of I + F off the irrelevant ideal m as `fitting_profile`
    computed it before its dimension check: (I + F) : m^inf, the
    intersection of the saturations by each variable, measured; +inf when
    it is the unit ideal."""
    total = algebra.defining_ideal + fitting
    sat = None
    for x in algebra.context.gens():
        part = elimination_saturation(total, x)
        sat = part if sat is None else elimination_intersection(sat, part)
    if sat.is_unit():
        return float("inf")
    return algebra.dimension - sat.krull_dimension().dimension


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
# order keys

def flat_key_for(order, context):
    """`MonomialOrder.key_for` before order keys were ints: a sort key
    function on exponent tuples, larger key meaning larger monomial.  Keys
    are flat integer tuples, all of one length for a given order and
    context."""
    weights = context.weights
    if isinstance(order, MonomialOrder):
        if order.last is None:
            return _drl_key(weights)
        ranks = [i for i in range(context.arity) if i != order.last]
        ranks.append(order.last)
        key = _drl_key(tuple(weights[i] for i in ranks))
        return lambda e: key(tuple(e[i] for i in ranks))
    if order.kind == "lex":
        return lambda e: e
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


def position_key(ctx):
    """Position-over-term over degrevlex on flat module terms: earlier
    components dominate."""
    ring_key = flat_key_for(DEGREVLEX, ctx)
    n = ctx.arity
    return lambda t: (t[-1],) + ring_key(t[:n])


def schreyer_key(prev_key, prev_lms, n):
    """The order a stage whose generators lead with the flat terms
    `prev_lms` induces on the flat terms x^a e_j of the next: compare the
    images x^a lm_j under `prev_key`, ties toward the earlier generator."""
    return lambda t: (prev_key(tuple(map(add, t[:n] + (0, 0),
                                         prev_lms[t[n]])))
                      + (-t[n],))


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


# ---------------------------------------------------------------------------
# modules: presentations, resolutions, syzygies

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


def column(matrix, j):
    """Column j of a `PolyMatrix`, as a tuple."""
    return tuple(row[j] for row in matrix.entries)


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


def spans(elements, key, wdeg):
    """Membership in the submodule the flat `elements` generate, as a
    predicate on flat elements: a zero normal form against a basis."""
    basis, lms, _, _ = module_buchberger(elements, key, wdeg, StepCounter())
    return lambda element: not max_scan_nf(element, lms, basis, key,
                                           StepCounter())


def section_of(handle):
    """(cut, section): the number of trailing variables x_n, x_(n-1), ...
    that divide no lead of the reduced degrevlex basis of `handle`,
    counted until one does, and the ideal that basis generates with
    those variables set to 0, in the same ring; `handle` itself when no
    variable is cut.  Each cut variable is regular on the quotient
    (Bayer-Stillman), so the section has the handle's Betti numbers."""
    ctx = handle.context
    n = ctx.arity
    basis = handle.groebner_basis()
    leads = [_leading(g, flat_key_for(DEGREVLEX, ctx)) for g in basis]
    cut = 0
    while cut < n and not any(e[n - 1 - cut] for e in leads):
        cut += 1
    if not cut:
        return 0, handle
    return cut, IdealHandle(ctx, [
        Polynomial.from_terms(ctx, [(e, c) for e, c in g.terms
                                    if not any(e[n - cut:])])
        for g in basis])


def module_resolution_stages(pres):
    """The stages of `free_resolution` on `module_buchberger`: per stage,
    the family (monic, by decreasing lead) and the records of all its
    S-pairs.  Stage one is the reduced basis of the columns under
    `position_key`; each later family is the reduced basis of the
    records of the stage before under the Schreyer key it induces."""
    ctx = pres.context
    n = ctx.arity
    key = position_key(ctx)
    wdeg = ctx.weighted_degree
    gens, lms, _, _ = module_buchberger(
        columns_to_elements(pres, pres.target_rank), key, wdeg,
        StepCounter())
    lms, family = interreduce(gens, lms, key, StepCounter())
    stages = []
    while family:
        lms.reverse()
        family.reverse()
        _, _, records, added = module_buchberger(family, key, wdeg,
                                                 StepCounter())
        assert not added, "a stage family must already be a basis"
        records = [s for s in records if s]
        stages.append((family, records))
        if not records:
            break
        key = schreyer_key(key, lms, n)
        lms, family = interreduce(records, [max(s, key=key)
                                            for s in records],
                                  key, StepCounter())
    return stages


def minimize_matrices(mats, shifts):
    """Cancel constant entries by row/column reduction, updating the two
    adjacent differentials and shift tables, until every entry lies in the
    maximal ideal.  Stages that become empty split off exactly, so the
    tower is truncated at the first zero stage.  A cancellation whose
    neighbour does not vanish raises explicitly, so under `python -O`
    too."""
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


def minimized_free_resolution(pres):
    """The minimal free resolution of the cokernel of the columns: the
    stages of `module_resolution_stages` as matrices, minimized by
    `minimize_matrices`."""
    ctx = pres.context
    n = ctx.arity
    shifts = [list(pres.shifts)]
    mats = []
    rank = pres.target_rank
    for family, _ in module_resolution_stages(pres):
        mats.append([[Polynomial.from_terms(ctx, [(t[:n], c)
                                                  for t, c in el.items()
                                                  if t[n] == i])
                      for el in family] for i in range(rank)])
        shifts.append([ctx.weighted_degree(t) + shifts[-1][t[n]]
                       for t in map(next, map(iter, family))])
        rank = len(family)
    minimize_matrices(mats, shifts)
    return MinimizedResolution(
        FreeComplex(tuple(map(len, shifts)),
                    tuple(PolyMatrix(ctx, tuple(map(tuple, m)))
                          for m in mats)),
        tuple(map(tuple, shifts)))


def syzygy_generators(pres):
    """Generators of the syzygies of the presentation's columns, as flat
    elements of rank m: the elements of a basis of the columns
    c_j + e_{r+j} in rank r + m whose leads lie in a component >= r,
    shifted down by r (Greuel-Pfister, A Singular Introduction to
    Commutative Algebra, 2.5)."""
    ctx = pres.context
    n = ctx.arity
    r, m = pres.target_rank, pres.matrix.ncols
    columns = columns_to_elements(pres, r + m)
    for j, col in enumerate(columns):
        col[(0,) * n + (r + j, m - 1 - j)] = Fraction(1)
    gens, lms, _, _ = module_buchberger(columns, position_key(ctx),
                                        ctx.weighted_degree, StepCounter())
    return [{t[:n] + (t[n] - r, t[n + 1]): c for t, c in g.items()}
            for g, lm in zip(gens, lms) if lm[n] >= r]


def syzygies(pres):
    """A minimal generating set of the syzygies of the presentation's
    columns, as a presentation of rank m: the syzygy generators by
    increasing degree, each kept unless the ones kept before span it.  By
    graded Nakayama the kept ones generate minimally."""
    ctx = pres.context
    n = ctx.arity
    m = pres.matrix.ncols
    key = position_key(ctx)
    degrees = column_degrees(pres)

    def degree(element):
        t = next(iter(element))
        return ctx.weighted_degree(t) + degrees[t[n]]

    kept = []
    for g in sorted(syzygy_generators(pres), key=degree):
        if not spans(kept, key, ctx.weighted_degree)(g):
            kept.append(g)
    matrix = PolyMatrix(ctx, tuple(
        tuple(Polynomial.from_terms(ctx, [(t[:n], c) for t, c in g.items()
                                          if t[n] == i]) for g in kept)
        for i in range(m)))
    return ModulePresentation(ctx, m, matrix, shifts=degrees)


# ---------------------------------------------------------------------------
# minors

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


def signed_row_sequence_minor(matrix, row_sequence, cols):
    """Determinant of a `PolyMatrix` with its rows taken in the given
    sequence order: zero for a repeated row, otherwise the library's
    `minor` on the sorted rows times the sign of the sorting
    permutation."""
    seq = tuple(row_sequence)
    if len(set(seq)) != len(seq):
        return matrix.context.zero
    inversions = sum(a > b for a, b in combinations(seq, 2))
    return matrix.minor(tuple(sorted(seq)), tuple(cols)) * (-1) ** inversions
