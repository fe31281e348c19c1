"""Matrices of polynomials with exact Laplace-expansion minors, expanded
on the packed monomials of the Groebner kernel and, on request, reduced
modulo an ideal on its normal form."""

from __future__ import annotations

import math
from itertools import combinations

from .errors import ContextMismatchError
from .groebner import _Monomials, _nf, _polynomial, _steps
from .poly import Polynomial


class PolyMatrix:
    """Immutable rectangular matrix of polynomials sharing one context."""

    __slots__ = ("context", "nrows", "ncols", "entries")

    def __init__(self, context, entries):
        rows = tuple(tuple(r) for r in entries)
        width = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != width:
                raise ValueError("matrix rows must have equal length")
            for p in r:
                if not isinstance(p, Polynomial):
                    raise TypeError("entries must be Polynomial values")
                if p.context != context:
                    raise ContextMismatchError("entry context mismatch")
        self.context = context
        self.nrows = len(rows)
        self.ncols = width
        self.entries = rows

    def entry(self, i, j):
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def submatrix(self, rows, cols):
        rows = tuple(rows)
        cols = tuple(cols)
        return PolyMatrix(self.context,
                          tuple(tuple(self.entries[i][j] for j in cols)
                                for i in rows))

    def is_zero(self):
        return all(p.is_zero for r in self.entries for p in r)

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix)
                and self.context == other.context
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.context, self.entries))

    def __matmul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in matrix product")
            zero = self.context.zero
            out = []
            for i in range(self.nrows):
                row = []
                for j in range(other.ncols):
                    acc = zero
                    for k in range(self.ncols):
                        a = self.entries[i][k]
                        b = other.entries[k][j]
                        if a.is_zero or b.is_zero:
                            continue
                        acc = acc + a * b
                    row.append(acc)
                out.append(tuple(row))
            return PolyMatrix(self.context, tuple(out))
        return NotImplemented

    # -- determinants and minors ------------------------------------------------

    def minor(self, rows, cols):
        """Determinant of the selected square submatrix, rows and columns
        taken in the given order (see `minors`)."""
        rows = tuple(rows)
        cols = tuple(cols)
        if len(rows) != len(cols):
            raise ValueError("minor needs equally many rows and columns")
        return self.minors(len(rows), rows, cols)[0]

    def minors(self, size, rows=None, cols=None, modulo=None):
        """All size x size minors over the given row/column pools, ordered
        lexicographically by (row set, column set).  With `modulo`, an
        IdealHandle of the same ring, each minor is its normal form modulo
        that ideal under degrevlex, the polynomial `modulo.normal_form`
        returns for it, for the same steps of the open step budget.

        Laplace expansion along the first row, memoised on the (rows,
        cols) of every subminor, on packed monomials with int coefficients
        (`_laplace`): column j is scaled to integers by the lcm D_j of its
        entries' denominators, so a minor comes out as prod_j D_j times
        itself and is divided once.  With `modulo` the expansion shares
        the `_Monomials` and first-divisor memo of the handle's cached
        packed basis, and each minor goes to `_nf` before it becomes a
        Polynomial."""
        row_pool = tuple(rows) if rows is not None else tuple(range(self.nrows))
        col_pool = tuple(cols) if cols is not None else tuple(range(self.ncols))
        if size < 0:
            raise ValueError("minor size must be nonnegative")
        if size > len(row_pool) or size > len(col_pool):
            raise ValueError(
                f"minor size {size} exceeds available rows/columns")
        ctx = self.context
        if modulo is None:
            mons = _Monomials(ctx._canon_key, ctx.arity)
        elif modulo.context != ctx:
            raise ContextMismatchError("ideal context mismatch")
        else:
            mons, lms, basis, memo = modulo._reduced()
            counter = _steps()
        pack = mons.pack
        scales = {}
        entries = {i: {} for i in row_pool}
        for j in set(col_pool):
            column = [self.entries[i][j].terms for i in entries]
            scale = math.lcm(*(c.denominator for terms in column
                               for _, c in terms))
            scales[j] = scale
            for i, terms in zip(entries, column):
                entries[i][j] = {pack(e): c.numerator
                                 * (scale // c.denominator)
                                 for e, c in terms}
        cache = {}
        out = []
        for rs in combinations(row_pool, size):
            for cs in combinations(col_pool, size):
                det = (_laplace(entries, mons, cache, rs, cs) if size
                       else {pack((0,) * ctx.arity): 1})
                num, den = 1, 1
                if modulo is not None:
                    det, (num, den) = _nf(det, lms, basis, mons, counter,
                                          memo)
                num *= math.prod(scales[j] for j in cs)
                out.append(_polynomial(ctx, mons, det, num, den))
        return out

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols})"

    def pretty(self):
        cells = [[str(p) for p in row] for row in self.entries]
        widths = [max((len(cells[i][j]) for i in range(self.nrows)), default=0)
                  for j in range(self.ncols)]
        lines = []
        for row in cells:
            lines.append("[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths))
                         + " ]")
        return "\n".join(lines)


def _laplace(entries, mons, cache, rows, cols):
    """The determinant of rows x cols of `entries`, {row: {column: packed
    {monomial: int} dict}}, as a packed int dict: expanded along its first
    row, each subminor memoised in `cache` by its (rows, cols).

    A term product is one int addition of packed monomials, its guard bits
    tested where it enters the sum (see `groebner._Monomials`), and its
    negated key in `mons` the sum of its factors' keys."""
    if len(rows) == 1:
        return entries[rows[0]][cols[0]]
    hit = cache.get((rows, cols))
    if hit is not None:
        return hit
    top, rest = rows[0], rows[1:]
    guard = mons.guard
    acc = {}
    for k, j in enumerate(cols):
        entry = entries[top][j]
        if not entry:
            continue
        sub = _laplace(entries, mons, cache, rest, cols[:k] + cols[k + 1:])
        for a, ca in entry.items():
            if k % 2:
                ca = -ca
            key = mons[a]
            for b, cb in sub.items():
                t = a + b
                v = acc.get(t)
                if v is None:
                    if t & guard:
                        raise mons.overflow(t)
                    acc[t] = ca * cb
                    if t not in mons:
                        mons[t] = key + mons[b]
                else:
                    acc[t] = v + ca * cb
    acc = {t: v for t, v in acc.items() if v}
    cache[(rows, cols)] = acc
    return acc
