"""Matrices of polynomials with exact Laplace-expansion minors."""

from __future__ import annotations

from itertools import combinations

from .errors import ContextMismatchError
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

    def scaled_rows(self, integer_matrix):
        """Left-multiply by a matrix of plain integers (row operations)."""
        m = [tuple(int(x) for x in row) for row in integer_matrix]
        if any(len(row) != self.nrows for row in m):
            raise ValueError("row-operation matrix has wrong width")
        zero = self.context.zero
        out = []
        for row in m:
            new = []
            for j in range(self.ncols):
                acc = zero
                for k, coeff in enumerate(row):
                    if coeff and not self.entries[k][j].is_zero:
                        acc = acc + self.entries[k][j] * coeff
                new.append(acc)
            out.append(tuple(new))
        return PolyMatrix(self.context, tuple(out))

    # -- determinants and minors ------------------------------------------------

    def minor(self, rows, cols):
        """Determinant of the selected square submatrix, expanded along its
        first row with memoisation on column subsets."""
        rows = tuple(rows)
        cols = tuple(cols)
        if len(rows) != len(cols):
            raise ValueError("minor needs equally many rows and columns")
        return self._det_memo(rows, cols, {})

    def _det_memo(self, rows, cols, cache):
        if not rows:
            return self.context.one
        key = (rows, cols)
        hit = cache.get(key)
        if hit is not None:
            return hit
        top, rest = rows[0], rows[1:]
        acc = self.context.zero
        for k, j in enumerate(cols):
            entry = self.entries[top][j]
            if entry.is_zero:
                continue
            sub = self._det_memo(rest, cols[:k] + cols[k + 1:], cache)
            if not sub.is_zero:
                acc = acc - entry * sub if k % 2 else acc + entry * sub
        cache[key] = acc
        return acc

    def signed_row_sequence_minor(self, row_sequence, cols):
        """Determinant taken with rows in the given sequence order; a repeated
        row gives zero, otherwise the sorted minor times the permutation sign."""
        seq = tuple(row_sequence)
        if len(set(seq)) != len(seq):
            return self.context.zero
        sorted_rows = tuple(sorted(seq))
        sign = _permutation_sign(seq)
        return self.minor(sorted_rows, tuple(cols)) * sign

    def minors(self, size, rows=None, cols=None):
        """All size x size minors over the given row/column pools, ordered
        lexicographically by (row set, column set)."""
        row_pool = tuple(rows) if rows is not None else tuple(range(self.nrows))
        col_pool = tuple(cols) if cols is not None else tuple(range(self.ncols))
        if size < 0:
            raise ValueError("minor size must be nonnegative")
        if size > len(row_pool) or size > len(col_pool):
            raise ValueError(
                f"minor size {size} exceeds available rows/columns")
        out = []
        cache = {}
        for rs in combinations(row_pool, size):
            for cs in combinations(col_pool, size):
                out.append(self._det_memo(rs, cs, cache))
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


def _permutation_sign(seq):
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign
