"""Eagon-Northcott complexes of polynomial matrices.

For a t x m matrix M (t <= m) the complex has length m - t + 1; stage i
is spanned by pairs (J, a) of a (t+i-1)-subset of columns and an exponent
vector of total degree i - 1 over the rows.  The first differential lists
the maximal minors; the higher ones contract one column out of the
exterior factor against one row out of the symmetric factor.  The height
criterion decides acyclicity: the complex is exact precisely when the
ideal of maximal minors attains the bound m - t + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .groebner import IdealHandle
from .matrix import PolyMatrix


@dataclass(frozen=True)
class FreeComplex:
    """Ranks E_0..E_L with differentials d_1..d_L and optional basis labels."""

    ranks: tuple
    differentials: tuple       # d_i : E_i -> E_{i-1}, shape ranks[i-1] x ranks[i]
    basis_labels: tuple = None

    @property
    def length(self):
        return len(self.differentials)

    def is_complex(self):
        """All consecutive products vanish (exact arithmetic)."""
        for i in range(self.length):
            d = self.differentials[i]
            if d.shape != (self.ranks[i], self.ranks[i + 1]):
                return False
        for i in range(self.length - 1):
            if not (self.differentials[i] @ self.differentials[i + 1]).is_zero():
                return False
        return True


def koszul_complex(elements):
    """Koszul complex on a sequence of ring elements, with subsets of the
    element indices in lexicographic order as bases."""
    elements = tuple(elements)
    if not elements:
        raise ValueError("need at least one element")
    ctx = elements[0].context
    m = len(elements)
    labels = [((),)]
    ranks = [1]
    diffs = []
    prev = [()]
    for i in range(1, m + 1):
        cur = list(combinations(range(m), i))
        index = {J: k for k, J in enumerate(prev)}
        rows = [[ctx.zero] * len(cur) for _ in prev]
        for col, J in enumerate(cur):
            for pos, j in enumerate(J):
                target = J[:pos] + J[pos + 1:]
                sign = -1 if pos % 2 else 1
                row = index[target]
                rows[row][col] = rows[row][col] + elements[j] * sign
        diffs.append(PolyMatrix(ctx, tuple(tuple(r) for r in rows)))
        ranks.append(len(cur))
        labels.append(tuple(cur))
        prev = cur
    return FreeComplex(tuple(ranks), tuple(diffs), tuple(labels))


def _sym_exponents(slots, total):
    """Exponent vectors of the given total degree, lexicographically."""
    if slots == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _sym_exponents(slots - 1, total - first):
            out.append((first,) + rest)
    return sorted(out)


def build_en(matrix):
    """Eagon-Northcott complex of a t x m matrix with t <= m.

    Basis convention: exterior factors are column subsets in lex order,
    symmetric factors are exponent vectors in lex order; stage i pairs are
    ordered lexicographically by (subset, exponent).  Signs come from the
    position of the removed column.  The complex resolves the quotient by
    the ideal of maximal minors exactly when that ideal has maximal height.
    """
    t, m = matrix.nrows, matrix.ncols
    if t > m:
        raise ValueError("matrix must have at least as many columns as rows")
    if t == 0:
        raise ValueError("matrix must have at least one row")
    ctx = matrix.context
    length = m - t + 1
    ranks = [1]
    labels = [((),)]
    diffs = []
    stage_bases = []
    for i in range(1, length + 1):
        subsets = list(combinations(range(m), t + i - 1))
        exps = _sym_exponents(t, i - 1)
        basis = [(J, a) for J in subsets for a in exps]
        stage_bases.append(basis)
        ranks.append(len(basis))
        labels.append(tuple(basis))

    # d_1: the row of maximal minors, ordered by column subset as
    # `minors` lists them.
    diffs.append(PolyMatrix(ctx, (tuple(matrix.minors(t)),)))

    for i in range(2, length + 1):
        source = stage_bases[i - 1]
        target = stage_bases[i - 2]
        index = {ba: k for k, ba in enumerate(target)}
        rows = [[ctx.zero] * len(source) for _ in target]
        for col, (J, a) in enumerate(source):
            for pos, j in enumerate(J):
                sign = -1 if pos % 2 else 1
                smaller = J[:pos] + J[pos + 1:]
                for row_idx in range(t):
                    if a[row_idx] == 0:
                        continue
                    entry = matrix.entry(row_idx, j)
                    if entry.is_zero:
                        continue
                    shrunk = list(a)
                    shrunk[row_idx] -= 1
                    r = index[(smaller, tuple(shrunk))]
                    rows[r][col] = rows[r][col] + entry * sign
        diffs.append(PolyMatrix(ctx, tuple(tuple(r) for r in rows)))

    return FreeComplex(tuple(ranks), tuple(diffs), tuple(labels))


@dataclass(frozen=True)
class AcyclicityRecord:
    minor_height: float
    bound: int
    criterion_met: bool


def en_acyclicity(matrix, quotient=None):
    """Height criterion for exactness: ht of the maximal-minor ideal versus
    the bound m - t + 1, in the quotient algebra when one is supplied."""
    t, m = matrix.nrows, matrix.ncols
    if t > m:
        raise ValueError("matrix must have at least as many columns as rows")
    bound = m - t + 1
    ctx = matrix.context
    if quotient is not None:
        gens = matrix.minors(t, modulo=quotient.defining_ideal)
        height = quotient.height_of(IdealHandle(ctx, gens))
    else:
        dim = IdealHandle(ctx, matrix.minors(t)).krull_dimension().dimension
        height = float("inf") if dim < 0 else ctx.arity - dim
    return AcyclicityRecord(minor_height=height, bound=bound,
                            criterion_met=height >= bound)
