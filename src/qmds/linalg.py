"""Dense exact linear algebra over a FieldTower.

Matrices are lists of row lists of canonical element ints.  Gaussian
elimination uses first-nonzero pivoting; everything is exact.

The element loops read the field's add/mul lookup tables
(`FieldTower.op_tables`), as the distance kernels do: one row mul[1/p]
scales a pivot row with pivot p, and one pass of add[x][f[y]] with
f = mul[-e] clears the entry e in the pivot column of another row.  Past
`LOOKUP_TABLE_MAX_ORDER` the tables are views that call the field's
methods, so the same loops run on every field.  `rank` goes through
`rref`; it backs the full-row-rank check of a `LinearCode` and the rank
half of the identity suites' dual-basis check.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .field import Element, FieldTower

Matrix = List[List[Element]]


def rref(field: FieldTower, rows: Sequence[Sequence[Element]]) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    add, mul = field.op_tables
    negate = mul[field.neg(1)]
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        # left of c the pivot row is 0 (earlier pivot columns are cleared,
        # the other columns had no pivot), so only columns c.. change
        scale = mul[field.inv(m[r][c])]
        tail = [scale[x] for x in m[r][c:]]
        m[r][c:] = tail
        for i, row in enumerate(m):
            if i != r and row[c] != 0:
                # row - row[c] * pivot row, as row + (-row[c]) * pivot row
                f = mul[negate[row[c]]]
                row[c:] = [add[x][f[y]] for x, y in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(field: FieldTower, rows: Sequence[Sequence[Element]]) -> int:
    return len(rref(field, rows)[1])

