"""Dense exact linear algebra over a FieldTower.

Matrices are lists of row lists of canonical element ints.  Gaussian
elimination uses first-nonzero pivoting; everything is exact.
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
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(field: FieldTower, rows: Sequence[Sequence[Element]]) -> int:
    return len(rref(field, rows)[1])


def nullspace(
    field: FieldTower, rows: Sequence[Sequence[Element]], width: int | None = None
) -> Matrix:
    """Basis of the right nullspace {x : rows @ x == 0}.

    width is required when rows is empty (the nullspace is then all of F^width).
    """
    if not rows:
        if width is None:
            raise ValueError("width is required for an empty matrix")
        return [[1 if j == i else 0 for j in range(width)] for i in range(width)]
    ncols = len(rows[0])
    reduced, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis: Matrix = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = field.neg(reduced[r][f])
        basis.append(vec)
    return basis


def same_row_space(
    field: FieldTower,
    a: Sequence[Sequence[Element]],
    b: Sequence[Sequence[Element]],
) -> bool:
    """Whether two generating sets span the same row space."""
    ra = rank(field, a)
    rb = rank(field, b)
    if ra != rb:
        return False
    stacked = [list(r) for r in a] + [list(r) for r in b]
    return rank(field, stacked) == ra
