"""Exact linear algebra on small dense matrices: elimination only.

Row reduction runs fraction-free over Python ints (Bareiss), so every
division is exact, and returns `fractions.Fraction`.  It always pivots on
the first nonzero entry in row-major order, so kernel and complement bases
are reproducible across platforms.

Exact values pass through: an entry whose type is exactly `Fraction`, or
exactly `int` where an integer serves as well, is used as it is, and
anything else (a bool, a string, another number type) is converted once
with `Fraction(x)`, which also decides what is accepted and what raises.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


def vec(entries: Iterable) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def cross2(a: Sequence, b: Sequence):
    """z-component of the cross product of two planar vectors, in their own type."""
    return a[0] * b[1] - a[1] * b[0]


def _integer_row(entries: Iterable) -> list[int]:
    """The row scaled by the lcm of its denominators: integer, same direction."""
    row = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in entries]
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def _fraction_free_rref(
    matrix: Sequence[list[int]],
) -> tuple[list[list[int]], list[int], int, int]:
    """Bareiss's fraction-free Gauss-Jordan elimination over ints.

    Returns the reduced rows, the pivot columns, `det`, the last pivot
    (1 if there is none), and the parity (0 or 1) of the row swaps made.
    The reduced rows are exactly `det` times the reduced row echelon form,
    so every pivot entry equals `det`, and `det` is the determinant of the
    row-swapped input restricted to the pivot columns.  Each step keeps the
    pivot row and replaces every other row i by (p*row_i - f*row_r) // prev,
    with p the new pivot, f = row_i[c] and prev the previous pivot; every
    entry is then a minor of the input, so the division is exact
    (Sylvester's identity); a row with f = 0 under p = prev would come out
    unchanged, so it is skipped.  The input is not modified.
    """
    rows = list(matrix)
    pivots: list[int] = []
    prev = 1
    swaps = 0
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            swaps ^= 1
        pivot_row = rows[r]
        p = pivot_row[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and (f or p != prev):  # else the step leaves the row as it is
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        pivots.append(c)
        prev = p
    return rows, pivots, prev, swaps


def rref(matrix: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    red, pivots, det, _ = _fraction_free_rref([_integer_row(row) for row in matrix])
    # The reduced rows are det times the rref; its 0s and 1s share one Fraction each.
    zero, one = Fraction(0), Fraction(1)
    return [[Fraction(x, det) if x and x != det else one if x else zero for x in row] for row in red], pivots


def matrix_rank(matrix: Sequence[Sequence]) -> int:
    return len(_fraction_free_rref([_integer_row(row) for row in matrix])[1])


def kernel_basis(matrix: Sequence[Sequence]) -> list[Vec]:
    """Basis of {x : M x = 0}, one vector per free column, in column order.

    Each basis vector has entry 1 at its free column and 0 at the other
    free columns, which makes the basis canonical for a fixed input; it is
    read off `det` times the rref, sharing one `Fraction` for each 0 and 1.
    """
    if not matrix:
        return []
    cols = len(matrix[0])
    red, pivots, det, _ = _fraction_free_rref([_integer_row(row) for row in matrix])
    zero, one = Fraction(0), Fraction(1)
    basis: list[Vec] = []
    for fc in sorted(set(range(cols)) - set(pivots)):
        v = [zero] * cols
        v[fc] = one
        for row, pc in zip(red, pivots):
            v[pc] = Fraction(-row[fc], det) if row[fc] else zero
        basis.append(tuple(v))
    return basis


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> Vec | None:
    """One exact solution of M x = b (free variables set to 0); None if inconsistent."""
    if not matrix:
        return None
    cols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs, strict=True)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return tuple(x)
