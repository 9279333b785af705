"""Exact rational linear algebra for stationary-profile computations."""

from __future__ import annotations

import math

from .profiles import clear_denominators, divide


def solve_rational_kernel(matrix) -> list:
    """Basis of the null space of a matrix of ints and Fractions, exactly.

    Rows are scaled to integers once and eliminated fraction-free after
    Bareiss (1968), each updated row reduced by the gcd of its entries.
    Pivots are the first nonzero entries left to right, so the reduced
    echelon form and the basis are Gauss-Jordan's: each basis vector has a 1
    in one free column and is divided once, by the lcm of the pivots.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [clear_denominators(row)[1] for row in matrix]
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        pivot_row = next((i for i in range(r, m) if a[i][c]), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        top = a[r]
        p = top[c]
        for i in range(m):
            f = a[i][c]
            if i != r and f:
                row = [x * p - f * y for x, y in zip(a[i], top)]
                g = math.gcd(*row) or 1
                a[i] = [x // g for x in row]
        pivots.append(c)
        if len(pivots) == m:
            break
    den = math.lcm(*(a[i][pc] for i, pc in enumerate(pivots)))
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = den
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][fc] * (den // a[i][pc])
        basis.append(list(divide(v, den)))
    return basis
