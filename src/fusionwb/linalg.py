"""Dense row reduction and nullspaces over a prime field.

Matrices are int32 numpy arrays.  Entries are kept in [0, p), and p is at
most 509 (tables are capped at order 512), so (p - 1)^2 and every
intermediate below fit in int32.
"""

from __future__ import annotations

import numpy as np


def rref(rows, ncols, p):
    """Reduced row echelon form mod p; returns (rows, pivot column list).

    rows is any nrows x ncols integer array or list of lists; the returned
    rows are an int32 array holding only the nonzero rows.
    """
    m = np.asarray(rows, dtype=np.int32).reshape(len(rows), ncols) % p
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(m):
            break
        nz = np.flatnonzero(m[r:, c])
        if not nz.size:
            continue
        pivot = r + nz[0]
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        # the pivot row, like every row from r down, is zero left of c, so
        # clearing column c changes only columns c..
        col = m[:, c].copy()
        col[r] = 0
        nz = np.flatnonzero(col)
        m[nz, c:] = (m[nz, c:] - np.outer(col[nz], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def nullspace(rows, ncols, p):
    """Canonical basis of the kernel: one vector per free column, as lists."""
    red, pivots = rref(rows, ncols, p)
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), ncols), dtype=np.int32)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-red[:, free].T) % p
    return basis.tolist()


def canonical_kernel(rows, ncols, p):
    """The basis nullspace gives of a kernel, from any basis rows of it:
    the reduced row echelon form with the columns taken from the right."""
    red, _ = rref(np.asarray(rows).reshape(len(rows), ncols)[:, ::-1], ncols, p)
    return red[::-1, ::-1]
