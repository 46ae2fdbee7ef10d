"""Dense row reduction and nullspaces over a prime field.

Matrices are int32 numpy arrays with entries in [0, p).  At odd p rref
clears one column at a time on the array; p is at most 509 (tables are
capped at order 512), so (p - 1)^2 and every intermediate fit in int32.

At p = 2 rref packs each row into one Python int, column c at bit
w - 1 - c for a width w of ncols rounded up to whole bytes, so the leftmost
nonzero column of a row is w - row.bit_length(), and clears a pivot by XOR.
It eliminates in another order than the column loop of odd p, but the
reduced row echelon form of a matrix is unique, so both give the same rows
and pivots.
"""

from __future__ import annotations

import numpy as np


def rref(rows, ncols, p):
    """Reduced row echelon form mod p; returns (rows, pivot column list).

    rows is any nrows x ncols integer array or list of lists; the returned
    rows are an int32 array holding only the nonzero rows.
    """
    m = np.asarray(rows, dtype=np.int32).reshape(len(rows), ncols)
    if p == 2:
        return _rref_gf2(m)
    m = m % p
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


def _rref_gf2(m):
    """rref mod 2 on packed rows: each row is cleared against the rows kept
    so far by their leading bits, then the kept rows are reduced in place
    from the rightmost pivot leftwards."""
    nrows, ncols = m.shape
    nbytes = -(-ncols // 8)
    data = np.packbits(m % 2, axis=1).tobytes()
    lead = {}                   # bit_length of a kept row -> the row
    for i in range(nrows):
        row = int.from_bytes(data[i * nbytes:(i + 1) * nbytes], "big")
        while row:
            top = row.bit_length()
            kept = lead.get(top)
            if kept is None:
                lead[top] = row
                break
            row ^= kept
    # each reduced row is zero at the pivots of the rows reduced before it,
    # so clearing one of those pivots from a row sets or clears no other
    tops = sorted(lead)
    pivot_bits = 0
    for top in tops:
        row = lead[top]
        hits = row & pivot_bits
        while hits:
            bit = hits.bit_length()
            row ^= lead[bit]
            hits ^= 1 << bit - 1
        lead[top] = row
        pivot_bits |= 1 << top - 1
    tops.reverse()
    width = 8 * nbytes
    bits = np.unpackbits(np.frombuffer(
        b"".join(lead[top].to_bytes(nbytes, "big") for top in tops),
        dtype=np.uint8)).reshape(len(tops), width)
    return bits[:, :ncols].astype(np.int32), [width - top for top in tops]


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
