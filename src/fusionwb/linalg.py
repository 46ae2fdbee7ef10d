"""Dense row reduction and nullspaces over a prime field.

rref packs each row into one Python int, column 0 in the most significant
field: one bit at p = 2, where a row op is an XOR, and w bits at odd p,
where a row op adds a multiple of a kept row and then takes every field
mod p at once by a multiply, shift and mask (_reducer).  A row's leading
field is read off its bit_length, so the rows are eliminated in another
order than Gauss-Jordan by columns; but the reduced row echelon form of a
matrix is unique, so the rows and pivots are the same.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=None)
def _reducer(p):
    """(w, M, S, b) for an odd p: x // p = x M >> S for every x < p^2, by
    the round-up reciprocal M = ceil(2^S / p) with S = N + ceil(log2 p),
    x < 2^N (Granlund and Montgomery, Division by invariant integers using
    multiplication, PLDI 1994).  A quotient is below p < 2^b, and x M below
    2^(S + b) <= 2^w, so in a row of w-bit fields each quotient lands in the
    low b bits of its field, and the fraction of the field above only
    reaches bits b and up."""
    b = p.bit_length()
    s = (p * p - 1).bit_length() + b
    w = next(w for w in (8, 16, 32, 64) if s + b <= w)
    return w, -(-(1 << s) // p), s, b


def rref(rows, ncols, p):
    """Reduced row echelon form mod p; returns (rows, pivot column list).

    rows is any nrows x ncols integer array or list of lists; the returned
    rows are an int32 array holding only the nonzero rows.
    """
    m = np.asarray(rows, dtype=np.int32).reshape(len(rows), ncols) % p
    if p == 2:
        w, nbytes = 1, -(-ncols // 8)
        data = np.packbits(m, axis=1).tobytes()
    else:
        w, mul, shift, b = _reducer(p)
        nbytes = ncols * w // 8
        data = m.astype(f">u{w // 8}").tobytes()
        low = ((1 << 8 * nbytes) - 1) // ((1 << w) - 1) * ((1 << b) - 1)
    width = 8 * nbytes // w                     # fields per row
    lead = {}               # field of a kept row's leading 1, from the right

    def add(row, c, kept):
        """row + c kept, fieldwise mod p, at odd p."""
        x = row + c * kept
        return x - ((x * mul >> shift) & low) * p

    for i in range(len(m)):
        row = int.from_bytes(data[i * nbytes:(i + 1) * nbytes], "big")
        while row:
            at = (row.bit_length() - 1) // w
            kept = lead.get(at)
            if kept is None:
                v = row >> at * w
                lead[at] = row if v == 1 else add(0, pow(v, -1, p), row)
                break
            row = row ^ kept if p == 2 else add(row, p - (row >> at * w), kept)
    # each reduced row is zero at the pivots of the rows reduced before it,
    # so clearing one of those pivots from a row changes no other
    ats = sorted(lead)
    pivot_fields = 0
    for at in ats:
        row = lead[at]
        hits = row & pivot_fields
        while hits:
            hit = (hits.bit_length() - 1) // w
            v = hits >> hit * w
            hits ^= v << hit * w
            row = row ^ lead[hit] if p == 2 else add(row, p - v, lead[hit])
        lead[at] = row
        pivot_fields |= ((1 << w) - 1) << at * w
    ats.reverse()
    data = b"".join(lead[at].to_bytes(nbytes, "big") for at in ats)
    if p == 2:
        red = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    else:
        red = np.frombuffer(data, dtype=f">u{w // 8}")
    red = red.reshape(len(ats), width)[:, :ncols].astype(np.int32)
    return red, [width - 1 - at for at in ats]


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
