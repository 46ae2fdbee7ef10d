"""Reference Gauss-Jordan elimination mod p on lists of lists.

The library eliminates on rows packed into Python ints, a bit per column at
p = 2 and a w-bit field per column at odd p, in the order their leading
columns arrive; the tests keep this plain loop by columns as the
independent oracle for it and for the invariant-theory dimension checks.
"""


def reference_rref(rows, ncols, p):
    """Reduced row echelon form mod p; returns (rows, pivot column list)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [(inv * x) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def reference_nullspace(rows, ncols, p):
    """Canonical basis of the kernel: one vector per free column."""
    red, pivots = reference_rref(rows, ncols, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for c in free:
        v = [0] * ncols
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][c]) % p
        basis.append(v)
    return basis
