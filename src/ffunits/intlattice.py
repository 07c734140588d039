"""Exact integer row-lattice routines: Hermite form and solving.

Everything works on plain lists of Python ints, so coefficient growth is
never a correctness concern.
"""


def _row_addmul(mat, aux, dst, src, c):
    if c:
        mrow, srow = mat[dst], mat[src]
        for j in range(len(mrow)):
            mrow[j] += c * srow[j]
        arow, brow = aux[dst], aux[src]
        for j in range(len(arow)):
            arow[j] += c * brow[j]


def hnf_with_transform(rows, width):
    """Row Hermite form: returns (H, U, pivot_cols) with U unimodular, U*A = H."""
    m = len(rows)
    H = [list(map(int, r)) for r in rows]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(width):
        while True:
            nz = [i for i in range(r, m) if H[i][c]]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: (abs(H[i][c]), i))
            for i in nz:
                if i != i0:
                    _row_addmul(H, U, i, i0, -(H[i][c] // H[i0][c]))
        if not nz:
            continue
        i0 = nz[0]
        H[r], H[i0] = H[i0], H[r]
        U[r], U[i0] = U[i0], U[r]
        if H[r][c] < 0:
            H[r] = [-v for v in H[r]]
            U[r] = [-v for v in U[r]]
        for k in range(r):
            _row_addmul(H, U, k, r, -(H[k][c] // H[r][c]))
        pivots.append(c)
        r += 1
    return H, U, pivots


def solve_left(rows, width, target):
    """Solve w * A = target over the integers.

    Returns (word, kernel_basis): word is one solution or None, and
    kernel_basis spans {w : w * A = 0}.
    """
    m = len(rows)
    H, U, pivots = hnf_with_transform(rows, width)
    rank = len(pivots)
    kernel = [tuple(U[i]) for i in range(rank, m)]
    resid = list(map(int, target))
    y = [0] * m
    for i, c in enumerate(pivots):
        piv = H[i][c]
        if resid[c] % piv:
            return None, kernel
        k = resid[c] // piv
        if k:
            y[i] = k
            for j in range(width):
                resid[j] -= k * H[i][j]
    if any(resid):
        return None, kernel
    word = [0] * m
    for i in range(rank):
        if y[i]:
            for j in range(m):
                word[j] += y[i] * U[i][j]
    return tuple(word), kernel
