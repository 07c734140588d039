"""Exact integer row-lattice routines: Hermite form and solving.

Everything works on plain lists of Python ints, so coefficient growth is
never a correctness concern.  A transform is recorded the augmented-matrix
way: columns past the reduced width ride along under the same row
operations, so reducing [A | I] gives [H | U] with U unimodular and U * A = H.
"""


def _row_addmul(mat, dst, src, c):
    if c:
        mrow, srow = mat[dst], mat[src]
        for j in range(len(mrow)):
            mrow[j] += c * srow[j]


def hnf(rows, width):
    """Row Hermite form of the first width columns: returns (H, pivot_cols).

    Every row operation is chosen from the first width columns alone; any
    further columns ride along.
    """
    m = len(rows)
    H = [list(map(int, r)) for r in rows]
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
                    _row_addmul(H, i, i0, -(H[i][c] // H[i0][c]))
        if not nz:
            continue
        i0 = nz[0]
        H[r], H[i0] = H[i0], H[r]
        if H[r][c] < 0:
            H[r] = [-v for v in H[r]]
        for k in range(r):
            _row_addmul(H, k, r, -(H[k][c] // H[r][c]))
        pivots.append(c)
        r += 1
    return H, pivots


def solve_left(rows, width, target):
    """Solve w * A = target over the integers, A the rows of width entries.

    Returns (word, kernel_basis): word is one solution or None, and
    kernel_basis spans {w : w * A = 0}.  Both are read off the identity
    block carried by the Hermite form of [A | I].
    """
    m = len(rows)
    H, pivots = hnf([[*r, *(int(i == j) for j in range(m))] for i, r in enumerate(rows)], width)
    kernel = [tuple(H[i][width:]) for i in range(len(pivots), m)]
    # [target | 0] minus the pivot rows that clear it leaves [0 | -word]; a
    # residue left in a column of the echelon form means there is no word
    resid = [*map(int, target), *[0] * m]
    for i, c in enumerate(pivots):
        k = resid[c] // H[i][c]
        if k:
            resid = [a - k * b for a, b in zip(resid, H[i])]
    if any(resid[:width]):
        return None, kernel
    return tuple(-v for v in resid[width:]), kernel
