"""Exact integer linear algebra: ranks, lattice bases, small linear solves.

Everything here is exact; no floating point.  Elimination runs on
arbitrary-precision Python integers, and solutions come out as Fractions.
`affine_rank` reads the points as the rows of an integer array
(`_point_matrix`: int64, or Python integers in an object array when a value
does not fit) and screens large point sets against an integer kernel basis,
a chunk at a time, with numpy products: in int64 when no value can reach
INT64_SAFE, in Python integers otherwise.  `hnf_rows` returns an echelon
basis of the row lattice: strictly increasing pivot columns and positive
pivots; the entries above a pivot are not reduced to a canonical range.

`rank_mod_p` ranks a stack of int64 matrices at once, exactly, but over
the field of integers modulo the prime MOD_P rather than over Q.  It serves
as a one-sided certificate only: a minor that is nonzero mod MOD_P is a
nonzero integer, so the rank mod MOD_P never exceeds the rank over Q, and
one that reaches a known upper bound on the rank over Q proves that rank.
`affine_rank` stays the one exact rank over Q.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm

import numpy as np

INT64_SAFE = 1 << 62  # bound on |values| for which int64 products are exact
MOD_P = (1 << 31) - 1  # a prime: products of two residues stay below 2^62


def _point_matrix(points) -> np.ndarray:
    """Points as the rows of an int64 array, or of Python ints if one overflows."""
    try:
        return np.array(points, dtype=np.int64)
    except OverflowError:
        return np.array(points, dtype=object)


class IntRowBasis:
    """Incremental rank over Q via exact integer elimination.

    Stored rows are indexed by their leading column; adding a vector reduces
    it against the stored rows and reports whether the rank grew.
    """

    def __init__(self) -> None:
        self.rows: dict[int, list[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vector) -> bool:
        v = list(vector)
        while True:
            lead = next(compress(range(len(v)), v), None)
            if lead is None:
                return False
            row = self.rows.get(lead)
            if row is None:
                g = gcd(*v)
                if v[lead] < 0:
                    g = -g
                self.rows[lead] = [x // g for x in v]
                return True
            a, b = row[lead], v[lead]
            g = gcd(a, b)
            ca, cb = a // g, b // g
            v = [ca * y - cb * x for x, y in zip(row, v)]

    def kernel(self, n: int) -> list[list[int]]:
        """Integer basis of the vectors of length n orthogonal to every
        stored row: the stored rows are brought to reduced echelon form
        without fractions, then each free column gives one kernel vector."""
        leads = sorted(self.rows)
        rows = {c: self.rows[c] for c in leads}
        for i in range(len(leads) - 1, 0, -1):
            c = leads[i]
            low = rows[c]
            for above in leads[:i]:
                row = rows[above]
                if row[c]:
                    g = gcd(low[c], row[c])
                    ca, cb = low[c] // g, row[c] // g
                    row = [ca * x - cb * y for x, y in zip(row, low)]
                    g = gcd(*row)
                    rows[above] = [x // g for x in row]
        scale = lcm(*(rows[c][c] for c in leads))
        kernel = []
        for free in range(n):
            if free in rows:
                continue
            v = [0] * n
            v[free] = scale
            for c in leads:
                v[c] = -rows[c][free] * (scale // rows[c][c])
            g = gcd(*v)
            kernel.append([x // g for x in v])
        return kernel


def _outside_span(kernel: list[list[int]], points: np.ndarray, base) -> list[int]:
    """Indices of the rows p of `points` with a nonzero product of p - base
    against some kernel row, i.e. outside the affine span the kernel
    annihilates.  One numpy product, in int64 when no partial sum can reach
    INT64_SAFE and in Python integers (object arrays) otherwise."""
    width = len(base) * max(abs(x) for row in kernel for x in row)
    top = max(int(points.max()), -int(points.min()), *map(abs, base))
    dtype = np.int64 if 2 * top * width < INT64_SAFE else object
    diffs = points.astype(dtype) - np.array(base, dtype=dtype)
    products = diffs @ np.array(kernel, dtype=dtype).T
    return np.flatnonzero(products.any(axis=1)).tolist()


def affine_rank(points, stop: int | None = None) -> int:
    """Affine dimension of the rows of an integer array (any other point
    list goes through `_point_matrix`): -1 for none, 0 for a single point.

    With `stop`, elimination ends as soon as the rank reaches it, so the
    result is min(rank, stop) for any stop >= 0; stop defaults to the
    ambient dimension.  The first 2 * (stop + 1) points after the first are
    eliminated one by one.  Later points come in chunks, each twice the
    last, and are first screened against an integer kernel basis of the
    rows found so far: the row space is exactly the annihilator of that
    kernel over Q, so only differences with a nonzero kernel product can
    raise the rank, and only they are eliminated.
    """
    if not isinstance(points, np.ndarray):
        points = _point_matrix(points)
    if not len(points):
        return -1
    base = points[0].tolist()
    n = len(base)
    stop = n if stop is None else min(stop, n)
    if stop == 0:
        return 0
    basis = IntRowBasis()
    size = 2 * (stop + 1)
    for p in points[1 : size + 1].tolist():
        if basis.add([x - y for x, y in zip(p, base)]) and basis.rank == stop:
            return stop
    kernel = None
    start = size + 1
    while start < len(points):
        chunk = points[start : start + size]
        if kernel is None:
            kernel = basis.kernel(n)
        for i in _outside_span(kernel, chunk, base):
            if basis.add([x - y for x, y in zip(chunk[i].tolist(), base)]):
                if basis.rank == stop:
                    return stop
                kernel = None
        start += size
        size *= 2
    return basis.rank


def rank_mod_p(stack: np.ndarray) -> np.ndarray:
    """Rank modulo MOD_P of each matrix of an int64 (count, rows, columns)
    stack, as an int64 vector, all matrices at once.

    One column is eliminated per round, without fractions: each matrix
    takes a row with a nonzero residue in the column as its pivot row,
    every row r becomes r * pivot - (r's entry) * pivot row, and the column
    is dropped.  The pivot row turns to zero and the pivot, nonzero mod a
    prime, scales rows invertibly, so the rank drops by one exactly when a
    pivot was found.  Residues lie in [0, MOD_P), so every product is below
    2^62.
    """
    a = stack % MOD_P
    rank = np.zeros(len(a), dtype=np.int64)
    every = np.arange(len(a))
    for _ in range(a.shape[2]):
        col = a[:, :, 0]
        found = col.any(axis=1)
        pivot_row = a[every, col.argmax(axis=1)]
        pivot = np.where(found, pivot_row[:, 0], 1)
        a = (a[:, :, 1:] * pivot[:, None, None] - col[:, :, None] * pivot_row[:, None, 1:]) % MOD_P
        rank += found
    return rank


def hnf_rows(rows) -> tuple[list[tuple[int, ...]], list[int]]:
    """Echelon basis of the row lattice: (basis rows, pivot columns), the
    pivot columns strictly increasing and the pivots positive.  Rows are
    reduced against the later pivots from the last pivot up, and each step
    can move entries an earlier step reduced, so the entries above a pivot
    need not lie in [0, pivot)."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    basis: list[list[int]] = []
    pivots: list[int] = []
    for col in range(ncols):
        sel = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not sel:
            work = rest
            continue
        while len(sel) > 1:
            sel.sort(key=lambda r: abs(r[col]))
            base = sel[0]
            nxt = [base]
            for r in sel[1:]:
                q = r[col] // base[col]
                rr = [a - q * b for a, b in zip(r, base)]
                if rr[col]:
                    nxt.append(rr)
                elif any(rr):
                    rest.append(rr)
            sel = nxt
        row = sel[0]
        if row[col] < 0:
            row = [-a for a in row]
        basis.append(row)
        pivots.append(col)
        work = rest
    for i in range(len(basis) - 1, -1, -1):
        piv = basis[i][pivots[i]]
        for j in range(i):
            q = basis[j][pivots[i]] // piv
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return [tuple(r) for r in basis], pivots


def solve_unique_columns(rows, columns):
    """Solve rows * x = column for several right-hand sides with one
    fraction-free Gauss-Jordan elimination of [rows | columns].

    Returns None when rows has rank below its width, so that no right-hand
    side has a unique solution.  Otherwise returns (solutions, residues),
    one entry per column: the solution read off the pivots, which holds
    when the column is consistent, and the column's entries on the rows
    that reduced to zero.  Each row is only ever scaled by a nonzero
    integer, the same in every column, so a linear combination of the
    columns is consistent exactly when the same combination of their
    residues is zero, and its unique solution is then that combination of
    the solutions.
    """
    s = len(rows)
    if s == 0:
        return None
    d = len(rows[0])
    aug = [list(row) + [col[i] for col in columns] for i, row in enumerate(rows)]
    for c in range(d):
        pr = next((i for i in range(c, s) if aug[i][c]), None)
        if pr is None:
            return None
        aug[c], aug[pr] = aug[pr], aug[c]
        pivot = aug[c]
        for i in range(s):
            a = aug[i][c]
            if a and i != c:
                g = gcd(pivot[c], a)
                ca, cb = pivot[c] // g, a // g
                row = [ca * x - cb * y for x, y in zip(aug[i], pivot)]
                g = gcd(*row)
                aug[i] = [x // g for x in row] if g > 1 else row
    solutions = [
        tuple(Fraction(aug[i][j], aug[i][i]) for i in range(d))
        for j in range(d, d + len(columns))
    ]
    residues = [tuple(aug[i][j] for i in range(d, s)) for j in range(d, d + len(columns))]
    return solutions, residues


def solve_unique_rational(rows, rhs) -> tuple[Fraction, ...] | None:
    """Solve rows * x = rhs when the solution is unique; None otherwise.

    None covers both inconsistent and underdetermined systems.
    """
    solved = solve_unique_columns(rows, [rhs])
    if solved is None or any(solved[1][0]):
        return None
    return solved[0][0]


def as_integer_vector(solution) -> tuple[int, ...] | None:
    """Cast an exact rational solution to integers, or None if any denominator > 1."""
    if solution is None:
        return None
    out = []
    for x in solution:
        if x.denominator != 1:
            return None
        out.append(int(x))
    return tuple(out)

