"""Exact integer linear algebra: ranks, lattice bases, small linear solves.

Everything here is exact; no floating point.  `affine_rank` ranks a stack
of point sets at once, by numpy elimination modulo one or two primes
(`rank_mod_p`), and screens the points of a large set against a kernel of
its first ones mod the same prime (`_rank_screened`).  A rank mod a prime
can only fall below the rank over Q, and only when a minor is a multiple
of the prime; Hadamard's bound on the minors of the stack says when
neither prime can divide one, so the rank is exact, and a stack past that
bound raises instead of falling back.
`hnf_rows` returns an echelon basis of the row lattice: strictly increasing
pivot columns and positive pivots; the entries above a pivot are not
reduced to a canonical range.  The linear solves run on arbitrary-precision
Python integers, and their solutions come out as Fractions.  Point lists
become integer arrays through `_point_matrix`: int64, or Python integers in
an object array when a value does not fit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

INT64_SAFE = 1 << 62  # bound on |values| for which int64 products are exact
MOD_P = (1 << 31) - 1  # a prime: products of two residues stay below 2^62
MOD_Q = 2147483629  # the next prime below MOD_P


def _point_matrix(points) -> np.ndarray:
    """Points as the rows of an int64 array, or of Python ints if one overflows."""
    try:
        return np.array(points, dtype=np.int64)
    except OverflowError:
        return np.array(points, dtype=object)


def _top(values: np.ndarray) -> int:
    """The largest absolute entry of an integer array, exactly; 0 if empty."""
    return max(int(values.max(initial=0)), -int(values.min(initial=0)))


def _eliminate(a: np.ndarray, prime: int, columns: int) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate the first `columns` columns of each matrix of an int64
    stack of residues mod `prime` (at most MOD_P), all matrices at once:
    (the rank of those columns per matrix, the stack of what is left of
    the other columns).

    One column is eliminated per round, without fractions: each matrix
    takes a row with a nonzero residue in the column as its pivot row,
    every row r becomes r * pivot - (r's entry) * pivot row, and the column
    is dropped.  The pivot row turns to zero and the pivot, nonzero mod a
    prime, scales rows invertibly, so the rank drops by one exactly when a
    pivot was found.  Residues lie in [0, prime), so every product is below
    2^62.
    """
    rank = np.zeros(len(a), dtype=np.int64)
    every = np.arange(len(a))
    for _ in range(columns):
        col = a[:, :, 0]
        found = col.any(axis=1)
        pivot_row = a[every, col.argmax(axis=1)]
        pivot = np.where(found, pivot_row[:, 0], 1)
        a = a[:, :, 1:] * pivot[:, None, None]
        a -= col[:, :, None] * pivot_row[:, None, 1:]
        a %= prime
        rank += found
    return rank, a


def rank_mod_p(stack: np.ndarray, prime: int = MOD_P) -> np.ndarray:
    """Rank modulo `prime` (at most MOD_P) of each matrix of an int64
    (count, rows, columns) stack, as an int64 vector, all matrices at once
    (`_eliminate` over every column)."""
    return _eliminate(stack % prime, prime, stack.shape[2])[0]


def _rank_screened(diffs: np.ndarray, head: int, top: int, prime: int) -> np.ndarray:
    """Rank modulo `prime` of each matrix of an int64 (count, rows, n) stack
    whose entries are at most `top` in absolute value.  A stack of more
    than `head` rows has its first `head` rows eliminated together with an
    identity (`_eliminate` on [lead^T | I]): the rows of I that were never
    pivots become a basis of the vectors the lead annihilates mod `prime`.
    A later row with a zero product against all of them lies in the span of
    the lead, so a matrix whose later rows all do has the rank of its lead;
    any other is eliminated in full.  The products are exact in int64
    while n * top * prime < 2^63; past that every row is eliminated."""
    count, rows, n = diffs.shape
    if rows <= head or n * top * prime >= 1 << 63:
        return rank_mod_p(diffs, prime)
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), (count, n, n))
    lead = diffs[:, :head].transpose(0, 2, 1) % prime
    rank, kernel = _eliminate(np.concatenate([lead, eye], axis=2), prime, head)
    kernel = kernel[:, kernel.any(axis=(0, 2))]  # the rows that are a kernel vector somewhere
    products = diffs[:, head:] @ kernel.transpose(0, 2, 1) % prime
    outside = np.flatnonzero(products.any(axis=(1, 2)))
    if outside.size:
        rank[outside] = rank_mod_p(diffs[outside], prime)
    return rank


def affine_rank(stack: np.ndarray, stop: int) -> np.ndarray:
    """min(affine rank, stop) of each point set of an int64 (count, m, n)
    stack of m >= 1 points each, as an int64 vector; stop >= 0.  A set
    padded by repeating one of its points keeps its affine rank.

    The rank is that of the differences from each set's first point, taken
    mod MOD_P and, where that falls short of r = min(stop, m - 1, n), also
    mod MOD_Q; past the first 2 (stop + 1) differences, the others are
    screened against those (`_rank_screened`).  A rank mod a prime never exceeds the rank over Q, and it
    reaches it when some minor of that size is nonzero mod the prime.  With
    B the largest absolute difference, an s x s minor is at most
    (B sqrt(s))^s in absolute value (Hadamard), and for s <= r at most
    (B sqrt(r))^r.  Below MOD_P no nonzero minor vanishes mod MOD_P, so one
    prime is exact; below MOD_P * MOD_Q none vanishes mod both primes, so
    the larger rank is exact.  Past that bound, and for points outside
    +-2^62 or in an object array, there is no exact answer here: ValueError.
    0/1 points have B = 1: one prime is exact up to r = 15, two up to 26.
    """
    count, m, n = stack.shape
    if stack.dtype == object or _top(stack) >= INT64_SAFE:
        raise ValueError("affine_rank needs int64 points within +-2^62")
    r = min(stop, m - 1, n)
    if r <= 0 or not count:
        return np.zeros(count, dtype=np.int64)
    diffs = stack[:, 1:] - stack[:, :1]
    top = _top(diffs)
    minors = (top * top * r) ** r  # the square of the Hadamard bound
    if minors >= (MOD_P * MOD_Q) ** 2:
        raise ValueError(f"minors of {r} rows with entries up to {top} may reach MOD_P * MOD_Q")
    head = 2 * (stop + 1)
    rank = _rank_screened(diffs, head, top, MOD_P)
    short = np.flatnonzero(rank < r)
    if minors >= MOD_P**2 and short.size:
        again = _rank_screened(diffs[short], head, top, MOD_Q)
        rank[short] = np.maximum(rank[short], again)
    return np.minimum(rank, stop)


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

