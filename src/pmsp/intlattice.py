"""Exact integer linear algebra: ranks, Hermite bases, small linear solves.

Everything here works over arbitrary-precision Python integers (Fractions for
the dense solve); no floating point.  Conventions: row-style Hermite normal
form with strictly increasing pivot columns, positive pivots, and entries
above each pivot reduced into [0, pivot).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def vector_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            break
    return g


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
            lead = next((i for i, x in enumerate(v) if x), None)
            if lead is None:
                return False
            row = self.rows.get(lead)
            if row is None:
                g = vector_gcd(v)
                if v[lead] < 0:
                    g = -g
                self.rows[lead] = [x // g for x in v]
                return True
            a, b = row[lead], v[lead]
            g = gcd(a, b)
            ca, cb = a // g, b // g
            v = [ca * y - cb * x for x, y in zip(row, v)]


def affine_rank(points, stop: int | None = None) -> int:
    """Affine dimension of a point set: -1 for empty, 0 for a single point.

    With `stop`, elimination ends as soon as the rank reaches it, so the
    result is min(rank, stop) for any stop >= 0.
    """
    it = iter(points)
    try:
        base = next(it)
    except StopIteration:
        return -1
    basis = IntRowBasis()
    if basis.rank == stop:
        return 0
    for p in it:
        if basis.add([x - y for x, y in zip(p, base)]) and basis.rank == stop:
            break
    return basis.rank


def hnf_rows(rows) -> tuple[list[tuple[int, ...]], list[int]]:
    """Hermite normal form of the row lattice; returns (basis rows, pivot columns)."""
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


def lattice_coordinates(basis, pivots, vector) -> list[int] | None:
    """Integer coordinates of `vector` in the Hermite basis, or None if outside."""
    v = list(vector)
    coords = []
    for row, p in zip(basis, pivots):
        q, r = divmod(v[p], row[p])
        if r:
            return None
        if q:
            v = [a - q * b for a, b in zip(v, row)]
        coords.append(q)
    if any(v):
        return None
    return coords


def solve_unique_rational(rows, rhs) -> tuple[Fraction, ...] | None:
    """Solve rows * x = rhs when the solution is unique; None otherwise.

    None covers both inconsistent and underdetermined systems.
    """
    s = len(rows)
    if s == 0:
        return None
    d = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(d):
        pr = next((i for i in range(r, s) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(s):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == s:
            break
    for i in range(r, s):
        if aug[i][d]:
            return None
    if len(pivots) < d:
        return None
    sol = [Fraction(0)] * d
    for i, c in enumerate(pivots):
        sol[c] = aug[i][d]
    return tuple(sol)


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


def primitivize(normal, rhs: int) -> tuple[tuple[int, ...], int]:
    """Divide an inequality by the gcd of its normal when the rhs divides too."""
    g = vector_gcd(normal)
    if g > 1 and rhs % g == 0:
        return tuple(x // g for x in normal), rhs // g
    return tuple(normal), rhs
