"""Per-point reference routines in pure Python.

The package reduces, tests and enumerates whole point sets at once with
numpy (`_lattice_reduce`, `_lattice_codes`, `_row_values`,
`dilate_checks`).  These one-point-at-a-time versions are what the tests
compare those array routines against.
"""

from __future__ import annotations


def dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


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


def coordinates(lat, point) -> tuple[int, ...] | None:
    """Coordinates of `point` in the affine lattice `lat`, or None if outside."""
    diff = [x - o for x, o in zip(point, lat.origin)]
    coords = lattice_coordinates(lat.basis, lat.pivots, diff)
    return None if coords is None else tuple(coords)


def contains(lat, point) -> bool:
    return coordinates(lat, point) is not None


def membership(rows, point, k: int = 1) -> bool:
    """Whether a point satisfies every inequality of the k-th dilate."""
    return all(dot(row.normal, point) <= k * row.rhs for row in rows)
