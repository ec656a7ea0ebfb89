"""Exact integer linear algebra against sympy and numpy oracles."""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form

from pmsp import intlattice
from pmsp.intlattice import (
    MOD_P,
    MOD_Q,
    as_integer_vector,
    hnf_rows,
    rank_mod_p,
    solve_unique_columns,
    solve_unique_rational,
)

from . import reference
from .reference import IntRowBasis, affine_rank, dot, lattice_coordinates

small_vec = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5)
small_mat = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=d, max_size=d),
        min_size=1,
        max_size=5,
    )
)


class TestBasics:
    def test_dot(self):
        assert dot((1, 2, 3), (4, 5, 6)) == 32



class TestRowBasis:
    def test_rank_of_identity(self):
        basis = IntRowBasis()
        assert basis.add((1, 0, 0))
        assert basis.add((0, 2, 0))
        assert not basis.add((3, 4, 0))
        assert basis.rank == 2

    @settings(max_examples=100)
    @given(small_mat)
    def test_rank_matches_numpy(self, rows):
        basis = IntRowBasis()
        for row in rows:
            basis.add(tuple(row))
        expected = np.linalg.matrix_rank(np.array(rows, dtype=float))
        assert basis.rank == expected


class TestAffineRank:
    def test_degenerate_cases(self):
        assert affine_rank([]) == -1
        assert affine_rank([(5, 7)]) == 0

    def test_triangle(self):
        assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2

    def test_collinear(self):
        assert affine_rank([(0, 0), (1, 1), (2, 2)]) == 1

    def test_stop_caps_the_rank(self):
        cube = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        assert [affine_rank(cube, stop) for stop in range(5)] == [0, 1, 2, 3, 3]
        assert affine_rank([(5, 7)], 0) == 0
        assert affine_rank([], 2) == -1

    def test_stop_ends_elimination(self, monkeypatch):
        added = []
        original = IntRowBasis.add

        def counting(self, vector):
            added.append(vector)
            return original(self, vector)

        monkeypatch.setattr(IntRowBasis, "add", counting)
        assert affine_rank([(0, 0), (1, 0), (0, 1), (1, 1)], 1) == 1
        assert added == [[1, 0]]  # only the second point is eliminated

    @given(small_mat, st.integers(min_value=0, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_stop_is_min_of_rank(self, rows, stop):
        assert affine_rank(rows, stop) == min(affine_rank(rows), stop)


class TestRankModP:
    @settings(max_examples=100)
    @given(st.lists(small_mat, min_size=1, max_size=4))
    def test_matches_sympy_rank_on_small_entries(self, mats):
        """Minors of these matrices are far below MOD_P, so the ranks agree;
        matrices of one shape are ranked together in one stack."""
        for shape in {(len(m), len(m[0])) for m in mats}:
            same = [m for m in mats if (len(m), len(m[0])) == shape]
            expected = [sympy.Matrix(m).rank() for m in same]
            assert rank_mod_p(np.array(same, dtype=np.int64)).tolist() == expected

    def test_rank_below_the_rank_over_q(self):
        """(MOD_P, 1) and (0, 1) span Q^2 but agree mod MOD_P."""
        rows = [(MOD_P, 1), (0, 1)]
        assert rank_mod_p(np.array([rows, [(0, 0), (0, 0)]])).tolist() == [1, 0]
        assert affine_rank([(0, 0), *rows]) == 2

    def test_negative_and_large_residues(self):
        big = MOD_P - 1
        stack = np.array([[(big, big), (big, 1)], [(-1, -1), (-1, 1)], [(-2, 4), (1, -2)]])
        assert rank_mod_p(stack).tolist() == [2, 2, 1]

    def test_second_prime(self):
        """(MOD_Q, 1) and (0, 1) agree mod MOD_Q but not mod MOD_P."""
        stack = np.array([[(MOD_Q, 1), (0, 1)], [(MOD_P, 1), (0, 1)]])
        assert rank_mod_p(stack, MOD_Q).tolist() == [1, 2]
        assert rank_mod_p(stack).tolist() == [2, 1]


@st.composite
def sign_stacks(draw):
    """(stack, stop, ranks): point sets whose differences from their first
    point are {-1, 0, 1} matrices of up to 20 x 20, their rows drawn from a
    pool of random size so that every rank occurs, and min(sympy's rank of
    each difference matrix, stop)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    count = draw(st.integers(min_value=1, max_value=3))
    m, n = int(rng.integers(0, 21)), int(rng.integers(1, 21))
    pool = int(rng.integers(1, m + 2))
    rows = rng.integers(-1, 2, (count, pool, n))
    diffs = rows[np.arange(count)[:, None], rng.integers(0, pool, (count, m))]
    diffs *= rng.choice([-1, 1], (count, m, 1))
    offset = rng.integers(-9, 10, (count, 1, n))
    stack = np.concatenate([np.zeros((count, 1, n), dtype=np.int64), diffs], axis=1) + offset
    stop = draw(st.sampled_from(range(22)))
    return stack, stop, [min(sympy.Matrix(d.tolist()).rank(), stop) if m else 0 for d in diffs]


class TestStackedAffineRank:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(sign_stacks())
    def test_matches_sympy_rank(self, case):
        """min(rank over Q of the differences, stop), as sympy finds it, for
        every set: one prime is exact up to rank 15, two up to rank 20."""
        stack, stop, expected = case
        assert intlattice.affine_rank(stack, stop).tolist() == expected

    def test_ranks_past_one_prime(self):
        """Random {-1, 0, 1} differences of 16 to 20 rows: past 15 rows their
        minors may reach MOD_P, so the bound asks for both primes."""
        rng = np.random.default_rng(0)
        for size in range(16, 21):
            diffs = rng.integers(-1, 2, (2, size, 20))
            stack = np.concatenate([np.zeros((2, 1, 20), dtype=np.int64), diffs], axis=1)
            expected = [sympy.Matrix(d.tolist()).rank() for d in diffs]
            assert intlattice.affine_rank(stack, 20).tolist() == expected
            assert intlattice.affine_rank(stack, size - 1).tolist() == [size - 1] * 2

    def test_tall_sets_are_screened(self, monkeypatch):
        """Past the first 2 (stop + 1) differences, points are screened
        against a kernel of those: only a set with a point outside their
        span is eliminated in full."""
        eliminated = []

        def recording(stack, prime=MOD_P):
            eliminated.append(stack.shape)
            return rank_mod_p(stack, prime)

        monkeypatch.setattr(intlattice, "rank_mod_p", recording)
        line = [(i, i, 0) for i in range(200)]
        stack = np.array([line + [(0, 0, 1)], line + [(7, 7, 0)]])
        assert intlattice.affine_rank(stack, 2).tolist() == [2, 1]
        assert eliminated == [(1, 200, 3)]

    def test_padding_by_a_repeated_point(self):
        triangle = [(0, 0), (1, 0), (0, 1)]
        stack = np.array([triangle, triangle[:2] + triangle[1:2], [(5, 7)] * 3])
        assert intlattice.affine_rank(stack, 2).tolist() == [2, 1, 0]
        assert intlattice.affine_rank(stack, 1).tolist() == [1, 1, 0]
        assert intlattice.affine_rank(stack[:, :1], 2).tolist() == [0, 0, 0]
        assert intlattice.affine_rank(stack[:0], 2).tolist() == []

    def test_one_prime_below_the_rank_over_q(self, monkeypatch):
        """The difference determinant of these points is 46341^2 - 2 * 2317
        = MOD_P exactly: rank 1 mod MOD_P, 2 over Q.  Entries up to 46341 put
        the minors past MOD_P, so the second prime is asked too."""
        points = [(0, 0), (46341, 2), (2317, 46341)]
        assert 46341 * 46341 - 2 * 2317 == MOD_P
        assert rank_mod_p(np.array([[(46341, 2), (2317, 46341)]])).tolist() == [1]
        assert affine_rank(points) == 2
        primes = []

        def recording(stack, prime=MOD_P):
            primes.append(prime)
            return rank_mod_p(stack, prime)

        monkeypatch.setattr(intlattice, "rank_mod_p", recording)
        assert intlattice.affine_rank(np.array([points]), 2).tolist() == [2]
        assert primes == [MOD_P, MOD_Q]

    def test_one_prime_within_its_bound(self, monkeypatch):
        """0/1 points of rank up to 15 need one prime: 15^15 < MOD_P^2."""
        primes = []

        def recording(stack, prime=MOD_P):
            primes.append(prime)
            return rank_mod_p(stack, prime)

        monkeypatch.setattr(intlattice, "rank_mod_p", recording)
        cube = np.vstack([np.zeros((1, 15), dtype=np.int64), np.eye(15, dtype=np.int64)])
        assert intlattice.affine_rank(cube[None, :15], 15).tolist() == [14]
        assert intlattice.affine_rank(cube[None], 15).tolist() == [15]
        assert primes == [MOD_P, MOD_P]

    def test_past_the_bound_raises(self):
        """Minors of 2 rows with entries up to MOD_P may reach MOD_P * MOD_Q:
        no prime pair certifies them, and there is no fallback."""
        plane = np.array([[(0, 0, 0), (MOD_P, 0, 0), (0, 1, 0)]])
        with pytest.raises(ValueError, match="MOD_P"):
            intlattice.affine_rank(plane, 2)
        # the bound counts only the rows the stop lets matter
        assert intlattice.affine_rank(plane, 1).tolist() == [1]
        # 0/1 points of rank 27: 27^27 > (MOD_P * MOD_Q)^2
        cube = np.vstack([np.zeros((1, 27), dtype=np.int64), np.eye(27, dtype=np.int64)])
        assert intlattice.affine_rank(cube[None], 26).tolist() == [26]
        with pytest.raises(ValueError):
            intlattice.affine_rank(cube[None], 27)

    def test_object_and_oversized_points_raise(self):
        with pytest.raises(ValueError):
            intlattice.affine_rank(np.array([[(0, 0), (1, 1 << 70)]], dtype=object), 1)
        with pytest.raises(ValueError):
            intlattice.affine_rank(np.array([[(0, 0), (1, 1 << 62)]]), 1)


class TestHnf:
    @settings(max_examples=100)
    @given(small_mat)
    def test_matches_sympy_hnf(self, rows):
        mat = sympy.Matrix(rows)
        if mat.rank() < len(rows[0]):
            # sympy's hermite_normal_form requires full column rank; compare
            # only the row-space instead
            ours, _ = hnf_rows([tuple(r) for r in rows])
            span_ours = sympy.Matrix(ours).rank() if ours else 0
            assert span_ours == mat.rank()
            return
        theirs = hermite_normal_form(mat.T).T
        ours, _ = hnf_rows([tuple(r) for r in rows])
        # both bases generate the same row lattice: mutual membership
        ours_mat = sympy.Matrix(ours)
        for i in range(theirs.rows):
            sol = ours_mat.T.solve(theirs[i, :].T) if ours else None
            assert sol is not None and all(x.is_integer for x in sol)

    @settings(max_examples=200)
    @given(small_mat)
    def test_pivot_reduction(self, rows):
        basis, pivots = hnf_rows([tuple(r) for r in rows])
        assert pivots == sorted(set(pivots))
        for j, col in enumerate(pivots):
            assert basis[j][col] > 0 and not any(basis[j][:col])
            for i in range(j):
                assert 0 <= basis[i][col] < basis[j][col]
        assert hnf_rows([(1, 1, 0), (0, 1, 1), (1, 0, 1)]) == (
            [(1, 0, 1), (0, 1, 1), (0, 0, 2)],
            [0, 1, 2],
        )

    def test_lattice_membership(self):
        basis, pivots = hnf_rows([(2, 0), (0, 2)])
        assert lattice_coordinates(basis, pivots, (4, -2)) == [2, -1]
        assert lattice_coordinates(basis, pivots, (1, 0)) is None

    @settings(max_examples=100)
    @given(small_mat, st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5))
    def test_integer_combinations_are_members(self, rows, coeffs):
        basis, pivots = hnf_rows([tuple(r) for r in rows])
        if not basis:
            return
        d = len(rows[0])
        vec = tuple(
            sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(d)
        )
        assert lattice_coordinates(basis, pivots, vec) is not None


class TestSolve:
    def test_unique_solution(self):
        sol = solve_unique_rational([(1, 1), (1, -1)], [3, 1])
        assert sol == (Fraction(2), Fraction(1))

    def test_inconsistent(self):
        assert solve_unique_rational([(1, 1), (2, 2)], [1, 3]) is None

    def test_underdetermined(self):
        assert solve_unique_rational([(1, 1)], [1]) is None

    def test_as_integer_vector(self):
        assert as_integer_vector((Fraction(2), Fraction(3))) == (2, 3)
        assert as_integer_vector((Fraction(1, 2),)) is None

    @settings(max_examples=100)
    @given(small_mat)
    def test_matches_sympy_solve(self, rows):
        d = len(rows[0])
        rhs = [sum(r) for r in rows]  # ensures consistency: x = all-ones works
        sol = solve_unique_rational([tuple(r) for r in rows], rhs)
        rank = sympy.Matrix(rows).rank()
        if rank < d:
            assert sol is None
        else:
            assert sol == tuple(Fraction(1) for _ in range(d))


def _sympy_unique(rows, rhs):
    """Independent oracle: the unique solution by sympy, or None."""
    try:
        sol, params = sympy.Matrix(rows).gauss_jordan_solve(sympy.Matrix(rhs))
    except ValueError:
        return None
    if params.shape[0]:
        return None
    return tuple(Fraction(int(x.p), int(x.q)) for x in sol)


def _solve_at(solved, t):
    """The solution of rows * x = t * b - c read off one elimination of
    [rows | b | c], as the geometric Gorenstein search reads it."""
    if solved is None:
        return None
    (u, w), (ru, rw) = solved
    if any(t * x != y for x, y in zip(ru, rw)):
        return None
    return tuple(t * x - y for x, y in zip(u, w))


@st.composite
def indexed_systems(draw):
    """(rows, b, c) with rows * x = t * b - c consistent for every t, for
    one t only (b and c carry an extra vector e), or for none."""
    d = draw(st.integers(min_value=1, max_value=4))
    s = draw(st.integers(min_value=1, max_value=d + 3))
    entry = st.integers(min_value=-6, max_value=6)
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=s, max_size=s))
    x0, x1 = (draw(st.lists(entry, min_size=d, max_size=d)) for _ in range(2))
    e = draw(st.lists(entry, min_size=s, max_size=s))
    t0 = draw(st.integers(min_value=0, max_value=6))
    kind = draw(st.sampled_from(["all", "one", "none", "free"]))
    b = [dot(r, x1) for r in rows]
    c = [dot(r, x0) for r in rows]
    if kind == "one":
        b = [x + y for x, y in zip(b, e)]
        c = [x + t0 * y for x, y in zip(c, e)]
    elif kind == "none":
        c = [x + y for x, y in zip(c, e)]
    elif kind == "free":
        b = draw(st.lists(entry, min_size=s, max_size=s))
        c = draw(st.lists(entry, min_size=s, max_size=s))
    return rows, b, c


class TestSolveColumns:
    @settings(max_examples=300, deadline=None)
    @given(indexed_systems())
    def test_one_elimination_matches_each_index(self, system):
        rows, b, c = system
        solved = solve_unique_columns(rows, [b, c])
        for t in range(-2, 9):
            rhs = [t * x - y for x, y in zip(b, c)]
            expected = solve_unique_rational(rows, rhs)
            assert _solve_at(solved, t) == expected
            assert expected == _sympy_unique(rows, rhs)

    def test_consistent_for_one_index_only(self):
        # x = 2, y = t - 1 from the first two rows; the third row
        # x + y = 2t - 3 holds only at t = 4
        rows = [(1, 0), (0, 1), (1, 1)]
        solved = solve_unique_columns(rows, [[0, 1, 2], [-2, 1, 3]])
        found = {t: _solve_at(solved, t) for t in range(6)}
        assert found == {0: None, 1: None, 2: None, 3: None, 4: (2, 3), 5: None}

    def test_underdetermined_and_empty(self):
        assert solve_unique_columns([(1, 1), (2, 2)], [[1, 2], [0, 0]]) is None
        assert solve_unique_columns([], [[], []]) is None

    def test_inconsistent_for_every_index(self):
        solved = solve_unique_columns([(1,), (1,)], [[1, 1], [0, 1]])
        assert all(_solve_at(solved, t) is None for t in range(-3, 4))

    def test_fractional_solution(self):
        (sol,), (res,) = solve_unique_columns([(2, 0), (0, 3), (2, 3)], [[1, 1, 2]])
        assert sol == (Fraction(1, 2), Fraction(1, 3)) and res == (0,)


def _full_rank(points):
    """Affine rank by eliminating every difference, with no stop or screen."""
    if not points:
        return -1
    basis = IntRowBasis()
    for p in points[1:]:
        basis.add([x - y for x, y in zip(p, points[0])])
    return basis.rank


@st.composite
def low_rank_clouds(draw):
    """Many integer points in a low-dimensional affine subspace, optionally
    followed by points off it, so the first 2 * (stop + 1) points rarely
    reach the rank."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-4, max_value=4)
    k = draw(st.integers(min_value=0, max_value=n))
    gens = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    base = draw(st.lists(entry, min_size=n, max_size=n))
    coeffs = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=1, max_size=40))
    points = [
        tuple(b + sum(c * g[i] for c, g in zip(cs, gens)) for i, b in enumerate(base))
        for cs in coeffs
    ]
    extra = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=2))
    points += [tuple(p) for p in extra]
    return points


class TestCertifiedAffineRank:
    @settings(max_examples=300, deadline=None)
    @given(low_rank_clouds(), st.integers(min_value=0, max_value=7))
    def test_matches_full_elimination(self, points, stop):
        full = _full_rank(points)
        assert affine_rank(points) == full
        assert affine_rank(points, stop) == min(full, stop)

    def test_rank_raising_point_after_the_prefix(self):
        line = [(i, 2 * i, 0, 0, 1) for i in range(40)]
        points = line + [(0, 0, 1, 0, 1)]
        assert _full_rank(points) == 2
        assert [affine_rank(points, stop) for stop in range(5)] == [0, 1, 2, 2, 2]
        assert affine_rank(points) == 2
        assert affine_rank(line + [(3, 6, 0, 0, 1)]) == 1

    def test_screen_skips_points_in_the_span(self, monkeypatch):
        added = []
        original = IntRowBasis.add

        def counting(self, vector):
            added.append(vector)
            return original(self, vector)

        monkeypatch.setattr(IntRowBasis, "add", counting)
        points = [(i, i, 0) for i in range(200)] + [(0, 0, 1)]
        assert affine_rank(points, 2) == 2
        # the 2 * (2 + 1) prefix points, then only the point off the line
        assert len(added) == 7

    def test_small_sets_stay_in_python(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("screened a set no longer than its prefix")

        monkeypatch.setattr(reference, "_outside_span", refuse)
        points = [(i, i, 0, 0) for i in range(9)]
        assert affine_rank(points, 3) == 1  # 1 base point + 2 * (3 + 1)

    def test_oversized_coordinates_use_python_ints(self):
        huge = 1 << 70
        points = [(0, 0, 0)] + [(i * huge, 0, i) for i in range(1, 12)] + [(0, 1, 0)]
        assert affine_rank(points) == _full_rank(points) == 2
        # products of 2^40 * 2^24 = 2^64 wrap to 0 in int64, which would
        # wrongly place the last point in the span of the first ones
        points = [(0, 0)] + [(k, k << 40) for k in range(1, 8)] + [(1 << 24, 0)]
        assert affine_rank(points) == _full_rank(points) == 2

    @settings(max_examples=100)
    @given(small_mat)
    def test_kernel_is_the_orthogonal_complement(self, rows):
        basis = IntRowBasis()
        for row in rows:
            basis.add(tuple(row))
        n = len(rows[0])
        kernel = basis.kernel(n)
        assert len(kernel) == n - basis.rank
        assert all(dot(k, r) == 0 for k in kernel for r in rows)
        if kernel:
            assert sympy.Matrix(kernel).rank() == len(kernel)
