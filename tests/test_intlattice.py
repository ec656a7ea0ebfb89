"""Exact integer linear algebra against sympy and numpy oracles."""

from fractions import Fraction

import numpy as np
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form

from pmsp.intlattice import (
    IntRowBasis,
    affine_rank,
    as_integer_vector,
    dot,
    hnf_rows,
    lattice_coordinates,
    primitivize,
    solve_unique_rational,
    vector_gcd,
)

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

    def test_vector_gcd(self):
        assert vector_gcd((4, -6, 8)) == 2
        assert vector_gcd((0, 0)) == 0

    def test_primitivize(self):
        assert primitivize((2, 4), 6) == ((1, 2), 3)
        # gcd 2 does not divide rhs 3, so the row stays as is
        assert primitivize((2, 4), 3) == ((2, 4), 3)


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

    def test_stop_ends_elimination(self):
        seen = []

        def points():
            for p in [(0, 0), (1, 0), (0, 1), (1, 1)]:
                seen.append(p)
                yield p

        assert affine_rank(points(), 1) == 1
        assert seen == [(0, 0), (1, 0)]

    @given(small_mat, st.integers(min_value=0, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_stop_is_min_of_rank(self, rows, stop):
        assert affine_rank(rows, stop) == min(affine_rank(rows), stop)


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

    def test_pivot_reduction(self):
        basis, pivots = hnf_rows([(2, 1), (0, 3)])
        # entries above each pivot lie in [0, pivot)
        for j, col in enumerate(pivots):
            for i in range(j):
                assert 0 <= basis[i][col] < basis[j][col]

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
