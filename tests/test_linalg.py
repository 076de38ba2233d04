import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_gaussian, reference_det, reference_rank, reference_solve
from tansec.errors import DegenerateInputError, SingularMatrixError
from tansec.linalg import (
    RANK_EPS,
    chordal_distance,
    exact_det,
    exact_rank,
    exact_rank_result,
    exact_solve,
    numerical_rank,
    nullspace,
    orthonormal_rows,
    solve,
    stacked_rank,
    stacked_solve,
    subspace_intersection,
)
from tansec.poly import GaussianRational


def _contained_in_rowspan(v, rows, tol=1e-9):
    q = orthonormal_rows(rows)
    proj = q.T @ (q.conj() @ v)
    return np.linalg.norm(v - proj) <= tol * max(1.0, np.linalg.norm(v))


# -- solve ----------------------------------------------------------------------


def test_solve_identity():
    assert np.allclose(solve(np.eye(2), [3, 5]), [3, 5])


def test_solve_diagonal():
    assert np.allclose(solve(np.diag([2.0, 4.0]), [2, 8]), [1, 2])


def test_solve_rank_one_is_singular():
    with pytest.raises(SingularMatrixError):
        solve(np.array([[1.0, 1.0], [1.0, 1.0]]), [1, 0])


def test_solve_residual_bound_on_random_well_conditioned():
    rng = np.random.default_rng(314)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if np.linalg.cond(A) > 1e6:
            continue
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = solve(A, b)
        resid = np.linalg.norm(A @ x - b)
        assert resid <= 1e-10 * (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(b))


def test_solve_matrix_rhs():
    A = np.array([[2.0, 1.0], [0.0, 1.0]])
    B = np.eye(2)
    X = solve(A, B)
    assert np.allclose(A @ X, B)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_solve_rejects_non_finite_systems(bad):
    A, b = np.eye(2, dtype=complex), np.array([1.0, 0.0], dtype=complex)
    A_bad, b_bad = A.copy(), b.copy()
    A_bad[0, 1], b_bad[1] = bad, bad
    for A_s, b_s in ((A_bad, b), (A, b_bad), (A, np.column_stack([b, b_bad]))):
        with pytest.raises(SingularMatrixError):
            solve(A_s, b_s)


# -- stacked solve and rank ----------------------------------------------------------


def _solve_or_none(A, b):
    try:
        return solve(A, b)
    except SingularMatrixError:
        return None


def _assert_stacked_solve_is_solve(A, b) -> np.ndarray:
    """ok is "solve does not raise" on every slice, x matches solve there to
    1e-13 relative and is zero elsewhere; returns ok."""
    x, ok = stacked_solve(A, b)
    assert x.shape == np.shape(b) and ok.shape == (len(A),)
    for A_s, b_s, x_s, ok_s in zip(A, b, x, ok):
        expected = _solve_or_none(A_s, b_s)
        assert ok_s == (expected is not None)
        if expected is None:
            assert not x_s.any()
        else:
            assert np.abs(x_s - expected).max() <= 1e-13 * np.abs(expected).max()
    return ok


def _unitary(rng, k):
    q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return q


def _mixed_systems(rng, k):
    """Regular, exactly singular and (for k > 1) near-threshold k x k
    matrices, shuffled: the smallest singular value of the last two sits 0.1%
    above and below the rank threshold RANK_EPS * s_max * k."""
    stack = list(rng.normal(size=(5, k, k)) + 1j * rng.normal(size=(5, k, k)))
    stack.append(np.zeros((k, k), dtype=complex))
    if k > 1:
        u, v = rng.normal(size=(2, k, 1)) + 1j * rng.normal(size=(2, k, 1))
        stack.append(u @ v.conj().T)
        for factor in (1.001, 0.999):
            s = np.ones(k)
            s[-1] = RANK_EPS * k * factor
            stack.append(_unitary(rng, k) @ np.diag(s) @ _unitary(rng, k))
    order = rng.permutation(len(stack))
    return np.array([stack[i] for i in order])


def test_stacked_solve_matches_solve_on_each_slice():
    rng = np.random.default_rng(41)
    for k in (1, 2, 3, 5, 8):
        A = _mixed_systems(rng, k)
        b = rng.normal(size=(len(A), k)) + 1j * rng.normal(size=(len(A), k))
        ok = _assert_stacked_solve_is_solve(A, b)
        B = rng.normal(size=(len(A), k, 3)) + 1j * rng.normal(size=(len(A), k, 3))
        assert np.array_equal(_assert_stacked_solve_is_solve(A, B), ok)
        # the regular systems and the one just above the threshold
        assert ok.sum() == (5 if k == 1 else 6)


def _conditioned(rng, k, kappa):
    """A k x k matrix with singular values spaced geometrically from 1 down
    to 1 / kappa."""
    return _unitary(rng, k) @ np.diag(np.geomspace(1.0, 1.0 / kappa, k)) @ _unitary(rng, k)


def test_stacked_solve_verdicts_across_a_condition_sweep():
    # the LU guard clears the well-conditioned slices and hands the others
    # to the SVD; either way every slice's ok is solve's verdict, in one
    # stack that also holds exactly singular, rank-one and non-finite slices
    rng = np.random.default_rng(45)
    for k in (2, 4, 8):
        stack = [_conditioned(rng, k, kappa) for kappa in (1e2, 1e6, 1e8, 2e9, 3e9)]
        u, v = rng.normal(size=(2, k, 1)) + 1j * rng.normal(size=(2, k, 1))
        stack += [np.zeros((k, k)), u @ v.conj().T, np.full((k, k), np.nan), np.where(np.eye(k), np.inf, 1.0)]
        A = np.array([stack[i] for i in rng.permutation(len(stack))], dtype=complex)
        b = rng.normal(size=(len(A), k)) + 1j * rng.normal(size=(len(A), k))
        x, ok = stacked_solve(A, b)
        assert ok.tolist() == [_solve_or_none(a, c) is not None for a, c in zip(A, b)]
        # the threshold is a condition number of 1 / (RANK_EPS k): 5e9, 2.5e9, 1.25e9
        assert ok.sum() == {2: 5, 4: 4, 8: 3}[k]
        assert not x[~ok].any()


def test_stacked_solve_slices_do_not_depend_on_their_neighbours():
    # exactly singular slices make numpy's batched LU raise for the whole
    # stack, which is then solved slice by slice; every slice's x and ok,
    # regular, singular or on the SVD path, are bitwise its stack of one's
    rng = np.random.default_rng(46)
    k = 3
    A = rng.normal(size=(6, k, k)) + 1j * rng.normal(size=(6, k, k))
    A[2] = 0
    A[4] = 1  # an exactly zero pivot after one elimination step
    A[5] = _conditioned(rng, k, 1e8)
    b = rng.normal(size=(6, k)) + 1j * rng.normal(size=(6, k))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A, b[:, :, None])
    x, ok = stacked_solve(A, b)
    assert ok.tolist() == [True, True, False, True, False, True]
    for s in range(len(A)):
        x_s, ok_s = stacked_solve(A[s : s + 1], b[s : s + 1])
        assert ok_s[0] == ok[s] and np.array_equal(x_s[0], x[s])


def test_stacked_solve_applies_the_residual_bound_of_solve(monkeypatch):
    # with no residual allowed, only systems that solve exactly (scaled
    # permutations with power-of-two entries) pass the bound, in both solves
    from tansec import linalg

    monkeypatch.setattr(linalg, "RESIDUAL_EPS", 0.0)
    rng = np.random.default_rng(42)
    exact = [np.diag([2.0, 4.0, 0.5]), 2 * np.eye(3)[[2, 0, 1]], np.eye(3)]
    generic = list(rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3)))
    singular = [np.ones((3, 3))]
    A = np.array(exact + generic + singular, dtype=complex)
    b = np.tile(np.array([1.0, 2.0, 3.0]), (len(A), 1))
    ok = _assert_stacked_solve_is_solve(A, b)
    assert ok.tolist() == [True] * 3 + [False] * 4
    assert [numerical_rank(a).rank for a in A] == [3] * 6 + [1]


def test_stacked_solve_flags_exactly_the_non_finite_slices():
    # one NaN or infinity fails its own slice only, as solve raises on it,
    # next to a singular slice and regular ones
    rng = np.random.default_rng(44)
    A = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
    b = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    A[1, 0, 2], A[3, 1, 1], b[4, 0], b[5, 2] = np.nan, np.inf, complex(np.nan, 1), -np.inf
    A[6] = 0
    ok = _assert_stacked_solve_is_solve(A, b)
    assert ok.tolist() == [True, False, True, False, False, False, False]
    B = np.repeat(b[:, :, None], 2, axis=2)
    assert np.array_equal(_assert_stacked_solve_is_solve(A, B), ok)


def test_stacked_solve_empty_stacks():
    x, ok = stacked_solve(np.zeros((0, 2, 2)), np.zeros((0, 2)))
    assert x.shape == (0, 2) and ok.shape == (0,)
    x, ok = stacked_solve(np.zeros((2, 0, 0)), np.zeros((2, 0)))
    assert x.shape == (2, 0) and not ok.any()
    with pytest.raises(SingularMatrixError):
        solve(np.zeros((0, 0)), np.zeros(0))
    with pytest.raises(ValueError):
        stacked_solve(np.zeros((2, 2, 3)), np.zeros((2, 2)))


def test_stacked_rank_matches_numerical_rank_on_each_slice():
    rng = np.random.default_rng(43)
    for m, k in ((1, 1), (2, 2), (3, 5), (5, 3), (8, 8)):
        stack = []
        for r in range(min(m, k) + 1):
            for _ in range(3):
                left = rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))
                right = rng.normal(size=(r, k)) + 1j * rng.normal(size=(r, k))
                stack.append(left @ right)
        A = np.array(stack)
        ranks = stacked_rank(A)
        assert ranks.tolist() == [numerical_rank(a).rank for a in A]
        assert ranks.tolist() == [r for r in range(min(m, k) + 1) for _ in range(3)]
    assert stacked_rank(np.zeros((3, 0, 2))).tolist() == [0, 0, 0]
    assert stacked_rank(np.zeros((0, 2, 2))).shape == (0,)


# -- rank -----------------------------------------------------------------------


def test_rank_identity():
    r = numerical_rank(np.eye(3))
    assert r.rank == 3
    assert len(r.values) == 3


def test_rank_proportional_rows():
    assert numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]])).rank == 1


def test_rank_empty_matrix():
    assert numerical_rank(np.zeros((0, 4))).rank == 0


def test_rank_constructed_deficiency_verified_exactly():
    # construct a 5x5 integer matrix whose row 4 = row 0 + row 2, then verify
    # the float rank against the exact-path rank
    rng = random.Random(99)
    for _ in range(10):
        rows = [[rng.randint(-50, 50) for _ in range(5)] for _ in range(4)]
        rows.append([rows[0][j] + rows[2][j] for j in range(5)])
        expected = exact_rank(rows)
        got = numerical_rank(np.array(rows, dtype=float)).rank
        assert got == expected
        assert expected <= 4


def test_exact_and_float_rank_agree_on_random_integer_matrices():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        rows = [[rng.randint(-100, 100) for _ in range(n)] for _ in range(m)]
        assert exact_rank(rows) == numerical_rank(np.array(rows, dtype=float)).rank


# -- subspace intersection --------------------------------------------------------


def test_intersection_coordinate_planes():
    e = np.eye(3, dtype=complex)
    U = e[[0, 1]]
    W = e[[1, 2]]
    X = subspace_intersection(U, W)
    assert X.shape == (1, 3)
    assert chordal_distance(X[0], e[1]) < 1e-10


def test_intersection_equal_subspaces():
    rng = np.random.default_rng(5)
    U = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    X = subspace_intersection(U, U.copy())
    assert X.shape == (2, 4)
    for row in X:
        assert _contained_in_rowspan(row, U)


def test_intersection_generic_three_planes_in_c5():
    # two 3-dim subspaces of C^5 spanning C^5 meet in one dimension;
    # containment is the oracle
    rng = np.random.default_rng(21)
    for _ in range(10):
        U = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        W = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        if numerical_rank(np.vstack([U, W])).rank < 5:
            continue
        X = subspace_intersection(U, W)
        assert X.shape == (1, 5)
        assert _contained_in_rowspan(X[0], U)
        assert _contained_in_rowspan(X[0], W)


def test_intersection_dimension_formula():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = int(rng.integers(3, 7))
        a = int(rng.integers(1, d))
        b = int(rng.integers(1, d))
        U = rng.normal(size=(a, d)) + 1j * rng.normal(size=(a, d))
        W = rng.normal(size=(b, d)) + 1j * rng.normal(size=(b, d))
        X = subspace_intersection(U, W)
        dim_sum = numerical_rank(np.vstack([U, W])).rank
        assert X.shape[0] == a + b - dim_sum


def test_intersection_rejects_dependent_rows():
    U = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    W = np.eye(3)[:2]
    with pytest.raises(DegenerateInputError):
        subspace_intersection(U, W)


# -- chordal metric ---------------------------------------------------------------


def test_chordal_scale_invariance_and_range():
    x = np.array([1.0, 2.0, 3.0j])
    assert chordal_distance(x, 5j * x) < 1e-12
    y = np.array([0.0, 0.0, 1.0])
    d = chordal_distance(np.array([1.0, 0, 0]), y)
    assert d == pytest.approx(1.0)
    with pytest.raises(ValueError):
        chordal_distance(np.zeros(3), y)


# -- exact path --------------------------------------------------------------------


def test_exact_solve_round_trip():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if exact_rank(rows) < n:
            continue
        rhs = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        x = exact_solve(rows, rhs)
        for i in range(n):
            acc = GaussianRational(0)
            for j in range(n):
                acc = acc + GaussianRational.coerce(rows[i][j]) * x[j]
            assert acc == GaussianRational.coerce(rhs[i])


def test_exact_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        exact_solve([[1, 1], [1, 1]], [1, 0])


def test_exact_det_leibniz_oracle():
    rng = random.Random(23)
    from itertools import permutations

    for _ in range(10):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        expected = GaussianRational(0)
        for perm in permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = GaussianRational(sign)
            for i in range(n):
                term = term * GaussianRational.coerce(rows[i][perm[i]])
            expected = expected + term
        assert exact_det(rows) == expected


def test_exact_elimination_skips_a_zero_column():
    assert exact_rank([[0, 1], [0, 2]]) == 1
    assert exact_rank_result([[0, 1], [0, 2]]).rank == 1
    assert exact_det([[0, 1], [0, 2]]) == GaussianRational(0)


def test_exact_det_sign_of_a_row_swap():
    assert exact_det([[0, 1], [1, 0]]) == GaussianRational(-1)
    assert exact_det([[0, 2, 0], [0, 0, 3], [5, 0, 0]]) == GaussianRational(30)


def test_exact_solve_with_zero_leading_entry():
    # x2 = 1 and 2 x1 + 3 x2 = 5
    assert exact_solve([[0, 1], [2, 3]], [1, 5]) == [GaussianRational(1), GaussianRational(1)]


def test_exact_det_gaussian_entries():
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    # det [[i, 1], [1, i]] = i*i - 1 = -2
    assert exact_det([[i, one], [one, i]]) == GaussianRational(-2)


# -- fraction-free kernel against the Gaussian-rational reference --------------------


def _random_exact_matrix(rng, m, n, zero_prob=0.0):
    """Complex entries with mixed denominators, each zero with probability
    zero_prob."""
    return [
        [GaussianRational(0) if rng.random() < zero_prob else random_gaussian(rng, bound=9, imag_prob=0.5) for _ in range(n)]
        for _ in range(m)
    ]


def test_exact_kernel_matches_reference_on_random_matrices():
    rng = random.Random(2024)
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_exact_matrix(rng, m, n, zero_prob=rng.choice([0.0, 0.3, 0.6]))
        assert exact_rank(rows) == reference_rank(rows)
        assert exact_rank_result(rows).rank == reference_rank(rows)
        if m == n:
            assert exact_det(rows) == reference_det(rows)


def test_exact_kernel_on_zero_columns_and_rank_deficiency():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(2, 6)
        rows = _random_exact_matrix(rng, m, n)
        zero_col = rng.randrange(n)
        for row in rows:
            row[zero_col] = GaussianRational(0)
        # a row that is a Gaussian-rational combination of two others
        a, b = random_gaussian(rng, imag_prob=0.5), random_gaussian(rng, imag_prob=0.5)
        i, j = rng.randrange(m), rng.randrange(m)
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        assert exact_rank(rows) == exact_rank_result(rows).rank == reference_rank(rows)
        assert reference_rank(rows) <= min(m, n - 1)
        if m + 1 == n:
            assert exact_det(rows) == reference_det(rows) == GaussianRational(0)
        without_zero_col = [row[:zero_col] + row[zero_col + 1 :] for row in rows]
        assert exact_rank(without_zero_col) == exact_rank(rows)


def test_exact_kernel_on_one_by_one_and_empty():
    for x in (0, 3, Fraction(-2, 7), GaussianRational(Fraction(1, 2), Fraction(-5, 3))):
        x = GaussianRational.coerce(x)
        assert exact_rank([[x]]) == (1 if x else 0)
        assert exact_det([[x]]) == x
    assert exact_rank([]) == 0
    assert exact_rank([[]]) == 0
    assert exact_rank_result([]).rank == 0
    assert exact_det([]) == GaussianRational(1)


def test_exact_det_sign_after_random_row_swaps():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(2, 6)
        rows = _random_exact_matrix(rng, n, n)
        perm = list(range(n))
        rng.shuffle(perm)
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        swapped = [rows[p] for p in perm]
        expected = reference_det(rows) * (-1 if inversions % 2 else 1)
        assert exact_det(swapped) == reference_det(swapped) == expected
        # a zero leading column block forces swaps inside the kernel itself
        shifted = [[GaussianRational(0)] + row[:-1] for row in swapped[1:]] + [swapped[0]]
        assert exact_det(shifted) == reference_det(shifted)


def test_exact_solve_complex_round_trip_against_reference():
    rng = random.Random(31)
    solved = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = _random_exact_matrix(rng, n, n, zero_prob=0.2)
        rhs = [random_gaussian(rng, imag_prob=0.5) for _ in range(n)]
        if reference_rank(rows) < n:
            with pytest.raises(SingularMatrixError):
                exact_solve(rows, rhs)
            continue
        x = exact_solve(rows, rhs)
        for i in range(n):
            acc = GaussianRational(0)
            for j in range(n):
                acc = acc + rows[i][j] * x[j]
            assert acc == rhs[i]
        assert x == reference_solve(rows, rhs)
        solved += 1
    assert solved >= 20


def test_nullspace_annihilates():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(2, 5))
    N = nullspace(A)
    assert N.shape == (5, 3)
    assert np.linalg.norm(A @ N) < 1e-10
