"""Dense linear algebra on two paths.

Float path: complex numpy arrays.  Rank, nullspace and ``solve`` are
SVD-backed; rank tolerances are relative to the largest singular value
because projective data has no natural scale.  ``stacked_rank`` and
``stacked_solve`` apply the same threshold and residual bound to every
matrix of an (S, m, k) stack at once; ``stacked_solve`` solves by one
batched LU and keeps the SVD for the slices whose condition bound
||A||_F ||A^-1||_F does not clear the threshold by far.

Exact path: every row of Gaussian rationals is scaled once by the lcm of
its denominators (``poly.gaussian_integer_rows``), and one fraction-free (Bareiss) elimination with row swaps
runs over the Gaussian integers, as pairs of Python ints with exact division
by the previous pivot (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968).  It serves
rank, determinant and solve; determinants are divided by the row scales at
the end.  The exact path cross-checks the float path and makes the symbolic
fullness tests deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, SingularMatrixError
from .poly import GaussianRational, gaussian_integer_rows

RANK_EPS = 1e-10
# relative residual a solve may leave: ||Ax - b|| <= RESIDUAL_EPS (||A|| ||x|| + ||b||)
RESIDUAL_EPS = 1e-10
# ``stacked_solve`` keeps a slice's LU verdict when the condition bound
# ||A||_F ||A^-1||_F times RANK_EPS k is at most this
LU_CLEARANCE = 1e-3


@dataclass(frozen=True)
class RankResult:
    """Numerical rank plus the evidence it was computed from.

    ``values`` are singular values (float path) or the magnitudes
    |re| + |im| of the fraction-free pivots (exact path; they are minors of
    the row-scaled input, not the pivots of ordinary elimination, and no
    report reads them), descending; ``rank`` counts values above
    ``tol_used``.
    """

    rank: int
    values: tuple[float, ...]
    tol_used: float


# -- float path ----------------------------------------------------------------


def _rank_tol(s_max, shape):
    """The relative rank threshold RANK_EPS * s_max * max(shape) of a matrix
    of the given shape whose largest singular value is s_max (a float, or
    an array with one per matrix of a stack)."""
    return RANK_EPS * s_max * max(shape)


def _svd_rank(s: np.ndarray, shape) -> tuple[int, float]:
    """Count of the singular values s (descending) above the relative
    threshold, and that threshold."""
    tol = _rank_tol(float(s[0]), shape) if s.size else 0.0
    return int(np.sum(s > tol)), tol


def _stack_ranks(s: np.ndarray, shape) -> np.ndarray:
    """``_svd_rank`` of every row of singular values of a stack."""
    return np.sum(s > _rank_tol(s[:, :1], shape), axis=1)


def _exceeds_residual_bound(residual, norm_a, norm_x, norm_b):
    """Whether a solve's residual breaks the conditioning bound, floored at
    1e-300; on scalars or elementwise on the norms of a stack."""
    return (residual > RESIDUAL_EPS * (norm_a * norm_x + norm_b)) & (residual > 1e-300)


def _norms(Z: np.ndarray) -> np.ndarray:
    """The Frobenius norm of every matrix of an (S, m, k) stack."""
    return np.sqrt(np.einsum("sij,sij->s", Z, Z.conj()).real)


def numerical_rank(A) -> RankResult:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if A.size == 0:
        return RankResult(0, (), 0.0)
    s = np.linalg.svd(A, compute_uv=False)
    rank, tol = _svd_rank(s, A.shape)
    return RankResult(rank, tuple(float(x) for x in s), tol)


def stacked_rank(A) -> np.ndarray:
    """``numerical_rank(A[s]).rank`` for every matrix of an (S, m, k) stack,
    from one stacked SVD."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 3:
        raise ValueError("expected a stack of matrices")
    if A.size == 0:
        return np.zeros(len(A), dtype=int)
    return _stack_ranks(np.linalg.svd(A, compute_uv=False), A.shape[1:])


def solve(A, b):
    """Solve A x = b for square A via SVD.

    Raises SingularMatrixError when A or b holds a NaN or an infinity, when
    the smallest singular value falls below the relative threshold, and when
    the residual bound ||Ax - b|| <= RESIDUAL_EPS (||A|| ||x|| + ||b||)
    fails, so a poorly conditioned system cannot return silently wrong
    values.  ``b`` may be a vector or a matrix.  ``stacked_solve`` serves
    stacks of systems.
    """
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise SingularMatrixError("matrix or right-hand side is not finite")
    u, s, vh = np.linalg.svd(A)
    if s.size == 0 or _svd_rank(s, A.shape)[0] < s.size:
        raise SingularMatrixError("numerically singular matrix")
    vector_rhs = b.ndim == 1
    rhs = b[:, None] if vector_rhs else b
    x = vh.conj().T @ ((u.conj().T @ rhs) / s[:, None])
    residual = np.linalg.norm(A @ x - rhs)
    if _exceeds_residual_bound(residual, np.linalg.norm(A), np.linalg.norm(x), np.linalg.norm(rhs)):
        raise SingularMatrixError("solve residual exceeds the conditioning bound")
    return x[:, 0] if vector_rhs else x


def _lu_solve(A: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One batched LU solve of A [x | X] = [rhs | I] on an (S, k, k) stack of
    finite matrices: the solutions and every slice's A^-1, and a mask of the
    slices whose LU ran.  An exactly zero pivot makes numpy raise for the
    whole stack, so the stack is then solved slice by slice, and the slices
    that raise alone are marked."""
    S, k = A.shape[:2]
    aug = np.concatenate([rhs, np.broadcast_to(np.eye(k), (S, k, k))], axis=2)
    try:
        return np.linalg.solve(A, aug), np.ones(S, dtype=bool)
    except np.linalg.LinAlgError:
        sol, solved = np.zeros_like(aug), np.ones(S, dtype=bool)
        for s in range(S):
            try:
                sol[s] = np.linalg.solve(A[s], aug[s])
            except np.linalg.LinAlgError:
                solved[s] = False
        return sol, solved


def stacked_solve(A, b) -> tuple[np.ndarray, np.ndarray]:
    """``solve`` on every system of a stack, without raising.

    A is an (S, k, k) stack and b an (S, k) stack of vectors or an (S, k, r)
    stack of matrices.  Returns x, shaped like b, and a boolean mask ok of
    length S.  ok[s] is False exactly where ``solve(A[s], b[s])`` raises:
    the slice is not finite, or the rank threshold or the residual bound
    fails on it.  x is zero there.

    x and A^-1 come from one batched LU solve.  Since s_max / s_min <=
    ||A||_F ||A^-1||_F, a slice with ||A||_F ||A^-1||_F RANK_EPS k <=
    LU_CLEARANCE passes ``solve``'s rank threshold with 1 / LU_CLEARANCE to
    spare, and LU with partial pivoting is backward stable (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 6-9), so
    its verdict is the SVD's; every other slice, and every slice whose LU
    met an exactly zero pivot, takes ``solve``'s SVD path.  The residual
    bound is checked on every slice.  No slice's result depends on the
    other slices of the stack.
    """
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("expected a stack of square matrices")
    vector_rhs = b.ndim == 2
    rhs = b[:, :, None] if vector_rhs else b
    S, k = A.shape[:2]
    if S == 0 or k == 0:
        return np.zeros_like(b), np.zeros(S, dtype=bool)
    finite = np.isfinite(A).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2))
    if not finite.all():  # one NaN would stop the solve of the whole stack
        A = np.where(finite[:, None, None], A, np.eye(k))
        rhs = np.where(finite[:, None, None], rhs, 0)
    sol, solved = _lu_solve(A, rhs)
    r = rhs.shape[2]
    x = sol[:, :, :r]
    norm_a = _norms(A)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = norm_a * _norms(sol[:, :, r:]) * (RANK_EPS * k)
    ok = finite & solved & (bound <= LU_CLEARANCE)
    rest = np.flatnonzero(~ok)
    if rest.size:
        u, s, vh = np.linalg.svd(A[rest])
        # full rank exactly when the smallest singular value clears the threshold
        full = finite[rest] & (s[:, -1] > _rank_tol(s[:, 0], (k, k)))
        s[~full] = 1.0
        x[rest] = vh.conj().transpose(0, 2, 1) @ ((u.conj().transpose(0, 2, 1) @ rhs[rest]) / s[:, :, None])
        ok[rest] = full
    ok &= ~_exceeds_residual_bound(_norms(A @ x - rhs), norm_a, _norms(x), _norms(rhs))
    x[~ok] = 0
    return (x[:, :, 0] if vector_rhs else x), ok


def nullspace(A) -> np.ndarray:
    """Orthonormal columns spanning ker(A); shape (n, n - rank)."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return np.eye(A.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(A, full_matrices=True)
    return vh[_svd_rank(s, A.shape)[0] :].conj().T


def orthonormal_rows(A) -> np.ndarray:
    """Orthonormal rows spanning the row space of A; shape (rank, d)."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return np.zeros((0, A.shape[1] if A.ndim == 2 else 0), dtype=complex)
    u, s, vh = np.linalg.svd(A)
    return vh[: _svd_rank(s, A.shape)[0]]


def subspace_intersection(A, B) -> np.ndarray:
    """Orthonormal rows spanning (row span of A) ∩ (row span of B).

    Computed from the nullspace of the stacked system [A^T | -B^T]: a kernel
    vector (x, y) satisfies A^T x = B^T y, and that common value lies in both
    spans.  Both inputs must have independent rows.
    """
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError("row-span matrices must share the column count")
    a, b = A.shape[0], B.shape[0]
    if numerical_rank(A).rank < a or numerical_rank(B).rank < b:
        raise DegenerateInputError("input rows are not linearly independent")
    stacked = np.hstack([A.T, -B.T])
    kernel = nullspace(stacked)
    if kernel.shape[1] == 0:
        return np.zeros((0, A.shape[1]), dtype=complex)
    vectors = (A.T @ kernel[:a, :]).T
    return orthonormal_rows(vectors)


def chordal_distance(x, y) -> float:
    """Scale-invariant distance between projective points (sine of the angle
    between the representative lines).

    Computed as the norm of the component of y orthogonal to x, which stays
    accurate for tiny angles where sqrt(1 - cos^2) would lose half the digits
    to cancellation.
    """
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0 or ny == 0:
        raise ValueError("projective points need nonzero representatives")
    xn = x / nx
    yn = y / ny
    orth = yn - xn * np.vdot(xn, yn)
    return float(min(1.0, np.linalg.norm(orth)))


# -- exact path ----------------------------------------------------------------


def _bareiss(re: list[list[int]], im: list[list[int]], pivot_cols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) row echelon form over Z[i], in place, with row
    swaps; pivots are sought in the first ``pivot_cols`` columns and every
    column is updated.  Each step replaces the rows below the pivot by
    (pivot * a_ij - a_ic * a_rj) / previous pivot, a division that is exact
    because every entry is then a minor of the input (Sylvester's identity),
    so the last pivot of a square nonsingular matrix is its determinant up to
    the swaps' sign.  Entries below the pivots are left as they were.
    Returns (pivot columns, sign of the row permutation)."""
    m = len(re)
    n = len(re[0]) if m else 0
    qr, qi, qn = 1, 0, 1  # previous pivot and its norm
    sign = 1
    pivots: list[int] = []
    for col in range(pivot_cols):
        r = len(pivots)
        p = next((i for i in range(r, m) if re[i][col] or im[i][col]), None)
        if p is None:
            continue
        if p != r:
            re[r], re[p] = re[p], re[r]
            im[r], im[p] = im[p], im[r]
            sign = -sign
        Pr, Pi = re[r], im[r]
        pr, pi = Pr[col], Pi[col]
        for i in range(r + 1, m):
            Ar, Ai = re[i], im[i]
            fr, fi = Ar[col], Ai[col]
            for j in range(col + 1, n):
                xr = pr * Ar[j] - pi * Ai[j] - fr * Pr[j] + fi * Pi[j]
                xi = pr * Ai[j] + pi * Ar[j] - fr * Pi[j] - fi * Pr[j]
                Ar[j] = (xr * qr + xi * qi) // qn
                Ai[j] = (xi * qr - xr * qi) // qn
        qr, qi, qn = pr, pi, pr * pr + pi * pi
        pivots.append(col)
    return pivots, sign


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """The rows cleared to Gaussian integers, in fraction-free echelon form,
    and their pivot columns; all empty for an empty matrix."""
    re, im, _ = gaussian_integer_rows(rows)
    if not re or not re[0]:
        return [], [], []
    return re, im, _bareiss(re, im, len(re[0]))[0]


def exact_rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon(rows)[2])


def exact_rank_result(rows: Sequence[Sequence]) -> RankResult:
    """Exact rank packaged with float magnitudes of the fraction-free pivots."""
    re, im, pivots = _echelon(rows)
    mags = sorted((float(abs(re[r][c]) + abs(im[r][c])) for r, c in enumerate(pivots)), reverse=True)
    return RankResult(len(pivots), tuple(mags), 0.0)


def exact_det(rows: Sequence[Sequence]) -> GaussianRational:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return GaussianRational(1)
    re, im, scales = gaussian_integer_rows(rows)
    pivots, sign = _bareiss(re, im, n)
    if len(pivots) < n:
        return GaussianRational(0)
    return GaussianRational(sign * re[-1][-1], sign * im[-1][-1]) / math.prod(scales)


def exact_solve(rows: Sequence[Sequence], rhs: Sequence) -> list[GaussianRational]:
    """x with A x = b, by elimination of [A | b] and fraction-free back
    substitution: y = d x, d the last pivot, is a Gaussian integer vector
    (Cramer's rule), so each y_k is an exact quotient."""
    n = len(rows)
    if any(len(row) != n for row in rows) or len(rhs) != n:
        raise ValueError("need a square system")
    re, im, _ = gaussian_integer_rows([[*row, b] for row, b in zip(rows, rhs)])
    if len(_bareiss(re, im, n)[0]) < n:
        raise SingularMatrixError("exactly singular matrix")
    dr, di = re[-1][n - 1], im[-1][n - 1]
    yr, yi = [0] * n, [0] * n
    for k in range(n - 1, -1, -1):
        xr = dr * re[k][n] - di * im[k][n]
        xi = dr * im[k][n] + di * re[k][n]
        for j in range(k + 1, n):
            xr -= re[k][j] * yr[j] - im[k][j] * yi[j]
            xi -= re[k][j] * yi[j] + im[k][j] * yr[j]
        pr, pi = re[k][k], im[k][k]
        pn = pr * pr + pi * pi
        yr[k], yi[k] = (xr * pr + xi * pi) // pn, (xi * pr - xr * pi) // pn
    d = GaussianRational(dr, di)
    return [GaussianRational(a, b) / d for a, b in zip(yr, yi)]
