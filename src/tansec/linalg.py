"""Dense linear algebra on two paths.

Float path: complex numpy arrays, SVD-backed rank/nullspace/solve.  Rank
tolerances are relative to the largest singular value because projective data
has no natural scale.

Exact path: Gaussian elimination with row swaps over Gaussian rationals,
used to cross-check the float path and to make the symbolic fullness tests
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError, SingularMatrixError
from .poly import GaussianRational

RANK_EPS = 1e-10


@dataclass(frozen=True)
class RankResult:
    """Numerical rank plus the evidence it was computed from.

    ``values`` are singular values (float path) or pivot magnitudes (exact
    path), descending; ``rank`` counts values above ``tol_used``.
    """

    rank: int
    values: tuple[float, ...]
    tol_used: float


# -- float path ----------------------------------------------------------------


def _svd_rank(s: np.ndarray, shape) -> tuple[int, float]:
    """Count of the singular values s (descending) above the relative
    threshold RANK_EPS * s_max * max(shape), and that threshold."""
    tol = RANK_EPS * float(s[0]) * max(shape) if s.size else 0.0
    return int(np.sum(s > tol)), tol


def numerical_rank(A) -> RankResult:
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if A.size == 0:
        return RankResult(0, (), 0.0)
    s = np.linalg.svd(A, compute_uv=False)
    rank, tol = _svd_rank(s, A.shape)
    return RankResult(rank, tuple(float(x) for x in s), tol)


def solve(A, b):
    """Solve A x = b for square A via SVD.

    Raises SingularMatrixError when the smallest singular value falls below
    the relative threshold, and double-checks the residual bound
    ||Ax - b|| <= 1e-10 (||A|| ||x|| + ||b||) so a poorly conditioned system
    cannot return silently wrong values.  ``b`` may be a vector or a matrix.
    """
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    u, s, vh = np.linalg.svd(A)
    if s.size == 0 or _svd_rank(s, A.shape)[0] < s.size:
        raise SingularMatrixError("numerically singular matrix")
    vector_rhs = b.ndim == 1
    rhs = b[:, None] if vector_rhs else b
    x = vh.conj().T @ ((u.conj().T @ rhs) / s[:, None])
    residual = np.linalg.norm(A @ x - rhs)
    bound = 1e-10 * (np.linalg.norm(A) * np.linalg.norm(x) + np.linalg.norm(rhs))
    if residual > max(bound, 1e-300):
        raise SingularMatrixError("solve residual exceeds the conditioning bound")
    return x[:, 0] if vector_rhs else x


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

ExactMatrix = list[list[GaussianRational]]


def to_exact_matrix(rows: Sequence[Sequence]) -> ExactMatrix:
    return [[GaussianRational.coerce(x) for x in row] for row in rows]


def _eliminate(rows: ExactMatrix, rhs: list[GaussianRational] | None):
    """Row echelon form by elimination with row swaps only: exact arithmetic
    needs only a nonzero pivot, so each column's pivot is its first nonzero
    entry at or below the current row.  Returns (pivot columns, sign of the
    row permutation, echelon, rhs')."""
    a = [row[:] for row in rows]
    b = rhs[:] if rhs is not None else None
    m = len(a)
    n = len(a[0]) if m else 0
    sign = 1
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        p = next((i for i in range(r, m) if a[i][col]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            if b is not None:
                b[r], b[p] = b[p], b[r]
            sign = -sign
        pivot = a[r][col]
        for i in range(r + 1, m):
            if a[i][col]:
                f = a[i][col] / pivot
                for j in range(col, n):
                    a[i][j] = a[i][j] - f * a[r][j]
                if b is not None:
                    b[i] = b[i] - f * b[r]
        pivots.append(col)
    return pivots, sign, a, b


def exact_rank(rows: Sequence[Sequence]) -> int:
    mat = to_exact_matrix(rows)
    if not mat or not mat[0]:
        return 0
    return len(_eliminate(mat, None)[0])


def exact_rank_result(rows: Sequence[Sequence]) -> RankResult:
    """Exact rank packaged with float pivot magnitudes for reporting."""
    mat = to_exact_matrix(rows)
    if not mat or not mat[0]:
        return RankResult(0, (), 0.0)
    pivots, _, echelon, _ = _eliminate(mat, None)
    mags = sorted((float(echelon[r][c].l1()) for r, c in enumerate(pivots)), reverse=True)
    return RankResult(len(pivots), tuple(mags), 0.0)


def exact_det(rows: Sequence[Sequence]) -> GaussianRational:
    mat = to_exact_matrix(rows)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    if n == 0:
        return GaussianRational(1)
    pivots, sign, echelon, _ = _eliminate(mat, None)
    if len(pivots) < n:
        return GaussianRational(0)
    det = GaussianRational(sign)
    for k in range(n):
        det = det * echelon[k][k]
    return det


def exact_solve(rows: Sequence[Sequence], rhs: Sequence) -> list[GaussianRational]:
    mat = to_exact_matrix(rows)
    n = len(mat)
    if any(len(row) != n for row in mat) or len(rhs) != n:
        raise ValueError("need a square system")
    b = [GaussianRational.coerce(x) for x in rhs]
    pivots, _, a, b = _eliminate(mat, b)
    if len(pivots) < n:
        raise SingularMatrixError("exactly singular matrix")
    x = [GaussianRational(0)] * n
    for k in range(n - 1, -1, -1):
        acc = b[k]
        for j in range(k + 1, n):
            acc = acc - a[k][j] * x[j]
        x[k] = acc / a[k][k]
    return x
