"""Tangent frames, fullness and dominance certificates, secant estimates.

The certificates work in a normalized graph chart u -> (u, f(u)) with
f(0) = 0 and f_u(0) = 0.  The central object is the Hessian contraction

    H(u)[i][j] = sum_k f_uu(0)[i][j][k] u_k

whose generic nondegeneracy decides whether the union of tangent spaces fills
the ambient projective space.  The fullness cross-check works on the variety
as given instead: Tan X is the image of the bundle map (w, a) -> psi(w) +
Dpsi(w) a, so it fills the space exactly when the determinant of
K(w, a) = [Dpsi(w) + D2psi(w)[a, .] | Dpsi(w)] is not identically zero, at
any base point.  "Generic" claims are certified two ways: exact randomized
identity testing where a polynomial identity underlies the claim, and
95%-of-samples thresholds where only an open dense condition does.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateInputError,
    NonTransverseError,
    NotNormalizedError,
    SingularTangentJacobianError,
)
from .linalg import (
    RANK_EPS,
    RankResult,
    exact_det,
    exact_rank,
    exact_rank_result,
    numerical_rank,
    stacked_rank,
    stacked_solve,
)
from .poly import (
    GaussianRational,
    Jet2,
    gaussian_integer_rows,
    integer_poly_det,
    integer_polynomial,
    integer_tensor,
    random_point,
    random_rational_point,
)
from .variety import GraphVariety, NormalizedChart, ParamVariety

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

EXACT_SYMBOLIC = "exact_symbolic"
SCHWARTZ_ZIPPEL = "schwartz_zippel"
FLOAT_SAMPLING = "float_sampling"

# fraction of trials that must succeed before a sampled claim is certified
SUCCESS_FRACTION = 0.95
# step and tolerance of the finite-difference check of the differential of p
FD_STEP = 1e-5
FD_TOL = 1e-6
# largest dimension whose fullness determinant is expanded symbolically
SYMBOLIC_MAX_DIM = 4


@dataclass
class Certificate:
    """Verdict plus the evidence behind it.

    A sampling verdict of ``holds`` requires successes >= ceil(0.95 trials);
    exact methods prove their verdict outright (a nonzero witness under
    randomized identity testing is itself a proof).  ``error_bound`` is the
    one-sided failure probability reported by identity testing when every
    sample vanished.
    """

    verdict: str
    method: str
    trials: int
    successes: int
    tolerance: float | None = None
    witness: object = None
    error_bound: float | None = None
    details: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


def _meets_success_fraction(successes: int, trials: int) -> bool:
    """The 95% rule: successes >= ceil(SUCCESS_FRACTION * trials) > 0."""
    return trials > 0 and successes >= math.ceil(SUCCESS_FRACTION * trials)


def _sampled_verdict(successes: int, trials: int) -> str:
    if _meets_success_fraction(successes, trials):
        return HOLDS
    if successes == 0:
        return FAILS
    return INCONCLUSIVE


def require_normalized(G) -> None:
    """Graphs must satisfy f(0)=0, f_u(0)=0 exactly; charts do by construction."""
    if isinstance(G, GraphVariety) and not G.normalized:
        raise NotNormalizedError("graph is not normalized at the origin")


# -- tangent frames ---------------------------------------------------------------


@dataclass
class TangentFrame:
    """Basis of the affine cone of the projective tangent space at a point.

    Row 0 holds the homogeneous coordinates [1 : x] of the point x and row j
    the direction [0 : dx/du_j]: x = (u, f(u)) and dx/du_j = (e_j, f_u(u) e_j)
    on a graph, x = psi(u) and dx/du_j = d_j psi(u) on a ParamVariety (a
    chart is refused).  Rows are checked for full rank at construction.
    """

    point: np.ndarray
    matrix: np.ndarray


def tangent_frame(G, u):
    """The tangent frame at a point u, or the frames at each point of a
    (k, n) stack u; the shape selects, as in ``PolyMap.jet2``.

    A point gives its TangentFrame and raises DegenerateInputError when the
    frame's rows are dependent.  A stack gives the (k, n + 1, 2n + 1) frame
    matrices from one jet and a mask of the frames that are finite with
    independent rows, from one ``stacked_rank``; it raises nothing, and a
    non-finite frame, which would stop the SVD of the whole stack, is
    ranked as zero.
    """
    if isinstance(G, NormalizedChart):
        raise TypeError("tangent frames of a parametrized variety are taken on its ParamVariety")
    u = np.asarray(u, dtype=complex)
    n = G.n
    U = u if u.ndim == 2 else u[None]
    M = np.zeros((len(U), n + 1, 2 * n + 1), dtype=complex)
    M[:, 0, 0] = 1.0
    if isinstance(G, ParamVariety):
        jet = G.psi.jet2(U)
        M[:, 0, 1:] = jet.value
        M[:, 1:, 1:] = jet.jacobian.transpose(0, 2, 1)
    else:
        jet = G.jet_at(U)
        M[:, 0, 1 : n + 1] = U
        M[:, 0, n + 1 :] = jet.value
        M[:, 1:, 1 : n + 1] = np.eye(n)
        M[:, 1:, n + 1 :] = jet.jacobian.transpose(0, 2, 1)
    finite = np.isfinite(M).all(axis=(1, 2))
    full = finite & (stacked_rank(np.where(finite[:, None, None], M, 0)) == n + 1)
    if u.ndim == 2:
        return M, full
    if not full[0]:
        raise DegenerateInputError("tangent frame rows are not independent")
    return TangentFrame(point=u, matrix=M[0])


# coordinates whose moduli lie within this relative distance of the largest
# tie for the normalizing coordinate of a projective representative
TIE_EPS = 1e-9


def normalized_representative(X: np.ndarray) -> np.ndarray:
    """Each row of X divided by its first coordinate whose modulus lies
    within a relative TIE_EPS of the largest, so that coordinates tied in
    exact arithmetic (such as 8 and -8) give one representative under
    round-off."""
    a = np.abs(X)
    k = np.argmax(a >= (1 - TIE_EPS) * a.max(axis=-1, keepdims=True), axis=-1)
    return X / np.take_along_axis(X, k[..., None], axis=-1)


def frame_pair_points(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the tangent spans of the frames A[s] and B[s] meet, for (S, n + 1,
    2n + 1) stacks of frames with independent rows.

    A kernel vector (x, y) of [A^T | -B^T] gives the common point A^T x =
    B^T y.  Returns the dimension of each kernel under ``nullspace``'s rank
    threshold, from one ``stacked_rank``, and the point
    (``normalized_representative``) of each pair whose kernel has dimension
    1, the transverse pairs, from one stacked SVD of those pairs alone; the
    other rows of the points are zero.
    """
    stacked = np.concatenate([A.transpose(0, 2, 1), -B.transpose(0, 2, 1)], axis=2)
    dims = stacked.shape[2] - stacked_rank(stacked)
    transverse = dims == 1
    points = np.zeros((len(stacked), A.shape[2]), dtype=complex)
    if transverse.any():
        # the kernel vector is the last right singular vector
        x = np.linalg.svd(stacked[transverse])[2][:, -1, : A.shape[1]].conj()
        points[transverse] = normalized_representative(np.einsum("sij,si->sj", A[transverse], x))
    return dims, points


def tangent_intersection(F1: TangentFrame, F2: TangentFrame) -> np.ndarray:
    """The unique projective point where two tangent spans meet, from
    ``frame_pair_points`` on the stacks of one of the two frames.

    Normalized so the first coordinate of largest modulus, up to TIE_EPS,
    is 1.  Raises NonTransverse when the intersection is not one-dimensional
    (identical spans included); the caller resamples, since single-point
    intersections are only promised for generic pairs.
    """
    dims, points = frame_pair_points(F1.matrix[None], F2.matrix[None])
    if dims[0] != 1:
        raise NonTransverseError(int(dims[0]))
    return points[0]


# -- Hessian contraction -------------------------------------------------------------


def hessian_contraction(T, u) -> np.ndarray:
    """H(u)[i][j] = sum_k T[i][j][k] u_k for a float tensor T, at a point u
    or at each point of an (S, n) stack."""
    T = np.asarray(T, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if T.ndim != 3 or T.shape[1] != T.shape[2] or u.ndim not in (1, 2) or T.shape[2] != u.shape[-1]:
        raise ValueError("tensor and point dimensions do not match")
    return np.einsum("ijk,...k->...ij", T, u)


def integer_contraction(T, xi) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """H(xi)[i][j] = sum_k T_i[j][k] xi_k as integer dot products.

    T is a tensor with its denominators cleared per component, as
    ``integer_tensor`` and ``PolyMap.hessian_integer`` return it; xi is
    scaled by the lcm of its own denominators.  Returns the real and
    imaginary integer rows and the row scales: row i of H(xi) is
    (re[i] + i im[i]) / scales[i].
    """
    t_re, t_im, t_scales = T
    (x_re,), (x_im,), (x_scale,) = gaussian_integer_rows([xi])
    n = len(x_re)
    offsets = range(0, n * n, n)
    h_re, h_im = [], []
    for tr, ti in zip(t_re, t_im):
        h_re.append([sum(tr[o + k] * x_re[k] - ti[o + k] * x_im[k] for k in range(n)) for o in offsets])
        h_im.append([sum(tr[o + k] * x_im[k] + ti[o + k] * x_re[k] for k in range(n)) for o in offsets])
    return h_re, h_im, [s * x_scale for s in t_scales]


def _exact_entries(re, im) -> list[list]:
    """Gaussian integer rows as exact scalars: ints where the imaginary part
    is zero."""
    return [[a if not b else GaussianRational(a, b) for a, b in zip(r, i)] for r, i in zip(re, im)]


def hessian_contraction_exact(T, xi) -> list[list[GaussianRational]]:
    """H(xi) over Gaussian rationals for an exact tensor T: the integer
    contraction divided back by its row scales."""
    re, im, scales = integer_contraction(integer_tensor(T), xi)
    return [
        [GaussianRational(Fraction(a, s), Fraction(b, s)) for a, b in zip(r, i)]
        for r, i, s in zip(re, im, scales)
    ]


def contraction_det(T, xi) -> GaussianRational:
    """det H(xi) at an exact point xi, for a Hessian table T in
    ``PolyMap.hessian_integer``'s form: the exact determinant of the integer
    contraction, divided back by its row scales."""
    re, im, scales = integer_contraction(T, xi)
    return exact_det(_exact_entries(re, im)) / math.prod(scales)


def hessian_integer_matrix(T) -> tuple[list[list[dict]], int]:
    """H(u) with symbolic entries over Gaussian integers, from an integer
    Hessian table T in ``PolyMap.hessian_integer``'s form: entry (i, j) is
    the term map {exponents of u_k: (re, im)} of the linear form
    scales[i] H(u)[i][j], with the product of the row scales."""
    t_re, t_im, scales = T
    n = len(t_re)
    units = [tuple(int(k == v) for v in range(n)) for k in range(n)]
    rows = [
        [{units[k]: (re[o + k], im[o + k]) for k in range(n) if re[o + k] or im[o + k]} for o in range(0, n * n, n)]
        for re, im in zip(t_re, t_im)
    ]
    return rows, math.prod(scales)


def _symbolic_witness(T, n: int) -> tuple:
    """Deterministic search for an integer point where det H, H the
    contraction of the Hessian table T, is nonzero: the point, as Fractions,
    and the value there, or (None, None)."""
    candidates = [tuple(Fraction(1) for _ in range(n)), tuple(Fraction(k + 1) for k in range(n))]
    rng = random.Random(0)
    for _ in range(200):
        for cand in candidates:
            value = contraction_det(T, cand)
            if value:
                return cand, value
        candidates = [random_rational_point(n, 10 * (n + 1), rng)]
    return None, None


def _identity_test(draw, evaluate, trials: int, bound: float, details: dict) -> Certificate:
    """Schwartz-Zippel test that a polynomial is not identically zero: up to
    ``trials`` points from ``draw()``, in order, stopping at the first where
    ``evaluate`` is nonzero, which proves the claim.  When every value
    vanishes the verdict is ``fails`` with failure probability ``bound``.
    ``details`` go on the certificate either way."""
    for t in range(trials):
        point = draw()
        d = evaluate(point)
        if d:
            return Certificate(
                verdict=HOLDS,
                method=SCHWARTZ_ZIPPEL,
                trials=t + 1,
                successes=1,
                witness=point,
                details={"determinant_at_witness": str(d), **details},
            )
    return Certificate(
        verdict=FAILS,
        method=SCHWARTZ_ZIPPEL,
        trials=trials,
        successes=0,
        error_bound=bound,
        details=dict(details),
    )


def tan_is_full(G, trials: int = 100, rng: random.Random | None = None) -> Certificate:
    """Decide whether det H(u) vanishes identically.

    On a graph H is read from f's Hessian at the origin, which f's affine
    part does not change, so a graph need not be normalized first.
    Dimensions up to SYMBOLIC_MAX_DIM expand the determinant symbolically
    over exact scalars; larger ones use randomized identity testing at
    integer points with coordinates in [-B, B], B = 2*n*trials, where any
    nonzero exact evaluation is a proof and an all-zero run reports failure
    probability (n / 2B)^trials.  Chart inputs fall back to float sampling
    of the smallest-to-largest singular value ratio.
    """
    if isinstance(G, GraphVariety):
        n = G.n
        T = G.f.hessian_integer((0,) * n)
        if n <= SYMBOLIC_MAX_DIM:
            rows, scale = hessian_integer_matrix(T)
            det = integer_poly_det(rows)
            if not det:
                return Certificate(
                    verdict=FAILS,
                    method=EXACT_SYMBOLIC,
                    trials=1,
                    successes=0,
                    details={"determinant": "0"},
                )
            witness, value = _symbolic_witness(T, n)
            details = {"determinant": integer_polynomial(n, det, scale).to_expr()}
            if witness is not None:
                details["determinant_at_witness"] = str(value)
            return Certificate(
                verdict=HOLDS,
                method=EXACT_SYMBOLIC,
                trials=1,
                successes=1,
                witness=witness,
                details=details,
            )
        rng = rng or random.Random(0)
        B = 2 * n * trials
        return _identity_test(
            lambda: random_rational_point(n, B, rng),
            lambda xi: contraction_det(T, xi),
            trials,
            (n / (2 * B)) ** trials,
            {"box": B},
        )

    # chart input: only float jets are available; the points are drawn in
    # order and tested as one stack
    rng = rng or random.Random(0)
    n = G.n
    tol = 1e-8
    U = np.array([random_point(n, 1.0, rng) for _ in range(trials)], dtype=complex).reshape(trials, n)
    s = np.linalg.svd(hessian_contraction(G.hessian0(), U), compute_uv=False)
    full = (s[:, 0] > 0) & (s[:, -1] > tol * s[:, 0])
    successes = int(np.count_nonzero(full))
    return Certificate(
        verdict=_sampled_verdict(successes, trials),
        method=FLOAT_SAMPLING,
        trials=trials,
        successes=successes,
        tolerance=tol,
        witness=U[np.argmax(full)] if full.any() else None,
    )


def _bundle_ranks(G, xi) -> tuple[RankResult, int]:
    """Ranks of the block matrix [[E_n, E_n], [H(xi), 0]] and of H(xi), from
    one contraction H(xi): exact for a graph at an exact point (the integer
    contraction, whose row scales change neither rank), float otherwise."""
    require_normalized(G)
    n = G.n
    exact_point = all(isinstance(x, (int, Fraction, GaussianRational)) for x in xi)
    if isinstance(G, GraphVariety) and exact_point:
        H = _exact_entries(*integer_contraction(G.f.hessian_integer((0,) * n), xi)[:2])
        block_rank, h_rank = exact_rank_result, exact_rank(H)
    else:
        H = hessian_contraction(G.hessian0(), np.asarray(xi, dtype=complex)).tolist()
        block_rank, h_rank = numerical_rank, numerical_rank(H).rank
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    return block_rank([row + row for row in eye] + [row + [0] * n for row in H]), h_rank


def tangent_bundle_rank_check(G, xi) -> RankResult:
    """Rank of the block matrix [[E_n, E_n], [H(xi), 0]].

    This is the differential of (u, xi) -> (u + xi, f(u) + f_u(u) xi) at the
    chart origin.  Its rank equals n + rank H(xi) for every H (subtract the
    first block column from the second), so it checks the rank kernels, not
    fullness; ``bundle_rank_cross_check`` is the fullness cross-check.
    Exact inputs take the exact path.
    """
    return _bundle_ranks(G, xi)[0]


# -- the bundle determinant ----------------------------------------------------------
#
# Tan X is the image of the bundle map (w, a) -> psi(w) + Dpsi(w) a, so it
# fills P^(2n) exactly when that map is dominant, that is when the
# determinant of its Jacobian
#
#     K(w, a) = [Dpsi(w) + D2psi(w)[a, .] | Dpsi(w)]
#
# is not identically zero (K is also the Jacobian of the ramification system
# F(w, a) = psi(w) + Dpsi(w) a - P).  Unlike the Hessian at the chart origin,
# det K does not depend on a base point, so it also catches an origin that
# is not generic.

# integer points (w, a) of the bundle determinant test have coordinates in
# [-BUNDLE_BOX, BUNDLE_BOX]
BUNDLE_BOX = 100


def bundle_matrix_exact(psi, w, a) -> list[list]:
    """K(w, a) over Gaussian rationals, from one exact jet of psi at w."""
    jet = psi.jet_exact(w)
    return [
        [J + sum(h * x for h, x in zip(Hj, a)) for J, Hj in zip(J_row, H_row)] + J_row
        for J_row, H_row in zip(jet.jacobian, jet.hessian)
    ]


def bundle_determinant(V, w, a) -> GaussianRational:
    """det K(w, a) at an exact point.

    On a graph psi = (u, f), subtracting K's second block column from its
    first leaves [[0, E], [f_uu(w)[a], f_u(w)]], so det K = (-1)^n det
    f_uu(w)[a]: one n x n determinant of the integer contraction, divided
    back by its row scales.  A ParamVariety takes the 2n x 2n K of psi.
    """
    if isinstance(V, GraphVariety):
        d = contraction_det(V.f.hessian_integer(w), a)
        return -d if V.n % 2 else d
    return exact_det(bundle_matrix_exact(V.psi, w, a))


def bundle_degree(V) -> int:
    """Degree bound of det K in (w, a): row i of K has degree deg psi_i - 1,
    so D = sum max(deg psi_i - 1, 0), over the components of f on a graph."""
    psi = V.f if isinstance(V, GraphVariety) else V.psi
    return sum(max(p.degree() - 1, 0) for p in psi.components)


def bundle_rank_cross_check(V, trials: int, rng: random.Random) -> Certificate:
    """Schwartz-Zippel test that det K(w, a) is not identically zero, i.e.
    that Tan X = P^(2n), independently of the fullness test at the origin.

    Draws integer points (w, a) with coordinates in [-BUNDLE_BOX,
    BUNDLE_BOX] and stops at the first nonzero determinant, which proves
    the claim.  When all ``trials`` draws vanish the verdict is ``fails``
    with failure probability at most (D / (2 BUNDLE_BOX + 1))^trials, D the
    degree bound of ``bundle_degree``.
    """
    n = V.n
    return _identity_test(
        lambda: random_rational_point(2 * n, BUNDLE_BOX, rng),
        lambda point: bundle_determinant(V, point[:n], point[n:]),
        trials,
        min(1.0, (bundle_degree(V) / (2 * BUNDLE_BOX + 1)) ** trials),
        {},
    )


# -- secant dimension ------------------------------------------------------------------


def secant_dim_estimate(G, trials: int = 100, rng: random.Random | None = None) -> tuple[int, Certificate]:
    """Estimate dim Sec X as (max rank of two stacked tangent frames) - 1.

    The tangent space to the secant variety at a generic point of a secant
    line is spanned by the two tangent spaces, so the stacked frame rank
    carries the dimension.  The certificate records the rank distribution;
    it holds when at least 95% of the sampled pairs achieve the maximum.
    The pair (u, v) of each trial is drawn in order, the frames are built
    in stacks of at most CHUNK points, and the pairs of a stack are ranked
    by one ``stacked_rank``.  A pair with a frame that is not finite or has
    dependent rows (psi not immersive there) is counted as an evaluation
    failure.
    """
    rng = rng or random.Random(0)
    distribution: dict[int, int] = {}
    failures = 0
    for X in _sample_chunks(G, 2 * trials, 1.0, rng):
        M, full = tangent_frame(G, X)
        ok = full[0::2] & full[1::2]
        pairs = np.concatenate([M[0::2], M[1::2]], axis=1)
        failures += int(np.count_nonzero(~ok))
        for r in stacked_rank(pairs[ok]).tolist():
            distribution[r] = distribution.get(r, 0) + 1
    if not distribution:
        return -1, Certificate(
            verdict=INCONCLUSIVE,
            method=FLOAT_SAMPLING,
            trials=trials,
            successes=0,
            tolerance=RANK_EPS,
            details={"evaluation_failures": failures},
        )
    best = max(distribution)
    successes = distribution[best]
    details = {"rank_distribution": {str(k): v for k, v in sorted(distribution.items())}}
    if failures:
        details["evaluation_failures"] = failures
    cert = Certificate(
        verdict=_sampled_verdict(successes, trials),
        method=FLOAT_SAMPLING,
        trials=trials,
        successes=successes,
        tolerance=RANK_EPS,
        details=details,
    )
    return best - 1, cert


# -- the chart-origin projection map p ---------------------------------------------------
#
# The certificates sample p at points x: on a graph x = u in a box around the
# origin; on a chart x is a parameter point w in a box around the base point
# u0, where one jet of psi gives the chart point v(w) and the graph map's jet
# there, so no sample inverts the chart.  The points are drawn in order and
# evaluated as stacks of at most CHUNK: one stacked jet, stacked guarded
# solves and one stacked rank per stack.  p_map, p_jacobian_closed and
# p_jacobian_fd take one sample point x, u or w, as the stacks of one, and
# both differentials are those of x -> p.

# samples evaluated as one stack; bounds what a certificate holds at a time
CHUNK = 256


def _one_point(values: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """The only entry of a stack of one, where it is defined."""
    if not ok[0]:
        raise SingularTangentJacobianError("numerically singular tangent jacobian")
    return values[0]


def _p_samples(G, X) -> tuple[np.ndarray, np.ndarray]:
    """p at each sample point of the stack X, and where it is defined.

    On a chart p is taken from its definition.  In chart coordinates
    z = A (psi - psi(u0)) the tangent space at z(w) is z(w) + A Dpsi(w) a;
    with the blocks z = (v, z2) and A Dpsi(w) = (C; B) it meets z2 = 0 at
    v - C B^-1 z2, one solve with no second derivatives.
    """
    if isinstance(G, NormalizedChart):
        n = G.n
        Z = G.forward(X)
        AJ = G.A @ G.psi.jacobian_at(X)
        a, ok = stacked_solve(AJ[:, n:], Z[:, n:])
        return Z[:, :n] - (AJ[:, :n] @ a[:, :, None])[:, :, 0], ok
    correction, ok = stacked_solve(G.f.jacobian_at(X), G.f.value_at(X))
    return X - correction, ok


def p_map(G, x) -> np.ndarray:
    """Affine coordinates of the point where the tangent space at the sample
    point x meets the chart-origin tangent plane C^n x 0: p(u) = u - f_u(u)^-1 f(u)
    at u, or at v(w)."""
    return _one_point(*_p_samples(G, np.asarray(x, dtype=complex)[None]))


def _p_differentials(jet: Jet2) -> tuple[np.ndarray, np.ndarray]:
    """Closed differentials of p from a stack of graph-map jets, and where
    they are defined."""
    w, ok = stacked_solve(jet.jacobian, jet.value)
    contracted = np.einsum("sikl,sk->sil", jet.hessian, w)
    dp, defined = stacked_solve(jet.jacobian, contracted)
    return dp, ok & defined


def _sample_differentials(G, X) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Closed differentials of p at the sample points X, dv/dx, and two
    masks: the points that evaluate, and those where the differential is
    defined.  On a graph they are Dp(u), dv/dx is None (v = u) and every
    point evaluates; on a chart they are Dp(v(w)) and dv/dw, and a point
    evaluates where the chart's K solve is regular."""
    if isinstance(G, NormalizedChart):
        _, dv, jet, evaluated = G.parameter_jet(X)
    else:
        dv, jet, evaluated = None, G.f.jet2(X), np.ones(len(X), dtype=bool)
    dp, defined = _p_differentials(jet)
    return dp, dv, evaluated, evaluated & defined


def _closed_differentials(G, X) -> tuple[np.ndarray, np.ndarray]:
    """Closed differentials of x -> p at the sample points X, and where
    they are defined: Dp(u) on a graph, Dp(v(w)) dv/dw on a chart."""
    dp, dv, _, defined = _sample_differentials(G, X)
    return (dp if dv is None else dp @ dv), defined


def p_jacobian_closed(G, x) -> np.ndarray:
    """Differential of x -> p at the sample point x, in closed form.

    Differentiating p(u) = u - f_u(u)^-1 f(u) directly gives

        dp(eta) = f_u(u)^-1 . f_uu(u)[ f_u(u)^-1 f(u), eta ]

    (the identity terms cancel); the scalar case f = u^2 reproduces 1/2.  On
    a chart this is taken at v(w) and composed with dv/dw.
    """
    return _one_point(*_closed_differentials(G, np.asarray(x, dtype=complex)[None]))


def p_jacobian_fd(G, x, h: float = FD_STEP) -> np.ndarray:
    """Independent central-difference approximation of the differential of
    x -> p at the sample point x.

    x may also be an (S, n) stack of sample points.  p is then taken at the
    2S difference points of one direction at a time, and a sample where p is
    undefined at one of its points gets a NaN matrix instead of raising.
    """
    x = np.asarray(x, dtype=complex)
    n = G.n
    X = x if x.ndim == 2 else x[None]
    S = len(X)
    step = h * np.maximum(1.0, np.linalg.norm(X, axis=1))
    D = np.empty((S, n, n), dtype=complex)
    ok = np.ones(S, dtype=bool)
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        shift = step[:, None] * e
        p, defined = _p_samples(G, np.concatenate([X + shift, X - shift]))
        D[:, :, k] = (p[:S] - p[S:]) / (2 * step)[:, None]
        ok &= defined[:S] & defined[S:]
    if x.ndim == 1:
        return _one_point(D, ok)
    D[~ok] = np.nan
    return D


def _sample_chunks(G, trials: int, box: float, rng: random.Random):
    """The sample points of a certificate, drawn in order and yielded as
    stacks of at most CHUNK: points u in the box around the origin on a
    graph, parameter points w in the box around the base point on a chart."""
    n = G.n
    for start in range(0, trials, CHUNK):
        X = np.array([random_point(n, box, rng) for _ in range(min(CHUNK, trials - start))])
        yield G.u0 + X if isinstance(G, NormalizedChart) else X


def dominance_certificate(
    G, trials: int = 100, rng: random.Random | None = None, box: float = 0.1
) -> Certificate:
    """Certify that u -> p(u) has full-rank differential at random points.

    The sampling box is small because the underlying argument is local; points
    where the graph Jacobian itself is singular are counted separately (their
    generic occurrence signals that the tangent variety is not full).  On a
    chart the box is in parameter space, around the base point, and the
    witness is a parameter point: the first full-rank sample drawn.
    """
    require_normalized(G)
    rng = rng or random.Random(0)
    n = G.n
    successes = singular = failures = 0
    witness = None
    for X in _sample_chunks(G, trials, box, rng):
        dp, _, evaluated, defined = _sample_differentials(G, X)
        full = defined & (stacked_rank(dp) == n)
        failures += int(np.count_nonzero(~evaluated))
        singular += int(np.count_nonzero(evaluated & ~defined))
        successes += int(np.count_nonzero(full))
        if witness is None and full.any():
            witness = X[np.argmax(full)].copy()
    details = {"full_rank": successes, "singular_jacobian": singular}
    if failures:
        details["evaluation_failures"] = failures
    return Certificate(
        verdict=_sampled_verdict(successes, trials),
        method=FLOAT_SAMPLING,
        trials=trials,
        successes=successes,
        tolerance=RANK_EPS,
        witness=witness,
        details=details,
    )


def jacobian_agreement(G, trials: int, box: float, rng: random.Random) -> dict:
    """Independent validation of the closed-form differential of p by finite
    differences; samples where either side is undefined are counted, not
    compared.  On a chart both sides are differentials of w -> p(v(w)): the
    closed one is Dp(v(w)) dv/dw."""
    agree = failures = 0
    worst = 0.0
    for X in _sample_chunks(G, trials, box, rng):
        closed, defined = _closed_differentials(G, X)
        fd = p_jacobian_fd(G, X)
        scale = np.maximum(1.0, np.abs(closed).max(axis=(1, 2)))
        err = np.abs(closed - fd).max(axis=(1, 2)) / scale
        redo = defined & (err > FD_TOL)
        if redo.any():
            # cancel the O(h^2) truncation error of the central difference
            # (Richardson): (4 D(h/2) - D(h)) / 3
            fine = (4 * p_jacobian_fd(G, X[redo], h=FD_STEP / 2) - fd[redo]) / 3
            err[redo] = np.abs(closed[redo] - fine).max(axis=(1, 2)) / scale[redo]
        # the differences are NaN where p is undefined at a difference point
        compared = defined & ~np.isnan(err)
        failures += int(np.count_nonzero(~compared))
        agree += int(np.count_nonzero(compared & (err <= FD_TOL)))
        if compared.any():
            worst = max(worst, float(err[compared].max()))
    check = {
        "samples": trials,
        "agreeing": agree,
        "max_relative_error": worst,
        "verdict": HOLDS if _meets_success_fraction(agree, trials) else FAILS,
    }
    if failures:
        check["evaluation_failures"] = failures
    return check
