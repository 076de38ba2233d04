"""Variety representations and chart normalization.

The dominance certificate works on a graph u -> (u, f(u)) of an n-fold in
C^(2n).  For it, general polynomial parametrizations are reduced to that form
by a linear change of coordinates A at a base point, chosen so that A maps
the tangent directions onto the first n coordinates (every other command
takes a parametrization in its own parameters):

    A . Dpsi(u0) = [I_n; 0]

The implied graph map of the chart then has value and differential zero at
the origin, and its jets carry the chain-rule correction of inverting the
first n coordinates.  A chart is evaluated only at parameter points w: one
jet of psi at w gives the chart point v(w) and the graph map's jet there, so
no chart is ever inverted.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import RankDeficientJacobianError, SingularMatrixError
from .linalg import exact_rank, numerical_rank, stacked_solve
from .poly import Jet2, PolyMap, Polynomial, random_rational_point

# relative threshold under which a candidate pivot row is skipped
_PIVOT_RATIO = 1e-6


def _drop_affine_part(p: Polynomial) -> Polynomial:
    return Polynomial(p.num_vars, {e: c for e, c in p.terms.items() if sum(e) >= 2})


class GraphVariety:
    """An n-fold embedded as u -> (u, f(u)) in affine C^(2n) inside P^(2n)."""

    __slots__ = ("f",)

    def __init__(self, f: PolyMap):
        if f.num_components != f.num_vars:
            raise ValueError("graph map must have as many components as variables")
        self.f = f

    @property
    def n(self) -> int:
        return self.f.num_vars

    @property
    def normalized(self) -> bool:
        """Exact check that f(0) = 0 and f_u(0) = 0."""
        return all(
            all(sum(e) >= 2 for e in p.terms)
            for p in self.f.components
        )

    def normalized_at_origin(self) -> "GraphVariety":
        """Subtract the value and linear part at 0, exactly."""
        if self.normalized:
            return self
        return GraphVariety(PolyMap([_drop_affine_part(p) for p in self.f.components]))

    def jet_at(self, u) -> Jet2:
        return self.f.jet2(np.asarray(u, dtype=complex))

    def hessian0_exact(self):
        return self.f.hessian0_exact()

    def hessian0(self) -> np.ndarray:
        """Second-order jet of f at 0, from one float jet."""
        return self.f.jet2(np.zeros(self.n)).hessian

    def as_param(self) -> "ParamVariety":
        n = self.n
        first = [Polynomial.variable(n, i) for i in range(n)]
        return ParamVariety(PolyMap(first + list(self.f.components)))

    def __repr__(self) -> str:
        return f"GraphVariety({self.f!r})"


class ParamVariety:
    """General polynomial parametrization psi: C^n -> C^(2n).

    Generic immersivity (Jacobian rank n) is certified at construction on the
    exact path at a fixed seeded random rational point; whether psi is
    generically injective is not decided here.
    """

    __slots__ = ("psi",)

    _CERT_SEED = 0
    _CERT_BOUND = 10**6

    def __init__(self, psi: PolyMap):
        if psi.num_components != 2 * psi.num_vars:
            raise ValueError("parametrization must have 2n components for n variables")
        self.psi = psi
        point = random_rational_point(psi.num_vars, self._CERT_BOUND, random.Random(self._CERT_SEED))
        if exact_rank(psi.jet_exact(point).jacobian) < psi.num_vars:
            raise RankDeficientJacobianError(
                "parametrization jacobian is rank deficient at a random rational point"
            )

    @property
    def n(self) -> int:
        return self.psi.num_vars

    def __repr__(self) -> str:
        return f"ParamVariety({self.psi!r})"


class NormalizedChart:
    """Local graph chart of a parametrized variety at a base point.

    Coordinates are z = A (psi(w) - psi(u0)); the first n entries are the
    graph parameter v and the last n the graph value.
    """

    __slots__ = ("psi", "u0", "A", "psi0")

    def __init__(self, psi: PolyMap, u0: np.ndarray, A: np.ndarray):
        self.psi = psi
        self.u0 = u0
        self.A = A
        self.psi0 = psi.value_at(u0)

    @property
    def n(self) -> int:
        return self.psi.num_vars

    def forward(self, W) -> np.ndarray:
        """Chart coordinates of each parameter point of an (S, n) stack W."""
        return (self.psi.value_at(W) - self.psi0) @ self.A.T

    def parameter_jet(self, W) -> tuple[np.ndarray, np.ndarray, Jet2, np.ndarray]:
        """Chart coordinates v(w), their differentials dv/dw and the
        second-order jets of the implied graph map at v(w), for an (S, n)
        stack W of parameter points, from one stacked jet of psi and no
        inversion; the last result flags the points where K below exists.

        With phi = A (psi - psi(u0)) split into blocks (phi1, phi2) and
        K = Dphi1(w)^-1, v = phi1(w), dv/dw = Dphi1(w), and the graph map is
        phi2 after inverting phi1, so

            jac  = Dphi2 K
            hess = D2phi2[K., K.] - (Dphi2 K) D2phi1[K., K.]

        K comes from one guarded ``stacked_solve``; where it is singular the
        point is flagged False and its jet is meaningless.
        """
        W = np.asarray(W, dtype=complex)
        n = self.n
        jet = self.psi.jet2(W)
        Z = (jet.value - self.psi0) @ self.A.T
        AJ = self.A @ jet.jacobian
        AH = np.einsum("ab,sbjk->sajk", self.A, jet.hessian)
        K, ok = stacked_solve(AJ[:, :n], np.broadcast_to(np.eye(n, dtype=complex), AJ[:, :n].shape))
        jac = AJ[:, n:] @ K
        G1 = np.einsum("sijk,sja,skb->siab", AH[:, :n], K, K)
        G2 = np.einsum("sijk,sja,skb->siab", AH[:, n:], K, K)
        hess = G2 - np.einsum("sil,slab->siab", jac, G1)
        hess = (hess + hess.transpose(0, 1, 3, 2)) / 2
        return Z[:, :n], AJ[:, :n], Jet2(value=Z[:, n:], jacobian=jac, hessian=hess), ok

    def jet_at(self, w) -> Jet2:
        """Second-order jet of the implied graph map at the chart point v(w)
        of one parameter point w: the stack of one of ``parameter_jet``.
        Raises SingularMatrixError where K is singular."""
        _, _, jet, ok = self.parameter_jet(np.asarray(w, dtype=complex)[None])
        if not ok[0]:
            raise SingularMatrixError("numerically singular matrix")
        return Jet2(value=jet.value[0], jacobian=jet.jacobian[0], hessian=jet.hessian[0])

    def __repr__(self) -> str:
        return f"NormalizedChart(n={self.n}, u0={self.u0!r})"


def normalize_at(V: ParamVariety, u0) -> NormalizedChart:
    """Build the graph chart of V at the parameter point u0.

    The change of coordinates A is the inverse of [Dpsi(u0) | E], where E
    holds the standard basis vectors of the non-pivot rows; pivot rows are
    picked deterministically (first row whose entry is at least 1e-6 of the
    column maximum during elimination), so graph inputs keep their own
    coordinates and normalized graphs get A = I exactly.
    """
    u0 = np.asarray(u0, dtype=complex)
    psi = V.psi
    n = psi.num_vars
    m = 2 * n
    J = psi.jacobian_at(u0)
    if numerical_rank(J).rank < n:
        raise RankDeficientJacobianError("base point is not immersive")

    W = J.copy()
    pivot_rows: list[int] = []
    for col in range(n):
        avail = [r for r in range(m) if r not in pivot_rows]
        col_abs = np.abs(W[avail, col])
        col_max = float(col_abs.max())
        if col_max == 0.0:
            raise RankDeficientJacobianError("base point is not immersive")
        row = next(r for r, mag in zip(avail, col_abs) if mag >= _PIVOT_RATIO * col_max)
        pivot_rows.append(row)
        for rr in avail:
            if rr != row and W[rr, col] != 0:
                W[rr, :] -= (W[rr, col] / W[row, col]) * W[row, :]

    M = np.zeros((m, m), dtype=complex)
    M[:, :n] = J
    for idx, r in enumerate(sorted(set(range(m)) - set(pivot_rows))):
        M[r, n + idx] = 1.0
    if np.array_equal(M, np.eye(m)):
        A = np.eye(m, dtype=complex)
    else:
        A = np.linalg.inv(M)

    target = np.vstack([np.eye(n), np.zeros((n, n))])
    residual = np.linalg.norm(A @ J - target)
    if residual > 1e-10 * max(1.0, np.linalg.norm(A) * np.linalg.norm(J)):
        raise RankDeficientJacobianError("chart construction is ill-conditioned")
    return NormalizedChart(psi, u0, A)
