"""Shared test helpers: seeded random polynomials and exact scalars, reference
implementations of the exact kernels, the parser, the dominance sampler, the
ramification solver, center recovery and the secant estimate, and the
benchmark's modules."""

from __future__ import annotations

import importlib.util
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from tansec.errors import (
    InsufficientPointsError,
    NoConsensusError,
    PolyParseError,
    SingularMatrixError,
    SingularTangentJacobianError,
    TansecError,
)
from tansec.linalg import RANK_EPS, chordal_distance, numerical_rank, solve, subspace_intersection
from tansec.newton import NewtonResult
from tansec.poly import GaussianRational, Jet2, Polynomial, random_point
from tansec.projection import CONSENSUS_RADIUS, DEDUP_RADIUS, RamificationSet, _isolated, _point_order, _symmetries
from tansec.tangent import (
    FAILS,
    FD_STEP,
    FD_TOL,
    FLOAT_SAMPLING,
    HOLDS,
    Certificate,
    _meets_success_fraction,
    _sampled_verdict,
    require_normalized,
    tangent_frame,
)
from tansec.variety import NormalizedChart, ParamVariety

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """A module of ``perfbench/`` loaded by path (it is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_fraction(rng: random.Random, bound: int = 10, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


def random_gaussian(rng: random.Random, bound: int = 10, imag_prob: float = 0.3) -> GaussianRational:
    re = random_fraction(rng, bound)
    im = random_fraction(rng, bound) if rng.random() < imag_prob else Fraction(0)
    return GaussianRational(re, im)


def random_polynomial(
    rng: random.Random,
    num_vars: int,
    max_degree: int = 3,
    max_terms: int = 5,
    bound: int = 10,
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(num_vars))
        terms[exps] = random_gaussian(rng, bound)
    return Polynomial(num_vars, terms)


# -- reference exact linear algebra ------------------------------------------------
#
# Plain Gaussian elimination with row swaps over Gaussian rationals: the exact
# path as it was before the fraction-free kernel, kept as an independent
# reference for it.


def _coerce_rows(rows) -> list[list[GaussianRational]]:
    return [[GaussianRational.coerce(x) for x in row] for row in rows]


def reference_eliminate(rows, rhs=None):
    """Row echelon form by elimination with row swaps only: each column's
    pivot is its first nonzero entry at or below the current row.  Returns
    (pivot columns, sign of the row permutation, echelon, rhs')."""
    a = _coerce_rows(rows)
    b = [GaussianRational.coerce(x) for x in rhs] if rhs is not None else None
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


def reference_rank(rows) -> int:
    return len(reference_eliminate(rows)[0]) if rows and rows[0] else 0


def reference_det(rows) -> GaussianRational:
    n = len(rows)
    pivots, sign, echelon, _ = reference_eliminate(rows)
    if len(pivots) < n:
        return GaussianRational(0)
    det = GaussianRational(sign)
    for k in range(n):
        det = det * echelon[k][k]
    return det


def reference_solve(rows, rhs) -> list[GaussianRational]:
    """Back substitution on the reference echelon form of a nonsingular system."""
    _, _, a, b = reference_eliminate(rows, rhs)
    n = len(a)
    x = [GaussianRational(0)] * n
    for k in range(n - 1, -1, -1):
        acc = b[k]
        for j in range(k + 1, n):
            acc = acc - a[k][j] * x[j]
        x[k] = acc / a[k][k]
    return x


def reference_contraction(T, xi) -> list[list[GaussianRational]]:
    """H(xi)[i][j] = sum_k T[i][j][k] xi_k in Gaussian rational arithmetic."""
    n = len(xi)
    xs = [GaussianRational.coerce(x) for x in xi]
    out = []
    for Ti in T:
        row = []
        for j in range(n):
            acc = GaussianRational(0)
            for k in range(n):
                acc = acc + Ti[j][k] * xs[k]
            row.append(acc)
        out.append(row)
    return out


def leibniz_det(entries, zero, one):
    """Determinant by the Leibniz formula over the permutations of the rows;
    ``zero`` and ``one`` are the ring's constants."""
    from itertools import permutations

    n = len(entries)
    total = zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = one
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + term if inversions % 2 == 0 else total - term
    return total


# -- reference polynomial construction ------------------------------------------
#
# The expression parser as it was before term-map parsing: every sum, product
# and power is Polynomial arithmetic.  Kept as an independent reference for
# the parser's terms, their order and its errors.


class _ReferenceParser:
    def __init__(self, text: str, num_vars: int):
        self.text = text
        self.n = num_vars
        self.pos = 0

    def error(self, message: str, pos: int | None = None):
        raise PolyParseError(message, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            self.error(f"expected '{char}'")
        self.pos += 1

    def parse(self) -> Polynomial:
        self.skip_ws()
        result = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return result

    def expr(self) -> Polynomial:
        self.skip_ws()
        negate = False
        if self.peek() == "-":
            negate = True
            self.pos += 1
        total = self.term()
        if negate:
            total = -total
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                return total
            self.pos += 1
            rhs = self.term()
            total = total + rhs if op == "+" else total - rhs

    def term(self) -> Polynomial:
        total = self.factor()
        while True:
            self.skip_ws()
            if self.peek() != "*":
                return total
            self.pos += 1
            total = total * self.factor()

    def factor(self) -> Polynomial:
        base = self.base()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            if self.peek() == "^":
                self.error("unexpected '^'")
            exponent = self.nat("exponent")
            return base ** exponent
        return base

    def base(self) -> Polynomial:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.skip_ws()
            self.expect(")")
            return inner
        if ch == "i":
            self.pos += 1
            return Polynomial.const(self.n, GaussianRational(0, 1))
        if ch == "u":
            start = self.pos
            self.pos += 1
            index = self.nat("variable index")
            if not 1 <= index <= self.n:
                self.error(f"variable u{index} out of range for {self.n} variables", start)
            return Polynomial.variable(self.n, index - 1)
        if ch.isdecimal():
            num = self.nat("number")
            self.skip_ws()
            if self.peek() == "/":
                slash = self.pos
                self.pos += 1
                self.skip_ws()
                den = self.nat("denominator")
                if den == 0:
                    self.error("zero denominator", slash)
                return Polynomial.const(self.n, Fraction(num, den))
            return Polynomial.const(self.n, num)
        self.error("expected a number, 'i', a variable, or '('")

    def nat(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error(f"expected {what}")
        return int(self.text[start : self.pos])


def reference_parse_poly(text: str, num_vars: int) -> Polynomial:
    return _ReferenceParser(text, num_vars).parse()


def reference_eval(p: Polynomial, point) -> GaussianRational:
    """p at a point of exact scalars, term by term in Gaussian rationals."""
    if len(point) != p.num_vars:
        raise ValueError("point has wrong length")
    vals = [GaussianRational.coerce(x) for x in point]
    total = GaussianRational(0)
    for exps, c in p.terms.items():
        term = c
        for v, e in zip(vals, exps):
            for _ in range(e):
                term = term * v
        total = total + term
    return total


def reference_partial(p: Polynomial, index: int) -> Polynomial:
    """d p / d u_{index+1} through the public, validating constructor."""
    out = {}
    for exps, c in p.terms.items():
        if exps[index]:
            lowered = list(exps)
            lowered[index] -= 1
            out[tuple(lowered)] = c * exps[index]
    return Polynomial(p.num_vars, out)


# -- reference dominance sampling ------------------------------------------------
#
# The dominance certificate and its finite-difference cross-check as they were
# before stacked evaluation: one sample point at a time, every solve through
# ``linalg.solve``.  Kept as an independent reference for the stacked sampler.


def reference_parameter_jet(chart, w):
    """v(w), dv/dw and the graph map's jet at v(w) for one parameter point."""
    w = np.asarray(w, dtype=complex)
    n = chart.n
    jet = chart.psi.jet2(w)
    z = chart.A @ (jet.value - chart.psi0)
    AJ = chart.A @ jet.jacobian
    AH = np.einsum("ab,bjk->ajk", chart.A, jet.hessian)
    K = solve(AJ[:n], np.eye(n, dtype=complex))
    jac = AJ[n:] @ K
    G1 = np.einsum("ijk,ja,kb->iab", AH[:n], K, K)
    G2 = np.einsum("ijk,ja,kb->iab", AH[n:], K, K)
    hess = G2 - np.einsum("il,lab->iab", jac, G1)
    hess = (hess + hess.transpose(0, 2, 1)) / 2
    return z[:n], AJ[:n], Jet2(value=z[n:], jacobian=jac, hessian=hess)


def _reference_solve(A, b):
    """``linalg.solve``, raising SingularTangentJacobianError as p does."""
    try:
        return solve(A, b)
    except SingularMatrixError as exc:
        raise SingularTangentJacobianError(str(exc)) from exc


def _reference_p_differential(jet):
    w = _reference_solve(jet.jacobian, jet.value)
    return _reference_solve(jet.jacobian, np.einsum("ikl,k->il", jet.hessian, w))


def _reference_p(G, x):
    """p at one sample point: u on a graph, a parameter point w on a chart."""
    if isinstance(G, NormalizedChart):
        n = G.n
        z = G.A @ (G.psi.value_at(x) - G.psi0)
        AJ = G.A @ G.psi.jacobian_at(x)
        return z[:n] - AJ[:n] @ _reference_solve(AJ[n:], z[n:])
    jet = G.jet_at(x)
    return x - _reference_solve(jet.jacobian, jet.value)


def reference_p_jacobian_fd(G, u, h):
    n = G.n
    step = h * max(1.0, float(np.linalg.norm(u)))
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        cols.append((_reference_p(G, u + e) - _reference_p(G, u - e)) / (2 * step))
    return np.column_stack(cols)


def _reference_sample(G, box, rng):
    x = random_point(G.n, box, rng)
    return G.u0 + x if isinstance(G, NormalizedChart) else x


def _reference_differential(G, x):
    if isinstance(G, NormalizedChart):
        _, dv, jet = reference_parameter_jet(G, x)
        return _reference_p_differential(jet), dv
    return _reference_p_differential(G.jet_at(x)), None


def reference_dominance_certificate(G, trials, rng, box):
    require_normalized(G)
    n = G.n
    successes = singular = failures = 0
    witness = None
    for _ in range(trials):
        x = _reference_sample(G, box, rng)
        try:
            Jp = _reference_differential(G, x)[0]
        except SingularTangentJacobianError:
            singular += 1
            continue
        except TansecError:
            failures += 1
            continue
        if numerical_rank(Jp).rank == n:
            successes += 1
            if witness is None:
                witness = x
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


def reference_jacobian_agreement(G, trials, box, rng) -> dict:
    agree = failures = 0
    worst = 0.0
    for _ in range(trials):
        x = _reference_sample(G, box, rng)
        try:
            closed, dv = _reference_differential(G, x)
            if dv is not None:
                closed = closed @ dv
            fd = reference_p_jacobian_fd(G, x, FD_STEP)
            scale = max(1.0, float(np.abs(closed).max()))
            err = float(np.abs(closed - fd).max()) / scale
            if err > FD_TOL:
                fd = (4 * reference_p_jacobian_fd(G, x, FD_STEP / 2) - fd) / 3
                err = float(np.abs(closed - fd).max()) / scale
        except TansecError:
            failures += 1
            continue
        worst = max(worst, err)
        if err <= FD_TOL:
            agree += 1
    check = {
        "samples": trials,
        "agreeing": agree,
        "max_relative_error": worst,
        "verdict": HOLDS if _meets_success_fraction(agree, trials) else FAILS,
    }
    if failures:
        check["evaluation_failures"] = failures
    return check


# -- reference ramification solving ------------------------------------------------
#
# Damped Newton and the multi-start ramification loop as they were before the
# starts ran in stacked waves: one start at a time, one ``linalg.solve`` per
# iterate, and a one-entry jet cache so that the residual and the Jacobian at
# a point come from one jet; the starts are read in the order they stop,
# and each listed root is followed by its symmetric images, one at a time.
# Kept as an independent reference for ``stacked_newton`` and
# ``ramification_points``.


def reference_damped_newton(residual, jacobian, start, cfg):
    """(NewtonResult, the number of trial points evaluated): every point
    tried after the start, accepted or halved, is one trial."""
    x = np.asarray(start, dtype=complex)
    r = np.asarray(residual(x), dtype=complex)
    rn = float(np.linalg.norm(r))
    trials = 0
    for it in range(cfg.max_iters):
        if rn <= cfg.tol:
            return NewtonResult(x, rn, True, it), trials
        try:
            step = solve(jacobian(x), r)
        except SingularMatrixError:
            return NewtonResult(x, rn, False, it), trials
        t = 1.0
        for _ in range(cfg.max_halvings + 1):
            x_new = x - t * step
            r_new = np.asarray(residual(x_new), dtype=complex)
            rn_new = float(np.linalg.norm(r_new))
            trials += 1
            if rn_new < rn:
                break
            t /= 2.0
        else:
            return NewtonResult(x, rn, False, it), trials
        x, r, rn = x_new, r_new, rn_new
    return NewtonResult(x, rn, rn <= cfg.tol, cfg.max_iters), trials


def reference_ramification(G, P, cfg, rng):
    """``ramification_points`` one start at a time; the same RamificationSet.

    Every start runs alone; the starts are then read in the order (trial
    points evaluated before the start stopped, draw index), which is the
    order in which the one wave stops them, up to the Bezout stop.  A listed
    endpoint is followed by its mirror image, its conjugate and the
    conjugate of its mirror image, where ``_symmetries`` says they apply;
    the mirror image is evaluated on its own, a conjugate takes the
    conjugated residual and Jacobian of its source, and each passes the
    endpoint's dedup, isolation and multiple-root rules."""
    n = G.n
    p1, p2 = P.affine()
    conjugate, mirror = _symmetries(G, P)
    if isinstance(G, ParamVariety):
        poly, dim, center, target = G.psi, 2 * n, 0.0, np.concatenate([p1, p2])

        def jet_of(x):
            return poly.jet2(x[:n])

        def residual(jet, x):
            return jet.value + jet.jacobian @ x[n:] - target

        def jacobian(jet, x):
            return np.hstack([jet.jacobian + np.einsum("ijk,k->ij", jet.hessian, x[n:]), jet.jacobian])

    else:
        poly, jet_of, dim, center = G.f, G.jet_at, n, p1

        def residual(jet, u):
            return jet.value + jet.jacobian @ (p1 - u) - p2

        def jacobian(jet, u):
            return np.einsum("ikl,k->il", jet.hessian, p1 - u)

    last: list = [None, None]

    def jet(x):
        if last[0] is None or not np.array_equal(last[0], x):
            last[:] = [x.copy(), jet_of(x)]
        return last[1]

    bezout = math.prod(max(p.degree(), 1) for p in poly.components)
    step = DEDUP_RADIUS / (2 * bezout)
    reps = []  # (point, residual norm, whether it counts toward the Bezout number)
    starts = converged = counted = images = 0

    def listed(x, r, J) -> bool:
        nonlocal counted
        rn = float(np.linalg.norm(r))
        if any(np.linalg.norm(x - y) <= DEDUP_RADIUS for y, _, _ in reps):
            return False
        counts = bool(_isolated(J[None], r[None], step)[0])
        if not counts and any(np.linalg.norm(x - y) <= 2 * cfg.tol ** (1 / bezout) for y, _, c in reps if not c):
            return False
        reps.append((x, rn, counts))
        counted += counts
        return True

    runs = [
        reference_damped_newton(
            lambda x: residual(jet(x), x), lambda x: jacobian(jet(x), x), center + random_point(dim, cfg.box, rng), cfg
        )
        for _ in range(cfg.starts)
    ]
    for k in sorted(range(cfg.starts), key=lambda k: (runs[k][1], k)):
        if counted == bezout:
            break
        starts += 1
        result = runs[k][0]
        if not (result.converged and result.residual <= cfg.tol):
            continue
        converged += 1
        x = result.point
        orbit = [(x, residual(jet(x), x), jacobian(jet(x), x))]
        if mirror:
            m = 2 * center - x
            orbit.append((m, residual(jet(m), m), jacobian(jet(m), m)))
        if conjugate:
            orbit += [(y.conj(), r.conj(), J.conj()) for y, r, J in orbit]
        if not listed(*orbit[0]):
            continue
        for image in orbit[1:]:
            if counted == bezout:
                break
            images += listed(*image)

    reps.sort(key=lambda rep: _point_order(rep[0]))
    return RamificationSet(
        points=[x[:n] for x, _, _ in reps],
        residuals=[rn for _, rn, _ in reps],
        starts=starts,
        converged=converged,
        images=images,
        bezout=bezout,
        complete=counted == bezout,
    )


# -- reference recovery and secant estimate ----------------------------------------
#
# Center recovery and the secant estimate as they were before their frames
# were stacked: one tangent frame per point, one ``subspace_intersection``
# per frame pair, one ``chordal_distance`` per compared pair, and one rank
# per secant trial.  Kept as independent references for the stacked forms.


def reference_recover_center(G, R):
    """``recover_center`` as a loop over the frame pairs; the same report."""
    if len(R) < 2:
        raise InsufficientPointsError(f"need at least 2 ramification points, got {len(R)}")
    frames = [tangent_frame(G, u) for u in sorted(R.points, key=_point_order)]
    pair_points = []
    skipped = 0
    for i, j in combinations(range(len(frames)), 2):
        X = subspace_intersection(frames[i].matrix, frames[j].matrix)
        if X.shape[0] != 1:
            skipped += 1
            continue
        pair_points.append(X[0] / X[0][int(np.argmax(np.abs(X[0])))])
    if not pair_points:
        raise NoConsensusError("every frame pair met non-transversally")
    clusters: list[list[int]] = []
    for idx, pt in enumerate(pair_points):
        for cluster in clusters:
            if chordal_distance(pt, pair_points[cluster[0]]) <= CONSENSUS_RADIUS:
                cluster.append(idx)
                break
        else:
            clusters.append([idx])
    largest = max(clusters, key=len)
    if 2 * len(largest) < len(pair_points):
        raise NoConsensusError(f"largest cluster holds {len(largest)} of {len(pair_points)} pairs")
    members = [pair_points[i] for i in largest]
    sums = [sum(chordal_distance(m, other) for other in members) for m in members]
    spread = max((chordal_distance(a, b) for a, b in combinations(members, 2)), default=0.0)
    report = {
        "pairs_total": len(pair_points) + skipped,
        "pairs_used": len(pair_points),
        "pairs_skipped": skipped,
        "cluster_size": len(largest),
        "spread": spread,
    }
    return members[int(np.argmin(sums))], report


def reference_secant_dim_estimate(G, trials, rng):
    """``secant_dim_estimate`` one trial at a time: (estimate, successes,
    rank distribution, evaluation failures)."""
    n = G.n
    distribution: dict[int, int] = {}
    failures = 0
    for _ in range(trials):
        u = random_point(n, 1.0, rng)
        v = random_point(n, 1.0, rng)
        try:
            stacked = np.vstack([tangent_frame(G, u).matrix, tangent_frame(G, v).matrix])
        except TansecError:
            failures += 1
            continue
        r = numerical_rank(stacked).rank
        distribution[r] = distribution.get(r, 0) + 1
    best = max(distribution, default=0)
    return best - 1, distribution.get(best, 0), dict(sorted(distribution.items())), failures


def reference_param_fullness(V, trials, rng):
    """``tan_is_full`` on a ParamVariety one point (w, a) at a time, with
    K(w, a) = [Dpsi(w) + D2psi(w)[a, .] | Dpsi(w)] built from a one-point
    jet and its rows scaled to unit norm: (successes, the first full point
    or None)."""
    n = V.n
    successes = 0
    witness = None
    for _ in range(trials):
        x = random_point(2 * n, 1.0, rng)
        jet = V.psi.jet2(x[:n])
        K = np.hstack([jet.jacobian + np.einsum("ijk,k->ij", jet.hessian, x[n:]), jet.jacobian])
        s = np.linalg.svd([row / (np.linalg.norm(row) or 1) for row in K], compute_uv=False)
        if s[0] > 0 and s[-1] > 1e-8 * s[0]:
            successes += 1
            if witness is None:
                witness = x
    return successes, witness
