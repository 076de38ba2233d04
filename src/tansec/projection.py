"""Linear projection from a point, ramification loci, and center recovery.

P lies in the tangent space at a point of the variety exactly when a square
system vanishes there: for a graph and a center with affine blocks (P1, P2),

    g_P(u) = f(u) + f_u(u) (P1 - u) - P2 = 0,

and for a parametrization psi, in the 2n unknowns (w, a) with P affine,
F(w, a) = psi(w) + Dpsi(w) a - P = 0.  Either is one stacked system: a stack
of unknowns gets its residuals and Jacobians from one stacked jet.  All the
starts run as one ``stacked_newton`` wave, which names the starts that
stopped in each of its rounds; its results, read in that order (draw order
within a round), end the solve once they hold as many isolated roots as the
Bezout number, which makes the root set complete.  Each root listed from a
start brings its images under the symmetries the parsed input and the
center decide exactly (conjugation when every coefficient and P are real,
the mirror u -> 2 P1 - u on a graph of degree at most 2), and they count
toward that stop too.
Recovery then builds the tangent frames at the found points as one stack,
intersects every pair of them from stacked SVDs, and takes the consensus
cluster; a legitimate run on a generic center has one dominant cluster, so
a split vote is surfaced as NoConsensus rather than papered over.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CenterHitError,
    DegenerateInputError,
    InsufficientPointsError,
    NoConsensusError,
)
from .linalg import chordal_distance, stacked_rank, stacked_solve
from .newton import NewtonConfig, stacked_newton
from .poly import random_point
from .tangent import CHUNK, Certificate, bundle_matrix, bundle_rank_cross_check, frame_pair_points, tangent_frame
from .variety import ParamVariety

CONSENSUS_RADIUS = 1e-6
RECOVERY_TOL = 1e-6
# double roots are found to ~sqrt(tol) only, so the dedup radius must sit
# comfortably above that scale for them to collapse to one point
DEDUP_RADIUS = 1e-5


class Center:
    """A projection center: a point of P^(2n), usually given in the graph
    chart as affine blocks (P1, P2) of length n each."""

    __slots__ = ("proj", "n")

    def __init__(self, proj, n: int):
        proj = np.asarray(proj, dtype=complex)
        if proj.shape != (2 * n + 1,):
            raise ValueError("projective representative must have length 2n+1")
        if not np.any(proj):
            raise ValueError("projective representative must be nonzero")
        self.proj = proj
        self.n = n

    @classmethod
    def from_affine(cls, p1, p2) -> "Center":
        p1 = np.asarray(p1, dtype=complex)
        p2 = np.asarray(p2, dtype=complex)
        if p1.shape != p2.shape or p1.ndim != 1:
            raise ValueError("affine blocks must be vectors of equal length")
        return cls(np.concatenate([[1.0], p1, p2]), len(p1))

    @classmethod
    def from_projective(cls, coords) -> "Center":
        coords = np.asarray(coords, dtype=complex)
        if coords.ndim != 1 or coords.shape[0] % 2 == 0:
            raise ValueError("projective coordinates must have odd length 2n+1")
        return cls(coords, (coords.shape[0] - 1) // 2)

    def affine(self) -> tuple[np.ndarray, np.ndarray]:
        """Chart-affine blocks (P1, P2); requires a nonzero leading coordinate."""
        lead = self.proj[0]
        if abs(lead) <= 1e-12 * float(np.abs(self.proj).max()):
            raise ValueError("center lies on the hyperplane at infinity of the chart")
        aff = self.proj[1:] / lead
        return aff[: self.n], aff[self.n :]

    def __repr__(self) -> str:
        return f"Center({self.proj.tolist()!r})"


def project(P: Center, x) -> np.ndarray:
    """Image of a projective point under the linear projection from P.

    The projection is the fixed surjection C^(2n+1) -> C^(2n) that deletes
    the coordinate of P's largest-modulus entry after subtracting the induced
    multiple of P, so its kernel is exactly the line through P.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != P.proj.shape:
        raise ValueError("point and center live in different spaces")
    k = int(np.argmax(np.abs(P.proj)))
    q = P.proj / P.proj[k]
    y = x - x[k] * q
    if np.linalg.norm(y) <= 1e-9 * np.linalg.norm(x):
        raise CenterHitError("point coincides with the projection center")
    return np.delete(y, k)


# -- ramification ------------------------------------------------------------------


def _ramification_system(G, P: Center):
    """The ramification system of G and P as a function of an (S, d) stack of
    unknowns, returning the (S, d) residuals and (S, d, d) Jacobians from one
    stacked jet; with d, the center of the start box and the map whose
    degrees give the Bezout number."""
    n = G.n
    p1, p2 = P.affine()
    if isinstance(G, ParamVariety):
        target = np.concatenate([p1, p2])

        def system(X):
            # F(w, a) = psi(w) + Dpsi(w) a - P, Jacobian [Dpsi + D2psi[a, .] | Dpsi]
            jet, a = G.psi.jet2(X[:, :n]), X[:, n:]
            return jet.value + np.einsum("sij,sj->si", jet.jacobian, a) - target, bundle_matrix(jet, a)

        return system, 2 * n, 0.0, G.psi

    def system(U):
        # g_P(u) = f(u) + f_u(u) a - P2 with a = P1 - u, Jacobian f_uu(u)[a, .]
        jet, a = G.jet_at(U), p1 - U
        g = jet.value + np.einsum("sij,sj->si", jet.jacobian, a) - p2
        return g, np.einsum("sikl,sk->sil", jet.hessian, a)

    return system, n, p1, G.f


def ramification_residual(G, P: Center, u) -> np.ndarray:
    """g_P(u) = f(u) + f_u(u) (P1 - u) - P2; zero iff P lies in the tangent
    space at (u, f(u)).  For a parametrization, F at u = (w, a)."""
    system = _ramification_system(G, P)[0]
    return system(np.asarray(u, dtype=complex)[None])[0][0]


def ramification_jacobian(G, P: Center, u) -> np.ndarray:
    """dg_P(eta) = f_uu(u)[P1 - u, eta]; the first-order terms cancel.  For a
    parametrization, the Jacobian of F at u = (w, a)."""
    system = _ramification_system(G, P)[0]
    return system(np.asarray(u, dtype=complex)[None])[1][0]


def _isolated(J: np.ndarray, r: np.ndarray, step: float) -> np.ndarray:
    """Which roots of a stack, with system Jacobians J (k, d, d) and
    residuals r (k, d), count toward the Bezout number: the Newton step
    J^-1 r passes ``stacked_solve``'s rank threshold and residual bound, and
    is at most ``step``.  One stacked solve; a slice that is not finite does
    not count."""
    x, ok = stacked_solve(J, r)
    return ok & (np.linalg.norm(x, axis=1) <= step)


def _symmetries(G, P: Center) -> tuple[bool, bool]:
    """(conjugate, mirror): the symmetries that map roots of the
    ramification system of G and P to roots, decided from the parsed
    coefficients and the center, never from a numerical test.  Conjugation
    x -> conj(x) applies when every coefficient of f or psi and every
    coordinate of P is real.  The mirror u -> 2 P1 - u applies to a graph
    whose components all have degree at most 2: with v = u - P1 its system
    is g_P = f(P1) - P2 - H[v, v]/2, even in v."""
    poly = G.psi if isinstance(G, ParamVariety) else G.f
    conjugate = not P.proj.imag.any() and all(not c.im for p in poly.components for c in p.terms.values())
    return conjugate, not isinstance(G, ParamVariety) and poly.degree() <= 2


def _point_order(point: np.ndarray) -> tuple:
    """Sort key of a root: its (real, imaginary) parts on the DEDUP_RADIUS
    grid, so that exact ties stay ties under round-off, then the parts."""
    grid = tuple((round(z.real / DEDUP_RADIUS), round(z.imag / DEDUP_RADIUS)) for z in point)
    return grid, tuple((z.real, z.imag) for z in point)


@dataclass
class RamificationSet:
    """Converged, deduplicated roots (graph parameters u, or parameter
    values w for a ParamVariety) plus solver statistics.

    An empty ``points`` list is the no-solutions verdict, not an exception.
    ``starts`` counts the starts read before the stop, in the order Newton
    names them stopped: by the number of trial points a start evaluated
    before it stopped, then by draw index; the wave ends at the round of
    the stop, and the starts still running then, or stopped in it after the
    start that reached the stop, are not read.  The wave holds at most starts * d^2 complex Jacobian
    entries for d unknowns: 16 KB at the default 64 starts and d = 4, 64 KB
    at d = 8.  ``converged`` counts the starts read before the stop that
    reached a root, listed or not.  ``images`` counts the listed points
    that came from a symmetry of the system rather than from a start, so
    the count of points may exceed ``converged``.  ``complete`` says the
    roots hold ``bezout`` isolated ones, hence every isolated root.
    """

    points: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    starts: int = 0
    converged: int = 0
    images: int = 0
    bezout: int = 0
    complete: bool = False

    def __len__(self) -> int:
        return len(self.points)

    @property
    def found(self) -> bool:
        return bool(self.points)


def ramification_points(
    G, P: Center, cfg: NewtonConfig | None = None, rng: random.Random | None = None
) -> RamificationSet:
    """Multi-start damped Newton on the ramification system of G and P.

    A graph solves g_P(u) = 0 from starts in a box centered at P1 (for
    quadratic graphs the residual is a quadratic centered there).  A
    ParamVariety solves F(w, a) = 0 from (w, a) in a box around 0, one
    ``psi.jet2`` giving F and its Jacobian [Dpsi + D2psi[a, .] | Dpsi].
    Starts are complex because the locus generally contains non-real points.

    The starts stop once the counted roots reach the Bezout number
    B = prod max(deg, 1) over the components of f or psi, a bound on the
    isolated roots with multiplicity.  All cfg.starts starts run as one
    ``stacked_newton`` wave, read round by round: Newton names the starts
    that stopped in each round, in draw order.  A start stops in the round
    equal to the number of trial points it evaluated, so the read order,
    (trial count, draw index), depends on each start alone, and the stop falls at the same start as in
    a one-at-a-time loop that runs every start and reads them in that order;
    the wave ends at the round of the stop, so a slow early start does not
    hold it back.  A new root counts when the system Jacobian has full rank
    there and the Newton step is below DEDUP_RADIUS/2B: a root of
    multiplicity m <= B leaves Newton endpoints about m steps from it, so
    none is counted twice.  An endpoint that does
    not count joins a listed one that does not count either within
    2 tol^(1/B): Newton stops about (tol/|c|)^(1/m) from an m-fold root,
    m <= B, so that holds the endpoints of one multiple root whose leading
    coefficient has |c| >= 1 together.

    Each endpoint listed is followed, before the next start read, by its
    images under the symmetries ``_symmetries`` decides from the parsed
    coefficients and the center: its mirror image 2 P1 - u, its
    conjugate, and the conjugate of its mirror image.  An image passes the
    same dedup, Bezout-count and multiple-root rules as an endpoint and
    counts toward the stop, so ``count`` may exceed ``converged``.  The
    orbits of a round's new endpoints, those farther than DEDUP_RADIUS from
    every root listed before the round, are built as one stack with no
    system call: a mirror image takes its source's residual and negated
    Jacobian (g_P is even in u - P1, its Jacobian odd), a conjugate its
    source's conjugated ones (the system commutes with conjugation there),
    so a listed image carries its source's residual norm; the isolation
    test of all of them is one ``stacked_solve``.  Points are sorted by
    their (real, imaginary) parts on the DEDUP_RADIUS grid
    (``_point_order``), so the output depends neither on completion order
    nor on round-off.
    """
    cfg = cfg or NewtonConfig()
    rng = rng or random.Random(0)
    system, dim, center, poly = _ramification_system(G, P)
    conjugate, mirror = _symmetries(G, P)
    bezout = math.prod(max(p.degree(), 1) for p in poly.components)
    step_bound = DEDUP_RADIUS / (2 * bezout)
    multiple_radius = 2 * cfg.tol ** (1 / bezout)
    found = np.empty((0, dim), dtype=complex)
    simple = np.empty(0, dtype=bool)  # whether each listed root counts
    residuals: list[float] = []
    starts = converged = counted = images = 0

    def admit(x, residual, counts) -> bool:
        # the dedup and multiple-root rules; lists x when they pass
        nonlocal found, simple, counted
        distance = np.linalg.norm(found - x, axis=1)
        if (distance <= DEDUP_RADIUS).any() or not counts and (distance[~simple] <= multiple_radius).any():
            return False
        found, simple = np.vstack([found, x]), np.append(simple, counts)
        residuals.append(residual)
        counted += counts
        return True

    def orbits(out, slices) -> list:
        # each endpoint of the slices followed by its images (mirror,
        # conjugate, conjugate mirror), with their residual norms and whether
        # each counts: an image's residual and Jacobian are its source's,
        # negated Jacobian for a mirror image (g_P is even in u - P1) and
        # conjugated for a conjugate, and the isolation solves are one stack
        X, R, J = out.points[slices, None], out.values[slices, None], out.jacobians[slices, None]
        if mirror:
            X, R, J = (np.concatenate(pair, axis=1) for pair in ((X, 2 * center - X), (R, R), (J, -J)))
        if conjugate:
            X, R, J = (np.concatenate([a, a.conj()], axis=1) for a in (X, R, J))
        counts = _isolated(J.reshape(-1, dim, dim), R.reshape(-1, dim), step_bound).reshape(X.shape[:2])
        return list(zip(X, np.linalg.norm(R, axis=2).tolist(), counts.tolist()))

    def read(out, stopped) -> bool:
        # take the slices of the wave that stopped in this round, in draw
        # order, each endpoint listed followed by its images; the wave ends
        # once the Bezout stop is reached
        nonlocal starts, converged, images
        ready = stopped[out.converged[stopped]]
        # only an endpoint farther than DEDUP_RADIUS from every root listed
        # before this round can be listed; their orbits are one stack
        new = ready[(np.linalg.norm(out.points[ready, None] - found, axis=2) > DEDUP_RADIUS).all(axis=1)]
        for i, orbit in zip(new.tolist(), orbits(out, new) if len(new) else ()):
            for j, (x, residual, counts) in enumerate(zip(*orbit)):
                if admit(x, residual, counts):
                    images += j > 0
                elif not j:
                    break
                if counted == bezout:
                    converged += int(np.count_nonzero(ready <= i))
                    starts += int(np.count_nonzero(stopped <= i))
                    return True
        converged += len(ready)
        starts += len(stopped)
        return False

    draws = random_point(cfg.starts * dim, cfg.box, rng).reshape(cfg.starts, dim)
    stacked_newton(system, center + draws, cfg, read)
    order = sorted(range(len(found)), key=lambda k: _point_order(found[k]))
    return RamificationSet(
        points=list(found[order, : G.n]),
        residuals=[residuals[k] for k in order],
        starts=starts,
        converged=converged,
        images=images,
        bezout=bezout,
        complete=counted == bezout,
    )


def _frames(G, U) -> np.ndarray:
    """The tangent frames at an (k, n) stack of points, from one stacked
    ``tangent_frame``; raises DegenerateInputError, as a frame at one point
    does, when one of them has dependent rows."""
    M, full = tangent_frame(G, U)
    if not full.all():
        raise DegenerateInputError("tangent frame rows are not independent")
    return M


def tangent_membership(G, P: Center, u):
    """Check that P lies in the tangent space of G at the point with
    parameter u: appending P to the tangent frame must not raise the rank.

    u may also be a (k, n) stack of points, which gives a boolean mask from
    one stacked frame build and one ``stacked_rank``.
    """
    u = np.asarray(u, dtype=complex)
    M = _frames(G, u if u.ndim == 2 else u[None])
    with_center = np.concatenate([M, np.broadcast_to(P.proj, (len(M), 1, M.shape[2]))], axis=1)
    member = stacked_rank(with_center) == G.n + 1
    return member if u.ndim == 2 else bool(member[0])


# -- recovery ----------------------------------------------------------------------


def _chordal_block(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``chordal_distance(x, y)`` for every unit row x of X and y of Y, as
    an (|X|, |Y|) matrix: the norm of y's component orthogonal to x, which
    stays accurate for tiny angles."""
    c = X.conj() @ Y.T
    return np.minimum(np.linalg.norm(Y[None] - X[:, None] * c[:, :, None], axis=2), 1.0)


def recover_center(G, R: RamificationSet):
    """Recover the projection center from its ramification locus.

    Every pair of tangent frames at points of R is intersected, the frames
    built as one stack and the pairs i < j taken in ``combinations`` order,
    in stacks of at most CHUNK, by ``frame_pair_points``; a pair is used
    when it meets transversally, in one point.  Those points are clustered
    greedily in the chordal metric, each joining the first cluster whose
    first point lies within CONSENSUS_RADIUS, and the member of the largest
    cluster with the least summed distance to the others is returned
    together with spread statistics.  The frames are taken in
    ``_point_order``, so the result depends on the point set and not on its
    order.  Raises InsufficientPoints for |R| < 2 and NoConsensus when the
    largest cluster holds fewer than half of the computed pairs.
    """
    if len(R) < 2:
        raise InsufficientPointsError(f"need at least 2 ramification points, got {len(R)}")
    M = _frames(G, np.array(sorted(R.points, key=_point_order)))
    first, second = np.triu_indices(len(M), 1)
    dims = np.empty(len(first), dtype=int)
    points = np.empty((len(first), M.shape[2]), dtype=complex)
    for start in range(0, len(first), CHUNK):
        pairs = slice(start, start + CHUNK)
        dims[pairs], points[pairs] = frame_pair_points(M[first[pairs]], M[second[pairs]])
    pair_points = points[dims == 1]
    if not len(pair_points):
        raise NoConsensusError("every frame pair met non-transversally")

    unit = pair_points / np.linalg.norm(pair_points, axis=1, keepdims=True)
    clusters = []
    free = np.ones(len(unit), dtype=bool)
    while free.any():
        # the first free point founds a cluster: every earlier founder is
        # farther than the radius from it and from the points it takes
        founder = int(np.argmax(free))
        near = free & (_chordal_block(unit[founder : founder + 1], unit)[0] <= CONSENSUS_RADIUS)
        near[founder] = True
        clusters.append(np.flatnonzero(near))
        free &= ~near
    largest = max(clusters, key=len)
    if 2 * len(largest) < len(pair_points):
        raise NoConsensusError(
            f"largest cluster holds {len(largest)} of {len(pair_points)} pairs"
        )

    # the members' distances, in blocks of rows of at most CHUNK^2 entries
    members = unit[largest]
    sums = np.empty(len(members))
    spread = 0.0
    rows = max(1, CHUNK * CHUNK // len(members))
    for start in range(0, len(members), rows):
        D = _chordal_block(members[start : start + rows], members)
        sums[start : start + rows] = D.sum(axis=1)
        spread = max(spread, float(np.triu(D, start + 1).max(initial=0.0)))
    report = {
        "pairs_total": len(first),
        "pairs_used": len(pair_points),
        "pairs_skipped": len(first) - len(pair_points),
        "cluster_size": len(largest),
        "spread": spread,
    }
    return pair_points[largest[int(np.argmin(sums))]], report


@dataclass
class RoundtripReport:
    """Outcome of project -> ramify -> recover against a known center."""

    status: str  # success | failed | hypothesis_not_met | insufficient_points | no_consensus
    fullness: Certificate
    ramification: RamificationSet | None = None
    recovered: np.ndarray | None = None
    distance: float | None = None
    consensus: dict | None = None

    @property
    def succeeded(self) -> bool:
        return self.status == "success"


def roundtrip(
    G,
    P: Center,
    cfg: NewtonConfig | None = None,
    rng: random.Random | None = None,
    trials: int = 100,
) -> RoundtripReport:
    """Chordal distance between P and the center recovered from its own
    ramification locus.

    Fullness is certified on G itself, the variety the ramification system
    is solved on, by the exact det K test ``bundle_rank_cross_check`` from
    a fixed rng, so at any base point and whatever the seed.  When it fails,
    with its Schwartz-Zippel bound, the uniqueness claim does not apply and
    the report says so instead of asserting recovery.
    """
    fullness = bundle_rank_cross_check(G, trials, random.Random(0))
    if not fullness.holds:
        return RoundtripReport(status="hypothesis_not_met", fullness=fullness)
    ram = ramification_points(G, P, cfg, rng)
    try:
        recovered, consensus = recover_center(G, ram)
    except InsufficientPointsError:
        return RoundtripReport(status="insufficient_points", fullness=fullness, ramification=ram)
    except NoConsensusError:
        return RoundtripReport(status="no_consensus", fullness=fullness, ramification=ram)
    distance = chordal_distance(recovered, P.proj)
    return RoundtripReport(
        status="success" if distance <= RECOVERY_TOL else "failed",
        fullness=fullness,
        ramification=ram,
        recovered=recovered,
        distance=distance,
        consensus=consensus,
    )
