import cmath
import copy
import random

import numpy as np
import pytest

from helpers import reference_damped_newton, reference_ramification
from tansec.errors import (
    CenterHitError,
    InsufficientPointsError,
    NoConsensusError,
)
from tansec.linalg import _rank_tol, chordal_distance
from tansec import projection
from tansec.newton import NewtonConfig, stacked_newton
from tansec.poly import parse_map, random_point
from tansec.tangent import FAILS, SCHWARTZ_ZIPPEL
from tansec.projection import (
    Center,
    RamificationSet,
    project,
    ramification_jacobian,
    ramification_points,
    ramification_residual,
    recover_center,
    roundtrip,
    tangent_membership,
)
from tansec.variety import GraphVariety, ParamVariety


def graph(exprs, n):
    return GraphVariety(parse_map(exprs, n))


CONIC = graph(["u1^2"], 1)
QUADRIC_PAIR = graph(["u1^2", "u2^2"], 2)
MIXED = graph(["u1^2", "u1*u2"], 2)
CYLINDER = graph(["u1^2", "u1^3"], 2)
BENT = ParamVariety(parse_map(["u1 + u1^2", "u1^2"], 1))


# -- centers and projection ---------------------------------------------------------


def test_center_constructors():
    c = Center.from_affine([3.0], [5.0])
    assert np.allclose(c.proj, [1, 3, 5])
    p1, p2 = c.affine()
    assert np.allclose(p1, [3]) and np.allclose(p2, [5])
    c2 = Center.from_projective([2.0, 6.0, 10.0])
    assert chordal_distance(c.proj, c2.proj) < 1e-12
    with pytest.raises(ValueError):
        Center.from_projective([1.0, 2.0])
    with pytest.raises(ValueError):
        Center.from_projective([0.0, 1.0, 0.0]).affine()


def test_project_coordinate_center_drops_coordinate():
    P = Center.from_projective([0.0, 0.0, 1.0])
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(project(P, x), [1.0, 2.0])


def test_project_center_hit():
    P = Center.from_affine([3.0], [5.0])
    with pytest.raises(CenterHitError):
        project(P, 2.0 * P.proj)


def test_project_well_defined_up_to_scale():
    P = Center.from_affine([1.0, -2.0], [0.5, 3.0])
    x = np.array([1.0, 0.3, -0.7, 2.0, 1.0], dtype=complex)
    y1 = project(P, x)
    y2 = project(P, (2.0 - 1.0j) * x)
    assert chordal_distance(y1, y2) < 1e-12


# -- residual and jacobian ------------------------------------------------------------


def test_residual_conic_closed_form():
    # substitute f = u^2 into g = f + f_u (P1 - u) - P2: g(u) = -u^2 + 6u - 5
    P = Center.from_affine([3.0], [5.0])
    for u in (0.0, 1.0, 2.0, -1.5, 0.5 + 2.0j):
        g = ramification_residual(CONIC, P, [u])
        assert np.allclose(g, [-u * u + 6 * u - 5])


def test_residual_vanishes_on_own_tangent_point():
    a = 0.8
    P = Center.from_affine([a], [a * a])
    assert np.linalg.norm(ramification_residual(CONIC, P, [a])) < 1e-14


def test_residual_of_linear_graph_is_constant():
    g = graph(["0"], 1)
    P = Center.from_affine([2.0], [7.0])
    for u in (0.0, 1.0, -3.0):
        assert np.allclose(ramification_residual(g, P, [u]), [-7.0])


def test_jacobian_conic_hand_value():
    P = Center.from_affine([3.0], [5.0])
    # dg = f_uu (P1 - u) = 2 (3 - 1) = 4; also the derivative of -u^2+6u-5 at 1
    assert np.allclose(ramification_jacobian(CONIC, P, [1.0]), [[4.0]])


def test_jacobian_quadratic_tensor_oracle():
    P = Center.from_affine([0.5, -1.0], [2.0, 0.3])
    u = np.array([0.2, 0.4])
    dg = ramification_jacobian(QUADRIC_PAIR, P, u)
    assert np.allclose(dg, np.diag([2 * (0.5 - 0.2), 2 * (-1.0 - 0.4)]))


def test_jacobian_zero_at_p1():
    P = Center.from_affine([0.7, -0.2], [1.0, 1.0])
    dg = ramification_jacobian(MIXED, P, [0.7, -0.2])
    assert np.linalg.norm(dg) < 1e-14


def test_jacobian_matches_finite_differences():
    rng = random.Random(5)
    for g in (CONIC, QUADRIC_PAIR, MIXED):
        n = g.n
        for _ in range(8):
            P = Center.from_affine(random_point(n, 1.0, rng), random_point(n, 1.0, rng))
            u = random_point(n, 1.0, rng)
            dg = ramification_jacobian(g, P, u)
            h = 1e-6
            fd = np.zeros_like(dg)
            for k in range(n):
                e = np.zeros(n)
                e[k] = h
                fd[:, k] = (
                    ramification_residual(g, P, u + e) - ramification_residual(g, P, u - e)
                ) / (2 * h)
            scale = max(1.0, float(np.abs(dg).max()))
            assert np.abs(dg - fd).max() / scale <= 1e-6


# -- ramification solving ----------------------------------------------------------------


def test_ramification_conic_real_roots():
    # quadratic formula: -u^2 + 6u - 5 = -(u-1)(u-5)
    P = Center.from_affine([3.0], [5.0])
    R = ramification_points(CONIC, P, rng=random.Random(0))
    assert len(R) == 2
    roots = sorted(z[0].real for z in R.points)
    assert abs(roots[0] - 1) < 1e-9 and abs(roots[1] - 5) < 1e-9
    assert all(r <= 1e-12 for r in R.residuals)


def test_ramification_conic_complex_roots():
    # -u^2 - 1 = 0 has roots +-i; the field is the complex numbers
    P = Center.from_affine([0.0], [1.0])
    R = ramification_points(CONIC, P, rng=random.Random(1))
    assert len(R) == 2
    # the real parts are round-off of either sign, so order by imaginary part
    vals = sorted(R.points, key=lambda z: z[0].imag)
    assert abs(vals[0][0].real) < 1e-9 and abs(vals[0][0].imag + 1) < 1e-9
    assert abs(vals[1][0].real) < 1e-9 and abs(vals[1][0].imag - 1) < 1e-9


def test_ramification_quadric_pair_separable_oracle():
    a, b, c, d = 0.4, -0.3, -0.5, 0.7
    P = Center.from_affine([a, b], [c, d])
    R = ramification_points(QUADRIC_PAIR, P, rng=random.Random(2))
    assert len(R) == 4
    exp1 = {a + cmath.sqrt(a * a - c), a - cmath.sqrt(a * a - c)}
    exp2 = {b + cmath.sqrt(b * b - d), b - cmath.sqrt(b * b - d)}
    for pt in R.points:
        assert min(abs(pt[0] - e) for e in exp1) < 1e-9
        assert min(abs(pt[1] - e) for e in exp2) < 1e-9


def test_ramification_membership_certificates():
    P = Center.from_affine([0.6, 0.1], [-0.2, 0.9])
    R = ramification_points(QUADRIC_PAIR, P, rng=random.Random(3))
    assert R.found
    for u in R.points:
        assert tangent_membership(QUADRIC_PAIR, P, u)


def test_ramification_double_root_detected_by_dedup():
    # on the discriminant locus P2 = P1^2 the two roots collide
    P = Center.from_affine([1.0], [1.0])
    R = ramification_points(CONIC, P, rng=random.Random(4))
    assert len(R) == 1
    assert abs(R.points[0][0] - 1.0) < 1e-4


def test_ramification_no_solutions_is_a_verdict():
    g = graph(["0"], 1)
    P = Center.from_affine([2.0], [7.0])
    R = ramification_points(g, P, cfg=NewtonConfig(starts=8), rng=random.Random(5))
    assert not R.found
    assert len(R) == 0
    assert R.starts == 8 and R.converged == 0
    # no starts give no roots and an incomplete set
    R = ramification_points(g, P, cfg=NewtonConfig(starts=0))
    assert (len(R), R.starts, R.complete) == (0, 0, False)


class CountingJets:
    """Delegates to a graph and records every stack of points its jet is
    evaluated at; ``f`` gives the Bezout number."""

    def __init__(self, G):
        self.G = G
        self.n = G.n
        self.f = G.f
        self.points: list[bytes] = []

    def jet_at(self, u):
        u = np.asarray(u, dtype=complex)
        self.points.append(u.tobytes())
        return self.G.jet_at(u)


class CountingMap:
    """Delegates psi.jet2 of a parametrization and records every stack of
    points."""

    def __init__(self, psi):
        self.psi = psi
        self.num_vars = psi.num_vars
        self.components = psi.components
        self.points: list[bytes] = []

    def jet2(self, w):
        self.points.append(np.asarray(w, dtype=complex).tobytes())
        return self.psi.jet2(w)


def _record_waves(monkeypatch, counting) -> list:
    """Route ``ramification_points``' Newton waves through a recorder; each
    ``stacked_newton`` call appends (its starts, its NewtonStack, per
    system call the rows given, the jets ``counting`` recorded during the
    call and the residual norms returned, and per reading of the wave its
    round (the number of trial points every slice still running had
    evaluated), the jets recorded during it and the slices that stopped in
    it, as Newton names them)."""
    waves = []

    def newton(system, starts, cfg, settled):
        calls, reads = [], []

        def recorded(X):
            before = len(counting.points)
            out = system(X)
            calls.append((X.copy(), counting.points[before:], np.linalg.norm(out[0], axis=1)))
            return out

        def read(out, stopped):
            before = len(counting.points)
            done = settled(out, stopped)
            reads.append((len(calls) - 1, counting.points[before:], stopped.copy()))
            return done

        out = stacked_newton(recorded, starts, cfg, read)
        waves.append((np.array(starts), out, calls, reads))
        return out

    monkeypatch.setattr(projection, "stacked_newton", newton)
    return waves


@pytest.mark.parametrize(
    "G,center",
    [
        (MIXED, Center.from_affine([0.4, -0.3], [-0.5, 0.7])),
        (graph(["u1^2 + u1^3"], 1), Center.from_affine([0.3], [0.8])),
        (BENT, Center.from_affine([1.0], [2.0])),
        # the mirror alone, and two new endpoints at one root in one round
        (QUADRIC_PAIR, Center.from_affine([0.4, -0.3], [-0.5 + 0.25j, 0.7])),
    ],
)
def test_ramification_one_jet_per_newton_point(G, center, monkeypatch):
    # the solve is one Newton wave of exactly cfg.starts rows, whose first
    # evaluation is at its starts; every evaluation of the stacked system
    # makes exactly one jet, at exactly the rows it is given (a
    # parametrization makes one psi.jet2 at the w part of its (w, a) rows),
    # so residual and Jacobian share it; and no slice evaluates a point
    # twice: a point is evaluated again only when it is a root (residual at
    # most tol) at which another slice stopped.  Those are the only jets: no
    # image is evaluated.  Each reading that has new endpoints (stopped
    # converged in its round, farther than DEDUP_RADIUS from the orbits of
    # earlier rounds' new endpoints) tests their orbits for isolation as one
    # stack, in draw order: each endpoint with the residual and Jacobian
    # Newton left there, then on a quadratic graph its mirror image 2 P1 - x
    # with the same residual and the negated Jacobian (g_P is even in
    # u - P1), then at a real input and center the conjugates of both; and
    # every listed point, image or not, carries the residual norm of the
    # endpoint it came from
    conjugate, mirror = projection._symmetries(G, center)
    if isinstance(G, ParamVariety):
        G = copy.copy(G)
        G.psi = counting = CountingMap(G.psi)
    else:
        G = counting = CountingJets(G)
    waves = _record_waves(monkeypatch, counting)
    tested = []
    isolated = projection._isolated

    def recorded(J, r, step):
        tested.append((J.copy(), r.copy()))
        return isolated(J, r, step)

    monkeypatch.setattr(projection, "_isolated", recorded)
    cfg = NewtonConfig(starts=16)
    R = ramification_points(G, center, cfg, random.Random(6))
    assert R.converged > 0 and (R.images > 0) == (mirror or conjugate)
    assert len(waves) == 1
    starts, out, calls, reads = waves[0]
    assert starts.shape[0] == cfg.starts and np.array_equal(calls[0][0], starts)
    assert len(counting.points) == len(calls) and all(jets == [] for _, jets, _ in reads)
    p1 = center.affine()[0]
    orbits = np.empty((0, out.points.shape[1]), dtype=complex)
    stacks = iter(tested)
    for _, _, stopped in reads:
        ready = stopped[out.converged[stopped]]
        new = ready[(np.linalg.norm(out.points[ready, None] - orbits, axis=2) > projection.DEDUP_RADIUS).all(axis=1)]
        if not len(new):
            continue
        orbit = [(out.points[new], out.values[new], out.jacobians[new])]
        if mirror:
            orbit.append((2 * p1 - orbit[0][0], orbit[0][1], -orbit[0][2]))
        if conjugate:
            orbit += [tuple(a.conj() for a in image) for image in orbit]
        J, r = next(stacks)
        assert np.array_equal(J, np.stack([j for _, _, j in orbit], axis=1).reshape(J.shape))
        assert np.array_equal(r, np.stack([v for _, v, _ in orbit], axis=1).reshape(r.shape))
        orbits = np.concatenate([orbits, *(x for x, _, _ in orbit)])
    assert next(stacks, None) is None
    assert set(R.residuals) <= set(out.residuals[out.converged].tolist())
    first = {}  # the residual norm at each point's first evaluation
    for X, jets, norms in calls:
        assert jets == [np.ascontiguousarray(X[:, : G.n]).tobytes()]
        for row, norm in zip(X, norms):
            key = row.tobytes()
            assert key not in first or first[key] <= cfg.tol
            first.setdefault(key, norm)


def test_ramification_wave_ends_at_the_bezout_stop(monkeypatch):
    # the one wave ends at the Bezout stop, also when the first start to
    # stop and its images find every root: the starts are read in the order
    # they stop, so every start read had stopped by the round of the stop,
    # the stop could not be reached from the starts stopped before that
    # round, the wave ended at that round, and starts are left running (stop
    # None).  At a real center both symmetries apply and one start's images
    # give the other three roots; a complex P2 leaves only the mirror, so two
    # starts at least
    counting = CountingJets(QUADRIC_PAIR)
    waves = _record_waves(monkeypatch, counting)
    real = Center.from_affine([0.4, -0.3], [-0.5, 0.7])
    rotated = Center.from_affine([0.4, -0.3], [-0.5 + 0.25j, 0.7])
    for k, (P, seed, used, images) in enumerate([(real, 0, 1, 3), (rotated, 1, 5, 2), (rotated, 3, 4, 2)]):
        R = ramification_points(counting, P, NewtonConfig(starts=64), random.Random(seed))
        assert R.complete and R.bezout == len(R) == 4 and (R.starts, R.images) == (used, images)
        assert len(waves) == k + 1
        _, out, calls, reads = waves[k]
        assert len(out.stops) == 64
        named = [stopped for _, _, stopped in reads]
        assert reads[-1][0] == len(calls) - 1
        assert sorted(np.concatenate(named).tolist()) == [i for i, s in enumerate(out.stops) if s is not None]
        assert sum(map(len, named[:-1])) < used <= sum(map(len, named)) < 64


def test_ramification_stop_comes_at_the_round_of_the_starts_that_stop_first(monkeypatch):
    # f = u^3 at a complex center, so no symmetry applies: start 0 lies next
    # to u = 0, where the Jacobian -6 u^2 + 6 P1 u vanishes, so its first
    # step throws it far out and it converges slowly; starts 1-3 lie next to
    # the three roots and stop within a few rounds.  The wave is read in
    # stop order, so the Bezout stop comes at their round, with start 0
    # still running, where a draw-order read would have waited for start 0
    G = graph(["u1^3"], 1)
    P = Center.from_affine([0.5], [0.2 + 0.3j])
    p1, p2 = P.affine()
    roots = np.roots([-2, 3 * p1[0], 0, -p2[0]])
    chosen = np.concatenate([np.array([1e-7]) - p1, *(np.array([r + 0.01]) - p1 for r in roots)])

    def draw(dim, box, rng):
        # every start comes from one draw of starts * d coordinates
        assert dim == len(chosen)
        return chosen

    monkeypatch.setattr(projection, "random_point", draw)
    counting = CountingJets(G)
    waves = _record_waves(monkeypatch, counting)
    R = ramification_points(counting, P, NewtonConfig(starts=4), random.Random(0))
    assert R.complete and R.bezout == len(R) == 3 and (R.starts, R.converged, R.images) == (3, 3, 0)
    for root in roots:
        assert min(abs(x[0] - root) for x in R.points) < 1e-9
    (starts, out, calls, reads), = waves
    trials = [
        reference_damped_newton(
            lambda u: ramification_residual(G, P, u), lambda u: ramification_jacobian(G, P, u), x, NewtonConfig()
        )[1]
        for x in starts
    ]
    assert reads[-1][0] == len(calls) - 1 == max(trials[1:]) < trials[0]
    assert out.stops[0] is None and None not in out.stops[1:]


@pytest.mark.parametrize(
    "p,roots",
    [
        ([0.5, 1.0], [complex(-0.5, 3**0.5 / 2), complex(-0.5, -(3**0.5) / 2)]),
        ([1.0, 2.0], [-1 + 1j, -1 - 1j]),
    ],
)
def test_ramification_param_roots_where_the_chart_stalled(p, roots):
    # w -> (w + w^2, w^2): the tangent line at w passes through P exactly
    # when w^2 - 2 (P1 - P2) w + P2 = 0, whose roots are complex here; a
    # chart inversion started at a real point never reaches them
    P = Center.from_affine([p[0]], [p[1]])
    R = ramification_points(BENT, P, NewtonConfig(starts=8), random.Random(0))
    assert len(R) == 2
    for target in roots:
        assert min(abs(w[0] - target) for w in R.points) < 1e-9
    assert all(tangent_membership(BENT, P, w) for w in R.points)


@pytest.mark.parametrize(
    "G,P",
    [
        (QUADRIC_PAIR, Center.from_affine([0.4, -0.3], [-0.5, 0.7])),
        (MIXED, Center.from_affine([0.7, -0.4], [0.3, 0.5])),
        (graph(["u1^2 + u1^3"], 1), Center.from_affine([0.3], [0.8])),
        (BENT, Center.from_affine([1.0], [2.0])),
        (graph(["u1^3"], 1), Center.from_affine([0.0], [0.0])),  # a triple root
        (graph(["0"], 1), Center.from_affine([2.0], [0.0])),  # a solution curve
        (QUADRIC_PAIR, Center.from_affine([0.4, -0.3], [-0.5 + 0.25j, 0.7])),  # the mirror alone
        (
            graph(["u1^2 + u2*u3 - u1", "u2^2 + 2*u1*u3", "u3^2 - u1*u2 + u3"], 3),
            Center.from_affine([0.3, -0.2, 0.5], [0.4 + 0.2j, -0.6, 0.1]),
        ),  # eight roots, read in an order far from the draw order
    ],
)
@pytest.mark.parametrize("starts", [16, 64])
def test_ramification_matches_the_one_start_loop(G, P, starts):
    # waves of stacked starts, read in the order the starts stop with each
    # listed root's images, stop where the one-start loop read in (trial
    # count, draw index) order stops and find the same roots and images (the
    # order of points whose real parts tie is round-off, so they are matched
    # as sets)
    cfg = NewtonConfig(starts=starts)
    for seed in range(3):
        got = ramification_points(G, P, cfg, random.Random(seed))
        want = reference_ramification(G, P, cfg, random.Random(seed))
        fields = ("starts", "converged", "images", "bezout", "complete")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        assert len(got) == len(want)
        for a, b in ((got.points, want.points), (want.points, got.points)):
            for x in a:
                assert min(np.abs(x - y).max() for y in b) <= 1e-9


def _svd_isolated(J, r, step):
    """The isolation rule read from one stacked SVD: J has full numerical
    rank and the Newton step J^-1 r is at most ``step``."""
    u, s, _ = np.linalg.svd(J)
    full = s[:, -1] > _rank_tol(s[:, 0], J.shape[1:])
    full[full] = np.linalg.norm(np.einsum("kji,kj->ki", u[full].conj(), r[full]) / s[full], axis=1) <= step
    return full


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_isolation_agrees_with_the_svd_rule(d):
    # ``_isolated`` reads a stacked solve's ok mask and step norm; it gives
    # the verdict of the rank threshold and step bound of one SVD on random
    # stacks of every scale: well conditioned slices, exactly singular ones,
    # condition 1e8 (full rank, steps of either size) and 1e11 (below the
    # rank threshold).  A slice that is not finite does not count, where the
    # SVD raises (NaN) or gives NaN (infinity)
    rng = np.random.default_rng(d)
    S = 600

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((S, d, d)) + 1j * rng.standard_normal((S, d, d)))
        return q

    cond = rng.choice([1.0, 1e3, 1e8, 1e11], size=S)
    sigma = cond[:, None] ** -np.linspace(0, 1, d)
    sigma[rng.random(S) < 0.1, -1] = 0.0  # exactly singular
    J = np.einsum("sij,sj,sjk->sik", unitary(), sigma, unitary()) * 10.0 ** rng.uniform(-4, 4, (S, 1, 1))
    J[:20, -1] = 0  # an exactly zero row
    # steps of norm 10^-2 step to 10^2 step
    step = 1e-2
    x = rng.standard_normal((S, d)) + 1j * rng.standard_normal((S, d))
    x *= step * 10.0 ** rng.uniform(-2, 2, (S, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    r = np.einsum("sij,sj->si", J, x)
    want = _svd_isolated(J, r, step)
    assert np.array_equal(projection._isolated(J, r, step), want)
    for c in (1.0, 1e3, 1e8):
        assert set(want[cond == c]) == {False, True}
    assert not want[(cond == 1e11) | (sigma[:, -1] == 0)].any() and not want[:20].any()
    J[20:25, 0, 0], J[25:30, -1, 0], r[30:35, 0] = np.nan, np.inf, np.inf
    finite = np.ones(S, dtype=bool)
    finite[20:35] = False
    got = projection._isolated(J, r, step)
    assert not got[~finite].any() and np.array_equal(got[finite], want[finite])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(J[20:25])


# -- the Bezout stop ------------------------------------------------------------------


def test_bezout_stop_on_quadric_pair():
    a, b, c, d = 0.4, -0.3, -0.5, 0.7
    R = ramification_points(QUADRIC_PAIR, Center.from_affine([a, b], [c, d]), NewtonConfig(starts=64))
    assert R.complete and R.bezout == 4 and len(R) == 4
    assert R.starts < 64
    exp1 = {a + cmath.sqrt(a * a - c), a - cmath.sqrt(a * a - c)}
    exp2 = {b + cmath.sqrt(b * b - d), b - cmath.sqrt(b * b - d)}
    for pt in R.points:
        assert min(abs(pt[0] - e) for e in exp1) < 1e-9
        assert min(abs(pt[1] - e) for e in exp2) < 1e-9


def test_bezout_stop_needs_every_isolated_root():
    # B = 2 * 2 = 4, but only two roots are finite: every start runs and the
    # set does not claim to be complete
    R = ramification_points(BENT, Center.from_affine([1.0], [2.0]), NewtonConfig(starts=16))
    assert R.bezout == 4 and len(R) == 2
    assert R.starts == 16 and not R.complete


def test_bezout_stop_ignores_a_double_root():
    # P on the curve: g_P = -(u - 1)^2, a double root that Newton reaches
    # from both sides; it is not simple, so it never counts toward B = 2
    R = ramification_points(CONIC, Center.from_affine([1.0], [1.0]), NewtonConfig(starts=16))
    assert R.bezout == 2 and len(R) == 1
    assert R.starts == 16 and not R.complete


def test_point_order_ignores_round_off_in_tied_parts(monkeypatch):
    # the conic at center (0, 1): g_P = -u^2 - 1, whose roots +-i have real
    # part 0 in exact arithmetic; whichever of them round-off leaves a real
    # part of -1e-25, -i is listed first
    from dataclasses import replace

    P = Center.from_affine([0.0], [1.0])
    orders = []
    for sign in (1.0, -1.0):

        def tilted(system, starts, cfg, settled, sign=sign):
            def read(out, stopped):
                real = sign * np.sign(out.points.imag) * 1e-25
                return settled(replace(out, points=real + 1j * out.points.imag), stopped)

            return stacked_newton(system, starts, cfg, read)

        monkeypatch.setattr(projection, "stacked_newton", tilted)
        R = ramification_points(CONIC, P, NewtonConfig(starts=16), random.Random(0))
        assert R.complete and len(R) == 2
        assert sorted(p[0].real for p in R.points) == [-1e-25, 1e-25]
        orders.append([round(p[0].imag) for p in R.points])
    assert orders == [[-1, 1], [-1, 1]]


def test_bezout_stop_ignores_a_triple_root():
    # f = u^3 and P at its inflection point: g_P = -2 u^3, whose Newton
    # endpoints stop up to (tol/2)^(1/3) ~ 7.9e-5 from 0, up to ~1.6e-4
    # apart; none of them counts toward B = 3, and they are listed as one
    # point, within 2 tol^(1/3) = 2e-4 of each other
    R = ramification_points(graph(["u1^3"], 1), Center.from_affine([0.0], [0.0]), NewtonConfig(starts=16))
    assert R.bezout == 3 and len(R) == 1 and abs(R.points[0][0]) < 1e-4
    assert R.converged == R.starts == 16 and not R.complete


def test_bezout_stop_ignores_a_solution_curve():
    # f = 0 with P2 = 0: g_P vanishes everywhere, so every start is a root,
    # none of them isolated; B = 1 must not be reached
    R = ramification_points(graph(["0"], 1), Center.from_affine([2.0], [0.0]), NewtonConfig(starts=8))
    assert R.bezout == 1 and R.converged == 8
    assert R.starts == 8 and not R.complete


# -- symmetric images -----------------------------------------------------------------


def _benchmark_cases(tmp_path, seeds=(1,), rounds=10, commands=("ramify", "recover")):
    """(variety, center, NewtonConfig, seed) of every job of the benchmark's
    recover workload that runs one of ``commands``, as the CLI builds them."""
    from pathlib import Path

    from helpers import load_perfbench
    from tansec.cli import parse_center
    from tansec.varfile import parse_variety_file

    cases = []
    for seed in seeds:
        for job in load_perfbench("gen").make_jobs("recover", seed, tmp_path / str(seed), rounds=rounds):
            if job["command"] not in commands:
                continue
            G = parse_variety_file(Path(job["argv"][1]).read_text()).to_variety()
            options = dict(a[2:].split("=", 1) for a in job["argv"][2:])
            cfg = NewtonConfig(starts=int(options.get("starts", NewtonConfig.starts)))
            cases.append((G, parse_center(options["center"], G.n), cfg, int(options["seed"])))
    return cases


def test_symmetries_follow_the_exact_input():
    # decided from the parsed coefficients and the center: the mirror needs
    # a graph of degree at most 2, conjugation real coefficients and a real
    # center representative
    real = Center.from_affine([0.5, -0.25], [1.0, 0.75])
    assert projection._symmetries(MIXED, real) == (True, True)
    assert projection._symmetries(graph(["0"], 1), Center.from_affine([2.0], [0.0])) == (True, True)
    assert projection._symmetries(BENT, Center.from_affine([1.0], [2.0])) == (True, False)


@pytest.mark.parametrize(
    "exprs,n", [(["u1^2 + u1^3"], 1), (["u1^3"], 1), (["u1^2", "u1*u2^2"], 2), (["u1^2", "u2^2 + 0*u1^3"], 2)]
)
def test_a_cubic_graph_gets_no_mirror(exprs, n):
    # one component of degree 3 is enough; a term with a zero coefficient is
    # not a term, so 0*u1^3 leaves the graph quadratic
    G = graph(exprs, n)
    quadratic = G.f.degree() <= 2
    P = Center.from_affine([0.3] * n, [0.8] * n)
    assert projection._symmetries(G, P) == (True, quadratic)
    assert projection._symmetries(G, Center.from_affine([0.3j] * n, [0.8] * n)) == (False, quadratic)


@pytest.mark.parametrize(
    "G,P",
    [
        (graph(["u1^2 + i*u1"], 1), Center.from_affine([0.5], [1.0])),
        (graph(["(1/2 + 0*i)*u1^2 + i^2*u1"], 1), Center.from_affine([0.5], [1.0j])),
        (CONIC, Center.from_affine([0.5], [1.0 + 0.5j])),
        (CONIC, Center.from_projective([1.0j, 0.5j, 1.0j])),
        (ParamVariety(parse_map(["u1 + i*u1^2", "u1^2"], 1)), Center.from_affine([1.0], [2.0])),
        (BENT, Center.from_affine([1.0], [2.0 - 1.0j])),
    ],
)
def test_an_i_coefficient_or_a_complex_center_gets_no_conjugate(G, P):
    # the conjugate of a root is no root then; the mirror alone, on a
    # quadratic graph, pairs the two roots of the conic: x + m = 2 P1
    conjugate, mirror = projection._symmetries(G, P)
    assert not conjugate
    R = ramification_points(G, P, NewtonConfig(starts=16), random.Random(0))
    assert len(R) == 2 and R.images == mirror
    assert all(tangent_membership(G, P, u) for u in R.points)
    if mirror:
        p1 = P.affine()[0]
        assert np.abs(R.points[0] + R.points[1] - 2 * p1).max() <= 1e-12


def test_the_system_commutes_with_conjugation_bitwise(tmp_path):
    # on real inputs the system at the conjugate rows is the conjugate of
    # the system, bit for bit, so a conjugate image may take its source's
    # conjugated residual and Jacobian
    cases = _benchmark_cases(tmp_path, rounds=2)
    assert len(cases) == 40
    rng = np.random.default_rng(0)
    for G, P, _, _ in cases:
        system, dim = projection._ramification_system(G, P)[:2]
        assert projection._symmetries(G, P)[0]
        X = rng.standard_normal((16, dim)) + 1j * rng.standard_normal((16, dim))
        for got, want in zip(system(X.conj()), system(X)):
            assert np.array_equal(got, want.conj())


def test_every_listed_point_is_a_tangency_point_on_the_benchmark(tmp_path):
    # every point listed on the recover inputs of seeds 1 and 2, images
    # included, passes tangent_membership, and images fill most root sets
    images = points = 0
    for G, P, cfg, seed in _benchmark_cases(tmp_path, seeds=(1, 2)):
        R = ramification_points(G, P, cfg, random.Random(seed))
        assert tangent_membership(G, P, np.reshape(R.points, (len(R), G.n))).all()
        images, points = images + R.images, points + len(R)
    assert 2 * images > points


def test_a_triple_root_and_its_conjugates_are_one_point():
    # u^3 at its inflection point is real, so every endpoint near 0 brings
    # its conjugate, at most 2 |x| <= 1.6e-4 away: within 2 tol^(1/3) of the
    # listed point, which does not count either, so it is dropped
    G, P = graph(["u1^3"], 1), Center.from_affine([0.0], [0.0])
    assert projection._symmetries(G, P) == (True, False)
    R = ramification_points(G, P, NewtonConfig(starts=16))
    assert len(R) == 1 and R.images == 0 and not R.complete


def _dense_quadratic_graph(n, rng):
    exprs = [
        " + ".join(f"({rng.randint(-4, 4)}/{rng.randint(1, 3)})*u{j + 1}*u{k + 1}" for j in range(n) for k in range(j, n))
        for _ in range(n)
    ]
    return graph(exprs, n)


@pytest.mark.parametrize(
    "G,P",
    [
        (QUADRIC_PAIR, Center.from_affine([0.4, -0.3], [-0.5, 0.7])),
        (MIXED, Center.from_affine([0.7, -0.4], [0.3, 0.5])),
        (_dense_quadratic_graph(3, random.Random(3)), Center.from_affine([0.5, -0.25, 0.75], [1.0, -0.5, 0.25])),
    ],
)
def test_as_param_gives_the_graph_roots(G, P):
    # psi = (u, f(u)) forces a = P1 - u, and F(w, a) reduces to g_P(w)
    cfg = NewtonConfig(starts=256)
    on_graph = ramification_points(G, P, cfg, random.Random(0))
    on_param = ramification_points(G.as_param(), P, cfg, random.Random(1))
    assert on_param.bezout == on_graph.bezout
    assert len(on_param) == len(on_graph) > 0
    for u in on_graph.points:
        assert min(np.linalg.norm(w - u) for w in on_param.points) < 1e-9


def test_ramification_deterministic_given_seed():
    P = Center.from_affine([0.4, -0.3], [-0.5, 0.7])
    R1 = ramification_points(QUADRIC_PAIR, P, rng=random.Random(42))
    R2 = ramification_points(QUADRIC_PAIR, P, rng=random.Random(42))
    assert len(R1) == len(R2)
    for a, b in zip(R1.points, R2.points):
        assert np.array_equal(a, b)


# -- recovery -----------------------------------------------------------------------------


def test_recover_conic_center():
    P = Center.from_affine([3.0], [5.0])
    R = ramification_points(CONIC, P, rng=random.Random(0))
    recovered, report = recover_center(CONIC, R)
    assert chordal_distance(recovered, [1.0, 3.0, 5.0]) < 1e-9
    assert report["pairs_used"] == 1 and report["cluster_size"] == 1


def test_recover_quadric_pair_consensus_and_containment():
    # the four ramification points form a 2x2 coordinate grid: pairs sharing a
    # grid coordinate meet in the 2-plane span{P, shared direction} (skipped as
    # non-transverse), the two diagonal pairs meet in exactly P
    from itertools import combinations

    from tansec.linalg import orthonormal_rows, subspace_intersection
    from tansec.tangent import tangent_frame

    P = Center.from_affine([0.4, -0.3], [-0.5, 0.7])
    R = ramification_points(QUADRIC_PAIR, P, rng=random.Random(1))
    recovered, report = recover_center(QUADRIC_PAIR, R)
    assert report["pairs_used"] == 2
    assert report["pairs_skipped"] == 4
    assert report["cluster_size"] == 2
    assert report["spread"] <= 1e-8
    assert chordal_distance(recovered, P.proj) < 1e-8

    frames = [tangent_frame(QUADRIC_PAIR, u) for u in R.points]
    for i, j in combinations(range(4), 2):
        X = subspace_intersection(frames[i].matrix, frames[j].matrix)
        assert X.shape[0] in (1, 2)
        q = orthonormal_rows(X)
        p_hat = P.proj / np.linalg.norm(P.proj)
        resid = np.linalg.norm(p_hat - q.T @ (q.conj() @ p_hat))
        assert resid <= 1e-8


def test_recover_spread_within_solver_tolerance():
    # winning-cluster spread stays within 10x the Newton residual tolerance
    cfg = NewtonConfig()
    rng = random.Random(55)
    from fractions import Fraction

    for k in range(5):
        vals = [Fraction(rng.randint(-96, 96), 97) for _ in range(4)]
        P = Center.from_affine([float(v) for v in vals[:2]], [float(v) for v in vals[2:]])
        R = ramification_points(QUADRIC_PAIR, P, cfg, rng=random.Random(100 + k))
        _, report = recover_center(QUADRIC_PAIR, R)
        assert report["spread"] <= 10 * cfg.tol


def test_recover_center_depends_on_the_point_set_not_its_order(tmp_path):
    # the frames are paired in _point_order, so reordering R changes no bit
    # of the consensus or of the report; with the points in list order the
    # reversed sets move the consensus by round-off
    from pathlib import Path

    from helpers import load_perfbench
    from tansec.cli import parse_center
    from tansec.varfile import parse_variety_file

    jobs = load_perfbench("gen").make_jobs("recover", 1, tmp_path, rounds=1)
    jobs = [j for j in jobs if j["command"] == "recover" and j["family"] == "full" and j["n"] >= 3]
    assert len(jobs) == 5
    rng = random.Random(4)
    for job in jobs:
        G = parse_variety_file(Path(job["argv"][1]).read_text()).to_variety()
        P = parse_center(",".join(job["center"]), G.n)
        R = ramification_points(G, P, rng=random.Random(0))
        consensus, report = recover_center(G, R)
        for order in (R.points[::-1], rng.sample(R.points, len(R.points))):
            permuted = copy.copy(R)
            permuted.points = list(order)
            got, got_report = recover_center(G, permuted)
            assert np.array_equal(got, consensus)
            assert got_report == report


def _round0_recoveries(tmp_path, commands=("recover",)):
    """(variety, center, ramification set) of every round-0 job of the
    benchmark's recover workload that runs one of ``commands``, solved with
    the default configuration."""
    cases = _benchmark_cases(tmp_path, rounds=1, commands=commands)
    return [(G, P, ramification_points(G, P, rng=random.Random(0))) for G, P, _, _ in cases]


def _assert_same_recovery(G, R):
    from helpers import reference_recover_center

    got, report = recover_center(G, R)
    want, want_report = reference_recover_center(G, R)
    counts = ("pairs_total", "pairs_used", "pairs_skipped", "cluster_size")
    assert [report[k] for k in counts] == [want_report[k] for k in counts]
    assert abs(report["spread"] - want_report["spread"]) <= 1e-11
    assert chordal_distance(got, want) <= 1e-12
    return got, report


def test_recover_center_matches_the_pair_loop(tmp_path):
    # the stacked pair kernels, clustered from their chordal distances,
    # give the pair loop's counts, spread and consensus
    cases = [(G, R) for G, _, R in _round0_recoveries(tmp_path)]
    assert len(cases) == 9
    for G, P, seed in (
        (CONIC, Center.from_affine([3.0], [5.0]), 0),
        (QUADRIC_PAIR, Center.from_affine([0.4, -0.3], [-0.5, 0.7]), 1),
        (MIXED, Center.from_affine([0.7, -0.4], [0.3, 0.5]), 2),
    ):
        cases.append((G, ramification_points(G, P, rng=random.Random(seed))))
    for G, R in cases:
        _assert_same_recovery(G, R)


def test_recover_center_over_more_pairs_than_one_stack():
    # every tangent plane of the cylinder contains e3, so all 276 pairs of
    # 24 points meet there, in two stacks of pairs
    from tansec.tangent import CHUNK

    rng = random.Random(8)
    R = RamificationSet(points=[random_point(2, 1.0, rng) for _ in range(24)])
    assert 276 > CHUNK
    got, report = _assert_same_recovery(CYLINDER, R)
    assert report["pairs_used"] == report["cluster_size"] == 276
    assert chordal_distance(got, [0, 0, 1, 0, 0]) <= 1e-8


def test_recover_center_svd_calls_do_not_grow_with_the_points(tmp_path, monkeypatch):
    # the frames and the pairs are stacks: on the 16-point n = 4 job, and
    # on its first 4 or 8 points, recovery makes at most three SVD calls
    # (one stacked rank of the frames, one of the pairs, one SVD of the
    # transverse pairs; the pair loop made one per frame and four per pair,
    # 496 here)
    G, R = next((G, R) for G, _, R in _round0_recoveries(tmp_path) if G.n == 4 and len(R) == 16)
    svd = np.linalg.svd
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    counts = []
    for k in (4, 8, 16):
        subset = copy.copy(R)
        subset.points = R.points[:k]
        calls.clear()
        try:
            recover_center(G, subset)
        except NoConsensusError:
            pass
        counts.append(len(calls))
    assert max(counts) == counts[-1] == 3


def test_recover_consensus_is_the_largest_cluster_not_the_first(monkeypatch):
    # pair points a, b0, c, b1, b3, d: greedy clusters {a}, {b0, b1, b3},
    # {c}, {d}; the b cluster holds half of the pairs, and b1, between the
    # others on a line, has the least summed distance to them
    q, e = np.array([1, 2, 3, 4, 5], dtype=complex), np.array([0, 1, 0, 0, 0])
    b = [q + 1e-9 * k * e for k in (0, 1, 3)]
    unit = np.eye(5, dtype=complex)
    pair_points = np.array([unit[0], b[0], unit[2], b[1], b[2], unit[4]])

    def synthetic(A, B):
        return np.ones(len(A), dtype=int), pair_points[: len(A)]

    monkeypatch.setattr(projection, "frame_pair_points", synthetic)
    R = RamificationSet(points=[np.array(u, dtype=complex) for u in ([0.1, 0.2], [0.3, -0.4], [-0.5, 0.6], [0.7, 0.8])])
    got, report = recover_center(QUADRIC_PAIR, R)
    assert np.array_equal(got, b[1])
    assert (report["pairs_used"], report["cluster_size"]) == (6, 3)
    assert abs(report["spread"] - chordal_distance(b[0], b[2])) <= 1e-6 * report["spread"]


def test_recover_every_pair_non_transverse():
    # the tangent lines of a line are the line itself
    line = graph(["0"], 1)
    R = RamificationSet(points=[np.array([x + 0j]) for x in (0.5, 1.0, 2.0)])
    from helpers import reference_recover_center

    for recover in (recover_center, reference_recover_center):
        with pytest.raises(NoConsensusError, match="every frame pair"):
            recover(line, R)


def test_recover_degenerate_frame_raises():
    # psi = (w^2, w^3) is not immersive at w = 0
    from helpers import reference_recover_center
    from tansec.errors import DegenerateInputError

    cusp = ParamVariety(parse_map(["u1^2", "u1^3"], 1))
    R = RamificationSet(points=[np.array([1.0 + 0j]), np.array([0j]), np.array([2.0 + 0j])])
    for recover in (recover_center, reference_recover_center):
        with pytest.raises(DegenerateInputError):
            recover(cusp, R)


def test_stacked_membership_matches_the_one_point_checks(tmp_path):
    # one stacked frame build and one stacked rank give every point's
    # verdict, and the rank of each frame with P appended
    from tansec.linalg import numerical_rank
    from tansec.tangent import tangent_frame

    cases = _round0_recoveries(tmp_path, ("ramify", "recover"))
    assert len(cases) == 20
    for G, P, R in cases:
        U = np.array(R.points)
        member = tangent_membership(G, P, U)
        assert member.tolist() == [tangent_membership(G, P, u) for u in U]
        ranks = [numerical_rank(np.vstack([tangent_frame(G, u).matrix, P.proj])).rank for u in U]
        assert member.tolist() == [r == G.n + 1 for r in ranks]
        assert member.all()
    off = Center.from_affine([9.0, 9.0], [9.0, -9.0])
    assert not tangent_membership(QUADRIC_PAIR, off, np.array([[0.1, 0.2], [0.3, -0.4]])).any()


def test_recover_insufficient_points():
    R = RamificationSet(points=[np.array([1.0 + 0j])], residuals=[0.0], starts=4, converged=1)
    with pytest.raises(InsufficientPointsError):
        recover_center(CONIC, R)


def test_recover_no_consensus_on_mixed_loci():
    # mixing ramification points of two different centers splits the vote:
    # only the two within-center pairs agree with anything
    Pa = Center.from_affine([3.0], [5.0])
    Pb = Center.from_affine([-2.0], [1.0])
    Ra = ramification_points(CONIC, Pa, rng=random.Random(0))
    Rb = ramification_points(CONIC, Pb, rng=random.Random(1))
    mixed = RamificationSet(
        points=Ra.points + Rb.points,
        residuals=Ra.residuals + Rb.residuals,
        starts=Ra.starts + Rb.starts,
        converged=Ra.converged + Rb.converged,
    )
    with pytest.raises(NoConsensusError):
        recover_center(CONIC, mixed)


# -- roundtrip ----------------------------------------------------------------------------


def test_roundtrip_conic():
    report = roundtrip(CONIC, Center.from_affine([3.0], [5.0]), rng=random.Random(0))
    assert report.succeeded
    assert report.distance <= 1e-9
    assert chordal_distance(report.recovered, [1.0, 3.0, 5.0]) <= 1e-9


def test_roundtrip_mixed_surface_consensus_oracle():
    P = Center.from_affine([0.7, -0.4], [0.3, 0.5])
    report = roundtrip(MIXED, P, rng=random.Random(2))
    assert report.succeeded
    assert report.distance <= 1e-6


def test_roundtrip_cylinder_hypothesis_not_met():
    report = roundtrip(CYLINDER, Center.from_affine([0.5, 0.5], [0.5, 0.5]), rng=random.Random(3))
    assert report.status == "hypothesis_not_met"
    assert report.ramification is None
    assert not report.succeeded


@pytest.mark.parametrize(
    "G,degree",
    [(CYLINDER, 3), (graph(["u1^2 + u2", "3*u1^2 - u1"], 2), 2)],  # no second derivative in u2
)
def test_roundtrip_hypothesis_not_met_carries_the_det_k_bound(G, degree):
    # det K vanishes identically: every draw is zero, the certificate fails
    # with its Schwartz-Zippel bound (D / 201)^trials, D the sum of the
    # components' degrees minus one, and no root is sought
    report = roundtrip(G, Center.from_affine([0.5, -0.5], [0.25, 0.5]), rng=random.Random(1), trials=7)
    assert report.status == "hypothesis_not_met" and report.ramification is None
    cert = report.fullness
    assert (cert.verdict, cert.method, cert.trials, cert.successes, cert.witness) == (FAILS, SCHWARTZ_ZIPPEL, 7, 0, None)
    assert cert.error_bound == (degree / 201) ** 7
