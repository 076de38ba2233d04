import random
from fractions import Fraction

import numpy as np
import pytest

from tansec.errors import NonTransverseError, NotNormalizedError, SingularTangentJacobianError
from helpers import reference_contraction, reference_det, reference_rank
from tansec.linalg import chordal_distance, exact_det, exact_rank, numerical_rank
from tansec.poly import GaussianRational, parse_map, parse_poly, random_point, random_rational_point
from tansec.tangent import (
    EXACT_SYMBOLIC,
    FAILS,
    FLOAT_SAMPLING,
    HOLDS,
    SCHWARTZ_ZIPPEL,
    dominance_certificate,
    hessian_contraction,
    hessian_contraction_exact,
    p_jacobian_closed,
    p_jacobian_fd,
    p_map,
    secant_dim_estimate,
    tan_is_full,
    tangent_bundle_rank_check,
    tangent_frame,
    tangent_intersection,
)
from tansec.variety import GraphVariety, ParamVariety, normalize_at


def graph(exprs, n):
    return GraphVariety(parse_map(exprs, n))


CONIC = graph(["u1^2"], 1)
CUBIC_CONIC = graph(["u1^2 + u1^3"], 1)
QUADRIC_PAIR = graph(["u1^2", "u2^2"], 2)
MIXED = graph(["u1^2", "u1*u2"], 2)
CYLINDER = graph(["u1^2", "u1^3"], 2)


# -- frames ---------------------------------------------------------------------


def test_frame_of_conic():
    F = tangent_frame(CONIC, [1.0])
    assert np.allclose(F.matrix, [[1, 1, 1], [0, 1, 2]])


def test_frame_of_mixed_surface():
    F = tangent_frame(MIXED, [1.0, 2.0])
    expected = [
        [1, 1, 2, 1, 2],
        [0, 1, 0, 2, 2],
        [0, 0, 1, 0, 1],
    ]
    assert np.allclose(F.matrix, expected)


def test_frame_span_invariant_under_recombination():
    rng = np.random.default_rng(3)
    F = tangent_frame(QUADRIC_PAIR, [0.7, -0.4])
    R = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert abs(np.linalg.det(R)) > 1e-6
    new_dirs = R @ F.matrix[1:]
    stacked = np.vstack([F.matrix, new_dirs])
    assert numerical_rank(stacked).rank == 3


# -- hessian contraction -----------------------------------------------------------


def test_contraction_examples():
    assert np.allclose(hessian_contraction(CONIC.hessian0(), [1.5]), [[3.0]])
    H = hessian_contraction(MIXED.hessian0(), [1.0, 2.0])
    assert np.allclose(H, [[2, 0], [2, 1]])
    Hc = hessian_contraction(CYLINDER.hessian0(), [3.0, 5.0])
    assert np.allclose(Hc, [[6, 0], [0, 0]])


def test_contraction_linearity_exact():
    rng = random.Random(6)
    T = MIXED.hessian0_exact()
    for _ in range(10):
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        u = random_rational_point(2, 20, rng)
        v = random_rational_point(2, 20, rng)
        left = hessian_contraction_exact(T, [a * x + b * y for x, y in zip(u, v)])
        Hu = hessian_contraction_exact(T, u)
        Hv = hessian_contraction_exact(T, v)
        for i in range(2):
            for j in range(2):
                assert left[i][j] == Hu[i][j] * a + Hv[i][j] * b


# a dense quadratic graph with mixed denominators and complex coefficients
DENSE3 = graph(
    [
        "1/2*u1^2 - 2/3*u1*u2 + i*u2*u3 + 5/4*u3^2",
        "(1/3 - 1/2*i)*u1*u3 + u2^2 - 3/5*u2*u3",
        "-7/6*u1^2 + 2/7*i*u1*u2 + u3^2 - 1/4*u1*u3",
    ],
    3,
)
# points with non-integer and complex entries
FRACTIONAL_POINTS = [
    (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)),
    (GaussianRational(Fraction(1, 3), Fraction(-1, 2)), Fraction(3, 4), 2),
    (Fraction(-9, 10), GaussianRational(0, Fraction(2, 5)), Fraction(1, 6)),
]


def test_contraction_exact_matches_reference_at_fractional_points():
    for g in (MIXED, CYLINDER, DENSE3):
        T = g.hessian0_exact()
        for xi in FRACTIONAL_POINTS:
            xi = xi[: g.n]
            assert hessian_contraction_exact(T, xi) == reference_contraction(T, xi)


def test_exact_det_and_bundle_rank_at_fractional_points():
    T = DENSE3.hessian0_exact()
    for xi in FRACTIONAL_POINTS:
        H = reference_contraction(T, xi)
        assert exact_det(hessian_contraction_exact(T, xi)) == reference_det(H)
        assert tangent_bundle_rank_check(DENSE3, xi).rank == 3 + reference_rank(H)
    # the cylinder's contraction has rank 1 at every point
    for xi in FRACTIONAL_POINTS:
        assert tangent_bundle_rank_check(CYLINDER, xi[:2]).rank == 3


# -- fullness test -------------------------------------------------------------------


def test_tan_is_full_quadric_pair_symbolic():
    cert = tan_is_full(QUADRIC_PAIR)
    assert cert.verdict == HOLDS
    assert cert.method == EXACT_SYMBOLIC
    det = parse_poly(cert.details["determinant"], 2)
    assert det == parse_poly("4*u1*u2", 2)


def test_tan_is_full_mixed_symbolic_with_witness():
    cert = tan_is_full(MIXED)
    assert cert.verdict == HOLDS
    det = parse_poly(cert.details["determinant"], 2)
    assert det == parse_poly("2*u1^2", 2)
    assert cert.witness == (Fraction(1), Fraction(1))
    assert cert.details["determinant_at_witness"] == "2"


def test_tan_is_full_cylinder_fails():
    cert = tan_is_full(CYLINDER)
    assert cert.verdict == FAILS
    assert cert.method == EXACT_SYMBOLIC


def test_tan_is_full_conic_and_zero_map():
    assert tan_is_full(CONIC).verdict == HOLDS
    assert tan_is_full(graph(["0"], 1)).verdict == FAILS


def test_tan_is_full_auto_normalizes():
    g = graph(["u1^2 + 3*u1 + 7"], 1)
    assert tan_is_full(g).verdict == HOLDS


def test_tan_is_full_ignores_the_affine_part():
    # H is read from f's Hessian at the origin, so a graph with affine terms
    # and its normalization get equal certificates: every graph built-in on
    # the symbolic path, and n = 5 graphs on the Schwartz-Zippel path, one
    # whose identity test holds and one whose test fails
    from pathlib import Path

    from tansec import registry
    from tansec.poly import PolyMap, Polynomial
    from tansec.varfile import parse_variety_file

    golden = Path(__file__).resolve().parent / "golden"
    graphs = [vf.to_variety() for vf in registry.BUILTINS]
    graphs += [parse_variety_file((golden / f"{name}.var").read_text()).to_variety() for name in ("dense-n5", "degenerate-n5")]
    rng = random.Random(11)
    for g in graphs:
        n = g.n
        affine = [
            p + Polynomial.const(n, Fraction(rng.randint(-9, 9), 2))
            + sum((Polynomial.variable(n, k) * rng.randint(-5, 5) for k in range(n)), Polynomial.zero(n))
            for p in g.f.components
        ]
        shifted = GraphVariety(PolyMap(affine))
        assert not shifted.normalized
        expected = tan_is_full(shifted.normalized_at_origin(), trials=20, rng=random.Random(3))
        assert tan_is_full(shifted, trials=20, rng=random.Random(3)) == expected
        assert tan_is_full(g, trials=20, rng=random.Random(3)) == expected
    assert {tan_is_full(g, trials=20).method for g in graphs} == {EXACT_SYMBOLIC, SCHWARTZ_ZIPPEL}
    assert [tan_is_full(g, trials=20).verdict for g in graphs[-2:]] == [HOLDS, FAILS]


def test_tan_is_full_schwartz_zippel_path():
    # above SYMBOLIC_MAX_DIM: the quadric and cylinder patterns at n = 5,
    # with the failure bound (n / 2B)^trials of an all-zero run, B = 2 n trials
    from tansec.tangent import SYMBOLIC_MAX_DIM

    n = SYMBOLIC_MAX_DIM + 1
    holds = tan_is_full(graph([f"u{i}^2" for i in range(1, n + 1)], n), trials=20)
    assert holds.verdict == HOLDS
    assert holds.method == SCHWARTZ_ZIPPEL
    fails = tan_is_full(graph(["u1^2"] + [f"u1^{k}" for k in range(3, n + 2)], n), trials=20)
    assert fails.verdict == FAILS and fails.method == SCHWARTZ_ZIPPEL
    assert fails.trials == 20 and fails.details["box"] == 2 * n * 20
    assert fails.error_bound == (n / (4 * n * 20)) ** 20
    assert 0 < fails.error_bound < 1e-20


def test_tan_is_full_dimension_switchover():
    # n=4 still expands the determinant symbolically; n=5 switches to
    # randomized identity testing at exact integer points
    def diag_quadrics(n, degenerate=False):
        comps = []
        for i in range(n):
            e = [0] * n
            e[i] += 2
            if degenerate and i == n - 1:
                e = [0] * n
                e[0] += 3
            comps.append(parse_poly("0", n) + Polynomial(n, {tuple(e): 1}))
        return GraphVariety(PolyMap(comps))

    from tansec.poly import PolyMap, Polynomial

    c4 = tan_is_full(diag_quadrics(4))
    assert c4.verdict == HOLDS and c4.method == EXACT_SYMBOLIC
    assert parse_poly(c4.details["determinant"], 4) == parse_poly("16*u1*u2*u3*u4", 4)

    c5 = tan_is_full(diag_quadrics(5))
    assert c5.verdict == HOLDS and c5.method == SCHWARTZ_ZIPPEL

    c5f = tan_is_full(diag_quadrics(5, degenerate=True))
    assert c5f.verdict == FAILS and c5f.method == SCHWARTZ_ZIPPEL
    assert c5f.trials == 100
    assert 0 < c5f.error_bound < 1e-100


def _reference_symbolic_fullness(G):
    """det H(u) expanded with Polynomial arithmetic from the exact Hessian at
    the origin, and the first nonzero point of the witness search, found
    with exact evaluation: (determinant, witness, value there)."""
    from tansec.poly import Polynomial, poly_matrix_det

    n = G.n
    T = G.normalized_at_origin().hessian0_exact()
    H = [
        [sum((Polynomial.variable(n, k) * T[i][j][k] for k in range(n)), Polynomial.zero(n)) for j in range(n)]
        for i in range(n)
    ]
    det = poly_matrix_det(H)
    if det.is_zero:
        return det, None, None
    candidates = [tuple(Fraction(1) for _ in range(n)), tuple(Fraction(k + 1) for k in range(n))]
    rng = random.Random(0)
    for _ in range(200):
        for cand in candidates:
            if det.eval_exact(cand):
                return det, cand, det.eval_exact(cand)
        candidates = [random_rational_point(n, 10 * (n + 1), rng)]
    return det, None, None


def test_symbolic_fullness_matches_the_polynomial_determinant(tmp_path):
    # the determinant expanded on the integer Hessian table, and its witness
    # found by integer evaluation, are those of Polynomial arithmetic: on
    # every round-0 graph input with n <= 4 of both benchmark workloads and
    # on the built-in graphs
    from pathlib import Path

    from helpers import load_perfbench
    from tansec.registry import BUILTINS
    from tansec.varfile import parse_variety_file

    gen = load_perfbench("gen")
    graphs = [GraphVariety(parse_map(vf.exprs, vf.n)) for vf in BUILTINS if vf.kind == "graph"]
    for workload in ("recover", "certify"):
        for job in gen.make_jobs(workload, 1, tmp_path / workload, rounds=1):
            vf = parse_variety_file(Path(job["argv"][1]).read_text())
            if vf.kind == "graph" and vf.n <= 4:
                graphs.append(GraphVariety(parse_map(vf.exprs, vf.n)))
    assert len(graphs) > 20
    for G in graphs:
        det, witness, value = _reference_symbolic_fullness(G)
        cert = tan_is_full(G)
        assert cert.method == EXACT_SYMBOLIC and cert.holds == (not det.is_zero)
        assert cert.details["determinant"] == det.to_expr()
        assert cert.witness == witness
        assert cert.details.get("determinant_at_witness") == (None if value is None else str(value))


def test_tan_is_full_float_sampling_on_parametrizations():
    # a parametrization samples K(w, a) in floats; its witness is a point
    # (w, a), and a chart is refused, since its fullness is psi's
    cert = tan_is_full(QUADRIC_PAIR.as_param(), trials=40)
    assert cert.method == FLOAT_SAMPLING
    assert cert.verdict == HOLDS and cert.successes == 40
    assert cert.witness.shape == (4,)
    cyl = tan_is_full(CYLINDER.as_param(), trials=40)
    assert cyl.verdict == FAILS and cyl.successes == 0 and cyl.witness is None
    # components of very different scales still give a full K
    scaled = ParamVariety(parse_map(["u1", "u2", "u1^2", "1000000000*u2^2"], 2))
    assert tan_is_full(scaled, trials=40).successes == 40
    with pytest.raises(TypeError):
        tan_is_full(normalize_at(QUADRIC_PAIR.as_param(), np.zeros(2)), trials=40)
    # K overflows at part of the box: those samples are not full, and the
    # others are still tested
    huge = ParamVariety(parse_map(["u1", f"{10**306}*u1^12"], 1))
    with np.errstate(over="ignore", invalid="ignore"):
        cert = tan_is_full(huge, trials=40, rng=random.Random(1))
    assert cert.method == FLOAT_SAMPLING and cert.successes < 40


def test_tan_is_full_as_param_gives_the_graph_verdict_on_every_builtin():
    from tansec import registry

    for vf in registry.BUILTINS:
        G = vf.to_variety()
        assert isinstance(G, GraphVariety)
        graph_verdict = tan_is_full(G).verdict
        assert graph_verdict == (HOLDS if vf.name in registry.FULL_TANGENT else FAILS)
        cert = tan_is_full(G.as_param(), trials=40, rng=random.Random(2))
        assert cert.method == FLOAT_SAMPLING and cert.verdict == graph_verdict, vf.name


# -- bundle rank cross-check -----------------------------------------------------------


def test_bundle_rank_conic():
    assert tangent_bundle_rank_check(CONIC, [Fraction(1)]).rank == 2


def test_bundle_rank_cylinder_deficient():
    rng = random.Random(15)
    for _ in range(5):
        xi = random_rational_point(2, 50, rng)
        assert tangent_bundle_rank_check(CYLINDER, xi).rank == 3


def test_bundle_rank_equals_n_plus_rank_h():
    rng = random.Random(31)
    for g in (CONIC, CUBIC_CONIC, QUADRIC_PAIR, MIXED, CYLINDER):
        for _ in range(10):
            xi = random_rational_point(g.n, 100, rng)
            block_rank = tangent_bundle_rank_check(g, xi).rank
            H = hessian_contraction_exact(g.hessian0_exact(), xi)
            assert block_rank == g.n + exact_rank(H)


def test_bundle_rank_float_path_agrees():
    xi = [0.3 + 0.2j, -0.9]
    r = tangent_bundle_rank_check(QUADRIC_PAIR, xi)
    assert r.rank == 4


def test_bundle_rank_requires_normalized():
    with pytest.raises(NotNormalizedError):
        tangent_bundle_rank_check(graph(["u1^2 + u1"], 1), [Fraction(1)])


# -- the bundle determinant det K(w, a) ---------------------------------------------------


def _benchmark_varieties(tmp_path, workload, kind):
    """The varieties of the round-0 jobs of a benchmark workload of one kind."""
    from pathlib import Path

    from helpers import load_perfbench
    from tansec.varfile import parse_variety_file

    jobs = load_perfbench("gen").make_jobs(workload, 1, tmp_path / workload, rounds=1)
    return [parse_variety_file(Path(j["argv"][1]).read_text()).to_variety() for j in jobs if j["kind"] == kind]


def _exact_bundle_points(rng, n):
    """(w, a) at integers, with mixed denominators, and Gaussian rational."""
    from helpers import random_gaussian

    return [
        (random_rational_point(n, 50, rng), random_rational_point(n, 50, rng)),
        tuple([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(2)),
        tuple([random_gaussian(rng, imag_prob=0.6) for _ in range(n)] for _ in range(2)),
    ]


def test_exact_bundle_matrix_is_the_ramification_jacobian(tmp_path):
    # the exact K(w, a) equals the float Jacobian of F(w, a) = psi(w) +
    # Dpsi(w) a - P that the ramification solver builds, on every round-0
    # param input of both workloads and on graphs as parametrizations
    from tansec.projection import Center, _ramification_system
    from tansec.tangent import bundle_matrix_exact

    varieties = _benchmark_varieties(tmp_path, "recover", "param") + _benchmark_varieties(tmp_path, "certify", "param")
    assert len(varieties) == 14
    varieties += [g.as_param() for g in (CUBIC_CONIC, MIXED, CYLINDER, DENSE3)]
    rng = random.Random(12)
    for V in varieties:
        n = V.n
        system = _ramification_system(V, Center.from_affine(np.zeros(n), np.zeros(n)))[0]
        for w, a in _exact_bundle_points(rng, n):
            K = np.array([[GaussianRational.coerce(x).to_complex() for x in row] for row in bundle_matrix_exact(V.psi, w, a)])
            X = np.array([GaussianRational.coerce(x).to_complex() for x in (*w, *a)])
            J = system(X[None])[1][0]
            assert np.abs(J - K).max() <= 1e-12 * max(1.0, float(np.abs(K).max()))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_graph_bundle_determinant_is_the_signed_param_determinant(n):
    # det f_uu(w)[a] = (-1)^n det K of the graph as a parametrization; the
    # graph's determinant is reported as det K itself
    from helpers import random_polynomial
    from tansec.poly import PolyMap
    from tansec.tangent import bundle_determinant, bundle_matrix_exact

    rng = random.Random(20 + n)
    G = GraphVariety(PolyMap([random_polynomial(rng, n, max_degree=3, max_terms=6) for _ in range(n)]))
    grad, hess = G.f._derivatives()
    for w, a in _exact_bundle_points(rng, n):
        T = [[[h[min(j, k), max(j, k)].eval_exact(w) for k in range(n)] for j in range(n)] for h in hess]
        det_h = reference_det(reference_contraction(T, a))
        det_k = exact_det(bundle_matrix_exact(G.as_param().psi, w, a))
        assert det_h == (-1) ** n * det_k
        assert bundle_determinant(G, w, a) == det_k == bundle_determinant(G.as_param(), w, a)


def test_bundle_cross_check_stops_at_the_first_nonzero_determinant():
    from tansec.tangent import bundle_determinant, bundle_rank_cross_check

    for V in (QUADRIC_PAIR, CUBIC_CONIC, QUADRIC_PAIR.as_param()):
        cert = bundle_rank_cross_check(V, 10, random.Random(4))
        assert cert.verdict == HOLDS and cert.method == SCHWARTZ_ZIPPEL
        assert cert.trials == cert.successes == 1 and cert.error_bound is None
        w, a = cert.witness[: V.n], cert.witness[V.n :]
        assert cert.details["determinant_at_witness"] == str(bundle_determinant(V, w, a)) != "0"


def test_bundle_cross_check_reports_the_exact_error_bound(tmp_path):
    # every draw vanishes: failure probability (D / (2 BUNDLE_BOX + 1))^trials,
    # D = sum max(deg f_i - 1, 0), exactly
    from tansec.tangent import BUNDLE_BOX, bundle_degree, bundle_rank_cross_check

    assert BUNDLE_BOX == 100
    degenerate = _benchmark_varieties(tmp_path, "certify", "graph")[1]
    assert degenerate.n == 2 and tan_is_full(degenerate).verdict == FAILS
    for V, D in ((CYLINDER, 1 + 2), (CYLINDER.as_param(), 1 + 2), (degenerate, 2), (graph(["0"], 1), 0)):
        assert bundle_degree(V) == D
        cert = bundle_rank_cross_check(V, 7, random.Random(1))
        assert cert.verdict == FAILS and cert.method == SCHWARTZ_ZIPPEL
        assert cert.trials == 7 and cert.successes == 0 and cert.witness is None
        assert cert.error_bound == (D / 201) ** 7


def test_tan_is_full_param_stack_matches_the_one_point_loop(tmp_path):
    # a parametrization's points (w, a) are drawn in order and tested in
    # stacks of K; the certificate is the one a point-by-point loop gives
    from helpers import reference_param_fullness
    from tansec.tangent import CHUNK

    varieties = [ParamVariety(chart.psi) for _, _, chart in _benchmark_charts(tmp_path)]
    varieties.append(CYLINDER.as_param())
    for V in varieties:
        for trials, seed in ((1, 3), (40, 5), (CHUNK + 3, 7)):
            cert = tan_is_full(V, trials=trials, rng=random.Random(seed))
            successes, witness = reference_param_fullness(V, trials, random.Random(seed))
            assert cert.successes == successes
            assert (cert.witness is None) == (witness is None)
            if witness is not None:
                assert np.array_equal(cert.witness, witness)


def test_stacked_frames_match_the_one_point_frames(tmp_path):
    # a stack of points gives, from one jet and one stacked rank, the
    # frames of its points one at a time, with the same ranks, on every
    # round-0 input of both workloads
    varieties = [
        V
        for workload in ("recover", "certify")
        for kind in ("graph", "param")
        for V in _benchmark_varieties(tmp_path, workload, kind)
    ]
    assert len(varieties) == 46
    rng = random.Random(21)
    for V in varieties:
        U = np.array([random_point(V.n, 1.0, rng) for _ in range(5)])
        M, full = tangent_frame(V, U)
        assert M.shape == (5, V.n + 1, 2 * V.n + 1) and full.all()
        for u, m in zip(U, M):
            one = tangent_frame(V, u).matrix
            assert np.abs(m - one).max() <= 1e-14 * np.abs(one).max()
            assert numerical_rank(m).rank == numerical_rank(one).rank == V.n + 1


def test_stacked_frames_mask_degenerate_and_non_finite_frames():
    # psi = (w^2, w^3) is not immersive at w = 0; a NaN frame is masked
    # instead of stopping the SVD of the stack; one point raises
    from tansec.errors import DegenerateInputError

    cusp = ParamVariety(parse_map(["u1^2", "u1^3"], 1))
    M, full = tangent_frame(cusp, np.array([[1.0], [0.0], [np.nan], [2.0]]))
    assert full.tolist() == [True, False, False, True]
    assert np.isnan(M[2]).any()
    for u in ([0.0], [np.nan]):
        with pytest.raises(DegenerateInputError):
            tangent_frame(cusp, u)


# -- secant dimension --------------------------------------------------------------------


def test_secant_dim_conic():
    dim, cert = secant_dim_estimate(CONIC, trials=30, rng=random.Random(1))
    assert dim == 2
    assert cert.verdict == HOLDS
    assert cert.details["rank_distribution"] == {"3": 30}


def test_secant_dim_quadric_pair_matches_exact_stack():
    # exact oracle: the 6x5 stack of the frames at u=(1,2) and v=(3,1)
    rows = [
        [1, 1, 2, 1, 4],
        [0, 1, 0, 2, 0],
        [0, 0, 1, 0, 4],
        [1, 3, 1, 9, 1],
        [0, 1, 0, 6, 0],
        [0, 0, 1, 0, 2],
    ]
    assert exact_rank(rows) == 5
    dim, _ = secant_dim_estimate(QUADRIC_PAIR, trials=30, rng=random.Random(2))
    assert dim == 4


def test_secant_dim_linear_graph():
    # a line is its own secant variety
    line = graph(["0"], 1)
    dim, _ = secant_dim_estimate(line, trials=20, rng=random.Random(4))
    assert dim == 1


@pytest.mark.parametrize("trials", [30, 300])
def test_secant_dim_matches_the_one_trial_loop(tmp_path, trials):
    # stacks of frames, ranked as one stack of pairs, give the loop's
    # estimate and rank distribution; 300 trials draw 600 points, three
    # stacks of frames
    from helpers import reference_secant_dim_estimate

    varieties = [CONIC, QUADRIC_PAIR, CYLINDER, graph(["0"], 1), ParamVariety(parse_map(["u1^2", "u1^3"], 1))]
    varieties += _benchmark_varieties(tmp_path, "certify", "param")[:2]
    for V in varieties:
        dim, cert = secant_dim_estimate(V, trials=trials, rng=random.Random(7))
        want, successes, distribution, failures = reference_secant_dim_estimate(V, trials, random.Random(7))
        assert dim == want and cert.successes == successes
        assert cert.details.get("rank_distribution", {}) == {str(k): v for k, v in distribution.items()}
        assert cert.details.get("evaluation_failures", 0) == failures


def test_secant_dim_counts_a_non_finite_frame_as_a_failure(monkeypatch):
    # a jet that overflows to NaN at the points with Re u_1 > 0.5 fails
    # those trials; it does not stop the stack's SVD
    jet_at = GraphVariety.jet_at

    def overflowing(G, u):
        jet = jet_at(G, u)
        jet.value[np.asarray(u)[..., 0].real > 0.5] = np.nan
        return jet

    monkeypatch.setattr(GraphVariety, "jet_at", overflowing)
    dim, cert = secant_dim_estimate(QUADRIC_PAIR, trials=40, rng=random.Random(2))
    failures = cert.details["evaluation_failures"]
    assert 0 < failures < 40 and dim == 4
    assert sum(cert.details["rank_distribution"].values()) + failures == 40


def test_secant_dim_cylinder_full_while_tangent_fails():
    dim, cert = secant_dim_estimate(CYLINDER, trials=30, rng=random.Random(3))
    assert dim == 4
    assert cert.verdict == HOLDS
    assert tan_is_full(CYLINDER).verdict == FAILS


# -- tangent intersection -------------------------------------------------------------------


def test_intersection_of_conic_tangents():
    # hand oracle: tangents of the parabola at u=1 and u=5 are y = 2x - 1 and
    # y = 10x - 25, meeting at (3, 5)
    F1 = tangent_frame(CONIC, [1.0])
    F2 = tangent_frame(CONIC, [5.0])
    P = tangent_intersection(F1, F2)
    assert chordal_distance(P, [1.0, 3.0, 5.0]) < 1e-10
    assert np.isclose(np.abs(P).max(), 1.0)


def test_intersection_identical_frames_non_transverse():
    F = tangent_frame(CONIC, [1.0])
    with pytest.raises(NonTransverseError):
        tangent_intersection(F, F)


def test_intersection_cylinder_constant_point():
    rng = random.Random(9)
    from tansec.poly import random_point

    e3 = np.array([0, 0, 1, 0, 0], dtype=complex)
    for _ in range(8):
        F1 = tangent_frame(CYLINDER, random_point(2, 1.0, rng))
        F2 = tangent_frame(CYLINDER, random_point(2, 1.0, rng))
        P = tangent_intersection(F1, F2)
        assert chordal_distance(P, e3) < 1e-8


def test_intersection_representative_ignores_round_off_in_tied_moduli():
    # coordinates tied in modulus, such as 8 and -8, normalize by the first
    # of them however round-off moves either by one ulp
    from tansec.tangent import normalized_representative

    x = np.array([0.5, 8.0, -8.0, 3.0 - 1.0j])
    want = x / 8.0
    for k in (1, 2):
        for direction in (np.inf, 0.0):
            tilted = x.copy()
            tilted[k] = np.nextafter(x[k].real, np.copysign(direction, x[k].real))
            for phase in (1.0, -1.0, 1j, np.exp(0.3j)):
                got = normalized_representative(phase * tilted)
                assert got[1] == 1.0
                assert np.abs(got - want).max() <= 1e-15


def test_intersection_symmetry_and_scale_invariance():
    F1 = tangent_frame(QUADRIC_PAIR, [0.5, 0.25])
    F2 = tangent_frame(QUADRIC_PAIR, [-0.3, 0.8])
    P12 = tangent_intersection(F1, F2)
    P21 = tangent_intersection(F2, F1)
    assert chordal_distance(P12, P21) < 1e-9
    scaled = type(F1)(F1.point, np.diag([2.0, -1.5j, 1.0]) @ F1.matrix)
    P_scaled = tangent_intersection(scaled, F2)
    assert chordal_distance(P12, P_scaled) < 1e-9


# -- the p map -------------------------------------------------------------------------------


def test_p_map_conic():
    assert np.allclose(p_map(CONIC, [1.0]), [0.5])


def test_p_map_quadratic_half_law():
    # for purely quadratic f, f_u(u)^-1 f(u) = u/2 exactly
    rng = random.Random(4)
    from tansec.poly import random_point

    for g in (QUADRIC_PAIR, MIXED):
        for _ in range(10):
            u = random_point(2, 0.5, rng)
            assert np.linalg.norm(p_map(g, u) - u / 2) <= 1e-12 * max(1.0, np.linalg.norm(u))


def test_p_map_half_law_on_random_quadratics():
    # any purely quadratic graph map halves its argument wherever the
    # jacobian is invertible
    rng = random.Random(19)
    from tansec.poly import Polynomial, PolyMap, random_point

    for _ in range(10):
        n = rng.randint(1, 3)
        comps = []
        for _ in range(n):
            terms = {}
            for j in range(n):
                for k in range(j, n):
                    e = [0] * n
                    e[j] += 1
                    e[k] += 1
                    terms[tuple(e)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            comps.append(Polynomial(n, terms))
        g = GraphVariety(PolyMap(comps))
        for _ in range(5):
            u = random_point(n, 0.5, rng)
            try:
                p = p_map(g, u)
            except SingularTangentJacobianError:
                continue
            assert np.linalg.norm(p - u / 2) <= 1e-10 * max(1.0, np.linalg.norm(u))


def test_p_map_cubic_anchor():
    # univariate oracle: p(u) = u(1+2u)/(2+3u), so p(1) = 3/5
    assert np.allclose(p_map(CUBIC_CONIC, [1.0]), [0.6], atol=1e-12)


def test_p_map_cylinder_singular():
    with pytest.raises(SingularTangentJacobianError):
        p_map(CYLINDER, [0.4, 0.7])
    with pytest.raises(SingularTangentJacobianError):
        p_jacobian_fd(CYLINDER, [0.4, 0.7])


def test_p_jacobian_closed_anchors():
    assert np.allclose(p_jacobian_closed(CONIC, [0.37]), [[0.5]], atol=1e-10)
    # differentiate u(1+2u)/(2+3u) by hand: at u=1 the value is 16/25
    assert np.allclose(p_jacobian_closed(CUBIC_CONIC, [1.0]), [[0.64]], atol=1e-10)
    assert np.allclose(p_jacobian_fd(CUBIC_CONIC, [1.0]), [[0.64]], atol=1e-8)


def test_p_jacobian_closed_matches_finite_differences():
    rng = random.Random(12)
    from tansec.poly import random_point

    for g in (CONIC, CUBIC_CONIC, QUADRIC_PAIR, MIXED):
        for _ in range(15):
            u = random_point(g.n, 0.4, rng)
            if np.linalg.norm(u) < 0.05:
                continue
            closed = p_jacobian_closed(g, u)
            fd = p_jacobian_fd(g, u)
            scale = max(1.0, float(np.abs(closed).max()))
            assert np.abs(closed - fd).max() / scale <= 1e-6


def test_near_origin_limit():
    # with f quadratic + higher order, dp -> I/2 as u -> 0
    rng = np.random.default_rng(8)
    for _ in range(5):
        u = rng.normal(size=1) + 1j * rng.normal(size=1)
        u = u / np.linalg.norm(u)
        J = p_jacobian_closed(CUBIC_CONIC, 1e-3 * u)
        assert np.linalg.norm(J - 0.5 * np.eye(1)) <= 1e-2


# -- dominance --------------------------------------------------------------------------------


def test_dominance_conic_holds():
    cert = dominance_certificate(CONIC, trials=50, rng=random.Random(0))
    assert cert.verdict == HOLDS
    assert cert.details["singular_jacobian"] == 0


def test_dominance_quadric_pair_holds():
    cert = dominance_certificate(QUADRIC_PAIR, trials=50, rng=random.Random(1))
    assert cert.verdict == HOLDS


def test_dominance_cylinder_fails_all_singular():
    cert = dominance_certificate(CYLINDER, trials=50, rng=random.Random(2))
    assert cert.verdict == FAILS
    assert cert.successes == 0
    assert cert.details["singular_jacobian"] == 50


def test_dominance_requires_normalized():
    with pytest.raises(NotNormalizedError):
        dominance_certificate(graph(["u1^2 + u1"], 1))


def test_dominance_consistent_with_bundle_rank():
    # full-rank p-differential should coincide with full bundle rank samples
    rng = random.Random(21)
    from tansec.poly import random_point

    cert = dominance_certificate(MIXED, trials=40, rng=random.Random(7))
    assert cert.verdict == HOLDS
    full = 0
    for _ in range(40):
        xi = random_point(2, 1.0, rng)
        if tangent_bundle_rank_check(MIXED, xi).rank == 4:
            full += 1
    assert full >= 38


# -- charts sampled in parameter space ----------------------------------------------------


def _benchmark_charts(tmp_path):
    """(family, n, chart) for the param-flat and param-bent files of round 0
    of the benchmark's certify workload, charted as ``dominance`` charts
    them."""
    from pathlib import Path

    from helpers import load_perfbench
    from tansec.cli import build_geometry
    from tansec.varfile import parse_variety_file

    jobs = load_perfbench("gen").make_jobs("certify", 1, tmp_path, rounds=1)
    out = []
    for job in jobs:
        if job["command"] == "dominance" and job["kind"] == "param":
            vf = parse_variety_file(Path(job["argv"][1]).read_text())
            out.append((job["family"], job["n"], build_geometry(vf.to_variety(), 0)[0]))
    return out


def test_chart_differential_at_parameter_point_matches_chart_coordinates(tmp_path):
    # p from its definition (one solve in chart coordinates, no second
    # derivatives) equals v - f_u^-1 f from the graph map's jet at v(w), and
    # the closed differential at w is Dp(v(w)) dv/dw
    from tansec.poly import random_point
    from tansec.tangent import _p_differentials, _p_samples

    charts = _benchmark_charts(tmp_path)
    assert sorted((family, n) for family, n, _ in charts) == [
        ("param-bent", 1), ("param-bent", 2), ("param-flat", 1), ("param-flat", 2)
    ]
    rng = random.Random(5)
    for _, n, chart in charts:
        W = chart.u0 + np.array([random_point(n, 0.1, rng) for _ in range(20)])
        V, dV, jets, evaluated = chart.parameter_jet(W)
        differentials, defined = _p_differentials(jets)
        p_at_w, p_defined = _p_samples(chart, W)
        assert evaluated.all() and defined.all() and p_defined.all()
        assert np.abs(V - chart.forward(W)[:, :n]).max() <= 1e-12
        for w, v, dv, differential, p, value, jac in zip(
            W, V, dV, differentials, p_at_w, jets.value, jets.jacobian
        ):
            assert np.abs(dv - (chart.A @ chart.psi.jacobian_at(w))[:n]).max() <= 1e-12
            assert np.abs(p - (v - np.linalg.solve(jac, value))).max() <= 1e-10
            assert np.abs(p_map(chart, w) - p).max() <= 1e-13
            closed = p_jacobian_closed(chart, w)
            scale = max(1.0, float(np.abs(closed).max()))
            assert np.abs(differential @ dv - closed).max() / scale <= 1e-10


def test_chart_closed_differential_matches_finite_differences(tmp_path):
    # both differentials take the parameter point w on a chart
    from tansec.poly import random_point
    from tansec.tangent import FD_TOL

    rng = random.Random(9)
    for _, n, chart in _benchmark_charts(tmp_path):
        for _ in range(10):
            w = chart.u0 + random_point(n, 0.1, rng)
            closed = p_jacobian_closed(chart, w)
            fd = p_jacobian_fd(chart, w)
            scale = max(1.0, float(np.abs(closed).max()))
            assert np.abs(closed - fd).max() / scale <= FD_TOL


def test_tangent_frame_refuses_a_chart():
    # a chart is evaluated only at parameter points; its frames are psi's
    chart = normalize_at(MIXED.as_param(), np.zeros(2))
    with pytest.raises(TypeError):
        tangent_frame(chart, [0.1, 0.2])


def test_chart_dominance_samples_parameter_points(tmp_path):
    # charted away from the origin, the witness is a parameter point in the
    # box around the base point, not a chart point near 0, and the closed
    # differential agrees with finite differences in w
    from tansec.tangent import jacobian_agreement

    for _, n, chart in _benchmark_charts(tmp_path):
        chart = normalize_at(ParamVariety(chart.psi), np.array([0.5, -0.4])[:n])
        cert = dominance_certificate(chart, trials=30, rng=random.Random(3), box=0.1)
        assert cert.verdict == HOLDS and cert.successes == 30
        assert np.abs(cert.witness - chart.u0).max() <= 0.1 * 2**0.5
        check = jacobian_agreement(chart, 30, 0.1, random.Random(4))
        assert check["agreeing"] == 30 and check["max_relative_error"] <= 1e-8


# -- the stacked sampler against the per-sample reference ---------------------------------


def _certify_graphs(tmp_path, family, sizes):
    """(n, graph) for the round-0 files of a graph family of the benchmark's
    certify workload."""
    from pathlib import Path

    from helpers import load_perfbench
    from tansec.varfile import parse_variety_file

    jobs = load_perfbench("gen").make_jobs("certify", 1, tmp_path, rounds=1)
    out = []
    for job in jobs:
        if job["family"] == family and job["n"] in sizes:
            vf = parse_variety_file(Path(job["argv"][1]).read_text())
            out.append((vf.n, graph(vf.exprs, vf.n)))
    return out


class _SingularPsi:
    """A parametrization whose jets report a zero Jacobian at the parameter
    points with Re w_1 > cut, so a chart's K solve fails there."""

    def __init__(self, psi, cut):
        self.psi = psi
        self.cut = cut

    def __getattr__(self, name):
        return getattr(self.psi, name)

    def jet2(self, w):
        jet = self.psi.jet2(w)
        jet.jacobian[np.asarray(w)[..., 0].real > self.cut] = 0
        return jet


def _assert_matches_reference(G, trials, seed, box=0.1):
    """Every field of the certificate and of the agreement check equals the
    per-sample reference's; the worst finite-difference error may move by
    round-off."""
    from dataclasses import fields

    from helpers import reference_dominance_certificate, reference_jacobian_agreement
    from tansec.tangent import jacobian_agreement

    cert = dominance_certificate(G, trials=trials, rng=random.Random(seed), box=box)
    ref = reference_dominance_certificate(G, trials, random.Random(seed), box)
    for f in fields(cert):
        if f.name == "witness":
            assert (cert.witness is None) == (ref.witness is None)
            assert ref.witness is None or np.array_equal(cert.witness, ref.witness)
        else:
            assert getattr(cert, f.name) == getattr(ref, f.name), f.name
    check = jacobian_agreement(G, trials, box, random.Random(seed + 1))
    ref_check = reference_jacobian_agreement(G, trials, box, random.Random(seed + 1))
    assert abs(check["max_relative_error"] - ref_check["max_relative_error"]) <= 1e-9
    assert {**check, "max_relative_error": 0} == {**ref_check, "max_relative_error": 0}
    return cert, check


def test_sampler_matches_reference_on_the_example_graphs():
    for G, seed in ((CONIC, 1), (MIXED, 2), (QUADRIC_PAIR, 3), (CUBIC_CONIC, 4)):
        cert, check = _assert_matches_reference(G, 60, seed)
        assert cert.verdict == HOLDS and check["agreeing"] == 60
    cert, check = _assert_matches_reference(CYLINDER, 40, 5)
    assert cert.details["singular_jacobian"] == 40 and check["evaluation_failures"] == 40


def test_sampler_matches_reference_where_richardson_fires(tmp_path, monkeypatch):
    # cubic terms leave some central differences over FD_TOL, so the stacked
    # check extrapolates on those samples only
    from tansec import tangent

    fine_steps = []
    original = tangent.p_jacobian_fd

    def spy(G, u, h=tangent.FD_STEP):
        if h != tangent.FD_STEP:
            fine_steps.append(len(u))
        return original(G, u, h)

    monkeypatch.setattr(tangent, "p_jacobian_fd", spy)
    graphs = _certify_graphs(tmp_path, "cubic", (2, 4))
    assert sorted(n for n, _ in graphs) == [2, 4]
    for n, G in graphs:
        _assert_matches_reference(G, 100, 10 + n)
    assert fine_steps and all(0 < s < 100 for s in fine_steps)


def test_sampler_matches_reference_on_the_benchmark_charts(tmp_path):
    for family, n, chart in _benchmark_charts(tmp_path):
        cert, check = _assert_matches_reference(chart, 100, 20 + n)
        assert cert.verdict == HOLDS and check["agreeing"] == 100


def test_sampler_counts_chart_evaluation_failures(tmp_path):
    from tansec.variety import NormalizedChart

    for _, n, chart in _benchmark_charts(tmp_path):
        forced = NormalizedChart(_SingularPsi(chart.psi, chart.u0[0].real), chart.u0, chart.A)
        cert, check = _assert_matches_reference(forced, 50, 30 + n)
        failed = cert.details["evaluation_failures"]
        assert 0 < failed < 50 and cert.successes == 50 - failed
        assert 0 < check["evaluation_failures"] < 50


def test_sampler_with_no_trials_and_past_one_chunk():
    from tansec.tangent import CHUNK

    cert, check = _assert_matches_reference(MIXED, 0, 6)
    assert cert.verdict == FAILS and cert.witness is None and cert.successes == 0
    assert check["samples"] == 0 and check["max_relative_error"] == 0.0
    cert, check = _assert_matches_reference(MIXED, CHUNK + 3, 7)
    assert cert.successes == CHUNK + 3 and check["agreeing"] == CHUNK + 3


def test_stacked_finite_differences_match_one_point_and_mark_undefined_samples():
    rng = random.Random(8)
    from tansec.poly import random_point

    U = np.array([random_point(2, 0.2, rng) for _ in range(5)] + [[0.0, 0.3]])
    D = p_jacobian_fd(MIXED, U)
    for u, d in zip(U[:-1], D):
        assert np.abs(d - p_jacobian_fd(MIXED, u)).max() <= 1e-12
    # u1 = 0 makes f_u singular at every difference point in the u2 direction
    assert np.isnan(D[-1]).all()
    with pytest.raises(SingularTangentJacobianError):
        p_jacobian_fd(MIXED, U[-1])
