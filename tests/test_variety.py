from dataclasses import replace

import numpy as np
import pytest

from tansec import variety
from tansec.errors import NewtonDivergedError, RankDeficientJacobianError
from tansec.poly import parse_map
from tansec.variety import GraphVariety, NormalizedChart, ParamVariety, normalize_at


def graph(exprs, n):
    return GraphVariety(parse_map(exprs, n))


# -- graph varieties -------------------------------------------------------------


def test_normalized_flag_is_exact():
    assert graph(["u1^2"], 1).normalized
    assert not graph(["u1^2 + 3*u1"], 1).normalized
    assert not graph(["u1^2 + 1"], 1).normalized
    assert graph(["u1^2", "u1*u2"], 2).normalized


def test_normalized_at_origin_drops_affine_part():
    g = graph(["u1^2 + u1^3 + 5 + 3*u1"], 1)
    gn = g.normalized_at_origin()
    assert gn.normalized
    assert gn.f.components[0] == parse_map(["u1^2 + u1^3"], 1).components[0]


def test_graph_embed_and_hessian0():
    g = graph(["u1^2", "u1*u2"], 2)
    pt = g.embed([1.0, 2.0])
    assert np.allclose(pt, [1, 2, 1, 2])
    T = g.hessian0()
    assert np.allclose(T[0], [[2, 0], [0, 0]])
    assert np.allclose(T[1], [[0, 1], [1, 0]])


def test_graph_rejects_mismatched_components():
    with pytest.raises(ValueError):
        graph(["u1^2", "u1"], 1)


# -- param varieties -------------------------------------------------------------


def test_param_variety_certifies_immersivity():
    ParamVariety(parse_map(["u1", "u2", "u1^2", "u2^2"], 2))
    with pytest.raises(RankDeficientJacobianError):
        ParamVariety(parse_map(["u1 + u2", "u1 + u2", "0", "0"], 2))


def test_as_param_round_trip():
    g = graph(["u1^2"], 1)
    v = g.as_param()
    assert v.psi.components[0] == parse_map(["u1"], 1).components[0]
    assert v.psi.components[1] == g.f.components[0]


# -- chart construction ------------------------------------------------------------


def test_normalized_graph_chart_is_identity():
    g = graph(["u1^2", "u1*u2"], 2)
    chart = normalize_at(g.as_param(), np.zeros(2))
    assert np.array_equal(chart.A, np.eye(4))
    for v in ([0.2, -0.1], [0.05, 0.3]):
        assert np.allclose(chart.graph_eval(v), g.f.value_at(np.asarray(v, dtype=complex)), atol=1e-10)


def test_parabola_chart_at_origin():
    V = ParamVariety(parse_map(["u1", "u1^2"], 1))
    chart = normalize_at(V, [0.0])
    assert np.array_equal(chart.A, np.eye(2))
    assert np.allclose(chart.graph_eval([0.3]), [0.09], atol=1e-12)


def test_parabola_chart_at_one_keeps_curvature():
    # oracle: shifting the graph u -> u0 + v and dropping the affine part
    # re-expands the parabola as v^2, so the chart shear is [[1,0],[-2,1]]
    # and the second-order jet at 0 is exactly 2
    V = ParamVariety(parse_map(["u1", "u1^2"], 1))
    chart = normalize_at(V, [1.0])
    assert np.allclose(chart.A, [[1.0, 0.0], [-2.0, 1.0]])
    assert np.allclose(chart.hessian0(), [[[2.0]]], atol=1e-12)
    for v in (0.1, -0.2, 0.05j):
        assert np.allclose(chart.graph_eval([v]), [v**2], atol=1e-10)


def test_scaled_parabola_chart():
    # A Dpsi(0) = [1;0] forces A = diag(1/2, 1); the implied graph map is then
    # w = v with value w^2, i.e. v^2 (closed-form inversion oracle)
    V = ParamVariety(parse_map(["2*u1", "u1^2"], 1))
    chart = normalize_at(V, [0.0])
    assert np.allclose(chart.A, [[0.5, 0.0], [0.0, 1.0]])
    assert np.allclose(chart.graph_eval([0.4]), [0.16], atol=1e-10)


def test_rank_deficient_base_point():
    V = ParamVariety(parse_map(["u1^2", "u1^3"], 1))
    with pytest.raises(RankDeficientJacobianError):
        normalize_at(V, [0.0])


# -- chart evaluation ----------------------------------------------------------------


def test_chart_jet_vanishes_at_origin():
    V = ParamVariety(parse_map(["u1 + u2^2", "u2 - u1^2", "u1*u2", "u1^2 + u2^3"], 2))
    chart = normalize_at(V, [0.3, -0.2])
    jet = chart.jet_at(np.zeros(2))
    assert np.linalg.norm(jet.value) <= 1e-10
    assert np.linalg.norm(jet.jacobian) <= 1e-10
    assert np.array_equal(jet.hessian, jet.hessian.transpose(0, 2, 1))


def test_chart_forward_consistency():
    # evaluating the graph map at the first block of a chart point must
    # reproduce the last block
    V = ParamVariety(parse_map(["u1 + u2^2", "u2 - u1^2", "u1*u2", "u1^2 + u2^3"], 2))
    chart = normalize_at(V, [0.1, 0.2])
    rng = np.random.default_rng(4)
    for _ in range(5):
        w = chart.u0 + 0.05 * (rng.normal(size=2) + 1j * rng.normal(size=2))
        z = chart.forward(w)
        val = chart.graph_eval(z[:2])
        assert np.linalg.norm(val - z[2:]) <= 1e-9


def test_chart_jet_matches_finite_differences():
    V = ParamVariety(parse_map(["u1 + u2^2", "u2 - u1^2", "u1*u2", "u1^2 + u2^3"], 2))
    chart = normalize_at(V, [0.25, -0.15])
    v0 = np.array([0.03, -0.02], dtype=complex)
    jet = chart.jet_at(v0)
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (chart.graph_eval(v0 + e) - chart.graph_eval(v0 - e)) / (2 * h)
        assert np.abs(fd - jet.jacobian[:, k]).max() < 1e-6
        fd2 = (chart.jet_at(v0 + e).jacobian - chart.jet_at(v0 - e).jacobian) / (2 * h)
        assert np.abs(fd2 - jet.hessian[:, :, k]).max() < 1e-5


def test_stacked_parameter_jet_matches_one_point_reference():
    from helpers import reference_parameter_jet

    V = ParamVariety(parse_map(["u1 + u2^2", "u2 - u1^2", "u1*u2", "u1^2 + u2^3"], 2))
    chart = normalize_at(V, [0.25, -0.15])
    rng = np.random.default_rng(6)
    W = chart.u0 + 0.1 * (rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2)))
    V_, dV, jets, ok = chart.parameter_jet(W)
    assert ok.all()
    for s, w in enumerate(W):
        v, dv, jet = reference_parameter_jet(chart, w)
        for stacked, single in (
            (V_[s], v),
            (dV[s], dv),
            (jets.value[s], jet.value),
            (jets.jacobian[s], jet.jacobian),
            (jets.hessian[s], jet.hessian),
        ):
            assert np.abs(stacked - single).max() <= 1e-13 * max(1.0, np.abs(single).max())


def test_stacked_parameter_jet_flags_a_singular_k_solve():
    # phi1 = w + w^2 at base point 0, so dphi1/dw = 1 + 2w vanishes at -1/2
    from helpers import reference_parameter_jet
    from tansec.errors import SingularMatrixError

    chart = normalize_at(ParamVariety(parse_map(["u1 + u1^2", "u1^2"], 1)), [0.0])
    W = np.array([[0.1], [-0.5], [0.2j]], dtype=complex)
    _, _, jets, ok = chart.parameter_jet(W)
    assert ok.tolist() == [True, False, True]
    with pytest.raises(SingularMatrixError):
        reference_parameter_jet(chart, W[1])
    for s in (0, 2):
        jet = reference_parameter_jet(chart, W[s])[2]
        assert np.abs(jets.hessian[s] - jet.hessian).max() <= 1e-13 * max(1.0, np.abs(jet.hessian).max())


def test_newton_divergence_is_reported_not_silent(monkeypatch):
    V = ParamVariety(parse_map(["u1 + u1^3", "u1^2"], 1))
    chart = normalize_at(V, [0.0])
    # the chart inversion gets one Newton iteration, too few to converge
    newton = variety.damped_newton
    monkeypatch.setattr(
        variety, "damped_newton", lambda f, df, x, cfg: newton(f, df, x, replace(cfg, max_iters=1))
    )
    with pytest.raises(NewtonDivergedError):
        chart.graph_eval([0.7])
    monkeypatch.undo()
    # with the default budget the same evaluation converges and is accurate:
    # w + w^3 = v at v=0.7 via the closed-form residual check
    val = chart.graph_eval([0.7])
    w = np.roots([1, 0, 1, -0.7])
    w_real = [z for z in w if abs(z.imag) < 1e-9][0]
    assert np.allclose(val, [w_real**2], atol=1e-9)
