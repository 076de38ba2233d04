import numpy as np
import pytest

from tansec.errors import RankDeficientJacobianError
from tansec.poly import parse_map
from tansec.variety import GraphVariety, ParamVariety, normalize_at


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
    T = g.hessian0()
    assert np.allclose(T[0], [[2, 0], [0, 0]])
    assert np.allclose(T[1], [[0, 1], [1, 0]])


def test_graph_hessian0_is_the_exact_hessian_in_floats():
    from tansec import registry

    graphs = [vf.to_variety() for vf in registry.BUILTINS]
    graphs.append(graph(["1/3*u1^2 - 2*u1*u2 + 7*u2 + 1", "i*u1*u2 + 2/7*u2^2 + u1^3", "u3^2 - 1/2*u1*u3"], 3))
    for g in graphs:
        T = g.hessian0()
        exact = g.hessian0_exact()
        n = g.n
        assert T.shape == (n, n, n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert T[i, j, k] == exact[i][j][k].to_complex()


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
    # A = I and u0 = 0, so v(w) = w and the graph map is f itself
    g = graph(["u1^2", "u1*u2"], 2)
    chart = normalize_at(g.as_param(), np.zeros(2))
    assert np.array_equal(chart.A, np.eye(4))
    W = np.array([[0.2, -0.1], [0.05, 0.3]], dtype=complex)
    V, dV, jets, ok = chart.parameter_jet(W)
    assert ok.all()
    assert np.array_equal(V, W)
    assert np.array_equal(dV, np.broadcast_to(np.eye(2), (2, 2, 2)))
    assert np.allclose(jets.value, g.f.value_at(W), atol=1e-14)
    assert np.allclose(jets.jacobian, g.f.jacobian_at(W), atol=1e-14)


def test_parabola_chart_at_origin():
    # psi = (w, w^2) at 0 gives A = I: v(w) = w and the graph map is v^2
    V = ParamVariety(parse_map(["u1", "u1^2"], 1))
    chart = normalize_at(V, [0.0])
    assert np.array_equal(chart.A, np.eye(2))
    for w in (0.3, -0.2 + 0.1j):
        assert np.allclose(chart.forward([[w]]), [[w, w**2]], atol=1e-15)
        jet = chart.jet_at([w])
        assert np.allclose(jet.value, [w**2], atol=1e-15)
        assert np.allclose(jet.jacobian, [[2 * w]], atol=1e-15)
        assert np.allclose(jet.hessian, [[[2.0]]], atol=1e-15)


def test_parabola_chart_at_one_keeps_curvature():
    # oracle: shifting the graph u -> u0 + v and dropping the affine part
    # re-expands the parabola as v^2, so the chart shear is [[1,0],[-2,1]],
    # v(w) = w - 1 and the graph map is v^2, with second-order jet exactly 2
    V = ParamVariety(parse_map(["u1", "u1^2"], 1))
    chart = normalize_at(V, [1.0])
    assert np.allclose(chart.A, [[1.0, 0.0], [-2.0, 1.0]])
    assert np.allclose(chart.hessian0(), [[[2.0]]], atol=1e-12)
    for v in (0.1, -0.2, 0.05j):
        w = 1.0 + v
        assert np.allclose(chart.forward([[w]]), [[v, v**2]], atol=1e-12)
        jet = chart.jet_at([w])
        assert np.allclose(jet.value, [v**2], atol=1e-12)
        assert np.allclose(jet.jacobian, [[2 * v]], atol=1e-12)
        assert np.allclose(jet.hessian, [[[2.0]]], atol=1e-12)


def test_scaled_parabola_chart():
    # A Dpsi(0) = [1;0] forces A = diag(1/2, 1); then v(w) = w, dv/dw = 1 and
    # the graph map's value at v(w) is w^2, i.e. v^2 (closed form)
    V = ParamVariety(parse_map(["2*u1", "u1^2"], 1))
    chart = normalize_at(V, [0.0])
    assert np.allclose(chart.A, [[0.5, 0.0], [0.0, 1.0]])
    v, dv, jets, ok = chart.parameter_jet([[0.4]])
    assert ok.all()
    assert np.allclose(v, [[0.4]], atol=1e-15) and np.allclose(dv, [[[1.0]]], atol=1e-15)
    assert np.allclose(jets.value, [[0.16]], atol=1e-15)
    assert np.allclose(jets.jacobian, [[[0.8]]], atol=1e-15)


def test_rank_deficient_base_point():
    V = ParamVariety(parse_map(["u1^2", "u1^3"], 1))
    with pytest.raises(RankDeficientJacobianError):
        normalize_at(V, [0.0])


# -- chart evaluation ----------------------------------------------------------------


def test_chart_jet_vanishes_at_origin():
    # the chart origin v = 0 is the parameter point w = u0
    V = ParamVariety(parse_map(["u1 + u2^2", "u2 - u1^2", "u1*u2", "u1^2 + u2^3"], 2))
    chart = normalize_at(V, [0.3, -0.2])
    jet = chart.jet_at(chart.u0)
    assert np.linalg.norm(jet.value) <= 1e-10
    assert np.linalg.norm(jet.jacobian) <= 1e-10
    assert np.array_equal(jet.hessian, jet.hessian.transpose(0, 2, 1))


def test_chart_forward_consistency():
    # the stacked chart coordinates of parameter points are the chart points
    # and graph values of parameter_jet, and each row is A (psi(w) - psi(u0))
    V = ParamVariety(parse_map(["u1 + u2^2", "u2 - u1^2", "u1*u2", "u1^2 + u2^3"], 2))
    chart = normalize_at(V, [0.1, 0.2])
    rng = np.random.default_rng(4)
    W = chart.u0 + 0.05 * (rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2)))
    Z = chart.forward(W)
    v, _, jets, ok = chart.parameter_jet(W)
    assert Z.shape == (5, 4) and ok.all()
    assert np.abs(Z[:, :2] - v).max() <= 1e-14
    assert np.abs(Z[:, 2:] - jets.value).max() <= 1e-14
    for w, z in zip(W, Z):
        assert np.abs(z - chart.A @ (V.psi.value_at(w) - V.psi.value_at(chart.u0))).max() <= 1e-14


def test_chart_jet_matches_finite_differences():
    # along w, the graph value is z2(w) and the graph jacobian is jac(v(w)),
    # so their central differences in w are jac dv/dw and hess[., ., dv/dw]
    V = ParamVariety(parse_map(["u1 + u2^2", "u2 - u1^2", "u1*u2", "u1^2 + u2^3"], 2))
    chart = normalize_at(V, [0.25, -0.15])
    w0 = chart.u0 + np.array([0.03, -0.02], dtype=complex)
    _, dv, _, _ = chart.parameter_jet(w0[None])
    jet = chart.jet_at(w0)
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        Z = chart.forward(np.array([w0 + e, w0 - e]))
        fd = (Z[0, 2:] - Z[1, 2:]) / (2 * h)
        assert np.abs(fd - jet.jacobian @ dv[0][:, k]).max() < 1e-6
        fd2 = (chart.jet_at(w0 + e).jacobian - chart.jet_at(w0 - e).jacobian) / (2 * h)
        assert np.abs(fd2 - jet.hessian @ dv[0][:, k]).max() < 1e-5


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
    with pytest.raises(SingularMatrixError):
        chart.jet_at(W[1])
    for s in (0, 2):
        jet = reference_parameter_jet(chart, W[s])[2]
        assert np.abs(jets.hessian[s] - jet.hessian).max() <= 1e-13 * max(1.0, np.abs(jet.hessian).max())
