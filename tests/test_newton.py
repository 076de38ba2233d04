"""stacked_newton against one start at a time: damped_newton, and the
one-start loop kept in tests/helpers.py as the reference."""

import numpy as np
import pytest

from helpers import reference_damped_newton
from tansec.errors import TansecError
from tansec.newton import (
    CONVERGED,
    HALVINGS_EXHAUSTED,
    ITER_CAP,
    SINGULAR_STEP,
    NewtonConfig,
    damped_newton,
    stacked_newton,
)


def system(X):
    """(x0^2 - 4, x1^2 - 1), with a Jacobian whose first entry has the wrong
    sign where Re x0 < -10, so that no step length lowers the residual
    there; raises beyond |x| = 1e40."""
    X = np.asarray(X, dtype=complex)
    if (np.abs(X) > 1e40).any():
        raise TansecError("outside the region")
    r = np.stack([X[:, 0] ** 2 - 4, X[:, 1] ** 2 - 1], axis=1)
    J = np.zeros((len(X), 2, 2), dtype=complex)
    J[:, 0, 0] = np.where(X[:, 0].real < -10, -2 * X[:, 0], 2 * X[:, 0])
    J[:, 1, 1] = 2 * X[:, 1]
    return r, J


def residual(x):
    return system(x[None])[0][0]


def jacobian(x):
    return system(x[None])[1][0]


# start, and why its run stops
SLICES = [
    ((3.0 + 0.5j, 5.0), CONVERGED),
    ((0.0, 2.0), SINGULAR_STEP),  # J = diag(0, 4)
    ((-20.0, 1.0), HALVINGS_EXHAUSTED),
    ((1e30, 1e30), ITER_CAP),  # Newton halves x per step, far from the root
    ((2.0, 1.0), CONVERGED),  # a root to begin with
    ((-1.5 - 2.0j, -3.0), CONVERGED),
    # J = diag(2e-8, 2) takes stacked_solve's SVD path; the step is ~1e8
    # long, and 20 halvings do not bring it under the residual (40 do)
    ((1e-8, 1.0), HALVINGS_EXHAUSTED),
]


# the starts where the system raises: at the start itself, and at the first
# trial point
RAISING = [(1e41, 1.0), (-9e39, 9e39)]


# each case sets the NewtonConfig class constants it names
@pytest.mark.parametrize("cfg", [{}, {"max_iters": 3, "max_halvings": 2}, {"max_halvings": 40}])
def test_stacked_newton_runs_each_slice_as_one_start_would(monkeypatch, cfg):
    for name, value in cfg.items():
        monkeypatch.setattr(NewtonConfig, name, value)
    starts = np.array([s for s, _ in SLICES], dtype=complex)
    out = stacked_newton(system, starts, NewtonConfig())
    assert len(out.stops) == len(starts)
    if not cfg:
        assert list(out.stops) == [stop for _, stop in SLICES]
    for i, start in enumerate(starts):
        one = damped_newton(residual, jacobian, start, NewtonConfig())
        ref = reference_damped_newton(residual, jacobian, start, NewtonConfig())
        for want in (one, ref):
            assert out.converged[i] == want.converged and out.iterations[i] == want.iterations
            assert np.abs(out.points[i] - want.point).max() <= 1e-12 * max(1.0, np.abs(want.point).max())
            assert abs(out.residuals[i] - want.residual) <= 1e-12 * max(1.0, want.residual)
        assert np.array_equal(out.points[i], one.point)
        assert out.converged[i] == (out.stops[i] == CONVERGED)
        value, jac = system(out.points[i][None])
        assert np.array_equal(out.values[i], value[0]) and np.array_equal(out.jacobians[i], jac[0])


def test_stacked_newton_counts_halvings_and_the_iteration_cap(monkeypatch):
    # the halvings-exhausted slice makes max_halvings + 1 trials at its
    # start, and the capped slice accepts exactly max_iters steps
    calls = []

    def counted(X):
        calls.append(len(X))
        return system(X)

    monkeypatch.setattr(NewtonConfig, "max_halvings", 4)
    cfg = NewtonConfig()
    out = stacked_newton(counted, np.array([[-20.0, 1.0]], dtype=complex), cfg)
    assert out.stops == (HALVINGS_EXHAUSTED,) and out.iterations[0] == 0
    assert calls == [1] * (1 + cfg.max_halvings + 1)
    out = stacked_newton(system, np.array([[1e30, 1e30]], dtype=complex), cfg)
    assert out.stops == (ITER_CAP,) and out.iterations[0] == cfg.max_iters


def test_newton_config_bounds_are_class_constants():
    cfg = NewtonConfig()
    assert (cfg.max_iters, cfg.max_halvings) == (50, 20)
    with pytest.raises(TypeError):
        NewtonConfig(max_iters=3)


def test_damped_newton_raises_the_evaluation_error():
    for start in RAISING:
        for newton in (damped_newton, reference_damped_newton):
            with pytest.raises(TansecError, match="outside the region"):
                newton(residual, jacobian, np.array(start, dtype=complex), NewtonConfig())


@pytest.mark.parametrize("start", RAISING)
def test_stacked_newton_raises_the_evaluation_error(start):
    # the error ends the run, whether the start runs alone or in a stack
    # with starts that do not raise
    starts = np.array([s for s, _ in SLICES] + [start], dtype=complex)
    for stack in (starts, starts[-1:]):
        with pytest.raises(TansecError, match="outside the region"):
            stacked_newton(system, stack, NewtonConfig())


def test_stacked_newton_rejects_a_flat_start():
    with pytest.raises(ValueError):
        stacked_newton(system, np.zeros(2), NewtonConfig())


def test_stacked_newton_ends_once_settled():
    # settled sees the run after every round in which slices stopped, the
    # running ones at stop None; the run ends when it returns True, and the
    # slices stopped by then hold what the whole run gives them
    starts = np.array([s for s, _ in SLICES], dtype=complex)
    whole = stacked_newton(system, starts, NewtonConfig())
    seen = []

    def settled(out):
        seen.append(out.stops)
        return out.stops[0] is not None

    out = stacked_newton(system, starts, NewtonConfig(), settled)
    assert out.stops == seen[-1] and out.stops[0] == CONVERGED
    assert out.stops[3] is None  # the capped slice runs max_iters rounds
    for before, after in zip(seen, seen[1:]):
        assert before != after and all(a is None or a == b for a, b in zip(before, after))
    for i, stop in enumerate(out.stops):
        if stop is not None:
            assert stop == whole.stops[i] and np.array_equal(out.points[i], whole.points[i])
    # a run that is never settled ends as without the argument, and its
    # last round is seen
    seen.clear()
    out = stacked_newton(system, starts, NewtonConfig(), lambda out: seen.append(out.stops) and False)
    assert seen[-1] == out.stops == whole.stops
