"""Damped Newton, run in lockstep on a stack of starts.

``stacked_newton`` is the one implementation of the step, halving and stop
rules.  Each round solves the steps of the slices that just accepted a point
with one ``stacked_solve`` and evaluates every pending trial point with one
call of the system, so a wave of ramification starts costs one polynomial
jet per round instead of one per start and iterate.  ``damped_newton`` is
its one-start case on functions of one point; the solvers run the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TansecError
from .linalg import stacked_solve

# why a slice stopped, and the codes stacked_newton keeps them as
CONVERGED = "converged"
SINGULAR_STEP = "singular_step"
HALVINGS_EXHAUSTED = "halvings_exhausted"
ITER_CAP = "iter_cap"
EVAL_ERROR = "eval_error"
_STOPS = (None, CONVERGED, SINGULAR_STEP, HALVINGS_EXHAUSTED, ITER_CAP, EVAL_ERROR)
_RUNNING, _CONVERGED, _SINGULAR_STEP, _HALVINGS_EXHAUSTED, _ITER_CAP, _EVAL_ERROR = range(len(_STOPS))


@dataclass(frozen=True)
class NewtonConfig:
    """Knobs for damped Newton and its multi-start wrapper.

    The step is halved while the residual norm does not decrease, up to
    ``max_halvings`` times, after which the start is abandoned.  ``starts``
    and ``box`` only matter for multi-start root collection.
    """

    max_iters: int = 50
    tol: float = 1e-12
    max_halvings: int = 20
    starts: int = 64
    box: float = 3.0


@dataclass(frozen=True)
class NewtonResult:
    point: np.ndarray
    residual: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class NewtonStack:
    """``stacked_newton``'s outcome, one entry per start.

    ``points`` are the last accepted points, ``values`` and ``jacobians``
    the system's residual vectors and Jacobians there, and ``residuals``
    their norms.  ``stops`` says why each slice stopped (CONVERGED,
    SINGULAR_STEP, HALVINGS_EXHAUSTED, ITER_CAP or EVAL_ERROR), or is None
    for a slice still running when the run ended early; ``errors`` holds
    the TansecError of each EVAL_ERROR slice, None elsewhere.  The values
    and Jacobians of a slice whose start point raised are zero.
    """

    points: np.ndarray
    values: np.ndarray
    jacobians: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    stops: tuple[str, ...]
    errors: tuple[TansecError | None, ...]


def _evaluate(system, X: np.ndarray):
    """``system(X)`` as (values, Jacobians, {row: TansecError}).  When a stack
    of several points raises TansecError, its rows are evaluated one at a
    time, and only the rows that raise get an error (and zero values and
    Jacobians)."""
    try:
        r, J = system(X)
    except TansecError as exc:
        if len(X) == 1:
            d = X.shape[1]
            return np.zeros((1, d), dtype=complex), np.zeros((1, d, d), dtype=complex), {0: exc}
        rows = [_evaluate(system, X[i : i + 1]) for i in range(len(X))]
        return (
            np.concatenate([row[0] for row in rows]),
            np.concatenate([row[1] for row in rows]),
            {i: row[2][0] for i, row in enumerate(rows) if row[2]},
        )
    return np.asarray(r, dtype=complex), np.asarray(J, dtype=complex), {}


def _stack(x, r, J, rn, codes, iterations, errors) -> NewtonStack:
    return NewtonStack(
        points=x,
        values=r,
        jacobians=J,
        residuals=rn,
        converged=codes == _CONVERGED,
        iterations=iterations,
        stops=tuple(map(_STOPS.__getitem__, codes.tolist())),
        errors=tuple(errors),
    )


def stacked_newton(
    system: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    starts,
    cfg: NewtonConfig,
    settled: Callable[[NewtonStack], bool] | None = None,
) -> NewtonStack:
    """Damped Newton from every start of an (S, d) stack, in lockstep.

    ``system(X)`` maps an (k, d) stack of points to the (k, d) residuals and
    (k, d, d) Jacobians there.  Each slice follows its own run of the rules:
    it stops converged once the residual norm is at most ``tol``; it stops
    at a step whose solve is singular (``stacked_solve``'s ok mask); it
    halves its step while the residual norm does not decrease, and stops
    after ``max_halvings`` halvings have not helped; it stops after
    ``max_iters`` accepted steps; and it stops, abandoned, at a point whose
    evaluation raised TansecError.  Slices never mix: a slice's result is
    the one it would get alone.

    ``settled``, when given, is called after every round in which slices
    stopped, the last one included, with the run so far as a NewtonStack
    whose running slices have stop None (a stopped slice's entries no
    longer change); the run ends as soon as it returns True, and the
    slices still running keep stop None.
    """
    x = np.array(starts, dtype=complex)
    if x.ndim != 2:
        raise ValueError("starts must be an (S, d) stack")
    S = len(x)
    r, J, raised = _evaluate(system, x)
    rn = np.linalg.norm(r, axis=1)
    iterations = np.zeros(S, dtype=int)
    errors: list[TansecError | None] = [raised.get(i) for i in range(S)]
    codes = np.full(S, _RUNNING)
    codes[list(raised)] = _EVAL_ERROR
    step = np.zeros_like(x)
    t = np.ones(S)
    halvings = np.zeros(S, dtype=int)
    fresh = np.flatnonzero(codes == _RUNNING)  # at an accepted point, with no step yet
    running = S
    while True:
        done, capped = rn[fresh] <= cfg.tol, iterations[fresh] >= cfg.max_iters
        codes[fresh] = np.where(done, _CONVERGED, np.where(capped, _ITER_CAP, _RUNNING))
        fresh = fresh[~(done | capped)]
        if fresh.size:
            step[fresh], ok = stacked_solve(J[fresh], r[fresh])
            codes[fresh[~ok]] = _SINGULAR_STEP
            t[fresh], halvings[fresh] = 1.0, 0
        trial = np.flatnonzero(codes == _RUNNING)
        stopped, running = running - trial.size, trial.size
        if settled is not None and stopped and settled(_stack(x, r, J, rn, codes, iterations, errors)):
            break
        if not trial.size:
            break
        x_new = x[trial] - t[trial, None] * step[trial]
        r_new, J_new, raised = _evaluate(system, x_new)
        rn_new = np.linalg.norm(r_new, axis=1)
        better = rn_new < rn[trial]
        worse = ~better
        if raised:
            rows = list(raised)
            for i in rows:
                errors[trial[i]] = raised[i]
            codes[trial[rows]] = _EVAL_ERROR
            better[rows] = worse[rows] = False
        fresh = trial[better]
        x[fresh], r[fresh], J[fresh] = x_new[better], r_new[better], J_new[better]
        rn[fresh] = rn_new[better]
        iterations[fresh] += 1
        worse = trial[worse]
        if worse.size:
            t[worse] /= 2.0
            halvings[worse] += 1
            codes[worse[halvings[worse] > cfg.max_halvings]] = _HALVINGS_EXHAUSTED
    return _stack(x, r, J, rn, codes, iterations, errors)


def damped_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    start,
    cfg: NewtonConfig,
) -> NewtonResult:
    """``stacked_newton`` from one start, on a residual and a Jacobian given
    as functions of one point; an evaluation error is raised, not counted."""

    def system(X):
        return np.asarray(residual(X[0]))[None], np.asarray(jacobian(X[0]))[None]

    out = stacked_newton(system, np.asarray(start, dtype=complex)[None], cfg)
    if out.errors[0] is not None:
        raise out.errors[0]
    return NewtonResult(
        out.points[0], float(out.residuals[0]), bool(out.converged[0]), int(out.iterations[0])
    )
