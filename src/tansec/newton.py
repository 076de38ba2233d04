"""Damped Newton, run in lockstep on a stack of starts.

``stacked_newton`` is the one implementation of the step, halving and stop
rules.  Each round solves the steps of the slices that just accepted a point
with one ``stacked_solve`` and evaluates every pending trial point with one
call of the system, so a ramification solve, one wave of all its starts,
costs one polynomial jet per round instead of one per start and iterate.
``damped_newton`` is its one-start case on functions of one point; the
solvers run the stack.  An exception the system raises ends the run and
propagates: no slice is abandoned on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .linalg import stacked_solve

# why a slice stopped, and the codes stacked_newton keeps them as
CONVERGED = "converged"
SINGULAR_STEP = "singular_step"
HALVINGS_EXHAUSTED = "halvings_exhausted"
ITER_CAP = "iter_cap"
_STOPS = (None, CONVERGED, SINGULAR_STEP, HALVINGS_EXHAUSTED, ITER_CAP)
_RUNNING, _CONVERGED, _SINGULAR_STEP, _HALVINGS_EXHAUSTED, _ITER_CAP = range(len(_STOPS))


@dataclass(frozen=True)
class NewtonConfig:
    """Knobs for damped Newton and its multi-start wrapper.

    ``tol`` is the residual norm at which a start has converged; ``starts``
    and ``box`` only matter for multi-start root collection.  The class
    constants bound a run: at most ``max_iters`` accepted steps, and a step
    halved while the residual norm does not decrease, up to ``max_halvings``
    times, after which the start is abandoned.
    """

    max_iters: ClassVar[int] = 50
    max_halvings: ClassVar[int] = 20
    tol: float = 1e-12
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
    SINGULAR_STEP, HALVINGS_EXHAUSTED or ITER_CAP), or is None for a slice
    still running when the run ended early.
    """

    points: np.ndarray
    values: np.ndarray
    jacobians: np.ndarray
    residuals: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    stops: tuple[str, ...]


def _stack(x, r, J, rn, codes, iterations) -> NewtonStack:
    return NewtonStack(
        points=x,
        values=r,
        jacobians=J,
        residuals=rn,
        converged=codes == _CONVERGED,
        iterations=iterations,
        stops=tuple(map(_STOPS.__getitem__, codes.tolist())),
    )


def stacked_newton(
    system: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    starts,
    cfg: NewtonConfig,
    settled: Callable[[NewtonStack, np.ndarray], bool] | None = None,
) -> NewtonStack:
    """Damped Newton from every start of an (S, d) stack, in lockstep.

    ``system(X)`` maps an (k, d) stack of points to the (k, d) residuals and
    (k, d, d) Jacobians there; an exception it raises propagates.  Each
    slice follows its own run of the rules: it stops converged once the
    residual norm is at most ``tol``; it stops at a step whose solve is
    singular (``stacked_solve``'s ok mask); it halves its step while the
    residual norm does not decrease, and stops after ``max_halvings``
    halvings have not helped; and it stops after ``max_iters`` accepted
    steps.  Slices never mix: each slice's stop reason and iteration count
    are its own, and its values are bitwise its stack of one's when
    ``system`` evaluates rows independently; a stacked jet
    (``PolyMap.jet2``) rounds a row differently with the height of its
    stack, so there they match the stack of one up to rounding.

    ``settled``, when given, is called as ``settled(out, stopped)`` after
    every round in which slices stopped, the last one included: ``out`` is
    the run so far, its running slices at stop None (a stopped slice's
    entries no longer change), and ``stopped`` the indices of the slices
    that stopped in that round, in draw order, so over the run every
    stopped slice comes once, by (trial count, draw index).  The run ends
    as soon as it returns True, and the slices still running keep stop None.
    """
    x = np.array(starts, dtype=complex)
    if x.ndim != 2:
        raise ValueError("starts must be an (S, d) stack")
    S = len(x)
    r, J = (np.asarray(a, dtype=complex) for a in system(x))
    rn = np.linalg.norm(r, axis=1)
    iterations = np.zeros(S, dtype=int)
    codes = np.full(S, _RUNNING)
    step = np.zeros_like(x)
    t = np.ones(S)
    halvings = np.zeros(S, dtype=int)
    fresh = np.arange(S)  # at an accepted point, with no step yet
    running = fresh  # the slices that could stop in this round
    while True:
        done, capped = rn[fresh] <= cfg.tol, iterations[fresh] >= cfg.max_iters
        codes[fresh] = np.where(done, _CONVERGED, np.where(capped, _ITER_CAP, _RUNNING))
        fresh = fresh[~(done | capped)]
        if fresh.size:
            step[fresh], ok = stacked_solve(J[fresh], r[fresh])
            codes[fresh[~ok]] = _SINGULAR_STEP
            t[fresh], halvings[fresh] = 1.0, 0
        trial = np.flatnonzero(codes == _RUNNING)
        stopped, running = running[codes[running] != _RUNNING], trial
        if settled is not None and stopped.size and settled(_stack(x, r, J, rn, codes, iterations), stopped):
            break
        if not trial.size:
            break
        x_new = x[trial] - t[trial, None] * step[trial]
        r_new, J_new = (np.asarray(a, dtype=complex) for a in system(x_new))
        rn_new = np.linalg.norm(r_new, axis=1)
        better = rn_new < rn[trial]
        fresh = trial[better]
        x[fresh], r[fresh], J[fresh] = x_new[better], r_new[better], J_new[better]
        rn[fresh] = rn_new[better]
        iterations[fresh] += 1
        worse = trial[~better]
        if worse.size:
            t[worse] /= 2.0
            halvings[worse] += 1
            codes[worse[halvings[worse] > cfg.max_halvings]] = _HALVINGS_EXHAUSTED
    return _stack(x, r, J, rn, codes, iterations)


def damped_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    start,
    cfg: NewtonConfig,
) -> NewtonResult:
    """``stacked_newton`` from one start, on a residual and a Jacobian given
    as functions of one point; an exception they raise propagates."""

    def system(X):
        return np.asarray(residual(X[0]))[None], np.asarray(jacobian(X[0]))[None]

    out = stacked_newton(system, np.asarray(start, dtype=complex)[None], cfg)
    return NewtonResult(
        out.points[0], float(out.residuals[0]), bool(out.converged[0]), int(out.iterations[0])
    )
