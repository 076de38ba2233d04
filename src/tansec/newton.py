"""Damped Newton iteration shared by chart inversion and ramification solving."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SingularMatrixError
from .linalg import solve


@dataclass(frozen=True)
class NewtonConfig:
    """Knobs for damped Newton and its multi-start wrapper.

    The step is halved while the residual norm does not decrease, up to
    ``max_halvings`` times, after which the start is abandoned.  ``starts``,
    ``box`` and ``dedup_radius`` only matter for multi-start root collection.
    """

    max_iters: int = 50
    tol: float = 1e-12
    max_halvings: int = 20
    starts: int = 64
    box: float = 3.0
    # double roots are found to ~sqrt(tol) only, so the dedup radius must sit
    # comfortably above that scale for them to collapse to one point
    dedup_radius: float = 1e-5


@dataclass(frozen=True)
class NewtonResult:
    point: np.ndarray
    residual: float
    converged: bool
    iterations: int


def damped_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    start,
    cfg: NewtonConfig,
) -> NewtonResult:
    x = np.asarray(start, dtype=complex)
    r = np.asarray(residual(x), dtype=complex)
    rn = float(np.linalg.norm(r))
    for it in range(cfg.max_iters):
        if rn <= cfg.tol:
            return NewtonResult(x, rn, True, it)
        try:
            step = solve(jacobian(x), r)
        except SingularMatrixError:
            return NewtonResult(x, rn, False, it)
        t = 1.0
        for _ in range(cfg.max_halvings + 1):
            x_new = x - t * step
            r_new = np.asarray(residual(x_new), dtype=complex)
            rn_new = float(np.linalg.norm(r_new))
            if rn_new < rn:
                break
            t /= 2.0
        else:
            return NewtonResult(x, rn, False, it)
        x, r, rn = x_new, r_new, rn_new
    return NewtonResult(x, rn, rn <= cfg.tol, cfg.max_iters)
