"""Shared test helpers: seeded random polynomials and exact scalars."""

from __future__ import annotations

import random
from fractions import Fraction

from tansec.poly import GaussianRational, Polynomial


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
