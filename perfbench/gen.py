"""Seeded benchmark inputs for tansec, with an oracle of their own.

Each workload is a fixed list of job kinds, one *round*.  For a workload seed
this module draws fresh inputs for every job of every round, writes them as
``.var`` files, and records for each job the argv to pass to ``tansec``, the
verdicts and exit codes the job may end with, and the facts the checks in
``check.py`` need (the true center, the Bezout count, the coefficients).

The oracle does not use tansec.  Fullness is decided by the exact determinant
of H(x) at one integer point x, where H(x)[i][j] = sum_k d2 f_i/du_j du_k (0)
x_k; a nonzero value proves that det H does not vanish identically.  A draw
that happens to give 0 is thrown away and drawn again.  Degenerate inputs are
built so that no component depends on u_n, which makes the last column of H
zero, so det H == 0.

Run as a script, this is the benchmark's set-up step: a fresh interpreter
imports tansec (as a user of the CLI would), draws the inputs and writes them
under the output directory together with ``manifest.json``:

    python3 perfbench/gen.py --workload recover --seed 1 --out DIR --src src
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

# Rounds drawn per run; the timed loop starts again at round 0 if it runs out.
ROUNDS = 10

# One round of each workload: (command, n, family, extra CLI arguments).
# Families:
#   full        dense random quadratic graph, proven full by the oracle
#   degenerate  dense quadratic graph in which no component depends on u_n
#   cubic       full quadratic graph plus cubic terms
#   param-flat  psi(w) = (M w + c, q(w)): a quadratic graph in other
#               coordinates, so its chart is global and 2^n roots are known
#   param-bent  psi(w) = (w + s(w), q(w)) with quadratic s: the chart needs a
#               real inversion Newton, some starts leave the region where it
#               converges, and the root count is not known
# Each round holds several jobs of its largest size (four n = 4 graph jobs in
# recover, three n = 8 jobs in certify), so that the job-time tail (run.py's
# TAIL_PERCENTILE) falls among them rather than between strata, and weights
# its strata so that the median job sits among many jobs of similar cost.
TRIALS = ("--trials=10",)
BENT_STARTS = ("--starts=8",)
WORKLOADS: dict[str, list[tuple]] = {
    # the Newton hot path: graphs weighted toward n = 3-4 with the default
    # 64 starts, and charts, whose jets go through the inversion Newton
    "recover": [(cmd, n, "full", ()) for n in (1, 2, 3, 3, 3, 4, 4) for cmd in ("ramify", "recover")]
    + [(cmd, n, "param-flat", ()) for n in (1, 2) for cmd in ("ramify", "recover")]
    + [("ramify", n, "param-bent", BENT_STARTS) for n in (1, 2)],
    # certificates without iteration: the exact path of tan-check on graphs
    # (symbolic determinant for n <= 4, Schwartz-Zippel above), and the
    # sampling path of dominance and secant-dim, on graphs and on charts.
    # dominance runs on quadratic graphs: there p(u) = u/2 exactly, so its
    # finite-difference cross-check agrees to round-off.  With cubic terms
    # some samples disagree by more than its 1e-6 tolerance and the verdict
    # then depends on the seed.
    "certify": [("tan-check", n, family, TRIALS) for n in (2, 4, 5, 6, 8) for family in ("full", "degenerate")]
    + [("dominance", n, "full", TRIALS) for n in (2, 4, 6, 8)]
    + [("secant-dim", n, "cubic", TRIALS) for n in (2, 4, 6, 8)]
    + [(cmd, n, family, ()) for cmd in ("tan-check", "dominance") for n in (1, 2) for family in ("param-flat", "param-bent")],
}

Poly = dict  # exponent tuple -> Fraction


# -- drawing polynomials ----------------------------------------------------------


def _coeff(rng: random.Random, bound: int = 4, den: int = 3) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.randint(1, den))


def _monomials(n: int, degree: int, variables: int | None = None) -> list[tuple]:
    """Exponent tuples of the given degree in the first ``variables`` of n."""
    out = []
    for combo in combinations_with_replacement(range(n if variables is None else variables), degree):
        e = [0] * n
        for k in combo:
            e[k] += 1
        out.append(tuple(e))
    return out


def _dense(rng: random.Random, n: int, degree: int, variables: int | None = None) -> Poly:
    return {e: _coeff(rng) for e in _monomials(n, degree, variables)}


def _add_cubic(rng: random.Random, p: Poly, n: int, count: int) -> Poly:
    q = dict(p)
    cubics = _monomials(n, 3)
    for e in rng.sample(cubics, min(count, len(cubics))):
        q[e] = _coeff(rng, bound=2, den=2)
    return q


def render(p: Poly, n: int) -> str:
    """Expression text in the tansec grammar, e.g. ``3/2*u1^2 - u1*u2``."""
    parts = []
    for e in sorted(p, key=lambda e: (-sum(e), [-x for x in e])):
        c = p[e]
        if c == 0:
            continue
        factors = [f"u{k + 1}" + (f"^{x}" if x > 1 else "") for k, x in enumerate(e) if x]
        mag = abs(c)
        coeff = "" if mag == 1 and factors else str(mag)
        body = "*".join(([coeff] if coeff else []) + factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# -- the oracle -------------------------------------------------------------------


def hessian0(comps: list[Poly], n: int) -> list[list[list[int]]]:
    """T[i][j][k] = d2 f_i / du_j du_k at 0, from the degree-2 terms, with
    each component scaled by its common denominator so that T is integral
    (scaling a component scales det H by a nonzero factor)."""
    T = []
    for p in comps:
        quad = {e: c for e, c in p.items() if sum(e) == 2}
        scale = math.lcm(*(c.denominator for c in quad.values())) if quad else 1
        Ti = [[0] * n for _ in range(n)]
        for e, c in quad.items():
            v = int(c * scale)
            j, k = [k for k in range(n) for _ in range(e[k])]
            if j == k:
                Ti[j][j] += 2 * v
            else:
                Ti[j][k] += v
                Ti[k][j] += v
        T.append(Ti)
    return T


def det(rows: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def full_at(comps: list[Poly], n: int, rng: random.Random) -> bool:
    """True when det H(x) != 0 at one random integer point x: a proof of
    fullness.  False means only that this point did not prove it."""
    T = hessian0(comps, n)
    x = [rng.randint(-100, 100) for _ in range(n)]
    H = [[sum(T[i][j][k] * x[k] for k in range(n)) for j in range(n)] for i in range(n)]
    return det(H) != 0


# -- inputs -----------------------------------------------------------------------


def _full_graph(rng: random.Random, n: int, cubic: bool) -> list[Poly]:
    while True:
        comps = [_dense(rng, n, 2) for _ in range(n)]
        if full_at(comps, n, rng):
            if cubic:
                comps = [_add_cubic(rng, p, n, rng.randint(1, 2)) for p in comps]
            return comps


def evaluate(p: Poly, x: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for e, c in p.items():
        term = c
        for v, k in zip(x, e):
            term *= v**k
        total += term
    return total


def on_variety(inp: dict, n: int, center: list[Fraction]) -> bool:
    """Whether the affine point lies on the variety.  Such a center is not
    generic: its ramification points collide (for a quadratic graph f the
    tangency equation reduces to f(v) = f(P1) - P2, whose roots all meet
    at v = 0 when the right side is 0), and recovery cannot work."""
    p1, p2 = center[:n], center[n:]
    comps = inp["comps"]
    if inp["kind"] == "graph":
        return all(evaluate(f, p1) == b for f, b in zip(comps, p2))
    # param-flat: the first block M w + c is lower triangular in w
    w: list[Fraction] = []
    for i in range(n):
        row = comps[i]
        rest = sum((row.get(_unit(n, k), 0) * w[k] for k in range(i)), Fraction(0))
        w.append((p1[i] - row.get(tuple([0] * n), 0) - rest) / row[_unit(n, i)])
    return all(evaluate(q, w) == b for q, b in zip(comps[n:], p2))


def _unit(n: int, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(n))


def _center(rng: random.Random, n: int, inp: dict) -> list[Fraction]:
    while True:
        if inp["kind"] == "param":
            # near the chart origin, where the inversion Newton reaches the roots
            center = [Fraction(rng.randint(-8, 8), 4) for _ in range(2 * n)]
        else:
            center = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(2 * n)]
        if inp["bezout"] is None or not on_variety(inp, n, center):
            return center


def draw_input(rng: random.Random, n: int, family: str) -> dict:
    """One variety: its kind, components, fullness and known root count."""
    if family in ("full", "cubic"):
        cubic = family == "cubic"
        comps = _full_graph(rng, n, cubic)
        return {"kind": "graph", "comps": comps, "full": True, "bezout": None if cubic else 2**n}
    if family == "degenerate":
        comps = [_dense(rng, n, 2, variables=n - 1) for _ in range(n)]
        return {"kind": "graph", "comps": comps, "full": False, "bezout": None}
    q = _full_graph(rng, n, cubic=False)
    if family == "param-flat":
        # lower-triangular M with a nonzero diagonal keeps the chart pivots
        # in the first block, so the chart's first block is linear in w.  M,
        # c and the linear part of q are of order 1: a badly conditioned M
        # (entries 1/3 against 4) stretches the chart so far that Newton
        # from the start box finds one root of four and recover fails.
        first = []
        for i in range(n):
            p = {e: _coeff(rng, bound=1, den=2) for e in _monomials(n, 1, i)}
            p[_unit(n, i)] = Fraction(rng.choice((-2, -1, 1, 2)))
            p[tuple([0] * n)] = Fraction(rng.randint(-2, 2), 2)
            first.append(p)
        q = [{**p, **{e: _coeff(rng, bound=1, den=2) for e in _monomials(n, 1)}} for p in q]
        return {"kind": "param", "comps": first + q, "full": True, "bezout": 2**n}
    if family == "param-bent":
        first = []
        for i in range(n):
            p = {e: _coeff(rng, bound=1, den=4) / 4 for e in _monomials(n, 2)}
            e_i = [0] * n
            e_i[i] = 1
            p[tuple(e_i)] = Fraction(1)
            first.append(p)
        return {"kind": "param", "comps": first + q, "full": True, "bezout": None}
    raise ValueError(f"unknown family {family!r}")


def var_text(name: str, n: int, kind: str, comps: list[Poly]) -> str:
    lines = [f"name = {name}", f"n = {n}", f"kind = {kind}"]
    lines += [f"f{i} = {render(p, n)}" for i, p in enumerate(comps, start=1)]
    return "\n".join(lines) + "\n"


def _expect(command: str, family: str, full: bool) -> list[dict]:
    """The (verdict, exit code) pairs the job may end with."""
    if command in ("tan-check", "dominance"):
        return [{"verdict": "holds", "exit": 0} if full else {"verdict": "fails", "exit": 1}]
    if command == "secant-dim":
        return [{"verdict": "holds", "exit": 0}]
    if command == "ramify":
        if family == "param-bent":
            # whether any ramification point lies where the chart inverts
            # is not known in advance; either way every point found must
            # pass the membership check
            return [{"verdict": "success", "exit": 0}, {"verdict": "no_solutions", "exit": 1}]
        return [{"verdict": "success", "exit": 0}]
    return [{"verdict": "success", "exit": 0} if full else {"verdict": "hypothesis_not_met", "exit": 1}]


def make_jobs(workload: str, seed: int, out: Path, rounds: int = ROUNDS) -> list[dict]:
    """Draw every job of ``rounds`` rounds and write their files under out."""
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    jobs = []
    for r in range(rounds):
        for j, (command, n, family, extra) in enumerate(WORKLOADS[workload]):
            job_id = f"r{r:03d}j{j:02d}"
            inp = draw_input(rng, n, family)
            path = out / f"{job_id}.var"
            text = var_text(f"{workload}-{job_id}", n, inp["kind"], inp["comps"])
            path.write_text(text)
            options = [f"--seed={rng.randrange(10**6)}", "--format=machine", *extra]
            center = None
            if command in ("ramify", "recover"):
                center = _center(rng, n, inp)
                options.append("--center=" + ",".join(str(c) for c in center))
            # identifies the job's input wherever the files are written
            key = hashlib.sha256("\0".join([command, text, *options]).encode()).hexdigest()
            jobs.append(
                {
                    "id": job_id,
                    "round": r,
                    "command": command,
                    "n": n,
                    "family": family,
                    "kind": inp["kind"],
                    "argv": [command, str(path), *options],
                    "input_sha256": key,
                    "expect": _expect(command, family, inp["full"]),
                    "bezout": inp["bezout"] if center else None,
                    "center": [str(c) for c in center] if center else None,
                    "comps": [
                        [[list(e), str(c)] for e, c in sorted(p.items())] for p in inp["comps"]
                    ],
                }
            )
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--src", required=True, type=Path, help="directory holding the tansec package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    import tansec.cli  # noqa: F401  (set-up time includes the import a CLI user pays)

    jobs = make_jobs(args.workload, args.seed, args.out)
    (args.out / "manifest.json").write_text(json.dumps({"jobs": jobs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
