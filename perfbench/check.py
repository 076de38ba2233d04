"""Correctness checks on the machine report of one benchmark job.

A job fails on an exception, a verdict the generator's oracle does not
allow, an exit code that does not go with the verdict, a ``recover`` whose center is further than
1e-6 (chordal distance, recomputed here) from the true center, a ``ramify``
point that fails tangent membership, or a machine report whose sha256
differs from the one an earlier run of the same code recorded for the job.
The arithmetic here is plain Python and shares no code with tansec.
"""

from __future__ import annotations

import json
from fractions import Fraction

RECOVERY_TOL = 1e-6
# relative residual of the tangency equation accepted at a reported point
MEMBERSHIP_TOL = 1e-8


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def chordal_distance(x: list[complex], y: list[complex]) -> float:
    """Sine of the angle between the lines through x and y."""
    nx = sum(abs(a) ** 2 for a in x) ** 0.5
    ny = sum(abs(b) ** 2 for b in y) ** 0.5
    xn = [a / nx for a in x]
    yn = [b / ny for b in y]
    dot = sum(a.conjugate() * b for a, b in zip(xn, yn))
    orth = [b - a * dot for a, b in zip(xn, yn)]
    return min(1.0, sum(abs(o) ** 2 for o in orth) ** 0.5)


def _eval(terms, u: list[complex]) -> tuple[complex, list[complex]]:
    """Value and gradient of one polynomial given as [[exponents, coeff]]."""
    n = len(u)
    value = 0j
    grad = [0j] * n
    for exps, coeff in terms:
        c = float(Fraction(coeff))
        mono = c
        for v, e in zip(u, exps):
            mono *= v**e
        value += mono
        for k in range(n):
            if exps[k]:
                d = c * exps[k]
                for j, (v, e) in enumerate(zip(u, exps)):
                    d *= v ** (e - 1 if j == k else e)
                grad[k] += d
    return value, grad


def tangency_residual(comps, center: list[Fraction], u: list[complex]) -> float:
    """|f(u) + f_u(u)(P1 - u) - P2| / (1 + |P2|) for a graph f."""
    n = len(u)
    p1 = [complex(c) for c in center[:n]]
    p2 = [complex(c) for c in center[n:]]
    worst = 0.0
    for i, terms in enumerate(comps):
        value, grad = _eval(terms, u)
        g = value + sum(grad[k] * (p1[k] - u[k]) for k in range(n)) - p2[i]
        worst = max(worst, abs(g))
    return worst / (1.0 + max(abs(c) for c in p2))


def roots_found(report: dict) -> int:
    ram = report.get("checks", {}).get("ramification")
    return ram["count"] if ram else 0


def check_job(job: dict, code, stdout: str, error: str | None) -> tuple[dict | None, str | None]:
    """(parsed report, failure reason or None)."""
    if error is not None:
        return None, error
    try:
        report = json.loads(stdout)
    except ValueError:
        return None, f"no machine report (exit {code})"
    allowed = {e["verdict"]: e["exit"] for e in job["expect"]}
    verdict = report.get("verdict")
    if verdict not in allowed:
        return report, f"verdict {verdict!r}, expected {' or '.join(map(repr, allowed))}"
    if code != allowed[verdict]:
        return report, f"exit code {code}, expected {allowed[verdict]} with verdict {verdict!r}"
    checks = report["checks"]
    n = job["n"]
    command = job["command"]
    if command == "tan-check":
        method = checks["tangent_fullness"]["method"]
        want = "float_sampling" if job["kind"] == "param" else ("exact_symbolic" if n <= 4 else "schwartz_zippel")
        if method != want:
            return report, f"fullness method {method}, expected {want}"
        if verdict == "holds" and checks["bundle_rank_cross_check"]["verdict"] != "holds":
            return report, "bundle rank cross-check failed"
    elif command == "secant-dim":
        if checks["secant_dimension"]["estimate"] != 2 * n:
            return report, f"secant dimension {checks['secant_dimension']['estimate']}, expected {2 * n}"
    elif command == "dominance":
        if verdict == "holds" and checks["jacobian_agreement"]["verdict"] != "holds":
            return report, "closed-form and finite-difference differentials disagree"
    elif command == "ramify":
        member = checks["tangent_membership"]
        if not member["verified"] == member["total"] == checks["ramification"]["count"]:
            return report, f"tangent membership {member['verified']}/{member['total']}"
        if job["kind"] == "graph":
            center = [Fraction(c) for c in job["center"]]
            for point in checks["ramification"]["points"]:
                res = tangency_residual(job["comps"], center, [_complex(p) for p in point])
                if res > MEMBERSHIP_TOL:
                    return report, f"ramification point off the tangency locus (residual {res:.2e})"
    elif command == "recover" and verdict == "success":
        roundtrip = checks["roundtrip"]
        recovered = roundtrip.get("recovered_ambient", roundtrip["recovered"])
        truth = [1 + 0j] + [complex(Fraction(c)) for c in job["center"]]
        dist = chordal_distance([_complex(p) for p in recovered], truth)
        if dist > RECOVERY_TOL:
            return report, f"recovered center at chordal distance {dist:.2e}"
    return report, None
