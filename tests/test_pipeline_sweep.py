"""End-to-end consistency over randomly generated graphs.

The built-in examples are hand-picked; this sweep draws fresh normalized
graphs and checks the full implication chain on each: a full tangent variety
must come with a dominant differential and a recoverable projection center,
and a degenerate one must be reported as an unmet hypothesis.
"""

import random
from fractions import Fraction

from tansec.newton import NewtonConfig
from tansec.poly import Polynomial, PolyMap
from tansec.projection import Center, roundtrip
from tansec.tangent import HOLDS, bundle_rank_cross_check, dominance_certificate, tan_is_full
from tansec.variety import GraphVariety


def random_normalized_graph(rng: random.Random, n: int, cubic: bool = True) -> GraphVariety:
    comps = []
    for _ in range(n):
        terms: dict = {}
        for j in range(n):
            for k in range(j, n):
                e = [0] * n
                e[j] += 1
                e[k] += 1
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                if c:
                    terms[tuple(e)] = c
        if cubic:
            for _ in range(rng.randint(0, 2)):
                e = [0] * n
                for _ in range(3):
                    e[rng.randint(0, n - 1)] += 1
                c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                if c:
                    terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
        comps.append(Polynomial(n, terms))
    return GraphVariety(PolyMap(comps))


def test_sweep_small_dimensions():
    rng = random.Random(20250808)
    full = degenerate = 0
    for trial in range(30):
        n = rng.randint(1, 2)
        g = random_normalized_graph(rng, n)
        # det K decides fullness, as roundtrip does, but from other draws:
        # a cubic term can make Tan X full where the Hessian at the origin
        # is degenerate, as on y = c x^3
        cert = bundle_rank_cross_check(g, 100, random.Random(trial))
        center = Center.from_affine(
            [rng.uniform(-0.5, 0.5) for _ in range(n)],
            [rng.uniform(-0.5, 0.5) for _ in range(n)],
        )
        if cert.verdict == HOLDS:
            full += 1
            dom = dominance_certificate(g, trials=40, rng=random.Random(trial))
            assert dom.holds, f"trial {trial}: {[str(p) for p in g.f.components]}"
            rt = roundtrip(g, center, rng=random.Random(trial + 1000))
            assert rt.status == "success", f"trial {trial}: {rt.status}"
            assert rt.distance <= 1e-6
        else:
            degenerate += 1
            rt = roundtrip(g, center, rng=random.Random(trial))
            assert rt.status == "hypothesis_not_met" and rt.fullness.error_bound < 1e-100
    # the draw should exercise both branches
    assert full >= 20
    assert degenerate >= 1


def test_sweep_three_dimensional_quadratics():
    rng = random.Random(777)
    successes = 0
    for trial in range(8):
        g = random_normalized_graph(rng, 3, cubic=False)
        if tan_is_full(g).verdict != HOLDS:
            continue
        center = Center.from_affine(
            [rng.uniform(-0.4, 0.4) for _ in range(3)],
            [rng.uniform(-0.4, 0.4) for _ in range(3)],
        )
        rt = roundtrip(g, center, cfg=NewtonConfig(starts=96), rng=random.Random(trial))
        assert rt.status == "success"
        assert rt.distance <= 1e-6
        successes += 1
    assert successes >= 6
