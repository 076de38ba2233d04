import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import leibniz_det, random_gaussian, random_polynomial
from tansec.errors import PolyParseError
from tansec.poly import (
    GaussianRational,
    Jet2,
    PolyMap,
    Polynomial,
    parse_map,
    parse_poly,
    poly_matrix_det,
    random_point,
    random_rational_point,
)


# -- scalars ------------------------------------------------------------------


def test_gaussian_rational_field_ops():
    a = GaussianRational(Fraction(1, 2), Fraction(3))
    b = GaussianRational(2, -1)
    assert a + b == GaussianRational(Fraction(5, 2), 2)
    assert a * b == GaussianRational(4, Fraction(11, 2))
    assert (a / b) * b == a
    assert -a + a == GaussianRational(0)
    assert bool(GaussianRational(0, 0)) is False
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0)


# -- parsing ------------------------------------------------------------------


def test_parse_monomial():
    p = parse_poly("u1^2", 1)
    assert p.terms == {(2,): GaussianRational(1)}


def test_parse_drops_zero_terms():
    p = parse_poly("u1*u2 + 0*u1", 2)
    assert p.terms == {(1, 1): GaussianRational(1)}


def test_parse_binomial_square_matches_expansion():
    # oracle: expand (u1+1)^2 by explicit repeated multiplication
    u = Polynomial.variable(1, 0)
    oracle = (u + 1) * (u + 1)
    assert parse_poly("(u1+1)^2", 1) == oracle
    assert oracle.terms == {
        (2,): GaussianRational(1),
        (1,): GaussianRational(2),
        (0,): GaussianRational(1),
    }


def test_parse_rationals_and_imaginary_unit():
    p = parse_poly("1/2*u1 + i*u2 - 3", 2)
    assert p.terms[(1, 0)] == GaussianRational(Fraction(1, 2))
    assert p.terms[(0, 1)] == GaussianRational(0, 1)
    assert p.terms[(0, 0)] == GaussianRational(-3)
    assert parse_poly("i^2", 1) == Polynomial.const(1, -1)


def test_parse_unary_minus_and_whitespace():
    assert parse_poly(" - u1 ^ 2 + 2 * u1 ", 1) == parse_poly("2*u1 - u1^2", 1)
    assert parse_poly("(-u1 + 1)*(u1 + 1)", 1) == parse_poly("1 - u1^2", 1)


@pytest.mark.parametrize(
    "text,n",
    [
        ("u1^^2", 1),
        ("u3", 2),
        ("1/0", 1),
        ("", 1),
        ("(u1", 1),
        ("u1 +", 1),
        ("u0", 1),
        ("2 ** u1", 1),
        ("x1", 1),
    ],
)
def test_parse_errors_carry_position(text, n):
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text, n)
    assert 0 <= exc.value.position <= len(text)


def test_parse_print_parse_fixpoint():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = random_polynomial(rng, n)
        printed = p.to_expr()
        reparsed = parse_poly(printed, n)
        assert reparsed == p
        assert reparsed.to_expr() == printed
    assert parse_poly("0", 2).to_expr() == "0"


# -- arithmetic and invariants --------------------------------------------------


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = random_polynomial(rng, n)
        q = random_polynomial(rng, n)
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        assert (p * q).eval_exact(point) == p.eval_exact(point) * q.eval_exact(point)
        assert (p + q).eval_exact(point) == p.eval_exact(point) + q.eval_exact(point)


def test_degree_conventions():
    assert Polynomial.zero(2).degree() == -1
    assert Polynomial.const(2, 5).degree() == 0
    assert parse_poly("u1^2*u2 + u2", 2).degree() == 3
    assert (parse_poly("u1", 1) - parse_poly("u1", 1)).degree() == -1


def test_partial_examples():
    p = parse_poly("u1^2", 2)
    assert p.partial(0) == parse_poly("2*u1", 2)
    assert p.partial(1) == Polynomial.zero(2)
    q = parse_poly("u1*u2 + u1^3", 2)
    assert q.partial(0) == parse_poly("u2 + 3*u1^2", 2)
    with pytest.raises(IndexError):
        p.partial(2)


def test_shift_matches_translated_evaluation():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 2)
        p = random_polynomial(rng, n)
        c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        shifted = p.shift(c)
        assert shifted.eval_exact(x) == p.eval_exact([xi + ci for xi, ci in zip(x, c)])


# -- jets -----------------------------------------------------------------------


def test_jet2_univariate_square():
    F = parse_map(["u1^2"], 1)
    jet = F.jet2([3.0])
    assert jet.value[0] == pytest.approx(9)
    assert jet.jacobian[0, 0] == pytest.approx(6)
    assert jet.hessian[0, 0, 0] == pytest.approx(2)


def test_jet2_two_variable_example():
    F = parse_map(["u1^2", "u1*u2"], 2)
    jet = F.jet2([1.0, 2.0])
    assert np.allclose(jet.value, [1, 2])
    assert np.allclose(jet.jacobian, [[2, 0], [2, 1]])
    assert np.allclose(jet.hessian[0], [[2, 0], [0, 0]])
    assert np.allclose(jet.hessian[1], [[0, 1], [1, 0]])


def test_jet2_hessian_exactly_symmetric():
    rng = random.Random(5)
    F = PolyMap([random_polynomial(rng, 3) for _ in range(3)])
    jet = F.jet2([0.3 + 0.1j, -0.7, 1.2 - 0.4j])
    assert np.array_equal(jet.hessian, jet.hessian.transpose(0, 2, 1))


def test_jet2_matches_central_differences():
    # independent oracle: central differences of the map itself
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(1, 3)
        F = PolyMap([random_polynomial(rng, n, max_degree=3, bound=10) for _ in range(n)])
        u = np.array([complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)])
        jet = F.jet2(u)
        h = 1e-5 * max(1.0, float(np.linalg.norm(u)))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            fd_jac = (F.value_at(u + e) - F.value_at(u - e)) / (2 * h)
            scale = max(1.0, float(np.abs(jet.jacobian[:, k]).max()))
            assert np.abs(fd_jac - jet.jacobian[:, k]).max() / scale < 1e-6
            fd_hess = (F.jacobian_at(u + e) - F.jacobian_at(u - e)) / (2 * h)
            scale = max(1.0, float(np.abs(jet.hessian[:, :, k]).max()))
            assert np.abs(fd_hess - jet.hessian[:, :, k]).max() / scale < 1e-6


def test_jet2_rejects_wrong_dimension():
    F = parse_map(["u1^2"], 1)
    for method in (F.jet2, F.value_at, F.jacobian_at):
        with pytest.raises(ValueError):
            method([1.0, 2.0])


def exact_jet(F: PolyMap, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, Jacobian and Hessian of F at the rational point x, evaluated
    exactly term by term and only then cast to complex."""
    n = F.num_vars

    def at(p: Polynomial) -> complex:
        return p.eval_exact(x).to_complex()

    value = np.array([at(p) for p in F.components])
    jac = np.array([[at(p.partial(k)) for k in range(n)] for p in F.components]).reshape(-1, n)
    hess = np.array(
        [[[at(p.partial(j).partial(k)) for k in range(n)] for j in range(n)] for p in F.components]
    ).reshape(-1, n, n)
    return value, jac, hess


def random_cubic(rng: random.Random, n: int, terms: int = 12) -> Polynomial:
    """Random polynomial of total degree at most 3 with Gaussian coefficients."""
    out = {}
    for _ in range(terms):
        exps = [0] * n
        for _ in range(rng.randint(0, 3)):
            exps[rng.randrange(n)] += 1
        out[tuple(exps)] = random_gaussian(rng, imag_prob=0.5)
    return Polynomial(n, out)


def assert_close(got: np.ndarray, exact: np.ndarray) -> None:
    assert got.shape == exact.shape
    scale = max(1.0, float(np.abs(exact).max(initial=0.0)))
    assert float(np.abs(got - exact).max(initial=0.0)) <= 1e-12 * scale


@pytest.mark.parametrize(
    "F",
    [
        # complex coefficients, n = 1
        parse_map(["(1/2 + 3*i)*u1^3 - i*u1 + 7/3", "u1^2"], 1),
        # constant and zero components
        parse_map(["3/4 - 2*i", "0", "u1*u2^2 - i*u2"], 2),
        # a cubic map at n = 8
        PolyMap([random_cubic(random.Random(40 + i), 8) for i in range(8)]),
    ],
    ids=["complex-n1", "constant-and-zero", "cubic-n8"],
)
def test_compiled_evaluation_matches_exact(F):
    rng = random.Random(3)
    n = F.num_vars
    for _ in range(4):
        x = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        u = np.array([complex(xi) for xi in x])
        value, jac, hess = exact_jet(F, x)
        jet = F.jet2(u)
        for got, exact in ((jet.value, value), (jet.jacobian, jac), (jet.hessian, hess)):
            assert_close(got, exact)
        assert_close(F.value_at(u), value)
        assert_close(F.jacobian_at(u), jac)


# -- symbolic determinant ---------------------------------------------------------


def test_poly_matrix_det_2x2():
    a, b = parse_poly("u1", 2), parse_poly("u2", 2)
    c, d = parse_poly("1", 2), parse_poly("u1 + u2", 2)
    det = poly_matrix_det([[a, b], [c, d]])
    assert det == a * d - b * c


def test_poly_matrix_det_3x3_against_leibniz():
    rng = random.Random(17)
    entries = [[random_polynomial(rng, 2, max_degree=1, max_terms=2) for _ in range(3)] for _ in range(3)]
    det = poly_matrix_det(entries)
    # oracle: explicit Leibniz expansion over the 6 permutations
    from itertools import permutations

    total = Polynomial.zero(2)
    for perm in permutations(range(3)):
        sign = 1
        seen = list(perm)
        for i in range(3):
            for j in range(i + 1, 3):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Polynomial.const(2, sign)
        for i in range(3):
            term = term * entries[i][perm[i]]
        total = total + term
    assert det == total


def _quadratic_entry(rng, num_vars):
    """A polynomial of total degree at most 2 with complex coefficients of
    mixed denominators; zero now and then."""
    exps = [e for e in np.ndindex(*(3,) * num_vars) if sum(e) <= 2]
    terms = {exps[rng.randrange(len(exps))]: random_gaussian(rng, bound=6, imag_prob=0.5) for _ in range(rng.randint(0, 4))}
    return Polynomial(num_vars, terms)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_poly_matrix_det_complex_quadratic_entries_against_leibniz(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        entries = [[_quadratic_entry(rng, 3) for _ in range(n)] for _ in range(n)]
        expected = leibniz_det(entries, Polynomial.zero(3), Polynomial.const(3, 1))
        assert poly_matrix_det(entries) == expected


def test_poly_matrix_det_of_a_singular_matrix_is_zero():
    row = [parse_poly("1/2*u1 + i*u2^2", 2), parse_poly("u1*u2 - 3/4", 2)]
    assert poly_matrix_det([row, [p * GaussianRational(Fraction(2, 3), 1) for p in row]]).is_zero


# -- random sampling ---------------------------------------------------------------


def test_random_point_contracts():
    rng = random.Random(42)
    pt = random_point(3, 2.0, rng)
    assert pt.shape == (3,)
    assert all(abs(z.real) <= 2.0 and abs(z.imag) <= 2.0 for z in pt)

    rat = random_rational_point(2, 10**6, random.Random(0))
    assert len(rat) == 2
    assert all(x.denominator == 1 and abs(x) <= 10**6 for x in rat)


def test_random_point_seeded_determinism():
    a = random_point(4, 1.0, random.Random(123))
    b = random_point(4, 1.0, random.Random(123))
    assert np.array_equal(a, b)
    c = random_point(4, 1.0, random.Random(124))
    assert not np.array_equal(a, c)


def test_random_point_rejects_bad_box():
    with pytest.raises(ValueError):
        random_point(2, 0.0, random.Random(0))
