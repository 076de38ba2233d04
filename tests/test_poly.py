import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    leibniz_det,
    load_perfbench,
    random_gaussian,
    random_polynomial,
    reference_eval,
    reference_parse_poly,
    reference_partial,
)
from tansec.errors import PolyParseError
from tansec.poly import (
    MAX_DEGREE,
    MAX_EXPANSION,
    MAX_TERMS,
    GaussianRational,
    Jet2,
    PolyMap,
    Polynomial,
    _TOKEN,
    _term_bound,
    parse_map,
    parse_poly,
    poly_matrix_det,
    random_point,
    random_rational_point,
)
from tansec.varfile import parse_variety_file


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


def test_gaussian_rational_hashes_like_the_numbers_it_equals():
    for value in (3, -7, 0, Fraction(5, 3), Fraction(-1, 2)):
        g = GaussianRational(value)
        assert g == value and hash(g) == hash(value)
        assert value in {g} and g in {value}
        assert {value: "x"}[g] == "x"
    z = GaussianRational(Fraction(1, 2), 3)
    assert z in {GaussianRational(Fraction(2, 4), 3)}
    assert z not in {Fraction(1, 2)}


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


def test_parse_superscript_digits_are_not_numbers():
    # str.isdigit accepts '²', which int() refuses; decimal digits of other
    # scripts, which int() reads, still parse
    for text, column in (("u1^²", 4), ("u1 + ²", 6), ("u²", 2)):
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text, 2)
        assert exc.value.position == column - 1 and f"column {column}" in str(exc.value)
    assert parse_poly("u1^\u0663", 1) == parse_poly("u1^3", 1)


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


# -- the parser against the Polynomial-arithmetic reference ---------------------


def random_expr(rng: random.Random, n: int, depth: int = 2) -> str:
    """A random expression of the grammar: sums (with an optional unary
    minus) of products of small numbers, zeros, fractions, i, variables and
    parenthesised sums, each factor possibly raised to a power 0..3.  Few
    distinct coefficients and variables make terms cancel and come back."""

    def factor(d: int) -> str:
        kinds = ["num", "zero", "frac", "i", "var", "var", "var"] + ["paren"] * (d > 0)
        kind = rng.choice(kinds)
        if kind == "num":
            text = str(rng.randint(1, 2))
        elif kind == "zero":
            text = "0"
        elif kind == "frac":
            text = f"{rng.randint(0, 3)}/{rng.randint(1, 3)}"
        elif kind == "i":
            text = "i"
        elif kind == "var":
            text = f"u{rng.randint(1, n)}"
        else:
            text = f"({expr(d - 1)})"
        if rng.random() < 0.3:
            text += f"^{rng.randint(0, 3)}"
        return text

    def term(d: int) -> str:
        return "*".join(factor(d) for _ in range(rng.randint(1, 3)))

    def expr(d: int) -> str:
        text = ("-" if rng.random() < 0.3 else "") + term(d)
        for _ in range(rng.randint(0, 4)):
            text += rng.choice((" + ", " - ")) + term(d)
        return text

    return expr(depth)


def assert_same_compiled(got: PolyMap, want: PolyMap) -> None:
    """The compiled tables agree bit for bit: same monomial columns in the
    same order, and the same complex coefficients."""
    (index, coeffs, degree, pairs), (w_index, w_coeffs, w_degree, w_pairs) = got._compiled(), want._compiled()
    assert np.array_equal(index, w_index) and index.shape == w_index.shape
    assert coeffs.shape == w_coeffs.shape and coeffs.tobytes() == w_coeffs.tobytes()
    assert degree == w_degree
    assert all(np.array_equal(a, b) for a, b in zip(pairs, w_pairs))


def assert_same_terms(got: Polynomial, want: Polynomial) -> None:
    assert got.terms == want.terms
    assert list(got.terms) == list(want.terms)


CANCELLING = [
    ("u1 + u2 - u1 + u1", 2),
    ("u1*u2 - u2*u1 + 3 + u2*u1", 2),
    ("(u1 + i)^0 + 0*u1 + 0", 1),
    ("-(u1 - u2)^2 + u1^2 + u2^2", 2),
    ("i*i + 1 + u1 - u1", 1),
    ("(u1 + u2)^3 - (u1 + u2)^2*(u1 + u2)", 2),
    ("(1/2 + 3*i)^3*u1^2 - (1/2 + 3*i)*u1*(1/2 + 3*i)*u1*(1/2 + 3*i)", 1),
    ("2*u1*0*u2 + 0^0 + (u1 - u1)^0 - 1", 2),
]


@pytest.mark.parametrize("text,n", CANCELLING)
def test_parser_matches_reference_on_cancellation(text, n):
    assert_same_terms(parse_poly(text, n), reference_parse_poly(text, n))


def test_parser_matches_reference_on_random_expressions():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 3)
        texts = [random_expr(rng, n) for _ in range(n)]
        got = [parse_poly(t, n) for t in texts]
        want = [reference_parse_poly(t, n) for t in texts]
        for g, w in zip(got, want):
            assert_same_terms(g, w)
        assert_same_compiled(PolyMap(got), PolyMap(want))


def test_parse_errors_match_reference():
    """Malformed variants of random expressions (one character deleted or
    inserted) fail with the reference's message at its position, or parse
    to its terms."""
    rng = random.Random(12)
    failures = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        text = random_expr(rng, n, depth=1)
        pos = rng.randrange(len(text) + 1)
        if rng.random() < 0.5 and pos < len(text):
            text = text[:pos] + text[pos + 1 :]
        else:
            text = text[:pos] + rng.choice("+-*^()/ iu07x") + text[pos:]
        try:
            want = reference_parse_poly(text, n)
        except PolyParseError as exc:
            failures += 1
            with pytest.raises(PolyParseError) as got:
                parse_poly(text, n)
            assert (str(got.value), got.value.position) == (str(exc), exc.position)
        else:
            assert_same_terms(parse_poly(text, n), want)
    assert failures > 100


def assert_matches_reference(text: str, n: int) -> str | None:
    """parse_poly gives the reference's terms in its order, or fails with
    its message at its column; returns that message, or None."""
    try:
        want = reference_parse_poly(text, n)
    except PolyParseError as exc:
        with pytest.raises(PolyParseError) as got:
            parse_poly(text, n)
        assert (str(got.value), got.value.position) == (str(exc), exc.position)
        return str(exc)
    assert_same_terms(parse_poly(text, n), want)
    return None


@pytest.mark.parametrize(
    "text,message",
    [
        ("u 1", None),
        ("3 / 4", None),
        ("u1 ^ 2", None),
        ("2 3", "unexpected character '3' (at column 3)"),
        ("u1^^2", "unexpected '^' (at column 4)"),
        ("u1^ ^2", "unexpected '^' (at column 5)"),
        ("u1^", "expected exponent (at column 4)"),
        ("(u1))", "unexpected character ')' (at column 5)"),
        ("-", "expected a number, 'i', a variable, or '(' (at column 2)"),
        ("", "expected a number, 'i', a variable, or '(' (at column 1)"),
        ("u\u0663", None),
        ("u1^\u00b2", "expected exponent (at column 4)"),
    ],
)
def test_tokens_match_reference_at_their_edges(text, message):
    assert assert_matches_reference(text, 3) == message


@pytest.mark.parametrize("space", ["\t", "\n", "\u00a0", "\u2003"])
def test_tokens_split_on_unicode_whitespace_like_the_reference(space):
    for text in (
        " - u1 ^ 2 * 3 / 4 + ( u2 - i ) ^ 2 * u 1 ",
        "3 / 0",
        "u 7",
        "2 3",
        "u1 ^ ^ 2",
        "( u1 + 1 ",
        "u1 * ",
    ):
        assert_matches_reference(text.replace(" ", space), 2)
        assert_matches_reference(text.replace(" ", space + " "), 2)


def test_token_classes_are_isspace_and_isdecimal():
    """Over the BMP, a character the tokenizer skips is exactly one that
    str.isspace accepts, and one that joins a digit run exactly one that
    str.isdecimal accepts."""
    for cp in range(0x10000):
        ch = chr(cp)
        want = ["7"] if ch.isspace() else ["7" + ch] if ch.isdecimal() else ["7", ch]
        assert _TOKEN.findall("7" + ch) == want, hex(cp)


@pytest.mark.parametrize("workload", ["recover", "certify"])
def test_parser_matches_reference_on_benchmark_inputs(tmp_path, workload):
    gen = load_perfbench("gen")
    for job in gen.make_jobs(workload, 1, tmp_path, rounds=1):
        vf = parse_variety_file(Path(job["argv"][1]).read_text())
        want = PolyMap([reference_parse_poly(e, vf.n) for e in vf.exprs])
        for g, w in zip(vf.parsed.components, want.components, strict=True):
            assert_same_terms(g, w)
        assert_same_compiled(vf.parsed, want)


@pytest.mark.parametrize(
    "text,message,column",
    [
        ("(u1+u2+u3)^80", f"expansion above degree {MAX_EXPANSION}", 12),
        ("((u1+u2)^4)^11", f"expansion above degree {MAX_EXPANSION}", 13),
        ("(u1+u2)^20*(u1 - u3)^21", f"expansion above degree {MAX_EXPANSION}", 22),
        ("(u1+u2)^20*(u1 - u3)^20*(u2 + 1)", f"expansion above degree {MAX_EXPANSION}", 32),
        ("u1^" + "9" * 40, f"exponent above {MAX_DEGREE}", 4),
        ("3*u2^1025", f"exponent above {MAX_DEGREE}", 6),
        ("2^2000*u1", f"exponent above {MAX_DEGREE}", 3),
        ("(1/2)^5000", f"exponent above {MAX_DEGREE}", 7),
        ("i^1025", f"exponent above {MAX_DEGREE}", 3),
        ("u1^1000*u2*u1^25", f"degree above {MAX_DEGREE}", 15),
        ("(u3^2)^600", f"degree above {MAX_DEGREE}", 8),
    ],
)
def test_parser_refuses_an_exponent_or_expansion_past_its_cap(text, message, column):
    # refused at the exponent's column (or the factor's last token), before
    # the power or the product is built: each of these returns at once
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text, 3)
    assert str(exc.value) == f"{message} (at column {column})"


@pytest.mark.parametrize(
    "text", ["10^306*u1^12", "u1^1024", "(u1+u2)^40", "(u1+u2)^20*(u1 - u3)^20", "2^1024", "(u1-u1+2)^1000*u2^1024"]
)
def test_parser_takes_what_its_caps_allow(text):
    assert_same_terms(parse_poly(text, 3), reference_parse_poly(text, 3))


@pytest.mark.parametrize(
    "text,n,column",
    [
        ("(u1+u2+u3+u4)^32", 4, 14),  # took 8.5 s for 6545 terms
        ("(1+u1+u2+u3)^21", 3, 13),  # C(24, 3) = 2024 terms
        ("(1+u1+u2+u3+u4+u5+u6+u7+u8)^6", 8, 28),  # C(14, 8) = 3003
        ("(1+u1+u2+u3)^10*(1+u1+u2+u3)^11", 3, 16),  # a product of degree 21
        ("u2*(1+u1+u2+u3)^3*(u1 - u2 + 1)^18", 3, 18),  # C(24, 3) monomials, 20 * 190 products
    ],
)
def test_parser_refuses_an_expansion_past_its_term_bound(text, n, column):
    # refused at the '^' of a power and the '*' of a product, before the
    # power or the product is built: each of these returns at once
    t0 = time.perf_counter()
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text, n)
    assert time.perf_counter() - t0 < 0.5
    assert str(exc.value) == f"expansion above {MAX_TERMS} terms (at column {column})"


@pytest.mark.parametrize(
    "text,n",
    [
        ("(1+u1+u2+u3)^10*(1 - u2)^3*(u3 + 2)^6", 3),  # C(22, 3) = 1540 terms at most
        ("(u1^7+u2^7+u3^7)^5", 3),  # C(38, 3) monomials, but 21 products of 5 terms
        ("(u1+u2)^20*(u1 - u3)^20", 3),  # C(43, 3) monomials, but 21 * 21 products
        ("(u1+u2+u3+u4+u5+u6+u7+u8)^3", 8),
        ("u2*(1+u1+u2+u3)^2*(u1 - u2)*(1 + u3)^18", 3),  # C(24, 3) monomials, but 20 * 19 products
        ("(1+u1+u2+u3)^20", 3),  # C(23, 3) = 1771 terms, alone in its expression's budget
    ],
)
def test_parser_takes_what_its_term_bound_allows(text, n):
    assert_same_terms(parse_poly(text, n), reference_parse_poly(text, n))


COPIES = " + ".join(["(1+u1+u2+u3)^20"] * 4)  # C(23, 3) = 1771 terms each


@pytest.mark.parametrize(
    "text,column",
    [
        (COPIES, 31),  # the second copy's '^'
        ("((1+u1+u2+u3)^20) + ((1+u1+u2+u3)^20)", 34),
    ],
)
def test_parser_budget_is_one_per_expression(monkeypatch, text, column):
    # MAX_TERMS is charged by every expansion of the expression, nested ones
    # included, so a sum of admitted expansions is refused at the first one
    # past the budget, after building at most one (each built expansion is
    # stood in for by its base here)
    powers = []

    def power(p, e):
        powers.append(e)
        return p

    monkeypatch.setattr(Polynomial, "__pow__", power)
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text, 3)
    assert str(exc.value) == f"expansion above {MAX_TERMS} terms (at column {column})"
    assert powers == [20]


@pytest.mark.parametrize("workload", ["recover", "certify"])
def test_every_benchmark_input_parses(tmp_path, workload):
    gen = load_perfbench("gen")
    for seed in (1, 2):
        for job in gen.make_jobs(workload, seed, tmp_path / str(seed)):
            vf = parse_variety_file(Path(job["argv"][1]).read_text())
            assert len(vf.parsed.components) == len(vf.exprs)


def test_term_bound_bounds_the_terms_of_an_expansion():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 3)
        p, q = (random_polynomial(rng, n, max_terms=4, max_degree=2) for _ in range(2))
        if len(p.terms) < 2 or len(q.terms) < 2:
            continue
        e = rng.randint(0, 4)
        power = _term_bound(p.terms, e * p.degree(), math.comb(len(p.terms) + e - 1, e))
        assert len((p**e).terms) <= power
        product = _term_bound([*p.terms, *q.terms], p.degree() + q.degree(), len(p.terms) * len(q.terms))
        assert len((p * q).terms) <= product
    # dense sums reach the monomial count, sparse ones the product count
    assert _term_bound(parse_poly("1+u1+u2", 3).terms, 4, math.comb(6, 4)) == len(parse_poly("(1+u1+u2)^4", 3).terms) == 15
    assert _term_bound(parse_poly("u1^5+u3", 3).terms, 10, math.comb(3, 2)) == 3


@pytest.mark.parametrize(
    "text,column",
    [
        ("u1^" + "9" * 5000, 4),
        ("9" * 5000 + "*u1", 1),
        ("u1 + 1/" + "7" * 4301, 8),
        ("u" + "1" * 4301, 2),
        ("2^" + "3" * 4400, 3),
    ],
)
def test_a_number_past_the_int_conversion_limit_is_refused_at_its_column(text, column):
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text, 1)
    assert str(exc.value) == f"number of more than 4300 digits (at column {column})"


def test_builtins_and_goldens_parse_as_the_reference_does():
    from tansec.registry import BUILTINS

    golden = Path(__file__).parent / "golden"
    files = [*BUILTINS, *(parse_variety_file(f.read_text()) for f in sorted(golden.glob("*.var")))]
    assert len(files) > len(BUILTINS)
    for vf in files:
        got = vf.parsed or parse_map(vf.exprs, vf.n)
        want = PolyMap([reference_parse_poly(e, vf.n) for e in vf.exprs])
        for g, w in zip(got.components, want.components, strict=True):
            assert_same_terms(g, w)
        assert_same_compiled(got, want)


def test_parsing_a_sum_makes_no_polynomial_addition(monkeypatch):
    calls = []
    add = Polynomial.__add__

    def counting_add(self, other):
        calls.append(other)
        return add(self, other)

    monkeypatch.setattr(Polynomial, "__add__", counting_add)
    k = 60
    text = " - ".join(f"{j}/7*u{j % 3 + 1}^{j}*u{(j + 1) % 3 + 1}" for j in range(1, k + 1))
    assert len(parse_poly(text, 3).terms) == k
    assert calls == []


# -- arithmetic and invariants --------------------------------------------------


def test_eval_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = random_polynomial(rng, n)
        q = random_polynomial(rng, n)
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        assert reference_eval(p * q, point) == reference_eval(p, point) * reference_eval(q, point)
        assert reference_eval(p + q, point) == reference_eval(p, point) + reference_eval(q, point)


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
    # a point is evaluated as the stack of one; one of the wrong length raises
    for F, bad_points in (
        (parse_map(["u1^2"], 1), ([1.0, 2.0],)),
        (parse_map(["u1^2", "u1*u2"], 2), ([], [1.0], [1.0, 2.0, 3.0], 1.0)),
    ):
        for method in (F.jet2, F.value_at, F.jacobian_at):
            for bad in bad_points:
                with pytest.raises(ValueError):
                    method(bad)


def test_stacked_evaluation_matches_one_point_on_the_benchmark_files(tmp_path):
    # every map of round 0 of both workloads, graphs and parametrizations
    gen = load_perfbench("gen")
    rng = random.Random(17)
    maps = 0
    for workload in ("recover", "certify"):
        for job in gen.make_jobs(workload, 1, tmp_path / workload, rounds=1):
            vf = parse_variety_file(Path(job["argv"][1]).read_text())
            F = parse_map(vf.exprs, vf.n)
            U = np.array([random_point(vf.n, 1.0, rng) for _ in range(7)])
            jet, value, jacobian = F.jet2(U), F.value_at(U), F.jacobian_at(U)
            assert jet.hessian.shape == (7, F.num_components, vf.n, vf.n)
            for s, u in enumerate(U):
                one = F.jet2(u)
                for stacked, single in (
                    (jet.value[s], one.value),
                    (jet.jacobian[s], one.jacobian),
                    (jet.hessian[s], one.hessian),
                    (value[s], F.value_at(u)),
                    (jacobian[s], F.jacobian_at(u)),
                ):
                    assert stacked.shape == single.shape
                    assert np.abs(stacked - single).max() <= 1e-14 * max(1.0, np.abs(single).max())
            maps += 1
    assert maps == 46


def test_stacked_jet_matches_each_stack_of_one_up_to_rounding(tmp_path):
    # the slice contract of stacked_newton on jets: a stacked jet2 may round
    # a row differently with the height of its stack, but every row matches
    # the jet of its stack of one to 1e-15 relative, at the heights a Newton
    # wave of 64 starts passes through, in its start box of radius 3
    gen = load_perfbench("gen")
    rng = random.Random(23)
    for job in gen.make_jobs("recover", 1, tmp_path, rounds=1):
        F = parse_variety_file(Path(job["argv"][1]).read_text()).parsed
        U = np.array([random_point(F.num_vars, 3.0, rng) for _ in range(64)])
        ones = [F.jet2(U[s : s + 1]) for s in range(len(U))]
        for height in (64, 17, 2):
            jet = F.jet2(U[:height])
            for s, one in enumerate(ones[:height]):
                for part in ("value", "jacobian", "hessian"):
                    stacked, single = getattr(jet, part)[s], getattr(one, part)[0]
                    assert np.linalg.norm(stacked - single) <= 1e-15 * np.linalg.norm(single)


def test_stacked_evaluation_rejects_wrong_shapes():
    F = parse_map(["u1^2", "u1*u2"], 2)
    for method in (F.jet2, F.value_at, F.jacobian_at):
        for bad in (np.zeros((3, 3)), np.zeros((3, 1)), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError):
                method(bad)
        empty = method(np.zeros((0, 2)))
        assert (empty.value if isinstance(empty, Jet2) else empty).shape[0] == 0


def exact_jet(F: PolyMap, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, Jacobian and Hessian of F at the rational point x, evaluated
    exactly term by term and only then cast to complex."""
    n = F.num_vars

    def at(p: Polynomial) -> complex:
        return reference_eval(p, x).to_complex()

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


@pytest.mark.parametrize("n", [1, 3, 5])
def test_derivatives_match_reference_without_rebuilding(monkeypatch, n):
    """partial, _derivatives and hessian0_exact give the terms, in the order,
    of derivatives built through the validating constructor and their values
    at the origin, and never call that constructor."""
    rng = random.Random(60 + n)
    comps = [
        random_cubic(rng, n)
        + Polynomial.const(n, GaussianRational(Fraction(7, 3), -1))
        + Polynomial.variable(n, k % n) * GaussianRational(Fraction(-1, 2), Fraction(3, 4))
        for k in range(n)
    ]
    for p in comps:
        assert any(sum(e) == 0 for e in p.terms) and any(sum(e) == 1 for e in p.terms)
        assert any(c.im for c in p.terms.values())
        assert len({c.re.denominator for c in p.terms.values()}) > 1
    F = PolyMap(comps)
    origin = [0] * n
    grad_ref = [[reference_partial(p, k) for k in range(n)] for p in comps]
    hess_ref = [{(j, k): reference_partial(row[j], k) for j in range(n) for k in range(j, n)} for row in grad_ref]
    h0_ref = [
        [[reference_eval(reference_partial(reference_partial(p, j), k), origin) for k in range(n)] for j in range(n)]
        for p in comps
    ]

    calls = []
    init = Polynomial.__init__

    def counting(*args):
        calls.append(args)
        return init(*args)

    monkeypatch.setattr(Polynomial, "__init__", counting)
    grad, hess = F._derivatives()
    h0 = F.hessian0_exact()
    assert calls == []

    for row, row_ref in zip(grad, grad_ref, strict=True):
        for g, w in zip(row, row_ref, strict=True):
            assert_same_terms(g, w)
    for row, row_ref in zip(hess, hess_ref, strict=True):
        assert list(row) == list(row_ref)
        for pair in row:
            assert_same_terms(row[pair], row_ref[pair])
    assert h0 == h0_ref


# -- exact jets ---------------------------------------------------------------------


def assert_exact_jet_matches_partials(F: PolyMap, x) -> None:
    """jet_exact and hessian_integer at x equal eval_exact of the cached
    partials, entry by entry and in both index orders of the Hessian."""
    n = F.num_vars
    grad, hess = F._derivatives()
    jet = F.jet_exact(x)
    assert jet.value == [reference_eval(p, x) for p in F.components]
    assert jet.jacobian == [[reference_eval(g, x) for g in row] for row in grad]
    want = [[[reference_eval(h[min(j, k), max(j, k)], x) for k in range(n)] for j in range(n)] for h in hess]
    assert jet.hessian == want
    re, im, scales = F.hessian_integer(x)
    got = [
        [[GaussianRational(Fraction(r[j * n + k], s), Fraction(i[j * n + k], s)) for k in range(n)] for j in range(n)]
        for r, i, s in zip(re, im, scales, strict=True)
    ]
    assert got == want


def exact_points(rng: random.Random, n: int) -> list[list]:
    """An integer point, a point with mixed denominators and a Gaussian
    rational point."""
    return [
        [Fraction(rng.randint(-9, 9)) for _ in range(n)],
        [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)],
        [random_gaussian(rng, imag_prob=0.7) for _ in range(n)],
    ]


@pytest.mark.parametrize("workload", ["recover", "certify"])
def test_jet_exact_matches_partials_on_benchmark_inputs(tmp_path, workload):
    gen = load_perfbench("gen")
    rng = random.Random(8)
    for job in gen.make_jobs(workload, 1, tmp_path, rounds=1):
        F = parse_variety_file(Path(job["argv"][1]).read_text()).parsed
        for x in exact_points(rng, F.num_vars):
            assert_exact_jet_matches_partials(F, x)


@pytest.mark.parametrize(
    "F",
    [
        parse_map(["(1/2 + 3*i)*u1^3 - i*u1 + 7/3", "u1^2"], 1),
        parse_map(["3/4 - 2*i", "0", "u1*u2^2 - i*u2", "2/3*u1^4*u2 - 5/7"], 2),
        PolyMap([random_cubic(random.Random(70 + i), 4) for i in range(4)]),
    ],
    ids=["complex-n1", "constant-and-zero", "cubic-n4"],
)
def test_jet_exact_matches_partials_at_fractional_and_gaussian_points(F):
    rng = random.Random(9)
    for _ in range(3):
        for x in exact_points(rng, F.num_vars):
            assert_exact_jet_matches_partials(F, x)


def test_jet_exact_agrees_with_the_float_jet():
    F = PolyMap([random_cubic(random.Random(80 + i), 3) for i in range(6)])
    x = [Fraction(1, 3), GaussianRational(Fraction(-2, 5), Fraction(1, 2)), Fraction(7, 4)]
    jet = F.jet2(np.array([GaussianRational.coerce(c).to_complex() for c in x]))
    exact = F.jet_exact(x)
    to_complex = np.vectorize(GaussianRational.to_complex, otypes=[complex])
    for got, want in ((jet.value, exact.value), (jet.jacobian, exact.jacobian), (jet.hessian, exact.hessian)):
        assert_close(got, to_complex(np.array(want, dtype=object)))


def test_jet_exact_rejects_wrong_length():
    F = parse_map(["u1^2", "u1*u2"], 2)
    for bad in ([], [Fraction(1)], [Fraction(1)] * 3):
        with pytest.raises(ValueError):
            F.jet_exact(bad)
        with pytest.raises(ValueError):
            F.hessian_integer(bad)


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
