"""Exact multivariate polynomial arithmetic, expression parsing, and jets.

Coefficients are Gaussian rationals (complex numbers with Fraction real and
imaginary parts), so polynomial identities are decided exactly; floating
complex evaluation is a separate code path used by the numeric solvers, and
it has one implementation, on stacks of points (see ``PolyMap``).
The exact kernels (``linalg``'s elimination, ``poly_matrix_det``, the
Hessian contractions in ``tangent`` and ``PolyMap.jet_exact``) run on
Gaussian integers instead: ``gaussian_integer_rows`` scales each row of exact
scalars by the lcm of its denominators and returns the real and imaginary
parts as Python ints.

A polynomial in variables u1..un is a mapping from exponent tuples to nonzero
coefficients:

    u1^2*u2 + 3  ->  {(2, 1): 1, (0, 0): 3}

The zero polynomial has an empty term map and degree -1 by convention, which
keeps degree bounds valid in randomized identity testing.

Expression grammar (whitespace insignificant, one optional unary minus before
the leading term):

    expr     := '-'? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | 'i' | var | '(' expr ')'
    var      := 'u' nat
    rational := nat ('/' nat)?

The parser builds each polynomial once, as a term map, in time linear in the
number of terms: a sum adds its terms into one map, with the insertion order
that ``Polynomial.__add__`` would give (that order fixes the columns of the
compiled float table, and so its bits); a product of single terms adds
exponent tuples and a power of a monic monomial scales them.  Only products
of parenthesised sums and other powers go through ``Polynomial``
arithmetic.  First and second partials are
built term by term in the same way and cached per ``PolyMap``.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import PolyParseError

ScalarLike = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """Exact complex scalar a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        # a Fraction is kept as it is: Fraction() of one takes the slow
        # numbers.Rational branch, and every exact operation ends here
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def coerce(x: ScalarLike) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(Fraction(x))

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            o = GaussianRational.coerce(other)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self) -> int:
        # a real value equals the int or Fraction it coerces from, so it
        # hashes as that number
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i" if self.im != 1 else "i"
        return f"({self.re} {'+' if self.im > 0 else '-'} {abs(self.im)}*i)"


def gaussian_integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Each row of exact scalars (int, Fraction or GaussianRational) scaled
    by the lcm of its entries' denominators: the real and the imaginary
    parts as integer rows, and the scales.  Row i of the input is
    (re[i] + i im[i]) / scales[i]."""
    re_rows, im_rows, scales = [], [], []
    for row in rows:
        re = [x.re if isinstance(x, GaussianRational) else x for x in row]
        im = [x.im if isinstance(x, GaussianRational) else 0 for x in row]
        scale = math.lcm(*(x.denominator for x in re), *(x.denominator for x in im))
        re_rows.append([x.numerator * (scale // x.denominator) for x in re])
        im_rows.append([x.numerator * (scale // x.denominator) for x in im])
        scales.append(scale)
    return re_rows, im_rows, scales


def integer_tensor(T) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """An exact n x n x n tensor with each component's denominators cleared:
    ``gaussian_integer_rows`` of the flattened slices T_i, so that
    T_i[j][k] = (re[i][j*n + k] + i im[i][j*n + k]) / scales[i]."""
    return gaussian_integer_rows([[x for row in Ti for x in row] for Ti in T])


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)


class Polynomial:
    """Immutable sparse polynomial with exact coefficients.

    ``terms`` maps exponent tuples (length ``num_vars``, entries >= 0) to
    nonzero GaussianRational coefficients; no two terms share an exponent
    vector.  Do not mutate after construction.

    The public constructor checks and canonicalizes any mapping.  Code that
    builds a term map already in that form (tuples of ints of the right
    length, nonzero GaussianRational values: the parser, ``partial`` and
    negation) wraps it with ``_from_canonical``, which trusts it and does not
    copy it.  Insertion order of ``terms`` is kept by both and fixes the
    column order of ``PolyMap``'s compiled table.
    """

    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[tuple, ScalarLike]):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        canon: dict[tuple, GaussianRational] = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != num_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {num_vars} variables")
            c = GaussianRational.coerce(coeff)
            if c:
                prev = canon.get(exps)
                c = c if prev is None else prev + c
                if c:
                    canon[exps] = c
                else:
                    del canon[exps]
        self.num_vars = num_vars
        self.terms = canon

    @classmethod
    def _from_canonical(cls, num_vars: int, terms: dict[tuple, GaussianRational]) -> "Polynomial":
        """Wrap a term map that already holds the class invariant."""
        p = object.__new__(cls)
        p.num_vars = num_vars
        p.terms = terms
        return p

    @staticmethod
    def zero(num_vars: int) -> "Polynomial":
        return Polynomial(num_vars, {})

    @staticmethod
    def const(num_vars: int, value: ScalarLike) -> "Polynomial":
        return Polynomial(num_vars, {(0,) * num_vars: value})

    @staticmethod
    def variable(num_vars: int, index: int) -> "Polynomial":
        """The polynomial u_{index+1} (0-based index)."""
        if not 0 <= index < num_vars:
            raise IndexError(f"variable index {index} out of range for {num_vars} variables")
        exps = [0] * num_vars
        exps[index] = 1
        return Polynomial(num_vars, {tuple(exps): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check_same_vars(self, other: "Polynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError("polynomials have different variable counts")

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.num_vars, other)
        self._check_same_vars(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, ZERO) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return Polynomial(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_canonical(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.num_vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = GaussianRational.coerce(other)
            return Polynomial(self.num_vars, {e: cc * c for e, cc in self.terms.items()})
        self._check_same_vars(other)
        out: dict[tuple, GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, ZERO) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Polynomial(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.const(self.num_vars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.num_vars, frozenset(self.terms.items())))

    def partial(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to u_{index+1} (0-based)."""
        if not 0 <= index < self.num_vars:
            raise IndexError(f"variable index {index} out of range for {self.num_vars} variables")
        out: dict[tuple, GaussianRational] = {}
        for exps, c in self.terms.items():
            e = exps[index]
            if e:
                lowered = exps[:index] + (e - 1,) + exps[index + 1 :]
                out[lowered] = c if e == 1 else GaussianRational(c.re * e, c.im * e)
        return Polynomial._from_canonical(self.num_vars, out)

    def eval_exact(self, point: Sequence[ScalarLike]) -> GaussianRational:
        if len(point) != self.num_vars:
            raise ValueError("point has wrong length")
        vals = [GaussianRational.coerce(x) for x in point]
        total = GaussianRational(0)
        for exps, c in self.terms.items():
            term = c
            for v, e in zip(vals, exps):
                for _ in range(e):
                    term = term * v
            total = total + term
        return total

    # -- canonical printing -------------------------------------------------

    def _sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])),
        )

    @staticmethod
    def _positive_coeff_str(c: GaussianRational) -> str:
        """Render a coefficient already known to have positive sign marker."""
        if c.im == 0:
            return str(c.re)
        if c.re == 0:
            return "i" if c.im == 1 else f"{c.im}*i"
        sign = "+" if c.im > 0 else "-"
        im = abs(c.im)
        im_str = "i" if im == 1 else f"{im}*i"
        return f"({c.re} {sign} {im_str})"

    def to_expr(self) -> str:
        """Canonical grammar-conformant rendering; parse(to_expr()) == self."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for idx, (exps, c) in enumerate(self._sorted_terms()):
            # sign of a term follows its real part, or imaginary part if real is 0
            negative = (c.re < 0) or (c.re == 0 and c.im < 0)
            mag = -c if negative else c
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"u{i + 1}")
                elif e > 1:
                    factors.append(f"u{i + 1}^{e}")
            if not factors or mag != ONE:
                factors.insert(0, self._positive_coeff_str(mag))
            body = "*".join(factors)
            if idx == 0:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"{'-' if negative else '+'} {body}")
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.to_expr()

    def __repr__(self) -> str:
        return f"Polynomial({self.num_vars}, {self.to_expr()!r})"


# -- expression parser -------------------------------------------------------


class _ExprParser:
    """Recursive descent over the grammar above.  Each rule returns a fresh
    canonical term map (see ``Polynomial``): a sum adds its terms into one
    map in order, a product of single terms adds their exponent tuples, a
    power of a monic monomial scales them, and ``Polynomial`` arithmetic runs
    only for a factor with several terms (a parenthesised sum) and for any
    other power."""

    def __init__(self, text: str, num_vars: int):
        self.text = text
        self.n = num_vars
        self.pos = 0
        self.origin = (0,) * num_vars
        self.units = [tuple(int(v == i) for v in range(num_vars)) for i in range(num_vars)]

    def error(self, message: str, pos: int | None = None):
        raise PolyParseError(message, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            self.error(f"expected '{char}'")
        self.pos += 1

    def parse(self) -> Polynomial:
        self.skip_ws()
        terms = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return Polynomial._from_canonical(self.n, terms)

    def expr(self) -> dict:
        self.skip_ws()
        negate = self.peek() == "-"
        if negate:
            self.pos += 1
        total: dict[tuple, GaussianRational] = {}
        while True:
            # the insertion and deletion order of Polynomial.__add__
            for e, c in self.term().items():
                if negate:
                    c = -c
                prev = total.get(e)
                if prev is None:
                    total[e] = c
                else:
                    c = prev + c
                    if c:
                        total[e] = c
                    else:
                        del total[e]
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                return total
            self.pos += 1
            negate = op == "-"

    def term(self) -> dict:
        total = self.factor()
        while True:
            self.skip_ws()
            if self.peek() != "*":
                return total
            self.pos += 1
            rhs = self.factor()
            if len(total) > 1 or len(rhs) > 1:
                product = Polynomial._from_canonical(self.n, total) * Polynomial._from_canonical(self.n, rhs)
                total = product.terms
            elif total and rhs:
                ((e1, c1),) = total.items()
                ((e2, c2),) = rhs.items()
                c = c2 if c1 == ONE else c1 if c2 == ONE else c1 * c2
                total = {tuple(a + b for a, b in zip(e1, e2)): c}
            else:
                total = {}

    def factor(self) -> dict:
        base = self.base()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            if self.peek() == "^":
                self.error("unexpected '^'")
            exponent = self.nat("exponent")
            if len(base) == 1:
                ((e, c),) = base.items()
                if c == ONE:
                    return {tuple(exponent * a for a in e): ONE}
            return (Polynomial._from_canonical(self.n, base) ** exponent).terms
        return base

    def base(self) -> dict:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            self.skip_ws()
            self.expect(")")
            return inner
        if ch == "i":
            self.pos += 1
            return {self.origin: I_UNIT}
        if ch == "u":
            start = self.pos
            self.pos += 1
            index = self.nat("variable index")
            if not 1 <= index <= self.n:
                self.error(f"variable u{index} out of range for {self.n} variables", start)
            return {self.units[index - 1]: ONE}
        if ch.isdecimal():
            num = self.nat("number")
            self.skip_ws()
            if self.peek() == "/":
                slash = self.pos
                self.pos += 1
                self.skip_ws()
                den = self.nat("denominator")
                if den == 0:
                    self.error("zero denominator", slash)
                num = Fraction(num, den)
            return {self.origin: GaussianRational(num)} if num else {}
        self.error("expected a number, 'i', a variable, or '('")

    def nat(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error(f"expected {what}")
        return int(self.text[start : self.pos])


def parse_poly(text: str, num_vars: int) -> Polynomial:
    """Parse an expression in variables u1..u{num_vars} into canonical form."""
    return _ExprParser(text, num_vars).parse()


# -- polynomial maps and jets -------------------------------------------------


def _pairs(n: int) -> list[tuple[int, int]]:
    """The unordered variable pairs j <= k, row-major: the second partials
    a map keeps."""
    return [(j, k) for j in range(n) for k in range(j, n)]


@functools.cache
def _hessian_index(n: int) -> tuple[int, ...]:
    """For each entry (a, b) of an n x n Hessian, row-major, the index of
    the pair (min(a, b), max(a, b)) in ``_pairs(n)``."""
    index = {pair: p for p, pair in enumerate(_pairs(n))}
    return tuple(index[min(a, b), max(a, b)] for a in range(n) for b in range(n))


@dataclass
class Jet2:
    """Value, Jacobian, and symmetric Hessian tensor of a map at a point.

    hessian[i, j, k] is the second partial of component i with respect to
    variables j and k; the two index orders hold identical values because the
    tensor is assembled from one formal second partial per unordered pair.
    ``PolyMap.jet2`` fills it with complex arrays, ``PolyMap.jet_exact`` with
    nested lists of GaussianRational of the same shapes.
    """

    value: np.ndarray      # (m,), or (S, m) for a stack of S points
    jacobian: np.ndarray   # (m, n), or (S, m, n)
    hessian: np.ndarray    # (m, n, n), or (S, m, n, n)


class PolyMap:
    """Ordered tuple of polynomials sharing a variable count: a map C^n -> C^m.

    Float evaluation runs on a compiled form built once, on first use: one
    table of the distinct monomials of the components, their first partials
    and their second partials, and one complex coefficient row per
    polynomial, stacked as the m values, then the m*n first partials
    (row-major), then the m*n(n+1)/2 second partials (pairs j <= k,
    row-major).  ``value_at``, ``jacobian_at`` and ``jet2`` take an (S, n)
    stack of points and return every result with a leading axis of length S:
    one power table of the whole stack, one product over the exponent table
    and one matrix-matrix product.  There is one path: a single point of
    shape (n,) is evaluated as the stack of one, and its results come back
    without the leading axis.

    Exact evaluation (``jet_exact``, ``hessian_integer``) runs on the same
    rows with their denominators cleared, one integer table per derivative
    order, each built on first use, so no per-term rational arithmetic runs.
    """

    __slots__ = ("num_vars", "components", "_grad", "_hess", "_table", "_exact")

    def __init__(self, components: Iterable[Polynomial]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a map needs at least one component")
        n = comps[0].num_vars
        if any(p.num_vars != n for p in comps):
            raise ValueError("components must share the variable count")
        self.num_vars = n
        self.components = comps
        self._grad = None
        self._hess = None
        self._table = None
        self._exact = None

    @property
    def num_components(self) -> int:
        return len(self.components)

    def _derivatives(self):
        """Cache first partials and one second partial per unordered pair."""
        if self._grad is None:
            n = self.num_vars
            self._grad = [[p.partial(k) for k in range(n)] for p in self.components]
            self._hess = [{(j, k): row[j].partial(k) for j, k in _pairs(n)} for row in self._grad]
        return self._grad, self._hess

    def _rows(self, order: int | None = None) -> list[Polynomial]:
        """The polynomials every jet evaluates, in the compiled order: the
        values, the first partials (row-major) and the second partials of
        the pairs j <= k (row-major); or only those of derivative ``order``
        0, 1 or 2."""
        grad, hess = self._derivatives()
        n = self.num_vars
        blocks = (
            list(self.components),
            [g for row in grad for g in row],
            [h[pair] for h in hess for pair in _pairs(n)],
        )
        return [p for block in blocks for p in block] if order is None else blocks[order]

    def _compiled(self):
        """(power-table index per monomial, coefficient rows, max degree,
        and for each entry (a, b) of an n x n Hessian, row-major, the index
        of d2/du_a du_b among the second partials)."""
        if self._table is None:
            rows = self._rows()
            n = self.num_vars
            column: dict[tuple, int] = {}
            for p in rows:
                for e in p.terms:
                    column.setdefault(e, len(column))
            coeffs = np.zeros((len(rows), len(column)), dtype=complex)
            for r, p in enumerate(rows):
                for e, c in p.terms.items():
                    try:
                        coeffs[r, column[e]] = c.to_complex()
                    except OverflowError:
                        raise ValueError(f"coefficient {c} is outside the float range") from None
            exps = np.array(list(column), dtype=np.intp).reshape(len(column), n)
            # entry [v, t] is the flat index of u_v^exps[t, v] in the power table
            power_index = np.ascontiguousarray((exps * n + np.arange(n)).T)
            symmetric = np.array(_hessian_index(n), dtype=np.intp)
            self._table = (power_index, coeffs, int(exps.max(initial=0)), symmetric)
        return self._table

    def _integer_table(self, order: int):
        """The rows of ``_rows(order)`` with their denominators cleared, for
        exact evaluation; built on first use per order, so a caller of the
        Hessian alone never clears the values.  Holds the distinct monomials
        as (variable, exponent) pairs, the largest row degree, and per row its
        degree d, the lcm L of its coefficients' denominators and its terms
        (monomial, L c as a Gaussian integer (re, im), d - |e|)."""
        if self._exact is None:
            self._exact = [None, None, None]
        if self._exact[order] is None:
            rows = self._rows(order)
            column: dict[tuple, int] = {}
            table = []
            cleared = gaussian_integer_rows([list(p.terms.values()) for p in rows])
            for p, re, im, scale in zip(rows, *cleared):
                sizes = [sum(e) for e in p.terms]
                d = max(sizes, default=0)
                terms = [(column.setdefault(e, len(column)), a, b, d - k) for e, a, b, k in zip(p.terms, re, im, sizes)]
                table.append((d, scale, terms))
            monomials = [[(v, k) for v, k in enumerate(e) if k] for e in column]
            self._exact[order] = (monomials, max((d for d, _, _ in table), default=0), table)
        return self._exact[order]

    def _eval_rows(self, u: Sequence[complex], rows: slice) -> np.ndarray:
        """The compiled polynomials in ``rows`` at each point of an (S, n)
        stack u, one row of results per point.  A point u is evaluated as the
        stack of one, and its results lose the leading axis again."""
        power_index, coeffs, degree, _ = self._compiled()
        u = np.asarray(u, dtype=complex)
        n = self.num_vars
        U = u[None] if u.shape == (n,) else u
        if U.ndim != 2 or U.shape[1] != n:
            raise ValueError("point has wrong length")
        # powers[s, d, v] = u_sv^d
        powers = np.ones((len(U), degree + 1, n), dtype=complex)
        powers[:, 1:] = U[:, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        # the product over the exponent table, one variable at a time, so
        # that no (S, monomials, n) array is formed
        table = powers.reshape(len(U), (degree + 1) * n)
        monomials = table.take(power_index[0], axis=1)
        for v in range(1, n):
            monomials *= table.take(power_index[v], axis=1)
        out = monomials @ coeffs[rows].T
        return out[0] if u.ndim == 1 else out

    def value_at(self, u: Sequence[complex]) -> np.ndarray:
        return self._eval_rows(u, slice(0, self.num_components))

    def jacobian_at(self, u: Sequence[complex]) -> np.ndarray:
        m, n = self.num_components, self.num_vars
        flat = self._eval_rows(u, slice(m, m + m * n))
        return flat.reshape(*flat.shape[:-1], m, n)

    def jet2(self, u: Sequence[complex]) -> Jet2:
        m, n = self.num_components, self.num_vars
        symmetric = self._compiled()[3]
        flat = self._eval_rows(u, slice(None))
        lead = flat.shape[:-1]  # () for one point, (S,) for a stack
        second = flat[..., m + m * n :].reshape(*lead, m, n * (n + 1) // 2)
        return Jet2(
            value=flat[..., :m],
            jacobian=flat[..., m : m + m * n].reshape(*lead, m, n),
            hessian=second.take(symmetric, axis=-1).reshape(*lead, m, n, n),
        )

    def _integer_rows(self, point: Sequence[ScalarLike], order: int) -> list[tuple[int, int, int]]:
        """The rows of ``_integer_table(order)`` at an exact point, each as
        Gaussian integer parts over a positive denominator (re, im, den).

        The point is scaled by the lcm D of its denominators to a Gaussian
        integer vector X, and a row p of degree d with cleared coefficients
        L c is summed over Gaussian integers: L D^d p(X / D) = sum L c_e X^e
        D^(d - |e|), over den = L D^d.
        """
        if len(point) != self.num_vars:
            raise ValueError("point has wrong length")
        monomials, degree, table = self._integer_table(order)
        (x_re,), (x_im,), (D,) = gaussian_integer_rows([point])
        # powers[v][k] = X_v^k as an (re, im) pair
        powers = []
        for xr, xi in zip(x_re, x_im):
            row = [(1, 0)]
            for _ in range(degree):
                a, b = row[-1]
                row.append((a * xr - b * xi, a * xi + b * xr))
            powers.append(row)
        values = []
        for mono in monomials:
            a, b = 1, 0
            for v, k in mono:
                c, d = powers[v][k]
                a, b = a * c - b * d, a * d + b * c
            values.append((a, b))
        d_powers = [D**k for k in range(degree + 1)]
        out = []
        for d, scale, terms in table:
            re = im = 0
            for col, cr, ci, gap in terms:
                a, b = values[col]
                s = d_powers[gap]
                re += (cr * a - ci * b) * s
                im += (cr * b + ci * a) * s
            out.append((re, im, scale * d_powers[d]))
        return out

    def jet_exact(self, point: Sequence[ScalarLike]) -> Jet2:
        """Value, Jacobian and Hessian at a rational or Gaussian-rational
        point, as nested lists of GaussianRational, from the integer rows of
        the cached derivatives (``_integer_rows``)."""
        m, n = self.num_components, self.num_vars
        value, first, second = (
            [GaussianRational(Fraction(a, den), Fraction(b, den)) for a, b, den in self._integer_rows(point, order)]
            for order in (0, 1, 2)
        )
        width = n * (n + 1) // 2
        index = _hessian_index(n)
        return Jet2(
            value=value,
            jacobian=[first[i * n : (i + 1) * n] for i in range(m)],
            hessian=[
                [[second[i * width + index[a * n + b]] for b in range(n)] for a in range(n)]
                for i in range(m)
            ],
        )

    def hessian_integer(self, point: Sequence[ScalarLike]) -> tuple[list[list[int]], list[list[int]], list[int]]:
        """The Hessian tensor at an exact point in ``integer_tensor``'s form,
        with no rational arithmetic: component i's entry (j, k) is
        (re[i][j*n + k] + i im[i][j*n + k]) / scales[i], scales[i] the lcm
        of its second partials' denominators."""
        n = self.num_vars
        width = n * (n + 1) // 2
        index = _hessian_index(n)
        rows = self._integer_rows(point, 2)
        t_re, t_im, scales = [], [], []
        for i in range(self.num_components):
            block = rows[i * width : (i + 1) * width]
            scale = math.lcm(*(den for _, _, den in block))
            re = [a * (scale // den) for a, _, den in block]
            im = [b * (scale // den) for _, b, den in block]
            t_re.append([re[p] for p in index])
            t_im.append([im[p] for p in index])
            scales.append(scale)
        return t_re, t_im, scales

    def hessian0_exact(self) -> list[list[list[GaussianRational]]]:
        """Exact second-derivative tensor at the origin, symmetric in (j, k):
        ``hessian_integer`` there, divided back by its scales."""
        n = self.num_vars
        t_re, t_im, scales = self.hessian_integer((0,) * n)
        return [
            [
                [GaussianRational(Fraction(re[o + k], s), Fraction(im[o + k], s)) for k in range(n)]
                for o in range(0, n * n, n)
            ]
            for re, im, s in zip(t_re, t_im, scales)
        ]

    def degree(self) -> int:
        return max(p.degree() for p in self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.components == other.components

    def __repr__(self) -> str:
        return f"PolyMap([{', '.join(p.to_expr() for p in self.components)}])"


def parse_map(exprs: Sequence[str], num_vars: int) -> PolyMap:
    return PolyMap([parse_poly(e, num_vars) for e in exprs])


def poly_matrix_det(entries: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Symbolic determinant by cofactor expansion; meant for small matrices
    (the exact fullness test caps the dimension at 4).

    Each row is scaled by the lcm of its coefficients' denominators, the
    determinant of the scaled rows is expanded over Gaussian integers
    (``integer_poly_det``), and the result is divided by the row scales at
    the end.
    """
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValueError("matrix must be square")
    if n == 0:
        raise ValueError("empty matrix")
    num_vars = entries[0][0].num_vars
    rows, scale = [], 1
    for row in entries:
        (re,), (im,), (s,) = gaussian_integer_rows([[c for p in row for c in p.terms.values()]])
        pairs = zip(re, im)
        rows.append([{e: next(pairs) for e in p.terms} for p in row])
        scale *= s
    return integer_polynomial(num_vars, integer_poly_det(rows), scale)


def integer_poly_det(rows: Sequence[Sequence[dict]]) -> dict:
    """Determinant of a square matrix of polynomials with Gaussian integer
    coefficients, each entry a term map {exponents: (re, im)} of ints, by
    cofactor expansion along the rows; the minor of each column subset of
    the trailing rows is computed once.  Returns the term map of the
    determinant, with no zero terms."""
    n = len(rows)

    def product(p: dict, q: dict) -> dict:
        out: dict[tuple, tuple[int, int]] = {}
        for e1, (a, b) in p.items():
            for e2, (c, d) in q.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                re, im = out.get(e, (0, 0))
                out[e] = (re + a * c - b * d, im + a * d + b * c)
        return out

    minors: dict[tuple, dict] = {}

    def minor(cols: tuple) -> dict:
        """Determinant of the last len(cols) rows restricted to cols."""
        if cols in minors:
            return minors[cols]
        r = n - len(cols)
        if len(cols) == 1:
            return rows[r][cols[0]]
        total: dict[tuple, tuple[int, int]] = {}
        for pos, c in enumerate(cols):
            if not rows[r][c]:
                continue
            sign = -1 if pos % 2 else 1
            for e, (a, b) in product(rows[r][c], minor(cols[:pos] + cols[pos + 1 :])).items():
                re, im = total.get(e, (0, 0))
                total[e] = (re + sign * a, im + sign * b)
        minors[cols] = total
        return total

    return {e: c for e, c in minor(tuple(range(n))).items() if c != (0, 0)}


def integer_polynomial(num_vars: int, terms: dict, scale: int) -> Polynomial:
    """The polynomial with term map {exponents: (re, im)} of ints, no zero
    terms, divided by the positive int ``scale``."""
    return Polynomial._from_canonical(
        num_vars, {e: GaussianRational(Fraction(a, scale), Fraction(b, scale)) for e, (a, b) in terms.items()}
    )


# -- random sampling ----------------------------------------------------------


def random_point(n: int, box: float, rng: random.Random) -> np.ndarray:
    """Complex vector with real and imaginary parts uniform in [-box, box]."""
    if box <= 0:
        raise ValueError("box radius must be positive")
    return np.array(
        [complex(rng.uniform(-box, box), rng.uniform(-box, box)) for _ in range(n)]
    )


def random_rational_point(n: int, bound: int, rng: random.Random) -> tuple[Fraction, ...]:
    """Exact rational vector with integer entries uniform in [-bound, bound]."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
