"""Exact polynomial and series algebra.

Dense univariate polynomials (Poly) and truncated power series
(TruncSeries) with Fraction coefficients carry every construction in the
library, and no coefficient is ever anything but a rational.  Two
pairing rules keep half powers and radicals out of the arithmetic:
Poly.paired weights the coefficient of X^j in a member of degree n by a
rational function of (n-j)/2, and Poly.homogenized reads a polynomial as
a form of degree n in (X, s), with s a radical whose square is a fixed
polynomial (i with s^2 = -1, i sqrt(1-X^2) with s^2 = X^2-1), and pairs
s^(n-j) to (s^2)^((n-j)/2).  Both pairings are exact only on their
support, the terms of the parity of n (and, for Poly.homogenized, of
degree at most n); a term outside it raises SupportError carrying those
terms, naming() names the member they belong to, and
identities.run_guarded reports them as the witness of a failed row.
Poly and TruncSeries multiply through one convolution, _convolve, and
every polynomial is evaluated by one Horner rule, horner.  Poly.evaluate
runs it over ints: at x = p/q it takes the coefficients over their
common denominator d (numeric.cleared), scaled by powers of q, at p, and
divides by d q^degree once.
TruncSeries.pow_fraction raises only a series with constant term 1 to a
rational power (both bases the identities need start at 1), so every
coefficient of the power stays rational; it and TruncSeries.exp share
one first-order recurrence over the base's nonzero terms.
MultiPoly is a small sparse multivariate ring whose only job is taking
expectations of expanded products against a moment sequence.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterable, Optional, Tuple

from .numeric import ConsistencyError, DomainError, RationalLike, cleared, rational


class SupportError(ConsistencyError):
    """A term outside the support a pairing expects.  outside holds those
    terms; reason says which support they miss, for naming() to reuse."""

    def __init__(self, message: str, outside: "Poly", reason: str):
        super().__init__(message)
        self.outside = outside
        self.reason = reason


@contextmanager
def naming(label: str):
    """Re-raise a SupportError from the block as '<label> has <reason>',
    label naming the member whose terms fell outside the support."""
    try:
        yield
    except SupportError as exc:
        raise SupportError(f"{label} has {exc.reason}", exc.outside, exc.reason) from exc


def _convolve(a: Tuple[Fraction, ...], b: Tuple[Fraction, ...], size: int) -> list:
    """The first size coefficients of the product of the coefficient
    sequences a and b; zero coefficients on either side are skipped."""
    out = [Fraction(0)] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i], i):
                if y:
                    out[j] += x * y
    return out


def horner(coeffs, x):
    """sum_j coeffs[j] x^j by Horner's rule over ints, Fractions or Polys
    (a Poly adds only to a Poly); no coefficients give the int 0."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class Poly:
    """Dense univariate polynomial; index j holds the coefficient of X^j.

    Immutable; trailing zeros are trimmed, the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: Tuple[Fraction, ...] = tuple(cs)

    # -- constructors

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, c=1) -> "Poly":
        return cls((0,) * degree + (c,))

    # -- structure

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> Fraction:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- ring operations

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            return Poly(_convolve(a, b, len(a) + len(b) - 1))
        scalar = rational(other)
        return Poly(tuple(scalar * c for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = Poly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- calculus and evaluation

    def evaluate(self, x):
        """The value at a rational x = p/q, always a Fraction, normalized
        once: with d the common denominator of the coefficients c_j and
        top the degree, horner at p over the ints d c_j q^(top-j), divided
        by d q^top."""
        x = rational(x)
        (ints,), d = cleared([self.coeffs])
        q = x.denominator
        power = 1
        for j in reversed(range(len(ints) - 1)):
            power *= q
            ints[j] *= power
        return Fraction(horner(ints, x.numerator), d * power)

    def derivative(self) -> "Poly":
        return Poly(tuple(j * c for j, c in enumerate(self.coeffs) if j))

    def compose_linear(self, alpha: RationalLike, beta: RationalLike) -> "Poly":
        """Return p(alpha*X + beta), expanded: the Taylor shift
        q(X) = p(X + beta) by repeated synthetic division, then
        coefficient j of q times alpha^j."""
        alpha, beta = rational(alpha), rational(beta)
        cs = list(self.coeffs)
        if beta:
            top = len(cs) - 1
            for i in range(top):
                for j in range(top - 1, i - 1, -1):
                    cs[j] = cs[j] + beta * cs[j + 1]
        scale = Fraction(1)
        for j in range(1, len(cs)):
            scale = scale * alpha
            cs[j] = cs[j] * scale
        return Poly(cs)

    # -- half-power pairing

    def _parity_padded(self, n: int) -> Tuple[Fraction, ...]:
        """The coefficients padded with zeros up to degree n, once every
        nonzero term is known to have the parity of n: a term of the
        other parity has no pairing and raises SupportError."""
        cs = self.coeffs + (Fraction(0),) * (n + 1 - len(self.coeffs))
        if any(cs[1 - n % 2 :: 2]):
            raise SupportError(
                "parity violation while rescaling", self.off_parity(n), "terms of the wrong parity"
            )
        return cs

    def paired(self, n: int, weight: Callable[[int], Fraction]) -> "Poly":
        """Pair the half powers and powers of i of a member of degree n
        with the parity of n: coefficient j of the result is
        weight((n - j) // 2) * c_j for every j of the parity of n, from 0
        up to max(n, degree), zero coefficients included, so a weight
        that raises (a pole) raises even for the zero polynomial.  A
        nonzero term of the other parity has no such pairing and raises
        SupportError.  weight must return exact rationals."""
        cs = self._parity_padded(n)
        out = list(cs)
        for j in reversed(range(n % 2, len(cs), 2)):
            out[j] = weight((n - j) // 2) * cs[j]
        return Poly(out)

    def homogenized(self, n: int, square: "Poly") -> "Poly":
        """The form of degree n in (X, s) whose value at s = 1 is this
        polynomial, with the radical s paired away through s^2 = square:
        sum_j c_j X^j square^((n - j)/2), by Horner's rule in square over
        the monomials c_j X^j, j = n, n-2, ....  Every odd power of s
        must cancel, so a nonzero term of the other parity raises
        SupportError, and so does any term above degree n."""
        cs = self._parity_padded(n)
        if len(cs) > n + 1:
            raise SupportError(
                f"term above degree {n} in a form of degree {n}",
                Poly((0,) * (n + 1) + cs[n + 1 :]),
                f"terms above degree {n}",
            )
        return horner([Poly.monomial(j, cs[j]) for j in range(n, -1, -2)], square)

    def off_parity(self, n: int) -> "Poly":
        """The terms whose degree differs from n in parity."""
        return Poly(c if (j - n) % 2 else 0 for j, c in enumerate(self.coeffs))

    # -- serialization

    def to_strings(self) -> list[str]:
        """Coefficients as rational strings, ascending degree."""
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        terms = [f"{c}*X^{j}" for j, c in enumerate(self.coeffs) if c != 0]
        return "Poly(" + " + ".join(terms) + ")"


def poly_divmod(p: Poly, q: Poly) -> Tuple[Poly, Poly]:
    """Long division over the rational coefficient field."""
    if q.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coeffs)
    if len(rem) < len(q.coeffs):
        return Poly.zero(), p
    quot = [Fraction(0)] * (len(rem) - len(q.coeffs) + 1)
    qlead = q.leading
    while len(rem) >= len(q.coeffs):
        c = rem[-1] / qlead
        k = len(rem) - len(q.coeffs)
        quot[k] = c
        for j, qc in enumerate(q.coeffs):
            rem[k + j] = rem[k + j] - c * qc
        rem.pop()  # the leading term cancels exactly
        while rem and rem[-1] == 0:
            rem.pop()
    return Poly(quot), Poly(rem)


# ---------------------------------------------------------------------------
# Truncated power series in t


class TruncSeries:
    """Power series truncated at a fixed order (inclusive).

    Arithmetic between series of orders p and q yields order min(p, q);
    operations never extend the order on their own.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable, order: int):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        cs = [rational(c) for c in coeffs][: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.coeffs: Tuple[Fraction, ...] = tuple(cs)
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls((), order)

    @classmethod
    def constant(cls, c, order: int) -> "TruncSeries":
        return cls((c,), order)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "TruncSeries":
        return cls(p.coeffs, order)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        m = min(self.order, other.order)
        return TruncSeries(tuple(self.coeffs[j] + other.coeffs[j] for j in range(m + 1)), m)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(tuple(-c for c in self.coeffs), self.order)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        m = min(self.order, other.order)
        return TruncSeries(_convolve(self.coeffs, other.coeffs, m + 1), m)

    def pow_fraction(self, e: RationalLike) -> "TruncSeries":
        """Raise a series with constant term 1 to a rational power via the
        first-order recurrence g' f = e g f' term by term, from g_0 = 1;
        any other constant term raises DomainError."""
        if self.coeffs[0] != 1:
            raise DomainError("series power needs the constant term 1")
        e1 = rational(e) + 1
        return self._first_order(lambda j, m: e1 * j - m)

    def exp(self) -> "TruncSeries":
        """Exponential of a series with zero constant term."""
        if self.coeffs[0] != 0:
            raise DomainError("series exponential needs a zero constant term")
        return self._first_order(lambda j, m: j)

    def _first_order(self, weight: Callable[[int, int], Fraction]) -> "TruncSeries":
        """g from g_0 = 1 by m g_m = sum_{j=1..m} weight(j, m) f_j g_{m-j} over
        the nonzero f_j of this series f: weight j is g' = f' g, g = exp(f),
        and weight (e+1)j - m is g' f = e g f', g = f^e at f_0 = 1."""
        terms = [(j, c) for j, c in enumerate(self.coeffs) if j and c]
        g = [Fraction(1)] + [Fraction(0)] * self.order
        for m in range(1, self.order + 1):
            acc = sum((weight(j, m) * c * g[m - j] for j, c in terms if j <= m), Fraction(0))
            g[m] = acc / m
        return TruncSeries(g, self.order)

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"TruncSeries({list(self.coeffs)!r}, order={self.order})"


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials over Z_0..Z_{nvars-1}


class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> coefficient."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        self.nvars = nvars
        clean = {}
        for expo, c in (terms or {}).items():
            c = rational(c)
            if c != 0:
                clean[tuple(expo)] = c
        self.terms = clean

    @classmethod
    def constant(cls, c: RationalLike, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: rational(c)})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "MultiPoly":
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) + c
        return MultiPoly(self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for expo, c in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) - c
        return MultiPoly(self.nvars, out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, out)


def multipoly_expectation(m: MultiPoly, mom: Callable[[int], Fraction]) -> Fraction:
    """Replace each monomial prod Z_j^{e_j} by prod mom(e_j) and sum;
    all variables are treated as i.i.d. with the given moments.  mom is
    called once per distinct nonzero exponent, in the order the terms
    first meet it, so a moment that raises is the one a term-by-term
    evaluation would meet first."""
    moments = {e: mom(e) for e in dict.fromkeys(e for expo in m.terms for e in expo if e)}
    total = Fraction(0)
    for expo, c in m.terms.items():
        value = c
        for e in expo:
            if e:
                value *= moments[e]
        total += value
    return total
