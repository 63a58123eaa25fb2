"""Polynomial family constructors.

Each family is built by several genuinely independent routes at a fixed
rational parameter N, so the routes can be tested against one another:

* Hermite H_n: explicit sum, binomial moment expansion over a centered
  Gaussian of variance 1/2, and the operator exp(-(1/4) d^2/dX^2)
  applied to (2X)^n.
* Gegenbauer C_n^N: explicit sum, Rodrigues-derived recurrence, and three
  moment expansions (Gamma pair U/V, Student-r, Gamma-subordinated
  Gaussian).
* Relativistic Hermite H_n^N: explicit sum, Rodrigues-derived
  recurrence, Gamma pair moment form, Student-r moment form,
  Gamma-subordinated Gaussian form, and the normalized-Bessel operator.

Square roots of N never appear: the raw coefficients of H_n^N are
rational, and identities stated at argument X*sqrt(N) are carried in the
rescaled form N^(n/2) H_n^N(X sqrt(N)), which is again rational because
the coefficient of X^j picks up the integer power N^((n+j)/2).
rhp_raw_to_scaled does this through Poly.paired.  One support rule
holds for every pairing: a term outside the support it expects raises
algebra.SupportError carrying those terms, and rhp_raw_to_scaled names
the member as H_n^N at N=<N>.  The Gamma-subordinated routes pair their
half-integer Gamma moments through numeric.paired_gamma_moment, a plain
Pochhammer.  Three normalizations are tracked: RAW is the family itself,
SQRT_SCALED is the rescaled form above, and MOMENT is E(X+sZ)^n for the
mixing variable Z (for the relativistic family, the monic form).  Every
explicit member is one walk from its last term: H_n^N has no pole but
N = 0, C_n^N and the rescaled form have none, and the parametric MOMENT
members share their last term and its one pole, the (N+1/2)_{n//2} of
the Student-r moments; (2N)_n divides only a perturbation carried there.

Every coefficient is a Fraction, powers of i included.  Each moment
form is a form of degree n in (X, s) for one radical s whose square is
a polynomial: i (s^2 = -1) in the Hermite, relativistic Student-r and
Gegenbauer Gamma-subordinated routes, i sqrt(1-X^2) (s^2 = X^2-1) in
the Gegenbauer Student-r route, i sqrt(1+X^2) (s^2 = -(1+X^2)) in the
relativistic Gamma-subordinated route, and i or sqrt(X^2-1) in the
Gamma pair U/V routes.  Each is built at s = 1 and carried back to
degree n by Poly.homogenized, which pairs s^(n-j) to
(s^2)^((n-j)/2); an odd power of s that fails to cancel raises
SupportError.

The explicit walks (H_n, C_n^N, H_n^N raw and rescaled; not the moment
members) are memoized per (n, N) below the test hook that perturbs them,
so a cache holds only unperturbed members, shared safely as Poly is
immutable.  The command line clears the caches when a command ends.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

from .algebra import Poly, horner, naming
from .numeric import (
    DomainError,
    RationalLike,
    as_param,
    binomial,
    factorial,
    nonvanishing,
    paired_gamma_moment,
    pochhammer,
    rational,
)

HALF = Fraction(1, 2)

# s^2 for the radical s = i, and for s = i sqrt(1-X^2) or sqrt(X^2-1)
# in the Gegenbauer Student-r and U/V routes.
I_SQUARED = Poly((-1,))
X2_MINUS_1 = Poly((-1, 0, 1))

# Distinct members each explicit construction keeps; a command's grid
# needs far fewer (verify at n_max 20 builds under 800 H_n^N).
CACHE_SIZE = 4096


class Family(Enum):
    HERMITE = "hermite"
    GEGENBAUER = "gegenbauer"
    RHP = "rhp"


class Normalization(Enum):
    RAW = "raw"
    SQRT_SCALED = "scaled"
    MOMENT = "moment"


@dataclass(frozen=True)
class FamilyId:
    """Identifies one family member and the normalization it carries."""

    family: Family
    n: int
    N: Optional[Fraction] = None
    normalization: Normalization = Normalization.RAW

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("degree must be nonnegative")
        if self.family is Family.HERMITE:
            if self.N is not None:
                raise ValueError("the Hermite family carries no parameter")
        elif self.N is None:
            raise ValueError(f"the {self.family.value} family needs a parameter")
        else:
            object.__setattr__(self, "N", as_param(self.N))
        if self.normalization is Normalization.SQRT_SCALED and self.family is not Family.RHP:
            raise ValueError("sqrt scaling applies only to the relativistic family")


# ---------------------------------------------------------------------------
# Test hook: single-coefficient perturbation of the explicit constructors.
# Used by the mutation-sensitivity tests and by the CLI when the
# RELHERMITE_PERTURB environment variable is set.


@dataclass(frozen=True)
class Perturbation:
    kind: str  # "hermite" | "gegenbauer" | "rhp"
    n: int
    index: int
    delta: Fraction

    def __post_init__(self):
        Family(self.kind)  # ValueError for an unknown family
        if self.n < 0 or self.index < 0:
            raise ValueError("perturbed degree and index must be nonnegative")
        if self.delta == 0:
            raise ValueError("a zero perturbation would perturb nothing")


_perturbation: ContextVar[Optional[Perturbation]] = ContextVar("_perturbation", default=None)


def perturbed(kind: str, n: int, index: int, delta: RationalLike):
    """Perturb one coefficient of one explicit construction for the
    duration of the block, in the current thread or task only.  A
    malformed perturbation raises ValueError here, before any block."""
    return _perturbing(Perturbation(kind, n, index, rational(delta)))


@contextmanager
def _perturbing(pert: Perturbation):
    token = _perturbation.set(pert)
    try:
        yield
    finally:
        _perturbation.reset(token)


def clear_construction_caches() -> None:
    """Drop every memoized explicit construction."""
    for build in (_hermite, _gegenbauer_explicit, _rhp_walk):
        build.cache_clear()


def _tap(kind: str, n: int, p: Poly, rescale: Callable[[Poly], Poly] = lambda b: b) -> Poly:
    """p, plus the active one-coefficient perturbation of the raw member
    (kind, n), carried by rescale into the normalization p is built in."""
    pert = _perturbation.get()
    if pert is None or pert.kind != kind or pert.n != n:
        return p
    return p + rescale(Poly.monomial(pert.index, pert.delta))


# ---------------------------------------------------------------------------
# Moment sequences


class MomentSequence:
    """Exact moment map k -> E Z^k for the mixing laws that appear in the
    moment representations."""

    def __init__(self, descriptor: str, evaluator: Callable[[int], Fraction]):
        self.descriptor = descriptor
        self._evaluator = evaluator

    def __call__(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("moment order must be nonnegative")
        return self._evaluator(k)

    def __repr__(self) -> str:
        return f"MomentSequence({self.descriptor})"

    @classmethod
    def gaussian_half(cls) -> "MomentSequence":
        """Centered Gaussian with variance 1/2: E Z^(2k) = (2k)!/(k! 4^k)."""

        def ev(k: int) -> Fraction:
            if k % 2:
                return Fraction(0)
            half = k // 2
            return Fraction(factorial(k), factorial(half) * 4**half)

        return cls("gaussian", ev)

    @classmethod
    def student_r(cls, N: RationalLike) -> "MomentSequence":
        """Symmetric law on [-1,1] with density ~ (1-Z^2)^(N-1):
        E Z^(2k) = (2k)! / (k! 4^k (N+1/2)_k)."""
        N = as_param(N)

        def ev(k: int) -> Fraction:
            if k % 2:
                return Fraction(0)
            half = k // 2
            denom = nonvanishing(pochhammer(N + HALF, half), f"(N+1/2)_{half}", N)
            return Fraction(factorial(k), factorial(half) * 4**half) / denom

        return cls(f"student-r(N={N})", ev)

    @classmethod
    def gamma_shape(cls, alpha: RationalLike) -> "MomentSequence":
        """Gamma law with shape alpha: E b^l = (alpha)_l."""
        alpha = rational(alpha)
        return cls(f"Gamma(shape={alpha})", lambda k: pochhammer(alpha, k))


# ---------------------------------------------------------------------------
# Explicit sums


def _last_term_walk(n: int, last: Fraction, factor: Callable[[int], Fraction]) -> Poly:
    """sum_k t_k X^(n-2k) from its last term t_{n//2} = last by the ratio
    t_{k-1}/t_k = -4k factor(k) / ((j+2)(j+1)), j = n-2k.  It divides by no
    parameter factor, so a vanishing factor(k) zeroes every term above X^j."""
    coeffs = [Fraction(0)] * (n + 1)
    term = coeffs[n % 2] = last
    for k in range(n // 2, 0, -1):
        j = n - 2 * k
        term = term * (factor(k) * Fraction(-4 * k, (j + 2) * (j + 1)))
        coeffs[j + 2] = term
    return Poly(coeffs)


def _moment_member(kind: str, n: int, N: Fraction, factor: Callable, rescale: Callable) -> Poly:
    """E (X + sZ)^n over the Student-r law, walked from the last term
    n! (-1)^l / (l! 4^l (N+1/2)_l), l = n//2, of both families: (2N)_n =
    2^n (N)_{n-l} (N+1/2)_l cancels their (N)_{n-l}.  A perturbation of
    the raw member (kind, n) is carried by rescale, then over (2N)_n."""
    last = n // 2
    pole = nonvanishing(pochhammer(N + HALF, last), f"(N+1/2)_{last}", N)
    top = Fraction((-1) ** last * factorial(n), factorial(last) * 4**last) / pole

    def carried(bump: Poly) -> Poly:
        return rescale(bump) * (1 / nonvanishing(pochhammer(2 * N, n), f"(2N)_{n}", N))

    return _tap(kind, n, _last_term_walk(n, top, factor), carried)


# ---------------------------------------------------------------------------
# Hermite


def hermite(n: int) -> Poly:
    """Classical Hermite polynomial as the alternating sum over k of
    n!/((n-2k)! k!) (2X)^{n-2k}."""
    return _tap("hermite", n, _hermite(n))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _hermite(n: int) -> Poly:
    """The sum from its last term (-1)^(n//2) n! 2^(n%2) / (n//2)!, at
    term factor 1."""
    last = n // 2
    top = Fraction((-1) ** last * 2 ** (n % 2) * factorial(n), factorial(last))
    return _last_term_walk(n, top, lambda k: 1)


def hermite_from_moments(n: int) -> Poly:
    """H_n = 2^n E (X + iZ)^n over the variance-1/2 Gaussian."""
    return from_moment_binomial(n, Fraction(2) ** n, MomentSequence.gaussian_half())


def hermite_moment_normalized(n: int) -> Poly:
    """E (X + iZ)^n itself, i.e. H_n / 2^n."""
    return hermite(n) * Fraction(1, 2**n)


# ---------------------------------------------------------------------------
# Gegenbauer


def gegenbauer_explicit(n: int, N: RationalLike) -> Poly:
    """C_n^N as the alternating sum over k of
    (N)_{n-k}/((n-2k)! k!) (2X)^{n-2k}."""
    return _tap("gegenbauer", n, _gegenbauer_explicit(n, rational(N)))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _gegenbauer_explicit(n: int, N: Fraction) -> Poly:
    """The sum from its last term (-1)^(n//2) 2^(n%2) (N)_{n-n//2} / (n//2)!,
    at term factor N+n-k: a vanishing (N)_{n-k} zeroes every term above."""
    last = n // 2
    top = Fraction((-1) ** last * 2 ** (n % 2) * pochhammer(N, n - last), factorial(last))
    return _last_term_walk(n, top, lambda k: N + n - k)


def _rodrigues(weight: Poly, alpha: Fraction, n: int) -> Poly:
    """P_n with (d/dX)^n w^alpha = w^(alpha-n) P_n for the weight w:
    P_0 = 1 and P_{k+1} = w P_k' + (alpha - k) w' P_k."""
    slope = weight.derivative()
    p = Poly.one()
    for k in range(n):
        p = weight * p.derivative() + (alpha - k) * slope * p
    return p


def gegenbauer_rodrigues(n: int, N: RationalLike) -> Poly:
    """C_n^N from the Rodrigues form: the normalizing Pochhammer ratio
    times (-1)^n P_n for the weight (1-X^2)^(n+N-1/2)."""
    N = as_param(N)
    pn = nonvanishing(pochhammer(N + HALF, n), f"(N+1/2)_{n}", N)
    norm = pochhammer(2 * N, n) / (Fraction(2) ** n * factorial(n) * pn)
    return ((-1) ** n * norm) * _rodrigues(Poly((1, 0, -1)), n + N - HALF, n)


def gegenbauer_moment_uv(n: int, N: RationalLike) -> Poly:
    """C_n^N = (1/n!) E [(X+s)U + (X-s)V]^n with s^2 = X^2 - 1 and U, V
    independent Gamma variables of shape N."""
    return _uv_expansion(n, as_param(N), X2_MINUS_1) * Fraction(1, factorial(n))


def _uv_expansion(n: int, N: Fraction, square: Poly) -> Poly:
    """E [(X+s)U + (X-s)V]^n with s^2 = square and U, V independent
    Gamma variables of shape N: the form of degree n in (X, s) whose
    value at s = 1 is sum_j C(n,j) (N)_j (N)_{n-j} (X+1)^j (X-1)^(n-j).
    Its odd powers of s must cancel exactly.  The sum is taken by Horner's
    rule in X+1 over the terms C(n,j) (N)_j (N)_{n-j} (X-1)^(n-j)."""
    terms = [
        binomial(n, j) * pochhammer(N, j) * pochhammer(N, n - j)
        * Poly(binomial(n - j, i) * (-1) ** (n - j - i) for i in range(n - j + 1))
        for j in range(n + 1)
    ]
    return horner(terms, Poly((1, 1))).homogenized(n, square)


def gegenbauer_moment_studentr(n: int, N: RationalLike) -> Poly:
    """C_n^N = ((2N)_n/n!) E (X + tZ)^n over the Student-r law, with the
    radical t = i sqrt(1-X^2), t^2 = X^2 - 1."""
    N = as_param(N)
    prefactor = pochhammer(2 * N, n) / factorial(n)
    return from_moment_binomial(n, prefactor, MomentSequence.student_r(N), X2_MINUS_1)


def gegenbauer_moment_gamma_gauss(n: int, N: RationalLike) -> Poly:
    """C_n^N = (2^n (N)_{n/2} / n!) E (X sqrt(b) + iZ)^n with b a Gamma
    variable of shape N + n/2 and Z Gaussian of variance 1/2.

    Odd k terms vanish with the odd Gaussian moments; for even k the
    half-integer product (N)_{n/2} E b^{(n-k)/2} is the Pochhammer
    (N)_{n-k/2} (numeric.paired_gamma_moment).
    """
    N = as_param(N)
    return from_moment_binomial(
        n,
        Fraction(2) ** n / factorial(n),
        MomentSequence.gaussian_half(),
        first=functools.partial(paired_gamma_moment, N, n),
    )


def gegenbauer_moment_normalized(n: int, N: RationalLike) -> Poly:
    """The moment-normalized Gegenbauer member n!/(2N)_n C_n^N, which is
    E (X + i sqrt(1-X^2) Z)^n for the Student-r mixing law: the moment
    walk at the Gegenbauer term factor N+n-k."""
    N = as_param(N)
    return _moment_member("gegenbauer", n, N, lambda k: N + n - k, lambda b: b * factorial(n))


# ---------------------------------------------------------------------------
# Relativistic Hermite


def rhp_explicit(n: int, N: RationalLike) -> Poly:
    """H_n^N with the powers of sqrt(N) cancelled analytically: the
    coefficient of X^(n-2k) is
    (2N)_n n! (-1)^k / (4^k (N+1/2)_k (n-2k)! k! N^(n-k))."""
    N = as_param(N)
    return _tap("rhp", n, _rhp_walk(n, N, N))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _rhp_walk(n: int, N: Fraction, unit: Fraction) -> Poly:
    """The sum from its last term, where (2N)_n = 2^n (N)_{n-k} (N+1/2)_k
    cancels (N+1/2)_k, at term factor (N+k-1/2)/unit: H_n^N at unit = N,
    and at unit = 1 the rescaled form, a polynomial in N."""
    last = n // 2
    top = (-1) ** last * 2 ** (n % 2) * factorial(n) * pochhammer(N, n - last)
    top /= factorial(last) * unit ** (n - last)
    return _last_term_walk(n, top, lambda k: (N + k - HALF) / unit)


def rhp_rodrigues(n: int, N: RationalLike) -> Poly:
    """H_n^N from the Rodrigues form: (-1)^n P_n for the weight
    (1+X^2/N)^(-N)."""
    N = as_param(N)
    p = _rodrigues(Poly((1, 0, 1 / N)), -N, n)
    return p if n % 2 == 0 else -p


def rhp_raw_to_scaled(p: Poly, n: int, N: Fraction) -> Poly:
    """Convert H_n^N(X) coefficients to those of N^(n/2) H_n^N(X sqrt N);
    the coefficient of X^j picks up N^((n+j)/2), an integer power by parity.
    A term of the other parity raises SupportError naming the member."""
    with naming(f"H_{n}^N at N={N}"):
        return p.paired(n, lambda h: N ** (n - h))


def rhp_scaled(n: int, N: RationalLike) -> Poly:
    """N^(n/2) H_n^N(X sqrt N), a polynomial in N (1 at n = 0 and zero
    above at N = 0); a perturbation of H_n^N is carried over rescaled."""
    N = rational(N)
    return _tap("rhp", n, _rhp_walk(n, N, 1), lambda bump: rhp_raw_to_scaled(bump, n, N))


def rhp_normalized(n: int, N: RationalLike) -> Poly:
    """The monic member N^(n/2) H_n^N(X sqrt N) / (2N)_n, which equals
    E (X + iZ)^n over the Student-r law of parameter N: the moment walk
    at the relativistic term factor N+k-1/2.  Its one pole, a zero of
    (N+1/2)_{n//2}, is met before any perturbation; a perturbation of
    H_n^N is rescaled, so its off-parity terms are met before (2N)_n."""
    N = as_param(N)
    scale = functools.partial(rhp_raw_to_scaled, n=n, N=N)
    return _moment_member("rhp", n, N, lambda k: N + k - HALF, scale)


def rhp_moment_uv(n: int, N: RationalLike) -> Poly:
    """N^(n/2) H_n^N(X sqrt N) = E [(i+X)U + (-i+X)V]^n with U, V
    independent Gamma variables of shape N; i is the radical of the
    expansion, with i^2 = -1, and its part must vanish."""
    return _uv_expansion(n, as_param(N), I_SQUARED)


def rhp_moment_studentr(n: int, N: RationalLike) -> Poly:
    """N^(n/2) H_n^N(X sqrt N) = (2N)_n E (X + iZ)^n over the Student-r
    law, through the generic binomial moment expansion."""
    N = as_param(N)
    return from_moment_binomial(n, pochhammer(2 * N, n), MomentSequence.student_r(N))


def rhp_moment_gamma_gauss(n: int, N: RationalLike) -> Poly:
    """N^(n/2) H_n^N(X sqrt N) = 2^n (N)_{n/2} E (X sqrt(b) + i sqrt(1+X^2) Z)^n
    with b ~ Gamma(N + n/2) and Z Gaussian of variance 1/2.

    The prefactor is 2^n (N)_{n/2}: the (2N)_n variant is ruled out by
    direct comparison at n <= 4 (see tests/test_oracle_resolutions.py);
    with it, odd degrees leave an unreducible half-integer Gamma ratio
    and even degrees disagree with every other route.  The radical is
    i sqrt(1+X^2), whose square is -(1+X^2).
    """
    N = as_param(N)
    return from_moment_binomial(
        n,
        Fraction(2) ** n,
        MomentSequence.gaussian_half(),
        Poly((-1, 0, -1)),
        functools.partial(paired_gamma_moment, N, n),
    )


# ---------------------------------------------------------------------------
# Generic moment expansion and the default route


def from_moment_binomial(
    n: int,
    prefactor: RationalLike,
    mom: MomentSequence,
    square: Poly = I_SQUARED,
    first: Optional[Callable[[int], Fraction]] = None,
) -> Poly:
    """prefactor * E (X B + s Z)^n with s^2 = square, Z with the moments
    mom and B independent of Z with E B^m = first(m) (B = 1 when first
    is None).  At s = 1 the form is sum_k C(n,k) first(n-k) mom(k)
    X^(n-k); it is summed over the k with mom(k) != 0 only, so first is
    never called at the others, and carried back to degree n by
    Poly.homogenized.  The odd powers of s must cancel, so a nonzero odd
    moment raises SupportError."""
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        m = mom(k)
        if m:
            coeffs[n - k] = binomial(n, k) * m * (first(n - k) if first else 1)
    return Poly(coeffs).homogenized(n, square) * rational(prefactor)


def family_member(fid: FamilyId) -> Poly:
    """Construct a member by the default (explicit) route in the
    normalization the id carries."""
    if fid.family is Family.HERMITE:
        if fid.normalization is Normalization.MOMENT:
            return hermite_moment_normalized(fid.n)
        return hermite(fid.n)
    if fid.family is Family.GEGENBAUER:
        if fid.normalization is Normalization.MOMENT:
            return gegenbauer_moment_normalized(fid.n, fid.N)
        return gegenbauer_explicit(fid.n, fid.N)
    if fid.normalization is Normalization.RAW:
        return rhp_explicit(fid.n, fid.N)
    if fid.normalization is Normalization.SQRT_SCALED:
        return rhp_scaled(fid.n, fid.N)
    return rhp_normalized(fid.n, fid.N)


# ---------------------------------------------------------------------------
# Operator route


@dataclass(frozen=True)
class OperatorSeries:
    """A formal series sum_k c_k u^k applied as sum_k c_k (d/dX)^k to the
    basis monomial (base_scale * X)^n."""

    coeff: Callable[[int], Fraction]
    base_scale: Fraction = Fraction(1)


def hermite_operator_series() -> OperatorSeries:
    """exp(-u^2/4): c_{2k} = (-1)^k / (k! 4^k), applied to (2X)^n."""

    def c(k: int) -> Fraction:
        if k % 2:
            return Fraction(0)
        half = k // 2
        return Fraction((-1) ** half, factorial(half) * 4**half)

    return OperatorSeries(c, Fraction(2))


def bessel_operator_series(nu: RationalLike) -> OperatorSeries:
    """Normalized Bessel series of order nu:
    c_{2k} = (-1)^k / (k! (nu+1)_k 4^k)."""
    nu = rational(nu)

    def c(k: int) -> Fraction:
        if k % 2:
            return Fraction(0)
        half = k // 2
        denom = pochhammer(nu + 1, half)
        if denom == 0:
            raise DomainError(f"(nu+1)_{half} vanishes at nu={nu}")
        return Fraction((-1) ** half) / (factorial(half) * denom * 4**half)

    return OperatorSeries(c, Fraction(1))


def apply_operator(op: OperatorSeries, n: int) -> Poly:
    """sum_{k<=n} c_k (d/dX)^k applied to (base_scale*X)^n: term k is
    c_k base_scale^n n!/(n-k)! X^(n-k), with c_k read for k ascending."""
    scale = op.base_scale**n * factorial(n)
    return Poly(reversed([op.coeff(k) * scale / factorial(n - k) for k in range(n + 1)]))


def hermite_from_operator(n: int) -> Poly:
    return apply_operator(hermite_operator_series(), n)


def rhp_normalized_from_operator(n: int, N: RationalLike) -> Poly:
    """Monic relativistic member through the operator route.

    The normalized Bessel series has order N - 1/2, the
    characteristic-function order of the Student-r law; order N + 1/2
    fails the n = 2 cross-check against the explicit route (see
    tests/test_oracle_resolutions.py).
    """
    N = as_param(N)
    return apply_operator(bessel_operator_series(N - HALF), n)


# ---------------------------------------------------------------------------
# Limit witness


def hermite_limit_deviation(n: int, N: RationalLike) -> list[Fraction]:
    """Exact values N*(coeff_j(H_n^N) - coeff_j(H_n)) for j = 0..n; these
    stabilize as N grows, witnessing H_n^N -> H_n."""
    N = as_param(N)
    relativistic = rhp_explicit(n, N)
    classical = hermite(n)
    return [N * (relativistic.coeff(j) - classical.coeff(j)) for j in range(n + 1)]
