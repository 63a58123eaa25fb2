"""Exact scalar arithmetic.

Rationals are ``fractions.Fraction`` (reduced, unbounded, serialized as
``p/q``); every function takes a Fraction or int and none parses text.
This module provides real powers of i times a rational, Pochhammer and
binomial combinatorics, and a normal form for ratios of Gamma-function
values at arguments ``N + offset`` or ``2N + offset``.  Every
half-integer Gamma product that a construction or check meets is a
plain Pochhammer by Legendre duplication, so none of them runs the
normal form: paired_gamma_moment, the product (N)_{n/2} (N+n/2)_{p/2}
that the Gamma-subordinated routes and checks share, is (N)_{(n+p)/2}.
The normal form stays as an independent reference that derives such
reductions instead of stating them.

A factor that must not vanish at the parameter (a Pochhammer
denominator, or the value C_n^N(1) that Feldheim divides by) goes
through nonvanishing, which reports it as "<factor> vanishes at N=<N>".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

Rational = Fraction
RationalLike = Union[Fraction, int]


class DomainError(ValueError):
    """A mathematical precondition is violated: pole, zero parameter,
    degenerate input.  The CLI maps this to exit code 3."""


class ConsistencyError(ArithmeticError):
    """An internal exactness check failed (nonzero imaginary part,
    unresolved half power, inexact division).  Never expected on valid
    inputs; indicates a bug rather than bad data."""


def rational(x: RationalLike) -> Fraction:
    """An int or Fraction as a Fraction; text, like a float, raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rational_str(x: RationalLike) -> str:
    """Serialize as 'p/q', or 'p' when the denominator is 1."""
    return str(rational(x))


def as_param(N: RationalLike) -> Fraction:
    """Validate a family parameter: any nonzero rational."""
    value = rational(N)
    if value == 0:
        raise DomainError("parameter N must be nonzero")
    return value


def nonvanishing(value: Fraction, what: str, N: RationalLike) -> Fraction:
    """value itself, or DomainError naming what vanishes at the parameter
    N: the one place a pole precondition of a check or construction is
    reported."""
    if value == 0:
        raise DomainError(f"{what} vanishes at N={N}")
    return value


def cleared(rows: Iterable[Sequence[Fraction]]) -> Tuple[list, int]:
    """The rows of rationals over one common denominator: (ints, d), with
    d the lcm of every denominator in rows and ints[i][j] = d rows[i][j],
    each an int."""
    rows = list(rows)
    d = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (d // v.denominator) for v in row] for row in rows], d


def factorial(n: int) -> int:
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    return math.comb(n, k)


def pochhammer(a: RationalLike, k: int) -> Fraction:
    """Rising factorial (a)_k = a(a+1)...(a+k-1); empty product is 1."""
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    a = rational(a)
    result = Fraction(1)
    for j in range(k):
        result *= a + j
    return result


def real_i_power(k: int, value: RationalLike) -> Fraction:
    """i^k * value for a rational value, which must be real: an odd
    power of i times a nonzero value raises ConsistencyError."""
    value = rational(value)
    if k % 2:
        if value != 0:
            im = value if k % 4 == 1 else -value
            raise ConsistencyError(f"imaginary part must vanish, got {im}i")
        return value
    return -value if k % 4 == 2 else value


# ---------------------------------------------------------------------------
# Gamma-ratio normal form


@dataclass(frozen=True, order=True)
class GammaArg:
    """Symbolic Gamma argument slope*N + offset with slope in {1, 2}."""

    slope: int
    offset: Fraction

    def __post_init__(self):
        if self.slope not in (1, 2):
            raise ValueError("GammaArg slope must be 1 or 2")
        object.__setattr__(self, "offset", rational(self.offset))


@dataclass(frozen=True)
class GammaRatio:
    """Product Gamma(num args)/Gamma(den args) times 2^(pow2_slope*N +
    pow2_offset) * pi^(sqrt_pi_exponent/2) * rational_factor, symbolic in N.

    Normalization (which needs a concrete N) eliminates slope-2 arguments
    through the Legendre duplication formula and folds integer-offset
    cancellations into the rational factor.
    """

    numerator_args: Tuple[GammaArg, ...] = ()
    denominator_args: Tuple[GammaArg, ...] = ()
    pow2_slope: int = 0
    pow2_offset: Fraction = Fraction(0)
    sqrt_pi_exponent: int = 0
    rational_factor: Fraction = Fraction(1)

    @classmethod
    def one(cls) -> "GammaRatio":
        return cls()

    @classmethod
    def rising(cls, start: RationalLike, amount: RationalLike, slope: int = 1) -> "GammaRatio":
        """(slope*N + start)_amount as Gamma(slope*N+start+amount)/Gamma(slope*N+start).

        amount may be any rational, including negative or half-integer;
        whether the ratio reduces to a rational is decided at
        normalization time.
        """
        start = rational(start)
        amount = rational(amount)
        return cls(
            numerator_args=(GammaArg(slope, start + amount),),
            denominator_args=(GammaArg(slope, start),),
        )

    def reciprocal(self) -> "GammaRatio":
        return GammaRatio(
            self.denominator_args,
            self.numerator_args,
            -self.pow2_slope,
            -self.pow2_offset,
            -self.sqrt_pi_exponent,
            1 / self.rational_factor,
        )

    def __mul__(self, other: "GammaRatio") -> "GammaRatio":
        return GammaRatio(
            tuple(sorted(self.numerator_args + other.numerator_args)),
            tuple(sorted(self.denominator_args + other.denominator_args)),
            self.pow2_slope + other.pow2_slope,
            self.pow2_offset + other.pow2_offset,
            self.sqrt_pi_exponent + other.sqrt_pi_exponent,
            self.rational_factor * other.rational_factor,
        )


def gamma_ratio_normalize(g: GammaRatio, N: RationalLike) -> GammaRatio:
    """Bring a GammaRatio to normal form at a concrete rational N.

    Every slope-2 argument is rewritten through Gamma(2z) =
    2^(2z-1) pi^(-1/2) Gamma(z) Gamma(z+1/2); then numerator/denominator
    pairs of equal slope whose offsets differ by an integer are folded
    into the rational factor as a Pochhammer value.  Raises DomainError
    when folding would run Gamma through a nonpositive integer at this N.
    """
    N = rational(N)
    num: list[GammaArg] = []
    den: list[GammaArg] = []
    pow2_slope = g.pow2_slope
    pow2_offset = g.pow2_offset
    sqrt_pi = g.sqrt_pi_exponent
    factor = g.rational_factor

    half = Fraction(1, 2)
    for args, out, sign in ((g.numerator_args, num, 1), (g.denominator_args, den, -1)):
        for arg in args:
            if arg.slope == 2:
                z = arg.offset / 2
                out.append(GammaArg(1, z))
                out.append(GammaArg(1, z + half))
                pow2_slope += 2 * sign
                pow2_offset += sign * (arg.offset - 1)
                sqrt_pi -= sign
            else:
                out.append(arg)

    remaining_num: list[GammaArg] = []
    den_left = list(den)
    for arg in sorted(num):
        best = None
        for cand in den_left:
            diff = arg.offset - cand.offset
            if diff.denominator != 1:
                continue
            if best is None or abs(diff) < abs(arg.offset - best.offset):
                best = cand
        if best is None:
            remaining_num.append(arg)
            continue
        den_left.remove(best)
        # Gamma(N+a)/Gamma(N+b) is (N+b)_(a-b), or 1/(N+a)_(b-a) below b
        diff = int(arg.offset - best.offset)
        value = pochhammer(N + min(arg.offset, best.offset), abs(diff))
        if value == 0:
            raise DomainError(f"Gamma cancellation hits a nonpositive integer argument at N={N}")
        factor = factor * value if diff >= 0 else factor / value

    return GammaRatio(
        tuple(sorted(remaining_num)),
        tuple(sorted(den_left)),
        pow2_slope,
        pow2_offset,
        sqrt_pi,
        factor,
    )


def gamma_ratio_is_rational(g: GammaRatio) -> Tuple[bool, Optional[Fraction]]:
    """Decide whether a normalized GammaRatio is a plain rational.

    True exactly when all Gamma factors cancelled, no sqrt(pi) remains,
    the power of two has no N dependence and an integer exponent.
    """
    if g.numerator_args or g.denominator_args:
        return False, None
    if g.sqrt_pi_exponent != 0 or g.pow2_slope != 0:
        return False, None
    if g.pow2_offset.denominator != 1:
        return False, None
    return True, g.rational_factor * Fraction(2) ** int(g.pow2_offset)


def gamma_ratio_rational_value(g: GammaRatio, N: RationalLike) -> Fraction:
    """Normalize at N and return the rational value, or raise."""
    ok, value = gamma_ratio_is_rational(gamma_ratio_normalize(g, N))
    if not ok:
        raise ConsistencyError("Gamma ratio did not reduce to a rational")
    return value


def paired_gamma_moment(N: RationalLike, n: int, power_num: int) -> Fraction:
    """(N)_{n/2} * E b^(power_num/2) for b ~ Gamma(N + n/2): the Gamma
    ratio Gamma(N + (n + power_num)/2) / Gamma(N), which is the plain
    Pochhammer (N)_{(n + power_num)/2} when power_num has the parity of
    n; the other parity leaves a half-integer ratio and raises
    ConsistencyError."""
    if (n + power_num) % 2:
        raise ConsistencyError("Gamma ratio did not reduce to a rational")
    return pochhammer(N, (n + power_num) // 2)
