"""Hankel matrices of family members, exact determinants, closed-form
Turan constants, and the Wilks moment-determinant cross-check.

Determinants are computed by Bareiss fraction-free elimination over
Z[X]: each row is first cleared of its denominators (scaled by the lcm
of the denominators of its coefficients), the elimination runs on
integer coefficient lists, and the scales are divided out of the last
pivot.  Every division by the previous pivot is exact by the Sylvester
identity; it is checked, and a nonzero remainder raises
ConsistencyError.  The Wilks route expands the squared Vandermonde
prod_{j<k}(Z_j - Z_k)^2 and takes its expectation against a moment
sequence, reproducing Hankel determinants of moments without any
determinant computation.  Each check is a sides function, as in
identities: it returns (lhs, rhs) or (lhs, rhs, notes), and the verify
row and its witness lhs - rhs are built by identities.run_guarded.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .algebra import MultiPoly, Poly, multipoly_expectation
from .families import (
    Family,
    FamilyId,
    MomentSequence,
    Normalization,
    family_member,
)
from .numeric import (
    ConsistencyError,
    DomainError,
    RationalLike,
    as_param,
    cleared,
    factorial,
    nonvanishing,
    pochhammer,
)


def hankel(family: Family, n: int, N: Optional[RationalLike] = None) -> list[list[Poly]]:
    """Rows of the (n+1) x (n+1) Hankel matrix with entry (i, j) = P_{i+j}
    for the moment-normalized members P_0..P_{2n}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    N = None if family is Family.HERMITE else as_param(N)
    seq = [
        family_member(FamilyId(family, m, N, Normalization.MOMENT)) for m in range(2 * n + 1)
    ]
    return [seq[i : i + n + 1] for i in range(n + 1)]


def poly_determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square matrix of Poly rows by Bareiss
    elimination over Z[X]: row i is first scaled by d_i, the lcm of the
    denominators of its coefficients (numeric.cleared), so the
    elimination runs on integer coefficient lists, and the last pivot is
    divided by prod d_i.

    Each division by the previous pivot is exact; an inexact division
    would signal a bug and raises ConsistencyError.
    """
    size = len(rows)
    for row in rows:
        if len(row) != size:
            raise ValueError("determinant needs a square matrix")
    if size == 0:
        return Poly.one()
    m = []
    scale = 1
    for row in rows:
        ints, d = cleared(p.coeffs for p in row)
        scale *= d
        m.append(ints)
    sign = 1
    previous = [1]
    for k in range(size - 1):
        if not m[k][k]:
            for i in range(k + 1, size):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        pivot = m[k][k]
        for i in range(k + 1, size):
            lead = m[i][k]
            for j in range(k + 1, size):
                m[i][j] = _exact_quotient(_cross(pivot, m[i][j], lead, m[k][j]), previous)
        previous = pivot
    return Poly(Fraction(sign * c, scale) for c in m[size - 1][size - 1])


def _cross(a: list[int], b: list[int], c: list[int], d: list[int]) -> list[int]:
    """a b - c d over Z[X], trailing zeros trimmed."""
    out = [0] * max(len(a) + len(b), len(c) + len(d))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    for i, x in enumerate(c):
        if x:
            for j, y in enumerate(d, i):
                out[j] -= x * y
    while out and not out[-1]:
        out.pop()
    return out


def _exact_quotient(p: list[int], q: list[int]) -> list[int]:
    """p / q over Z[X] for a nonzero q, by long division with divmod on
    the leading coefficient of q; ConsistencyError unless the quotient
    is exact with integer coefficients."""
    top = len(q) - 1
    lead = q[-1]
    rem = list(p)
    quot = [0] * max(len(rem) - top, 0)
    for k in reversed(range(len(quot))):
        c, r = divmod(rem[k + top], lead)
        if r:
            raise ConsistencyError("expected exact polynomial division")
        if c:
            quot[k] = c
            for j in range(top):
                rem[k + j] -= c * q[j]
    if any(rem[:top]):
        raise ConsistencyError("expected exact polynomial division")
    return quot


# ---------------------------------------------------------------------------
# Closed forms


def _turan_product(n: int, N: Fraction) -> Fraction:
    """The product of turan_closed_rhp as prod_j 2 j! (2N)_{j-1} /
    ((N+1/2)_{j-1} (N+1/2)_j), so its removable zero at N = 1/2 never divides."""
    value = Fraction(1)
    half = N + Fraction(1, 2)
    for j in range(1, n + 1):
        upper = nonvanishing(pochhammer(half, j), f"(N+1/2)_{j}", N)
        value *= 2 * factorial(j) * pochhammer(2 * N, j - 1) / (pochhammer(half, j - 1) * upper)
    return value


def turan_closed_rhp(n: int, N: RationalLike) -> Fraction:
    """Closed-form constant of the monic relativistic Hankel determinant:
    (-1)^(n(n+1)/2) / 2^(n(n+1)) * prod_j j! (2N-1)_j / ((N-1/2)_j (N+1/2)_j)."""
    N = as_param(N)
    sign = Fraction((-1) ** ((n * (n + 1) // 2) % 2))
    return sign * _turan_product(n, N) / Fraction(2) ** (n * (n + 1))


def turan_closed_gegenbauer(n: int, N: RationalLike) -> Poly:
    """Closed form of the normalized Gegenbauer Hankel determinant:
    ((X^2-1)/4)^(n(n+1)/2) times the same product constant."""
    N = as_param(N)
    base = Poly((Fraction(-1, 4), Fraction(0), Fraction(1, 4)))
    return base ** (n * (n + 1) // 2) * _turan_product(n, N)


def turan_sides(family: Family, n: int, N: RationalLike) -> Tuple[Poly, Poly]:
    """The determinant of the (n+1) x (n+1) Hankel matrix of the
    moment-normalized members, and its closed form: the constant
    turan_closed_rhp for the relativistic family, the polynomial
    turan_closed_gegenbauer for the Gegenbauer family."""
    if family not in (Family.RHP, Family.GEGENBAUER):
        raise ValueError("Turan closed forms cover the rhp and gegenbauer families")
    N = as_param(N)
    det = poly_determinant(hankel(family, n, N))
    if family is Family.RHP:
        return det, Poly.constant(turan_closed_rhp(n, N))
    return det, turan_closed_gegenbauer(n, N)


# ---------------------------------------------------------------------------
# Wilks expansion


WILKS_MAX_N = 3  # squared-Vandermonde expansion size grows super-exponentially


@functools.lru_cache(maxsize=WILKS_MAX_N + 1)
def vandermonde_squared(nvars: int) -> MultiPoly:
    """prod_{0 <= j < k < nvars} (Z_j - Z_k)^2, expanded.  Memoized by
    its size alone, which the Wilks cap bounds, so the cache holds at
    most one expansion per size and no parameter."""
    result = MultiPoly.constant(1, nvars)
    for j in range(nvars):
        for k in range(j + 1, nvars):
            diff = MultiPoly.variable(j, nvars) - MultiPoly.variable(k, nvars)
            result = result * diff * diff
    return result


def wilks_expectation(n: int, mom: MomentSequence) -> Tuple[Fraction, Fraction]:
    """E prod_{j<k} (Z_j - Z_k)^2 over n+1 i.i.d. variables, divided by
    (n+1)!, returned both unsigned (the Hankel determinant of the raw
    moments) and with the sign (-1)^(n(n+1)/2) (the Hankel determinant
    of the moment-normalized polynomial family E(X+iZ)^m)."""
    if n > WILKS_MAX_N:
        raise DomainError(f"Wilks expansion capped at n={WILKS_MAX_N}")
    expanded = vandermonde_squared(n + 1)
    unsigned = multipoly_expectation(expanded, mom) / factorial(n + 1)
    signed = unsigned * Fraction((-1) ** ((n * (n + 1) // 2) % 2))
    return unsigned, signed


def moment_hankel_det(mom: MomentSequence, n: int) -> Fraction:
    """det[m_{i+j}] for i, j = 0..n, through the same fraction-free
    elimination specialized to constant polynomials."""
    rows = [[Poly.constant(mom(i + j)) for j in range(n + 1)] for i in range(n + 1)]
    det = poly_determinant(rows)
    return det.coeff(0)


# ---------------------------------------------------------------------------
# Sides of the turan-rhp and wilks rows


def turan_rhp_sides(n: int, N: RationalLike) -> Tuple[Poly, Poly, str]:
    """Determinant of the monic relativistic Hankel matrix against its
    closed-form constant, as polynomials, with the determinant's degree
    in the notes: a determinant of positive degree leaves that part in
    the witness and fails."""
    det, closed = turan_sides(Family.RHP, n, N)
    return det, closed, f"determinant degree {det.degree}"


def wilks_studentr_sides(n: int, N: RationalLike) -> Tuple[Poly, Poly]:
    """Signed Wilks expectation over Student-r variables against the
    closed-form relativistic Turan constant: the finite-moment face of
    the Selberg-integral evaluation, without the Selberg integral."""
    _, signed = wilks_expectation(n, MomentSequence.student_r(N))
    return Poly.constant(signed), Poly.constant(turan_closed_rhp(n, N))


def wilks_hankel_sides(n: int, moments: MomentSequence) -> Tuple[Poly, Poly]:
    """Wilks' formula itself: det[m_{i+j}] equals the unsigned expansion."""
    unsigned, _ = wilks_expectation(n, moments)
    return Poly.constant(moment_hankel_det(moments, n)), Poly.constant(unsigned)
