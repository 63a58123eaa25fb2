"""Identity checks.

Every check is a sides function: it constructs both sides of one stated
identity from independent routes, entirely over exact rationals, and
returns (lhs, rhs) or (lhs, rhs, notes).  A grid check that fails
returns the difference at its first mismatch against Poly.zero().
run_guarded builds every row, as CheckResult.from_sides with the row's
name and params from the suite table; the witness is lhs - rhs, and the
row passes exactly when it is identically zero.  A factor that vanishes
at the parameter is reported through numeric.nonvanishing and the row is
skipped.  A member is a polynomial in its parameter, so a derived
parameter (N + l, M = 1/2 - N - n) that vanishes is no pole.

Square roots never reach the arithmetic: identities involving sqrt(N),
sqrt(N+l), sqrt(1/2-N-n) or sqrt(1+X^2) are verified in equivalent
forms where all half powers have been paired analytically beforehand.
Each relativistic side reads the constructed H_n^N or its rescaled form
families.rhp_scaled; the i-rotation X -> -iX sqrt(M) of cnix and
rhp-addition is the rescaling at -M, since sqrt(-M) = i sqrt(M).  Every
other pairing outside the Nagel relation is one call of Poly.paired,
which multiplies the coefficient of X^j in a member of degree n by a
rational weight of the integer (n-j)/2.  The Nagel relation pairs by
Poly.homogenized instead: C_n^N at argument X/sqrt(1+X^2), times
(1+X^2)^(n/2), is C_n^N read as a form of degree n in (X, sqrt(1+X^2)),
so sqrt(1+X^2)^(n-j) becomes (1+X^2)^((n-j)/2).

One rule covers every member outside the support its pairing expects (a
term of the other parity, or for Poly.homogenized a term above degree
n): the pairing raises algebra.SupportError, named for the member by
algebra.naming, and run_guarded fails the row with those terms as the
witness and the message as the note.  No sides function guards by hand.

The addition theorems are multivariate and are proven by exact
evaluation on a tensor grid with more points per variable than that
variable's degree bound; the bound is computed from the constructed
polynomials, not assumed.  They read every constructed coefficient,
above degree n too.  Each check tabulates its per-variable values once
by algebra.horner, and rhp-addition's right side at (x, y) is Horner's
rule in -x over the weighted members at y.  The Hermite summation
theorem carries the product of the first k variables' factors,
truncated at degree n, down the scan as a prefix convolution, so a grid
point costs O(n) products, not one per composition of n.  Both scans run
on Python ints: each side is scaled by one common denominator, computed
once per check from the denominators of the vector, the weights and the
constructed coefficients (numeric.cleared), and the witness of a
mismatch is the int difference over that denominator, the same exact
rational.  The scale-change expansions are summed over ints in the same
way: both sides times a power of the scale's denominator, over one
common denominator of the left member, the weights and the shifted
members, and the witness is their difference divided back.

The series identities (generating functions, Feldheim-Vilenkin and the
Student-r moment identity) return the family side and the closed side
as series truncated at the same order; the series command prints the
same sides.  Every family side is an exponential generating function
sum_m v_m t^m/m!, and both Feldheim closed sides are
exp(a t) j_{N-1/2}(b t).  The relativistic generating function is the
shifted one at k = 0, so its closed side carries the constructed H_0^N
as a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple, Union

from .algebra import Poly, SupportError, TruncSeries, horner, naming
from .families import (
    HALF,
    Family,
    MomentSequence,
    bessel_operator_series,
    gegenbauer_explicit,
    hermite,
    rhp_explicit,
    rhp_normalized,
    rhp_scaled,
)
from .numeric import (
    ConsistencyError,
    DomainError,
    RationalLike,
    as_param,
    binomial,
    cleared,
    factorial,
    nonvanishing,
    paired_gamma_moment,
    pochhammer,
    rational,
    rational_str,
    real_i_power,
)

Side = Union[Poly, TruncSeries]
# (lhs, rhs) or (lhs, rhs, notes): what every check returns
Sides = Union[Tuple[Side, Side], Tuple[Side, Side, str]]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check.

    The verdict is derived, never stored: passed is true exactly when the
    row is not skipped and carries a witness that is identically zero.
    skipped marks a pole-precondition exclusion (neither passed nor
    failed); a row without a witness (an internal inconsistency) fails.
    """

    name: str
    params: dict
    witness: Optional[Side] = None
    notes: str = ""
    skipped: bool = False

    @property
    def passed(self) -> bool:
        return not self.skipped and self.witness is not None and self.witness.is_zero

    @classmethod
    def from_sides(
        cls, name: str, params: dict, lhs: Side, rhs: Side, notes: str = ""
    ) -> CheckResult:
        """The row whose witness is lhs - rhs."""
        return cls(name, params, lhs - rhs, notes)

    def to_json_dict(self) -> dict:
        params = {}
        for key, value in self.params.items():
            if isinstance(value, Fraction):
                params[key] = rational_str(value)
            elif isinstance(value, (tuple, list)):
                params[key] = [rational_str(v) for v in value]
            elif isinstance(value, MomentSequence):
                params[key] = value.descriptor
            else:
                params[key] = value
        witness = None
        if not self.passed and not self.skipped and self.witness is not None:
            witness = self.witness.to_strings()
        return {
            "name": self.name,
            "params": params,
            "passed": self.passed,
            "skipped": self.skipped,
            "witness": witness,
            "notes": self.notes,
        }


def run_guarded(name: str, params: dict, sides: Callable[[], Sides]) -> CheckResult:
    """The row named name with the given params, built from what sides()
    returns.  A pole precondition becomes a skipped row, a member outside
    the support of its pairing a failed row with those terms as the
    witness, and any other internal inconsistency (a construction that
    breaks an exactness invariant) a failed row without one, so none
    aborts a run."""
    try:
        return CheckResult.from_sides(name, params, *sides())
    except DomainError as exc:
        return CheckResult(name, params, skipped=True, notes=f"skipped: {exc}")
    except SupportError as exc:
        return CheckResult(name, params, exc.outside, str(exc))
    except ConsistencyError as exc:
        return CheckResult(name, params, notes=f"inconsistent: {exc}")


# ---------------------------------------------------------------------------
# Nagel-type identities


def nagel_sides(n: int, N: RationalLike) -> Sides:
    """N^(n/2) H_n^N(X sqrt N) = n! sum_k c_{n-2k} X^(n-2k) (1+X^2)^k,
    where the c's are the coefficients of C_n^N.  This is the Gegenbauer
    relation at argument X/sqrt(1+X^2) with the (1+X^2)^(n/2) factor
    absorbed, exact because C_n^N has parity n and degree n.  The right
    side is C_n^N read as a form of degree n in (X, sqrt(1+X^2)), paired
    by Poly.homogenized."""
    N = as_param(N)
    lhs = rhp_scaled(n, N)
    geg = gegenbauer_explicit(n, N)
    with naming(f"C_{n}^N"):
        return lhs, geg.homogenized(n, Poly((1, 0, 1))) * factorial(n)


def _m_member(k: int, M: Fraction) -> Poly:
    """(-M)^(k/2) H_k^M(X sqrt(-M)), the rescaled member at M with the
    coefficient of X^(k-2h) times (-1)^(k-h); a term outside its support
    is reported with M named."""
    with naming(f"M={rational_str(M)}; H_{k}^M"):
        return rhp_scaled(k, M).paired(k, lambda h: (-1) ** (k - h))


def cnix_sides(n: int, N: RationalLike) -> Sides:
    """C_n^N(X) = alpha_n^N H_n^M(-iX sqrt M) with M = 1/2 - N - n and
    alpha_n^N = (-2i)^n M^(n/2) (N)_n / ((2N+n)_n n!).

    The i-rotation at M is the rescaling at -M: with sqrt(-M) =
    i sqrt(M) and H_n^M of parity n,
    (-2i)^n M^(n/2) H_n^M(-iX sqrt M) = 2^n (-M)^(n/2) H_n^M(X sqrt(-M)),
    which _m_member builds from the rescaled member at M.  The right side
    is that times 2^n (N)_n / ((2N+n)_n n!) = (N)_c / (n! (N+f+1/2)_c),
    f = n//2 and c = n-f by Legendre duplication, whose one pole is a zero
    of (N+f+1/2)_c.  Every coefficient of H_n^M is carried over, above degree n too."""
    N = as_param(N)
    M = HALF - N - n
    lhs = gegenbauer_explicit(n, N)
    rotated = _m_member(n, M)
    f, c = n // 2, n - n // 2
    denom = nonvanishing(pochhammer(N + f + HALF, c), f"(N+{rational_str(f + HALF)})_{c}", N)
    alpha = pochhammer(N, c) / (factorial(n) * denom)
    return lhs, rotated * alpha, f"M={rational_str(M)}"


# ---------------------------------------------------------------------------
# Subordination


def subordination_gegenbauer_sides(n: int, N: RationalLike) -> Sides:
    """C_n^N = ((N)_{n/2}/n!) E_b H_n(X sqrt b) with b ~ Gamma(N + n/2).

    Per coefficient, the half-integer product (N)_{n/2} E b^(j/2), j of
    the parity of n, is the plain Pochhammer (N)_{(n+j)/2}
    (numeric.paired_gamma_moment).  Every coefficient of H_n is carried
    over, above degree n too.
    """
    N = as_param(N)
    lhs = gegenbauer_explicit(n, N)
    herm = hermite(n)
    with naming(f"H_{n}"):
        return lhs, herm.paired(n, lambda h: paired_gamma_moment(N, n, n - 2 * h) / factorial(n))


def subordination_hermite_sides(n: int, N: RationalLike) -> Sides:
    """H_n = (N^(n/2)/(N)_{n/2}) E_c H_n^N(X sqrt N / sqrt c) with
    c ~ Gamma(N + (n+1)/2).

    The right side is built from the constructed H_n^N: read as the
    monic member N^(n/2) H_n^N(X sqrt N) / (2N)_n, whose coefficient of
    X^(n-2h) is then paired with (2N)_n / (N)_{n/2} * E c^(h-n/2).  By
    the Legendre duplication (2N)_n = 2^n (N)_{n/2} (N+1/2)_{n/2} of
    Gamma ratios, that weight is the plain Pochhammer 2^n (N+1/2)_h.  A
    term above degree n (h < 0) takes 1/(N+1/2+h)_{-h}.  Every
    coefficient of H_n^N is carried over, above degree n too.
    """
    N = as_param(N)

    def weight(h: int) -> Fraction:
        if h >= 0:
            return 2**n * pochhammer(N + HALF, h)
        return 2**n / nonvanishing(pochhammer(N + HALF + h, -h), f"(N{HALF + h})_{-h}", N)

    return hermite(n), rhp_normalized(n, N).paired(n, weight)


# ---------------------------------------------------------------------------
# Derivatives


def derivative_sides(
    family: Union[Family, str], n: int, N: Optional[RationalLike] = None
) -> Sides:
    """d/dX of a family member against its stated lowering identity:
    H_n' = 2n H_{n-1};  (H_n^N)' = n(2N+n-1)/N H_{n-1}^N;
    (C_n^N)' = 2N C_{n-1}^{N+1}.  family is a Family or its value."""
    family = Family(family)
    if n < 1:
        raise ValueError("derivative check needs n >= 1")
    if family is Family.HERMITE:
        return hermite(n).derivative(), (2 * n) * hermite(n - 1)
    N = as_param(N)
    if family is Family.RHP:
        lhs = rhp_explicit(n, N).derivative()
        return lhs, (Fraction(n) * (2 * N + n - 1) / N) * rhp_explicit(n - 1, N)
    return gegenbauer_explicit(n, N).derivative(), (2 * N) * gegenbauer_explicit(n - 1, N + 1)


# ---------------------------------------------------------------------------
# Addition theorems


def hermite_addition_sides(n: int, a: Sequence[RationalLike]) -> Sides:
    """(sum a_k^2)^(n/2)/n! H_n(sum a_k X_k / sqrt(sum a_k^2)) =
    sum over compositions m of n of prod a_k^{m_k} H_{m_k}(X_k)/m_k!.

    The half powers of S = sum a_k^2 pair with the parity of H_n, so the
    left side is the polynomial L(y) = sum_j c_j S^((n-j)/2) y^j / n! at
    y = sum a_k X_k, folded once from every coefficient c_j of H_n.  The
    right side is the t^n coefficient of prod_k P_k(t),
    P_k(t) = sum_m a_k^m H_m(X_k)/m! t^m.

    Both sides are evaluated exactly on the integer grid {0..d}^r, d the
    largest degree of H_0..H_n (n unless a member is perturbed), scanned
    in itertools.product order, over ints.  With D the common
    denominator of a, A_k = D a_k and E that of the coefficients of
    H_0..H_n, the ints E A_k^m H_m(x) are tabulated once; the scan
    carries the product of the first k factors, truncated at t^n, down
    to the last variable as a binomial convolution, which turns the
    1/m! into multinomials, and forms only its t^n coefficient there:
    the right side times n! D^n E^r.  The left side is L(Y/D) at
    Y = sum A_k X_k, its coefficients scaled by the same factor and
    cleared of any denominator K that a term above degree n leaves.
    The sides are the difference at the first mismatch against zero,
    divided back by K n! D^n E^r, or both zero.
    """
    a = tuple(rational(v) for v in a)
    if not a or all(v == 0 for v in a):
        raise DomainError("the coefficient vector must be nonzero")
    r = len(a)
    members = [hermite(m) for m in range(n + 1)]
    s = sum(v * v for v in a)
    with naming(f"H_{n}"):
        left = members[n].paired(n, lambda h: s**h / factorial(n))
    degree_bound = max([0] + [h.degree for h in members])
    grid = range(degree_bound + 1)
    (scaled_a,), D = cleared([a])
    herm, E = cleared(h.coeffs for h in members)
    scale = factorial(n) * D**n * E**r
    (left_ints,), K = cleared([[c * scale / D**j for j, c in enumerate(left.coeffs)]])
    # tables[k][x][m] = E A_k^m H_m(x)
    values = [[horner(h, x) for h in herm] for x in grid]
    tables = [[[ak**m * v for m, v in enumerate(row)] for row in values] for ak in scaled_a]
    binomials = [[binomial(d, i) for i in range(d + 1)] for d in range(n + 1)]

    def scan(k: int, prefix: list, y: int, point: tuple):
        last = k == r - 1
        for x, row in zip(grid, tables[k]):
            yx = y + scaled_a[k] * x
            if last:
                rhs = K * sum(b * prefix[n - m] * row[m] for m, b in enumerate(binomials[n]))
                lhs = horner(left_ints, yx)
                if lhs != rhs:
                    return f"X={point + (x,)}", Fraction(lhs - rhs, K * scale)
                continue
            conv = [
                sum(b * prefix[i] * row[d - i] for i, b in enumerate(bs))
                for d, bs in enumerate(binomials)
            ]
            found = scan(k + 1, conv, yx, point + (x,))
            if found:
                return found
        return None

    first_bad = scan(0, [1] + [0] * n, 0, ())
    notes = f"grid {len(grid)}^{r} points, per-variable degree <= {degree_bound}"
    if first_bad is None:
        return Poly.zero(), Poly.zero(), notes
    where, diff = first_bad
    return Poly.constant(diff), Poly.zero(), f"{notes}; first mismatch at {where}"


def rhp_addition_sides(n: int, N: RationalLike) -> Sides:
    """Bivariate addition law for the relativistic family in the fully
    rational form

        U_n(X+Y) = sum_k C(n,k) (-X)^(n-k) (2N+n)_{n-k} U_k(Y),

    with U_k the i-rotated rescaled member at parameter M = 1/2 - N - n,
    which is the rescaling at -M times (-1)^k, built from every
    coefficient of H_k^M.

    Verified by exact evaluation on the integer grid {0..d}^2, d =
    max(n, deg U_k), which exceeds both per-variable degree bounds,
    scanned x outermost, over ints: U_n and the weighted members
    C(n,k) (2N+n)_{n-k} U_k are taken over one common denominator Q.
    U_n(t) for t = x + y and the weighted U_k(y) on the grid are
    tabulated once, and the right side at (x, y) is horner of those
    values at -x, n+1 Horner steps.  The sides are the difference at
    the first mismatch against zero, divided back by Q, or both zero.
    """
    N = as_param(N)
    M = HALF - N - n
    u = [_m_member(k, M) * (-1) ** k for k in range(n + 1)]

    degree_bound = max([n] + [p.degree for p in u])
    grid = range(degree_bound + 1)
    weighted = [binomial(n, k) * pochhammer(2 * N + n, n - k) * p for k, p in enumerate(u)]
    (lhs_ints, *terms), Q = cleared([u[n].coeffs] + [p.coeffs for p in weighted])
    lhs_at = [horner(lhs_ints, t) for t in range(2 * degree_bound + 1)]
    # terms_at[y][j] = Q C(n,j) (2N+n)_j U_{n-j}(y), the coefficient of (-x)^j
    terms_at = [[horner(p, y) for p in reversed(terms)] for y in grid]
    notes = (
        f"M={rational_str(M)}; grid {len(grid)}x{len(grid)}, "
        f"per-variable degree <= {degree_bound}"
    )
    for x in grid:
        for y in grid:
            rhs = horner(terms_at[y], -x)
            if lhs_at[x + y] != rhs:
                diff = Poly.constant(Fraction(lhs_at[x + y] - rhs, Q))
                return diff, Poly.zero(), f"{notes}; first mismatch at {(x, y)}"
    return Poly.zero(), Poly.zero(), notes


# ---------------------------------------------------------------------------
# Scaling identities


def scaling_sides(
    family: Union[Family, str], n: int, c: RationalLike, N: Optional[RationalLike] = None
) -> Sides:
    """Scale-change expansions:
    H_n(cX) = sum_l (-1)^l n!/((n-2l)! l!) (1-c^2)^l c^(n-2l) H_{n-2l}(X);
    C_n^N(cX) = sum_l (-1)^l (N)_l / l! (1-c^2)^l c^(n-2l) C_{n-2l}^{N+l}(X);
    and for the relativistic family the rescaled form
    N^(n/2) H_n^N(cX sqrt N) =
      sum_l (-1)^l n!/((n-2l)! l!) (N)_l (1-c^2)^l c^(n-2l)
            (N+l)^((n-2l)/2) H_{n-2l}^{N+l}(X sqrt(N+l)).
    family is a Family or its value; the Hermite family takes no N.

    Both sides are summed over ints, times q^top with c = p/q and top
    the larger of n and the degree of the left member (above n when a
    term is added there): the left side's c^j becomes p^j q^(top-j), and
    the l-th weight's (1-c^2)^l c^(n-2l) becomes
    (q^2-p^2)^l p^(n-2l) q^(top-n).  Each signed factor, (-1)^l times
    the weight's rational coefficient, is the one before times its term
    ratio.  The left member, the factors and the members at N+l share
    one common denominator d (numeric.cleared), so both sides are taken
    times d^2 q^top; the sides are their difference divided back by
    that, against zero.
    """
    family = Family(family)
    c = rational(c)
    # member(m, l) is the m-th member at the l-th shifted parameter;
    # ratio(l) is the l-th signed factor over the (l-1)-th
    if family is Family.HERMITE:
        member = lambda m, l: hermite(m)
        ratio = lambda l: Fraction(-(n - 2 * l + 2) * (n - 2 * l + 1), l)
    else:
        N = as_param(N)
        if family is Family.GEGENBAUER:
            member = lambda m, l: gegenbauer_explicit(m, N + l)
            ratio = lambda l: (1 - l - N) / l
        else:
            member = lambda m, l: rhp_scaled(m, N + l)
            ratio = lambda l: (1 - l - N) * Fraction((n - 2 * l + 2) * (n - 2 * l + 1), l)
    left = member(n, 0)
    members = [left] + [member(n - 2 * l, l) for l in range(1, n // 2 + 1)]
    factors = [Fraction(1)]
    for l in range(1, len(members)):
        factors.append(factors[-1] * ratio(l))
    p, q = c.numerator, c.denominator
    top = max(n, left.degree)
    (left_ints, factor_ints, *member_ints), d = cleared(
        [left.coeffs, factors] + [m.coeffs for m in members]
    )
    diff = [d * v * p**j * q ** (top - j) for j, v in enumerate(left_ints)]
    diff += [0] * (max(len(m) for m in member_ints) - len(diff))
    square = q * q - p * p
    for l, (f, ints) in enumerate(zip(factor_ints, member_ints)):
        weight = f * square**l * p ** (n - 2 * l) * q ** (top - n)
        for j, v in enumerate(ints):
            diff[j] -= weight * v
    scale = d * d * q**top
    return Poly([Fraction(v, scale) for v in diff]), Poly.zero()


# ---------------------------------------------------------------------------
# Generating functions


def _egf(term: Callable[[int], Fraction], order: int) -> TruncSeries:
    """sum_m term(m) t^m/m!, truncated at the given order."""
    return TruncSeries([term(m) / factorial(m) for m in range(order + 1)], order)


def _exp_bessel(a: Fraction, b: Fraction, N: Fraction, order: int) -> TruncSeries:
    """exp(a t) j_{N-1/2}(b t), with j the normalized Bessel series of the
    operator route (bessel_operator_series)."""
    c = bessel_operator_series(N - HALF).coeff
    bessel = TruncSeries([c(k) * b**k for k in range(order + 1)], order)
    return TruncSeries.from_poly(Poly((0, a)), order).exp() * bessel


def shifted_genfunc_sides(
    N: RationalLike, k: int, x: RationalLike, order: int
) -> Tuple[TruncSeries, TruncSeries]:
    """Family side sum_n H_{n+k}^N(X) t^n/n! and closed side
    phi^(1+k/N) H_k^N(X - (1+X^2/N) t) at a rational point X, with
    phi = base^(-N) the relativistic generating function and
    base = (1 - tX/N)^2 + t^2/N; the composed member is a polynomial in
    t."""
    N = as_param(N)
    x = rational(x)
    if k < 0:
        raise ValueError("shift must be nonnegative")
    # phi^(1+k/N) is base^(-N-k): the base's constant term is 1, so one
    # power gives the same truncated series.
    base = TruncSeries.from_poly(Poly((Fraction(1), -2 * x / N, x * x / (N * N) + 1 / N)), order)
    shifted_member = rhp_explicit(k, N).compose_linear(-(1 + x * x / N), x)
    closed = base.pow_fraction(-N - k) * TruncSeries.from_poly(shifted_member, order)
    family = _egf(lambda m: rhp_explicit(m + k, N).evaluate(x), order)
    return family, closed


def genfunc_rhp_sides(
    N: RationalLike, x: RationalLike, order: int
) -> Tuple[TruncSeries, TruncSeries]:
    """Family side sum_n H_n^N(X) t^n/n! and closed side
    ((1 - tX/N)^2 + t^2/N)^(-N) H_0^N(X - (1+X^2/N) t): the shifted
    generating function at k = 0, so that H_0^N enters as a polynomial,
    not as its value at X."""
    return shifted_genfunc_sides(N, 0, x, order)


def moment_3665_sides(
    N: RationalLike, a: RationalLike, order: int
) -> Tuple[TruncSeries, TruncSeries]:
    """E (a - ibZ)^(-2N) = (a^2 + b^2)^(-N) over the Student-r law, as a
    series identity in b with the common a^(-2N) factor cancelled:
    sum_m (2N)_m/m! (i/a)^m E Z^m b^m = (1 + b^2/a^2)^(-N)."""
    N = as_param(N)
    a = rational(a)
    if a == 0:
        raise DomainError("a must be nonzero")
    mom = MomentSequence.student_r(N)
    lhs = _egf(lambda m: real_i_power(m, pochhammer(2 * N, m) / a**m * mom(m)), order)
    rhs = TruncSeries.from_poly(Poly((1, 0, 1 / (a * a))), order).pow_fraction(-N)
    return lhs, rhs


def feldheim_sides(
    N: RationalLike, cos: RationalLike, sin: RationalLike, order: int
) -> Tuple[TruncSeries, TruncSeries]:
    """Family side sum_n [C_n^N(cos)/C_n^N(1)] r^n/n! and closed side
    exp(r cos) j_{N-1/2}(r sin) at a rational point on the unit circle."""
    N = as_param(N)
    cos, sin = rational(cos), rational(sin)
    if cos * cos + sin * sin != 1:
        raise DomainError("(cos, sin) must satisfy cos^2 + sin^2 = 1")

    def term(m: int) -> Fraction:
        geg = gegenbauer_explicit(m, N)
        return geg.evaluate(cos) / nonvanishing(geg.evaluate(Fraction(1)), f"C_{m}^N(1)", N)

    return _egf(term, order), _exp_bessel(cos, sin, N, order)


def feldheim_rhp_sides(
    N: RationalLike, x: RationalLike, order: int
) -> Tuple[TruncSeries, TruncSeries]:
    """Family side sum_n curlyH_n^N(X) r^n/n! over the monic rescaled
    relativistic members and closed side exp(rX) j_{N-1/2}(r)."""
    N = as_param(N)
    x = rational(x)
    family = _egf(lambda m: rhp_normalized(m, N).evaluate(x), order)
    return family, _exp_bessel(x, Fraction(1), N, order)
