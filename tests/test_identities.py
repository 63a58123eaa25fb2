from dataclasses import dataclass
from fractions import Fraction
from fractions import Fraction as F
from functools import cached_property

import pytest

from relhermite import identities
from relhermite.algebra import Poly, SupportError, TruncSeries
from relhermite.families import (
    HALF,
    Family,
    gegenbauer_explicit,
    hermite,
    perturbed,
    rhp_explicit,
    rhp_raw_to_scaled,
    rhp_scaled,
)
from relhermite.identities import (
    CheckResult,
    cnix_sides,
    derivative_sides,
    feldheim_rhp_sides,
    feldheim_sides,
    genfunc_rhp_sides,
    hermite_addition_sides,
    moment_3665_sides,
    nagel_sides,
    rhp_addition_sides,
    run_guarded,
    scaling_sides,
    shifted_genfunc_sides,
    subordination_gegenbauer_sides,
    subordination_hermite_sides,
)
from relhermite.numeric import (
    ConsistencyError,
    DomainError,
    GammaRatio,
    as_param,
    factorial,
    gamma_ratio_rational_value,
    paired_gamma_moment,
    pochhammer,
    rational,
)

TEST_PARAMS = [F(2), F(3), F(10), F(7, 2), F(1, 3)]


def row(sides, *args, **kwargs) -> CheckResult:
    """The row run_guarded builds from one sides call: a SupportError is
    the failed row with its terms as the witness, any other error is
    raised."""
    try:
        return CheckResult.from_sides("", {}, *sides(*args, **kwargs))
    except SupportError as exc:
        return CheckResult("", {}, exc.outside, str(exc))


# ---------------------------------------------------------------------------
# Nagel


def test_nagel_spec_examples():
    r = row(nagel_sides, 2, F(3))
    assert r.passed
    # both sides equal (2N)_2 (X^2 - 1/7) = 42 X^2 - 6
    assert rhp_scaled(2, F(3)) == Poly((-6, 0, 42))
    assert row(nagel_sides, 0, F(7, 2)).passed
    assert row(nagel_sides, 5, F(7, 2)).passed


@pytest.mark.parametrize("N", TEST_PARAMS)
def test_nagel_sweep(N):
    for n in range(9):
        assert row(nagel_sides, n, N).passed


# ---------------------------------------------------------------------------
# Gegenbauer through the negative-parameter relativistic member


def test_alpha_pairing_is_rational():
    alpha = AlphaCoefficient(3, F(2))
    for k in range(2):
        value = alpha.pair(k)
        assert isinstance(value, F)


def test_cnix_examples():
    assert row(cnix_sides, 1, F(2)).passed
    assert row(cnix_sides, 0, F(1, 3)).passed
    r = row(cnix_sides, 4, F(2))  # M = -11/2; (M+1/2)_k nonzero for k <= 2
    assert r.passed and "M=-11/2" in r.notes


@pytest.mark.parametrize("N", TEST_PARAMS)
def test_cnix_sweep(N):
    for n in range(9):
        assert row(cnix_sides, n, N).passed


# ---------------------------------------------------------------------------
# Subordination


def test_subordination_examples():
    assert row(subordination_gegenbauer_sides, 2, F(1)).passed
    assert row(subordination_gegenbauer_sides, 0, F(7, 2)).passed
    assert row(subordination_gegenbauer_sides, 5, F(3, 2)).passed  # odd-n half-integer path
    assert row(subordination_hermite_sides, 1, F(2)).passed
    assert row(subordination_hermite_sides, 0, F(3)).passed
    assert row(subordination_hermite_sides, 4, F(5, 2)).passed


@pytest.mark.parametrize("N", TEST_PARAMS)
def test_subordination_sweep(N):
    for n in range(9):
        assert row(subordination_gegenbauer_sides, n, N).passed
        assert row(subordination_hermite_sides, n, N).passed


# ---------------------------------------------------------------------------
# Derivatives


def test_derivative_examples():
    r = row(derivative_sides, Family.RHP, 3, F(2))
    assert r.passed
    assert row(derivative_sides, Family.HERMITE, 1).passed
    assert row(derivative_sides, Family.GEGENBAUER, 2, F(7, 2)).passed


@pytest.mark.parametrize("N", TEST_PARAMS)
def test_derivative_sweep(N):
    for n in range(1, 9):
        assert row(derivative_sides, Family.HERMITE, n).passed
        assert row(derivative_sides, Family.GEGENBAUER, n, N).passed
        assert row(derivative_sides, Family.RHP, n, N).passed


# ---------------------------------------------------------------------------
# Addition theorems


def test_hermite_addition_examples():
    assert row(hermite_addition_sides, 2, (F(3, 5), F(4, 5))).passed
    assert row(hermite_addition_sides, 4, (F(1),)).passed
    assert row(hermite_addition_sides, 3, (F(1), F(1), F(1))).passed
    with pytest.raises(DomainError):
        row(hermite_addition_sides, 2, (F(0), F(0)))


def test_hermite_addition_grid_audit():
    r = row(hermite_addition_sides, 3, (F(3, 5), F(4, 5)))
    assert "grid 4^2" in r.notes and "degree <= 3" in r.notes


def test_rhp_addition_examples():
    assert row(rhp_addition_sides, 0, F(2)).passed
    assert row(rhp_addition_sides, 1, F(2)).passed
    assert row(rhp_addition_sides, 3, F(3)).passed


@pytest.mark.parametrize("N", TEST_PARAMS)
def test_rhp_addition_sweep(N):
    for n in range(9):
        r = row(rhp_addition_sides, n, N)
        assert r.passed, (n, N, r.notes)


# ---------------------------------------------------------------------------
# Scaling


def test_scaling_examples():
    assert row(scaling_sides, Family.HERMITE, 2, F(1, 2)).passed
    for fam, N in ((Family.HERMITE, None), (Family.GEGENBAUER, F(3)), (Family.RHP, F(3))):
        assert row(scaling_sides, fam, 4, F(1), N).passed  # only l=0 survives
    assert row(scaling_sides, Family.GEGENBAUER, 3, F(2, 3), F(2)).passed


@pytest.mark.parametrize("N", TEST_PARAMS)
@pytest.mark.parametrize("c", [F(1), F(1, 2), F(2, 3)])
def test_scaling_sweep(N, c):
    for n in range(9):
        assert row(scaling_sides, Family.HERMITE, n, c).passed
        assert row(scaling_sides, Family.GEGENBAUER, n, c, N).passed
        assert row(scaling_sides, Family.RHP, n, c, N).passed


def fraction_scaling_sides(family, n, c, N=None):
    """scaling_sides as it was before it summed over ints: both sides
    over Fractions, the left by compose_linear, each factor by a fresh
    pochhammer."""
    family = Family(family)
    c = rational(c)
    # member(m, l) is the m-th member at the l-th shifted parameter;
    # factor(l) is the l-th weight without its (-1)^l (1-c^2)^l c^(n-2l)
    if family is Family.HERMITE:
        member = lambda m, l: hermite(m)
        factor = lambda l: Fraction(factorial(n), factorial(n - 2 * l) * factorial(l))
    else:
        N = as_param(N)
        if family is Family.GEGENBAUER:
            member = lambda m, l: gegenbauer_explicit(m, N + l)
            factor = lambda l: pochhammer(N, l) / factorial(l)
        else:
            member = lambda m, l: rhp_scaled(m, N + l)
            factor = lambda l: pochhammer(N, l) * factorial(n) / (
                factorial(n - 2 * l) * factorial(l)
            )
    lhs = member(n, 0).compose_linear(c, 0)
    rhs = Poly.zero()
    for l in range(n // 2 + 1):
        weight = (-1 if l % 2 else 1) * factor(l) * (1 - c * c) ** l * c ** (n - 2 * l)
        rhs = rhs + weight * member(n - 2 * l, l)
    return lhs, rhs


def _scaling_outcome(sides, *args):
    """lhs - rhs of one scaling call, or the type, message and terms of
    what it raises."""
    try:
        lhs, rhs = sides(*args)
        return lhs - rhs
    except (SupportError, DomainError, ConsistencyError) as exc:
        return type(exc), str(exc), getattr(exc, "outside", None)


SCALING_POINTS = [F(0), F(1), F(-1), F(1, 2), F(2, 3), F(-3, 4), F(5), F(7, 3)]
SCALING_PARAMS = [F(2), F(7, 2), F(1, 3), F(-3, 2), F(-1), F(-2), F(1, 2)]


# a term above degree n (gegenbauer:4:6), a rational same-parity bump,
# one that changes H_3^N, and a wrong-parity term (SupportError)
@pytest.mark.parametrize(
    "spec", ["none", "gegenbauer:4:6:1/7", "hermite:5:3:1/7", "rhp:3:1:1", "rhp:2:1:1/2"]
)
def test_integer_scaling_matches_fraction_scaling(spec):
    def compare():
        outcomes = []
        for n in range(9):
            for c in SCALING_POINTS:
                cases = [(Family.HERMITE, n, c)] + [
                    (fam, n, c, N) for fam in (Family.GEGENBAUER, Family.RHP) for N in SCALING_PARAMS
                ]
                for args in cases:
                    want = _scaling_outcome(fraction_scaling_sides, *args)
                    assert _scaling_outcome(scaling_sides, *args) == want, args
                    outcomes.append(want)
        return outcomes

    if spec == "none":
        assert all(o.is_zero for o in compare())
    else:
        kind, n, index, delta = spec.split(":")
        with perturbed(kind, int(n), int(index), Fraction(delta)):
            outcomes = compare()
        assert any(o[0] is SupportError if isinstance(o, tuple) else o for o in outcomes)


# ---------------------------------------------------------------------------
# Generating functions


def test_genfunc_rhp_example():
    r = row(genfunc_rhp_sides, N=F(2), x=F(0), order=4)
    assert r.passed
    # the closed side at X=0 is (1+t^2/2)^(-2) = 1 - t^2 + 3t^4/4
    base = TruncSeries((1, 0, F(1, 2)), 4)
    assert base.pow_fraction(-2).coeffs == (F(1), F(0), F(-1), F(0), F(3, 4))
    assert row(genfunc_rhp_sides, N=F(2), x=F(0), order=0).passed
    assert row(genfunc_rhp_sides, N=F(3), x=F(1, 2), order=8).passed


def test_genfunc_rhp_closed_side_carries_the_constructed_h0():
    # H_0^N = 1 + X: its value at X = 0 is still 1, but the closed side
    # composes the whole member with X - (1+X^2/N) t
    with perturbed("rhp", 0, 1, 1):
        r = row(genfunc_rhp_sides, N=F(2), x=F(0), order=6)
    assert not r.passed and not r.witness.is_zero


def test_moment_3665_examples():
    assert row(moment_3665_sides, N=F(1), a=F(1), order=4).passed
    assert row(moment_3665_sides, N=F(2), a=F(1), order=0).passed
    assert row(moment_3665_sides, N=F(5, 2), a=F(1), order=6).passed
    # general rational a
    assert row(moment_3665_sides, N=F(2), a=F(2, 3), order=6).passed
    with pytest.raises(DomainError):
        row(moment_3665_sides, N=F(2), a=F(0), order=4)


def test_feldheim_examples():
    # degenerate point: e^r
    assert row(feldheim_sides, N=F(2), cos=F(1), sin=F(0), order=5).passed
    assert row(feldheim_sides, N=F(2), cos=F(3, 5), sin=F(4, 5), order=6).passed
    assert row(feldheim_sides, N=F(2), cos=F(3, 5), sin=F(4, 5), order=0).passed
    with pytest.raises(DomainError):
        row(feldheim_sides, N=F(2), cos=F(1, 2), sin=F(1, 2), order=4)


def test_feldheim_rhp_examples():
    assert row(feldheim_rhp_sides, N=F(1), x=F(0), order=2).passed
    assert row(feldheim_rhp_sides, N=F(1), x=F(0), order=0).passed
    assert row(feldheim_rhp_sides, N=F(7, 2), x=F(2, 3), order=8).passed


def test_shifted_genfunc_examples():
    # k=0 degenerates
    assert row(shifted_genfunc_sides, N=F(2), k=0, x=F(1, 2), order=6).passed
    assert row(shifted_genfunc_sides, N=F(2), k=1, x=F(0), order=5).passed
    assert row(shifted_genfunc_sides, N=F(3), k=2, x=F(1, 2), order=6).passed


def reference_genfunc_base(N, x, order):
    """(1 - tX/N)^2 + t^2/N as a series in t at concrete X."""
    return TruncSeries.from_poly(Poly((1, -2 * x / N, x * x / (N * N) + 1 / N)), order)


def reference_shifted_closed(N, k, x, order):
    """The closed side as phi^(1+k/N) with phi = base^(-N) taken first."""
    power = reference_genfunc_base(N, x, order).pow_fraction(-N).pow_fraction(1 + F(k) / N)
    shifted_member = rhp_explicit(k, N).compose_linear(-(1 + x * x / N), x)
    return power * TruncSeries.from_poly(shifted_member, order)


@pytest.mark.parametrize("N", [F(2), F(7, 2), F(1, 3), F(-1, 3)])
def test_shifted_closed_side_matches_two_step_power(N):
    for x in (F(0), F(1, 2)):
        for k in range(4):
            _, closed = shifted_genfunc_sides(N, k, x, 12)
            assert closed == reference_shifted_closed(N, k, x, 12)
        # genfunc-rhp is the k = 0 case: its closed side is base^(-N)
        _, closed = genfunc_rhp_sides(N, x, 12)
        assert closed == reference_genfunc_base(N, x, 12).pow_fraction(-N)


@pytest.mark.parametrize("N", TEST_PARAMS)
def test_series_sweep(N):
    for x in (F(0), F(1, 2)):
        assert row(genfunc_rhp_sides, N=N, x=x, order=12).passed
        assert row(feldheim_rhp_sides, N=N, x=x, order=12).passed
        for k in range(4):
            assert row(shifted_genfunc_sides, N=N, k=k, x=x, order=12).passed
    assert row(moment_3665_sides, N=N, a=F(1), order=12).passed
    assert row(feldheim_sides, N=N, cos=F(3, 5), sin=F(4, 5), order=12).passed


# ---------------------------------------------------------------------------
# Half-power pairing against the coefficient loops Poly.paired replaced.
# The references are the earlier loops, copied verbatim.


def reference_raw_to_scaled(p, n, N):
    coeffs = [Fraction(0)] * (len(p.coeffs))
    for j, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if (n + j) % 2:
            raise ConsistencyError("parity violation while rescaling")
        coeffs[j] = c * N ** ((n + j) // 2)
    return Poly(coeffs)


def reference_rotated(scaled, k):
    return Poly(-c if (k - j) % 4 else c for j, c in enumerate(scaled.coeffs))


@dataclass(frozen=True)
class AlphaCoefficient:
    """The connection scalar between C_n^N and the relativistic family at
    parameter M = 1/2 - N - n.

    Decomposed as the unit (-2i)^n, the rational (N)_n / ((2N+n)_n n!),
    and the half power M^(n/2), which stays symbolic until each term's
    matching half powers arrive; paired with the term's, they leave the
    real unit (-1)^(n-k) 2^n and the integer power M^(n-k).
    """

    n: int
    N: Fraction

    def __post_init__(self):
        object.__setattr__(self, "N", as_param(self.N))

    @property
    def m_value(self) -> Fraction:
        return HALF - self.N - self.n

    @cached_property
    def rational_part(self) -> Fraction:
        denom = pochhammer(2 * self.N + self.n, self.n)
        if denom == 0:
            raise DomainError(f"(2N+n)_{self.n} vanishes at N={self.N}")
        return pochhammer(self.N, self.n) / (denom * factorial(self.n))

    def pair(self, k: int) -> Fraction:
        """Scalar multiplying the X^(n-2k) coefficient of H_n^M after the
        substitution X -> -iX sqrt(M): combines (-2i)^n with the term's
        (-i)^(n-2k) and M^(n/2) with the term's M^((n-2k)/2)."""
        # (-2i)^n (-i)^(n-2k) = 2^n i^(6(n-k)) and M^(n/2) M^((n-2k)/2) = M^(n-k)
        unit = (-1) ** (self.n - k) * 2**self.n
        return unit * self.rational_part * self.m_value ** (self.n - k)


def reference_cnix_rhs(raw, n, N):
    alpha = AlphaCoefficient(n, N)
    coeffs = [Fraction(0)] * max(n + 1, len(raw.coeffs))
    for j in reversed(range(n % 2, len(coeffs), 2)):
        coeffs[j] = alpha.pair((n - j) // 2) * raw.coeff(j)
    return Poly(coeffs)


def reference_subordination_rhs(herm, n, N):
    half_n = Fraction(n, 2)
    coeffs = [Fraction(0)] * max(n + 1, len(herm.coeffs))
    for j in reversed(range(n % 2, len(coeffs), 2)):
        ratio = GammaRatio.rising(0, half_n) * GammaRatio.rising(half_n, Fraction(j, 2))
        value = gamma_ratio_rational_value(ratio, N)
        coeffs[j] = herm.coeff(j) * value / factorial(n)
    return Poly(coeffs)


def reference_subordination_hermite_rhs(n, N):
    """The right side of the subordination-hermite check as the
    hand-copied coefficient loop, which never constructed H_n^N."""
    N = as_param(N)
    half_n = Fraction(n, 2)
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n // 2 + 1):
        j = n - 2 * k
        pk = pochhammer(N + HALF, k)
        if pk == 0:
            raise DomainError(f"(N+1/2)_{k} vanishes at N={N}")
        ratio = (
            GammaRatio.rising(0, n, slope=2)
            * GammaRatio.rising(0, half_n).reciprocal()
            * GammaRatio.rising(Fraction(n + 1, 2), k - half_n)
        )
        value = gamma_ratio_rational_value(ratio, N)
        coeffs[j] = (
            factorial(n)
            * Fraction((-1) ** k)
            / (Fraction(4) ** k * pk * factorial(j) * factorial(k))
            * value
        )
    return Poly(coeffs)


PAIRING_PARAMS = [F(2), F(10), F(1, 3), F(7, 2), F(1, 2), F(-1), F(-3, 2), F(-5, 3), F(-7, 2)]


def _outcome(build):
    """The polynomial, or the error type and message it raised."""
    try:
        return build()
    except (DomainError, ConsistencyError) as exc:
        return type(exc), str(exc)


def _gamma_defined(outcome) -> bool:
    """False where the Gamma normal form of a reference ran Gamma through
    a nonpositive integer: the Pochhammer it stands for is defined there
    (zero, or a pole of its own that the check names)."""
    return not (isinstance(outcome, tuple) and outcome[1].startswith("Gamma cancellation"))


def _members(build, n):
    """A member and two variants with terms above degree n of its parity,
    which the pairing carries at a negative half exponent."""
    try:
        p = build()
    except DomainError:
        return []
    return [p, p + Poly.monomial(n + 2, F(3, 7)), p + Poly.monomial(n + 4, -2)]


def _cnix_rhs(monkeypatch, raw, n, N):
    """The right side cnix_sides builds when the member H_n^M is raw, read
    through its rescaled form at M."""
    with monkeypatch.context() as patch:
        patch.setattr(identities, "rhp_scaled", lambda k, M: rhp_raw_to_scaled(raw, k, M))
        return gegenbauer_explicit(n, N) - row(cnix_sides, n, N).witness


@pytest.mark.parametrize("N", PAIRING_PARAMS)
def test_paired_matches_the_rescaling_and_rotation_loops(N):
    for n in range(13):
        for raw in _members(lambda: rhp_explicit(n, N), n) + [Poly.zero()]:
            scaled = raw.paired(n, lambda h: N ** (n - h))
            assert scaled == reference_raw_to_scaled(raw, n, N) == rhp_raw_to_scaled(raw, n, N)
            # U_k of rhp_addition_sides: the i-rotation at N is the
            # rescaling at -N, up to the unit (-1)^k
            rotated = rhp_raw_to_scaled(raw, n, -N) * (-1) ** n
            assert rotated == raw.paired(n, lambda h: N ** (n - h) * (-1 if h % 2 else 1))
            assert rotated == reference_rotated(reference_raw_to_scaled(raw, n, N), n)


@pytest.mark.parametrize("N", PAIRING_PARAMS)
def test_paired_matches_the_cnix_and_subordination_loops(N, monkeypatch):
    for n in range(13):
        M = F(1, 2) - N - n
        if M != 0:
            for raw in _members(lambda: rhp_explicit(n, M), n) + [Poly.zero()]:
                new = _outcome(lambda: _cnix_rhs(monkeypatch, raw, n, N))
                if pochhammer(2 * N + n, n):
                    assert new == _outcome(lambda: reference_cnix_rhs(raw, n, N))
                else:  # the reference divides by (2N+n)_n = 0; the check
                    # divides by (N+n//2+1/2)_{n-n//2} alone, its true pole
                    if pochhammer(N + n // 2 + HALF, n - n // 2):
                        assert isinstance(new, Poly)
                    else:
                        assert new[0] is DomainError
        for herm in _members(lambda: hermite(n), n):
            new = _outcome(
                lambda: herm.paired(n, lambda h: paired_gamma_moment(N, n, n - 2 * h) / factorial(n))
            )
            want = _outcome(lambda: reference_subordination_rhs(herm, n, N))
            if _gamma_defined(want):
                assert new == want
            else:
                assert isinstance(new, Poly)  # the Pochhammer (N)_{n-h} is 0 there


@pytest.mark.parametrize("N", PAIRING_PARAMS)
def test_subordination_hermite_matches_the_coefficient_loop(N):
    for n in range(13):
        if pochhammer(2 * N, n) == 0:
            continue  # a pole, where the loop passed on a zero H_n^N
        new = _outcome(lambda: hermite(n) - row(subordination_hermite_sides, n, N).witness)
        assert new == _outcome(lambda: reference_subordination_hermite_rhs(n, N))


def reference_nagel_sides(n, N):
    N = as_param(N)
    lhs = rhp_scaled(n, N)
    geg = gegenbauer_explicit(n, N)
    if geg.off_parity(n):
        return geg.off_parity(n), Poly.zero(), f"C_{n}^N has terms of the wrong parity"
    if geg.degree > n:
        above = Poly((0,) * (n + 1) + geg.coeffs[n + 1 :])
        return above, Poly.zero(), f"C_{n}^N has terms above degree {n}"
    one_plus_x2 = Poly((1, 0, 1))
    power = Poly.one()  # (1+X^2)^k
    rhs = Poly.zero()
    for k in range(n // 2 + 1):
        if k:
            power = power * one_plus_x2
        j = n - 2 * k
        c = geg.coeff(j)
        if c != 0:
            rhs = rhs + c * Poly((0,) * j + power.coeffs)
    return lhs, rhs * factorial(n)


NAGEL_PARAMS = [F(p) for p in (
    "2", "3", "10", "7/2", "1/3", "1/2", "-1", "-3/2", "-5/3", "-7/2",
    "5/3", "-1/3", "1/5", "9/4", "6",
)]


def _check_outcome(sides, n, N):
    """The row of a sides function (a failed one for a SupportError, as
    run_guarded builds it), or the type of any other error it raised."""
    try:
        return row(sides, n, N)
    except (DomainError, ConsistencyError) as exc:
        return type(exc)


@pytest.mark.parametrize("N", NAGEL_PARAMS)
def test_homogenized_nagel_matches_the_power_loop(N):
    for n in range(16):
        assert _check_outcome(nagel_sides, n, N) == _check_outcome(reference_nagel_sides, n, N)
        # perturbed members: a failing witness, a wrong-parity term and a
        # term above degree n
        for index in (n, n - 1, n + 2):
            if index >= 0:
                with perturbed("gegenbauer", n, index, F(2, 7)):
                    new = _check_outcome(nagel_sides, n, N)
                    assert new == _check_outcome(reference_nagel_sides, n, N)


def test_cnix_skips_on_a_zero_member():
    # H_3^M vanishes at M = -1, yet the connection scalar
    # 2^n (N)_n / ((2N+n)_n n!) = (N)_2 / (3! (N+3/2)_2) still meets its
    # pole (N+3/2)_2 = 0: a skip, not a failure
    assert rhp_explicit(3, F(-1)).is_zero
    result = run_guarded("cnix", {"n": 3, "N": F(-3, 2)}, lambda: cnix_sides(3, F(-3, 2)))
    assert result.skipped and not result.passed
    assert result.notes == "skipped: (N+3/2)_2 vanishes at N=-3/2"


def test_rescaling_rejects_a_wrong_parity_term():
    raw = rhp_explicit(3, F(2)) + Poly.constant(1)
    message = r"^H_3\^N at N=2 has terms of the wrong parity$"
    with pytest.raises(ConsistencyError, match=message):
        rhp_raw_to_scaled(raw, 3, F(2))
    with perturbed("rhp", 3, 0, 1):
        with pytest.raises(ConsistencyError, match=message):
            rhp_scaled(3, F(2))


def test_subordination_hermite_skips_where_2N_n_vanishes():
    # H_n^N is zero at N = -1 for n >= 3 and (2N)_n vanishes, but the monic
    # member, walked from its last term, does not divide by (2N)_n: the
    # identity holds there
    for n in range(3, 9):
        assert rhp_explicit(n, F(-1)).is_zero
        params = {"n": n, "N": F(-1)}
        result = run_guarded(
            "subordination-hermite", params, lambda: subordination_hermite_sides(n, F(-1))
        )
        assert result.passed and not result.skipped
    # at N = -3/2 the skip names the monic member's own pole
    result = run_guarded(
        "subordination-hermite", {}, lambda: subordination_hermite_sides(4, F(-3, 2))
    )
    assert result.notes == "skipped: (N+1/2)_2 vanishes at N=-3/2"


def test_subordination_hermite_reads_the_constructed_member():
    with perturbed("rhp", 3, 0, 1):
        result = run_guarded(
            "subordination-hermite", {}, lambda: subordination_hermite_sides(3, F(2))
        )
    assert not result.passed and not result.skipped
    assert result.witness == Poly.constant(1)
    assert result.notes == "H_3^N at N=2 has terms of the wrong parity"
    # a term of the parity of n, inside the support or above degree n
    for index in (1, 5):
        with perturbed("rhp", 3, index, 1):
            result = row(subordination_hermite_sides, 3, F(2))
        assert not result.passed and not result.witness.is_zero


def reference_subordination_hermite_witness(n, N):
    """The subordination-hermite witness with the monic member rescaled
    and divided by (2N)_n in the check itself, not read from
    rhp_normalized."""
    N = as_param(N)
    raw = rhp_explicit(n, N)
    if raw.off_parity(n):
        return raw.off_parity(n)
    lead = pochhammer(2 * N, n)
    if lead == 0:
        raise DomainError(f"(2N)_{n} vanishes at N={N}")
    monic = rhp_raw_to_scaled(raw, n, N) * (1 / lead)
    half_n = Fraction(n, 2)
    normalizer = GammaRatio.rising(0, n, slope=2) * GammaRatio.rising(0, half_n).reciprocal()
    rhs = monic.paired(
        n,
        lambda h: gamma_ratio_rational_value(
            normalizer * GammaRatio.rising(Fraction(n + 1, 2), h - half_n), N
        ),
    )
    return hermite(n) - rhs


@pytest.mark.parametrize("N", PAIRING_PARAMS)
def test_subordination_hermite_reads_the_normalized_member(N):
    # the reference divides by (2N)_n and the monic member does not: where
    # (2N)_n vanishes, the row passes or skips on the member's own pole, and
    # a perturbation, which alone is divided by (2N)_n, may skip on it
    for n in range(9):
        member_pole = (DomainError, f"(N+1/2)_{n // 2} vanishes at N={N}")
        lead_pole = (DomainError, f"(2N)_{n} vanishes at N={N}")
        new = _outcome(lambda: row(subordination_hermite_sides, n, N).witness)
        want = _outcome(lambda: reference_subordination_hermite_witness(n, N))
        if pochhammer(2 * N, n):
            assert new == want
        else:
            assert new in (Poly.zero(), member_pole)
        for index in (n - 2, n - 1, n, n + 2):
            if index >= 0:
                with perturbed("rhp", n, index, F(3, 7)):
                    new = _outcome(lambda: row(subordination_hermite_sides, n, N).witness)
                    want = _outcome(lambda: reference_subordination_hermite_witness(n, N))
                if not pochhammer(2 * N, n):
                    # the off-parity terms, where the reference met them too
                    assert new in (member_pole, lead_pole, want)
                elif _gamma_defined(want):
                    assert new == want
                else:  # the term above degree n pairs with 1/(N-1/2)_1
                    assert new == (DomainError, f"(N-1/2)_1 vanishes at N={N}")


# ---------------------------------------------------------------------------
# Skip reporting and witness discipline


def test_pole_reported_as_skipped():
    # H_4^N and C_4^N have no pole at N = -3/2, so nagel holds there
    assert run_guarded("nagel", {}, lambda: nagel_sides(4, F(-3, 2))).passed
    # the last term of the monic member divides by (N+1/2)_1, which
    # vanishes at N = -1/2
    params = {"n": 2, "N": F(-1, 2)}
    result = run_guarded(
        "subordination-hermite", params, lambda: subordination_hermite_sides(2, F(-1, 2))
    )
    assert result.skipped and not result.passed
    assert result.notes == "skipped: (N+1/2)_1 vanishes at N=-1/2"
    assert result.to_json_dict()["skipped"] is True


def test_passed_is_derived_from_the_witness():
    params = {"n": 1}
    assert CheckResult("x", params, Poly.zero()).passed
    assert CheckResult("x", params, TruncSeries.zero(3)).passed
    assert not CheckResult("x", params, Poly.constant(F(1, 2))).passed
    assert not CheckResult("x", params, TruncSeries((0, 1), 3)).passed
    assert not CheckResult("x", params).passed  # no witness
    assert not CheckResult("x", params, Poly.zero(), skipped=True).passed
    with pytest.raises(TypeError):
        CheckResult("x", params, passed=True)
    same = CheckResult.from_sides("x", params, Poly((1, 2)), Poly((1, 2)), "n")
    assert (same.passed, same.witness, same.notes) == (True, Poly.zero(), "n")
    differ = CheckResult.from_sides("x", params, Poly((1, 2)), Poly((1,)))
    assert not differ.passed and differ.witness == Poly((0, 2))
    assert list(differ.to_json_dict()) == [
        "name", "params", "passed", "skipped", "witness", "notes"
    ]


# Each build reads members at a derived parameter (M = 1/2 - N - n or
# N + l) that vanishes at its N, as the id names.  A member there is its
# polynomial continuation, 1 at degree 0 and zero above, so the row holds;
# only cnix at n = 1, N = -1/2 skips, on its own scalar's true pole.
@pytest.mark.parametrize(
    "build, zero",
    [
        (lambda: cnix_sides(1, F(-1, 2)), "M = 1/2 - N - 1 vanishes at N=-1/2"),
        (lambda: rhp_addition_sides(2, F(-3, 2)), "M = 1/2 - N - 2 vanishes at N=-3/2"),
        (lambda: scaling_sides(Family.RHP, 2, F(1, 2), F(-1)), "N + 1 vanishes at N=-1"),
        (lambda: scaling_sides(Family.GEGENBAUER, 4, F(1, 2), F(-2)), "N + 2 vanishes at N=-2"),
        (lambda: derivative_sides(Family.GEGENBAUER, 1, F(-1)), "N + 1 vanishes at N=-1"),
    ],
)
def test_a_vanishing_derived_parameter_is_named(build, zero):
    result = run_guarded("derived", {}, build)
    if zero.startswith("M = 1/2 - N - 1 "):
        assert result.skipped and result.notes == "skipped: (N+1/2)_1 vanishes at N=-1/2"
    else:
        assert result.passed, result.notes


@pytest.mark.parametrize(
    "build",
    [
        lambda: scaling_sides("gegenbauer", 5, F(1, 2), F(-1)),
        lambda: derivative_sides("gegenbauer", 4, F(-1)),
    ],
)
def test_a_member_at_a_zero_parameter_is_read(build):
    # both rows read C_3^0 = 0, so a perturbation of C_3 breaks them
    assert row(build).passed
    with perturbed("gegenbauer", 3, 1, 1):
        assert not row(build).passed


def test_inconsistency_reported_as_failure():
    def broken():
        raise ConsistencyError("parity violation while rescaling")

    result = run_guarded("nagel", {"n": 3, "N": F(2)}, broken)
    assert not result.passed and not result.skipped
    assert result.notes == "inconsistent: parity violation while rescaling"
    assert result.to_json_dict()["witness"] is None


def test_mutation_produces_nonzero_witness():
    with perturbed("gegenbauer", 2, 0, 1):
        r = row(nagel_sides, 2, F(2))
        assert not r.passed and not r.witness.is_zero
    with perturbed("rhp", 2, 0, 1):
        r = row(cnix_sides, 2, F(2))  # uses the explicit member at M = -7/2
        assert not r.passed and not r.witness.is_zero
    # n = 3: the perturbed H_2 enters only the composition side (a constant
    # shift of H_n itself is covariant with the identity at sum a_k^2 = 1)
    with perturbed("hermite", 2, 0, 1):
        r = row(hermite_addition_sides, 3, (F(3, 5), F(4, 5)))
        assert not r.passed and not r.witness.is_zero
    with perturbed("rhp", 2, 1, F(1, 3)):
        r = row(genfunc_rhp_sides, N=F(2), x=F(1, 2), order=6)
        assert not r.passed and not r.witness.is_zero
    # checks recover once the hook is cleared
    assert row(nagel_sides, 2, F(2)).passed


def test_witness_serialization():
    params = {"n": 1, "N": F(2)}
    r = run_guarded("nagel", params, lambda: nagel_sides(1, F(2)))
    d = r.to_json_dict()
    assert d == {
        "name": "nagel",
        "params": {"n": 1, "N": "2"},
        "passed": True,
        "skipped": False,
        "witness": None,
        "notes": "",
    }
    with perturbed("gegenbauer", 1, 1, 1):
        bad = run_guarded("nagel", params, lambda: nagel_sides(1, F(2))).to_json_dict()
    assert bad["passed"] is False and bad["witness"] is not None
    assert any(v != "0" for v in bad["witness"])
