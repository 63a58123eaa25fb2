import threading
from dataclasses import dataclass
from fractions import Fraction as F
from math import factorial

import pytest

from relhermite import families
from relhermite.algebra import Poly
from relhermite.families import (
    Family,
    FamilyId,
    MomentSequence,
    Normalization,
    OperatorSeries,
    apply_operator,
    bessel_operator_series,
    clear_construction_caches,
    family_member,
    from_moment_binomial,
    gegenbauer_explicit,
    gegenbauer_moment_gamma_gauss,
    gegenbauer_moment_normalized,
    gegenbauer_moment_studentr,
    gegenbauer_moment_uv,
    gegenbauer_rodrigues,
    hermite,
    hermite_from_moments,
    hermite_from_operator,
    hermite_limit_deviation,
    hermite_operator_series,
    perturbed,
    rhp_explicit,
    rhp_moment_gamma_gauss,
    rhp_moment_studentr,
    rhp_moment_uv,
    rhp_normalized,
    rhp_normalized_from_operator,
    rhp_raw_to_scaled,
    rhp_rodrigues,
    rhp_scaled,
)
from relhermite.numeric import (
    ConsistencyError,
    DomainError,
    as_param,
    binomial,
    paired_gamma_moment,
    pochhammer,
    rational,
    real_i_power,
)

TEST_PARAMS = [F(2), F(3), F(10), F(7, 2), F(1, 3)]


# ---------------------------------------------------------------------------
# The explicit low-degree members, written out as functions of N


def expected_rhp(n: int, N: F) -> Poly:
    if n == 0:
        return Poly((1,))
    if n == 1:
        return Poly((0, 2))
    if n == 2:
        return Poly((-2, 0, 2 * (2 + 1 / N)))
    if n == 3:
        c = 4 * (1 + 1 / N)
        return Poly((0, -3 * c, 0, c * (2 + 1 / N)))
    raise ValueError


def expected_gegenbauer(n: int, N: F) -> Poly:
    if n == 0:
        return Poly((1,))
    if n == 1:
        return Poly((0, 2 * N))
    if n == 2:
        return Poly((-N, 0, 2 * N * (N + 1)))
    if n == 3:
        c = 2 * N * (N + 1)
        return Poly((0, -c, 0, c * 2 * (N + 2) / 3))
    raise ValueError


@pytest.mark.parametrize("N", [F(1), F(2), F(3), F(7, 2)])
def test_low_degree_tables(N):
    for n in range(4):
        assert rhp_explicit(n, N) == expected_rhp(n, N)
        assert gegenbauer_explicit(n, N) == expected_gegenbauer(n, N)


def test_hermite_small():
    assert hermite(0) == Poly((1,))
    assert hermite(1) == Poly((0, 2))
    assert hermite(2) == Poly((-2, 0, 4))
    assert hermite(3) == Poly((0, -12, 0, 8))


def test_rodrigues_small_cases():
    N = F(7, 2)
    assert rhp_rodrigues(0, N) == Poly((1,))
    assert rhp_rodrigues(1, N) == Poly((0, 2))
    assert rhp_rodrigues(2, N) == expected_rhp(2, N)
    assert gegenbauer_rodrigues(0, N) == Poly((1,))
    assert gegenbauer_rodrigues(1, N) == Poly((0, 2 * N))
    assert gegenbauer_rodrigues(2, N) == expected_gegenbauer(2, N)


def test_rhp_explicit_rejects_poles():
    with pytest.raises(DomainError):
        rhp_explicit(2, 0)
    # N = 0 is the only pole: at N = -3/2, (N+1/2)_2 = 0 cancels against (2N)_4
    assert rhp_explicit(4, F(-3, 2)) == Poly((4,))


def test_members_at_a_zero_parameter_are_their_continuation():
    # the rescaled and Gegenbauer members are polynomials in N: at N = 0
    # they are 1 at degree 0 and zero above
    for build in (rhp_scaled, gegenbauer_explicit):
        assert build(0, 0) == Poly.one()
        for n in range(1, 9):
            assert build(n, 0).is_zero, (build.__name__, n)


# The default grid, the verify-deep pool, the edge grid and one large ratio.
WALK_PARAMS = sorted(
    {F(p) for p in "2 3 10 7/2 1/3 3/2 5/3 9/4 6 1/5 -1/3".split()}
    | {F(p) for p in "-1 -1/2 -3/2 1/2 -7/2 -5/2 123456789/987654321".split()}
)


def test_walk_builds_the_rescaled_member_of_the_raw_one(monkeypatch):
    assert len(WALK_PARAMS) == 18
    paired = {
        (n, N): rhp_raw_to_scaled(rhp_explicit(n, N), n, N) for N in WALK_PARAMS for n in range(41)
    }

    def unreached(*args):
        raise AssertionError("an unperturbed rescaled member reads the raw one")

    # the walk builds it directly: neither the raw member nor its pairing
    monkeypatch.setattr(families, "rhp_explicit", unreached)
    monkeypatch.setattr(families, "rhp_raw_to_scaled", unreached)
    for (n, N), want in paired.items():
        assert rhp_scaled(n, N) == want, (n, N)
    clear_construction_caches()


# ---------------------------------------------------------------------------
# Moment sequences


def test_gaussian_moments():
    gauss = MomentSequence.gaussian_half()
    assert [gauss(k) for k in range(5)] == [1, 0, F(1, 2), 0, F(3, 4)]


def test_student_r_moments_match_beta_form():
    # independent form: E Z^(2k) = (1/2)_k / (N+1/2)_k
    for N in TEST_PARAMS:
        mom = MomentSequence.student_r(N)
        for k in range(6):
            assert mom(2 * k) == pochhammer(F(1, 2), k) / pochhammer(N + F(1, 2), k)
            assert mom(2 * k + 1) == 0


def point_mass(x):
    x = rational(x)
    return MomentSequence(f"PointMass({x})", lambda k: x**k)


def test_gamma_and_point_moments():
    gamma = MomentSequence.gamma_shape(F(5, 2))
    assert [gamma(k) for k in range(4)] == [1, F(5, 2), F(35, 4), F(315, 8)]
    point = point_mass(F(2, 3))
    assert point(3) == F(8, 27)


def test_student_r_pole():
    mom = MomentSequence.student_r(F(-3, 2))
    with pytest.raises(DomainError):
        mom(4)


# ---------------------------------------------------------------------------
# Route agreement (the full n <= 10 sweep lives in the acceptance suite)


@pytest.mark.parametrize("N", TEST_PARAMS)
def test_all_routes_agree(N):
    for n in range(7):
        raw = rhp_explicit(n, N)
        assert rhp_rodrigues(n, N) == raw
        scaled = rhp_scaled(n, N)
        assert rhp_moment_uv(n, N) == scaled
        assert rhp_moment_studentr(n, N) == scaled
        assert rhp_moment_gamma_gauss(n, N) == scaled
        assert rhp_normalized_from_operator(n, N) == rhp_normalized(n, N)

        geg = gegenbauer_explicit(n, N)
        assert gegenbauer_rodrigues(n, N) == geg
        assert gegenbauer_moment_uv(n, N) == geg
        assert gegenbauer_moment_studentr(n, N) == geg
        assert gegenbauer_moment_gamma_gauss(n, N) == geg


def test_hermite_matches_the_fraction_recurrence():
    # the recurrence H_{k+1} = 2X H_k - H_k' on Fraction Polys, a route
    # independent of the explicit sum hermite builds
    p, two_x = Poly.one(), Poly((0, 2))
    for n in range(61):
        assert hermite(n) == p, n
        p = two_x * p - p.derivative()


def test_hermite_routes_agree():
    for n in range(9):
        h = hermite(n)
        assert hermite_from_moments(n) == h
        assert hermite_from_operator(n) == h


def rhp_scaled_to_raw(p: Poly, n: int, N: F) -> Poly:
    """Inverse of rhp_raw_to_scaled: the coefficient of X^j loses N^((n+j)/2)."""
    coeffs = [F(0)] * (len(p.coeffs))
    for j, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if (n + j) % 2:
            raise ConsistencyError("parity violation while rescaling")
        coeffs[j] = c / N ** ((n + j) // 2)
    return Poly(coeffs)


def test_scale_conversion_roundtrip():
    for N in TEST_PARAMS:
        for n in range(6):
            raw = rhp_explicit(n, N)
            assert rhp_scaled_to_raw(rhp_raw_to_scaled(raw, n, N), n, N) == raw


# ---------------------------------------------------------------------------
# Structural properties


@pytest.mark.parametrize("N", TEST_PARAMS)
def test_parity_degree_leading(N):
    for n in range(9):
        for member, lead in (
            (gegenbauer_explicit(n, N), F(2) ** n * pochhammer(N, n) / factorial(n)),
            (rhp_scaled(n, N), pochhammer(2 * N, n)),
        ):
            assert member.degree == n
            assert member.leading == lead
            flipped = member.compose_linear(-1, 0)
            assert flipped == (member if n % 2 == 0 else -member)
        assert rhp_explicit(n, N).leading == pochhammer(2 * N, n) / N**n


@pytest.mark.parametrize("N", TEST_PARAMS)
def test_normalized_rhp_is_monic(N):
    for n in range(9):
        member = rhp_normalized(n, N)
        assert member.degree == n and member.leading == 1


def test_normalized_rhp_meets_its_member_pole_first():
    # H_4^N has no pole at N = -3/2; the monic member's own pole is the
    # (N+1/2)_2 of its last term, met before (2N)_4 could be
    with pytest.raises(DomainError, match=r"^\(N\+1/2\)_2 vanishes at N=-3/2$"):
        rhp_normalized(4, F(-3, 2))
    with perturbed("rhp", 4, 0, 1):
        with pytest.raises(DomainError, match=r"^\(N\+1/2\)_2 vanishes at N=-3/2$"):
            rhp_normalized(4, F(-3, 2))


# N where (2N)_n, (N)_k or (N+1/2)_k vanish, and generic N
MOMENT_PARAMS = [
    F(p)
    for p in "2 3 10 7/2 1/3 -1 -1/2 -3/2 1/2 -7/2 -1/3 -5/2 37/7 -2 -3 5/2 -9/2 1".split()
]


@pytest.mark.parametrize("N", MOMENT_PARAMS)
def test_moment_members_walk_without_reading_another_member(N, monkeypatch):
    # the read-and-divide forms the moment members had before they were
    # walked: the rescaled member over (2N)_n, and n!/(2N)_n C_n^N
    degrees = [n for n in range(41) if pochhammer(2 * N, n)]
    want = {
        n: (
            rhp_scaled(n, N) * (1 / pochhammer(2 * N, n)),
            gegenbauer_explicit(n, N) * (F(factorial(n)) / pochhammer(2 * N, n)),
        )
        for n in degrees
    }

    def refuse(*args):
        raise AssertionError("a moment member read another member")

    monkeypatch.setattr(families, "rhp_scaled", refuse)
    monkeypatch.setattr(families, "gegenbauer_explicit", refuse)
    for n in degrees:
        assert (rhp_normalized(n, N), gegenbauer_moment_normalized(n, N)) == want[n], n


@pytest.mark.parametrize("N", [F(-1), F(-1, 3), F(37, 7)])
def test_moment_members_are_student_r_expectations(N):
    # E (X + iZ)^n and E (X + i sqrt(1-X^2) Z)^n over the Student-r law; at
    # N = -1, (2N)_n vanishes for n >= 3 but no Student-r moment has a pole
    mom = MomentSequence.student_r(N)
    for n in range(13):
        assert rhp_normalized(n, N) == from_moment_binomial(n, 1, mom)
        assert gegenbauer_moment_normalized(n, N) == from_moment_binomial(
            n, 1, mom, families.X2_MINUS_1
        )


def test_moment_normalization_examples():
    N = F(7, 2)
    moment = Normalization.MOMENT
    assert family_member(FamilyId(Family.RHP, 1, N, moment)) == Poly((0, 1))
    assert family_member(FamilyId(Family.RHP, 2, N, moment)) == Poly((-1 / (2 * N + 1), 0, 1))
    assert family_member(FamilyId(Family.GEGENBAUER, 2, N, moment)) == Poly(
        (-1 / (2 * N + 1), 0, 2 * (N + 1) / (2 * N + 1))
    )
    assert family_member(FamilyId(Family.HERMITE, 2, None, moment)) == hermite(2) * F(1, 4)


def test_family_id_validation():
    with pytest.raises(ValueError):
        FamilyId(Family.HERMITE, 2, F(2))
    with pytest.raises(ValueError):
        FamilyId(Family.GEGENBAUER, 2, None)
    with pytest.raises(ValueError):
        FamilyId(Family.GEGENBAUER, 2, F(2), Normalization.SQRT_SCALED)
    with pytest.raises(DomainError):
        FamilyId(Family.RHP, 2, F(0))


def test_family_member_dispatch():
    assert family_member(FamilyId(Family.HERMITE, 2)) == hermite(2)
    assert family_member(FamilyId(Family.RHP, 2, F(2), Normalization.MOMENT)) == rhp_normalized(2, F(2))
    assert family_member(
        FamilyId(Family.GEGENBAUER, 3, F(1, 3), Normalization.MOMENT)
    ) == gegenbauer_moment_normalized(3, F(1, 3))


# ---------------------------------------------------------------------------
# Moment and operator constructions


def test_from_moment_binomial_examples():
    gauss = MomentSequence.gaussian_half()
    assert from_moment_binomial(2, 4, gauss) == Poly((-2, 0, 4))
    student = MomentSequence.student_r(F(2))
    assert from_moment_binomial(0, 1, student) == Poly((1,))
    assert from_moment_binomial(2, pochhammer(F(4), 2), student) == Poly((-4, 0, 20))


def test_operator_examples():
    assert apply_operator(hermite_operator_series(), 2) == Poly((-2, 0, 4))
    op = OperatorSeries(lambda k: F(7) if k == 0 else F(0))
    assert apply_operator(op, 0) == Poly.constant(7)
    N = F(3)
    assert apply_operator(bessel_operator_series(N - F(1, 2)), 2) == Poly(
        (-1 / (2 * N + 1), 0, 1)
    )


def reference_apply_operator(op: OperatorSeries, n: int) -> Poly:
    """The series applied one derivative at a time, as apply_operator did
    before it wrote each term in closed form."""
    acc = Poly.zero()
    d = Poly.monomial(n, op.base_scale**n)
    for k in range(n + 1):
        c = op.coeff(k)
        if c != 0:
            acc = acc + c * d
        d = d.derivative()
    return acc


def _built(build):
    try:
        return build()
    except DomainError as exc:
        return DomainError, str(exc)


@pytest.mark.parametrize("nu", [None, F(5, 2), F(-1, 3), F(4), F(-5, 2), F(-2), F(-3)])
def test_apply_operator_matches_the_derivative_loop(nu):
    # nu = -2 and -3 are Bessel poles, met at k = 4 and k = 6
    op = hermite_operator_series() if nu is None else bessel_operator_series(nu)
    for scaled in (op, OperatorSeries(op.coeff, F(-3, 2))):
        for n in range(31):
            got = _built(lambda: apply_operator(scaled, n))
            assert got == _built(lambda: reference_apply_operator(scaled, n)), (scaled, n)
    if nu in (-2, -3):
        assert _built(lambda: apply_operator(op, 30)) == (
            DomainError, f"(nu+1)_{int(-nu)} vanishes at nu={nu}"
        )


def test_operator_series_from_student_moments_is_bessel():
    # the characteristic-function coefficients i^k m_k/k! of the Student-r
    # law are exactly the normalized Bessel series of order N - 1/2
    for N in (F(2), F(7, 2), F(1, 3)):
        mom = MomentSequence.student_r(N)
        bessel = bessel_operator_series(N - F(1, 2))
        for k in range(9):
            assert real_i_power(k, mom(k)) / factorial(k) == bessel.coeff(k)


def test_operator_series_from_gaussian_moments_is_exponential():
    mom = MomentSequence.gaussian_half()
    exp_op = hermite_operator_series()
    for k in range(9):
        assert real_i_power(k, mom(k)) / factorial(k) == exp_op.coeff(k)


def test_nonzero_odd_moment_is_an_inconsistency():
    # i^k mom(k) is imaginary for odd k: the binomial route may not drop
    # that part
    skew = MomentSequence("skew", lambda k: F(1))
    with pytest.raises(ConsistencyError, match="^parity violation while rescaling$"):
        from_moment_binomial(3, 1, skew)


# ---------------------------------------------------------------------------
# Limit toward the classical family


def test_limit_deviation_stabilizes():
    for n in range(7):
        near = hermite_limit_deviation(n, F(10**4))
        far = hermite_limit_deviation(n, F(10**8))
        for a, b in zip(near, far):
            if a == b == 0:
                continue
            assert abs(a - b) <= F(1, 1000) * abs(b)


# ---------------------------------------------------------------------------
# Perturbation hook


def test_perturbation_hits_only_its_target():
    baseline = rhp_explicit(2, F(2))
    with perturbed("rhp", 2, 0, 1):
        assert rhp_explicit(2, F(2)) == baseline + Poly((1,))
        assert rhp_explicit(3, F(2)) == rhp_explicit(3, F(2))
        assert gegenbauer_explicit(2, F(2)) == expected_gegenbauer(2, F(2))
    assert rhp_explicit(2, F(2)) == baseline


@pytest.mark.parametrize(
    "kind, build",
    [
        ("hermite", lambda: hermite(3)),
        ("gegenbauer", lambda: gegenbauer_explicit(3, F(7, 2))),
        ("rhp", lambda: rhp_explicit(3, F(7, 2))),
    ],
)
def test_perturbation_never_reaches_the_construction_cache(kind, build):
    clean = build()
    with perturbed(kind, 3, 1, F(1, 5)):
        assert build() == clean + Poly((0, F(1, 5)))
    # the clean member comes back from the cache, untouched
    again = build()
    assert again == clean and again is clean
    clear_construction_caches()
    rebuilt = build()
    assert rebuilt == clean and rebuilt is not clean


def test_zero_perturbation_is_rejected():
    # a zero delta perturbs nothing, so a mutation check under it would
    # pass without testing anything
    with pytest.raises(ValueError, match="zero perturbation"):
        perturbed("rhp", 2, 0, 0)
    with pytest.raises(ValueError, match="zero perturbation"):
        perturbed("gegenbauer", 3, 1, F(0, 5))


def test_perturbation_clears_on_error():
    try:
        with perturbed("hermite", 1, 0, 1):
            raise RuntimeError
    except RuntimeError:
        pass
    assert hermite(1) == Poly((0, 2))


def test_perturbation_stays_in_its_thread():
    clean = rhp_explicit(2, F(2))
    block_entered = threading.Event()
    seen = []

    def other_thread():
        block_entered.wait()
        seen.append(rhp_explicit(2, F(2)))

    worker = threading.Thread(target=other_thread)
    worker.start()
    with perturbed("rhp", 2, 0, 1):
        block_entered.set()
        worker.join()
        assert rhp_explicit(2, F(2)) == clean + Poly((1,))
    assert seen == [clean]


# ---------------------------------------------------------------------------
# Term-ratio constructions against the Pochhammer sums they replace


def reference_gegenbauer_explicit(n, N):
    N = as_param(N)
    coeffs = [F(0)] * (n + 1)
    for k in range(n // 2 + 1):
        j = n - 2 * k
        coeffs[j] = (
            F((-1) ** k) * pochhammer(N, n - k) * F(2) ** j / (factorial(j) * factorial(k))
        )
    return Poly(coeffs)


def reference_rhp_explicit(n, N):
    N = as_param(N)
    coeffs = [F(0)] * (n + 1)
    p2n = pochhammer(2 * N, n)
    for k in range(n // 2 + 1):
        pk = pochhammer(N + F(1, 2), k)
        if pk == 0:
            raise DomainError(f"(N+1/2)_{k} vanishes at N={N}")
        j = n - 2 * k
        coeffs[j] = (
            p2n
            * factorial(n)
            * F((-1) ** k)
            / (F(4) ** k * pk * factorial(j) * factorial(k) * N ** (n - k))
        )
    return Poly(coeffs)


# negative half-integers make (N+1/2)_k and (2N)_n vanish, negative
# integers make (N)_{n-k} vanish for some k and not others
RATIO_PARAMS = [F(p) for p in (
    "2", "3", "10", "7/2", "1/3", "5/7", "-1/3", "-2/9", "1/2", "3/2",
    "-1/2", "-3/2", "-5/2", "-7/2", "-11/2", "-29/2", "-1", "-2", "-3", "-5", "-14", "-30",
)]


def _outcome(build, n, N):
    try:
        return build(n, N).coeffs
    except DomainError as exc:
        return f"DomainError: {exc}"


@pytest.mark.parametrize(
    "build, reference",
    [
        (rhp_explicit, reference_rhp_explicit),
        (gegenbauer_explicit, reference_gegenbauer_explicit),
    ],
)
def test_term_ratio_matches_pochhammer_sum(build, reference):
    domain_errors = 0
    for N in RATIO_PARAMS:
        for n in range(31):
            expected = _outcome(reference, n, N)
            if build is rhp_explicit and isinstance(expected, str):
                # the reference divides by (N+1/2)_k, which H_n^N does not have
                domain_errors += 1
                expected = rhp_rodrigues(n, N).coeffs
            assert _outcome(build, n, N) == expected, (n, N)
    if build is rhp_explicit:
        assert domain_errors > 0  # the vanishing (N+1/2)_k cases were reached


# ---------------------------------------------------------------------------
# Moment and U/V routes against the quadratic-extension class and the
# per-route loops that Poly.homogenized replaced.  The references are the
# earlier code, copied verbatim.


@dataclass(frozen=True)
class QuadExtPoly:
    a: Poly
    b: Poly
    modulus: Poly

    @classmethod
    def zero(cls, modulus: Poly) -> "QuadExtPoly":
        return cls(Poly.zero(), Poly.zero(), modulus)

    def _check(self, other: "QuadExtPoly"):
        if self.modulus != other.modulus:
            raise ValueError("cannot combine quadratic extensions over different moduli")

    def __add__(self, other: "QuadExtPoly") -> "QuadExtPoly":
        self._check(other)
        return QuadExtPoly(self.a + other.a, self.b + other.b, self.modulus)

    def __mul__(self, other):
        if isinstance(other, QuadExtPoly):
            self._check(other)
            return QuadExtPoly(
                self.a * other.a + self.b * other.b * self.modulus,
                self.a * other.b + self.b * other.a,
                self.modulus,
            )
        return QuadExtPoly(self.a * other, self.b * other, self.modulus)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QuadExtPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = QuadExtPoly(Poly.one(), Poly.zero(), self.modulus)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "QuadExtPoly":
        return QuadExtPoly(self.a, -self.b, self.modulus)

    @property
    def is_radical_free(self) -> bool:
        return self.b.is_zero


def reference_uv_expansion(n: int, N: F, modulus: Poly) -> Poly:
    """E [(X+s)U + (X-s)V]^n with s^2 = modulus and U, V independent
    Gamma variables of shape N.  The radical part of the expansion must
    cancel exactly."""
    plus = QuadExtPoly(Poly.x(), Poly.one(), modulus)
    minus = QuadExtPoly(Poly.x(), -Poly.one(), modulus)
    acc = QuadExtPoly.zero(modulus)
    plus_pow = [plus**j for j in range(n + 1)]
    minus_pow = [minus**j for j in range(n + 1)]
    for j in range(n + 1):
        weight = binomial(n, j) * pochhammer(N, j) * pochhammer(N, n - j)
        acc = acc + weight * (plus_pow[j] * minus_pow[n - j])
    if not acc.is_radical_free:
        raise ConsistencyError("radical part of the U/V expansion must vanish")
    return acc.a


def reference_gegenbauer_moment_uv(n, N):
    return reference_uv_expansion(n, as_param(N), Poly((-1, 0, 1))) * F(1, factorial(n))


def reference_rhp_moment_uv(n, N):
    return reference_uv_expansion(n, as_param(N), Poly((-1,)))


def reference_gegenbauer_moment_studentr(n: int, N) -> Poly:
    N = as_param(N)
    mom = MomentSequence.student_r(N)
    modulus = Poly((-1, 0, 1))
    acc = QuadExtPoly.zero(modulus)
    for k in range(n + 1):
        body = Poly.monomial(n - k) * (modulus ** (k // 2)) * (binomial(n, k) * mom(k))
        if k % 2 == 0:
            acc = acc + QuadExtPoly(body, Poly.zero(), modulus)
        else:
            acc = acc + QuadExtPoly(Poly.zero(), body, modulus)
    if not acc.is_radical_free:
        raise ConsistencyError("radical part of the Student-r expansion must vanish")
    return acc.a * (pochhammer(2 * N, n) / factorial(n))


def reference_gegenbauer_moment_gamma_gauss(n: int, N) -> Poly:
    N = as_param(N)
    gauss = MomentSequence.gaussian_half()
    coeffs = [F(0)] * (n + 1)
    for k in range(0, n + 1, 2):
        kappa = k // 2
        value = paired_gamma_moment(N, n, n - k)
        coeffs[n - k] = (
            F((-1) ** kappa) * binomial(n, k) * gauss(k) * value
        )
    return Poly(coeffs) * (F(2) ** n / factorial(n))


def reference_rhp_moment_gamma_gauss(n: int, N) -> Poly:
    N = as_param(N)
    gauss = MomentSequence.gaussian_half()
    one_plus_x2 = Poly((1, 0, 1))
    acc = Poly.zero()
    for k in range(0, n + 1, 2):
        kappa = k // 2
        value = paired_gamma_moment(N, n, n - k)
        term = Poly.monomial(n - k) * (one_plus_x2**kappa)
        acc = acc + (F((-1) ** kappa) * binomial(n, k) * gauss(k) * value) * term
    return acc * F(2) ** n


def reference_from_moment_binomial(n: int, prefactor, mom: MomentSequence) -> Poly:
    """prefactor * sum_k C(n,k) X^(n-k) i^k mom(k); every i^k mom(k)
    must be real, so the odd moments must vanish."""
    prefactor = rational(prefactor)
    coeffs = [F(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = real_i_power(k, binomial(n, k) * mom(k)) * prefactor
    return Poly(coeffs)


def reference_rhp_moment_studentr(n, N):
    N = as_param(N)
    return reference_from_moment_binomial(n, pochhammer(2 * N, n), MomentSequence.student_r(N))


HOMOGENIZED_PARAMS = [F(p) for p in (
    "2", "3", "10", "7/2", "1/3", "1/2", "-1", "-3/2", "-5/3", "-7/2",
    "5/3", "-1/3", "1/5", "9/4", "6",
)]


def _route_outcome(build, *args):
    """The coefficients, or the kind of error the build raised; a
    SupportError counts as a ConsistencyError, since the reference
    routes raise the plain one."""
    try:
        return build(*args).coeffs
    except DomainError:
        return DomainError
    except ConsistencyError:
        return ConsistencyError


@pytest.mark.parametrize(
    "build, reference",
    [
        (rhp_moment_uv, reference_rhp_moment_uv),
        (gegenbauer_moment_uv, reference_gegenbauer_moment_uv),
        (rhp_moment_studentr, reference_rhp_moment_studentr),
        (gegenbauer_moment_studentr, reference_gegenbauer_moment_studentr),
        (rhp_moment_gamma_gauss, reference_rhp_moment_gamma_gauss),
        (gegenbauer_moment_gamma_gauss, reference_gegenbauer_moment_gamma_gauss),
    ],
)
def test_homogenized_routes_match_the_extension_and_loop_routes(build, reference):
    errors = 0
    for N in HOMOGENIZED_PARAMS:
        for n in range(16):
            expected = _route_outcome(reference, n, N)
            assert _route_outcome(build, n, N) == expected, (n, N)
            errors += isinstance(expected, type)
    if build in (rhp_moment_studentr, gegenbauer_moment_studentr):
        assert errors > 0  # the vanishing (N+1/2)_k moments were reached


def test_homogenized_binomial_matches_the_power_of_i_loop():
    skew = MomentSequence("skew", lambda k: F(1))
    even = MomentSequence("even", lambda k: F(0) if k % 2 else F(k + 1, 3))
    for n in range(16):
        for prefactor, mom in [(F(2) ** n, MomentSequence.gaussian_half()), (F(-5, 3), even)]:
            expected = _route_outcome(reference_from_moment_binomial, n, prefactor, mom)
            assert _route_outcome(from_moment_binomial, n, prefactor, mom) == expected
        assert _route_outcome(hermite_from_moments, n) == _route_outcome(
            reference_from_moment_binomial, n, F(2) ** n, MomentSequence.gaussian_half()
        )
        if n % 2:
            assert _route_outcome(from_moment_binomial, n, 1, skew) is ConsistencyError
            assert _route_outcome(reference_from_moment_binomial, n, 1, skew) is ConsistencyError
