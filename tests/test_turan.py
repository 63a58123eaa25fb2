from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from relhermite.algebra import Poly, SupportError, multipoly_expectation, poly_divmod
from relhermite.families import Family, MomentSequence, perturbed
from relhermite.identities import CheckResult
from relhermite.numeric import ConsistencyError, DomainError, rational
from relhermite.turan import (
    WILKS_MAX_N,
    _exact_quotient,
    hankel,
    moment_hankel_det,
    poly_determinant,
    turan_closed_gegenbauer,
    turan_closed_rhp,
    turan_rhp_sides,
    turan_sides,
    vandermonde_squared,
    wilks_expectation,
    wilks_hankel_sides,
    wilks_studentr_sides,
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


def point_mass(x):
    x = rational(x)
    return MomentSequence(f"PointMass({x})", lambda k: x**k)


def determinant_cofactor(rows):
    """Cofactor expansion along the first row; cross-check for sizes <= 3."""
    size = len(rows)
    if size == 0:
        return Poly.one()
    if size == 1:
        return rows[0][0]
    total = Poly.zero()
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * determinant_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def fraction_bareiss(rows):
    """Bareiss elimination over Q[X] with Fraction coefficients, dividing
    through poly_divmod: the elimination poly_determinant replaced, kept
    as a reference."""
    size = len(rows)
    if size == 0:
        return Poly.one()
    m = [list(row) for row in rows]
    sign = 1
    previous = Poly.one()
    for k in range(size - 1):
        if m[k][k].is_zero:
            for i in range(k + 1, size):
                if not m[i][k].is_zero:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        pivot = m[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                quot, rem = poly_divmod(pivot * m[i][j] - m[i][k] * m[k][j], previous)
                assert rem.is_zero
                m[i][j] = quot
        previous = pivot
    return sign * m[size - 1][size - 1]


# rationals built with denominators of both signs
signed_fracs = st.builds(
    F, st.integers(-5, 5), st.integers(1, 6) | st.integers(-6, -1)
)
entries = st.just(Poly.zero()) | st.lists(signed_fracs, max_size=3).map(Poly)


@st.composite
def poly_matrices(draw):
    size = draw(st.integers(0, 4))
    rows = [[draw(entries) for _ in range(size)] for _ in range(size)]
    if size >= 2 and draw(st.booleans()):
        # a zero first column above the last row forces a row swap
        for row in rows[:-1]:
            row[0] = Poly.zero()
    if size >= 2 and draw(st.booleans()):
        # a multiple of another row makes the matrix singular
        rows[-1] = [draw(signed_fracs) * p for p in rows[0]]
    return rows


@given(poly_matrices())
@example([])
@example([[Poly((F(3, -7), 1))]])
@example([[Poly.zero(), Poly((1, F(-1, 2)))], [Poly((F(2, 3),)), Poly((0, 5))]])
@example([[Poly.zero(), Poly.zero()], [Poly((F(2, 3),)), Poly((0, 5))]])
@example([[Poly((1, 1)), Poly((2,))], [Poly((F(-3, 2), F(-3, 2))), Poly((-3,))]])
def test_poly_determinant_matches_cofactor_expansion(rows):
    assert poly_determinant(rows) == determinant_cofactor(rows)


def test_integer_exact_division_checks_the_quotient():
    assert _exact_quotient([-1, 0, 1], [1, 1]) == [-1, 1]
    assert _exact_quotient([6, -4], [2]) == [3, -2]
    assert _exact_quotient([], [1, 3]) == []
    # a remainder of lower degree, a quotient that is not integral, a
    # leading coefficient that does not divide, and a dividend of lower
    # degree than the divisor
    for p, q in (([1, 1, 1], [1, 1]), ([1, 2], [2]), ([2, 3], [1, 2]), ([3], [1, 1])):
        with pytest.raises(ConsistencyError, match="^expected exact polynomial division$"):
            _exact_quotient(p, q)


@pytest.mark.parametrize("family", [Family.RHP, Family.GEGENBAUER])
@pytest.mark.parametrize("N", [F(2), F(7, 2), F(1, 3), F(-5, 7), F(37, 11)])
def test_determinant_matches_the_fraction_elimination(family, N):
    for n in range(9):
        h = hankel(family, n, N)
        assert poly_determinant(h) == fraction_bareiss(h), (family, n, N)


def test_hankel_entries():
    N = F(7, 2)
    h = hankel(Family.RHP, 1, N)
    assert len(h) == 2
    assert h[0][0] == Poly((1,))
    assert h[0][1] == h[1][0] == Poly((0, 1))
    assert h[1][1] == Poly((-1 / (2 * N + 1), 0, 1))
    g = hankel(Family.GEGENBAUER, 1, N)
    assert g[1][1] == Poly((-1 / (2 * N + 1), 0, 2 * (N + 1) / (2 * N + 1)))


def test_hankel_size_zero():
    h = hankel(Family.RHP, 0, F(2))
    assert poly_determinant(h) == Poly((1,))


def test_poly_determinant_examples():
    assert poly_determinant([[Poly((1,))]]) == Poly((1,))
    det = poly_determinant(hankel(Family.RHP, 1, F(2)))
    assert det == Poly.constant(F(-1, 5))
    diagonal = [
        [Poly((0, 1)), Poly.zero(), Poly.zero()],
        [Poly.zero(), Poly((1, 1)), Poly.zero()],
        [Poly.zero(), Poly.zero(), Poly((2,))],
    ]
    assert poly_determinant(diagonal) == Poly((0, 1)) * Poly((1, 1)) * Poly((2,))


def test_determinant_with_zero_pivot():
    rows = [[Poly.zero(), Poly((1,))], [Poly((1,)), Poly.zero()]]
    assert poly_determinant(rows) == Poly.constant(-1)
    singular = [[Poly((1,)), Poly((2,))], [Poly((2,)), Poly((4,))]]
    assert poly_determinant(singular).is_zero


def test_cofactor_cross_check():
    for n in range(3):
        for family in (Family.RHP, Family.GEGENBAUER):
            h = hankel(family, n, F(7, 2))
            assert poly_determinant(h) == determinant_cofactor(h)


def test_closed_forms_small():
    assert turan_closed_rhp(0, F(2)) == 1
    for N in TEST_PARAMS + [F(1, 2)]:
        assert turan_closed_rhp(1, N) == -1 / (2 * N + 1)
        expected = Poly((F(-1), F(0), F(1))) * (1 / (2 * N + 1))
        assert turan_closed_gegenbauer(1, N) == expected
    assert turan_closed_gegenbauer(0, F(3)) == Poly((1,))


def test_closed_form_pole():
    with pytest.raises(DomainError, match=r"^\(N\+1/2\)_1 vanishes at N=-1/2$"):
        turan_closed_rhp(1, F(-1, 2))  # (N+1/2)_1 = 0; N = 1/2 is no pole


def test_turan_sides_cover_the_two_parametric_families():
    assert turan_sides(Family.RHP, 1, F(2)) == (Poly.constant(F(-1, 5)),) * 2
    with pytest.raises(ValueError, match="rhp and gegenbauer"):
        turan_sides(Family.HERMITE, 1, F(2))


# N = 1/2 is the removable zero of (2N-1)_j / (N-1/2)_j in the closed form
@pytest.mark.parametrize("N", TEST_PARAMS + [F(1, 2)])
def test_determinants_match_closed_forms(N):
    for n in range(5):
        r = row(turan_rhp_sides, n, N)
        assert r.passed, (n, N, r.notes)
        assert "determinant degree" in r.notes
        assert row(turan_sides, Family.GEGENBAUER, n, N).passed


def test_turan_constant_asserted_by_degree():
    # the relativistic determinant check demands an actually constant
    # polynomial, not just agreement at spot values
    r = row(turan_rhp_sides, 2, F(3))
    assert r.notes == "determinant degree 0"


def test_wilks_examples():
    unsigned, signed = wilks_expectation(1, MomentSequence.gaussian_half())
    assert unsigned == F(1, 2) and signed == F(-1, 2)
    gauss = MomentSequence.gaussian_half()
    assert moment_hankel_det(gauss, 1) == gauss(2) - gauss(1) ** 2 == F(1, 2)
    unsigned, signed = wilks_expectation(0, MomentSequence.student_r(F(2)))
    assert unsigned == signed == 1
    unsigned, signed = wilks_expectation(1, MomentSequence.student_r(F(2)))
    assert unsigned == F(1, 5) and signed == F(-1, 5) == turan_closed_rhp(1, F(2))


def test_wilks_cap():
    with pytest.raises(DomainError):
        wilks_expectation(4, MomentSequence.gaussian_half())


def test_vandermonde_squared_is_memoized_by_size_only():
    assert vandermonde_squared(3) is vandermonde_squared(3)
    assert vandermonde_squared.cache_info().maxsize == WILKS_MAX_N + 1


def test_vandermonde_squared_support():
    v = vandermonde_squared(3)
    assert all(sum(e) == 6 for e in v.terms)  # homogeneous of degree n(n+1)
    assert v.terms[(2, 2, 2)] != 0


def test_wilks_moments_are_tabulated_once_per_call():
    # vandermonde_squared(4) has 201 terms over exponents 0..6; the
    # moment map is evaluated once per distinct exponent, not once per
    # variable of every term
    calls = []
    student = MomentSequence.student_r(F(7, 2))

    def counting(k):
        calls.append(k)
        return student(k)

    expanded = vandermonde_squared(4)
    assert len(expanded.terms) == 201
    assert multipoly_expectation(expanded, counting) == multipoly_expectation(expanded, student)
    assert len(calls) <= 7


def test_wilks_pole_is_the_first_moment_the_terms_meet():
    # at N = -3/2 the Student-r moments of order 4 and 6 both have a
    # vanishing (N+1/2)_k; the expansion reports the one its terms reach
    # first, whatever order the table is built in
    with pytest.raises(DomainError, match=r"^\(N\+1/2\)_3 vanishes at N=-3/2$"):
        wilks_expectation(3, MomentSequence.student_r(F(-3, 2)))


@pytest.mark.parametrize("N", TEST_PARAMS)
def test_wilks_against_closed_and_hankel(N):
    student = MomentSequence.student_r(N)
    for n in range(4):
        assert row(wilks_studentr_sides, n, N).passed
        assert row(wilks_hankel_sides, n, student).passed
    assert row(wilks_hankel_sides, 3, MomentSequence.gaussian_half()).passed


def test_wilks_hankel_for_every_moment_kind():
    sequences = [
        MomentSequence.gaussian_half(),
        MomentSequence.student_r(F(7, 2)),
        MomentSequence.gamma_shape(F(5, 2)),
        point_mass(F(2, 3)),
    ]
    for mom in sequences:
        for n in range(4):
            assert row(wilks_hankel_sides, n, mom).passed
    # degenerate sanity: a point mass collapses both sides to zero
    unsigned, _ = wilks_expectation(2, point_mass(F(2, 3)))
    assert unsigned == 0 == moment_hankel_det(point_mass(F(2, 3)), 2)


def test_hermite_moment_hankel_matches_signed_wilks():
    # the moment-normalized Hermite sequence is E(X+iZ)^m, so its Hankel
    # determinant is the signed Wilks value for the Gaussian law
    for n in range(3):
        det = poly_determinant(hankel(Family.HERMITE, n))
        _, signed = wilks_expectation(n, MomentSequence.gaussian_half())
        assert det == Poly.constant(signed)


def test_turan_mutation_sensitivity():
    with perturbed("rhp", 2, 0, 1):
        r = row(turan_rhp_sides, 1, F(2))
        assert not r.passed and not r.witness.is_zero
    with perturbed("gegenbauer", 2, 2, 1):
        r = row(turan_sides, Family.GEGENBAUER, 1, F(2))
        assert not r.passed and not r.witness.is_zero
    # a non-monic H_2^N gives the n = 1 determinant an X^2 term, which
    # the witness carries
    with perturbed("rhp", 2, 2, 1):
        r = row(turan_rhp_sides, 1, F(2))
        assert not r.passed and r.witness.degree == 2
        assert r.notes == "determinant degree 2"
    assert row(turan_rhp_sides, 1, F(2)).passed
