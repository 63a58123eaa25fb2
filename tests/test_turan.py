from fractions import Fraction as F

import pytest

from relhermite.algebra import Poly
from relhermite.families import Family, MomentSequence, perturbed
from relhermite.numeric import DomainError, rational
from relhermite.turan import (
    check_turan_gegenbauer,
    check_turan_rhp,
    check_wilks_hankel,
    check_wilks_studentr,
    hankel,
    moment_hankel_det,
    poly_determinant,
    turan_closed_gegenbauer,
    turan_closed_rhp,
    turan_sides,
    vandermonde_squared,
    wilks_expectation,
)

TEST_PARAMS = [F(2), F(3), F(10), F(7, 2), F(1, 3)]


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
    for N in TEST_PARAMS:
        assert turan_closed_rhp(1, N) == -1 / (2 * N + 1)
        expected = Poly((F(-1), F(0), F(1))) * (1 / (2 * N + 1))
        assert turan_closed_gegenbauer(1, N) == expected
    assert turan_closed_gegenbauer(0, F(3)) == Poly((1,))


def test_closed_form_pole():
    with pytest.raises(DomainError):
        turan_closed_rhp(1, F(1, 2))  # (N-1/2)_1 = 0


def test_turan_sides_cover_the_two_parametric_families():
    assert turan_sides(Family.RHP, 1, F(2)) == (Poly.constant(F(-1, 5)),) * 2
    with pytest.raises(ValueError, match="rhp and gegenbauer"):
        turan_sides(Family.HERMITE, 1, F(2))


@pytest.mark.parametrize("N", TEST_PARAMS)
def test_determinants_match_closed_forms(N):
    for n in range(5):
        r = check_turan_rhp(n, N)
        assert r.passed, (n, N, r.notes)
        assert "determinant degree" in r.notes
        assert check_turan_gegenbauer(n, N).passed


def test_turan_constant_asserted_by_degree():
    # the relativistic determinant check demands an actually constant
    # polynomial, not just agreement at spot values
    r = check_turan_rhp(2, F(3))
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


def test_vandermonde_squared_support():
    v = vandermonde_squared(3)
    assert all(sum(e) == 6 for e in v.terms)  # homogeneous of degree n(n+1)
    assert v.terms[(2, 2, 2)] != 0


@pytest.mark.parametrize("N", TEST_PARAMS)
def test_wilks_against_closed_and_hankel(N):
    student = MomentSequence.student_r(N)
    for n in range(4):
        assert check_wilks_studentr(n, N).passed
        assert check_wilks_hankel(n, student, "student-r").passed
    assert check_wilks_hankel(3, MomentSequence.gaussian_half(), "gaussian").passed


def test_wilks_hankel_for_every_moment_kind():
    sequences = [
        MomentSequence.gaussian_half(),
        MomentSequence.student_r(F(7, 2)),
        MomentSequence.gamma_shape(F(5, 2)),
        point_mass(F(2, 3)),
    ]
    for mom in sequences:
        for n in range(4):
            assert check_wilks_hankel(n, mom, mom.descriptor).passed
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
        r = check_turan_rhp(1, F(2))
        assert not r.passed and not r.witness.is_zero
    with perturbed("gegenbauer", 2, 2, 1):
        r = check_turan_gegenbauer(1, F(2))
        assert not r.passed and not r.witness.is_zero
    # a non-monic H_2^N gives the n = 1 determinant an X^2 term, which
    # the witness carries
    with perturbed("rhp", 2, 2, 1):
        r = check_turan_rhp(1, F(2))
        assert not r.passed and r.witness.degree == 2
        assert r.notes == "determinant degree 2"
    assert check_turan_rhp(1, F(2)).passed
