from fractions import Fraction as F
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhermite.algebra import (
    MultiPoly,
    Poly,
    QuadExtPoly,
    TruncSeries,
    multipoly_expectation,
    poly_divmod,
    poly_exact_div,
)
from relhermite.families import MomentSequence
from relhermite.numeric import ConsistencyError, DomainError, rational

fracs = st.fractions(min_value=-3, max_value=3, max_denominator=5)
polys = st.lists(fracs, min_size=0, max_size=5).map(Poly)


# ---------------------------------------------------------------------------
# Poly


def test_poly_ring_examples():
    x = Poly.x()
    assert (x + Poly.one()) * (x - Poly.one()) == Poly((-1, 0, 1))
    p = Poly((F(1, 2), 3))
    assert p + Poly.zero() == p
    two_x = Poly((0, 2))
    assert two_x * two_x * two_x == Poly((0, 0, 0, 8))


def test_poly_trailing_zeros_trimmed():
    assert Poly((1, 2, 0, 0)).coeffs == (F(1), F(2))
    assert Poly((0, 0)).is_zero
    assert Poly(()).degree == -1


def test_poly_eval():
    p = Poly((-1, 0, 1))  # X^2 - 1
    assert p.evaluate(F(3, 5)) == F(-16, 25)
    assert Poly((7, 1, 4)).evaluate(F(0)) == 7


def test_poly_derivative():
    assert Poly((-2, 0, 4)).derivative() == Poly((0, 8))
    assert Poly.constant(5).derivative().is_zero
    assert Poly((0, -18, 0, 15)).derivative() == Poly((-18, 0, 45))


def test_poly_compose_linear():
    h2 = Poly((-2, 0, 4))
    assert h2.compose_linear(F(1, 2), 0) == Poly((-2, 0, 1))
    p = Poly((1, 2, 3))
    assert p.compose_linear(1, 0) == p
    c = F(5, 3)
    assert Poly((0, 0, 1)).compose_linear(0, c) == Poly.constant(c * c)
    # (X + 1)^2 at 2X - 1 is 4X^2
    assert Poly((1, 2, 1)).compose_linear(2, -1) == Poly((0, 0, 4))


def reference_compose_linear(p, alpha, beta):
    """p(alpha*X + beta) by Horner steps over Poly temporaries."""
    arg = Poly((F(beta), F(alpha)))
    acc = Poly.zero()
    for c in reversed(p.coeffs):
        acc = acc * arg + Poly.constant(c)
    return acc


@pytest.mark.parametrize(
    "alpha, beta",
    [(F(2, 3), F(-7, 5)), (F(-1), F(1, 2)), (F(3), F(4)), (F(0), F(-2, 9)), (F(5, 4), F(0))],
)
def test_compose_linear_matches_horner(alpha, beta):
    for p in (
        Poly(()),
        Poly((F(3, 7),)),
        Poly((-2, 0, 4)),
        Poly([F(j * j - 5, 2 * j + 1) for j in range(13)]),
    ):
        assert p.compose_linear(alpha, beta) == reference_compose_linear(p, alpha, beta)


@given(polys, fracs, fracs)
def test_compose_linear_matches_horner_random(p, alpha, beta):
    assert p.compose_linear(alpha, beta) == reference_compose_linear(p, alpha, beta)


@given(polys)
def test_compose_identity(p):
    assert p.compose_linear(1, 0) == p


@given(polys, polys)
def test_degree_of_product(p, q):
    if not p.is_zero and not q.is_zero:
        assert (p * q).degree == p.degree + q.degree


def test_poly_divmod_exact():
    p = Poly((-1, 0, 1))
    q = Poly((1, 1))
    quot, rem = poly_divmod(p, q)
    assert quot == Poly((-1, 1)) and rem.is_zero
    assert poly_exact_div(p, q) == quot
    with pytest.raises(ConsistencyError):
        poly_exact_div(Poly((1, 1, 1)), Poly((1, 1)))


def poly_from_strings(items: Sequence[str]) -> Poly:
    return Poly(tuple(rational(s) for s in items))


def test_poly_serialization_roundtrip():
    p = Poly((F(-2), F(0), F(5, 3)))
    assert p.to_strings() == ["-2", "0", "5/3"]
    assert poly_from_strings(p.to_strings()) == p


def test_paired_weights_every_position_of_the_parity():
    calls = []

    def weight(h):
        calls.append(h)
        return F(10) ** h

    # 3 + 5X^2 + 7X^4 at n = 2: X^j picks up 10^((2 - j)/2)
    assert Poly((3, 0, 5, 0, 7)).paired(2, weight) == Poly((30, 0, 5, 0, F(7, 10)))
    assert calls == [-1, 0, 1]
    # a zero polynomial still meets the weight at every j <= n of the parity
    calls.clear()
    assert Poly.zero().paired(3, weight).is_zero
    assert calls == [0, 1]


def test_paired_rejects_wrong_parity():
    with pytest.raises(ConsistencyError, match="^parity violation while rescaling$"):
        Poly((1, 0, 1, 1)).paired(2, lambda h: F(1))
    with pytest.raises(ConsistencyError, match="^parity violation while rescaling$"):
        Poly.monomial(6).paired(3, lambda h: F(1))
    assert Poly((1, 2, 3, 4, 0, 5)).off_parity(3) == Poly((1, 0, 3))
    assert Poly((0, 2, 0, 4)).off_parity(1).is_zero


# ---------------------------------------------------------------------------
# QuadExtPoly


def test_quadext_norm_of_conjugates():
    mod = Poly((-1, 0, 1))  # s^2 = X^2 - 1
    plus = QuadExtPoly(Poly.x(), Poly.one(), mod)
    minus = QuadExtPoly(Poly.x(), -Poly.one(), mod)
    prod = plus * minus
    assert prod.a == Poly.one() and prod.b.is_zero


def test_quadext_square_of_radical():
    mod = Poly((1, 0, 1))  # s^2 = 1 + X^2
    s = QuadExtPoly(Poly.zero(), Poly.one(), mod)
    sq = s * s
    assert sq.a == mod and sq.b.is_zero


def test_quadext_one_plus_radical_squared():
    mod = Poly((1, 0, 1))
    u = QuadExtPoly(Poly.one(), Poly.one(), mod)
    sq = u**2
    assert sq.a == Poly((2, 0, 1)) and sq.b == Poly.constant(2)


def test_quadext_modulus_mismatch():
    a = QuadExtPoly(Poly.one(), Poly.one(), Poly((1, 0, 1)))
    b = QuadExtPoly(Poly.one(), Poly.one(), Poly((-1, 0, 1)))
    with pytest.raises(ValueError):
        a * b


@given(
    st.lists(fracs, min_size=1, max_size=4),
    st.lists(fracs, min_size=1, max_size=4),
    st.sampled_from([Poly((1, 0, 1)), Poly((-1, 0, 1))]),
)
def test_quadext_conjugation_kills_radical(acoeffs, bcoeffs, mod):
    u = QuadExtPoly(Poly(acoeffs), Poly(bcoeffs), mod)
    prod = u * u.conjugate()
    assert prod.b.is_zero


# ---------------------------------------------------------------------------
# TruncSeries


def test_series_pow_binomial():
    one_plus_t = TruncSeries((1, 1), 3)
    assert one_plus_t.pow_fraction(-2).coeffs == (F(1), F(-2), F(3), F(-4))
    f = TruncSeries((1, F(1, 3), F(2, 5)), 4)
    assert f.pow_fraction(0) == TruncSeries.constant(1, 4)


def test_series_pow_even_binomial():
    f = TruncSeries((1, 0, F(1, 2)), 4)  # 1 + t^2/2
    assert f.pow_fraction(-2).coeffs == (F(1), F(0), F(-1), F(0), F(3, 4))


def test_series_pow_requires_unit_constant():
    with pytest.raises(DomainError):
        TruncSeries((0, 1), 3).pow_fraction(F(1, 2))
    with pytest.raises(DomainError):
        TruncSeries((2, 1), 3).pow_fraction(F(1, 2))
    # exact roots of perfect powers are allowed
    assert TruncSeries((4, 1), 2).pow_fraction(F(1, 2)).coeffs[0] == 2


def test_series_exp():
    t = TruncSeries((0, 1), 3)
    assert t.exp().coeffs == (F(1), F(1), F(1, 2), F(1, 6))
    assert TruncSeries.zero(4).exp() == TruncSeries.constant(1, 4)
    scaled = TruncSeries((0, F(3, 5)), 2)
    assert scaled.exp().coeffs == (F(1), F(3, 5), F(9, 50))
    with pytest.raises(DomainError):
        TruncSeries((1, 1), 2).exp()


def test_series_order_is_min():
    a = TruncSeries((1, 1, 1), 2)
    b = TruncSeries((1, 1), 5)
    assert (a * b).order == 2
    assert (a + b).order == 2


@settings(max_examples=40)
@given(st.lists(fracs, min_size=0, max_size=4), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_series_pow_inverse(tail, e):
    f = TruncSeries([F(1)] + tail, 6)
    prod = f.pow_fraction(e) * f.pow_fraction(-e)
    assert prod == TruncSeries.constant(1, 6)
    assert f.pow_fraction(1) == f


# ---------------------------------------------------------------------------
# MultiPoly


def _pair_diff_squared():
    z0 = MultiPoly.variable(0, 2)
    z1 = MultiPoly.variable(1, 2)
    d = z0 - z1
    return d * d


def test_expectation_examples():
    gauss = MomentSequence.gaussian_half()
    assert multipoly_expectation(_pair_diff_squared(), gauss) == 1
    assert multipoly_expectation(MultiPoly.constant(F(5, 7), 2), gauss) == F(5, 7)
    student = MomentSequence.student_r(2)
    assert multipoly_expectation(_pair_diff_squared(), student) == F(2, 5)


@given(fracs)
def test_expectation_linear(scale):
    gauss = MomentSequence.gaussian_half()
    m1 = _pair_diff_squared()
    m2 = MultiPoly.variable(0, 2) * MultiPoly.variable(1, 2)
    combo = MultiPoly(2, {k: scale * v for k, v in m1.terms.items()}) + m2
    assert multipoly_expectation(combo, gauss) == scale * multipoly_expectation(
        m1, gauss
    ) + multipoly_expectation(m2, gauss)
