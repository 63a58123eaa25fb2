from fractions import Fraction as F
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhermite.algebra import (
    MultiPoly,
    Poly,
    SupportError,
    TruncSeries,
    horner,
    multipoly_expectation,
    naming,
    poly_divmod,
)
from relhermite.families import MomentSequence
from relhermite.numeric import ConsistencyError, DomainError

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


# (coefficients, point, the zero of their ring) over ints, over Fractions,
# and over Polys at a Poly point, where the coefficients must be Polys too
HORNER_CASES = st.one_of(
    st.tuples(st.lists(st.integers(-50, 50), max_size=7), st.integers(-9, 9), st.just(0)),
    st.tuples(st.lists(fracs, max_size=7), fracs, st.just(F(0))),
    st.tuples(st.lists(polys, min_size=1, max_size=4), polys, st.just(Poly.zero())),
)


@given(HORNER_CASES)
def test_horner_is_the_power_sum(case):
    cs, x, zero = case
    assert horner(cs, x) == sum((c * x**j for j, c in enumerate(cs)), zero)


@given(
    st.lists(st.fractions(max_denominator=50), max_size=8),
    st.one_of(st.fractions(max_denominator=50), st.integers(-9, 9)),
)
def test_evaluate_is_the_power_sum(cs, x):
    value = Poly(cs).evaluate(x)
    assert type(value) is F
    assert value == sum((c * F(x) ** j for j, c in enumerate(cs)), F(0))


def test_evaluate_returns_a_fraction():
    """A bare int would reach the / factorial(m) of an exponential
    generating function and turn into a float there."""
    assert horner((), 3) == 0 and type(horner((), 3)) is int
    assert type(Poly.zero().evaluate(3)) is F
    assert type(Poly((1,)).evaluate(2)) is F


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


def poly_from_strings(items: Sequence[str]) -> Poly:
    return Poly(tuple(F(s) for s in items))


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


def test_homogenized_examples():
    one_plus_x2 = Poly((1, 0, 1))
    x2_minus_1 = Poly((-1, 0, 1))
    # 1 + 2X^2 at n = 2: 1 * (1+X^2) + 2X^2
    assert Poly((1, 0, 2)).homogenized(2, one_plus_x2) == Poly((1, 0, 3))
    # (X+1)^2 + (X-1)^2 = 2 + 2X^2 is (X+s)^2 + (X-s)^2 = 2s^2 + 2X^2 at s = 1
    assert Poly((2, 0, 2)).homogenized(2, x2_minus_1) == Poly((-2, 0, 4))
    # X at n = 3 is X s^2, and s = i squares to -1
    assert Poly.x().homogenized(3, Poly.constant(-1)) == Poly((0, -1))
    # X^0 at n = 4 meets the square twice
    assert Poly.one().homogenized(4, one_plus_x2) == Poly((1, 0, 2, 0, 1))
    assert Poly.constant(3).homogenized(0, x2_minus_1) == Poly.constant(3)
    assert Poly.zero().homogenized(5, one_plus_x2).is_zero


def reference_homogenized(p: Poly, n: int, square: Poly) -> Poly:
    """Poly.homogenized as an accumulation loop, before it summed by
    Horner's rule: square^((n-j)/2) built from j = n downward, and c_j
    times it added in place.  For p of the parity of n and degree <= n."""
    cs = p.coeffs + (F(0),) * (n + 1 - len(p.coeffs))
    out: list = []
    power = Poly.one()
    for j in range(n, -1, -2):
        if j < n:
            power = power * square
        if cs[j]:
            out += [F(0)] * (j + len(power.coeffs) - len(out))
            for i, q in enumerate(power.coeffs, j):
                out[i] = out[i] + cs[j] * q
    return Poly(out)


# the squares of the radicals the package pairs: i, i sqrt(1-X^2),
# i sqrt(1+X^2) and sqrt(1+X^2)
SQUARES = [Poly((-1,)), Poly((-1, 0, 1)), Poly((-1, 0, -1)), Poly((1, 0, 1))]


@pytest.mark.parametrize("square", SQUARES, ids=repr)
def test_homogenized_by_horner_matches_the_accumulation_loop(square):
    for n in range(25):
        parity = range(n % 2, n + 1, 2)
        dense = Poly(F((-1) ** j * (j + 1), j + 3) if j in parity else 0 for j in range(n + 1))
        low = Poly(F(j + 2, 7) if j in parity[: len(parity) // 2] else 0 for j in range(n + 1))
        for p in (Poly.zero(), dense, low, *(Poly.monomial(j, F(5, 3)) for j in parity)):
            assert p.homogenized(n, square) == reference_homogenized(p, n, square), (n, p)


def test_homogenized_rejects_wrong_parity_and_terms_above_degree_n():
    with pytest.raises(ConsistencyError, match="^parity violation while rescaling$"):
        Poly((1, 1)).homogenized(2, Poly.one())
    with pytest.raises(ConsistencyError, match="^parity violation while rescaling$"):
        Poly.monomial(4).homogenized(3, Poly.one())
    with pytest.raises(ConsistencyError, match="^term above degree 2 in a form of degree 2$"):
        Poly((1, 0, 1, 0, 1)).homogenized(2, Poly.one())


def test_support_error_carries_the_terms_outside_the_support():
    for p, n in [(Poly((1, 0, 1, 1)), 2), (Poly.monomial(6), 3), (Poly((1, 2, 3, 4, 0, 5)), 3)]:
        for pair in (lambda: p.paired(n, lambda h: F(1)), lambda: p.homogenized(n, Poly.one())):
            with pytest.raises(SupportError, match="^parity violation while rescaling$") as err:
                pair()
            assert err.value.outside == p.off_parity(n) and not err.value.outside.is_zero
    # the wrong parity is met first; above degree n, the terms up there
    with pytest.raises(SupportError, match="^term above degree 2 in a form of degree 2$") as err:
        Poly((1, 0, 1, 0, 1, 0, F(2, 3))).homogenized(2, Poly.one())
    assert err.value.outside == Poly((0, 0, 0, 0, 1, 0, F(2, 3)))
    # naming restates the error for a member, keeping its terms
    with pytest.raises(SupportError, match=r"^C_2\^N has terms above degree 2$") as named:
        with naming("C_2^N"):
            Poly((1, 0, 1, 0, 1)).homogenized(2, Poly.one())
    assert named.value.outside == Poly.monomial(4)
    with pytest.raises(SupportError, match="^H_1 has terms of the wrong parity$") as named:
        with naming("H_1"):
            Poly((3, 1)).paired(1, lambda h: F(1))
    assert named.value.outside == Poly.constant(3)
    assert isinstance(named.value, ConsistencyError)


def _with_parity(coeffs, n):
    """The first n + 1 coefficients, those of the other parity zeroed."""
    cs = (list(coeffs) + [F(0)] * (n + 1))[: n + 1]
    return Poly(c if (n - j) % 2 == 0 else 0 for j, c in enumerate(cs))


@given(st.integers(0, 6), st.lists(fracs, max_size=7), fracs)
def test_homogenized_by_a_constant_is_paired(n, coeffs, q):
    p = _with_parity(coeffs, n)
    assert p.homogenized(n, Poly.constant(q)) == p.paired(n, lambda h: q**h)


# (square, x, s) with square(x) = s^2 at a rational s
RATIONAL_RADICALS = [
    (Poly((1, 0, 1)), F(3, 4), F(5, 4)),
    (Poly((1, 0, 1)), F(5, 12), F(13, 12)),
    (Poly((-1, 0, 1)), F(5, 3), F(4, 3)),
    (Poly((-1, 0, 1)), F(5, 4), F(3, 4)),
]


@given(st.integers(0, 8), st.lists(fracs, max_size=9), st.sampled_from(RATIONAL_RADICALS))
def test_homogenized_evaluates_the_form_at_a_rational_radical(n, coeffs, radical):
    square, x, s = radical
    assert square.evaluate(x) == s * s
    p = _with_parity(coeffs, n)
    form = sum((c * x**j * s ** (n - j) for j, c in enumerate(p.coeffs)), F(0))
    assert p.homogenized(n, square).evaluate(x) == form


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
    # a perfect-power constant term is no exception
    with pytest.raises(DomainError):
        TruncSeries((4, 1), 2).pow_fraction(F(1, 2))


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
