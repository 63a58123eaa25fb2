from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relhermite.numeric import (
    ConsistencyError,
    DomainError,
    GammaArg,
    GammaRatio,
    as_param,
    gamma_ratio_is_rational,
    gamma_ratio_normalize,
    gamma_ratio_rational_value,
    nonvanishing,
    pochhammer,
    rational,
    rational_str,
    real_i_power,
)

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonzero_fracs = fracs.filter(lambda x: x != 0)


# ---------------------------------------------------------------------------
# rationals


def test_rational_serialization():
    assert rational_str(F(-1, 2)) == "-1/2"
    assert rational_str(F(3)) == "3"
    assert rational(F(7, 2)) == F(7, 2)
    assert rational(-5) == F(-5)


def test_as_param_rejects_zero():
    with pytest.raises(DomainError):
        as_param(0)
    assert as_param(F(7, 2)) == F(7, 2)
    assert as_param(F(-3)) == F(-3)


def test_nonvanishing_returns_the_value_or_names_the_factor():
    assert nonvanishing(F(3, 2), "(N)_1", F(3, 2)) == F(3, 2)
    with pytest.raises(DomainError, match=r"^\(2N\)_2 vanishes at N=-1/2$"):
        nonvanishing(F(0), "(2N)_2", F(-1, 2))


@given(fracs, fracs)
def test_rational_invariants(a, b):
    # Fraction keeps the reduced, positive-denominator canonical form
    x = a + b
    assert x.denominator > 0
    from math import gcd

    assert gcd(abs(x.numerator), x.denominator) == 1
    assert F(0).denominator == 1 and F(0).numerator == 0


# ---------------------------------------------------------------------------
# pochhammer


def test_pochhammer_examples():
    assert pochhammer(3, 2) == 12
    assert pochhammer(F(5, 7), 0) == 1
    # oracle: direct product (1/2)(3/2)(5/2)
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2) == F(15, 8)
    assert pochhammer(0, 3) == 0  # zero is a legal value


@given(fracs, st.integers(0, 6), st.integers(0, 6))
def test_pochhammer_splitting(a, j, k):
    assert pochhammer(a, j + k) == pochhammer(a, j) * pochhammer(a + j, k)


# ---------------------------------------------------------------------------
# Powers of i


def test_real_i_power():
    assert [real_i_power(k, F(3, 2)) for k in (0, 2, 4, 6, -2)] == [
        F(3, 2), F(-3, 2), F(3, 2), F(-3, 2), F(-3, 2)
    ]
    assert real_i_power(1, 0) == real_i_power(3, F(0)) == 0
    with pytest.raises(ConsistencyError, match=r"imaginary part must vanish, got 3/2i"):
        real_i_power(1, F(3, 2))
    with pytest.raises(ConsistencyError, match=r"got -3/2i"):
        real_i_power(3, F(3, 2))


# ---------------------------------------------------------------------------
# Gamma ratio normal form


def test_gamma_arg_slope_restricted():
    with pytest.raises(ValueError):
        GammaArg(3, F(0))
    GammaArg(2, F(1, 2))


def test_pochhammer_fold():
    # Gamma(N+2)/Gamma(N) -> N(N+1) at concrete N
    g = gamma_ratio_normalize(GammaRatio.rising(0, 2), F(5))
    ok, value = gamma_ratio_is_rational(g)
    assert ok and value == 5 * 6
    assert not g.numerator_args and not g.denominator_args


def test_legendre_duplication():
    # Gamma(2N)/(Gamma(N)Gamma(N+1/2)) -> 2^(2N-1) / sqrt(pi), no Gammas
    g = GammaRatio(
        numerator_args=(GammaArg(2, F(0)),),
        denominator_args=(GammaArg(1, F(0)), GammaArg(1, F(1, 2))),
    )
    n = gamma_ratio_normalize(g, F(2))
    assert not n.numerator_args and not n.denominator_args
    assert n.pow2_slope == 2 and n.pow2_offset == -1
    assert n.sqrt_pi_exponent == -1
    ok, _ = gamma_ratio_is_rational(n)
    assert not ok


def test_half_pochhammer_pairing_example():
    # (N)_{3/2} (N+3/2)_{1/2} = Gamma(N+2)/Gamma(N) = (N)_2, the n=3, k=1 case
    ratio = GammaRatio.rising(0, F(3, 2)) * GammaRatio.rising(F(3, 2), F(1, 2))
    for N in (F(2), F(7, 2), F(1, 3)):
        assert gamma_ratio_rational_value(ratio, N) == pochhammer(N, 2)


def test_unresolved_half_offset():
    g = gamma_ratio_normalize(GammaRatio.rising(0, F(1, 2)), F(2))
    ok, value = gamma_ratio_is_rational(g)
    assert not ok and value is None
    assert g.numerator_args and g.denominator_args


def test_empty_ratio_is_one():
    ok, value = gamma_ratio_is_rational(GammaRatio.one())
    assert ok and value == 1


@pytest.mark.parametrize("N", [F(2), F(3), F(10), F(7, 2), F(1, 3)])
def test_subordination_reduction_invariant(N):
    # Gamma(N+n/2)/Gamma(N) * Gamma(N+n-k)/Gamma(N+n/2) == (N)_{n-k}
    for n in range(7):
        for k in range(n // 2 + 1):
            ratio = GammaRatio.rising(0, F(n, 2)) * GammaRatio.rising(
                F(n, 2), F(n, 1) - k - F(n, 2)
            )
            assert gamma_ratio_rational_value(ratio, N) == pochhammer(N, n - k)


def test_normalize_is_idempotent():
    ratio = (
        GammaRatio.rising(0, 4, slope=2)
        * GammaRatio.rising(0, F(3, 2)).reciprocal()
        * GammaRatio.rising(F(5, 2), F(-1, 2))
    )
    once = gamma_ratio_normalize(ratio, F(7, 2))
    twice = gamma_ratio_normalize(once, F(7, 2))
    assert once == twice


def test_gamma_pole_is_reported():
    with pytest.raises(DomainError):
        gamma_ratio_normalize(GammaRatio.rising(0, 2), F(-1))
