"""Input guards: each raises its own exception type and message, and the
library takes exact numbers only, never text."""

import re
from fractions import Fraction as F

import pytest

from relhermite.algebra import MultiPoly, Poly, TruncSeries, poly_divmod
from relhermite.cli import SUITES, SuiteConfig, UsageError
from relhermite.families import Family, FamilyId, MomentSequence, perturbed, rhp_explicit
from relhermite.identities import derivative_sides, shifted_genfunc_sides
from relhermite.numeric import (
    ConsistencyError,
    GammaRatio,
    as_param,
    gamma_ratio_rational_value,
    paired_gamma_moment,
    pochhammer,
    rational,
)
from relhermite.turan import hankel, poly_determinant

NOT_RATIONAL = "Gamma ratio did not reduce to a rational"

GUARDS = {
    "zero-leading": (
        lambda: Poly.zero().leading, ValueError, "zero polynomial has no leading coefficient"
    ),
    "negative-power": (
        lambda: Poly.x() ** -1, ValueError, "only nonnegative integer powers are supported"
    ),
    "divide-by-zero": (
        lambda: poly_divmod(Poly.x(), Poly.zero()),
        ZeroDivisionError,
        "polynomial division by zero",
    ),
    "series-order": (lambda: TruncSeries([1], -1), ValueError, "series order must be nonnegative"),
    "variable-count": (
        lambda: MultiPoly.variable(0, 1) + MultiPoly.variable(0, 2),
        ValueError,
        "variable count mismatch",
    ),
    "config-n-max": (lambda: SuiteConfig(n_max=-1), UsageError, "n-max must be nonnegative"),
    "config-order": (
        lambda: SuiteConfig(series_order=-1), UsageError, "order must be nonnegative"
    ),
    "config-no-params": (
        lambda: SuiteConfig(params=()), UsageError, "parameter set must be nonempty"
    ),
    "config-zero-param": (
        lambda: SuiteConfig(params=(F(1), F(0))), UsageError, "parameter set must exclude 0"
    ),
    "config-unknown-suite": (
        lambda: SuiteConfig(n_max=1, suites=("nagel", "bogus")),
        UsageError,
        "unknown suite 'bogus'; choose from: " + ", ".join(SUITES),
    ),
    "member-degree": (
        lambda: FamilyId(Family.HERMITE, -1), ValueError, "degree must be nonnegative"
    ),
    "perturbed-degree": (
        lambda: perturbed("rhp", -1, 0, 1),
        ValueError,
        "perturbed degree and index must be nonnegative",
    ),
    "moment-order": (
        lambda: MomentSequence.gaussian_half()(-1), ValueError, "moment order must be nonnegative"
    ),
    "derivative-degree": (
        lambda: derivative_sides("hermite", 0), ValueError, "derivative check needs n >= 1"
    ),
    "shift": (
        lambda: shifted_genfunc_sides(F(2), -1, F(0), 3), ValueError, "shift must be nonnegative"
    ),
    "float": (lambda: rational(0.5), TypeError, "cannot interpret 0.5 as an exact rational"),
    "pochhammer-order": (
        lambda: pochhammer(F(1), -1), ValueError, "pochhammer order must be nonnegative"
    ),
    "gamma-ratio": (
        lambda: gamma_ratio_rational_value(GammaRatio.rising(0, F(1, 2)), F(1)),
        ConsistencyError,
        NOT_RATIONAL,
    ),
    "paired-moment-parity": (
        lambda: paired_gamma_moment(F(2), 1, 0), ConsistencyError, NOT_RATIONAL
    ),
    "hankel-degree": (lambda: hankel(Family.RHP, -1, F(2)), ValueError, "n must be nonnegative"),
    "non-square": (
        lambda: poly_determinant([[Poly.one()], [Poly.one()]]),
        ValueError,
        "determinant needs a square matrix",
    ),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_input_guard_raises_its_type_and_message(guard):
    call, exc_type, message = GUARDS[guard]
    with pytest.raises(exc_type) as info:
        call()
    assert type(info.value) is exc_type
    assert str(info.value) == message


TEXT_ENTRY_POINTS = {
    "rational": rational,
    "as_param": as_param,
    "Poly": lambda text: Poly([text]),
    "TruncSeries": lambda text: TruncSeries([text], 2),
    "rhp_explicit": lambda text: rhp_explicit(2, text),
    "perturbed": lambda text: perturbed("rhp", 2, 0, text),
}


@pytest.mark.parametrize("text", ["1/2", "1e2"])
@pytest.mark.parametrize("entry", sorted(TEXT_ENTRY_POINTS))
def test_library_rejects_text_numbers(entry, text):
    # only the command line's argparse types parse text
    with pytest.raises(TypeError, match=f"^cannot interpret {re.escape(repr(text))} "):
        TEXT_ENTRY_POINTS[entry](text)
