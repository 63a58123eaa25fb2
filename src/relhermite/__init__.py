"""Exact-arithmetic construction and verification of relativistic
Hermite, Gegenbauer and classical Hermite polynomials."""

__version__ = "0.1.0"

from .numeric import (  # noqa: F401
    ConsistencyError,
    DomainError,
    Rational,
    as_param,
    pochhammer,
    rational,
    rational_str,
)
from .algebra import (  # noqa: F401
    MultiPoly,
    Poly,
    TruncSeries,
    multipoly_expectation,
)
from .families import (  # noqa: F401
    Family,
    FamilyId,
    MomentSequence,
    Normalization,
    OperatorSeries,
    apply_operator,
    family_member,
    gegenbauer_explicit,
    gegenbauer_rodrigues,
    hermite,
    rhp_explicit,
    rhp_rodrigues,
    rhp_scaled,
)
from .identities import CheckResult  # noqa: F401
