"""The addition-theorem checks against reference evaluators.

hermite_addition_sides and rhp_addition_sides tabulate each variable
once, carry a prefix convolution over the grid and scan it over ints,
scaled by one common denominator per check.  Two kinds of reference
stand beside them:

- point-by-point evaluators, which evaluate both sides from scratch at
  every grid point, as the checks did before the tables were hoisted;
  on everything inside the expected support they must agree on
  verdict, witness and notes;
- the same tabulated scans over Fractions, as the checks were before
  they ran on ints; they must return the same sides everywhere,
  perturbed members included: notes, witness and first-mismatch point.
"""

import io
import json
from fractions import Fraction
from itertools import product
from typing import Sequence

import pytest

from relhermite.algebra import Poly, SupportError, naming
from relhermite.cli import ADDITION_VECTORS, main
from relhermite.families import HALF, hermite, perturbed, rhp_scaled
from relhermite.identities import (
    CheckResult,
    Sides,
    _m_member,
    hermite_addition_sides,
    rhp_addition_sides,
    run_guarded,
)
from relhermite.numeric import (
    ConsistencyError,
    DomainError,
    RationalLike,
    as_param,
    binomial,
    factorial,
    pochhammer,
    rational,
    rational_str,
)

F = Fraction


def row(sides, *args, **kwargs) -> CheckResult:
    """The row run_guarded builds from one sides call: a SupportError is
    the failed row with its terms as the witness, any other error is
    raised."""
    try:
        return CheckResult.from_sides("", {}, *sides(*args, **kwargs))
    except SupportError as exc:
        return CheckResult("", {}, exc.outside, str(exc))


# ---------------------------------------------------------------------------
# Point-by-point reference evaluators


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_hermite_addition(n, a):
    a = tuple(rational(v) for v in a)
    if not a or all(v == 0 for v in a):
        raise DomainError("the coefficient vector must be nonzero")
    r = len(a)
    s = sum(v * v for v in a)
    members = [hermite(m) for m in range(n + 1)]
    degree_bound = max(members[n].degree, 0)
    grid = range(n + 1)
    if len(grid) <= degree_bound:
        raise ConsistencyError("grid too small for a polynomial identity proof")

    table = [[members[m].evaluate(F(x)) for x in grid] for m in range(n + 1)]
    comps = list(_compositions(n, r))
    hn = members[n]

    first_bad = None
    for point in product(grid, repeat=r):
        y = sum(ak * xk for ak, xk in zip(a, point))
        lhs = F(0)
        for j in range(n % 2, n + 1, 2):
            c = hn.coeff(j)
            if c != 0:
                lhs += c * y**j * s ** ((n - j) // 2)
        lhs /= factorial(n)
        rhs = F(0)
        for comp in comps:
            term = F(1)
            for k, mk in enumerate(comp):
                term *= a[k] ** mk * table[mk][point[k]] / factorial(mk)
            rhs += term
        if lhs != rhs:
            first_bad = (point, lhs - rhs)
            break

    notes = f"grid {n + 1}^{r} points, per-variable degree <= {degree_bound}"
    if first_bad is None:
        return Poly.zero(), Poly.zero(), notes
    point, diff = first_bad
    return Poly.constant(diff), Poly.zero(), notes + f"; first mismatch at X={point}"


def _reference_rotated_scaled_rhp(k, M):
    scaled = rhp_scaled(k, M)
    coeffs = [F(0)] * (k + 1)
    for j in range(k % 2, k + 1, 2):
        c = scaled.coeff(j)
        if c != 0:
            coeffs[j] = c * F((-1) ** ((k - j) // 2))
    return Poly(coeffs)


def reference_rhp_addition(n, N):
    N = as_param(N)
    M = HALF - N - n
    as_param(M)
    u = [_reference_rotated_scaled_rhp(k, M) for k in range(n + 1)]
    poch = [pochhammer(2 * N + n, n - k) for k in range(n + 1)]

    x_degree = max((n - k) + 0 for k in range(n + 1))
    y_degree = max(max(p.degree, 0) for p in u)
    degree_bound = max(x_degree, y_degree, max(u[n].degree, 0))
    if n + 1 <= degree_bound:
        raise ConsistencyError("grid too small for a polynomial identity proof")

    first_bad = None
    for x in range(n + 1):
        for y in range(n + 1):
            lhs = u[n].evaluate(F(x + y))
            rhs = F(0)
            for k in range(n + 1):
                rhs += binomial(n, k) * F(-x) ** (n - k) * poch[k] * u[k].evaluate(F(y))
            if lhs != rhs:
                first_bad = ((x, y), lhs - rhs)
                break
        if first_bad:
            break

    notes = f"M={rational_str(M)}; grid {n + 1}x{n + 1}, per-variable degree <= {degree_bound}"
    if first_bad is None:
        return Poly.zero(), Poly.zero(), notes
    point, diff = first_bad
    return Poly.constant(diff), Poly.zero(), notes + f"; first mismatch at {point}"


# ---------------------------------------------------------------------------
# Equivalence inside the expected support

IN_SUPPORT = ["none", "hermite:2:0:1", "hermite:3:1:1/3", "rhp:3:1:1/2", "rhp:4:4:2"]
RHP_PARAMS = [F(2), F(7, 2), F(1, 3)]


def _same(check, reference, **params):
    got = run_guarded("addition", params, lambda: check(**params))
    want = run_guarded("addition", params, lambda: reference(**params))
    assert (got.passed, got.skipped, got.witness, got.notes) == (
        want.passed,
        want.skipped,
        want.witness,
        want.notes,
    ), params
    return want


@pytest.mark.parametrize("spec", IN_SUPPORT)
def test_hoisted_addition_matches_reference(spec):
    def compare():
        verdicts = []
        for n in range(6):
            for a in ADDITION_VECTORS:
                verdicts.append(
                    _same(hermite_addition_sides, reference_hermite_addition, n=n, a=a)
                )
            for N in RHP_PARAMS:
                verdicts.append(_same(rhp_addition_sides, reference_rhp_addition, n=n, N=N))
        return verdicts

    if spec == "none":
        verdicts = compare()
        assert all(v.passed for v in verdicts)
    else:
        kind, n, index, delta = spec.split(":")
        with perturbed(kind, int(n), int(index), Fraction(delta)):
            verdicts = compare()
        # the perturbation reaches both checks' failure rows, not only passes
        assert any(not v.passed and not v.skipped for v in verdicts)


# ---------------------------------------------------------------------------
# The scans over Fractions, kept as they were before the checks ran on ints


def fraction_hermite_addition_sides(n: int, a: Sequence[RationalLike]) -> Sides:
    """(sum a_k^2)^(n/2)/n! H_n(sum a_k X_k / sqrt(sum a_k^2)) =
    sum over compositions m of n of prod a_k^{m_k} H_{m_k}(X_k)/m_k!.

    The half powers of S = sum a_k^2 pair with the parity of H_n, so the
    left side is the polynomial L(y) = sum_j c_j S^((n-j)/2) y^j / n! at
    y = sum a_k X_k, folded once from every coefficient c_j of H_n.  The
    right side is the t^n coefficient of prod_k P_k(t),
    P_k(t) = sum_m a_k^m H_m(X_k)/m! t^m.

    Both sides are evaluated exactly on the integer grid {0..d}^r, d the
    largest degree of H_0..H_n (n unless a member is perturbed), scanned
    in itertools.product order.  The tables a_k^m H_m(x)/m! are built
    once; the scan carries the product of the first k factors, truncated
    at t^n, down to the last variable, where only its t^n coefficient is
    formed.  The sides are the difference at the first mismatch against
    zero, or both zero.
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
    # tables[k][x][m] = a_k^m H_m(x) / m!
    values = [
        [h.evaluate(Fraction(x)) / factorial(m) for m, h in enumerate(members)] for x in grid
    ]
    tables = [[[ak**m * v for m, v in enumerate(row)] for row in values] for ak in a]

    def scan(k: int, prefix: list, y: Fraction, point: tuple):
        last = k == r - 1
        for x, row in zip(grid, tables[k]):
            yx = y + a[k] * x
            if last:
                rhs = sum(prefix[n - m] * row[m] for m in range(n + 1))
                lhs = left.evaluate(yx)
                if lhs != rhs:
                    return f"X={point + (x,)}", lhs - rhs
                continue
            conv = [sum(prefix[i] * row[d - i] for i in range(d + 1)) for d in range(n + 1)]
            found = scan(k + 1, conv, yx, point + (x,))
            if found:
                return found
        return None

    first_bad = scan(0, [1] + [0] * n, Fraction(0), ())
    notes = f"grid {len(grid)}^{r} points, per-variable degree <= {degree_bound}"
    if first_bad is None:
        return Poly.zero(), Poly.zero(), notes
    where, diff = first_bad
    return Poly.constant(diff), Poly.zero(), f"{notes}; first mismatch at {where}"


def fraction_rhp_addition_sides(n: int, N: RationalLike) -> Sides:
    """Bivariate addition law for the relativistic family in the fully
    rational form

        U_n(X+Y) = sum_k C(n,k) (-X)^(n-k) (2N+n)_{n-k} U_k(Y),

    with U_k the i-rotated rescaled member at parameter M = 1/2 - N - n,
    which is the rescaling at -M times (-1)^k, built from every
    coefficient of H_k^M.

    Verified by exact evaluation on the integer grid {0..d}^2, d =
    max(n, deg U_k), which exceeds both per-variable degree bounds,
    scanned x outermost.  U_k(y) on the grid, U_n(t) for t = x + y, the
    weights C(n,k) (2N+n)_{n-k} and the powers (-x)^(n-k) are tabulated
    once, so a grid point costs n+1 products.  The sides are the
    difference at the first mismatch against zero, or both zero.
    """
    N = as_param(N)
    M = HALF - N - n
    u = [_m_member(k, M) * (-1) ** k for k in range(n + 1)]

    degree_bound = max([n] + [p.degree for p in u])
    grid = range(degree_bound + 1)
    u_at = [[p.evaluate(Fraction(y)) for y in grid] for p in u]
    lhs_at = [u[n].evaluate(Fraction(t)) for t in range(2 * degree_bound + 1)]
    weights = [binomial(n, k) * pochhammer(2 * N + n, n - k) for k in range(n + 1)]
    notes = (
        f"M={rational_str(M)}; grid {len(grid)}x{len(grid)}, "
        f"per-variable degree <= {degree_bound}"
    )
    for x in grid:
        coeffs = [w * (-x) ** (n - k) for k, w in enumerate(weights)]
        for y in grid:
            rhs = sum(c * u_at[k][y] for k, c in enumerate(coeffs))
            if lhs_at[x + y] != rhs:
                diff = Poly.constant(lhs_at[x + y] - rhs)
                return diff, Poly.zero(), f"{notes}; first mismatch at {(x, y)}"
    return Poly.zero(), Poly.zero(), notes


# vectors whose common denominator D is not 1, beside the suite's own
FRACTION_VECTORS = ADDITION_VECTORS + ((F(1, 2), F(2, 3)), (F(3, 5), F(4, 5), F(-1, 7)))
FRACTION_PARAMS = [F(2), F(7, 2), F(1, 3), F(-3, 2), F(-1), F(1, 2)]
# a rational coefficient (E != 1 for hermite, a larger Q for rhp), a
# term above degree n (K != 1 when sum a_k^2 is not 1), a wrong-parity
# term and a same-degree bump
FRACTION_SPECS = [
    "none",
    "hermite:5:5:1/7",
    "hermite:2:2:1/3",
    "hermite:3:5:1",
    "rhp:2:1:1/2",
    "rhp:4:4:2",
    "rhp:3:1:1/3",
]


def _outcome(sides, *args):
    """What one sides call returns, or the type, message and terms of what
    it raises."""
    try:
        return sides(*args)
    except (SupportError, DomainError, ConsistencyError) as exc:
        return type(exc), str(exc), getattr(exc, "outside", None)


@pytest.mark.parametrize("spec", FRACTION_SPECS)
def test_integer_scans_match_fraction_scans(spec):
    def compare():
        outcomes = []
        for n in range(7):
            for a in FRACTION_VECTORS:
                want = _outcome(fraction_hermite_addition_sides, n, a)
                assert _outcome(hermite_addition_sides, n, a) == want, (n, a)
                outcomes.append(want)
            for N in FRACTION_PARAMS:
                want = _outcome(fraction_rhp_addition_sides, n, N)
                assert _outcome(rhp_addition_sides, n, N) == want, (n, N)
                outcomes.append(want)
        return outcomes

    if spec == "none":
        outcomes = compare()
        assert all(o[0].is_zero and o[1].is_zero for o in outcomes)
    else:
        kind, n, index, delta = spec.split(":")
        with perturbed(kind, int(n), int(index), Fraction(delta)):
            outcomes = compare()
        # the perturbation reaches some row: a grid mismatch with a nonzero
        # witness, or a member outside its pairing's support
        failed = [o for o in outcomes if not isinstance(o[0], Poly) or "first mismatch" in o[2]]
        assert failed and all(o[0] is SupportError or not o[0].is_zero for o in failed)


# ---------------------------------------------------------------------------
# Out-of-support perturbations and internal inconsistencies fail, per suite


def _verify_one_suite(monkeypatch, suite, spec):
    monkeypatch.setenv("RELHERMITE_PERTURB", spec)
    out = io.StringIO()
    code = main(["verify", "--suites", suite, "--n-max", "4"], out=out)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize(
    "suite, spec",
    [
        ("rhp-addition", "rhp:3:9:1"),
        ("rhp-addition", "rhp:3:0:1"),
        ("hermite-addition", "hermite:3:5:1"),
        ("hermite-addition", "hermite:4:1:1"),
        ("subordination-gegenbauer", "hermite:3:0:1"),
        ("subordination-gegenbauer", "hermite:3:5:1"),
        ("cnix", "rhp:3:0:1"),
        ("cnix", "rhp:3:5:1"),
        ("nagel", "gegenbauer:3:0:1"),
        ("nagel", "gegenbauer:3:5:1"),
    ],
)
def test_addition_suite_fails_outside_support(monkeypatch, suite, spec):
    code, report = _verify_one_suite(monkeypatch, suite, spec)
    assert code == 1
    assert report["summary"]["failed"] > 0
    assert report["summary"]["skipped"] == 0
    failing = [r for r in report["results"] if not r["passed"]]
    assert all(r["witness"] and any(w != "0" for w in r["witness"]) for r in failing)


def test_wrong_parity_term_is_the_witness():
    with perturbed("hermite", 4, 1, 1):
        r = row(hermite_addition_sides, 4, (F(3, 5), F(4, 5)))
    assert not r.passed and r.witness == Poly((0, 1))
    assert r.notes == "H_4 has terms of the wrong parity"
    with perturbed("rhp", 3, 0, 1):
        r = row(rhp_addition_sides, 3, F(2))
    assert not r.passed and r.witness == Poly((1,))
    assert r.notes == "M=-9/2; H_3^M has terms of the wrong parity"


def test_grid_sized_from_constructed_degrees():
    with perturbed("hermite", 3, 5, 1):
        r = row(hermite_addition_sides, 4, (F(1), F(1), F(1)))
    assert not r.passed and r.notes.startswith("grid 6^3 points, per-variable degree <= 5")
    with perturbed("rhp", 3, 9, 1):
        r = row(rhp_addition_sides, 3, F(2))
    assert not r.passed and r.notes.startswith("M=-9/2; grid 10x10, per-variable degree <= 9")
