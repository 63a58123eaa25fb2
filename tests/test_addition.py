"""The addition-theorem checks against point-by-point reference evaluators.

hermite_addition_sides and rhp_addition_sides tabulate each variable
once and carry a prefix convolution over the grid.  The references below
evaluate both sides from scratch at every grid point, as the checks did
before the tables were hoisted; on everything inside the expected
support the two must agree on verdict, witness and notes.
"""

import io
import json
from fractions import Fraction
from itertools import product

import pytest

from relhermite.algebra import Poly, SupportError
from relhermite.cli import ADDITION_VECTORS, main
from relhermite.families import HALF, hermite, perturbed, rhp_scaled
from relhermite.identities import (
    CheckResult,
    hermite_addition_sides,
    rhp_addition_sides,
    run_guarded,
)
from relhermite.numeric import (
    ConsistencyError,
    DomainError,
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
        with perturbed(kind, int(n), int(index), delta):
            verdicts = compare()
        # the perturbation reaches both checks' failure rows, not only passes
        assert any(not v.passed and not v.skipped for v in verdicts)


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
