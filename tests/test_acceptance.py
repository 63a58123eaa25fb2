"""Acceptance criteria, one test per criterion, each printing a
pass/fail line (run with `pytest -s` to see them as they execute).

Every comparison is exact; the only tolerances are the stated runtime
budgets and the relative 1e-3 agreement of the limit witness.
"""

import time
from fractions import Fraction as F

import pytest

from relhermite.algebra import Poly
from relhermite.cli import SuiteConfig, resolve_suites, run_verify
from relhermite.families import (
    Family,
    apply_operator,
    bessel_operator_series,
    gegenbauer_explicit,
    gegenbauer_moment_gamma_gauss,
    gegenbauer_moment_studentr,
    gegenbauer_moment_uv,
    gegenbauer_rodrigues,
    hermite,
    hermite_from_moments,
    hermite_from_operator,
    hermite_limit_deviation,
    perturbed,
    rhp_explicit,
    rhp_moment_gamma_gauss,
    rhp_moment_studentr,
    rhp_moment_uv,
    rhp_normalized,
    rhp_normalized_from_operator,
    rhp_rodrigues,
    rhp_scaled,
)
from relhermite.numeric import GammaRatio, gamma_ratio_is_rational, gamma_ratio_normalize

DEFAULT_PARAMS = (F(2), F(3), F(10), F(7, 2), F(1, 3))


def _report(criterion: str, started: float) -> float:
    elapsed = time.perf_counter() - started
    print(f"criterion {criterion}: PASS ({elapsed:.2f}s)")
    return elapsed


def test_criterion_1_low_degree_tables():
    started = time.perf_counter()
    for N in (F(1), F(2), F(3), F(7, 2)):
        expected_h = [
            Poly((1,)),
            Poly((0, 2)),
            Poly((-2, 0, 2 * (2 + 1 / N))),
            Poly((0, -12 * (1 + 1 / N), 0, 4 * (1 + 1 / N) * (2 + 1 / N))),
        ]
        expected_c = [
            Poly((1,)),
            Poly((0, 2 * N)),
            Poly((-N, 0, 2 * N * (N + 1))),
            Poly((0, -2 * N * (N + 1), 0, 2 * N * (N + 1) * 2 * (N + 2) / 3)),
        ]
        for n in range(4):
            assert rhp_explicit(n, N) == expected_h[n]
            assert gegenbauer_explicit(n, N) == expected_c[n]
    assert _report("1 (example tables)", started) < 1.0


def test_criterion_2_route_agreement():
    started = time.perf_counter()
    for n in range(11):
        h = hermite(n)
        assert hermite_from_moments(n) == h
        assert hermite_from_operator(n) == h
    for N in DEFAULT_PARAMS:
        for n in range(11):
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
    # H_n^N has no pole at a half-integer N, though (N+1/2)_k vanishes there
    for N in (F(-1, 2), F(-3, 2), F(-5, 2), F(-7, 2), F(1, 2)):
        for n in range(17):
            assert rhp_explicit(n, N) == rhp_rodrigues(n, N)
    assert _report("2 (route agreement)", started) < 10.0


IDENTITY_SUITES = (
    "nagel",
    "cnix",
    "subordination-hermite",
    "subordination-gegenbauer",
    "derivative",
    "hermite-addition",
    "rhp-addition",
    "scaling",
)

SERIES_SUITES = ("genfunc-rhp", "moment-3665", "feldheim", "feldheim-rhp", "shifted-genfunc")

TURAN_SUITES = ("turan-rhp", "turan-gegenbauer", "wilks")


def _run(suites, **overrides) -> dict:
    cfg = SuiteConfig(suites=resolve_suites(list(suites)), **overrides)
    return run_verify(cfg)


def test_criterion_3_identity_suite():
    started = time.perf_counter()
    report = _run(IDENTITY_SUITES, n_max=8, params=DEFAULT_PARAMS)
    summary = report["summary"]
    assert summary["failed"] == 0
    # every exclusion must surface as an explicit skip, never as a pass
    for r in report["results"]:
        if r["skipped"]:
            assert not r["passed"] and "skipped" in r["notes"]
    assert summary["passed"] + summary["skipped"] == summary["total"]
    assert _report("3 (identity suite)", started) < 30.0


def test_criterion_4_generating_functions():
    started = time.perf_counter()
    report = _run(SERIES_SUITES, n_max=8, params=DEFAULT_PARAMS, series_order=12)
    assert report["summary"]["failed"] == 0
    assert report["summary"]["skipped"] == 0
    shifts = {
        r["params"]["k"] for r in report["results"] if r["name"] == "shifted-genfunc"
    }
    assert shifts == {0, 1, 2, 3}
    assert _report("4 (generating functions)", started) < 10.0


def test_criterion_5_turan():
    started = time.perf_counter()
    report = _run(TURAN_SUITES, n_max=8, params=DEFAULT_PARAMS)
    assert report["summary"]["failed"] == 0
    by_name = {}
    for r in report["results"]:
        by_name.setdefault(r["name"], []).append(r)
    assert {int(r["params"]["n"]) for r in by_name["turan-rhp"]} == set(range(5))
    assert {int(r["params"]["n"]) for r in by_name["wilks-studentr"]} == set(range(4))
    assert all("determinant degree 0" == r["notes"] for r in by_name["turan-rhp"])
    assert _report("5 (turan)", started) < 30.0


def test_criterion_6_limit_witness():
    started = time.perf_counter()
    near_param, far_param = F(10**4), F(10**8)
    for n in range(7):
        near = hermite_limit_deviation(n, near_param)
        far = hermite_limit_deviation(n, far_param)
        for a, b in zip(near, far):
            if a == b == 0:
                continue
            assert abs(a - b) <= F(1, 1000) * abs(b)
    _report("6 (limit witness)", started)


def test_criterion_7_mutation_sensitivity():
    started = time.perf_counter()
    small = dict(n_max=2, params=(F(2),), series_order=4)

    def assert_fails(suites):
        report = _run(suites, **small)
        failing = [r for r in report["results"] if not r["passed"] and not r["skipped"]]
        assert failing, f"perturbation left {suites} green"
        assert any(
            r["witness"] and any(w != "0" for w in r["witness"]) for r in failing
        )

    with perturbed("rhp", 2, 0, 1):
        assert_fails(IDENTITY_SUITES)
        assert_fails(SERIES_SUITES)
        assert_fails(TURAN_SUITES)
    with perturbed("gegenbauer", 2, 0, 1):
        assert_fails(IDENTITY_SUITES)
        assert_fails(SERIES_SUITES)
        assert_fails(TURAN_SUITES)
    # and the unperturbed library is green again
    report = _run(("nagel",), **small)
    assert report["summary"]["failed"] == 0
    _report("7 (mutation sensitivity)", started)


# The explicit constructions each suite builds its sides from.
SUITE_CONSTRUCTIONS = {
    "nagel": ("rhp", "gegenbauer"),
    "cnix": ("gegenbauer", "rhp"),
    "subordination-hermite": ("hermite", "rhp"),
    "subordination-gegenbauer": ("gegenbauer", "hermite"),
    "derivative": ("hermite", "gegenbauer", "rhp"),
    "hermite-addition": ("hermite",),
    "rhp-addition": ("rhp",),
    "scaling": ("hermite", "gegenbauer", "rhp"),
    "genfunc-rhp": ("rhp",),
    "feldheim-rhp": ("rhp",),
    "shifted-genfunc": ("rhp",),
    "turan-rhp": ("rhp",),
    "feldheim": ("gegenbauer",),
    "turan-gegenbauer": ("gegenbauer",),
}


@pytest.mark.parametrize(
    "suite, kind",
    [(suite, kind) for suite, kinds in SUITE_CONSTRUCTIONS.items() for kind in kinds],
)
def test_criterion_7_every_suite_fails_alone(suite, kind):
    """Every perturbation of a construction the suite uses, inside the
    expected support or outside it, fails at least one of its rows, and
    every failing row carries a witness."""
    green, unwitnessed = [], []
    for n in (2, 3):
        for index in (0, 1, 4, 5):
            with perturbed(kind, n, index, 1):
                report = _run((suite,), n_max=4, params=(F(2), F(7, 2)), series_order=6)
            failing = [r for r in report["results"] if not r["passed"] and not r["skipped"]]
            if not failing:
                green.append(f"{kind}:{n}:{index}:1")
            if any(r["witness"] is None for r in failing):
                unwitnessed.append(f"{kind}:{n}:{index}:1")
    assert not green, f"{suite} stayed green under {green}"
    assert not unwitnessed, f"{suite} failed without a witness under {unwitnessed}"


def test_criterion_8_oracle_resolutions():
    started = time.perf_counter()
    for N in (F(2), F(7, 2)):
        for n in range(5):
            # (a) operator order pinned to N - 1/2
            assert rhp_normalized_from_operator(n, N) == rhp_normalized(n, N)
            # (b) subordinated-Gaussian prefactor pinned to 2^n (N)_{n/2}
            assert rhp_moment_gamma_gauss(n, N) == rhp_scaled(n, N)
        assert apply_operator(bessel_operator_series(N + F(1, 2)), 2) != rhp_normalized(2, N)
        unpaired = GammaRatio.rising(F(1, 2), F(1, 2))
        ok, _ = gamma_ratio_is_rational(gamma_ratio_normalize(unpaired, N))
        assert not ok
    _report("8 (oracle resolutions)", started)
