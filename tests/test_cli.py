import ast
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from relhermite import cli
from relhermite.cli import (
    EXIT_DOMAIN,
    EXIT_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    SUITES,
    SuiteConfig,
    main,
    resolve_suites,
    run_verify,
)
from relhermite.families import perturbed, rhp_explicit


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# coeffs / eval


def test_coeffs_rhp_example():
    code, out = run_cli("coeffs", "--family", "rhp", "--n", "2", "--param", "1/1")
    assert code == EXIT_OK
    assert json.loads(out) == ["-2", "0", "6"]


def test_coeffs_hermite_example():
    code, out = run_cli("coeffs", "--family", "hermite", "--n", "1")
    assert code == EXIT_OK
    assert json.loads(out) == ["0", "2"]


def test_coeffs_gegenbauer_example():
    code, out = run_cli("coeffs", "--family", "gegenbauer", "--n", "2", "--param", "2")
    assert code == EXIT_OK
    assert json.loads(out) == ["-2", "0", "12"]


def test_coeffs_normalizations():
    code, out = run_cli(
        "coeffs", "--family", "rhp", "--n", "2", "--param", "2", "--normalization", "moment"
    )
    assert code == EXIT_OK
    assert json.loads(out) == ["-1/5", "0", "1"]
    code, out = run_cli(
        "coeffs", "--family", "rhp", "--n", "2", "--param", "2", "--normalization", "scaled"
    )
    assert json.loads(out) == ["-4", "0", "20"]


def test_coeffs_usage_errors(capsys):
    code, _ = run_cli("coeffs", "--family", "hermite", "--n", "2", "--param", "2")
    assert code == EXIT_USAGE
    code, _ = run_cli("coeffs", "--family", "rhp", "--n", "2")
    assert code == EXIT_USAGE
    code, _ = run_cli("coeffs", "--family", "rhp", "--n", "2", "--param", "0")
    assert code == EXIT_USAGE
    # the hermite family has no rescaled form
    code, _ = run_cli("coeffs", "--family", "hermite", "--n", "3", "--normalization", "scaled")
    assert code == EXIT_USAGE
    code, _ = run_cli(
        "eval", "--family", "hermite", "--n", "3", "--normalization", "scaled", "--x", "1"
    )
    assert code == EXIT_USAGE
    # malformed numbers and lists: an error line on stderr, never a traceback
    capsys.readouterr()
    for argv, message in [
        (
            ("eval", "--family", "hermite", "--n", "3", "--x", "abc"),
            "error: argument --x: not a rational: 'abc'",
        ),
        (
            ("coeffs", "--family", "rhp", "--n", "2", "--param", "1/0"),
            "error: argument --param: not a rational: '1/0'",
        ),
        (("verify", "--params=,"), "error: argument --params: empty parameter list"),
        (("coeffs", "--family", "hermite", "--n", "two"), "error: argument --n: not an integer: 'two'"),
    ]:
        assert run_cli(*argv) == (EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, argv


# each option that takes a rational, after the options its command needs
RATIONAL_OPTIONS = [
    (("coeffs", "--family", "rhp", "--n", "2"), "--param"),
    (("eval", "--family", "rhp", "--n", "2", "--x", "1"), "--param"),
    (("series", "--kind", "genfunc-rhp", "--x", "0"), "--param"),
    (("turan", "--family", "rhp", "--n", "1"), "--param"),
    (("eval", "--family", "hermite", "--n", "2"), "--x"),
    (("series", "--kind", "feldheim", "--param", "2", "--sin", "4/5"), "--cos"),
    (("series", "--kind", "feldheim", "--param", "2", "--cos", "3/5"), "--sin"),
    (("verify", "--suites", "nagel", "--n-max", "1"), "--params"),
]


@pytest.mark.parametrize(
    "argv, option", RATIONAL_OPTIONS, ids=[f"{a[0]}{o}" for a, o in RATIONAL_OPTIONS]
)
def test_bad_rational_is_rejected_by_the_parser_naming_its_option(argv, option, capsys):
    # a malformed value, and for a parameter also zero: exit 2 from the
    # parser, whose error line names the option
    bad = ["abc", "1/0", "2/x"]
    if option in ("--param", "--params"):
        bad += ["0", "-0/3"]
    if option == "--params":
        bad += ["2,0", "1,,abc"]
    for value in bad:
        assert run_cli(*argv, f"{option}={value}") == (EXIT_USAGE, ""), value
        err = capsys.readouterr().err
        assert f"error: argument {option}: " in err and "Traceback" not in err, value


# 4301 digits: one more than any part of a rational option may have
LONG_PART = "1" * 4301


@pytest.mark.parametrize(
    "argv, option",
    [
        (("eval", "--family", "hermite", "--n", "1", "--x=0.5"), "--x"),
        (("eval", "--family", "hermite", "--n", "1", "--x=1e5"), "--x"),
        (("coeffs", "--family", "rhp", "--n", "1", "--param=1_000"), "--param"),
        (("eval", "--family", "hermite", "--n", "1", f"--x=1/{LONG_PART}"), "--x"),
    ],
    ids=["decimal", "exponent", "underscore", "4301-digit-part"],
)
def test_rational_options_take_only_p_over_q(argv, option, capsys):
    assert run_cli(*argv) == (EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert f"argument {option}: not a rational" in err and "Traceback" not in err


def test_rational_parts_may_have_4300_digits():
    big = F(-int(LONG_PART[1:]), int("7" * 4300))
    code, out = run_cli("eval", "--family", "hermite", "--n", "1", f"--x= {big} ")
    assert (code, F(json.loads(out)["value"])) == (EXIT_OK, 2 * big)


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the int-to-str digit limit of CPython 3.10.7 and later for the
    block, so that the test can parse and build long exact answers."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_an_answer_of_any_size_renders():
    # the coefficients have up to about 1.7 million digits, far above the
    # interpreter's default 4300-digit limit for int-to-str conversion
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    N = F(123456789, 987654321)
    code, out = run_cli("coeffs", "--family", "rhp", "--n", "500", "--param", str(N))
    assert code == EXIT_OK
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    with unlimited_int_digits():
        assert [F(c) for c in json.loads(out)] == list(rhp_explicit(500, N).coeffs)


def test_coeffs_pole_exit():
    # H_4^N has no pole at N = -3/2; its monic form divides by (2N)_4 = 0
    argv = ("coeffs", "--family", "rhp", "--n", "4", "--param=-3/2")
    assert run_cli(*argv)[0] == EXIT_OK
    code, _ = run_cli(*argv, "--normalization", "moment")
    assert code == EXIT_DOMAIN


def test_eval_command():
    code, out = run_cli(
        "eval", "--family", "gegenbauer", "--n", "2", "--param", "2", "--x", "3/5"
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"value": "58/25"}
    code, out = run_cli(
        "eval", "--family", "hermite", "--n", "3", "--x", "1/2", "--format", "text"
    )
    assert out.strip() == "-5"


# ---------------------------------------------------------------------------
# series


def test_series_genfunc_example():
    code, out = run_cli(
        "series", "--kind", "genfunc-rhp", "--param", "2", "--x", "0", "--order", "4"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "0", "-1", "0", "3/4"]
    assert payload["equal"] is True


def test_series_order_zero():
    code, out = run_cli(
        "series", "--kind", "genfunc-rhp", "--param", "3", "--x", "1/2", "--order", "0"
    )
    assert json.loads(out)["coefficients"] == ["1"]


def test_series_feldheim_matches_family():
    code, out = run_cli(
        "series",
        "--kind", "feldheim",
        "--param", "2",
        "--cos", "3/5",
        "--sin", "4/5",
        "--order", "3",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["coefficients"] == payload["family_coefficients"]


def test_series_shifted_and_usage(capsys):
    code, out = run_cli(
        "series", "--kind", "shifted", "--param", "2", "--x", "0", "--k", "1", "--order", "5"
    )
    assert code == EXIT_OK and json.loads(out)["equal"] is True
    # every option each kind needs: omitting one is a usage error naming it
    needs = {
        "genfunc-rhp": {"--x": "1/2"},
        "feldheim": {"--cos": "3/5", "--sin": "4/5"},
        "feldheim-rhp": {"--x": "1/2"},
        "shifted": {"--x": "1/2", "--k": "1"},
    }
    assert set(needs) == set(cli.SERIES_KINDS)
    for kind, options in needs.items():
        for missing in options:
            given = [a for o, v in options.items() if o != missing for a in (o, v)]
            code, out = run_cli("series", "--kind", kind, "--param", "2", *given)
            assert code == EXIT_USAGE and out == ""
            assert missing in capsys.readouterr().err
    code, _ = run_cli(
        "series", "--kind", "genfunc-rhp", "--param", "2", "--x", "0", "--order", "-1"
    )
    assert code == EXIT_USAGE
    code, _ = run_cli("series", "--kind", "shifted", "--param", "2", "--x", "0", "--k", "-1")
    assert code == EXIT_USAGE
    code, _ = run_cli(
        "series", "--kind", "feldheim", "--param", "2", "--cos", "1/2", "--sin", "1/2"
    )
    assert code == EXIT_DOMAIN  # not on the unit circle


def test_series_rejects_options_its_kind_does_not_take(capsys):
    # each kind with what it needs plus one option it does not take, zero
    # included: a usage error naming that option, never a silent expansion
    needs = {
        "genfunc-rhp": ("--x", "1/2"),
        "feldheim": ("--cos", "3/5", "--sin", "4/5"),
        "feldheim-rhp": ("--x", "1/2"),
        "shifted": ("--x", "1/2", "--k", "1"),
    }
    assert set(needs) == set(cli.SERIES_KINDS)
    for kind, given in needs.items():
        argv = ("series", "--kind", kind, "--param", "2", "--order", "3", *given)
        assert run_cli(*argv)[0] == EXIT_OK
        for option in ("--x", "--cos", "--sin", "--k"):
            if option in given:
                continue
            assert run_cli(*argv, option, "0") == (EXIT_USAGE, ""), (kind, option)
            assert capsys.readouterr().err == f"error: {kind} takes no {option}\n"


# ---------------------------------------------------------------------------
# turan


def test_turan_examples():
    code, out = run_cli("turan", "--family", "rhp", "--n", "1", "--param", "2")
    assert code == EXIT_OK
    assert json.loads(out) == {"determinant": "-1/5", "closed_form": "-1/5", "equal": True}
    code, out = run_cli("turan", "--family", "rhp", "--n", "0", "--param", "3")
    assert json.loads(out) == {"determinant": "1", "closed_form": "1", "equal": True}
    code, out = run_cli("turan", "--family", "gegenbauer", "--n", "2", "--param", "3")
    assert json.loads(out)["equal"] is True
    code, _ = run_cli("turan", "--family", "hermite", "--n", "1", "--param", "2")
    assert code == EXIT_USAGE
    code, _ = run_cli("turan", "--family", "rhp", "--n", "-1", "--param", "2")
    assert code == EXIT_USAGE


def test_turan_pole_exit():
    # (2N)_2 = 0 at N = -1/2; at N = 1/2 the closed form has a removable
    # zero only, and the command answers
    code, _ = run_cli("turan", "--family", "rhp", "--n", "1", "--param=-1/2")
    assert code == EXIT_DOMAIN
    assert run_cli("turan", "--family", "rhp", "--n", "1", "--param", "1/2")[0] == EXIT_OK


# ---------------------------------------------------------------------------
# verify


def test_verify_nagel_example():
    code, out = run_cli(
        "verify", "--suites", "nagel", "--n-max", "4", "--params", "2,3"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["summary"] == {"total": 10, "passed": 10, "failed": 0, "skipped": 0}
    assert list(report) == ["version", "config", "results", "summary"]
    first = report["results"][0]
    assert list(first) == ["name", "params", "passed", "skipped", "witness", "notes"]


def test_verify_unknown_suite_is_usage_error(capsys):
    # the --suites type rejects the list, so argparse names the option
    for suites, error in (
        ("none", "unknown suite 'none'; choose from: all, " + ", ".join(SUITES)),
        ("", "no suites selected"),
    ):
        assert run_cli("verify", "--suites", suites) == (EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.endswith(f"relhermite verify: error: argument --suites: {error}\n")


def test_verify_defaults_are_values_not_text():
    args = cli.build_parser().parse_args(["verify"])
    assert args.params is cli.DEFAULT_PARAMS and args.suites == tuple(SUITES)
    assert SuiteConfig().params is cli.DEFAULT_PARAMS
    assert all(type(p) is F for p in cli.DEFAULT_PARAMS)


def test_verify_suite_names_may_carry_spaces():
    code, out = run_cli("verify", "--suites", "nagel, cnix", "--n-max", "1", "--params", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["config"]["suites"] == ["nagel", "cnix"]
    assert [r["name"] for r in report["results"]] == ["nagel", "nagel", "cnix", "cnix"]
    code, out = run_cli("verify", "--suites", " all ", "--n-max", "0", "--params", "2")
    assert code == EXIT_OK
    assert json.loads(out)["config"]["suites"] == list(SUITES)


def test_verify_rejects_zero_param():
    code, _ = run_cli("verify", "--suites", "nagel", "--params", "2,0")
    assert code == EXIT_USAGE
    code, _ = run_cli("verify", "--suites", "genfunc-rhp", "--order", "-1")
    assert code == EXIT_USAGE


def test_verify_reports_skips():
    # the monic member's (2N)_n vanishes at N = -3/2 for n = 4 and 5
    code, out = run_cli(
        "verify", "--suites", "subordination-hermite", "--n-max", "5", "--params=-3/2"
    )
    assert code == EXIT_OK  # skips are not failures
    report = json.loads(out)
    assert report["summary"]["skipped"] == 2
    skipped = [r for r in report["results"] if r["skipped"]]
    assert [r["params"]["n"] for r in skipped] == [4, 5]
    assert all(not r["passed"] for r in skipped)
    assert all("skipped" in r["notes"] for r in skipped)


def test_verify_output_is_byte_deterministic():
    args = ("verify", "--suites", "nagel,turan-rhp", "--n-max", "3", "--params", "2,7/2")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second


def test_verify_csv_and_text_formats():
    code, out = run_cli(
        "verify", "--suites", "nagel", "--n-max", "1", "--params", "2", "--format", "csv"
    )
    lines = out.strip().splitlines()
    assert lines[0] == "name,n,N,params,passed,skipped,witness,notes"
    assert lines[1].startswith("nagel,0,2,")
    code, out = run_cli(
        "verify", "--suites", "nagel", "--n-max", "1", "--params", "2", "--format", "text"
    )
    assert out.splitlines()[0] == "PASS nagel n=0 N=2"
    assert out.strip().splitlines()[-1] == "total=2 passed=2 failed=0 skipped=0"


@pytest.mark.parametrize(
    "argv, perturbation, expected",
    [
        (
            "coeffs --family rhp --n 3 --param 2 --format csv",
            None,
            "degree,coefficient\n0,0\n1,-18\n2,0\n3,15\n",
        ),
        ("coeffs --family rhp --n 3 --param 2 --format text", None, "0 -18 0 15\n"),
        (
            "series --kind feldheim --param 7/2 --cos 3/5 --sin 4/5 --order 3 --format csv",
            None,
            "index,coefficient,family_coefficient\n"
            "0,1,1\n1,3/5,3/5\n2,7/50,7/50\n3,3/250,3/250\n# equal=true\n",
        ),
        (
            "series --kind feldheim --param 7/2 --cos 3/5 --sin 4/5 --order 3 --format text",
            None,
            "coefficients: 1 3/5 7/50 3/250\nfamily:       1 3/5 7/50 3/250\nequal: true\n",
        ),
        (
            "turan --family gegenbauer --n 1 --param 2 --format csv",
            None,
            "determinant,closed_form,equal\n(-1/5 0 1/5),(-1/5 0 1/5),true\n",
        ),
        (
            "turan --family gegenbauer --n 1 --param 2 --format text",
            None,
            "determinant: (-1/5 0 1/5)\nclosed form: (-1/5 0 1/5)\nequal: true\n",
        ),
        (
            "verify --suites nagel --n-max 3 --params=2 --format text",
            "rhp:3:0:1",
            "PASS nagel n=0 N=2\nPASS nagel n=1 N=2\nPASS nagel n=2 N=2\n"
            "FAIL nagel n=3 N=2 witness=['1'] (H_3^N at N=2 has terms of the wrong parity)\n"
            "total=4 passed=3 failed=1 skipped=0\n",
        ),
        ("eval --family rhp --n 3 --param 2 --x 1/3 --format csv", None, "-49/9\n"),
        ("eval --family rhp --n 3 --param 2 --x 1/3 --format text", None, "-49/9\n"),
        (
            "turan --family rhp --n 2 --param 3 --format csv",
            None,
            "determinant,closed_form,equal\n-4/1029,-4/1029,true\n",
        ),
        (
            "turan --family rhp --n 2 --param 3 --format text",
            None,
            "determinant: -4/1029\nclosed form: -4/1029\nequal: true\n",
        ),
        ("coeffs --family rhp --n 3 --param 2 --format json", None, '["0", "-18", "0", "15"]\n'),
        (
            "series --kind feldheim --param 7/2 --cos 3/5 --sin 4/5 --order 3 --format json",
            None,
            '{"coefficients": ["1", "3/5", "7/50", "3/250"], '
            '"family_coefficients": ["1", "3/5", "7/50", "3/250"], "equal": true}\n',
        ),
        (
            "verify --suites nagel --n-max 3 --params=2 --format csv",
            "rhp:3:0:1",
            "name,n,N,params,passed,skipped,witness,notes\n"
            "nagel,0,2,,true,false,,\nnagel,1,2,,true,false,,\nnagel,2,2,,true,false,,\n"
            "nagel,3,2,,false,false,1,H_3^N at N=2 has terms of the wrong parity\n"
            "# total=4 passed=3 failed=1 skipped=0\n",
        ),
    ],
    ids=["coeffs-csv", "coeffs-text", "series-csv", "series-text", "turan-csv", "turan-text",
         "verify-text-fail", "eval-csv", "eval-text", "turan-scalar-csv", "turan-scalar-text",
         "coeffs-json", "series-json", "verify-csv-fail"],
)
def test_csv_and_text_output_bytes(argv, perturbation, expected, monkeypatch):
    if perturbation:
        monkeypatch.setenv("RELHERMITE_PERTURB", perturbation)
    code, out = run_cli(*argv.split())
    assert out == expected
    assert code == (EXIT_FAILED if perturbation else EXIT_OK)


def test_monic_member_meets_its_own_wrong_parity_before_its_pole(monkeypatch):
    # (2N)_3 vanishes at N = -1, but the perturbed H_3^N has a wrong-parity
    # term there, and the monic member is rescaled before it is divided
    monkeypatch.setenv("RELHERMITE_PERTURB", "rhp:3:0:1")
    code, out = run_cli(
        "verify", "--suites=feldheim-rhp,turan-rhp", "--n-max", "4", "--params=-1",
        "--order", "4", "--format", "text",
    )
    assert code == EXIT_FAILED
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 5
    assert all(
        line.endswith("witness=['1'] (H_3^N at N=-1 has terms of the wrong parity)")
        for line in failed
    )
    assert "SKIP" not in out


def test_verify_fail_fast_stops_early(monkeypatch):
    monkeypatch.setenv("RELHERMITE_PERTURB", "rhp:0:0:1")
    code, out = run_cli(
        "verify", "--suites", "nagel", "--n-max", "4", "--params", "2,3", "--fail-fast"
    )
    report = json.loads(out)
    assert code == EXIT_FAILED
    assert report["summary"]["failed"] == 1
    assert report["summary"]["total"] < 10


def test_verify_reports_inconsistency_instead_of_aborting(monkeypatch, capsys):
    # a wrong-parity term in H_3^N breaks the rescaling nagel relies on
    monkeypatch.setenv("RELHERMITE_PERTURB", "rhp:3:0:1")
    code, out = run_cli("verify", "--suites", "nagel", "--n-max", "3", "--params", "2")
    report = json.loads(out)
    assert code == EXIT_FAILED
    bad = [r for r in report["results"] if not r["passed"]]
    # the wrong-parity term is the witness, named by its member
    assert [(r["params"]["n"], r["skipped"], r["witness"], r["notes"]) for r in bad] == [
        (3, False, ["1"], "H_3^N at N=2 has terms of the wrong parity")
    ]
    # any other command reports it on stderr, without a traceback
    capsys.readouterr()
    code, out = run_cli(
        "coeffs", "--family", "rhp", "--n", "3", "--param", "2", "--normalization", "scaled"
    )
    assert (code, out) == (EXIT_FAILED, "")
    assert capsys.readouterr().err == (
        "inconsistent: H_3^N at N=2 has terms of the wrong parity\n"
    )


def test_perturbation_and_caches_last_one_command(monkeypatch):
    from relhermite import families

    argv = ["verify", "--suites", "nagel", "--n-max", "2", "--params", "2"]
    monkeypatch.setenv("RELHERMITE_PERTURB", "rhp:2:0:1")
    assert main(argv, out=io.StringIO()) == EXIT_FAILED
    monkeypatch.delenv("RELHERMITE_PERTURB")
    assert main(argv, out=io.StringIO()) == EXIT_OK
    # a caller's own perturbation holds inside main and survives it
    with families.perturbed("rhp", 2, 0, 1):
        assert main(argv, out=io.StringIO()) == EXIT_FAILED
        assert main(argv, out=io.StringIO()) == EXIT_FAILED
    assert main(argv, out=io.StringIO()) == EXIT_OK
    for build in (families._hermite, families._gegenbauer_explicit, families._rhp_walk):
        assert build.cache_info().currsize == 0


# The only functools caches that may outlive a command: each is keyed by
# no parameter (the parser by nothing, the Vandermonde expansion by its
# size, which the Wilks cap bounds).
PERSISTENT_CACHES = {"relhermite.cli.build_parser", "relhermite.turan.vandermonde_squared"}


def functools_caches() -> dict:
    """Every functools cache of the relhermite modules and their classes,
    by qualified name."""
    found = {}
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "relhermite":
            continue
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for obj in vars(owner).values():
                if callable(getattr(obj, "cache_info", None)):
                    found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_no_parameter_keyed_cache_outlives_a_command():
    # one-shot requests as the query-mix workload issues them, each with a
    # parameter no other uses, and a verify that fills the Vandermonde memo
    for argv in (
        ("coeffs", "--family", "rhp", "--n", "17", "--param", "5/3"),
        ("eval", "--family", "hermite", "--n", "21", "--x", "2/7"),
        ("turan", "--family", "gegenbauer", "--n", "4", "--param", "9/4"),
        ("turan", "--family", "rhp", "--n", "4", "--param=-5/7"),
        ("series", "--kind", "genfunc-rhp", "--param", "11/3", "--x", "1/5", "--order", "9"),
        ("verify", "--suites", "wilks,cnix", "--n-max", "3", "--params", "13/4"),
    ):
        assert run_cli(*argv)[0] == EXIT_OK
        caches = functools_caches()
        assert PERSISTENT_CACHES <= set(caches)
        assert "relhermite.families._rhp_walk" in caches
        kept = {
            name: fn.cache_info().currsize
            for name, fn in caches.items()
            if name not in PERSISTENT_CACHES and fn.cache_info().currsize
        }
        assert kept == {}, argv


def test_pole_of_the_m_member_names_the_row_and_m():
    # cnix and rhp-addition build H_k^M at M = 1/2 - N - n; at N = -1,
    # n = 2 that is M = -1/2, where H_2^M has no pole, and cnix's scalar
    # 2^n (N)_n / ((2N+n)_n n!) = (N)_1 / (2! (N+3/2)_1) = -1 has none
    # either, though (2N+n)_2 = 0: no row skips, and each names its M
    code, out = run_cli(
        "verify", "--suites", "cnix,rhp-addition", "--n-max", "3", "--params=-1",
        "--format", "text",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert not [line for line in lines if line.startswith("SKIP")]
    assert "PASS cnix n=2 N=-1 (M=-1/2)" in lines
    assert any(line.startswith("PASS rhp-addition n=2 N=-1 (M=-1/2;") for line in lines)


# integers and rationals in ASCII digits and whitespace only: int(),
# Fraction() and str.strip() alone would read an underscore, a Unicode digit
# such as U+0663 (Arabic-Indic 3), or EM SPACE (U+2003), IDEOGRAPHIC SPACE
# (U+3000) or NO-BREAK SPACE (U+00A0) around the digits
NON_ASCII_NUMBERS = [
    (("coeffs", "--family", "hermite", "--n", "1_0"), "--n"),
    (("coeffs", "--family", "hermite", "--n", "\u0663"), "--n"),
    (("eval", "--family", "hermite", "--n", "2", "--x", "\u0663"), "--x"),
    (("coeffs", "--family", "rhp", "--n", "2", "--param", "\u0663/\u0662"), "--param"),
    (("verify", "--suites", "nagel", "--n-max", "\uff13", "--params", "2"), "--n-max"),
    (("series", "--kind", "genfunc-rhp", "--param", "2", "--x", "0", "--order", "1_2"), "--order"),
    (("coeffs", "--family", "hermite", "--n", "\u20033"), "--n"),
    (("coeffs", "--family", "hermite", "--n", "3\u3000"), "--n"),
    (("coeffs", "--family", "rhp", "--n", "2", "--param", "\u00a02"), "--param"),
    (("eval", "--family", "hermite", "--n", "2", "--x", "1/3\u2003"), "--x"),
    (("verify", "--suites", "nagel", "--n-max", "1", "--params", "2,\u3000"), "--params"),
]


@pytest.mark.parametrize("argv, option", NON_ASCII_NUMBERS)
def test_non_ascii_number_is_rejected_by_the_parser(argv, option, capsys):
    assert run_cli(*argv) == (EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert f"error: argument {option}: not a" in err and "Traceback" not in err


def test_ascii_space_and_plus_sign_still_parse(monkeypatch):
    assert run_cli("coeffs", "--family", "hermite", "--n", " 2") == run_cli(
        "coeffs", "--family", "hermite", "--n", "+2"
    )
    code, out = run_cli("eval", "--family", "hermite", "--n", "2", "--x", "\t+0 ")
    assert (code, json.loads(out)["value"]) == (EXIT_OK, "-2")
    code, out = run_cli("verify", "--suites", "nagel", "--n-max", "1", "--params", " 2, ")
    assert code == EXIT_OK and json.loads(out)["config"]["params"] == ["2"]
    monkeypatch.setenv("RELHERMITE_PERTURB", "hermite: 2:+0:1")
    code, out = run_cli("coeffs", "--family", "hermite", "--n", "2")
    assert (code, json.loads(out)) == (EXIT_OK, ["-1", "0", "4"])


@pytest.mark.parametrize(
    "spec", ["rhp:1_0:0:1", "rhp:10:\u0660:1", "rhp:\u0661\u0660:0:1", "rhp:\u200310:0:1"]
)
def test_non_ascii_perturbation_is_usage_error(spec, monkeypatch, capsys):
    monkeypatch.setenv("RELHERMITE_PERTURB", spec)
    assert run_cli("coeffs", "--family", "rhp", "--n", "10", "--param", "2") == (EXIT_USAGE, "")
    assert capsys.readouterr().err == f"error: bad RELHERMITE_PERTURB value {spec!r}\n"


@pytest.mark.parametrize(
    "spec", ["rph:2:0:1", "rhp:2:-1:1", "rhp:2:-9:1", "rhp:2:0:0", "rhp:2:0:0.5", "rhp:2:0:1e5"]
)
def test_malformed_perturbation_is_usage_error(spec, monkeypatch, capsys):
    # an unknown kind or a zero delta would perturb nothing and a negative
    # index would reach a Python list index: all are rejected before any work
    monkeypatch.setenv("RELHERMITE_PERTURB", spec)
    for argv in (
        ("verify", "--suites", "nagel", "--n-max", "2", "--params", "2"),
        ("coeffs", "--family", "rhp", "--n", "2", "--param", "2"),
    ):
        assert run_cli(*argv) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == f"error: bad RELHERMITE_PERTURB value {spec!r}\n"


def test_parser_is_built_once_and_defaults_reset():
    argv = ["verify", "--suites", "nagel", "--n-max", "1", "--params", "2"]
    code, out = run_cli(*argv, "--fail-fast")
    assert code == EXIT_OK and json.loads(out)["config"]["fail_fast"] is True
    code, out = run_cli(*argv)
    assert code == EXIT_OK and json.loads(out)["config"]["fail_fast"] is False
    assert cli.build_parser() is cli.build_parser()


def test_mutated_build_fails_suite_via_subprocess():
    env = dict(os.environ, RELHERMITE_PERTURB="rhp:2:0:1")
    proc = subprocess.run(
        [sys.executable, "-m", "relhermite.cli", "verify", "--suites", "nagel",
         "--n-max", "2", "--params", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_FAILED
    report = json.loads(proc.stdout)
    bad = [r for r in report["results"] if not r["passed"]]
    assert bad and all(r["witness"] for r in bad)


def test_package_runs_as_a_module():
    # `python -m relhermite` goes through __main__.py, not cli.py
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("RELHERMITE_PERTURB", None)

    def run(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "relhermite", *argv], capture_output=True, text=True, env=env
        )
        return proc.returncode, proc.stdout, proc.stderr

    assert run("--version") == (EXIT_OK, "0.1.0\n", "")
    argv = ("verify", "--suites", "nagel", "--n-max", "0", "--params", "2", "--format", "text")
    assert run(*argv) == (
        EXIT_OK, "PASS nagel n=0 N=2\ntotal=1 passed=1 failed=0 skipped=0\n", ""
    )


def test_run_verify_covers_every_suite_quickly():
    cfg = SuiteConfig(n_max=2, params=(2,), series_order=4, suites=resolve_suites(["all"]))
    report = run_verify(cfg)
    assert report["summary"]["failed"] == 0
    names = {r["name"] for r in report["results"]}
    # every registered suite contributed at least one check
    assert set(SUITES) - {"wilks"} <= names
    assert {"wilks-studentr", "wilks-hankel"} <= names


def test_every_row_carries_the_axes_of_its_suite_row():
    # PASS and SKIP rows alike take their name and params from SUITES:
    # the params keys of each row are the axes of its suite row, in order
    code, out = run_cli("verify", "--suites", "all", "--n-max", "3", "--params=-1/2,-1,2")
    results = json.loads(out)["results"]
    assert code == EXIT_OK
    assert any(r["passed"] for r in results) and any(r["skipped"] for r in results)
    cfg = SuiteConfig(n_max=3, params=(F(-1, 2), F(-1), F(2)), suites=resolve_suites(["all"]))
    expected = [
        (name, list(axes))
        for suite in cfg.suites
        for name, _, axes_of in SUITES[suite]
        for axes in [axes_of(cfg)]
        for _ in product(*axes.values())
    ]
    assert [(r["name"], list(r["params"])) for r in results] == expected


def test_version_flag():
    code, out = run_cli("--version")
    assert code == EXIT_OK
    assert out == "0.1.0\n"


def test_help_and_version_write_to_out_only(capsys):
    code, out = run_cli("--help")
    assert code == EXIT_OK
    assert out.startswith("usage: relhermite")
    code, out = run_cli("verify", "--help")
    assert code == EXIT_OK
    assert out.startswith("usage: relhermite verify")
    run_cli("--version")
    assert capsys.readouterr() == ("", "")
    # argparse errors stay on stderr
    assert run_cli("--nonsense") == (EXIT_USAGE, "")
    captured = capsys.readouterr()
    assert captured.out == "" and "relhermite: error:" in captured.err


# sha256 of what `relhermite verify --format F` writes to stdout with default
# flags (801 checks).  This is the refactor oracle: any change to it is a
# change to the canonical report and must be deliberate.
REPORT_SHA256 = {
    "json": "a591eacfa5f8ee068e694e2391fa2a535dbb8ea06c8ab08c5c0c6a71fe45d865",
    "csv": "516ca39110099fc37086967c5441ff63f0ae869af8d0a65c5c6e93f0b7166817",
    "text": "73f73df7e072739883895118d4dedc4d64ee5d9e391d34b7dc448453e0c78993",
}


@pytest.fixture(scope="module")
def default_verify():
    cfg = SuiteConfig(suites=resolve_suites(["all"]))
    return cfg, run_verify(cfg)


@pytest.mark.parametrize("fmt", sorted(REPORT_SHA256))
def test_verify_report_oracle(fmt, default_verify, monkeypatch):
    cfg, report = default_verify

    def cached_run(got):
        assert got == cfg  # `verify` with default flags builds the default grid
        return report

    # one default run, formatted by the unchanged `verify` command path
    monkeypatch.setattr(cli, "run_verify", cached_run)
    code, out = run_cli("verify", "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[fmt]


# The same for `verify --params=<EDGE_PARAMS>` (1095 checks): the half-integer
# and negative integer N where a factor of some check vanishes.  This pins
# the SKIP rows and their notes, so every pole a check reports is pinned.
EDGE_PARAMS = "-1,-1/2,-3/2,1/2,-7/2,-1/3,-5/2"
EDGE_REPORT_SHA256 = {
    "json": "47e44d733bba9eb1bb5c7068e51f0fff1f2d724277ec14a117f6e8ab4c484ccb",
    "csv": "d450e2ffbc208fc7f3f259bc69b3a75e5178cd2e6ad28017a6c29dccb6e8fb65",
    "text": "580fa059d04bdb14ba29ec27d8877d8fe12d1c3c345d0f61e5a8754d3c43fec1",
}


@pytest.fixture(scope="module")
def edge_verify():
    params = tuple(F(p) for p in EDGE_PARAMS.split(","))
    cfg = SuiteConfig(params=params, suites=resolve_suites(["all"]))
    return cfg, run_verify(cfg)


@pytest.mark.parametrize("fmt", sorted(EDGE_REPORT_SHA256))
def test_verify_edge_grid_oracle(fmt, edge_verify, monkeypatch):
    cfg, report = edge_verify
    assert report["summary"] == {"total": 1095, "passed": 1020, "failed": 0, "skipped": 75}

    def cached_run(got):
        assert got == cfg
        return report

    monkeypatch.setattr(cli, "run_verify", cached_run)
    code, out = run_cli("verify", f"--params={EDGE_PARAMS}", "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == EDGE_REPORT_SHA256[fmt]


# The rows at N = -1 that skipped while the monic members divided by
# (2N)_n, which vanishes there for n >= 3 (n >= 2 in the Turán sides).
MONIC_AT_MINUS_ONE = ("subordination-hermite", "turan-rhp", "turan-gegenbauer", "feldheim-rhp")


def test_monic_members_at_N_minus_1_pass_and_carry_a_perturbation():
    report = run_verify(SuiteConfig(params=(F(-1),), suites=MONIC_AT_MINUS_ONE))
    assert report["summary"] == {"total": 21, "passed": 21, "failed": 0, "skipped": 0}
    # the subordination rows read H_n as well: a perturbed H_n fails each
    for n in range(3, 9):
        with perturbed("hermite", n, 0, 1):
            (result,) = run_verify(
                SuiteConfig(n_max=n, params=(F(-1),), suites=("subordination-hermite",))
            )["results"][n:]
        assert not result["passed"] and not result["skipped"] and result["witness"], n


def test_traced_names_resolve():
    # perfbench/tracer.py patches these names; a refactor that drops one
    # silences its layer of the trace
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    from relhermite import algebra, families, numeric, turan

    for module, names in (
        (families, tracer.FAMILY_FUNCS),
        (algebra, tracer.ALGEBRA_FUNCS),
        (numeric, tracer.NUMERIC_FUNCS),
        (turan, tracer.TURAN_FUNCS),
    ):
        for name in names:
            assert callable(getattr(module, name)), (module.__name__, name)
    for cls_name, meth in tracer.ALGEBRA_METHODS:
        assert callable(getattr(algebra, cls_name).__dict__[meth]), (cls_name, meth)
    # the tracer also patches these two directly
    from relhermite import identities

    assert callable(identities.run_guarded) and callable(cli.main)
    # perfbench/kernels.py times these package names, read from its imports
    kernels = Path(__file__).resolve().parents[1] / "perfbench" / "kernels.py"
    imported = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(kernels.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("relhermite")
        for alias in node.names
    ]
    assert len(imported) >= 8
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)


# ---------------------------------------------------------------------------
# Memory budget: the tracemalloc peak of a benchmark workload's command
# stream, run through cli.main.  A cache or table that a change adds to
# every command shows here before it shows in the benchmark's peak RSS.  tracemalloc sees
# Python allocations only, not arena fragmentation, so this guards the
# benchmark and does not replace it.
#
# Budgets in MiB per interpreter minor version.  Measured peaks, after one
# warm-up request, on CPython 3.10.13 / 3.11.7 / 3.12.1 / 3.13.0 (x86-64
# Linux), each workload in a fresh process: query-mix seed 3 0.15 / 0.11 /
# 0.11 / 0.10, the default verify 2.38 / 2.17 / 2.04 / 1.43, verify-deep
# seed 3 4.17 / 4.05 / 3.84 / 3.13.  A verify-deep that rendered its answer
# before clearing the construction caches read 5.52 on 3.11.
PEAK_BUDGET_MIB = {
    "query-mix": {(3, 10): 0.4, (3, 11): 0.4, (3, 12): 0.4, (3, 13): 0.4},
    "verify-default": {(3, 10): 3.5, (3, 11): 3.25, (3, 12): 3.0, (3, 13): 2.0},
    "verify-deep": {(3, 10): 5.0, (3, 11): 5.0, (3, 12): 4.75, (3, 13): 4.0},
}


def perfbench_workloads():
    """perfbench/workloads.py, read by path; nothing under perfbench/ is
    imported as a package or changed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("workload", sorted(PEAK_BUDGET_MIB))
def test_traced_memory_peak_within_budget(workload):
    budgets = PEAK_BUDGET_MIB[workload]
    budget = budgets.get(sys.version_info[:2], max(budgets.values()))
    argvs = perfbench_workloads().argvs(workload, 3)
    # the first command builds the parser, which lives for the process
    assert run_cli("coeffs", "--family", "hermite", "--n", "1")[0] == EXIT_OK
    gc.collect()
    tracemalloc.start()
    try:
        peak, peak_argv = 0, None
        for argv in argvs:
            assert run_cli(*argv)[0] == EXIT_OK, argv
            now = tracemalloc.get_traced_memory()[1]
            if now > peak:
                peak, peak_argv = now, argv
        top = tracemalloc.take_snapshot().statistics("lineno")[:10] if peak > budget * 2**20 else []
    finally:
        tracemalloc.stop()
    sites = "\n".join(str(stat) for stat in top)
    assert peak <= budget * 2**20, (
        f"{workload}: tracemalloc peak {peak / 2**20:.3f} MiB over its {budget} MiB budget, "
        f"last raised by {peak_argv}; the top ten allocation sites at the end:\n{sites}"
    )
