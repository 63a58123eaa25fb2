"""Command-line surface: construct, evaluate, expand, verify.

Commands: coeffs, eval, series, turan, verify.  Each command returns an
Answer: its JSON payload (canonical), CSV rows (flattened params) and
text, with its exit code.  main renders the Answer once for --format and
is the only writer to the output stream, --help and --version included;
output is byte-deterministic for fixed inputs.  Exit codes: 0 all
pass, 1 identity failure or internal inconsistency, 2 usage error, 3
mathematical precondition violated (pole or degenerate parameter).

The argparse types below are the one text parser, for rationals,
integers and the suite list: a bad value exits 2 with an error that
names its option ("argument --x: not a rational: 'abc'").  UsageError
is left for options that do not fit together, a bad RELHERMITE_PERTURB
and a bad SuiteConfig, such as a library caller's unknown suite.

One call of main is one command: the memoized family constructions and
the RELHERMITE_PERTURB perturbation last until it returns.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain, count, product
from typing import Callable, Iterator, Optional, Sequence, Tuple

from . import __version__
from .algebra import Poly
from .families import (
    Family,
    FamilyId,
    MomentSequence,
    Normalization,
    clear_construction_caches,
    family_member,
    perturbed,
)
from .identities import (
    CheckResult,
    Sides,
    cnix_sides,
    derivative_sides,
    feldheim_rhp_sides,
    feldheim_sides,
    genfunc_rhp_sides,
    hermite_addition_sides,
    moment_3665_sides,
    nagel_sides,
    rhp_addition_sides,
    run_guarded,
    scaling_sides,
    shifted_genfunc_sides,
    subordination_gegenbauer_sides,
    subordination_hermite_sides,
)
from .numeric import ConsistencyError, DomainError, rational_str
from .turan import (
    WILKS_MAX_N,
    turan_rhp_sides,
    turan_sides,
    wilks_hankel_sides,
    wilks_studentr_sides,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

DEFAULT_PARAMS = (Fraction(2), Fraction(3), Fraction(10), Fraction(7, 2), Fraction(1, 3))
DEFAULT_N_MAX = 8
DEFAULT_SERIES_ORDER = 12


class UsageError(ValueError):
    pass


# An integer: [sign]digits, ASCII whitespace around, at most 4300 ASCII
# digits (CPython's default int string limit); a rational adds [/digits].
# Each is matched before int() or Fraction(), which take Unicode digits,
# Unicode whitespace and _; a --params item is blank only in ASCII too.
_INTEGER = re.compile(r"\s*[+-]?[0-9]{1,4300}\s*", re.ASCII)
_RATIONAL = re.compile(r"\s*[+-]?[0-9]{1,4300}(/[0-9]{1,4300})?\s*", re.ASCII)
_BLANK = re.compile(r"\s*", re.ASCII)


def _rational(text: str) -> Fraction:
    if _RATIONAL.fullmatch(text):
        with contextlib.suppress(ZeroDivisionError):
            return Fraction(text)
    raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _param(text: str) -> Fraction:
    value = _rational(text)
    if value == 0:
        raise argparse.ArgumentTypeError("parameter N must be nonzero")
    return value


def _param_list(text: str) -> Tuple[Fraction, ...]:
    items = [t for t in text.split(",") if not _BLANK.fullmatch(t)]
    if not items:
        raise argparse.ArgumentTypeError("empty parameter list")
    return tuple(_param(t) for t in items)


def _nonnegative_int(text: str) -> int:
    """argparse type for counts and degrees: a nonnegative integer."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


# ---------------------------------------------------------------------------
# Suite configuration and table


@dataclass(frozen=True)
class SuiteConfig:
    """Grid over which the verification suites run; every field comes
    from the command line."""

    n_max: int = DEFAULT_N_MAX
    params: Tuple[Fraction, ...] = DEFAULT_PARAMS
    series_order: int = DEFAULT_SERIES_ORDER
    suites: Tuple[str, ...] = ()
    fail_fast: bool = False

    def __post_init__(self):
        if self.n_max < 0:
            raise UsageError("n-max must be nonnegative")
        if self.series_order < 0:
            raise UsageError("order must be nonnegative")
        if not self.params:
            raise UsageError("parameter set must be nonempty")
        if any(p == 0 for p in self.params):
            raise UsageError("parameter set must exclude 0")
        for name in self.suites:
            if name not in SUITES:
                raise UsageError(f"unknown suite {name!r}; choose from: " + ", ".join(SUITES))


# Auxiliary grid points, fixed so that runs are reproducible.
SCALE_FACTORS = (Fraction(1), Fraction(1, 2), Fraction(2, 3))
ADDITION_VECTORS = (
    (Fraction(1),),
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(1), Fraction(1), Fraction(1)),
)
SERIES_POINTS = (Fraction(0), Fraction(1, 2))
FELDHEIM_POINT = (Fraction(3, 5), Fraction(4, 5))
SHIFT_MAX = 3
TURAN_N_MAX = 4

# One row of a suite: the check name, its sides function, and a function
# from the config to the row's axes {name: values}.  Each axis name is
# both the keyword the sides function takes and the key the row carries
# in the report params; run_guarded builds the row from these alone.
# Row order and axis order fix the order of the results in the report.
Axes = Callable[[SuiteConfig], dict]
Row = Tuple[str, Callable[..., Sides], Axes]


def _axes(**spec) -> Axes:
    """Axes whose values are fixed tuples or functions of the config."""
    return lambda cfg: {k: v(cfg) if callable(v) else v for k, v in spec.items()}


def _degrees(low: int = 0, top: Optional[int] = None) -> Callable[[SuiteConfig], range]:
    """n from low up to n_max, capped at top."""
    return lambda cfg: range(low, (cfg.n_max if top is None else min(cfg.n_max, top)) + 1)


def _params(cfg: SuiteConfig) -> Tuple[Fraction, ...]:
    return cfg.params


def _order(cfg: SuiteConfig) -> Tuple[int]:
    return (cfg.series_order,)


def _moments(cfg: SuiteConfig) -> Tuple[MomentSequence, ...]:
    return (MomentSequence.gaussian_half(), *map(MomentSequence.student_r, cfg.params))


def _n_by_N(top: Optional[int] = None) -> Axes:
    return _axes(n=_degrees(top=top), N=_params)


_SERIES = _axes(N=_params, x=SERIES_POINTS, order=_order)
_HERMITE = ("hermite",)
_PARAMETRIC = ("gegenbauer", "rhp")

SUITES: dict[str, Tuple[Row, ...]] = {
    "nagel": (("nagel", nagel_sides, _n_by_N()),),
    "cnix": (("cnix", cnix_sides, _n_by_N()),),
    "subordination-hermite": (("subordination-hermite", subordination_hermite_sides, _n_by_N()),),
    "subordination-gegenbauer": (
        ("subordination-gegenbauer", subordination_gegenbauer_sides, _n_by_N()),
    ),
    "derivative": (
        ("derivative", derivative_sides, _axes(family=_HERMITE, n=_degrees(1))),
        ("derivative", derivative_sides, _axes(family=_PARAMETRIC, n=_degrees(1), N=_params)),
    ),
    "hermite-addition": (
        ("hermite-addition", hermite_addition_sides, _axes(n=_degrees(), a=ADDITION_VECTORS)),
    ),
    "rhp-addition": (("rhp-addition", rhp_addition_sides, _n_by_N()),),
    "scaling": (
        ("scaling", scaling_sides, _axes(family=_HERMITE, n=_degrees(), c=SCALE_FACTORS)),
        (
            "scaling",
            scaling_sides,
            _axes(family=_PARAMETRIC, n=_degrees(), N=_params, c=SCALE_FACTORS),
        ),
    ),
    "genfunc-rhp": (("genfunc-rhp", genfunc_rhp_sides, _SERIES),),
    "moment-3665": (
        ("moment-3665", moment_3665_sides, _axes(N=_params, a=(Fraction(1),), order=_order)),
    ),
    "feldheim": (
        (
            "feldheim",
            feldheim_sides,
            _axes(N=_params, cos=FELDHEIM_POINT[:1], sin=FELDHEIM_POINT[1:], order=_order),
        ),
    ),
    "feldheim-rhp": (("feldheim-rhp", feldheim_rhp_sides, _SERIES),),
    "shifted-genfunc": (
        (
            "shifted-genfunc",
            shifted_genfunc_sides,
            _axes(N=_params, k=range(SHIFT_MAX + 1), x=SERIES_POINTS, order=_order),
        ),
    ),
    "turan-rhp": (("turan-rhp", turan_rhp_sides, _n_by_N(TURAN_N_MAX)),),
    "turan-gegenbauer": (
        ("turan-gegenbauer", partial(turan_sides, Family.GEGENBAUER), _n_by_N(TURAN_N_MAX)),
    ),
    "wilks": (
        ("wilks-studentr", wilks_studentr_sides, _n_by_N(WILKS_MAX_N)),
        ("wilks-hankel", wilks_hankel_sides, _axes(n=_degrees(top=WILKS_MAX_N), moments=_moments)),
    ),
}


def _run_suite(suite: str, cfg: SuiteConfig) -> Iterator[CheckResult]:
    """Run each row of a suite over the product of its axes, outermost
    axis first.  run_guarded is looked up at call time so that it can be
    wrapped from outside."""
    for name, check, axes_of in SUITES[suite]:
        axes = axes_of(cfg)
        for values in product(*axes.values()):
            params = dict(zip(axes, values))
            yield run_guarded(name, params, partial(check, **params))


def resolve_suites(names: Sequence[str]) -> Tuple[str, ...]:
    """The named suites in order, each once; "all" adds every suite."""
    resolved: dict[str, None] = {}
    for name in names:
        if name != "all" and name not in SUITES:
            raise argparse.ArgumentTypeError(
                f"unknown suite {name!r}; choose from: all, " + ", ".join(SUITES)
            )
        resolved.update(dict.fromkeys(SUITES if name == "all" else (name,)))
    if not resolved:
        raise argparse.ArgumentTypeError("no suites selected")
    return tuple(resolved)


def _suites(text: str) -> Tuple[str, ...]:
    return resolve_suites([s.strip() for s in text.split(",") if s.strip()])


def run_verify(cfg: SuiteConfig) -> dict:
    """Run the configured suites and assemble the canonical report."""
    results: list[CheckResult] = []
    for result in chain.from_iterable(_run_suite(s, cfg) for s in cfg.suites):
        results.append(result)
        if cfg.fail_fast and not result.passed and not result.skipped:
            break
    passed = sum(1 for r in results if r.passed)
    skipped = sum(1 for r in results if r.skipped)
    failed = len(results) - passed - skipped
    return {
        "version": __version__,
        "config": {
            "n_max": cfg.n_max,
            "params": [rational_str(p) for p in cfg.params],
            "series_order": cfg.series_order,
            "suites": list(cfg.suites),
            "fail_fast": cfg.fail_fast,
        },
        "results": [r.to_json_dict() for r in results],
        "summary": {
            "total": len(results),
            "passed": passed,
            "failed": failed,
            "skipped": skipped,
        },
    }


# ---------------------------------------------------------------------------
# Output


@dataclass(frozen=True)
class Answer:
    """What one command computed, in each output format: the JSON
    payload, the CSV rows (each a sequence of cells) and the text, plus
    the exit code.  main renders it once, for --format."""

    payload: object
    rows: Sequence[Sequence]
    text: str
    code: int = EXIT_OK
    indent: Optional[int] = None

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.payload, indent=self.indent)
        if fmt == "csv":
            return "\n".join(",".join(_csv_cell(_flat(c)) for c in row) for row in self.rows)
        return self.text


def _flat(value) -> str:
    """One cell or field: a list in parentheses, a boolean in lower case."""
    if isinstance(value, list):
        return "(" + " ".join(str(v) for v in value) + ")"
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def _csv_cell(value: str) -> str:
    if any(ch in value for ch in ",\"\n"):
        return '"' + value.replace('"', '""') + '"'
    return value


# ---------------------------------------------------------------------------
# Commands


def _family_id(args) -> FamilyId:
    try:
        return FamilyId(Family(args.family), args.n, args.param, Normalization(args.normalization))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_coeffs(args) -> Answer:
    strings = family_member(_family_id(args)).to_strings()
    rows = [("degree", "coefficient"), *enumerate(strings)]
    return Answer(strings, rows, " ".join(strings) or "0")


def cmd_eval(args) -> Answer:
    member = family_member(_family_id(args))
    value = rational_str(member.evaluate(args.x))
    return Answer({"value": value}, [(value,)], value)


# series --kind: the sides function it prints, and which of --x, --cos,
# --sin and --k those sides take besides --param and --order; a kind
# rejects the others.
SERIES_KINDS = {
    "genfunc-rhp": (genfunc_rhp_sides, ("x",)),
    "feldheim": (feldheim_sides, ("cos", "sin")),
    "feldheim-rhp": (feldheim_rhp_sides, ("x",)),
    "shifted": (shifted_genfunc_sides, ("x", "k")),
}


def cmd_series(args) -> Answer:
    sides, options = SERIES_KINDS[args.kind]
    given = {o: getattr(args, o) for o in options}
    missing = [f"--{o}" for o, v in given.items() if v is None]
    if missing:
        raise UsageError(f"{args.kind} requires " + " and ".join(missing))
    extra = [o for o in ("x", "cos", "sin", "k") if o not in options and vars(args)[o] is not None]
    if extra:
        raise UsageError(f"{args.kind} takes no --" + " or --".join(extra))
    family, closed = sides(N=args.param, order=args.order, **given)
    coefficients, family_coefficients = closed.to_strings(), family.to_strings()
    equal = closed == family
    return Answer(
        {"coefficients": coefficients, "family_coefficients": family_coefficients, "equal": equal},
        [
            ("index", "coefficient", "family_coefficient"),
            *zip(count(), coefficients, family_coefficients),
            (f"# equal={_flat(equal)}",),
        ],
        f"coefficients: {' '.join(coefficients)}\n"
        f"family:       {' '.join(family_coefficients)}\n"
        f"equal: {_flat(equal)}",
    )


def _poly_payload(p: Poly):
    if p.degree <= 0:
        return rational_str(p.coeff(0))
    return p.to_strings()


def cmd_turan(args) -> Answer:
    det, closed = turan_sides(Family(args.family), args.n, args.param)
    header = ("determinant", "closed_form", "equal")
    cells = (_poly_payload(det), _poly_payload(closed), det == closed)
    return Answer(
        dict(zip(header, cells)),
        [header, cells],
        "determinant: {}\nclosed form: {}\nequal: {}".format(*map(_flat, cells)),
    )


def cmd_verify(args) -> Answer:
    cfg = SuiteConfig(
        n_max=args.n_max,
        params=args.params,
        series_order=args.order,
        suites=args.suites,
        fail_fast=args.fail_fast,
    )
    report = run_verify(cfg)
    rows = [("name", "n", "N", "params", "passed", "skipped", "witness", "notes")]
    lines = []
    for r in report["results"]:
        params = dict(r["params"])
        status = "SKIP" if r["skipped"] else ("PASS" if r["passed"] else "FAIL")
        line = f"{status} {r['name']} " + " ".join(f"{k}={_flat(v)}" for k, v in params.items())
        if r["witness"]:
            line += f" witness={r['witness']}"
        if r["notes"]:
            line += f" ({r['notes']})"
        lines.append(line)
        n, big_n = params.pop("n", ""), params.pop("N", "")
        extra = ";".join(f"{k}={_flat(v)}" for k, v in params.items())
        witness = " ".join(r["witness"] or ())
        rows.append((r["name"], n, big_n, extra, r["passed"], r["skipped"], witness, r["notes"]))
    totals = " ".join(f"{k}={v}" for k, v in report["summary"].items())
    rows.append((f"# {totals}",))
    lines.append(totals)
    code = EXIT_OK if report["summary"]["failed"] == 0 else EXIT_FAILED
    return Answer(report, rows, "\n".join(lines), code, indent=2)


# ---------------------------------------------------------------------------
# Parser and entry point


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused:
    parse_args starts every call from the defaults."""
    parser = argparse.ArgumentParser(
        prog="relhermite",
        description=(
            "Exact construction and verification of relativistic Hermite, "
            "Gegenbauer and Hermite polynomial identities."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="json", help="output format"
        )

    for name, func, summary in (
        ("coeffs", cmd_coeffs, "print the coefficients of one family member"),
        ("eval", cmd_eval, "evaluate one family member at a rational point"),
    ):
        member = sub.add_parser(name, help=summary)
        member.add_argument("--family", choices=[f.value for f in Family], required=True)
        member.add_argument("--n", type=_nonnegative_int, required=True, help="degree")
        member.add_argument("--param", type=_param, help="parameter N as p/q (not for hermite)")
        member.add_argument(
            "--normalization", choices=[m.value for m in Normalization], default="raw"
        )
        if name == "eval":
            member.add_argument(
                "--x", type=_rational, required=True, help="evaluation point as p/q"
            )
        add_format(member)
        member.set_defaults(func=func)

    series = sub.add_parser("series", help="expand a generating function")
    series.add_argument("--kind", choices=tuple(SERIES_KINDS), required=True)
    series.add_argument("--param", type=_param, required=True, help="parameter N as p/q")
    series.add_argument("--x", type=_rational, help="evaluation point")
    series.add_argument("--cos", type=_rational, help="cosine of the angle (feldheim)")
    series.add_argument("--sin", type=_rational, help="sine of the angle (feldheim)")
    series.add_argument("--k", type=_nonnegative_int, help="shift (shifted kind)")
    series.add_argument("--order", type=_nonnegative_int, default=DEFAULT_SERIES_ORDER)
    add_format(series)
    series.set_defaults(func=cmd_series)

    turan = sub.add_parser("turan", help="Hankel determinant against its closed form")
    turan.add_argument("--family", choices=("rhp", "gegenbauer"), required=True)
    turan.add_argument("--n", type=_nonnegative_int, required=True)
    turan.add_argument("--param", type=_param, required=True)
    add_format(turan)
    turan.set_defaults(func=cmd_turan)

    verify = sub.add_parser("verify", help="run identity suites over an (n, N) grid")
    verify.add_argument(
        "--suites",
        type=_suites,
        default=tuple(SUITES),
        help="comma-separated suite names, or 'all' (default)",
    )
    verify.add_argument("--n-max", type=_nonnegative_int, default=DEFAULT_N_MAX)
    verify.add_argument(
        "--params",
        type=_param_list,
        default=DEFAULT_PARAMS,
        help="comma-separated rational parameters, 0 excluded",
    )
    verify.add_argument("--order", type=_nonnegative_int, default=DEFAULT_SERIES_ORDER)
    verify.add_argument("--fail-fast", action="store_true")
    add_format(verify)
    verify.set_defaults(func=cmd_verify)

    return parser


def _env_perturbation():
    """The perturbation RELHERMITE_PERTURB names, as a context manager."""
    spec = os.environ.get("RELHERMITE_PERTURB")
    if not spec:
        return contextlib.nullcontext()
    try:
        kind, n, index, delta = spec.split(":")
        return perturbed(kind, _nonnegative_int(n), _nonnegative_int(index), _rational(delta))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"bad RELHERMITE_PERTURB value {spec!r}") from exc


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Run one command, with the int-to-str digit limit lifted, and write its
    answer, or --help or --version, to out (stdout); errors go to stderr."""
    out = out or sys.stdout
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        with contextlib.redirect_stdout(out):
            args = build_parser().parse_args(argv)
        try:
            with _env_perturbation():
                answer = args.func(args)
        finally:
            clear_construction_caches()  # before rendering, which can be large
        text = answer.render(args.format)
    except SystemExit as exc:
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConsistencyError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return EXIT_FAILED
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    out.write(text + "\n")
    return answer.code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
