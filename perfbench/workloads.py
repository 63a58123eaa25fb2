"""Seeded workload inputs and their correctness oracles.

Every workload is a list of argv vectors for ``relhermite.cli.main``,
issued back to back by one client.  The seed is a benchmark argument;
the program only ever sees the generated argv.

* verify-default: the canonical ``verify`` with no flags.  The seed does
  not apply; the JSON report is pinned by its sha256.
* verify-deep: high-degree, long-series suites with no addition theorem.
  The seed picks five of the six pool parameters (kept in pool order),
  so there are six possible reports, each pinned by its sha256.
* query-mix: a stream of distinct one-shot coeffs/eval/series/turan
  requests.  Every request that takes a parameter gets one no other
  request uses, so no two requests build the same family member.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

WORKLOADS = ("verify-default", "verify-deep", "query-mix")

VERIFY_DEFAULT_SHA256 = "a591eacfa5f8ee068e694e2391fa2a535dbb8ea06c8ab08c5c0c6a71fe45d865"

DEEP_SUITES = (
    "nagel,cnix,subordination-hermite,subordination-gegenbauer,derivative,scaling,"
    "genfunc-rhp,moment-3665,feldheim,feldheim-rhp,shifted-genfunc"
)
# Each value verifies with 0 failed and 0 skipped at n-max 20, order 32
# (1/2 and -7/2 would skip checks).
DEEP_POOL = ("3/2", "5/3", "9/4", "6", "1/5", "-1/3")
# Report sha256 keyed by the pool value the seed leaves out.
DEEP_SHA256 = {
    "3/2": "5dc3301a98e8dd69b5a6daee2853337219528a7a2fbce20ed7562d9e268cc759",
    "5/3": "dfc37fd90abc3ac4ffa655fab77f29e05846793984ce753988ec00e664c6caa5",
    "9/4": "d1fdbec058a3025cb3ac24657818f4d670eafbba146decba13fc8e2a6f2b5314",
    "6": "f1dcc940137e21c4a5d0a3e6314fa358fa99b54c92a603f2a456d3ebc6719f26",
    "1/5": "604eb06bc1793a35b1b9926cbdea55fe8837ff7e656f994a428051c4882b0cef",
    "-1/3": "a80c8cd554e9facad940fc97feb07b80461d1ee0248b54279afcb48a97e57991",
}

MEMBER_SHAPES = (
    ("hermite", "raw"),
    ("hermite", "moment"),
    ("gegenbauer", "raw"),
    ("gegenbauer", "moment"),
    ("rhp", "raw"),
    ("rhp", "scaled"),
    ("rhp", "moment"),
)
SERIES_KINDS = ("genfunc-rhp", "feldheim", "feldheim-rhp", "shifted")
# Requests per class.  The class counts and the degree/order strata are
# fixed, so every seed builds the same mix and only the parameters,
# points and the request order depend on it.
MEMBER_PER_CLASS = 8  # per (coeffs|eval, family, normalization); n in 16..47
SERIES_PER_KIND = 12  # order in 16..32
TURAN_PER_CLASS = 5  # per (family, n) with n in 4..6
QUERY_REQUESTS = (
    2 * len(MEMBER_SHAPES) * MEMBER_PER_CLASS
    + len(SERIES_KINDS) * SERIES_PER_KIND
    + 2 * 3 * TURAN_PER_CLASS
)
FELDHEIM_POINTS = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


def _deep_left_out(seed: int) -> str:
    return random.Random(seed).choice(DEEP_POOL)


def deep_params(seed: int) -> tuple[str, ...]:
    left_out = _deep_left_out(seed)
    return tuple(p for p in DEEP_POOL if p != left_out)


def verify_argv(workload: str, seed: int) -> list[str]:
    if workload == "verify-default":
        return ["verify"]
    # Negative rationals must be attached with '=': argparse reads a
    # separate '-1/3' as an option.
    return [
        "verify",
        f"--suites={DEEP_SUITES}",
        "--n-max=20",
        "--order=32",
        "--params=" + ",".join(deep_params(seed)),
    ]


def expected_report_sha256(workload: str, seed: int) -> str:
    if workload == "verify-default":
        return VERIFY_DEFAULT_SHA256
    return DEEP_SHA256[_deep_left_out(seed)]


class _Params:
    """Draws rationals p/q that no earlier draw produced.  Denominators
    3..12 keep 2N away from the integers, so no Pochhammer normalizer
    of any family vanishes."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[Fraction] = set()

    def fresh(self) -> str:
        while True:
            value = Fraction(self.rng.randint(1, 60), self.rng.randint(3, 12))
            if value.denominator < 3:
                continue
            if self.rng.random() < 0.25:
                value = -value
            if value not in self.used:
                self.used.add(value)
                return str(value)


def _point(rng: random.Random) -> str:
    return str(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def query_argvs(seed: int) -> list[list[str]]:
    """The query-mix stream: 112 coeffs/eval, 48 series and 30 turan
    requests in seeded order."""
    rng = random.Random(seed)
    params = _Params(rng)
    hermite_degrees = rng.sample(range(16, 49), 4 * MEMBER_PER_CLASS)
    requests = []
    for command in ("coeffs", "eval"):
        for family, normalization in MEMBER_SHAPES:
            for i in range(MEMBER_PER_CLASS):
                if family == "hermite":
                    member = ["--family=hermite", f"--n={hermite_degrees.pop()}"]
                else:
                    n = 16 + 4 * i + rng.randrange(4)
                    member = [f"--family={family}", f"--n={n}", f"--param={params.fresh()}"]
                argv = [command, *member, f"--normalization={normalization}"]
                if command == "eval":
                    argv.append(f"--x={_point(rng)}")
                requests.append(argv)
    for kind in SERIES_KINDS:
        for i in range(SERIES_PER_KIND):
            order = 16 + (17 * i) // SERIES_PER_KIND + rng.randrange(2)
            argv = ["series", f"--kind={kind}", f"--param={params.fresh()}", f"--order={order}"]
            if kind == "feldheim":
                a, b, c = rng.choice(FELDHEIM_POINTS)
                argv += [
                    f"--cos={Fraction(rng.choice((a, -a)), c)}",
                    f"--sin={Fraction(rng.choice((b, -b)), c)}",
                ]
            else:
                argv.append(f"--x={_point(rng)}")
            if kind == "shifted":
                argv.append(f"--k={i % 4}")
            requests.append(argv)
    for family in ("rhp", "gegenbauer"):
        for n in (4, 5, 6):
            for _ in range(TURAN_PER_CLASS):
                requests.append(
                    ["turan", f"--family={family}", f"--n={n}", f"--param={params.fresh()}"]
                )
    rng.shuffle(requests)
    return requests


def argvs(workload: str, seed: int) -> list[list[str]]:
    if workload == "query-mix":
        return query_argvs(seed)
    return [verify_argv(workload, seed)]


# ---------------------------------------------------------------------------
# Oracles for query-mix answers


def _options(argv) -> dict:
    return dict(item[2:].split("=", 1) for item in argv[1:])


def _rising(a: Fraction, k: int) -> Fraction:
    result = Fraction(1)
    for j in range(k):
        result *= a + j
    return result


def oracle_coeffs(family: str, n: int, N, normalization: str) -> list[Fraction]:
    """Coefficients by the Rodrigues (or operator) route, normalized here
    rather than by the program's own normalization code."""
    from relhermite.families import gegenbauer_rodrigues, hermite_from_operator, rhp_rodrigues

    if family == "hermite":
        coeffs = list(hermite_from_operator(n).coeffs)
        if normalization == "moment":
            coeffs = [c / 2**n for c in coeffs]
        return coeffs
    if family == "gegenbauer":
        coeffs = list(gegenbauer_rodrigues(n, N).coeffs)
        if normalization == "moment":
            scale = Fraction(math.factorial(n)) / _rising(2 * N, n)
            coeffs = [c * scale for c in coeffs]
        return coeffs
    coeffs = list(rhp_rodrigues(n, N).coeffs)
    if normalization in ("scaled", "moment"):
        coeffs = [c * N ** ((n + j) // 2) for j, c in enumerate(coeffs)]
    if normalization == "moment":
        lead = _rising(2 * N, n)
        coeffs = [c / lead for c in coeffs]
    return coeffs


def check_answer(argv, rc, text) -> bool:
    """True when one query-mix request answered correctly."""
    if rc != 0:
        return False
    try:
        answer = json.loads(text)
    except ValueError:
        return False
    command = argv[0]
    if command in ("series", "turan"):
        return answer.get("equal") is True
    opts = _options(argv)
    N = Fraction(opts["param"]) if "param" in opts else None
    expected = oracle_coeffs(opts["family"], int(opts["n"]), N, opts["normalization"])
    if command == "coeffs":
        return [Fraction(s) for s in answer] == expected
    x = Fraction(opts["x"])
    value = Fraction(0)
    for c in reversed(expected):
        value = value * x + c
    return Fraction(answer["value"]) == value
