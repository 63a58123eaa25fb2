"""Span tracer for the traced benchmark run.

The tracer wraps public functions of relhermite from outside the
program: every module namespace under ``relhermite`` that binds a
listed function gets the wrapper, so calls through a module's own
``from .families import ...`` copy are seen as well.  Each call records
one span (name, start, end, parent) in memory; spans are written out at
the end of the repetition and reduced to per-layer metrics.

Self time of a span is its duration minus the time its direct child
spans cover (one thread, so children never overlap).  Spans are timed on
the clock the tracer is given; the worker passes the speed probe's,
which leaves the probe's own time out.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from fractions import Fraction

# (layer, attribute path) for every traced function.  Methods are
# patched on their class; module functions in every relhermite module
# that binds them.
FAMILY_FUNCS = (
    "hermite",
    "gegenbauer_explicit",
    "gegenbauer_moment_normalized",
    "rhp_explicit",
    "rhp_scaled",
    "rhp_normalized",
    "family_member",
)
ALGEBRA_METHODS = (
    ("Poly", "__mul__"),
    ("Poly", "evaluate"),
    ("Poly", "compose_linear"),
    ("TruncSeries", "__mul__"),
    ("TruncSeries", "pow_fraction"),
    ("TruncSeries", "exp"),
    ("MultiPoly", "__mul__"),
)
ALGEBRA_FUNCS = ("poly_divmod", "multipoly_expectation")
NUMERIC_FUNCS = ("pochhammer", "gamma_ratio_normalize", "gamma_ratio_rational_value")
TURAN_FUNCS = (
    "hankel",
    "poly_determinant",
    "vandermonde_squared",
    "wilks_expectation",
    "moment_hankel_det",
)
# Check names passed to run_guarded by the verify suites.
CHECK_NAMES = (
    "nagel",
    "cnix",
    "subordination-hermite",
    "subordination-gegenbauer",
    "derivative",
    "hermite-addition",
    "rhp-addition",
    "scaling",
    "genfunc-rhp",
    "moment-3665",
    "feldheim",
    "feldheim-rhp",
    "shifted-genfunc",
    "turan-rhp",
    "turan-gegenbauer",
    "wilks-studentr",
    "wilks-hankel",
)


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.coeffs:
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _family_key(fn_name: str, args: tuple):
    if fn_name == "family_member":
        fid = args[0]
        return (fid.family.value, fid.n, fid.N, fid.normalization.value)
    if fn_name == "hermite":
        return (args[0],)
    return (args[0], Fraction(args[1]))


class Tracer:
    """Holds the spans and counters of one traced repetition."""

    def __init__(self, clock_ns=time.perf_counter_ns):
        self.clock_ns = clock_ns
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name_id, start_ns, end_ns, parent_index)
        self._stack: list[int] = []
        self.distinct: dict[str, set] = {}
        self.max_coeff_bits = 0

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, on_call=None):
        """Return fn wrapped in a span.  name is a string or a callable
        of the call's args giving the span name; on_call(args, result)
        runs after the span closes."""
        spans, stack, clock = self.spans, self._stack, self.clock_ns
        fixed = None if callable(name) else self._name_id(name)
        name_id = self._name_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else name_id(name(args))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, clock(), parent)
                stack.pop()
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def _family_hook(self, fn_name: str):
        seen = self.distinct.setdefault(f"families.{fn_name}", set())

        def hook(args, result):
            key = _family_key(fn_name, args)
            if key not in seen:
                seen.add(key)
                self.max_coeff_bits = max(self.max_coeff_bits, _coeff_bits(result))

        return hook

    def _vandermonde_hook(self, args, result):
        self.distinct.setdefault("turan.vandermonde_squared", set()).add(args[0])

    def install(self) -> None:
        """Patch every listed function in every relhermite module."""
        import relhermite.algebra as algebra
        import relhermite.cli  # holds its own run_guarded, hankel, poly_determinant
        import relhermite.families as families
        import relhermite.identities as identities
        import relhermite.numeric as numeric
        import relhermite.turan as turan

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "relhermite"]

        def patch_everywhere(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        for fn_name in FAMILY_FUNCS:
            original = getattr(families, fn_name)
            wrapper = self.wrap(original, f"families.{fn_name}", self._family_hook(fn_name))
            patch_everywhere(original, wrapper)
        for cls_name, meth in ALGEBRA_METHODS:
            cls = getattr(algebra, cls_name)
            original = cls.__dict__[meth]
            wrapper = self.wrap(original, f"algebra.{cls_name}.{meth}")
            for attr, value in list(cls.__dict__.items()):
                if value is original:  # __rmul__ aliases __mul__
                    setattr(cls, attr, wrapper)
        for fn_name in ALGEBRA_FUNCS:
            original = getattr(algebra, fn_name)
            patch_everywhere(original, self.wrap(original, f"algebra.{fn_name}"))
        for fn_name in NUMERIC_FUNCS:
            original = getattr(numeric, fn_name)
            patch_everywhere(original, self.wrap(original, f"numeric.{fn_name}"))
        for fn_name in TURAN_FUNCS:
            original = getattr(turan, fn_name)
            hook = self._vandermonde_hook if fn_name == "vandermonde_squared" else None
            patch_everywhere(original, self.wrap(original, f"turan.{fn_name}", hook))
        original = identities.run_guarded
        patch_everywhere(original, self.wrap(original, lambda args: f"identities.{args[0]}"))
        original = relhermite.cli.main
        patch_everywhere(original, self.wrap(original, "cli.main"))

    def aggregate(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for i, (nid, start, end, _) in enumerate(self.spans):
            calls[nid] += 1
            total[nid] += end - start
            own[nid] += end - start - child_ns[i]
        return {
            name: {"calls": calls[i], "s": total[i] / 1e9, "self_s": own[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path) -> None:
        """One JSON object: the name table and the flat span list."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce one traced repetition to the benchmark's per-layer metrics."""
    agg = tracer.aggregate()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for check in CHECK_NAMES:
        rec = agg.get(f"identities.{check}", zero)
        out[f"identities.{check}.s"] = rec["s"]
        out[f"identities.{check}.count"] = rec["calls"]
    names = (
        [f"families.{f}" for f in FAMILY_FUNCS]
        + [f"algebra.{c}.{m}" for c, m in ALGEBRA_METHODS]
        + [f"algebra.{f}" for f in ALGEBRA_FUNCS]
        + [f"numeric.{f}" for f in NUMERIC_FUNCS]
        + [f"turan.{f}" for f in TURAN_FUNCS]
    )
    for name in names:
        rec = agg.get(name, zero)
        out[f"{name}.calls"] = rec["calls"]
        out[f"{name}.self_s"] = rec["self_s"]
    family_calls = family_distinct = 0
    for f in FAMILY_FUNCS:
        distinct = len(tracer.distinct.get(f"families.{f}", ()))
        out[f"families.{f}.distinct"] = distinct
        family_calls += out[f"families.{f}.calls"]
        family_distinct += distinct
    out["families.reuse_ratio"] = family_distinct / family_calls if family_calls else 1.0
    out["families.max_coeff_bits"] = tracer.max_coeff_bits
    out["turan.vandermonde_squared.distinct"] = len(
        tracer.distinct.get("turan.vandermonde_squared", ())
    )
    out["cli.main.self_s"] = agg.get("cli.main", zero)["self_s"]
    out["trace.spans"] = len(tracer.spans)
    return out
