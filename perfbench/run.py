"""relhermite benchmark: run one workload, check every answer, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in its own fresh interpreter (perfbench/worker.py),
started one at a time, so nothing carries over between repetitions.
Repetitions repeat while the next one should end within S seconds (at
least MIN_REPS of them).

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and prints the per-layer metrics, the tracing
overhead and the kernel micro-timings.  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it are a readable summary.  Spans of traced repetitions are
written to .perfbench-out/.  Every time is calibrated by its
repetition's speed factor (speed.py).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
sys.path[:0] = [HERE, SRC]  # SRC for the oracles in workloads.check_answer

import workloads  # noqa: E402

MIN_REPS = 3  # untraced; a traced run makes at least MIN_TRACED_PAIRS pairs
MIN_TRACED_PAIRS = 2
# Start no repetition after this many seconds, so the run ends well
# within its 180 s limit.
LAST_START_S = 110
DEADLINE_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    # The program's test hook would change every answer.
    env.pop("RELHERMITE_PERTURB", None)
    # Bytecode is cached by the warm-up, as it is for an installed CLI.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list, started: float) -> str:
    env = child_env()
    timeout = DEADLINE_S - (time.monotonic() - started)
    env["PERFBENCH_T0_NS"] = str(time.monotonic_ns())
    try:
        proc = subprocess.run(
            [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} exceeded the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_rep(workload: str, seed: int, started: float, spans_path=None) -> dict:
    args = [os.path.join(HERE, "worker.py"), workload, str(seed)]
    if spans_path:
        args.append(spans_path)
    rep = json.loads(spawn(args, started))
    if os.path.dirname(os.path.abspath(rep["module"])) != os.path.join(SRC, "relhermite"):
        raise BenchError(f"ran {rep['module']}, not the program under {SRC}")
    return rep


# ---------------------------------------------------------------------------
# Correctness gates


def judge_verify(workload: str, seed: int, rep: dict) -> tuple:
    """(attempted, failed) for one verify repetition.  Every check is an
    operation; FAIL and SKIP rows fail.  A nonzero exit, an exception or
    a report whose sha256 is not the pinned one fails every check."""
    v = rep["verify"]
    summary = v["summary"] or {}
    attempted = summary.get("total") or 1
    bad_rows = summary.get("failed", 0) + summary.get("skipped", 0)
    ok = v["rc"] == 0 and v["sha256"] == workloads.expected_report_sha256(workload, seed)
    if bad_rows:
        return attempted, bad_rows
    return attempted, 0 if ok else attempted


def judge_queries(seed: int, reps: list) -> tuple:
    """(attempted, failed) over all query-mix repetitions.  The first
    repetition's answers are checked against the oracles; every later
    repetition must answer byte for byte the same."""
    requests = workloads.query_argvs(seed)
    reference = reps[0]["answers"]
    good = [workloads.check_answer(argv, rc, text) for argv, (rc, text) in zip(requests, reference)]
    attempted = failed = 0
    for rep in reps:
        for i, answer in enumerate(rep["answers"]):
            attempted += 1
            failed += not (good[i] and answer == reference[i])
    return attempted, failed


def judge(workload: str, seed: int, reps: list) -> tuple:
    if workload == "query-mix":
        return judge_queries(seed, reps)
    attempted = failed = 0
    for rep in reps:
        a, f = judge_verify(workload, seed, rep)
        attempted += a
        failed += f
    return attempted, failed


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(reps: list) -> dict:
    """Medians over the repetitions.  Every time is calibrated by its
    repetition's speed factor (speed.py), so it reads as seconds on the
    reference host however loaded the shared host was.  Latency
    percentiles are taken over the requests, each at its median
    calibrated time across the repetitions.  peak_rss_mb is not
    calibrated."""
    per_request = zip(*([t * r["speed"] for t in r["latencies_s"]] for r in reps))
    request_ms = sorted(statistics.median(times) * 1e3 for times in per_request)
    if len(request_ms) > 1:
        p90 = statistics.quantiles(request_ms, n=10, method="inclusive")[8]
    else:
        p90 = request_ms[0]
    return {
        "setup_s": (statistics.median(r["setup_s"] * r["speed"] for r in reps), "s"),
        "wall_s": (statistics.median(r["wall_s"] * r["speed"] for r in reps), "s"),
        "latency_p50_ms": (statistics.median(request_ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name == "families.reuse_ratio":
        return "ratio"
    if name == "families.max_coeff_bits":
        return "bits"
    return "count"


def per_layer(plain: list, traced: list, kernels: dict) -> dict:
    """Lower medians over the traced repetitions; times are calibrated
    by each repetition's speed factor, as the end-to-end ones are."""
    metrics = {}
    for name in traced[0]["layers"]:
        scale = layer_unit(name) == "s"
        metrics[name] = statistics.median_low(
            rep["layers"][name] * (rep["speed"] if scale else 1) for rep in traced
        )
    metrics["trace.overhead_s"] = statistics.median(
        r["wall_s"] * r["speed"] for r in traced
    ) - statistics.median(r["wall_s"] * r["speed"] for r in plain)
    metrics.update(kernels)
    return {name: (value, layer_unit(name)) for name, value in metrics.items()}


# ---------------------------------------------------------------------------


def describe(workload: str, seed: int) -> str:
    if workload == "verify-deep":
        return f"params {','.join(workloads.deep_params(seed))}"
    if workload == "query-mix":
        return f"{workloads.QUERY_REQUESTS} distinct requests"
    return "canonical grid, seed not used"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "relhermite", "cli.py")):
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    os.makedirs(OUT_DIR, exist_ok=True)
    spawn(["-c", "import sys; sys.path.insert(0, 'src'); import relhermite.cli"], started)

    plain, traced = [], []
    min_reps = MIN_TRACED_PAIRS if args.trace else MIN_REPS
    while True:
        elapsed = time.monotonic() - started
        if plain and elapsed > LAST_START_S:
            break
        # Start another repetition only if it should end within --seconds.
        if len(plain) >= min_reps and elapsed * (len(plain) + 1) / len(plain) > args.seconds:
            break
        plain.append(run_rep(args.workload, args.seed, started))
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{len(traced)}.json")
            traced.append(run_rep(args.workload, args.seed, started, spans))
    attempted, failed = judge(args.workload, args.seed, plain + traced)

    if args.trace:
        kernels = json.loads(spawn([os.path.join(HERE, "kernels.py")], started))
        metrics = per_layer(plain, traced, kernels)
    else:
        metrics = end_to_end(plain)

    print(f"workload {args.workload} seed {args.seed}: {describe(args.workload, args.seed)}")
    if args.workload != "query-mix":
        shas = sorted({rep["verify"]["sha256"] for rep in plain + traced})
        print(f"report sha256 {' '.join(shas)}")
    print(
        f"repetitions {len(plain)} untraced, {len(traced)} traced; "
        f"attempted {attempted} failed {failed} failed_frac {failed / attempted:.6g}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
