"""One timed repetition of a workload, in a fresh interpreter.

Started by run.py, which passes its CLOCK_MONOTONIC reading taken just
before the start in PERFBENCH_T0_NS; setup_s is measured here, from that
instant to ``import relhermite.cli`` done.  The repetition then issues
every request of the workload through ``relhermite.cli.main(argv)``,
one after another, and prints one JSON object on stdout.

The speed probe (speed.py) samples the host's speed from before the
import to the end of the timed section; its own time is taken out of
every time reported, spans included, and the repetition's speed factor
is reported beside them.

    python3 perfbench/worker.py WORKLOAD SEED [SPANS_PATH]

With SPANS_PATH the repetition is traced: the tracer is installed after
setup, and the spans are written to SPANS_PATH after the timed section.
"""

import os
import sys
import time

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

PROBE = SpeedProbe()
PROBE.start()

import relhermite.cli  # noqa: E402

SETUP_S = (time.monotonic_ns() - int(os.environ["PERFBENCH_T0_NS"]) - PROBE.spent_ns) / 1e9

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    requests = workloads.argvs(workload, seed)
    tracer = None
    if spans_path:
        tracer = Tracer(PROBE.clock_ns)
        tracer.install()

    answers = []
    latencies = []
    clock = PROBE.clock
    start = clock()
    for argv in requests:
        out = io.StringIO()
        t = clock()
        try:
            rc = relhermite.cli.main(argv, out)
        except Exception as exc:  # a crash is a failed request, not a benchmark abort
            rc = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t)
        answers.append((rc, out.getvalue()))
    wall_s = clock() - start
    PROBE.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
        "speed": PROBE.speed(),
        "module": relhermite.cli.__file__,
    }
    if workload == "query-mix":
        result["answers"] = answers
    else:
        (rc, text), = answers
        try:
            summary = json.loads(text)["summary"]
        except (ValueError, KeyError):
            summary = None
        result["verify"] = {
            "rc": rc,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "summary": summary,
        }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        tracer.write_spans(spans_path)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
