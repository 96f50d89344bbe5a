"""Run one batch of ``gehman`` CLI calls in this process.

Reads ``{"calls": [[arg, ...], ...], "trace": bool}`` as JSON on stdin,
runs each call through ``gehman.cli.main`` with stdout and stderr
captured, and prints one JSON object on stdout: the CPU time this
process spent until ``gehman.cli`` finished importing, the summed call
time, the peak RSS, per call its exit code and stdout sha256, and the
time of ``speed_probe`` run just before and just after the calls.  With
``trace`` the layer wrappers of ``layertrace`` are installed around the
batch, the per-layer metrics are added, and the spans are written to
``spans.jsonl`` next to this file.

``run.py`` starts this file with the checkout's ``src`` on PYTHONPATH.
"""

import time

import gehman.cli

# CPU time, not wall time: it leaves out how long the host took to
# schedule the new process, which varies by more than the import costs.
SETUP_CPU_S = time.process_time()

import hashlib  # noqa: E402  (after the set-up timestamp on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from layertrace import Tracer, layer_metrics  # noqa: E402
from workloads import call_key  # noqa: E402

SPANS_FILE = Path(__file__).with_name("spans.jsonl")


def run_calls(calls: list[list[str]]) -> dict:
    """Run the calls in order; time only the calls themselves."""
    results = []
    wall = 0.0
    output_bytes = 0
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        error = None
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = gehman.cli.main(argv)
            except Exception as exc:  # a raising call is a failed call, not a crash
                rc, error = None, f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - start
        text = out.getvalue().encode()
        output_bytes += len(text)
        results.append([call_key(argv), rc, hashlib.sha256(text).hexdigest(), error])
    return {"wall_s": wall, "output_bytes": output_bytes, "results": results}


def speed_probe() -> float:
    """Seconds this process takes for a fixed piece of work, not gehman's.

    The host's speed drifts by a quarter over minutes, most of all for
    interpreted code, so ``run.py`` scales every time by this probe,
    taken in the same process on each side of the calls.  The work mixes
    interpreter loops and small numpy operations, as gehman does, and
    allocates nothing large, so it leaves the allocator's state alone.
    Changing it changes every scaled time: keep it fixed.
    """
    start = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i % 7
    counts: dict[int, int] = {}
    for i in range(100_000):
        counts[i % 5003] = counts.get(i % 5003, 0) + i
    x = np.arange(4096, dtype=np.int64)
    for _ in range(5_000):
        x = (x * 3 + 1) & 1023
    return time.perf_counter() - start


def main() -> int:
    request = json.load(sys.stdin)
    probe_s = speed_probe()
    with Tracer() if request["trace"] else nullcontext() as tracer:
        report = run_calls(request["calls"])
    if tracer is not None:
        layers = layer_metrics(tracer)
        layers["cli.output_bytes"] = report["output_bytes"]
        report["layers"] = layers
        tracer.write(SPANS_FILE)
    report["setup_s"] = SETUP_CPU_S
    report["gehman_file"] = gehman.cli.__file__
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["probe_s"] = probe_s + speed_probe()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
