"""Benchmark of the ``gehman`` CLI: end-to-end metrics and traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 3 --seconds 26 --trace 0

``--workload`` takes one name or a comma-separated list (default: all).
Each batch of a workload's calls runs in a fresh worker process
(``worker.py``) so that no cache survives from one batch to the next;
batches, each drawn anew from the seed and its number, repeat until
``--seconds`` have passed.  Every call's exit code
and stdout sha256 are checked against ``reference.json``.

Times are scaled to the reference speed ``PROBE_REF_S`` by the worker's
``speed_probe``, so that the host's drift in speed does not read as a
change of the program.  With ``--trace 0`` the last stdout line reports
the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of traced batches (untraced
batches alternate with them to give ``trace.overhead``); the last
traced batch's spans are left in ``perfbench/spans.jsonl``.  Lines
before it are a readable summary that also gives ``failed_ratio``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

SETUP_SPAWNS = 3  # import-only workers per run, for the setup_s median
# Median of worker.speed_probe() on the machine of baseline.json.  Every
# reported time is multiplied by PROBE_REF_S / probe_s of its worker.
PROBE_REF_S = 0.22
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    **{m: "s" for m in layertrace.SELF_TIME_METRICS},
    **{m: "count" for m in layertrace.CALL_METRICS},
    **{m: "count" for m in layertrace.COUNT_METRICS},
    "coding.prefix_bytes": "bytes",
    "coding.max_K": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead": "ratio",
    "trace.accounted": "ratio",
}


class BenchError(RuntimeError):
    pass


def spawn(calls: list[list[str]], trace: bool = False, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one batch in a fresh worker and return its report."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # same set layouts in every worker
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    payload = json.dumps({"calls": calls, "trace": trace})
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=payload,
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if Path(report["gehman_file"]).resolve().parent != ROOT / "src" / "gehman":
        raise BenchError(f"worker imported gehman from {report['gehman_file']}")
    return report


def check(results: list, reference: dict) -> list[str]:
    """Keys of the calls that raised or whose exit code or digest differ."""
    bad = []
    for key, rc, digest, error in results:
        if error is not None or reference.get(key) != [rc, digest]:
            bad.append(key)
    return bad


def scaled(report: dict, key: str) -> float:
    """A time of the worker's report, at the reference speed."""
    return report[key] * PROBE_REF_S / report["probe_s"]


def measure(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """Run batches of one workload for ``seconds``; return its metrics and checks."""
    setups = [scaled(spawn([]), "setup_s") for _ in range(SETUP_SPAWNS)]
    walls, traced_walls, rss, layers, failures = [], [], [], [], []
    raw_walls, probes = [], []
    attempted = 0
    first = time.monotonic()
    for batch in itertools.count():
        calls = workloads.calls(name, seed, batch)
        for traced in (False, True) if trace else (False,):
            rep = spawn(calls, trace=traced)
            setups.append(scaled(rep, "setup_s"))
            attempted += len(calls)
            failures += check(rep["results"], reference)
            if traced:
                traced_walls.append(scaled(rep, "wall_s"))
                layers.append({**rep["layers"],
                               "trace.accounted": rep["layers"]["trace.layers_s"] / rep["wall_s"]})
            else:
                walls.append(scaled(rep, "wall_s"))
                raw_walls.append(rep["wall_s"])
                probes.append(rep["probe_s"])
                rss.append(rep["peak_rss_mb"])
        if time.monotonic() - first >= seconds:
            break
    out = {
        "workload": name,
        "seed": seed,
        "batches": len(walls) + len(traced_walls),
        "calls": len(calls),
        "attempted": attempted,
        "failed": len(failures),
        "failures": sorted(set(failures))[:10],
        "raw_walls": raw_walls,
        "probes": probes,
        "metrics": {
            "setup_s": statistics.median(setups),
            # The mean, not the median: a shared host alternates between
            # fast and slow states a few seconds long, and the median of a
            # run's batches jumps between the two where the mean moves
            # with the share of time spent in each.
            "wall_s": statistics.fmean(walls),
            "peak_rss_mb": statistics.median(rss),
        },
    }
    if trace:
        per_layer = {m: statistics.median(b[m] for b in layers) for m in layers[0]}
        per_layer["trace.overhead"] = statistics.fmean(traced_walls) / statistics.fmean(walls)
        out["layers"] = {m: per_layer[m] for m in PER_LAYER}
    return out


def _summary(res: dict) -> list[str]:
    ratio = res["failed"] / res["attempted"]
    lines = [
        f"workload {res['workload']} seed {res['seed']}: {res['batches']} batch(es)"
        f" of {res['calls']} call(s)",
    ]
    for metric, unit in END_TO_END.items():
        lines.append(f"  {metric:<14} {res['metrics'][metric]:.6g} {unit}")
    lines.append(f"  {'failed_ratio':<14} {ratio:.6g} ({res['failed']}/{res['attempted']})")
    lines.append("  batch wall_s, unscaled: " + " ".join(f"{w:.4f}" for w in res["raw_walls"]))
    lines.append("  batch probe_s: " + " ".join(f"{p:.4f}" for p in res["probes"]))
    lines.extend(f"  failed call: {key}" for key in res["failures"])
    for metric, value in res.get("layers", {}).items():
        lines.append(f"  {metric:<30} {value:.6g} {PER_LAYER[metric]}")
    return lines


def _metric_block(values: dict, units: dict, prefix: str = "") -> dict:
    return {prefix + m: {"value": values[m], "unit": units[m]} for m in units}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default=",".join(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=26)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = [n.strip() for n in args.workload.split(",") if n.strip()]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or not names:
        p.error(f"unknown workload(s) {unknown}; choose from {list(workloads.WORKLOADS)}")
    if not (ROOT / "src" / "gehman" / "cli.py").is_file():
        print(f"error: no gehman sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="ascii"))["calls"]
    try:
        results = [
            measure(n, args.seed, args.seconds, bool(args.trace), reference)
            for n in names
        ]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        print("\n".join(_summary(res)))
    units = PER_LAYER if args.trace else END_TO_END
    key = "layers" if args.trace else "metrics"
    metrics: dict = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        metrics.update(_metric_block(res[key], units, prefix))
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
