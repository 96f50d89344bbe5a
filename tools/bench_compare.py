"""Before-and-after record of one change, measured with ``perfbench``.

Usage, from the root of a checkout that holds the change:

    python3 tools/bench_compare.py --parent <rev> --seed <n> --out BENCH_<k>.json

Two sides are exported to a temporary directory: ``<rev>`` as
committed, and the working tree's ``src/``.  Both use the parent's
``perfbench/``, so the benchmark code and settings are the same, and
each side is moved to one shared path for its runs, since the
checkout's path alone was seen to shift ``gen-fresh`` ``wall_s`` by
7-15%.  The record holds, for every workload and run length in ``BENCHMARK.json``:

* ten untraced ``perfbench/run.py`` runs per side, alternating which
  side runs first; pair i uses seed ``--seed`` + i on both sides (pick
  seeds not used while the change was written), and each run's last
  JSON line is kept as printed;
* the median, quartiles and pair wins of every end-to-end metric, and
  a verdict against its bound: "unresolved" when either side's
  IQR/median exceeds the bound, else "better" when the change wins at
  least 9 pairs and its median is below the parent's by more than the
  parent's IQR, "worse" when the median rises by more than the bound,
  and "within bound" otherwise;

then one traced run per side over all the workloads, and the wall
times (each run and their median), exit codes and stdout sha256 of the
default CLI commands of the ROADMAP baseline table and two ``gen``
calls (the ``gen-fresh`` edge spec and a 1e6-symbol ``A:`` spec), each run
``L5_RUNS`` times per side, alternating which side goes first.
``minflt`` lists each run's minor page faults, the child's
``ru_minflt``.  ``l5_identical`` holds, per command, whether every run
of both sides gave the same exit code and stdout.  Each L5 run sits between two runs
of the side's ``perfbench/worker.speed_probe()``, each in a fresh
process, and ``scaled_median_s`` is the median of wall x ``PROBE_REF_S``
/ (the sum of the two probes): the same scaling, and the same reference
speed, as ``perfbench/run.py`` gives the workload times, whose worker
also times the probe once before and once after its calls.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
RUN_SECONDS = SPEC["run_seconds"]
PAIRS = 10
L5_RUNS = 3
L5_COMMANDS = [
    ["sturmian-check"],
    ["scan", "--include-limits"],
    ["scan"],
    ["omega", "000", "111"],
    ["diamond", "000"],
    ["pair", "x:000", "a:000"],
    ["dendrite", "check"],
    ["gen", "pt:1/8@2000000000-1414213562*sqrt(2)", "150000"],
    ["gen", "A:1/3+1/4*sqrt(2)", "1000000"],
]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, "src", "perfbench"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


@contextlib.contextmanager
def _at(side: Path, here: Path):
    """Move the directory ``side`` to ``here`` while the block runs."""
    side.rename(here)
    try:
        yield here
    finally:
        here.rename(side)


def _bench(side: Path, workloads: str, seed: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workloads,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", str(int(trace))],
        cwd=side, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _minflt_children() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def _cli(side: Path, args: list[str]) -> tuple[float, int, int, str]:
    """Wall time, minor page faults, exit code and stdout sha256 of one call."""
    env = dict(os.environ, PYTHONPATH=str(side / "src"))
    faults = _minflt_children()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gehman.cli", *args],
        cwd=side, env=env, capture_output=True,
    )
    wall = time.perf_counter() - start
    # the call is the only child reaped in between
    faults = _minflt_children() - faults
    return wall, faults, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


_PROBE = "import json, run, worker; print(json.dumps([worker.speed_probe(), run.PROBE_REF_S]))"


def _probe(side: Path) -> tuple[float, float]:
    """The side's ``worker.speed_probe()`` in a fresh process, and ``PROBE_REF_S``."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], cwd=side / "perfbench",
        env=dict(os.environ, PYTHONPATH=str(side / "src")),
        capture_output=True, text=True, check=True,
    )
    return tuple(json.loads(proc.stdout))


def _l5(sides: dict[str, Path], here: Path) -> dict[str, list[dict]]:
    """Each default command L5_RUNS times per side, alternating the sides,
    each run between two speed probes."""
    out: dict[str, list[dict]] = {side: [] for side in sides}
    for args in L5_COMMANDS:
        runs: dict[str, list] = {side: [] for side in sides}
        for i in range(L5_RUNS):
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                with _at(sides[side], here):
                    before, ref = _probe(here)
                    wall, faults, rc, digest = _cli(here, args)
                    after, _ = _probe(here)
                runs[side].append((wall, faults, rc, digest, [before, after],
                                   wall * ref / (before + after)))
        for side, rs in runs.items():
            walls, faults, exits, digests, probes, scaled = (
                list(col) for col in zip(*rs))
            out[side].append({
                "command": "gehman " + " ".join(args),
                "wall_s": walls,
                "minflt": faults,
                "median_s": float(np.median(walls)),
                "probe_s": probes,
                "scaled_median_s": float(np.median(scaled)),
                "exit": exits,
                "stdout_sha256": digests,
            })
    return out


def _spread(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": med, "q1": q1, "q3": q3}


def _verdict(p: dict, c: dict, wins: int, bound: float) -> str:
    if max((s["q3"] - s["q1"]) / s["median"] for s in (p, c)) > bound:
        return "unresolved"
    if wins >= 9 and p["median"] - c["median"] > p["q3"] - p["q1"]:
        return "better"
    if c["median"] / p["median"] - 1 > bound:
        return "worse"
    return "within bound"


def _summary(runs: list[dict]) -> dict:
    out = {}
    for metric in runs[0]["parent"]["metrics"]:
        par = [r["parent"]["metrics"][metric]["value"] for r in runs]
        chg = [r["change"]["metrics"][metric]["value"] for r in runs]
        p, c = _spread(par), _spread(chg)
        wins = sum(b < a for a, b in zip(par, chg))
        out[metric] = {
            "unit": runs[0]["parent"]["metrics"][metric]["unit"],
            "parent": p,
            "change": c,
            "change_wins": wins,
            "pairs": len(runs),
            "median_ratio": c["median"] / p["median"],
            "parent_iqr": p["q3"] - p["q1"],
            "bound": BOUNDS[metric],
            "verdict": _verdict(p, c, wins, BOUNDS[metric]),
        }
    out["failed"] = sum(r[s]["failed"] for r in runs for s in ("parent", "change"))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=301)
    args = ap.parse_args(argv)

    tmp = Path(tempfile.mkdtemp(prefix="bench_compare_"))
    try:
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        _export(args.parent, sides["parent"])
        sides["change"].mkdir()
        shutil.copytree(sides["parent"] / "perfbench", sides["change"] / "perfbench")
        shutil.copytree(ROOT / "src", sides["change"] / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))

        record: dict = {
            "parent": _git("rev-parse", args.parent),
            "change": _git("rev-parse", "HEAD")
            + (" + working tree" if _git("status", "--porcelain", "src") else ""),
            "machine": {
                "cpus": os.cpu_count(),
                "platform": platform.platform(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "run_seconds": RUN_SECONDS,
            "workloads": {},
        }
        for w in WORKLOADS:
            runs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": args.seed + i, "first": order[0]}
                for side in order:
                    with _at(sides[side], tmp / "run") as here:
                        pair[side] = _bench(here, w, args.seed + i, False)
                    print(f"{w} pair {i} {side}: "
                          f"{pair[side]['metrics']['wall_s']['value']:.4f} s",
                          file=sys.stderr)
                runs.append(pair)
            record["workloads"][w] = {"runs": runs, "summary": _summary(runs)}
        record["traced"] = {}
        for side, path in sides.items():
            with _at(path, tmp / "run") as here:
                record["traced"][side] = _bench(
                    here, ",".join(WORKLOADS), args.seed, True)
        record["l5"] = _l5(sides, tmp / "run")
        record["l5_identical"] = [
            len({run for r in (a, b) for run in zip(r["exit"], r["stdout_sha256"])})
            == 1
            for a, b in zip(record["l5"]["parent"], record["l5"]["change"])
        ]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
