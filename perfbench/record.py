"""Record the reference output of every call the workloads can make.

Usage, from the root of a checkout:

    python3 perfbench/record.py

Runs each workload's whole call universe in one worker process and
writes the exit code and stdout sha256 of every call to
``perfbench/reference.json``, replacing what was there.  Re-record only
when a change alters CLI output on purpose, and say so in that change.
"""

from __future__ import annotations

import collections
import json
import sys

import run
import workloads

RECORD_TIMEOUT_S = 1800


def main() -> int:
    ref = {}
    for name in workloads.WORKLOADS:
        rep = run.spawn(workloads.universe(name), timeout=RECORD_TIMEOUT_S)
        errors = [(key, error) for key, _, _, error in rep["results"] if error]
        if errors:
            print(f"error: {name}: calls raised: {errors[:5]}", file=sys.stderr)
            return 1
        codes = collections.Counter(rc for _, rc, _, _ in rep["results"])
        print(f"{name}: {len(rep['results'])} calls, exit codes {dict(sorted(codes.items()))},"
              f" {rep['wall_s']:.1f} s")
        for key, rc, digest, _ in rep["results"]:
            ref[key] = [rc, digest]
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(ref.items())]
    text = '{"calls": {\n' + ",\n".join(lines) + "\n}}\n"
    run.REFERENCE.write_text(text, encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
