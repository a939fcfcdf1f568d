"""Benchmark self-test: every workload at tiny scale, twice over.

Runs each workload with fixed small quotas (``--scale tiny``) under
``PYTHONHASHSEED`` 0 and 1, untraced and traced, and requires:

* exit status 0 and ``"correct": true``;
* exactly the metric names BENCHMARK.json declares for the mode;
* one digest per workload across all four runs — estimates and summary
  bytes must not depend on hash randomisation or on tracing;
* the same ``attempted`` and ``failed`` under both hash seeds — loops
  end on op quotas, so a run's counts depend only on its arguments.

Usage, from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build-estimate-xmark", "stream-nasa")


def run_once(workload: str, hash_seed: str, trace: int) -> tuple[str, dict]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--scale", "tiny",
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digests = [line.split(": ", 1)[1] for line in lines if line.startswith("digest: ")]
    return digests[0], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        digests = set()
        counts: dict[int, set[tuple[int, int]]] = {0: set(), 1: set()}
        for hash_seed in ("0", "1"):
            for trace in (0, 1):
                try:
                    digest, result = run_once(workload, hash_seed, trace)
                except AssertionError as exc:
                    failures.append(str(exc))
                    continue
                digests.add(digest)
                counts[trace].add((result["attempted"], result["failed"]))
                if not result["correct"]:
                    failures.append(f"{workload} (hash {hash_seed}, trace {trace}): incorrect")
                if set(result["metrics"]) != declared[trace]:
                    failures.append(f"{workload} (trace {trace}): metric names differ")
                if result["attempted"] < 1:
                    failures.append(f"{workload}: nothing attempted")
        if len(digests) != 1:
            failures.append(f"{workload}: digests differ: {sorted(digests)}")
        for trace, seen in counts.items():
            if len(seen) > 1:
                failures.append(f"{workload} (trace {trace}): counts differ: {sorted(seen)}")
        print(f"{workload}: digests {sorted(digests)}", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
