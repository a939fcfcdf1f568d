"""TreeLattice benchmark: one command, two workloads, every metric checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-nasa --seed 1 --seconds 22 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (see README.md).  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

Lines before it name each tail percentile, the output checks that
failed, the known-defect count and the run's digest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny: fixed small quotas instead of --seconds (self-test only)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no TreeLattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        print(f"error: {spec_file} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    declared = {
        m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import phases
    from harness import Tracer

    if args.workload not in phases.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = phases.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        scale=phases.TINY if args.scale == "tiny" else phases.FULL,
        workdir=workdir,
        tracer=Tracer() if args.trace else None,
    )
    try:
        phases.run_workload(run)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    emitted = run.layers if args.trace else run.metrics
    missing = sorted(set(declared) - set(emitted))
    extra = sorted(set(emitted) - set(declared))
    wrong_unit = sorted(n for n in declared if n in emitted and emitted[n][1] != declared[n])
    if missing or extra or wrong_unit:
        print(
            f"error: metrics out of step with BENCHMARK.json: missing={missing} "
            f"undeclared={extra} unit={wrong_unit}",
            file=sys.stderr,
        )
        return 3
    run.note(
        f"calibration: {run.calib.seconds() * 1e3:.3f} ms median over "
        f"{len(run.calib.samples)} samples"
    )
    for note in run.notes:
        print(note)
    print(f"digest: {run.digest.hexdigest()}")
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": emitted[name][0], "unit": emitted[name][1]}
            for name in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
