"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stencil_sweep --seed 1 --seconds 30 --trace 0

Workloads: ``stencil_sweep``, ``specialize_churn``, ``service_mix``.
Human-readable notes go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  A wrong output prints ``"correct": false`` and
exits with status 1.  The program is imported from ``src/`` next to
this directory; without it the command exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("stencil_sweep", "specialize_churn", "service_mix")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench import harness, layers

    run = harness.execute(args.workload, args.seed, args.seconds, bool(args.trace))
    if run.error is not None:
        print(f"perfbench: {run.error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, run.samples.attempted),
                          "failed": run.samples.failed, "metrics": {}}))
        return 1
    for line in harness.describe(run):
        print(line)
    if args.trace:
        values = harness.per_layer(run)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        print(f"  spans written to {harness.dump_spans(run, HERE)}")
        print(f"  {'span (per traced block)':32s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s}")
        for name, calls, total, own in layers.self_time_table(run.run_spans, len(run.block_s[True])):
            print(f"  {name:32s} {calls:10.1f} {total:10.4f} {own:10.4f}")
    else:
        values = harness.end_to_end(run)
        units = harness.END_TO_END
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({
        "correct": True,
        "attempted": run.samples.attempted,
        "failed": run.samples.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
