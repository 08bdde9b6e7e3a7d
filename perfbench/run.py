"""Run one benchmark workload against the fandec sources of this checkout.

    python3 perfbench/run.py --workload fans --seed 1 --seconds 20 --trace 0

prints a table of metrics with units and sample counts, then, as the last
line, one JSON object with the keys correct, attempted, failed and metrics
(the end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
``--workload all`` runs every workload in its own process, one after the
other, and prints all their tables.  Full results, the environment and,
for traced runs, the spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = ("fans", "counts", "bundles")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main() -> int:
    args = parse_args()
    if args.workload == "all":
        return run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fandec", "__init__.py")):
        print(f"perfbench: no fandec sources under {src}", file=sys.stderr)
        return 2
    sys.path[:1] = [src, ROOT]  # replaces this script's own directory
    from perfbench import harness

    result = harness.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(ROOT, "perfbench", "out", name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(harness.report(result))
    print(harness.result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
