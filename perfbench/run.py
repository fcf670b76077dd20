"""Benchmark entry point.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload upload --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
carries the run context (seed, sizes, versions, revision). The same record,
plus any failed checks, is written under ``.perfbench_out/``, and a traced
run also writes its spans there as JSON lines. The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None) -> argparse.Namespace:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.harness import run_workload
        from perfbench.report import load_spec
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    declared = load_spec(ROOT)

    out_dir = ROOT / ".perfbench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_workload(
        ROOT, declared, args.workload, args.seed, args.seconds, bool(args.trace),
        spans_path=out_dir / f"spans-{stem}.jsonl" if args.trace else None,
    )
    summary = result.summary()
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{stem}.json").write_text(json.dumps(
        {"context": result.context, "problems": result.problems, **summary}, indent=2
    ) + "\n")
    for problem in result.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"context": result.context}))
    print(json.dumps(summary))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
