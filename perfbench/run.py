#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload offline_paper --seed 1 \
        --seconds 10 --trace 0

Workloads: ``offline_paper``, ``serve_trickle``, ``fleet_faults`` (see
``workloads.py``).  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` alternates untraced and traced executions and
reports the per-layer metrics, the tracing overhead and (for
``serve_trickle``) the modeled rate ladder, and writes the last traced
execution's spans to ``.perfbench_out/``.  Human-readable lines come
first; the last line of standard output is the JSON result record.
Exits non-zero without a result when the ``repro`` sources are absent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("offline_paper", "serve_trickle", "fleet_faults")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import run_benchmark

    spans = None
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
    out = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), spans_path=spans
    )
    record, report = out["record"], out["report"]
    failed_fraction = record["failed"] / record["attempted"]
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{report['executions']} timed executions, correct={record['correct']}"
    )
    for name, metric in record["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"  {'failed_fraction':40s} {failed_fraction:>16.6g} ratio "
        f"({record['failed']} of {record['attempted']} pairs)"
    )
    for rung in report.get("ladder", ()):
        print(
            f"  ladder {rung['rate']:g} req/s: modeled p50 {rung['p50_ms']:.3f} ms, "
            f"p99 {rung['p99_ms']:.3f} ms, {'meets' if rung['ok'] else 'misses'} "
            "the 25 ms limit"
        )
    if "paper_ratio_max_dev" in record["metrics"]:
        dev = record["metrics"]["paper_ratio_max_dev"]["value"]
        print(
            "  modeled speedups are validated only against the paper's published "
            f"Fig. 1 ratios (max deviation {dev:.1%}), not against hardware"
        )
    if not record["correct"]:
        print(
            f"  NOT CORRECT: model_identical={report['model_identical']} "
            f"planted_check={report['planted_check']} errors={report['errors'][:3]}"
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
