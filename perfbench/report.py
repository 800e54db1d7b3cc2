"""Render the per-layer ledger and the tracing overhead from real runs.

    python3 perfbench/report.py --seeds 1,2,3 [--workloads serve,refresh,live]

For each workload and seed, runs the benchmark once untraced and once
traced.  Prints, per workload, every per-layer row (median over the
traced runs of each run's median, with the quartiles of those run
medians), every end-to-end metric untraced and traced, and the tracing
overhead measured directly: spans per cycle and per request times the
cost of one span.  With a few runs a side, the traced-minus-untraced
difference is the host's run-to-run drift, far above that overhead.
Output is Markdown.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List

from stats import median, percentile

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for key, prefix in (("end_to_end", "traced end-to-end: "), ("overhead", "tracing overhead: ")):
        found = [line for line in lines if line.startswith(prefix)]
        if found:
            result[key] = json.loads(found[-1][len(prefix):])
    return result


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--workloads", default="serve,refresh,live")
    parser.add_argument("--seconds", type=int, default=22)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    sys.path.insert(0, HERE)
    from layers import LAYERS

    for workload in args.workloads.split(","):
        plain: Dict[str, List[float]] = {}
        traced_e2e: Dict[str, List[float]] = {}
        layer: Dict[str, List[float]] = {}
        overhead: Dict[str, List[float]] = {}
        for seed in seeds:
            for name, metric in _run(workload, seed, args.seconds, 0)["metrics"].items():
                plain.setdefault(name, []).append(metric["value"])
            traced = _run(workload, seed, args.seconds, 1)
            for name, metric in traced["metrics"].items():
                layer.setdefault(name, []).append(metric["value"])
            for name, value in traced["end_to_end"].items():
                traced_e2e.setdefault(name, []).append(value)
            for name, value in traced["overhead"].items():
                overhead.setdefault(name, []).append(value)
        print(f"\n### `{workload}` ({len(seeds)} seeds: {args.seeds})\n")
        print("| layer metric | unit | median | q1 | q3 | should move |")
        print("|---|---|---:|---:|---:|---|")
        for name, values in layer.items():
            unit, _better, moves = LAYERS[name]
            print(
                f"| `{name}` | {unit} | {median(values):.4g} | "
                f"{percentile(values, 25):.4g} | {percentile(values, 75):.4g} | {moves} |"
            )
        cost = {name: median(values) for name, values in overhead.items()}
        print(
            f"\nTracing overhead: a cycle records {cost['spans_per_cycle']:.0f} spans "
            f"at {cost['span_us']:.2f} us each, {cost['refresh_s_share']:.5%} of "
            f"`refresh_s`; a request records {cost['spans_per_request']:.0f} spans "
            f"at {cost['record_us']:.2f} us each, {cost['req_p50_ms_share']:.4%} of "
            "`req_p50_ms`."
        )
        print("\n| end-to-end metric | untraced | traced | difference (run-to-run drift) |")
        print("|---|---:|---:|---:|")
        for name, values in plain.items():
            off, on = median(values), median(traced_e2e[name])
            print(f"| `{name}` | {off:.4g} | {on:.4g} | {(on - off) / off:+.1%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
