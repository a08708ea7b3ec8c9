"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads verify,sweep,wavefunctions \
        --seeds 1-10 [--trace 0] [--out DIR]

Each run is a fresh ``run.py`` process with the seconds from BENCHMARK.json.
For every metric this prints the median of the runs and the distance between
their first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  With ``--out`` the result
line of each run is appended to ``DIR/<workload>_trace<0|1>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="verify,sweep,wavefunctions")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            print(proc.stdout, end="", flush=True)
            line = proc.stdout.strip().splitlines()[-1]
            results.append(json.loads(line))
            if args.out:
                with open(args.out / f"{workload}_trace{args.trace}.jsonl",
                          "a") as fh:
                    fh.write(json.dumps({"seed": seed, **json.loads(line)})
                             + "\n")
        print(f"== {workload}: {len(results)} runs, "
              f"{sum(r['failed'] for r in results)} of "
              f"{sum(r['attempted'] for r in results)} cases failed, "
              f"correct on {sum(r['correct'] for r in results)} runs")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            bound = bounds.get(name)
            limit = f"  bound {bound}" if bound is not None else ""
            print(f"   {name:42s} median {statistics.median(values):<12.6g}"
                  f"{unit:6s} spread {spread(values):.3f}{limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
