"""Repeat the benchmark over several seeds and record a baseline.

    python3 perfbench/baseline.py --runs 10 [--workloads a,b] [--out FILE]

For each workload this runs the command from BENCHMARK.json with --trace 0
once per seed (seeds 1..runs), then once with --trace 1 (seed 1).  It prints,
for every end-to-end metric, the median, the quartiles from
statistics.quantiles(n=4) and the spread (q3 - q1) / median next to a third
of the metric's bound, and writes all of it, with the per-layer table of the
traced run, to FILE (merged with the workloads already there).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    report_line, result_line = proc.stdout.splitlines()[-2:]
    return json.loads(report_line)["report"], json.loads(result_line)


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "baseline.json")
    args = parser.parse_args()
    out = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        results, reports = [], []
        for seed in range(1, args.runs + 1):
            report, result = run_once(bench["command"], workload, seed, bench["run_seconds"], 0)
            results.append(result)
            reports.append(report)
            print(f"{workload} seed={seed} correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "run_seconds": bench["run_seconds"],
            "seeds": list(range(1, args.runs + 1)),
            "all_correct": all(r["correct"] for r in results),
            "passes": [r["passes"] for r in reports],
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            entry["end_to_end"][name] = {"unit": results[0]["metrics"][name]["unit"],
                                         **summarize(values, bound)}
            s = entry["end_to_end"][name]
            print(f"  {name:12s} median={s['median']:.5g} spread={s['spread']:.4f} "
                  f"bound/3={bound / 3:.4f} {'ok' if s['steady'] else 'WIDE'}", flush=True)
        report, result = run_once(bench["command"], workload, 1, bench["run_seconds"], 1)
        entry["traced"] = {"correct": result["correct"], "report": report,
                           "per_layer": result["metrics"]}
        print(f"  traced correct={result['correct']} overhead_s="
              f"{result['metrics']['trace.overhead_s']['value']:.3f}", flush=True)
        entry["provenance"] = {k: reports[0][k] for k in ("git_commit", "python", "nproc", "cpu_model")}
        out["workloads"][workload] = entry
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
