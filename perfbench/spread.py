"""Repeat the benchmark over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workloads fit-full,evaluate --seeds 1-10 \
        [--seconds 10] [--trace-seed 0] [--label TEXT] [--out FILE] \
        [--against EARLIER.json]

For every workload, runs run.py once per seed (one run at a time) and
reports, per end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread (q3 - q1) /
median next to the metric's bound from BENCHMARK.json. A spread above a
third of the bound is flagged; above the bound, the benchmark is too noisy
for that metric. --trace-seed adds one traced run per workload. --against
compares each median with an earlier report's: the shift (this - earlier) /
earlier must not exceed the bound. The runs' result objects and the summary
are written as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, ROOT, WORK, read_json, write_json_atomic


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], metric: dict) -> dict:
    values = [r["metrics"][metric["name"]]["value"] for r in runs]
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": metric["bound"], "values": values,
            "steady": spread < metric["bound"] / 3.0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True,
                        help="comma list of workload names")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="comma list of seeds or ranges, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", type=Path, default=WORK / "spread.json")
    parser.add_argument("--against", type=Path, default=None,
                        help="an earlier report of this script to compare medians with")
    args = parser.parse_args()
    earlier = read_json(args.against)["workloads"] if args.against else {}

    spec = read_json(ROOT / "BENCHMARK.json")
    seconds = args.seconds or spec["run_seconds"]
    report = {"label": args.label, "seconds": seconds, "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(f"{workload} seed={seed} correct={runs[-1]['correct']} {values}",
                  flush=True)
        first = read_json(WORK / "results" / f"{workload}-seed{args.seeds[0]}-trace0.json")
        entry = {"env": first["env"], "inputs": first["inputs"], "runs": runs,
                 "failed_share": (f"{sum(r['failed'] for r in runs)}/"
                                  f"{sum(r['attempted'] for r in runs)} checks"),
                 "summary": {m["name"]: summarize(runs, m) for m in spec["end_to_end"]}}
        if args.trace_seed is not None:
            entry["trace"] = run_once(workload, args.trace_seed, seconds, 1)
        report["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            flag = "ok" if s["steady"] else ("NOISY" if s["spread"] <= s["bound"] else "TOO NOISY")
            line = (f"  {workload:<14} {name:<12} median={s['median']:.4f} "
                    f"q1={s['q1']:.4f} q3={s['q3']:.4f} spread={s['spread']:.4f} "
                    f"bound={s['bound']} {flag}")
            if workload in earlier:
                before = earlier[workload]["summary"][name]["median"]
                s["earlier_median"] = before
                s["median_shift"] = (s["median"] - before) / before
                s["shift_within_bound"] = s["median_shift"] <= s["bound"]
                line += (f" shift={s['median_shift']:+.4f} "
                         f"{'ok' if s['shift_within_bound'] else 'WORSE THAN BOUND'}")
            print(line, flush=True)
        write_json_atomic(args.out, report)


if __name__ == "__main__":
    main()
