"""graphtsne benchmark: three workloads through the public Python API.

    python3 perfbench/run.py --workload fit-full --seed 0 --seconds 10 --trace 0

Workloads (inputs are generated from --seed; the program sees only files):

  fit-full       citation_dataset(): N=2708, about 14.6k edges, 1433 binary
                 features. Full-batch preset (hidden 128), alpha 0.5, a fixed
                 epoch count, then embed and write_svg. All O(N^2) set-up
                 (all-pairs BFS, feature distances, two calibrations) and the
                 N x N loss run here.
  fit-minibatch  random_dataset(50000, 150000, feature_dim=16), mini-batch
                 preset (hidden 256, 1000 batches of 50 nodes, fanouts 10,15),
                 stopped after a fixed batch count. Hop-capped BFS over the
                 whole graph dominates each batch; loss and calibration act on
                 50 x 50 matrices.
  evaluate       evaluate_layout with default k, r and folds, on the fit-full
                 dataset and a seeded clustered 2-D layout read back through
                 cli.read_layout_csv.
  all            runs the three in turn and prints a summary.

Every measured operation runs in a fresh child process (worker.py), so its
peak RSS counts only that operation; inputs are written beforehand by
another child (gen.py). A run repeats the whole operation and reports
medians. The step count comes from --seconds and a fixed nominal step cost
of the seed code, so a run does the same work on every commit.

--trace 0 prints the end-to-end metrics; --trace 1 runs the operation once
untraced and once with spans around every public call (tracer.py) and prints
the per-layer metrics, self times and tracing overhead. The last line of
standard output is the JSON result; the lines before it are for people.
On the default seed the outputs are compared with reference.json, which
holds the seed code's values. The exit code is 0 when every output check
passed, 1 when a check failed (the result is still printed) and 2 when no
result could be produced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (BENCH_DIR, DEFAULT_SEED, ROOT, SRC, WORK, read_json,
                    write_json_atomic)
from tracer import converged_ratio

WORKLOADS = ("fit-full", "fit-minibatch", "evaluate")
DATASET = {"fit-full": "citation", "fit-minibatch": "random", "evaluate": "citation"}
# Steps per whole operation, per second of --seconds. The seed code takes
# about 1.6 s per fit-full epoch and 1.4 s per mini-batch on a 2-core Xeon.
# Fixed counts keep a run's work the same on every commit.
STEPS_PER_SECOND = {"fit-full": 0.3, "fit-minibatch": 0.4}
# Whole operations per run, each in a fresh process. Medians over several
# damp the machine's run-to-run noise; the counts keep a run of each
# workload near half a minute.
OPERATIONS = {"fit-full": 2, "fit-minibatch": 3, "evaluate": 2}
DEADLINE_S = 170.0      # a run must end within 180 s
LOSS_RTOL = 1e-6        # losses against reference.json, relative
METRIC_ATOL = 1e-9      # layout metrics against reference.json, absolute
REFERENCE = BENCH_DIR / "reference.json"


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def steps_for(workload: str, seconds: int) -> int:
    if workload == "evaluate":
        return 1
    return max(3, round(seconds * STEPS_PER_SECOND[workload]) + 1)


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "loadavg_start": list(os.getloadavg()), "seed": seed}


def run_child(deadline: float, script: str, *args) -> None:
    """Run one of the benchmark's scripts in a child process, killing it at
    the run's deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before {script}")
    cmd = [sys.executable, str(BENCH_DIR / script), *map(str, args)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish within the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} {' '.join(map(str, args))} exited "
                         f"{proc.returncode}:\n{proc.stderr[-3000:]}")


def ensure_inputs(deadline: float, dataset: str, seed: int) -> tuple[Path, dict, float]:
    """Generate (or reuse) the seeded input files; only the latest seed of a
    dataset is kept on disk."""
    base = WORK / "inputs"
    target = base / f"{dataset}-{seed}"
    start = time.perf_counter()
    if not (target / "inputs.json").is_file():
        if base.is_dir():
            for old in base.glob(f"{dataset}-*"):
                shutil.rmtree(old)
        run_child(deadline, "gen.py", "--dataset", dataset, "--seed", seed, "--out", target)
    return target, read_json(target / "inputs.json"), time.perf_counter() - start


def run_worker(deadline: float, workload: str, inputs: Path, steps: int,
               trace: int, out: Path) -> dict:
    out.unlink(missing_ok=True)
    run_child(deadline, "worker.py", "--workload", workload, "--inputs", inputs,
              "--steps", steps, "--trace", trace, "--out", out)
    return read_json(out)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class Checks:
    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list:
        return [r for r in self.results if not r[1]]


def close(a: float, b: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def check_losses(checks: Checks, tag: str, losses: list, reference: list | None) -> None:
    # reference.json holds 19 full-batch and 21 mini-batch losses, enough for
    # --seconds up to 60 and 50; later steps are checked for finiteness only
    for i, loss in enumerate(losses):
        checks.add(f"{tag} loss[{i}] finite", math.isfinite(loss), repr(loss))
        if reference is not None and i < len(reference):
            checks.add(f"{tag} loss[{i}] matches reference",
                       close(loss, reference[i], rtol=LOSS_RTOL),
                       f"{loss!r} vs {reference[i]!r}")


def check_op(checks: Checks, workload: str, tag: str, res: dict, inputs: dict,
             reference: dict | None) -> None:
    if workload != "evaluate":
        check_losses(checks, tag, res["losses"],
                     None if reference is None else reference.get("losses"))
        checks.add(f"{tag} gradients finite", res["grads_finite"])
        ratio = converged_ratio(res["affinity_counts"])
        checks.add(f"{tag} converged_ratio reported", 0.0 < ratio <= 1.0, repr(ratio))
    if workload == "fit-full":
        n = inputs["num_nodes"]
        losses = res["losses"]
        checks.add(f"{tag} final loss below first", losses[-1] < losses[0],
                   f"{losses[-1]!r} vs {losses[0]!r}")
        checks.add(f"{tag} layout finite N x 2",
                   res["layout_finite"] and res["layout_shape"] == [n, 2],
                   str(res["layout_shape"]))
        checks.add(f"{tag} svg has one circle per node and is closed",
                   res["svg_circles"] == n and res["svg_closed"],
                   f"{res['svg_circles']} circles")
    elif workload == "evaluate":
        for name, value in res["metrics"].items():
            ok = value is not None and math.isfinite(value)
            if ok and not name.startswith("P_"):
                ok = 0.0 <= value <= 1.0
            elif ok:
                ok = value > 0.0
            checks.add(f"{tag} {name} in range", ok, repr(value))
            if reference is not None:
                expected = reference["metrics"].get(name)
                checks.add(f"{tag} {name} matches reference",
                           None not in (value, expected)
                           and close(value, expected, atol=METRIC_ATOL),
                           f"{value!r} vs {expected!r}")


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_reference(checks: Checks, workload: str, seed: int) -> dict | None:
    """The seed code's outputs for this workload on the default seed; a
    missing reference is a failed check, not a skipped comparison."""
    if seed != DEFAULT_SEED:
        return None
    reference = read_json(REFERENCE).get(workload) if REFERENCE.is_file() else None
    checks.add(f"reference values for {workload} present", reference is not None,
               str(REFERENCE.relative_to(ROOT)))
    return reference


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 spec: dict, deadline: float) -> dict:
    env = environment(seed)
    inputs_dir, inputs, gen_s = ensure_inputs(deadline, DATASET[workload], seed)
    steps = steps_for(workload, seconds)
    out_dir = WORK / "out" / workload
    out_dir.mkdir(parents=True, exist_ok=True)

    checks = Checks()
    reference = load_reference(checks, workload, seed)
    if trace:
        plain = run_worker(deadline, workload, inputs_dir, steps, 0,
                           out_dir / "untraced.json")
        traced = run_worker(deadline, workload, inputs_dir, steps, 1,
                            out_dir / "traced.json")
        check_op(checks, workload, "untraced", plain, inputs, reference)
        check_op(checks, workload, "traced", traced, inputs, reference)
        values = dict(traced["per_layer"])
        # one pair of runs; the machine's run-to-run noise swamps this
        # difference, so trace.overhead_s (timed inside the wrappers) is
        # the measured overhead
        values["trace.traced_minus_untraced_s"] = traced["wall_s"] - plain["wall_s"]
        ops = [plain, traced]
        names = spec["per_layer"]
    else:
        ops = [run_worker(deadline, workload, inputs_dir, steps, 0,
                          out_dir / f"op-{i}.json") for i in range(OPERATIONS[workload])]
        for i, res in enumerate(ops):
            check_op(checks, workload, f"op[{i}]", res, inputs, reference)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in ops),
            "step_s": statistics.median(s for r in ops for s in r["step_s"]),
            "wall_s": statistics.median(r["wall_s"] for r in ops),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ops),
        }
        names = spec["end_to_end"]

    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metric(s) {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    failed = len(checks.failed)
    result = {"correct": failed == 0, "attempted": len(checks.results),
              "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "steps": steps, "env": {**env, **ops[-1]["env"]}, "inputs": inputs,
              "input_generation_s": gen_s,
              "setup_samples_s": [r["setup_s"] for r in ops],
              "wall_ops_s": [r["wall_s"] for r in ops],
              "step_samples_s": [s for r in ops for s in r["step_s"]],
              "losses": ops[-1].get("losses"), "layout_metrics": ops[-1].get("metrics"),
              "affinity_counts": ops[-1]["affinity_counts"],
              "checks": checks.results, "result": result}
    if trace:
        record["spans_table"] = ops[-1]["spans_table"]
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    write_json_atomic(WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json", record)
    report(record)
    return result


def report(record: dict) -> None:
    """Human-readable lines: environment, inputs, metrics with units, checks."""
    res = record["result"]
    inp = record["inputs"]
    print(f"== {record['workload']}  seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']} steps={record['steps']}")
    print("env: " + json.dumps(record["env"], sort_keys=True))
    print(f"inputs: N={inp['num_nodes']} E={inp['num_edges']} "
          f"feature_dim={inp['feature_dim']} bytes={json.dumps(inp['bytes'])} "
          f"(generated or reused in {record['input_generation_s']:.2f} s, untimed)")
    print("set-ups (s): " + " ".join(f"{v:.4f}" for v in record["setup_samples_s"]))
    print("whole operations (s): " + " ".join(f"{v:.4f}" for v in record["wall_ops_s"]))
    if record["step_samples_s"]:
        q1, q2, q3 = quartiles(record["step_samples_s"])
        print(f"step samples: n={len(record['step_samples_s'])} median={q2:.4f} s "
              f"q1={q1:.4f} q3={q3:.4f} max={max(record['step_samples_s']):.4f}")
    counts = record["affinity_counts"]
    if counts["affinity.joint_p.rows"]:
        print(f"affinity.joint_p.converged_ratio = {converged_ratio(counts):.4f} "
              f"(base: {counts['affinity.joint_p.rows']} rows, "
              f"{counts['affinity.joint_p.degenerate_rows']} degenerate)")
    if record["trace"]:
        print(f"{'span':<48} {'calls':>7} {'incl s':>10} {'self s':>10}")
        for name, calls, incl, self_s in record["spans_table"]:
            print(f"{name:<48} {calls:>7} {incl:>10.4f} {self_s:>10.4f}")
        m = res["metrics"]
        spans = m["trace.spans"]["value"]
        overhead = m["trace.overhead_s"]["value"]
        print(f"tracing overhead: {overhead:.4f} s timed inside the wrappers over "
              f"{spans} spans ({1e6 * overhead / max(spans, 1):.2f} us per span); "
              f"traced minus untraced wall: "
              f"{m['trace.traced_minus_untraced_s']['value']:.4f} s "
              f"(one pair of runs, so mostly run-to-run noise)")
    for name, m in res["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    share = res["failed"] / res["attempted"]
    print(f"failed_share = {res['failed']}/{res['attempted']} = {share:.4f} "
          f"(base: output checks attempted in this run)")
    for name, ok, detail in record["checks"]:
        if not ok:
            print(f"CHECK FAILED: {name}: {detail}")
    print(f"checks: {'PASS' if res['correct'] else 'FAIL'} "
          f"({res['attempted'] - res['failed']}/{res['attempted']} passed)")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="graphtsne benchmark (see the module docstring)")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "graphtsne" / "__init__.py").is_file():
        print(f"error: no graphtsne sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = read_json(ROOT / "BENCHMARK.json")
        if args.workload == "all":
            results = {}
            for workload in WORKLOADS:
                deadline = time.monotonic() + DEADLINE_S
                results[workload] = run_workload(workload, args.seed, args.seconds,
                                                 args.trace, spec, deadline)
            print(json.dumps(results))
            return 0 if all(r["correct"] for r in results.values()) else 1
        result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              spec, time.monotonic() + DEADLINE_S)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
