"""One measured operation of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload fit-full --inputs DIR --steps 7 \
        --trace 0 --out RESULT.json

Drives graphtsne's public API in the order the CLI does: load the input
files, train or score, write the output. Times are taken from the first
loader call. The result, with the outputs the caller checks, is written as
JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from common import import_graphtsne, read_json, write_json_atomic
from tracer import Tracer, count_affinity

WORKLOADS = ("fit-full", "fit-minibatch", "evaluate")
ALPHA = 0.5


class StopRun(Exception):
    """Raised from a step callback to end training after a fixed step count."""


class StepClock:
    """Step callback that timestamps each optimiser step and records its loss."""

    def __init__(self, limit: int | None) -> None:
        self.limit = limit
        self.times: list[float] = []
        self.losses: list[float] = []
        self.grads_finite = True

    def step(self, loss) -> None:
        self.times.append(time.perf_counter())
        self.losses.append(float(loss.total))
        self.grads_finite &= bool(np.isfinite(loss.grad).all())
        if self.limit is not None and len(self.times) >= self.limit:
            raise StopRun

    def on_epoch(self, epoch, loss) -> None:
        self.step(loss)

    def on_batch(self, epoch, batch, sample, loss) -> None:
        self.step(loss)


def count_affinities(trainer, counts: Counter) -> None:
    """Count calibrated, converged and degenerate rows of every affinity
    matrix the trainer builds (untraced runs; the tracer counts its own)."""
    joint_p = trainer.joint_p

    def counted(distances, perplexity):
        result = joint_p(distances, perplexity)
        count_affinity(counts, result)
        return result

    trainer.joint_p = counted


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB (ru_maxrss is in KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load(G, paths: dict, num_nodes: int):
    """Load edges, features and labels the way the CLI's loader does."""
    features = G.load_features_csv(paths["features"])
    graph = G.load_edge_list(paths["edges"], num_nodes)
    labels = G.load_labels_csv(paths["labels"])
    return G.LabeledDataset(graph=graph, features=features, labels=labels)


def run_fit(graphtsne, workload: str, paths: dict, num_nodes: int, steps: int,
            out_dir: Path) -> dict:
    G, T, S = graphtsne.graph, graphtsne.trainer, graphtsne.svg
    # full-batch training ends by itself after ``steps`` epochs; mini-batch
    # training is stopped from its step callback
    clock = StepClock(None if workload == "fit-full" else steps)
    out: dict = {}
    t0 = time.perf_counter()
    data = load(G, paths, num_nodes)
    cfg = T.default_config(num_nodes, alpha=ALPHA, seed=0)
    if workload == "fit-full":
        model, _ = T.train_full_batch(data, replace(cfg, epochs=steps),
                                      on_epoch=clock.on_epoch)
        y = T.embed(model, data)
        svg_path = out_dir / "layout.svg"
        S.write_svg(svg_path, y, labels=data.labels, edges=data.graph.edge_pairs)
    else:
        try:
            T.train_minibatch(data, cfg, on_batch=clock.on_batch)
            raise RuntimeError("mini-batch training ended before the step limit")
        except StopRun:
            pass
    t_end = time.perf_counter()

    if workload == "fit-full":
        text = svg_path.read_text(encoding="utf-8")
        out["layout_finite"] = bool(np.isfinite(y).all())
        out["layout_shape"] = list(y.shape)
        out["svg_circles"] = text.count("<circle ")
        out["svg_closed"] = text.rstrip().endswith("</svg>")
    out.update(t0=t0, t_end=t_end, setup_s=clock.times[0] - t0,
               step_s=[b - a for a, b in zip(clock.times, clock.times[1:])],
               wall_s=t_end - t0, losses=clock.losses,
               grads_finite=clock.grads_finite)
    return out


def run_evaluate(graphtsne, paths: dict, num_nodes: int, out_dir: Path) -> dict:
    G, C, M = graphtsne.graph, graphtsne.cli, graphtsne.metrics
    t0 = time.perf_counter()
    data = load(G, paths, num_nodes)
    y = C.read_layout_csv(paths["layout"], data.graph.num_nodes)
    t_setup = time.perf_counter()
    report = M.evaluate_layout(data, y, knn_k=M.DEFAULT_KNN_K, t_ks=M.DEFAULT_T_KS,
                               t_rs=M.DEFAULT_T_RS, folds=M.DEFAULT_FOLDS)
    t_scored = time.perf_counter()
    write_json_atomic(out_dir / "metrics.json", report.to_dict())
    t_end = time.perf_counter()
    metrics = {f"T_X({k})": v for k, v in report.t_feature.items()}
    metrics.update({f"T_G({r})": v for r, v in report.t_graph.items()})
    metrics.update(P_G=report.p_graph, P_X=report.p_feature,
                   **{"1NN_acc": report.knn_accuracy})
    # the one scoring call is this workload's step
    return {"t0": t0, "t_end": t_end, "setup_s": t_setup - t0,
            "wall_s": t_end - t0, "step_s": [t_scored - t_setup], "metrics": metrics}


def numpy_record() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__,
            "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version")).strip(),
            "blas_config": str(blas.get("openblas configuration", ""))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    graphtsne = import_graphtsne()
    import graphtsne.cli  # noqa: F401  (the package __init__ does not import it)
    trainer = graphtsne.trainer

    record = read_json(args.inputs / "inputs.json")
    paths = {key: str(args.inputs / name) for key, name in record["files"].items()}
    out_dir = args.out.parent
    counts: Counter = Counter()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(graphtsne)
        counts = tracer.counts
    else:
        count_affinities(trainer, counts)

    if args.workload == "evaluate":
        result = run_evaluate(graphtsne, paths, record["num_nodes"], out_dir)
    else:
        result = run_fit(graphtsne, args.workload, paths, record["num_nodes"],
                         args.steps, out_dir)
    result["peak_rss_mb"] = peak_rss_mb()
    result["affinity_counts"] = {k: counts[k] for k in (
        "affinity.joint_p.rows", "affinity.joint_p.converged",
        "affinity.joint_p.degenerate_rows")}
    result["env"] = numpy_record()
    if tracer is not None:
        result["per_layer"] = tracer.summary(result["t0"], result["t_end"])
        result["spans_table"] = tracer.table()
        with open(out_dir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    write_json_atomic(args.out, result)


if __name__ == "__main__":
    main()
