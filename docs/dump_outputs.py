#!/usr/bin/env python3
"""Dump a fingerprint of graphtsne's outputs on fixed seeds, to compare trees.

A refactor that claims "same bytes" is checked by running this script under
the old and the new source tree and comparing the two files byte for byte:

    PYTHONPATH=<old tree>/src python3 docs/dump_outputs.py old.json
    PYTHONPATH=<new tree>/src python3 docs/dump_outputs.py new.json
    cmp old.json new.json

Arrays are recorded as dtype, shape and SHA-256 of their bytes; floats as
their exact repr. Covered:

- full-batch training at alpha 0, 0.5 and 1: epoch losses, the gradient
  each step's callback sees, the trained weights, the embedding, and the
  checkpoint bytes after a save/load round trip;
- mini-batch training at alpha 0, 0.5 and 1: epoch losses, and per batch
  the sampled nodes and edges and the gradient;
- batch plans (every LayerPlan array), a plan and a forward pass on a
  graph with no edges;
- joint_p on the citation stand-in's hop and feature matrices;
- evaluate_layout, its report without the run time;
- the files `graphtsne fit` and `graphtsne sweep` write, with the manifests'
  timestamps and the sweep reports' run times removed.

Uses only the public API, so it runs under any tree that has it. Takes
about 15 s on a 2-core machine.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from graphtsne import (Graph, LabeledDataset, TrainConfig, all_pairs_distances,
                       build_batch_plan, build_full_plan, citation_dataset,
                       embed, evaluate_layout, forward, init_model, joint_p,
                       load_model, neighbor_subsample, pairwise_sq_euclidean,
                       random_dataset, save_model, sbm_dataset,
                       train_full_batch, train_minibatch)
from graphtsne.cli import main as cli_main

ALPHAS = (0.0, 0.5, 1.0)


def digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    return f"{arr.dtype}{list(arr.shape)}:{hashlib.sha256(arr.tobytes()).hexdigest()}"


def floats(values) -> list:
    return [repr(float(v)) for v in values]


def report_record(report) -> dict:
    return {"total": floats(report.total_losses),
            "graph": floats(report.graph_losses),
            "feature": floats(report.feature_losses),
            "final_lr": repr(report.final_lr)}


def loss_record(loss) -> dict:
    return {"total": repr(loss.total), "graph": repr(loss.graph_term),
            "feature": repr(loss.feature_term), "grad": digest(loss.grad)}


def model_record(model, data, scratch) -> dict:
    path = os.path.join(scratch, "model.gtsne")
    save_model(model, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    reloaded = load_model(path)
    return {"state": {name: digest(arr) for name, arr in model.named_state()},
            "embed": digest(embed(model, data)),
            "checkpoint": hashlib.sha256(blob).hexdigest(),
            "reloaded_embed": digest(embed(reloaded, data))}


def full_batch(scratch) -> dict:
    data = sbm_dataset([15, 15, 15], p_intra=0.5, p_inter=0.04,
                       feature_dim=6, seed=7)
    out = {}
    for alpha in ALPHAS:
        cfg = TrainConfig(alpha=alpha, epochs=25, hidden_dim=16, mode="full",
                          lr=0.01, seed=3)
        steps = []
        model, report = train_full_batch(
            data, cfg, on_epoch=lambda epoch, loss: steps.append(loss_record(loss)))
        out[repr(alpha)] = {"report": report_record(report), "steps": steps,
                            "model": model_record(model, data, scratch)}
    return out


def minibatch(scratch) -> dict:
    data = random_dataset(800, 3200, feature_dim=8, seed=21)
    out = {}
    for alpha in ALPHAS:
        cfg = TrainConfig(alpha=alpha, epochs=2, hidden_dim=16, mode="minibatch",
                          batch_count=20, fanouts=(4, 6), perplexity=8.0, seed=5)
        steps = []

        def on_batch(epoch, b, sample, loss):
            steps.append({"epoch": epoch, "batch": b,
                          "frontiers": [digest(f) for f in sample.frontiers],
                          "edges": [digest(np.stack(e)) for e in sample.layer_edges],
                          "loss": loss_record(loss)})

        model, report = train_minibatch(data, cfg, on_batch=on_batch)
        out[repr(alpha)] = {"report": report_record(report), "steps": steps,
                            "model": model_record(model, data, scratch)}
    return out


def plan_record(plan) -> dict:
    return {"node_ids": digest(plan.node_ids), "batch_size": plan.batch_size,
            "layers": [{key: digest(value) if isinstance(value, np.ndarray) else value
                        for key, value in sorted(vars(layer).items())}
                       for layer in plan.layers]}


def plans() -> dict:
    out = {}
    graph = random_dataset(3000, 15000, feature_dim=4, seed=9).graph
    for seed in range(5):
        batch = np.sort(np.random.default_rng(seed).choice(3000, 40, replace=False))
        sample = neighbor_subsample(graph, batch, (10, 15), seed=seed)
        out[f"batch{seed}"] = plan_record(build_batch_plan(sample))
    edgeless = Graph.from_edges(12, [])
    x = np.random.default_rng(4).normal(size=(12, 3))
    out["edgeless_batch"] = plan_record(build_batch_plan(
        neighbor_subsample(edgeless, np.arange(5), (3, 3), seed=0)))
    out["edgeless_full"] = plan_record(build_full_plan(edgeless, 2))
    model = init_model(3, 8, seed=1)
    y, _ = forward(model, build_full_plan(edgeless, model.num_layers), x, mode="train")
    out["edgeless_forward"] = digest(y)
    return out


def affinities() -> dict:
    data = citation_dataset()
    out = {}
    for which, distances in (
            ("graph", lambda: all_pairs_distances(data.graph, hop_cap=20)),
            ("feature", lambda: pairwise_sq_euclidean(data.features))):
        aff = joint_p(distances(), 30.0)
        out[which] = {"p": digest(aff.p), "sigmas": digest(aff.sigmas),
                      "n_converged": aff.n_converged,
                      "n_degenerate": aff.n_degenerate}
    layout = np.random.default_rng(2).normal(size=(data.graph.num_nodes, 2))
    report = evaluate_layout(data, layout, alpha=0.5).to_dict()
    del report["runtime_s"]
    out["evaluate_layout"] = report
    return out


def write_inputs(root: str, data: LabeledDataset) -> None:
    with open(os.path.join(root, "edges.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{i} {j}\n" for i, j in data.graph.edge_pairs)
    with open(os.path.join(root, "features.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n"
                      for row in data.features)
    with open(os.path.join(root, "labels.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{int(v)}\n" for v in data.labels)


def cli_outputs(scratch) -> dict:
    data = sbm_dataset([12, 12, 12], p_intra=0.5, p_inter=0.05,
                       feature_dim=5, seed=11)
    inputs = ["--edges", "in/edges.txt", "--features", "in/features.csv",
              "--labels", "in/labels.csv", "--num-nodes", "36", "--seed", "4",
              "--epochs", "15", "--perplexity", "8"]
    runs = {"fit": ["fit", "--alpha", "0.5", "--out-dir", "fit"] + inputs,
            "sweep": ["sweep", "--grid", "0,0.5,1", "--out-dir", "sweep"] + inputs}
    out = {}
    cwd = os.getcwd()
    os.chdir(scratch)  # relative paths keep the manifests free of the temp dir
    try:
        os.makedirs("in")
        write_inputs("in", data)
        for name, argv in runs.items():
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                code = cli_main(argv)
            files = {}
            for entry in sorted(os.listdir(name)):
                with open(os.path.join(name, entry), "rb") as fh:
                    blob = fh.read()
                if entry == "manifest.json":
                    manifest = json.loads(blob)
                    del manifest["timestamp"]
                    files[entry] = manifest
                elif entry == "sweep.json":
                    reports = json.loads(blob)
                    for report in reports:
                        del report["runtime_s"]
                    files[entry] = reports
                else:
                    files[entry] = hashlib.sha256(blob).hexdigest()
            out[name] = {"exit": code, "stdout": printed.getvalue(), "files": files}
    finally:
        os.chdir(cwd)
    return out


def main() -> int:
    if len(sys.argv) != 2:
        print(f"usage: {sys.argv[0]} OUT.json", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as scratch:
        record = {"full_batch": full_batch(scratch), "minibatch": minibatch(scratch),
                  "plans": plans(), "affinities": affinities(),
                  "cli": cli_outputs(scratch)}
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
