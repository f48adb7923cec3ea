#!/usr/bin/env python3
"""Dump a fingerprint of graphtsne's outputs on fixed seeds, to compare trees.

A refactor that claims "same bytes" is checked by running this script under
the old and the new source tree and comparing the two files byte for byte:

    PYTHONPATH=<old tree>/src python3 docs/dump_outputs.py old.json
    PYTHONPATH=<new tree>/src python3 docs/dump_outputs.py new.json
    cmp old.json new.json

A change that moves summation order is checked with ``--compare`` instead:

    PYTHONPATH=src python3 docs/dump_outputs.py --compare old.json new.json

It prints, per top-level section, how many entries differ and which keys
exist on one side only, then the largest relative float difference. A list
of floats (an array's values, a loss curve, the numbers in a text file) is
compared as one array: its largest difference relative to its largest
magnitude. It exits 1 when that exceeds RTOL, and when any other value
differs: an exit code, a list's length, text around the numbers, an array's
dtype, shape or hash, a checkpoint's header, or a key present on one side
only. The exceptions are named in ONLY_IN_OLD, ONLY_IN_NEW and CHANGED
below.

Floats are recorded as their exact repr; float arrays of at most FULL_FLOATS
entries as dtype, shape and every value, other arrays as dtype, shape and
SHA-256 of their bytes, larger float arrays also as a strided sample of
FULL_FLOATS values, so that --compare measures their drift; text files as
their text with the numbers cut out, and the numbers; checkpoints as the
SHA-256 of their header and whether the rest is the model's array bytes.
Covered:

- full-batch training at alpha 0, 0.5 and 1: epoch losses, the gradient
  each step's callback sees, the trained weights, the embedding, and the
  checkpoint after a save/load round trip; and on the 300-node hub graph
  below, whose affinities span five 64-row blocks, the epoch losses, each
  step's loss and gradient and the embedding;
- mini-batch training at alpha 0, 0.5 and 1: epoch losses, per batch the
  sampled nodes and edges and the gradient, and the trained model's
  eval-mode embedding of the hub graph below;
- what train_full_batch and train_minibatch raise, type and message, on a
  perplexity out of the graph's or the smallest batch's reach and on more
  batches than nodes;
- batch plans (every LayerPlan array, and each edge walk as its row slices
  and the digest of its edge ids), a plan and a forward pass on a graph
  with no edges;
- one train-mode forward and backward pass, over the full plan and over a
  batch plan, on a graph with isolated nodes and a hub of degree over
  120 (more than the 64 nodes the edge passes take at a time): the output,
  every gradient and the batch-norm running statistics;
- joint_p on the citation stand-in's hop and feature matrices, on
  real-valued features whose distances are all distinct, and on one
  50-node batch's hop and feature matrices, the shape mini-batch training
  calibrates: P (by value where it is small enough, else hashed and
  sampled), sigmas by value, and the converged, degenerate and bound-hit
  counts;
- knn_graph pairs for k = 1, 10 and 50 on the citation stand-in's features,
  whose many ties test the tie order, and on the real-valued features;
- every rank_blocks order (hashed) on the citation stand-in's features and on
  a seeded 2-D layout rounded to 0.1, so that its distances tie, the layout's
  once from its distance matrix and once from the loss's distance blocks;
- rank_prefix's first m columns (hashed) of those distance blocks, for
  m = 1, 18, 118 and N - 1;
- evaluate_layout on that layout and on it rounded, its report without the
  run time;
- the four input readers (edge list, features, labels, layout) on files
  with '#' comments (edge list only), blank lines and padded cells, once
  with LF and once with CRLF line endings, and the edge list and features
  readers on files of over 1 MiB, which they read in more than one chunk,
  also with a late chunk of spellings only int() and float() read;
- what each of those readers and the config file reader raise, type and
  message, on a file with one bad line after more than one chunk of good
  lines, one file per rule;
- the files `graphtsne fit`, `graphtsne fit --config` (a commented config
  that sets every key, once with `--alpha` and once taking alpha from the
  file), `graphtsne sweep` and `graphtsne evaluate` write, with the
  manifests' timestamps and the reports' run times removed.

Uses the public API plus `graph.rank_blocks`, `graph.rank_prefix`,
`affinity.distance_blocks` and `affinity.row_blocks`; a tree that lacks one of them is dumped with its own
copy of this script. Takes about 10 s on a 2-core machine.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import replace
from fnmatch import fnmatchcase

import numpy as np

from graphtsne import (Graph, LabeledDataset, TrainConfig, TrainingError,
                       all_pairs_distances, backward, bfs_shortest_paths,
                       build_batch_plan, build_full_plan,
                       citation_dataset, embed, evaluate_layout, forward,
                       init_model, joint_p, knn_graph, load_model, neighbor_subsample,
                       pairwise_sq_euclidean, random_dataset, read_config_file,
                       save_model, sbm_dataset, train_full_batch, train_minibatch)
from graphtsne.affinity import distance_blocks, row_blocks
from graphtsne.cli import main as cli_main, read_layout_csv
from graphtsne.graph import (load_edge_list, load_features_csv, load_labels_csv,
                            rank_blocks, rank_prefix)

ALPHAS = (0.0, 0.5, 1.0)
FULL_FLOATS = 10_000   # larger float arrays (the N x N affinities) are hashed and sampled
NUMBER = re.compile(r"-?(?:\d+\.\d*(?:e[+-]\d+)?|\d+e[+-]\d+)")


def floats(values) -> list:
    return [repr(float(v)) for v in values]


def digest(arr):
    arr = np.ascontiguousarray(arr)
    shape = f"{arr.dtype}{list(arr.shape)}"
    if arr.dtype.kind == "f" and arr.size <= FULL_FLOATS:
        return {"shape": shape, "values": floats(arr.ravel())}
    hashed = f"{shape}:{hashlib.sha256(arr.tobytes()).hexdigest()}"
    if arr.dtype.kind != "f":
        return hashed
    sample = arr.ravel()[np.arange(FULL_FLOATS) * arr.size // FULL_FLOATS]
    return {"hash": hashed, "sample": floats(sample)}


def text_record(text: str) -> dict:
    """A text file as its text with every number cut out, and the numbers."""
    return {"text": NUMBER.sub("#", text), "numbers": NUMBER.findall(text)}


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
    state = b"".join(np.ascontiguousarray(arr).tobytes()
                     for _, arr in model.named_state())
    header = blob[:len(blob) - len(state)]
    return {"state": {name: digest(arr) for name, arr in model.named_state()},
            "embed": digest(embed(model, data)),
            "checkpoint": {"header": hashlib.sha256(header).hexdigest(),
                           "holds_state": blob.endswith(state)},
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
    # five 64-row blocks: the loss walks the parts right of the diagonal squares
    hub, out["300_nodes"] = hub_dataset(), {}
    for alpha in ALPHAS:
        cfg = TrainConfig(alpha=alpha, epochs=5, hidden_dim=16, mode="full",
                          lr=0.01, seed=3)
        steps = []
        model, report = train_full_batch(
            hub, cfg, on_epoch=lambda epoch, loss: steps.append(loss_record(loss)))
        out["300_nodes"][repr(alpha)] = {"report": report_record(report),
                                         "steps": steps,
                                         "embed": digest(embed(model, hub))}
    return out


def hub_dataset() -> LabeledDataset:
    """300 nodes, feature dim 8: random edges among nodes 0-259, node 0 also
    joined to nodes 1-120 (degree at least 120), nodes 260-299 isolated."""
    rng = np.random.default_rng(17)
    pairs = np.concatenate([rng.integers(0, 260, size=(600, 2)),
                            [(0, j) for j in range(1, 121)]])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    graph = Graph.from_edges(300, np.unique(np.sort(pairs, axis=1), axis=0))
    return LabeledDataset(graph=graph, features=rng.normal(size=(300, 8)))


def minibatch(scratch) -> dict:
    data = random_dataset(800, 3200, feature_dim=8, seed=21)
    hub = hub_dataset()
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
                            "model": model_record(model, data, scratch),
                            "hub_embed": digest(embed(model, hub))}
    return out


def rejected_configs() -> dict:
    """The type and message of what training raises on settings that do not
    fit the 45-node graph, or "no error" where it trains on them."""
    data = sbm_dataset([15, 15, 15], p_intra=0.5, p_inter=0.04,
                       feature_dim=6, seed=7)
    full = TrainConfig(alpha=0.5, epochs=2, hidden_dim=8, mode="full", seed=3)
    batches = replace(full, mode="minibatch", batch_count=2, fanouts=(3, 3))
    cases = {"full perplexity 44.5": (train_full_batch, replace(full, perplexity=44.5)),
             "minibatch perplexity 22.5": (train_minibatch,
                                           replace(batches, perplexity=22.5)),
             "minibatch batch_count 46": (train_minibatch,
                                          replace(batches, batch_count=46, perplexity=2.0))}
    out = {}
    for name, (train, cfg) in cases.items():
        try:
            train(data, cfg)
        except (ValueError, TrainingError) as exc:
            out[name] = [type(exc).__name__, str(exc)]
        else:
            out[name] = "no error"
    return out


def walk_digest(walk) -> dict:
    """An edge walk, a list of (rows, edge ids), as its row slices and the
    digest of its edge ids in walk order."""
    edges = [np.zeros(0, dtype=np.int64), *(ids for _, ids in walk)]
    return {"rows": [[rows.start, rows.stop] for rows, _ in walk],
            "edges": digest(np.concatenate(edges))}


def plan_record(plan) -> dict:
    def field(value):
        if isinstance(value, np.ndarray):
            return digest(value)
        return walk_digest(value) if isinstance(value, list) else value
    return {"node_ids": digest(plan.node_ids), "batch_size": plan.batch_size,
            "layers": [{key: field(value) for key, value in sorted(vars(layer).items())}
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
    hub = hub_dataset()
    batch = np.array([0, 5, 130, 259, 260, 299])  # the hub, isolated nodes
    sample = neighbor_subsample(hub.graph, batch, (70, 100), seed=2)
    for name, plan in (("hub_full", build_full_plan(hub.graph, 2)),
                       ("hub_batch", build_batch_plan(sample))):
        model = init_model(8, 16, seed=6)
        y, trace = forward(model, plan, hub.features, mode="train")
        grad_y = np.random.default_rng(8).normal(size=y.shape)
        grads = backward(model, trace, grad_y)
        out[name] = {"y": digest(y),
                     "grads": {key: digest(g) for key, g in sorted(grads.items())},
                     "state": {key: digest(arr) for key, arr in model.named_state()}}
    return out


def matrix_blocks(distances):
    """A distance matrix as the (rows, distances[rows]) blocks rank_blocks takes."""
    return ((rows, distances[rows]) for rows in row_blocks(len(distances)))


def rank_orders(blocks) -> str:
    """SHA-256 of every rank_blocks order of (rows, distances) blocks, block by block."""
    sha, n = hashlib.sha256(), 0
    for _, order in rank_blocks(blocks):
        sha.update(np.ascontiguousarray(order, dtype=np.int64).tobytes())
        n += len(order)
    return f"int64{[n, n - 1]}:{sha.hexdigest()}"


def prefix_orders(blocks, m: int) -> str:
    """SHA-256 of rank_prefix's first m columns of every (rows, distances) block."""
    sha, n = hashlib.sha256(), 0
    for rows, block in blocks:
        prefix = rank_prefix(rows, block, m)
        sha.update(np.ascontiguousarray(prefix, dtype=np.int64).tobytes())
        n += len(prefix)
    return f"int64{[n, m]}:{sha.hexdigest()}"


def affinity_record(distances) -> dict:
    aff = joint_p(distances, 30.0)
    return {"p": digest(aff.p), "sigmas": digest(aff.sigmas),
            "n_converged": aff.n_converged, "n_degenerate": aff.n_degenerate,
            "n_bound_hit": aff.n_bound_hit}


def affinities() -> dict:
    data = citation_dataset()
    feature_d = pairwise_sq_euclidean(data.features)
    out = {"graph": affinity_record(all_pairs_distances(data.graph, hop_cap=20)),
           "feature": affinity_record(feature_d),
           "rank_blocks_citation": rank_orders(matrix_blocks(feature_d))}
    del feature_d
    # every value distinct: real-valued features
    real = random_dataset(300, 1500, feature_dim=16, seed=0).features
    out["real_feature"] = affinity_record(pairwise_sq_euclidean(real))
    for name, x in (("citation", data.features), ("real", real)):
        out[f"knn_graph_{name}"] = {str(k): digest(knn_graph(x, k)) for k in (1, 10, 50)}
    # one mini-batch of fit-minibatch's shape: 50 of 50000 nodes
    big = random_dataset(50000, 150000, feature_dim=16, seed=13)
    batch = np.sort(np.random.default_rng(3).choice(50000, 50, replace=False))
    out["batch_graph"] = affinity_record(bfs_shortest_paths(
        big.graph, batch, batch, hop_cap=TrainConfig.hop_cap))
    out["batch_feature"] = affinity_record(pairwise_sq_euclidean(big.features[batch]))
    layout = np.random.default_rng(2).normal(size=(data.graph.num_nodes, 2))
    rounded = np.round(layout, 1)  # many equal distances: the tie order shows
    out["rank_blocks_rounded_layout"] = rank_orders(matrix_blocks(
        pairwise_sq_euclidean(rounded)))
    # the blocks the loss and the metrics' map pass rank
    out["rank_blocks_rounded_map"] = rank_orders(distance_blocks(rounded))
    out["rank_prefix_rounded_map"] = {  # the prefixes the map pass reads
        str(m): prefix_orders(distance_blocks(rounded), m)
        for m in (1, 18, 118, len(rounded) - 1)}
    for name, y in (("evaluate_layout", layout), ("evaluate_rounded_layout", rounded)):
        report = evaluate_layout(data, y, alpha=0.5).to_dict()
        del report["runtime_s"]
        out[name] = report
    return out


def write_inputs(root: str, data: LabeledDataset) -> None:
    with open(os.path.join(root, "edges.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{i} {j}\n" for i, j in data.graph.edge_pairs)
    with open(os.path.join(root, "features.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n"
                      for row in data.features)
    with open(os.path.join(root, "labels.csv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{int(v)}\n" for v in data.labels)


def readers(scratch) -> dict:
    data = sbm_dataset([12, 12, 12], p_intra=0.5, p_inter=0.05,
                       feature_dim=5, seed=11)
    n = data.graph.num_nodes
    layout = np.random.default_rng(6).normal(size=(n, 2))
    edges = ["# edge list", ""]
    for k, (i, j) in enumerate(data.graph.edge_pairs):
        edges.append([f"{i} {j}", f"{j}\t{i}  # reversed", f"  {i}  {j}  ",
                      f"\n{i} {j}"][k % 4])
    texts = {
        "edges.txt": edges,
        "features.csv": ["", *(" , ".join(repr(float(v)) for v in row)
                               for row in data.features), ""],
        "labels.csv": [f" {int(v)} " if k % 3 else f"{int(v)}\n"
                       for k, v in enumerate(data.labels)],
        "layout.csv": ["node_id,x,y", *(f"{i},{float(layout[i, 0])!r},"
                                        f"{float(layout[i, 1])!r}\n"
                                        for i in np.random.default_rng(7).permutation(n))],
    }
    out = {}
    for newline in ("\n", "\r\n"):
        paths = {}
        for name, lines in texts.items():
            paths[name] = os.path.join(scratch, f"{len(newline)}-{name}")
            with open(paths[name], "w", encoding="utf-8", newline=newline) as fh:
                fh.writelines(line + "\n" for line in lines)
        graph = load_edge_list(paths["edges.txt"], n)
        out[repr(newline)] = {
            "edges": [digest(graph.edge_pairs), digest(graph.offsets),
                      digest(graph.neighbors)],
            "features": digest(load_features_csv(paths["features.csv"])),
            "labels": digest(load_labels_csv(paths["labels.csv"])),
            "layout": digest(read_layout_csv(paths["layout.csv"], n))}
    out["over 1 MiB"] = large_inputs(scratch)
    out["errors"] = reader_errors(scratch)
    return out


def reader_errors(scratch) -> dict:
    """The type and message of what each reader raises on a file with one
    bad line, one file per rule. The bad line comes after more than one
    chunk of good lines (a reader takes about 64 KiB at a time) and before
    a few more, so its number is counted across chunks."""
    n = 20_000
    layout = ["node_id,x,y", *(f"{i},{i / 4!r},{-i}" for i in range(n))]
    good = {"edges": [f"{i} {i * 7 % n}" for i in range(n)],
            "features": [f"{i / 8!r},{-i}" for i in range(n)],
            "labels": [str(i - n // 2) for i in range(n)],
            "layout": layout[:-1],  # the bad line stands in for the last node's row
            "config": [f"seed = {i}  # run {i}" for i in range(n)]}
    bad = {"edges": ["3", "1 2 3", "1.5 2", "a b", f"{n} 0", "0 -1",
                     "99999999999999999999 0", "99999999999999999999 x",
                     "x 99999999999999999999", "0 -99999999999999999999",
                     "0 1\udcff"],
           "features": ["0.5", "0.5,1,2", "x,1", "1,inf", "nan,1", "1e400,x"],
           "labels": ["1.5", "x", "inf", "-inf", "nan", "1e400", "1e20",
                      "9223372036854775808", "1,2"],
           "layout": ["0,1", "0,1,2,3", "x,0,0", "1.0,0,0", "0,x,0", "0,1e400,0",
                      f"{n},0,0", "-1,0,0", "99999999999999999999,x,0",
                      "-99999999999999999999,0,inf", "99999999999999999999,0,0",
                      "0,0,0", f"{n - 7},0,0", f"{n - 3},0,0",
                      f"{n - 1},0,0\n{n - 1},0,0", ""],
           "config": ["alpha 0.5", "wat = 3", "epochs = soon", "wat 3", "wat = soon"]}
    load = {"edges": lambda path: load_edge_list(path, n),
            "features": load_features_csv, "labels": load_labels_csv,
            "layout": lambda path: read_layout_csv(path, n), "config": read_config_file}
    out = {}
    for name, lines in good.items():
        path = os.path.join(scratch, f"bad-{name}.txt")
        at = len(lines) - 5
        assert len("\n".join(lines[:at])) > 1 << 16
        out[name] = {}
        for line in bad[name]:
            with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
                fh.writelines(text + "\n" for text in [*lines[:at], line, *lines[at:]])
            try:
                load[name](path)
            except Exception as exc:
                out[name][line] = [type(exc).__name__, str(exc).replace(scratch + os.sep, "")]
            else:
                out[name][line] = "no error"
    return out


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def large_inputs(scratch) -> dict:
    """An edge list and a features file of over 1 MiB each, more than one
    chunk of a reader that parses a chunk of lines at a time: the edges
    repeat, reverse and loop, the features are real-valued. Each is read
    twice more with its last 100 lines spelled as only int() and float()
    read them (1_000, 1_0, Arabic-Indic digits), so that one late chunk
    holds them."""
    rng = np.random.default_rng(12)
    n = 20_000
    pairs = rng.integers(0, n, size=(100_000, 2))
    pairs[::7] = pairs[::7, ::-1]
    loops = np.repeat(np.arange(0, n, 97), 2).reshape(-1, 2)
    pairs = np.concatenate([pairs, pairs[:5000], loops]).tolist()
    rows = rng.normal(size=(n, 4)).tolist()
    texts = {"edges": [f"{i} {j}" for i, j in pairs],
             "features": [",".join(map(repr, row)) for row in rows]}
    spelled = {"edges": [f"{i:_} {str(j).translate(ARABIC_INDIC)}" for i, j in pairs[-100:]],
               "features": [f"1_000,1_0,{str(k).translate(ARABIC_INDIC)},{row[3]!r}"
                            for k, row in enumerate(rows[-100:])]}
    load = {"edges": lambda path: load_edge_list(path, n), "features": load_features_csv}
    out = {}
    for name, lines in texts.items():
        for key, late in ((name, lines[-100:]), (f"{name} spelled late", spelled[name])):
            path = os.path.join(scratch, f"large-{key}.txt".replace(" ", "-"))
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in [*lines[:-100], *late])
            assert os.path.getsize(path) > 1 << 20
            loaded = load[name](path)
            out[key] = ([digest(loaded.edge_pairs), digest(loaded.offsets),
                         digest(loaded.neighbors)] if name == "edges" else digest(loaded))
    return out


CONFIG_EVERY_KEY = """# every TrainConfig field
alpha = 0.25            # --alpha overrides it
epochs = 4
hidden_dim = 12

mode = minibatch
perplexity = 5.5
batch_count = 2         # two batches of 18 nodes
fanouts = 3, 4
lr = 0.004
seed = 8
hop_cap = 4
"""


def cli_outputs(scratch) -> dict:
    # block means close enough that some sweep layout scores a 1-NN accuracy
    # below 1, so a change to the 1-NN folds shows in the sweep's files
    data = sbm_dataset([12, 12, 12], p_intra=0.5, p_inter=0.05,
                       feature_dim=5, separation=1.0, seed=11)
    inputs = ["--edges", "in/edges.txt", "--features", "in/features.csv",
              "--labels", "in/labels.csv", "--num-nodes", "36", "--seed", "4",
              "--epochs", "15", "--perplexity", "8"]
    runs = {"fit": ["fit", "--alpha", "0.5", "--out-dir", "fit"] + inputs,
            "fit-config": ["fit", "--alpha", "0.5", "--out-dir", "fit-config",
                           "--config", "in/all.cfg"] + inputs[:8],
            "fit-config-alpha": ["fit", "--out-dir", "fit-config-alpha",
                                 "--config", "in/all.cfg"] + inputs[:8],
            "sweep": ["sweep", "--grid", "0,0.5,1", "--out-dir", "sweep"] + inputs,
            "evaluate": ["evaluate", "--layout", "fit/layout.csv", "--t-ks", "3,5",
                         "--t-rs", "1,2", "--knn-k", "4", "--out-dir", "evaluate"]
            + inputs[:6]}
    out = {}
    cwd = os.getcwd()
    os.chdir(scratch)  # relative paths keep the manifests free of the temp dir
    try:
        os.makedirs("in")
        write_inputs("in", data)
        with open(os.path.join("in", "all.cfg"), "w", encoding="utf-8") as fh:
            fh.write(CONFIG_EVERY_KEY)
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
                elif entry == "metrics.json":
                    report = json.loads(blob)
                    del report["runtime_s"]
                    files[entry] = report
                else:
                    files[entry] = text_record(blob.decode("utf-8"))
            out[name] = {"exit": code, "stdout": printed.getvalue(), "files": files}
    finally:
        os.chdir(cwd)
    return out


DIGEST = re.compile(r"([a-z0-9]+\[[0-9, ]*\]):[0-9a-f]{64}")
RTOL = 1e-9   # largest relative float difference --compare accepts
# What a change expects to move beyond float drift, as globs over "/"-joined
# paths: keys only the old dump has (say, a removed parameter), keys only
# the new dump has (say, a new counter), and entries whose bytes or floats
# change by more than RTOL (say, a hash of an array whose summation order
# moved, or a score whose tie order moved); they are still counted and their
# drift printed. A change that moves nothing leaves all three empty.
ONLY_IN_OLD = ()
ONLY_IN_NEW = ("full_batch/300_nodes",)
CHANGED = ("full_batch/300_nodes/*",)


def named(where: str, globs) -> bool:
    return any(fnmatchcase(where, glob) for glob in globs)


def as_float(value):
    """The value of a JSON float or of a float's repr, else None."""
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            number = float(value)
        except ValueError:
            return None
        return number if repr(number) == value else None
    return None


class Comparison:
    def __init__(self):
        self.entries = collections.Counter()     # section -> leaves compared
        self.differ = collections.Counter()      # section -> leaves that differ
        self.one_side = collections.defaultdict(list)  # section -> (side, path)
        self.failures = []                       # (path, reason)
        self.drift = (0.0, None)                 # (largest relative float drift, path)

    def walk(self, old, new, path) -> None:
        if isinstance(old, dict) and isinstance(new, dict):
            for key in sorted(old.keys() | new.keys()):
                if key in old and key in new:
                    self.walk(old[key], new[key], path + (key,))
                    continue
                side, where = "old" if key in old else "new", path + (key,)
                self.one_side[path[0] if path else key].append((side, where))
                joined = "/".join(map(str, where))
                if not named(joined, ONLY_IN_OLD if side == "old" else ONLY_IN_NEW):
                    self.failures.append((joined, f"only in the {side} dump"))
        elif (isinstance(old, list) and isinstance(new, list)
              and len(old) == len(new)):
            if old and all(type(a) is type(b) and as_float(a) is not None
                           and as_float(b) is not None for a, b in zip(old, new)):
                self.float_list(old, new, path)
            else:
                for i, (a, b) in enumerate(zip(old, new)):
                    self.walk(a, b, path + (i,))
        elif (type(old) is type(new) and as_float(old) is not None
              and as_float(new) is not None):
            self.float_list([old], [new], path)
        else:
            self.leaf(old, new, path)

    def float_list(self, old, new, path) -> None:
        """Compare a list of floats as one array: its largest difference
        relative to its largest magnitude (a scalar is a list of one)."""
        section, where = path[0], "/".join(map(str, path))
        a = np.array([as_float(v) for v in old])
        b = np.array([as_float(v) for v in new])
        changed = (np.array([x != y for x, y in zip(old, new)])
                   & ~(np.isnan(a) & np.isnan(b)))
        self.entries[section] += len(old)
        self.differ[section] += int(changed.sum())
        if not changed.any():
            return
        magnitudes = np.abs(np.concatenate([a, b]))
        scale = float(magnitudes[np.isfinite(magnitudes)].max(initial=0.0))
        with np.errstate(invalid="ignore"):
            delta = float(np.abs(a - b)[changed].max())
        rel = delta / scale if scale else (0.0 if delta == 0 else math.inf)
        if math.isnan(rel):
            rel = math.inf
        if rel > self.drift[0]:
            self.drift = (rel, where)
        if rel > RTOL and not named(where, CHANGED):
            self.failures.append((where, f"differs by {rel:.3g} of its largest "
                                         f"magnitude {scale:.3g}"))

    def leaf(self, old, new, path) -> None:
        section, where = path[0], "/".join(map(str, path))
        self.entries[section] += 1
        if type(old) is type(new) and old == new:
            return
        self.differ[section] += 1
        if isinstance(old, list) and isinstance(new, list):
            self.failures.append((where, f"a list of {len(old)} entries "
                                         f"became one of {len(new)}"))
        elif isinstance(old, str) and isinstance(new, str) and (
                DIGEST.fullmatch(old) and DIGEST.fullmatch(new)):
            before, after = DIGEST.fullmatch(old)[1], DIGEST.fullmatch(new)[1]
            if before != after:
                self.failures.append((where, f"array {before} became {after}"))
            elif not named(where, CHANGED):
                self.failures.append((where, f"array {before} changed its bytes"))
        elif not named(where, CHANGED):
            self.failures.append((where, f"{str(old)[:60]!r} became "
                                         f"{str(new)[:60]!r}"))

    def print_report(self, out) -> None:
        for section in sorted(self.entries.keys() | self.one_side.keys()):
            print(f"{section}: {self.differ[section]} of {self.entries[section]} "
                  f"entries differ", file=out)
            by_key = collections.defaultdict(list)
            for side, path in self.one_side[section]:
                by_key[side, path[-1]].append("/".join(map(str, path)))
            for (side, key), paths in sorted(by_key.items()):
                print(f"  only in {side}: {key} ({len(paths)}x, e.g. {paths[0]})",
                      file=out)
        rel, where = self.drift
        print(f"largest relative float difference: {rel:.3g}"
              + (f" at {where}" if where else ""), file=out)
        for where, reason in self.failures[:20]:
            print(f"FAIL {where}: {reason}", file=out)
        if len(self.failures) > 20:
            print(f"FAIL ... and {len(self.failures) - 20} more", file=out)


def compare(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    comparison = Comparison()
    comparison.walk(old, new, ())
    comparison.print_report(sys.stdout)
    return 1 if comparison.failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Dump a fingerprint of "
                                     "graphtsne's outputs, or compare two dumps.")
    parser.add_argument("out", nargs="?", metavar="OUT.json")
    parser.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"))
    args = parser.parse_args()
    if (args.out is None) == (args.compare is None):
        parser.error("give either OUT.json or --compare OLD.json NEW.json")
    if args.compare:
        return compare(*args.compare)
    with tempfile.TemporaryDirectory() as scratch:
        record = {"full_batch": full_batch(scratch), "minibatch": minibatch(scratch),
                  "rejected_configs": rejected_configs(), "plans": plans(),
                  "affinities": affinities(), "readers": readers(scratch),
                  "cli": cli_outputs(scratch)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
