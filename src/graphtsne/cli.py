"""Command-line front end: fit a layout, sweep alpha, or evaluate an
existing layout. Emits CSV coordinates, SVG scatter plots, and JSON reports.

Exit codes: 0 success, 1 malformed or unreadable input, 2 invalid flags,
3 training failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import MalformedInputError, TrainingError
from .graph import (LabeledDataset, load_edge_list, load_features_csv, load_labels_csv,
                    read_layout_csv)
from .metrics import (DEFAULT_FOLDS, DEFAULT_KNN_K, DEFAULT_T_KS, DEFAULT_T_RS,
                      _check_grid, _check_metric_args, alpha_sweep, evaluate_layout)
from .svg import write_svg
from .trainer import (default_config, embed, parse_comma_ints,
                      read_config_file, train)

DEFAULT_GRID = tuple(round(0.1 * i, 1) for i in range(11))


def _comma_floats(text: str):
    return tuple(float(part) for part in text.split(",") if part.strip())


def _add_input_flags(parser: argparse.ArgumentParser, with_num_nodes: bool) -> None:
    parser.add_argument("--edges", required=True,
                        help="edge list file: one 'i j' pair per line, '#' comments")
    parser.add_argument("--features", required=True,
                        help="headerless CSV of node features, one row per node")
    if with_num_nodes:
        parser.add_argument("--num-nodes", type=int, required=True,
                            help="total node count (isolated nodes included)")
    parser.add_argument("--labels", default=None,
                        help="optional headerless CSV of integer class labels")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help="flat key=value config file; flags override it")
    parser.add_argument("--seed", type=int, default=None, help="rng seed")
    parser.add_argument("--mode", choices=("full", "minibatch"), default=None,
                        help="training regime (default: by graph size)")
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--perplexity", type=float, default=None)


def _add_metric_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--knn-k", type=int, default=DEFAULT_KNN_K,
                        help="k for the feature-space k-NN pair set")
    parser.add_argument("--t-ks", type=parse_comma_ints, default=DEFAULT_T_KS,
                        help="comma list of k values for feature trustworthiness")
    parser.add_argument("--t-rs", type=parse_comma_ints, default=DEFAULT_T_RS,
                        help="comma list of hop radii for graph trustworthiness")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphtsne",
        description="Train 2-D graph layouts that blend graph and feature "
                    "structure, and score them.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="train a model and write a 2-D layout")
    _add_input_flags(fit, with_num_nodes=True)
    fit.add_argument("--alpha", type=float, default=None,
                     help="graph-loss weight in [0, 1] (default: --config's, else 0.5)")
    fit.add_argument("--out-dir", required=True)
    _add_train_flags(fit)
    fit.set_defaults(func=cmd_fit)

    sweep = sub.add_parser("sweep", help="train across an alpha grid and pick alpha*")
    _add_input_flags(sweep, with_num_nodes=True)
    sweep.add_argument("--grid", type=_comma_floats, default=DEFAULT_GRID,
                       help="comma list of alpha values (default 0.0..1.0 step 0.1)")
    sweep.add_argument("--out-dir", required=True)
    _add_train_flags(sweep)
    _add_metric_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    ev = sub.add_parser("evaluate", help="score an existing layout CSV")
    _add_input_flags(ev, with_num_nodes=False)
    ev.add_argument("--layout", required=True, help="layout CSV (node_id,x,y)")
    ev.add_argument("--out-dir", default=".")
    _add_metric_flags(ev)
    ev.set_defaults(func=cmd_evaluate)
    return parser


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _load_dataset(args, scored=True):
    """The command's inputs as a dataset. Features, labels and edges are read
    in that order, each checked against N before the next is read: N is
    --num-nodes where the command has it, else the feature rows. A dataset to
    be scored needs an edge (P_G is a mean over them) and, when labelled, a
    node for each fold of the 1-NN accuracy."""
    features = load_features_csv(args.features)
    n = getattr(args, "num_nodes", features.shape[0])
    if features.shape[0] != n:  # before an N-node graph is built for a wrong N
        raise MalformedInputError(f"inconsistent inputs: feature rows "
                                  f"({features.shape[0]}) != graph nodes ({n})")
    labels = None
    if args.labels:
        labels = load_labels_csv(args.labels)
        if labels.shape[0] != n:
            raise MalformedInputError(f"{args.labels}: {labels.shape[0]} labels for {n} nodes")
        if scored and n < DEFAULT_FOLDS:
            raise MalformedInputError(
                f"{args.labels}: {n} labelled nodes, but {DEFAULT_FOLDS}-fold 1-NN "
                f"accuracy needs at least {DEFAULT_FOLDS}")
    graph = load_edge_list(args.edges, n)
    if scored and graph.num_edges == 0:
        raise MalformedInputError(f"{args.edges}: no edges")
    return LabeledDataset(graph=graph, features=features, labels=labels)


def _resolve_config(args):
    """The preset for --num-nodes, then --config file values, then flags."""
    num_nodes = args.num_nodes
    if num_nodes < 1:
        raise ValueError(f"--num-nodes must be >= 1, got {num_nodes}")
    cfg = default_config(num_nodes)
    if args.config:
        cfg = dataclasses.replace(cfg, **read_config_file(args.config))
    flags = {key: getattr(args, key, None)
             for key in ("alpha", "seed", "mode", "epochs", "perplexity")}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    cfg.validate(num_nodes)
    return cfg


def _write_json_atomic(path, payload) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _write_layout(out_dir, y: np.ndarray, data: LabeledDataset) -> dict:
    """Write layout.csv and layout.svg; return their paths by output name."""
    paths = {"layout": os.path.join(out_dir, "layout.csv"),
             "svg": os.path.join(out_dir, "layout.svg")}
    lines = ["node_id,x,y"]
    for i in range(y.shape[0]):
        lines.append(f"{i},{float(y[i, 0])!r},{float(y[i, 1])!r}")
    with open(paths["layout"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    write_svg(paths["svg"], y, labels=data.labels, edges=data.graph.edge_pairs)
    return paths


def _write_manifest(args, cfg, outputs: dict, **extra) -> None:
    """Write manifest.json: the command, the input paths it was given, the
    resolved config, argv and output paths, then ``extra``."""
    inputs = {key: getattr(args, key)
              for key in ("edges", "features", "labels", "layout") if hasattr(args, key)}
    _write_json_atomic(os.path.join(args.out_dir, "manifest.json"), {
        "command": args.command,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "inputs": inputs,
        "config": None if cfg is None else dataclasses.asdict(cfg),
        "argv": [str(a) for a in args.argv_used],
        "outputs": outputs,
        **extra,
    })


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    cfg = _resolve_config(args)
    data = _load_dataset(args, scored=False)
    model, report = train(data, cfg)
    y = embed(model, data)

    outputs = _write_layout(args.out_dir, y, data)
    _write_manifest(args, cfg, outputs, losses=report.total_losses,
                    final_loss=report.total_losses[-1] if report.total_losses else None)
    print(f"wrote {outputs['layout']} ({y.shape[0]} nodes)")
    return 0


def cmd_sweep(args) -> int:
    grid = _check_grid(args.grid, "--grid")
    args.alpha = grid[0]  # the grid sets alpha as a flag would, over the file's
    cfg = _resolve_config(args)
    _check_metric_args(args.num_nodes, ks=args.t_ks, rs=args.t_rs, knn_k=args.knn_k)
    data = _load_dataset(args)
    result = alpha_sweep(data, cfg, grid, knn_k=args.knn_k,
                         t_ks=args.t_ks, t_rs=args.t_rs)

    sweep_path = os.path.join(args.out_dir, "sweep.json")
    summary_path = os.path.join(args.out_dir, "summary.txt")

    _write_json_atomic(sweep_path, [r.to_dict() for r in result.reports])
    _write_summary(summary_path, result, args.t_ks, args.t_rs)
    layout = _write_layout(args.out_dir, result.embeddings[result.alpha_star], data)
    # each grid point sets its own alpha, so the config records none
    _write_manifest(args, dataclasses.replace(cfg, alpha=None),
                    {"sweep": sweep_path, "summary": summary_path, **layout},
                    grid=grid, alpha_star=result.alpha_star)
    print(f"alpha* = {result.alpha_star}")
    return 0


def _write_summary(path, result, t_ks, t_rs) -> None:
    headers = (["alpha"] + [f"T_X({k})" for k in t_ks]
               + [f"T_G({r})" for r in t_rs]
               + ["P_G", "P_X", "P_G+P_X", "1NN_acc"])
    rows = []
    for rep in result.reports:
        cells = [f"{rep.alpha:.3f}"]
        cells += [f"{rep.t_feature[k]:.4f}" for k in t_ks]
        cells += [f"{rep.t_graph[r]:.4f}" for r in t_rs]
        cells += [f"{rep.p_graph:.4f}", f"{rep.p_feature:.4f}",
                  f"{rep.combined:.4f}"]
        cells.append("-" if rep.knn_accuracy is None
                     else f"{rep.knn_accuracy:.4f}")
        rows.append(cells)
    widths = [max(len(h), max((len(r[c]) for r in rows), default=0))
              for c, h in enumerate(headers)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("  ".join(h.rjust(w) for h, w in zip(headers, widths)) + "\n")
        for cells in rows:
            fh.write("  ".join(c.rjust(w) for c, w in zip(cells, widths)) + "\n")
        fh.write(f"\nalpha* = {result.alpha_star}\n")


def cmd_evaluate(args) -> int:
    data = _load_dataset(args)
    y = read_layout_csv(args.layout, data.graph.num_nodes)
    report = evaluate_layout(data, y, knn_k=args.knn_k, t_ks=args.t_ks,
                             t_rs=args.t_rs, folds=DEFAULT_FOLDS)

    metrics_path = os.path.join(args.out_dir, "metrics.json")
    _write_json_atomic(metrics_path, report.to_dict())
    _write_manifest(args, None, {"metrics": metrics_path})
    print(f"wrote {metrics_path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.argv_used = list(argv) if argv is not None else sys.argv[1:]
    try:  # every command writes to --out-dir; check it before any work
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: --out-dir {args.out_dir}: {exc.strerror}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (MalformedInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"error: training failed: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
