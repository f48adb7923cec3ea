"""Spans and counters around graphtsne's public functions, installed from outside the package.

Each wrapper replaces the module attribute through which a call is looked
up (``graphtsne.trainer.forward``, not only ``graphtsne.gcn.forward``),
because a module that did ``from .gcn import forward`` holds its own
reference. Spans record name, parent span, start and end; a layer's self
time is its duration minus the durations of its child spans. Every wrapped
call happens on the calling thread (the BFS worker threads run only
private helpers), so one stack gives each span its parent. The time each
wrapper spends outside the call it wraps is summed as the tracing overhead;
it leaves out only the wrapper's own call frame.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# Spans whose functions call other wrapped functions; their self time is reported.
PARENT_SPANS = (
    "graph.all_pairs_distances", "graph.knn_graph",
    "affinity.joint_p.graph", "affinity.joint_p.feature",
    "trainer.train_full_batch", "trainer.train_minibatch",
    "trainer.composite_loss_and_grad", "trainer.embed",
    "metrics.evaluate_layout", "metrics.feature_trustworthiness",
    "metrics.graph_trustworthiness", "metrics.knn_1_accuracy",
)

LEAF_SPANS = (
    "graph.load_features_csv", "graph.load_edge_list", "graph.load_labels_csv",
    "graph.bfs_shortest_paths", "graph.neighbor_subsample",
    "affinity.calibrate_row",
    "gcn.build_full_plan", "gcn.build_batch_plan", "gcn.forward",
    "gcn.backward", "gcn.adam_step",
    "metrics.distance_metrics", "cli.read_layout_csv", "svg.write_svg",
)

PAIRWISE_SITES = ("trainer", "affinity", "graph", "metrics")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []      # [id, parent, name, start, end]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._graph_distances = None     # last hop matrix handed to the trainer
        self.overhead_s = 0.0            # wrapper time outside the wrapped calls

    def wrap(self, module, attr: str, name, after=None) -> None:
        """Replace ``module.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's positional
        arguments that returns one; ``after(args, kwargs, result)`` updates
        counters from the arguments and the return value.
        """
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            span_name = name(args) if callable(name) else name
            sid = len(self.spans)
            span = [sid, self._stack[-1] if self._stack else -1, span_name, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(sid)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            self.overhead_s += (span[3] - entered) + (time.perf_counter() - span[4])
            return result

        setattr(module, attr, wrapper)

    # -- counters taken from arguments and return values --------------------

    def _graph_hops(self, args, kwargs, result) -> None:
        self._graph_distances = result

    def _bfs(self, args, kwargs, result) -> None:
        self.counts["graph.bfs_shortest_paths.sources"] += len(args[1])

    def _bfs_and_hops(self, args, kwargs, result) -> None:
        self._bfs(args, kwargs, result)
        self._graph_hops(args, kwargs, result)

    def _joint_p_name(self, args) -> str:
        kind = "graph" if args[0] is self._graph_distances else "feature"
        if kind == "graph":
            self._graph_distances = None
        return f"affinity.joint_p.{kind}"

    def _joint_p(self, args, kwargs, result) -> None:
        count_affinity(self.counts, result)

    def _forward(self, args, kwargs, result) -> None:
        plan = args[1]
        if kwargs.get("mode", args[3] if len(args) > 3 else "train") == "train":
            self.counts["gcn.forward.train_calls"] += 1
        self.counts["gcn.forward.edges"] += sum(int(lp.dst.size) for lp in plan.layers)
        self.counts["gcn.forward.nodes"] += int(plan.node_ids.size)

    def _loss(self, args, kwargs, result) -> None:
        self.counts["trainer.composite_loss_and_grad.pairs"] += len(args[2]) ** 2

    def install(self, graphtsne) -> None:
        from graphtsne import affinity, cli, graph, metrics, svg, trainer

        for attr in ("load_features_csv", "load_edge_list", "load_labels_csv"):
            self.wrap(graph, attr, f"graph.{attr}")
        for module in (graph, trainer, metrics):
            self.wrap(module, "bfs_shortest_paths", "graph.bfs_shortest_paths",
                      self._bfs_and_hops if module is trainer else self._bfs)
        self.wrap(trainer, "all_pairs_distances", "graph.all_pairs_distances",
                  self._graph_hops)
        self.wrap(trainer, "neighbor_subsample", "graph.neighbor_subsample")
        self.wrap(metrics, "knn_graph", "graph.knn_graph")
        for site in PAIRWISE_SITES:
            self.wrap(getattr(graphtsne, site), "pairwise_sq_euclidean",
                      f"affinity.pairwise_sq_euclidean.from_{site}")
        self.wrap(trainer, "joint_p", self._joint_p_name, self._joint_p)
        self.wrap(affinity, "calibrate_row", "affinity.calibrate_row")
        for attr in ("build_full_plan", "build_batch_plan", "backward", "adam_step"):
            self.wrap(trainer, attr, f"gcn.{attr}")
        self.wrap(trainer, "forward", "gcn.forward", self._forward)
        for attr in ("train_full_batch", "train_minibatch", "embed"):
            self.wrap(trainer, attr, f"trainer.{attr}")
        self.wrap(trainer, "composite_loss_and_grad",
                  "trainer.composite_loss_and_grad", self._loss)
        self.wrap(metrics, "evaluate_layout", "metrics.evaluate_layout")
        for attr in ("feature_trustworthiness", "graph_trustworthiness",
                     "knn_1_accuracy", "distance_metrics"):
            self.wrap(metrics, attr, f"metrics.{attr}")
        self.wrap(cli, "read_layout_csv", "cli.read_layout_csv")
        self.wrap(svg, "write_svg", "svg.write_svg")

    # -- reduction ------------------------------------------------------------

    def _per_name(self):
        """Inclusive seconds, self seconds and calls per span name, plus the
        seconds covered by root spans (which never overlap)."""
        child_time = defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        covered = 0.0
        for sid, parent, name, start, end in self.spans:
            inclusive[name] += end - start
            self_time[name] += (end - start) - child_time[sid]
            calls[name] += 1
            if parent < 0:
                covered += end - start
        return inclusive, self_time, calls, covered

    def summary(self, wall_start: float, wall_end: float) -> dict:
        """Per-layer metrics: inclusive and self seconds, calls, counters,
        and the part of the wall interval that no span covers."""
        inclusive, self_time, calls, covered = self._per_name()
        out = {}
        for name in PARENT_SPANS:
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.self_s"] = self_time[name]
        for name in LEAF_SPANS:
            out[f"{name}.s"] = inclusive[name]
        for site in PAIRWISE_SITES:
            name = f"affinity.pairwise_sq_euclidean.from_{site}"
            out[f"{name}.s"] = inclusive[name]
            out[f"{name}.calls"] = calls[name]
        out["graph.bfs_shortest_paths.calls"] = calls["graph.bfs_shortest_paths"]
        out["affinity.calibrate_row.calls"] = calls["affinity.calibrate_row"]
        for key in ("graph.bfs_shortest_paths.sources", "affinity.joint_p.rows",
                    "affinity.joint_p.degenerate_rows", "gcn.forward.edges",
                    "gcn.forward.nodes", "trainer.composite_loss_and_grad.pairs"):
            out[key] = self.counts[key]
        out["affinity.joint_p.converged_ratio"] = converged_ratio(self.counts)
        # a training step starts with a sampled batch (mini-batch) or with a
        # train-mode forward pass over the whole graph (full-batch)
        started = calls["graph.neighbor_subsample"] or self.counts["gcn.forward.train_calls"]
        executed = calls["trainer.composite_loss_and_grad"]
        out["trainer.batch_yield"] = executed / started if started else 0.0
        out["trace.wall_s"] = wall_end - wall_start
        out["trace.uncovered_s"] = (wall_end - wall_start) - covered
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_s"] = self.overhead_s
        return out

    def table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, inclusive s, self s) for every span name, slowest first."""
        inclusive, self_time, calls, _ = self._per_name()
        return sorted(((name, calls[name], inclusive[name], self_time[name])
                       for name in calls), key=lambda row: -row[2])


def count_affinity(counts: Counter, result) -> None:
    """Add an AffinityMatrix's calibrated, converged and degenerate rows."""
    counts["affinity.joint_p.rows"] += result.size
    counts["affinity.joint_p.converged"] += result.n_converged
    counts["affinity.joint_p.degenerate_rows"] += result.n_degenerate


def converged_ratio(counts) -> float:
    """Rows that reached the target perplexity over rows that were not
    degenerate (0 when no row was calibrated)."""
    calibrated = counts["affinity.joint_p.rows"] - counts["affinity.joint_p.degenerate_rows"]
    return counts["affinity.joint_p.converged"] / calibrated if calibrated else 0.0
