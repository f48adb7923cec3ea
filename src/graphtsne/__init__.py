"""graphtsne: 2-D graph layouts that blend graph and feature structure.

Trains a residual gated graph convolutional network (manual gradients, no
autograd) against a composite KL objective: a weighted mix of a t-SNE loss
over graph shortest-path distances and one over feature distances.
"""

from .affinity import (AffinityMatrix, calibrate_row, joint_p,
                       pairwise_sq_euclidean)
from .errors import (EmptyAffinityError, GraphTSNEError, MalformedInputError,
                     TrainingError)
from .gcn import (GcnModel, backward, build_batch_plan, build_full_plan,
                  forward, init_adam, init_model, adam_step, load_model,
                  maybe_decay_lr, save_model)
from .graph import (Graph, LabeledDataset, UNREACHABLE, all_pairs_distances,
                    bfs_shortest_paths, knn_graph, load_edge_list,
                    load_features_csv, load_labels_csv, neighbor_subsample)
from .metrics import (MetricsReport, SweepResult, alpha_sweep,
                      distance_metrics, evaluate_layout,
                      feature_trustworthiness, graph_trustworthiness,
                      knn_1_accuracy, standardize_map)
from .svg import render_svg, write_svg
from .synthetic import citation_dataset, random_dataset, sbm_dataset
from .trainer import (CompositeLoss, TrainConfig, TrainReport,
                      composite_loss_and_grad, default_config, embed,
                      read_config_file, train, train_full_batch,
                      train_minibatch)

__version__ = "0.1.0"

__all__ = [
    "AffinityMatrix", "calibrate_row", "joint_p", "pairwise_sq_euclidean",
    "EmptyAffinityError", "GraphTSNEError", "MalformedInputError",
    "TrainingError",
    "GcnModel", "backward", "build_batch_plan", "build_full_plan", "forward",
    "init_adam", "init_model", "adam_step", "load_model", "maybe_decay_lr",
    "save_model",
    "Graph", "LabeledDataset", "UNREACHABLE", "all_pairs_distances",
    "bfs_shortest_paths", "knn_graph", "load_edge_list", "load_features_csv",
    "load_labels_csv", "neighbor_subsample",
    "MetricsReport", "SweepResult", "alpha_sweep", "distance_metrics",
    "evaluate_layout", "feature_trustworthiness", "graph_trustworthiness",
    "knn_1_accuracy", "standardize_map",
    "render_svg", "write_svg",
    "citation_dataset", "random_dataset", "sbm_dataset",
    "CompositeLoss", "TrainConfig", "TrainReport", "composite_loss_and_grad",
    "default_config", "embed", "read_config_file", "train",
    "train_full_batch", "train_minibatch",
    "__version__",
]
