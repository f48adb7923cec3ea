"""Write one dataset's input files from a seed, in the formats the graphtsne CLI reads.

Runs in its own process, before and outside the measured one, so the
generators' temporaries (citation_dataset builds an N^2/2 pair list) never
count toward the measured peak RSS.

    python3 perfbench/gen.py --dataset citation --seed 0 --out DIR

Writes edges.txt, features.csv, labels.csv (and layout.csv for the citation
dataset), then inputs.json with the sizes; inputs.json is written last, so
its presence marks a complete directory.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from common import import_graphtsne, write_json_atomic

DATASETS = ("citation", "random")
LAYOUT_RADIUS = 8.0    # distance of each label's cluster centre from the origin
LAYOUT_SPREAD = 1.5    # standard deviation of a cluster around its centre


def make_dataset(graphtsne, name: str, seed: int):
    if name == "citation":
        return graphtsne.citation_dataset(seed=seed)
    return graphtsne.random_dataset(50000, 150000, feature_dim=16, seed=seed)


def clustered_layout(np, labels, seed: int):
    """A 2-D map with a trained layout's shape: one Gaussian cluster per label."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    num_labels = int(labels.max()) + 1
    angle = 2.0 * np.pi * np.arange(num_labels) / num_labels
    centres = LAYOUT_RADIUS * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    return centres[labels] + LAYOUT_SPREAD * rng.normal(size=(labels.size, 2))


def write_inputs(name: str, seed: int, out: Path) -> dict:
    graphtsne = import_graphtsne()
    import numpy as np

    data = make_dataset(graphtsne, name, seed)
    out.mkdir(parents=True, exist_ok=True)
    files = {"edges": out / "edges.txt", "features": out / "features.csv",
             "labels": out / "labels.csv"}
    np.savetxt(files["edges"], data.graph.edge_pairs, fmt="%d")
    # %.17g round-trips float64 exactly and writes binary features as 0/1
    np.savetxt(files["features"], data.features, fmt="%.17g", delimiter=",")
    np.savetxt(files["labels"], data.labels, fmt="%d")
    if name == "citation":
        files["layout"] = out / "layout.csv"
        y = clustered_layout(np, data.labels, seed)
        with open(files["layout"], "w", encoding="utf-8") as fh:
            fh.write("node_id,x,y\n")
            for i, (a, b) in enumerate(y.tolist()):
                fh.write(f"{i},{a!r},{b!r}\n")
    record = {
        "dataset": name,
        "seed": seed,
        "num_nodes": data.graph.num_nodes,
        "num_edges": data.graph.num_edges,
        "feature_dim": int(data.features.shape[1]),
        "files": {key: path.name for key, path in files.items()},
        "bytes": {key: path.stat().st_size for key, path in files.items()},
    }
    write_json_atomic(out / "inputs.json", record)
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", choices=DATASETS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_inputs(args.dataset, args.seed, args.out)


if __name__ == "__main__":
    main()
