#!/usr/bin/env python3
"""Convert citation datasets in the .content/.cites text format (Cora,
Citeseer) into the input files this package's CLI reads.

The .content file has one line per paper:

    <paper_id> <w_1> ... <w_d> <class_label>

where w_i are 0/1 word indicators, and the .cites file has one directed
citation per line:

    <cited_paper_id> <citing_paper_id>

Output: edges.txt (undirected pairs of contiguous node ids), features.csv
(headerless float rows), labels.csv (one integer class id per row), written
in paper-id order of first appearance in the .content file. Citations whose
endpoints are missing from the .content file are dropped with a warning.
Both input files are read and checked before any output file is written:
a malformed line, a non-numeric word cell among them, exits 1 with an
`error: <path>: ...` message and writes nothing.

Example:

    python3 docs/convert_citation_data.py \
        --content cora/cora.content --cites cora/cora.cites --out-dir data/cora
    graphtsne fit --edges data/cora/edges.txt --features data/cora/features.csv \
        --labels data/cora/labels.csv --num-nodes 2708 --alpha 0.5 --out-dir runs/cora
"""

import argparse
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--content", required=True,
                        help=".content file: id, word indicators, class label")
    parser.add_argument("--cites", required=True,
                        help=".cites file: cited id, citing id per line")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    ids = {}
    feature_rows = []
    label_names = []
    with open(args.content, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            cells = raw.split()
            if not cells:
                continue
            if len(cells) < 3:
                print(f"error: {args.content}: line {lineno}: expected "
                      f"id, words, label", file=sys.stderr)
                return 1
            paper, words, label = cells[0], cells[1:-1], cells[-1]
            if paper in ids:
                print(f"error: {args.content}: line {lineno}: duplicate "
                      f"paper id {paper}", file=sys.stderr)
                return 1
            try:
                feature_rows.append([float(w) for w in words])
            except ValueError as exc:
                print(f"error: {args.content}: line {lineno}: {exc}", file=sys.stderr)
                return 1
            ids[paper] = len(ids)
            label_names.append(label)
    if not ids:
        print(f"error: {args.content} has no rows", file=sys.stderr)
        return 1
    widths = {len(row) for row in feature_rows}
    if len(widths) != 1:
        print(f"error: {args.content}: inconsistent word counts {sorted(widths)}",
              file=sys.stderr)
        return 1

    classes = {name: i for i, name in enumerate(sorted(set(label_names)))}
    edges = set()
    dropped = 0
    with open(args.cites, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            cells = raw.split()
            if not cells:
                continue
            if len(cells) != 2:
                print(f"error: {args.cites}: line {lineno}: expected cited id, "
                      f"citing id, got {len(cells)} cells", file=sys.stderr)
                return 1
            if cells[0] not in ids or cells[1] not in ids:
                dropped += 1
                continue
            i, j = ids[cells[0]], ids[cells[1]]
            if i != j:
                edges.add((min(i, j), max(i, j)))
    if dropped:
        print(f"warning: dropped {dropped} citations with unknown paper ids",
              file=sys.stderr)

    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "edges.txt"), "w",
              encoding="utf-8") as fh:
        for i, j in sorted(edges):
            fh.write(f"{i} {j}\n")
    with open(os.path.join(args.out_dir, "features.csv"), "w",
              encoding="utf-8") as fh:
        for row in feature_rows:
            fh.write(",".join(f"{w!r}" for w in row) + "\n")
    with open(os.path.join(args.out_dir, "labels.csv"), "w",
              encoding="utf-8") as fh:
        for name in label_names:
            fh.write(f"{classes[name]}\n")

    print(f"wrote {len(ids)} nodes, {len(edges)} edges, "
          f"{len(classes)} classes to {args.out_dir}")
    print(f"class ids: {classes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
