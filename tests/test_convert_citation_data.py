"""docs/convert_citation_data.py: the .content/.cites converter, run as a script."""

import subprocess
import sys
from pathlib import Path

import numpy as np

from graphtsne.graph import load_edge_list, load_features_csv, load_labels_csv

SCRIPT = Path(__file__).resolve().parents[1] / "docs" / "convert_citation_data.py"

CONTENT = """\
p10 0 1 0 1 Theory
p20 1 0 0 0 Neural
p30 0 0 1 1 Theory
p40 1 1 0 0 Rule
"""

# p30 -> p10 twice, p10 -> p30 reversed, p20 citing itself, p99 unknown
CITES = """\
p10 p30
p10 p30
p30 p10
p20 p20
p40 p20
p99 p40
"""


def convert(tmp_path, content, cites=CITES):
    (tmp_path / "in.content").write_text(content)
    (tmp_path / "in.cites").write_text(cites)
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--content", str(tmp_path / "in.content"),
         "--cites", str(tmp_path / "in.cites"), "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True)


def test_writes_files_the_loaders_read(tmp_path):
    proc = convert(tmp_path, CONTENT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "warning: dropped 1 citations with unknown paper ids\n"
    out = tmp_path / "out"
    # duplicate and reversed citations give one edge, the self-citation none
    assert (out / "edges.txt").read_text() == "0 2\n1 3\n"
    n = len(CONTENT.splitlines())
    graph = load_edge_list(out / "edges.txt", n)
    assert graph.num_nodes == n and graph.num_edges == 2
    features = load_features_csv(out / "features.csv")
    assert np.array_equal(features, [[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 1, 1],
                                     [1, 1, 0, 0]])
    # class ids in sorted class-name order: Neural 0, Rule 1, Theory 2
    assert np.array_equal(load_labels_csv(out / "labels.csv"), [2, 0, 2, 1])


def test_non_numeric_word_exits_1_before_writing(tmp_path):
    content = "p10 0 1 Theory\np20 1 x Neural\np30 0 0 Theory\n"
    proc = convert(tmp_path, content, cites="p10 p20\n")
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {tmp_path / 'in.content'}: line 2: ")
    assert "'x'" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_malformed_citation_exits_1_naming_its_line(tmp_path):
    proc = convert(tmp_path, CONTENT, cites="p10 p30\n\np10 p20 p30\n")
    assert proc.returncode == 1
    assert proc.stderr == (f"error: {tmp_path / 'in.cites'}: line 3: expected "
                           "cited id, citing id, got 3 cells\n")
    assert not (tmp_path / "out").exists()
