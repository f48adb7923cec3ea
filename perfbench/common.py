"""Paths and helpers shared by the benchmark's entry point and its child processes."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

DEFAULT_SEED = 0   # the seed whose outputs reference.json pins


class SourceMissing(RuntimeError):
    """The checkout holds no graphtsne sources to benchmark."""


def import_graphtsne():
    """Import graphtsne from this checkout's src/ and nowhere else."""
    init = SRC / "graphtsne" / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no graphtsne package at {init.parent}")
    sys.path.insert(0, str(SRC))
    import graphtsne
    if Path(graphtsne.__file__).resolve() != init.resolve():
        raise SourceMissing(f"imported graphtsne from {graphtsne.__file__}, "
                            f"not from {init.parent}")
    return graphtsne


def write_json_atomic(path: Path, payload) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
