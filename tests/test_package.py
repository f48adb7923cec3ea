"""The package's public surface: what ``__all__`` lists, and the names the
benchmark's tracer wraps."""

import subprocess
import sys
import types
from pathlib import Path

import graphtsne

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_exactly_the_public_names():
    bound = {name for name, value in vars(graphtsne).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(graphtsne.__all__) - {"__version__"} == bound


def test_benchmark_tracer_installs():
    # perfbench/tracer.py wraps module attributes by name; a deleted or
    # renamed one breaks `perfbench/run.py --trace 1`
    code = ("import sys; sys.path[:0] = ['perfbench', 'src']; "
            "import graphtsne, graphtsne.cli; from tracer import Tracer; "
            "Tracer().install(graphtsne)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
