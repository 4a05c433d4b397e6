"""The benchmark's tracer swaps package functions by module attribute.

perfbench/tracer.py looks each hooked name up in the modules it lists, so a
module that stops binding one of them breaks every traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def test_tracer_installs_every_hook_and_restores_it():
    sys.path.insert(0, PERFBENCH)
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(PERFBENCH)
    metrics = importlib.import_module("alphatree.metrics")
    original = metrics.advantage_rate
    t = tracer.Tracer()
    try:
        t.install()
        assert metrics.advantage_rate is not original
    finally:
        t.restore()
    assert metrics.advantage_rate is original
