"""The benchmark's tracer (perfbench/tracing.py) patches propcal functions by
attribute name. Removing or renaming one of those names breaks traced
benchmark runs; this test makes it break tier-1 too.
"""

import importlib.util
from pathlib import Path

from propcal import cli, diagnostics, geometry, simulator

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_bound_name():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # AttributeError if a patched name is gone
        assert simulator.iou_scalar is not geometry.iou
    finally:
        tracer.restore()
    assert simulator.iou_scalar is geometry.iou
    assert diagnostics.iou is geometry.iou
    assert cli.encode_offset is geometry.encode_offset
