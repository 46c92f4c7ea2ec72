"""The benchmark's per-layer tracer wraps library functions by name.

``perfbench/layers.py`` lists them in ``ENTRY_POINTS``; a rename in the
library would break ``perfbench/run.py --trace 1`` while every other test
passes, so the list is checked here against the library.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_tracer_entry_points_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = []
    for _, module, attr in layers.ENTRY_POINTS:
        target = importlib.import_module(module)
        for name in attr.split("."):
            target = getattr(target, name, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert not missing
