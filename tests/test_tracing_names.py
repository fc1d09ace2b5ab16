"""Every name the benchmark's tracer wraps (``perfbench/tracing.py``,
``LAYERS``) exists in the package, so deleting or renaming a traced function
fails here and not only in traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layers = _load_tracing().LAYERS
    assert layers
    for layer, targets in layers.items():
        for module_name, attr in targets:
            owner = importlib.import_module(f"formstrength.{module_name}")
            for part in attr.split("."):
                assert hasattr(owner, part), f"{layer}: formstrength.{module_name}.{attr} is missing"
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}: formstrength.{module_name}.{attr} is not callable"
