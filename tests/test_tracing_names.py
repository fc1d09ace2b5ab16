"""Every name the benchmark's tracer wraps (``perfbench/tracing.py``,
``LAYERS``) exists in the package, so deleting or renaming a traced function
fails here and not only in traced benchmark runs."""

import importlib

from conftest import load_tracing


def test_every_traced_name_resolves():
    layers = load_tracing().LAYERS
    assert layers
    for layer, targets in layers.items():
        for module_name, attr in targets:
            owner = importlib.import_module(f"formstrength.{module_name}")
            for part in attr.split("."):
                assert hasattr(owner, part), f"{layer}: formstrength.{module_name}.{attr} is missing"
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}: formstrength.{module_name}.{attr} is not callable"
