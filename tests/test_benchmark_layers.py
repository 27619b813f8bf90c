"""The benchmark's tracer wraps hermflow functions by name; every name it
lists must still resolve, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_layer_names_resolve():
    # run_path compiles the source without writing a bytecode cache
    layers = runpy.run_path(str(TRACER))["LAYERS"]
    for module_name, fn_names in layers.items():
        module = importlib.import_module(f"hermflow.{module_name}")
        for fn_name in fn_names:
            assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"
