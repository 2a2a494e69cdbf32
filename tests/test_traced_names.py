"""The traced benchmark run rebinds each (module, name) that
perfbench/tracing.py lists in TRACED_FUNCTIONS; every one must exist in the
package, or only a traced run would notice that it is gone."""

import importlib
import importlib.util
import os

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED_FUNCTIONS
    for module, name in tracing.TRACED_FUNCTIONS:
        owner = importlib.import_module(f"shufflecodec.{module}")
        assert callable(getattr(owner, name, None)), f"{module}.{name}"
