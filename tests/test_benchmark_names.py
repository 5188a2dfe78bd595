"""The benchmark's span tracer still finds every pixtime name it wraps.

`perfbench/spans.py` looks up functions and methods of the pixtime
modules by name when `--trace 1` installs it. The benchmark's own tests
are not part of this suite, so deleting or renaming one of those names
would otherwise pass here and break only the traced benchmark run.
"""

import importlib.util
from pathlib import Path

from pixtime import autodiff, federation

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_uninstalls():
    spans = _load_spans()
    module_names = dict(vars(autodiff))
    node_names = dict(vars(federation.FederatedNode))
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert autodiff.sub is not module_names["sub"]
    finally:
        tracer.uninstall()
    assert dict(vars(autodiff)) == module_names
    assert dict(vars(federation.FederatedNode)) == node_names
