"""The benchmark's trace wraps program names from outside; each must exist.

`perfbench/spans.py` patches every (owner, attribute) in its `TARGETS` when
`perfbench/run.py --trace 1` runs.  A refactor that removes or renames one
of them breaks the traced benchmark, so it fails here first.  The module is
only imported, never installed.
"""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for owner, attr, name in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"
        assert name in spans.METRIC_OF
