"""The benchmark's tracer patches the names listed in perfbench/spans.py.

It looks each one up in the owner's ``__dict__``, so a name that moves or
is renamed stops every traced benchmark run; this test names it first.
"""

import importlib.util
from pathlib import Path

from fofcast import basis, cli, clustering, experiment, ingest, regression

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = {"basis": basis, "cli": cli, "clustering": clustering,
           "experiment": experiment, "ingest": ingest, "regression": regression}


def test_trace_targets_are_defined_where_listed():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [pair for pairs in spans.SPAN_TARGETS.values() for pair in pairs]
    targets += list(spans.COUNT_TARGETS.values())
    missing = []
    for path, attr in targets:
        module, _, cls = path.partition(".")
        owner = getattr(MODULES[module], cls) if cls else MODULES[module]
        if attr not in owner.__dict__:
            missing.append(f"{path}.{attr}")
    assert len(targets) > 30
    assert missing == []
