"""Names the benchmark's span tracer looks up in the library."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_perfbench_traced_names_resolve(monkeypatch):
    # perfbench/spans.py wraps each TARGETS entry by name (a method through
    # its class __dict__); a rename in replaylab must fail here, not only
    # in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclass
    spec.loader.exec_module(spans)
    missing = []
    for t in spans.TARGETS:
        owner = importlib.import_module(t.module)
        *classes, attr = t.attr.split(".")
        for name in classes:
            owner = getattr(owner, name, None)
        if attr not in vars(owner or object):
            missing.append(t.name)
    assert spans.TARGETS and missing == []
