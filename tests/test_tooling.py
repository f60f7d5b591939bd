"""Names the benchmark's span tracer looks up in the library, and the
commands the README documents."""

import importlib
import importlib.util
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_readme_commands_parse():
    # every `replaylab ...` line of README's Command line block must be
    # accepted by the parser, so the documented flags cannot drift
    from replaylab.cli import build_parser
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("replaylab ")]
    assert len(lines) >= 7
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
