"""Names the benchmark's span tracer looks up in the library, the
commands the README documents, and the graph's private fields."""

import ast
import dataclasses
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


def test_only_graph_env_reads_a_graphs_private_fields():
    # DiffusionGraph's derived state (the undirected CSR, the memo) is
    # graph_env's to lay out; other modules go through its public accessors
    from replaylab.graph_env import DiffusionGraph
    private = {f.name for f in dataclasses.fields(DiffusionGraph)
               if f.name.startswith("_")}
    reads = []
    for path in sorted((ROOT / "src" / "replaylab").glob("*.py")):
        if path.name == "graph_env.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert private and reads == []
