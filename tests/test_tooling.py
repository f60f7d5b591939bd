"""Names the benchmark's span tracer looks up in the library, the
commands the README documents, and the graph's private fields."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # for its dataclass
    spec.loader.exec_module(spans)
    return spans


def _target(t):
    """The function a spans.Target wraps (a method through its class
    __dict__), or None if it is missing."""
    owner = importlib.import_module(t.module)
    *classes, attr = t.attr.split(".")
    for name in classes:
        owner = getattr(owner, name, None)
    return vars(owner or object).get(attr)


def test_perfbench_traced_names_resolve(monkeypatch):
    # perfbench/spans.py wraps each TARGETS entry by name; a rename in
    # replaylab must fail here, not only in a traced benchmark run
    spans = _spans(monkeypatch)
    missing = [t.name for t in spans.TARGETS if _target(t) is None]
    assert spans.TARGETS and missing == []


def test_perfbench_calls_bind_to_library_signatures(monkeypatch):
    # every call perfbench/workloads.py makes into the library binds to
    # the callee's signature, and each argument a span tag or flag reads
    # by position sits at that position under that name; a signature
    # change must fail here, not only in a benchmark run
    from replaylab import baselines, cli, config, graph_env, rng, rsd
    modules = {m.__name__.split(".")[-1]: m
               for m in (baselines, cli, config, graph_env, rng, rsd)}
    calls = []
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules):
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            fn = getattr(modules[node.func.value.id], node.func.attr)
            inspect.signature(fn).bind(*node.args,
                                       **{k.arg: k for k in node.keywords})
            calls.append(f"{node.func.value.id}.{node.func.attr}")
    assert {"baselines.run_method_suite", "baselines.shield_filter",
            "baselines.train_policy", "cli.main", "graph_env.env_step",
            "rsd.run_rsd_episode", "rng.substream"} <= set(calls)

    spans = _spans(monkeypatch)
    helpers = {node.name: node for node in ast.parse(
        SPANS.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)}
    read = set()
    for t in spans.TARGETS:
        for helper in filter(None, (t.tag, t.flag)):
            params = list(inspect.signature(_target(t)).parameters)
            for node in ast.walk(helpers[helper.__name__]):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "_arg"):
                    index, name = (a.value for a in node.args[2:4])
                    assert params[index] == name, (t.name, index, params)
                    read.add((t.name, index, name))
    assert read == {("graph_env.env_step", 1, "action"),
                    ("graph_env.env_step", 4, "deform"),
                    ("deformation.apply_mode", 1, "psi"),
                    ("harm_memory.update_scar", 0, "fields"),
                    ("cli.main", 0, "argv")}


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
