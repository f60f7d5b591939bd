"""Command-line entry point.

Subcommands: gen-graph, train, rsd-eval, run, sweep, report, verify.
Exit codes: 0 success, 2 configuration error, 3 protocol violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .baselines import (method_config, read_records, run_episode_batch,
                        run_method_suite, train_policy, write_report)
from .config import RunConfig, load_config
from .errors import ConfigError, ProtocolError
from .graph_env import N_STIMULI, DiffusionGraph
from .metrics import episode_metrics
from .policies import Policy

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="replaylab")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-graph", help="write one of a config's graphs")
    g.add_argument("--config", default="{}")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train one method's policy")
    t.add_argument("--config", required=True)
    t.add_argument("--method", required=True)
    t.add_argument("--out", required=True)

    e = sub.add_parser("rsd-eval", help="run one three-phase episode")
    e.add_argument("--graph", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--config", default="{}")
    e.add_argument("--method", default="rapo")
    e.add_argument("--z", type=int, default=1,
                   choices=range(1, N_STIMULI + 1), metavar="Z")
    e.add_argument("--episode-seed", type=int, default=0)
    e.add_argument("--out", required=True)

    r = sub.add_parser("run", help="full method suite")
    r.add_argument("--config", required=True)
    r.add_argument("--out-dir", required=True)

    s = sub.add_parser("sweep", help="grid over conductance and scar rates")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--w-h", type=float, nargs="+", required=True)
    s.add_argument("--eta", type=float, nargs="+", required=True)
    s.add_argument("--method", default="rapo")

    rp = sub.add_parser("report", help="recompute the report from records")
    rp.add_argument("--run-dir", required=True)
    rp.add_argument("--out", default="-")

    v = sub.add_parser("verify", help="run the theory checks")
    v.add_argument("--seed", type=int, default=0)
    return p


def _user_config(source) -> RunConfig:
    """The user's config; REPLAYLAB_SEED, if set, overrides its master seed."""
    seed = os.environ.get("REPLAYLAB_SEED")
    try:
        overrides = None if seed is None else {"master_seed": int(seed)}
    except ValueError:
        raise ConfigError("REPLAYLAB_SEED must be an integer") from None
    return load_config(source, overrides)


def _read_input(path: str, parse):
    """Parse one input file; a file that cannot be read or parsed is a
    ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _checkpoint_for(mcfg):
    """Parser of a checkpoint's text that raises ValueError unless it is
    well formed and one the suite could run under `mcfg`: its feature
    mode, and unless scripted its kind and window, are the method's."""
    def parse(text: str) -> str:
        policy = Policy.from_json(text)
        if (policy.feature_mode != mcfg.feature_mode
                or policy.kind != "scripted"
                and (policy.kind, policy.window) != (mcfg.policy_kind,
                                                     mcfg.window)):
            raise ValueError(
                f"a {policy.kind} checkpoint with feature_mode "
                f"{policy.feature_mode!r} and window {policy.window} does not "
                f"fit method {mcfg.method!r} (feature_mode "
                f"{mcfg.feature_mode!r}, window {mcfg.window})")
        return text
    return parse


def cmd_gen_graph(args) -> int:
    graph = _user_config(args.config).graph(args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(graph.to_json())
    print(f"wrote graph ({graph.node_count} nodes, "
          f"{graph.edge_src.size} edges, "
          f"{graph.sensitive_nodes.size} sensitive) to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _user_config(args.config)
    graph = cfg.graph(cfg.section("graph")["seeds"][0])
    pol = train_policy(method_config(args.method), graph, cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(pol.to_json(training_config_hash=cfg.hash()))
    print(f"wrote checkpoint to {args.out}")
    return 0


def cmd_rsd_eval(args) -> int:
    cfg = _user_config(args.config)
    mcfg = method_config(args.method, shield=cfg.shield_params)
    if args.episode_seed < 0:
        raise ConfigError("--episode-seed must be >= 0")
    graph = _read_input(args.graph, DiffusionGraph.from_json)
    checkpoint = _read_input(args.checkpoint, _checkpoint_for(mcfg))
    [record] = run_episode_batch(cfg, mcfg, checkpoint, graph, [args.z],
                                 [args.episode_seed])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(record.to_json() + "\n")
    m = episode_metrics(record)
    print(f"rag={m['rag']:.4f} auc_r={m['auc_r']:.4f} sm_r={m['sm_r']:.4f} "
          f"asd={m['asd']:.4f}")
    return 0


def cmd_run(args) -> int:
    manifest = run_method_suite(_user_config(args.config), args.out_dir)
    print(f"run {manifest['run_id']} complete; "
          f"report at {manifest['outputs']['report']}")
    return 0


def cmd_sweep(args) -> int:
    base = _user_config(args.config)
    rows = []
    for w_h in sorted(args.w_h):
        for eta in sorted(args.eta):
            cfg = base.derive({"deformation": {"w_h": w_h},
                               "fields": {"eta": eta},
                               "methods": [args.method]})
            out_dir = os.path.join(
                os.path.dirname(args.out) or ".",
                f"sweep_wh{w_h}_eta{eta}")
            manifest = run_method_suite(cfg, out_dir)
            o = manifest["outcomes"][args.method]

            def mean_of(key, metrics=o.metrics):
                vals = [m[key] for m in metrics if key in m]
                return float(np.mean(vals)) if vals else float("nan")

            rows.append([w_h, eta, mean_of("rag"), mean_of("auc_r"),
                         mean_of("sm_r"), mean_of("replay_ret")])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["w_h", "eta", "rag", "auc_r", "sm_r", "replay_ret"])
        w.writerows(rows)
    print(f"wrote sweep grid ({len(rows)} cells) to {args.out}")
    return 0


def cmd_report(args) -> int:
    # the run's own snapshot: REPLAYLAB_SEED was applied when it was written
    cfg = _read_input(os.path.join(args.run_dir, "config.json"), load_config)
    outcomes = read_records(cfg, args.run_dir)
    if args.out == "-":
        write_report(sys.stdout, cfg, outcomes)
        return 0
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_report(fh, cfg, outcomes)
    print(f"wrote report to {args.out}")
    return 0


def cmd_verify(args) -> int:
    from .verification import run_all_checks
    results = run_all_checks(seed=args.seed)
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "gen-graph": cmd_gen_graph,
    "train": cmd_train,
    "rsd-eval": cmd_rsd_eval,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "report": cmd_report,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
