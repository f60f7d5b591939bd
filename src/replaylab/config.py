"""Run configuration: schema, defaults, validation, hashing, and the one
place that turns a config into the typed objects every entry point uses."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

from .deformation import DeformationSpec
from .errors import ConfigError
from .graph_env import (N_STIMULI, Action, DiffusionGraph, EnvParams,
                        check_graph_args, generate_graph)
from .harm_memory import FieldParams
from .rsd import RsdConfig

__all__ = ["RunConfig", "ShieldParams", "MethodConfig", "method_config",
           "load_config", "config_hash", "KNOWN_METHODS", "desk_preset",
           "checked"]

_DEFAULTS = {
    "run_id": "run",
    "graph": {
        "nodes": 50, "branching": 1.1, "sens_frac": 0.2,
        "locality": 0.0, "local_span": 3, "sens_style": "grow",
        "seeds": [1],
    },
    "env": {
        "k_seed": 3, "seed_pool": "all", "refire": True,
        "reward": "linear", "action_costs": [0.002, 0.001, 0.0],
    },
    "fields": {
        "lam": 0.1, "alpha": 0.5, "eta": 0.05, "tau": 0.3,
        "delta": 1.0, "delay": 50,
    },
    "deformation": {
        "w_g": 1.0, "w_h": 2.0, "psi_min": 0.01, "topk_k": 3,
    },
    "rsd": {
        "t_exp": 500, "t_decay": 200, "t_rep": 500,
        "stimuli": list(range(1, 21)), "rng_mode": "independent",
        "truncate_buffer": False,
    },
    "training": {
        "enabled": False, "scripted_fallback": "moderate",
        "steps": 200000, "episode_len": 200, "lr": 3e-4, "clip": 0.2,
        "gae_lambda": 0.95, "gamma": 0.99, "lr_dual": 1e-2,
        "epochs_per_batch": 4, "seed": 0,
    },
    "shield": {"theta": 10.0, "n_mc": 20, "horizon": 100, "um_tolerance": 0.05},
    "methods": ["ge", "pm_st", "rapo", "rapo_off_rep"],
    "episodes": 20,
    "workers": 1,
    "master_seed": 0,
}


def desk_preset(**overrides) -> dict:
    """Small-scale run settings where replay suppression is measurable.

    High-locality ring graphs with a contiguous sensitive block and stimulus
    seeds in its interior make the sensitive region a bottleneck: once it is
    scarred, gated replay stays confined while nominal replay re-percolates.
    Fire-once cascades keep conductance gating airtight over long horizons.
    """
    preset = {
        "graph": {"nodes": 50, "branching": 3.0, "sens_frac": 0.24,
                  "locality": 1.0, "sens_style": "arc",
                  "seeds": [1, 2, 3, 4, 5]},
        "env": {"k_seed": 6, "seed_pool": "core", "refire": False,
                "reward": "log"},
        "fields": {"alpha": 2.0, "eta": 0.3, "delay": 25},
        "deformation": {"psi_min": 0.001},
        "rsd": {"t_exp": 120, "t_decay": 40, "t_rep": 120},
        "training": {"gamma": 0.8},
        "methods": ["ge", "pm_st", "rapo", "rapo_off_rep"],
        "episodes": 10,
    }
    for key, val in overrides.items():
        if key in preset and isinstance(preset[key], dict):
            preset[key] = {**preset[key], **val}
        else:
            preset[key] = val
    return preset


@dataclass(frozen=True)
class ShieldParams:
    theta: float = 10.0
    n_mc: int = 20
    horizon: int = 100

    def __post_init__(self):
        if self.n_mc < 1 or self.horizon < 1:
            raise ValueError("n_mc and horizon must be >= 1")
        if not self.theta >= 0:
            raise ValueError("theta must be >= 0")

    @property
    def transitions_per_step(self) -> int:
        return self.n_mc * self.horizon * 3


@dataclass(frozen=True)
class MethodConfig:
    method: str
    train_deform_mode: str = "off"     # kernel used while training
    eval_deform_mode: str = "off"      # kernel during Exposure/Decay/Replay
    replay_deformation: str = "inherit"
    feature_mode: str = "obs"
    window: int = 1
    cost_wiring: str = "none"          # none | instant | delayed_trace | rapo
    shield: ShieldParams | None = None
    shares_checkpoint_with: str | None = None

    @property
    def policy_kind(self) -> str:
        """The kind of policy the method trains and evaluates."""
        return "window" if self.window > 1 else "softmax"


_RAPO = MethodConfig(method="rapo", train_deform_mode="full",
                     eval_deform_mode="full", feature_mode="augmented",
                     cost_wiring="rapo")

# every method id, in the suite's execution order: shield_um tunes against
# a finished rapo run
_METHODS = {m.method: m for m in (
    MethodConfig(method="ge"),
    MethodConfig(method="ss", cost_wiring="instant"),
    MethodConfig(method="dr", cost_wiring="delayed_trace"),
    MethodConfig(method="shield", shield=ShieldParams()),
    # identical to RAPO except the deformation mode
    replace(_RAPO, method="pm_st", train_deform_mode="off",
            eval_deform_mode="off"),
    MethodConfig(method="pm_window", window=50, cost_wiring="delayed_trace"),
    _RAPO,
    replace(_RAPO, method="rapo_off_rep", replay_deformation="off",
            shares_checkpoint_with="rapo"),
    replace(_RAPO, method="rapo_topk", train_deform_mode="topk",
            eval_deform_mode="topk"),
    replace(_RAPO, method="rapo_local", train_deform_mode="local",
            eval_deform_mode="local"),
    MethodConfig(method="shield_um", shield=ShieldParams()),
)}
KNOWN_METHODS = tuple(_METHODS)


def method_config(method: str, shield: ShieldParams | None = None) -> MethodConfig:
    """The configuration of a method id; `shield`, if given, replaces a
    shield method's default parameters."""
    if method not in _METHODS:
        raise ConfigError(f"unknown method id {method!r}")
    mcfg = _METHODS[method]
    if shield is not None and mcfg.shield is not None:
        mcfg = replace(mcfg, shield=shield)
    return mcfg


def checked(where: str, build, *args, **kwargs):
    """Call `build` on values from outside the program; a ValueError it
    raises becomes a ConfigError that names `where`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass
class RunConfig:
    """A merged, validated config and the typed objects built from it.

    Build one with `load_config` or `derive`; `graph` and `deform` are the
    only definitions of a run's graphs and deformation kernels.
    """

    raw: dict
    env_params: EnvParams = field(init=False)
    field_params: FieldParams = field(init=False)
    shield_params: ShieldParams = field(init=False)
    rsd_config: RsdConfig = field(init=False)       # z=1, replay inherits
    base_deform: DeformationSpec = field(init=False)  # mode "full"
    scripted_action: int = field(init=False)

    def __post_init__(self):
        cfg = self.raw
        _validate(cfg)
        g, e, f, d = (cfg[k] for k in ("graph", "env", "fields", "deformation"))
        r, tr, s = cfg["rsd"], cfg["training"], cfg["shield"]
        checked("graph", check_graph_args, g["nodes"], g["branching"],
                sens_fraction=g["sens_frac"], locality=g["locality"],
                local_span=g["local_span"], sens_style=g["sens_style"])
        self.env_params = checked(
            "env", EnvParams, k_seed=e["k_seed"], seed_pool=e["seed_pool"],
            refire=e["refire"], reward=e["reward"],
            action_costs=tuple(e["action_costs"]))
        self.field_params = checked(
            "fields", FieldParams, lam=f["lam"], alpha=f["alpha"],
            eta=f["eta"], tau=f["tau"], delta=f["delta"], delay=f["delay"])
        self.shield_params = checked(
            "shield", ShieldParams, theta=s["theta"], n_mc=s["n_mc"],
            horizon=s["horizon"])
        self.rsd_config = checked(
            "rsd (and training.gamma)", RsdConfig, t_exp=r["t_exp"],
            t_decay=r["t_decay"], t_rep=r["t_rep"], rng_mode=r["rng_mode"],
            truncate_buffer=r["truncate_buffer"], gamma=tr["gamma"])
        self.base_deform = checked(
            "deformation", DeformationSpec, w_G=d["w_g"], w_H=d["w_h"],
            psi_min=d["psi_min"], k=d["topk_k"])
        names = [a.name.lower() for a in Action]
        if tr["scripted_fallback"] not in names:
            raise ConfigError(f"training.scripted_fallback must be one of {names}")
        self.scripted_action = int(Action[tr["scripted_fallback"].upper()])

    def __getitem__(self, key):
        return self.raw[key]

    def section(self, key) -> dict:
        return self.raw[key]

    def hash(self) -> str:
        return config_hash(self.raw)

    def snapshot(self) -> str:
        return json.dumps(self.raw, sort_keys=True, indent=2)

    def derive(self, changes: dict) -> "RunConfig":
        """A new config with `changes` merged in and validated."""
        return RunConfig(raw=_merge(self.raw, changes))

    def graph(self, seed: int) -> DiffusionGraph:
        """The run's diffusion graph for one graph seed."""
        g = self.raw["graph"]
        return checked("graph", generate_graph, g["nodes"], g["branching"],
                       seed, sens_fraction=g["sens_frac"],
                       locality=g["locality"], local_span=g["local_span"],
                       sens_style=g["sens_style"])

    def deform(self, mode: str, graph: DiffusionGraph) -> DeformationSpec:
        """The deformation for a mode; "local" gates the sensitive nodes and
        their undirected neighbours."""
        if mode != "local":
            return self.base_deform.with_mode(mode)
        sens = graph.sensitive_nodes
        hood = frozenset([*sens.tolist(), *graph.neighbours(sens).tolist()])
        return self.base_deform.with_mode("local", local_regions=hood)


def config_hash(obj: dict) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _is_like(default, value) -> bool:
    if isinstance(default, float):              # ints count as floats
        return type(value) is int or type(value) is float and math.isfinite(value)
    return type(value) is type(default)


def _merge(defaults, override, path=""):
    if isinstance(defaults, dict):
        if not isinstance(override, dict):
            raise ConfigError(f"config field {path or '<root>'} must be an object")
        out = {}
        for k, v in defaults.items():
            if k in override:
                out[k] = _merge(v, override[k], f"{path}.{k}".lstrip("."))
            else:
                out[k] = v
        for k in override:
            if k not in defaults:
                raise ConfigError(f"unknown config field {path + '.' + k if path else k}")
        return out
    if isinstance(defaults, list):
        # every list default is nonempty; its entries fix the entry type
        if not (isinstance(override, list)
                and all(_is_like(defaults[0], v) for v in override)):
            raise ConfigError(f"config field {path} must be a list of "
                              f"{type(defaults[0]).__name__}")
    elif not _is_like(defaults, override):
        raise ConfigError(f"config field {path} must be {type(defaults).__name__}"
                          + (" and finite" if isinstance(defaults, float) else ""))
    return override


def _validate(cfg: dict) -> None:
    """Checks that no constructor built from the config makes."""
    run_id = cfg["run_id"]
    if run_id in ("", ".", "..") or "/" in run_id or "\\" in run_id:
        raise ConfigError("run_id must name one directory: nonempty, not "
                          "'.' or '..', and without a path separator")
    for m in cfg["methods"]:
        if m not in KNOWN_METHODS:
            raise ConfigError(f"unknown method id {m!r}")
    if "shield_um" in cfg["methods"] and "rapo" not in cfg["methods"]:
        raise ConfigError("method shield_um needs rapo in methods: its "
                          "threshold is tuned to rapo's replay return")
    seeds = cfg["graph"]["seeds"]
    if not seeds or min(seeds) < 0:
        raise ConfigError("graph.seeds must be a nonempty list of integers >= 0")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        # a repeated seed would count each of its episodes more than once
        raise ConfigError(f"graph.seeds repeats seed {repeated[0]}")
    stimuli = cfg["rsd"]["stimuli"]
    if not stimuli or not all(1 <= z <= N_STIMULI for z in stimuli):
        raise ConfigError(f"rsd.stimuli must be a nonempty list in 1..{N_STIMULI}")
    tr = cfg["training"]
    if min(cfg["episodes"], cfg["workers"], tr["episode_len"]) < 1:
        raise ConfigError("episodes, workers and training.episode_len must be >= 1")
    if min(cfg["master_seed"], tr["seed"]) < 0:
        raise ConfigError("master_seed and training.seed must be >= 0")
    # values outside these would silently train or tune nothing
    for name, ok, rule in (
            ("training.steps", tr["steps"] >= 1, ">= 1"),
            ("training.epochs_per_batch", tr["epochs_per_batch"] >= 1, ">= 1"),
            ("training.lr", tr["lr"] > 0, "> 0"),
            ("training.lr_dual", tr["lr_dual"] >= 0, ">= 0"),
            ("training.clip", 0 < tr["clip"] < 1, "in (0, 1)"),
            ("training.gae_lambda", 0 <= tr["gae_lambda"] <= 1, "in [0, 1]"),
            ("shield.um_tolerance", cfg["shield"]["um_tolerance"] > 0, "> 0")):
        if not ok:
            raise ConfigError(f"{name} must be {rule}")


def load_config(source, overrides: dict | None = None) -> RunConfig:
    """Load and validate a run config from a path, dict, or JSON string.

    Every typed object the run needs is built here, so a bad value fails
    now as a ConfigError, not later inside a run.
    """
    if isinstance(source, dict):
        user = source
    else:
        text = source
        if os.path.exists(str(source)):
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read config {source}: {exc}") from None
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    merged = _merge(_DEFAULTS, user)
    if overrides:
        merged = _merge(merged, overrides)
    return RunConfig(raw=merged)
