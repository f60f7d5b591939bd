"""In-memory span recorder that times calls into replaylab from outside.

`Tracer.install` wraps each target function in every replaylab module that
binds it at import (``env_step`` is bound in ``graph_env``, ``rsd``,
``baselines`` and the package root alike) and each target method on its
class. A span is (name, start, end, parent span, run id). Spans live in flat
arrays while the workload runs and are written out by `save` at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np
from replaylab.graph_env import Action


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _env_step_tag(args, kwargs):
    action = Action(_arg(args, kwargs, 1, "action")).name.lower()
    return f"{action}.{_arg(args, kwargs, 4, 'deform').mode}"


def _env_step_noop(args, kwargs, result):
    # the step activated no node
    return not result.state.newly.any()


def _apply_mode_identity(args, kwargs, result):
    return bool(np.all(np.asarray(_arg(args, kwargs, 1, "psi")) == 1.0))


def _update_scar_noop(args, kwargs, result):
    return np.array_equal(result.H, _arg(args, kwargs, 0, "fields").H)


def _cli_command(args, kwargs):
    return _arg(args, kwargs, 0, "argv")[0]


@dataclass(frozen=True)
class Target:
    """A library callable to wrap: `attr` is a function name or Class.method."""

    module: str
    attr: str
    tag: Callable | None = None     # (args, kwargs) -> span name suffix
    flag: Callable | None = None    # (args, kwargs, result) -> bool

    @property
    def name(self) -> str:
        return f"{self.module.split('.')[-1]}.{self.attr}"


TARGETS = (
    Target("replaylab.config", "load_config"),
    Target("replaylab.rng", "substream"),
    Target("replaylab.graph_env", "generate_graph"),
    Target("replaylab.graph_env", "observe"),
    Target("replaylab.graph_env", "env_step", _env_step_tag, _env_step_noop),
    Target("replaylab.deformation", "apply_mode", flag=_apply_mode_identity),
    Target("replaylab.deformation", "reweight_categorical"),
    Target("replaylab.deformation", "conductance"),
    Target("replaylab.harm_memory", "attribute_harm"),
    Target("replaylab.harm_memory", "update_scar", flag=_update_scar_noop),
    Target("replaylab.harm_memory", "HarmFields.summary"),
    Target("replaylab.policies", "field_features"),
    Target("replaylab.policies", "Policy.action_distribution"),
    Target("replaylab.policies", "Policy.sample_action"),
    Target("replaylab.training", "train_epoch"),
    Target("replaylab.training", "gae_advantages"),
    Target("replaylab.training", "dual_update"),
    Target("replaylab.rsd", "run_rsd_episode"),
    Target("replaylab.rsd", "RsdEpisodeRecord.to_dict"),
    Target("replaylab.rsd", "RsdEpisodeRecord.from_dict"),
    Target("replaylab.metrics", "episode_metrics"),
    Target("replaylab.baselines", "shield_filter"),
    Target("replaylab.baselines", "run_method_episodes"),
    Target("replaylab.baselines", "run_method_suite"),
    Target("replaylab.baselines", "train_policy"),
    Target("replaylab.verification", "check_no_go"),
    Target("replaylab.verification", "check_odds_contraction"),
    Target("replaylab.verification", "check_odds_extension"),
    Target("replaylab.verification", "check_safe_mass"),
    Target("replaylab.verification", "check_compounding"),
    Target("replaylab.verification", "check_compounding_chain"),
    Target("replaylab.verification", "clipping_relaxation_demo"),
    Target("replaylab.cli", "main", _cli_command),
)


class Tracer:
    """Records nested spans around wrapped calls; single-threaded use."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._name = array("q")
        self._flag = array("b")
        self._run = array("b")
        self._stack: list[int] = []
        self.runs: list[str] = []
        self._patches: list[tuple] = []

    def begin_run(self, run_id: str) -> None:
        """Tag the spans recorded from now on with `run_id`."""
        self.runs.append(run_id)

    def _intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self._ids)
        return i

    def wrap(self, fn, name: str, tag=None, flag=None):
        base_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self._start)
            stack = self._stack
            self._parent.append(stack[-1] if stack else -1)
            self._name.append(base_id if tag is None else
                              self._intern(f"{name}.{tag(args, kwargs)}"))
            self._run.append(len(self.runs) - 1)
            self._flag.append(0)
            self._start.append(0)
            self._end.append(0)
            stack.append(i)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[i] = time.perf_counter_ns()
                self._start[i] = t0
                stack.pop()
            if flag is not None and flag(args, kwargs, result):
                self._flag[i] = 1
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        for t in targets:
            module = sys.modules[t.module]
            owner_name, _, attr = t.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(raw.__func__, t.name,
                                                    t.tag, t.flag))
                else:
                    patched = self.wrap(raw, t.name, t.tag, t.flag)
                self._patch(owner, attr, raw, patched)
                continue
            fn = getattr(module, attr)
            traced = self.wrap(fn, t.name, t.tag, t.flag)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "replaylab" and not mod_name.startswith("replaylab."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, fn, traced)

    def _patch(self, owner, key, old, new) -> None:
        setattr(owner, key, new)
        self._patches.append((owner, key, old))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, old = self._patches.pop()
            setattr(owner, key, old)

    # -- analysis ---------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self._start, dtype=np.int64),
                np.frombuffer(self._end, dtype=np.int64),
                np.frombuffer(self._parent, dtype=np.int64),
                np.frombuffer(self._name, dtype=np.int64),
                np.frombuffer(self._flag, dtype=np.int8),
                np.frombuffer(self._run, dtype=np.int8))

    def names(self) -> list[str]:
        return sorted(self._ids, key=self._ids.get)

    def stats(self) -> dict[str, tuple[int, float, int]]:
        """Per span name: (calls, total self time in seconds, flagged calls).

        Self time is the span's duration minus the time its child spans
        cover.
        """
        start, end, parent, name, flag, _ = self._arrays()
        dur = (end - start).astype(float)
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = dur - child
        n = len(self._ids)
        calls = np.bincount(name, minlength=n)
        self_total = np.bincount(name, weights=self_ns, minlength=n)
        flagged = np.bincount(name, weights=flag, minlength=n)
        return {nm: (int(calls[i]), float(self_total[i]) * 1e-9, int(flagged[i]))
                for i, nm in enumerate(self.names())}

    def count(self, prefix: str, run_id: str, parents: bool = False) -> Counter:
        """Count the names (or the parent span names) of spans named
        `prefix` or `prefix.*` that were recorded under `run_id`."""
        _, _, parent, name, _, run = self._arrays()
        names = self.names()
        wanted = [i for i, nm in enumerate(names)
                  if nm == prefix or nm.startswith(prefix + ".")]
        sel = np.isin(name, wanted) & (run == self.runs.index(run_id))
        if not parents:
            return Counter(names[i] for i in name[sel].tolist())
        return Counter(names[name[p]] if p >= 0 else None
                       for p in parent[sel].tolist())

    def save(self, path) -> None:
        start, end, parent, name, flag, run = self._arrays()
        np.savez_compressed(path, names=np.array(self.names()),
                            runs=np.array(self.runs), start_ns=start,
                            end_ns=end, parent=parent, name=name, flag=flag,
                            run=run)
