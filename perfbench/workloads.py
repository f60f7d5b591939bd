"""The benchmark's three workloads: desk, train and shield.

Library calls go through module attributes, so the tracer's wrappers see
them. The library receives only the inputs generated here from the
workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time

import numpy as np

from replaylab import baselines, cli, config, graph_env, rng, rsd
from replaylab.deformation import DeformationSpec
from replaylab.graph_env import Action, EnvParams
from replaylab.harm_memory import FieldParams, HarmFields
from replaylab.policies import Policy
from replaylab.rsd import RsdConfig


class Checks:
    """Counts output checks attempted and records the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _env_params(cfg) -> EnvParams:
    e = cfg.section("env")
    return EnvParams(k_seed=e["k_seed"], seed_pool=e["seed_pool"],
                     refire=e["refire"], reward=e["reward"],
                     action_costs=tuple(e["action_costs"]))


def _field_params(cfg) -> FieldParams:
    f = cfg.section("fields")
    return FieldParams(lam=f["lam"], alpha=f["alpha"], eta=f["eta"],
                       tau=f["tau"], delta=f["delta"], delay=f["delay"])


def _graph(cfg, graph_seed: int):
    g = cfg.section("graph")
    return graph_env.generate_graph(
        g["nodes"], g["branching"], graph_seed, sens_fraction=g["sens_frac"],
        locality=g["locality"], local_span=g["local_span"],
        sens_style=g["sens_style"])


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _timed(samples, key, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    samples.setdefault(key, []).append(time.perf_counter() - t0)
    return out


class Workload:
    """Set up from the workload seed in the constructor (timed as setup_s).

    `transitions` is the number of environment transitions one stage
    simulates, computed from the inputs.
    """

    transitions: int

    def stage(self, rep: int):
        """The timed stage, repeated; its duration is `wall_s`."""
        raise NotImplementedError

    def after(self, out, checks: Checks, samples: dict) -> dict:
        """Check one stage's outputs; return the values that must repeat
        exactly for the same code and seed."""
        raise NotImplementedError

    def extras(self, checks: Checks, samples: dict) -> None:
        """End-to-end stages measured once per run."""

    def self_checks(self, checks: Checks) -> None:
        """The benchmark's own checks; never traced."""

    def confirm_split(self, tracer, stats: dict, checks: Checks) -> None:
        """Confirm from a traced run which layers the workload exercises."""
        raise NotImplementedError


class Desk(Workload):
    """`replaylab run` on desk_preset, then `report` and `verify`."""

    def __init__(self, seed: int, workdir):
        self.workdir = workdir
        self.cfg = config.load_config(config.desk_preset(master_seed=seed,
                                                          run_id="desk"))
        r = self.cfg.section("rsd")
        methods = set(self.cfg["methods"]) | {"ge"}   # ge always runs
        self.records = (len(methods) * len(self.cfg.section("graph")["seeds"])
                        * self.cfg["episodes"])
        self.steps_per_record = r["t_exp"] + r["t_decay"] + r["t_rep"]
        self.transitions = self.records * self.steps_per_record

    def stage(self, rep: int):
        out = self.workdir / f"desk{rep}"
        baselines.run_method_suite(self.cfg, str(out))
        return out

    def after(self, out, checks: Checks, samples: dict) -> dict:
        recomputed = out / "recomputed.csv"
        rc = _timed(samples, "report_s", _quiet_cli,
                       ["report", "--run-dir", str(out), "--out", str(recomputed)])
        checks.expect(rc == 0, f"replaylab report exited {rc}")
        report = (out / "report.csv").read_bytes()
        checks.expect(recomputed.read_bytes() == report,
                      "recomputed report differs from the run's report.csv")
        paths = sorted((out / "desk").rglob("*.jsonl"))
        checks.expect(len(paths) == self.records,
                      f"{len(paths)} records written, expected {self.records}")
        record_bytes = scar_bytes = 0
        for path in paths:
            line = path.read_bytes()
            record_bytes += len(line)
            phases = json.loads(line)["phases"].values()
            scar_bytes += sum(len(json.dumps(p["scar_top"])) for p in phases)
        shutil.rmtree(out)
        return {
            "report_sha256": hashlib.sha256(report).hexdigest(),
            "transitions": self.transitions,
            "record_bytes": record_bytes,
            "rsd.record.bytes_per_step":
                record_bytes / (len(paths) * self.steps_per_record),
            "rsd.record.scar_top_share": scar_bytes / record_bytes,
        }

    def extras(self, checks: Checks, samples: dict) -> None:
        rc = _timed(samples, "verify_s", _quiet_cli, ["verify"])
        checks.expect(rc == 0, f"replaylab verify exited {rc}")

    def confirm_split(self, tracer, stats: dict, checks: Checks) -> None:
        steps = [n for n in stats if n.startswith("graph_env.env_step.")]
        checks.expect(all(n.startswith("graph_env.env_step.moderate.") for n in steps),
                      f"desk env_step buckets {steps} are not all moderate")
        for name in ("deformation.apply_mode", "baselines.shield_filter"):
            checks.expect(stats.get(name, (0,))[0] == 0, f"desk calls {name}")


class Train(Workload):
    """`train_policy` for rapo on desk graph 1 for a fixed number of steps.

    The workload seed drives the master seed, and with it every draw made
    during training. The policy initialisation (training.seed) stays 0: it
    fixes the action mix (about 77% aggressive), which is what this workload
    measures; other initialisations train mostly moderate or conservative
    and take half the time.
    """

    STEPS = 6000

    def __init__(self, seed: int, workdir):
        self.cfg = config.load_config(config.desk_preset(
            master_seed=seed, training={"steps": self.STEPS, "seed": 0}))
        self.graph = _graph(self.cfg, 1)
        self.method = baselines.method_config("rapo")
        ep_len = self.cfg.section("training")["episode_len"]
        per_batch = max(1, 2048 // ep_len) * ep_len
        self.transitions = math.ceil(self.STEPS / per_batch) * per_batch

    def stage(self, rep: int):
        return baselines.train_policy(self.method, self.graph, self.cfg).weights.copy()

    def after(self, weights, checks: Checks, samples: dict) -> dict:
        checks.expect(np.all(np.isfinite(weights)), "trained weights not finite")
        return {"transitions": self.transitions, "weights": weights.tolist()}

    def confirm_split(self, tracer, stats: dict, checks: Checks) -> None:
        steps = {n: s[0] for n, s in stats.items()
                 if n.startswith("graph_env.env_step.")}
        top = max(steps, key=steps.get, default=None)
        checks.expect(top == "graph_env.env_step.aggressive.full",
                      f"largest train env_step bucket is {top}, not aggressive.full")


class _StateRecorder(Policy):
    """Scripted moderate policy that copies the environment state at the
    requested global step indices of an RSD episode."""

    def __init__(self, steps):
        super().__init__(kind="scripted", scripted_action=int(Action.MODERATE))
        self.wanted = set(steps)
        self.step = 0
        self.captured = []
        self.freeze()

    def bind_env_state(self, state, fields, deform):
        if self.step in self.wanted:
            self.captured.append(state.copy())
        self.step += 1


class Shield(Workload):
    """`shield_filter` at paper defaults on desk states captured in set-up.

    Per desk graph, one exposure, one decay (stimulus off) and one replay
    state are captured from a rapo-deformed episode whose stimulus, episode
    seed and capture steps come from the workload seed.
    """

    def __init__(self, seed: int, workdir):
        self.seed = seed
        cfg = config.load_config(config.desk_preset(master_seed=seed))
        sh = cfg.section("shield")
        self.theta, self.n_mc, self.horizon = sh["theta"], sh["n_mc"], sh["horizon"]
        self.env_params = _env_params(cfg)
        self.field_params = _field_params(cfg)
        d = cfg.section("deformation")
        deform = DeformationSpec(w_G=d["w_g"], w_H=d["w_h"], psi_min=d["psi_min"],
                                 mode="full")
        r = cfg.section("rsd")
        t_exp, t_decay, t_rep = r["t_exp"], r["t_decay"], r["t_rep"]
        pick = np.random.default_rng([seed, 3])
        self.states = []
        for graph_seed in cfg.section("graph")["seeds"]:
            graph = _graph(cfg, graph_seed)
            steps = (int(pick.integers(t_exp)),
                     t_exp + int(pick.integers(t_decay)),
                     t_exp + t_decay + int(pick.integers(t_rep)))
            z = int(pick.choice(r["stimuli"]))
            recorder = _StateRecorder(steps)
            rsd.run_rsd_episode(
                RsdConfig(t_exp=t_exp, t_decay=t_decay, t_rep=t_rep, z=z,
                          gamma=cfg.section("training")["gamma"]),
                recorder, graph,
                HarmFields.zeros(graph.node_count, self.field_params), deform,
                int(pick.integers(2 ** 31)), self.env_params)
            self.states += [(graph, s) for s in recorder.captured]
        self.transitions = len(self.states) * 3 * self.n_mc * self.horizon

    def stage(self, rep: int):
        mc = rng.substream(self.seed, 14)
        calls = []
        for graph, state in self.states:
            t0 = time.perf_counter()
            allowed, sims = baselines.shield_filter(
                state, graph, self.theta, self.n_mc, self.horizon, mc,
                self.env_params, self.field_params)
            calls.append((allowed, sims, time.perf_counter() - t0))
        return calls

    def after(self, calls, checks: Checks, samples: dict) -> dict:
        per_call = 3 * self.n_mc * self.horizon
        for allowed, sims, dt in calls:
            checks.expect(len(allowed) > 0 and set(allowed) <= {0, 1, 2},
                          f"shield allowed set {allowed} is not a nonempty "
                          "subset of {0, 1, 2}")
            checks.expect(sims == per_call,
                          f"shield reported {sims} transitions, expected {per_call}")
            samples.setdefault("filter_s", []).append(dt)
        return {"transitions": sum(c[1] for c in calls),
                "allowed": [sorted(int(a) for a in c[0]) for c in calls]}

    def confirm_split(self, tracer, stats: dict, checks: Checks) -> None:
        parents = tracer.count("graph_env.env_step", "stage", parents=True)
        checks.expect(set(parents) <= {"baselines.shield_filter"},
                      f"shield env_step spans have parents {dict(parents)}")
        modes = tracer.count("graph_env.env_step", "stage")
        checks.expect(all(n.endswith(".off") for n in modes),
                      f"shield env_step buckets {dict(modes)} are not all mode off")

    def self_checks(self, checks: Checks, wanted: int = 2,
                    attempts: int = 8, n_ref: int = 40,
                    clearance: float = 5.0) -> None:
        """Run the filter at a threshold that splits the actions.

        Every captured desk state saturates the sensitive arc under all
        three actions, so at theta 10 each call is decided by the fail-safe.
        Here the states are initial states of subcritical graphs, where
        aggressive injection reaches far more sensitive mass. A reference
        estimate with `n_ref` rollouts per action sets theta in the widest
        gap between the action means; a state is used only if every mean
        lies `clearance` standard errors (of the difference between the
        filter's estimate and the reference) away from theta, so a changed
        Monte-Carlo draw order passes and a broken estimator does not.
        """
        pick = np.random.default_rng([self.seed, 4])
        env_params = EnvParams(k_seed=6, seed_pool="all", refire=False)
        off = DeformationSpec(mode="off")
        zero = HarmFields.zeros(50, self.field_params)
        se_scale = math.sqrt(1.0 / self.n_mc + 1.0 / n_ref)
        used = 0
        for attempt in range(attempts):
            graph = graph_env.generate_graph(50, 0.3, int(pick.integers(1, 10 ** 6)))
            state = graph_env.initial_state(graph, int(pick.integers(1, 21)),
                                            self.field_params.delay)
            ref = np.random.default_rng([self.seed, 5, attempt])
            totals = np.zeros((3, n_ref))
            for a in range(3):
                for k in range(n_ref):
                    sim = state
                    for _ in range(self.horizon):
                        sim = graph_env.env_step(sim, Action(a), graph, zero, off,
                                                 ref, env_params).state
                        totals[a, k] += graph.sensitive[sim.active].sum()
            means, sds = totals.mean(axis=1), totals.std(axis=1, ddof=1)
            order = np.argsort(means)
            gap = int(np.argmax(np.diff(means[order])))
            theta = 0.5 * (means[order[gap]] + means[order[gap + 1]])
            if np.any(np.abs(means - theta) < clearance * sds * se_scale):
                continue
            allowed, _ = baselines.shield_filter(
                state, graph, theta, self.n_mc, self.horizon,
                rng.substream(self.seed, 15, attempt), env_params,
                self.field_params)
            expected = [a for a in range(3) if means[a] <= theta]
            checks.expect(sorted(allowed) == expected,
                          f"shield at split theta {theta:.1f} allowed {allowed}, "
                          f"reference means {means.round(1).tolist()} expect {expected}")
            used += 1
            if used == wanted:
                break
        checks.expect(used == wanted,
                      f"found {used} of {wanted} states with a well-separated "
                      "threshold")


WORKLOADS = {"desk": Desk, "train": Train, "shield": Shield}
