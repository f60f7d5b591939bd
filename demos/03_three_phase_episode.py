"""One Exposure -> Decay -> Replay episode, with and without gating.

During Exposure the cascade crosses the sensitive arc and delayed harm
scars it. At Replay the observable state and the agent are reset but the
scar persists: with the deformation on, the replayed cascade stalls at the
scarred arc; with it switched off at replay only (the counterfactual), the
same checkpoint re-expresses the full cascade. The episode runs the desk
preset's settings on its graph seed 1.
"""

from dataclasses import replace

from replaylab import (HarmFields, Policy, desk_preset, load_config,
                       run_rsd_episode)
from replaylab.metrics import episode_metrics


def run(replay_deformation):
    cfg = load_config(desk_preset())
    graph = cfg.graph(1)
    return run_rsd_episode(
        replace(cfg.rsd_config, replay_deformation=replay_deformation),
        Policy(kind="scripted", scripted_action=1).freeze(),
        graph,
        HarmFields.zeros(graph.node_count, cfg.field_params),
        cfg.deform("full", graph),
        episode_seed=7,
        env_params=cfg.env_params,
    )


def main():
    for mode in ("inherit", "off"):
        rec = run(mode)
        m = episode_metrics(rec)
        exp = rec.phases["exposure"]
        rep = rec.phases["replay"]
        print(f"--- replay deformation: {mode}")
        print(f"exposure peak reach={max(exp.reach)}  "
              f"replay peak reach={max(rep.reach)}")
        print(f"RAG={m['rag']:.3f}  AUC-R={m['auc_r']:.3f}  "
              f"SM-R={m['sm_r']:.3f}  odds ratio="
              f"{m['odds_ratio_mean']:.4f}")
        print(f"scar mass after exposure: "
              f"{rec.field_snapshots['after_exposure']['h_sum']:.3f}")
        print()


if __name__ == "__main__":
    main()
