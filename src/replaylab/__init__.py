"""Replay suppression diagnostics on graph-diffusion environments.

A numpy/scipy library for studying whether harmful cascades, once expressed
and scarred into a persistent environment memory, stay suppressed when the
same stimulus is replayed to a reset agent.
"""

from .baselines import (MethodConfig, ShieldedPolicy, ShieldParams,
                        method_config, run_method_suite, shield_filter,
                        tune_shield_um)
from .config import KNOWN_METHODS, RunConfig, desk_preset, load_config
from .deformation import (DeformationSpec, apply_mode, conductance,
                          gate_edge_prob, reweight_categorical)
from .errors import ConfigError, ProtocolError
from .graph_env import (Action, DiffusionGraph, EnvParams, EnvState,
                        StepResult, env_step, generate_graph, initial_state,
                        observe, stimulus_seed_set)
from .harm_memory import FieldParams, HarmFields, attribute_harm, update_scar
from .metrics import (action_shift_distance, containment_radius,
                      discounted_return, episode_metrics, odds_ratio_series,
                      replay_ratios, replay_return, welch_ttest)
from .policies import Policy, field_features, softmax
from .rng import substream
from .rsd import (PhaseSeries, RsdConfig, RsdEpisodeRecord, run_rsd_episode,
                  run_rsd_episodes, scar_evolution)
from .training import (Batch, TrainerState, dual_update, gae_advantages,
                       ss_penalty_update, surrogate_loss_and_grad,
                       train_epoch)
from .verification import (check_compounding, check_compounding_chain,
                           check_no_go, check_odds_contraction,
                           check_odds_extension, check_safe_mass,
                           clipping_relaxation_demo, run_all_checks)

__version__ = "0.1.0"
