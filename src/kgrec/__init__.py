"""Knowledge-graph-enhanced deep Q-learning for interactive recommendation.

A self-contained numpy laboratory: taped reverse-mode autodiff, a triple
store with translational embeddings, graph-convolution and recurrent state
encoders, a dueling double-DQN agent with hop-limited candidate selection,
a matrix-factorization feedback simulator, and the experiment
orchestration gluing them together. Of scipy it loads only the compiled
sparse product kernels (`kgrec.csr`), by file path, so importing kgrec
imports no scipy module.
"""

from .autodiff import Tape, Tensor
from .optim import AdamState, adam_step
from .graph import (CandidateSet, KnowledgeGraph, build_graph, candidate_items,
                    k_hop_sets, load_graph)
from .transe import TranseConfig, transe_loss_and_grads, transe_pretrain
from .encoder import GcnParameters, GruParameters, encode_rows, propagate_all
from .simulator import (EpisodeState, SimulatorModel, StepRecord, fit_mf,
                        instinctive_reward, popularity_table, preference_counts, reset,
                        split_users, step)
from .agent import (AgentParameters, CurvePoint, Environment, Experience, Mlp,
                    QNetParameters, ReplayBuffer, TrainConfig, evaluate_policy,
                    initialize_parameters, load_checkpoint, q_rows, save_checkpoint,
                    soft_update, td_loss, train, variant_flags)
from .metrics import (EvaluationReport, average_reward, build_report, episode_reward,
                      precision_at_horizon, recall_at_horizon, wilcoxon_signed_rank)
from .experiments import (Dataset, ExperimentConfig, RunArtifacts, build_environment,
                          compare, ingest, interactions_to_threshold, parse_config,
                          run_experiment, sweep_candidates)
from .synth import SynthData, SynthSpec, generate, write_dataset

__version__ = "0.1.0"

# every name imported above: the classes and functions defined in kgrec's modules
__all__ = sorted(name for name, value in globals().items()
                 if getattr(value, "__module__", "").startswith("kgrec."))
