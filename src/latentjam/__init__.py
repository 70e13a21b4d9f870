"""Latent distribution matching by adversarial jamming.

A data compressor doubles as the jammer of an auxiliary joint
source-channel autoencoder; the only jamming distribution it can settle on
is the channel game's saddle point, a diagonal Gaussian, which pulls the
aggregate latent toward N(0, I). The `oracle` module carries the analytic
linear-Gaussian ground truth that validates the game independently of any
training.
"""

from .autodiff import AdamState, EagerTape, Tape, Tensor, adam_step, backward_grads
from .data_io import BatchPlan, Dataset, batches, load_idx, synth_source
from .errors import (CheckpointError, ConfigError, DataFormatError,
                     DegenerateGameError, NumericError, ShapeError)
from .game import GameConfig, TrainState, channel_output, data_loss, init_state, jscc_loss, train, train_step
from .metrics import GaussianityStats, MetricsReport, gaussianity_report, pearson_dpc
from .nets import (MlpParams, NetworkRoles, init_params, make_networks,
                   mlp_apply, power_normalize)
from .oracle import (LinearStrategy, MatchingSpec, OracleSpec, isotropic_matching,
                     matching_residual, matching_samples, mc_game_value,
                     saddle_strategy, saddle_verify, scalar_saddle_distortion)
from .rng import Rng, derive_seed

__version__ = "0.1.0"
