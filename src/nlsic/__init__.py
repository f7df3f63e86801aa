"""Successive interference cancellation and APP equalization for bandlimited
channels with a memoryless nonlinearity: ground-truth channel simulation,
exact/mismatched forward-backward detection, bit-wise Gibbs sampling, a
periodically time-varying bidirectional recurrent detector with its trainer,
and Monte-Carlo achievable-rate estimation."""

from .apps import AppMatrix, MultCounter
from .channel import (Alphabet, Blocks, ChannelConfig, DiscreteChannel,
                      FiberParams, FirFilter, Identity, RappPA, SquareLaw,
                      build_pulse, differential_precode, draw_symbols,
                      make_channel, random_block, simulate_batch)
from .fba import (AuxChannel, build_aux_channel, count_fba_multiplications,
                  fba_apps, fba_point_apps, fba_ub)
from .gibbs import GibbsConfig, count_gs_multiplications, gibbs_apps
from .rates import (RateReport, StageRate, estimate_sic, stage_by_stage,
                    uniform_apps)
from .rnn import (Normalization, RnnModel, RnnShape, build_indexer,
                  count_rnn_multiplications, forward, gather_inputs,
                  init_model, load_model, rnn_apps, save_model)
from .sic import SicPlan, StageView, ic_window_indices, stage_view
from .training import (Adam, TrainConfig, TrainDivergence, TrainLog, backward,
                       loss, train_stage)

__version__ = "0.1.0"
