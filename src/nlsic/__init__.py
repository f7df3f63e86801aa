"""Successive interference cancellation and APP equalization for bandlimited
channels with a memoryless nonlinearity: ground-truth channel simulation,
exact/mismatched forward-backward detection, bit-wise Gibbs sampling, a
periodically time-varying bidirectional recurrent detector with its trainer,
and Monte-Carlo achievable-rate estimation.

Importing the package loads no submodule: a submodule, or a name of
_EXPORTS, loads its module on first access (PEP 562), so a program
compiles only the modules it uses."""

import sys

# The names the package exports, by the submodule that defines them.
_EXPORTS = {
    "apps": "AppMatrix MultCounter",
    "channel": "Alphabet Blocks ChannelConfig DiscreteChannel FiberParams "
               "FirFilter Identity RappPA SquareLaw build_pulse "
               "differential_precode draw_symbols make_channel random_block "
               "simulate_batch",
    "config": "GibbsConfig",
    "fba": "AuxChannel build_aux_channel count_fba_multiplications "
           "fba_point_apps fba_ub",
    "gibbs": "count_gs_multiplications gibbs_apps",
    "rates": "RateReport StageRate estimate_sic stage_by_stage uniform_apps",
    "rnn": "Normalization RnnModel RnnShape build_indexer "
           "count_rnn_multiplications forward gather_inputs init_model "
           "load_model rnn_apps save_model",
    "sic": "SicPlan StageView ic_window_indices stage_view",
    "training": "Adam TrainConfig TrainDivergence TrainLog backward loss "
                "train_stage",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "parallel"}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _SUBMODULES else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, whose imports python -X importtime reports, unlike those
    # of importlib.import_module
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    return value if module == name else getattr(value, name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
