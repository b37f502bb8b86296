"""Rotary position embeddings, the discrete basis-scaling family, and
continuous ODE-driven length extrapolation, with a desk-scale byte-level
transformer harness for train-short / test-long experiments."""

from .autodiff import Tensor, backward, no_grad
from .continuous import BasisCache, CacheSession, OdeNet
from .harness import Corpus, EvalReport, TrainSettings, evaluate, load_corpus, train
from .model import ModelConfig, forward, log_scale_mult
from .rotary import FrequencyBasis, alpha, apply_rotary, default_basis, pair_score, scale_basis

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "backward",
    "no_grad",
    "BasisCache",
    "CacheSession",
    "OdeNet",
    "Corpus",
    "EvalReport",
    "TrainSettings",
    "evaluate",
    "load_corpus",
    "train",
    "ModelConfig",
    "forward",
    "log_scale_mult",
    "FrequencyBasis",
    "apply_rotary",
    "default_basis",
    "pair_score",
    "alpha",
    "scale_basis",
    "__version__",
]
