"""Dense neural-network substrate: layers, losses and optimizers.

This is the reproduction's stand-in for the PyTorch operator stack the paper
builds on — a numpy "autograd-lite" with hand-written backward passes, kept
small and fully deterministic.
"""

from . import functional, init
from .interaction import CatInteraction, DotInteraction
from .layers import MLP, Identity, Linear, Module, ReLU, Sequential, Sigmoid
from .losses import BCEWithLogitsLoss
from .lr_scheduler import LRScheduler, WarmupLinearDecay, linear_scaled_lr
from .optim import LAMB, AdaGrad, Adam, Optimizer, SGD
from .parameter import Parameter

__all__ = [
    "functional",
    "init",
    "Parameter",
    "Module",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Identity",
    "Sequential",
    "MLP",
    "DotInteraction",
    "CatInteraction",
    "BCEWithLogitsLoss",
    "Optimizer",
    "SGD",
    "AdaGrad",
    "Adam",
    "LAMB",
    "LRScheduler",
    "WarmupLinearDecay",
    "linear_scaled_lr",
]
