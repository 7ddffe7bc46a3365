"""A from-scratch NumPy feed-forward neural-network substrate.

The paper's experiments require a DNN framework capable of:

* forward evaluation of fully-connected and convolutional networks with a
  variety of activation functions (ReLU, Tanh, Sigmoid, LeakyReLU, HardTanh,
  max/average pooling);
* backpropagation and SGD training (to train the buggy networks and to run
  the FT/MFT fine-tuning baselines);
* exposing, for each layer, the linear structure required by the Decoupled
  DNN construction of the paper, for a whole batch of points at once
  (transposed input Jacobians, parameter Jacobians, and the value-channel
  linearizations of activation functions and their transposes).

Every layer maps a batch of flat vectors ``(batch, n_in) → (batch, n_out)``;
convolution and pooling layers carry their own spatial metadata and reshape
internally.  This keeps the repair machinery (which reasons about vectors)
uniform across architectures.
"""

from repro.nn.layer import Layer, LayerKind
from repro.nn.linear import FullyConnectedLayer
from repro.nn.conv import Conv2DLayer
from repro.nn.activations import (
    ReLULayer,
    LeakyReLULayer,
    TanhLayer,
    SigmoidLayer,
    HardTanhLayer,
)
from repro.nn.pooling import MaxPool2DLayer, AvgPool2DLayer
from repro.nn.reshape import FlattenLayer, NormalizeLayer
from repro.nn.network import Network
from repro.nn.train import SGDTrainer, TrainingConfig, cross_entropy_loss

__all__ = [
    "Layer",
    "LayerKind",
    "FullyConnectedLayer",
    "Conv2DLayer",
    "ReLULayer",
    "LeakyReLULayer",
    "TanhLayer",
    "SigmoidLayer",
    "HardTanhLayer",
    "MaxPool2DLayer",
    "AvgPool2DLayer",
    "FlattenLayer",
    "NormalizeLayer",
    "Network",
    "SGDTrainer",
    "TrainingConfig",
    "cross_entropy_loss",
]
