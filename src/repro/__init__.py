"""PRDNN: a reproduction of "Provable Repair of Deep Neural Networks".

The public API is re-exported here so that typical usage looks like::

    import repro

    network = repro.Network([...])
    spec = repro.PointRepairSpec.from_labels(points, labels, num_classes=10)
    result = repro.point_repair(network, layer_index=-1, spec=spec)
    repaired = result.network

The package is organized as:

``repro.core``
    The paper's contribution: Decoupled DNNs, provable point repair
    (Algorithm 1) and provable polytope repair (Algorithm 2).
``repro.nn``
    A from-scratch NumPy feed-forward network substrate (layers, forward
    evaluation, backpropagation, SGD training).
``repro.lp``
    A linear-programming substrate with ℓ1/ℓ∞ objectives, solved by
    scipy's HiGHS.
``repro.syrenn``
    Exact linear-region decompositions of piecewise-linear networks
    restricted to 1-D lines and 2-D planes, batched over every polygon of
    a verification pass, and the two-tier partition cache that keeps them.
``repro.polytope``
    Convex-geometry helpers used by ``repro.syrenn``.
``repro.verify``
    Violation search and certification: grid/random sampling verifiers and
    the exact SyReNN-based verifier.
``repro.driver``
    The counterexample-guided (CEGIS) repair driver that closes the loop
    between verification and repair.
``repro.api``
    The one-import facade: :func:`repro.api.repair`,
    :func:`repro.api.verify`, and :func:`repro.api.submit` (jobs to a
    running repair daemon).
``repro.obs``
    Opt-in observability: a process-wide metrics registry, span-based
    tracing, Prometheus text exposition, and structured JSON logging.
    Disabled by default; never touches numerics.
``repro.service``
    Repair-as-a-service: a long-lived daemon that accepts declarative
    repair/verify jobs over a small stdlib HTTP API and multiplexes them
    over one shared partition cache.
``repro.datasets``, ``repro.models``
    Synthetic stand-ins for the paper's three evaluation tasks.
``repro.baselines``
    The fine-tuning (FT) and modified fine-tuning (MFT) baselines.
``repro.experiments``
    Drivers that regenerate every table and figure of the evaluation.
"""

from repro.nn.network import Network
from repro.nn.linear import FullyConnectedLayer
from repro.nn.conv import Conv2DLayer
from repro.nn.activations import (
    ReLULayer,
    TanhLayer,
    SigmoidLayer,
    LeakyReLULayer,
    HardTanhLayer,
)
from repro.nn.pooling import AvgPool2DLayer, MaxPool2DLayer
from repro.nn.reshape import FlattenLayer
from repro.core.ddnn import DecoupledNetwork
from repro.core.specs import (
    PointRepairSpec,
    PolytopeRepairSpec,
    OutputConstraint,
    classification_constraint,
)
from repro.core.point_repair import point_repair
from repro.core.polytope_repair import polytope_repair
from repro.core.result import RepairResult, RepairTiming
from repro.lp.model import LPModel
from repro.lp.status import LPStatus
from repro.verify import (
    Counterexample,
    GridVerifier,
    RandomVerifier,
    SyrennVerifier,
    VerificationReport,
    VerificationSpec,
    Verifier,
    make_verifier,
)
from repro.driver import CounterexamplePool, DriverConfig, DriverReport, RepairDriver
from repro.syrenn.cache import PartitionCache
from repro import api
from repro import obs

__version__ = "1.2.0"

__all__ = [
    "Network",
    "FullyConnectedLayer",
    "Conv2DLayer",
    "ReLULayer",
    "TanhLayer",
    "SigmoidLayer",
    "LeakyReLULayer",
    "HardTanhLayer",
    "AvgPool2DLayer",
    "MaxPool2DLayer",
    "FlattenLayer",
    "DecoupledNetwork",
    "PointRepairSpec",
    "PolytopeRepairSpec",
    "OutputConstraint",
    "classification_constraint",
    "point_repair",
    "polytope_repair",
    "RepairResult",
    "RepairTiming",
    "LPModel",
    "LPStatus",
    "Verifier",
    "VerificationSpec",
    "VerificationReport",
    "Counterexample",
    "GridVerifier",
    "RandomVerifier",
    "SyrennVerifier",
    "make_verifier",
    "CounterexamplePool",
    "RepairDriver",
    "DriverConfig",
    "DriverReport",
    "PartitionCache",
    "api",
    "obs",
    "__version__",
]
