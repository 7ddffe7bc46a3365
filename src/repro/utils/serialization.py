"""Serialization helpers for caching trained models between runs.

Training the buggy networks used by the experiments takes a few seconds to a
couple of minutes.  The model zoo (``repro.models.zoo``) caches trained
parameters under a directory of ``.npz`` files keyed by a configuration hash
so that repeated benchmark runs do not retrain.

The module also provides the self-contained network encoding the repair
daemon's job protocol carries (``repro.service.protocol``) and the parameter
fingerprint that keys the partition cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path

import numpy as np


def config_digest(config: dict) -> str:
    """Return a stable short hash for a JSON-serializable configuration."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def default_cache_dir() -> Path:
    """Directory used for cached artifacts (override with REPRO_CACHE_DIR)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-prdnn"


def encode_network(network) -> bytes:
    """Encode a network (or DDNN) as a self-contained byte payload.

    Every layer and network class lives at module level and stores only
    plain NumPy arrays, so the pickle payload can be decoded by any process
    that imports ``repro``.
    """
    return pickle.dumps(network, protocol=pickle.HIGHEST_PROTOCOL)


def decode_network(payload: bytes):
    """Decode a network encoded by :func:`encode_network`."""
    return pickle.loads(payload)


def network_fingerprint(network) -> str:
    """A short digest of a network's architecture and parameters.

    Two identical networks (e.g. the same network in two different
    processes) produce the same fingerprint, which is what lets the disk
    tier of the partition cache be shared across processes.  The digest
    covers every layer's class and shape — not just the parameterized
    layers' weights — so networks that differ only in parameter-free layers
    (a swapped activation, say) never collide.  Decoupled networks hash
    both channels.
    """
    digest = hashlib.sha256()
    if hasattr(network, "activation") and hasattr(network, "value"):
        channels = (("activation", network.activation), ("value", network.value))
    else:
        channels = (("network", network),)
    for name, channel in channels:
        digest.update(name.encode())
        for layer in channel.layers:
            digest.update(
                f"{type(layer).__name__}:{layer.input_size}:{layer.output_size}".encode()
            )
            # Every layer stores its state as instance attributes: parameter
            # arrays (weights, kernels, biases), array state of static
            # layers (a NormalizeLayer's means/stds), and scalar
            # configuration (a LeakyReLU slope, pooling strides).  Hashing
            # them all covers differences the parameter vectors alone miss.
            for attr, value in sorted(vars(layer).items()):
                if isinstance(value, (bool, int, float, str, tuple)):
                    digest.update(f":{attr}={value}".encode())
                elif isinstance(value, np.ndarray):
                    digest.update(f":{attr}:".encode())
                    digest.update(np.ascontiguousarray(value).tobytes())
            digest.update(b";")
    return digest.hexdigest()[:16]


def save_arrays(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """Save a name→array mapping as a compressed ``.npz`` file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


def save_arrays_atomic(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """:func:`save_arrays`, but crash-safe.

    The archive is fully written to a sibling temp file and moved into place
    with :func:`os.replace` (atomic within a filesystem), so a reader —
    e.g. the service's kill-resume path loading a driver checkpoint — can
    never observe a torn file: it sees either the old complete archive or
    the new complete archive.  Writing through an open file object keeps
    ``np.savez_compressed`` from appending ``.npz`` to the temp name.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as stream:
        np.savez_compressed(stream, **arrays)
    os.replace(tmp, path)


def load_arrays(path: Path) -> dict[str, np.ndarray]:
    """Load a name→array mapping saved by :func:`save_arrays`.

    The file handle is opened here rather than by ``np.load`` so a corrupt
    (torn-write) file cannot leak an unclosed descriptor when ``np.load``
    raises before constructing its context manager.
    """
    with open(path, "rb") as stream:
        with np.load(stream) as data:
            return {key: np.array(data[key]) for key in data.files}
