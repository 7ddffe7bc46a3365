"""Frozen-prefix activation cache for single-layer repairs.

Repairing the value channel of layer ``i`` (Theorems 4.5/4.6) never touches
layers ``< i`` of either DDNN channel, so the inputs that layer ``i`` sees
for a given batch of points are fixed for the whole repair.  A
:class:`PrefixCache` computes them once per batch and lets every later
evaluation of that batch — verification sweeps, Jacobian encoding, the
pool's satisfaction check — start at layer ``i``.

**Exactness.**  A hit returns exactly the bytes the uncached layer loop would
have produced, never an approximation of them:

* entries are keyed on the *exact* batch (a digest of the value rows and,
  when they differ from the value rows, of the activation rows), because
  batched BLAS kernels are not row-invariant in general — a row evaluated
  inside a different batch may round differently;
* every lookup first compares the prefix layers' memoized digests, both
  channels, against a snapshot taken when the cache was created; a network
  whose prefix differs is evaluated uncached;
* when the activation rows equal the value rows and both channels' prefixes
  are identical, the two channels coincide below ``i`` and the prefix is run
  once.  An activation layer rejoins the channels only where its
  :meth:`~repro.nn.layer.Layer.forward_matches_decoupled` proves
  ``decoupled_forward(z, z) == forward(z)`` bit for bit on that batch;
  otherwise both channels are carried separately from there on, exactly as
  :meth:`~repro.core.ddnn.DecoupledNetwork.compute` does.

**Lifetime.**  A cache belongs to one :meth:`RepairDriver.run
<repro.driver.driver.RepairDriver.run>` and one repaired layer.  Networks
reach it through :meth:`bind` or by derivation from a bound network;
after :meth:`close` every lookup declines.  Pickles carry no binding.

**Cost.**  A lookup hashes the batch, so it pays off only for batches
whose prefix evaluation outweighs that: a batch whose prefix activations
(rows × the summed input widths of the prefix layers) hold fewer bytes
than the prefix layers' arrays is evaluated uncached, never looked up or
stored.  Convolutional prefixes (few parameters, wide
activations) are cached from a single row; a wide fully-connected prefix
only for batches of a hundred rows or so.

**Memory.**  Features are charged against ``max_bytes`` (the driver passes a
share of ``memory_budget``); a batch that would not fit is simply evaluated
without being stored.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.ddnn import _decoupled_step
from repro.nn.layer import LayerKind


def _prefix_digests(network, layer_index: int) -> tuple:
    return tuple(
        tuple(layer.digest for layer in channel.layers[:layer_index])
        for channel in (network.activation, network.value)
    )


def _same_rows(first: np.ndarray, second: np.ndarray) -> bool:
    """Whether two batches hold the same bytes (not merely equal values)."""
    return (
        first is second
        or first.shape == second.shape
        and np.array_equal(
            np.ascontiguousarray(first).view(np.uint8),
            np.ascontiguousarray(second).view(np.uint8),
        )
    )


def _digest(rows: np.ndarray) -> bytes:
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    return hashlib.sha256(rows).digest() + repr(rows.shape).encode()


class PrefixCache:
    """Inputs of layer ``layer_index`` of both DDNN channels, per exact batch.

    ``network`` supplies the prefix snapshot every bound network is checked
    against; it is not bound by construction.  ``max_bytes`` caps the
    stored features (``None``: unbounded).
    """

    def __init__(self, network, layer_index: int, max_bytes: int | None = None) -> None:
        if not 0 < layer_index < network.num_layers:
            raise ValueError(f"a prefix cache needs 0 < layer_index < {network.num_layers}")
        self.layer_index = int(layer_index)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self._snapshot = _prefix_digests(network, self.layer_index)
        self._channels_equal = self._snapshot[0] == self._snapshot[1]
        self._state_nbytes = sum(
            value.nbytes
            for channel in (network.activation, network.value)
            for layer in channel.layers[: self.layer_index]
            for value in vars(layer).values()
            if isinstance(value, np.ndarray)
        )
        self._row_nbytes = 8 * sum(
            layer.input_size for layer in network.activation.layers[: self.layer_index]
        )
        #: Features by batch key; ``None`` after :meth:`close`.
        self._entries: dict[bytes, tuple[np.ndarray, np.ndarray]] | None = {}
        self.nbytes = 0
        self.hits = 0
        self.misses = 0

    def bind(self, network):
        """Route ``network``'s (and its derived networks') batched evaluations here."""
        network.prefix_cache = self
        return network

    def close(self) -> None:
        """Drop every feature; every later lookup declines."""
        self._entries = None
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self._entries or ())

    def layer_inputs(
        self, network, value_batch: np.ndarray, activation_batch: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """``(activation, value)`` inputs of layer ``layer_index`` for a batch.

        Returns ``None`` — evaluate uncached — once the cache is closed,
        for a batch too small to be worth a lookup (see the module notes)
        and when ``network``'s prefix no longer matches the snapshot.
        Returned arrays are read-only and may be one and the same array when
        the two channels coincide.
        """
        if self._entries is None:
            return None
        if value_batch.shape[0] * self._row_nbytes < self._state_nbytes:
            return None
        if _prefix_digests(network, self.layer_index) != self._snapshot:
            return None
        if activation_batch is not None and _same_rows(activation_batch, value_batch):
            activation_batch = None
        key = _digest(value_batch)
        if activation_batch is not None:
            key += _digest(activation_batch)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        self.misses += 1
        entry = tuple(
            # A prefix of view-only layers may hand back the caller's own
            # rows, which the caller is free to overwrite later.
            array.copy()
            if np.may_share_memory(array, value_batch)
            or activation_batch is not None
            and np.may_share_memory(array, activation_batch)
            else array
            for array in self._run_prefix(network, value_batch, activation_batch)
        )
        for array in entry:
            array.setflags(write=False)
        size = sum({id(array): array.nbytes for array in entry}.values())
        if self.max_bytes is None or self.nbytes + size <= self.max_bytes:
            self._entries[key] = entry
            self.nbytes += size
        return entry

    def _run_prefix(self, network, value_batch, activation_batch):
        """The layer loop of ``DecoupledNetwork.compute``, stopped at layer ``i``."""
        shared = activation_batch is None and self._channels_equal
        current_activation = value_batch if activation_batch is None else activation_batch
        current_value = value_batch
        layers = zip(
            network.activation.layers[: self.layer_index],
            network.value.layers[: self.layer_index],
        )
        for act_layer, val_layer in layers:
            if shared:
                # Both channels hold the same bytes through identical layers.
                next_activation = act_layer.forward(current_activation)
                if act_layer.kind is LayerKind.ACTIVATION and not (
                    act_layer.forward_matches_decoupled(current_activation)
                ):
                    current_value = act_layer.decoupled_forward(
                        current_activation, current_activation
                    )
                    shared = False
                else:
                    current_value = next_activation
                current_activation = next_activation
            else:
                current_activation, current_value = _decoupled_step(
                    act_layer, val_layer, current_activation, current_value
                )
        return current_activation, current_value
