"""Worker-side task execution for the parallel engine.

Everything in this module is a module-level function operating on plain
arrays and byte payloads, so tasks pickle cleanly across a ``spawn``-started
worker pool (spawned workers import this module fresh and share no state
with the parent).  Networks arrive as
:func:`repro.utils.serialization.encode_network` payloads tagged with their
parameter fingerprint; each worker decodes a given payload once and keeps it
in a per-process cache, so a batch of tasks over the same network pays the
decode cost once per worker, not once per task.

Task tuples understood by :func:`run_task`:

* ``("line", fingerprint, payload, start, end)`` → breakpoint ratios of
  ``transform_line`` over the segment;
* ``("plane", fingerprint, payload, vertices)`` → per-region
  ``(input_vertices, plane_vertices)`` pairs of ``transform_plane``;
* ``("evaluate", fingerprint, payload, points, activation_point)`` →
  batched network outputs, optionally pinned to an activation point (DDNN);
* ``("evaluate_regions", fingerprint, payload, points, activations)`` →
  batched network outputs with a *per-row* pinned activation point — the
  value-only re-verification fast path ships every cached linear-region
  vertex with its region's interior point in one stacked pair of arrays;
* ``("sample", fingerprint, payload, region, seed, num_samples)`` →
  ``(points, outputs)`` with the points drawn worker-side from a generator
  built from the derived per-region ``seed``;
* ``("encode", fingerprint, payload, layer_index, points, constraints,
  activation_points)`` → the dense ``(lhs, rhs)`` repair constraint rows of
  one point batch, encoded worker-side with the shared partition-invariant
  encoder (``constraints`` ships as picklable ``(a, b)`` pairs) — the
  chunk-production shard of the out-of-core repair pipeline;
* ``("obs", inner_task)`` → telemetry wrapper: runs ``inner_task`` under
  :func:`repro.obs.capture` and returns ``(result, telemetry)``, where
  ``telemetry`` is the task's metrics snapshot + span export for the parent
  to :func:`repro.obs.absorb` in task order.  The engine only wraps tasks
  when telemetry is enabled, so the disabled path ships the exact same
  tuples (and bytes) it always has.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.engine.cache import BoundedLru
from repro.exceptions import EngineError
from repro.polytope.segment import LineSegment
from repro.utils.serialization import decode_network
from repro.utils.timing import wall_cpu_now
from repro.verify.base import Box, Verifier
from repro.verify.sampling import random_region_points

#: Per-process cache of decoded networks, keyed by parameter fingerprint.
#: Bounded like the parent's payload cache: a CEGIS driver ships one fresh
#: value channel per round, which must not accumulate in worker memory.
_NETWORKS = BoundedLru(16)


def _resolve_network(fingerprint: str, payload: bytes):
    network = _NETWORKS.get(fingerprint)
    if network is None:
        network = decode_network(payload)
        _NETWORKS.put(fingerprint, network)
        if obs.enabled():
            # ``repro_worker_`` prefix: per-process cache behavior depends on
            # the worker count, so determinism tests exclude this namespace.
            obs.counter(
                "repro_worker_network_decodes_total",
                "Network payload decodes into the per-process worker cache.",
            ).inc()
    return network


def encode_region(region) -> tuple:
    """Encode a spec region as a picklable tagged tuple."""
    if isinstance(region, LineSegment):
        return ("segment", region.start, region.end)
    if isinstance(region, Box):
        return ("box", region.lower, region.upper)
    return ("polygon", np.asarray(region, dtype=np.float64))


def decode_region(encoded: tuple):
    """Invert :func:`encode_region`."""
    kind = encoded[0]
    if kind == "segment":
        return LineSegment(encoded[1], encoded[2])
    if kind == "box":
        return Box(encoded[1], encoded[2])
    if kind == "polygon":
        return encoded[1]
    raise EngineError(f"unknown region encoding {kind!r}")


def run_task(task: tuple):
    """Execute one engine task; see the module docstring for the formats."""
    kind = task[0]
    if kind == "obs":
        inner = task[1]
        with obs.capture("engine.worker", task_kind=inner[0]) as captured:
            result = run_task(inner)
        return result, captured.telemetry()
    if obs.enabled():
        return _run_instrumented(task)
    return _run(task)


def _run_instrumented(task: tuple):
    """Run one task with per-task metrics and an ``engine.task`` span."""
    kind = task[0]
    start_wall, _ = wall_cpu_now()
    with obs.span("engine.task", kind=kind):
        result = _run(task)
    end_wall, _ = wall_cpu_now()
    obs.counter(
        "repro_engine_tasks_total",
        "Engine tasks executed, by task kind.",
        labels=("kind",),
    ).inc(kind=kind)
    obs.histogram(
        "repro_engine_task_seconds",
        "Wall-clock seconds per engine task, by task kind.",
        labels=("kind",),
    ).observe(end_wall - start_wall, kind=kind)
    return result


def _run(task: tuple):
    kind = task[0]
    if kind == "line":
        from repro.syrenn.line import transform_line

        _, fingerprint, payload, start, end = task
        network = _resolve_network(fingerprint, payload)
        return transform_line(network, LineSegment(start, end)).ratios
    if kind == "plane":
        from repro.syrenn.plane import transform_plane

        _, fingerprint, payload, vertices = task
        network = _resolve_network(fingerprint, payload)
        partition = transform_plane(network, vertices)
        return [(region.input_vertices, region.plane_vertices) for region in partition.regions]
    if kind == "evaluate":
        _, fingerprint, payload, points, activation_point = task
        network = _resolve_network(fingerprint, payload)
        # The shared helper applies activation_point only to DDNNs, exactly
        # like a serial verifier sweep would.
        return Verifier._evaluate(network, points, activation_point)
    if kind == "evaluate_regions":
        from repro.core.ddnn import DecoupledNetwork

        _, fingerprint, payload, points, activations = task
        network = _resolve_network(fingerprint, payload)
        if isinstance(network, DecoupledNetwork):
            return np.atleast_2d(network.compute(points, activations))
        return np.atleast_2d(network.compute(points))
    if kind == "encode":
        from repro.core.jacobian import _encode_batch
        from repro.core.specs import PointRepairSpec
        from repro.polytope.hpolytope import HPolytope

        _, fingerprint, payload, layer_index, points, constraints, activation_points = task
        network = _resolve_network(fingerprint, payload)
        spec = PointRepairSpec(
            points=points,
            constraints=[HPolytope(a, b) for a, b in constraints],
            activation_points=activation_points,
        )
        return _encode_batch(network, int(layer_index), spec)
    if kind == "sample":
        _, fingerprint, payload, encoded_region, seed, num_samples = task
        network = _resolve_network(fingerprint, payload)
        rng = np.random.default_rng(int(seed))
        points = random_region_points(decode_region(encoded_region), num_samples, rng)
        return points, Verifier._evaluate(network, points)
    raise EngineError(f"unknown engine task kind {kind!r}")
