"""The observability hard constraint: telemetry never touches numerics.

Two pins, both run over the same CEGIS repair workload:

1. **Byte identity.**  The repaired parameters are byte-for-byte identical
   with telemetry enabled and disabled, at ``workers=1`` (inline tasks) and
   ``workers=4`` (the spawn pool's capture/absorb path).  If any
   instrumented call site ever influenced an LP tableau, a partition, or
   iteration order, this matrix breaks.
2. **Merge determinism.**  The counter content of the registry after a
   ``workers=4`` run equals the ``workers=1`` run exactly — the per-task
   capture deltas absorbed in task order reconstruct the serial counts —
   modulo the explicitly worker-count-dependent ``repro_worker_*`` families.
   (Histograms are excluded: their bucket placement depends on wall-clock.)

The byte-identity matrix is also run with the frozen-prefix cache switched
off (:func:`tests.conftest.prefix_cache_off`): cached and uncached layer
loops must produce the same repair bytes at every worker count.  The
serial exact verifier — whose ragged-batch SyReNN call emits its own span
and region counter — is pinned the same way, report by report.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

import repro.obs as obs
from repro.driver import DriverConfig, RepairDriver
from repro.engine import ShardedSyrennEngine
from repro.nn.activations import ReLULayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.obs import Trace, use_trace
from repro.polytope.hpolytope import HPolytope
from repro.utils.rng import ensure_rng
from repro.verify import SyrennVerifier, VerificationSpec
from tests.conftest import prefix_cache_off


def build_workload() -> tuple[Network, VerificationSpec]:
    """A small plane-spec repair that needs a couple of CEGIS rounds."""
    rng = ensure_rng(5)
    width = 6
    network = Network(
        [
            FullyConnectedLayer.from_shape(2, width, rng),
            ReLULayer(width),
            FullyConnectedLayer.from_shape(width, width, rng),
            ReLULayer(width),
            FullyConnectedLayer.from_shape(width, 3, rng),
        ]
    )
    preds = network.predict(rng.uniform(-1.0, 1.0, size=(400, 2)))
    winner = int(np.bincount(preds, minlength=3).argmax())
    spec = VerificationSpec()
    constraint = HPolytope.argmax_region(3, winner, 1e-3)
    # Four quadrant planes, so engine batches hold several tasks and a
    # workers=4 run genuinely exercises the pooled capture/absorb path.
    for x0, y0 in ((-1, -1), (0, -1), (-1, 0), (0, 0)):
        spec.add_plane(
            [[x0, y0], [x0 + 1, y0], [x0 + 1, y0 + 1], [x0, y0 + 1]], constraint
        )
    return network, spec


def run_repair(workers: int, with_obs: bool, prefix_cache: bool = True) -> tuple[list[bytes], dict]:
    """One full driver run; returns (repaired parameter bytes, obs snapshot).

    ``prefix_cache=False`` evaluates every batch through the full layer loop.
    """
    network, spec = build_workload()
    cache_context = nullcontext() if prefix_cache else prefix_cache_off()
    with cache_context, obs.isolated(start_enabled=with_obs):
        trace = Trace("differential") if with_obs else None
        context = use_trace(trace) if trace is not None else nullcontext()
        with context:
            with ShardedSyrennEngine(workers=workers, cache=False) as engine:
                driver = RepairDriver(
                    network,
                    spec,
                    SyrennVerifier(engine=engine),
                    config=DriverConfig(max_rounds=6),
                    engine=engine,
                )
                outcome = driver.run()
        snapshot = obs.snapshot()
    assert outcome.status == "certified"
    parameters = [
        outcome.network.value.layers[index].get_parameters().tobytes()
        for index in outcome.network.repairable_layer_indices()
    ]
    return parameters, snapshot


def comparable_counters(snapshot: dict) -> dict:
    """The worker-count-independent registry content.

    Counter families only — histogram bucket placement is wall-clock — and
    never the ``repro_worker_*`` namespace, which is worker-count-dependent
    by contract (e.g. each worker process decodes the network payload once).
    """
    return {
        name: entry
        for name, entry in snapshot.items()
        if entry["kind"] == "counter" and not name.startswith("repro_worker_")
    }


class TestTelemetryNeverTouchesNumerics:
    def test_byte_identity_matrix(self):
        """obs {on,off} × workers {1,4}: one set of repaired bytes."""
        reference, _ = run_repair(workers=1, with_obs=False)
        assert reference  # the workload actually repaired something
        for workers in (1, 4):
            for with_obs in (False, True):
                if workers == 1 and not with_obs:
                    continue
                parameters, snapshot = run_repair(workers, with_obs)
                assert parameters == reference, (
                    f"repair bytes diverged at workers={workers} obs={with_obs}"
                )
                if with_obs:
                    assert "repro_driver_rounds_total" in snapshot
                else:
                    assert snapshot == {}

    def test_byte_identity_without_prefix_cache(self):
        """cache {on,off} × obs {on,off} × workers {1,4}: one set of bytes."""
        reference, _ = run_repair(workers=1, with_obs=False)
        for workers in (1, 4):
            for with_obs in (False, True):
                parameters, _ = run_repair(workers, with_obs, prefix_cache=False)
                assert parameters == reference, (
                    f"uncached repair bytes diverged at workers={workers} obs={with_obs}"
                )

    def test_worker_merge_reconstructs_serial_counters(self):
        """workers=4 counters ≡ workers=1 counters, modulo repro_worker_*."""
        _, serial = run_repair(workers=1, with_obs=True)
        _, pooled = run_repair(workers=4, with_obs=True)
        assert comparable_counters(pooled) == comparable_counters(serial)
        # The pooled run really did go through the capture/absorb path.
        assert any(name.startswith("repro_worker_") for name in pooled)
        assert "repro_engine_batches_total" in pooled


def verify_twice(with_obs: bool) -> tuple[list, dict, Trace | None]:
    """A serial first pass and a value-only pass of the exact verifier."""
    network, spec = build_workload()
    with obs.isolated(start_enabled=with_obs):
        trace = Trace("verify") if with_obs else None
        with use_trace(trace) if trace is not None else nullcontext():
            verifier = SyrennVerifier(value_only=True)
            reports = [verifier.verify(network, spec), verifier.verify(network, spec)]
        snapshot = obs.snapshot()
    return reports, snapshot, trace


def report_bytes(report) -> tuple:
    return (
        report.region_statuses,
        report.region_margins,
        report.points_checked,
        report.linear_regions_checked,
        report.value_only,
        [
            (
                example.point.tobytes(),
                example.margin,
                example.region_index,
                example.resolved_activation_point().tobytes(),
            )
            for example in report.counterexamples
        ],
    )


class TestVerifierTelemetry:
    def test_verifier_reports_identical_with_obs_on_and_off(self):
        quiet, quiet_snapshot, _ = verify_twice(with_obs=False)
        traced, snapshot, trace = verify_twice(with_obs=True)
        assert [report.value_only for report in quiet] == [False, True]
        assert [report_bytes(r) for r in traced] == [report_bytes(r) for r in quiet]
        assert quiet_snapshot == {}
        # Only the first pass decomposes: one span, four planes, one counter.
        spans = [child for child in trace.root.children if child.name == "syrenn.transform_planes"]
        assert len(spans) == 1
        assert spans[0].attributes["polygons"] == 4
        regions = snapshot["repro_syrenn_regions_total"]["series"][0]["value"]
        assert regions == spans[0].attributes["regions"] == quiet[0].linear_regions_checked
