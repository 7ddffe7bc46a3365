"""The observability hard constraint: telemetry never touches numerics.

**Byte identity.**  Over one CEGIS repair workload, the repaired parameters
are byte-for-byte identical with telemetry enabled and disabled.  If any
instrumented call site ever influenced an LP tableau, a partition, or
iteration order, this matrix breaks.

The byte-identity matrix is also run with the frozen-prefix cache switched
off (:func:`tests.conftest.prefix_cache_off`): cached and uncached layer
loops must produce the same repair bytes.  The exact verifier — whose
ragged-batch SyReNN call emits its own span and region counter — is pinned
the same way, report by report.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

import repro.obs as obs
from repro.driver import DriverConfig, RepairDriver
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
    # Four quadrant planes: one batched decomposition over several polygons.
    for x0, y0 in ((-1, -1), (0, -1), (-1, 0), (0, 0)):
        spec.add_plane(
            [[x0, y0], [x0 + 1, y0], [x0 + 1, y0 + 1], [x0, y0 + 1]], constraint
        )
    return network, spec


def run_repair(with_obs: bool, prefix_cache: bool = True) -> tuple[list[bytes], dict]:
    """One full driver run; returns (repaired parameter bytes, obs snapshot).

    ``prefix_cache=False`` evaluates every batch through the full layer loop.
    """
    network, spec = build_workload()
    cache_context = nullcontext() if prefix_cache else prefix_cache_off()
    with cache_context, obs.isolated(start_enabled=with_obs):
        trace = Trace("differential") if with_obs else None
        context = use_trace(trace) if trace is not None else nullcontext()
        with context:
            outcome = RepairDriver(
                network, spec, SyrennVerifier(), config=DriverConfig(max_rounds=6)
            ).run()
        snapshot = obs.snapshot()
    assert outcome.status == "certified"
    parameters = [
        outcome.network.value.layers[index].get_parameters().tobytes()
        for index in outcome.network.repairable_layer_indices()
    ]
    return parameters, snapshot


class TestTelemetryNeverTouchesNumerics:
    def test_byte_identity_matrix(self):
        """obs {on,off}: one set of repaired bytes."""
        reference, quiet = run_repair(with_obs=False)
        assert reference  # the workload actually repaired something
        assert quiet == {}
        parameters, snapshot = run_repair(with_obs=True)
        assert parameters == reference, "repair bytes diverged with obs on"
        assert "repro_driver_rounds_total" in snapshot

    def test_byte_identity_without_prefix_cache(self):
        """cache {on,off} × obs {on,off}: one set of bytes."""
        reference, _ = run_repair(with_obs=False)
        for with_obs in (False, True):
            parameters, _ = run_repair(with_obs, prefix_cache=False)
            assert parameters == reference, (
                f"uncached repair bytes diverged at obs={with_obs}"
            )


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
