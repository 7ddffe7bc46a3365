"""Tests for the declarative driver configuration (repro.driver.config).

The load-bearing property is the differential one: a driver built from a
``DriverConfig`` that travelled through JSON must run *byte-identically* to
one built from the historical loose keywords — same statuses, same rounds,
same repaired parameters — because that is what lets the job daemon promise
that a submitted job equals an in-process run.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from repro.driver import DriverConfig, RepairDriver
from repro.exceptions import RepairError
from repro.nn.activations import ReLULayer
from repro.nn.linear import FullyConnectedLayer
from repro.nn.network import Network
from repro.polytope.hpolytope import HPolytope
from repro.verify import SyrennVerifier, VerificationSpec


@pytest.fixture
def scenario(rng):
    return build_scenario(rng)


def build_scenario(rng):
    """A seeded plane/box scenario the driver certifies in a few rounds."""
    network = Network(
        [
            FullyConnectedLayer.from_shape(2, 8, rng),
            ReLULayer(8),
            FullyConnectedLayer.from_shape(8, 6, rng),
            ReLULayer(6),
            FullyConnectedLayer.from_shape(6, 3, rng),
        ]
    )
    preds = network.predict(rng.uniform(-1.0, 1.0, size=(400, 2)))
    winner = int(np.bincount(preds, minlength=3).argmax())
    spec = VerificationSpec()
    spec.add_plane(
        [[-1, -1], [1, -1], [1, 1], [-1, 1]],
        HPolytope.argmax_region(3, winner, 1e-4),
    )
    spec.add_box([-0.5, -1.0], [0.5, 1.0], HPolytope.argmax_region(3, winner, 1e-4))
    return network, spec


TIMING_KEYS = {"seconds", "repair_seconds", "timing"}


def comparable(report) -> dict:
    """A report's run-defining content: everything except wall-clock times."""
    summary = {k: v for k, v in report.as_dict().items() if k not in TIMING_KEYS}
    summary["final_report"].pop("seconds", None)
    summary["rounds"] = [
        {k: v for k, v in record.items() if k not in TIMING_KEYS}
        for record in summary["rounds"]
    ]
    return summary


def parameter_bytes(network) -> list[bytes]:
    return [
        layer.get_parameters().tobytes()
        for layer in network.value.layers
        if layer.num_parameters
    ]


class TestDriverConfig:
    def test_json_round_trip_is_lossless(self):
        config = DriverConfig(
            mode="polytope",
            layer_schedule=[4, 2],
            max_rounds=7,
            max_new_counterexamples=3,
            norm="l1",
            delta_bound=0.5,
        )
        restored = DriverConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config
        assert restored.layer_schedule == (4, 2)  # lists normalize to tuples

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(RepairError, match="unknown driver config keys"):
            DriverConfig.from_dict({"max_round": 5})

    def test_validation_matches_driver(self):
        with pytest.raises(RepairError):
            DriverConfig(max_rounds=0)
        with pytest.raises(RepairError):
            DriverConfig(mode="lines")
        with pytest.raises(RepairError):
            DriverConfig(layer_schedule=[])
        with pytest.raises(RepairError):
            DriverConfig(max_new_counterexamples=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("norm", "l7"),
            ("repair_margin", -1e-6),
            ("repair_margin", float("nan")),
            ("repair_margin", float("inf")),
            ("delta_bound", -1.0),
            ("delta_bound", 0.0),
            ("delta_bound", float("nan")),
            ("delta_bound", float("inf")),
            ("budget_seconds", -1.0),
            ("budget_seconds", float("nan")),
            ("budget_seconds", float("inf")),
        ],
    )
    def test_values_that_fail_or_are_ignored_later_are_rejected(self, field, value):
        """Each of these used to decode, then fail (or be ignored) rounds later."""
        with pytest.raises(RepairError, match=f"{field} must be"):
            DriverConfig(**{field: value})
        with pytest.raises(RepairError, match=f"{field} must be"):
            DriverConfig.from_dict({field: value})

    def test_zero_margin_and_budget_stay_valid(self):
        config = DriverConfig(repair_margin=0.0, budget_seconds=0.0, delta_bound=1.0)
        assert (config.repair_margin, config.budget_seconds) == (0.0, 0.0)

    def test_removed_knobs_fail_loudly(self):
        """The knobs that chose repair paths or solvers are errors, not no-ops."""
        with pytest.raises(RepairError, match="'incremental'.*removed"):
            DriverConfig(incremental=True)
        with pytest.raises(RepairError, match="'batched'.*removed"):
            DriverConfig.from_dict({"batched": False})
        with pytest.raises(RepairError, match="'sparse'.*removed"):
            DriverConfig().replace(sparse=True)
        with pytest.raises(RepairError, match="'warm_start'.*removed"):
            DriverConfig(warm_start=True)
        with pytest.raises(RepairError, match="'backend'.*removed"):
            DriverConfig(backend="scipy")
        removed = {"incremental", "batched", "sparse", "warm_start", "backend"}
        assert not removed & set(DriverConfig().to_dict())
        assert len(fields(DriverConfig)) == 9

    def test_saved_config_with_removed_knobs_decodes(self):
        """A ``to_dict`` payload written while the knobs existed still decodes.

        Those payloads carried ``incremental``/``batched``/``sparse`` and
        ``warm_start``/``backend``; values the single path and the single
        solver reproduce are dropped, any other is an error.
        """
        config = DriverConfig(mode="polytope", max_rounds=3)
        for incremental, warm_start in ((False, True), (True, False)):
            saved = {
                **config.to_dict(),
                "incremental": incremental,
                "batched": True,
                "sparse": None,
                "warm_start": warm_start,
                "backend": None,
            }
            assert DriverConfig.from_dict(json.loads(json.dumps(saved))) == config
        for knob in ("backend", "lp_backend"):
            for name in ("scipy", "highs"):
                wire = json.loads(json.dumps({knob: name}))
                assert DriverConfig.from_dict(wire) == DriverConfig()
        for knob, value in (
            ("batched", False),
            ("sparse", True),
            ("sparse", False),
            ("backend", "simplex"),
            ("backend", "race:scipy,simplex"),
            ("lp_backend", "highs_native"),
            ("warm_start", 1),
        ):
            with pytest.raises(RepairError, match=f"'{knob}'.*removed"):
                DriverConfig.from_dict({**config.to_dict(), knob: value})

    def test_replace_revalidates(self):
        config = DriverConfig(max_rounds=5)
        assert config.replace(max_rounds=6).max_rounds == 6
        with pytest.raises(RepairError):
            config.replace(max_rounds=0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            DriverConfig().max_rounds = 3


class TestDriverConstruction:
    def test_config_and_keywords_cannot_mix(self, scenario):
        network, spec = scenario
        with pytest.raises(TypeError):
            RepairDriver(
                network, spec, SyrennVerifier(), config=DriverConfig(), max_rounds=3
            )

    def test_legacy_keywords_rejected(self, scenario):
        """The historical keyword call sites fail; their config form builds."""
        network, spec = scenario
        with pytest.raises(TypeError):
            RepairDriver(network, spec, SyrennVerifier(), max_rounds=6, norm="l1")
        driver = RepairDriver(
            network, spec, SyrennVerifier(), config=DriverConfig(max_rounds=6, norm="l1")
        )
        assert driver.config == DriverConfig(max_rounds=6, norm="l1")
        assert driver.max_rounds == 6 and driver.norm == "l1"

    def test_unknown_keyword_rejected(self, scenario):
        network, spec = scenario
        with pytest.raises(TypeError):
            RepairDriver(network, spec, SyrennVerifier(), max_round=3)


class TestConfigDifferential:
    def test_json_config_run_matches_keyword_run(self, scenario):
        """In-process config run vs JSON-round-tripped config run: byte-identical."""
        network, spec = scenario
        config = DriverConfig(max_rounds=8, norm="l1")
        keyword_report = RepairDriver(network, spec, SyrennVerifier(), config=config).run()

        wire = json.loads(json.dumps(config.to_dict()))
        config_report = RepairDriver(
            network, spec, SyrennVerifier(), config=DriverConfig.from_dict(wire)
        ).run()

        assert keyword_report.status == "certified"
        assert comparable(keyword_report) == comparable(config_report)
        assert parameter_bytes(keyword_report.network) == parameter_bytes(
            config_report.network
        )

    def test_spec_wire_round_trip_runs_byte_identically(self, scenario):
        """The spec's JSON form drives the same run as the original spec."""
        network, spec = scenario
        wire_spec = VerificationSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        original = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
        ).run()
        travelled = RepairDriver(
            network,
            wire_spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
        ).run()
        assert comparable(original) == comparable(travelled)
        assert parameter_bytes(original.network) == parameter_bytes(travelled.network)


class TestOnRoundCallback:
    def test_callback_streams_every_round(self, scenario):
        network, spec = scenario
        streamed = []
        report = RepairDriver(
            network,
            spec,
            SyrennVerifier(),
            config=DriverConfig(max_rounds=8),
            on_round=streamed.append,
        ).run()
        assert [r.round_index for r in streamed] == [r.round_index for r in report.rounds]
        # The callback sees finished records: identical to the report's.
        assert [r.as_dict() for r in streamed] == [r.as_dict() for r in report.rounds]

    def test_callback_exceptions_abort_the_run(self, scenario):
        network, spec = scenario

        def explode(record):
            raise RuntimeError("stop here")

        with pytest.raises(RuntimeError, match="stop here"):
            RepairDriver(
                network,
                spec,
                SyrennVerifier(),
                config=DriverConfig(max_rounds=8),
                on_round=explode,
            ).run()
