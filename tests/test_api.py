"""Tests for the one-import facade (repro.api).

:func:`repro.api.repair` takes its algorithm knobs only as a
:class:`DriverConfig` or that config's ``to_dict()`` form; both must run the
driver exactly as a direct :class:`RepairDriver` construction does.
"""

from __future__ import annotations

import json

import pytest

import repro.api as api
from repro.driver import DriverConfig, RepairDriver
from repro.exceptions import RepairError
from repro.verify import SyrennVerifier
from tests.test_driver_config import build_scenario, comparable, parameter_bytes

CONFIG = DriverConfig(max_rounds=8, norm="l1")


@pytest.fixture
def scenario(rng):
    return build_scenario(rng)


@pytest.fixture
def direct(scenario):
    network, spec = scenario
    return RepairDriver(network, spec, SyrennVerifier(), config=CONFIG).run()


class TestRepair:
    @pytest.mark.parametrize("wire", [False, True], ids=["config", "dict"])
    def test_config_forms_match_direct_driver(self, scenario, direct, wire):
        network, spec = scenario
        config = json.loads(json.dumps(CONFIG.to_dict())) if wire else CONFIG
        report = api.repair(network, spec, config=config)
        assert report.status == "certified"
        assert comparable(report) == comparable(direct)
        assert parameter_bytes(report.network) == parameter_bytes(direct.network)

    def test_dict_with_removed_knob_rejected(self, scenario):
        network, spec = scenario
        with pytest.raises(RepairError, match="'backend'.*removed"):
            api.repair(network, spec, config={**CONFIG.to_dict(), "backend": "simplex"})

    def test_loose_keyword_rejected(self, scenario):
        network, spec = scenario
        with pytest.raises(TypeError):
            api.repair(network, spec, max_rounds=8)

    def test_verify_matches_verifier(self, scenario):
        network, spec = scenario
        report = api.verify(network, spec)
        reference = SyrennVerifier().verify(network, spec)
        assert report.region_statuses == reference.region_statuses
