"""The benchmark's traced run still sees every LP solve.

``perfbench/spans.py`` wraps the LP layer from the outside: the
``LPSession`` ingest and stacking methods, and ``solve`` on each class in
``repro.lp.backends._BACKENDS`` that defines it itself.  A class it cannot
find there is skipped silently (it never lands in the tracer's ``missing``
list), so a refactor of the solver classes could zero ``lp.solve_s``,
``lp.solves`` and ``lp.iterations`` unnoticed.  This test runs a small
repair under the benchmark's own wrappers and checks the LP spans fired,
and pins what those wrappers read of ``LPSession``: ``append_rows``
returns the row count, and ``standard_form`` a six-tuple whose items 1
and 3 (the constraint matrices) are sparse.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.core.point_repair import point_repair
from repro.core.specs import PointRepairSpec
from repro.lp.model import LPSession
from tests.conftest import make_random_relu_network

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_point_repair_records_lp_solves(rng, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    network = make_random_relu_network(rng)
    points = rng.uniform(-1.0, 1.0, size=(6, network.input_size))
    labels = rng.integers(0, network.output_size, size=6)
    spec = PointRepairSpec.from_labels(
        points, labels, num_classes=network.output_size, margin=1e-4
    )

    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        point_repair(network, network.parameterized_layer_indices()[-1], spec)
    finally:
        patches.restore()

    assert tracer.counts["lp.solves"] >= 1
    assert tracer.counts["lp.rows"] > 0
    assert tracer.self_s["lp.solve"] > 0
    assert not [name for name in tracer.missing if name.startswith("LPSession.")]


def test_session_interface_the_wrappers_read():
    session = LPSession()
    session.add_variables(3)
    assert session.append_rows([(np.ones((2, 3)), np.ones(2)), (np.eye(3), np.ones(3))]) == 5
    form = session.standard_form()
    assert len(form) == 6
    assert sp.issparse(form[1]) and sp.issparse(form[3])
    assert form[1].nnz + form[3].nnz == 9
