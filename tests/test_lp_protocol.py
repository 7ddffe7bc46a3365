"""The incremental LP protocol between :class:`LPSession` and HiGHS.

* **Payload contract.**  A recording stand-in for HiGHS's ``_Highs``
  (substituted on the backend module) logs every ``passModel`` model and
  ``addRows`` payload.  Each must equal, byte for byte, arrays built
  independently from :meth:`LPSession.standard_form`, over exactly the
  rows the admission rule picks (recomputed here from each run's
  solution): the cold model holds every admitted row, and each
  ``addRows`` only the rows admitted since, most violated first.
* **Fallbacks.**  A rejected ``passModel`` gives an ERROR solve and the
  next solve loads cold again; a rejected ``addRows`` reloads every
  admitted row cold.
* **No sparse matrices in the resolve loop.**  A ``solve`` builds at most
  one scipy compressed matrix (the admission view), a cold load none, and
  a dense block is converted to CSR without scipy, to the bytes
  ``sp.csr_matrix`` gives.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse._compressed as compressed
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize._highspy import _core

import repro.lp.backends.scipy_backend as scipy_backend
import repro.lp.model as lp_model
from repro.core.jacobian import DenseRows
from repro.exceptions import LPError
from repro.lp.backends import ScipyBackend
from repro.lp.model import LPSession
from repro.lp.norms import add_norm_objective
from repro.lp.status import LPStatus
from tests.oracle import solve_cold

INF = _core.kHighsInf


class RecordingHighs:
    """A real HiGHS model that logs what it is handed and how each run ends.

    ``reject`` names calls (``"passModel"``/``"addRows"``) to answer with
    ``kError`` once each, without passing them on.
    """

    log: list = []
    reject: set = set()

    def __init__(self) -> None:
        self._highs = _core._Highs()

    def __getattr__(self, name):
        return getattr(self._highs, name)

    def passModel(self, lp):
        matrix = lp.a_matrix_
        self.log.append(("passModel", {
            "num_rows": lp.num_row_,
            "cost": np.asarray(lp.col_cost_, dtype=np.float64),
            "col_lower": np.asarray(lp.col_lower_, dtype=np.float64),
            "col_upper": np.asarray(lp.col_upper_, dtype=np.float64),
            "row_lower": np.asarray(lp.row_lower_, dtype=np.float64),
            "row_upper": np.asarray(lp.row_upper_, dtype=np.float64),
            "start": np.asarray(matrix.start_, dtype=np.int32),
            "index": np.asarray(matrix.index_, dtype=np.int32),
            "value": np.asarray(matrix.value_, dtype=np.float64),
        }))
        if "passModel" in self.reject:
            self.reject.discard("passModel")
            return _core.HighsStatus.kError
        return self._highs.passModel(lp)

    def addRows(self, num_rows, lower, upper, num_nz, starts, indices, values):
        self.log.append(("addRows", {
            "num_rows": num_rows,
            "row_lower": np.array(lower),
            "row_upper": np.array(upper),
            "num_nz": num_nz,
            "start": np.array(starts),
            "index": np.array(indices),
            "value": np.array(values),
        }))
        if "addRows" in self.reject:
            self.reject.discard("addRows")
            return _core.HighsStatus.kError
        return self._highs.addRows(num_rows, lower, upper, num_nz, starts, indices, values)

    def run(self):
        status = self._highs.run()
        model_status = self._highs.getModelStatus()
        values = None
        if model_status == _core.HighsModelStatus.kOptimal:
            values = np.array(self._highs.getSolution().col_value, dtype=np.float64)
        self.log.append(("run", {"status": model_status, "values": values}))
        return status


@pytest.fixture
def recording(monkeypatch):
    """Record every HiGHS call of the sessions built inside the test."""
    monkeypatch.setattr(RecordingHighs, "log", [])
    monkeypatch.setattr(RecordingHighs, "reject", set())
    monkeypatch.setattr(scipy_backend, "_Highs", RecordingHighs)
    return RecordingHighs


def small_limits(monkeypatch, seed: int = 2, resolve: int = 2) -> None:
    """Tiny admission limits, so one solve takes several resolves."""
    monkeypatch.setattr(lp_model, "SEED_ROWS", seed)
    monkeypatch.setattr(lp_model, "ROWS_PER_RESOLVE", resolve)


#: A point every random row holds at, so each session stays feasible.
FEASIBLE = np.array([1.5, -1.0, 0.5, 2.0])


def repair_session(rng, rows: int = 30) -> LPSession:
    """A repair-shaped LP: ℓ∞ norm rows, then random rows about half of which the origin violates."""
    session = LPSession()
    delta = session.add_variables(FEASIBLE.size, lower=-10.0, upper=10.0)
    add_norm_objective(session, delta, "linf")
    session.append_rows([random_rows(rng, rows)])
    return session


def random_rows(rng, rows: int):
    """``rows`` random rows, some entries zero, that hold with room at :data:`FEASIBLE`."""
    matrix = rng.normal(size=(rows, FEASIBLE.size))
    matrix[rng.random(matrix.shape) < 0.25] = 0.0
    return matrix, matrix @ FEASIBLE + rng.uniform(0.05, 0.5, size=rows)


def highs_bounds(values) -> np.ndarray:
    values = np.array(values, dtype=np.float64)
    values[np.isinf(values)] = np.sign(values[np.isinf(values)]) * INF
    return values


def expected_admissions(a_ub, b_ub, in_solver: list, values, limit: int) -> list:
    """The pending rows admission picks at ``values`` (``None``: every pending row).

    Written independently of the session: violations above the tolerance,
    most violated first, ties by row index.
    """
    pending = sorted(set(range(b_ub.size)) - set(in_solver))
    if values is None:
        return pending
    violation = a_ub @ values - b_ub
    violated = [row for row in pending if violation[row] > lp_model.VIOLATION_TOLERANCE]
    return sorted(violated, key=lambda row: (-violation[row], row))[:limit]


def assert_payload(event: dict, kind: str, session: LPSession, rows: list) -> None:
    """``event`` carries exactly ``rows`` of the session's standard form."""
    c, a_ub, b_ub, _, _, bounds = session.standard_form()
    block = a_ub[np.asarray(rows, dtype=int)]
    assert event["num_rows"] == len(rows)
    assert event["row_lower"].tobytes() == np.full(len(rows), -INF).tobytes()
    assert event["row_upper"].tobytes() == b_ub[rows].tobytes()
    if kind == "passModel":
        csc = block.tocsc()
        assert event["cost"].tobytes() == c.tobytes()
        assert event["col_lower"].tobytes() == highs_bounds(bounds[:, 0]).tobytes()
        assert event["col_upper"].tobytes() == highs_bounds(bounds[:, 1]).tobytes()
        assert event["start"].tobytes() == csc.indptr.astype(np.int32).tobytes()
        assert event["index"].tobytes() == csc.indices.astype(np.int32).tobytes()
        assert event["value"].tobytes() == csc.data.tobytes()
    else:
        assert event["num_nz"] == block.nnz
        assert event["start"].tobytes() == block.indptr[:-1].astype(np.int32).tobytes()
        assert event["index"].tobytes() == block.indices.astype(np.int32).tobytes()
        assert event["value"].tobytes() == block.data.tobytes()


def replay_solve(session: LPSession, log: list, in_solver: list, held: int, values) -> tuple:
    """Check one ``session.solve()``'s HiGHS log against the admission rule.

    ``in_solver`` is the rows admitted before the call, of which HiGHS
    held the first ``held`` (``None``: no model), and ``values`` the last
    solution.  Returns ``(in_solver, held, values)`` after the call.
    """
    _, a_ub, b_ub, *_ = session.standard_form()
    if values is None:
        lower, upper = session.standard_form()[5].T
        start, limit = np.clip(0.0, lower, upper), lp_model.SEED_ROWS
    else:
        start, limit = values, lp_model.ROWS_PER_RESOLVE
    in_solver = in_solver + expected_admissions(a_ub, b_ub, in_solver, start, limit)
    for kind, event in log:
        if kind == "passModel":
            assert_payload(event, kind, session, in_solver)
            held = len(in_solver)
        elif kind == "addRows":
            assert held is not None, "rows added to a model HiGHS does not hold"
            assert_payload(event, kind, session, in_solver[held:])
            held = len(in_solver)
        else:
            assert held == len(in_solver), "a run before every admitted row was sent"
            status = event["status"]
            if status == _core.HighsModelStatus.kUnbounded and len(in_solver) < b_ub.size:
                in_solver += expected_admissions(a_ub, b_ub, in_solver, None, b_ub.size)
                continue
            if status != _core.HighsModelStatus.kOptimal:
                values = None
                continue
            values = event["values"]
            in_solver += expected_admissions(
                a_ub, b_ub, in_solver, values, lp_model.ROWS_PER_RESOLVE
            )
    assert in_solver == session._in_solver.tolist()
    return in_solver, held, values


class TestHighsPayloads:
    def test_seeded_session_sends_each_admitted_row_once_in_admission_order(
        self, rng, recording, monkeypatch
    ):
        small_limits(monkeypatch)
        session = repair_session(rng)
        # The ℓ∞ norm rows, held from the start.
        in_solver, held, values = list(range(2 * FEASIBLE.size)), None, None
        runs = []
        for appended in range(3):
            recording.log.clear()
            solution = session.solve()
            assert solution.status is LPStatus.OPTIMAL
            runs.append(sum(kind == "run" for kind, _ in recording.log))
            in_solver, held, values = replay_solve(
                session, recording.log, in_solver, held, values
            )
            kinds = [kind for kind, _ in recording.log if kind != "run"]
            assert kinds.count("passModel") == (1 if appended == 0 else 0)
            assert solution.objective == pytest.approx(
                solve_cold(session.standard_form()).objective, rel=1e-9
            )
            session.append_rows([random_rows(rng, 20)])
        # Tiny limits: several warm resolves inside one solve and across solves.
        assert runs[0] >= 3 and sum(runs) >= 6, runs

    def test_unbounded_relaxation_admits_every_pending_row(self, recording):
        # min x0 over free variables: the norm-free relaxation is unbounded
        # until the pending rows, none violated at the origin, go in.
        session = LPSession()
        session.add_variables(1, cost=1.0)
        session.add_variables(2)
        matrix = np.array([[-1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 1.0, 1.0]])
        session.append_rows([(matrix, [5.0, 6.0, 7.0, 1.0])])
        solution = session.solve()
        assert solution.status is LPStatus.OPTIMAL
        assert [kind for kind, _ in recording.log] == ["passModel", "run", "addRows", "run"]
        replay_solve(session, recording.log, [], None, None)
        assert session._in_solver.tolist() == [0, 1, 2, 3]


class TestFallbacks:
    def test_rejected_model_is_an_error_and_the_next_solve_loads_cold(
        self, rng, recording, monkeypatch
    ):
        small_limits(monkeypatch)
        session = repair_session(rng)
        recording.reject.add("passModel")
        failed = session.solve()
        assert failed.status is LPStatus.ERROR
        assert [kind for kind, _ in recording.log] == ["passModel", "run"]
        recording.log.clear()
        solution = session.solve()
        assert solution.status is LPStatus.OPTIMAL and not solution.warm_start_used
        assert recording.log[0][0] == "passModel"
        assert solution.objective == pytest.approx(
            solve_cold(session.standard_form()).objective, rel=1e-9
        )

    def test_rejected_rows_reload_every_admitted_row_cold(self, rng, recording, monkeypatch):
        small_limits(monkeypatch)
        session = repair_session(rng)
        session.solve()
        state = replay_solve(session, recording.log, list(range(2 * FEASIBLE.size)), None, None)
        session.append_rows([random_rows(rng, 20)])
        recording.log.clear()
        recording.reject.add("addRows")
        solution = session.solve()
        # The rejected rows go in again with every row admitted before them.
        assert [kind for kind, _ in recording.log][:3] == ["addRows", "passModel", "run"]
        replay_solve(session, recording.log, *state)
        assert solution.status is LPStatus.OPTIMAL and not solution.warm_start_used
        assert solution.objective == pytest.approx(
            solve_cold(session.standard_form()).objective, rel=1e-9
        )


class TestNoSparseMatricesInTheResolveLoop:
    @staticmethod
    def count_constructions(monkeypatch) -> dict:
        counts = {"matrices": 0, "loads": 0, "solves": 0}
        original_init = compressed._cs_matrix.__init__
        original_load = ScipyBackend.load
        original_solve = ScipyBackend.solve

        def init(self, *args, **kwargs):
            counts["matrices"] += 1
            original_init(self, *args, **kwargs)

        def load(self, *args):
            counts["loads"] += 1
            return original_load(self, *args)

        def solve(self):
            counts["solves"] += 1
            return original_solve(self)

        monkeypatch.setattr(compressed._cs_matrix, "__init__", init)
        monkeypatch.setattr(ScipyBackend, "load", load)
        monkeypatch.setattr(ScipyBackend, "solve", solve)
        return counts

    def test_one_view_per_solve_and_none_per_resolve(self, rng, monkeypatch):
        small_limits(monkeypatch)
        session = repair_session(rng)
        counts = self.count_constructions(monkeypatch)
        calls = 3
        for _ in range(calls):
            session.append_rows([random_rows(rng, 12)])
            assert session.solve().status is LPStatus.OPTIMAL
        assert counts["solves"] >= calls + 3, "the limits should force several resolves"
        assert counts["loads"] == 1
        assert counts["matrices"] <= calls + counts["loads"]

    def test_dense_blocks_are_ingested_without_sparse_matrices(self, rng, monkeypatch):
        session = LPSession()
        session.add_variables(4)
        counts = self.count_constructions(monkeypatch)
        session.append_rows([random_rows(rng, 5), random_rows(rng, 3)])
        session.add_rows(np.eye(4), np.ones(4))
        assert counts["matrices"] == 0


#: Entries that stress the conversion: signed zeros, tiny and huge values.
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestDenseBlockConversion:
    @settings(max_examples=60, deadline=None)
    @given(
        dense=st.integers(0, 6).flatmap(
            lambda rows: st.integers(0, 5).flatmap(
                lambda cols: arrays(np.float64, (rows, cols), elements=ENTRIES)
            )
        ),
        zero_row=st.booleans(),
    )
    def test_dense_block_is_scipys_csr(self, dense, zero_row):
        if zero_row and dense.shape[0]:
            dense[0] = 0.0
        session = LPSession()
        session.add_variables(dense.shape[1])
        indptr, indices, data, rhs = session._block(dense, np.zeros(dense.shape[0]))
        expected = sp.csr_matrix(dense)
        assert (indptr.dtype, indices.dtype, data.dtype) == (np.int64, np.int32, np.float64)
        assert indptr.tobytes() == expected.indptr.astype(np.int64).tobytes()
        assert indices.tobytes() == expected.indices.astype(np.int32).tobytes()
        assert data.tobytes() == expected.data.tobytes()
        assert dense.view(DenseRows).nnz == expected.nnz

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise(self, value):
        session = LPSession()
        session.add_variables(3)
        dense = np.zeros((2, 3))
        dense[1, 2] = value
        with pytest.raises(LPError):
            session.append_rows([(dense, np.zeros(2))])
        with pytest.raises(LPError):
            session.append_rows([(np.ones((1, 3)), [value])])
        assert session.num_rows == 0
