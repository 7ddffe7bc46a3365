"""The counterexample-guided repair driver (CEGIS loop).

Each round the driver (1) runs a :class:`~repro.verify.base.Verifier` over
the target regions, (2) grows a deduplicating
:class:`~repro.driver.pool.CounterexamplePool` with whatever violations were
found, (3) solves one pointwise repair of the *original* network against
the whole pool, and (4) re-verifies the repaired network.  Repairing
against the full pool from the original network — rather than chaining
incremental repairs — keeps the applied delta minimal-norm with respect to
the buggy network and makes every round's LP a superset of the last, so
progress is monotone.

Counterexamples from the exact verifier carry the interior point of the
linear region they violate; the pool pins each one to that activation
pattern, which makes "repair the pooled vertices" equivalent to "repair the
violated linear regions" (Appendix B of the paper).  With the exact verifier
the loop therefore terminates in a round whose verification report certifies
every region.

``mode="polytope"`` makes that equivalence literal — the driver's
closed-loop analogue of Algorithm 2.  The exact verifier reports each
violating linear region *whole* (a
:class:`~repro.verify.base.RegionCounterexample`: vertex set + interior
point), the pool dedups regions by activation-pattern-aware keys, and every
pooled region expands to one repair point per vertex under the region's
pinned activation pattern.  A certified final round then proves the repaired
network correct on the infinitely many points of every specification
polytope, with all the loop's machinery — batched decomposition,
partition caching, the standing LP session, value-only re-verification,
checkpoint/resume — applying unchanged.

Rounds are bounded by ``max_rounds`` and a wall-clock
:class:`~repro.utils.timing.TimeBudget`; infeasible (or stalled) rounds
escalate to the next layer in the layer schedule; and an optional holdout
set tracks drawdown per round via :mod:`repro.experiments.metrics`.

The superset property is also what makes every round cheap: the LP of
round *k* is round *k-1*'s plus the new counterexamples' rows, so the driver
keeps one :class:`~repro.core.point_repair.IncrementalPointRepairSession`
alive per scheduled layer (append-only rows; each round re-solves the
session's retained HiGHS model warm, admitting only violated rows), and —
because value-channel repair never moves linear-region boundaries — lets
the exact verifier take its value-only fast path, which re-evaluates cached
vertex sets instead of re-decomposing.  The final delta matches a one-shot
:func:`~repro.core.point_repair.point_repair` of the final pool in verdict
and objective (1e-9 relative) with every pooled row satisfied, but not in
bytes: the warm re-solves may stop at another optimum of the same LP.  Runs
stay byte-identical to each other across memory budgets.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None

import repro.obs as obs
from repro.core.ddnn import DecoupledNetwork
from repro.core.jacobian import DEFAULT_CHUNK_BYTES
from repro.core.point_repair import IncrementalPointRepairSession
from repro.core.prefix_cache import PrefixCache
from repro.core.result import RepairResult, RepairTiming
from repro.core.specs import PolytopeRepairSpec
from repro.driver.config import DEFAULT_REPAIR_MARGIN, DriverConfig
from repro.driver.pool import CounterexamplePool
from repro.exceptions import RepairError
from repro.experiments.metrics import drawdown as drawdown_metric
from repro.lp.status import LPStatus
from repro.nn.network import Network
from repro.obs import Span
from repro.utils.timing import TimeBudget
from repro.verify.base import RegionStatus, VerificationReport, VerificationSpec, Verifier

__all__ = [
    "DEFAULT_REPAIR_MARGIN",
    "DriverConfig",
    "DriverReport",
    "DriverTiming",
    "RepairDriver",
    "RoundRecord",
]


@dataclass
class DriverTiming:
    """Wall-clock split of a driver run, a view of its ``driver.run`` span.

    ``verify_seconds`` is the time in ``driver.verify`` spans; ``repair``
    is the :class:`RepairTiming` of the ``driver.repair`` spans (their
    LinRegions/Jacobian/LP/other split, as in the paper's RQ4 analysis,
    with session construction and pool encoding in "other"); and
    ``other_seconds`` is the remainder, driver overhead (prefix-cache
    builds and bindings, pool intake, checkpointing,
    holdout evaluation, the final check of the pool against the returned
    network).  The total is the run span's wall time.
    """

    verify_seconds: float = 0.0
    repair: RepairTiming = field(default_factory=RepairTiming)
    other_seconds: float = 0.0

    @classmethod
    def from_span(cls, run: Span) -> "DriverTiming":
        """The split of a finished ``driver.run`` span."""
        verify = run.seconds_in("driver.verify")
        repair = RepairTiming.from_spans(*run.find("driver.repair"))
        return cls(verify, repair, run.wall_seconds - verify - repair.total_seconds)

    @property
    def total_seconds(self) -> float:
        """Total driver wall-clock time."""
        return self.verify_seconds + self.repair.total_seconds + self.other_seconds

    def as_dict(self) -> dict[str, float]:
        """The split as a flat dictionary (used by benchmark reports)."""
        return {
            "verify": self.verify_seconds,
            **{f"repair_{key}": value for key, value in self.repair.as_dict().items()},
            "other": self.other_seconds,
            "total": self.total_seconds,
        }


@dataclass
class RoundRecord:
    """What happened in one verify→repair round.

    ``seconds`` is the wall time of the round's ``driver.verify`` span and
    ``repair_seconds`` that of its ``driver.repair`` spans (benchmarks
    compare per-round costs from these).  The last five fields describe the
    incremental machinery: how many LP rows this round appended to the
    standing repair LP, how many rows the solver held after the solve (row
    generation admits only the violated ones), whether the LP solve started
    from retained solver state (every solve of a layer's session but its
    first), the solver's iteration count, and whether verification took the
    value-only fast path (cached decomposition, batched re-evaluation).
    """

    round_index: int
    regions_certified: int
    regions_violated: int
    regions_unknown: int
    new_counterexamples: int
    pool_size: int
    #: Repair points the pool expands to (== pool_size in point mode; in
    #: polytope mode every pooled region contributes all of its vertices).
    pool_key_points: int = 0
    repair_attempted: bool = False
    repair_feasible: bool | None = None
    layer_index: int | None = None
    delta_linf: float = 0.0
    drawdown: float = float("nan")
    seconds: float = 0.0
    repair_seconds: float = 0.0
    lp_rows_appended: int = 0
    lp_rows_admitted: int = 0
    warm_start_used: bool = False
    lp_iterations: int | None = None
    verify_value_only: bool = False
    #: Cumulative counters-only metrics snapshot taken as the round was
    #: emitted (``None`` when telemetry is disabled).  Streamed through
    #: ``on_round`` and the daemon's ``GET /jobs/<id>`` progress documents.
    telemetry: dict | None = None

    def as_dict(self) -> dict:
        """The record as a JSON-ready dictionary."""
        return dict(self.__dict__)


@dataclass
class DriverReport:
    """Outcome of a full driver run.

    ``status`` is one of ``"certified"`` (the final verification pass proved
    every region clean), ``"clean"`` (a sampling verifier found no remaining
    violations — no proof), ``"infeasible"`` (the LP proved, for every layer
    in the schedule, that no repair of the pool exists — the paper's ⊥),
    ``"lp_error"`` (no layer admitted a repair, and at least one LP solve
    failed without proving anything, e.g. at an iteration limit),
    ``"stalled"`` (violations remain but the verifier found nothing new on
    any remaining layer), ``"budget_exhausted"``, or
    ``"max_rounds_reached"``.
    """

    status: str
    certified: bool
    network: DecoupledNetwork
    rounds: list[RoundRecord] = field(default_factory=list)
    final_report: VerificationReport | None = None
    pool_size: int = 0
    counterexamples_found: int = 0
    unsatisfied_pool_indices: list[int] = field(default_factory=list)
    timing: DriverTiming = field(default_factory=DriverTiming)
    mode: str = "point"
    #: Full metrics-registry snapshot taken as the run finished (``None``
    #: when telemetry is disabled).
    telemetry: dict | None = None

    @property
    def num_rounds(self) -> int:
        """Number of verify→repair rounds executed."""
        return len(self.rounds)

    @property
    def remaining_violations(self) -> int:
        """Violated regions in the final verification pass (0 when clean)."""
        return self.final_report.num_violated if self.final_report is not None else 0

    @property
    def lp_rows_appended(self) -> int:
        """Total LP rows appended incrementally across all rounds."""
        return sum(record.lp_rows_appended for record in self.rounds)

    @property
    def lp_rows_admitted(self) -> int:
        """Most rows the LP solver held after any round's solve."""
        return max((record.lp_rows_admitted for record in self.rounds), default=0)

    @property
    def warm_started_rounds(self) -> int:
        """Rounds whose LP solve started from retained solver state."""
        return sum(record.warm_start_used for record in self.rounds)

    @property
    def value_only_rounds(self) -> int:
        """Rounds whose verification took the value-only fast path."""
        return sum(record.verify_value_only for record in self.rounds)

    @property
    def lp_iterations(self) -> int | None:
        """Total solver iterations across rounds (``None`` if never reported)."""
        counts = [r.lp_iterations for r in self.rounds if r.lp_iterations is not None]
        return sum(counts) if counts else None

    def as_dict(self) -> dict:
        """A JSON-ready summary (no network weights)."""
        return {
            "status": self.status,
            "certified": self.certified,
            "mode": self.mode,
            "num_rounds": self.num_rounds,
            "pool_size": self.pool_size,
            "counterexamples_found": self.counterexamples_found,
            "remaining_violations": self.remaining_violations,
            "unsatisfied_pool_counterexamples": len(self.unsatisfied_pool_indices),
            "lp_rows_appended": self.lp_rows_appended,
            "lp_rows_admitted": self.lp_rows_admitted,
            "warm_started_rounds": self.warm_started_rounds,
            "value_only_rounds": self.value_only_rounds,
            "lp_iterations": self.lp_iterations,
            "final_report": (
                self.final_report.as_dict() if self.final_report is not None else None
            ),
            "rounds": [record.as_dict() for record in self.rounds],
            "timing": self.timing.as_dict(),
            **({"telemetry": self.telemetry} if self.telemetry is not None else {}),
        }


class RepairDriver:
    """Closed-loop verify → pool → repair → re-verify driver.

    The primary constructor is ``RepairDriver(network, spec, verifier,
    config=DriverConfig(...))``: every *algorithm* knob lives in the frozen,
    JSON-serializable :class:`~repro.driver.config.DriverConfig`, while
    runtime resources (``pool``, ``checkpoint_path``,
    ``holdout``, ``on_round``) stay keyword arguments of the driver itself.
    The config fields are documented here alongside the runtime arguments.

    Parameters
    ----------
    network:
        The buggy network (or DDNN) to repair.  It is never modified, not
        even its ``prefix_cache``: repairs derive from a fresh wrapper.
    spec:
        The verification targets: regions plus output constraints.  In
        polytope mode a :class:`~repro.core.specs.PolytopeRepairSpec` is
        accepted directly and adopted as verification targets via
        :meth:`VerificationSpec.from_polytope_spec`.
    mode:
        ``"point"`` (default) pools individual violating vertices —
        closed-loop Algorithm 1.  ``"polytope"`` is closed-loop Algorithm 2:
        the exact verifier reports whole violating *linear regions*
        (:class:`~repro.verify.base.RegionCounterexample`), the pool dedups
        them by activation-pattern-aware keys, and each pooled region
        expands to one repair point per region vertex (pinned to the
        region's interior), so a certified final round proves the repaired
        network correct on every point of every specification polytope.
    verifier:
        The violation-search implementation.  With
        :class:`~repro.verify.exact.SyrennVerifier` the driver terminates
        with a *certified* report; sampling verifiers can only reach
        ``"clean"``.
    layer_schedule:
        Layers to repair, tried in order; an infeasible (or failed) repair
        or a stalled round escalates to the next entry.  Defaults to every
        repairable layer from the output backwards (the §7.1 heuristic).
    repair_margin:
        Constraint tightening applied when the pool becomes a repair LP, so
        repaired outputs clear the verifier's tolerance strictly.
    max_rounds:
        Hard cap on verify→repair rounds.
    budget_seconds:
        Wall-clock budget (:class:`TimeBudget`); checked before each round.
    holdout:
        Optional ``(inputs, labels)`` pair; when given, each round records
        drawdown of the current repair against the original network.
    checkpoint_path:
        When given, the pool is checkpointed here after every verification
        and reloaded (resume) if the file already exists at start.
    max_new_counterexamples:
        Per-round cap on pool growth.  ``None`` (default) pools everything
        a verification pass found; a small cap rations counterexamples the
        way incremental CEGIS implementations often do, trading more rounds
        for smaller per-round LPs (and giving benchmarks a deterministic
        way to scale round counts).
    norm, delta_bound:
        Forwarded to the
        :class:`~repro.core.point_repair.IncrementalPointRepairSession`.
    memory_budget:
        Soft cap, in bytes, on the repair data path's resident footprint —
        the single knob of the out-of-core pipeline.  When set, the driver
        (1) streams repair constraints through the
        :class:`~repro.core.jacobian.JacobianChunkStream` with a
        ``max_chunk_bytes`` of a quarter of the budget, never above the
        default chunk budget (byte-identical either way), and (2) caps the
        frozen-prefix features cached for the run at another quarter (see
        below); the rest is headroom for the counterexample pool, which
        always stays in memory, and the LP itself.  ``None`` (default)
        keeps every prefix feature in memory.
    on_round:
        Optional callback invoked with each :class:`RoundRecord` as the
        driver finishes with it (its fields final).  This is the progress
        stream the job daemon relays to polling clients; exceptions from
        the callback propagate and abort the run.

    Every run also keeps a :class:`~repro.core.prefix_cache.PrefixCache`
    for the layer being repaired, bound to the networks it verifies,
    encodes and checks, so the layers below the repaired one are evaluated
    once per batch of points instead of once per pass.  The cache lives
    for one :meth:`run` and one scheduled layer and changes no result byte.
    """

    def __init__(
        self,
        network: Network | DecoupledNetwork,
        spec: VerificationSpec | PolytopeRepairSpec,
        verifier: Verifier,
        *,
        config: DriverConfig | None = None,
        holdout: tuple | None = None,
        checkpoint_path: str | Path | None = None,
        pool: CounterexamplePool | None = None,
        on_round: Callable[[RoundRecord], None] | None = None,
    ) -> None:
        config = config if config is not None else DriverConfig()
        self.config = config
        if isinstance(spec, PolytopeRepairSpec):
            if config.mode != "polytope":
                raise RepairError('a PolytopeRepairSpec requires mode="polytope"')
            spec = VerificationSpec.from_polytope_spec(spec)
        self.mode = config.mode
        self.base = (
            DecoupledNetwork(network.activation, network.value)
            if isinstance(network, DecoupledNetwork)
            else DecoupledNetwork.from_network(network)
        )
        self.buggy = network
        self.spec = spec
        self.verifier = verifier
        self.on_round = on_round
        self.layer_schedule = (
            list(config.layer_schedule)
            if config.layer_schedule is not None
            else list(reversed(self.base.repairable_layer_indices()))
        )
        if not self.layer_schedule:
            raise RepairError("the layer schedule is empty")
        self.repair_margin = config.repair_margin
        self.max_rounds = config.max_rounds
        self.budget_seconds = config.budget_seconds
        self.holdout = holdout
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path is not None else None
        self.memory_budget = config.memory_budget
        # A quarter of the budget each for Jacobian chunks and for prefix
        # features; the rest is headroom for the pool and the LP.  A budget
        # only ever shrinks the chunks below the unbudgeted default.
        tier = max(1, config.memory_budget // 4) if config.memory_budget else None
        self.max_chunk_bytes = min(tier, DEFAULT_CHUNK_BYTES) if tier else None
        self.max_prefix_bytes = tier
        self._prefix_cache: PrefixCache | None = None
        if pool is not None:
            self.pool = pool
        elif self.checkpoint_path is not None and self.checkpoint_path.exists():
            self.pool = CounterexamplePool.load(self.checkpoint_path)
        else:
            self.pool = CounterexamplePool()
        self.max_new_counterexamples = config.max_new_counterexamples
        self.norm = config.norm
        self.delta_bound = config.delta_bound
        self._session: IncrementalPointRepairSession | None = None
        # Pool *entries* already encoded into the standing session: in
        # polytope mode one entry expands to several LP points, so the
        # session's own point count cannot identify the new suffix.
        self._session_entries = 0

    # ------------------------------------------------------------------
    def run(self) -> DriverReport:
        """Execute the CEGIS loop and return the final report.

        A ``mode="polytope"`` driver enables the verifier's
        ``region_counterexamples`` granularity (only when the verifier
        exposes that flag and had it off) for the duration of the run, so
        violations arrive as whole linear regions ready for key-point
        expansion; a caller-owned verifier is never left mutated.

        The run is one ``driver.run`` span (:func:`repro.obs.timed`); the
        report's :class:`DriverTiming` is computed from it.
        """
        attach_regions = (
            self.mode == "polytope"
            and getattr(self.verifier, "region_counterexamples", None) is False
        )
        if attach_regions:
            self.verifier.region_counterexamples = True
        try:
            with obs.timed("driver.run", mode=self.mode) as span:
                report = self._run()
            report.timing = DriverTiming.from_span(span)
            return report
        finally:
            if self._prefix_cache is not None:
                self._prefix_cache.close()
                self._prefix_cache = None
            if attach_regions:
                self.verifier.region_counterexamples = False

    def _run(self) -> DriverReport:
        budget = TimeBudget(self.budget_seconds)
        rounds: list[RoundRecord] = []
        current = self.base
        layer_cursor = 0
        status = "max_rounds_reached"
        final_report: VerificationReport | None = None
        counterexamples_found = 0
        # Whether a repair against the current pool has been attempted at the
        # current layer *in this run* — a resumed (or pre-seeded) pool starts
        # with counterexamples nothing was ever repaired against.
        repaired_at_cursor = False
        report_is_stale = False  # a repair was applied after the last verify
        # Whether some failed repair ended without proving infeasibility.
        lp_failed = False

        for round_index in range(self.max_rounds):
            if budget.exhausted():
                status = "budget_exhausted"
                break
            if layer_cursor < len(self.layer_schedule):
                self._serve_prefix(self.layer_schedule[layer_cursor], current)
            with obs.span("driver.verify", round=round_index) as verify_span:
                report = self.verifier.verify(current, self.spec)
                verdicts = Counter(report.region_statuses)
                record = RoundRecord(
                    round_index=round_index,
                    regions_certified=verdicts[RegionStatus.CERTIFIED],
                    regions_violated=verdicts[RegionStatus.VIOLATED],
                    regions_unknown=verdicts[RegionStatus.UNKNOWN],
                    new_counterexamples=0,
                    pool_size=len(self.pool),
                    pool_key_points=self.pool.num_key_points,
                    verify_value_only=getattr(report, "value_only", False),
                )
            record.seconds = verify_span.wall_seconds
            final_report = report
            report_is_stale = False
            rounds.append(record)

            if record.regions_violated == 0:
                status = "certified" if report.certified else "clean"
                self._emit(record)
                break

            with obs.span("driver.pool_intake"):
                new = self._pool_intake(report.counterexamples)
            counterexamples_found += new
            record.new_counterexamples = new
            record.pool_size = len(self.pool)
            record.pool_key_points = self.pool.num_key_points
            if self.checkpoint_path is not None:
                self.pool.save(self.checkpoint_path)

            if new == 0 and repaired_at_cursor:
                # This layer was already repaired against this exact pool,
                # yet violations remain: it cannot do better.
                layer_cursor += 1
                repaired_at_cursor = False
                if layer_cursor >= len(self.layer_schedule):
                    status = "stalled"
                    self._emit(record)
                    break

            result = None
            while layer_cursor < len(self.layer_schedule):
                layer_index = self.layer_schedule[layer_cursor]
                self._serve_prefix(layer_index, current)
                with obs.span("driver.repair", round=round_index, layer=layer_index) as repair_span:
                    result = self._repair(layer_index, record)
                record.repair_attempted = True
                record.repair_feasible = result.feasible
                record.layer_index = result.layer_index
                record.repair_seconds += repair_span.wall_seconds
                repaired_at_cursor = True
                if result.feasible:
                    break
                lp_failed |= result.lp_status not in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED)
                layer_cursor += 1
                repaired_at_cursor = False
            if result is None or not result.feasible:
                status = "lp_error" if lp_failed else "infeasible"
                self._emit(record)
                break

            current = result.network
            report_is_stale = True
            self._emit(record, result)

        if report_is_stale:
            # The loop ran out of rounds (or budget) right after a repair:
            # re-verify so the report describes the network actually returned,
            # and upgrade the status if that last repair finished the job.
            with obs.span("driver.verify", round="final"):
                final_report = self.verifier.verify(current, self.spec)
            if final_report.num_violated == 0:
                status = "certified" if final_report.certified else "clean"

        with obs.span("driver.pool_check"):
            unsatisfied = self.pool.unsatisfied(current) if len(self.pool) else []
        if obs.enabled():
            obs.counter(
                "repro_driver_runs_total",
                "Driver runs completed, by final status.",
                labels=("status", "mode"),
            ).inc(status=status, mode=self.mode)
        return DriverReport(
            status=status,
            certified=final_report.certified if final_report is not None else False,
            network=current,
            rounds=rounds,
            final_report=final_report,
            pool_size=len(self.pool),
            counterexamples_found=counterexamples_found,
            unsatisfied_pool_indices=unsatisfied,
            mode=self.mode,
            telemetry=obs.snapshot() if obs.enabled() else None,
        )

    def _serve_prefix(self, layer_index: int, current: DecoupledNetwork) -> None:
        """Bind the base and ``current`` to a prefix cache for ``layer_index``.

        Repairs derive from the base and inherit its cache.  A different
        layer closes the previous cache.  Layer 0 has no frozen prefix, so
        it gets no cache.
        Cache builds and bindings are timed as ``driver.prefix`` spans.
        """
        with obs.span("driver.prefix"):
            if layer_index < 0:
                layer_index += self.base.num_layers
            cache = self._prefix_cache
            if cache is None or cache.layer_index != layer_index:
                if cache is not None:
                    cache.close()
                    self._prefix_cache = None
                if not 0 < layer_index < self.base.num_layers:
                    return
                cache = self._prefix_cache = PrefixCache(
                    self.base, layer_index, max_bytes=self.max_prefix_bytes
                )
                cache.bind(self.base)
            cache.bind(current)

    def _emit(self, record: RoundRecord, repaired: RepairResult | None = None) -> None:
        """Finish a round record and hand it to the ``on_round`` progress callback.

        After a feasible repair (``repaired``) the record takes the delta's
        ℓ∞ norm and, with a holdout set, the repaired network's drawdown.
        With telemetry enabled, the record then picks up round counters and
        a cumulative counters-only registry snapshot — the compact time
        dimension polling clients see through ``GET /jobs/<id>``.  All of it
        is one ``driver.emit`` span.
        """
        with obs.span("driver.emit", round=record.round_index):
            if repaired is not None:
                record.delta_linf = repaired.delta_linf_norm
                if self.holdout is not None:
                    inputs, labels = self.holdout
                    record.drawdown = drawdown_metric(
                        self.buggy, repaired.network, inputs, labels
                    )
            if obs.enabled():
                obs.counter(
                    "repro_driver_rounds_total",
                    "CEGIS verify→repair rounds completed.",
                ).inc()
                peak = _peak_rss_bytes()
                if peak is not None:
                    obs.gauge(
                        "repro_peak_rss_bytes",
                        "Peak resident set size of this process, in bytes "
                        "(monotone over the process lifetime).",
                    ).set(peak)
                if record.new_counterexamples:
                    obs.counter(
                        "repro_driver_counterexamples_total",
                        "Counterexamples newly admitted to the pool.",
                    ).inc(record.new_counterexamples)
                if record.repair_attempted:
                    obs.counter(
                        "repro_driver_repairs_total",
                        "Repair attempts, by LP feasibility.",
                        labels=("feasible",),
                    ).inc(feasible="true" if record.repair_feasible else "false")
                record.telemetry = obs.snapshot(kinds=("counter",))
            if self.on_round is not None:
                self.on_round(record)

    def _pool_intake(self, counterexamples: Sequence) -> int:
        """Pool a verification pass's counterexamples; returns how many were new.

        The report's list or :class:`~repro.verify.base.CounterexampleBatch`
        goes to the pool whole.  With ``max_new_counterexamples`` set, intake
        stops once that many *new* entries were admitted this round —
        duplicates of already pooled counterexamples never count against
        the cap.
        """
        if self.max_new_counterexamples is None:
            return self.pool.extend(counterexamples)
        new = 0
        for counterexample in counterexamples:
            if self.pool.add(counterexample):
                new += 1
                if new >= self.max_new_counterexamples:
                    break
        return new

    def _repair(self, layer_index: int, record: RoundRecord):
        """One repair attempt through the standing LP session.

        The session lives for as long as the layer cursor stays put; a layer
        escalation starts a fresh session (a different layer means entirely
        different Jacobians), which then absorbs the whole pool at once.
        Only counterexamples pooled since the session last encoded are
        appended — the pool is insertion-ordered and append-only, so a count
        of encoded pool *entries* identifies the new suffix exactly (the
        session's own point count cannot: in polytope mode one pooled region
        expands to several LP points).
        """
        if self._session is None or self._session.layer_index != layer_index:
            self._session = IncrementalPointRepairSession(
                self.base,
                layer_index,
                norm=self.norm,
                delta_bound=self.delta_bound,
                max_chunk_bytes=self.max_chunk_bytes,
            )
            self._session_entries = 0
        session = self._session
        if len(self.pool) > self._session_entries:
            appended = session.append_points(
                self.pool.point_spec(
                    margin=self.repair_margin, start=self._session_entries
                )
            )
            self._session_entries = len(self.pool)
            record.lp_rows_appended += appended
        result = session.solve()
        solution = session.last_solution
        record.lp_rows_admitted = solution.rows_admitted
        record.warm_start_used = bool(solution.warm_start_used)
        record.lp_iterations = solution.iterations
        return result


def _peak_rss_bytes() -> int | None:
    """Peak resident set size of this process in bytes (``None`` off-POSIX).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; the value is
    monotone over the process lifetime, so out-of-core benchmarks must
    sweep workload sizes in ascending order to attribute peaks.
    """
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024

