"""Task 3: 2-D polytope repair of the collision-avoidance network.

Mirrors §7.3 of the paper: the buggy network violates a φ8-style safety
property ("advise clear-of-conflict or weak left") on parts of a box of
encounters.  The repair specification consists of two-dimensional slices of
that box containing violations.  Because the property allows *two*
advisories (a disjunction an LP cannot encode), it is strengthened per
linear region: within each region the allowed advisory that the buggy
network already scores higher at the region's interior point becomes the
required advisory for that whole region.  Any network satisfying the
strengthened specification also satisfies the property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.baselines.fine_tune import fine_tune
from repro.baselines.modified_fine_tune import modified_fine_tune
from repro.core.point_repair import point_repair
from repro.core.result import RepairTiming
from repro.core.specs import PointRepairSpec, PolytopeEntry, PolytopeRepairSpec
from repro.datasets.acas import SafetyProperty, phi8_property
from repro.driver import DriverConfig, DriverReport, RepairDriver
from repro.polytope.hpolytope import HPolytope
from repro.models.zoo import ModelZoo
from repro.nn.network import Network
from repro.syrenn.plane import PlaneRegion, transform_planes
from repro.utils.rng import ensure_rng
from repro.verify import SyrennVerifier, VerificationSpec, Verifier
from repro.verify.base import frozen_constraint

#: Margin for the strengthened per-region classification constraints.
CLASSIFICATION_MARGIN = 1e-4


@dataclass
class Task3Setup:
    """The buggy advisory network, the property, and the evaluation sets."""

    network: Network
    safety_property: SafetyProperty
    repair_slices: list[np.ndarray]
    generalization_points: np.ndarray
    drawdown_points: np.ndarray
    buggy_violation_count: int

    @property
    def last_layer_index(self) -> int:
        """Index of the output layer (the layer Task 3 repairs)."""
        return self.network.parameterized_layer_indices()[-1]


def property_satisfaction(network, safety_property: SafetyProperty, points: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``points`` the network maps to an allowed advisory."""
    predictions = np.atleast_1d(network.predict(points))
    return safety_property.satisfied_on(predictions)


def setup_task3(
    zoo: ModelZoo | None = None,
    *,
    num_slices: int = 10,
    candidate_slices: int = 80,
    samples_per_slice: int = 64,
    evaluation_points: int = 1500,
    train_size: int = 4000,
    epochs: int = 40,
    seed: int = 0,
) -> Task3Setup:
    """Train (or load) the network and find property-violating 2-D slices.

    Random axis-aligned 2-D slices of the property box are screened by
    sampling; slices on which the buggy network violates the property become
    the repair set (up to ``num_slices``).  Violating points from the
    remaining screened slices form the generalization set; an equal number of
    sampled points the buggy network already handles correctly form the
    drawdown set.
    """
    zoo = zoo if zoo is not None else ModelZoo()
    rng = ensure_rng(seed)
    dataset = zoo.acas_dataset(train_size=train_size, seed=seed)
    network = zoo.acas_network(dataset, epochs=epochs, seed=seed)
    safety_property = phi8_property()

    repair_slices: list[np.ndarray] = []
    other_violations: list[np.ndarray] = []
    grid = _slice_sample_grid(samples_per_slice)
    for _ in range(candidate_slices):
        slice_vertices = safety_property.random_slice(rng)
        samples = _points_on_slice(slice_vertices, grid)
        satisfied = property_satisfaction(network, safety_property, samples)
        violating = samples[~satisfied]
        if violating.shape[0] == 0:
            continue
        if len(repair_slices) < num_slices:
            repair_slices.append(slice_vertices)
        else:
            other_violations.append(violating)

    # Counterexamples not covered by the repair slices form the
    # generalization set; property-box samples the buggy network already
    # handles correctly form the drawdown set (as in the paper, the two sets
    # are disjoint from the repair slices and from each other).
    box_samples = safety_property.sample_states(evaluation_points, rng)
    satisfied_mask = property_satisfaction(network, safety_property, box_samples)
    drawdown_points = box_samples[satisfied_mask]
    box_violations = box_samples[~satisfied_mask]
    if other_violations:
        generalization_points = np.vstack(other_violations + [box_violations])
    else:
        generalization_points = box_violations
    if generalization_points.shape[0] > drawdown_points.shape[0]:
        generalization_points = generalization_points[: drawdown_points.shape[0]]

    return Task3Setup(
        network=network,
        safety_property=safety_property,
        repair_slices=repair_slices,
        generalization_points=generalization_points,
        drawdown_points=drawdown_points,
        buggy_violation_count=int(np.sum(~satisfied_mask)),
    )


def _slice_sample_grid(samples: int) -> np.ndarray:
    """Barycentric-style sample weights over a quadrilateral's corners."""
    side = max(2, int(np.sqrt(samples)))
    u_values = np.linspace(0.0, 1.0, side)
    v_values = np.linspace(0.0, 1.0, side)
    weights = []
    for u in u_values:
        for v in v_values:
            weights.append(
                [(1 - u) * (1 - v), u * (1 - v), u * v, (1 - u) * v]
            )
    return np.array(weights)


def _points_on_slice(slice_vertices: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Sample points on a quadrilateral slice given corner weights."""
    return grid @ slice_vertices


def safe_advisory_constraint(
    num_advisories: int,
    winner: int,
    allowed: tuple[int, ...],
    margin: float = CLASSIFICATION_MARGIN,
) -> HPolytope:
    """The constraint "advisory ``winner`` beats every *disallowed* advisory".

    This is the per-region strengthening of the property used by Task 3.  It
    requires ``out[winner] ≥ out[k] + margin`` only for advisories ``k`` that
    the property forbids; the other allowed advisory is left unconstrained.
    If every vertex of a linear region satisfies this constraint then, by
    linearity, every point of the region has some allowed advisory as its
    argmax — hence the region satisfies the property.  Unlike requiring a
    full argmax, this strengthening never conflicts with itself on vertices
    shared between adjacent regions whose chosen winners differ.
    """
    rows, bounds = [], []
    for other in range(num_advisories):
        if other == winner or other in allowed:
            continue
        row = np.zeros(num_advisories)
        row[other] = 1.0
        row[winner] = -1.0
        rows.append(row)
        bounds.append(-margin)
    return HPolytope(np.array(rows), np.array(bounds))


def strengthened_specification(
    network: Network, setup: Task3Setup, *, margin: float = CLASSIFICATION_MARGIN
) -> PointRepairSpec:
    """Reduce the repair slices to key points with per-region strengthened labels.

    Each linear region of each repair slice chooses, as its "winner", the
    allowed advisory the buggy network already scores higher at the region's
    interior point; the region's vertices are then constrained with
    :func:`safe_advisory_constraint`.
    """
    points, activation_points, constraints = [], [], []
    for _, region, constraint in _strengthened_regions(network, setup, margin):
        interior = region.interior_point
        for vertex in region.input_vertices:
            points.append(vertex)
            activation_points.append(interior)
            constraints.append(constraint)
    return PointRepairSpec(
        points=np.array(points),
        constraints=constraints,
        activation_points=np.array(activation_points),
    )


def strengthened_verification_spec(
    network: Network,
    setup: Task3Setup,
    *,
    margin: float = CLASSIFICATION_MARGIN,
) -> VerificationSpec:
    """The repair slices as verification targets, strengthened per linear region.

    φ8 allows *two* advisories — a disjunction no single output polytope can
    express — so each linear region of each repair slice becomes its own
    verification region whose constraint requires the allowed advisory the
    buggy network already prefers at the region's interior point (the same
    strengthening :func:`strengthened_specification` applies for one-shot
    repair).  The strengthening stays valid across driver rounds because the
    DDNN's activation channel — and therefore the linear-region geometry —
    never changes under value-channel repair (Theorem 4.6).
    """
    spec = VerificationSpec()
    for name, region, constraint in _strengthened_regions(network, setup, margin):
        spec.add_plane(region.input_vertices, constraint, name=name)
    return spec


def _strengthened_regions(
    network: Network, setup: Task3Setup, margin: float
) -> list[tuple[str, PlaneRegion, HPolytope]]:
    """Every linear region of the repair slices, named, with its strengthened constraint.

    The winner is the allowed advisory ``network`` scores highest at the
    region's interior point (ties go to the one listed first in
    ``allowed``); one ``compute`` scores every interior point.
    """
    allowed = setup.safety_property.allowed
    named = [
        (f"slice{slice_index}/region{region_index}", region)
        for slice_index, partition in enumerate(transform_planes(network, setup.repair_slices))
        for region_index, region in enumerate(partition.regions)
    ]
    if not named:
        return []
    scores = network.compute(np.array([region.interior_point for _, region in named]))
    # Regions with one winner share its (frozen) constraint.
    constraints = {
        winner: frozen_constraint(
            safe_advisory_constraint(network.output_size, winner, allowed, margin)
        )
        for winner in allowed
    }
    strengthened = []
    for (name, region), row in zip(named, scores):
        winner = max(allowed, key=lambda advisory: row[advisory])
        strengthened.append((name, region, constraints[winner]))
    return strengthened


def strengthened_polytope_spec(
    network: Network,
    setup: Task3Setup,
    *,
    margin: float = CLASSIFICATION_MARGIN,
) -> PolytopeRepairSpec:
    """The strengthened φ8 slices as a *polytope repair* specification.

    The same per-linear-region strengthening as
    :func:`strengthened_verification_spec`, packaged as a
    :class:`~repro.core.specs.PolytopeRepairSpec` so it can drive both
    one-shot :func:`~repro.core.polytope_repair.polytope_repair` and the
    polytope-mode CEGIS driver on identical obligations (the
    ``bench_polytope_driver`` comparison).  Each strengthened region is a
    planar polygon; decomposing it again inside Algorithm 2 is exact.
    """
    verification = strengthened_verification_spec(network, setup, margin=margin)
    # VerificationSpec.add_plane already deduplicated and checked every
    # region's vertices, so they are adopted as they are.
    return PolytopeRepairSpec(
        entries=[PolytopeEntry(region.region, region.constraint) for region in verification.regions]
    )


def driver_slice_repair(
    setup: Task3Setup,
    layer_index: int | None = None,
    *,
    norm: str = "linf",
    verifier: Verifier | None = None,
    max_rounds: int = 5,
    budget_seconds: float | None = None,
    checkpoint_path=None,
    efficacy_samples_per_slice: int = 64,
) -> tuple[dict, DriverReport]:
    """Closed-loop CEGIS repair of the repair slices (strengthened φ8).

    Unlike :func:`provable_slice_repair`, which hands the whole strengthened
    specification to one LP, the driver starts from an *empty* specification
    and lets the verifier discover which region vertices actually need
    repair, iterating verify → pool → repair until the exact verifier
    certifies every region.  Returns ``(record, driver_report)`` where
    ``record`` has the same safety-metric keys as the other Task 3 methods.
    """
    chosen = layer_index if layer_index is not None else setup.last_layer_index
    schedule = [chosen] + [
        index
        for index in reversed(setup.network.parameterized_layer_indices())
        if index != chosen
    ]
    spec = strengthened_verification_spec(setup.network, setup)
    # Drawdown is tracked per round as prediction churn on the already-safe
    # holdout encounters (the buggy network's own advisories are the labels).
    holdout_labels = np.atleast_1d(setup.network.predict(setup.drawdown_points))
    driver = RepairDriver(
        setup.network,
        spec,
        verifier if verifier is not None else SyrennVerifier(),
        config=DriverConfig(
            layer_schedule=schedule,
            norm=norm,
            max_rounds=max_rounds,
            budget_seconds=budget_seconds,
        ),
        holdout=(setup.drawdown_points, holdout_labels),
        checkpoint_path=checkpoint_path,
    )
    report = driver.run()
    record = {
        "method": "CEGIS",
        "layer_index": chosen,
        "num_slices": len(setup.repair_slices),
        "regions": spec.num_regions,
        "rounds": report.num_rounds,
        "status": report.status,
        "certified": report.certified,
        "pool_size": report.pool_size,
        "remaining_violations": report.remaining_violations,
        **{f"time_{key}": value for key, value in report.timing.as_dict().items()},
    }
    if report.status in ("certified", "clean"):
        record.update(
            _safety_metrics(setup, report.network, efficacy_samples_per_slice)
        )
    else:
        record.update(
            {"efficacy": float("nan"), "drawdown": float("nan"), "generalization": float("nan")}
        )
    return record, report


def provable_slice_repair(
    setup: Task3Setup,
    layer_index: int | None = None,
    *,
    norm: str = "linf",
    efficacy_samples_per_slice: int = 64,
) -> dict:
    """Provable Polytope Repair of the repair slices (strengthened φ8).

    The record's time split covers the decomposition (LinRegions) as well
    as the pointwise repair of its key points.
    """
    layer_index = layer_index if layer_index is not None else setup.last_layer_index
    with obs.timed("repair.polytope", layer=layer_index) as span:
        with obs.span("repair.linregions"):
            spec = strengthened_specification(setup.network, setup)
        result = point_repair(setup.network, layer_index, spec, norm=norm)
    result.timing = RepairTiming.from_spans(span)
    record = {
        "method": "PR",
        "layer_index": layer_index,
        "num_slices": len(setup.repair_slices),
        "key_points": spec.num_points,
        "feasible": result.feasible,
        **{f"time_{key}": value for key, value in result.timing.as_dict().items()},
    }
    if result.feasible:
        record.update(_safety_metrics(setup, result.network, efficacy_samples_per_slice))
    else:
        record.update(
            {"efficacy": float("nan"), "drawdown": float("nan"), "generalization": float("nan")}
        )
    return record


def _safety_metrics(setup: Task3Setup, repaired, samples_per_slice: int) -> dict:
    """Efficacy / drawdown / generalization in property-satisfaction terms."""
    grid = _slice_sample_grid(samples_per_slice)
    slice_points = np.vstack(
        [_points_on_slice(vertices, grid) for vertices in setup.repair_slices]
    )
    efficacy = 100.0 * float(
        np.mean(property_satisfaction(repaired, setup.safety_property, slice_points))
    )
    if setup.drawdown_points.shape[0]:
        still_satisfied = property_satisfaction(
            repaired, setup.safety_property, setup.drawdown_points
        )
        drawdown = 100.0 * float(np.mean(~still_satisfied))
    else:
        drawdown = float("nan")
    if setup.generalization_points.shape[0]:
        now_satisfied = property_satisfaction(
            repaired, setup.safety_property, setup.generalization_points
        )
        generalization = 100.0 * float(np.mean(now_satisfied))
    else:
        generalization = float("nan")
    return {"efficacy": efficacy, "drawdown": drawdown, "generalization": generalization}


def _baseline_repair_points(
    setup: Task3Setup, points_per_slice: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled (point, strengthened label) pairs for the FT/MFT baselines."""
    rng = ensure_rng(seed)
    allowed = setup.safety_property.allowed
    points, labels = [], []
    for slice_vertices in setup.repair_slices:
        weights = rng.dirichlet(np.ones(slice_vertices.shape[0]), size=points_per_slice)
        sampled = weights @ slice_vertices
        for point in sampled:
            scores = setup.network.compute(point)
            winner = max(allowed, key=lambda advisory: scores[advisory])
            points.append(point)
            labels.append(winner)
    return np.array(points), np.array(labels, dtype=int)


def fine_tune_slices(
    setup: Task3Setup,
    points_per_slice: int = 50,
    *,
    learning_rate: float = 0.001,
    momentum: float = 0.9,
    batch_size: int = 16,
    max_epochs: int = 300,
    seed: int = 0,
) -> dict:
    """The FT baseline on sampled slice points with strengthened labels."""
    points, labels = _baseline_repair_points(setup, points_per_slice, seed=seed)
    result = fine_tune(
        setup.network,
        points,
        labels,
        learning_rate=learning_rate,
        momentum=momentum,
        batch_size=batch_size,
        max_epochs=max_epochs,
        seed=seed,
    )
    record = {
        "method": "FT",
        "converged": result.converged,
        "sampled_points": points.shape[0],
        "time_total": result.seconds,
    }
    record.update(_safety_metrics(setup, result.network, samples_per_slice=64))
    return record


def modified_fine_tune_slices(
    setup: Task3Setup,
    points_per_slice: int = 50,
    layer_index: int | None = None,
    *,
    learning_rate: float = 0.001,
    momentum: float = 0.9,
    batch_size: int = 16,
    max_epochs: int = 100,
    seed: int = 0,
) -> dict:
    """The MFT baseline on sampled slice points, tuning a single layer."""
    layer_index = layer_index if layer_index is not None else setup.last_layer_index
    points, labels = _baseline_repair_points(setup, points_per_slice, seed=seed)
    result = modified_fine_tune(
        setup.network,
        points,
        labels,
        layer_index,
        learning_rate=learning_rate,
        momentum=momentum,
        batch_size=batch_size,
        max_epochs=max_epochs,
        seed=seed,
    )
    record = {
        "method": "MFT",
        "layer_index": layer_index,
        "sampled_points": points.shape[0],
        "time_total": result.seconds,
    }
    record.update(_safety_metrics(setup, result.network, samples_per_slice=64))
    return record
