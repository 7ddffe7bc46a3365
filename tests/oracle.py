"""Reference implementations the single repair data path is checked against.

The library has one encoder (the batched chunk stream) and one LP driver
path (the repair session).  These oracles are the straightforward per-point
versions of the same math — one :meth:`DecoupledNetwork.parameter_jacobian`
call per point, one dense constraint block per point, a fresh
:class:`LPModel` solved once, optionally from a dense standard form
assembled block by block — kept here so the tests can compare the optimized
path against code simple enough to check by eye.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.ddnn import DecoupledNetwork
from repro.core.result import RepairResult
from repro.core.specs import PointRepairSpec
from repro.lp.backends import get_backend
from repro.lp.model import LPModel
from repro.lp.norms import add_norm_objective
from repro.lp.status import LPStatus


def specification_jacobians(
    ddnn: DecoupledNetwork, layer_index: int, spec: PointRepairSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Outputs ``(k, m)`` and Jacobians ``(k, m, P)``, one point at a time."""
    outputs = []
    jacobians = []
    for index in range(spec.num_points):
        output, jacobian = ddnn.parameter_jacobian(
            layer_index, spec.points[index], spec.activation_point(index)
        )
        outputs.append(output)
        jacobians.append(jacobian)
    return np.array(outputs), np.array(jacobians)


def max_row_violation(network, layer_index: int, spec: PointRepairSpec, delta) -> float:
    """Largest ``A_x (N(x) + J_x Δ) - b_x`` over every constraint row of ``spec``.

    ``N`` and ``J`` are the unrepaired network's, one point at a time, so
    this is the repair LP's own row check for a delta of layer
    ``layer_index``; a delta satisfies every row when the result is ≤ the
    solver's feasibility tolerance.
    """
    ddnn = (
        network.copy()
        if isinstance(network, DecoupledNetwork)
        else DecoupledNetwork.from_network(network)
    )
    outputs, jacobians = specification_jacobians(ddnn, layer_index, spec)
    return max(
        float(np.max(constraint.a @ (outputs[index] + jacobians[index] @ delta) - constraint.b))
        for index, constraint in enumerate(spec.constraints)
    )


def dense_standard_form(model: LPModel):
    """``model.standard_form()`` with full-width dense constraint matrices.

    Each narrow block is widened into a dense array of its own and the
    arrays are stacked in block order: the reference the CSR assembly is
    checked against.
    """
    n = model.num_variables
    c, _, _, _, _, bounds = model.standard_form()
    rows = {False: [], True: []}
    rhs = {False: [], True: []}
    for block in model._blocks:
        narrow = block.matrix.toarray() if sp.issparse(block.matrix) else block.matrix
        wide = np.zeros((narrow.shape[0], n))
        wide[:, block.columns] = narrow
        rows[block.equality].append(wide)
        rhs[block.equality].append(block.rhs)

    def stack(equality: bool):
        if not rows[equality]:
            return np.zeros((0, n)), np.zeros(0)
        return np.vstack(rows[equality]), np.concatenate(rhs[equality])

    (a_ub, b_ub), (a_eq, b_eq) = stack(False), stack(True)
    return c, a_ub, b_ub, a_eq, b_eq, bounds


def oracle_point_repair(
    network,
    layer_index: int,
    spec: PointRepairSpec,
    *,
    norm: str = "linf",
    delta_bound: float | None = None,
    sparse: bool = True,
) -> RepairResult:
    """Algorithm 1 with a per-point encoding loop and one cold LP solve.

    Builds the same LP as :func:`repro.core.point_repair.point_repair` (norm
    rows first, then each point's rows in specification order) and solves
    it from its CSR standard form (:meth:`LPModel.solve`) or, with
    ``sparse=False``, from :func:`dense_standard_form`.
    """
    ddnn = (
        network.copy()
        if isinstance(network, DecoupledNetwork)
        else DecoupledNetwork.from_network(network)
    )
    layer_index = ddnn._check_repairable(layer_index)
    model = LPModel()
    bound = np.inf if delta_bound is None else float(delta_bound)
    delta_indices = model.add_variables(
        ddnn.value.layers[layer_index].num_parameters, "delta", lower=-bound, upper=bound
    )
    add_norm_objective(model, delta_indices, norm)
    outputs, jacobians = specification_jacobians(ddnn, layer_index, spec)
    rows = 0
    for index, constraint in enumerate(spec.constraints):
        # A_x (N(x) + J Δ) ≤ b_x   ⇔   (A_x J) Δ ≤ b_x - A_x N(x)
        model.add_leq_block(
            constraint.a @ jacobians[index],
            constraint.b - constraint.a @ outputs[index],
            delta_indices,
        )
        rows += constraint.num_constraints
    if sparse:
        solution = model.solve()
    else:
        solution = get_backend().solve(*dense_standard_form(model))
    common = dict(
        layer_index=layer_index,
        num_key_points=spec.num_points,
        num_constraint_rows=rows,
        num_variables=model.num_variables,
        norm=norm,
    )
    if not solution.status.is_optimal:
        status = solution.status
        if status not in (LPStatus.INFEASIBLE, LPStatus.UNBOUNDED):
            status = LPStatus.ERROR
        return RepairResult(
            feasible=False, network=None, delta=None, lp_status=status, **common
        )
    delta = solution.value_of(delta_indices)
    ddnn.apply_parameter_delta(layer_index, delta)
    return RepairResult(
        feasible=True,
        network=ddnn,
        delta=delta,
        lp_status=solution.status,
        objective_value=solution.objective,
        **common,
    )
