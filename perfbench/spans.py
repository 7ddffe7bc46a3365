"""Span recording for the benchmark's traced run.

The traced run wraps the public functions of each layer of the repair stack
(``nn``, ``core``, ``lp``, ``syrenn``, ``verify``, ``driver``) from the
benchmark's own files, records one span per call and restores every original
binding afterwards.  Nothing under ``src/`` is changed, and untimed runs never
install a wrapper.

A span's *self time* is its duration minus the time covered by its child
spans.  Calls are single-threaded and strictly nested, so a span's covered
time is the sum of its direct children's durations.  Spans are aggregated in
memory per metric key; a tree of the coarse spans (everything except the
per-call ``nn`` and ``syrenn`` spans, which are folded into their nearest
coarse ancestor) can be kept for one repeat and written out as JSON.
"""

from __future__ import annotations

import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter


def _module(path: str):
    """``repro.<path>``, or ``None`` when the program no longer has it.

    Imported by path because a package may re-export a function under its
    module's name (``repro.core.point_repair``), which shadows the module
    for ``import a.b as c``.
    """
    try:
        return importlib.import_module(f"repro.{path}")
    except ImportError:
        return None


#: Attribute the traced run sets on every layer of a workload network so
#: that per-network-layer spans (``nn.forward_s.L05``) survive the deep
#: copies the driver makes.
LAYER_INDEX_ATTRIBUTE = "_perfbench_index"

NN_FORWARD = ("forward", "decoupled_forward")
NN_BACKWARD = (
    "backward_input",
    "batch_backward_input",
    "linearize",
    "batch_linearize_backward",
    "parameter_jacobian",
    "batch_parameter_jacobian",
    "backward_parameters",
)

#: Layer class name -> the kind suffix of its ``nn`` metrics.
LAYER_KINDS = {
    "NormalizeLayer": "normalize",
    "Conv2DLayer": "conv",
    "ReLULayer": "relu",
    "MaxPool2DLayer": "maxpool",
    "GlobalAvgPoolLayer": "gap",
    "FullyConnectedLayer": "fc",
}


class _Frame:
    __slots__ = ("name", "keys", "start", "child", "node", "owner")

    def __init__(self, name, keys, start, node, owner):
        self.name = name
        self.keys = keys
        self.start = start
        self.child = 0.0
        self.node = node
        self.owner = owner


class Tracer:
    """Aggregates span durations, self times and work counts."""

    def __init__(self, keep_tree: bool = False) -> None:
        self.keep_tree = keep_tree
        self.stack: list[_Frame] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.roots: list[dict] = []
        #: Wrapper targets the program no longer defines (see ``Patches``).
        self.missing: list[str] = []

    def push(self, name: str, keys: tuple[str, ...], fine: bool, owner=None) -> _Frame:
        node = None
        if self.keep_tree and not fine:
            node = {"name": name, "start": 0.0, "dur": 0.0, "self": 0.0,
                    "children": [], "fine": {}}
            parent = self._nearest_node()
            (parent["children"] if parent is not None else self.roots).append(node)
        frame = _Frame(name, keys, perf_counter(), node, owner)
        self.stack.append(frame)
        return frame

    def pop(self, frame: _Frame) -> None:
        duration = perf_counter() - frame.start
        self.stack.pop()
        own = duration - frame.child
        if self.stack:
            self.stack[-1].child += duration
        for key in frame.keys:
            self.self_s[key] += own
            self.total_s[key] += duration
        if frame.node is not None:
            frame.node.update(start=frame.start, dur=duration, self=own)
        elif self.keep_tree:
            parent = self._nearest_node()
            if parent is not None:
                entry = parent["fine"].setdefault(frame.name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += own

    def _nearest_node(self) -> dict | None:
        for frame in reversed(self.stack):
            if frame.node is not None:
                return frame.node
        return None

    def inside(self, owner) -> bool:
        """Whether the innermost open span belongs to ``owner`` (re-entry)."""
        return bool(self.stack) and self.stack[-1].owner is owner


class Patches:
    """Installs wrappers and restores the original bindings on exit.

    A wrapper target the program no longer defines is skipped and listed in
    ``missing`` (its metrics then read 0), so a later change that removes a
    function degrades the traced run instead of breaking the benchmark.
    """

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, owner, attribute: str, make) -> None:
        """Replace ``owner.attribute`` (its own binding) by ``make(original)``."""
        original = vars(owner).get(attribute) if owner is not None else None
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
            return
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def _wrap(tracer: Tracer, name: str, function, *, fine=False, after=None):
    """A span around ``function``; ``after(args, result)`` records counts.

    ``after`` runs once the span has closed, so counting never inflates the
    span's own time.
    """
    span_keys = (name,)

    def wrapped(*args, **kwargs):
        frame = tracer.push(name, span_keys, fine)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.pop(frame)
        if after is not None:
            after(args, result)
        return result

    wrapped.__wrapped__ = function
    return wrapped


def _layer_classes():
    base = getattr(_module("nn.layer"), "Layer", None)
    found = []
    for path in ("nn.layer", "nn.activations", "nn.conv", "nn.linear", "nn.pooling", "nn.reshape"):
        module = _module(path)
        if module is None or base is None:
            continue
        for _, value in inspect.getmembers(module, inspect.isclass):
            if issubclass(value, base) and value not in found:
                found.append(value)
    return found


def _rows(args: tuple, kwargs: dict) -> int:
    """Batch rows of a forward call (its last argument: the values)."""
    values = args[-1] if args else list(kwargs.values())[-1]
    shape = getattr(values, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _wrap_layer_method(tracer: Tracer, stage: str, function):
    """Span one layer method, keyed by stage, layer kind and network index."""
    key_cache: dict[tuple, tuple[str, ...]] = {}
    counts_rows = stage == "forward"

    def keys_for(layer) -> tuple[str, ...]:
        index = getattr(layer, LAYER_INDEX_ATTRIBUTE, None)
        cache_key = (type(layer), index)
        keys = key_cache.get(cache_key)
        if keys is None:
            keys = [f"nn.{stage}"]
            kind = LAYER_KINDS.get(type(layer).__name__)
            if kind is not None:
                keys.append(f"nn.{stage}.{kind}")
            if index is not None:
                keys.append(f"nn.{stage}.L{index:02d}")
            keys = key_cache[cache_key] = tuple(keys)
        return keys

    def wrapped(layer, *args, **kwargs):
        if tracer.inside(layer):  # a layer method calling another one of its own
            return function(layer, *args, **kwargs)
        frame = tracer.push(f"nn.{stage}", keys_for(layer), True, owner=layer)
        try:
            result = function(layer, *args, **kwargs)
        finally:
            tracer.pop(frame)
        if counts_rows:
            tracer.counts["nn.point_layer_evals"] += _rows(args, kwargs)
        return result

    wrapped.__wrapped__ = function
    return wrapped


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's public entry points; returns the restorer."""
    patches = Patches()
    counts = tracer.counts

    def span(name, *, fine=False, after=None):
        return lambda function: _wrap(tracer, name, function, fine=fine, after=after)

    # nn: per-layer forward and backward methods, on the class that defines them.
    for cls in _layer_classes():
        for stage, methods in (("forward", NN_FORWARD), ("backward", NN_BACKWARD)):
            for method in methods:
                if method in vars(cls):
                    patches.wrap(
                        cls, method,
                        lambda function, stage=stage: _wrap_layer_method(tracer, stage, function),
                    )

    # core: constraint encoding, at the names the repair code resolves, and
    # the repair session around it.
    def count_dense(args, result):
        lhs = result[0]
        counts["core.jacobian_rows"] += int(lhs.shape[0])
        counts["core.jacobian_nnz"] += int((lhs != 0).sum())

    point_repair = _module("core.point_repair")
    for name in ("encode_constraints_padded", "encode_constraints_batched"):
        patches.wrap(point_repair, name, span("core.encode", after=count_dense))

    def traced_stream(stream_iter):
        def iterate(stream):
            iterator = stream_iter(stream)
            while True:
                frame = tracer.push("core.encode", ("core.encode",), False)
                try:
                    item = next(iterator, None)
                finally:
                    tracer.pop(frame)
                if item is None:
                    return
                counts["core.jacobian_rows"] += int(item[0].shape[0])
                counts["core.jacobian_nnz"] += int(item[0].nnz)
                yield item
        return iterate

    jacobian = _module("core.jacobian")
    patches.wrap(getattr(jacobian, "JacobianChunkStream", None), "__iter__", traced_stream)
    session = getattr(point_repair, "IncrementalPointRepairSession", None)
    for method in ("__init__", "append_points", "solve"):
        patches.wrap(session, method, span("core.session"))
    driver = _module("driver.driver")
    patches.wrap(driver, "point_repair", span("core.session"))

    # lp: row ingestion, standard-form stacking and the backend solve.
    def count_ingest(args, rows):
        counts["lp.rows"] += int(rows)

    def count_stack(args, form):
        counts["lp.nnz"] += sum(
            int(matrix.nnz) if hasattr(matrix, "nnz") else int((matrix != 0).sum())
            for matrix in (form[1], form[3])
        )

    def count_solve(args, solution):
        counts["lp.solves"] += 1
        counts["lp.iterations"] += int(solution.iterations or 0)
        counts["lp.warm_solves"] += int(bool(solution.warm_start_used))

    lp_session = getattr(_module("lp.model"), "LPSession", None)
    patches.wrap(lp_session, "append_rows", span("lp.ingest", after=count_ingest))
    patches.wrap(lp_session, "standard_form", span("lp.stack", after=count_stack))
    backends = getattr(_module("lp.backends"), "_BACKENDS", {})
    for backend in {cls for cls in backends.values() if "solve" in vars(cls)}:
        patches.wrap(backend, "solve", span("lp.solve", after=count_solve))

    # syrenn: the decomposition entry points, as bound in the exact verifier.
    def count_regions(args, partition):
        counts["syrenn.calls"] += 1
        counts["syrenn.regions"] += len(partition.regions)

    exact = _module("verify.exact")
    for name in ("transform_plane", "transform_line"):
        patches.wrap(exact, name, span("syrenn.transform", fine=True, after=count_regions))

    # verify: every verifier pass the driver makes.
    def count_verify(args, report):
        counts["verify.calls"] += 1
        counts["verify.value_only"] += int(bool(getattr(report, "value_only", False)))

    patches.wrap(getattr(exact, "SyrennVerifier", None), "verify", span("verify", after=count_verify))
    sampling = getattr(_module("verify.sampling"), "_SamplingVerifier", None)
    patches.wrap(sampling, "verify", span("verify", after=count_verify))

    # driver: the run itself and the counterexample-pool operations.
    repair_driver = getattr(driver, "RepairDriver", None)
    patches.wrap(repair_driver, "run", span("driver.run"))
    patches.wrap(repair_driver, "_pool_intake", span("driver.pool_intake"))
    pool = getattr(_module("driver.pool"), "CounterexamplePool", None)
    patches.wrap(pool, "point_spec", span("driver.pool_spec"))
    patches.wrap(pool, "unsatisfied", span("driver.pool_check"))
    tracer.missing = patches.missing
    return patches


def tag_layers(network) -> None:
    """Mark each layer with its network index (read by the nn wrappers)."""
    for index, layer in enumerate(network.layers):
        setattr(layer, LAYER_INDEX_ATTRIBUTE, index)


def untag_layers(network) -> None:
    for layer in network.layers:
        layer.__dict__.pop(LAYER_INDEX_ATTRIBUTE, None)


def layer_metrics(tracer: Tracer, network_layers: int = 19) -> dict[str, float]:
    """The per-layer metric values of one traced repeat (times in seconds)."""
    self_s, total_s, counts = tracer.self_s, tracer.total_s, tracer.counts
    metrics: dict[str, float] = {}
    for stage in ("forward", "backward"):
        metrics[f"nn.{stage}_s"] = self_s[f"nn.{stage}"]
        for kind in LAYER_KINDS.values():
            metrics[f"nn.{stage}_s.{kind}"] = self_s[f"nn.{stage}.{kind}"]
    for index in range(network_layers):
        metrics[f"nn.forward_s.L{index:02d}"] = self_s[f"nn.forward.L{index:02d}"]
    metrics["nn.point_layer_evals"] = counts["nn.point_layer_evals"]

    metrics["core.encode_s"] = self_s["core.encode"]
    metrics["core.jacobian_rows"] = counts["core.jacobian_rows"]
    metrics["core.jacobian_nnz"] = counts["core.jacobian_nnz"]
    metrics["core.self_s"] = self_s["core.session"]

    metrics["lp.ingest_s"] = self_s["lp.ingest"]
    metrics["lp.stack_s"] = self_s["lp.stack"]
    metrics["lp.rows"] = counts["lp.rows"]
    metrics["lp.nnz"] = counts["lp.nnz"]
    metrics["lp.solve_s"] = self_s["lp.solve"]
    metrics["lp.solves"] = counts["lp.solves"]
    metrics["lp.iterations"] = counts["lp.iterations"]
    metrics["lp.warm_ratio"] = (
        counts["lp.warm_solves"] / counts["lp.solves"] if counts["lp.solves"] else 0.0
    )

    metrics["syrenn.transform_s"] = self_s["syrenn.transform"]
    metrics["syrenn.calls"] = counts["syrenn.calls"]
    metrics["syrenn.regions"] = counts["syrenn.regions"]

    metrics["verify.s"] = total_s["verify"]
    metrics["verify.self_s"] = self_s["verify"]
    metrics["verify.calls"] = counts["verify.calls"]
    metrics["verify.value_only_ratio"] = (
        counts["verify.value_only"] / counts["verify.calls"] if counts["verify.calls"] else 0.0
    )

    metrics["driver.pool_intake_s"] = self_s["driver.pool_intake"]
    metrics["driver.pool_spec_s"] = self_s["driver.pool_spec"]
    metrics["driver.pool_check_s"] = self_s["driver.pool_check"]
    metrics["driver.self_s"] = self_s["driver.run"]
    run_s = total_s["driver.run"]
    metrics["trace.coverage"] = 1.0 - self_s["driver.run"] / run_s if run_s else 0.0
    return metrics
