"""Exception hierarchy used across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ShapeError(ReproError):
    """An array argument had an unexpected shape."""


class LayerError(ReproError):
    """A layer was constructed or used incorrectly."""


class SpecificationError(ReproError):
    """A repair specification is malformed."""


class RepairError(ReproError):
    """A repair could not be carried out (distinct from infeasibility)."""


class LPError(ReproError):
    """The LP substrate was used incorrectly or the solver failed."""


class UnsupportedLayerError(RepairError):
    """The requested repair layer does not carry repairable parameters."""


class NotPiecewiseLinearError(RepairError):
    """Polytope repair was requested on a non-piecewise-linear network."""

