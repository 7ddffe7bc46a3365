"""Sparse linear expressions over named LP variables.

:class:`LinearExpression` is a small convenience type used when building LPs
row by row (the test-suite uses it heavily).  The
repair algorithms build their constraint blocks directly as dense matrices
for speed, so this class intentionally stays simple: a mapping from variable
index to coefficient plus a constant offset.
"""

from __future__ import annotations

from collections.abc import Mapping


class LinearExpression:
    """An affine expression ``sum_i coeff[i] * x[i] + constant``."""

    __slots__ = ("_coefficients", "constant")

    def __init__(
        self,
        coefficients: Mapping[int, float] | None = None,
        constant: float = 0.0,
    ) -> None:
        self._coefficients: dict[int, float] = {}
        if coefficients:
            for index, value in coefficients.items():
                if value != 0.0:
                    self._coefficients[int(index)] = float(value)
        self.constant = float(constant)

    @classmethod
    def variable(cls, index: int, coefficient: float = 1.0) -> "LinearExpression":
        """The expression ``coefficient * x[index]``."""
        return cls({index: coefficient})

    @property
    def coefficients(self) -> dict[int, float]:
        """A copy of the index→coefficient mapping (zeros omitted)."""
        return dict(self._coefficients)

    def coefficient(self, index: int) -> float:
        """Coefficient of variable ``index`` (0.0 if absent)."""
        return self._coefficients.get(index, 0.0)

    def __add__(self, other) -> "LinearExpression":
        result = LinearExpression(self._coefficients, self.constant)
        if isinstance(other, LinearExpression):
            for index, value in other._coefficients.items():
                updated = result._coefficients.get(index, 0.0) + value
                if updated == 0.0:
                    result._coefficients.pop(index, None)
                else:
                    result._coefficients[index] = updated
            result.constant += other.constant
            return result
        result.constant += float(other)
        return result

    __radd__ = __add__

    def __neg__(self) -> "LinearExpression":
        negated = {index: -value for index, value in self._coefficients.items()}
        return LinearExpression(negated, -self.constant)

    def __sub__(self, other) -> "LinearExpression":
        if isinstance(other, LinearExpression):
            return self + (-other)
        return self + (-float(other))

    def __rsub__(self, other) -> "LinearExpression":
        return (-self) + float(other)

    def __mul__(self, scalar: float) -> "LinearExpression":
        scalar = float(scalar)
        scaled = {index: value * scalar for index, value in self._coefficients.items()}
        return LinearExpression(scaled, self.constant * scalar)

    __rmul__ = __mul__

    def evaluate(self, assignment) -> float:
        """Evaluate the expression at a dense assignment vector."""
        total = self.constant
        for index, value in self._coefficients.items():
            total += value * float(assignment[index])
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = [f"{value:+g}*x{index}" for index, value in sorted(self._coefficients.items())]
        if self.constant or not terms:
            terms.append(f"{self.constant:+g}")
        return " ".join(terms)
