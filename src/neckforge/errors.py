"""Exception types raised across the library.

Every failure mode that callers are expected to catch gets its own class;
generic ValueError/TypeError remain for plain programming errors.
"""

__all__ = [
    "NeckforgeError",
    "NonPositiveWarp",
    "DegenerateGrid",
    "BoundaryProximity",
    "SingularMetric",
    "RadiusExceedsModel",
    "QuadratureNonConvergence",
    "InfeasibleBudget",
    "CodimensionTooSmall",
    "IngredientFloorTooLow",
    "FloorCheckFailed",
    "MissingIngredient",
    "InterfaceMismatch",
    "SchemaViolation",
    "ParameterOutOfRange",
    "ArtifactWriteFailed",
]


class NeckforgeError(Exception):
    """Base class for all library-specific errors."""


class NonPositiveWarp(NeckforgeError):
    """A warping function is <= 0 somewhere it must be positive."""


class DegenerateGrid(NeckforgeError):
    """A sample grid is too short, non-monotone, or otherwise unusable."""


class BoundaryProximity(NeckforgeError):
    """A finite-difference stencil would leave the chart's stated domain."""


class SingularMetric(NeckforgeError):
    """A metric matrix failed to be positive definite at an evaluation point."""


class RadiusExceedsModel(NeckforgeError):
    """A requested radius does not fit inside the ambient model's injectivity range."""


class QuadratureNonConvergence(NeckforgeError):
    """Adaptive integration failed to stabilize within its refinement budget."""


class InfeasibleBudget(NeckforgeError):
    """No admissible construction exists within the requested curvature budget."""


class CodimensionTooSmall(NeckforgeError):
    """Surgery requested in codimension < 3, where the construction fails."""


class IngredientFloorTooLow(NeckforgeError):
    """An ingredient metric's curvature floor is below what the pipeline needs."""


class FloorCheckFailed(NeckforgeError):
    """A recomputed curvature floor contradicts the value an ingredient claims."""


class MissingIngredient(NeckforgeError):
    """A pipeline was invoked without an ingredient it requires."""


class InterfaceMismatch(NeckforgeError):
    """Boundary jets of two glued pieces disagree beyond tolerance."""


class SchemaViolation(NeckforgeError):
    """A serialized object does not conform to its documented schema."""


class ParameterOutOfRange(NeckforgeError):
    """A numeric parameter violates a documented precondition."""


class ArtifactWriteFailed(NeckforgeError):
    """A certificate or profile file could not be written."""
