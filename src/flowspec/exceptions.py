"""Exception and warning types used across the package.

Two failure families matter for the CLI exit-code contract: input problems
(bad configuration, unknown models, parameters outside preconditions) map to
exit code 2, while numerical failures discovered during a computation
(capacity limits, eigensolver breakdown, unfittable statistics) map to exit
code 3.  Everything derives from FlowspecError so library users can catch one
base type.
"""


class FlowspecError(Exception):
    """Base class for all package-specific errors."""


# ---- input / validation family (CLI exit code 2) ----

class ValidationError(FlowspecError):
    """A request that can never succeed as posed: bad config or parameters."""


class InvalidResolutionError(ValidationError):
    """Mesh resolution below the minimum supported size."""


class InvalidNoiseError(ValidationError):
    """Negative noise intensity, or zero noise for a gradient flow."""


class UnknownModelError(ValidationError):
    """Model name not present in the bundled registry."""


class NoInstantonError(ValidationError):
    """Splitting scan requested for a potential with fewer than two minima."""


class InsufficientSamplesError(ValidationError):
    """Too few trajectory samples for the requested statistic."""


class DegreeError(FlowspecError):
    """Form degree outside the range supported by the mesh."""


class TopologyError(FlowspecError):
    """Surface input is not a closed orientable 2-manifold."""


class UnsupportedMeshError(FlowspecError):
    """Operation requires a structured periodic grid."""


class DeterministicLimitError(FlowspecError):
    """Operation undefined at zero noise; see the epsilon-sweep diagnostics."""


class NotPotentialError(FlowspecError):
    """Operation requires a declared-potential (gradient) flow."""


# ---- numerical family (CLI exit code 3) ----

class NumericalError(FlowspecError):
    """A computation that failed or produced unusable output."""


class CapacityError(NumericalError):
    """Dense eigenproblem larger than the dense-solver cap, or an SDE path
    store that cannot be allocated."""


class EigensolverError(NumericalError):
    """LAPACK failed to converge on a block, or the block is not finite."""


class IndeterminateIndexError(NumericalError):
    """A critical point is not hyperbolic, so its index is undefined."""


class UnfittableDecayError(NumericalError):
    """Autocorrelation below the noise floor everywhere; no rate fit possible."""


# ---- warnings ----

class GeometryWarning(UserWarning):
    """Triangulation is not well-centered; dual volumes may be non-positive."""


class ResolutionWarning(UserWarning):
    """Flow features are marginally resolved by the grid."""


class StabilityWarning(UserWarning):
    """Time step exceeds the explicit-integrator stability heuristic."""


class GapAmbiguityWarning(UserWarning):
    """An eigenvalue sits inside the zero-mode decision band [tau, 10*tau]."""
