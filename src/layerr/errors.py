"""Exception types shared across the package."""


class LayerrError(Exception):
    """Base class for all layerr errors."""


class EvaluationError(LayerrError):
    """A quadrature node produced a non-finite or singular value."""


class NoRootExists(LayerrError):
    """The squared-distance function is constant in the requested variable."""


class NonConvergence(LayerrError):
    """Newton iteration converged from none of its starts."""


class InfiniteGeometryFactor(LayerrError):
    """The derivative of the squared-distance function vanishes at the root."""


class ConfigError(LayerrError):
    """A CLI configuration file could not be parsed or validated."""
