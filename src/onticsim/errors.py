"""Exception types shared across the package.

Argument errors (wrong labels, wrong spaces, malformed partitions) get a
named class each so callers can react precisely.  Numerical invariant
violations all raise ToleranceBreach, which the command-line runner maps
to its own exit code.
"""


class OnticSimError(ValueError):
    """Base class for every domain error raised by this package."""


class LabelClash(OnticSimError):
    """A factor label appears twice where labels must be unique."""


class UnknownSubsystem(OnticSimError):
    """A referenced factor label does not exist in the space."""


class NothingToTrace(OnticSimError):
    """A partial trace was asked to keep every factor."""


class SpaceMismatch(OnticSimError):
    """Two operands live on different Hilbert spaces."""


class BadPartition(OnticSimError):
    """Subsystem groups do not partition the factor labels."""


class NotUnitary(OnticSimError):
    """A matrix fails the unitarity check."""


class BadInterval(OnticSimError):
    """Time arguments are not strictly ordered and positive."""


class NotAProjector(OnticSimError):
    """A matrix is not an orthogonal projector of the required rank."""


class NotADistribution(OnticSimError):
    """Probabilities are negative or do not sum to one."""


class GridMismatch(OnticSimError):
    """A trajectory's time grid or indices do not fit the kernel chain."""


class TooManyTrajectories(OnticSimError):
    """Exhaustive enumeration would exceed the configured guard."""


class NotAWitnessPair(OnticSimError):
    """Two parent states do not share the subsystem marginal."""


class ToleranceBreach(OnticSimError):
    """A numerical invariant failed beyond its tolerance."""
