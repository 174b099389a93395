"""Error taxonomy shared by all packetlab modules.

The split matters for the CLI exit-code contract: input-shaped problems
(bad values, violated preconditions) exit 1, and genuine numerical
failures (NumericalError) exit 2.
"""


class PacketLabError(Exception):
    """Base class for all packetlab errors."""


class DomainError(PacketLabError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PreconditionError(PacketLabError, ValueError):
    """A documented input contract was violated: normalization, grids, tags,
    a state the operation annihilates, or a model with no law for it."""


class NumericalError(PacketLabError, RuntimeError):
    """A numerical procedure failed to converge within its budget."""


class AccuracyWarning(UserWarning):
    """Result returned, but an accuracy assumption is strained."""
