"""Error taxonomy shared by all packetlab modules.

The split matters for the CLI exit-code contract: bad input of any kind
(DomainError) exits 1, and genuine numerical failures (NumericalError)
exit 2.
"""


class PacketLabError(Exception):
    """Base class for all packetlab errors."""


class DomainError(PacketLabError, ValueError):
    """Bad input: a malformed flag, invocation or config, a value outside
    the operation's domain, or a broken documented contract (normalization,
    grids, tags, a state the operation annihilates, or a model with no law
    for it)."""


class NumericalError(PacketLabError, RuntimeError):
    """A numerical procedure failed to converge within its budget."""


class AccuracyWarning(UserWarning):
    """Result returned, but an accuracy assumption is strained."""
