"""Exception types shared across the package."""


class MicrocanonError(Exception):
    """Base class for all library errors."""


class InfeasibleEnergy(MicrocanonError):
    """Total energy cannot be realised on the given lattice."""


class SizeLimit(MicrocanonError):
    """An enumeration would exceed its configured size cap."""


class DegenerateEnergy(MicrocanonError):
    """Mean energy sits on a boundary where the fit parameter diverges."""


class NoConvergence(MicrocanonError):
    """Iterative solver hit its cap; message carries the last bracket."""


class DomainError(MicrocanonError):
    """Argument outside the function's domain."""


class DimensionMismatch(MicrocanonError):
    """Operands live over different spaces or have incompatible shapes."""


class SchemaError(MicrocanonError):
    """A model document does not have the JSON shape of the model schema."""


class MissingTargets(MicrocanonError):
    """Operation needs target probabilities the model does not carry."""


class NormalizationError(MicrocanonError):
    """Amplitudes or probabilities fail their normalization constraint."""
