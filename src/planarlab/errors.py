"""Exception types shared across the package."""


class PlanarLabError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(PlanarLabError, ValueError):
    """The requested characteristic is not a prime number."""


class CharTwoUnsupported(PlanarLabError, ValueError):
    """Characteristic 2 is rejected (no planar functions exist there)."""


class FieldTooLarge(PlanarLabError, ValueError):
    """Field order exceeds the configured bound."""


class FieldMismatch(PlanarLabError, ValueError):
    """Operands belong to different fields."""


class DivisionByZero(PlanarLabError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class PolySyntaxError(PlanarLabError, ValueError):
    """Polynomial text does not conform to the grammar."""


class CoefficientOutOfRange(PlanarLabError, ValueError):
    """A coefficient encoding is outside [0, q)."""


class ZeroScale(PlanarLabError, ValueError):
    """A scale factor that must be nonzero was zero."""


class NonAdditiveM(PlanarLabError, ValueError):
    """The polynomial supplied as the additive summand is not additive."""


class NotPlanar(PlanarLabError, ValueError):
    """A planar function was required."""


class NotAlltop(PlanarLabError, ValueError):
    """An Alltop-type function was required."""


class CharacteristicTooSmall(PlanarLabError, ValueError):
    """The construction needs characteristic at least 5."""


class BoundExceeded(PlanarLabError, ValueError):
    """An input exceeds the configured size bound."""


class BudgetExceeded(PlanarLabError, RuntimeError):
    """An enumeration campaign exceeds the configured budget."""


class MislabelledImport(PlanarLabError, ValueError):
    """An imported MUB set's vectors are not those its labels name."""


class LengthMismatch(PlanarLabError, ValueError):
    """Phase tables of unequal length were combined."""
